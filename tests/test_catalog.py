"""One-crossing diagram catalog: closed forms, partners, families."""

import pytest

import dlknot as dl
from dlknot.catalog import (
    OneCrossing,
    degree_k_family,
    essential_count_closed_form,
    family_rows,
    partner,
    stretch_family,
)


class TestConstruction:
    def test_token_layout(self):
        assert dl.serialize(dl.one_crossing(2, 1, 1)) == "U1+ D+ D+ O1+ D+"
        assert dl.serialize(dl.one_crossing(-1, 0, -1)) == "U1- D- O1-"
        assert dl.serialize(dl.one_crossing(0, 0, 1)) == "U1+ O1+"

    def test_degree_and_parity(self):
        for m in range(-3, 4):
            for n in range(-3, 4):
                d = dl.one_crossing(m, n, 1)
                assert dl.degree(d) == m + n
                p = dl.winding_parity(d, 1)
                if m + n != 0:
                    assert p.value == m % abs(m + n)
                else:
                    assert p.value == m

    def test_realize_matches(self):
        c = OneCrossing(2, -1, -1)
        assert c.realize() == dl.one_crossing(2, -1, -1)


class TestClosedForm:
    def test_generic(self):
        assert essential_count_closed_form(2, 3) == 5
        assert essential_count_closed_form(0, 0) == 0
        assert essential_count_closed_form(-3, -1) == 4

    def test_reduced_case(self):
        assert essential_count_closed_form(-1, 1) == 0
        assert essential_count_closed_form(-3, 3) == 4
        assert essential_count_closed_form(-2, 5) == 5

    def test_against_oracle(self):
        for m in range(-4, 5):
            for n in range(-4, 5):
                assert essential_count_closed_form(m, n) == dl.essential_count(
                    dl.one_crossing(m, n, 1)
                ), (m, n)


class TestPartner:
    def test_formula(self):
        assert partner(1, -1, 1) == OneCrossing(-2, 2, -1)
        assert partner(0, 0, 1) == OneCrossing(-1, 1, -1)

    def test_same_degree(self):
        for m in range(-3, 4):
            for n in range(-3, 4):
                p = partner(m, n, 1)
                assert p.m + p.n == m + n

    def test_involution_up_to_identity(self):
        # partner of the partner restores (m, n, eps)
        for m in range(-2, 3):
            for n in range(-2, 3):
                p = partner(m, n, 1)
                assert partner(p.m, p.n, p.eps) == OneCrossing(m, n, 1)


class TestFamilies:
    def test_small_k_requirement(self):
        with pytest.raises(ValueError):
            degree_k_family(2)

    def test_counts(self):
        assert [len(degree_k_family(k)) for k in range(3, 8)] == [2, 2, 3, 3, 4]

    def test_matches_invariant_merge(self):
        """The family is the first member of each class when (m, k-m) are
        merged by degree, parity profile and essential count, symmetrized
        over the crossing-change partner."""

        def record(c):
            d = c.realize()
            return (dl.degree(d), dl.parity_profile(d), dl.essential_count(d))

        for k in range(3, 41):
            seen = {}
            for m in range(k):
                c = OneCrossing(m, k - m, 1)
                seen.setdefault(tuple(sorted([record(c), record(partner(c.m, c.n, c.eps))])), c)
            assert degree_k_family(k) == list(seen.values()), k

    def test_rows_shape(self):
        rows = family_rows(3)
        assert all(r["degree"] == 3 for r in rows)
        assert {r["essential_count"] for r in rows} == {3}


class TestStretch:
    def test_preconditions(self):
        with pytest.raises(ValueError):
            stretch_family(3, 3, 2)
        with pytest.raises(ValueError):
            stretch_family(1, 2, 2)
        with pytest.raises(ValueError):
            stretch_family(1, 3, 0)

    def test_strictly_increasing(self):
        for k in (3, 4, 5):
            for m in range(1, k):
                fam = stretch_family(m, k, 3)
                counts = [count for _, count in fam]
                base = counts[0]
                assert all(c > base for c in counts[1:]), (m, k, counts)

    def test_degree_constant(self):
        for c, _ in stretch_family(1, 4, 3):
            assert c.m + c.n == 4
