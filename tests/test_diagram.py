"""Core token-sequence representation: parsing, canonical forms, invariants."""

import pytest

import dlknot as dl
from dlknot.diagram import (
    DiagramError,
    DlDiagram,
    DoubleLine,
    Passage,
    _code,
    _relabel_first_occurrence,
    read_tokens,
    token_to_text,
)

from conftest import random_diagram


class TestParse:
    def test_basic(self):
        d = dl.parse("U1+ D+ D+ O1+ D+")
        assert len(d.crossing_ids) == 1
        assert sum(1 for t in d.tokens if isinstance(t, DoubleLine)) == 3

    def test_empty_is_trivial(self):
        assert dl.parse("").tokens == ()
        assert dl.degree(dl.parse("")) == 0

    def test_id_appearing_three_times(self):
        with pytest.raises(DiagramError):
            dl.parse("U1+ O1+ U1+")

    def test_mismatched_signs(self):
        with pytest.raises(DiagramError):
            dl.parse("U1+ O1-")

    def test_two_unders(self):
        with pytest.raises(DiagramError):
            dl.parse("U1+ U1+")

    def test_malformed_token(self):
        with pytest.raises(DiagramError):
            dl.parse("U1+ X2- O1+")

    # One fault each.  The ids are in order of first occurrence, so parse,
    # which renames them so, checks the tokens that DlDiagram is given.
    @pytest.mark.parametrize(
        "text, message",
        [
            ("U1+ D+ U2- O2-", "crossing id 1 appears 1 times, expected 2"),
            ("U1+ O1+ U1+", "crossing id 1 appears 3 times, expected 2"),
            ("U1+ D- U2- O2- O1+ U2-", "crossing id 2 appears 3 times, expected 2"),
            ("U1+ U1+", "crossing id 1 must appear once Over and once Under"),
            ("U1- D+ O2+ O2+ O1-", "crossing id 2 must appear once Over and once Under"),
            ("U1+ O1-", "crossing id 1 has mismatched crossing signs"),
        ],
        ids=["lone-passage", "three-times", "three-times-late", "two-unders", "two-overs",
             "mismatched-signs"],
    )
    def test_single_fault_message(self, text, message):
        with pytest.raises(DiagramError) as parsed:
            dl.parse(text)
        with pytest.raises(DiagramError) as built:
            DlDiagram(tuple(read_tokens(text)))
        assert str(parsed.value) == str(built.value) == message

    def test_malformed_token_message(self):
        with pytest.raises(DiagramError) as exc:
            dl.parse("U1+ X2- O1+")
        assert str(exc.value) == "malformed token 'X2-'"

    def test_id_of_very_many_digits(self):
        # int() refuses more than 4,300 digits by default; the token is then
        # malformed, and the message shows it shortened.
        digits = "1" * 5000
        for read in (dl.parse, read_tokens):
            with pytest.raises(DiagramError) as exc:
                read(f"U{digits}+ O{digits}+")
            assert str(exc.value) == f"malformed token 'U{'1' * 19}...{'1' * 19}+'"

    def test_relabels_as_the_separate_pass(self, rng):
        # Ids out of order, some written with leading zeros, against reading
        # them as written and then renaming them in a separate pass.
        for _ in range(2000):
            d = random_diagram(rng, 7, 16)
            names = rng.sample(range(1, 10**6), len(d.crossing_ids))
            rename = dict(zip(d.crossing_ids, names))
            text = " ".join(
                f"{t.role}{'0' * rng.randint(0, 2)}{rename[t.crossing_id]}{'+' if t.sign > 0 else '-'}"
                if isinstance(t, Passage) else token_to_text(t)
                for t in d.tokens
            )
            assert dl.parse(text) == DlDiagram(tuple(_relabel_first_occurrence(read_tokens(text))))

    def test_roundtrip(self, rng):
        for _ in range(50):
            d = random_diagram(rng)
            assert dl.canonically_equal(dl.parse(dl.serialize(d)), d)


class TestValidate:
    # ``True == 1`` and ``1.0 == 1``, but neither is a crossing id or a sign;
    # a token list would fail later, in ``apply`` and ``hash``.
    @pytest.mark.parametrize(
        "tokens, message",
        [
            ([Passage(1, "U", 1), DoubleLine(1), Passage(1, "O", 1)], "tokens must be a tuple"),
            ((Passage(True, "U", 1), Passage(True, "O", 1)), "crossing id must be a positive int"),
            ((Passage(1.0, "U", 1), Passage(1.0, "O", 1)), "crossing id must be a positive int"),
            ((Passage("1", "U", 1), Passage("1", "O", 1)), "crossing id must be a positive int"),
            ((Passage(1, "U", True), Passage(1, "O", True)), "bad crossing sign True"),
            ((Passage(1, "U", 1.0), Passage(1, "O", 1.0)), "bad crossing sign 1.0"),
            ((DoubleLine(True),), "bad double-line sign True"),
            ((DoubleLine(-1.0),), "bad double-line sign -1.0"),
            ((Passage(1, "X", 1), Passage(1, "O", 1)), "^bad role 'X'$"),
            ((Passage(1, "U", 1), "D+", Passage(1, "O", 1)), r"^unknown token 'D\+'$"),
        ],
        ids=["list", "bool-id", "float-id", "str-id", "bool-sign", "float-sign",
             "bool-line", "float-line", "bad-role", "unknown-token"],
    )
    def test_rejected(self, tokens, message):
        with pytest.raises(DiagramError, match=message):
            DlDiagram(tokens)


class TestSerialize:
    def test_trivial(self):
        assert dl.serialize(dl.parse("")) == ""

    def test_double_lines_only(self):
        assert dl.serialize(dl.parse("D+ D-")) == "D+ D-"

    def test_one_crossing(self):
        assert dl.serialize(dl.parse("U1+ O1+")) == "U1+ O1+"


class TestCanonicalize:
    def test_rotation_and_relabel(self):
        a = dl.parse("O1+ D+ U1+")
        b = dl.parse("U3+ O3+ D+")
        assert dl.canonicalize(a) == dl.canonicalize(b)
        assert dl.canonically_equal(a, b)

    def test_trivial_fixed_point(self):
        t = dl.parse("")
        assert dl.canonicalize(t) == t

    def test_double_line_rotation(self):
        assert dl.canonically_equal(dl.parse("D+ D-"), dl.parse("D- D+"))

    def test_distinct_codes_stay_distinct(self):
        # Same parities of tokens but a genuinely different cyclic word.
        a = dl.parse("U1+ D+ O1+ D-")
        b = dl.parse("D+ U1+ O1+ D-")
        assert not dl.canonically_equal(a, b)

    def test_degree_preserved(self, rng):
        for _ in range(50):
            d = random_diagram(rng)
            assert dl.degree(dl.canonicalize(d)) == dl.degree(d)


def reference_canonical(d):
    """The least, under a fixed token order, of every rotation of the word
    with crossings relabeled by first occurrence (the O(n^2) definition
    ``canonical_key`` replaces)."""

    def token_key(t):
        if isinstance(t, DoubleLine):
            return (0, t.sign < 0)
        return (1, t.role == "O", t.crossing_id, t.sign < 0)

    best = None
    for r in range(len(d.tokens)):
        mapping = {}
        cand = []
        for t in d.tokens[r:] + d.tokens[:r]:
            if isinstance(t, Passage):
                t = Passage(mapping.setdefault(t.crossing_id, len(mapping) + 1), t.role, t.sign)
            cand.append(token_key(t))
        best = cand if best is None or cand < best else best
    return best


def rotated_and_renamed(rng, d):
    """``d`` rotated by a random amount with its crossings renamed at random."""
    ids = d.crossing_ids
    new = dict(zip(ids, rng.sample(range(1, 60), len(ids))))
    r = rng.randrange(len(d.tokens)) if d.tokens else 0
    return DlDiagram(
        tuple(
            Passage(new[t.crossing_id], t.role, t.sign) if isinstance(t, Passage) else t
            for t in d.tokens[r:] + d.tokens[:r]
        )
    )


def all_rotations_key(d):
    """Reference: the least of all n rotations of the word's code."""
    c = _code(d.tokens)
    return min((c[i:] + c[:i] for i in range(len(c))), default=())


def all_rotations_form(d):
    """Reference: the word rotated to the first start of the least code
    rotation among all n, crossings relabeled by first occurrence."""
    if not d.tokens:
        return d
    c = _code(d.tokens)
    r = min(range(len(c)), key=lambda i: c[i:] + c[:i])
    return dl.parse(dl.serialize(DlDiagram(d.tokens[r:] + d.tokens[:r])))


class TestCanonicalKey:
    # Words whose least code value occurs many times.
    REPEATED = [
        "",
        "D+",
        "D-",
        "D+ D+ D+ D+",
        "D+ D- D+ D- D+ D-",
        "U1+ O1+",
        "U1+ O1+ U2+ O2+ U3+ O3+ U4+ O4+",
        "U1+ O1+ D+ U2+ O2+ D+ U3+ O3+ D+",
        "U1+ O2+ U2+ O1+ U3+ O4+ U4+ O3+",
        "U1- O2- D+ U2- O1- D+ U3- O4- D+ U4- O3- D+",
        "D+ D+ U1+ O1+ D+ D+ U2+ O2+ D+ U3+ O3+",
    ]

    def test_least_value_starts_match_all_rotations(self, rng):
        words = [dl.parse(t) for t in self.REPEATED]
        words += [random_diagram(rng, max_crossings=3, max_double_lines=4) for _ in range(2000)]
        for d in words:
            assert dl.canonical_key(d) == all_rotations_key(d), dl.serialize(d)
            assert dl.canonicalize(d) == all_rotations_form(d), dl.serialize(d)

    def test_matches_reference(self, rng):
        same = differ = 0
        for _ in range(3000):
            # Small words, so that unrelated draws are often equivalent.
            a = random_diagram(rng, max_crossings=2, max_double_lines=3)
            b = random_diagram(rng, max_crossings=2, max_double_lines=3)
            for x, y in ((a, b), (a, rotated_and_renamed(rng, a)), (a, rotated_and_renamed(rng, b))):
                want = reference_canonical(x) == reference_canonical(y)
                assert (dl.canonical_key(x) == dl.canonical_key(y)) == want, (x, y)
                same += want
                differ += not want
        assert same > 3000 and differ > 3000

    def test_rotation_and_renaming_invisible(self, rng):
        for _ in range(300):
            d = random_diagram(rng)
            assert dl.canonical_key(rotated_and_renamed(rng, d)) == dl.canonical_key(d)

    def test_canonicalize_keeps_key_and_is_idempotent(self, rng):
        for _ in range(300):
            d = random_diagram(rng)
            c = dl.canonicalize(d)
            assert dl.canonical_key(c) == dl.canonical_key(d)
            assert dl.canonicalize(c) == c
            assert dl.canonicalize(rotated_and_renamed(rng, d)) == c


class TestDegree:
    def test_one_crossing(self):
        assert dl.degree(dl.one_crossing(2, 1, 1)) == 3

    def test_sum_of_signs(self):
        assert dl.degree(dl.parse("D+ D+ D-")) == 1


def walked_sum(d, cid, start):
    """The double-line signs met walking the cyclic word from the ``start``
    passage ("U" or "O") of crossing ``cid`` to its other passage."""
    n = len(d.tokens)
    (i,) = [
        i
        for i, t in enumerate(d.tokens)
        if isinstance(t, Passage) and t.crossing_id == cid and t.role == start
    ]
    total = 0
    while True:
        i = (i + 1) % n
        t = d.tokens[i]
        if isinstance(t, Passage) and t.crossing_id == cid:
            return total
        if isinstance(t, DoubleLine):
            total += t.sign


class TestWindingParity:
    def test_one_crossing_block(self):
        p = dl.winding_parity(dl.one_crossing(2, 1, 1), 1)
        assert (p.value, p.modulus) == (2, 3)

    def test_no_double_lines(self):
        p = dl.winding_parity(dl.parse("U1+ O1+"), 1)
        assert (p.value, p.modulus) == (0, 0)

    def test_degree_zero_negative(self):
        p = dl.winding_parity(dl.parse("U1+ D- O1+ D+"), 1)
        assert (p.value, p.modulus) == (-1, 0)

    def test_unknown_crossing(self):
        with pytest.raises(DiagramError):
            dl.winding_parity(dl.parse("U1+ O1+"), 7)

    def test_value_within_modulus(self):
        # Plain Z (modulus 0) takes any value; Z_m takes 0, ..., m - 1.
        assert dl.WindingParity(-5, 0).value == -5 and dl.WindingParity(2, 3).value == 2
        with pytest.raises(DiagramError, match="^modulus must be non-negative$"):
            dl.WindingParity(0, -1)
        for value in (-1, 3):
            with pytest.raises(DiagramError, match="^value out of range for modulus$"):
                dl.WindingParity(value, 3)

    def test_rotation_invariant(self, rng):
        for _ in range(30):
            d = random_diagram(rng, max_crossings=4, max_double_lines=6)
            if not d.crossing_ids:
                continue
            for shift in range(len(d.tokens)):
                rot = DlDiagram(d.tokens[shift:] + d.tokens[:shift])
                for cid in d.crossing_ids:
                    assert dl.winding_parity(rot, cid) == dl.winding_parity(d, cid)

    def test_raw_sum_is_the_walk_from_under(self, rng):
        # The definition: the lines met from the Under to the Over passage.
        over_first = no_lines = 0
        for _ in range(500):
            d = random_diagram(rng)
            no_lines += d.double_line_count == 0
            for cid in d.crossing_ids:
                roles = [t.role for t in d.tokens if isinstance(t, Passage) and t.crossing_id == cid]
                over_first += roles[0] == "O"
                assert dl.raw_winding_sum(d, cid) == walked_sum(d, cid, "U"), dl.serialize(d)
        assert over_first and no_lines

    def test_degree_zero_complement_identity(self, rng):
        # For degree 0 the total sign sum vanishes, so the half starting at
        # the Under passage carries minus the sum of the other half.
        for _ in range(30):
            d = random_diagram(rng, degree_zero=True)
            for cid in d.crossing_ids:
                assert walked_sum(d, cid, "O") == -dl.raw_winding_sum(d, cid)

    def test_residues_normalized(self, rng):
        for _ in range(30):
            d = random_diagram(rng)
            deg = dl.degree(d)
            for cid in d.crossing_ids:
                p = dl.winding_parity(d, cid)
                if deg != 0:
                    assert p.modulus == abs(deg) and 0 <= p.value < abs(deg)
                else:
                    assert p.modulus == 0


class TestParityProfile:
    def test_one_crossing(self):
        (p,) = dl.parity_profile(dl.one_crossing(1, 2, 1))
        assert (p.value, p.modulus) == (1, 3)

    def test_trivial(self):
        assert dl.parity_profile(dl.parse("")) == ()

    def test_invariant_record_shape(self):
        rec = dl.invariant_record(dl.one_crossing(2, 1, 1))
        assert rec == {
            "degree": 3,
            "parities": [{"value": 2, "modulus": 3}],
            "crossings": 1,
            "double_lines": 3,
        }
