"""Move calculus: application, enumeration, inversion, traces."""

from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dlknot as dl
from dlknot.diagram import DlDiagram, DoubleLine, Passage
from dlknot.moves import (
    CROSSING_CHANGE,
    CROSSING_SLIDING,
    DL_PAIR_ADD,
    DL_PAIR_CANCEL,
    DL_SLIDE,
    R1_REMOVE,
    R2_REMOVE,
    R3,
    MoveError,
    MoveInstance,
    MoveTrace,
    ReplayError,
    invert,
    mk,
)

from conftest import random_diagram


@st.composite
def diagrams(draw, max_crossings=4, max_double_lines=6, degree_zero=False):
    n = draw(st.integers(0, max_crossings))
    tokens = []
    for cid in range(1, n + 1):
        s = draw(st.sampled_from([1, -1]))
        tokens.append(Passage(cid, "U", s))
        tokens.append(Passage(cid, "O", s))
    k = draw(st.integers(0, max_double_lines))
    if degree_zero:
        k -= k % 2
        signs = [1] * (k // 2) + [-1] * (k // 2)
    else:
        signs = [draw(st.sampled_from([1, -1])) for _ in range(k)]
    tokens.extend(DoubleLine(s) for s in signs)
    perm = draw(st.permutations(tokens))
    return DlDiagram(tuple(perm))


class TestApply:
    def test_crossing_change_one_crossing_relation(self):
        # (m, n) with sign eps becomes (n-1, m+1) with sign -eps after
        # one crossing change and cancellation of the adjacent pairs.
        for m in range(-3, 4):
            for n in range(-3, 4):
                for eps in (1, -1):
                    d = dl.one_crossing(m, n, eps)
                    out = dl.apply(d, mk(CROSSING_CHANGE, crossing_id=1, chirality=1))
                    while True:
                        cancels = dl.enumerate_moves(out, {DL_PAIR_CANCEL})
                        if not cancels:
                            break
                        out = dl.apply(out, cancels[0])
                    expect = dl.one_crossing(n - 1, m + 1, -eps)
                    assert dl.canonically_equal(out, expect), (m, n, eps)

    def test_pair_add_then_cancel(self):
        d = dl.parse("U1+ O1+")
        up = dl.apply(d, mk(DL_PAIR_ADD, pos=1, sign=1))
        down = dl.apply(up, mk(DL_PAIR_CANCEL, pos=1))
        assert dl.canonically_equal(down, d)

    def test_sliding_keeps_parities(self):
        d = dl.parse("U1+ O1+")
        out = dl.apply(d, mk(CROSSING_SLIDING, crossing_id=1, direction=1))
        assert sum(1 for t in out.tokens if isinstance(t, DoubleLine)) == 4
        assert dl.degree(out) == 0
        assert all(p.value == 0 for p in dl.parity_profile(out))

    def test_pattern_mismatch(self):
        with pytest.raises(MoveError):
            dl.apply(dl.parse("D+ D+"), mk(DL_PAIR_CANCEL, pos=0))

    @pytest.mark.parametrize(
        "move",
        [
            mk(CROSSING_CHANGE, crossing_id=2, chirality=1),
            mk(CROSSING_SLIDING, crossing_id=9, direction=1),
        ],
        ids=["CrossingChange", "CrossingSliding"],
    )
    def test_unknown_crossing(self, move):
        with pytest.raises(MoveError, match="unknown crossing id"):
            dl.apply(dl.parse("U1+ O1+"), move)


class TestEnumerate:
    def test_trivial_no_cancel(self):
        assert dl.enumerate_moves(dl.parse(""), {DL_PAIR_CANCEL}) == []

    def test_adjacent_pair_sites(self):
        moves = dl.enumerate_moves(dl.parse("D+ D-"), {DL_PAIR_CANCEL})
        assert len(moves) == 1  # both rotational sites delete the same pair
        assert dl.canonically_equal(dl.apply(dl.parse("D+ D-"), moves[0]), dl.parse(""))

    def test_bare_kink_single_r1(self):
        moves = dl.enumerate_moves(dl.one_crossing(0, 0, 1), {R1_REMOVE})
        assert len(moves) == 1

    def test_everything_enumerated_applies(self, rng):
        for _ in range(20):
            d = random_diagram(rng, max_crossings=4, max_double_lines=6)
            for m in dl.enumerate_moves(d, dl.ALL_KINDS):
                dl.apply(d, m)  # must not raise

    # The pattern kinds and their site parameters.
    SITE_KEYS = {
        R1_REMOVE: ("pos",),
        DL_SLIDE: ("pos",),
        DL_PAIR_CANCEL: ("pos",),
        R2_REMOVE: ("pos1", "pos2"),
        R3: ("pos1", "pos2", "pos3"),
    }

    @staticmethod
    def trial_sites(d, kind, keys):
        """Reference: every increasing tuple of sites where ``apply``
        accepts ``kind``, found by trying each one."""
        n = len(d.tokens)
        found = []
        for sites in combinations(range(n), len(keys)):
            if n == 2 and sites == (1,):
                continue  # names the same pair as pos 0
            m = mk(kind, **dict(zip(keys, sites)))
            try:
                dl.apply(d, m)
            except MoveError:
                continue
            found.append(m)
        return found

    def test_pattern_sites_complete(self, rng):
        hits = Counter()
        for _ in range(200):
            d = random_diagram(rng, max_crossings=5, max_double_lines=5)
            for kind, keys in self.SITE_KEYS.items():
                expect = self.trial_sites(d, kind, keys)
                assert dl.enumerate_moves(d, {kind}) == expect, (kind, dl.serialize(d))
                hits[kind] += len(expect)
        assert all(hits[kind] for kind in self.SITE_KEYS), hits

    def test_deterministic(self, rng):
        d = random_diagram(rng, max_crossings=4, max_double_lines=6)
        assert dl.enumerate_moves(d, dl.ALL_KINDS) == dl.enumerate_moves(d, dl.ALL_KINDS)


class TestInvert:
    @settings(max_examples=60, deadline=None)
    @given(diagrams(), st.data())
    def test_roundtrip(self, d, data):
        moves = dl.enumerate_moves(d, dl.ALL_KINDS)
        if not moves:
            return
        m = data.draw(st.sampled_from(moves))
        forward = dl.apply(d, m)
        back = forward
        for step in invert(m, d):
            back = dl.apply(back, step)
        assert dl.canonically_equal(back, d), m.to_line()

    def test_sliding_composite(self):
        d = dl.parse("U1+ D+ O1+ D-")
        m = mk(CROSSING_SLIDING, crossing_id=1, direction=1)
        out = dl.apply(d, m)
        for step in invert(m, d):
            out = dl.apply(out, step)
        assert dl.canonically_equal(out, d)


class TestDegreeAndParityLaws:
    @settings(max_examples=60, deadline=None)
    @given(diagrams(), st.data())
    def test_degree_invariant(self, d, data):
        moves = dl.enumerate_moves(d, dl.ALL_KINDS)
        if not moves:
            return
        m = data.draw(st.sampled_from(moves))
        assert dl.degree(dl.apply(d, m)) == dl.degree(d)

    @settings(max_examples=40, deadline=None)
    @given(diagrams(degree_zero=True), st.data())
    def test_crossing_change_parity_law(self, d, data):
        if not d.crossing_ids:
            return
        cid = data.draw(st.sampled_from(sorted(d.crossing_ids)))
        before = dl.winding_parity(d, cid).value
        out = dl.apply(d, mk(CROSSING_CHANGE, crossing_id=cid, chirality=1))
        assert dl.winding_parity(out, cid).value == -before - 1

    @settings(max_examples=40, deadline=None)
    @given(diagrams(), st.data())
    def test_sliding_preserves_profile(self, d, data):
        if not d.crossing_ids:
            return
        cid = data.draw(st.sampled_from(sorted(d.crossing_ids)))
        s = data.draw(st.sampled_from([1, -1]))
        out = dl.apply(d, mk(CROSSING_SLIDING, crossing_id=cid, direction=s))
        assert dl.parity_profile(out) == dl.parity_profile(d)


class TestTrace:
    def test_replay_empty(self):
        d = dl.parse("U1+ D+ O1+ D-")
        assert dl.replay(MoveTrace(d, ())) == d

    def test_replay_pair(self):
        d = dl.parse("U1+ O1+")
        t = MoveTrace(d, (mk(DL_PAIR_ADD, pos=0, sign=1), mk(DL_PAIR_CANCEL, pos=0)))
        assert dl.canonically_equal(dl.replay(t), d)

    def test_replay_reports_failing_index(self):
        d = dl.parse("U1+ O1+")
        t = MoveTrace(d, (mk(DL_PAIR_ADD, pos=0, sign=1), mk(DL_PAIR_CANCEL, pos=1)))
        with pytest.raises(ReplayError) as e:
            dl.replay(t)
        assert e.value.index == 1

    # A start built directly, with crossing ids out of first-occurrence
    # order: reading it back must keep the ids the steps refer to.
    UNORDERED = DlDiagram(
        (
            Passage(2, "U", 1),
            DoubleLine(-1),
            Passage(1, "U", 1),
            Passage(2, "O", 1),
            Passage(1, "O", 1),
            DoubleLine(1),
        )
    )

    def test_text_roundtrip(self):
        d = dl.parse("U1+ O1+")
        t = MoveTrace(d, (mk(DL_PAIR_ADD, pos=0, sign=1),))
        assert MoveTrace.from_text(t.to_text()) == t
        t = MoveTrace(self.UNORDERED, (mk(CROSSING_CHANGE, crossing_id=2, chirality=1),))
        back = MoveTrace.from_text(t.to_text())
        assert back == t and dl.replay(back) == dl.replay(t)

    def test_json_roundtrip(self):
        d = dl.parse("U1+ O1+")
        t = MoveTrace(d, (mk(CROSSING_SLIDING, crossing_id=1, direction=-1),))
        assert MoveTrace.from_json(t.to_json()) == t
        t = MoveTrace(self.UNORDERED, (mk(CROSSING_CHANGE, crossing_id=2, chirality=1),))
        back = MoveTrace.from_json(t.to_json())
        assert back == t and dl.replay(back) == dl.replay(t)

    @settings(max_examples=40, deadline=None)
    @given(diagrams(), st.data())
    def test_roundtrip_replays_alike(self, d, data):
        # Shuffled codes name their crossings out of first-occurrence order.
        steps, cur = [], d
        for _ in range(data.draw(st.integers(0, 3))):
            m = data.draw(st.sampled_from(dl.enumerate_moves(cur, {CROSSING_CHANGE, DL_PAIR_ADD})))
            steps.append(m)
            cur = dl.apply(cur, m)
        t = MoveTrace(d, tuple(steps))
        assert dl.replay(MoveTrace.from_text(t.to_text())) == cur
        assert dl.replay(MoveTrace.from_json(t.to_json())) == cur

    def test_move_line_roundtrip(self):
        m = mk(CROSSING_CHANGE, crossing_id=3, chirality=-1)
        assert MoveInstance.from_line(m.to_line()) == m
