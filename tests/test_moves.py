"""Move calculus: application, enumeration, inversion, traces."""

import json
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dlknot as dl
from dlknot.diagram import DiagramError, DlDiagram, DoubleLine, Passage, read_tokens
from dlknot.moves import (
    ALL_KINDS,
    CROSSING_CHANGE,
    CROSSING_SLIDING,
    DL_PAIR_ADD,
    DL_PAIR_CANCEL,
    DL_SLIDE,
    GROWTH,
    R1_ADD,
    R1_REMOVE,
    R2_ADD,
    R2_REMOVE,
    R3,
    MoveError,
    MoveInstance,
    MoveTrace,
    VALUES,
    ReplayError,
    _site_error,
    invert,
    mk,
    successors,
)
from dlknot.search import _keyed_children

from conftest import random_degree_zero, random_diagram


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

    def test_chirality_defaults_to_one(self):
        # CrossingChange's chirality is the one parameter that may be left out.
        d = dl.parse("U1+ D- O1+ D+")
        bare = MoveInstance.from_line("CrossingChange crossing_id=1")
        full = mk(CROSSING_CHANGE, crossing_id=1, chirality=1)
        assert dl.serialize(dl.apply(d, bare)) == dl.serialize(dl.apply(d, full))
        assert invert(bare, d) == invert(full, d)

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

    # ``True == 1``, but a boolean is not a position, sign or crossing id.
    @pytest.mark.parametrize(
        "move",
        [
            mk(DL_PAIR_ADD, pos=True, sign=True),
            mk(DL_PAIR_ADD, pos=0, sign=True),
            mk(DL_PAIR_ADD, pos=False, sign=1),
            mk(R1_ADD, pos=0, order="UO", sign=True),
            mk(R2_ADD, pos1=0, pos2=0, role="O", eps=True),
            mk(R1_REMOVE, pos=False),
            mk(CROSSING_CHANGE, crossing_id=1, chirality=True),
            mk(CROSSING_CHANGE, crossing_id=True, chirality=1),
            mk(CROSSING_SLIDING, crossing_id=1, direction=True),
        ],
        ids=lambda m: m.to_line(),
    )
    def test_booleans_rejected(self, move):
        with pytest.raises(MoveError):
            dl.apply(dl.parse("U1+ O1+"), move)

    # A move of a known kind is built only with its kind's names, in any
    # order; the trace readers build through the same check, so they name
    # a bad name alike.
    @pytest.mark.parametrize(
        "kind, params, message",
        [
            (R1_REMOVE, {"pos": 0, "order": "UO"}, "R1Remove takes no parameter 'order'"),
            (DL_PAIR_ADD, {"pos": 0, "sign": 1, "foo": 3}, "DlPairAdd5 takes no parameter 'foo'"),
            (CROSSING_CHANGE, {"crossing_id": 1, "direction": 1},
             "CrossingChange takes no parameter 'direction'"),
            (R1_REMOVE, {"order": "UO"}, "R1Remove is missing parameter 'pos'"),
        ],
        ids=["R1Remove-order", "DlPairAdd5-foo", "CrossingChange-direction", "missing-pos"],
    )
    def test_extra_parameters_rejected(self, kind, params, message):
        with pytest.raises(MoveError, match=f"^{message}$"):
            mk(kind, **params)
        with pytest.raises(MoveError, match=f"^{message}$"):
            MoveInstance(kind, tuple(params.items()))
        line = " ".join([kind] + [f"{k}={v}" for k, v in sorted(params.items())])
        with pytest.raises(MoveError, match=f"^{message}$"):
            MoveInstance.from_line(line)

    def test_repeated_parameter_rejected(self):
        # A move built directly cannot repeat a name, which a move line
        # cannot hold either: both are refused alike.
        with pytest.raises(MoveError, match="^repeated move parameter 'pos'$"):
            MoveInstance(R1_REMOVE, (("pos", 0), ("pos", 1)))
        with pytest.raises(MoveError, match="^repeated move parameter 'pos'$"):
            MoveInstance.from_line("R1Remove pos=0 pos=1")

    def test_value_of_very_many_digits(self):
        # int() refuses more than 4,300 digits by default.
        with pytest.raises(MoveError, match=r"^bad move parameter 'pos=1{16}\.\.\.1{20}'$"):
            MoveInstance.from_line(f"DlPairAdd5 pos={'1' * 5000} sign=1")

    def test_names_in_any_order(self):
        # A move built directly with its kind's names in another order than
        # mk's applies as mk's does; a move of an unknown kind is not built,
        # whichever way it is made, so both trace readers refuse it at read.
        d = dl.parse("U1+ O1+")
        shuffled = MoveInstance(R2_ADD, (("role", "O"), ("pos2", 1), ("eps", 1), ("pos1", 0)))
        assert dl.apply(d, shuffled) == dl.apply(d, mk(R2_ADD, pos1=0, pos2=1, role="O", eps=1))
        json_trace = '{"start": "U1+ O1+", "steps": [{"kind": "Nope", "params": {"pos": 0}}]}'
        for build in (
            lambda: MoveInstance("Nope", (("pos", 0),)),
            lambda: mk("Nope", pos=0),
            lambda: MoveInstance.from_line("Nope pos=0"),
            lambda: MoveTrace.from_text("U1+ O1+\nNope pos=0"),
            lambda: MoveTrace.from_json(json_trace),
        ):
            with pytest.raises(MoveError, match="^unknown move kind 'Nope'$"):
                build()

    def test_r3_crossing_signs(self):
        # Top strand O1 O2, middle U1 O3, bottom U2 U3: the top and middle
        # strands meet tm (crossing 1) first and the bottom strand meets tb
        # (crossing 2) first, so the rule asks for three equal signs.
        # Flipping the sign of any one crossing breaks the site.
        move = mk(R3, pos1=0, pos2=2, pos3=4)
        d = dl.parse("O1+ O2+ U1+ O3+ U2+ U3+")
        child = dl.apply(d, move)
        assert dl.serialize(child) == "O2+ O1+ O3+ U1+ U3+ U2+"
        assert dl.apply(child, move) == d
        flipped = ("O1- O2+ U1- O3+ U2+ U3+", "O1+ O2- U1+ O3+ U2- U3+", "O1+ O2+ U1+ O3- U2+ U3-")
        for text in flipped:
            with pytest.raises(MoveError, match="^R3: crossing signs do not fit the pattern$"):
                dl.apply(dl.parse(text), move)

    # A move that applies to ``U1+ O1+`` for each parameter in ``VALUES``.
    VALUED = {
        "order": mk(R1_ADD, pos=0, order="UO", sign=1),
        "role": mk(R2_ADD, pos1=0, pos2=1, role="O", eps=1),
        "sign": mk(DL_PAIR_ADD, pos=0, sign=1),
        "eps": mk(R2_ADD, pos1=0, pos2=1, role="O", eps=1),
        "chirality": mk(CROSSING_CHANGE, crossing_id=1, chirality=1),
        "direction": mk(CROSSING_SLIDING, crossing_id=1, direction=1),
    }

    @pytest.mark.parametrize("key", sorted(VALUES))
    def test_bad_values_rejected(self, key):
        # A float, a string for an integer, and a value out of range: each
        # is named by kind and parameter.
        d = dl.parse("U1+ O1+")
        good = self.VALUED[key]
        dl.apply(d, good)
        out_of_range = {"order": "OO", "role": "X"}.get(key, 2)
        for bad in (1.0, "1", out_of_range):
            m = MoveInstance(good.kind, tuple((k, bad if k == key else v) for k, v in good.params))
            with pytest.raises(MoveError, match=f"^bad {good.kind} {key}$"):
                dl.apply(d, m)


def candidate_moves(d, kind):
    """Every parameter tuple of ``kind`` on ``d``, in enumeration order:
    increasing site tuples for the pattern kinds, and one site on a
    2-token word, whose site 1 names the same pair as site 0."""
    n = len(d.tokens)
    ins = range(max(n, 1))
    sites = range(1 if n == 2 else n)
    if kind == R1_ADD:
        return [
            mk(kind, pos=p, order=o, sign=s) for p in ins for o in ("OU", "UO") for s in (1, -1)
        ]
    if kind == R2_ADD:
        return [
            mk(kind, pos1=p, pos2=q, role=r, eps=e)
            for p in ins for q in ins for r in "OU" for e in (1, -1)
        ]
    if kind == DL_PAIR_ADD:
        return [mk(kind, pos=p, sign=s) for p in ins for s in (1, -1)]
    if kind in (R1_REMOVE, DL_SLIDE, DL_PAIR_CANCEL):
        return [mk(kind, pos=p) for p in sites]
    if kind == R2_REMOVE:
        return [mk(kind, pos1=p, pos2=q) for p, q in combinations(range(n), 2)]
    if kind == R3:
        return [mk(kind, pos1=p, pos2=q, pos3=r) for p, q, r in combinations(range(n), 3)]
    key = "chirality" if kind == CROSSING_CHANGE else "direction"
    return [mk(kind, crossing_id=c, **{key: s}) for c in d.crossing_ids for s in (1, -1)]


def is_mirror(m):
    """An R2Add instance whose child is that of the instance with ``pos1``
    and ``pos2`` swapped, up to renaming; that one is listed instead."""
    return m.kind == R2_ADD and m["pos1"] > m["pos2"]


def reference_successors(d, kind):
    """Reference for ``successors``: each candidate but R2Add's mirrors that
    ``apply`` accepts, with ``apply``'s child."""
    out = []
    for m in candidate_moves(d, kind):
        if is_mirror(m):
            continue
        try:
            out.append((m, dl.apply(d, m)))
        except MoveError:
            pass
    return out


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

    SITE_KINDS = (R1_REMOVE, DL_SLIDE, DL_PAIR_CANCEL, R2_REMOVE, R3)

    def test_pattern_sites_complete(self, rng):
        hits = Counter()
        for _ in range(200):
            d = random_diagram(rng, max_crossings=5, max_double_lines=5)
            for kind in self.SITE_KINDS:
                expect = [m for m, _ in reference_successors(d, kind)]
                assert dl.enumerate_moves(d, {kind}) == expect, (kind, dl.serialize(d))
                hits[kind] += len(expect)
        assert all(hits[kind] for kind in self.SITE_KINDS), hits

    def test_r2_remove_matches_pair_scan(self, rng):
        """Reference: the scan of every pair of sites that the partner
        positions replace."""
        hits = 0
        for _ in range(2000):
            d = random_diagram(rng, max_crossings=5, max_double_lines=3)
            if d.tokens and rng.random() < 0.5:
                # An R2Add plants a pattern, which shuffled words rarely hold.
                n = len(d.tokens)
                d = dl.apply(d, mk(R2_ADD, pos1=rng.randrange(n), pos2=rng.randrange(n),
                                   role=rng.choice("OU"), eps=rng.choice((1, -1))))
            expect = [
                mk(R2_REMOVE, pos1=pos1, pos2=pos2)
                for pos1, pos2 in combinations(range(len(d.tokens)), 2)
                if _site_error(d.tokens, R2_REMOVE, (pos1, pos2)) is None
            ]
            assert dl.enumerate_moves(d, {R2_REMOVE}) == expect, dl.serialize(d)
            hits += len(expect)
        assert hits > 1000, hits

    def test_growth_is_exact(self, rng):
        seen = set()
        for _ in range(200):
            d = random_diagram(rng, max_crossings=4, max_double_lines=5)
            for m in dl.enumerate_moves(d, dl.ALL_KINDS):
                assert len(dl.apply(d, m).tokens) - len(d.tokens) == GROWTH[m.kind], m.to_line()
                seen.add(m.kind)
        assert seen == set(GROWTH) == dl.ALL_KINDS

    def test_deterministic(self, rng):
        d = random_diagram(rng, max_crossings=4, max_double_lines=6)
        assert dl.enumerate_moves(d, dl.ALL_KINDS) == dl.enumerate_moves(d, dl.ALL_KINDS)


class TestSuccessors:
    def test_matches_apply_reference(self, rng):
        # Also the keys the search uses: each is the child's canonical key.
        # Those of R1Add and DlPairAdd5 children, taken from the parent's
        # code, are checked on every word; the others, taken from the built
        # child, on every tenth word, for time: R2Add gives most children.
        hits = Counter()
        for i in range(2000):
            d = random_diagram(rng, max_crossings=4, max_double_lines=6)
            every = []
            for kind in sorted(ALL_KINDS):
                expect = reference_successors(d, kind)
                assert successors(d, {kind}) == expect, (kind, dl.serialize(d))
                every += expect
                hits[kind] += len(expect)
            assert successors(d, ALL_KINDS) == every, dl.serialize(d)
            kinds = ALL_KINDS if i % 10 == 0 else {R1_ADD, DL_PAIR_ADD}
            keyed = [(MoveInstance(k, ps), key) for k, ps, key, _, _ in _keyed_children(d, kinds)]
            expect = [(m, dl.canonical_key(c)) for m, c in every if m.kind in kinds]
            assert keyed == expect, dl.serialize(d)
        assert set(hits) == ALL_KINDS and all(hits.values()), hits

    def test_r2add_mirrors(self, rng):
        # eps=e pos1=p pos2=q role=O and eps=-e pos1=q pos2=p role=U give
        # one word up to renaming, so only the one with pos1 <= pos2 is
        # listed: 4 instances per pair p <= q of insertion positions.  apply
        # still takes the other, and invert undoes it.
        other = {dl.OVER: dl.UNDER, dl.UNDER: dl.OVER}
        mirrors = 0
        for i in range(300):
            d = dl.parse("") if i == 0 else random_diagram(rng, max_crossings=3, max_double_lines=4)
            kids = successors(d, {R2_ADD})
            ins = max(len(d.tokens), 1)
            assert len(kids) == 2 * ins * (ins + 1), dl.serialize(d)
            assert not any(is_mirror(m) for m, _ in kids), dl.serialize(d)
            keyed = [MoveInstance(k, ps) for k, ps, _, _, _ in _keyed_children(d, ALL_KINDS)]
            assert dl.enumerate_moves(d, ALL_KINDS) == keyed, dl.serialize(d)
            for m, child in kids:
                if m["pos1"] == m["pos2"]:
                    continue
                eps, role = -m["eps"], other[m["role"]]
                mirror = mk(R2_ADD, eps=eps, pos1=m["pos2"], pos2=m["pos1"], role=role)
                twin = dl.apply(d, mirror)
                assert_valid(twin)
                assert dl.canonical_key(twin) == dl.canonical_key(child), mirror.to_line()
                back = twin
                for step in invert(mirror, d):
                    back = dl.apply(back, step)
                assert dl.canonically_equal(back, d), (dl.serialize(d), mirror.to_line())
                mirrors += 1
        assert mirrors > 1000, mirrors

    def test_unknown_kind(self):
        with pytest.raises(MoveError, match="unknown move kind"):
            successors(dl.parse("U1+ O1+"), {R1_REMOVE, "Nope"})


def assert_valid(child):
    """``apply`` and ``successors`` build their children without the check
    that ``DlDiagram`` runs (``_validate``): they must pass it all the same."""
    assert type(child.tokens) is tuple
    assert DlDiagram(child.tokens) == child


class TestOutputsValid:
    def test_every_instance(self, rng):
        kinds = Counter()
        for _ in range(2000):
            d = random_diagram(rng, max_crossings=3, max_double_lines=2)
            for m, child in successors(d, dl.ALL_KINDS):
                assert_valid(child)
                kinds[m.kind] += 1
        assert set(kinds) == dl.ALL_KINDS, kinds

    def test_walks_and_replay(self, rng):
        kinds = Counter()
        for _ in range(300):
            start = cur = random_diagram(rng, max_crossings=3, max_double_lines=4)
            steps = []
            for _ in range(8):
                room = 14 - len(cur.tokens)
                moves = dl.enumerate_moves(cur, [k for k in dl.ALL_KINDS if GROWTH[k] <= room])
                if not moves:
                    break
                m = rng.choice(moves)
                cur = dl.apply(cur, m)
                assert_valid(cur)
                steps.append(m)
                kinds[m.kind] += 1
            t = MoveTrace(start, tuple(steps))
            assert MoveTrace.from_text(t.to_text()) == t
            assert MoveTrace.from_json(t.to_json()) == t
            assert dl.replay(MoveTrace.from_text(t.to_text())) == cur
        assert set(kinds) == dl.ALL_KINDS, kinds
        for _ in range(100):
            trace = dl.eliminate_double_lines(dl.parity_projection(random_degree_zero(rng))).trace
            cur = trace.start
            for m in trace.steps:
                cur = dl.apply(cur, m)
                assert_valid(cur)
            assert dl.replay(trace) == cur
            assert MoveTrace.from_text(trace.to_text()) == trace
            assert MoveTrace.from_json(trace.to_json()) == trace

    # Lone passages and broken pairs.
    @pytest.mark.parametrize("text", ["U1+", "O1+ D+", "U1+ U1+", "U1+ O1-", "U1+ O1+ U1+"])
    def test_outside_input_still_checked(self, text):
        with pytest.raises(DiagramError):
            dl.parse(text)
        with pytest.raises(DiagramError):
            DlDiagram(tuple(read_tokens(text)))
        with pytest.raises(DiagramError):
            MoveTrace.from_text(text + "\nDlPairAdd5 pos=0 sign=1\n")
        with pytest.raises(DiagramError):
            MoveTrace.from_json(json.dumps({"start": text, "steps": []}))


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

    def test_undo_every_instance(self, rng):
        # Seeded words, half with a planted R2Add pattern, each rotated at
        # random so that some sites cross the end of the word.  Every
        # instance is undone; the three inserting kinds are subsampled.
        inserting = {R1_ADD, R2_ADD, DL_PAIR_ADD}
        deleting = {R1_REMOVE, DL_PAIR_CANCEL, R2_REMOVE}
        seen, at_end = Counter(), set()
        for _ in range(1000):
            d = random_diagram(rng, max_crossings=3, max_double_lines=4)
            n = len(d.tokens)
            if rng.random() < 0.5:
                pos1, pos2 = rng.randint(0, n), rng.randint(0, n)
                m = mk(R2_ADD, pos1=pos1, pos2=pos2, role=rng.choice("OU"), eps=rng.choice((1, -1)))
                d = dl.apply(d, m)
            r = rng.randrange(max(len(d.tokens), 1))
            d = DlDiagram(d.tokens[r:] + d.tokens[:r])
            last = len(d.tokens) - 1
            for m, child in successors(d):
                if m.kind in inserting and rng.random() > 0.03:
                    continue
                back = child
                for step in invert(m, d):
                    back = dl.apply(back, step)
                assert dl.canonically_equal(back, d), (dl.serialize(d), m.to_line())
                seen[m.kind] += 1
                if m.kind in deleting and last in dict(m.params).values():
                    at_end.add(m.kind)
        assert set(seen) == ALL_KINDS, seen
        assert at_end == deleting

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

    def test_library_trace_with_extra_parameter(self):
        # A trace built in the library cannot hold a step that its text and
        # JSON forms could not be read back with: the step is not built.
        with pytest.raises(MoveError, match="^DlPairAdd5 takes no parameter 'foo'$"):
            mk(DL_PAIR_ADD, pos=0, sign=1, foo=3)
        step = {"kind": DL_PAIR_ADD, "params": {"foo": 3, "pos": 0, "sign": 1}}
        for read, text in (
            (MoveTrace.from_text, "U1+ O1+\nDlPairAdd5 foo=3 pos=0 sign=1\n"),
            (MoveTrace.from_json, json.dumps({"start": "U1+ O1+", "steps": [step]})),
        ):
            with pytest.raises(MoveError, match="^DlPairAdd5 takes no parameter 'foo'$"):
                read(text)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("{bad", "bad trace JSON: Expecting property name enclosed in double quotes: "
                     "line 1 column 2 (char 1)"),
            ('{"start": "U1+ O1+", "steps": [{"kind": "DlPairAdd5", "params": {"pos": '
             + "1" * 5000 + ', "sign": 1}}]}', "bad trace JSON: an integer has too many digits"),
        ],
        ids=["bad-json", "huge-integer"],
    )
    def test_unreadable_json(self, text, message):
        # Not JSON, or an integer of more digits than int() reads: a
        # MoveError of one short line, not json's or int()'s ValueError.
        with pytest.raises(MoveError) as e:
            MoveTrace.from_json(text)
        assert str(e.value) == message

    def test_library_trace_with_repeated_parameter(self):
        # Neither a move line nor a JSON object can hold a repeated name, so
        # a step built with one is refused with the text reader's error.
        with pytest.raises(MoveError, match="^repeated move parameter 'pos'$"):
            MoveInstance(DL_PAIR_CANCEL, (("pos", 0), ("pos", 1)))
        text = "U1+ D+ D- O1+\nDlPairAdd5 pos=0 sign=1\nDlPairCancel5 pos=0 pos=1\n"
        with pytest.raises(MoveError, match="^repeated move parameter 'pos'$"):
            MoveTrace.from_text(text)

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
