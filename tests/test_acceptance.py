"""Acceptance suite: one test per acceptance criterion.

Each test is a self-contained check of a documented guarantee, at the
sample sizes and runtime budgets stated in the project requirements.
Run with -v to get one pass/fail line per criterion.
"""

import random
import time
from collections import Counter, defaultdict
from itertools import accumulate

import dlknot as dl
from dlknot.diagram import OVER, UNDER, DoubleLine, Passage
from dlknot.moves import (
    CROSSING_CHANGE,
    R1_ADD,
    R1_REMOVE,
    R2_ADD,
    R2_REMOVE,
    R3,
    mk,
)
from conftest import SEED, random_degree_zero, random_diagram

COUNT_PRESERVING_KINDS = frozenset({R1_ADD, R1_REMOVE, R2_ADD, R2_REMOVE, R3})


def _parity_value(d, cid):
    return dl.winding_parity(d, cid).value


def _r3_triple(d, m):
    """The (i, j, k) parity values at an R3 site: k is the crossing shared
    by the over-over pair and the under-under pair."""
    tokens = d.tokens
    n = len(tokens)
    pairs = []
    for key in ("pos1", "pos2", "pos3"):
        p = m[key]
        a, b = tokens[p % n], tokens[(p + 1) % n]
        pairs.append(((a.role, a.crossing_id), (b.role, b.crossing_id)))
    def ids_with_roles(pair):
        return {cid for _, cid in pair}, sorted(role for role, _ in pair)
    oo = uu = None
    for pair in pairs:
        ids, roles = ids_with_roles(pair)
        if roles == ["O", "O"]:
            oo = ids
        elif roles == ["U", "U"]:
            uu = ids
    (k,) = oo & uu
    others = sorted({cid for pair in pairs for _, cid in pair} - {k})
    i, j = others
    return _parity_value(d, i), _parity_value(d, j), _parity_value(d, k)


def test_criterion_01_move_invariance_and_parity_laws():
    """Degree invariance plus the local parity laws, 10,000 sampled moves."""
    rng = random.Random(SEED)
    t0 = time.monotonic()
    checked = 0
    while checked < 10_000:
        d = random_diagram(rng, max_crossings=8, max_double_lines=12)
        moves = dl.enumerate_moves(d, dl.ALL_KINDS)
        if not moves:
            continue
        deg = dl.degree(d)
        sample = [moves[rng.randrange(len(moves))] for _ in range(25)]
        for m in sample:
            out = dl.apply(d, m)
            assert dl.degree(out) == deg, m.to_line()
            if m.kind == R1_ADD:
                (new,) = set(out.crossing_ids) - set(d.crossing_ids)
                assert _parity_value(out, new) == 0, m.to_line()
            elif m.kind == R2_ADD:
                a, b = sorted(set(out.crossing_ids) - set(d.crossing_ids))
                assert dl.winding_parity(out, a) == dl.winding_parity(out, b)
            elif m.kind == R3:
                for side in (d, out):
                    i, j, k = _r3_triple(side, m)
                    if deg == 0:
                        assert i + j - k == 0
                    else:
                        assert (i + j - k) % abs(deg) == 0
            elif m.kind == CROSSING_CHANGE and deg == 0:
                cid = m["crossing_id"]
                assert _parity_value(out, cid) == -_parity_value(d, cid) - 1
            checked += 1
    assert time.monotonic() - t0 < 60


def test_criterion_02_projection_normalizes_and_is_idempotent():
    """1,000 random degree-0 diagrams: output all-parity-0, idempotent."""
    rng = random.Random(SEED + 2)
    for _ in range(1_000):
        d = random_degree_zero(rng, max_crossings=6, max_double_lines=10)
        p = dl.parity_projection(d)
        assert all(w.value == 0 for w in dl.parity_profile(p))
        assert dl.degree(p) == 0
        assert dl.canonically_equal(dl.parity_projection(p), p)


def test_criterion_03_elimination_terminates_and_replays():
    """1,000 random degree-0 diagrams with parities forced into {0, -1}."""
    rng = random.Random(SEED + 3)
    t0 = time.monotonic()
    for _ in range(1_000):
        d = dl.parity_projection(
            random_degree_zero(rng, max_crossings=5, max_double_lines=8)
        )
        for cid in sorted(d.crossing_ids):
            if rng.random() < 0.5:
                d = dl.apply(d, mk(CROSSING_CHANGE, crossing_id=cid, chirality=1))
        cert = dl.eliminate_double_lines(d)
        assert not any(isinstance(t, DoubleLine) for t in cert.result.tokens)
        assert dl.canonically_equal(dl.replay(cert.trace), cert.result)
    assert time.monotonic() - t0 < 120


def test_criterion_04_essential_count_closed_form_vs_oracle():
    """All 162 cases |m|,|n| <= 4, both crossing signs: exact agreement."""
    cases = 0
    for m in range(-4, 5):
        for n in range(-4, 5):
            for eps in (1, -1):
                got = dl.essential_count(dl.one_crossing(m, n, eps))
                assert got == dl.essential_count_closed_form(m, n), (m, n, eps)
                cases += 1
    assert cases == 162


def test_criterion_05_partner_consistency():
    """(m,n) with sign eps and (n-1,m+1) with sign -eps agree on degree
    and essential count over the same range."""
    for m in range(-4, 5):
        for n in range(-4, 5):
            for eps in (1, -1):
                p = dl.partner(m, n, eps)
                a = dl.one_crossing(m, n, eps)
                b = dl.one_crossing(p.m, p.n, p.eps)
                assert dl.degree(a) == dl.degree(b)
                assert dl.essential_count(a) == dl.essential_count(b), (m, n, eps)


def test_criterion_06_family_size_lower_bounds():
    """Degree-k family sizes are exactly ceil(k/2), which meets the
    floor((k-2)/2) (+1 when odd) bounds.  The members are parity pairs
    {m, k-1-m}, not proven distinct knots: every one has essential count k."""
    for k in range(3, 41):
        assert len(dl.degree_k_family(k)) == (k + 1) // 2, k


def test_criterion_07_stretch_counts_strictly_increase():
    """Essential counts of (m+sk, k-sk-m) exceed those of (m, k-m)."""
    for k in (3, 4, 5):
        for m in range(1, k):
            if m % k == 0:
                continue
            base = dl.essential_count(dl.one_crossing(m, k - m, 1))
            for s in range(1, 4):
                stretched = dl.essential_count(
                    dl.one_crossing(m + s * k, k - s * k - m, 1)
                )
                assert stretched > base, (k, m, s)


def _interval_lines(d, cid):
    """Number of double lines on the winding interval of crossing ``cid``:
    the tokens after its Under passage and before its Over passage."""
    n = len(d.tokens)
    at = {
        t.role: i for i, t in enumerate(d.tokens) if isinstance(t, Passage) and t.crossing_id == cid
    }
    u, o = at[UNDER], at[OVER]
    return sum(isinstance(d.tokens[(u + i) % n], DoubleLine) for i in range(1, (o - u) % n))


def _count_preserving_moves(d):
    """The moves of ``d`` that preserve the essential count, by kind (kinds
    without a site are left out): R1Add, R1Remove, R3, and each R2Add or
    R2Remove whose new or removed crossings have a winding interval holding
    no double line or every double line."""
    prefix = list(accumulate((isinstance(t, DoubleLine) for t in d.tokens), initial=0))
    lines = prefix[-1]
    by_kind = defaultdict(list)
    for m in dl.enumerate_moves(d, {R1_ADD, R1_REMOVE, R2_REMOVE, R3}):
        if m.kind != R2_REMOVE or _interval_lines(d, d.tokens[m["pos1"]].crossing_id) in (0, lines):
            by_kind[m.kind].append(m)
    # An R2Add puts its new passages in at pos1 and pos2 (the sites that
    # enumerate_moves offers), so each new winding interval holds the lines
    # between them or all the others.
    sites = range(max(len(d.tokens), 1))
    by_kind[R2_ADD] = [
        mk(R2_ADD, pos1=p1, pos2=p2, role=role, eps=eps)
        for p1 in sites
        for p2 in sites
        if prefix[max(p1, p2)] - prefix[min(p1, p2)] in (0, lines)
        for role in (OVER, UNDER)
        for eps in (1, -1)
    ]
    return by_kind


def test_criterion_08_essential_count_move_invariance():
    """The essential count is unchanged by R1Add, R1Remove and R3, and by
    an R2Add or R2Remove whose new or removed crossings have a winding
    interval (Under -> Over) holding no double line or every double line.

    Such crossings have parity 0 or the degree, which every important
    subset already satisfies, and no other crossing's interval gains or
    loses a line.  The count is not invariant under the whole move set:

    * ``D- D- D- D+ D+ D+`` (count 0) --R2Add eps=-1 pos1=0 pos2=3 role=O-->
      ``O1- O2+ D- D- D- U2+ U1- D+ D+ D+`` (count 6): both new crossings
      wind around three of the six lines.  One R2Remove undoes it.
    * ``O1+ D- D- U2- D+ U1+ O2- D+`` (count 4) --DlPairAdd5 pos=6 sign=1-->
      count 2; one DlPairCancel5 undoes it.  ``CrossingChange chirality=-1``
      and ``CrossingSliding direction=-1`` on crossing 1 also give 2.

    Checked: (a) 500 seeded degree-0 walks of up to 5 moves drawn from the
    class keep the count at every step, and apply each of the five kinds;
    (b) the R2Add counterexample and its undo; (c) ``bfs_search`` with
    default arguments finds that one-move path, so it does not stop early
    on the count.
    """
    rng = random.Random(SEED + 8)
    applied = Counter()
    for _ in range(500):
        d = random_degree_zero(rng, max_crossings=5, max_double_lines=10)
        baseline = dl.essential_count(d)
        cur = d
        for _ in range(rng.randint(1, 5)):
            # A kind first, then a site: R2Add sites would swamp the rest.
            by_kind = _count_preserving_moves(cur)
            kind = sorted(by_kind)[rng.randrange(len(by_kind))]
            m = by_kind[kind][rng.randrange(len(by_kind[kind]))]
            nxt = dl.apply(cur, m)
            assert dl.essential_count(nxt) == baseline, (
                f"start {dl.serialize(d)!r} (count {baseline}): {dl.serialize(cur)!r}"
                f" -- {m.to_line()} --> {dl.serialize(nxt)!r}"
                f" (count {dl.essential_count(nxt)})"
            )
            if m.kind == R2_ADD:
                lines = sum(isinstance(t, DoubleLine) for t in cur.tokens)
                for cid in set(nxt.crossing_ids) - set(cur.crossing_ids):
                    assert _interval_lines(nxt, cid) in (0, lines), m.to_line()
            applied[m.kind] += 1
            cur = nxt
    assert set(applied) == COUNT_PRESERVING_KINDS, applied

    start = dl.parse("D- D- D- D+ D+ D+")
    r2 = mk(R2_ADD, eps=-1, pos1=0, pos2=3, role=OVER)
    image = dl.apply(start, r2)
    assert dl.serialize(image) == "O1- O2+ D- D- D- U2+ U1- D+ D+ D+"
    assert (dl.essential_count(start), dl.essential_count(image)) == (0, 6)
    undo = dl.invert(r2, start)
    assert [m.kind for m in undo] == [R2_REMOVE]
    assert dl.canonically_equal(dl.replay(dl.MoveTrace(image, tuple(undo))), start)

    result = dl.bfs_search(start, image, max_moves=1)
    assert result.found, f"not found (explored {result.explored})"
    assert dl.canonically_equal(dl.replay(result.trace), image)


def test_criterion_09a_link_family_counts_distinct():
    """Converted (m, -m) links for m = 1..5 have essential counts 2,4,6,8,10."""
    counts = [r["essential_count"] for r in dl.link_family_rows(5)]
    assert counts == [2, 4, 6, 8, 10]
    assert len(set(counts)) == 5


def test_criterion_09b_m1_link_separable():
    """The separable link of the m = 1 pair is the mirrored (-1, 1) link.

    Convention: ``make_L(m, n, eps)`` converts to ``one_crossing(m, n, eps)``,
    whose crossing parity is m.  The criterion of ``separability_check``
    fires only when the linking number is 0 and every half-curve linking
    number lies in {0, -1}.  So ``make_L(-1, 1, 1)`` passes it with an
    elimination certificate, and ``make_L(1, -1, 1)`` is rejected with the
    obstruction (crossing 1, parity 1).  A rejection does not prove the
    (1, -1) link non-separable; whether the link the paper calls (1, -1)
    is separable depends on its sign convention, which this test leaves
    open.
    """
    verdict = dl.separability_check(dl.make_L(-1, 1, 1))
    assert verdict.separable, verdict.obstruction
    assert verdict.witness is not None
    result = dl.replay(verdict.witness.trace)
    assert dl.canonically_equal(result, verdict.witness.result)
    assert not any(isinstance(t, DoubleLine) for t in result.tokens)

    rejected = dl.separability_check(dl.make_L(1, -1, 1))
    assert not rejected.separable and rejected.witness is None
    assert (rejected.obstruction.crossing, rejected.obstruction.parity) == (1, 1)


def test_criterion_09c_obstruction_parity_equals_m():
    """For m >= 2 the reported obstruction parity equals m."""
    for m in range(2, 6):
        verdict = dl.separability_check(dl.make_L(m, -m, 1))
        assert not verdict.separable
        assert verdict.obstruction.crossing == 1
        assert verdict.obstruction.parity == m


def test_criterion_10_bounded_search_witness():
    """A replayable move path from the (1,-1) diagram to its partner."""
    t0 = time.monotonic()
    start = dl.one_crossing(1, -1, 1)
    target = dl.one_crossing(-2, 2, -1)
    result = dl.bfs_search(start, target, max_moves=12, max_len=16)
    assert result.found
    assert dl.canonically_equal(dl.replay(result.trace), target)
    assert time.monotonic() - t0 < 30
