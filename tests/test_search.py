"""Bounded BFS: pinned answers, a reference search and the search's
checks on its input."""

from collections import deque

import pytest

import dlknot as dl
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
    MoveTrace,
)
from dlknot.search import SearchResult

from conftest import random_diagram


def search(start, target, **bounds):
    return dl.bfs_search(dl.parse(start), dl.parse(target), **bounds)


# (start, target, max_moves, max_len, explored): exhaustive misses, whose
# explored count is the number of states within the bounds.
MISSES = [
    ("U1+ D+ O1+", "U1+ D+ O1+ D+", 2, 7, 401),
    ("U1+ D+ O1+ D-", "D+", 2, 9, 825),
]


@pytest.mark.parametrize("start, target, max_moves, max_len, explored", MISSES)
def test_pinned_miss(start, target, max_moves, max_len, explored):
    res = search(start, target, max_moves=max_moves, max_len=max_len, check_invariants=False)
    assert not res.found and res.trace is None
    assert res.explored == explored


def test_pinned_free_crossing_change():
    # A crossing changed in three moves, with no double line left over.
    start, target = "U1+ O2+ U3+ O1+ U2+ O3+", "O1- O2+ U3+ U1- U2+ O3+"
    res = search(start, target, max_moves=3, max_len=12)
    assert res.found and res.explored == 4249
    assert [m.to_line() for m in res.trace.steps] == [
        "CrossingChange chirality=1 crossing_id=1",
        "DlSlide4 pos=3",
        "DlPairCancel5 pos=4",
    ]
    assert dl.canonically_equal(dl.replay(res.trace), dl.parse(target))


def reference_search(start, target, max_moves, max_len, kinds, check_invariants):
    """The one-sided BFS before the search took its children from
    ``successors``: ``enumerate_moves`` then ``apply``, a path tuple per
    state, and every new child queued."""
    if check_invariants and dl.degree(start) != dl.degree(target):
        return SearchResult(False, None, 0)
    goal = dl.canonical_key(target)
    if dl.canonical_key(start) == goal:
        return SearchResult(True, MoveTrace(start, ()), 1)
    seen = {dl.canonical_key(start)}
    queue = deque([(start, ())])
    explored = 1
    while queue:
        d, path = queue.popleft()
        if len(path) >= max_moves:
            continue
        room = max_len - len(d.tokens)
        fitting = [k for k in kinds if GROWTH[k] <= room]
        for m in dl.enumerate_moves(d, fitting):
            nxt = dl.apply(d, m)
            key = dl.canonical_key(nxt)
            if key in seen:
                continue
            seen.add(key)
            explored += 1
            new_path = path + (m,)
            if key == goal:
                return SearchResult(True, MoveTrace(start, new_path), explored)
            queue.append((nxt, new_path))
    return SearchResult(False, None, explored)


# Kind sets for the reference comparison: all kinds, none that shrink the
# word, none that grow it, and the crossing moves with the cancellation.
KIND_SETS = [
    ALL_KINDS,
    frozenset({R1_ADD, R2_ADD, DL_PAIR_ADD, DL_SLIDE, R3, CROSSING_CHANGE, CROSSING_SLIDING}),
    frozenset({R1_REMOVE, R2_REMOVE, DL_PAIR_CANCEL, DL_SLIDE, R3}),
    frozenset({CROSSING_CHANGE, CROSSING_SLIDING, DL_PAIR_CANCEL}),
]


def test_matches_reference_search(rng):
    hits = depth = 0
    for i in range(200):
        start = random_diagram(rng, max_crossings=2, max_double_lines=2)
        kinds = KIND_SETS[i % len(KIND_SETS)]
        max_moves = 1 + i % 3
        # Small enough bounds that the 200 searches take a few seconds.
        max_len = min(len(start.tokens) + 2 * rng.randint(0, 2), 8 if max_moves == 3 else 10)
        if i % 2:
            # A target a short walk within the bounds away, so that some
            # queries hit.
            target = start
            for _ in range(rng.randint(1, max_moves)):
                room = max_len - len(target.tokens)
                moves = dl.enumerate_moves(target, [k for k in kinds if GROWTH[k] <= room])
                if moves:
                    target = dl.apply(target, rng.choice(moves))
        else:
            target = random_diagram(rng, max_crossings=2, max_double_lines=2)
        check = rng.random() < 0.5
        res = dl.bfs_search(start, target, max_moves, max_len, kinds, check)
        ref = reference_search(start, target, max_moves, max_len, kinds, check)
        query = (dl.serialize(start), dl.serialize(target), max_moves, max_len, sorted(kinds))
        assert res == ref, query
        if res.found:
            assert res.trace.to_text() == ref.trace.to_text()
            hits += 1
            depth = max(depth, len(res.trace.steps))
    assert hits > 20 and depth == 3, (hits, depth)


def test_zero_moves():
    # The start is keyed and counted, and nothing is expanded.
    res = search("U1+ D+ O1+", "U1+ D+ O1+ D+", max_moves=0, check_invariants=False)
    assert not res.found and res.explored == 1
    assert search("U1+ D+ O1+", "O1+ U1+ D+", max_moves=0).found


def test_start_over_length_bound():
    # Kinds that shrink the word still apply to a start longer than max_len.
    res = search("U1+ D+ D- O1+", "U1+ O1+", max_moves=1, max_len=2)
    assert res.found
    assert [m.kind for m in res.trace.steps] == ["DlPairCancel5"]


def test_unknown_kind():
    with pytest.raises(MoveError, match="unknown move kind"):
        search("U1+ O1+", "D+ D-", max_moves=1, max_len=2, kinds={"Nope"}, check_invariants=False)


@pytest.mark.parametrize(
    "start, target, bounds",
    [
        ("U1+ O1+", "O1+ U1+", {}),
        ("U1+ D+ O1+", "U1+ D+ O1+ D+", {"max_moves": 0, "check_invariants": False}),
        ("U1+ O1+", "D+", {}),
    ],
    ids=["start-is-target", "zero-moves", "degrees-differ"],
)
def test_unknown_kind_without_expanding(start, target, bounds):
    # The kinds are checked before any answer, also one that expands no
    # state; the least unknown kind is named.
    with pytest.raises(MoveError, match="unknown move kind 'Alpha'"):
        search(start, target, kinds={R1_ADD, "Nope", "Alpha"}, **bounds)


# Each bound must be an int of at least 0, as important_subsets' limit must
# be an int: 1.5 or True would otherwise run a search and be echoed in the
# result.
@pytest.mark.parametrize(
    "bounds",
    [
        {"max_moves": -1},
        {"max_len": -1},
        {"max_moves": 1.5},
        {"max_moves": True},
        {"max_len": 7.0},
        {"max_len": False},
    ],
)
def test_negative_bounds(bounds):
    (key, value), = bounds.items()
    with pytest.raises(ValueError, match=f"bounds must be non-negative ints: .*{key}={value!r}"):
        search("U1+ O1+", "U1+ O1+", **bounds)
