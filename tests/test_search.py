"""Bounded BFS: pinned answers and the search's checks on its input."""

import pytest

import dlknot as dl
from dlknot.moves import MoveError


def search(start, target, **bounds):
    return dl.bfs_search(dl.parse(start), dl.parse(target), **bounds)


# (start, target, max_moves, max_len, explored): exhaustive misses, whose
# explored count is the number of states within the bounds.
MISSES = [
    ("U1+ D+ O1+", "U1+ D+ O1+ D+", 2, 7, 405),
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
    assert res.found and res.explored == 4253
    assert [m.to_line() for m in res.trace.steps] == [
        "CrossingChange chirality=1 crossing_id=1",
        "DlSlide4 pos=3",
        "DlPairCancel5 pos=4",
    ]
    assert dl.canonically_equal(dl.replay(res.trace), dl.parse(target))


def test_start_over_length_bound():
    # Kinds that shrink the word still apply to a start longer than max_len.
    res = search("U1+ D+ D- O1+", "U1+ O1+", max_moves=1, max_len=2)
    assert res.found
    assert [m.kind for m in res.trace.steps] == ["DlPairCancel5"]


def test_unknown_kind():
    with pytest.raises(MoveError, match="unknown move kind"):
        search("U1+ O1+", "D+ D-", max_moves=1, max_len=2, kinds={"Nope"}, check_invariants=False)


@pytest.mark.parametrize("bounds", [{"max_moves": -1}, {"max_len": -1}])
def test_negative_bounds(bounds):
    with pytest.raises(ValueError, match="bounds must be non-negative"):
        search("U1+ O1+", "U1+ O1+", **bounds)
