"""Bounded breadth-first equivalence search over the move graph.

The move graph is infinite, so the search is bounded by a maximum number
of moves and a maximum token length.  A state is expanded once, by
``moves.successors``, and only with the move kinds whose growth
(``moves.GROWTH``) fits the length bound, so no child over the bound is
built; states are deduplicated on ``canonical_key``.  Children at the
last depth are keyed and counted but not queued.  A hit comes with a
replayable trace; a miss means only that the target is not reachable
within the bounds, or that the degrees differ.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .diagram import DlDiagram, canonical_key, degree
from .moves import ALL_KINDS, GROWTH, MoveError, MoveInstance, MoveTrace, successors


@dataclass(frozen=True)
class SearchResult:
    found: bool
    trace: MoveTrace | None
    explored: int
    max_moves: int
    max_len: int


def bfs_search(
    start: DlDiagram,
    target: DlDiagram,
    max_moves: int = 8,
    max_len: int = 24,
    kinds: frozenset[str] | set[str] = ALL_KINDS,
    check_invariants: bool = True,
) -> SearchResult:
    """Search for a move sequence taking ``start`` to ``target``.

    With ``check_invariants`` it answers "not found" without exploring
    when the degrees differ; the degree is the only move invariant it
    checks.  The essential count is not one: an R2Add can change it.
    Deterministic for fixed parameters.
    """
    unknown = set(kinds) - ALL_KINDS
    if unknown:
        raise MoveError(f"unknown move kind {min(unknown)!r}")
    if not all(type(b) is int and b >= 0 for b in (max_moves, max_len)):
        raise ValueError(f"bounds must be non-negative ints: {max_moves=}, {max_len=}")
    if check_invariants and degree(start) != degree(target):
        return SearchResult(False, None, 0, max_moves, max_len)

    goal = canonical_key(target)
    start_key = canonical_key(start)
    if start_key == goal:
        return SearchResult(True, MoveTrace(start, ()), 1, max_moves, max_len)

    seen = {start_key}
    queue: deque[tuple[DlDiagram, tuple[MoveInstance, ...]]] = deque()
    if max_moves:
        queue.append((start, ()))
    explored = 1
    while queue:
        d, path = queue.popleft()
        room = max_len - len(d.tokens)
        fitting = [k for k in kinds if GROWTH[k] <= room]
        for m, nxt in successors(d, fitting):
            key = canonical_key(nxt)
            if key in seen:
                continue
            seen.add(key)
            explored += 1
            new_path = path + (m,)
            if key == goal:
                return SearchResult(True, MoveTrace(start, new_path), explored, max_moves, max_len)
            # A child at the last depth is keyed and counted, not expanded.
            if len(new_path) < max_moves:
                queue.append((nxt, new_path))
    return SearchResult(False, None, explored, max_moves, max_len)
