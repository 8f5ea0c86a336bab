"""Bounded breadth-first equivalence search over the move graph.

The move graph is infinite, so the search is bounded by a maximum number
of moves and a maximum token length.  A state is expanded once, over the
instances that ``successors`` lists (each R2Add child once), and only
with the move kinds whose growth (``moves.GROWTH``) fits the length
bound; states are deduplicated on ``canonical_key``.  The search keys
each child before it builds it: an R1Add or DlPairAdd5 child, the parent
with one two-token block inserted, is keyed from its parent's code and
built only when its key is new and it is queued; every other child is
built to be keyed.  Children at the last depth are keyed and counted but
not queued.  A hit comes with a replayable trace; a miss means only that
the target is not reachable within the bounds, or that the degrees
differ.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass

from .diagram import DlDiagram, _gap_codes, _key, canonical_key, degree
from .moves import ALL_KINDS, GROWTH, MoveError, MoveInstance, MoveTrace, _instances


@dataclass(frozen=True)
class SearchResult:
    found: bool
    trace: MoveTrace | None
    explored: int


def _keyed_children(
    d: DlDiagram, kinds: Iterable[str]
) -> Iterator[tuple[str, tuple, tuple[int, ...], DlDiagram | None, Callable[[], DlDiagram]]]:
    """The instances of ``successors(d, kinds)``, each as ``(kind, params,
    key, child, build)`` with the child's canonical key.  An insertion
    child is keyed from ``d``'s code, the block's two codes followed by the
    gap's row of ``diagram._gap_codes``, and comes unbuilt (``child``
    None); every other child is built and keyed."""
    gaps = None
    for kind, params, build, insert in _instances(d, kinds):
        if insert is None:
            child = build()
            yield kind, params, canonical_key(child), child, build
        else:
            if gaps is None:
                gaps = _gap_codes(d.tokens)
            pos, code = insert
            yield kind, params, _key(code + gaps[pos]), None, build


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
        return SearchResult(False, None, 0)

    goal = canonical_key(target)
    start_key = canonical_key(start)
    if start_key == goal:
        return SearchResult(True, MoveTrace(start, ()), 1)

    seen = {start_key}
    queue: deque[tuple[DlDiagram, tuple[MoveInstance, ...]]] = deque()
    if max_moves:
        queue.append((start, ()))
    explored = 1
    while queue:
        d, path = queue.popleft()
        room = max_len - len(d.tokens)
        fitting = [k for k in kinds if GROWTH[k] <= room]
        last = len(path) + 1 == max_moves
        for kind, params, key, child, build in _keyed_children(d, fitting):
            if key in seen:
                continue
            seen.add(key)
            explored += 1
            if key == goal:
                trace = MoveTrace(start, path + (MoveInstance(kind, params),))
                return SearchResult(True, trace, explored)
            # A child at the last depth is keyed and counted, not queued.
            if not last:
                queue.append((child or build(), path + (MoveInstance(kind, params),)))
    return SearchResult(False, None, explored)
