"""Winding-parity projection, double-line elimination, and essential sets.

Three layers on top of the move engine:

* ``parity_projection`` normalizes every crossing's winding parity to 0 by
  inserting compensating double-line pairs (with a crossing change first at
  crossings of negative parity).  Defined on degree-0 diagrams only.
* ``eliminate_double_lines`` removes every double line from a degree-0
  diagram whose parities all lie in {0, -1}, emitting a replayable trace
  that uses only the crossing change, crossing sliding and pair-cancel
  moves.
* ``important_subsets`` / ``essential_count`` / ``essential_diagram``
  compute the important and essential double-line subsets: an important
  subset is one whose removal leaves a degree-0 diagram with all parities
  in {0, -1}; an essential subset is an important subset of minimal size.
  The minimal size is unchanged by R1Add, R1Remove and R3, and by an R2Add
  or R2Remove whose new or removed crossings have a winding interval
  holding no double line or every double line.  It is not invariant under
  the whole move set: an R2Add whose crossings wind around part of the
  lines can raise it (``D- D- D- D+ D+ D+``, count 0, becomes
  ``O1- O2+ D- D- D- U2+ U1- D+ D+ D+``, count 6).
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass

from . import moves
from .diagram import (
    UNDER,
    DlDiagram,
    DoubleLine,
    Passage,
    Token,
    degree,
    raw_winding_sum,
    winding_interval,
)
from .moves import (
    CROSSING_CHANGE,
    CROSSING_SLIDING,
    DL_PAIR_CANCEL,
    MoveInstance,
    MoveTrace,
    mk,
)


class ProjectionError(ValueError):
    """Raised when a projection precondition fails."""


def _raw_parities(d: DlDiagram) -> dict[int, int]:
    return {cid: raw_winding_sum(d, cid) for cid in d.crossing_ids}


def _line_crossings(d: DlDiagram) -> dict[int, list[int]]:
    """Each double line's position, mapped to the crossings (in id order)
    whose winding interval holds it."""
    holds: dict[int, list[int]] = {
        i: [] for i, t in enumerate(d.tokens) if isinstance(t, DoubleLine)
    }
    for cid in d.crossing_ids:
        for i in winding_interval(d, cid):
            if i in holds:
                holds[i].append(cid)
    return holds


def parity_projection(d: DlDiagram) -> DlDiagram:
    """Normalize all winding parities of a degree-0 diagram to 0.

    A crossing of parity i >= 0 receives i plus-lines right before its
    Under passage and i minus-lines right after; a crossing of parity
    i < 0 is first crossing-changed (parity becomes -i-1) and then treated
    the same way.  Idempotent under canonical equality.
    """
    if degree(d) != 0:
        raise ProjectionError(f"parity projection needs degree 0, got {degree(d)}")
    parities = _raw_parities(d)
    out: list[Token] = []
    for t in d.tokens:
        if not isinstance(t, Passage):
            out.append(t)
            continue
        p = parities[t.crossing_id]
        if p < 0:
            # The crossing-change pair plus -p-1 compensating pairs.
            out.extend(moves.flip_passage(t, -p))
        elif t.role == UNDER:
            out.extend(moves.hug(t, p))
        else:
            out.append(t)
    return DlDiagram(tuple(out))


def strip_double_lines(d: DlDiagram) -> DlDiagram:
    """Delete every double-line token (the base virtual diagram)."""
    return DlDiagram(tuple(t for t in d.tokens if not isinstance(t, DoubleLine)))


@dataclass(frozen=True)
class EliminationCertificate:
    """A trace removing all double lines, plus the resulting diagram."""

    trace: MoveTrace
    result: DlDiagram


class _Builder:
    """Applies moves to a live diagram while recording the trace."""

    def __init__(self, start: DlDiagram):
        self.start = start
        self.current = start
        self.steps: list[MoveInstance] = []

    def do(self, m: MoveInstance) -> None:
        self.current = moves.apply(self.current, m)
        self.steps.append(m)

    def cancel_sweep(self) -> None:
        """Cancel adjacent opposite-sign pairs, leftmost first, to exhaustion."""
        while True:
            tokens = self.current.tokens
            n = len(tokens)
            for pos in range(n):
                a, b = tokens[pos], tokens[(pos + 1) % n]
                if isinstance(a, DoubleLine) and isinstance(b, DoubleLine) and a.sign == -b.sign:
                    if n == 2 and pos == 1:
                        continue
                    self.do(mk(DL_PAIR_CANCEL, pos=pos))
                    break
            else:
                return

    def trace(self) -> MoveTrace:
        return MoveTrace(self.start, tuple(self.steps))


def _arc_sum_before(d: DlDiagram, cid: int, role: str) -> int:
    """Sum of double-line signs on the arc entering the given passage."""
    i = d.passage_index(cid, role)
    n = len(d.tokens)
    total = 0
    j = (i - 1) % n
    while j != i:
        t = d.tokens[j]
        if isinstance(t, Passage):
            break
        total += t.sign
        j = (j - 1) % n
    return total


def eliminate_double_lines(d: DlDiagram) -> EliminationCertificate:
    """Remove all double lines from a degree-0 diagram with parities in {0,-1}.

    Implements the two-step sliding walk: crossing-change every parity -1
    crossing, then traverse the knot from a base crossing, pushing each
    arc's accumulated double-line sum forward with crossing sliding moves
    and cancelling pairs as they meet.  The emitted trace uses only
    CrossingChange, CrossingSliding and DlPairCancel5 and replays to the
    double-line-free result.
    """
    deg = degree(d)
    if deg != 0:
        raise ProjectionError(f"elimination needs degree 0, got {deg}")
    parities = _raw_parities(d)
    for cid in d.crossing_ids:
        if parities[cid] not in (0, -1):
            raise ProjectionError(
                f"crossing {cid} has winding parity {parities[cid]}, expected 0 or -1"
            )

    b = _Builder(d)
    for cid in d.crossing_ids:
        if parities[cid] == -1:
            b.do(mk(CROSSING_CHANGE, crossing_id=cid, chirality=1))
    b.cancel_sweep()

    if b.current.crossing_count == 0:
        # No passages: remaining double lines sum to 0 and are mutually
        # adjacent, so the sweep has already emptied them.
        assert b.current.double_line_count == 0
        return EliminationCertificate(b.trace(), b.current)

    # Fixed passage order: the walk starts right after the Under passage of
    # the first crossing appearing in token order.  Passages never move
    # relative to each other during sliding and cancelling.
    tokens = b.current.tokens
    first_cid = next(t.crossing_id for t in tokens if isinstance(t, Passage))
    anchor = b.current.passage_index(first_cid, UNDER)
    n = len(tokens)
    passage_seq: list[tuple[int, str]] = []
    for off in range(1, n + 1):
        t = tokens[(anchor + off) % n]
        if isinstance(t, Passage):
            passage_seq.append((t.crossing_id, t.role))
    # passage_seq ends with the anchor Under passage itself.

    visited = {first_cid}
    for cid, role in passage_seq[:-1]:
        acc = _arc_sum_before(b.current, cid, role)
        if cid not in visited:
            visited.add(cid)
            while acc != 0:
                s = -1 if acc > 0 else 1
                b.do(mk(CROSSING_SLIDING, crossing_id=cid, direction=s))
                b.cancel_sweep()
                acc = _arc_sum_before(b.current, cid, role)
        elif acc != 0:
            raise AssertionError(
                f"revisited crossing {cid} with dirty arc (sum {acc}); "
                "elimination invariant violated"
            )
    b.cancel_sweep()
    assert b.current.double_line_count == 0, "double lines left after elimination walk"
    return EliminationCertificate(b.trace(), b.current)


@dataclass(frozen=True)
class EssentialReport:
    """One important double-line subset and the residual parity profile."""

    subset: tuple[int, ...]
    cardinality: int
    residual_parities: tuple[int, ...]
    is_essential: bool

    def to_dict(self) -> dict:
        return {
            "subset": list(self.subset),
            "cardinality": self.cardinality,
            "residual_parities": list(self.residual_parities),
            "essential": self.is_essential,
        }


def _double_positions(d: DlDiagram) -> list[int]:
    return [i for i, t in enumerate(d.tokens) if isinstance(t, DoubleLine)]


def _delete_positions(d: DlDiagram, subset: tuple[int, ...]) -> DlDiagram:
    drop = set(subset)
    return DlDiagram(tuple(t for i, t in enumerate(d.tokens) if i not in drop))


def _subsets_of_size(d: DlDiagram, k: int):
    """Subsets of k double-line positions whose sign sum is the degree, in
    lexicographic order of the merged position tuple."""
    deg = degree(d)
    plus = [i for i in _double_positions(d) if d.tokens[i].sign > 0]
    minus = [i for i in _double_positions(d) if d.tokens[i].sign < 0]
    if (k + deg) % 2 != 0:
        return
    p_cnt = (k + deg) // 2
    m_cnt = k - p_cnt
    if not (0 <= p_cnt <= len(plus) and 0 <= m_cnt <= len(minus)):
        return
    merged = []
    for ps in itertools.combinations(plus, p_cnt):
        for ms in itertools.combinations(minus, m_cnt):
            merged.append(tuple(sorted(ps + ms)))
    merged.sort()
    yield from merged


def _important_of_size(d: DlDiagram, k: int, raw: dict[int, int], holds: dict[int, list[int]]):
    """The important subsets of k double lines, in lexicographic order, each
    with the residual winding sum of every crossing.

    Removing lines moves no passage, so a crossing's residual sum is its raw
    sum less the signs of the removed lines in its interval; the subsets
    already remove exactly the degree.
    """
    tokens = d.tokens
    for subset in _subsets_of_size(d, k):
        residual = dict(raw)
        for i in subset:
            for cid in holds[i]:
                residual[cid] -= tokens[i].sign
        if all(v in (0, -1) for v in residual.values()):
            yield subset, residual


def important_subsets(d: DlDiagram, limit: int | None = None) -> list[EssentialReport]:
    """All important double-line subsets, sorted by cardinality.

    The full double-line set is always important, so the list is never
    empty.  ``limit`` caps the number of reports returned.
    """
    raw, holds = _raw_parities(d), _line_crossings(d)
    reports: list[EssentialReport] = []
    kmin: int | None = None
    for k in range(len(holds) + 1):
        for subset, residual in _important_of_size(d, k, raw, holds):
            if kmin is None:
                kmin = k
            vals = tuple(sorted(residual.values()))
            reports.append(EssentialReport(subset, k, vals, k == kmin))
            if limit is not None and len(reports) >= limit:
                return reports
    return reports


def essential_count(d: DlDiagram) -> int:
    """Minimum cardinality over all important subsets (exact search).

    Interchangeable double lines (same sign, same set of winding intervals)
    are grouped into classes, so block-shaped diagrams stay cheap.
    """
    deg = degree(d)
    holds = _line_crossings(d)
    cids = d.crossing_ids
    classes = Counter((tuple(members), d.tokens[i].sign) for i, members in holds.items())
    class_list = sorted(
        classes.items(), key=lambda item: (-item[1], item[0][0], item[0][1])
    )
    raw = _raw_parities(d)
    # Removing a subset S leaves parity raw[c] - sum(S within gamma_c), which
    # must land in {0, -1}; the removed total must equal the degree.
    targets = {cid: (raw[cid], raw[cid] + 1) for cid in cids}

    ncls = len(class_list)
    # Suffix capacity per crossing: how much +/- weight remains from class i on.
    suf_plus = [[0] * len(cids) for _ in range(ncls + 1)]
    suf_minus = [[0] * len(cids) for _ in range(ncls + 1)]
    suf_plus_all = [0] * (ncls + 1)
    suf_minus_all = [0] * (ncls + 1)
    cid_index = {cid: ix for ix, cid in enumerate(cids)}
    for i in range(ncls - 1, -1, -1):
        (members, sign), size = class_list[i]
        suf_plus[i] = suf_plus[i + 1][:]
        suf_minus[i] = suf_minus[i + 1][:]
        suf_plus_all[i] = suf_plus_all[i + 1]
        suf_minus_all[i] = suf_minus_all[i + 1]
        side, side_all = (suf_plus, suf_plus_all) if sign > 0 else (suf_minus, suf_minus_all)
        for cid in members:
            side[i][cid_index[cid]] += size
        side_all[i] += size

    def feasible(k: int) -> bool:
        # DFS over per-class removal counts with interval pruning.
        cur = [0] * len(cids)

        def rec(i: int, remaining: int, total_sign: int) -> bool:
            # Prune per crossing and on the global sign sum.
            for ix in range(len(cids)):
                lo = cur[ix] - min(suf_minus[i][ix], remaining)
                hi = cur[ix] + min(suf_plus[i][ix], remaining)
                t0, t1 = targets[cids[ix]]
                if hi < t0 or lo > t1:
                    return False
            lo = total_sign - min(suf_minus_all[i], remaining)
            hi = total_sign + min(suf_plus_all[i], remaining)
            if not lo <= deg <= hi:
                return False
            if i == ncls:
                # No capacity is left, so the checks above were exact.
                return remaining == 0
            (members, sign), size = class_list[i]
            idxs = [cid_index[c] for c in members]
            for x in range(min(size, remaining), -1, -1):
                for ix in idxs:
                    cur[ix] += sign * x
                if rec(i + 1, remaining - x, total_sign + sign * x):
                    return True
                for ix in idxs:
                    cur[ix] -= sign * x
            return False

        return rec(0, k, 0)

    # A subset removing the degree has the degree's parity and at least |deg| lines.
    for k in range(abs(deg), len(holds) + 1, 2):
        if feasible(k):
            return k
    # The full set is always important.
    return len(holds)


def essential_diagram(d: DlDiagram) -> tuple[DlDiagram, MoveTrace]:
    """An equivalent diagram whose double lines are one essential subset,
    plus the canonical pairs at residual parity -1 crossings.

    Returns the diagram together with the elimination trace certifying
    that the non-essential double lines can be removed.
    """
    essential, residual = next(
        _important_of_size(d, essential_count(d), _raw_parities(d), _line_crossings(d))
    )
    cert = eliminate_double_lines(_delete_positions(d, essential))
    keep = set(essential)
    out: list[Token] = []
    for i, t in enumerate(d.tokens):
        if isinstance(t, DoubleLine):
            if i in keep:
                out.append(t)
        elif residual[t.crossing_id] == -1:
            out.extend(moves.flip_passage(t, 1))
        else:
            out.append(t)
    return DlDiagram(tuple(out)), cert.trace
