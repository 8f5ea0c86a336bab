"""Winding-parity projection, double-line elimination, and essential sets.

Three layers on top of the move engine:

* ``parity_projection`` normalizes every crossing's winding parity to 0 by
  inserting compensating double-line pairs (with a crossing change first at
  crossings of negative parity).  Defined on degree-0 diagrams only.
* ``eliminate_double_lines`` removes every double line from a degree-0
  diagram with all parities in {0, -1} by crossing changes, crossing
  slides to one common level of the running line-sign sum, and pair
  cancels: at any common level each arc's lines sum to 0 (the degree is 0).
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


def _cancel_steps(tokens: tuple[Token, ...]) -> list[MoveInstance]:
    """DlPairCancel5 steps, in order, after which no two adjacent lines of
    ``tokens`` have opposite signs: a stack pass cancels each line against
    an opposite left neighbour, then the pairs across the end of the word
    cancel (each end then holds lines of one sign up to its first passage)."""
    kept: list[int] = []  # line signs, 0 for a passage
    steps = []
    for t in tokens:
        v = t.sign if isinstance(t, DoubleLine) else 0
        if kept and kept[-1] * v == -1:
            kept.pop()
            steps.append(mk(DL_PAIR_CANCEL, pos=len(kept)))
        else:
            kept.append(v)
    while kept and kept[-1] * kept[0] == -1:
        steps.append(mk(DL_PAIR_CANCEL, pos=len(kept) - 1))
        kept = kept[1:-1]
    return steps


def eliminate_double_lines(d: DlDiagram) -> EliminationCertificate:
    """Remove all double lines from a degree-0 diagram with parities in {0,-1}.

    Crossing-changing every parity -1 crossing makes every parity 0, so
    both passages of a crossing c sit at the same running sum s_c of line
    signs from the start of the word: its level.  Sliding c by k - s_c
    moves it to level k.  With every crossing at level k, the lines
    between two passages sum to k - k = 0 and those across the end of the
    word to (0 - k) + k = 0, as the degree is 0; so all lines cancel, for
    any constant k.  The median level takes the fewest slides.  A cancel
    shifts all levels alike or none, so the slides are counted once.

    The trace uses only CrossingChange, CrossingSliding and DlPairCancel5
    and replays to the double-line-free result.
    """
    if degree(d) != 0:
        raise ProjectionError(f"elimination needs degree 0, got {degree(d)}")
    parities = _raw_parities(d)
    for cid, p in parities.items():
        if p not in (0, -1):
            raise ProjectionError(f"crossing {cid} has winding parity {p}, expected 0 or -1")

    current, steps = d, []

    def do(batch: list[MoveInstance]) -> None:
        nonlocal current
        for m in batch:
            current = moves.apply(current, m)
        steps.extend(batch)

    do([mk(CROSSING_CHANGE, crossing_id=c, chirality=1) for c in d.crossing_ids if parities[c] == -1])
    do(_cancel_steps(current.tokens))
    level, s = {}, 0  # crossing id -> the running sum s at its passages
    for t in current.tokens:
        if isinstance(t, DoubleLine):
            s += t.sign
        else:
            assert level.setdefault(t.crossing_id, s) == s, f"crossing {t.crossing_id}: two levels"
    k = sorted(level.values())[len(level) // 2] if level else 0
    for cid, s_c in sorted(level.items()):
        if s_c != k:
            slide = mk(CROSSING_SLIDING, crossing_id=cid, direction=1 if k > s_c else -1)
            do([slide] * abs(k - s_c))
            do(_cancel_steps(current.tokens))
    assert current.double_line_count == 0, "double lines left after elimination"
    return EliminationCertificate(MoveTrace(d, tuple(steps)), current)


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
    empty.  ``limit``, at least 1, caps the number of reports returned.
    """
    if limit is not None and limit < 1:
        raise ValueError(f"limit must be at least 1, got {limit}")
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
