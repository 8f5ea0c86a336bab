"""Winding-parity projection, double-line elimination, and essential sets.

Three layers on top of the move engine:

* ``parity_projection`` normalizes every crossing's winding parity to 0 by
  inserting compensating double-line pairs (with a crossing change first at
  crossings of negative parity).  Defined on degree-0 diagrams only.
* ``eliminate_double_lines`` removes every double line from a degree-0
  diagram with all parities in {0, -1} by crossing changes, crossing
  slides to one common level of the running line-sign sum, and pair
  cancels: at any common level each arc's lines sum to 0 (the degree is 0).
  It applies no step: one walk gives the changes and slides, and one
  stack pass over the word they make gives the cancels.
* ``important_subsets`` / ``essential_count`` / ``essential_diagram``
  compute the important and essential double-line subsets: an important
  subset is one whose removal leaves a degree-0 diagram with all parities
  in {0, -1}; an essential subset is an important subset of minimal size.
  ``essential_count`` alone finds that size; ``important_subsets`` lists
  subsets from it up, by cardinality and then lexicographically, and
  ``essential_diagram`` eliminates the lines outside the first.  Both
  searches read one walk of the word and the count, made once per
  diagram, not once per call, and kept with it.  The minimal size is
  unchanged by R1Add, R1Remove and R3, and by an R2Add or R2Remove whose
  new or removed crossings have a winding interval holding no double
  line or every double line.  It is not invariant under the
  whole move set: an R2Add whose crossings wind around part of the lines
  can raise it (``D- D- D- D+ D+ D+``, count 0, becomes
  ``O1- O2+ D- D- D- U2+ U1- D+ D+ D+``, count 6).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain, combinations, compress, repeat
from operator import itemgetter, not_, sub

from . import moves
from .diagram import (
    OVER,
    UNDER,
    DlDiagram,
    DoubleLine,
    Passage,
    Token,
    degree,
    winding_sums,
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


_Classes = dict[tuple[tuple[int, ...], int], int]  # (crossings, sign) -> lines
_LINE_PAIR = {DoubleLine(1), DoubleLine(-1)}


def _line_crossings(d: DlDiagram) -> tuple[list[int], list[int], _Classes, int]:
    """One walk over the word.  Returns the double lines' positions, each
    line packed as one integer, the classes of interchangeable lines (the
    count of lines of each sign whose winding intervals are those of the
    same crossings, keyed by those crossings in id order and the sign),
    and a 1 in every crossing row, packed.

    A packed line holds its sign in the base-2^b digit of row 0 and of the
    row of every crossing whose interval holds it; crossing rows are
    numbered 1, 2, ... in the order of first passages.  A line lies between
    the two passages of a crossing iff the interval holds it, unless the
    Over passage comes first, when the interval is the rest of the word."""
    # Each digit of important_subsets' test, sum(subset) - low, is minus
    # the sign sum of the row's kept lines, so it lies within +-L for L
    # lines; 2^b > L + 1 then keeps a carry from faking a 0 or 1 digit.
    # L <= n, the word's length.
    b = (len(d.tokens) + 1).bit_length()
    unit: dict[int, int] = {}  # crossing id -> 1 in its row
    between: set[int] = set()
    over_first: set[int] = set()
    # between, and over_first plus row 0 (which holds every line), packed
    inside, over = 0, 1
    walk = []
    for i, t in enumerate(d.tokens):
        if isinstance(t, DoubleLine):
            walk.append((i, frozenset(between), t.sign, inside))
        elif t.crossing_id in between:  # the crossing's second passage
            between.remove(t.crossing_id)
            inside ^= unit[t.crossing_id]
        else:
            c = t.crossing_id
            between.add(c)
            unit[c] = 1 << b * (len(unit) + 1)
            inside |= unit[c]
            if t.role == OVER:
                over_first.add(c)
                over |= unit[c]
    same = Counter(map(itemgetter(1, 2), walk))  # (crossings between, sign)
    classes = {(tuple(sorted(crossed ^ over_first)), sign): n for (crossed, sign), n in same.items()}
    vecs = [sign * (packed ^ over) for _, _, sign, packed in walk]
    return [w[0] for w in walk], vecs, classes, sum(unit.values())


def parity_projection(d: DlDiagram) -> DlDiagram:
    """Normalize all winding parities of a degree-0 diagram to 0.

    A crossing of parity i >= 0 receives i plus-lines right before its
    Under passage and i minus-lines right after; a crossing of parity
    i < 0 is first crossing-changed (parity becomes -i-1) and then treated
    the same way.  Idempotent under canonical equality.
    """
    if degree(d) != 0:
        raise ProjectionError(f"parity projection needs degree 0, got {degree(d)}")
    parities = winding_sums(d)
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


def _eliminated(
    d: DlDiagram, keep: frozenset[int] = frozenset()
) -> tuple[list[MoveInstance], list[Token]]:
    """The steps that eliminate the lines of ``d`` at positions not in
    ``keep``, and the word they leave, from one walk: every crossing
    change, then every slide, then the cancels of one stack pass over the
    word they make, in which each changed passage is hugged by its pair
    and each slid passage itself by its slides.  No step is applied."""
    under, over, s = {}, {}, 0  # crossing id -> s, the running sum of the lines outside keep
    for i, t in enumerate(d.tokens):
        if type(t) is DoubleLine:
            s += 0 if i in keep else t.sign
        else:
            (under if t.role == UNDER else over)[t.crossing_id] = s
    if s != 0:
        raise ProjectionError(f"elimination needs degree 0, got {s}")
    for c in sorted(under):
        if (p := over[c] - under[c]) not in (0, -1):
            raise ProjectionError(f"crossing {c} has winding parity {p}, expected 0 or -1")
    # A crossing whose parity is 0 and one changed from -1 both sit at the
    # sum at their Under passage, its level: each hugging pair shifts the
    # running sum at its passage alone.
    flip = [c for c in sorted(under) if over[c] != under[c]]
    k = sorted(under.values())[len(under) // 2] if under else 0
    steps = [mk(CROSSING_CHANGE, crossing_id=c, chirality=1) for c in flip]
    for c, v in sorted(under.items()):
        steps += [mk(CROSSING_SLIDING, crossing_id=c, direction=1 if k > v else -1)] * abs(k - v)

    def mapped(t: Token) -> tuple[Token, ...]:
        if type(t) is DoubleLine:
            return (t,)
        v = under[t.crossing_id]
        f = moves.flip_passage(t, 1) if over[t.crossing_id] != v else (t,)
        m = len(f) // 2
        return f[:m] + moves.hug(f[m], abs(k - v), 1 if k > v else -1) + f[m + 1 :]

    kept: list[Token] = []
    for t in chain.from_iterable(map(mapped, d.tokens)):
        if kept and type(t) is DoubleLine is type(kept[-1]) and kept[-1].sign != t.sign:
            kept.pop()
            steps.append(MoveInstance(DL_PAIR_CANCEL, (("pos", len(kept)),)))
        else:
            kept.append(t)
    lo, hi = 0, len(kept)  # the word is kept[lo:hi]; then the pairs across its end
    while hi - lo > 1 and {kept[lo], kept[hi - 1]} == _LINE_PAIR:
        steps.append(MoveInstance(DL_PAIR_CANCEL, (("pos", hi - lo - 1),)))
        lo, hi = lo + 1, hi - 1
    return steps, kept[lo:hi]


def eliminate_double_lines(d: DlDiagram) -> EliminationCertificate:
    """Remove all double lines from a degree-0 diagram with parities in {0,-1}.

    Crossing-changing every parity -1 crossing makes every parity 0, so
    both passages of a crossing c sit at the same running sum s_c of line
    signs from the start of the word: its level.  Sliding c by k - s_c
    moves it to level k.  With every crossing at level k, the lines
    between two passages sum to k - k = 0 and those across the end of the
    word to (0 - k) + k = 0, as the degree is 0; so all lines cancel, for
    any constant k.  The median level takes the fewest slides.

    The trace uses only CrossingChange, CrossingSliding and DlPairCancel5
    and replays to the result, which is built with it, applying no step.
    """
    steps, word = _eliminated(d)
    assert not any(type(t) is DoubleLine for t in word), "double lines left after elimination"
    return EliminationCertificate(MoveTrace(d, tuple(steps)), DlDiagram(tuple(word)))


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


def important_subsets(d: DlDiagram, limit: int | None = None) -> list[EssentialReport]:
    """All important double-line subsets, by cardinality and then in
    lexicographic order, from the essential count up: no smaller subset is
    important, and the full set always is.  ``limit``, an int of at least
    1, caps the reports.

    Removing lines moves no passage, so a crossing's residual sum is its
    raw sum less the signs of the removed lines in its interval.  Each line
    is one integer holding its sign in the base-2^b digit of row 0 and of
    every crossing row whose interval holds it, and ``low``, the sum of all
    lines, packs the degree and each raw sum.  A subset is important iff
    ``sum(subset) - low`` has digit 0 in row 0 and, in every crossing row,
    0 or 1: minus the crossing's residual sum.  Every digit lies within +-L
    for L lines and 2^b > L + 1, so no carry crosses a row: the digits are
    exact, and the test is one masked AND per subset, run in C iterators.
    """
    if limit is not None and (type(limit) is not int or limit < 1):
        raise ValueError(f"limit must be at least 1 and an int, got {limit!r}")
    positions, vecs, rows, kmin = _essential_walk(d)
    low, n, bad = sum(vecs), rows.bit_count(), ~rows
    packed = dict(zip(positions, vecs)).__getitem__
    reports: list[EssentialReport] = []
    # Sizes keep the degree's parity, as kmin does; subsets of line
    # positions come in lexicographic order, as do their packed lines.
    for k in range(kmin, len(vecs) + 1, 2):
        fits = map(not_, map(bad.__and__, map(sum, combinations(vecs, k), repeat(-low))))
        for subset in compress(combinations(positions, k), fits):
            odd = sum(map(packed, subset), -low).bit_count()  # crossings left at -1
            reports.append(EssentialReport(subset, k, (-1,) * odd + (0,) * (n - odd), k == kmin))
            if len(reports) == limit:
                return reports
    return reports


def essential_count(d: DlDiagram) -> int:
    """Minimum cardinality over all important subsets (exact search), from
    one walk: interchangeable double lines (same sign, same set of winding
    intervals) form classes, so block-shaped diagrams stay cheap."""
    return _essential_walk(d)[3]


def _essential_walk(d: DlDiagram) -> tuple[list[int], list[int], int, int]:
    """``_line_crossings``' positions, packed lines and rows, and the
    essential count: made once per diagram and kept on it, as they depend
    on its tokens alone."""
    walk = d.__dict__.get("_essential_walk")
    if walk is None:
        positions, vecs, classes, rows = _line_crossings(d)
        walk = positions, vecs, rows, _essential_count(classes)
        object.__setattr__(d, "_essential_walk", walk)
    return walk


def _essential_count(classes: _Classes) -> int:
    """The search, from the classes alone.  Row 0 is the whole word, row
    r >= 1 the winding interval of the r-th crossing, in id order, that
    holds a line (one holding none has raw sum 0 and is left at 0).  A row's
    lines sum to its raw sum, the degree in row 0: removing a subset must
    remove the degree from row 0 and v or v + 1 from a row of raw sum v."""
    row = {c: r for r, c in enumerate(sorted({c for members, _ in classes for c in members}), 1)}
    class_rows = [
        (sign, size, [0] + [row[c] for c in members])
        for (members, sign), size in sorted(classes.items(), key=lambda it: (-it[1], it[0]))
    ]
    # Suffix capacity per row: the +/- weight that classes i.. can remove.
    suf = [([0] * (len(row) + 1), [0] * (len(row) + 1))]
    for sign, size, rows in reversed(class_rows):
        plus, minus = suf[-1][0][:], suf[-1][1][:]
        for r in rows:
            (plus if sign > 0 else minus)[r] += size
        suf.append((plus, minus))
    suf.reverse()
    deg, *raw = map(sub, *suf[0])
    targets = [(deg, deg)] + [(v, v + 1) for v in raw]
    cur = [0] * len(targets)

    def fits(k: int) -> bool:
        # DFS over per-class counts, largest count first: xs holds the counts
        # taken from classes 0..len(xs)-1, and every row's c must still reach
        # [t0, t1] within the suffix capacity p/m and the remaining budget.
        xs: list[int] = []
        remaining = k
        while True:
            plus, minus = suf[len(xs)]
            for c, p, m, (t0, t1) in zip(cur, plus, minus, targets):
                if c + p < t0 or c - m > t1 or c + remaining < t0 or c - remaining > t1:
                    break
            else:
                if remaining == 0:
                    return True  # nothing more is removed, so the checks were exact
                if len(xs) < len(class_rows):
                    sign, size, rows = class_rows[len(xs)]
                    x = min(size, remaining)
                    for r in rows:
                        cur[r] += sign * x
                    xs.append(x)
                    remaining -= x
                    continue
            # Backtrack: the deepest class with a count left takes one less.
            while xs and xs[-1] == 0:
                xs.pop()
            if not xs:
                return False
            sign, _, rows = class_rows[len(xs) - 1]
            for r in rows:
                cur[r] -= sign
            xs[-1] -= 1
            remaining += 1

    # A subset removing the degree has the degree's parity and at least
    # |deg| lines; the full set is always important, so some k fits.
    return next(k for k in range(abs(deg), sum(classes.values()) + 1, 2) if fits(k))


def essential_diagram(d: DlDiagram) -> tuple[DlDiagram, MoveTrace]:
    """An equivalent diagram whose lines are one essential subset, with the
    trace from ``d`` that certifies it: the steps that eliminate the other
    lines, run on ``d``.  Each arc is then left with the sum of its kept
    lines, which have one sign (a kept + and - would leave a smaller
    important subset): the output is ``d`` without the other lines, its
    crossings of residual parity -1 changed, up to rotation."""
    steps, word = _eliminated(d, frozenset(important_subsets(d, limit=1)[0].subset))
    return DlDiagram(tuple(word)), MoveTrace(d, tuple(steps))
