"""Reference answers and checks owned by the benchmark.

Nothing here calls the library under test: every function works on the
benchmark's own token tuples (see ``gen.py``).  Each ``check_*`` function
returns ``None`` when an output is right and a short reason when it is
wrong.  ``self_check`` feeds every checker one deliberately wrong answer
and confirms that it is flagged.
"""

from __future__ import annotations

import itertools

# The arc-level brute force enumerates at most this many removal vectors.
BRUTE_LIMIT = 300_000


def from_lib(d) -> tuple:
    """A library diagram as benchmark token tuples."""
    return tuple(
        (t.role, t.crossing_id, t.sign) if hasattr(t, "role") else ("D", t.sign)
        for t in d.tokens
    )


def degree(tokens: tuple) -> int:
    return sum(t[1] for t in tokens if t[0] == "D")


def crossing_ids(tokens: tuple) -> list[int]:
    return sorted({t[1] for t in tokens if t[0] == "U"})


def raw_sum(tokens: tuple, cid: int) -> int:
    """Sum of line signs strictly between the Under and the Over passage of
    ``cid``, walking forward from the Under passage."""
    n = len(tokens)
    u = next(i for i, t in enumerate(tokens) if t[0] == "U" and t[1] == cid)
    total = 0
    for k in range(1, n):
        t = tokens[(u + k) % n]
        if t[0] == "O" and t[1] == cid:
            return total
        if t[0] == "D":
            total += t[1]
    raise ValueError(f"crossing {cid} has no Over passage")


def relabel(tokens: tuple) -> tuple:
    """Crossing ids renamed in order of first occurrence."""
    ids: dict[int, int] = {}
    return tuple(
        t if t[0] in ("D", "C") else (t[0], ids.setdefault(t[1], len(ids) + 1), t[2])
        for t in tokens
    )


def in_first_occurrence_order(tokens: tuple) -> bool:
    return relabel(tokens) == tokens


def canonical(tokens: tuple) -> tuple:
    """Least key over all rotations, each relabeled by first occurrence."""
    best: tuple = ()
    for r in range(len(tokens)):
        key = tuple(
            (0, t[1] < 0) if t[0] == "D" else (1, t[0] == "O", t[1], t[2] < 0)
            for t in relabel(tokens[r:] + tokens[:r])
        )
        if not best or key < best:
            best = key
    return best


def brute_essential(tokens: tuple) -> int:
    """Least number of double lines whose removal leaves degree 0 and every
    crossing at winding parity 0 or -1, by exhaustive enumeration.

    Lines on one arc (between two consecutive passages) lie in the same
    winding intervals, so a removal is described by its net sign sum
    ``r`` on each arc and costs at least ``|r|``; removing a plus and a
    minus line of one arc changes nothing but the cost.  The search
    therefore tries every vector of per-arc nets.
    """
    deg = degree(tokens)
    n = len(tokens)
    heads = [i for i, t in enumerate(tokens) if t[0] != "D"]
    if not heads:
        return abs(deg)
    arcs = []
    for k, i in enumerate(heads):
        j = heads[(k + 1) % len(heads)]
        run = [tokens[x % n][1] for x in range(i + 1, j if j > i else j + n)]
        arcs.append((run.count(1), run.count(-1)))
    where = {(tokens[i][0], tokens[i][1]): k for k, i in enumerate(heads)}
    p = len(heads)
    cids = crossing_ids(tokens)
    inside = {}
    for c in cids:
        u, o = where[("U", c)], where[("O", c)]
        inside[c] = [(u + s) % p for s in range((o - u) % p)]
    raw = {c: raw_sum(tokens, c) for c in cids}
    size = 1
    for plus, minus in arcs[:-1]:
        size *= plus + minus + 1
    if size > BRUTE_LIMIT:
        raise ValueError(f"brute force too large ({size} vectors)")
    last_plus, last_minus = arcs[-1]
    best = sum(plus + minus for plus, minus in arcs)
    for head in itertools.product(*(range(-m, q + 1) for q, m in arcs[:-1])):
        last = deg - sum(head)
        if not -last_minus <= last <= last_plus:
            continue
        r = head + (last,)
        cost = sum(abs(x) for x in r)
        if cost >= best:
            continue
        if all(raw[c] - sum(r[a] for a in inside[c]) in (0, -1) for c in cids):
            best = cost
    return best


def closed_form(m: int, n: int) -> int:
    """The paper's essential count of the one-crossing diagram (m, n)."""
    if m <= -1 and n > 0:
        return abs(m) + abs(n) - 2
    return abs(m) + abs(n)


# --- checks ----------------------------------------------------------------

def check_count(expected: int, got) -> str | None:
    if got != expected:
        return f"essential count {got}, reference {expected}"
    return None


def check_report(tokens: tuple, subset, cardinality, residual, essential: bool, kmin: int) -> str | None:
    """A reported important subset, re-derived from the input tokens."""
    subset = tuple(subset)
    if len(set(subset)) != len(subset) or cardinality != len(subset):
        return f"subset {subset} does not have cardinality {cardinality}"
    if any(not 0 <= i < len(tokens) or tokens[i][0] != "D" for i in subset):
        return f"subset {subset} names a token that is not a double line"
    rest = tuple(t for i, t in enumerate(tokens) if i not in set(subset))
    if degree(rest) != 0:
        return f"subset {subset} leaves degree {degree(rest)}"
    vals = sorted(raw_sum(rest, c) for c in crossing_ids(rest))
    if any(v not in (0, -1) for v in vals) or list(residual) != vals:
        return f"subset {subset} leaves parities {vals}, reported {list(residual)}"
    if essential != (cardinality == kmin):
        return f"subset {subset} essential flag {essential} with minimum {kmin}"
    return None


def check_projection(tokens: tuple, got: tuple) -> str | None:
    """Parity projection: degree 0, every parity 0, and the passage skeleton
    of the input with each negative-parity crossing changed."""
    if degree(got) != 0 or any(raw_sum(got, c) != 0 for c in crossing_ids(got)):
        return "projection left a nonzero degree or parity"
    flip = {c for c in crossing_ids(tokens) if raw_sum(tokens, c) < 0}
    want = tuple(
        ("O" if t[0] == "U" else "U", t[1], -t[2]) if t[1] in flip else t
        for t in tokens if t[0] != "D"
    )
    if tuple(t for t in got if t[0] != "D") != want:
        return "projection changed the passage skeleton"
    return None


def check_same_class(want: tuple, got: tuple) -> str | None:
    """Equal up to rotation and renaming of crossings."""
    if canonical(want) != canonical(got):
        return "diagram differs from the reference up to rotation and relabeling"
    return None


def check_eliminated(want: tuple, got: tuple) -> str | None:
    """Exact token equality with no double line left."""
    if any(t[0] == "D" for t in got):
        return "double lines left after replay"
    if got != want:
        return "replayed tokens differ from the elimination result"
    return None


def check_not_found(start: tuple, target: tuple, found: bool) -> str | None:
    """Degree is a move invariant, so targets of another degree are unreachable."""
    if degree(start) == degree(target):
        return "exhaust query has equal degrees"
    if found:
        return "search found a target of another degree"
    return None


def self_check() -> list[str]:
    """Feed each checker a wrong answer; return the checkers that missed it."""
    missed = []
    d = (("U", 1, 1), ("D", 1), ("D", 1), ("O", 1, 1), ("D", 1), ("D", 1), ("D", 1))
    k = brute_essential(d)
    if k != closed_form(2, 3) or check_count(k, k) or not check_count(k, k - 1):
        missed.append("check_count")
    if closed_form(-2, 3) != 3:
        missed.append("closed_form")
    good = tuple(i for i, t in enumerate(d) if t[0] == "D")
    if check_report(d, good, 5, [0], True, 5) or not check_report(d, good[:3], 3, [0], False, 5):
        missed.append("check_report")
    neg = (("U", 1, 1), ("D", -1), ("O", 1, 1), ("D", 1))
    proj = (("O", 1, -1), ("D", -1), ("D", 1), ("U", 1, -1), ("D", -1), ("D", 1))
    if check_projection(neg, proj) or not check_projection(neg, neg[:1] + neg[2:3]):
        missed.append("check_projection")
    rot = d[3:] + d[:3]
    if check_same_class(d, rot) or not check_same_class(d, d[:-1]):
        missed.append("check_same_class")
    bare = (("U", 2, 1), ("O", 2, 1))
    if check_eliminated(bare, bare) or not check_eliminated(bare, bare + (("D", 1),)) \
            or not check_eliminated(bare, (("U", 1, 1), ("O", 1, 1))):
        missed.append("check_eliminated")
    if check_not_found(d, d[:-1], False) or not check_not_found(d, d[:-1], True):
        missed.append("check_not_found")
    return missed
