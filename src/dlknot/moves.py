"""The move calculus on token sequences.

Implements the local moves for diagrams with double lines: the three
Reidemeister moves, sliding a double line past a crossing, creation and
cancellation of an adjacent opposite-sign double-line pair, and the two
derived moves (crossing change, crossing sliding).  Every move is a
``MoveInstance``: a kind plus a fully-parameterized site, so applications
are replayable and invertible.

Position conventions: a site is a position ``p`` of the current token
tuple and names the adjacent pair ``(p, p+1)``; adjacency is cyclic, so
the site ``len-1`` names the pair ``(len-1, 0)``.  Insertion positions
mean "insert before the token currently at that index".

Five moves match a pattern at one to three sites: R1Remove, R2Remove and
DlPairCancel5 delete their pairs; DlSlide4 and R3 swap the two tokens of
each pair.  ``_site_error`` holds the pattern test for all five, and both
``apply`` and ``enumerate_moves`` use it.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import combinations

from .diagram import (
    OVER,
    UNDER,
    DlDiagram,
    DoubleLine,
    Passage,
    Token,
    read_tokens,
    serialize,
)

R1_ADD = "R1Add"
R1_REMOVE = "R1Remove"
R2_ADD = "R2Add"
R2_REMOVE = "R2Remove"
R3 = "R3"
DL_SLIDE = "DlSlide4"
DL_PAIR_ADD = "DlPairAdd5"
DL_PAIR_CANCEL = "DlPairCancel5"
CROSSING_CHANGE = "CrossingChange"
CROSSING_SLIDING = "CrossingSliding"

ALL_KINDS = frozenset(
    {
        R1_ADD,
        R1_REMOVE,
        R2_ADD,
        R2_REMOVE,
        R3,
        DL_SLIDE,
        DL_PAIR_ADD,
        DL_PAIR_CANCEL,
        CROSSING_CHANGE,
        CROSSING_SLIDING,
    }
)

# The site parameters of the pattern moves, and those of them that swap
# the tokens of each site instead of deleting them.
_SITE_KEYS = {
    R1_REMOVE: ("pos",),
    DL_SLIDE: ("pos",),
    DL_PAIR_CANCEL: ("pos",),
    R2_REMOVE: ("pos1", "pos2"),
    R3: ("pos1", "pos2", "pos3"),
}
_SWAP_KINDS = frozenset({DL_SLIDE, R3})


class MoveError(ValueError):
    """Raised when a move instance does not match its site."""


@dataclass(frozen=True)
class MoveInstance:
    """A fully-parameterized applicable move: kind plus site parameters."""

    kind: str
    params: tuple[tuple[str, int | str], ...]

    def __getitem__(self, key: str) -> int | str:
        for k, v in self.params:
            if k == key:
                return v
        raise MoveError(f"{self.kind} is missing parameter {key!r}")

    def to_line(self) -> str:
        parts = [self.kind] + [f"{k}={v}" for k, v in self.params]
        return " ".join(parts)

    @classmethod
    def from_line(cls, line: str) -> "MoveInstance":
        words = line.split()
        if not words or words[0] not in ALL_KINDS:
            raise MoveError(f"bad move line {line!r}")
        params: dict[str, int | str] = {}
        for w in words[1:]:
            if "=" not in w:
                raise MoveError(f"bad move parameter {w!r}")
            k, v = w.split("=", 1)
            if k in params:
                raise MoveError(f"repeated move parameter {k!r}")
            try:
                params[k] = int(v)
            except ValueError:
                params[k] = v
        return mk(words[0], **params)


def mk(kind: str, /, **params: int | str) -> MoveInstance:
    return MoveInstance(kind, tuple(sorted(params.items())))


def _fresh_id(tokens: tuple[Token, ...]) -> int:
    ids = [t.crossing_id for t in tokens if isinstance(t, Passage)]
    return max(ids, default=0) + 1


def _cyc(tokens: tuple[Token, ...], i: int) -> Token:
    return tokens[i % len(tokens)]


def _check_pos(m: MoveInstance, key: str, n: int, allow_end: bool = False) -> int:
    pos = m[key]
    hi = n if allow_end else n - 1
    if not (isinstance(pos, int) and 0 <= pos <= hi):
        raise MoveError(f"{key}={pos!r} out of range for {n} tokens")
    return pos


def apply(d: DlDiagram, m: MoveInstance) -> DlDiagram:
    """Apply a move instance; raise MoveError on pattern mismatch."""
    tokens = d.tokens
    n = len(tokens)

    keys = _SITE_KEYS.get(m.kind)
    if keys:
        sites = [_check_pos(m, k, n) for k in keys]
        why = _site_error(tokens, m.kind, sites)
        if why:
            raise MoveError(f"{m.kind}: {why}")
        if m.kind in _SWAP_KINDS:
            out = list(tokens)
            for i in sites:
                j = (i + 1) % n
                out[i], out[j] = out[j], out[i]
            return DlDiagram(tuple(out))
        drop = {q % n for p in sites for q in (p, p + 1)}
        return DlDiagram(tuple(t for i, t in enumerate(tokens) if i not in drop))

    if m.kind == R1_ADD:
        pos = _check_pos(m, "pos", n, allow_end=True)
        order, sign = m["order"], m["sign"]
        if order not in ("UO", "OU") or sign not in (1, -1):
            raise MoveError("bad R1Add parameters")
        cid = _fresh_id(tokens)
        roles = (UNDER, OVER) if order == "UO" else (OVER, UNDER)
        pair = (Passage(cid, roles[0], sign), Passage(cid, roles[1], sign))
        return DlDiagram(tokens[:pos] + pair + tokens[pos:])

    if m.kind == R2_ADD:
        pos1 = _check_pos(m, "pos1", n, allow_end=True)
        pos2 = _check_pos(m, "pos2", n, allow_end=True)
        role, eps = m["role"], m["eps"]
        if role not in (OVER, UNDER) or eps not in (1, -1):
            raise MoveError("bad R2Add parameters")
        rr = UNDER if role == OVER else OVER
        base = _fresh_id(tokens)
        a, b = base, base + 1
        block1 = (Passage(a, role, eps), Passage(b, role, -eps))
        block2 = (Passage(b, rr, -eps), Passage(a, rr, eps))
        out = list(tokens)
        if pos1 <= pos2:
            out[pos2:pos2] = block2
            out[pos1:pos1] = block1
        else:
            out[pos1:pos1] = block1
            out[pos2:pos2] = block2
        return DlDiagram(tuple(out))

    if m.kind == DL_PAIR_ADD:
        pos = _check_pos(m, "pos", n, allow_end=True)
        sign = m["sign"]
        if sign not in (1, -1):
            raise MoveError("bad DlPairAdd5 sign")
        pair = (DoubleLine(sign), DoubleLine(-sign))
        return DlDiagram(tokens[:pos] + pair + tokens[pos:])

    if m.kind == CROSSING_CHANGE:
        chirality = m["chirality"] if _has(m, "chirality") else 1
        if chirality not in (1, -1):
            raise MoveError("bad CrossingChange chirality")
        return _map_crossing(d, m["crossing_id"], lambda t: flip_passage(t, 1, chirality))

    if m.kind == CROSSING_SLIDING:
        s = m["direction"]
        if s not in (1, -1):
            raise MoveError("bad CrossingSliding direction")
        return _map_crossing(d, m["crossing_id"], lambda t: hug(t, 1, s))

    raise MoveError(f"unknown move kind {m.kind!r}")


def _has(m: MoveInstance, key: str) -> bool:
    return any(k == key for k, _ in m.params)


def hug(t: Token, pairs: int, s: int = 1) -> list[Token]:
    """``t`` between ``pairs`` double lines of sign ``s`` and ``pairs`` of sign ``-s``."""
    return [DoubleLine(s)] * pairs + [t] + [DoubleLine(-s)] * pairs


def flip_passage(t: Passage, pairs: int, chirality: int = 1) -> list[Token]:
    """A passage after a crossing change: the role swaps and the crossing
    sign flips; ``pairs`` +/- pairs hug the new Under (chirality +1) or,
    with the signs reversed, the new Over (chirality -1)."""
    flipped = Passage(t.crossing_id, UNDER if t.role == OVER else OVER, -t.sign)
    if flipped.role == (UNDER if chirality == 1 else OVER):
        return hug(flipped, pairs, chirality)
    return [flipped]


def _map_crossing(d: DlDiagram, cid: int, f) -> DlDiagram:
    """Replace each passage of crossing ``cid`` by the tokens ``f`` gives for it."""
    out: list[Token] = []
    for t in d.tokens:
        if isinstance(t, Passage) and t.crossing_id == cid:
            out.extend(f(t))
        else:
            out.append(t)
    # Both crossing moves insert double lines: an unchanged length means
    # that no passage matched.
    if len(out) == len(d.tokens):
        raise MoveError(f"unknown crossing id {cid!r}")
    return DlDiagram(tuple(out))


def _site_error(tokens: tuple[Token, ...], kind: str, sites: Sequence[int]) -> str | None:
    """Why the pairs at ``sites`` (positions in range) do not form the
    pattern of the move ``kind``, one of the five in ``_SITE_KEYS``; None
    when they do.  The cheap token tests come before the set that tells
    whether the pairs overlap."""
    n = len(tokens)
    ts = [tokens[q % n] for p in sites for q in (p, p + 1)]
    if kind == DL_SLIDE:
        a, b = ts
        if isinstance(a, DoubleLine) == isinstance(b, DoubleLine):
            return "need one passage and one double line"
        return None
    if kind == DL_PAIR_CANCEL:
        a, b = ts
        if isinstance(a, DoubleLine) and isinstance(b, DoubleLine) and a.sign == -b.sign:
            return None
        return "no adjacent opposite pair at site"
    if not all(isinstance(t, Passage) for t in ts):
        return "site tokens are not passages"
    if kind == R1_REMOVE:
        a, b = ts
        return None if a.crossing_id == b.crossing_id else "no kink pair at site"
    if kind == R2_REMOVE:
        x, y, y2, x2 = ts
        if not (
            x.crossing_id != y.crossing_id
            and x.role == y.role
            and x2.role == y2.role
            and x.role != x2.role
            and x2.crossing_id == x.crossing_id
            and y2.crossing_id == y.crossing_id
            and x.sign == -y.sign
        ):
            return "pattern mismatch"
    else:
        ids: dict[int, list[int]] = {}
        for i, t in enumerate(ts):
            ids.setdefault(t.crossing_id, []).append(i // 2)
        if len(ids) != 3:
            return "need exactly three crossings"
        if any(len(where) != 2 or where[0] == where[1] for where in ids.values()):
            return "each crossing must span two distinct sites"
        signatures = sorted(tuple(sorted((ts[i].role, ts[i + 1].role))) for i in (0, 2, 4))
        if signatures != [("O", "O"), ("O", "U"), ("U", "U")]:
            return "over/under pattern mismatch"
    if len({q % n for p in sites for q in (p, p + 1)}) != 2 * len(sites):
        return "overlapping sites"
    return None


def enumerate_moves(d: DlDiagram, kinds: frozenset[str] | set[str] = ALL_KINDS) -> list[MoveInstance]:
    """All applicable instances of the requested kinds, in deterministic order."""
    tokens = d.tokens
    n = len(tokens)
    out: list[MoveInstance] = []
    ins_positions = range(max(n, 1))
    # On a 2-token word, pos 1 names the same pair as pos 0.
    pair_positions = range(1 if n == 2 else n)

    for kind in sorted(kinds):
        if kind == R1_ADD:
            for pos in ins_positions:
                for order in ("OU", "UO"):
                    for sign in (1, -1):
                        out.append(mk(R1_ADD, pos=pos, order=order, sign=sign))
        elif kind in (R1_REMOVE, DL_SLIDE, DL_PAIR_CANCEL):
            for pos in pair_positions:
                if _site_error(tokens, kind, (pos,)) is None:
                    out.append(mk(kind, pos=pos))
        elif kind == R2_ADD:
            for pos1 in ins_positions:
                for pos2 in ins_positions:
                    for role in ("O", "U"):
                        for eps in (1, -1):
                            out.append(mk(R2_ADD, pos1=pos1, pos2=pos2, role=role, eps=eps))
        elif kind == R2_REMOVE:
            for pos1, pos2 in combinations(range(n), 2):
                if _site_error(tokens, R2_REMOVE, (pos1, pos2)) is None:
                    out.append(mk(R2_REMOVE, pos1=pos1, pos2=pos2))
        elif kind == R3:
            adj = [
                p
                for p in range(n)
                if isinstance(_cyc(tokens, p), Passage) and isinstance(_cyc(tokens, p + 1), Passage)
            ]
            for sites in combinations(adj, 3):
                if _site_error(tokens, R3, sites) is None:
                    out.append(mk(R3, pos1=sites[0], pos2=sites[1], pos3=sites[2]))
        elif kind == DL_PAIR_ADD:
            for pos in ins_positions:
                for sign in (1, -1):
                    out.append(mk(DL_PAIR_ADD, pos=pos, sign=sign))
        elif kind == CROSSING_CHANGE:
            for cid in d.crossing_ids:
                for chirality in (1, -1):
                    out.append(mk(CROSSING_CHANGE, crossing_id=cid, chirality=chirality))
        elif kind == CROSSING_SLIDING:
            for cid in d.crossing_ids:
                for s in (1, -1):
                    out.append(mk(CROSSING_SLIDING, crossing_id=cid, direction=s))
        else:
            raise MoveError(f"unknown move kind {kind!r}")
    return out


def invert(m: MoveInstance, context: DlDiagram) -> list[MoveInstance]:
    """A move sequence undoing ``m``: applying it to ``apply(context, m)``
    restores ``context`` (up to canonical equality for the composite kinds)."""
    after = apply(context, m)
    n_after = len(after.tokens)

    if m.kind == R1_ADD:
        return [mk(R1_REMOVE, pos=m["pos"])]
    if m.kind == R1_REMOVE:
        n = len(context.tokens)
        pos = m["pos"] % n
        a = context.tokens[pos]
        b = _cyc(context.tokens, pos + 1)
        assert isinstance(a, Passage) and isinstance(b, Passage)
        order = "UO" if a.role == UNDER else "OU"
        # A pair wrapping the end of the word is re-appended at the end,
        # which restores the original up to rotation.
        ins = pos if (pos + 1) % n != 0 else n_after
        return [mk(R1_ADD, pos=ins, order=order, sign=a.sign)]
    if m.kind == R2_ADD:
        pos1, pos2 = m["pos1"], m["pos2"]
        if pos1 <= pos2:
            return [mk(R2_REMOVE, pos1=pos1, pos2=pos2 + 2)]
        return [mk(R2_REMOVE, pos1=pos1 + 2, pos2=pos2)]
    if m.kind == R2_REMOVE:
        n = len(context.tokens)
        pos1, pos2 = m["pos1"] % n, m["pos2"] % n
        first = context.tokens[pos1]
        assert isinstance(first, Passage)
        # Insertion indices into the reduced word.
        removed = sorted([pos1, (pos1 + 1) % n, pos2, (pos2 + 1) % n])
        shift1 = sum(1 for r in removed if r < pos1)
        shift2 = sum(1 for r in removed if r < pos2)
        return [
            mk(
                R2_ADD,
                pos1=pos1 - shift1,
                pos2=pos2 - shift2,
                role=first.role,
                eps=first.sign,
            )
        ]
    if m.kind in _SWAP_KINDS:
        return [m]  # a swap is its own inverse
    if m.kind == DL_PAIR_ADD:
        return [mk(DL_PAIR_CANCEL, pos=m["pos"])]
    if m.kind == DL_PAIR_CANCEL:
        n = len(context.tokens)
        pos = m["pos"] % n
        a = context.tokens[pos]
        assert isinstance(a, DoubleLine)
        ins = pos if (pos + 1) % n != 0 else n_after
        return [mk(DL_PAIR_ADD, pos=ins, sign=a.sign)]
    if m.kind == CROSSING_CHANGE:
        cid = m["crossing_id"]
        chirality = m["chirality"] if _has(m, "chirality") else 1
        steps = [mk(CROSSING_CHANGE, crossing_id=cid, chirality=-chirality)]
        cur = apply(after, steps[0])
        # The two chirality variants hug the same passage slot with opposite
        # pairs: the leftovers sit immediately before and after it.
        anchor_role = OVER if chirality == 1 else UNDER
        more, _ = _hug_cancels(cur, cid, anchor_role)
        return steps + more
    if m.kind == CROSSING_SLIDING:
        cid = m["crossing_id"]
        s = m["direction"]
        steps = [mk(CROSSING_SLIDING, crossing_id=cid, direction=-s)]
        cur = apply(after, steps[0])
        for role in (UNDER, OVER):
            more, cur = _hug_cancels(cur, cid, role)
            steps.extend(more)
        return steps
    raise MoveError(f"unknown move kind {m.kind!r}")


def _hug_cancels(
    d: DlDiagram, cid: int, role: str
) -> tuple[list[MoveInstance], DlDiagram]:
    """Cancel the opposite pairs immediately before and after a passage.

    A move pair and its undo leave the pattern D D P D D around the
    passage; the two pairs sit at fixed offsets, so the cancel sites are
    positional, not searched.
    """
    steps = []
    cur = d
    for offset in (-2, 1):
        idx = cur.passage_index(cid, role)
        step = mk(DL_PAIR_CANCEL, pos=(idx + offset) % len(cur.tokens))
        steps.append(step)
        cur = apply(cur, step)
    return steps, cur


class ReplayError(ValueError):
    def __init__(self, index: int, cause: MoveError):
        super().__init__(f"step {index} not applicable: {cause}")
        self.index = index


@dataclass(frozen=True)
class MoveTrace:
    """A replayable certificate: a start diagram and a move sequence."""

    start: DlDiagram
    steps: tuple[MoveInstance, ...]

    def to_text(self) -> str:
        lines = [serialize(self.start)]
        lines.extend(step.to_line() for step in self.steps)
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "MoveTrace":
        lines = text.splitlines()
        if not lines:
            raise MoveError("empty trace file")
        steps = tuple(MoveInstance.from_line(ln) for ln in lines[1:] if ln.strip())
        return cls(_read_start(lines[0]), steps)

    def to_json(self) -> str:
        return json.dumps(
            {
                "start": serialize(self.start),
                "steps": [
                    {"kind": s.kind, "params": dict(s.params)} for s in self.steps
                ],
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "MoveTrace":
        try:
            data = json.loads(text)
        except RecursionError:
            raise MoveError("trace JSON is nested too deeply") from None
        steps = data.get("steps") if isinstance(data, dict) else None
        if not isinstance(steps, list) or not all(
            isinstance(s, dict)
            and isinstance(s.get("kind"), str)
            and isinstance(s.get("params"), dict)
            for s in steps
        ):
            raise MoveError('trace JSON needs "start" and a "steps" list of {"kind", "params"}')
        # Only what a move line can hold: JSON's true, false and 1.0 would
        # pass for the integers 1, 0 and 1.
        if not all(type(v) in (int, str) for s in steps for v in s["params"].values()):
            raise MoveError("trace JSON parameter values must be integers or text")
        return cls(
            _read_start(data.get("start")),
            tuple(mk(s["kind"], **s["params"]) for s in steps),
        )


def _read_start(text: object) -> DlDiagram:
    """A trace's start diagram, with its crossing ids as written: the steps
    name crossings by those ids."""
    if not isinstance(text, str):
        raise MoveError(f"trace start must be diagram text, got {text!r}")
    return DlDiagram(tuple(read_tokens(text)))


def replay(trace: MoveTrace) -> DlDiagram:
    """Replay a trace from its start diagram; report the first bad step."""
    d = trace.start
    for i, step in enumerate(trace.steps):
        try:
            d = apply(d, step)
        except MoveError as e:
            raise ReplayError(i, e) from e
    return d
