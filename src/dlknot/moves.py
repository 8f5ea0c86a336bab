"""The move calculus on token sequences.

Implements the local moves for diagrams with double lines: the three
Reidemeister moves, sliding a double line past a crossing, creation and
cancellation of an adjacent opposite-sign double-line pair, and the two
derived moves (crossing change, crossing sliding).  Every move is a
``MoveInstance``: a kind plus a fully-parameterized site, so applications
are replayable and invertible.  A ``MoveInstance`` names a known kind and
each of its kind's parameters once and no other, or it is not built.

Position conventions: a site is a position ``p`` of the current token
tuple and names the adjacent pair ``(p, p+1)``; adjacency is cyclic, so
the site ``len-1`` names the pair ``(len-1, 0)``.  Insertion positions
mean "insert before the token currently at that index".

Five moves match a pattern at one to three sites: R1Remove, R2Remove and
DlPairCancel5 delete their pairs; DlSlide4 and R3 swap the two tokens of
each pair.  ``_site_error`` holds the pattern test for all five; the three
one-site patterns are one pair test, ``_pair_kind``, and R3 checks the
crossing signs of its three sites as well as their roles.

``successors`` lists every applicable instance with its child, from the
one enumeration of sites, ``_instances``: one walk classifies every
adjacent pair with ``_pair_kind``, only R2Remove and R3 candidates go
through ``_site_error``, and other parameters run over the one table of
their values, ``VALUES``.  ``enumerate_moves`` is its list of moves, and
the search reads ``_instances`` itself, to key children before it builds
them; all three list each R2Add child once, with ``pos1 <= pos2``.
``apply`` checks the parameter values, sites and crossing ids of a move
from outside (a trace, the CLI, a caller) by the same rules, takes either
spelling of an R2Add, and then builds the child with the same builder as
``successors``: one each to insert, delete pairs, swap pairs, and replace
a crossing's passages.
"""

from __future__ import annotations

import json
import re
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from functools import partial
from itertools import combinations

from .diagram import (
    OVER,
    UNDER,
    DlDiagram,
    DoubleLine,
    Passage,
    Token,
    _block_code,
    _brief,
    _trusted,
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

# The parameters of each kind, in the order a move line writes them.
# CrossingChange's chirality may be left out; it defaults to 1.
PARAMS = {
    R1_ADD: ("order", "pos", "sign"),
    R1_REMOVE: ("pos",),
    R2_ADD: ("eps", "pos1", "pos2", "role"),
    R2_REMOVE: ("pos1", "pos2"),
    R3: ("pos1", "pos2", "pos3"),
    DL_SLIDE: ("pos",),
    DL_PAIR_ADD: ("pos", "sign"),
    DL_PAIR_CANCEL: ("pos",),
    CROSSING_CHANGE: ("chirality", "crossing_id"),
    CROSSING_SLIDING: ("crossing_id", "direction"),
}
ALL_KINDS = frozenset(PARAMS)

# The values of each parameter that is neither a position nor a crossing
# id, in the order ``successors`` tries them.
VALUES = {
    "order": ("OU", "UO"),
    "role": (OVER, UNDER),
    **dict.fromkeys(("sign", "eps", "chirality", "direction"), (1, -1)),
}

# The number of tokens each kind adds to the word, exact for every instance.
GROWTH = {
    R1_ADD: 2,
    R2_ADD: 4,
    DL_PAIR_ADD: 2,
    CROSSING_CHANGE: 2,
    CROSSING_SLIDING: 4,
    R1_REMOVE: -2,
    R2_REMOVE: -4,
    DL_PAIR_CANCEL: -2,
    DL_SLIDE: 0,
    R3: 0,
}

# The pattern moves, whose parameters all name sites, and those of them
# that swap the tokens of each site instead of deleting them.
_SWAP_KINDS = frozenset({DL_SLIDE, R3})
_SITE_KINDS = _SWAP_KINDS | {R1_REMOVE, R2_REMOVE, DL_PAIR_CANCEL}


_INT_RE = re.compile(r"-?[0-9]+")


class MoveError(ValueError):
    """Raised when a move names an unknown kind or its parameters wrongly,
    or does not fit the diagram it is applied to."""


@dataclass(frozen=True)
class MoveInstance:
    """A fully-parameterized move: a kind of ``PARAMS`` plus each parameter
    of that kind once and no other, or it is not built."""

    kind: str
    params: tuple[tuple[str, int | str], ...]

    def __post_init__(self) -> None:
        names = PARAMS.get(self.kind)
        keys = tuple([k for k, _ in self.params])
        if keys == names:
            return
        if names is None:
            raise MoveError(f"unknown move kind {self.kind!r}")
        for i, k in enumerate(keys):
            if k in keys[:i]:
                raise MoveError(f"repeated move parameter {k!r}")
        for k in names:
            self[k]  # raises MoveError if k is missing
        extra = set(keys) - set(names)
        if extra:
            raise MoveError(f"{self.kind} takes no parameter {min(extra)!r}")

    def __getitem__(self, key: str) -> int | str:
        for k, v in self.params:
            if k == key:
                return v
        if key == "chirality" and self.kind == CROSSING_CHANGE:
            return 1  # the one parameter that may be left out
        raise MoveError(f"{self.kind} is missing parameter {key!r}")

    def to_line(self) -> str:
        parts = [self.kind] + [f"{k}={v}" for k, v in self.params]
        return " ".join(parts)

    @classmethod
    def from_line(cls, line: str) -> "MoveInstance":
        """The move a ``to_line`` line names, checked as any move is built."""
        words = line.split()
        if not words:
            raise MoveError(f"bad move line {line!r}")
        params = []
        for w in words[1:]:
            if "=" not in w:
                raise MoveError(f"bad move parameter {_brief(w)}")
            k, v = w.split("=", 1)
            # Only the spelling to_line writes: int() would also read
            # "+1", "1_0" and non-ASCII digits.
            try:
                params.append((k, int(v) if _INT_RE.fullmatch(v) else v))
            except ValueError:  # more digits than int() reads
                raise MoveError(f"bad move parameter {_brief(w)}") from None
        # By name alone: the values of a repeated name may not compare.
        return cls(words[0], tuple(sorted(params, key=lambda kv: kv[0])))


def mk(kind: str, /, **params: int | str) -> MoveInstance:
    return MoveInstance(kind, tuple(sorted(params.items())))


def _fresh_id(tokens: tuple[Token, ...]) -> int:
    ids = [t.crossing_id for t in tokens if isinstance(t, Passage)]
    return max(ids, default=0) + 1


def apply(d: DlDiagram, m: MoveInstance) -> DlDiagram:
    """Apply a move instance; raise MoveError on a bad parameter value, site
    or crossing id.  The child is built as ``successors`` builds it."""
    tokens = d.tokens
    n = len(tokens)
    kind = m.kind

    # A site is a token position, an insertion position may also be the end,
    # and a valued parameter is one of its VALUES by type too: True is not 1.
    vals, last = [], n - 1 if kind in _SITE_KINDS else n
    for key in PARAMS[kind]:
        v = m[key]
        if key in VALUES:
            allowed = VALUES[key]
            if type(v) is not type(allowed[0]) or v not in allowed:
                raise MoveError(f"bad {kind} {key}")
        elif key != "crossing_id" and not (type(v) is int and 0 <= v <= last):
            raise MoveError(f"{key}={v!r} out of range for {n} tokens")
        vals.append(v)

    if kind in _SITE_KINDS:
        why = _site_error(tokens, kind, vals)
        if why:
            raise MoveError(f"{kind}: {why}")
        return (_swap if kind in _SWAP_KINDS else _delete)(tokens, vals)
    if kind == R1_ADD:
        order, pos, sign = vals
        return _insert(tokens, pos, _kink(_fresh_id(tokens), order, sign))
    if kind == R2_ADD:
        eps, pos1, pos2, role = vals
        block1, block2 = _r2_blocks(_fresh_id(tokens), role, eps)
        return _insert(tokens, pos1, block1, pos2, block2)
    if kind == DL_PAIR_ADD:
        pos, sign = vals
        return _insert(tokens, pos, _line_pair(sign))
    # CrossingChange takes (chirality, crossing_id); CrossingSliding, reversed.
    s, cid = vals if kind == CROSSING_CHANGE else vals[::-1]
    return _map_crossing(tokens, _passages_of(tokens, cid), kind, s)


def hug(t: Token, pairs: int, s: int = 1) -> tuple[Token, ...]:
    """``t`` between ``pairs`` double lines of sign ``s`` and ``pairs`` of sign ``-s``."""
    return (DoubleLine(s),) * pairs + (t,) + (DoubleLine(-s),) * pairs


def flip_passage(t: Passage, pairs: int, chirality: int = 1) -> tuple[Token, ...]:
    """A passage after a crossing change: the role swaps and the crossing
    sign flips; ``pairs`` +/- pairs hug the new Under (chirality +1) or,
    with the signs reversed, the new Over (chirality -1)."""
    flipped = Passage(t.crossing_id, UNDER if t.role == OVER else OVER, -t.sign)
    if flipped.role == (UNDER if chirality == 1 else OVER):
        return hug(flipped, pairs, chirality)
    return (flipped,)


# The blocks the insertion moves put into the word.


def _kink(cid: int, order: str, sign: int) -> tuple[Passage, Passage]:
    """R1Add's passage pair: crossing ``cid``, its roles in ``order``."""
    return (Passage(cid, order[0], sign), Passage(cid, order[1], sign))


def _r2_blocks(a: int, role: str, eps: int) -> tuple[tuple[Passage, ...], tuple[Passage, ...]]:
    """R2Add's two blocks: crossings ``a`` and ``a + 1``, of role ``role``
    in the first block and of the other role in the second."""
    rr = UNDER if role == OVER else OVER
    b = a + 1
    return (
        (Passage(a, role, eps), Passage(b, role, -eps)),
        (Passage(b, rr, -eps), Passage(a, rr, eps)),
    )


def _line_pair(sign: int) -> tuple[DoubleLine, DoubleLine]:
    """DlPairAdd5's two double lines."""
    return (DoubleLine(sign), DoubleLine(-sign))


# The child builders, shared by ``apply`` and ``successors``.  Each slices
# the parent tuple; its input is a site or parameter already checked.


def _insert(
    tokens: tuple[Token, ...],
    pos: int,
    block: tuple[Token, ...],
    pos2: int = 0,
    block2: tuple[Token, ...] = (),
) -> DlDiagram:
    """``tokens`` with ``block`` inserted before the token at ``pos`` and
    ``block2`` (none by default) before the token at ``pos2``; at one
    position, ``block`` goes first."""
    if pos <= pos2:
        return _trusted(tokens[:pos] + block + tokens[pos:pos2] + block2 + tokens[pos2:])
    return _trusted(tokens[:pos2] + block2 + tokens[pos2:pos] + block + tokens[pos:])


def _delete(tokens: tuple[Token, ...], sites: Sequence[int]) -> DlDiagram:
    """``tokens`` without the pairs at ``sites``, which do not overlap."""
    n = len(tokens)
    out: tuple[Token, ...] = ()
    last = 0
    for i in sorted(q % n for p in sites for q in (p, p + 1)):
        out += tokens[last:i]
        last = i + 1
    return _trusted(out + tokens[last:])


def _swap(tokens: tuple[Token, ...], sites: Sequence[int]) -> DlDiagram:
    """``tokens`` with the two tokens of each pair at ``sites`` swapped."""
    n = len(tokens)
    out = list(tokens)
    for i in sites:
        j = (i + 1) % n
        out[i], out[j] = out[j], out[i]
    return _trusted(tuple(out))


def _map_crossing(
    tokens: tuple[Token, ...], where: Sequence[int], kind: str, s: int
) -> DlDiagram:
    """CrossingChange of chirality ``s`` or CrossingSliding of direction
    ``s`` (``kind``) at the crossing whose passages sit at ``where``, in
    increasing order: each passage is replaced by the tokens ``flip_passage``
    or ``hug`` gives for it."""
    f = flip_passage if kind == CROSSING_CHANGE else hug
    i, j = where
    return _trusted(
        tokens[:i] + f(tokens[i], 1, s) + tokens[i + 1 : j] + f(tokens[j], 1, s) + tokens[j + 1 :]
    )


def _passages_of(tokens: tuple[Token, ...], cid: object) -> list[int]:
    """The positions of crossing ``cid``'s two passages."""
    where = []
    if type(cid) is int:
        where = [i for i, t in enumerate(tokens) if isinstance(t, Passage) and t.crossing_id == cid]
    if not where:
        raise MoveError(f"unknown crossing id {cid!r}")
    return where


def _pair_kind(a: Token, b: Token) -> str | None:
    """The one-site move whose pattern the adjacent pair ``a b`` forms, if
    any: R1Remove, the two passages of one crossing; DlSlide4, a passage and
    a double line; DlPairCancel5, two double lines of opposite signs."""
    if isinstance(a, Passage):
        if isinstance(b, Passage):
            return R1_REMOVE if a.crossing_id == b.crossing_id else None
        return DL_SLIDE
    if isinstance(b, Passage):
        return DL_SLIDE
    return DL_PAIR_CANCEL if a.sign != b.sign else None


_PAIR_ERRORS = {
    R1_REMOVE: "no kink pair at site",
    DL_SLIDE: "need one passage and one double line",
    DL_PAIR_CANCEL: "no adjacent opposite pair at site",
}


def _site_error(tokens: tuple[Token, ...], kind: str, sites: Sequence[int]) -> str | None:
    """Why the pairs at ``sites`` (positions in range) do not form the
    pattern of the move ``kind``, one of the five in ``_SITE_KINDS``; None
    when they do.  The cheap token tests come before the set that tells
    whether the pairs overlap."""
    n = len(tokens)
    ts = [tokens[q % n] for p in sites for q in (p, p + 1)]
    if kind in _PAIR_ERRORS:
        return None if _pair_kind(*ts) == kind else _PAIR_ERRORS[kind]
    if not all(isinstance(t, Passage) for t in ts):
        return "site tokens are not passages"
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
        strands = {"".join(sorted(ts[i].role + ts[i + 1].role)): ts[i : i + 2] for i in (0, 2, 4)}
        if len(strands) != 3:
            return "over/under pattern mismatch"
        # The signs of a planar R3 (Polyak 2010): the top strand (OO) passes
        # over the middle (OU) at tm and over the bottom (UU) at tb, and the
        # middle over the bottom at mb; om, ot and ob say whether the middle
        # and the top strand meet tm first and the bottom strand meets tb first.
        top, middle, bottom = strands["OO"], strands["OU"], strands["UU"]
        om = middle[0].role == UNDER
        tm, mb = middle if om else middle[::-1]
        ot = top[0].crossing_id == tm.crossing_id
        tb = top[1] if ot else top[0]
        ob = bottom[0].crossing_id == tb.crossing_id
        if tm.sign * tb.sign != (1 if om == ob else -1):
            return "crossing signs do not fit the pattern"
        if tb.sign * mb.sign != (1 if ot == om else -1):
            return "crossing signs do not fit the pattern"
    if len({q % n for p in sites for q in (p, p + 1)}) != 2 * len(sites):
        return "overlapping sites"
    return None


def _instances(
    d: DlDiagram, kinds: Iterable[str] = ALL_KINDS
) -> Iterator[tuple[str, tuple, Callable[[], DlDiagram], tuple[int, tuple[int, int]] | None]]:
    """Every applicable instance of the requested kinds, in the order of
    ``successors``, as ``(kind, params, build, insert)``:
    ``MoveInstance(kind, params)`` is the move, ``build()`` makes its child,
    and ``insert`` is ``(pos, block code)`` when the child is ``d`` with a
    two-token block inserted before ``pos`` (R1Add, DlPairAdd5), None
    otherwise; ``diagram._block_code`` gives the block's two codes.

    One walk classifies every adjacent pair and finds each crossing's
    passages; the fresh crossing id and the inserted blocks are made once.
    The parameters are written in name order, as ``mk`` sorts them, and
    each child comes from the builder that ``apply`` uses for its kind.

    R2Add is listed only with ``pos1 <= pos2``, each child once: the mirror
    ``eps=-e pos1=q pos2=p role=U`` of ``eps=e pos1=p pos2=q role=O`` gives
    the same word up to renaming, and ``apply`` and ``invert`` take both.
    """
    tokens = d.tokens
    n = len(tokens)
    where: dict[int, list[int]] = {}
    one_site: dict[str, list[int]] = {R1_REMOVE: [], DL_SLIDE: [], DL_PAIR_CANCEL: []}
    adj: list[int] = []  # sites of two passages of different crossings
    for p, (a, b) in enumerate(zip(tokens, tokens[1:] + tokens[:1])):
        if isinstance(a, Passage):
            where.setdefault(a.crossing_id, []).append(p)
        kind = _pair_kind(a, b)
        if kind is None and isinstance(a, Passage):
            adj.append(p)  # b is a passage of another crossing
        elif kind and not (n == 2 and p == 1):  # on 2 tokens, site 1 is site 0's pair
            one_site[kind].append(p)
    fresh = _fresh_id(tokens)
    ins_positions = range(max(n, 1))

    for kind in sorted(kinds):
        if kind in one_site:
            build = _swap if kind in _SWAP_KINDS else _delete
            for p in one_site[kind]:
                yield kind, (("pos", p),), partial(build, tokens, (p,)), None
        elif kind == R1_ADD:
            kinks = [(o, s, _kink(fresh, o, s)) for o in VALUES["order"] for s in VALUES["sign"]]
            kinks = [(o, s, block, _block_code(block, n)) for o, s, block in kinks]
            for pos in ins_positions:
                for order, sign, block, code in kinks:
                    params = (("order", order), ("pos", pos), ("sign", sign))
                    yield kind, params, partial(_insert, tokens, pos, block), (pos, code)
        elif kind == R2_ADD:
            blocks = [(r, e, _r2_blocks(fresh, r, e)) for r in VALUES["role"] for e in VALUES["eps"]]
            for pos1 in ins_positions:
                for pos2 in ins_positions[pos1:]:
                    for role, eps, (block1, block2) in blocks:
                        params = (("eps", eps), ("pos1", pos1), ("pos2", pos2), ("role", role))
                        build = partial(_insert, tokens, pos1, block1, pos2, block2)
                        yield kind, params, build, None
        elif kind == R2_REMOVE:
            # The second site ends at the partner of tokens[pos1], so each
            # pos1 has one candidate pos2.  The pattern is symmetric in its
            # two sites, so a pair is found from its smaller site.
            for pos1 in adj:
                pos2 = (sum(where[tokens[pos1].crossing_id]) - pos1 - 1) % n
                if pos1 < pos2 and _site_error(tokens, R2_REMOVE, (pos1, pos2)) is None:
                    params = (("pos1", pos1), ("pos2", pos2))
                    yield kind, params, partial(_delete, tokens, (pos1, pos2)), None
        elif kind == R3:
            # Only three sites whose crossing pairs are the three pairs of
            # three crossings can pass the pattern test.
            pair = {
                p: frozenset((tokens[p].crossing_id, tokens[(p + 1) % n].crossing_id)) for p in adj
            }
            for sites in combinations(adj, 3):
                x, y, z = (pair[p] for p in sites)
                if len({x, y, z}) != 3 or len(x | y | z) != 3:
                    continue
                if _site_error(tokens, R3, sites) is None:
                    params = (("pos1", sites[0]), ("pos2", sites[1]), ("pos3", sites[2]))
                    yield kind, params, partial(_swap, tokens, sites), None
        elif kind == DL_PAIR_ADD:
            pairs = [(s, _line_pair(s)) for s in VALUES["sign"]]
            pairs = [(s, block, _block_code(block, n)) for s, block in pairs]
            for pos in ins_positions:
                for sign, block, code in pairs:
                    params = (("pos", pos), ("sign", sign))
                    yield kind, params, partial(_insert, tokens, pos, block), (pos, code)
        elif kind in (CROSSING_CHANGE, CROSSING_SLIDING):
            key = "chirality" if kind == CROSSING_CHANGE else "direction"
            for cid in sorted(where):
                for s in VALUES[key]:
                    params = tuple(sorted([(key, s), ("crossing_id", cid)]))
                    yield kind, params, partial(_map_crossing, tokens, where[cid], kind, s), None
        else:
            raise MoveError(f"unknown move kind {kind!r}")


def successors(
    d: DlDiagram, kinds: Iterable[str] = ALL_KINDS
) -> list[tuple[MoveInstance, DlDiagram]]:
    """Every applicable instance of the requested kinds with its child, in
    deterministic order: the kinds sorted, then each kind's sites.  Each
    R2Add child comes once, with ``pos1 <= pos2``."""
    return [(MoveInstance(k, ps), build()) for k, ps, build, _ in _instances(d, kinds)]


def enumerate_moves(d: DlDiagram, kinds: Iterable[str] = ALL_KINDS) -> list[MoveInstance]:
    """The moves of ``successors``, in its order: each R2Add child once,
    though ``apply`` takes both spellings."""
    return [MoveInstance(k, ps) for k, ps, _, _ in _instances(d, kinds)]


def invert(m: MoveInstance, context: DlDiagram) -> list[MoveInstance]:
    """A move sequence undoing ``m``: applying it to ``apply(context, m)``
    restores ``context`` up to canonical equality, for every kind.  A
    re-added crossing gets a fresh id, and a deleted pair that crossed the
    end of the word goes back at the end, a rotation of ``context``."""
    apply(context, m)  # raises MoveError if m does not fit context
    kind = m.kind
    if kind in _SWAP_KINDS:
        return [m]  # a swap is its own inverse
    if kind in (R1_ADD, DL_PAIR_ADD):
        return [mk(R1_REMOVE if kind == R1_ADD else DL_PAIR_CANCEL, pos=m["pos"])]
    if kind == R2_ADD:
        # The later block sits 2 tokens on, past the earlier one.
        pos1, pos2 = m["pos1"], m["pos2"]
        return [mk(R2_REMOVE, pos1=pos1 + 2 * (pos1 > pos2), pos2=pos2 + 2 * (pos1 <= pos2))]

    tokens = context.tokens
    if kind in _SITE_KINDS:
        # Each pair goes back at its first site less the deleted indices
        # before it, so a pair at site n-1 goes back at the end.
        n = len(tokens)
        sites = [m[k] for k in PARAMS[kind]]
        gone = sites + [(p + 1) % n for p in sites]
        ins = [p - sum(q < p for q in gone) for p in sites]
        first, second = tokens[sites[0]], tokens[(sites[0] + 1) % n]
        if kind == R1_REMOVE:
            return [mk(R1_ADD, pos=ins[0], order=first.role + second.role, sign=first.sign)]
        if kind == DL_PAIR_CANCEL:
            return [mk(DL_PAIR_ADD, pos=ins[0], sign=first.sign)]
        return [mk(R2_ADD, pos1=ins[0], pos2=ins[1], role=first.role, eps=first.sign)]

    # CrossingChange or CrossingSliding: the opposite move leaves a block
    # "pair, passage, pair" at p, where each passage hugged twice stood (the
    # Over for chirality 1, the Under for -1, both for a slide), cancelled at
    # p and p + 1; a slide's Under block goes first, 4 on past an Over block.
    key = "chirality" if kind == CROSSING_CHANGE else "direction"
    cid, s = m["crossing_id"], m[key]
    i, j = _passages_of(tokens, cid)
    o, u = (i, j) if tokens[i].role == OVER else (j, i)
    blocks = [o if s == 1 else u] if kind == CROSSING_CHANGE else [u + 4 * (o < u), o]
    cancels = [mk(DL_PAIR_CANCEL, pos=q) for p in blocks for q in (p, p + 1)]
    return [mk(kind, crossing_id=cid, **{key: -s})] + cancels


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
        steps = [{"kind": s.kind, "params": dict(s.params)} for s in self.steps]
        return json.dumps({"start": serialize(self.start), "steps": steps})

    @classmethod
    def from_json(cls, text: str) -> "MoveTrace":
        try:
            data = json.loads(text)
        except RecursionError:
            raise MoveError("trace JSON is nested too deeply") from None
        except json.JSONDecodeError as e:
            raise MoveError(f"bad trace JSON: {e}") from None
        except ValueError:  # an integer of more digits than int() reads
            raise MoveError("bad trace JSON: an integer has too many digits") from None
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
