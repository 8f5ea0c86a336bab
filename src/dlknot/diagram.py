"""Token-sequence representation of oriented knot diagrams with double lines.

A diagram is a cyclic word whose letters are either classical-crossing
passages (an id, an over/under role and a crossing sign) or signed double
lines.  The word is an abstract Gauss code: virtual crossings and detour
moves never appear because they act trivially on the code.

The two basic invariants live here as well: the degree (sum of double-line
signs) and the winding parity of each crossing.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import ClassVar, Iterable, Iterator

OVER = "O"
UNDER = "U"

_PASSAGE_RE = re.compile(r"([OU])([0-9]+)([+-])")
_SIGNS = {"+": 1, "-": -1}


class DiagramError(ValueError):
    """Raised on malformed diagram text or broken pairing invariants."""


@dataclass(frozen=True)
class Passage:
    """One visit to a classical crossing: id, Over/Under role, crossing sign."""

    crossing_id: int
    role: str  # OVER or UNDER
    sign: int  # +1 or -1


@dataclass(frozen=True)
class DoubleLine:
    """A signed double-line decoration on the strand."""

    sign: int  # +1 or -1
    letter: ClassVar[str] = "D"


Token = Passage | DoubleLine


def _sign_char(s: int) -> str:
    return "+" if s > 0 else "-"


def token_to_text(t) -> str:
    """Text of a passage, or of a signed marker (a double line or a clasp)."""
    if isinstance(t, Passage):
        return t.role + str(t.crossing_id) + _sign_char(t.sign)
    return t.letter + _sign_char(t.sign)


def _brief(text: str) -> str:
    """``text`` quoted, with the middle of a long one left out."""
    return repr(text if len(text) <= 40 else text[:20] + "..." + text[-20:])


def read_tokens(text: str, marker: type = DoubleLine, relabel: bool = False) -> list:
    """Read whitespace-separated tokens, keeping crossing ids as written,
    or renaming them 1, 2, ... in order of first occurrence if ``relabel``.

    Grammar: Passage = ("O"|"U") id ("+"|"-"); a signed marker is
    ``marker.letter`` followed by "+" or "-" (``D`` for double lines).
    """
    markers = {marker.letter + c: marker(s) for c, s in _SIGNS.items()}
    ids: dict[int, int] = {}
    tokens = []
    for word in text.split():
        t = markers.get(word)
        if t is None:
            m = _PASSAGE_RE.fullmatch(word)
            try:
                cid = int(m[2])
            except (TypeError, ValueError):  # no match, or more digits than int() reads
                raise DiagramError(f"malformed token {_brief(word)}") from None
            t = Passage(ids.setdefault(cid, len(ids) + 1) if relabel else cid, m[1], _SIGNS[m[3]])
        tokens.append(t)
    return tokens


@dataclass(frozen=True)
class DlDiagram:
    """An oriented knot diagram with double lines, as a cyclic token word.

    The empty word is the trivial knot diagram.  Instances are immutable,
    their tokens above all, and all operations on them are pure functions.
    A diagram may privately keep its essential walk, which ``projection``
    derives from the tokens alone the first time it is asked for.
    """

    tokens: tuple[Token, ...]

    def __post_init__(self) -> None:
        _validate(self.tokens)

    @property
    def crossing_ids(self) -> tuple[int, ...]:
        return tuple(sorted({t.crossing_id for t in self.tokens if isinstance(t, Passage)}))

    @property
    def double_line_count(self) -> int:
        return sum(1 for t in self.tokens if isinstance(t, DoubleLine))

    def __str__(self) -> str:
        return serialize(self)


def _trusted(tokens: tuple[Token, ...]) -> DlDiagram:
    """A diagram built without ``_validate``, for the children that the
    move builders in ``moves`` make for ``apply`` and ``successors``:
    every move builds a valid word from a valid one.

    - R1Add and R2Add insert passages of fresh crossing ids, with unit
      signs and one Over and one Under passage each.
    - DlPairAdd5 inserts two double lines of unit signs.
    - CrossingChange and CrossingSliding flip both passages of one
      crossing (role and sign) and insert double lines of unit signs.
    - DlSlide4 and R3 permute the word.
    - R1Remove and R2Remove delete both passages of each crossing they
      touch; the pattern test checks this before anything is deleted.
    - DlPairCancel5 deletes two double lines.

    ``apply`` still checks a move's parameters and sites before it builds
    anything, and ``successors`` builds only at sites that pass the same
    pattern tests.  Every other diagram, above all one read from outside the
    library, goes through ``DlDiagram(...)`` and its check.
    """
    d = object.__new__(DlDiagram)
    object.__setattr__(d, "tokens", tokens)
    return d


def _validate(tokens: tuple[Token, ...]) -> None:
    if not isinstance(tokens, tuple):
        raise DiagramError(f"tokens must be a tuple, got {type(tokens).__name__}")
    # Ids and signs are ints: True == 1 and 1.0 == 1, but neither is one.
    first: dict[int, Passage] = {}  # crossing id -> passage, until its second
    paired: set[int] = set()
    for t in tokens:
        if isinstance(t, Passage):
            cid = t.crossing_id
            if type(cid) is not int or cid < 1:
                raise DiagramError(f"crossing id must be a positive int, got {cid!r}")
            if t.role not in (OVER, UNDER):
                raise DiagramError(f"bad role {t.role!r}")
            if type(t.sign) is not int or t.sign not in (1, -1):
                raise DiagramError(f"bad crossing sign {t.sign!r}")
            p = first.pop(cid, None)
            if p is not None:
                if p.role == t.role:
                    raise DiagramError(f"crossing id {cid} must appear once Over and once Under")
                if p.sign != t.sign:
                    raise DiagramError(f"crossing id {cid} has mismatched crossing signs")
                paired.add(cid)
            elif cid in paired:
                n = sum(isinstance(u, Passage) and u.crossing_id == cid for u in tokens)
                raise DiagramError(f"crossing id {cid} appears {n} times, expected 2")
            else:
                first[cid] = t
        elif isinstance(t, DoubleLine):
            if type(t.sign) is not int or t.sign not in (1, -1):
                raise DiagramError(f"bad double-line sign {t.sign!r}")
        else:
            raise DiagramError(f"unknown token {t!r}")
    if first:
        raise DiagramError(f"crossing id {next(iter(first))} appears 1 times, expected 2")


def parse(text: str) -> DlDiagram:
    """Parse whitespace-separated diagram text (see :func:`read_tokens`).

    Crossing ids are relabeled to order of first occurrence, so parsing
    round-trips with :func:`serialize` up to rotation and relabeling.
    """
    return DlDiagram(tuple(read_tokens(text, relabel=True)))


def _relabel_first_occurrence(tokens: Iterable[Token]) -> Iterator[Token]:
    mapping: dict[int, int] = {}
    for t in tokens:
        if isinstance(t, Passage):
            new = mapping.setdefault(t.crossing_id, len(mapping) + 1)
            yield Passage(new, t.role, t.sign)
        else:
            yield t


def serialize(d: DlDiagram) -> str:
    """Inverse of :func:`parse`: a textual form of the token word."""
    return " ".join(token_to_text(t) for t in d.tokens)


def _code(tokens: tuple[Token, ...]) -> tuple[int, ...]:
    """The word with crossing names replaced by positions: a double line
    codes as 0 (+) or 2 (-), a passage as 4 * (cyclic offset to the other
    passage of its crossing) + 2 * (Over) + (sign -).  Two words differ
    only by rotation and renaming iff their codes are rotations of each
    other."""
    n = len(tokens)
    code = [0] * n
    first: dict[int, int] = {}
    for i, t in enumerate(tokens):
        if isinstance(t, DoubleLine):
            code[i] = 1 - t.sign
            continue
        code[i] = 2 * (t.role == OVER) + (t.sign < 0)
        j = first.pop(t.crossing_id, None)
        if j is None:
            first[t.crossing_id] = i
        else:
            code[i] += 4 * (n + j - i)
            code[j] += 4 * (i - j)
    return tuple(code)


def _gap_codes(tokens: tuple[Token, ...]) -> list[tuple[int, ...]]:
    """For each insertion position ``pos`` (``range(max(n, 1))``), the code
    of ``tokens`` with a two-token block inserted before ``pos``, rotated to
    start just after the block and without the block's own two codes.  The
    block lengthens by 2 the forward arc of every passage that holds the
    gap: the passage at ``i`` with code ``v >= 4`` holds it iff
    ``g <= i + (v >> 2)``, where ``g`` is ``pos`` if ``pos > i`` and
    ``pos + n`` otherwise."""
    code = _code(tokens)
    n = len(code)
    rows = []
    for pos in range(max(n, 1)):
        c = [
            v + 8 if v >= 4 and (pos if pos > i else pos + n) <= i + (v >> 2) else v
            for i, v in enumerate(code)
        ]
        rows.append(tuple(c[pos:] + c[:pos]))
    return rows


def _block_code(block: tuple[Token, Token], n: int) -> tuple[int, int]:
    """The first two codes of the word that starts with ``block``, two
    double lines or the two passages of one crossing, followed by ``n``
    tokens: the second passage meets the first ``n + 1`` tokens on."""
    a, b = block
    if isinstance(a, DoubleLine):
        return 1 - a.sign, 1 - b.sign
    s = a.sign < 0
    return 4 + 2 * (a.role == OVER) + s, 4 * (n + 1) + 2 * (b.role == OVER) + s


def _least_rotation(c: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """The least rotation of the non-empty ``c`` and its start.  That
    rotation begins with ``min(c)``, so only the starts at an occurrence
    of it are compared, and a unique least value fixes the start."""
    low = min(c)
    if c.count(low) == 1:
        r = c.index(low)
        return c[r:] + c[:r], r
    cc = c + c
    n = len(c)
    return min([(cc[i : i + n], i) for i, v in enumerate(c) if v == low])


def _key(c: tuple[int, ...]) -> tuple[int, ...]:
    """The least rotation of the code ``c``."""
    return _least_rotation(c)[0] if c else c


def canonical_key(d: DlDiagram) -> tuple[int, ...]:
    """The least rotation of the word's code: equal for two diagrams iff
    they differ only by a cyclic rotation and a renaming of crossing ids."""
    return _key(_code(d.tokens))


def canonicalize(d: DlDiagram) -> DlDiagram:
    """A representative of the rotation/relabeling orbit of ``d``: the
    rotation with the least code, crossings relabeled by first occurrence.

    Two diagrams have equal canonical forms iff they differ only by a
    cyclic rotation of the word and a renaming of crossing ids.
    """
    c = _code(d.tokens)
    if not c:
        return d
    r = _least_rotation(c)[1]
    return DlDiagram(tuple(_relabel_first_occurrence(d.tokens[r:] + d.tokens[:r])))


def canonically_equal(a: DlDiagram, b: DlDiagram) -> bool:
    return canonical_key(a) == canonical_key(b)


def degree(d: DlDiagram) -> int:
    """Sum of the signs of all double lines."""
    return sum(t.sign for t in d.tokens if isinstance(t, DoubleLine))


@dataclass(frozen=True, order=True)
class WindingParity:
    """A winding parity value: an integer mod ``modulus`` (0 means plain Z)."""

    value: int
    modulus: int

    def __post_init__(self) -> None:
        if self.modulus < 0:
            raise DiagramError("modulus must be non-negative")
        if self.modulus > 0 and not 0 <= self.value < self.modulus:
            raise DiagramError("value out of range for modulus")


def winding_sums(d: DlDiagram) -> dict[int, int]:
    """Every crossing's raw winding sum, by crossing id in id order, from one
    pass: with s the running sum of line signs, it is s at the Over passage
    less s at the Under passage, plus the degree (the last s) when the Over
    passage comes first, as the interval then wraps the end of the word."""
    sums: dict[int, int] = {}
    over_first, s = [], 0
    for t in d.tokens:
        if isinstance(t, DoubleLine):
            s += t.sign
            continue
        if t.role == OVER and t.crossing_id not in sums:
            over_first.append(t.crossing_id)
        sums[t.crossing_id] = sums.get(t.crossing_id, 0) + (s if t.role == OVER else -s)
    for cid in over_first:
        sums[cid] += s
    return dict(sorted(sums.items()))


def raw_winding_sum(d: DlDiagram, crossing_id: int) -> int:
    """Integer sum of the double-line signs in the winding interval."""
    sums = winding_sums(d)
    if crossing_id not in sums:
        raise DiagramError(f"no crossing {crossing_id} in diagram")
    return sums[crossing_id]


def _parity(raw: int, deg: int) -> WindingParity:
    return WindingParity(raw % abs(deg) if deg else raw, abs(deg))


def winding_parity(d: DlDiagram, crossing_id: int) -> WindingParity:
    """The winding parity of a crossing, valued in Z_{|degree|} (Z if degree 0)."""
    return _parity(raw_winding_sum(d, crossing_id), degree(d))


def parity_profile(d: DlDiagram) -> tuple[WindingParity, ...]:
    """Multiset (as a sorted tuple) of winding parities over all crossings."""
    deg = degree(d)
    return tuple(sorted(_parity(v, deg) for v in winding_sums(d).values()))


def parity_record(d: DlDiagram) -> list[dict]:
    """JSON-ready parity profile: one ``{"value", "modulus"}`` per crossing."""
    return _parity_record(degree(d), winding_sums(d))


def _parity_record(deg: int, sums: dict[int, int]) -> list[dict]:
    ps = sorted(_parity(v, deg) for v in sums.values())
    return [{"value": p.value, "modulus": p.modulus} for p in ps]


def invariant_record(d: DlDiagram) -> dict:
    """JSON-ready record of the cheap invariants of a diagram."""
    deg, sums = degree(d), winding_sums(d)
    return {
        "degree": deg,
        "parities": _parity_record(deg, sums),
        "crossings": len(sums),
        "double_lines": len(d.tokens) - 2 * len(sums),
    }
