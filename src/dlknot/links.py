"""2-component classical links with a trivial component, in sewed form.

A sewed link K | T records the traversal of K: its self-crossing passages
plus clasp markers, each clasp being an adjacent pair of K-T crossings
contributing one unit (with sign) to lk(K, T).  Replacing every clasp by a
double line of the same sign turns K into a knot diagram in the thickened
sphere, where the winding-parity machinery gives a sufficient criterion
for K and T to be separable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from .catalog import invariant_row, one_crossing
from .diagram import (
    DlDiagram,
    DoubleLine,
    Passage,
    degree,
    read_tokens,
    token_to_text,
    winding_sums,
)
from .projection import EliminationCertificate, eliminate_double_lines


@dataclass(frozen=True)
class Clasp:
    """An adjacent pair of K-T crossings contributing its sign to lk(K, T)."""

    sign: int
    letter: ClassVar[str] = "C"


@dataclass(frozen=True)
class SewedLink:
    """K's cyclic traversal: self-crossing passages and clasp markers."""

    tokens: tuple[Passage | Clasp, ...]

    def __post_init__(self) -> None:
        # Reuse the diagram pairing check on the passage skeleton.
        DlDiagram(tuple(t for t in self.tokens if isinstance(t, Passage)))


def parse_sewed(text: str) -> SewedLink:
    """Parse sewed-link text: passage tokens as for diagrams plus C+/C-.
    Crossing ids are kept as written."""
    return SewedLink(tuple(read_tokens(text, Clasp)))


def serialize_sewed(l: SewedLink) -> str:
    return " ".join(token_to_text(t) for t in l.tokens)


def to_dl_diagram(l: SewedLink) -> DlDiagram:
    """Replace each clasp by a double line of the same sign."""
    return DlDiagram(
        tuple(
            DoubleLine(t.sign) if isinstance(t, Clasp) else t for t in l.tokens
        )
    )


def linking_number(l: SewedLink) -> int:
    """lk(K, T): the sum of clasp signs."""
    return sum(t.sign for t in l.tokens if isinstance(t, Clasp))


def make_L(m: int, n: int, eps: int = 1) -> SewedLink:
    """The 2-component link whose conversion is the one-crossing diagram
    (m, n) with crossing sign eps: clasp blocks of sums m and n around a
    single self-crossing of K."""
    tokens = one_crossing(m, n, eps).tokens
    return SewedLink(tuple(Clasp(t.sign) if isinstance(t, DoubleLine) else t for t in tokens))


@dataclass(frozen=True)
class Obstruction:
    """Why the separability criterion failed.

    ``crossing`` is None when the total linking number is nonzero, in which
    case ``parity`` holds that linking number; otherwise it names the first
    crossing whose half-curve linking number lies outside {0, -1}.
    """

    crossing: int | None
    parity: int

    def to_dict(self) -> dict:
        return {"crossing": self.crossing, "parity": self.parity}


@dataclass(frozen=True)
class SeparabilityVerdict:
    separable: bool
    witness: EliminationCertificate | None
    obstruction: Obstruction | None


def separability_check(l: SewedLink) -> SeparabilityVerdict:
    """Sufficient separability criterion for K | T.

    Separable when lk(K, T) = 0 and every crossing's half-curve linking
    number lies in {0, -1}; the witness is then an elimination certificate
    for the converted diagram.  A failed criterion yields separable=False
    with the obstruction, which does not prove non-separability.
    """
    d = to_dl_diagram(l)
    deg = degree(d)
    if deg != 0:
        return SeparabilityVerdict(False, None, Obstruction(None, deg))
    for cid, p in winding_sums(d).items():
        if p not in (0, -1):
            return SeparabilityVerdict(False, None, Obstruction(cid, p))
    cert = eliminate_double_lines(d)
    return SeparabilityVerdict(True, cert, None)


def link_family_rows(m_max: int) -> list[dict]:
    """Invariant records of the converted diagrams of L(m, -m) for
    m = 1..m_max; the essential counts 2m make the rows pairwise distinct."""
    if m_max < 1:
        raise ValueError("link_family_rows needs m_max >= 1")
    return [invariant_row(to_dl_diagram(make_L(m, -m, 1)), m=m) for m in range(1, m_max + 1)]
