"""The one-crossing knot catalog.

A one-crossing diagram is written as a pair of integers (m, n) with a
crossing sign: the arc from the under-passage to the over-passage carries
a block of |m| double lines of sign sgn(m), the complementary arc a block
of |n| lines of sign sgn(n).  Its degree is m + n and the winding parity
of the single crossing is m.  The degree-k table lists one diagram per
parity pair; nothing here keys on the essential count.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from .diagram import (
    OVER,
    UNDER,
    DlDiagram,
    DoubleLine,
    Passage,
    degree,
    parity_record,
)
from .projection import essential_count


@dataclass(frozen=True)
class OneCrossing:
    """Parameters of a one-crossing diagram: block sums m, n and crossing sign."""

    m: int
    n: int
    eps: int

    def realize(self) -> DlDiagram:
        return one_crossing(self.m, self.n, self.eps)


def _block(m: int) -> list[DoubleLine]:
    sign = 1 if m > 0 else -1
    return [DoubleLine(sign)] * abs(m)


def one_crossing(m: int, n: int, eps: int = 1) -> DlDiagram:
    """The diagram U, |m| signed lines, O, |n| signed lines, crossing sign eps."""
    tokens = [Passage(1, UNDER, eps)] + _block(m) + [Passage(1, OVER, eps)] + _block(n)
    return DlDiagram(tuple(tokens))


def partner(m: int, n: int, eps: int) -> OneCrossing:
    """The equivalent one-crossing diagram obtained by a crossing change:
    (m, n) with sign eps becomes (n-1, m+1) with sign -eps."""
    return OneCrossing(n - 1, m + 1, -eps)


def essential_count_closed_form(m: int, n: int) -> int:
    """Closed-form essential double-line count of the (m, n) diagram.

    |m| + |n| in general; two fewer when m <= -1 and n > 0, where trading
    one minus-line on the under arc against one plus-line on the other arc
    leaves the crossing at parity -1.
    """
    if m <= -1 and n > 0:
        return abs(m) + abs(n) - 2
    return abs(m) + abs(n)


def degree_k_family(k: int) -> list[OneCrossing]:
    """The parity pairs of the degree-k one-crossing diagrams, k >= 3:
    (m, k-m) with sign +1 for m = 0..ceil(k/2)-1.

    (m, k-m) and its crossing-change partner (k-m-1, m+1) both have
    degree k, parities {m, k-1-m} and, by the closed form, essential count
    k, so the list holds one member per parity pair.  Distinct members are
    not proven inequivalent.
    """
    if k < 3:
        raise ValueError("degree_k_family needs k >= 3")
    if k > sys.maxsize:
        raise ValueError(f"degree_k_family needs k <= {sys.maxsize}")
    return [OneCrossing(m, k - m, 1) for m in range((k + 1) // 2)]


def stretch_family(m: int, k: int, s_max: int) -> list[tuple[OneCrossing, int]]:
    """The family (m+sk, k-sk-m) for s = 0..s_max with essential counts.

    Every member has degree k.  For m not divisible by k the closed-form
    essential counts strictly increase with s >= 1, so the members have
    pairwise distinct counts.
    """
    if k < 3:
        raise ValueError("stretch_family needs k >= 3")
    if m % k == 0:
        raise ValueError("stretch_family needs m not divisible by k")
    if s_max < 1:
        raise ValueError("stretch_family needs s_max >= 1")
    out = []
    for s in range(s_max + 1):
        c = OneCrossing(m + s * k, k - s * k - m, 1)
        out.append((c, essential_count_closed_form(c.m, c.n)))
    return out


def invariant_row(d: DlDiagram, **labels) -> dict:
    """JSON/TSV-ready table row: the labels, then the degree, parities and
    essential count of ``d``."""
    return {
        **labels,
        "degree": degree(d),
        "parities": parity_record(d),
        "essential_count": essential_count(d),
    }


def family_rows(k: int) -> list[dict]:
    """JSON/TSV-ready rows for the degree-k family table."""
    return [invariant_row(c.realize(), m=c.m, n=c.n, eps=c.eps) for c in degree_k_family(k)]
