"""Seeded input generators owned by the benchmark.

Inputs are built in the benchmark's own token model, never with the
library under test, so generating them costs the same whatever the
library does.  A token is a tuple: ``("U", cid, sign)`` or
``("O", cid, sign)`` for a crossing passage, ``("D", sign)`` for a double
line (and ``("C", sign)`` for a clasp of a sewed link).

Random words follow the shuffle model of ``tests/conftest.py``: crossing
ids are assigned in creation order, then the whole word is shuffled, so
ids are generally not in order of first occurrence.
"""

from __future__ import annotations

import random

from ref import degree, raw_sum

Token = tuple


def shuffled_word(rng: random.Random, crossings: int, lines: int, degree_zero: bool = False) -> tuple:
    """Passage pairs with ids 1..crossings plus ``lines`` signed lines, shuffled."""
    tokens: list[Token] = []
    for cid in range(1, crossings + 1):
        s = rng.choice((1, -1))
        tokens += [("U", cid, s), ("O", cid, s)]
    if degree_zero:
        signs = [1, -1] * (lines // 2)
    else:
        signs = [rng.choice((1, -1)) for _ in range(lines)]
    tokens += [("D", s) for s in signs]
    rng.shuffle(tokens)
    return tuple(tokens)


def one_crossing(m: int, n: int, eps: int) -> tuple:
    """U, |m| lines of sign sgn(m), O, |n| lines of sign sgn(n)."""
    def block(v):
        return [("D", 1 if v > 0 else -1)] * abs(v)

    return tuple([("U", 1, eps)] + block(m) + [("O", 1, eps)] + block(n))


def text(tokens: tuple) -> str:
    """The textual form the library's parsers read."""
    out = []
    for t in tokens:
        sign = "+" if t[-1] > 0 else "-"
        out.append(t[0] + (str(t[1]) if len(t) == 3 else "") + sign)
    return " ".join(out)


def token_stats(words) -> dict:
    """Mean and max of tokens, crossings and double lines over ``words``."""
    rows = [
        (len(w), sum(1 for t in w if t[0] == "U"), sum(1 for t in w if t[0] in ("D", "C")))
        for w in words
    ]
    out = {}
    for i, name in enumerate(("tokens", "crossings", "double_lines")):
        vals = [r[i] for r in rows] or [0]
        out[name] = {"mean": round(sum(vals) / len(vals), 2), "max": max(vals)}
    return out


# --- walk moves, used to place reachable search targets -------------------

def _fresh(tokens: tuple) -> int:
    return max((t[1] for t in tokens if t[0] != "D"), default=0) + 1


def _walk_step(rng: random.Random, tokens: tuple, room: int) -> tuple | None:
    """One random move of the calculus that adds at most ``room`` tokens,
    chosen among R1Add, R2Add, DlPairAdd5, DlSlide4, R1Remove and
    DlPairCancel5; None when no such move applies."""
    n = len(tokens)
    kinds = ["R1Add", "DlPairAdd5"] * (room >= 2) + ["R2Add"] * (room >= 4)
    slides = [i for i in range(n) if (tokens[i][0] == "D") != (tokens[(i + 1) % n][0] == "D")]
    kinks = [
        i for i in range(n)
        if tokens[i][0] != "D" and tokens[(i + 1) % n][0] != "D"
        and tokens[i][1] == tokens[(i + 1) % n][1] and n > 1
    ]
    pairs = [
        i for i in range(n)
        if tokens[i][0] == "D" and tokens[(i + 1) % n][0] == "D"
        and tokens[i][1] == -tokens[(i + 1) % n][1] and n > 1
    ]
    kinds += ["DlSlide4"] * bool(slides) + ["R1Remove"] * bool(kinks) + ["DlPairCancel5"] * bool(pairs)
    if not kinds:
        return None
    kind = rng.choice(kinds)
    if kind == "R1Add":
        pos, cid, s = rng.randint(0, n), _fresh(tokens), rng.choice((1, -1))
        roles = rng.choice((("U", "O"), ("O", "U")))
        return tokens[:pos] + ((roles[0], cid, s), (roles[1], cid, s)) + tokens[pos:]
    if kind == "R2Add":
        pos1, pos2 = rng.randint(0, n), rng.randint(0, n)
        role, eps = rng.choice(("O", "U")), rng.choice((1, -1))
        other = "U" if role == "O" else "O"
        a = _fresh(tokens)
        b = a + 1
        block1 = ((role, a, eps), (role, b, -eps))
        block2 = ((other, b, -eps), (other, a, eps))
        out = list(tokens)
        if pos1 <= pos2:
            out[pos2:pos2] = block2
            out[pos1:pos1] = block1
        else:
            out[pos1:pos1] = block1
            out[pos2:pos2] = block2
        return tuple(out)
    if kind == "DlPairAdd5":
        pos, s = rng.randint(0, n), rng.choice((1, -1))
        return tokens[:pos] + (("D", s), ("D", -s)) + tokens[pos:]
    if kind == "DlSlide4":
        i = rng.choice(slides)
        out = list(tokens)
        j = (i + 1) % n
        out[i], out[j] = out[j], out[i]
        return tuple(out)
    i = rng.choice(kinks if kind == "R1Remove" else pairs)
    drop = {i, (i + 1) % n}
    return tuple(t for k, t in enumerate(tokens) if k not in drop)


def walk(rng: random.Random, start: tuple, steps: int, max_len: int) -> tuple:
    """A word reached from ``start`` by at most ``steps`` moves, every word
    on the way having at most ``max_len`` tokens.  The walk ends early where
    no move fits."""
    cur = start
    for _ in range(steps):
        nxt = _walk_step(rng, cur, max_len - len(cur))
        if nxt is None:
            break
        cur = nxt
    return cur


# --- degree-0 words whose crossings all have parity 0 or -1 ---------------

def eliminable_word(rng: random.Random, crossings: int, base: int, pad: int, clasp: bool = False) -> tuple:
    """A degree-0 word whose crossings all have winding parity 0 or -1.

    Passages are shuffled.  Each crossing gets a level ``b`` in
    [-base, base] and a parity ``t`` in {0, -1}; its Under passage sits at
    level ``b`` and its Over passage at ``b + t``.  The arc after each
    passage carries lines summing to the next passage's level minus its
    own, the last arc returning to the first passage's level, so the lines
    from a crossing's Under to its Over passage sum to ``t``.  Each arc also
    gets up to ``pad`` cancelling pairs.  With ``clasp`` the lines are
    clasps ("C").
    """
    passages: list[Token] = []
    level: dict[int, tuple[int, int]] = {}
    for cid in range(1, crossings + 1):
        s = rng.choice((1, -1))
        passages += [("U", cid, s), ("O", cid, s)]
        level[cid] = (rng.randint(-base, base), rng.choice((0, -1)))
    rng.shuffle(passages)

    def at(p):
        b, t = level[p[1]]
        return b if p[0] == "U" else b + t

    mark = "C" if clasp else "D"
    tokens: list[Token] = []
    for i, p in enumerate(passages):
        net = at(passages[(i + 1) % len(passages)]) - at(p)
        extra = rng.randint(0, pad)
        arc = [(mark, 1)] * (max(net, 0) + extra) + [(mark, -1)] * (max(-net, 0) + extra)
        rng.shuffle(arc)
        tokens += [p] + arc
    r = rng.randrange(len(tokens))
    out = tuple(tokens[r:] + tokens[:r])
    plain = tuple(("D", t[1]) if t[0] == "C" else t for t in out)
    assert degree(plain) == 0 and all(raw_sum(plain, c) in (0, -1) for c in level)
    return out
