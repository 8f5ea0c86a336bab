"""Parity normalization, double-line removal, and minimal important subsets."""

import dataclasses
import itertools
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import dlknot as dl
from dlknot import moves, projection
from dlknot.diagram import DoubleLine, Passage, read_tokens, winding_sums
from dlknot.moves import CROSSING_CHANGE, CROSSING_SLIDING, DL_PAIR_ADD, DL_PAIR_CANCEL, mk
from dlknot.moves import MoveTrace
from dlknot.projection import ProjectionError

from conftest import random_degree_zero, random_diagram


def _force_parities(d, rng):
    """A degree-0 diagram with every parity in {0, -1}: normalize to all
    zeros, then flip a random subset of crossings."""
    out = dl.parity_projection(d)
    for cid in sorted(out.crossing_ids):
        if rng.random() < 0.5:
            out = dl.apply(out, mk(CROSSING_CHANGE, crossing_id=cid, chirality=1))
    return out


def _eliminable(rng):
    """A degree-0 word with every parity in {0, -1}: a random passage word
    (possibly without crossings), normalized, with random crossing changes,
    crossing slides and pair insertions, then rotated so that lines can
    wrap the end of the word."""
    d = _force_parities(random_degree_zero(rng, 6, 0), rng)
    for cid in d.crossing_ids:
        for _ in range(rng.randint(0, 2)):
            d = dl.apply(d, mk(CROSSING_SLIDING, crossing_id=cid, direction=rng.choice([1, -1])))
    for _ in range(rng.randint(0, 3)):
        d = dl.apply(d, mk(DL_PAIR_ADD, pos=rng.randint(0, len(d.tokens)), sign=rng.choice([1, -1])))
    r = rng.randrange(max(len(d.tokens), 1))
    return dl.DlDiagram(d.tokens[r:] + d.tokens[:r])


def _eliminable_words(rng):
    fixed = ["D+ D+ D- D-", "D- D+", "D- U1+ O1+ D+", "D- U1+ D- O1+ D+ D+", "O1+ D+ U1+ D-"]
    return [dl.parse(w) for w in fixed] + [_eliminable(rng) for _ in range(300)]


class TestParityProjection:
    def test_fixed_on_all_zero(self):
        d = dl.parse("U1+ D+ D- O1+")
        assert dl.serialize(dl.parity_projection(d)) == dl.serialize(d)

    def test_trivial(self):
        assert dl.parity_projection(dl.parse("")) == dl.parse("")

    def test_negative_parity_gets_crossing_changed(self):
        out = dl.parity_projection(dl.parse("U1+ D- O1+ D+"))
        assert all(p.value == 0 for p in dl.parity_profile(out))
        # the crossing change flipped the crossing sign
        assert next(iter(out.tokens[0:1]))  # non-empty
        assert dl.degree(out) == 0

    def test_rejects_nonzero_degree(self):
        with pytest.raises(ProjectionError):
            dl.parity_projection(dl.parse("D+"))

    def test_normalizes_and_idempotent(self, rng):
        for _ in range(100):
            d = random_degree_zero(rng)
            p = dl.parity_projection(d)
            assert dl.degree(p) == 0
            assert all(w.value == 0 for w in dl.parity_profile(p))
            assert dl.canonically_equal(dl.parity_projection(p), p)


class TestStrip:
    def test_pair(self):
        assert dl.strip_double_lines(dl.parse("D+ D-")) == dl.parse("")

    def test_one_crossing(self):
        assert dl.strip_double_lines(dl.one_crossing(2, 1, 1)) == dl.parse("U1+ O1+")

    def test_strip_after_projection_restores_bare_diagram(self, rng):
        for _ in range(30):
            d = random_degree_zero(rng, max_double_lines=0)
            assert dl.canonically_equal(
                dl.strip_double_lines(dl.parity_projection(d)), d
            )


class TestElimination:
    def test_already_clean(self):
        d = dl.parse("U1+ O1+ U2- O2-")
        cert = dl.eliminate_double_lines(d)
        assert cert.result == d and cert.trace.steps == ()

    def test_single_crossing_negative_parity(self):
        cert = dl.eliminate_double_lines(dl.parse("U1+ D- O1+ D+"))
        assert not any(isinstance(t, DoubleLine) for t in cert.result.tokens)
        assert len(cert.result.crossing_ids) == 1
        assert dl.canonically_equal(dl.replay(cert.trace), cert.result)

    def test_restricted_move_vocabulary(self):
        cert = dl.eliminate_double_lines(dl.parse("U1+ D- O1+ D+ U2+ O2+"))
        allowed = {CROSSING_CHANGE, CROSSING_SLIDING, DL_PAIR_CANCEL}
        assert {s.kind for s in cert.trace.steps} <= allowed

    def test_rejects_bad_parity(self):
        with pytest.raises(ProjectionError, match="^crossing 1 has winding parity 2, expected 0 or -1$"):
            dl.eliminate_double_lines(dl.one_crossing(2, -2, 1))

    def test_rejects_nonzero_degree(self):
        # The degree is checked first, though crossing 1's parity is 1 too.
        with pytest.raises(ProjectionError, match="^elimination needs degree 0, got 1$"):
            dl.eliminate_double_lines(dl.parse("U1+ D+ O1+"))

    @pytest.mark.parametrize(
        "text, crossing, parity",
        [
            # Crossing 2 lies inside crossing 1, so its passages end first.
            ("U1+ D+ D+ U2+ D+ D+ O2+ D- D- O1+ D- D-", 1, 2),
            # Ids kept as written: crossing 2's passages come first.
            ("U2+ D+ O2+ D- U1+ D+ O1+ D-", 1, 1),
            # Crossing 1 is fine, so the error names crossing 2.
            ("U1+ O1+ U2+ D+ D+ O2+ D- D-", 2, 2),
            # Over passage first: the interval wraps the end of the word.
            ("O1+ D+ D+ U1+ D- D-", 1, -2),
            ("O1+ D- U1+ D+", 1, 1),
        ],
        ids=["nested", "ids-as-written", "second-only", "over-first", "over-first-one"],
    )
    def test_first_bad_crossing_in_id_order(self, text, crossing, parity):
        d = dl.DlDiagram(tuple(read_tokens(text)))
        assert winding_sums(d)[crossing] == parity
        message = f"^crossing {crossing} has winding parity {parity}, expected 0 or -1$"
        with pytest.raises(ProjectionError, match=message):
            dl.eliminate_double_lines(d)

    def test_checks_hold_without_asserts(self):
        # The refusals are raised, not asserted: python -O runs them too.
        code = (
            "import dlknot as dl\n"
            "for w in ('U1+ D+ O1+', 'U1+ D+ D+ O1+ D- D-'):\n"
            "    try:\n"
            "        dl.eliminate_double_lines(dl.parse(w))\n"
            "    except dl.ProjectionError as e:\n"
            "        print(e)\n"
        )
        src = str(Path(dl.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-O", "-c", code], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": src},
        ).stdout
        assert out == (
            "elimination needs degree 0, got 1\n"
            "crossing 1 has winding parity 2, expected 0 or -1\n"
        )

    def test_result_is_the_changed_passage_word(self, rng):
        # Token for token: the passages in place, each parity -1 crossing
        # with its roles swapped and its sign negated.
        for d in _eliminable_words(rng):
            flip = {c for c in d.crossing_ids if dl.raw_winding_sum(d, c) == -1}
            expect = tuple(
                Passage(t.crossing_id, "U" if t.role == "O" else "O", -t.sign)
                if t.crossing_id in flip
                else t
                for t in d.tokens
                if isinstance(t, Passage)
            )
            cert = dl.eliminate_double_lines(d)
            assert cert.result.tokens == expect, dl.serialize(d)
            assert dl.replay(cert.trace) == cert.result
            assert cert.trace.start == d

    def test_slides_are_fewest_over_levels(self, rng):
        # A crossing's level is the running line sum at its Under passage
        # (equal to the sum at its Over passage after the crossing change);
        # sliding every crossing to one common level k takes sum |s_c - k|
        # slides, least at some level of a crossing.
        for d in _eliminable_words(rng):
            levels, s = [], 0
            for t in d.tokens:
                if isinstance(t, DoubleLine):
                    s += t.sign
                elif t.role == "U":
                    levels.append(s)
            fewest = min((sum(abs(v - k) for v in levels) for k in levels), default=0)
            steps = dl.eliminate_double_lines(d).trace.steps
            assert sum(m.kind == CROSSING_SLIDING for m in steps) == fewest, dl.serialize(d)
            assert {m.kind for m in steps} <= {CROSSING_CHANGE, CROSSING_SLIDING, DL_PAIR_CANCEL}

    @staticmethod
    def _applied(d):
        """The elimination with every step applied by ``apply``: the crossing
        changes, then each crossing's slides to the median level, then the
        cancels one stack of line signs finds, and the pairs across the end
        of the word.  None if ``d`` is not degree 0 with parities in {0, -1}."""
        parities = winding_sums(d)
        if dl.degree(d) != 0 or any(p not in (0, -1) for p in parities.values()):
            return None
        flip = [c for c in d.crossing_ids if parities[c] == -1]
        steps = [mk(CROSSING_CHANGE, crossing_id=c, chirality=1) for c in flip]
        cur = d
        for m in steps:
            cur = dl.apply(cur, m)
        level, s = {}, 0
        for t in cur.tokens:
            if isinstance(t, DoubleLine):
                s += t.sign
            else:
                assert level.setdefault(t.crossing_id, s) == s, "two levels"
        k = sorted(level.values())[len(level) // 2] if level else 0
        for cid, s_c in sorted(level.items()):
            slide = mk(CROSSING_SLIDING, crossing_id=cid, direction=1 if k > s_c else -1)
            for m in [slide] * abs(k - s_c):
                cur = dl.apply(cur, m)
                steps.append(m)
        kept, cancels = [], []  # line signs, 0 for a passage
        for t in cur.tokens:
            v = t.sign if isinstance(t, DoubleLine) else 0
            if kept and kept[-1] * v == -1:
                kept.pop()
                cancels.append(mk(DL_PAIR_CANCEL, pos=len(kept)))
            else:
                kept.append(v)
        while kept and kept[-1] * kept[0] == -1:
            cancels.append(mk(DL_PAIR_CANCEL, pos=len(kept) - 1))
            kept = kept[1:-1]
        for m in cancels:
            cur = dl.apply(cur, m)
            steps.append(m)
        return MoveTrace(d, tuple(steps)), cur

    # Cancels across the end of the word, an Over-first crossing of parity
    # -1 and crossings nested in each other; the last two words of the
    # first row have parities 2 and 1, so both sides reject them.
    EDGE_WORDS = [
        "", "D+ D-", "D- D+ D+ D-", "U1+ O1+", "D+ U1+ O1+ D-", "O1+ D- D- U1+ D+ D+",
        "D+ D+ U1+ O1+ D- U2+ O2+ D-", "U1+ D+ U2- D+ O2- D- D- O1+",
        "O1+ D- D+ D+ U1+ D- D- D+", "U1+ D+ U2- O2- D- D- O1+ D+", "U1+ D- O1+ D+ D+ U2+ O2+ D-",
    ]

    def test_trace_matches_applied_steps(self, rng):
        # The elimination builds its word without applying a step; its trace
        # and result are those of applying every step, token for token.
        for d in _eliminable_words(rng) + [dl.parse(w) for w in self.EDGE_WORDS]:
            expect = self._applied(d)
            if expect is None:
                with pytest.raises(ProjectionError):
                    dl.eliminate_double_lines(d)
                continue
            cert = dl.eliminate_double_lines(d)
            assert (cert.trace, cert.result) == expect, dl.serialize(d)
            assert dl.replay(cert.trace) == cert.result

    def test_random_projected_diagrams(self, rng):
        for _ in range(100):
            d = _force_parities(random_degree_zero(rng, 5, 8), rng)
            cert = dl.eliminate_double_lines(d)
            assert not any(isinstance(t, DoubleLine) for t in cert.result.tokens)
            assert dl.canonically_equal(dl.replay(cert.trace), cert.result)


class TestImportantSubsets:
    def test_full_set_always_important_when_clean(self, rng):
        # For degree-0 diagrams whose stripped parities land in {0, -1},
        # the full double-line set is important.
        d = dl.parse("U1+ D+ O1+ D- U2+ O2+")
        reports = dl.important_subsets(d)
        positions = [i for i, t in enumerate(d.tokens) if isinstance(t, DoubleLine)]
        assert any(sorted(r.subset) == positions for r in reports)

    def test_all_zero_has_empty_essential(self):
        d = dl.parse("U1+ D+ D- O1+")
        reports = dl.important_subsets(d)
        assert reports[0].subset == () and reports[0].is_essential
        assert dl.essential_count(d) == 0

    def test_minimal_cardinality_case(self):
        reports = dl.important_subsets(dl.one_crossing(-3, 3, 1))
        minimal = [r for r in reports if r.is_essential]
        assert minimal and all(r.cardinality == 4 for r in minimal)

    @staticmethod
    def _enumerate(d, first=None, start=0):
        """Every important subset by brute force: each combination of lines,
        by cardinality from ``start`` up, with its residual diagram built and
        measured; with ``first``, only that many."""
        positions = [i for i, t in enumerate(d.tokens) if isinstance(t, DoubleLine)]

        def important():
            for k in range(start, len(positions) + 1):
                for subset in itertools.combinations(positions, k):
                    residual = dl.DlDiagram(
                        tuple(t for i, t in enumerate(d.tokens) if i not in subset)
                    )
                    sums = sorted(dl.raw_winding_sum(residual, c) for c in residual.crossing_ids)
                    if dl.degree(residual) == 0 and all(v in (0, -1) for v in sums):
                        yield subset, k, tuple(sums)

        found = list(itertools.islice(important(), first))
        kmin = found[0][1]
        return [(s, k, v, k == kmin) for s, k, v in found]

    @staticmethod
    def _block_word(rng, lines, degree_zero):
        """``lines`` double lines, a third to two thirds of them (at most half
        if ``degree_zero``) one block of one sign inside crossing 1's
        interval; the rest, balancing the block if ``degree_zero``, shuffled
        with up to two more crossings, and the word rotated at random."""
        sign = rng.choice([1, -1])
        m = rng.randint(lines // 3, lines // 2 if degree_zero else 2 * lines // 3)
        if degree_zero:
            rest = [-sign] * m + [1, -1] * ((lines - 2 * m) // 2)
        else:
            rest = [rng.choice([1, -1]) for _ in range(lines - m)]
        tokens = [DoubleLine(s) for s in rest]
        for cid in range(2, rng.randint(1, 3) + 1):
            s = rng.choice([1, -1])
            tokens += [Passage(cid, "U", s), Passage(cid, "O", s)]
        rng.shuffle(tokens)
        s = rng.choice([1, -1])
        tokens = [Passage(1, "U", s)] + [DoubleLine(sign)] * m + [Passage(1, "O", s)] + tokens
        r = rng.randrange(len(tokens))
        return dl.DlDiagram(tuple(tokens[r:] + tokens[:r]))

    @staticmethod
    def _listed(d, limit=None):
        return [
            (r.subset, r.cardinality, r.residual_parities, r.is_essential)
            for r in dl.important_subsets(d, limit=limit)
        ]

    def test_digits_at_the_width_bound(self, rng):
        # important_subsets packs each line into base-2^b digits, one per
        # row, and tests a subset by the digits of its sum.  A block of one
        # sign in one interval drives those digits far from 0; with too few
        # bits per digit (2 bits fail here) a carry between rows passes
        # subsets that are not important.  Full lists where the brute force
        # is cheap, else each limit=j prefix up to 20 against the brute
        # force from the essential count up.
        for lines, words in ((7, 20), (8, 40), (9, 20), (15, 2), (16, 2), (17, 2)):
            for j in range(words):
                d = self._block_word(rng, lines, degree_zero=lines % 2 == 0 and j % 2 == 0)
                assert d.double_line_count == lines
                if lines < 10:
                    assert self._listed(d) == self._enumerate(d), dl.serialize(d)
                    continue
                expect = self._enumerate(d, first=20, start=dl.essential_count(d))
                for k in range(1, 21):
                    assert self._listed(d, limit=k) == expect[:k], (dl.serialize(d), k)

    def test_reports_reverify(self, rng):
        for _ in range(20):
            d = random_degree_zero(rng, 4, 6)
            for r in dl.important_subsets(d, limit=10):
                kept = tuple(
                    t for i, t in enumerate(d.tokens) if i not in r.subset
                )
                residual = dl.DlDiagram(kept)
                assert dl.degree(residual) == 0
                assert all(
                    p.value in (0, -1) for p in dl.parity_profile(residual)
                )
        # The full report list (subsets, cardinalities, residual parities,
        # flags and order) against the brute-force enumeration.
        for d in [random_degree_zero(rng, 4, 8) for _ in range(20)] + [
            random_diagram(rng, 4, 8) for _ in range(20)
        ]:
            expect = self._enumerate(d)
            assert self._listed(d) == expect, dl.serialize(d)
            for j in range(1, len(expect) + 1):
                assert self._listed(d, limit=j) == expect[:j], (dl.serialize(d), j)

    def test_limit_caps_output(self):
        d = dl.one_crossing(-2, 2, 1)
        assert len(dl.important_subsets(d, limit=3)) <= 3
        assert len(dl.important_subsets(d, limit=1)) == 1
        # Only an int counts: not a float, a bool or a string.
        for bad in (0, -3, 2.5, 3.0, True, False, "3"):
            with pytest.raises(ValueError, match="limit must be at least 1"):
                dl.important_subsets(d, limit=bad)


class TestEssentialCount:
    def test_known_values(self):
        assert dl.essential_count(dl.one_crossing(2, 3, 1)) == 5
        assert dl.essential_count(dl.one_crossing(-3, -1, 1)) == 4
        assert dl.essential_count(dl.parse("")) == 0

    def test_matches_bruteforce_reports(self, rng):
        # The size of the first brute-force report, not of important_subsets'
        # first report, whose search starts at this count.
        inputs = [random_degree_zero(rng, 3, 6) for _ in range(20)]
        inputs += [random_diagram(rng, 5, 10) for _ in range(100)]
        for d in inputs:
            expect = TestImportantSubsets._enumerate(d, first=1)[0][1]
            assert dl.essential_count(d) == expect, dl.serialize(d)


class TestEssentialWalk:
    """Both essential searches read one walk, which a diagram keeps once
    either has run on it."""

    @staticmethod
    def _makers(d, rng):
        """Ways to build a diagram of some word near ``d``, each making a new
        object per call: parse, the constructor, and a child by ``apply`` and
        by ``successors``."""
        text = dl.serialize(d)
        makers = {"parse": lambda: dl.parse(text), "DlDiagram": lambda: dl.DlDiagram(d.tokens)}
        # A few kinds, inserting, deleting, flipping and permuting, keep it quick.
        children = moves.successors(d, [moves.DL_PAIR_ADD, moves.R1_ADD, moves.CROSSING_CHANGE,
                                        moves.DL_SLIDE, moves.R2_REMOVE])
        if children:
            m, _ = rng.choice(children)
            makers["apply"] = lambda: dl.apply(d, m)
            makers["successors"] = lambda: dict(moves.successors(d, [m.kind]))[m]
        return makers

    def test_any_order_matches_a_fresh_diagram(self, rng):
        made = Counter()
        for _ in range(200):
            d = random_diagram(rng, 7, 16)
            for how, make in self._makers(d, rng).items():
                limits = rng.sample([1, 2, 3, 5, 8], 3)
                tokens = make().tokens
                count = dl.essential_count(dl.DlDiagram(tokens))
                lists = {j: dl.important_subsets(dl.DlDiagram(tokens), limit=j) for j in limits}
                first = make()
                assert dl.essential_count(first) == count, (how, dl.serialize(first))
                for j in limits:
                    assert dl.important_subsets(first, limit=j) == lists[j], (how, j)
                second = make()
                for j in limits:
                    assert dl.important_subsets(second, limit=j) == lists[j], (how, j)
                assert dl.essential_count(second) == count, (how, dl.serialize(second))
                made[how] += 1
        assert len(made) == 4, made

    def test_one_search_per_diagram(self, monkeypatch):
        calls = []
        search = projection._essential_count
        monkeypatch.setattr(projection, "_essential_count", lambda c: calls.append(c) or search(c))
        d = dl.parse("O1+ D+ D+ U2- D- U1+ D+ O2- D+")
        assert dl.essential_count(d) == 3
        assert [r.subset for r in dl.important_subsets(d, limit=2)] == [(1, 6, 8), (2, 6, 8)]
        assert dl.essential_count(d) == 3
        assert len(calls) == 1
        assert dl.essential_count(dl.DlDiagram(d.tokens)) == 3 and len(calls) == 2

    def test_walk_is_invisible(self):
        d, e = dl.parse("U1+ D- D- O2- D+ U2- O1+ D+"), dl.parse("U1+ D- D- O2- D+ U2- O1+ D+")
        seen = repr(d), hash(d)
        dl.important_subsets(d, limit=3)
        dl.essential_count(d)
        assert d == e and (repr(d), hash(d)) == seen == (repr(e), hash(e))
        assert [f.name for f in dataclasses.fields(d)] == ["tokens"]
        assert dataclasses.astuple(d) == dataclasses.astuple(e)


class TestEssentialDiagram:
    def test_all_zero_virtual_fixed(self):
        d = dl.parse("U1+ O1+ O2+ U2+")
        out, trace = dl.essential_diagram(d)
        assert dl.canonically_equal(out, d) and trace.steps == ()

    def test_one_crossing_nonnegative_already_essential(self):
        for m, n in [(0, 0), (1, 2), (3, -1)]:
            d = dl.one_crossing(m, n, 1)
            out, _ = dl.essential_diagram(d)
            assert dl.canonically_equal(out, d)

    @staticmethod
    def _reference(d):
        """The first brute-force important subset's lines kept, the others
        dropped, and every residual parity -1 crossing changed, without a
        pair."""
        subset = TestImportantSubsets._enumerate(d, first=1)[0][0]
        rest = dl.DlDiagram(tuple(t for i, t in enumerate(d.tokens) if i not in subset))
        flip = {c for c in rest.crossing_ids if dl.raw_winding_sum(rest, c) == -1}
        out = []
        for i, t in enumerate(d.tokens):
            if isinstance(t, Passage) and t.crossing_id in flip:
                out.extend(moves.flip_passage(t, 0))
            elif isinstance(t, Passage) or i in subset:
                out.append(t)
        return dl.DlDiagram(tuple(out))

    def test_matches_bruteforce(self, rng):
        # Equal up to rotation: cancels across the end of the word may leave
        # a kept line at the other end.
        for _ in range(60):
            d = random_diagram(rng, 4, 8)
            out, trace = dl.essential_diagram(d)
            assert dl.canonically_equal(out, self._reference(d)), dl.serialize(d)
            assert trace.start == d
            assert dl.replay(trace) == out

    @staticmethod
    def _w(d):
        """The parity writhe polynomial W(d), as exponent -> coefficient:
        the sum over crossings c of sign(c) f(p_c), with
        f(p) = t^p - t^(-1-p) - sigma(p) (1 - t^-1).  At degree k != 0,
        parities and exponents are taken mod |k|.  sigma(p) is +1 if p is
        the greater of p and -1-p, -1 if the lesser and 0 if they are equal,
        so f(-1-p) = -f(p): a crossing change leaves W as it was."""
        k = abs(dl.degree(d))
        red = (lambda e: e % k) if k else (lambda e: e)
        signs = {t.crossing_id: t.sign for t in d.tokens if isinstance(t, Passage)}
        w = Counter()
        for c, raw in winding_sums(d).items():
            p, q = red(raw), red(-1 - raw)
            sigma = (p > q) - (p < q)
            for e, v in ((p, 1), (q, -1), (0, -sigma), (red(-1), sigma)):
                w[e] += signs[c] * v
        return {e: v for e, v in w.items() if v}

    def test_equivalent_with_essential_count_lines(self, rng):
        # Words of every degree: the trace starts at the input and replays to
        # the output, which has essential_count lines and the input's W.
        # The first word's output once kept a hugging pair and lost its W.
        words = [dl.parse("U1- D- D- O1- D+ D+")] + [random_diagram(rng, 4, 10) for _ in range(300)]
        for d in words:
            out, trace = dl.essential_diagram(d)
            assert trace.start == d
            assert dl.replay(trace) == out
            assert out.double_line_count == dl.essential_count(d), dl.serialize(d)
            assert self._w(out) == self._w(d), dl.serialize(d)
        assert self._w(words[0]) == {-2: -1, -1: 1, 0: -1, 1: 1}
        assert dl.serialize(dl.essential_diagram(words[0])[0]) == "O1+ D- U1+ D+"

    def test_wide_word(self):
        # 28 lines, essential count 8: too many for the brute force above.
        wide = dl.parse(
            "D+ O1- D+ D+ U1- D+ D+ U3- D- D- D- D+ D+ D- D- D- D- D+ D- D+ D- O3- U2- "
            "D+ D+ D- D- D+ D- O2- D- D+ D- D+"
        )
        out, trace = dl.essential_diagram(wide)
        assert dl.serialize(out) == "D+ O1- D+ D+ U1- D+ O2+ D- D- D- D- U2+ U3- O3-"
        assert len(trace.steps) == 15
        assert dl.replay(trace) == out
        assert self._w(out) == self._w(wide)

    def test_negative_parity_pair(self):
        d = dl.parse("U1+ D- O1+ D+")
        out, _ = dl.essential_diagram(d)
        assert dl.essential_count(d) == 0
        # the crossing is changed, and its hugging pair cancelled
        assert dl.serialize(out) == "O1- U1-"
