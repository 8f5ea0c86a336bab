"""The three workloads: seeded inputs, one timed operation each, and the
untimed reference checks of its outputs.

An operation (op) is one user-level request.  ``run(i)`` is the timed
part of op ``i``; ``check(i, out)`` runs after the clock stops and returns
``(failures, counts)``: the failure causes found in the outputs and the
counts that must repeat exactly for a fixed seed.  A failure cause is
either a known defect (``KNOWN_DEFECTS``), recognised by its exact
signature, or ``unexpected: ...``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random

import gen
import ref

# Known defects: cause -> what goes wrong.  They are counted and reported,
# never filtered out of the failure counts.
KNOWN_DEFECTS = {
    "search_precheck_false_negative":
        "bfs_search stops on differing essential counts, which are not move invariants",
    "trace_text_roundtrip":
        "MoveTrace.from_text renumbers the start's crossings, so crossing steps miss",
    "trace_json_roundtrip":
        "MoveTrace.from_json renumbers the start's crossings, so crossing steps miss",
    "cli_replay_roundtrip":
        "dlknot replay on a link-separable certificate fails for the same reason",
}


def to_lib(lib, tokens: tuple):
    """Benchmark tokens as a library diagram (the library only ever sees
    diagrams and text, never the generator)."""
    D, P = lib.diagram.DoubleLine, lib.diagram.Passage
    return lib.diagram.DlDiagram(
        tuple(D(t[1]) if t[0] == "D" else P(t[1], t[0], t[2]) for t in tokens)
    )


class Workload:
    name = ""

    def __init__(self, lib, seed: int, workdir: str):
        self.lib = lib
        self.rng = random.Random(f"{self.name}:{seed}")
        self.workdir = workdir  # scratch files of the op, if any
        self._ref: dict = {}

    def reference(self, key, fn):
        """A reference answer, computed once per run."""
        if key not in self._ref:
            self._ref[key] = fn()
        return self._ref[key]


class Bfs(Workload):
    """``bfs_search`` hit and exhaust queries from short seeded words."""

    name = "bfs"
    MAX_MOVES = 2
    MAX_LEN = 7
    # Hit queries start from every (tokens, crossings) stratum of 2 to 6
    # tokens.  Exhaust queries all start from one input size, one crossing
    # and one line (like U1+ D+ O1+), so their bounded graphs are alike.
    STRATA = tuple((n, c) for n in range(2, 7) for c in range(n // 2 + 1))
    HITS = 2
    EXHAUST = 40

    def __init__(self, lib, seed, workdir):
        super().__init__(lib, seed, workdir)
        rng = self.rng
        self.queries = []  # (kind, start tokens, target tokens)
        for n, c in self.STRATA:
            for rep in range(self.HITS):
                start = gen.shuffled_word(rng, c, n - 2 * c)
                steps = 1 + rep % self.MAX_MOVES
                self.queries.append(("hit", start, gen.walk(rng, start, steps, self.MAX_LEN)))
        for _ in range(self.EXHAUST):
            start = gen.shuffled_word(rng, 1, 1)
            pos = rng.randint(0, len(start))
            target = start[:pos] + (("D", rng.choice((1, -1))),) + start[pos:]
            self.queries.append(("exhaust", start, target))
        rng.shuffle(self.queries)
        self.lib_queries = [(to_lib(lib, s), to_lib(lib, t)) for _, s, t in self.queries]
        self.words = [s for _, s, _ in self.queries]

    def __len__(self):
        return len(self.queries)

    def run(self, i):
        start, target = self.lib_queries[i]
        return self.lib.search.bfs_search(
            start, target, max_moves=self.MAX_MOVES, max_len=self.MAX_LEN,
            check_invariants=self.queries[i][0] == "hit",
        )

    def check(self, i, res):
        kind, start, target = self.queries[i]
        counts = (res.found, res.explored, len(res.trace.steps) if res.found else -1)
        if kind == "exhaust":
            why = ref.check_not_found(start, target, res.found)
            if why is None and res.explored < 1:
                why = "exhaust query explored nothing"
            return ([f"unexpected: {why}"] if why else []), counts
        if not res.found:
            counts_differ = self.reference(("ess", i), lambda: (
                ref.brute_essential(start) != ref.brute_essential(target)))
            if res.explored == 0 and ref.degree(start) == ref.degree(target) and counts_differ:
                return ["search_precheck_false_negative"], counts
            return ["unexpected: reachable target not found"], counts
        if ref.from_lib(res.trace.start) != start or len(res.trace.steps) > self.MAX_MOVES:
            return ["unexpected: trace does not start at the query or is too long"], counts
        why = ref.check_same_class(target, ref.from_lib(self.lib.moves.replay(res.trace)))
        return ([f"unexpected: {why}"] if why else []), counts


class Essential(Workload):
    """The invariants, essential --limit and project path on one seeded
    diagram per op, plus catalog and link-family table rows."""

    name = "essential"
    LIMIT = 8
    SUBSETS_MAX_LINES = 16
    # One block of ops; the op list is BLOCKS blocks with fresh inputs each.
    PATTERN = ("random",) * 12 + ("zero",) * 3 + ("one", "one", "tail", "rows")
    BLOCKS = 110

    def __init__(self, lib, seed, workdir):
        super().__init__(lib, seed, workdir)
        rng = self.rng
        self.ops = []  # (kind, tokens or None, parameters)
        # Sizes cycle through fixed lists, so every seed has the same mix of
        # sizes; the seed only changes signs and arrangements.
        seen = {kind: 0 for kind in self.PATTERN}
        for _ in range(self.BLOCKS):
            for kind in self.PATTERN:
                j = seen[kind]
                seen[kind] += 1
                if kind == "random":
                    w = gen.shuffled_word(rng, (j // 15) % 9, j % 15)
                elif kind == "zero":
                    w = gen.shuffled_word(rng, (j // 8) % 9, 2 * (j % 8), True)
                elif kind == "tail":
                    w = gen.shuffled_word(rng, 2 + j % 2, 15 + j % 34)
                elif kind == "one":
                    total = j % 49
                    m = rng.randint(-total, total)
                    n = rng.choice((1, -1)) * (total - abs(m))
                    w = gen.one_crossing(m, n, rng.choice((1, -1)))
                    self.ops.append((kind, w, (m, n)))
                    continue
                else:
                    param = 3 + j % 10 if j % 2 else 1 + j % 8
                    self.ops.append(("catalog" if j % 2 else "links", None, param))
                    continue
                self.ops.append((kind, w, None))
        self.texts = [gen.text(w) if w is not None else None for _, w, _ in self.ops]
        self.words = [w for _, w, _ in self.ops if w is not None]

    def __len__(self):
        return len(self.ops)

    def run(self, i):
        kind, _, param = self.ops[i]
        lib = self.lib
        if kind == "catalog":
            return lib.catalog.family_rows(param)
        if kind == "links":
            return lib.links.link_family_rows(param)
        d = lib.diagram.parse(self.texts[i])
        rec = lib.diagram.invariant_record(d)
        count = lib.projection.essential_count(d)
        reports = None
        if rec["double_lines"] <= self.SUBSETS_MAX_LINES:
            reports = lib.projection.important_subsets(d, limit=self.LIMIT)
        proj = lib.projection.parity_projection(d) if rec["degree"] == 0 else None
        return d, rec, count, reports, proj

    def check(self, i, out):
        kind, w, param = self.ops[i]
        if kind in ("catalog", "links"):
            return self._check_rows(kind, param, out), (len(out),)
        d, rec, count, reports, proj = out
        counts = (count, -1 if reports is None else len(reports), proj is not None)
        fails = []
        got = ref.from_lib(d)
        if got != ref.relabel(w):
            return ["unexpected: parse changed the word"], counts
        deg = ref.degree(got)
        raws = [ref.raw_sum(got, c) for c in ref.crossing_ids(got)]
        mod = abs(deg)
        parities = sorted((r % mod if mod else r, mod) for r in raws)
        want = {"degree": deg, "crossings": len(raws), "double_lines": sum(t[0] == "D" for t in got)}
        if any(rec[k] != v for k, v in want.items()) or \
                [(p["value"], p["modulus"]) for p in rec["parities"]] != parities:
            fails.append("unexpected: invariant record differs from the reference")
        kmin = self.reference(("ess", i), lambda: ref.brute_essential(got))
        if kind == "one" and kmin != ref.closed_form(*param):
            fails.append("unexpected: brute force disagrees with the closed form")
        why = ref.check_count(kmin, count)
        if why:
            fails.append(f"unexpected: {why}")
        if reports is not None:
            if not reports or len(reports) > self.LIMIT or reports[0].cardinality != kmin \
                    or [r.cardinality for r in reports] != sorted(r.cardinality for r in reports):
                fails.append("unexpected: important subsets are empty, unsorted or over the limit")
            for r in reports:
                why = ref.check_report(got, r.subset, r.cardinality, r.residual_parities,
                                       r.is_essential, kmin)
                if why:
                    fails.append(f"unexpected: {why}")
                    break
        if (proj is None) != (deg != 0):
            fails.append("unexpected: projection run on the wrong degree")
        elif proj is not None:
            why = ref.check_projection(got, ref.from_lib(proj))
            if why:
                fails.append(f"unexpected: {why}")
        return fails, counts

    @staticmethod
    def _check_rows(kind, param, rows):
        if kind == "links":
            want = [
                {"m": m, "degree": 0, "parities": [{"value": m, "modulus": 0}],
                 "essential_count": ref.closed_form(m, -m)}
                for m in range(1, param + 1)
            ]
            return [] if rows == want else ["unexpected: link family rows differ"]
        seen = set()
        for r in rows:
            m, n, k = r["m"], r["n"], param
            if (m + n, r["degree"], r["essential_count"], r["parities"]) != (
                    k, k, ref.closed_form(m, n), [{"value": m % k, "modulus": k}]) \
                    or (m, n) in seen or not 0 <= m < k:
                return ["unexpected: catalog row differs from the closed form"]
            seen.add((m, n))
        return [] if rows else ["unexpected: empty catalog"]


class Certify(Workload):
    """Elimination certificates on long degree-0 words, separability of
    sewed links, and the CLI link-separable path."""

    name = "certify"
    OPS = 280

    def __init__(self, lib, seed, workdir):
        super().__init__(lib, seed, workdir)
        rng = self.rng
        self.cert_path = os.path.join(self.workdir, "certificate.txt")
        self.ops = []  # (word, link)
        for i in range(self.OPS):
            word = gen.eliminable_word(rng, 8 + i % 11, 2, 1)
            if i % 4 == 3:
                link = gen.shuffled_word(rng, 1 + i % 4, 2 + 2 * (i // 4) % 10)
                link = tuple(("C", t[1]) if t[0] == "D" else t for t in link)
            else:
                link = gen.eliminable_word(rng, 1 + i % 4, 2, 1, clasp=True)
            self.ops.append((word, link))
        P, C = lib.diagram.Passage, lib.links.Clasp
        self.lib_ops = [
            (to_lib(lib, w), lib.links.SewedLink(
                tuple(C(t[1]) if t[0] == "C" else P(t[1], t[0], t[2]) for t in link)))
            for w, link in self.ops
        ]
        self.link_texts = [gen.text(link) for _, link in self.ops]
        self.words = [w for w, _ in self.ops] + [link for _, link in self.ops]

    def __len__(self):
        return len(self.ops)

    def cli(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.lib.cli.main(argv)
        return code, out.getvalue()

    def run(self, i):
        lib = self.lib
        d, link = self.lib_ops[i]
        cert = lib.projection.eliminate_double_lines(d)
        text, js = cert.trace.to_text(), cert.trace.to_json()
        back = (lib.moves.MoveTrace.from_text(text), lib.moves.MoveTrace.from_json(js))
        replayed = lib.moves.replay(cert.trace)
        verdict = lib.links.separability_check(link)
        cli = self.cli(["link-separable", self.link_texts[i], "--json",
                        "--certificate", self.cert_path])
        return cert, back, replayed, verdict, cli

    @staticmethod
    def eliminated(tokens):
        """The elimination result: the passages alone, with every crossing of
        parity -1 changed (roles swapped, sign flipped)."""
        flip = {c for c in ref.crossing_ids(tokens) if ref.raw_sum(tokens, c) == -1}
        return tuple(
            ("O" if t[0] == "U" else "U", t[1], -t[2]) if t[1] in flip else t
            for t in tokens if t[0] not in ("D", "C")
        )

    def _replay_causes(self, start, want, back, cause):
        try:
            got = ref.from_lib(self.lib.moves.replay(back))
        except ValueError:
            got = None
        if got is not None and ref.check_eliminated(want, got) is None:
            return []
        if not ref.in_first_occurrence_order(start):
            return [cause]
        return [f"unexpected: {cause} of a trace whose ids need no renumbering"]

    def check(self, i, out):
        cert, back, replayed, verdict, (code, cli_out) = out
        word, link = self.ops[i]
        want = self.eliminated(word)
        fails = []
        for what, got in (("result", cert.result), ("replay", replayed)):
            why = ref.check_eliminated(want, ref.from_lib(got))
            if why:
                fails.append(f"unexpected: elimination {what}: {why}")
        fails += self._replay_causes(word, want, back[0], "trace_text_roundtrip")
        fails += self._replay_causes(word, want, back[1], "trace_json_roundtrip")

        plain = tuple(("D", t[1]) if t[0] == "C" else t for t in link)
        lk = ref.degree(plain)
        bad = [(c, ref.raw_sum(plain, c)) for c in ref.crossing_ids(plain)
               if ref.raw_sum(plain, c) not in (0, -1)]
        separable = lk == 0 and not bad
        link_want = self.eliminated(plain)
        link_fails = []
        if verdict.separable != separable:
            link_fails.append("unexpected: separability verdict differs from the reference")
        elif separable:
            why = ref.check_eliminated(link_want, ref.from_lib(verdict.witness.result))
            if why:
                link_fails.append(f"unexpected: separability witness: {why}")
        else:
            o = verdict.obstruction
            if (o.crossing, o.parity) != ((None, lk) if lk else bad[0]):
                link_fails.append("unexpected: obstruction differs from the reference")
        payload = json.loads(cli_out) if code in (0, 1) else {}
        if code != (0 if separable else 1) or payload.get("separable") != separable:
            link_fails.append("unexpected: link-separable exit code or verdict")
        fails += link_fails
        rcode = None
        if separable and not link_fails:
            rcode, rout = self.cli(["replay", self.cert_path, "--json"])
            got = json.loads(rout)["diagram"] if rcode == 0 else None
            if got != gen.text(link_want):
                fails.append("cli_replay_roundtrip" if not ref.in_first_occurrence_order(link)
                             else "unexpected: CLI replay of an id-ordered certificate")
        counts = (len(cert.trace.steps), bool(verdict.separable),
                  len(verdict.witness.trace.steps) if verdict.witness else -1, code, rcode)
        return fails, counts


WORKLOADS = {w.name: w for w in (Bfs, Essential, Certify)}
