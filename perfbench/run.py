"""dlknot benchmark: one closed-loop client, one process, one core.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {bfs,essential,certify} --seed N \
        --seconds S --trace {0,1}

Set-up imports ``dlknot`` from ``src/`` afresh and generates the
workload's inputs from the seed; it is repeated and its median reported
as ``setup_s``.  The op list is then run in whole passes, each op timed
on its own and its outputs checked against the benchmark's references
after the clock stops, until the next pass would end after ``--seconds``.
Every pass must repeat the counts of the first (determinism gate).

With ``--trace 0`` the result line holds the end-to-end metrics; with
``--trace 1`` the passes run once untraced and then as often again with
span recorders around the library's public functions, and the result
line holds the per-layer metrics, per pass.  The last line of standard
output is the JSON result; the lines before it are the same figures for
a reader, with sample counts, input sizes and failures by cause.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import resource
import shutil
import statistics
import sys
import time
import types
from pathlib import Path

import gen
import ref
import tracing
from workloads import KNOWN_DEFECTS, WORKLOADS

SRC = Path(__file__).resolve().parent.parent / "src"
WORKDIR = Path(".perfbench_work")
SETUP_REPEATS = 7
MODULES = ("diagram", "moves", "projection", "catalog", "links", "search", "cli")


def import_library():
    """Import dlknot afresh from the checkout's ``src/``."""
    for name in [m for m in sys.modules if m == "dlknot" or m.startswith("dlknot.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    package = importlib.import_module("dlknot")
    if Path(package.__file__).resolve().parent != SRC / "dlknot":
        raise ImportError(f"dlknot imported from {package.__file__}, not from {SRC}")
    lib = types.SimpleNamespace(package=package, MODULES=MODULES)
    for m in MODULES:
        setattr(lib, m, importlib.import_module(f"dlknot.{m}"))
    return lib


def run_pass(wl):
    """One pass over the op list: per-op latency, failure causes and counts."""
    lat, fails, counts = [], [], []
    start = time.perf_counter()
    for i in range(len(wl)):
        t0 = time.perf_counter()
        try:
            out = wl.run(i)
            err = None
        except Exception as e:  # a raising op is a failed op, not a crash
            err = e
        lat.append(time.perf_counter() - t0)
        if err is not None:
            fails.append([f"unexpected: {type(err).__name__}: {err}"])
            counts.append(None)
            continue
        try:
            f, c = wl.check(i, out)
        except Exception as e:
            f, c = [f"unexpected: check raised {type(e).__name__}: {e}"], None
        fails.append(f)
        counts.append(c)
    return {"lat": lat, "fails": fails, "counts": counts, "wall": time.perf_counter() - start}


def run_passes(wl, seconds, passes=None):
    """Whole passes until the next would end after ``seconds`` (or exactly
    ``passes`` passes)."""
    done, elapsed = [], 0.0
    while True:
        p = run_pass(wl)
        done.append(p)
        elapsed += p["wall"]
        if passes is not None:
            if len(done) == passes:
                return done
        elif elapsed + p["wall"] > seconds:
            return done


def digest(p) -> str:
    blob = json.dumps([p["counts"], p["fails"]], default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def layer_metrics(lib, tracer, passes: int, overhead: float, fail_share: float, causes: dict):
    """Per-layer figures per pass, named as in BENCHMARK.json; ``causes``
    holds the failures of one pass by cause."""
    calls, self_s, wall, c = tracer.calls, tracer.self_s, tracer.wall_s, tracer.counts
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    def per(x):
        return x / passes

    def count(x):
        return x // passes

    kinds = sorted(lib.moves.ALL_KINDS)
    names = [f"{m}.{f}" for m, f in tracing.TRACED] + ["moves.trace_io"] + [f"moves.apply.{k}" for k in kinds]
    for n in names:
        put(f"{n}.calls", count(calls[n]), "count")
        put(f"{n}.self_s", per(self_s[n]), "s")
    canon = calls["diagram.canonicalize"]
    put("diagram.canonicalize.tokens_mean", c["diagram.canonicalize.tokens"] / canon if canon else 0.0,
        "tokens")
    for n in ("moves.enumerate_moves.candidates", "moves.apply.rejected", "moves.replay.steps",
              "projection.important_subsets.reports", "projection.eliminate_double_lines.moves",
              "cli.main.exit_2", "search.generated", "search.length_pruned", "search.explored"):
        put(n, count(c[n]), "count")
    dup = c["search.generated"] - c["search.length_pruned"] - c["search.new_states"]
    put("search.duplicates", count(dup), "count")
    put("search.useful_ratio",
        c["search.explored"] / c["search.generated"] if c["search.generated"] else 0.0, "ratio")
    put("search.bfs_search.wall_s", per(wall["search.bfs_search"]), "s")
    put("search.states_per_s",
        c["search.explored"] / wall["search.bfs_search"] if wall["search.bfs_search"] else 0.0, "1/s")
    sep = calls["links.separability_check"]
    put("links.separable_share", c["links.separable"] / sep if sep else 0.0, "ratio")
    put("trace.overhead_s", overhead, "s")
    put("check.failed_share", fail_share, "ratio")
    for cause in KNOWN_DEFECTS:
        put(f"check.failed.{cause}", causes.get(cause, 0), "count")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "dlknot" / "__init__.py").is_file():
        print(f"error: no dlknot sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    cls = WORKLOADS[args.workload]

    WORKDIR.mkdir(exist_ok=True)
    try:
        setup = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            lib = import_library()
            wl = cls(lib, args.seed, str(WORKDIR))
            setup.append(time.perf_counter() - t0)
        missed = ref.self_check()

        if args.trace:
            base = run_passes(wl, args.seconds / 2)
            tracer = tracing.Tracer()
            with tracing.installed(tracer, lib):
                traced = run_passes(wl, 0, passes=len(base))
            passes = base + traced
        else:
            passes = run_passes(wl, args.seconds)
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)

    timed = base if args.trace else passes
    # Each op's latency is the median of its timings over the untraced passes.
    op_ms = [statistics.median(p["lat"][i] for p in timed) * 1000 for i in range(len(wl))]
    metrics = {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "ops_per_s": {"value": 1000 * len(op_ms) / sum(op_ms), "unit": "1/s"},
        "op_p50_ms": {"value": statistics.median(op_ms), "unit": "ms"},
        "op_p90_ms": {"value": statistics.quantiles(op_ms, n=10)[-1], "unit": "ms"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "unit": "MB"},
    }
    per_op = passes[0]["fails"]
    causes: dict = {}  # failures of one pass by cause
    for c in (c for f in per_op for c in f):
        causes[c] = causes.get(c, 0) + 1
    fail_share = sum(1 for f in per_op if f) / len(per_op)
    digests = sorted({digest(p) for p in passes})
    unexpected = [c for c in causes if c not in KNOWN_DEFECTS]
    correct = not missed and not unexpected and len(digests) == 1

    print(f"# workload {cls.name}, seed {args.seed}: closed loop, one client, one process")
    print(f"# {len(wl)} ops per pass; input sizes {json.dumps(gen.token_stats(wl.words))}")
    print(f"# passes: {len(timed)} untraced" + (f" + {len(traced)} traced" if args.trace else "")
          + f"; wall per pass {[round(p['wall'], 3) for p in passes]} s (checks included)")
    print(f"# setup runs {[round(x, 4) for x in setup]} s")
    for name, m in metrics.items():
        n = {"setup_s": f"{len(setup)} set-ups", "peak_rss_mb": "1 process"}.get(
            name, f"{len(op_ms)} ops, each the median of {len(timed)} timings")
        print(f"# {name} = {m['value']:.6g} {m['unit']} (samples: {n})")
    print(f"# failed_share = {fail_share:.6g} ({sum(1 for f in per_op if f)} of {len(per_op)} ops)")
    for c, n in sorted(causes.items()):
        print(f"#   {'known defect' if c in KNOWN_DEFECTS else 'UNEXPECTED'}: {c}: {n} ops per pass")
    print(f"# determinism: pass digests {digests}")
    if missed:
        print(f"# self-check: wrong answers not flagged by {missed}")

    if args.trace:
        n = len(base)
        overhead = (sum(p["wall"] for p in traced) - sum(p["wall"] for p in base)) / n
        metrics = layer_metrics(lib, tracer, n, overhead, fail_share, causes)
        wall = metrics["search.bfs_search.wall_s"]["value"]
        if wall:
            covered = sum(metrics[f"{k}.self_s"]["value"] for k in (
                "diagram.canonicalize", "moves.enumerate_moves", "moves.apply",
                "projection.essential_count"))
            print(f"# bfs_search wall {wall:.4g} s per pass: canonicalize, enumerate_moves, apply "
                  f"and essential_count self time {covered:.4g} s; remainder (bfs_search self) "
                  f"{metrics['search.bfs_search.self_s']['value']:.4g} s")
        for name, m in metrics.items():
            print(f"# {name} = {m['value']:.6g} {m['unit']}")

    failed = sum(1 for p in passes for f in p["fails"] if any(c not in KNOWN_DEFECTS for c in f))
    print(json.dumps({"correct": correct, "attempted": len(wl) * len(passes), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
