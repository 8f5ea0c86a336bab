"""Span recorder for the traced run.

The recorder wraps the library's public functions where the modules
import them from each other: every module attribute bound to a traced
function is replaced by a wrapper for the duration of the run and
restored afterwards.  A span is one call; its self time is its duration
minus the time covered by the spans it encloses.  Spans are aggregated
per name in memory; counters are taken at the same boundaries.
"""

from __future__ import annotations

import time
from collections import Counter

# (module, function) -> span name.  The span name is "<module>.<function>".
TRACED = [
    ("diagram", "parse"),
    ("diagram", "canonicalize"),
    ("diagram", "raw_winding_sum"),
    ("moves", "enumerate_moves"),
    ("moves", "apply"),
    ("moves", "replay"),
    ("search", "bfs_search"),
    ("projection", "essential_count"),
    ("projection", "important_subsets"),
    ("projection", "parity_projection"),
    ("projection", "eliminate_double_lines"),
    ("catalog", "family_rows"),
    ("links", "separability_check"),
    ("cli", "main"),
]
TRACE_IO = ("to_text", "to_json", "from_text", "from_json")


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.wall_s: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # [span name, time covered by children]
        self._max_len = 0

    def parent(self) -> str | None:
        return self._stack[-1][0] if self._stack else None

    def _on_call(self, name: str, args, kwargs) -> list[str]:
        """Counters taken when a span opens; returns the names it records."""
        if name == "diagram.canonicalize":
            self.counts["diagram.canonicalize.tokens"] += len(args[0].tokens)
        elif name == "search.bfs_search":
            self._max_len = kwargs["max_len"]
        elif name == "moves.apply":
            return [name, f"moves.apply.{args[1].kind}"]
        return [name]

    def _on_return(self, name: str, parent: str | None, args, out) -> None:
        c = self.counts
        if name == "moves.enumerate_moves":
            c["moves.enumerate_moves.candidates"] += len(out)
        elif name == "moves.apply" and parent == "search.bfs_search":
            c["search.generated"] += 1
            c["search.length_pruned"] += len(out.tokens) > self._max_len
        elif name == "moves.replay":
            c["moves.replay.steps"] += len(args[0].steps)
        elif name == "search.bfs_search":
            c["search.explored"] += out.explored
            c["search.new_states"] += max(out.explored - 1, 0)
        elif name == "projection.important_subsets":
            c["projection.important_subsets.reports"] += len(out)
        elif name == "projection.eliminate_double_lines":
            c["projection.eliminate_double_lines.moves"] += len(out.trace.steps)
        elif name == "links.separability_check":
            c["links.separable"] += bool(out.separable)
        elif name == "cli.main":
            c["cli.main.exit_2"] += out == 2

    def wrap(self, name: str, fn):
        tracer = self

        def span(*args, **kwargs):
            names = tracer._on_call(name, args, kwargs)
            parent = tracer.parent()
            frame = [name, 0.0]
            tracer._stack.append(frame)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception as e:
                if name == "moves.apply" and parent == "moves.enumerate_moves" \
                        and type(e).__name__ == "MoveError":
                    tracer.counts["moves.apply.rejected"] += 1
                raise
            finally:
                dt = time.perf_counter() - t0
                tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1][1] += dt
                for n in names:
                    tracer.calls[n] += 1
                    tracer.self_s[n] += dt - frame[1]
                    tracer.wall_s[n] += dt
            tracer._on_return(name, parent, args, out)
            return out

        span.__wrapped__ = fn
        return span


class installed:
    """Context manager: patch every binding of the traced functions in the
    library's modules, and restore them on exit."""

    def __init__(self, tracer: Tracer, lib):
        self.tracer = tracer
        self.lib = lib
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self):
        modules = [self.lib.package] + [getattr(self.lib, m) for m in self.lib.MODULES]
        for mod_name, fn_name in TRACED:
            orig = getattr(getattr(self.lib, mod_name), fn_name)
            wrapped = self.tracer.wrap(f"{mod_name}.{fn_name}", orig)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        self._undo.append((mod, attr, val))
                        setattr(mod, attr, wrapped)
        cls = self.lib.moves.MoveTrace
        for attr in TRACE_IO:
            raw = cls.__dict__[attr]
            self._undo.append((cls, attr, raw))
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self.tracer.wrap("moves.trace_io", raw.__func__)))
            else:
                setattr(cls, attr, self.tracer.wrap("moves.trace_io", raw))
        return self.tracer

    def __exit__(self, *exc):
        for obj, attr, val in reversed(self._undo):
            setattr(obj, attr, val)
        self._undo.clear()
        return False
