"""Command-line front end.

Subcommands wrap the library operations one-to-one; every command is
deterministic and exits 0 on success, 1 on a negative result (search
miss, separability criterion not met), 2 on bad input.

Each row of ``COMMANDS`` gives a subcommand's name, help, handler and
arguments; every subcommand also takes ``--json`` and ``--output``.  A
handler returns ``(payload, text)``, or ``(payload, text, exit code)``
when it can report a negative result, and ``main`` alone prints or writes
the output.  Bad input, a usage error included, is reported as one
``error:`` line on stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import catalog, links, projection, search
from .diagram import DiagramError, _brief, invariant_record, parse, serialize
from .moves import ALL_KINDS, MoveInstance, MoveTrace, apply as apply_move, replay

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2


def _read_arg(text: str) -> str:
    if text == "-":
        return sys.stdin.read()
    return text


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:  # not an integer, or more digits than int() reads
        raise argparse.ArgumentTypeError(f"invalid int value: {_brief(text)}") from None


def _write(path: str, text: str) -> None:
    with open(path, "w") as f:
        f.write(text)


def _parities(ps: list[dict], mod: str, sep: str) -> str:
    return sep.join(f"{p['value']}" + (f"{mod}{p['modulus']}" if p["modulus"] else "") for p in ps)


def _diagram(d) -> tuple[dict, str]:
    text = serialize(d)
    return {"diagram": text}, text


def _table(rows: list[dict]) -> tuple[list[dict], str]:
    lines = []
    for r in rows:
        cells = [str(r[k]) for k in r if k != "parities"]
        lines.append("\t".join(cells + [_parities(r["parities"], "%", ",") or "-"]))
    return rows, "\n".join(lines)


def cmd_invariants(args):
    d = parse(_read_arg(args.diagram))
    r = invariant_record(d)
    r["essential_count"] = None if args.no_essential else projection.essential_count(d)
    text = "\n".join([
        f"degree: {r['degree']}",
        f"crossings: {r['crossings']}",
        f"double_lines: {r['double_lines']}",
        "parities: " + _parities(r["parities"], " mod ", ", "),
        f"essential_count: {r['essential_count']}",
    ])
    return r, text


def cmd_remove(args):
    cert = projection.eliminate_double_lines(parse(_read_arg(args.diagram)))
    if args.trace_file:
        _write(args.trace_file, cert.trace.to_text())
    result, moves = serialize(cert.result), len(cert.trace.steps)
    payload = {"result": result, "moves": moves, "trace_file": args.trace_file}
    return payload, f"{result}\n# {moves} moves"


def cmd_essential(args):
    reports = projection.important_subsets(parse(_read_arg(args.diagram)), limit=args.limit)
    payload = [r.to_dict() for r in reports]
    text = "\n".join(
        f"{r['cardinality']}\t{r['subset']}\t{r['residual_parities']}\t"
        + ("essential" if r["essential"] else "important")
        for r in payload
    )
    return payload, text


def cmd_stretch(args):
    fam = catalog.stretch_family(args.m, args.k, args.s_max)
    return _table([
        {"m": c.m, "n": c.n, "eps": c.eps, "essential_count": count, "parities": []}
        for c, count in fam
    ])


def cmd_link_convert(args):
    l = links.parse_sewed(_read_arg(args.link))
    text = serialize(links.to_dl_diagram(l))
    return {"diagram": text, "linking_number": links.linking_number(l)}, text


def cmd_link_separable(args):
    verdict = links.separability_check(links.parse_sewed(_read_arg(args.link)))
    cert_path = args.certificate if verdict.separable and args.certificate else None
    if cert_path:
        _write(cert_path, verdict.witness.trace.to_text())
    o = verdict.obstruction
    payload = {
        "separable": verdict.separable,
        "obstruction": o.to_dict() if o else None,
        "certificate": cert_path,
    }
    if verdict.separable:
        return payload, "separable", EXIT_OK
    if o.crossing is None:
        text = f"not separable by criterion: linking number {o.parity}"
    else:
        text = f"not separable by criterion: crossing {o.crossing} has parity {o.parity}"
    return payload, text, EXIT_NEGATIVE


def cmd_search(args):
    if args.src == args.dst == "-":
        raise DiagramError("only one of src and dst can be read from stdin ('-')")
    src = parse(_read_arg(args.src))
    dst = parse(_read_arg(args.dst))
    kinds = ALL_KINDS if args.kinds == "all" else frozenset(args.kinds.split(","))
    result = search.bfs_search(src, dst, args.max_moves, args.max_len, kinds)
    if not result.found:
        payload = {"found": False, "explored": result.explored, "moves": None}
        return payload, f"not found (explored {result.explored} diagrams)", EXIT_NEGATIVE
    if args.trace_file:
        _write(args.trace_file, result.trace.to_text())
    moves = [s.to_line() for s in result.trace.steps]
    payload = {"found": True, "explored": result.explored, "moves": moves}
    return payload, "\n".join(moves) if moves else "# already equal", EXIT_OK


def cmd_apply(args):
    d = parse(_read_arg(args.diagram))
    return _diagram(apply_move(d, MoveInstance.from_line(args.move)))


def cmd_replay(args):
    with open(args.trace_file) as f:
        text = f.read()
    read = MoveTrace.from_json if text.lstrip().startswith("{") else MoveTrace.from_text
    return _diagram(replay(read(text)))


DIAGRAM = (["diagram"], {})
LINK = (["link"], {})
TRACE_FILE = (["--trace-file"], {})
INT = {"type": _int}

# (name, help, handler, arguments other than --json and --output)
COMMANDS = [
    ("invariants", "degree, parities, essential count", cmd_invariants, [
        DIAGRAM,
        (["--no-essential"], {"action": "store_true", "help": "skip the exponential search"}),
    ]),
    ("project", "winding-parity projection",
     lambda a: _diagram(projection.parity_projection(parse(_read_arg(a.diagram)))), [DIAGRAM]),
    ("strip", "delete all double lines",
     lambda a: _diagram(projection.strip_double_lines(parse(_read_arg(a.diagram)))), [DIAGRAM]),
    ("remove", "eliminate double lines by moves, with trace", cmd_remove, [DIAGRAM, TRACE_FILE]),
    ("essential", "important/essential double-line subsets", cmd_essential, [
        DIAGRAM, (["--limit"], {**INT, "default": None}),
    ]),
    ("catalog", "degree-k one-crossing family table",
     lambda a: _table(catalog.family_rows(a.k)), [(["k"], INT)]),
    ("stretch", "(m+sk, k-sk-m) family with essential counts", cmd_stretch,
     [(["m"], INT), (["k"], INT), (["s_max"], INT)]),
    ("link-convert", "sewed link to double-line diagram", cmd_link_convert, [LINK]),
    ("link-separable", "separability criterion check", cmd_link_separable, [
        LINK, (["--certificate"], {"help": "write the witness trace to this file"}),
    ]),
    ("link-family", "L(m,-m) family invariant table",
     lambda a: _table(links.link_family_rows(a.m_max)), [(["m_max"], INT)]),
    ("search", "bounded BFS over the move graph", cmd_search, [
        (["src"], {}),
        (["dst"], {}),
        (["--max-moves"], {**INT, "default": 8}),
        (["--max-len"], {**INT, "default": 24}),
        (["--kinds"], {"default": "all", "help": "comma-separated move kinds"}),
        TRACE_FILE,
    ]),
    ("apply", "apply one move given as a trace line", cmd_apply, [DIAGRAM, (["move"], {})]),
    ("replay", "replay a trace file", cmd_replay, [(["trace_file"], {})]),
]


class _Parser(argparse.ArgumentParser):
    """Usage errors raise, so that ``main`` reports them as one line."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # The help shows the docstring's first two paragraphs (none under -OO).
    p = _Parser(prog="dlknot", description="\n\n".join((__doc__ or "").split("\n\n")[:2]))
    sub = p.add_subparsers(dest="command", required=True)
    for name, help_text, func, arguments in COMMANDS:
        sp = sub.add_parser(name, help=help_text)
        for flags, kwargs in arguments:
            sp.add_argument(*flags, **kwargs)
        sp.add_argument("--json", action="store_true", help="emit JSON")
        sp.add_argument("--output", help="write output to a file instead of stdout")
        sp.set_defaults(func=func)
    return p


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        payload, text, *code = args.func(args)
        out = json.dumps(payload, indent=2) if args.json else text
        if args.output:
            _write(args.output, out + "\n")
        else:
            print(out)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    return code[0] if code else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
