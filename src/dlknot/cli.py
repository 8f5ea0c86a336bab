"""Command-line front end.

Subcommands wrap the library operations one-to-one; every command is
deterministic and exits 0 on success, 1 on a negative result (search
miss, separability criterion not met), 2 on bad input.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import catalog, links, projection, search
from .diagram import DiagramError, invariant_record, parse, serialize
from .moves import ALL_KINDS, MoveInstance, MoveTrace, apply as apply_move, replay

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2


def _read_arg(text: str) -> str:
    if text == "-":
        return sys.stdin.read()
    return text


def _emit(args, payload, text_fn) -> None:
    out = json.dumps(payload, indent=2) if args.json else text_fn(payload)
    if getattr(args, "output", None):
        with open(args.output, "w") as f:
            f.write(out + "\n")
    else:
        print(out)


def cmd_invariants(args) -> int:
    d = parse(_read_arg(args.diagram))
    record = invariant_record(d)
    if args.no_essential:
        record["essential_count"] = None
    else:
        record["essential_count"] = projection.essential_count(d)
    def fmt(r):
        lines = [
            f"degree: {r['degree']}",
            f"crossings: {r['crossings']}",
            f"double_lines: {r['double_lines']}",
            "parities: "
            + ", ".join(
                f"{p['value']}" + (f" mod {p['modulus']}" if p["modulus"] else "")
                for p in r["parities"]
            ),
            f"essential_count: {r['essential_count']}",
        ]
        return "\n".join(lines)
    _emit(args, record, fmt)
    return EXIT_OK


def cmd_project(args) -> int:
    d = parse(_read_arg(args.diagram))
    out = projection.parity_projection(d)
    _emit(args, {"diagram": serialize(out)}, lambda r: r["diagram"])
    return EXIT_OK


def cmd_strip(args) -> int:
    d = parse(_read_arg(args.diagram))
    out = projection.strip_double_lines(d)
    _emit(args, {"diagram": serialize(out)}, lambda r: r["diagram"])
    return EXIT_OK


def cmd_remove(args) -> int:
    d = parse(_read_arg(args.diagram))
    cert = projection.eliminate_double_lines(d)
    if args.trace_file:
        with open(args.trace_file, "w") as f:
            f.write(cert.trace.to_text())
    payload = {
        "result": serialize(cert.result),
        "moves": len(cert.trace.steps),
        "trace_file": args.trace_file,
    }
    _emit(args, payload, lambda r: f"{r['result']}\n# {r['moves']} moves")
    return EXIT_OK


def cmd_essential(args) -> int:
    d = parse(_read_arg(args.diagram))
    reports = projection.important_subsets(d, limit=args.limit)
    payload = [r.to_dict() for r in reports]
    def fmt(rs):
        return "\n".join(
            f"{r['cardinality']}\t{r['subset']}\t{r['residual_parities']}\t"
            + ("essential" if r["essential"] else "important")
            for r in rs
        )
    _emit(args, payload, fmt)
    return EXIT_OK


def _table(rows: list[dict]) -> str:
    def fmt_parities(ps):
        return ",".join(
            f"{p['value']}" + (f"%{p['modulus']}" if p["modulus"] else "") for p in ps
        ) or "-"
    lines = []
    for r in rows:
        cells = [str(r[k]) for k in r if k != "parities"]
        cells.append(fmt_parities(r["parities"]))
        lines.append("\t".join(cells))
    return "\n".join(lines)


def cmd_catalog(args) -> int:
    rows = catalog.family_rows(args.k)
    _emit(args, rows, _table)
    return EXIT_OK


def cmd_stretch(args) -> int:
    fam = catalog.stretch_family(args.m, args.k, args.s_max)
    rows = [
        {"m": c.m, "n": c.n, "eps": c.eps, "essential_count": count, "parities": []}
        for c, count in fam
    ]
    _emit(args, rows, _table)
    return EXIT_OK


def cmd_link_convert(args) -> int:
    l = links.parse_sewed(_read_arg(args.link))
    d = links.to_dl_diagram(l)
    payload = {"diagram": serialize(d), "linking_number": links.linking_number(l)}
    _emit(args, payload, lambda r: r["diagram"])
    return EXIT_OK


def cmd_link_separable(args) -> int:
    l = links.parse_sewed(_read_arg(args.link))
    verdict = links.separability_check(l)
    cert_path = None
    if verdict.separable and args.certificate:
        cert_path = args.certificate
        with open(cert_path, "w") as f:
            f.write(verdict.witness.trace.to_text())
    payload = {
        "separable": verdict.separable,
        "obstruction": verdict.obstruction.to_dict() if verdict.obstruction else None,
        "certificate": cert_path,
    }
    def fmt(r):
        if r["separable"]:
            return "separable"
        o = r["obstruction"]
        if o["crossing"] is None:
            return f"not separable by criterion: linking number {o['parity']}"
        return (
            "not separable by criterion: crossing "
            f"{o['crossing']} has parity {o['parity']}"
        )
    _emit(args, payload, fmt)
    return EXIT_OK if verdict.separable else EXIT_NEGATIVE


def cmd_link_family(args) -> int:
    rows = links.link_family_rows(args.m_max)
    _emit(args, rows, _table)
    return EXIT_OK


def _parse_kinds(text: str | None) -> frozenset[str]:
    if not text or text == "all":
        return ALL_KINDS
    kinds = frozenset(text.split(","))
    unknown = kinds - ALL_KINDS
    if unknown:
        raise DiagramError(f"unknown move kinds: {sorted(unknown)}")
    return kinds


def cmd_search(args) -> int:
    if args.src == args.dst == "-":
        raise DiagramError("only one of src and dst can be read from stdin ('-')")
    src = parse(_read_arg(args.src))
    dst = parse(_read_arg(args.dst))
    result = search.bfs_search(
        src,
        dst,
        max_moves=args.max_moves,
        max_len=args.max_len,
        kinds=_parse_kinds(args.kinds),
    )
    if result.found and args.trace_file:
        with open(args.trace_file, "w") as f:
            f.write(result.trace.to_text())
    payload = {
        "found": result.found,
        "explored": result.explored,
        "moves": [s.to_line() for s in result.trace.steps] if result.found else None,
    }
    def fmt(r):
        if not r["found"]:
            return f"not found (explored {r['explored']} diagrams)"
        return "\n".join(r["moves"]) if r["moves"] else "# already equal"
    _emit(args, payload, fmt)
    return EXIT_OK if result.found else EXIT_NEGATIVE


def cmd_apply(args) -> int:
    d = parse(_read_arg(args.diagram))
    m = MoveInstance.from_line(args.move)
    out = apply_move(d, m)
    _emit(args, {"diagram": serialize(out)}, lambda r: r["diagram"])
    return EXIT_OK


def cmd_replay(args) -> int:
    with open(args.trace_file) as f:
        text = f.read()
    trace = (
        MoveTrace.from_json(text) if text.lstrip().startswith("{") else MoveTrace.from_text(text)
    )
    out = replay(trace)
    _emit(args, {"diagram": serialize(out)}, lambda r: r["diagram"])
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="dlknot", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--json", action="store_true", help="emit JSON")
        sp.add_argument("--output", help="write output to a file instead of stdout")

    sp = sub.add_parser("invariants", help="degree, parities, essential count")
    sp.add_argument("diagram")
    sp.add_argument("--no-essential", action="store_true", help="skip the exponential search")
    common(sp)
    sp.set_defaults(func=cmd_invariants)

    sp = sub.add_parser("project", help="winding-parity projection")
    sp.add_argument("diagram")
    common(sp)
    sp.set_defaults(func=cmd_project)

    sp = sub.add_parser("strip", help="delete all double lines")
    sp.add_argument("diagram")
    common(sp)
    sp.set_defaults(func=cmd_strip)

    sp = sub.add_parser("remove", help="eliminate double lines by moves, with trace")
    sp.add_argument("diagram")
    sp.add_argument("--trace-file")
    common(sp)
    sp.set_defaults(func=cmd_remove)

    sp = sub.add_parser("essential", help="important/essential double-line subsets")
    sp.add_argument("diagram")
    sp.add_argument("--limit", type=int, default=None)
    common(sp)
    sp.set_defaults(func=cmd_essential)

    sp = sub.add_parser("catalog", help="degree-k one-crossing family table")
    sp.add_argument("k", type=int)
    common(sp)
    sp.set_defaults(func=cmd_catalog)

    sp = sub.add_parser("stretch", help="(m+sk, k-sk-m) family with essential counts")
    sp.add_argument("m", type=int)
    sp.add_argument("k", type=int)
    sp.add_argument("s_max", type=int)
    common(sp)
    sp.set_defaults(func=cmd_stretch)

    sp = sub.add_parser("link-convert", help="sewed link to double-line diagram")
    sp.add_argument("link")
    common(sp)
    sp.set_defaults(func=cmd_link_convert)

    sp = sub.add_parser("link-separable", help="separability criterion check")
    sp.add_argument("link")
    sp.add_argument("--certificate", help="write the witness trace to this file")
    common(sp)
    sp.set_defaults(func=cmd_link_separable)

    sp = sub.add_parser("link-family", help="L(m,-m) family invariant table")
    sp.add_argument("m_max", type=int)
    common(sp)
    sp.set_defaults(func=cmd_link_family)

    sp = sub.add_parser("search", help="bounded BFS over the move graph")
    sp.add_argument("src")
    sp.add_argument("dst")
    sp.add_argument("--max-moves", type=int, default=8)
    sp.add_argument("--max-len", type=int, default=24)
    sp.add_argument("--kinds", default="all", help="comma-separated move kinds")
    sp.add_argument("--trace-file")
    common(sp)
    sp.set_defaults(func=cmd_search)

    sp = sub.add_parser("apply", help="apply one move given as a trace line")
    sp.add_argument("diagram")
    sp.add_argument("move")
    common(sp)
    sp.set_defaults(func=cmd_apply)

    sp = sub.add_parser("replay", help="replay a trace file")
    sp.add_argument("trace_file")
    common(sp)
    sp.set_defaults(func=cmd_replay)

    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
