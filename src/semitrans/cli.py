"""Command-line interface.

Exit codes: 0 verified / satisfiable / all branches closed; 1 refuted /
unsatisfiable / not semi-transitive; 2 input or usage error; 3 resource
limit (node limit, size cap, recursion depth or memory); 4 internal error.
Only a finished check returns 0 or 1.  Machine-readable output goes to
stdout, diagnostics to stderr.  Output is deterministic except for the wall_ms
stats field.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .constructions import fig4_orientation, lemma8_orientation, toft_orientation
from .errors import BadParameters, BoundExceeded, SemitransError, TooLarge
from .families import parse_family_spec
from .graphs import (
    Graph,
    chromatic_number,
    degree_profile,
    girth,
    proper_coloring,
    read_edge_list,
    write_edge_list,
)
from .orientation import (
    Orientation,
    SemiTransitive,
    check_semi_transitive,
    read_orientation,
    verdict_doc,
    write_arc_list,
)
from .proofscript import parse as parse_script
from .proofscript import replay, resolve_graph
from .solver import (
    Sat,
    SolverConfig,
    Unknown,
    orient_by_coloring,
    solve,
    stats_doc,
)


def export_dot(g: Graph, o: Orientation | None = None) -> str:
    """Graph-description text; arrows when an orientation is given."""
    if o is None:
        lines = ["graph G {"]
        lines.extend(f"  {v};" for v in range(g.n))
        lines.extend(f"  {u} -- {v};" for u, v in g.edges)
    else:
        lines = ["digraph G {"]
        lines.extend(f"  {v};" for v in range(g.n))
        lines.extend(f"  {t} -> {h};" for t, h in o.arcs)
    lines.append("}")
    return "\n".join(lines) + "\n"


def _load_graph(args: argparse.Namespace) -> Graph:
    if getattr(args, "family", None):
        return parse_family_spec(args.family)
    if getattr(args, "graph", None):
        with open(args.graph, encoding="utf-8") as fh:
            return read_edge_list(fh.read())
    raise BadParameters("need --family or --graph")


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _print_doc(doc: dict) -> None:
    sys.stdout.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _add_graph_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", help="family spec, e.g. circulant:13:1,5")
    p.add_argument("--graph", help="path to an edge-list file")


def _cmd_gen(args: argparse.Namespace) -> int:
    g = parse_family_spec(args.family)
    _emit(write_edge_list(g), args.out)
    return 0


def _cmd_props(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    gi = girth(g)
    lo, _, reg = degree_profile(g)
    pairs = [
        f"n={g.n}",
        f"m={len(g.edges)}",
        f"girth={'inf' if gi == math.inf else gi}",
        f"regular={lo if reg else 'no'}",
    ]
    if args.chromatic:
        pairs.append(f"chi={chromatic_number(g)}")
    sys.stdout.write(", ".join(pairs) + "\n")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    with open(args.orientation, encoding="utf-8") as fh:
        o = read_orientation(fh.read(), g)
    verdict = check_semi_transitive(o)
    _print_doc(verdict_doc(verdict))
    return 0 if isinstance(verdict, SemiTransitive) else 1


def _cmd_solve(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    cfg = SolverConfig(
        catalog_max_len=args.catalog_len,
        node_limit=args.node_limit,
        branch_heuristic=args.heuristic,
    )
    result = solve(g, cfg)
    doc = stats_doc(result, cfg)
    if isinstance(result, Sat):
        doc["arcs"] = [list(a) for a in result.orientation.arcs]
        if args.orientation_out:
            with open(args.orientation_out, "w", encoding="utf-8") as fh:
                fh.write(write_arc_list(result.orientation))
    _print_doc(doc)
    if isinstance(result, Sat):
        return 0
    if isinstance(result, Unknown):
        return 3
    return 1


def _int_param(text: str, name: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise BadParameters(f"bad integer {text!r} in {name!r}")


def _cmd_construct(args: argparse.Namespace) -> int:
    parts = args.name.split(":")
    kind = parts[0]
    if kind == "fig4":
        if len(parts) != 1:
            raise BadParameters("fig4 takes no parameters")
        o = fig4_orientation()
    elif kind == "lemma8":
        if len(parts) != 2:
            raise BadParameters("usage: lemma8:<n>")
        o = lemma8_orientation(_int_param(parts[1], args.name))
    elif kind == "toft":
        if len(parts) != 2:
            raise BadParameters("usage: toft:<n>")
        o = toft_orientation(_int_param(parts[1], args.name))
    elif kind == "coloring":
        if len(parts) < 3:
            raise BadParameters("usage: coloring:<family-spec>:<k>")
        g = parse_family_spec(":".join(parts[1:-1]))
        k = _int_param(parts[-1], args.name)
        coloring = proper_coloring(g, k)
        if coloring is None:
            raise BadParameters(f"graph has no proper {k}-coloring")
        o = orient_by_coloring(g, coloring)
    else:
        raise BadParameters(f"unknown construction {kind!r}")
    _emit(write_arc_list(o), args.out)
    verdict = check_semi_transitive(o)
    _print_doc(verdict_doc(verdict))
    return 0 if isinstance(verdict, SemiTransitive) else 1


def _cmd_prove(args: argparse.Namespace) -> int:
    with open(args.script, encoding="utf-8") as fh:
        script = parse_script(fh.read())
    g = resolve_graph(script, os.path.dirname(os.path.abspath(args.script)))
    report = replay(script, g)
    sys.stderr.write(report.trace())
    _print_doc(report.doc())
    return 0 if report.all_closed else 1


def _cmd_export(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    o = None
    if args.orientation:
        with open(args.orientation, encoding="utf-8") as fh:
            o = read_orientation(fh.read(), g)
    _emit(export_dot(g, o), args.out)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semitrans",
        description="Decide, verify, construct, and proof-replay "
        "semi-transitive orientations of graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a family instance as an edge list")
    p.add_argument("--family", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("props", help="structural properties of a graph")
    _add_graph_args(p)
    p.add_argument("--chromatic", action="store_true", help="also compute chi")
    p.set_defaults(func=_cmd_props)

    p = sub.add_parser("verify", help="check an orientation for semi-transitivity")
    _add_graph_args(p)
    p.add_argument("--orientation", required=True, help="path to an arc-list file")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("solve", help="decide semi-transitivity by complete search")
    _add_graph_args(p)
    p.add_argument("--catalog-len", type=int, default=5, choices=range(4, 8))
    p.add_argument("--node-limit", type=int)
    p.add_argument(
        "--heuristic",
        default="dynamic_most_constrained",
        choices=["static_degree", "dynamic_most_constrained"],
    )
    p.add_argument("--orientation-out", help="write the Sat orientation here")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("construct", help="build a closed-form orientation")
    p.add_argument(
        "name", help="fig4 | lemma8:<n> | toft:<n> | coloring:<family-spec>:<k>"
    )
    p.add_argument("--out", help="write the arc list here instead of stdout")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("prove", help="replay a case-analysis proof script")
    p.add_argument("--script", required=True)
    p.set_defaults(func=_cmd_prove)

    p = sub.add_parser("export", help="emit graph-description text")
    _add_graph_args(p)
    p.add_argument("--orientation")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_export)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (TooLarge, BoundExceeded) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except (SemitransError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (RecursionError, MemoryError) as exc:
        sys.stderr.write(f"error: resources exhausted: {type(exc).__name__}: {exc}\n")
        return 3
    except Exception as exc:  # a defect: never let it pass for a verdict
        sys.stderr.write(f"error: internal error: {type(exc).__name__}: {exc}\n")
        return 4


if __name__ == "__main__":
    sys.exit(main())
