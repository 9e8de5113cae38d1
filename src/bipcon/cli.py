"""Command-line front end.

Subcommands:

* ``connectivity <file>``: vertex/edge connectivity, minimum degree, and cut
  certificates for the graph and its bipartite complement;
* ``complement <file>``: the bipartite complement in edge-list format;
* ``bounds --r R --s S [--m M]``: the applicable closed-form bounds;
* ``witness --family F --r R --s S [--m M]``: one extremal construction and
  its verified connectivity pair;
* ``bicayley --r R --set 0,1,2``: the Bi-Cayley graph BC(Z_r, S);
* ``verify --theorem T [...]``: run one claim's verification, print the
  report, exit 0 when no violations were found and 2 otherwise; ``--theorem
  all`` runs every claim and prints one summary line each (``--format json``:
  the list of reports);
* ``scan --r R --s S --m M --metric MET``: extremal metric values over all
  labeled graphs with exactly m edges.

Exit codes: 0 success, 1 standard output closed before all of it was
written (as by ``| head``), 2 verification found violations, 64 usage
error, 65 parameters outside the supported domain (size caps,
preconditions; a part of more than ``PART_MAX_SIZE`` = 256 vertices, in an
input file or in ``witness`` or ``bicayley``, prints ``too large:``), 66
unreadable or malformed input file.

Input files use the edge-list text format: a ``r s`` header line, one
``i j`` line per edge (1-based), ``#`` comments, UTF-8 with LF endings.
All output is exact integers; nothing here computes in floating point.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path

from .bigraph import (
    BipartiteGraph,
    bipartite_complement,
    degrees,
    format_edge_list,
    graph_to_json,
    parse_edge_list,
)
from .bounds import (
    M_upper,
    N_upper,
    ParameterTriple,
    delta_bounds,
    sum_lower_sized,
)
from .connectivity import ConnectivityResult, edge_connectivity, vertex_connectivity
from .constructions import CayleySubset, WitnessFamilyId, bi_cayley, build_witness, witness_notes
from .errors import BipconError, TooLarge
from .verifier import METRIC_IDS, THEOREM_IDS, VERTEX_THEOREMS, TheoremReport, check_theorem, extremal_scan

EXIT_OK = 0
EXIT_CLOSED_OUTPUT = 1
EXIT_VIOLATIONS = 2
EXIT_USAGE = 64
EXIT_DOMAIN = 65
EXIT_FILE = 66


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse defaults to exit code 2
        raise _UsageError(message)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _build_parser() -> _Parser:
    parser = _Parser(prog="bipcon", description="bipartite complement connectivity toolkit")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("connectivity", help="connectivity of a graph and its complement")
    p.add_argument("file", help="edge-list file, or - for stdin")
    p.add_argument("--format", choices=("text-table", "json"), default="text-table")

    p = sub.add_parser("complement", help="emit the bipartite complement")
    p.add_argument("file", help="edge-list file, or - for stdin")
    p.add_argument("--format", choices=("edge-list", "json"), default="edge-list")

    p = sub.add_parser("bounds", help="closed-form bounds for a shape")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--format", choices=("text-table", "json"), default="text-table")

    p = sub.add_parser("witness", help="build one extremal witness")
    p.add_argument("--family", required=True, choices=[f.value for f in WitnessFamilyId])
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--format", choices=("text-table", "json"), default="text-table")

    p = sub.add_parser("bicayley", help="build a Bi-Cayley graph over Z_r")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--set", dest="members", required=True,
                   help="comma-separated subset of 0..r-1, or 'empty'")
    p.add_argument("--format", choices=("edge-list", "json"), default="edge-list")

    p = sub.add_parser("verify", help="verify one claim or all of them, exit 0/2")
    p.add_argument("--theorem", required=True, choices=THEOREM_IDS + ("all",))
    p.add_argument("--max-n", type=int, default=8)
    p.add_argument("--max-r", type=int, default=8)
    p.add_argument("--trials", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=20_240)
    p.add_argument("--jobs", type=_positive_int, default=None)
    p.add_argument("--format", choices=("text-table", "json"), default="text-table")

    p = sub.add_parser("scan", help="extremal metric values at fixed edge count")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--metric", required=True, choices=METRIC_IDS)
    p.add_argument("--jobs", type=_positive_int, default=None)
    p.add_argument("--format", choices=("text-table", "json"), default="text-table")

    return parser


def _read_graph(path: str) -> BipartiteGraph:
    try:
        text = sys.stdin.read() if path == "-" else Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise _FileError(str(exc)) from exc
    try:
        return parse_edge_list(text)
    except TooLarge:
        raise  # a domain error, exit 65, not a malformed file
    except (ValueError, BipconError) as exc:
        raise _FileError(f"{path}: {exc}") from exc


class _FileError(Exception):
    pass


def _describe_certificate(result: ConnectivityResult) -> str:
    if result.kind == "disconnected":
        return "graph already disconnected"
    if result.kind == "edge_cut":
        return "cut edges " + " ".join(f"x{i}y{j}" for i, j in result.edges)
    label = "cut vertices" if result.kind == "vertex_cut" else "complete side"
    return f"{label} " + " ".join(result.vertices)


def _cmd_connectivity(opts) -> int:
    g = _read_graph(opts.file)
    rows = []
    for name, graph in (("graph", g), ("complement", bipartite_complement(g))):
        kp = edge_connectivity(graph)
        kv = vertex_connectivity(graph)
        dd = degrees(graph).min_degree
        rows.append((name, graph, kv, kp, dd))
    if opts.format == "json":
        payload = {
            name: {
                "edges": graph_to_json(graph)["edges"],
                "vertex_connectivity": asdict(kv),
                "edge_connectivity": asdict(kp),
                "min_degree": dd,
            }
            for name, graph, kv, kp, dd in rows
        }
        print(json.dumps(payload, indent=2))
        return EXIT_OK
    for name, graph, kv, kp, dd in rows:
        print(f"{name}: n={graph.n} m={graph.edge_count}")
        print(f"  vertex connectivity = {kv.value}  ({_describe_certificate(kv)})")
        print(f"  edge connectivity   = {kp.value}  ({_describe_certificate(kp)})")
        print(f"  min degree          = {dd}")
    return EXIT_OK


def _cmd_complement(opts) -> int:
    g = bipartite_complement(_read_graph(opts.file))
    if opts.format == "json":
        print(json.dumps(graph_to_json(g), indent=2))
    else:
        sys.stdout.write(format_edge_list(g))
    return EXIT_OK


def _cmd_bounds(opts) -> int:
    # The theorems state every bound in terms of the smaller part; without a
    # fixed m, the connectivity bounds are the minimum-degree bounds.
    db = delta_bounds(min(opts.r, opts.s))
    rows = {"sum": [db.sum_lower, db.sum_upper], "prod": [db.prod_lower, db.prod_upper]}
    payload = {"r": opts.r, "s": opts.s, "min_degree": rows, "connectivity": rows}
    if opts.m is not None:
        triple = ParameterTriple(min(opts.r, opts.s), max(opts.r, opts.s), opts.m)
        payload["m"] = opts.m
        payload["sized"] = {
            "sum_lower": sum_lower_sized(triple),
            "N": N_upper(triple),
            "M": M_upper(triple),
        }
    if opts.format == "json":
        print(json.dumps(payload, indent=2))
        return EXIT_OK
    print(f"shape r={opts.r} s={opts.s}")
    for label in ("min degree  ", "connectivity"):
        print(f"  {label}  sum in [{db.sum_lower}, {db.sum_upper}]   prod in [{db.prod_lower}, {db.prod_upper}]")
    if opts.m is not None:
        sized = payload["sized"]
        print(f"  at m={opts.m}: sum in [{sized['sum_lower']}, {sized['N']}]   prod in [0, {sized['M']}]   (N={sized['N']}, M={sized['M']})")
    return EXIT_OK


def _cmd_witness(opts) -> int:
    family = WitnessFamilyId(opts.family)
    g = build_witness(family, opts.r, opts.s, opts.m)
    kp_graph = edge_connectivity(g).value
    kp_comp = edge_connectivity(bipartite_complement(g)).value
    notes = witness_notes(family, opts.r, opts.s, opts.m)
    if opts.format == "json":
        print(json.dumps({
            "family": family.value,
            "graph": graph_to_json(g),
            "edge_connectivity": kp_graph,
            "complement_edge_connectivity": kp_comp,
            "notes": list(notes),
        }, indent=2))
        return EXIT_OK
    print(f"family {family.value}: r={opts.r} s={opts.s}" + (f" m={opts.m}" if opts.m is not None else ""))
    sys.stdout.write(format_edge_list(g))
    print(f"edge connectivity pair: ({kp_graph}, {kp_comp})")
    for note in notes:
        print(f"note: {note}")
    return EXIT_OK


def _cmd_bicayley(opts) -> int:
    text = opts.members.strip()
    members = frozenset() if text in ("", "empty") else frozenset(int(x) for x in text.split(","))
    g = bi_cayley(CayleySubset(opts.r, members))
    if opts.format == "json":
        print(json.dumps(graph_to_json(g), indent=2))
    else:
        sys.stdout.write(format_edge_list(g))
    return EXIT_OK


def _verify_one(theorem: str, opts) -> TheoremReport:
    return check_theorem(
        theorem,
        max_n=opts.max_n,
        max_r=opts.max_r,
        trials=opts.trials,
        seed=opts.seed,
        jobs=opts.jobs,
    )


def _verify_all(opts) -> int:
    # Vertex-metric claims run first: their sweeps, cached with vertex cells,
    # then serve the edge-only claims.
    by_id = {
        theorem: _verify_one(theorem, opts)
        for theorem in sorted(THEOREM_IDS, key=lambda t: t not in VERTEX_THEOREMS)
    }
    reports = [by_id[theorem] for theorem in THEOREM_IDS]
    if opts.format == "json":
        print(json.dumps([r.to_json_dict() for r in reports], indent=2))
    else:
        width = max(len(str(r.graphs_checked)) for r in reports)  # the wall= column lines up
        for report in reports:
            attained = sum(1 for a in report.attainment if a.attained)
            attain_note = f", attainment {attained}/{len(report.attainment)}" if report.attainment else ""
            status = "ok" if not report.violations else f"{len(report.violations)} VIOLATIONS"
            print(f"{report.theorem:5s} {status:>14s}  graphs={report.graphs_checked:<{width}d} "
                  f"wall={report.wall_ms} ms{attain_note}")
    return max(r.exit_status for r in reports)


def _cmd_verify(opts) -> int:
    if opts.theorem == "all":
        return _verify_all(opts)
    report = _verify_one(opts.theorem, opts)
    if opts.format == "json":
        print(json.dumps(report.to_json_dict(), indent=2))
        return report.exit_status
    print(f"theorem {report.theorem}: graphs checked = {report.graphs_checked}, "
          f"violations = {len(report.violations)}, wall = {report.wall_ms} ms")
    for v in report.violations[:20]:
        print(f"  VIOLATION {v.metric} {v.side} at r={v.r} s={v.s} m={v.m}: "
              f"observed {v.observed} vs bound {v.bound}; edges {v.edges}")
    if report.attainment:
        attained = sum(1 for a in report.attainment if a.attained)
        print(f"attainment: {attained}/{len(report.attainment)} cells reach the formula value")
        for a in report.attainment:
            if not a.attained:
                m_text = "-" if a.m is None else a.m
                print(f"  not attained: r={a.r} s={a.s} m={m_text} {a.metric} {a.bound}: "
                      f"enumerated {a.enumerated} vs formula {a.formula}")
    for note in report.notes:
        print(f"note: {note}")
    return report.exit_status


def _cmd_scan(opts) -> int:
    result = extremal_scan(opts.r, opts.s, opts.m, opts.metric, jobs=opts.jobs)
    if opts.format == "json":
        print(json.dumps({
            "metric": result.metric,
            "r": result.r,
            "s": result.s,
            "m": result.m,
            "graphs_checked": result.graphs_checked,
            "max_value": result.max_value,
            "argmax": graph_to_json(result.argmax)["edges"],
            "min_value": result.min_value,
            "argmin": graph_to_json(result.argmin)["edges"],
        }, indent=2))
        return EXIT_OK
    print(f"scan {result.metric} over r={result.r} s={result.s} m={result.m}: "
          f"{result.graphs_checked} graphs")
    print(f"  max = {result.max_value} at {result.argmax.edges()}")
    print(f"  min = {result.min_value} at {result.argmin.edges()}")
    return EXIT_OK


_COMMANDS = {
    "connectivity": _cmd_connectivity,
    "complement": _cmd_complement,
    "bounds": _cmd_bounds,
    "witness": _cmd_witness,
    "bicayley": _cmd_bicayley,
    "verify": _cmd_verify,
    "scan": _cmd_scan,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        opts = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return _COMMANDS[opts.subcommand](opts)
    except _FileError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_FILE
    except TooLarge as exc:
        print(f"too large: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except BipconError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


def console_main() -> None:
    try:
        status = main()
        sys.stdout.flush()  # a closed pipe raises here, not in the interpreter's final flush
    except BrokenPipeError:
        # Point stdout at devnull so the final flush of what is still buffered stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = EXIT_CLOSED_OUTPUT
    sys.exit(status)
