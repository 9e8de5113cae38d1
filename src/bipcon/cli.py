"""Command-line front end.

Subcommands:

* ``connectivity <file>``: vertex/edge connectivity, minimum degree, and cut
  certificates for the graph and its bipartite complement;
* ``complement <file>``: the bipartite complement in edge-list format;
* ``bounds --r R --s S [--m M]``: the applicable closed-form bounds;
* ``witness --family F --r R --s S [--m M]``: one extremal construction and
  its verified connectivity pair; ``--m`` is for the sized s4-* families
  only, which need it, and an s3-* family refuses it;
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
Every number read here, in a file, a flag or a ``--set`` member, is ASCII
digits with an optional sign (``bigraph.parse_int``). All output is exact
integers; nothing here computes in floating point.

Each ``_cmd_*`` does its work, then returns its exit status and two
renderers of its result, text and JSON. ``main`` alone calls the one that
``--format`` asks for and writes the output, so no other format is rendered.
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
    parse_int,
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
from .verifier import METRIC_IDS, THEOREM_IDS, check_theorems, extremal_scan

EXIT_OK = 0
EXIT_CLOSED_OUTPUT = 1
EXIT_VIOLATIONS = 2
EXIT_USAGE = 64
EXIT_DOMAIN = 65
EXIT_FILE = 66

# Output goes out in writes of at most PIPE_BUF bytes (4096 on Linux; the
# output is ASCII), which a pipe takes whole or not at all: a reader that
# closes early fails a later write, exit 1. One large write to an unbuffered
# stdout (python -u) could stop where the reader stopped and report nothing.
_WRITE_SIZE = 4096


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse defaults to exit code 2
        raise _UsageError(message)


def _int(text: str) -> int:
    try:
        return parse_int(text)
    except ValueError:  # argparse's message for type=int; its own here would name parse_int
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _positive_int(text: str) -> int:
    value = _int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _cayley_members(text: str) -> frozenset[int]:
    """``bicayley --set``: distinct comma-separated integers, spaces and tabs around them, or "empty" or "" for none."""
    try:
        members = [] if text.strip(" \t") in ("", "empty") else [parse_int(m.strip(" \t")) for m in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a comma-separated list of integers") from None
    if len(set(members)) < len(members):
        raise argparse.ArgumentTypeError(f"a member is repeated in {text!r}")
    return frozenset(members)


def _build_parser() -> _Parser:
    parser = _Parser(prog="bipcon", description="bipartite complement connectivity toolkit")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def command(name, run, help, formats=("text-table", "json")):
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        p.add_argument("--format", choices=formats, default=formats[0])
        return p

    def shape(p, m_required=False):
        p.add_argument("--r", type=_int, required=True)
        p.add_argument("--s", type=_int, required=True)
        p.add_argument("--m", type=_int, required=m_required)

    p = command("connectivity", _cmd_connectivity, "connectivity of a graph and its complement")
    p.add_argument("file", help="edge-list file, or - for stdin")
    p = command("complement", _cmd_complement, "emit the bipartite complement", ("edge-list", "json"))
    p.add_argument("file", help="edge-list file, or - for stdin")
    shape(command("bounds", _cmd_bounds, "closed-form bounds for a shape"))
    p = command("witness", _cmd_witness, "build one extremal witness")
    p.add_argument("--family", required=True, choices=[f.value for f in WitnessFamilyId])
    shape(p)
    p = command("bicayley", _cmd_bicayley, "build a Bi-Cayley graph over Z_r", ("edge-list", "json"))
    p.add_argument("--r", type=_int, required=True)
    p.add_argument("--set", dest="members", type=_cayley_members, required=True,
                   help="comma-separated subset of 0..r-1, or 'empty'")
    p = command("verify", _cmd_verify, "verify one claim or all of them, exit 0/2")
    p.add_argument("--theorem", required=True, choices=THEOREM_IDS + ("all",))
    # No defaults here: check_theorems' signature holds them.
    for flag in ("--max-n", "--max-r", "--trials", "--seed"):
        p.add_argument(flag, type=_int, default=argparse.SUPPRESS)
    p.add_argument("--jobs", type=_positive_int, default=argparse.SUPPRESS)
    p = command("scan", _cmd_scan, "extremal metric values at fixed edge count")
    shape(p, m_required=True)
    p.add_argument("--metric", required=True, choices=METRIC_IDS)
    p.add_argument("--jobs", type=_positive_int, default=None)
    return parser


def _read_graph(path: str) -> BipartiteGraph:
    try:
        data = sys.stdin.buffer.read() if path == "-" else Path(path).read_bytes()
    except OSError as exc:
        raise _FileError(str(exc)) from exc
    try:
        # Decoded here, strictly, so non-UTF-8 bytes read the same from stdin as from a file; a leading BOM is dropped.
        return parse_edge_list(data.decode("utf-8-sig"))
    except TooLarge:
        raise  # a domain error, exit 65, not a malformed file
    except (ValueError, BipconError) as exc:  # a decode error is a ValueError, not a domain error
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


def _cmd_connectivity(opts):
    g = _read_graph(opts.file)
    rows = []
    for name, graph in (("graph", g), ("complement", bipartite_complement(g))):
        kp = edge_connectivity(graph)
        kv = vertex_connectivity(graph)
        dd = degrees(graph).min_degree
        rows.append((name, graph, kv, kp, dd))

    def text():
        for name, graph, kv, kp, dd in rows:
            yield f"{name}: n={graph.n} m={graph.edge_count}\n"
            yield f"  vertex connectivity = {kv.value}  ({_describe_certificate(kv)})\n"
            yield f"  edge connectivity   = {kp.value}  ({_describe_certificate(kp)})\n"
            yield f"  min degree          = {dd}\n"

    return EXIT_OK, text, lambda: {
        name: {
            "edges": graph_to_json(graph)["edges"],
            "vertex_connectivity": asdict(kv),
            "edge_connectivity": asdict(kp),
            "min_degree": dd,
        }
        for name, graph, kv, kp, dd in rows
    }


def _cmd_complement(opts):
    g = bipartite_complement(_read_graph(opts.file))
    return EXIT_OK, lambda: [format_edge_list(g)], lambda: graph_to_json(g)


def _cmd_bounds(opts):
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

    def text():
        yield f"shape r={opts.r} s={opts.s}\n"
        for label in ("min degree  ", "connectivity"):
            yield f"  {label}  sum in [{db.sum_lower}, {db.sum_upper}]   prod in [{db.prod_lower}, {db.prod_upper}]\n"
        if opts.m is not None:
            sized = payload["sized"]
            yield f"  at m={opts.m}: sum in [{sized['sum_lower']}, {sized['N']}]   prod in [0, {sized['M']}]   (N={sized['N']}, M={sized['M']})\n"

    return EXIT_OK, text, lambda: payload


def _cmd_witness(opts):
    family = WitnessFamilyId(opts.family)
    g = build_witness(family, opts.r, opts.s, opts.m)
    kp_graph = edge_connectivity(g).value
    kp_comp = edge_connectivity(bipartite_complement(g)).value
    notes = witness_notes(family, opts.r, opts.s, opts.m)

    def text():
        yield f"family {family.value}: r={opts.r} s={opts.s}" + (f" m={opts.m}" if opts.m is not None else "") + "\n"
        yield format_edge_list(g)
        yield f"edge connectivity pair: ({kp_graph}, {kp_comp})\n"
        for note in notes:
            yield f"note: {note}\n"

    return EXIT_OK, text, lambda: {
        "family": family.value,
        "graph": graph_to_json(g),
        "edge_connectivity": kp_graph,
        "complement_edge_connectivity": kp_comp,
        "notes": list(notes),
    }


def _cmd_bicayley(opts):
    g = bi_cayley(CayleySubset(opts.r, opts.members))
    return EXIT_OK, lambda: [format_edge_list(g)], lambda: graph_to_json(g)


def _summary(reports):
    width = max(len(str(r.graphs_checked)) for r in reports)  # the wall= column lines up
    for report in reports:
        attained = sum(1 for a in report.attainment if a.attained)
        attain_note = f", attainment {attained}/{len(report.attainment)}" if report.attainment else ""
        status = "ok" if not report.violations else f"{len(report.violations)} VIOLATIONS"
        yield (f"{report.theorem:5s} {status:>14s}  graphs={report.graphs_checked:<{width}d} "
               f"wall={report.wall_ms} ms{attain_note}\n")


def _cmd_verify(opts):
    theorems = THEOREM_IDS if opts.theorem == "all" else (opts.theorem,)
    given = {name: getattr(opts, name) for name in ("max_n", "max_r", "trials", "seed", "jobs") if name in opts}
    reports = check_theorems(theorems, **given)
    status = max(r.exit_status for r in reports)
    if opts.theorem == "all":
        return status, lambda: _summary(reports), lambda: [r.to_json_dict() for r in reports]
    [report] = reports

    def text():
        yield (f"theorem {report.theorem}: graphs checked = {report.graphs_checked}, "
               f"violations = {len(report.violations)}, wall = {report.wall_ms} ms\n")
        for v in report.violations[:20]:
            yield (f"  VIOLATION {v.metric} {v.side} at r={v.r} s={v.s} m={v.m}: "
                   f"observed {v.observed} vs bound {v.bound}; edges {v.edges}\n")
        if report.attainment:
            attained = sum(1 for a in report.attainment if a.attained)
            yield f"attainment: {attained}/{len(report.attainment)} cells reach the formula value\n"
            for a in report.attainment:
                if not a.attained:
                    m_text = "-" if a.m is None else a.m
                    yield (f"  not attained: r={a.r} s={a.s} m={m_text} {a.metric} {a.bound}: "
                           f"enumerated {a.enumerated} vs formula {a.formula}\n")
        for note in report.notes:
            yield f"note: {note}\n"

    return status, text, report.to_json_dict


def _cmd_scan(opts):
    result = extremal_scan(opts.r, opts.s, opts.m, opts.metric, jobs=opts.jobs)
    return EXIT_OK, lambda: [
        f"scan {result.metric} over r={result.r} s={result.s} m={result.m}: {result.graphs_checked} graphs\n",
        f"  max = {result.max_value} at {result.argmax.edges()}\n",
        f"  min = {result.min_value} at {result.argmin.edges()}\n",
    ], lambda: {
        "metric": result.metric,
        "r": result.r,
        "s": result.s,
        "m": result.m,
        "graphs_checked": result.graphs_checked,
        "max_value": result.max_value,
        "argmax": graph_to_json(result.argmax)["edges"],
        "min_value": result.min_value,
        "argmin": graph_to_json(result.argmin)["edges"],
    }


def main(argv: list[str] | None = None) -> int:
    try:
        opts = _build_parser().parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        status, text, data = opts.run(opts)
    except _FileError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_FILE
    except TooLarge as exc:
        print(f"too large: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (BipconError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    out = json.dumps(data(), indent=2) + "\n" if opts.format == "json" else "".join(text())
    for start in range(0, len(out), _WRITE_SIZE):
        sys.stdout.write(out[start:start + _WRITE_SIZE])
    return status


def console_main() -> None:
    try:
        status = main()
        sys.stdout.flush()  # a closed pipe raises here, not in the interpreter's final flush
    except BrokenPipeError:
        # Point stdout at devnull so the final flush of what is still buffered stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = EXIT_CLOSED_OUTPUT
    sys.exit(status)
