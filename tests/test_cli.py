import inspect
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bipcon import bigraph, cli, constructions, verifier
from bipcon.bigraph import PART_MAX_SIZE, bipartite_complement, degrees, graph_to_json, new_graph, parse_edge_list
from bipcon.cli import EXIT_CLOSED_OUTPUT, EXIT_DOMAIN, EXIT_FILE, EXIT_OK, EXIT_USAGE, main
from bipcon.connectivity import edge_connectivity, vertex_connectivity
from bipcon.constructions import CayleySubset, WitnessFamilyId, bi_cayley, build_witness, witness_notes
from bipcon.verifier import THEOREM_IDS, extremal_scan
from conftest import fail_if_reached


def _stdin(text: str):
    """A stand-in for sys.stdin: a text stream over the UTF-8 bytes of ``text``, as a pipe gives it."""
    return io.TextIOWrapper(io.BytesIO(text.encode("utf-8")), encoding="utf-8")


def run(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


@pytest.fixture
def sample_file(tmp_path):
    path = tmp_path / "graph.txt"
    path.write_text("2 2\n1 1\n2 2\n", encoding="utf-8")
    return str(path)


def test_bounds_table(capsys):
    status, out, _ = run(capsys, "bounds", "--r", "4", "--s", "5", "--m", "10")
    assert status == EXIT_OK
    assert "N=4" in out and "M=4" in out


def test_bounds_json(capsys):
    status, out, _ = run(capsys, "bounds", "--r", "4", "--s", "5", "--m", "10", "--format", "json")
    assert status == EXIT_OK
    payload = json.loads(out)
    assert payload["sized"] == {"sum_lower": 0, "N": 4, "M": 4}


def test_bounds_symmetric_in_parts(capsys):
    # All bounds depend on the smaller part only.
    _, out_a, _ = run(capsys, "bounds", "--r", "5", "--s", "4", "--m", "6", "--format", "json")
    _, out_b, _ = run(capsys, "bounds", "--r", "4", "--s", "5", "--m", "6", "--format", "json")
    a, b = json.loads(out_a), json.loads(out_b)
    assert a["sized"] == b["sized"] and a["connectivity"] == b["connectivity"]


def test_complement_round_trip(tmp_path, capsys):
    first = tmp_path / "g.txt"
    first.write_text("2 3\n1 1\n2 2\n2 3\n", encoding="utf-8")
    status, out, _ = run(capsys, "complement", str(first))
    assert status == EXIT_OK
    second = tmp_path / "gc.txt"
    second.write_text(out, encoding="utf-8")
    status, out2, _ = run(capsys, "complement", str(second))
    assert status == EXIT_OK
    assert out2 == "2 3\n1 1\n2 2\n2 3\n"


def test_complement_of_empty_is_complete(tmp_path, capsys):
    path = tmp_path / "empty.txt"
    path.write_text("4 5\n", encoding="utf-8")
    status, out, _ = run(capsys, "complement", str(path))
    assert status == EXIT_OK
    assert parse_edge_list(out).edge_count == 20


def test_complement_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", _stdin("2 2\n1 1\n"))
    status, out, _ = run(capsys, "complement", "-")
    assert status == EXIT_OK
    assert parse_edge_list(out) == new_graph(2, 2, [(1, 2), (2, 1), (2, 2)])


def test_connectivity_command(sample_file, capsys):
    status, out, _ = run(capsys, "connectivity", sample_file)
    assert status == EXIT_OK
    assert "graph:" in out and "complement:" in out
    assert "disconnected" in out


def test_connectivity_json(sample_file, capsys):
    status, out, _ = run(capsys, "connectivity", sample_file, "--format", "json")
    payload = json.loads(out)
    assert payload["graph"]["edge_connectivity"]["value"] == 0
    assert payload["complement"]["edge_connectivity"]["value"] == 0


def test_witness_command(capsys):
    status, out, _ = run(capsys, "witness", "--family", "s4-g6",
                         "--r", "4", "--s", "5", "--m", "10")
    assert status == EXIT_OK
    assert "edge connectivity pair: (2, 2)" in out


def test_witness_note_for_partial_matching(capsys):
    status, out, _ = run(capsys, "witness", "--family", "s4-g3",
                         "--r", "5", "--s", "5", "--m", "3")
    assert status == EXIT_OK
    assert "note:" in out and "partial matching" in out


def test_witness_precondition_exit_code(capsys):
    status, _, err = run(capsys, "witness", "--family", "s4-g6",
                         "--r", "4", "--s", "5", "--m", "11")
    assert status == EXIT_DOMAIN
    assert "s4-g6" in err
    # An empty part once ended in a division by zero, or in an edge-range
    # error that did not name the family; an m for an unsized family was
    # ignored, and still printed above the graph.
    for family, r, s, m in (("s4-g6", 0, 0, 0), ("s4-g3", 0, 2, 1), ("s3-g1", 3, 3, 2), ("s3-g2", 4, 4, 0)):
        status, out, err = run(capsys, "witness", "--family", family, "--r", str(r), "--s", str(s), "--m", str(m))
        assert (status, out) == (EXIT_DOMAIN, ""), family
        assert err.startswith(f"error: {family}: "), err


def test_bicayley_command(capsys):
    status, out, _ = run(capsys, "bicayley", "--r", "3", "--set", "0")
    assert status == EXIT_OK
    assert parse_edge_list(out) == new_graph(3, 3, [(1, 1), (2, 2), (3, 3)])


def test_bicayley_refuses_a_malformed_set_as_a_usage_error(capsys):
    for members in ("0,0", "1,,2", "a", "0,00"):
        assert run(capsys, "bicayley", "--r", "4", "--set", members)[0] == EXIT_USAGE, members
    assert run(capsys, "bicayley", "--r", "4", "--set", "0,7")[0] == EXIT_DOMAIN  # outside Z_4
    for members, expected in (("0,2", {0, 2}), (" 2, 0", {0, 2}), ("empty", set()), ("", set())):
        status, out, _ = run(capsys, "bicayley", "--r", "4", "--set", members)
        assert status == EXIT_OK
        assert parse_edge_list(out) == bi_cayley(CayleySubset(4, frozenset(expected))), members


def test_verify_defaults_are_those_of_check_theorems(capsys):
    defaults = {name: p.default for name, p in inspect.signature(verifier.check_theorems).parameters.items()}
    for theorem, keys in (("L2.5", ("trials", "seed")), ("L2.4", ("max_r",))):
        status, out, _ = run(capsys, "verify", "--theorem", theorem, "--format", "json")
        assert status == EXIT_OK
        report = json.loads(out)["range"]
        assert {key: report[key] for key in keys} == {key: defaults[key] for key in keys}, theorem


def test_verify_exit_zero(capsys):
    status, out, _ = run(capsys, "verify", "--theorem", "T3.2", "--max-n", "5", "--jobs", "1")
    assert status == EXIT_OK
    assert "violations = 0" in out


def test_verify_exits_two_on_a_flow_oracle_mismatch(capsys, monkeypatch):
    monkeypatch.setattr(verifier, "edge_connectivity_value", lambda r, s, rows: 99)
    monkeypatch.setattr(verifier, "_SWEEP_CACHE", {})
    status, out, _ = run(capsys, "verify", "--theorem", "T3.2", "--max-n", "5", "--jobs", "1")
    assert status == 2
    assert "VIOLATION edge_flow oracle" in out and "observed 99" in out


def test_verify_json(capsys):
    status, out, _ = run(capsys, "verify", "--theorem", "L2.1", "--max-r", "5", "--format", "json")
    assert status == EXIT_OK
    payload = json.loads(out)
    assert payload["violations"] == []
    assert payload["theorem"] == "L2.1"


def test_verify_all(capsys):
    argv = ("verify", "--theorem", "all", "--max-n", "4", "--max-r", "3", "--trials", "20", "--jobs", "1")
    status, out, _ = run(capsys, *argv)
    assert status == EXIT_OK
    lines = out.splitlines()
    assert [line.split()[0] for line in lines] == list(THEOREM_IDS)
    assert all(line.split()[1] == "ok" for line in lines)
    status, out, _ = run(capsys, *argv, "--format", "json")
    assert status == EXIT_OK
    assert [report["theorem"] for report in json.loads(out)] == list(THEOREM_IDS)


def test_verify_all_columns_line_up_at_any_count(capsys, monkeypatch):
    # From --max-n 10 on the bound claims cover ten-digit counts.
    def report(theorem):
        checked = 1_413_148_494 if theorem.startswith("T") else 1_234_567
        return verifier.TheoremReport(theorem, {}, checked, [], [], 0)

    monkeypatch.setattr(cli, "check_theorems", lambda theorems, **kwargs: [report(t) for t in theorems])
    status, out, _ = run(capsys, "verify", "--theorem", "all", "--jobs", "1")
    lines = out.splitlines()
    assert status == EXIT_OK and len(lines) == len(THEOREM_IDS)
    assert "graphs=1234567    wall=" in lines[0] and "graphs=1413148494 wall=" in lines[-1]
    assert len({line.index("wall=") for line in lines}) == 1


def test_scan_command(capsys):
    status, out, _ = run(capsys, "scan", "--r", "2", "--s", "2", "--m", "2",
                         "--metric", "sum_edge", "--jobs", "1")
    assert status == EXIT_OK
    assert "max = 0" in out


def test_usage_errors(capsys):
    assert run(capsys, )[0] == EXIT_USAGE
    assert run(capsys, "bounds", "--r", "4")[0] == EXIT_USAGE
    assert run(capsys, "nonsense")[0] == EXIT_USAGE
    assert run(capsys, "scan", "--r", "2", "--s", "2", "--m", "2",
               "--metric", "bogus")[0] == EXIT_USAGE
    assert run(capsys, "verify", "--theorem", "T3.2", "--jobs", "0")[0] == EXIT_USAGE


_UNDECODABLE = b"2 2\n1 1\n\xff\xfe\n"
_DECODE_ERROR = "'utf-8' codec can't decode byte 0xff in position 8"


def test_file_errors(tmp_path, capsys):
    assert run(capsys, "connectivity", str(tmp_path / "missing.txt"))[0] == EXIT_FILE
    bad = tmp_path / "bad.txt"
    bad.write_text("2 2\n1\n", encoding="utf-8")
    assert run(capsys, "complement", str(bad))[0] == EXIT_FILE
    # A file that is not UTF-8 is a file error too, not a domain error, led by its path as a parse error is.
    undecodable = tmp_path / "latin.txt"
    undecodable.write_bytes(_UNDECODABLE)
    for command in ("connectivity", "complement"):
        status, _, err = run(capsys, command, str(undecodable))
        assert status == EXIT_FILE and err.startswith(f"file error: {undecodable}: {_DECODE_ERROR}"), (command, err)


def test_byte_order_mark_is_dropped_from_a_path_and_from_stdin(tmp_path, capsys, monkeypatch):
    # A leading UTF-8 byte-order mark is not part of the header, from a path
    # or from stdin; bytes after it that are not UTF-8 are still a file error.
    marked = tmp_path / "marked.txt"
    marked.write_bytes(b"\xef\xbb\xbf2 2\n1 1\n")
    plain = run(capsys, "connectivity", "--format", "json", str(marked))
    assert plain[0] == EXIT_OK, plain[2]
    monkeypatch.setattr("sys.stdin", _stdin("\ufeff2 2\n1 1\n"))
    assert run(capsys, "connectivity", "--format", "json", "-") == plain
    marked.write_bytes(b"\xef\xbb\xbf" + _UNDECODABLE)
    status, _, err = run(capsys, "complement", str(marked))
    assert status == EXIT_FILE and err.startswith(f"file error: {marked}: {_DECODE_ERROR}"), err


def test_undecodable_stdin_reads_as_a_file_does(capsys, monkeypatch):
    # The same message, led by "-", and exit 66, also from a stdin that
    # hands undecodable bytes on as surrogates: the bytes are decoded, not the text.
    stdin = io.TextIOWrapper(io.BytesIO(_UNDECODABLE), encoding="utf-8", errors="surrogateescape")
    monkeypatch.setattr("sys.stdin", stdin)
    status, _, err = run(capsys, "complement", "-")
    assert (status, err.startswith(f"file error: -: {_DECODE_ERROR}")) == (EXIT_FILE, True), err
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    argv = [sys.executable, "-m", "bipcon", "connectivity", "-"]
    proc = subprocess.run(argv, input=_UNDECODABLE, capture_output=True, env=env)
    assert proc.returncode == EXIT_FILE, proc.stderr
    assert proc.stderr.decode().startswith(f"file error: -: {_DECODE_ERROR}"), proc.stderr


def test_too_large_exit_code(capsys):
    # One edge on (6, 6): a tiny walk, but the shape is past the cap.
    status, _, err = run(capsys, "scan", "--r", "6", "--s", "6", "--m", "1",
                         "--metric", "sum_edge", "--jobs", "1")
    assert status == EXIT_DOMAIN
    assert "too large" in err and "rs = 36 > 30" in err
    status, _, err = run(capsys, "verify", "--theorem", "T4.1", "--max-n", "12", "--jobs", "1")
    assert status == EXIT_DOMAIN
    assert "too large" in err and "rs = 36 > 30" in err
    # 2^41 Bi-Cayley subsets: refused before the first one is built.
    status, _, err = run(capsys, "verify", "--theorem", "L2.1", "--max-r", "40", "--jobs", "1")
    assert status == EXIT_DOMAIN
    assert "too large" in err and "Bi-Cayley subsets" in err
    status, _, err = run(capsys, "verify", "--theorem", "L2.5", "--trials", "-3", "--jobs", "1")
    assert status == EXIT_DOMAIN
    assert "trials must be >= 0" in err


def _certificate_text(result):
    # The printed certificate, rebuilt from the library result's own fields.
    if result.kind == "disconnected":
        return "graph already disconnected"
    if result.kind == "edge_cut":
        return "cut edges " + " ".join(f"x{i}y{j}" for i, j in result.edges)
    label = {"vertex_cut": "cut vertices", "complete_side": "complete side"}[result.kind]
    return label + " " + " ".join(result.vertices)


def test_connectivity_table_prints_every_certificate_kind(capsys, monkeypatch):
    # K_{2,2} gives a complete side and an edge cut, the path x1-y1-x2-y2 a
    # vertex cut and an edge cut, and both complements are disconnected.
    kinds = set()
    for text in ("2 2\n1 1\n1 2\n2 1\n2 2\n", "2 2\n1 1\n2 1\n2 2\n"):
        monkeypatch.setattr("sys.stdin", _stdin(text))
        status, out, _ = run(capsys, "connectivity", "-")
        assert status == EXIT_OK
        g = parse_edge_list(text)
        expected = []
        for name, graph in (("graph", g), ("complement", bipartite_complement(g))):
            kv, kp = vertex_connectivity(graph), edge_connectivity(graph)
            kinds.update((kv.kind, kp.kind))
            expected += [
                f"{name}: n={graph.n} m={graph.edge_count}",
                f"  vertex connectivity = {kv.value}  ({_certificate_text(kv)})",
                f"  edge connectivity   = {kp.value}  ({_certificate_text(kp)})",
                f"  min degree          = {degrees(graph).min_degree}",
            ]
        assert out.splitlines() == expected
    assert kinds == {"edge_cut", "vertex_cut", "complete_side", "disconnected"}


def test_complement_json_is_the_library_complement(sample_file, capsys):
    status, out, _ = run(capsys, "complement", sample_file, "--format", "json")
    assert status == EXIT_OK
    g = new_graph(2, 2, [(1, 1), (2, 2)])
    assert json.loads(out) == graph_to_json(bipartite_complement(g))


def test_witness_json_is_the_library_witness(capsys):
    for family, r, s, m in (("s4-g6", 4, 5, 10), ("s4-g3", 5, 5, 3), ("s3-g2", 4, 6, None)):
        argv = ["witness", "--family", family, "--r", str(r), "--s", str(s), "--format", "json"]
        status, out, _ = run(capsys, *argv, *([] if m is None else ["--m", str(m)]))
        assert status == EXIT_OK
        fid = WitnessFamilyId(family)
        g = build_witness(fid, r, s, m)
        assert json.loads(out) == {
            "family": family,
            "graph": graph_to_json(g),
            "edge_connectivity": edge_connectivity(g).value,
            "complement_edge_connectivity": edge_connectivity(bipartite_complement(g)).value,
            "notes": list(witness_notes(fid, r, s, m)),
        }


def test_bicayley_json_is_the_library_graph(capsys):
    for members, subset in (("0,2", {0, 2}), ("empty", set())):
        status, out, _ = run(capsys, "bicayley", "--r", "5", "--set", members, "--format", "json")
        assert status == EXIT_OK
        assert json.loads(out) == graph_to_json(bi_cayley(CayleySubset(5, frozenset(subset))))


def test_scan_json_is_the_library_scan(capsys):
    status, out, _ = run(capsys, "scan", "--r", "2", "--s", "3", "--m", "3",
                         "--metric", "prod_vertex", "--jobs", "1", "--format", "json")
    assert status == EXIT_OK
    result = extremal_scan(2, 3, 3, "prod_vertex", jobs=1)
    assert json.loads(out) == {
        "metric": "prod_vertex",
        "r": 2,
        "s": 3,
        "m": 3,
        "graphs_checked": result.graphs_checked,
        "max_value": result.max_value,
        "argmax": [list(e) for e in result.argmax.edges()],
        "min_value": result.min_value,
        "argmin": [list(e) for e in result.argmin.edges()],
    }


def test_part_sizes_at_the_cap_are_served(capsys, monkeypatch):
    cap = PART_MAX_SIZE
    for header in (f"{cap} {cap}", f"2 {cap}"):
        monkeypatch.setattr("sys.stdin", _stdin(header + "\n"))
        status, out, _ = run(capsys, "connectivity", "-", "--format", "json")
        assert status == EXIT_OK
        assert json.loads(out)["graph"]["edge_connectivity"]["kind"] == "disconnected"
    status, out, _ = run(capsys, "bicayley", "--r", str(cap), "--set", "0,1")
    assert status == EXIT_OK
    assert parse_edge_list(out) == bi_cayley(CayleySubset(cap, frozenset({0, 1})))


def test_part_sizes_past_the_cap_exit_65_before_any_graph(capsys, monkeypatch):
    monkeypatch.setattr(bigraph, "new_graph", fail_if_reached)
    monkeypatch.setattr(cli, "bi_cayley", fail_if_reached)
    row = constructions._FAMILIES[WitnessFamilyId.S3_G2]
    monkeypatch.setitem(constructions._FAMILIES, WitnessFamilyId.S3_G2, row._replace(build=fail_if_reached))
    big = PART_MAX_SIZE + 1
    for header in (f"{big} {big}", f"2 {big}", "2 2000000"):
        for command in ("connectivity", "complement"):
            monkeypatch.setattr("sys.stdin", _stdin(header + "\n"))
            status, out, err = run(capsys, command, "-")
            assert (status, out) == (EXIT_DOMAIN, ""), header
            assert err.startswith("too large: ") and f"cap of {PART_MAX_SIZE}" in err, err
    for argv in (["witness", "--family", "s3-g2", "--r", str(big), "--s", str(big)],
                 ["witness", "--family", "s3-g2", "--r", "4", "--s", str(big)],
                 ["bicayley", "--r", str(big), "--set", "0,1"],
                 ["bicayley", "--r", "3000000", "--set", "0,1"]):
        status, out, err = run(capsys, *argv)
        assert (status, out) == (EXIT_DOMAIN, ""), argv
        assert err.startswith("too large: "), err


def test_connectivity_refuses_an_empty_part_before_any_certificate(capsys, monkeypatch):
    def no_certificate(graph):
        raise AssertionError("a certificate was computed for a graph with an empty part")

    monkeypatch.setattr(cli, "edge_connectivity", no_certificate)
    monkeypatch.setattr(cli, "vertex_connectivity", no_certificate)
    for header in ("0 3", "2 0"):
        monkeypatch.setattr("sys.stdin", _stdin(header + "\n"))
        status, out, err = run(capsys, "connectivity", "-")
        assert (status, out) == (EXIT_DOMAIN, ""), header
        assert "degrees need both parts nonempty" in err, err


_CLOSED_EARLY = {
    "complement": (["complement", "-"], f"{PART_MAX_SIZE} {PART_MAX_SIZE}\n"),
    "complement-json": (["complement", "-", "--format", "json"], f"{PART_MAX_SIZE} {PART_MAX_SIZE}\n"),
    "bicayley": (["bicayley", "--r", str(PART_MAX_SIZE), "--set", ",".join(map(str, range(200)))], ""),
    "witness": (["witness", "--family", "s3-g2", "--r", str(PART_MAX_SIZE), "--s", str(PART_MAX_SIZE)], ""),
    "connectivity-json": (["connectivity", "-", "--format", "json"], "64 64\n"),
}


@pytest.mark.parametrize("command", list(_CLOSED_EARLY))
def test_stdout_closed_early_exits_one_without_a_traceback(command):
    # Each output is far more than a pipe buffers, so the writer is still
    # writing when the reader, having read one line, closes its end. An
    # unbuffered stdout is the strict case: there one large write can stop
    # where the reader stopped and raise nothing.
    argv, stdin = _CLOSED_EARLY[command]
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]), PYTHONUNBUFFERED="1")
    with subprocess.Popen([sys.executable, "-m", "bipcon", *argv], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, env=env) as proc:
        proc.stdin.write(stdin.encode())
        proc.stdin.close()
        assert proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        status = proc.wait(timeout=120)
    assert (status, err) == (EXIT_CLOSED_OUTPUT, b"")


def test_numbers_on_the_command_line_follow_the_edge_list_rule(capsys):
    # Each numeric flag, and a --set member, in a command it completes; a
    # padded value the rule refuses there (spaces and tabs around a set member
    # part it from the commas, as in " 2, 0"); the exit status -1 gets there.
    commands = [
        (["bounds", "--r", "{}", "--s", "5"], " 3", EXIT_DOMAIN),
        (["bounds", "--r", "4", "--s", "{}"], " 3", EXIT_DOMAIN),
        (["bounds", "--r", "4", "--s", "5", "--m", "{}"], " 3", EXIT_DOMAIN),
        (["witness", "--family", "s3-g1", "--r", "{}", "--s", "3"], " 3", EXIT_DOMAIN),
        (["witness", "--family", "s3-g1", "--r", "3", "--s", "{}"], " 3", EXIT_DOMAIN),
        (["witness", "--family", "s4-g3", "--r", "5", "--s", "5", "--m", "{}"], " 3", EXIT_DOMAIN),
        (["bicayley", "--r", "{}", "--set", "0"], " 3", EXIT_DOMAIN),
        (["verify", "--theorem", "T3.2", "--max-n", "{}"], " 3", EXIT_DOMAIN),
        (["verify", "--theorem", "L2.4", "--max-r", "{}"], " 3", EXIT_DOMAIN),
        (["verify", "--theorem", "L2.5", "--trials", "{}"], " 3", EXIT_DOMAIN),
        (["verify", "--theorem", "L2.5", "--trials", "3", "--seed", "{}"], " 3", EXIT_DOMAIN),
        (["verify", "--theorem", "T3.2", "--max-n", "3", "--jobs", "{}"], " 3", EXIT_USAGE),
        (["scan", "--r", "{}", "--s", "3", "--m", "2", "--metric", "sum_edge"], " 3", EXIT_DOMAIN),
        (["scan", "--r", "2", "--s", "{}", "--m", "2", "--metric", "sum_edge"], " 3", EXIT_DOMAIN),
        (["scan", "--r", "2", "--s", "3", "--m", "{}", "--metric", "sum_edge"], " 3", EXIT_DOMAIN),
        (["scan", "--r", "2", "--s", "3", "--m", "2", "--metric", "sum_edge", "--jobs", "{}"], " 3", EXIT_USAGE),
        (["bicayley", "--r", "4", "--set", "0,{}"], "\xa03", EXIT_DOMAIN),
    ]
    for template, padded, minus_one in commands:
        # int() reads the first four as 10, 3, 3 and 5.
        refused = [(value, EXIT_USAGE) for value in ("1_0", padded, "\u0663", "\uff15")]
        for value, expected in refused + [("+3", EXIT_OK), ("-1", minus_one)]:
            argv = [arg.replace("{}", value) for arg in template]
            status, out, err = run(capsys, *argv)
            assert status == expected, (argv, err)
            if status == EXIT_USAGE:
                assert out == "" and err.startswith("usage error: "), (argv, err)
    assert run(capsys, "bicayley", "--r", "4", "--set", " 2, 0") == run(capsys, "bicayley", "--r", "4", "--set", "0,2")
