import json

import pytest

from bipcon import cli, verifier
from bipcon.bigraph import new_graph, parse_edge_list
from bipcon.cli import EXIT_DOMAIN, EXIT_FILE, EXIT_OK, EXIT_USAGE, main
from bipcon.verifier import THEOREM_IDS


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
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("2 2\n1 1\n"))
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
    # error that did not name the family.
    for family, r, s, m in (("s4-g6", 0, 0, 0), ("s4-g3", 0, 2, 1)):
        status, _, err = run(capsys, "witness", "--family", family, "--r", str(r), "--s", str(s), "--m", str(m))
        assert status == EXIT_DOMAIN
        assert err.startswith(f"error: {family}: "), err


def test_bicayley_command(capsys):
    status, out, _ = run(capsys, "bicayley", "--r", "3", "--set", "0")
    assert status == EXIT_OK
    assert parse_edge_list(out) == new_graph(3, 3, [(1, 1), (2, 2), (3, 3)])


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
    def report(theorem, **kwargs):
        checked = 1_413_148_494 if theorem.startswith("T") else 1_234_567
        return verifier.TheoremReport(theorem, {}, checked, [], [], 0)

    monkeypatch.setattr(cli, "check_theorem", report)
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


def test_file_errors(tmp_path, capsys):
    assert run(capsys, "connectivity", str(tmp_path / "missing.txt"))[0] == EXIT_FILE
    bad = tmp_path / "bad.txt"
    bad.write_text("2 2\n1\n", encoding="utf-8")
    assert run(capsys, "complement", str(bad))[0] == EXIT_FILE


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
