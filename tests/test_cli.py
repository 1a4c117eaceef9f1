import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from dpnl import SumInstanceSpec, build_sum_instance, cli
from dpnl.cli import _cross_check, main

ROOT = Path(__file__).resolve().parent.parent

REPORT_KEYS = [
    "command",
    "result",
    "low",
    "up",
    "estimate",
    "oracle_calls",
    "branch_nodes",
    "cache_hits",
    "wall_time_s",
    "seed",
    "pruned",
]


@pytest.fixture
def cnf_file(tmp_path):
    path = tmp_path / "or.cnf"
    path.write_text("c two-variable or\np cnf 2 1\n1 2 0\nw 1 0.6\nw 2 0.7\n")
    return str(path)


@pytest.fixture
def program_file(tmp_path):
    path = tmp_path / "prog.pl"
    path.write_text("0.5 :: a.\n0.5 :: b.\nc :- a, b.\nquery(c).\n")
    return str(path)


def test_pwmc(cnf_file, capsys):
    assert main(["pwmc", "--cnf", cnf_file, "--brute"]) == 0
    out = capsys.readouterr().out
    assert "pwmc = 0.88" in out


def test_pwmc_json_schema(cnf_file, tmp_path):
    report_path = tmp_path / "report.json"
    assert main(["pwmc", "--cnf", cnf_file, "--json", str(report_path)]) == 0
    data = json.loads(report_path.read_text())
    assert list(data.keys()) == REPORT_KEYS
    assert abs(data["result"] - 0.88) <= 1e-12
    assert data["low"] is None


def test_pwmc_unsat_file(tmp_path, capsys):
    path = tmp_path / "unsat.cnf"
    path.write_text("p cnf 3 5\n1 2 -3 0\n1 2 3 0\n2 -1 0\n-2 3 0\n-2 -3 0\n")
    assert main(["pwmc", "--cnf", str(path), "--brute"]) == 0
    assert "pwmc = 0" in capsys.readouterr().out


def test_pwmc_weights_file(cnf_file, tmp_path, capsys):
    wpath = tmp_path / "w.txt"
    wpath.write_text("w 1 0.5\nw 2 0.5\n")
    assert main(["pwmc", "--cnf", cnf_file, "--weights", str(wpath), "--brute"]) == 0
    assert "pwmc = 0.75" in capsys.readouterr().out
    # checked like the weight lines of a DIMACS file, with line numbers
    for text in ("c weights\nw 2 1.5\n", "c weights\n2 0.5\n"):
        wpath.write_text(text)
        assert main(["pwmc", "--cnf", cnf_file, "--weights", str(wpath)]) == 2
        assert "line 2" in capsys.readouterr().err


def test_cross_check_exit_codes(capsys):
    assert _cross_check("ref", 0.5, 0.5 + 1e-12, 1e-9) == 0
    assert _cross_check("ref", 0.5, 0.75, 1e-9) == 1
    assert "FAILED" in capsys.readouterr().err
    assert _cross_check("ref", float("nan"), 0.5, 1e-9) == 1
    assert "FAILED" in capsys.readouterr().err


def test_pwmc_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.cnf"
    path.write_text("p cnf 2 1\n1 2\n")
    assert main(["pwmc", "--cnf", str(path)]) == 2
    assert "error" in capsys.readouterr().err


def test_sum_single_output(capsys):
    assert main(["sum", "--n", "1", "--uniform", "--sum", "4"]) == 0
    assert "P(sum = 4) = 0.05" in capsys.readouterr().out


def test_sum_report_counts_cache_hits(capsys, tmp_path):
    report_path = tmp_path / "report.json"
    assert main(["sum", "--n", "3", "--uniform", "--sum", "999", "--json", str(report_path)]) == 0
    data = json.loads(report_path.read_text())
    assert list(data.keys()) == REPORT_KEYS
    assert abs(data["result"] - 1e-3) <= 1e-12
    assert data["cache_hits"] > 0
    assert data["oracle_calls"] < 100
    assert data["pruned"] > 0
    out = capsys.readouterr().out
    assert "cache_hits=%d " % data["cache_hits"] in out
    assert "pruned=%d " % data["pruned"] in out


def test_sum_full_distribution(capsys, tmp_path):
    report_path = tmp_path / "full.json"
    assert main(["sum", "--n", "1", "--uniform", "--full", "--json", str(report_path)]) == 0
    data = json.loads(report_path.read_text())
    assert len(data["result"]) == 20
    assert abs(sum(data["result"]) - 1.0) <= 1e-9


def test_sum_brute_cross_check(capsys):
    assert main(["sum", "--n", "2", "--uniform", "--sum", "63", "--brute"]) == 0
    out = capsys.readouterr().out
    assert "reference" in out


@pytest.mark.parametrize("n", [1, 2])
def test_sum_full_brute_cross_check(n, capsys, monkeypatch):
    argv = ["sum", "--n", str(n), "--uniform", "--full", "--brute"]
    assert main(argv) == 0
    assert "reference P(sum = " in capsys.readouterr().out
    # a reference off at one output fails the check and names that output
    exact = cli.sum_distribution_reference

    def shifted(spec):
        ref = exact(spec)
        ref[n] += 1e-6
        return ref

    monkeypatch.setattr(cli, "sum_distribution_reference", shifted)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert "reference P(sum = %d) = " % n in captured.out
    assert "FAILED" in captured.err


def test_sum_dists_inline_and_validation(tmp_path, capsys):
    rows = [[0.1] * 10, [0.1] * 10]
    assert main(["sum", "--n", "1", "--dists", json.dumps(rows), "--sum", "9"]) == 0
    bad = [[0.2] * 10, [0.1] * 10]  # first row sums to 2
    assert main(["sum", "--n", "1", "--dists", json.dumps(bad), "--sum", "9"]) == 2
    assert "error" in capsys.readouterr().err
    # rows that are not lists of numbers are usage errors naming the row
    for malformed in ("[1, 2]", json.dumps([[0.1] * 10, [None] * 10])):
        assert main(["sum", "--n", "1", "--dists", malformed, "--sum", "3"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: row ")
    not_rows = tmp_path / "rows.json"
    not_rows.write_text("5\n")
    assert main(["sum", "--n", "1", "--dists", str(not_rows), "--sum", "3"]) == 2
    assert "expected a list of rows" in capsys.readouterr().err
    # a row within the 1e-6 sum tolerance is normalised alike by the
    # instance and by the convolution reference
    near = [[0.1000005] + [0.1] * 9, [0.1] * 10]
    assert main(["sum", "--n", "1", "--dists", json.dumps(near), "--sum", "0", "--brute"]) == 0
    assert "|diff| = 0.000e+00" in capsys.readouterr().out


def test_module_entry_point_reports_usage_errors():
    env = dict(os.environ, PYTHONPATH="src")
    argv = [sys.executable, "-m", "dpnl", "sum", "--n", "1", "--dists", "[1, 2]", "--sum", "3"]
    done = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert "error:" in done.stderr
    assert "Traceback" not in done.stderr


def test_sum_orders_agree(capsys):
    for order in ("r2l", "seq", "rev"):
        assert main(["sum", "--n", "1", "--uniform", "--sum", "9", "--order", order]) == 0
        assert "P(sum = 9) = 0.1" in capsys.readouterr().out


def test_approx_exhaustive_matches_sum(capsys):
    assert main(["approx", "--n", "1", "--uniform", "--sum", "4", "--stop", "exhaustive"]) == 0
    out = capsys.readouterr().out
    assert "estimate = 0.05" in out


def test_approx_eps_mult_within_factor(capsys):
    assert main(
        ["approx", "--n", "2", "--uniform", "--sum", "63", "--stop", "eps-mult", "--eps", "0.1"]
    ) == 0
    out = capsys.readouterr().out
    estimate = float(out.split("estimate = ")[1].split()[0])
    exact = 0.0064  # 64 pairs of 10^4 digit combinations sum to 63
    assert exact / 1.1 <= estimate <= exact * 1.1


def test_approx_trace_file(tmp_path):
    trace_path = tmp_path / "trace.jsonl"
    assert main(
        [
            "approx", "--n", "1", "--uniform", "--sum", "9",
            "--stop", "eps-add", "--eps", "0.02", "--trace", str(trace_path),
        ]
    ) == 0
    lines = [json.loads(line) for line in trace_path.read_text().splitlines()]
    # ten 0.1s sum above 1, so up starts a few ulps above 1
    assert lines[0]["iteration"] == 0 and lines[0]["low"] == 0.0
    exact_total = Fraction(1)
    for row in build_sum_instance(SumInstanceSpec.uniform(1))[0].probs:
        exact_total *= sum(Fraction(p) for p in row)
    assert Fraction(lines[0]["up"]) >= exact_total
    assert lines[0]["up"] - 1.0 < 1e-15
    for prev, cur in zip(lines, lines[1:]):
        assert cur["low"] >= prev["low"]
        assert cur["up"] <= prev["up"]


def test_approx_report_counts_merges_as_cache_hits(capsys, tmp_path):
    report_path = tmp_path / "report.json"
    assert main(
        [
            "approx", "--n", "2", "--uniform", "--sum", "63",
            "--stop", "exhaustive", "--json", str(report_path),
        ]
    ) == 0
    data = json.loads(report_path.read_text())
    assert list(data.keys()) == REPORT_KEYS
    assert data["low"] <= 0.0064 <= data["up"]
    assert data["cache_hits"] > 0
    assert data["pruned"] > 0
    out = capsys.readouterr().out
    assert "cache_hits=%d " % data["cache_hits"] in out
    assert "pruned=%d " % data["pruned"] in out


def test_approx_missing_eps_is_usage_error(capsys):
    assert main(["approx", "--n", "1", "--uniform", "--sum", "4", "--stop", "eps-mult"]) == 2
    assert "eps" in capsys.readouterr().err


@pytest.mark.parametrize(
    "extra",
    [
        ["--stop", "exhaustive", "--eps", "0.1"],
        ["--stop", "eps-add", "--eps", "0.1", "--time", "5"],
        ["--stop", "exhaustive", "--heuristic", "fifo", "--seed", "7"],
    ],
    ids=["eps", "time", "seed"],
)
def test_approx_rejects_unused_options(extra, capsys):
    # an option the chosen policy does not read is a usage error, not ignored
    assert main(["approx", "--n", "1", "--uniform", "--sum", "4"] + extra) == 2
    assert capsys.readouterr().err.startswith("error: %s applies to " % extra[-2])


@pytest.mark.parametrize(
    "argv, option",
    [
        (["sum", "--n", "1", "--uniform", "--full", "--sum", "5"], "--sum"),
        (
            ["logic", "--count-provenance", "--nodes", "4", "--program", "PROGRAM", "--brute"],
            "--program",
        ),
        (["logic", "--program", "PROGRAM", "--nodes", "4", "--edge-prob", "0.9"], "--nodes"),
        (
            [
                "approx", "--program", "PROGRAM", "--n", "1", "--uniform", "--sum", "4",
                "--stop", "exhaustive",
            ],
            "--n",
        ),
        (["gradcheck", "--program", "PROGRAM", "--order", "rev", "--sum", "3"], "--sum"),
        # one option at a time, default values given explicitly included
        (["logic", "--count-provenance", "--nodes", "4", "--brute"], "--brute"),
        (["logic", "--program", "PROGRAM", "--edge-prob", "0.5"], "--edge-prob"),
        (["gradcheck", "--program", "PROGRAM", "--order", "r2l"], "--order"),
        (["sum", "--n", "1", "--uniform", "--dists", "[]", "--sum", "4"], "--dists"),
    ],
    ids=[
        "sum-full", "logic-provenance", "logic-program", "approx-program", "gradcheck-program",
        "brute", "edge-prob", "order", "dists",
    ],
)
def test_unread_options_are_usage_errors(argv, option, program_file, capsys):
    # an option that the chosen mode never reads is rejected, not dropped
    argv = [program_file if a == "PROGRAM" else a for a in argv]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: %s does not apply " % option)


def test_approx_time_budget(capsys):
    assert main(
        ["approx", "--n", "2", "--uniform", "--sum", "63", "--stop", "time", "--time", "0.05"]
    ) == 0
    out = capsys.readouterr().out
    low = float(out.split("low = ")[1].split()[0])
    up = float(out.split("up = ")[1].split()[0])
    assert low <= 0.0064 <= up


def test_approx_random_heuristic_seeded(capsys):
    args = [
        "approx", "--n", "1", "--uniform", "--sum", "9",
        "--stop", "eps-add", "--eps", "0.05", "--heuristic", "random", "--seed", "9",
    ]
    def bounds_lines(text):
        return [l for l in text.splitlines() if not l.startswith("stats")]

    assert main(args) == 0
    first = bounds_lines(capsys.readouterr().out)
    assert main(args) == 0
    assert bounds_lines(capsys.readouterr().out) == first


def test_logic_program(program_file, capsys):
    assert main(["logic", "--program", program_file, "--brute"]) == 0
    assert "P(query) = 0.25" in capsys.readouterr().out


def test_logic_approx_program(program_file, capsys):
    assert main(["approx", "--program", program_file, "--stop", "exhaustive"]) == 0
    assert "estimate = 0.25" in capsys.readouterr().out


@pytest.mark.parametrize(
    "nodes,clauses,branch_nodes", [(4, 5, 17), (5, 16, 97)], ids=["n4", "n5"]
)
def test_logic_count_provenance(capsys, nodes, clauses, branch_nodes):
    # small n keeps the test fast; the exact query takes about a second at n=7
    assert main(["logic", "--count-provenance", "--nodes", str(nodes)]) == 0
    out = capsys.readouterr().out
    assert "provenance_clauses = %d" % clauses in out
    assert "branch_nodes = %d\n" % branch_nodes in out


def test_logic_nonground_program_error(tmp_path, capsys):
    path = tmp_path / "var.pl"
    path.write_text("p(X) :- q(X).\nquery(p(a)).\n")
    assert main(["logic", "--program", str(path)]) == 2
    assert "ground" in capsys.readouterr().err


def test_logic_brute_guard(tmp_path, capsys):
    lines = ["0.5 :: a%d." % i for i in range(13)]
    lines.append("query(a0).")
    path = tmp_path / "big.pl"
    path.write_text("\n".join(lines) + "\n")
    assert main(["logic", "--program", str(path), "--brute"]) == 2
    assert "12" in capsys.readouterr().err


def test_gradcheck_sum(capsys):
    assert main(["gradcheck", "--n", "1", "--uniform", "--sum", "4"]) == 0
    out = capsys.readouterr().out
    assert "max_rel_err" in out
    rel = float(out.split("max_rel_err = ")[1].split()[0])
    assert rel <= 1e-6
    # a zero or NaN step is a usage error, not a traceback or a silent pass
    for h in ("0", "nan"):
        assert main(["gradcheck", "--n", "1", "--uniform", "--sum", "4", "--h", h]) == 2
        assert capsys.readouterr().err.startswith("error: finite-difference step")


def test_gradcheck_program(program_file, capsys):
    assert main(["gradcheck", "--program", program_file]) == 0
    rel = float(capsys.readouterr().out.split("max_rel_err = ")[1].split()[0])
    assert rel <= 1e-6


@pytest.mark.parametrize("command", ["approx", "gradcheck"])
def test_sum_task_without_n_is_usage_error(command, capsys):
    argv = [command, "--uniform", "--sum", "4"]
    if command == "approx":
        argv += ["--stop", "exhaustive"]
    assert main(argv) == 2
    assert "error: need --n" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, seed",
    [
        (
            [
                "approx", "--n", "1", "--uniform", "--sum", "9",
                "--stop", "eps-add", "--eps", "0.05", "--heuristic", "random", "--seed", "9",
            ],
            9,
        ),
        (["logic", "--program", "PROGRAM"], None),
        (["gradcheck", "--n", "1", "--uniform", "--sum", "4"], None),
        # maxprob draws no random number, so the report has no seed
        (["approx", "--n", "1", "--uniform", "--sum", "9", "--stop", "exhaustive"], None),
    ],
)
def test_report_schema(argv, seed, program_file, tmp_path):
    report_path = tmp_path / "report.json"
    argv = [program_file if a == "PROGRAM" else a for a in argv]
    assert main(argv + ["--json", str(report_path)]) == 0
    data = json.loads(report_path.read_text())
    assert list(data.keys()) == REPORT_KEYS
    assert data["command"] == argv[0]
    if argv[0] == "approx":
        assert data["low"] <= data["estimate"] <= data["up"]
    else:
        assert data["low"] is None and data["estimate"] is None and data["up"] is None
    assert data["seed"] == seed
