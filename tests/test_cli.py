"""End-to-end command line checks through the installed entry point."""

import json
import subprocess
import sys

import pytest

from secantdim.cli import main

CMD = [sys.executable, "-m", "secantdim"]


def run_cli(*args):
    return subprocess.run(
        CMD + list(args), capture_output=True, text=True, timeout=300
    )


def test_dim_record():
    proc = run_cli("dim", "1", "2", "3", "4")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert len(payload) == 1
    rec = payload[0]
    assert rec["N"] == 19
    assert rec["expected"] == rec["computed"] == 15
    assert rec["status"] == "certified-nondefective"
    assert rec["modulus"] == 1073741789


def test_thresholds_output():
    proc = run_cli("thresholds", "1", "2", "3")
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {
        "n": 1,
        "m": 2,
        "d": 3,
        "s1": 4,
        "s2": 6,
        "divisible": False,
        "uncovered": 1,
    }


def test_scan_reports_candidate_without_failing():
    proc = run_cli(
        "scan", "--grid", "(2,3,2)", "--s-policy", "explicit",
        "--s-list", "5", "--format", "csv",
    )
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("n,m,d,s,N,")
    row = lines[1].split(",")
    assert row[:8] == ["2", "3", "2", "5", "29", "29", "28", "1"]
    assert "out-of-theorem-range-candidate" in lines[1]


def test_scan_repeated_runs_are_byte_identical(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    args = ("scan", "--grid", "(1,1,3);(1,2,3)", "--seed", "7")
    assert run_cli(*args, "--output", str(out1)).returncode == 0
    assert run_cli(*args, "--output", str(out2)).returncode == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert json.loads(out1.read_text())


def test_scan_seed_changes_metadata_not_verdict():
    first = run_cli("scan", "--grid", "(1,2,3)", "--seed", "1")
    second = run_cli("scan", "--grid", "(1,2,3)", "--seed", "2")
    a = json.loads(first.stdout)
    b = json.loads(second.stdout)
    assert [r["computed"] for r in a] == [r["computed"] for r in b]
    assert {r["seed"] for r in a} == {1}
    assert {r["seed"] for r in b} == {2}


def test_verify_dictionary_exit_zero():
    proc = run_cli("verify", "dictionary", "--grid", "(1,2,3)", "--trials", "1")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["failures"] == []
    assert payload["cellsChecked"] == 8


def test_verify_theorem_exit_zero():
    proc = run_cli(
        "verify", "theorem", "--grid", "(1,2,3)",
        "--q-max", "1", "--t-max", "1", "--trials", "1",
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["failures"] == []


def test_verify_castelnuovo_exit_zero():
    proc = run_cli(
        "verify", "castelnuovo", "--grid", "(2,2,3)",
        "--q-max", "1", "--t-max", "1", "--trials", "1",
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["failures"] == []


def test_exact_backend_agrees_with_modular():
    fast = run_cli("dim", "1", "1", "3", "2")
    slow = run_cli("dim", "1", "1", "3", "2", "--backend", "exact", "--trials", "1")
    a = json.loads(fast.stdout)[0]
    b = json.loads(slow.stdout)[0]
    assert a["computed"] == b["computed"] == 5


@pytest.mark.parametrize(
    "args",
    [
        ("dim", "1", "2", "3", "0"),
        ("dim", "0", "0", "3", "1"),
        ("thresholds", "1", "2", "0"),
        ("scan", "--grid", "nonsense"),
        ("scan", "--grid", "(1,2,3)", "--prime", "91"),
        ("dim", "1", "2", "9", "2", "--prime", "7"),
        ("scan", "--grid", "(1,2,3)", "--s-policy", "explicit"),
    ],
)
def test_invalid_inputs_exit_two(args):
    proc = run_cli(*args)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.strip()


def test_help_exits_zero():
    proc = run_cli("--help")
    assert proc.returncode == 0
    assert "thresholds" in proc.stdout


def _main_json(capsys, *args):
    assert main(list(args)) == 0
    return json.loads(capsys.readouterr().out)


def test_grid_scans_only_the_listed_cells(capsys):
    listed = _main_json(capsys, "scan", "--grid", "(2,1,3);(1,2,3);(2,1,3)")
    assert sorted({(r["n"], r["m"], r["d"]) for r in listed}) == [
        (1, 2, 3),
        (2, 1, 3),
    ]
    first = _main_json(capsys, "scan", "--grid", "(1,2,3)")
    second = _main_json(capsys, "scan", "--grid", "(2,1,3)")
    assert listed == first + second


def test_grid_verify_merges_the_listed_cells(capsys):
    def verify(grid):
        return _main_json(
            capsys, "verify", "theorem", "--grid", grid,
            "--q-max", "1", "--t-max", "1", "--trials", "1",
        )

    listed = verify("(1,2,3);(2,1,3)")
    first = verify("(1,2,3)")
    second = verify("(2,1,3)")
    assert listed["cellsChecked"] == 4
    assert listed == {
        "cellsChecked": first["cellsChecked"] + second["cellsChecked"],
        "failures": first["failures"] + second["failures"],
    }


def test_oversized_cell_exits_two_before_building_rows(capsys):
    # a 1100 x 2032316 tangent matrix: refused by the size check
    assert main(["dim", "10", "10", "10", "50"]) == 2
    assert "entry limit" in capsys.readouterr().err
