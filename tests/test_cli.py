"""End-to-end command line checks through the installed entry point."""

import json
import os
import resource
import shlex
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest

from secantdim import cli, linalg, scanner, schemes
from secantdim.cli import MAX_RUN_ENTRIES, main

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
        ("scan", "--grid", "(1,2,3),(2,x,3)"),
        ("scan", "--grid", "(1,2,3) junk"),
        ("scan", "--grid", "(1,2,3)", "--s-list", "2,3"),
        ("verify", "theorem", "--grid", "(1,2,3)", "--q-max", "-1"),
        ("verify", "theorem", "--grid", "(1,2,3)", "--t-max", "-3"),
        ("scan", "--grid", "(1,1,3)", "--s-margin", "5"),
        ("scan", "--grid", "(1,1,3)", "--s-policy", "explicit",
         "--s-list", "2", "--s-margin", "1"),
        ("verify", "dictionary", "--grid", "(1,1,3)",
         "--q-max", "-1", "--t-max", "-3"),
        ("verify", "dictionary", "--grid", "(1,1,3)", "--q-max", "2"),
        ("verify", "dictionary", "--grid", "(1,1,3)", "--t-max", "2"),
        ("thresholds", "1", "2", "3", "--prime", "7"),
        ("thresholds", "1", "2", "3", "--seed", "4"),
        ("thresholds", "1", "2", "3", "--trials", "9"),
        ("thresholds", "1", "2", "3", "--backend", "exact"),
        ("scan", "--grid", "(1,1,3)", "--s-policy", "explicit", "--s-list", "1,,2"),
        ("scan", "--grid", "(1,1,3)", "--s-policy", "explicit", "--s-list", "1,x"),
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


@pytest.mark.parametrize(
    "command, flags",
    [
        ("dim", ("--prime", "--trials", "--backend", "--format")),
        ("thresholds", ("--format", "--output")),
        ("scan", ("--grid", "--s-policy", "--s-list", "--s-margin")),
        ("verify", ("--grid", "--q-max", "--t-max", "--seed")),
    ],
)
def test_subcommand_help_lists_its_flags(command, flags):
    proc = run_cli(command, "--help")
    assert proc.returncode == 0
    assert all(flag in proc.stdout for flag in flags)


def _main_json(capsys, *args):
    assert main(list(args)) == 0
    return json.loads(capsys.readouterr().out)


def test_verify_says_it_skips_cells_below_degree_three(capsys):
    proc = run_cli("verify", "--help")
    assert proc.returncode == 0
    assert "skip every cell with d < 3" in " ".join(proc.stdout.split())
    for target in ("theorem", "castelnuovo"):
        report = _main_json(capsys, "verify", target, "--grid", "(1,1,2)")
        assert report == {"cellsChecked": 0, "failures": []}


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


def test_oversized_scheme_exits_two_before_building_rows():
    # (3, 10, 10) needs a 72 x 739024 scheme matrix: refused by the size
    # check; the address-space cap keeps a regression from exhausting memory
    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2**31, 2**31))

    proc = subprocess.run(
        CMD + ["verify", "castelnuovo", "--grid", "(3,10,10)",
               "--q-max", "1", "--t-max", "0"],
        capture_output=True,
        text=True,
        timeout=60,
        preexec_fn=cap_memory,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "entry limit" in proc.stderr


@pytest.mark.parametrize(
    "args",
    [
        ("scan", "--grid", "(1,7000,7000)"),
        ("verify", "dictionary", "--grid", "(1,3000,3000)"),
        ("dim", "1", "2", "3", "9" * 4000),
    ],
)
def test_oversized_s_range_exits_two_before_it_is_listed(args):
    # the theorem range runs to s2 + 1, a number of thousands of digits here,
    # so listing it would exhaust any memory; the cap keeps a regression
    # from taking the machine with it. The refusal prints such numbers by
    # their size.
    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (3 * 2**30, 3 * 2**30))

    proc = subprocess.run(
        CMD + list(args),
        capture_output=True,
        text=True,
        timeout=60,
        preexec_fn=cap_memory,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "entry limit" in proc.stderr
    assert len(proc.stderr) < 300


@pytest.mark.parametrize(
    "args",
    [
        ("theorem", "--q-max", "99999999999"),
        ("theorem", "--t-max", "99999999999"),
        ("castelnuovo", "--q-max", "99999999999", "--t-max", "0"),
    ],
)
def test_oversized_q_or_t_range_exits_two_before_the_first_case(args):
    # the largest case is sized from counts before any case runs; case by
    # case, a refusal would come only after hundreds of thousands of cases
    proc = subprocess.run(
        CMD + ["verify", args[0], "--grid", "(1,1,3)", *args[1:]],
        capture_output=True,
        text=True,
        timeout=20,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "entry limit" in proc.stderr


def test_a_run_is_sized_whole_before_its_first_cell_is_ranked(
    monkeypatch, capsys
):
    # (10,10,10) is too large to build, so (5,5,5), which comes first and
    # could be built, is never ranked
    def ranked(*args):
        raise AssertionError("a cell was ranked before the run was sized")

    monkeypatch.setattr(scanner, "best_ranks", ranked)
    assert main(["scan", "--grid", "(5,5,5);(10,10,10)"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "entry limit" in err


@pytest.mark.parametrize(
    "args",
    [
        ("theorem", "--q-max", "100000"),
        ("theorem", "--q-max", "1000", "--t-max", "0"),
        ("castelnuovo", "--q-max", "1", "--t-max", "1000"),
    ],
)
def test_run_above_the_entry_cap_exits_two_before_its_first_case(
    monkeypatch, capsys, args
):
    # every case here can be built, but the run's summed condition-matrix
    # entries are above the cap, which is counted in closed form
    def suite(*args):
        raise AssertionError("a case ran before the run was sized")

    monkeypatch.setattr(cli, "verify_theorem_suite", suite)
    assert main(["verify", args[0], "--grid", "(1,1,3)", *args[1:]]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"above the limit of {MAX_RUN_ENTRIES:,}" in err


def test_oversized_scheme_is_refused_before_its_basis_is_built(
    monkeypatch, capsys
):
    # the size check counts the 739024 basis monomials in closed form, so
    # no monomial may be enumerated on the way to the refusal
    def enumerate_basis(*args):
        raise AssertionError("basis enumerated before the size check")

    monkeypatch.setattr(schemes, "graded_basis", enumerate_basis)
    args = ["verify", "castelnuovo", "--grid", "(3,10,10)", "--q-max", "1",
            "--t-max", "0"]
    assert main(args) == 2
    assert "72 x 739024" in capsys.readouterr().err


UNPARSED_CELL = "(1,2," + "x" * 5000 + ")"


@pytest.mark.parametrize(
    "args",
    [
        ("dim", "1", "3000000", "3000000", "1"),
        ("thresholds", "1", "3000000", "3000000"),
        ("scan", "--grid", "(1,3000000,3000000)"),
        ("thresholds", "1", "9" * 4000, "3"),
        # past 4300 digits int() itself refuses; the refusal must not echo
        ("dim", "1", "2", "3", "9" * 5000),
        ("verify", "theorem", "--grid", "(1,1,3)", "--q-max", "9" * 5000),
        # a --grid cell that does not parse is echoed only in part
        ("scan", "--grid", UNPARSED_CELL),
        # a genuine defect runs every trial, so this count would never end
        ("dim", "2", "3", "2", "5", "--trials", "1000000000"),
        # an --s-list entry that does not parse is echoed only in part too
        ("scan", "--grid", "(1,1,3)", "--s-policy", "explicit",
         "--s-list", "1," + "9" * 5000),
    ],
)
def test_count_too_long_to_print_exits_two_at_once(args):
    # C(6000000, 3000000) alone would take minutes to compute
    proc = subprocess.run(CMD + list(args), capture_output=True, text=True, timeout=20)
    assert proc.returncode == 2
    assert proc.stdout == ""
    if UNPARSED_CELL in args:
        assert "grid cell" in proc.stderr
    elif "--s-list" in args:
        assert "--s-list entry" in proc.stderr
    elif "--trials" in args:
        assert "limit of 1,000" in proc.stderr
    else:
        assert "digits" in proc.stderr
    assert len(proc.stderr) < 300


@pytest.mark.parametrize(
    "cell, flags",
    [
        ((1, 2, 3, 4), ()),
        ((1, 2, 3, 4), ("--format", "csv")),
        # a defect over Q, escalated
        ((2, 3, 2, 5), ()),
        ((2, 3, 2, 5), ("--backend", "exact", "--trials", "1")),
        # special draws over GF(11), settled on escalation
        ((1, 1, 4, 3), ("--prime", "11", "--trials", "1")),
    ],
)
def test_dim_prints_the_scan_of_its_cell(capsys, cell, flags):
    n, m, d, s = map(str, cell)
    assert main(["dim", n, m, d, s, *flags]) == 0
    alone = capsys.readouterr().out
    args = ["scan", "--grid", f"({n},{m},{d})", "--s-policy", "explicit",
            "--s-list", s, *flags]
    assert main(args) == 0
    assert alone == capsys.readouterr().out


def test_repeated_s_list_values_give_one_record_each(capsys):
    records = _main_json(
        capsys, "scan", "--grid", "(1,1,3)", "--s-policy", "explicit",
        "--s-list", "3,3,1",
    )
    assert [r["s"] for r in records] == [1, 3]
    assert records == _main_json(
        capsys, "scan", "--grid", "(1,1,3)", "--s-policy", "explicit",
        "--s-list", "1,3",
    )


@pytest.mark.parametrize("prime", ["7", "11", "13"])
def test_castelnuovo_holds_at_small_primes(prime):
    # the bound is an exact-sequence inequality, so no draw may break it,
    # however special a small prime makes the draws
    proc = run_cli(
        "verify", "castelnuovo", "--n-max", "3", "--m-max", "3",
        "--d-min", "3", "--d-max", "4", "--prime", prime, "--trials", "2",
    )
    assert proc.returncode == 0, proc.stdout
    assert json.loads(proc.stdout)["failures"] == []


def test_s_margin_applies_to_all_up_to(capsys):
    wide = _main_json(
        capsys, "scan", "--grid", "(1,1,3)", "--s-policy", "all-up-to",
        "--s-margin", "3",
    )
    default = _main_json(
        capsys, "scan", "--grid", "(1,1,3)", "--s-policy", "all-up-to"
    )
    # the default margin is 1, so a margin of 3 adds two more s
    assert [r["s"] for r in wide] == list(range(1, len(default) + 3))
    assert wide[: len(default)] == default


@pytest.mark.parametrize(
    "grid, unparsed",
    [
        ("(1,2,3),(2,x,3)", "(1,2,3),(2,x,3)"),
        ("(1,2,3) junk", "(1,2,3) junk"),
        ("(1,2,3); (2,1,3);", ""),
    ],
)
def test_grid_error_quotes_the_unparsed_text(capsys, grid, unparsed):
    assert main(["scan", "--grid", grid]) == 2
    assert repr(unparsed) in capsys.readouterr().err


@pytest.mark.parametrize(
    "s_list, unparsed", [("1,,2", ""), ("1,x", "x"), (" 2 ,3a", "3a")]
)
def test_s_list_error_names_its_flag_and_quotes_the_entry(capsys, s_list, unparsed):
    args = ["scan", "--grid", "(1,1,3)", "--s-policy", "explicit", "--s-list", s_list]
    assert main(args) == 2
    assert f"could not parse --s-list entry {unparsed!r}" in capsys.readouterr().err


def test_verify_dictionary_settles_special_draws_at_a_small_prime(
    monkeypatch, capsys
):
    args = ["verify", "dictionary", "--n-max", "2", "--m-max", "2",
            "--prime", "7", "--trials", "3"]
    assert main(args) == 0
    assert json.loads(capsys.readouterr().out)["failures"] == []
    # a plain best over the three trials reports three special draws
    monkeypatch.setattr(scanner, "settle", lambda value, target, cfg, *_: (value, 3))
    assert main(args) == 1
    assert len(json.loads(capsys.readouterr().out)["failures"]) == 3


def test_grid_cells_allow_whitespace_around_separators(capsys):
    spaced = _main_json(capsys, "scan", "--grid", " (1, 2, 3) ; (2,1,3) ")
    assert spaced == _main_json(capsys, "scan", "--grid", "(1,2,3);(2,1,3)")


def test_unwritable_output_exits_two(tmp_path, capsys):
    assert main(["thresholds", "1", "2", "3", "--output", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("secantdim: cannot write")


@pytest.mark.parametrize(
    "args", [("dim", "1", "2", "3", "5"), ("verify", "theorem", "--grid", "(1,1,3)")]
)
def test_a_closed_stdout_is_a_refusal(args):
    # the reader has gone before the report is written, as in `... | head -0`:
    # one line on stderr and exit 2, as for an --output that cannot be
    # written, not a traceback and the exit status of a failed verification
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            CMD + list(args),
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr.startswith("secantdim: cannot write stdout")
    assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n")
    assert "Traceback" not in proc.stderr


def test_a_closed_stdout_refusal_leaves_no_descriptor_open(capsys, monkeypatch):
    # in process, so the descriptors are this process's: the refusal points
    # stdout at os.devnull through a descriptor of its own, which it must
    # close once dup2 has copied it
    read_end, write_end = os.pipe()
    os.close(read_end)
    stdout = os.fdopen(write_end, "w")
    monkeypatch.setattr(sys, "stdout", stdout)
    before = set(os.listdir("/dev/fd"))
    try:
        assert main(["dim", "1", "2", "3", "5"]) == 2
        after = set(os.listdir("/dev/fd"))
    finally:
        stdout.close()
    assert after == before
    assert capsys.readouterr().err.startswith("secantdim: cannot write stdout")


ESCALATION_GOLDEN = Path(__file__).resolve().parent / "fixtures" / "escalation.txt"

# cells whose shortfalls at one trial are settled on escalation: special
# draws over GF(11) in the scan, the (2, 3, 2) s = 5 defect over Q
ESCALATION_COMMANDS = [
    ("scan", "--grid", "(1,1,4);(3,2,4)", "--prime", "11", "--trials", "1"),
    ("dim", "2", "3", "2", "5", "--backend", "exact", "--trials", "1"),
]


def test_escalated_reports_match_the_golden_bytes(capsys):
    # the golden holds each command as a "$ secantdim ..." line, then its report
    transcript = ""
    for args in ESCALATION_COMMANDS:
        assert main(list(args)) == 0
        transcript += f"$ secantdim {shlex.join(args)}\n" + capsys.readouterr().out
    assert transcript.encode("utf-8") == ESCALATION_GOLDEN.read_bytes()


# cells of the unbalanced family at one s each; (8, 2, 3) is a control
UNBALANCED_SCANS = [
    ("(8,2,3);(9,2,3);(10,2,3);(11,2,3);(12,2,3)", 9),
    ("(14,2,4)", 14),
    ("(18,3,3)", 18),
]


def test_unbalanced_cells_meet_their_closed_form(monkeypatch, capsys):
    # with C = C(m + d, d) and C - m < s <= min(n, C - 1), the n + 1 - s
    # linear forms in x through a_1..a_s times the C - s degree-d forms in y
    # through b_1..b_s are (n + 1 - s)(C - s) independent forms of bidegree
    # (1, d) singular at every point, so the rank is at most
    # s(n + 1 + C - s), below the expected s(n + m + 1) as s > C - m. Each
    # shortfall meets singular_products' bound, so nothing is certified over Q
    def refuse(*args):
        raise AssertionError("a shortfall was escalated")

    monkeypatch.setattr(linalg, "_certify", refuse)
    short = []
    for grid, s in UNBALANCED_SCANS:
        args = ("scan", "--grid", grid, "--s-policy", "explicit", "--s-list", str(s))
        for rec in _main_json(capsys, *args):
            n, m, d = rec["n"], rec["m"], rec["d"]
            c = comb(m + d, d)
            expected = min((n + 1) * c, s * (n + m + 1)) - 1
            computed = expected
            if c - m < s <= min(n, c - 1):
                short.append((n, m, d))
                computed = s * (n + 1 + c - s) - 1
            assert (rec["computed"], rec["defect"]) == (computed, expected - computed)
    # (8, 2, 3) at s = 9 has s > n, so no candidate
    tall = [(n, 2, 3) for n in range(9, 13)]
    assert short == [*tall, (14, 2, 4), (18, 3, 3)]
