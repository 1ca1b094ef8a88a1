"""Tests of the benchmark itself.

Run from the repository root with
`PYTHONPATH=src python3 -m pytest -q benchmarks`.
"""

import json
from dataclasses import replace

import harness
import workloads
from secantdim.scanner import (
    ScanGrid,
    SecantRecord,
    VerifySummary,
    grid_from_ranges,
    records_to_json,
    scan,
    summary_to_json,
    verify_theorem_suite,
)
from secantdim.terracini import SampleConfig
from tracing import Tracer, layer_totals, secantdim_modules

CFG = SampleConfig(seed=0)


def _golden_rows(workload):
    """The golden seed-0 report, split back into per-row record lists."""
    records = json.loads(workload.golden)
    rows = []
    for cell in workload.rows:
        rows.append([
            SecantRecord(
                n=r["n"], m=r["m"], d=r["d"], s=r["s"], ambient=r["N"],
                expected=r["expected"], computed=r["computed"],
                defect=r["defect"], s1=r["s1"], s2=r["s2"],
                in_theorem_range=r["inTheoremRange"], status=r["status"],
                seed=r["seed"], trials=r["trials"], modulus=r["modulus"],
            )
            for r in records
            if (r["n"], r["m"], r["d"]) == cell
        ])
    return rows


def test_golden_report_passes_and_corrupted_reports_are_counted():
    workload = workloads.load_workloads()["scan-d34"]
    rows = _golden_rows(workload)
    assert workload.failed_rows(rows, workload.render(rows), seed=0) == 0

    # one wrong dimension fails exactly its own row, at any seed
    bad = [list(row) for row in rows]
    bad[5][2] = replace(bad[5][2], computed=bad[5][2].computed - 1)
    assert workload.failed_rows(bad, workload.render(bad), seed=0) == 1
    assert workload.failed_rows(bad, workload.render(bad), seed=3) == 1

    # at seed 0 the bytes must match too; a rendering change fails every row
    report = workload.render(rows).replace("\n", "\r\n")
    assert workload.failed_rows(rows, report, seed=0) == len(workload.rows)


def test_defect_rows_fail_on_a_lost_candidate():
    workload = workloads.load_workloads()["defect-d2"]
    cell = workload.rows[0]
    records = workload.run_row(cell, CFG)
    assert workload.failed_rows([records], "", seed=0) == 0
    certified = [replace(r, defect=0, status="certified-nondefective")
                 for r in records]
    assert workload.failed_rows([certified], "", seed=0) == 1


def test_verify_rows_and_report_are_checked():
    workload = workloads.load_workloads()["verify-theorem"]
    rows = [VerifySummary(workload.cells_per_row, ()) for _ in workload.rows]
    assert workload.failed_rows(rows, workload.render(rows), seed=0) == 0
    assert '"cellsChecked": 108' in workload.render(rows)

    # one row that failed a check fails exactly that row
    bad = list(rows)
    failure = {"check": "dictionary", "n": 2, "m": 1, "d": 3, "q": 1, "t": 0}
    bad[4] = VerifySummary(workload.cells_per_row, (failure,))
    assert workload.failed_rows(bad, workload.render(bad), seed=0) == 1

    # clean rows rendered wrongly fail every row
    report = workload.render(rows).replace("108", "107")
    assert workload.failed_rows(rows, report, seed=0) == len(workload.rows)


def test_tracer_restores_every_module_attribute():
    def snapshot():
        return {
            (module.__name__, name): value
            for module in secantdim_modules()
            for name, value in vars(module).items()
        }

    before = snapshot()
    with Tracer():
        during = snapshot()
        assert during["secantdim.terracini", "derivative_rows"] is not (
            before["secantdim.terracini", "derivative_rows"]
        )
        assert during["secantdim.schemes", "derivative_rows"] is not (
            before["secantdim.schemes", "derivative_rows"]
        )
    after = snapshot()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)

    try:
        with Tracer():
            raise KeyError("boom")
    except KeyError:
        pass
    after = snapshot()
    assert all(after[key] is before[key] for key in before)


def test_per_row_scan_concatenation_equals_full_grid():
    workload = workloads.load_workloads()["scan-d34"]
    small = replace(workload, rows=((1, 1, 3), (1, 2, 3), (2, 1, 3), (2, 2, 3)))
    report = small.render([small.run_row(cell, CFG) for cell in small.rows])
    assert report == records_to_json(scan(grid_from_ranges(2, 2, 3, 3), CFG))


def test_per_row_verify_concatenation_equals_full_grid():
    workload = workloads.load_workloads()["verify-theorem"]
    small = replace(workload, rows=((1, 1, 3), (1, 2, 3), (2, 1, 3), (2, 2, 3)))
    report = small.render([small.run_row(cell, CFG) for cell in small.rows])
    full = verify_theorem_suite(
        grid_from_ranges(2, 2, 3, 3), CFG,
        q_max=workloads.VERIFY_Q_MAX, t_max=workloads.VERIFY_T_MAX,
    )
    assert report == summary_to_json(full)


def test_traced_report_matches_untraced_and_counts_layers():
    workload = workloads.load_workloads()["scan-d34"]
    small = replace(workload, rows=((1, 2, 3),))
    _, plain, _, _ = harness.run_report(small, CFG)
    with Tracer() as tracer:
        _, traced, _, _ = harness.run_report(small, CFG, tracer)
    assert traced == plain
    totals = layer_totals(tracer.spans)
    records = scan(ScanGrid((1,), (2,), (3,)), CFG)
    assert totals["scanner.scan_cell.calls"] == len(records)
    # (1, 2, 3) has the classical defect at s = 5, escalated to exact rank
    assert totals["scanner.exact_cells"] == 1
    assert totals["linalg.rank.exact.calls"] == 4
    assert totals["scanner.exact_confirmed_ratio"] == 1.0
    assert all(s.row == 0 for s in tracer.spans if s.name != "scanner.render")
