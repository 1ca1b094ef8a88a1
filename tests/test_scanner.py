"""Grid scans, verdicts, verification suites, report serialization."""

import csv
import io
import json

import pytest

from secantdim.linalg import EXACT_RATIONAL, FieldConfig
from secantdim.scanner import (
    CHECK_CASTELNUOVO,
    CHECK_PROJECTION,
    RECORD_FIELDS,
    STATUS_CANDIDATE,
    STATUS_CERTIFIED,
    STATUS_OUT_CANDIDATE,
    STATUS_OUT_CERTIFIED,
    ScanGrid,
    grassmann_verdict,
    grid_from_ranges,
    records_to_csv,
    records_to_json,
    scan,
    scan_cell,
    summary_to_csv,
    summary_to_json,
    verify_dictionary_grid,
    verify_theorem_suite,
)
from secantdim.terracini import SampleConfig, SegreVeroneseParams


CFG = SampleConfig(seed=0, trials=2)


def test_scan_theorem_range_grid():
    records = scan(ScanGrid(n_values=(1,), m_values=(2,), d_values=(3,)), CFG)
    assert [r.s for r in records] == list(range(1, 8))
    for rec in records:
        assert rec.ambient == 19
        assert (rec.s1, rec.s2) == (4, 6)
        assert rec.expected == min(19, 4 * rec.s - 1)
        assert rec.in_theorem_range == (rec.s != 5)
        if rec.s == 5:
            # the one value the covering ranges miss, and it really is
            # defective there: five generic double points only cut the
            # pencil-of-cubics locus down to dimension 18
            assert rec.status == STATUS_OUT_CANDIDATE
            assert (rec.computed, rec.defect) == (18, 1)
            assert rec.trials == 2 * CFG.trials
        else:
            assert rec.status == STATUS_CERTIFIED
            assert rec.computed == rec.expected and rec.defect == 0
            assert rec.trials == CFG.trials


def test_scan_cell_alone_equals_its_scan_record():
    params = SegreVeroneseParams(1, 2, 3)
    records = scan(ScanGrid(n_values=(1,), m_values=(2,), d_values=(3,)), CFG)
    assert records == [scan_cell(params, r.s, CFG) for r in records]
    # the escalated candidate is among them
    assert any(r.s == 5 and r.status == STATUS_OUT_CANDIDATE for r in records)
    assert {r.seed for r in records} == {CFG.seed}


def test_scan_explicit_s_list_keeps_repeats():
    grid = ScanGrid(
        n_values=(1,), m_values=(2,), d_values=(3,), s_policy="explicit",
        s_list=(2, 1, 2),
    )
    records = scan(grid, CFG)
    assert [r.s for r in records] == [1, 2, 2]
    assert records[1] == records[2]


def test_scan_gap_cell_can_certify():
    records = scan(ScanGrid(n_values=(1,), m_values=(1,), d_values=(3,)), CFG)
    by_s = {r.s: r for r in records}
    assert by_s[3].status == STATUS_OUT_CERTIFIED
    assert by_s[3].defect == 0 and not by_s[3].in_theorem_range


def test_scan_orders_records_lexicographically():
    grid = ScanGrid(
        n_values=(2, 1), m_values=(2, 1), d_values=(3,), s_policy="explicit",
        s_list=(2, 1),
    )
    records = scan(grid, SampleConfig(seed=0, trials=1))
    keys = [(r.n, r.m, r.d, r.s) for r in records]
    assert keys == sorted(keys)
    assert len(keys) == 8


def test_scan_cell_escalates_real_defect():
    rec = scan_cell(SegreVeroneseParams(2, 3, 2), 5, SampleConfig(seed=0, trials=1))
    assert rec.status == STATUS_OUT_CANDIDATE
    assert (rec.expected, rec.computed, rec.defect) == (29, 28, 1)
    # shortfall was retried with doubled trials before being reported
    assert rec.trials == 2
    assert not rec.in_theorem_range


def test_scan_cell_defect_survives_exact_backend():
    cfg = SampleConfig(seed=0, trials=1, field=FieldConfig(backend=EXACT_RATIONAL))
    rec = scan_cell(SegreVeroneseParams(2, 3, 2), 5, cfg)
    assert rec.defect == 1


def test_scan_cell_low_degree_certified_is_flagged():
    rec = scan_cell(SegreVeroneseParams(1, 2, 2), 2, SampleConfig(seed=0, trials=1))
    assert rec.defect == 0
    assert rec.status == STATUS_OUT_CERTIFIED


def test_grid_from_ranges():
    grid = grid_from_ranges(n_max=2, m_max=3, d_min=3, d_max=4)
    cells = list(grid.cells())
    assert len(cells) == 2 * 3 * 2
    assert cells[0] == (1, 1, 3)
    assert cells[-1] == (2, 3, 4)


def test_grid_validation():
    with pytest.raises(ValueError):
        ScanGrid(n_values=(0,), m_values=(1,), d_values=(3,))
    with pytest.raises(ValueError):
        ScanGrid(n_values=(1,), m_values=(1,), d_values=(3,), s_policy="bogus")
    with pytest.raises(ValueError):
        ScanGrid(
            n_values=(1,), m_values=(1,), d_values=(3,), s_policy="explicit"
        )


def test_reports_are_reproducible_bytes():
    grid = ScanGrid(n_values=(1,), m_values=(1, 2), d_values=(3,))
    first = scan(grid, CFG)
    second = scan(grid, CFG)
    assert records_to_json(first) == records_to_json(second)
    assert records_to_csv(first) == records_to_csv(second)


def test_json_report_shape():
    records = scan(ScanGrid(n_values=(1,), m_values=(1,), d_values=(3,)), CFG)
    payload = json.loads(records_to_json(records))
    assert len(payload) == len(records)
    assert list(payload[0].keys()) == list(RECORD_FIELDS)
    assert payload[0]["N"] == 7
    assert payload[0]["modulus"] == CFG.field.modulus


def test_csv_report_shape():
    records = scan(ScanGrid(n_values=(1,), m_values=(1,), d_values=(3,)), CFG)
    text = records_to_csv(records)
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == list(RECORD_FIELDS)
    assert len(rows) == len(records) + 1
    assert rows[1][RECORD_FIELDS.index("inTheoremRange")] in ("true", "false")


def test_grassmann_verdict_strings():
    records = scan(ScanGrid(n_values=(1,), m_values=(2,), d_values=(3,)), CFG)
    by_s = {r.s: r for r in records}
    assert (
        grassmann_verdict(by_s[4])
        == "the 3-uple Veronese of P^2 is not (1, 3)-Grassmann defective"
    )
    assert grassmann_verdict(by_s[5]) == (
        "candidate: the 3-uple Veronese of P^2 may be (1, 4)-Grassmann"
        " defective (defect 1 at the sampled points)"
    )
    gap = scan(ScanGrid(n_values=(1,), m_values=(1,), d_values=(3,)), CFG)
    certified_gap = {r.s: r for r in gap}[3]
    assert grassmann_verdict(certified_gap) == (
        "the 3-uple Veronese of P^1 is not (1, 2)-Grassmann defective"
        " at the sampled points (outside the certified range)"
    )
    candidate = scan_cell(
        SegreVeroneseParams(2, 3, 2), 5, SampleConfig(seed=0, trials=1)
    )
    assert grassmann_verdict(candidate) == (
        "candidate: the 2-uple Veronese of P^3 may be (2, 4)-Grassmann"
        " defective (defect 1 at the sampled points)"
    )


def test_verify_dictionary_grid_counts():
    grid = ScanGrid(n_values=(1, 2), m_values=(2,), d_values=(3,))
    summary = verify_dictionary_grid(
        grid, SampleConfig(seed=0, trials=1)
    )
    assert summary.ok
    # s runs 0 .. s2+1 per cell: 8 cells for (1,2,3), 8 for (2,2,3)
    assert summary.cells_checked == 16


def test_verify_theorem_suite_green():
    grid = ScanGrid(n_values=(1, 2), m_values=(1, 2), d_values=(3,))
    summary = verify_theorem_suite(
        grid, SampleConfig(seed=0, trials=1), q_max=1, t_max=1
    )
    assert summary.ok
    assert summary.cells_checked == 8


def test_verify_theorem_suite_skips_low_degree():
    grid = ScanGrid(n_values=(1,), m_values=(2,), d_values=(2,))
    summary = verify_theorem_suite(grid, SampleConfig(seed=0, trials=1))
    assert summary.ok
    assert summary.cells_checked == 0


def test_verify_subset_of_checks():
    grid = ScanGrid(n_values=(2,), m_values=(2,), d_values=(3,))
    summary = verify_theorem_suite(
        grid,
        SampleConfig(seed=3, trials=1),
        q_max=1,
        t_max=2,
        checks=(CHECK_CASTELNUOVO, CHECK_PROJECTION),
    )
    assert summary.ok
    with pytest.raises(ValueError):
        verify_theorem_suite(grid, CFG, checks=("bogus",))


def test_summary_serialization():
    grid = ScanGrid(n_values=(1,), m_values=(1,), d_values=(3,))
    summary = verify_theorem_suite(
        grid, SampleConfig(seed=0, trials=1), q_max=1, t_max=0
    )
    payload = json.loads(summary_to_json(summary))
    assert payload == {"cellsChecked": 1, "failures": []}
    text = summary_to_csv(summary)
    lines = text.splitlines()
    assert lines[0] == "# cellsChecked=1"
    assert lines[1] == "check,n,m,d,q,t,s,detail"
    assert len(lines) == 2
