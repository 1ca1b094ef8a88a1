"""The three benchmark workloads and their reference checks.

A workload is a list of report rows, one (n, m, d) cell each. The harness
runs each row through the library's public call on a single-cell grid,
times it, and renders the concatenated rows as one report. Single-cell
grids are used (never the CLI's `--grid`), so a row's output does not depend
on how the library expands a list of cells into a grid.

Every library name is looked up on its module at call time, so a tracer
installed around a run sees these calls too.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable, Sequence

from secantdim import scanner
from secantdim.scanner import (
    STATUS_CANDIDATE,
    STATUS_OUT_CANDIDATE,
    ScanGrid,
    SecantRecord,
    VerifySummary,
)
from secantdim.terracini import SampleConfig

BENCH_DIR = Path(__file__).resolve().parent
# the checkout that holds this benchmark and the library it measures
ROOT = BENCH_DIR.parent
GOLDEN_DIR = BENCH_DIR / "golden"

# record fields that do not depend on the master seed
SEED_FREE_FIELDS = (
    "n", "m", "d", "s", "N", "expected", "computed", "defect", "status"
)

THEOREM_GRID = tuple(
    (n, m, d) for n in (1, 2, 3) for m in (1, 2, 3) for d in (3, 4)
)
DEFECT_CELLS = ((2, 3, 2), (3, 4, 2), (4, 3, 2), (2, 5, 2))
VERIFY_Q_MAX = 2
VERIFY_T_MAX = 2


def single_cell(cell: tuple[int, int, int]) -> ScanGrid:
    n, m, d = cell
    return ScanGrid((n,), (m,), (d,))


@dataclass(frozen=True)
class ScanWorkload:
    """`scan` row by row, rendered with `records_to_json`.

    `row_ok(cell, records, seed)` says whether a row reproduces its
    reference. `golden`, when set, is the full seed-0 report, which must then
    match byte for byte.
    """

    name: str
    rows: tuple[tuple[int, int, int], ...]
    row_ok: Callable[[tuple, list[SecantRecord], int], bool]
    golden: str | None = None

    def run_row(self, cell, cfg: SampleConfig) -> list[SecantRecord]:
        return scanner.scan(single_cell(cell), cfg)

    def render(self, results: Sequence[list[SecantRecord]]) -> str:
        return scanner.records_to_json([r for row in results for r in row])

    def failed_rows(self, results, report: str, seed: int) -> int:
        """Rows whose records disagree with the reference."""
        bad = sum(
            not self.row_ok(cell, records, seed)
            for cell, records in zip(self.rows, results)
        )
        if bad == 0 and seed == 0 and self.golden is not None:
            # every row matches, so a byte difference is in the rendering,
            # and every row of the rendered report is suspect
            if report != self.golden:
                return len(self.rows)
        return bad


def golden_row_check(golden: str) -> Callable:
    """Rows must equal the golden records: in full at seed 0, and on the
    seed-independent fields at any other seed."""
    by_cell: dict = {}
    for r in json.loads(golden):
        by_cell.setdefault((r["n"], r["m"], r["d"]), []).append(r)

    def row_ok(cell, records: list[SecantRecord], seed: int) -> bool:
        got = [scanner.record_to_dict(r) for r in records]
        expect = by_cell[cell]
        if seed == 0:
            return got == expect
        return [_seed_free(r) for r in got] == [_seed_free(r) for r in expect]

    return row_ok


def fixture_row_check(fixture: dict) -> Callable:
    """Rows must show the fixture's candidates and run s from 1 to sMax."""
    by_cell = {(c["n"], c["m"], 2): c for c in fixture["cells"]}
    if set(by_cell) != set(DEFECT_CELLS):
        raise ValueError("the defect fixture no longer lists the d = 2 cells")

    def row_ok(cell, records: list[SecantRecord], seed: int) -> bool:
        expect = by_cell[cell]
        found = [
            {"s": r.s, "expected": r.expected, "computed": r.computed,
             "defect": r.defect}
            for r in records
            if r.status in (STATUS_CANDIDATE, STATUS_OUT_CANDIDATE)
        ]
        steps = [r.s for r in records]
        return (
            found == expect["candidates"]
            and steps == list(range(1, expect["sMax"] + 1))
        )

    return row_ok


@dataclass(frozen=True)
class VerifyWorkload:
    """`verify_theorem_suite` with every check, row by row.

    Every row must pass its cells, and the rendered report must be the
    clean summary of all of them, byte for byte.
    """

    name: str
    rows: tuple[tuple[int, int, int], ...]
    cells_per_row: int = VERIFY_Q_MAX * (VERIFY_T_MAX + 1)

    @cached_property
    def reference(self) -> str:
        # written here rather than by `summary_to_json`, so a change to the
        # library's renderer is caught
        cells = self.cells_per_row * len(self.rows)
        return json.dumps({"cellsChecked": cells, "failures": []}, indent=2) + "\n"

    def run_row(self, cell, cfg: SampleConfig) -> VerifySummary:
        return scanner.verify_theorem_suite(
            single_cell(cell), cfg, q_max=VERIFY_Q_MAX, t_max=VERIFY_T_MAX
        )

    def render(self, results: Sequence[VerifySummary]) -> str:
        merged = VerifySummary(
            sum(r.cells_checked for r in results),
            tuple(f for r in results for f in r.failures),
        )
        return scanner.summary_to_json(merged)

    def failed_rows(self, results, report: str, seed: int) -> int:
        bad = sum(
            r.failures != () or r.cells_checked != self.cells_per_row
            for r in results
        )
        if bad == 0 and report != self.reference:
            # as for the scan golden: the rendering is at fault
            return len(self.rows)
        return bad


def _seed_free(record: dict) -> dict:
    return {key: record[key] for key in SEED_FREE_FIELDS}


def load_workloads() -> dict:
    """All workloads, with references read from the checkout at ROOT."""
    golden = (GOLDEN_DIR / "scan-d34.seed0.json").read_text(encoding="utf-8")
    fixture_path = ROOT / "tests" / "fixtures" / "defective_d2.json"
    fixture = json.loads(fixture_path.read_text(encoding="utf-8"))
    workloads = (
        ScanWorkload("scan-d34", THEOREM_GRID, golden_row_check(golden), golden),
        VerifyWorkload("verify-theorem", THEOREM_GRID),
        ScanWorkload("defect-d2", DEFECT_CELLS, fixture_row_check(fixture)),
    )
    return {w.name: w for w in workloads}
