"""Command-line surface: dim, thresholds, scan, verify.

Exit status is 0 on success (scan reports defect candidates without
failing), 1 when a verification finds failures, 2 on invalid parameters.
Identical invocations produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass

from .expected import thresholds
from .linalg import DEFAULT_MODULUS, EXACT_RATIONAL, MODULAR, FieldConfig
from .scanner import (
    ALL_CHECKS,
    CHECK_CASTELNUOVO,
    CHECK_PROJECTION,
    S_POLICIES,
    THEOREM_RANGE,
    ScanGrid,
    VerifySummary,
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
from .terracini import SampleConfig, SegreVeroneseParams

_BACKENDS = {"modular": MODULAR, "exact": EXACT_RATIONAL}
_GRID_CELL = re.compile(r"\(\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\)")
_SUITE_CHECKS = {
    "theorem": ALL_CHECKS,
    "castelnuovo": (CHECK_CASTELNUOVO, CHECK_PROJECTION),
}


@dataclass(frozen=True)
class CliConfig:
    """Parsed global flags."""

    prime: int
    seed: int
    trials: int
    backend: str
    format: str
    output: str | None

    def sample_config(self) -> SampleConfig:
        return SampleConfig(
            seed=self.seed,
            trials=self.trials,
            field=FieldConfig(modulus=self.prime, backend=_BACKENDS[self.backend]),
        )


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--prime",
        type=int,
        default=DEFAULT_MODULUS,
        help="field characteristic (prime, must exceed d+1)",
    )
    parser.add_argument("--seed", type=int, default=0, help="master RNG seed")
    parser.add_argument(
        "--trials", type=int, default=2, help="independent draws per cell"
    )
    parser.add_argument(
        "--backend",
        choices=sorted(_BACKENDS),
        default="modular",
        help="arithmetic backend",
    )
    parser.add_argument(
        "--format", choices=("json", "csv"), default="json", help="report format"
    )
    parser.add_argument(
        "--output", default=None, help="report file (default: stdout)"
    )


def _add_grid_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--grid",
        default=None,
        help='explicit cells, e.g. "(1,2,3);(2,1,3)" (overrides the ranges)',
    )
    parser.add_argument("--n-max", type=int, default=1)
    parser.add_argument("--m-max", type=int, default=1)
    parser.add_argument("--d-min", type=int, default=3)
    parser.add_argument("--d-max", type=int, default=3)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="secantdim",
        description=(
            "Exact secant-variety dimensions for the bidegree-(1,d) "
            "embedding of P^n x P^m"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_dim = sub.add_parser("dim", help="dimension record for one cell")
    p_dim.add_argument("n", type=int)
    p_dim.add_argument("m", type=int)
    p_dim.add_argument("d", type=int)
    p_dim.add_argument("s", type=int)
    _add_common_flags(p_dim)

    p_thr = sub.add_parser("thresholds", help="certification thresholds s1, s2")
    p_thr.add_argument("n", type=int)
    p_thr.add_argument("m", type=int)
    p_thr.add_argument("d", type=int)
    _add_common_flags(p_thr)

    p_scan = sub.add_parser("scan", help="scan a grid and report every cell")
    _add_grid_flags(p_scan)
    p_scan.add_argument(
        "--s-policy", choices=S_POLICIES, default=THEOREM_RANGE
    )
    p_scan.add_argument(
        "--s-margin", type=int, default=1, help="extra s past s2 for all-up-to"
    )
    p_scan.add_argument(
        "--s-list", default=None, help="comma-separated s values for explicit"
    )
    _add_common_flags(p_scan)

    p_ver = sub.add_parser("verify", help="run a verification suite")
    p_ver.add_argument(
        "target", choices=("dictionary", "theorem", "castelnuovo")
    )
    _add_grid_flags(p_ver)
    p_ver.add_argument("--q-max", type=int, default=2)
    p_ver.add_argument("--t-max", type=int, default=2)
    _add_common_flags(p_ver)

    return parser


def _parse_grids(
    args: argparse.Namespace, s_policy: str, s_margin: int, s_list
) -> list[ScanGrid]:
    """One single-cell grid per listed --grid cell, deduplicated and in
    lexicographic order, or the one range grid."""
    if args.grid is not None:
        cells = _GRID_CELL.findall(args.grid)
        if not cells:
            raise ValueError(f"could not parse grid {args.grid!r}")
        return [
            ScanGrid((n,), (m,), (d,), s_policy, s_margin, s_list)
            for n, m, d in sorted({tuple(int(v) for v in c) for c in cells})
        ]
    return [
        grid_from_ranges(
            args.n_max, args.m_max, args.d_min, args.d_max, s_policy, s_margin, s_list
        )
    ]


def _max_degree(args: argparse.Namespace) -> int:
    if args.command in ("dim", "thresholds"):
        return args.d
    if args.grid is not None:
        cells = _GRID_CELL.findall(args.grid)
        return max((int(c[2]) for c in cells), default=args.d_max)
    return args.d_max


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    cli = CliConfig(
        prime=args.prime,
        seed=args.seed,
        trials=args.trials,
        backend=args.backend,
        format=args.format,
        output=args.output,
    )
    try:
        cfg = cli.sample_config()
        if cli.prime <= _max_degree(args) + 1:
            raise ValueError("prime must exceed d+1 for every requested d")
        if args.command == "dim":
            params = SegreVeroneseParams(args.n, args.m, args.d)
            record = scan_cell(params, args.s, cfg)
            render = records_to_json if cli.format == "json" else records_to_csv
            _emit(render([record]), cli.output)
            return 0
        if args.command == "thresholds":
            params = SegreVeroneseParams(args.n, args.m, args.d)
            th = thresholds(params)
            data = {
                "n": args.n,
                "m": args.m,
                "d": args.d,
                "s1": th.s1,
                "s2": th.s2,
                "divisible": th.divisible,
                "uncovered": th.uncovered,
            }
            if cli.format == "json":
                text = json.dumps(data, indent=2) + "\n"
            else:
                keys = list(data)
                values = [
                    "true" if v is True else "false" if v is False else str(v)
                    for v in data.values()
                ]
                text = ",".join(keys) + "\n" + ",".join(values) + "\n"
            _emit(text, cli.output)
            return 0
        if args.command == "scan":
            s_list = (
                tuple(int(x) for x in args.s_list.split(","))
                if args.s_list
                else ()
            )
            grids = _parse_grids(args, args.s_policy, args.s_margin, s_list)
            records = [r for grid in grids for r in scan(grid, cfg)]
            render = records_to_json if cli.format == "json" else records_to_csv
            _emit(render(records), cli.output)
            return 0
        # verify
        parts = [
            verify_dictionary_grid(grid, cfg)
            if args.target == "dictionary"
            else verify_theorem_suite(
                grid,
                cfg,
                q_max=args.q_max,
                t_max=args.t_max,
                checks=_SUITE_CHECKS[args.target],
            )
            for grid in _parse_grids(args, THEOREM_RANGE, 1, ())
        ]
        summary = VerifySummary(
            sum(part.cells_checked for part in parts),
            tuple(f for part in parts for f in part.failures),
        )
        render = summary_to_json if cli.format == "json" else summary_to_csv
        _emit(render(summary), cli.output)
        return 0 if summary.ok else 1
    except (ValueError, OverflowError) as exc:
        print(f"secantdim: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
