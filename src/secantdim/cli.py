"""Command-line surface: dim, thresholds, scan, verify.

Exit status is 0 on success (scan reports defect candidates without
failing), 1 when a verification finds failures, 2 on invalid parameters or
a report that cannot be written.
Identical invocations produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from .expected import thresholds
from .linalg import DEFAULT_MODULUS, EXACT_RATIONAL, MODULAR, FieldConfig, brief
from .scanner import (
    ALL_CHECKS,
    ALL_UP_TO,
    CHECK_CASTELNUOVO,
    CHECK_PROJECTION,
    EXPLICIT,
    Q_MAX,
    S_POLICIES,
    T_MAX,
    THEOREM_RANGE,
    ScanGrid,
    VerifySummary,
    _csv_value,
    dictionary_rows,
    grid_from_ranges,
    records_to_csv,
    records_to_json,
    scan,
    scan_rows,
    summary_to_csv,
    summary_to_json,
    theorem_cells,
    theorem_entries,
    verify_dictionary_grid,
    verify_theorem_suite,
)
from .terracini import SampleConfig, SegreVeroneseParams

_BACKENDS = {"modular": MODULAR, "exact": EXACT_RATIONAL}
_GRID_CELL = re.compile(r"\s*\(\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\)\s*")
# a refusal echoes at most this much of an unparsed --grid or --s-list entry
_ECHO_CHARS = 40
# the most --trials accepted. A row that never reaches its rank cap runs
# every trial, and a shortfall reruns them over Q at twice the count:
# dim 2 3 2 5 takes about 0.5, 1.4 and 14 s at 10, 100 and 1,000 trials
MAX_TRIALS = 1000
# the most condition-matrix entries a verify theorem or castelnuovo run may
# build, summed over every case's spanned configuration
# (scanner.theorem_entries). The time follows the entries more closely than
# the rows or the cases: in process at 2 trials, (1,1,3) --t-max 0 --q-max
# 300, 400 and 447 (3.6, 6.4 and 8.0 million entries) take 3.8, 8.0 and
# 10.8 s, (1,1,3) --q-max 1 --t-max 995 (8.0 million) 14.2 s, (2,5,3)
# --q-max 2 --t-max 100 (6.8 million) 5.9 s and (4,4,4) --q-max 2 --t-max 20
# (2.3 million) 1.6 s, between 0.7 and 1.8 us an entry but 8 to 420 us a row
MAX_RUN_ENTRIES = 4_000_000
_SUITE_CHECKS = {
    "theorem": ALL_CHECKS,
    "castelnuovo": (CHECK_CASTELNUOVO, CHECK_PROJECTION),
}


def integer(text: str) -> int:
    """An integer argument. A string longer than Python converts to int (4300
    digits by default) is refused by its length: int() would raise, and the
    refusal would echo the whole string."""
    limit = sys.get_int_max_str_digits()
    if limit and len(text) > limit:
        raise argparse.ArgumentTypeError(
            f"{len(text)} characters, more than the {limit} digits an integer "
            "may have"
        )
    return int(text)


def _add_sampling_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--prime",
        type=integer,
        default=DEFAULT_MODULUS,
        help="field characteristic (prime, must exceed d+1)",
    )
    parser.add_argument("--seed", type=integer, default=0, help="master RNG seed")
    parser.add_argument(
        "--trials", type=integer, default=2, help="independent draws per cell"
    )
    parser.add_argument(
        "--backend",
        choices=sorted(_BACKENDS),
        default="modular",
        help="arithmetic backend",
    )


def _add_report_flags(parser: argparse.ArgumentParser) -> None:
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
        help='explicit cells separated by ";", e.g. "(1,2,3);(2,1,3)" '
        "(overrides the ranges)",
    )
    parser.add_argument("--n-max", type=integer, default=1)
    parser.add_argument("--m-max", type=integer, default=1)
    parser.add_argument("--d-min", type=integer, default=3)
    parser.add_argument("--d-max", type=integer, default=3)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="secantdim",
        description=(
            "Exact secant-variety dimensions for the bidegree-(1,d) "
            "embedding of P^n x P^m"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # short usage lines: a refusal prints one, and -h lists every option
    p_dim = sub.add_parser(
        "dim",
        help="dimension record for one cell",
        usage="%(prog)s n m d s [options]",
    )
    p_dim.add_argument("n", type=integer)
    p_dim.add_argument("m", type=integer)
    p_dim.add_argument("d", type=integer)
    p_dim.add_argument("s", type=integer)
    _add_sampling_flags(p_dim)
    _add_report_flags(p_dim)

    p_thr = sub.add_parser(
        "thresholds",
        help="certification thresholds s1, s2",
        usage="%(prog)s n m d [options]",
    )
    p_thr.add_argument("n", type=integer)
    p_thr.add_argument("m", type=integer)
    p_thr.add_argument("d", type=integer)
    _add_report_flags(p_thr)

    p_scan = sub.add_parser(
        "scan",
        help="scan a grid and report every cell",
        usage="%(prog)s [options]",
    )
    _add_grid_flags(p_scan)
    p_scan.add_argument(
        "--s-policy", choices=S_POLICIES, default=THEOREM_RANGE
    )
    p_scan.add_argument(
        "--s-margin",
        type=integer,
        default=None,
        help="extra s past s2 (all-up-to only)",
    )
    p_scan.add_argument(
        "--s-list",
        default=None,
        help="comma-separated s values (explicit only; an error otherwise)",
    )
    _add_sampling_flags(p_scan)
    _add_report_flags(p_scan)

    p_ver = sub.add_parser(
        "verify",
        help="run a verification suite",
        usage="%(prog)s {dictionary,theorem,castelnuovo} [options]",
        description=(
            "theorem and castelnuovo check the induction step for d >= 3 and "
            "skip every cell with d < 3; a grid of such cells reports "
            "cellsChecked 0. They run q_max (t_max + 1) cases per cell, and the "
            "condition matrices of a run's spanned configurations may hold "
            f"at most {MAX_RUN_ENTRIES:,} entries in all. A dictionary or formula "
            "mismatch is rechecked once over Q at doubled trials before it fails"
        ),
    )
    p_ver.add_argument(
        "target", choices=("dictionary", "theorem", "castelnuovo")
    )
    _add_grid_flags(p_ver)
    p_ver.add_argument(
        "--q-max",
        type=integer,
        default=None,
        help="largest q, s = (n+1)q, at least 1 (theorem and castelnuovo only)",
    )
    p_ver.add_argument(
        "--t-max",
        type=integer,
        default=None,
        help="largest span count t, at least 0 (theorem and castelnuovo only)",
    )
    _add_sampling_flags(p_ver)
    _add_report_flags(p_ver)

    return parser


def _refusal(what: str, text: str) -> ValueError:
    """The refusal of unparsed text, quoting at most _ECHO_CHARS of it."""
    cut = f" ({len(text)} characters)" if len(text) > _ECHO_CHARS else ""
    return ValueError(f"could not parse {what} {text[:_ECHO_CHARS]!r}{cut}")


def _parse_grids(args: argparse.Namespace) -> list[ScanGrid]:
    """The grids a command runs. dim n m d s is the one-cell grid with the
    explicit s list (s,), so it runs as a scan of that cell. Otherwise: one
    single-cell grid per listed --grid cell, deduplicated and in
    lexicographic order, or the one range grid. scan takes its s policy from
    the flags, with the distinct --s-list values; verify walks the theorem
    range."""
    if args.command == "dim":
        return [ScanGrid((args.n,), (args.m,), (args.d,), EXPLICIT, s_list=(args.s,))]
    if args.command == "scan":
        if args.s_margin is not None and args.s_policy != ALL_UP_TO:
            raise ValueError(f"--s-margin needs --s-policy {ALL_UP_TO}")
        s_list = set()
        for entry in args.s_list.split(",") if args.s_list else ():
            try:
                s_list.add(int(entry))
            except ValueError:
                raise _refusal("--s-list entry", entry) from None
        margin = 1 if args.s_margin is None else args.s_margin
        policy = (args.s_policy, margin, tuple(sorted(s_list)))
    else:
        if args.target == "dictionary" and (
            args.q_max is not None or args.t_max is not None
        ):
            raise ValueError(
                "--q-max and --t-max apply only to verify theorem and "
                "verify castelnuovo"
            )
        policy = (THEOREM_RANGE, 1, ())
    if args.grid is None:
        return [
            grid_from_ranges(args.n_max, args.m_max, args.d_min, args.d_max, *policy)
        ]
    cells = set()
    for text in args.grid.split(";"):
        match = _GRID_CELL.fullmatch(text)
        if match is None:
            raise _refusal("grid cell", text)
        cells.add(tuple(int(v) for v in match.groups()))
    return [ScanGrid((n,), (m,), (d,), *policy) for n, m, d in sorted(cells)]


def _emit(text: str, output: str | None) -> None:
    """Write the report to output, or to stdout. Either one unwritable is a
    refusal, a closed pipe on stdout included."""
    if output is None:
        try:
            sys.stdout.write(text)
            sys.stdout.flush()
        except BrokenPipeError as exc:
            # what is left buffered goes to devnull, so the flush at exit
            # cannot fail again and print "Exception ignored"
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            raise ValueError(f"cannot write stdout: {exc.strerror}") from exc
        return
    try:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write {output!r}: {exc.strerror}") from exc


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "thresholds":
            th = thresholds(SegreVeroneseParams(args.n, args.m, args.d))
            data = {
                "n": args.n,
                "m": args.m,
                "d": args.d,
                "s1": th.s1,
                "s2": th.s2,
                "divisible": th.divisible,
                "uncovered": th.uncovered,
            }
            if args.format == "json":
                text = json.dumps(data, indent=2) + "\n"
            else:
                values = (_csv_value(v) for v in data.values())
                text = ",".join(data) + "\n" + ",".join(values) + "\n"
            _emit(text, args.output)
            return 0
        cfg = SampleConfig(
            seed=args.seed,
            trials=args.trials,
            field=FieldConfig(modulus=args.prime, backend=_BACKENDS[args.backend]),
        )
        grids = _parse_grids(args)
        max_degree = max(d for grid in grids for d in grid.d_values)
        if args.prime <= max_degree + 1:
            raise ValueError("prime must exceed d+1 for every requested d")
        if args.trials > MAX_TRIALS:
            raise ValueError(
                f"--trials {brief(args.trials)} exceeds the limit of {MAX_TRIALS:,}"
            )
        # every grid is sized, as its run sizes it, before any cell computes
        if args.command in ("dim", "scan"):
            for grid in grids:
                scan_rows(grid, cfg)
            records = [r for grid in grids for r in scan(grid, cfg)]
            render = records_to_json if args.format == "json" else records_to_csv
            _emit(render(records), args.output)
            return 0
        if args.target == "dictionary":
            for grid in grids:
                dictionary_rows(grid, cfg)
            parts = [verify_dictionary_grid(grid, cfg) for grid in grids]
        else:
            q_max = Q_MAX if args.q_max is None else args.q_max
            t_max = T_MAX if args.t_max is None else args.t_max
            entries = sum(
                theorem_entries(params, q_max, t_max)
                for grid in grids
                for params in theorem_cells(grid, q_max, t_max)
            )
            if entries > MAX_RUN_ENTRIES:
                raise ValueError(
                    f"--q-max {brief(q_max)} and --t-max {brief(t_max)} make "
                    f"{brief(entries)} condition-matrix entries over the "
                    f"run's spanned cases, above the limit of "
                    f"{MAX_RUN_ENTRIES:,}"
                )
            checks = _SUITE_CHECKS[args.target]
            parts = [
                verify_theorem_suite(grid, cfg, q_max, t_max, checks)
                for grid in grids
            ]
        summary = VerifySummary(
            sum(part.cells_checked for part in parts),
            tuple(f for part in parts for f in part.failures),
        )
        render = summary_to_json if args.format == "json" else summary_to_csv
        _emit(render(summary), args.output)
        return 0 if summary.ok else 1
    except (ValueError, OverflowError) as exc:
        print(f"secantdim: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
