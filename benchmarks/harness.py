"""One workload in one process: run its report repeatedly and measure it.

Run by run.py as `python3 benchmarks/harness.py --workload W --seed S
--seconds T --trace 0|1` with the checkout's src/ first on PYTHONPATH.
Prints one JSON object on its last stdout line; run.py adds the result
framing. The workload runs on one thread in this process, so the peak
resident memory belongs to this workload alone.
"""

from __future__ import annotations

import argparse
import json
import resource
import select
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from tracing import Tracer, layer_totals, median_totals
from workloads import ROOT, load_workloads

MIN_REPORTS = 3
# fresh-interpreter imports timed after each untraced report, so the set-up
# samples are spread over the whole run, as the report times are
SETUP_SAMPLES_PER_REPORT = 3
IMPORT_TIMEOUT_S = 60.0


def time_import() -> float:
    """Seconds from starting an interpreter to `import secantdim.cli` done.

    The child writes one line once the import is done; `select` wakes on it
    at once, where `Popen.wait(timeout)` would poll in steps of up to 50 ms.
    The child inherits this process's environment, so it imports the same
    library with the same thread settings.
    """
    command = [sys.executable, "-c", "import secantdim.cli; print(flush=True)"]
    start = perf_counter()
    with subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE) as child:
        ready, _, _ = select.select([child.stdout], [], [], IMPORT_TIMEOUT_S)
        elapsed = perf_counter() - start
        if not ready:
            child.kill()
        line = child.stdout.read()
    if child.returncode != 0 or line != b"\n":
        raise RuntimeError("`import secantdim.cli` failed in a fresh interpreter")
    return elapsed


def cycles(seconds: float):
    """Yield once per measurement cycle, at least MIN_REPORTS times.

    The run stops at the cycle boundary nearest to `seconds`, so a slow last
    report does not lengthen it by a whole cycle.
    """
    start = perf_counter()
    count = 0
    while True:
        cycle_start = perf_counter()
        yield
        count += 1
        now = perf_counter()
        if count >= MIN_REPORTS and now - start + (now - cycle_start) / 2 >= seconds:
            return


def run_report(workload, cfg, tracer=None):
    """Produce the workload's full report once; time it and each row."""
    row_times = []
    results = []
    start = perf_counter()
    for index, cell in enumerate(workload.rows):
        row_start = perf_counter()
        if tracer is None:
            results.append(workload.run_row(cell, cfg))
        else:
            tracer.row = index
            results.append(
                tracer.span("workload.row", workload.run_row, cell, cfg)
            )
        row_times.append(perf_counter() - row_start)
    if tracer is not None:
        tracer.row = None
    report = workload.render(results)
    return results, report, perf_counter() - start, row_times


def measure(workload, cfg, seed: int, seconds: float) -> dict:
    """Untraced reports and set-up samples until `seconds` have passed;
    end-to-end metrics, each a median over the run."""
    walls: list[float] = []
    setups: list[float] = []
    row_samples: list[list[float]] = [[] for _ in workload.rows]
    attempted = failed = 0
    # one untimed import first, so compiled bytecode is cached as it is for
    # any user after the first run
    time_import()
    for _ in cycles(seconds):
        results, report, wall, row_times = run_report(workload, cfg)
        walls.append(wall)
        for samples, t in zip(row_samples, row_times):
            samples.append(t)
        attempted += len(workload.rows)
        failed += workload.failed_rows(results, report, seed)
        setups.extend(time_import() for _ in range(SETUP_SAMPLES_PER_REPORT))
    # each row's own median over reports, then the median over rows
    row_p50 = statistics.median(statistics.median(s) for s in row_samples)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "attempted": attempted,
        "failed": failed,
        "bytes_equal": True,
        "reports": len(walls),
        "setup_samples": len(setups),
        "metrics": {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(walls),
            "row_p50_ms": row_p50 * 1000.0,
            "peak_rss_mb": peak_kib / 1024.0,
        },
    }


def measure_traced(workload, cfg, seed: int, seconds: float,
                   spans_path: Path) -> dict:
    """Alternate untraced and traced reports; per-layer metrics.

    The traced report must be byte-identical to the untraced one. Tracing
    overhead is the traced median wall time minus the untraced one.
    """
    plain_walls: list[float] = []
    traced_walls: list[float] = []
    totals = []
    first = None
    attempted = failed = 0
    bytes_equal = True
    for _ in cycles(seconds):
        results, plain, wall, _ = run_report(workload, cfg)
        plain_walls.append(wall)
        attempted += len(workload.rows)
        failed += workload.failed_rows(results, plain, seed)
        with Tracer() as tracer:
            _, traced, wall, _ = run_report(workload, cfg, tracer)
        traced_walls.append(wall)
        bytes_equal = bytes_equal and traced == plain
        totals.append(layer_totals(tracer.spans))
        first = first or tracer
    first.dump(spans_path)
    metrics = median_totals(totals)
    metrics["trace.overhead_s"] = (
        statistics.median(traced_walls) - statistics.median(plain_walls)
    )
    return {
        "attempted": attempted,
        "failed": failed,
        "bytes_equal": bytes_equal,
        "reports": len(totals),
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    import numpy
    import secantdim
    from secantdim.terracini import SampleConfig

    src = (ROOT / "src").resolve()
    if src not in Path(secantdim.__file__).resolve().parents:
        print(f"harness: secantdim was not imported from {src}", file=sys.stderr)
        return 2

    workloads = load_workloads()
    if args.workload not in workloads:
        print(f"harness: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = workloads[args.workload]
    cfg = SampleConfig(seed=args.seed)
    if args.trace:
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"{workload.name}.seed{args.seed}.spans.jsonl"
        result = measure_traced(
            workload, cfg, args.seed, args.seconds, spans_path
        )
        print(f"harness: spans of one traced report in {spans_path}",
              file=sys.stderr)
    else:
        result = measure(workload, cfg, args.seed, args.seconds)
    result["numpy"] = numpy.__version__
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
