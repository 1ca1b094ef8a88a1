"""secantdim benchmark: one workload, one run, one JSON result line.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload scan-d34 --seed 0 --seconds 40 --trace 0

--trace 0 prints the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones (plus a spans file under .bench_out/). The library is
imported from the checkout's src/ in a fresh child process per workload,
with thread pools pinned to one thread. The last stdout line is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

where `attempted` counts report rows produced and `failed` the rows that
disagree with the reference, so failed / attempted is the failed fraction.
Exit status 2 means the checkout cannot be benchmarked (no src/secantdim,
no fixture, bad arguments); no result line is printed then.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
CHILD_TIMEOUT_S = 170.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # a fixed string-hash seed removes one source of run-to-run variation
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def fail(message: str) -> int:
    print(f"benchmark: {message}", file=sys.stderr)
    return 2


def machine_info(numpy_version: str, env: dict) -> dict:
    return {
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "threads": {var: env[var] for var in THREAD_VARS},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "secantdim" / "__init__.py").is_file():
        return fail(f"no secantdim sources under {ROOT / 'src'}")
    if not (ROOT / "tests" / "fixtures" / "defective_d2.json").is_file():
        return fail("the defect fixture tests/fixtures/defective_d2.json is missing")
    if not spec_path.is_file():
        return fail("BENCHMARK.json is missing")
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        return fail(f"unknown workload {args.workload!r}")
    if args.seed < 0 or args.seconds <= 0:
        return fail("--seed must be >= 0 and --seconds > 0")
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    env = child_env()
    command = [
        sys.executable, str(BENCH_DIR / "harness.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    try:
        child = subprocess.run(command, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                               text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail(f"workload {args.workload} ran past {CHILD_TIMEOUT_S} s")
    if child.returncode != 0:
        return fail(f"harness exited with status {child.returncode}")
    result = json.loads(child.stdout.strip().splitlines()[-1])

    values = result["metrics"]
    if set(values) != set(units):
        return fail(f"measured {sorted(values)}, declared {sorted(units)}")
    attempted, failed = result["attempted"], result["failed"]
    print(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "reports": result["reports"],
                "setup_samples": result.get("setup_samples"),
                "failed_frac": failed / attempted,
                "traced_bytes_equal": result["bytes_equal"],
                "machine": machine_info(result["numpy"], env),
            }
        ),
        file=sys.stderr,
    )
    print(
        json.dumps(
            {
                "correct": failed == 0 and result["bytes_equal"],
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": values[name], "unit": units[name]}
                    for name in units
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
