#!/usr/bin/env python3
"""spiqgan benchmark: run one workload and print its metrics.

    python3 benchmark/run.py --workload train_long_t --seed 1 --seconds 50 \
        --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it give each metric with its unit and an
environment record.  Work files go to ``benchmark/_work/<workload>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def pin_to_one_cpu() -> None:
    """Run on the highest-numbered CPU this process may use, with one BLAS
    thread; must run before numpy is imported.

    On a small VM the vCPUs can differ in speed for minutes at a time, so a
    process that lands on a different one from run to run adds spread that
    no run length averages out.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the smoke check")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    package = ROOT / "src" / "spiqgan" / "__init__.py"
    if not package.is_file():
        print(f"error: no spiqgan sources at {package.parent}; run from the "
              "root of a source checkout", file=sys.stderr)
        return 2
    pin_to_one_cpu()
    sys.path.insert(0, str(ROOT / "src"))

    import envinfo
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    if args.tiny:
        workload = workloads.tiny(workload)

    env = envinfo.record(ROOT)
    print("environment: " + json.dumps(env, sort_keys=True))
    work = BENCH_DIR / "_work" / args.workload
    result = workloads.run(workload, args.seed, args.seconds,
                           bool(args.trace), work)

    units = (tracing.per_layer_metric_units() if args.trace
             else workloads.END_TO_END_UNITS)
    for name, ok, detail in result["checks"]:
        print(f"check {name}: {'ok' if ok else 'FAILED'} ({detail})")
    print(f"rounds {result['rounds']}, commands attempted "
          f"{result['attempted']}, failed {result['failed']}")
    for name, value in result["metrics"].items():
        print(f"{name}: {value!r} {units[name]}")
    correct = all(ok for _, ok, _ in result["checks"])
    (work / "result.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed,
         "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny,
         "environment": env, "correct": correct, **result}, indent=1))
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
