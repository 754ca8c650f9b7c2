"""Run the repository benchmark: one workload, or all of them.

Usage::

    python3 perfbench/run.py --workload batch --seed 7 --seconds 10 --trace 0
    python3 perfbench/run.py            # every workload, one child process each

Workloads (see ``perfbench/METRICS.md`` for every metric):

* ``batch``   -- ``run_pipeline(dataset, eco)`` with library defaults;
* ``durable`` -- ``run_pipeline(..., checkpoint_dir=...)``, then a resume;
* ``serve``   -- a ``repro serve`` daemon fed by a closed-loop collector
  while an open-loop client queries it, then restarted with ``--resume``.

With ``--trace 0`` the last stdout line is the end-to-end result; with
``--trace 1`` it carries the per-layer metrics from a traced run.  The
exit code is non-zero when any correctness gate fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import traceback
from typing import List, Optional

import common

WORKLOADS = ("batch", "durable", "serve")
#: The seed workloads are tuned on, and the one a claimed gain must
#: also hold on (data the change was not written against).
DEFAULT_SEED = 7
CONFIRM_SEED = 1009
#: User-facing figures kept in the run metadata rather than as end-to-end
#: metrics (see METRICS.md), printed with the metrics where a workload
#: has them.
USER_FIGURES = (
    ("ack_p95_ms", "ms"),
    ("query_p50_ms", "ms"),
    ("query_p90_ms", "ms"),
    ("resume_rows_per_s", "rows/s"),
)


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process, so peak RSS is its own."""
    code = 0
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        child = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            check=False,
        )
        code = code or child.returncode
    return code


def run_one(args: argparse.Namespace) -> int:
    env = common.pin_environment()
    common.import_program()
    result = common.Result()
    try:
        if args.workload == "serve":
            import serve_workload

            serve_workload.run(args.seed, args.seconds, bool(args.trace), result, env)
        else:
            import pipeline_workloads

            pipeline_workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), result)
    except Exception:
        traceback.print_exc()
        print(f"{args.workload}: run failed; no result", file=sys.stderr)
        return 1
    result.meta = common.run_metadata(
        args.seed, CONFIRM_SEED, workload=args.workload, trace=args.trace, **result.meta
    )
    print("meta " + json.dumps(result.meta, sort_keys=True))
    for name, m in result.metrics.items():
        print(f"{name:34s} {m['value']:>16.6g} {m['unit']}")
    if not args.trace:
        for name, unit in USER_FIGURES:
            if name in result.meta:
                print(f"{name:34s} {result.meta[name]:>16.6g} {unit}  (run metadata)")
        failed_frac = result.failed / max(result.attempted, 1)
        print(f"{'failed_frac':34s} {failed_frac:>16.6g} ratio  (failed / attempted)")
    for error in result.errors:
        print(f"CORRECTNESS: {error}", file=sys.stderr)
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": result.metrics,
    }), flush=True)
    return 0 if result.correct else 1


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not common.program_available():
        print(f"no program to benchmark: {common.SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
