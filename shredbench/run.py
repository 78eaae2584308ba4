"""Repository benchmark entry point.

    python3 shredbench/run.py --workload serve_batched --seed 1 --seconds 20 --trace 0

Runs one workload (``serve_batched``, ``serve_open`` or ``offline_learn``)
against the library under ``src/`` of the checkout this file lives in.
With ``--trace 0`` it prints every end-to-end metric ``BENCHMARK.json`` names;
with ``--trace 1`` it alternates untraced and traced rounds and prints the
per-layer metrics instead.  The last line of standard output is the
result object; the line before it holds the details (environment stamp,
host-probe readings, per-round values).  The exit code is non-zero when a
correctness check fails or the checkout has no library source.

The first run in a checkout builds the benchmark's caches (backbone
pre-training, the serving noise collection, the native kernels) in a
child process before measuring.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402  (must not import numpy before pinning BLAS)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("serve_batched", "serve_open", "offline_learn"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--warm", action="store_true", help="only build the caches")
    args = parser.parse_args(argv)
    if not args.warm and args.workload is None:
        parser.error("--workload is required")
    try:
        harness.pin_environment()
        harness.check_library_origin()
    except harness.SourceMissing as error:
        print(f"shredbench: {error}", file=sys.stderr)
        return 2

    import workloads

    if args.warm:
        workloads.warm()
        return 0
    workloads.ensure_warm()
    workload = workloads.WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace))
    result = workload.run()
    harness.emit(
        correct=result["correct"],
        attempted=result["attempted"],
        failed=result["failed"],
        metrics=result["metrics"],
        details=result["details"],
        workload=args.workload,
        seed=args.seed,
        trace=bool(args.trace),
    )
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
