"""perfbench: the repository's benchmark.

Usage::

    python3 perfbench/run.py --workload serve_mix|batch_wide|hls_fig15 \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src``.
``--trace 0`` measures the end-to-end metrics, ``--trace 1`` runs the
same workload with spans around the calls into each layer and prints
the per-layer metrics.  Informational lines come first; the last line
of standard output is the JSON result
``{"correct", "attempted", "failed", "metrics"}``.  Details (host
fingerprint, ladder, samples) and the span traces go to
``perfbench/out/``.

Exit status: 0 when every output was correct; 1 when a check failed
(after the result line) or when the benchmark could not run, for
instance without the program's source (no result line); 2 on bad
arguments.
"""

from __future__ import annotations

import argparse
import sys
import time

from benchlib import BenchError, Result, use_source_tree

WORKLOADS = ("serve_mix", "batch_wide", "hls_fig15")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="perfbench/run.py")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    try:
        use_source_tree()
        import layers
        module = __import__(args.workload)
        res = Result()
        t0 = time.perf_counter()
        if args.trace:
            layers.emit(res, module.run_traced(res, args.seed,
                                               args.seconds))
        else:
            module.run(res, args.seed, args.seconds)
        res.details.update(workload=args.workload, seed=args.seed,
                           seconds=args.seconds, trace=args.trace,
                           wall_s=time.perf_counter() - t0)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    res.write_details(f"{args.workload}-{args.seed}-t{args.trace}")
    for what in res.mismatches[:20]:
        print(f"MISMATCH {what}", file=sys.stderr)
    return res.emit()


if __name__ == "__main__":
    sys.exit(main())
