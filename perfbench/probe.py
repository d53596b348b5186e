"""One set-up sample for the offline workloads.

``python3 perfbench/probe.py batch_wide|hls_fig15`` imports the
program, builds what the workload's first calls build (one payload of
each kind at the narrowest width that takes the vector engine, or the
small solver's pcs compile), checks the first result and prints
``ready``; the parent times it from spawn to that
line.  ``serve_mix`` times its own set-up, on the server it starts.
"""

from __future__ import annotations

import sys

from benchlib import use_source_tree


def batch_wide() -> bool:
    """One payload per kind, just wide enough for the vector engine."""
    import random

    from batch_wide import KINDS, make_payload
    from repro.serve import Request, execute_payload, reference_result

    rng = random.Random(0)
    ok = True
    for op, fmt in KINDS:
        payload = make_payload(rng, op, fmt, lanes=512, dot_items=32)
        records = execute_payload(payload)
        a, b, c = payload["items"][0]
        req = Request(req_id=0, op=payload["op"], fmt=payload["fmt"],
                      a=a, b=b, c=c)
        ok &= tuple(records[0]) == tuple(reference_result(req))
    return ok


def hls_fig15() -> bool:
    from hls_fig15 import TABLE, compile_one
    from repro.solvers import (BENCHMARK_SIZES, generate_kernel,
                               trajectory_problem)

    name, horizon, obstacles = BENCHMARK_SIZES[0]
    kernel = generate_kernel(trajectory_problem(horizon, obstacles))
    _g, _report, cycles = compile_one(kernel.source, kernel.output_names,
                                      "pcs")
    return cycles == TABLE[name][1]


def main() -> int:
    use_source_tree()
    probes = {"batch_wide": batch_wide, "hls_fig15": hls_fig15}
    if len(sys.argv) != 2 or sys.argv[1] not in probes:
        print(f"usage: probe.py {'|'.join(probes)}", file=sys.stderr)
        return 2
    if not probes[sys.argv[1]]():
        print("first result is wrong", file=sys.stderr)
        return 1
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
