"""``hls_fig15``: the paper's application flow (Fig. 15).

For each of the three ``BENCHMARK_SIZES`` trajectory solvers:
``trajectory_problem`` -> ``generate_kernel`` -> ``parse_program`` ->
baseline ``list_schedule``, then for pcs and fcs ``parse_program`` ->
``run_fma_insertion`` (its mandatory format-flow verifier left on) ->
``list_schedule``.  One such flow over all three solvers is one sample;
successive flows use successive problem seeds.  All the load is on
``solvers``, ``hls`` and ``analysis``; ``batch`` and ``serve`` are
bypassed.

Correctness: every schedule length must equal the Fig. 15 table of
EXPERIMENTS.md, for every seed; the lengths are the paper's headline
numbers, so a change that only makes the flow faster leaves them alone.
"""

from __future__ import annotations

import sys
import time
from contextlib import nullcontext

from benchlib import HERE, OUT, median, peak_rss_mb_self, probe_setup
from layers import FLAVORS
from spans import SELF_TIME_TOLERANCE, Tracer

#: Fig. 15 schedule lengths: solver -> (baseline, pcs, fcs) cycles
TABLE = {"small": (321, 233, 145), "medium": (703, 578, 352),
         "large": (1099, 923, 559)}
FMA_LIMIT = 39
MIN_FLOWS = 3
SETUP_SAMPLES = 5


def compile_one(source: str, outputs, flavor: str, tr=None, parent=None,
                tag: str = ""):
    """parse -> FMA pass -> schedule for one flavor, each step a span of
    ``tr`` when given; returns ``(graph, pass report, cycles)``."""
    from repro.hls import (default_library, list_schedule, parse_program,
                           run_fma_insertion)

    def span(name):
        return tr.span(name, parent) if tr is not None else nullcontext()

    with span("hls.parse"):
        g = parse_program(source, outputs=outputs)
    lib = default_library(fma_flavor=flavor, fma_limit=FMA_LIMIT)
    with span(f"hls.fma_pass.{tag}{flavor}"):
        report = run_fma_insertion(g, lib)
    with span("hls.schedule"):
        cycles = list_schedule(g, lib).length
    return g, report, cycles


def flow(seed: int, tr: Tracer) -> dict:
    """One Fig. 15 flow, one ``hls_fig15.flow`` span of ``tr`` with a
    child span per step; returns ``{solver: {...}}`` with the cycles,
    statement count, node count, pass reports and graphs."""
    from repro.hls import default_library, list_schedule, parse_program
    from repro.solvers import (BENCHMARK_SIZES, generate_kernel,
                               trajectory_problem)

    root = tr.add("hls_fig15.flow", time.perf_counter_ns(), 0)

    def span(name):
        return tr.span(name, root)

    out = {}
    for name, horizon, obstacles in BENCHMARK_SIZES:
        with span("solvers.codegen"):
            kernel = generate_kernel(
                trajectory_problem(horizon, obstacles, seed=seed))
        with span("hls.parse"):
            g0 = parse_program(kernel.source, outputs=kernel.output_names)
        with span("hls.schedule"):
            baseline = list_schedule(g0, default_library()).length
        row = {"cycles": [baseline], "statements": kernel.statement_count,
               "nodes": len(g0), "reports": {}, "graphs": {}}
        for flavor in FLAVORS:
            g, report, cycles = compile_one(
                kernel.source, kernel.output_names, flavor, tr, root,
                tag=f"{name}.")
            row["cycles"].append(cycles)
            row["reports"][flavor] = report
            row["graphs"][flavor] = g
        out[name] = row
    tr.ends[root] = time.perf_counter_ns()
    return out


def check(res, result: dict, seed: int) -> None:
    for name, row in result.items():
        res.attempted += len(row["cycles"])
        want = TABLE[name]
        bad = sum(1 for got, exp in zip(row["cycles"], want) if got != exp)
        if bad:
            res.failed += bad
            res.mismatch(f"hls_fig15 {name} seed {seed}: cycles "
                         f"{row['cycles']} != Fig. 15 {list(want)}")


def flow_s(tr: Tracer) -> float:
    """Median flow time: every flow records the same steps in the same
    order, so take each step's median time over the flows (and the
    median remainder of the flow span) and add them up.  On a shared
    host the median moved less from run to run than the shortest
    time, which follows rare fast spells."""
    self_ns = tr.self_times_ns()
    per_flow = []
    for root in tr.roots():
        kids = [i for i, p in enumerate(tr.parents) if p == root]
        per_flow.append([tr.duration_ns(i) for i in kids] + [self_ns[root]])
    return sum(median(col) for col in zip(*per_flow)) / 1e9


def _flows(res, seed: int, seconds: float) -> "tuple[Tracer, int]":
    """Flows on seeds ``seed``, ``seed+1``, ... while at least half a
    flow of ``seconds`` remains, and at least MIN_FLOWS of them (a median
    of fewer than three barely filters the host's slow spells)."""
    tr = Tracer()
    t_end = time.perf_counter() + seconds
    k = 0
    while True:
        t0 = time.perf_counter()
        result = flow(seed + k, tr)
        took = time.perf_counter() - t0
        check(res, result, seed + k)
        statements = sum(r["statements"] * len(FLAVORS)
                         for r in result.values())
        k += 1
        if (k >= MIN_FLOWS
                and time.perf_counter() + 0.5 * took >= t_end):
            return tr, statements


def run(res, seed: int, seconds: float) -> None:
    setups = [probe_setup([sys.executable, str(HERE / "probe.py"),
                           "hls_fig15"], "ready")
              for _ in range(SETUP_SAMPLES)]
    tr, statements = _flows(res, seed, seconds)
    one_flow = flow_s(tr)
    flows = [tr.duration_ns(i) / 1e9 for i in tr.roots()]
    res.metric("setup_s", median(setups), "s")
    res.metric("ok_frac", 1.0 - res.failed / res.attempted, "frac")
    res.metric("peak_rss_mb", peak_rss_mb_self(), "MB")
    res.metric("latency_ms", one_flow * 1e3, "ms")
    res.metric("throughput_per_s", statements / one_flow, "1/s")
    res.details.update(setup_samples_s=setups, flows_s=flows,
                       table=TABLE)
    print(f"hls_fig15: median flow {one_flow:.2f}s of "
          + " ".join(f"{t:.2f}s" for t in flows)
          + f"; Fig. 15 cycles {TABLE} matched: {not res.mismatches}"
          + f"; setup {setups}", flush=True)


def run_traced(res, seed: int, seconds: float) -> dict:
    from layers import first_call_s
    from repro.analysis.format_flow import verify_format_flow

    first = first_call_s()
    t0 = time.perf_counter()
    base = flow(seed, Tracer())
    base_s = time.perf_counter() - t0
    check(res, base, seed)
    tr = Tracer()
    result = flow(seed + 1, tr)
    check(res, result, seed + 1)
    traced_s = tr.duration_ns(tr.roots()[0]) / 1e9
    tr.dump(OUT / f"trace-hls_fig15-{seed}.jsonl")
    ratio = tr.selftime_ratio()
    if abs(ratio - 1.0) > SELF_TIME_TOLERANCE:
        res.mismatch(f"hls_fig15 trace self times sum to {ratio:.3f} "
                     f"of the flow time")
    verify_s = 0.0
    for row in result.values():
        for g in row["graphs"].values():
            v0 = time.perf_counter()
            report = verify_format_flow(g, target="fma-pass")
            verify_s += time.perf_counter() - v0
            if not report.ok:
                res.mismatch("hls_fig15: pass output fails format flow")
    per_name = tr.name_self_ns()
    values = {"batch.first_call_s": first,
              "solvers.codegen_s": per_name.get("solvers.codegen", 0) / 1e9,
              "hls.parse_s": per_name.get("hls.parse", 0) / 1e9,
              "hls.schedule_s": per_name.get("hls.schedule", 0) / 1e9,
              "analysis.verify_s": verify_s,
              "hls.cdfg_nodes": sum(r["nodes"] for r in result.values()),
              "trace.selftime_ratio": ratio,
              "trace.overhead_ratio": traced_s / base_s}
    for name, row in result.items():
        for flavor in FLAVORS:
            values[f"hls.fma_pass_s.{name}.{flavor}"] = per_name.get(
                f"hls.fma_pass.{name}.{flavor}", 0) / 1e9
    for flavor in FLAVORS:
        values[f"hls.fma_inserted.{flavor}"] = sum(
            r["reports"][flavor].fma_inserted for r in result.values())
        values[f"hls.pass_rounds.{flavor}"] = sum(
            r["reports"][flavor].iterations for r in result.values())
    values["_flow_s"] = {"untraced": base_s, "traced": traced_s}
    return values
