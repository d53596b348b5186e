"""The metric catalogue and the helpers every traced run shares.

``END_TO_END`` and ``PER_LAYER`` mirror ``BENCHMARK.json`` (the tests
check that they agree).  Every run prints every metric of its mode; a
per-layer metric of a layer the workload bypasses reads 0, because the
layer did no work.
"""

from __future__ import annotations

import time

END_TO_END = (
    ("setup_s", "s"),
    ("ok_frac", "frac"),
    ("peak_rss_mb", "MB"),
    ("latency_ms", "ms"),
    ("throughput_per_s", "1/s"),
)

HLS_SOLVERS = ("small", "medium", "large")
FLAVORS = ("pcs", "fcs")

PER_LAYER = (
    ("batch.first_call_s", "s"),
    ("serve.codec_us", "us"),
    ("serve.queue_ms.p50", "ms"),
    ("serve.queue_ms.p99", "ms"),
    ("serve.exec_ms.p50", "ms"),
    ("serve.request_ms.p50", "ms"),
    ("serve.request_ms.p99", "ms"),
    ("serve.frontend_ms", "ms"),
    ("serve.batch_size.mean", "count"),
    ("serve.rejected_frac", "frac"),
    ("serve.payload_ms", "ms"),
    ("loadgen.late_ms.p50", "ms"),
    ("loadgen.late_ms.p99", "ms"),
    ("batch.convert_us_per_lane.pcs", "us"),
    ("batch.convert_us_per_lane.fcs", "us"),
    ("batch.fma_us_per_lane.pcs", "us"),
    ("batch.fma_us_per_lane.fcs", "us"),
    ("batch.dot_us_per_elem", "us"),
    ("batch.vector_frac", "frac"),
    ("batch.vector.fallback", "count"),
    ("batch.vector.fallback.small-batch", "count"),
    ("batch.vector.deferred", "count"),
    ("batch.vector.deferred.special", "count"),
    ("solvers.codegen_s", "s"),
    ("hls.parse_s", "s"),
    *((f"hls.fma_pass_s.{s}.{f}", "s")
      for s in HLS_SOLVERS for f in FLAVORS),
    ("hls.schedule_s", "s"),
    ("analysis.verify_s", "s"),
    ("hls.cdfg_nodes", "count"),
    ("hls.fma_inserted.pcs", "count"),
    ("hls.fma_inserted.fcs", "count"),
    ("hls.pass_rounds.pcs", "count"),
    ("hls.pass_rounds.fcs", "count"),
    ("fma.oracle_us_per_op", "us"),
    ("trace.selftime_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
)


def vector_counters(values: dict, counters: dict) -> None:
    """Fill the ``batch.vector*`` metrics from telemetry counters."""
    calls = counters.get("batch.fma.calls", 0) + counters.get(
        "batch.dot.calls", 0)
    fallback = counters.get("batch.vector.fallback", 0)
    values["batch.vector_frac"] = (1.0 - fallback / calls) if calls else 0.0
    for name in ("batch.vector.fallback",
                 "batch.vector.fallback.small-batch",
                 "batch.vector.deferred", "batch.vector.deferred.special"):
        values[name] = counters.get(name, 0)


def first_call_s() -> float:
    """Kernel build cost of the first :func:`repro.batch.fma_batch`
    call per CS unit, as first call minus an identical second call on
    512 lanes (the width where ``auto`` picks the vector engine).  Must
    run before anything else in the process has used the kernels."""
    from repro.batch import fma_batch
    from repro.fma.csfma import FcsFmaUnit, PcsFmaUnit
    from repro.fp.value import FPValue

    xs = [FPValue.from_float(1.0 + i / 512.0) for i in range(512)]
    total = 0.0
    for unit in (PcsFmaUnit(), FcsFmaUnit()):
        t0 = time.perf_counter()
        fma_batch(xs, xs, xs, unit=unit)
        t1 = time.perf_counter()
        fma_batch(xs, xs, xs, unit=unit)
        t2 = time.perf_counter()
        total += (t1 - t0) - (t2 - t1)
    return total


def emit(res, values: dict) -> None:
    """Put every per-layer metric on the result, 0 where not measured."""
    for name, unit in PER_LAYER:
        res.metric(name, values.get(name, 0.0), unit)
    res.details["layers_extra"] = {k: v for k, v in values.items()
                                   if k.startswith("_")}
