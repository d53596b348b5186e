"""``batch_wide``: wide offline payloads, closed loop, one process.

Each round sends three seeded binary64 word payloads through
:func:`repro.serve.execute_payload`, back to back: fma on
``FMA_LANES`` lanes through the pcs unit, the same through the fcs
unit, and a coalesced fcs dot payload of ``DOT_ITEMS`` x ``DOT_LEN``
elements.  These widths put ``auto`` on the vector engine, where the
per-lane ``word_to_fp``/``cs_to_ieee`` conversion around the kernel
dominates.  Serve queueing, the JSON codec and ``hls`` are bypassed.

Correctness: every repeat of a payload must return the same records,
and a seeded sample of lanes and dot items is checked against
:func:`repro.serve.reference_result`, outside the timed window.
"""

from __future__ import annotations

import random
import sys
import time

from benchlib import HERE, OUT, median, peak_rss_mb_self, probe_setup
from spans import SELF_TIME_TOLERANCE, Tracer

FMA_LANES = 4096
DOT_ITEMS, DOT_LEN = 64, 256
KINDS = (("fma", "pcs"), ("fma", "fcs"), ("dot", "fcs"))
#: distinct seeded payload sets, used in turn by successive rounds
SETS = 2
MIN_ROUNDS = 4
SAMPLE_LANES = 48
SAMPLE_DOTS = 3
SETUP_SAMPLES = 5
EXP_SPREAD = 24


def _words(rng: random.Random, n: int) -> list[int]:
    """``n`` normal binary64 words, random sign and fraction, exponent
    within +-EXP_SPREAD of 1.0 (the serve load generator's range)."""
    return [(rng.getrandbits(1) << 63)
            | ((1023 + rng.randint(-EXP_SPREAD, EXP_SPREAD)) << 52)
            | rng.getrandbits(52) for _ in range(n)]


def make_payload(rng: random.Random, op: str, fmt: str,
                 lanes: int = FMA_LANES, dot_items: int = DOT_ITEMS,
                 ) -> dict:
    if op == "fma":
        a, b, c = (_words(rng, lanes) for _ in range(3))
        items = list(zip(a, b, c))
    else:
        items = [(tuple(_words(rng, DOT_LEN)), tuple(_words(rng, DOT_LEN)),
                  None) for _ in range(dot_items)]
    return {"op": op, "fmt": fmt, "items": items}


def make_payloads(seed: int) -> list[dict]:
    """``SETS`` payload sets, each ``{(op, fmt): payload}``."""
    sets = []
    for s in range(SETS):
        rng = random.Random(seed * 1009 + s)
        sets.append({(op, fmt): make_payload(rng, op, fmt)
                     for op, fmt in KINDS})
    return sets


def elements(payload: dict) -> int:
    if payload["op"] == "fma":
        return len(payload["items"])
    return sum(len(a) for a, _b, _c in payload["items"])


def check_sample(res, payload: dict, records: list, seed: int) -> float:
    """Compare a seeded sample of ``records`` with the oracle; returns
    the oracle's seconds per checked element."""
    from repro.serve import Request, reference_result

    rng = random.Random(seed)
    items = payload["items"]
    k = SAMPLE_LANES if payload["op"] == "fma" else SAMPLE_DOTS
    t0 = time.perf_counter()
    n_elem = 0
    for i in rng.sample(range(len(items)), k):
        a, b, c = items[i]
        req = Request(req_id=i, op=payload["op"], fmt=payload["fmt"],
                      a=a, b=b, c=c)
        n_elem += req.n_elements
        if tuple(records[i]) != tuple(reference_result(req)):
            res.mismatch(f"batch_wide {payload['op']}.{payload['fmt']} "
                         f"item {i}: {records[i]} != oracle")
    return (time.perf_counter() - t0) / n_elem


def _rounds(execute, sets, seconds: float, outputs: dict, res,
            tracer=None):
    """Run rounds until ``seconds`` have passed (at least MIN_ROUNDS);
    returns (round seconds, {kind: [payload seconds]})."""
    rounds, per_kind = [], {kind: [] for kind in KINDS}
    t_end = time.perf_counter() + seconds
    r = 0
    while r < MIN_ROUNDS or time.perf_counter() < t_end:
        s = r % len(sets)
        t0 = time.perf_counter()
        root = None
        if tracer is not None:
            root = tracer.add("batch_wide.round", time.perf_counter_ns(), 0)
        for kind in KINDS:
            k0 = time.perf_counter()
            out = execute(sets[s][kind], tracer, root)
            per_kind[kind].append(time.perf_counter() - k0)
            prev = outputs.setdefault((s, kind), out)
            if prev is not out and prev != out:
                res.mismatch(f"batch_wide {kind} set {s}: results differ "
                             f"between repeats")
        if tracer is not None:
            tracer.ends[root] = time.perf_counter_ns()
        rounds.append(time.perf_counter() - t0)
        r += 1
    return rounds, per_kind


def round_s(per_kind: dict) -> float:
    """Median round: each payload kind's median time, added up.  On a
    shared host the median moved less from run to run than the
    shortest time, which follows rare fast spells."""
    return sum(median(ts) for ts in per_kind.values())


def _plain(payload, tracer, parent):
    from repro.serve import execute_payload

    return execute_payload(payload)


def _setup_and_load(seed: int):
    from repro.serve import execute_payload

    sets = make_payloads(seed)
    for payload in sets[0].values():       # warm every unit at width
        execute_payload(payload)
    return sets


def _account(res, sets, outputs, seed: int) -> float:
    """Failures, attempted count and the oracle sample; returns the
    oracle's microseconds per element."""
    oracle = []
    for (s, kind), records in sorted(outputs.items()):
        payload = sets[s][kind]
        res.failed += sum(1 for r in records if r[0] != "ok")
        oracle.append(check_sample(res, payload, records, seed + s))
    return median(oracle) * 1e6


def run(res, seed: int, seconds: float) -> None:
    setups = [probe_setup([sys.executable, str(HERE / "probe.py"),
                           "batch_wide"], "ready")
              for _ in range(SETUP_SAMPLES)]
    sets = _setup_and_load(seed)
    outputs: dict = {}
    rounds, per_kind = _rounds(_plain, sets, seconds, outputs, res)
    rss = peak_rss_mb_self()
    res.attempted = sum(len(sets[r % SETS][k]["items"])
                        for r in range(len(rounds)) for k in KINDS)
    _account(res, sets, outputs, seed)
    n_elem = sum(elements(p) for p in sets[0].values())
    typical = {kind: median(ts) for kind, ts in per_kind.items()}
    one_round = round_s(per_kind)
    res.metric("setup_s", median(setups), "s")
    res.metric("ok_frac", 1.0 - res.failed / res.attempted, "frac")
    res.metric("peak_rss_mb", rss, "MB")
    res.metric("latency_ms", one_round * 1e3, "ms")
    res.metric("throughput_per_s", n_elem / one_round, "1/s")
    rates = {f"{op}.{fmt}": elements(sets[0][(op, fmt)])
             / typical[(op, fmt)] for op, fmt in KINDS}
    res.details.update(setup_samples_s=setups, rounds_s=rounds,
                       median_elements_per_s=rates,
                       best_round_ms=min(rounds) * 1e3)
    print(f"batch_wide: {len(rounds)} rounds, median round "
          f"{one_round * 1e3:.1f} ms, best "
          f"{min(rounds) * 1e3:.1f} ms; median "
          + ", ".join(f"{k} {v:,.0f}/s" for k, v in rates.items())
          + f"; setup {setups}", flush=True)


# -- traced run -------------------------------------------------------


def _traced(payload, tr: Tracer, parent, units: dict):
    """The fma payload split into its layers through public calls,
    doing what ``execute_payload`` does for fma; dot payloads run
    whole, since their coalesced path has no public split."""
    from repro.batch import fma_batch
    from repro.fma.convert import cs_to_ieee
    from repro.serve import execute_payload
    from repro.serve.protocol import fp_to_word, word_to_fp

    op, fmt = payload["op"], payload["fmt"]
    with tr.span(f"serve.payload.{op}.{fmt}", parent) as p:
        if op != "fma":
            return execute_payload(payload)
        items = payload["items"]
        with tr.span(f"batch.convert_in.{fmt}", p):
            a = [word_to_fp(w) for w, _b, _c in items]
            b = [word_to_fp(w) for _a, w, _c in items]
            c = [word_to_fp(w) for _a, _b, w in items]
        with tr.span(f"batch.fma.{fmt}", p):
            out = fma_batch(a, b, c, unit=units[fmt])
        with tr.span(f"batch.convert_out.{fmt}", p):
            return [("ok", fp_to_word(cs_to_ieee(r))) for r in out]


def _dot_batch_us_per_elem(res, payload: dict, records: list,
                           unit) -> float:
    """:func:`repro.batch.dot_batch` alone, item by item, on the first
    items of the dot payload; its words must equal the payload's."""
    from repro.batch import dot_batch
    from repro.serve.protocol import fp_to_word, word_to_fp

    total_s, n = 0.0, 0
    for i, (aw, bw, _c) in enumerate(payload["items"][:8]):
        a = [word_to_fp(w) for w in aw]
        b = [word_to_fp(w) for w in bw]
        t0 = time.perf_counter()
        r = dot_batch(a, b, unit=unit)
        total_s += time.perf_counter() - t0
        n += len(a)
        if ("ok", fp_to_word(r)) != tuple(records[i]):
            res.mismatch(f"batch_wide dot_batch item {i} differs from "
                         f"execute_payload")
    return total_s / n * 1e6


def run_traced(res, seed: int, seconds: float) -> dict:
    from layers import first_call_s, vector_counters
    from repro.fma.csfma import FcsFmaUnit, PcsFmaUnit
    from repro.telemetry import collecting

    first = first_call_s()
    units = {"pcs": PcsFmaUnit(), "fcs": FcsFmaUnit()}
    sets = _setup_and_load(seed)
    outputs: dict = {}
    base, base_kind = _rounds(_plain, sets, seconds / 3, outputs, res)
    tr = Tracer()
    with collecting() as tel:
        rounds, kind = _rounds(
            lambda p, t, parent: _traced(p, t, parent, units), sets,
            2 * seconds / 3, outputs, res, tracer=tr)
    res.attempted = sum(len(sets[r % SETS][k]["items"])
                        for r in range(len(base) + len(rounds))
                        for k in KINDS)
    oracle_us = _account(res, sets, outputs, seed)
    tr.dump(OUT / f"trace-batch_wide-{seed}.jsonl")
    ratio = tr.selftime_ratio()
    if abs(ratio - 1.0) > SELF_TIME_TOLERANCE:
        res.mismatch(f"batch_wide trace self times sum to {ratio:.3f} "
                     f"of the round time")
    per_name = tr.name_self_ns()
    n_rounds = len(rounds)
    values = {"batch.first_call_s": first,
              "fma.oracle_us_per_op": oracle_us,
              "trace.selftime_ratio": ratio,
              "trace.overhead_ratio": round_s(kind) / round_s(base_kind)}
    for fmt in ("pcs", "fcs"):
        lanes = FMA_LANES * n_rounds
        conv = (per_name.get(f"batch.convert_in.{fmt}", 0)
                + per_name.get(f"batch.convert_out.{fmt}", 0))
        values[f"batch.convert_us_per_lane.{fmt}"] = conv / 1e3 / lanes
        values[f"batch.fma_us_per_lane.{fmt}"] = (
            per_name.get(f"batch.fma.{fmt}", 0) / 1e3 / lanes)
    dot = sets[0][("dot", "fcs")]
    values["batch.dot_us_per_elem"] = _dot_batch_us_per_elem(
        res, dot, outputs[(0, ("dot", "fcs"))], units["fcs"])
    counters = tel.snapshot().counters
    vector_counters(values, counters)
    values["_self_ms_per_round"] = {k: v / 1e6 / n_rounds
                                    for k, v in per_name.items()}
    values["_counters"] = dict(counters)
    return values

