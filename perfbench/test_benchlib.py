"""Tests of the benchmark's own logic: ``python3 -m pytest perfbench``.

They need neither the program nor a server: nearest-rank percentiles,
the rate ladder search, span self times, and the agreement between
``BENCHMARK.json`` and the metric catalogue the runs print.
"""

from __future__ import annotations

import json
import math
import re

import pytest

from benchlib import (ROOT, best_window_rate, ladder_max_rate, median,
                      percentile, samples_beyond, window_percentiles)
from layers import END_TO_END, PER_LAYER
from spans import Tracer

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# -- nearest-rank percentile ---------------------------------------------


def test_percentile_nearest_rank():
    xs = list(range(1, 101))
    assert percentile(xs, 50) == 50
    assert percentile(xs, 99) == 99
    assert percentile(xs, 100) == 100
    assert percentile(xs, 0) == 1
    assert percentile([3.0], 99) == 3.0
    assert percentile([5, 1, 4, 2, 3], 50) == 3      # order-free


def test_percentile_is_a_sample_never_interpolated():
    xs = [0.1 * k for k in range(1, 1001)]
    for p in (50, 90, 99, 99.9):
        assert percentile(xs, p) in xs


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_samples_beyond_p99():
    assert samples_beyond(1000, 99) == 10
    assert samples_beyond(999, 99) == 9
    assert samples_beyond(100, 99) == 1
    assert samples_beyond(0, 99) == 0


def test_fixed_phase_has_ten_samples_beyond_each_windows_p99():
    import serve_mix as sm

    n = int(sm.FIXED_RATE * sm.FIXED_SHARE * SPEC["run_seconds"])
    assert samples_beyond(n // sm.LATENCY_WINDOWS, 99) >= 10


def test_window_percentiles_one_per_window():
    calm = [1.0] * 300
    stall = [100.0] * 300
    assert window_percentiles(calm * 3 + stall, 99, 4) == [1.0] * 3 + [100.0]
    assert median(window_percentiles(calm * 3 + stall, 99, 4)) == 1.0
    assert window_percentiles(calm + [7.0], 50, 3) == [1.0] * 3
    with pytest.raises(ValueError):
        window_percentiles([1.0, 2.0], 99, 4)


# -- the ladder search ---------------------------------------------------

LIMIT = 50.0


def test_ladder_all_pass_returns_top_rate():
    rungs = [(700, 10.0, True), (800, 12.0, True), (900, 20.0, True)]
    assert ladder_max_rate(rungs, LIMIT) == 900


def test_ladder_interpolates_the_crossing():
    rungs = [(1000, 10.0, True), (2000, 100.0, True)]
    got = ladder_max_rate(rungs, LIMIT)
    # log-linear: p99 = 10 * (r/1000)^(log2 10) reaches 50 at this rate
    want = 1000 * 2 ** (math.log(5) / math.log(10))
    assert got == pytest.approx(want)
    assert 1000 < got < 2000


def test_ladder_stops_at_first_miss():
    rungs = [(1000, 10.0, True), (1100, 200.0, True), (1200, 5.0, True)]
    assert ladder_max_rate(rungs, LIMIT) < 1100


def test_ladder_miss_without_finite_p99_keeps_last_pass():
    rungs = [(1000, 10.0, True), (1150, math.inf, False)]
    assert ladder_max_rate(rungs, LIMIT) == 1000


def test_ladder_backlog_under_the_limit_keeps_last_pass():
    rungs = [(1000, 10.0, True), (1150, 30.0, False)]
    assert ladder_max_rate(rungs, LIMIT) == 1000


def test_ladder_first_rung_miss_scales_down():
    assert ladder_max_rate([(700, 100.0, True)], LIMIT) == 350
    assert ladder_max_rate([(700, math.inf, False)], LIMIT) == 350


def test_ladder_is_monotone_in_the_missing_rungs_p99():
    rates = [ladder_max_rate([(1000, 10.0, True), (1150, p, True)], LIMIT)
             for p in (60.0, 80.0, 120.0, 400.0)]
    assert rates == sorted(rates, reverse=True)


def test_ladder_rejects_empty():
    with pytest.raises(ValueError):
        ladder_max_rate([], LIMIT)


def test_best_window_rate_takes_the_least_disturbed_window():
    samples = [(0.0, 0), (0.5, 500), (1.5, 1000), (1.9, 1500)]
    assert best_window_rate(samples) == pytest.approx(1250.0)
    with pytest.raises(ValueError):
        best_window_rate([(1.0, 10), (1.0, 20)])


# -- spans ----------------------------------------------------------------


def test_self_times_of_nested_spans_add_up_to_the_root():
    tr = Tracer()
    root = tr.add("client.request", 0, 100)
    sub = tr.add("serve.submit", 10, 90, root)
    tr.add("serve.queue", 10, 40, sub)
    tr.add("serve.payload", 40, 80, sub)
    assert tr.self_times_ns() == [20, 10, 30, 40]
    assert tr.selftime_ratio() == 1.0
    assert tr.name_self_ns() == {"client.request": 20, "serve.submit": 10,
                                 "serve.queue": 30, "serve.payload": 40}


def test_protruding_or_overlapping_children_break_the_sum():
    tr = Tracer()
    root = tr.add("a", 0, 100)
    tr.add("b", 50, 150, root)
    assert tr.selftime_ratio() > 1.0
    tr = Tracer()
    root = tr.add("a", 0, 100)
    tr.add("b", 10, 60, root)
    tr.add("c", 40, 90, root)
    assert tr.selftime_ratio() > 1.0


# -- BENCHMARK.json ---------------------------------------------------------

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_spec_matches_the_printed_catalogue():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(
        END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(
        PER_LAYER)


def test_spec_respects_its_format():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"])
               for m in SPEC["end_to_end"] + SPEC["per_layer"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in SPEC["workloads"])
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    import run

    assert tuple(w["name"] for w in SPEC["workloads"]) == run.WORKLOADS
