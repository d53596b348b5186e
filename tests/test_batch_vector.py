"""Bit-identity and dispatch gates for the NumPy vector lane backend.

The tentpole claim of :mod:`repro.batch.vector` is that the lane engine
is **bit-identical** to the tuple fast kernel (and therefore to the
faithful models) for every lane it accepts, and that every lane it
cannot accept -- specials, armed probes/guard, subnormal window edges
-- is routed to the scalar kernel rather than approximated.  The engine
speaks binary64 words only, so its FMA entry point is ``fma_words``;
``fma_batch`` (carry-save results) always runs the tuple kernel.
This module pins that claim three ways:

* the 298-vector golden corpus (``tests/vectors/fma_hard_cases.json``)
  through ``fma_words(backend="vector")``, compared word-for-word
  against both the committed expectations and ``backend="tuple"``;
* seeded Hypothesis lane batches over the binary64 word grid
  (specials and subnormal encodings included);
* armed-probe / armed-guard fallback equivalence, with the telemetry
  counters proving the fallback actually engaged.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import probes
from repro.batch import (BACKENDS, dot_batch, fma_batch, fma_words,
                         resolve_backend, vector_kernel_for)
from repro.batch.api import VECTOR_MIN_FMA_LANES
from repro.batch.engines import BACKEND_ENV
from repro.fma import FcsFmaUnit, PcsFmaUnit, cs_to_ieee
from repro.fp import BINARY32, BINARY64, FPValue
from repro.guard.residue import guarding
from repro.telemetry import collecting

VECTORS = Path(__file__).parent / "vectors" / "fma_hard_cases.json"
CASES = json.loads(VECTORS.read_text())["cases"]

UNITS = [PcsFmaUnit(), FcsFmaUnit()]
unit_ids = ["pcs", "fcs"]


def from_word(word: int) -> FPValue:
    x = struct.unpack("<d", struct.pack("<Q", word))[0]
    return FPValue.from_float(x, BINARY64)


def word_of(v: FPValue) -> int:
    return struct.unpack("<Q", struct.pack("<d", v.to_float()))[0]


def corpus_words(n=len(CASES)):
    return ([int(c[k], 16) for c in CASES[:n]] for k in "abc")


# ---------------------------------------------------------------------------
# golden corpus


class TestGoldenCorpus:
    @pytest.mark.parametrize("unit", UNITS, ids=unit_ids)
    def test_fma_vector_matches_goldens(self, unit):
        """Every corpus case through the vector backend reproduces the
        committed expectation -- including the NaN/Inf and
        subnormal-window-edge cases the engine defers per lane."""
        a, b, c = corpus_words()
        outs = fma_words(a, b, c, unit=unit, backend="vector")
        for case, out in zip(CASES, outs):
            assert "0x%016x" % out == case["expected"][unit.name], (
                case["id"], case["note"])

    @pytest.mark.parametrize("unit", UNITS, ids=unit_ids)
    def test_fma_vector_matches_tuple(self, unit):
        a, b, c = corpus_words()
        vec = fma_words(a, b, c, unit=unit, backend="vector")
        tup = fma_words(a, b, c, unit=unit, backend="tuple")
        for case, v, t in zip(CASES, vec, tup):
            assert v == t, case["id"]

    @pytest.mark.parametrize("unit", UNITS, ids=unit_ids)
    def test_dot_lanes_from_corpus(self, unit):
        """Corpus words rearranged into dot lanes: ``dot_many_words``
        (the serve whole-payload path) vs the tuple chain, bitwise.
        Lanes containing Inf/NaN exercise the internal deferral."""
        import numpy as np

        vk = vector_kernel_for(unit)
        assert vk is not None
        words_a = [int(c["a"], 16) for c in CASES]
        words_b = [int(c["b"], 16) for c in CASES]
        T, N = 16, 18   # 288 of the 298 cases, column-major lanes
        a = np.array(words_a[:T * N], np.uint64).reshape(N, T).T
        b = np.array(words_b[:T * N], np.uint64).reshape(N, T).T
        got = vk.dot_many_words(a.copy(), b.copy())
        for i in range(N):
            av = [from_word(int(w)) for w in a[:, i]]
            bv = [from_word(int(w)) for w in b[:, i]]
            ref = dot_batch(av, bv, unit=unit, backend="tuple")
            assert got[i] == word_of(ref), f"lane {i}"


# ---------------------------------------------------------------------------
# seeded property batches over the word grid


def word_strategy():
    """binary64 bit patterns biased toward the interesting regions:
    specials, subnormal encodings (flushed on load), window edges, and
    ordinary normals with clustered exponents."""
    sign = st.sampled_from([0, 1 << 63])
    specials = st.sampled_from(
        [0x0000000000000000,              # +0
         0x7FF0000000000000,              # +Inf
         0x7FF8000000000001,              # NaN
         0x0000000000000001,              # min subnormal (flushes)
         0x000FFFFFFFFFFFFF,              # max subnormal (flushes)
         0x0010000000000000,              # min normal
         0x7FEFFFFFFFFFFFFF])             # max normal
    normal = st.builds(
        lambda e, f: (e << 52) | f,
        st.integers(1023 - 60, 1023 + 60),
        st.integers(0, (1 << 52) - 1))
    return st.builds(lambda s, w: s | w, sign,
                     st.one_of(normal, specials))


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(word_strategy(), word_strategy(),
                          word_strategy()),
                min_size=16, max_size=48),
       st.sampled_from(unit_ids))
def test_fma_lane_batches_bit_identical(triples, unit_id):
    unit = UNITS[unit_ids.index(unit_id)]
    a, b, c = (list(col) for col in zip(*triples))
    vec = fma_words(a, b, c, unit=unit, backend="vector")
    tup = fma_words(a, b, c, unit=unit, backend="tuple")
    assert vec == tup


@settings(max_examples=15, deadline=None)
@given(st.lists(st.tuples(word_strategy(), word_strategy()),
                min_size=1, max_size=24),
       st.sampled_from(unit_ids))
def test_dot_hybrid_bit_identical(pairs, unit_id):
    unit = UNITS[unit_ids.index(unit_id)]
    vk = vector_kernel_for(unit)
    a = [from_word(w) for w, _x in pairs]
    b = [from_word(w) for _x, w in pairs]
    got = cs_to_ieee(vk.kernel.lower(vk.dot_hybrid(a, b)))
    ref = dot_batch(a, b, unit=unit, backend="tuple")
    assert word_of(got) == word_of(ref)


# ---------------------------------------------------------------------------
# armed fallback equivalence


class TestArmedFallback:
    """Arming anything routes vector work to the tuple kernel; results
    stay bit-identical and the fallback is visible in telemetry."""

    @pytest.mark.parametrize("unit", UNITS, ids=unit_ids)
    def test_armed_probes_fall_back(self, unit):
        a, b, c = corpus_words(32)
        plain = fma_words(a, b, c, unit=unit, backend="vector")
        # identity arm at a tag no datapath fires: arming semantics
        # engage (ARMED is not None) without perturbing any value.
        with collecting() as t:
            with probes.armed({"test.never-fired": probes.Arm(lambda v: v)}):
                armed_out = fma_words(a, b, c, unit=unit, backend="vector")
        counters = t.snapshot().counters
        assert counters.get("batch.vector.fallback.armed-probes", 0) == 1
        assert counters.get("batch.vector.lanes", 0) == 0
        assert armed_out == plain

    @pytest.mark.parametrize("unit", UNITS, ids=unit_ids)
    def test_armed_guard_falls_back(self, unit):
        a, b, c = corpus_words(32)
        plain = fma_words(a, b, c, unit=unit, backend="vector")
        with collecting() as t:
            with guarding():
                guarded = fma_words(a, b, c, unit=unit, backend="vector")
        counters = t.snapshot().counters
        assert counters.get("batch.vector.fallback.armed-guard", 0) == 1
        assert guarded == plain

    def test_dot_armed_guard_falls_back(self):
        unit = UNITS[0]
        a, b, _c = (list(map(from_word, col)) for col in corpus_words(16))
        plain = dot_batch(a, b, unit=unit, backend="vector")
        with guarding():
            guarded = dot_batch(a, b, unit=unit, backend="vector")
        assert word_of(plain) == word_of(guarded)

    def test_serve_vector_path_declines_when_armed(self):
        """A 40-lane dot payload clears the coalesced-lane gate; armed,
        it must run lane by lane on the tuple kernel, with the fallback
        counted and the records unchanged."""
        from repro.serve.executor import execute_payload

        w = 0x3FF0000000000000
        payload = {"op": "dot", "fmt": "pcs", "backend": "auto",
                   "items": [([w, w], [w, w], None)] * 40}
        with collecting() as t:
            plain = execute_payload(payload)
        assert t.snapshot().counters.get("batch.vector.lanes", 0) == 40
        with collecting() as t:
            with probes.armed({"test.never-fired": probes.Arm(lambda v: v)}):
                armed_out = execute_payload(payload)
        counters = t.snapshot().counters
        assert armed_out == plain
        assert counters.get("batch.vector.fallback.armed-probes", 0) == 40
        assert counters.get("batch.vector.lanes", 0) == 0


# ---------------------------------------------------------------------------
# telemetry accounting


class TestVectorTelemetry:
    def test_lane_and_deferral_counters(self):
        unit = UNITS[0]
        a, b, c = corpus_words()
        with collecting() as t:
            fma_words(a, b, c, unit=unit, backend="vector")
        counters = t.snapshot().counters
        lanes = counters.get("batch.vector.lanes", 0)
        deferred = counters.get("batch.vector.deferred", 0)
        assert lanes + deferred == len(CASES)
        assert lanes > 0            # most corpus lanes vectorize
        assert deferred > 0         # NaN/Inf corpus lanes defer
        assert counters.get("batch.vector.deferred.special", 0) > 0

    @pytest.mark.parametrize("case", ["vector", "special", "non-binary64",
                                      "empty"])
    def test_dot_batch_counts_hybrid_deferrals(self, case):
        """A pinned ``dot_batch`` counts one vector lane only when
        ``dot_hybrid`` runs it; a dot handed to ``dot_tuple`` counts one
        deferral with its reason instead."""
        n = 0 if case == "empty" else 600
        fmt = BINARY32 if case == "non-binary64" else BINARY64
        a = [FPValue.from_float(1.0 + i / 64, fmt) for i in range(n)]
        b = a[::-1]
        if case == "special":
            a[n // 2] = FPValue.from_float(float("inf"))
        unit = UNITS[1]
        with collecting() as t:
            got = dot_batch(a, b, unit=unit, backend="vector")
        counters = {k: v for k, v in t.snapshot().counters.items()
                    if k.startswith("batch.vector.")}
        reason = "special" if case == "empty" else case
        assert counters == (
            {"batch.vector.lanes": 1} if case == "vector" else
            {"batch.vector.deferred": 1,
             f"batch.vector.deferred.{reason}": 1})
        ref = dot_batch(a, b, unit=unit, backend="tuple")
        assert word_of(got) == word_of(ref)


# ---------------------------------------------------------------------------
# backend dispatch


class TestBackendDispatch:
    def test_backend_universe(self):
        assert BACKENDS == ("auto", "vector", "tuple", "faithful")

    def test_auto_prefers_vector(self):
        assert resolve_backend("auto") == "vector"
        assert resolve_backend("vector") == "vector"
        assert resolve_backend("tuple") == "tuple"
        assert resolve_backend("faithful") == "faithful"

    def test_default_reads_environment(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        assert resolve_backend() == "vector"
        monkeypatch.setenv(BACKEND_ENV, "tuple")
        assert resolve_backend() == "tuple"
        # explicit argument beats the environment
        assert resolve_backend("vector") == "vector"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend("simd")

    def test_env_typo_rejected(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "vectr")
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend()

    @pytest.mark.parametrize("unit", UNITS, ids=unit_ids)
    def test_backends_agree_on_small_batch(self, unit):
        """Also over binary32 operands: those have no binary64 word, so
        the vector backend must defer their lanes to the scalar kernel
        rather than pack their fields into one."""
        for fmt in (BINARY64, BINARY32):
            a, b, c = ([FPValue.from_float(from_word(int(x[k], 16))
                                           .to_float(), fmt)
                        for x in CASES[:8]] for k in "abc")
            words = {}
            for backend in ("vector", "tuple", "faithful"):
                out = fma_batch(a, b, c, unit=unit, backend=backend)
                words[backend] = [word_of(cs_to_ieee(r)) for r in out]
            assert words["vector"] == words["tuple"] == words["faithful"], (
                fmt.name)

    def test_auto_small_batch_takes_tuple(self, monkeypatch):
        """Under ``auto`` the per-fma staging cost makes small batches
        faster on the tuple kernel; the reroute is counted.  An
        explicit ``vector`` pin bypasses the heuristic."""
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        unit = UNITS[0]
        a, b, c = corpus_words(8)
        with collecting() as t:
            fma_words(a, b, c, unit=unit, backend="auto")
        counters = t.snapshot().counters
        assert counters.get("batch.vector.fallback.small-batch", 0) == 1
        assert counters.get("batch.vector.lanes", 0) == 0
        with collecting() as t:
            fma_words(a, b, c, unit=unit, backend="vector")
        assert t.snapshot().counters.get("batch.vector.lanes", 0) > 0

    @pytest.mark.parametrize("unit", UNITS, ids=unit_ids)
    def test_fma_batch_never_takes_the_lane_engine(self, unit):
        """``fma_batch`` returns carry-save results, which the word-only
        lane engine cannot produce: pinned to ``vector`` at the ``auto``
        crossover it runs the tuple kernel, uncounted by the gate."""
        n = VECTOR_MIN_FMA_LANES
        a, b, c = ([from_word(int(CASES[i % len(CASES)][k], 16))
                    for i in range(n)] for k in "abc")
        with collecting() as t:
            vec = fma_batch(a, b, c, unit=unit, backend="vector")
        counters = t.snapshot().counters
        assert not [k for k in counters if k.startswith("batch.vector.")]
        assert counters["batch.fma.elements." + unit.params.name] == n
        tup = fma_batch(a, b, c, unit=unit, backend="tuple")
        assert vec == tup

    def test_use_batch_false_forces_faithful(self):
        """``backend="faithful"`` runs the scalar models: no vector
        lanes, one counted scalar fallback."""
        unit = UNITS[0]
        a, b, c = ([from_word(int(x[k], 16)) for x in CASES[:4]]
                   for k in "abc")
        with collecting() as t:
            fma_batch(a, b, c, unit=unit, backend="faithful")
        counters = t.snapshot().counters
        assert "batch.vector.lanes" not in counters
        assert counters.get("batch.fma.fallback_scalar") == 1


# ---------------------------------------------------------------------------
# serve whole-payload path


class TestServeVectorDot:
    def test_whole_payload_matches_tuple_backend(self):
        from repro.serve.executor import execute_payload

        words_a = [int(c["a"], 16) for c in CASES]
        words_b = [int(c["b"], 16) for c in CASES]
        items = [(words_a[i:i + 6], words_b[i:i + 6], None)
                 for i in range(0, 240, 6)]       # 40 lanes >= threshold
        vec = execute_payload({"op": "dot", "fmt": "pcs", "items": items,
                               "backend": "vector"})
        tup = execute_payload({"op": "dot", "fmt": "pcs", "items": items,
                               "backend": "tuple"})
        assert vec == tup
        assert all(r[0] == "ok" for r in vec)
