"""One backend contract on every carry-save geometry.

The units are freely parametrizable (Sec. III), and the batch backends
must agree on every geometry a unit accepts -- including the rejections.
For each :data:`VARIANTS` unit, every backend of every batch entry point
either returns exactly the faithful result or raises exactly the
faithful ``ValueError``.  ``LANES`` is at the ``auto`` vector crossover,
so ``auto`` reaches the vector gate on every entry point.
"""

from __future__ import annotations

import random

import pytest

from repro.batch import dot_batch, dot_words, fma_batch, fma_words, kernel_for
from repro.batch.api import VECTOR_MIN_DOT_LEN, VECTOR_MIN_FMA_LANES
from repro.fma import CSFmaUnit
from repro.fp import BINARY32, BINARY64, FPValue, fp_to_word
from repro.telemetry import collecting

from test_fma_parametrized import VARIANTS

BACKENDS = ("faithful", "tuple", "vector", "auto")
LANES = max(VECTOR_MIN_FMA_LANES, VECTOR_MIN_DOT_LEN)
SPECIALS = (0.0, -0.0, float("inf"), float("-inf"), float("nan"))


@pytest.fixture(scope="module", params=VARIANTS,
                ids=[p.name for p, _s, _r in VARIANTS])
def unit(request):
    params, selector, reduce_ = request.param
    return CSFmaUnit(params, selector=selector, use_carry_reduce=reduce_)


def _values(fmt, n: int, seed: int,
            specials=SPECIALS) -> list[FPValue]:
    """Seeded operands: lane 0 is the 1.5 + 2.25 * 3.0 probe, a few
    lanes are ``specials``, the rest are normals of mixed sign and
    magnitude."""
    rng = random.Random(seed)
    xs = [rng.uniform(-100, 100) * 2.0 ** rng.randint(-30, 30)
          for _ in range(n)]
    for k in range(1, n, 97):
        xs[k] = specials[k % len(specials)]
    xs[0] = (1.5, 2.25, 3.0)[seed % 3]
    return [FPValue.from_float(x, fmt) for x in xs]


def _outcomes(call) -> dict:
    """``call(backend)`` on every backend: the result, or the
    ``ValueError`` message."""
    out = {}
    for backend in BACKENDS:
        try:
            out[backend] = ("ok", call(backend))
        except ValueError as exc:
            out[backend] = ("ValueError", str(exc))
    return out


def _assert_agree(outcomes: dict) -> None:
    ref = outcomes["faithful"]
    for backend, got in outcomes.items():
        assert got == ref, backend


def _cs_key(r) -> tuple:
    return (r.cls, r.exp, r.sign_hint, r.mant.sum, r.mant.carry,
            r.round_data.sum, r.round_data.carry)


@pytest.mark.parametrize("fmt", [BINARY64, BINARY32], ids=lambda f: f.name)
class TestObjectEntryPoints:
    def test_fma_batch(self, unit, fmt):
        a, b, c = (_values(fmt, LANES, seed) for seed in (0, 1, 2))
        _assert_agree(_outcomes(lambda be: [
            _cs_key(r) for r in fma_batch(a, b, c, unit, backend=be)]))

    def test_dot_batch(self, unit, fmt):
        # zeros only: one Inf/NaN element sends the whole dot to the
        # tuple kernel, and the vector dot would go unexercised
        a, b = (_values(fmt, LANES, seed, specials=(0.0, -0.0))
                for seed in (1, 2))
        _assert_agree(_outcomes(lambda be: fp_to_word(
            dot_batch(a, b, unit, backend=be))))


class TestWordEntryPoints:
    def test_fma_words(self, unit):
        a, b, c = ([fp_to_word(x) for x in _values(BINARY64, LANES, seed)]
                   for seed in (0, 1, 2))
        _assert_agree(_outcomes(lambda be: fma_words(a, b, c, unit,
                                                     backend=be)))

    def test_dot_words(self, unit):
        a, b = ([fp_to_word(x) for x in _values(BINARY64, LANES, seed)]
                for seed in (1, 2))
        lanes_a = [a[i:i + 2] for i in range(0, LANES, 2)] * 2
        lanes_b = [b[i:i + 2] for i in range(0, LANES, 2)] * 2
        _assert_agree(_outcomes(lambda be: dot_words(lanes_a, lanes_b, unit,
                                                     backend=be)))


def test_vector_gate_declines_narrow_geometry(unit):
    """A geometry whose A/C operand cannot hold a binary64 significand
    has no vector kernel: the pinned call is a counted ``no-kernel``
    fallback.  Every other geometry runs on the lane engine."""
    narrow = kernel_for(unit).ieee_shift < 0
    fmt = BINARY32 if narrow else BINARY64
    a, b, c = (_values(fmt, 8, seed) for seed in (0, 1, 2))
    with collecting() as t:
        fma_batch(a, b, c, unit, backend="vector")
    counters = t.snapshot().counters
    if narrow:
        assert counters.get("batch.vector.fallback.no-kernel") == 1
        assert "batch.vector.lanes" not in counters
    else:
        assert "batch.vector.fallback" not in counters
        assert counters.get("batch.vector.lanes", 0) > 0
