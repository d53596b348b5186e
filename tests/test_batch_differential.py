"""Differential harness: the batched fast path vs the faithful models.

Every component of :mod:`repro.batch` claims *bit-identical* results to
a scalar reference; these tests are the pin holding that claim.  Each
comparison is on full result structure -- class, sign, exponent and the
raw carry-save mantissa/round words (or every IEEE field) -- never on
rounded floats.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import normal_doubles, normal_fpvalues
from repro.batch import (FastCSFmaEngine, accelerate_engine,
                         accumulate_batch, as_format_fast, dot_batch,
                         fma_batch, fp_add_fast, fp_fma_fast, fp_mul_fast,
                         kernel_for)
from repro.batch.engines import BACKEND_ENV
from repro.fma import (CSFmaEngine, DiscreteMulAddEngine, FcsFmaUnit,
                       FusedIeeeEngine, PcsFmaUnit, cs_to_ieee, ieee_to_cs,
                       run_recurrence)
from repro.fma.accumulator import AccumulatorOverflow, PcsAccumulator
from repro.fma.dotprod import FusedDotProductUnit
from repro.fp import (BINARY32, BINARY64, EXTENDED68, EXTENDED75, FPValue,
                      double)
from repro.fp.ops import as_format, fp_add, fp_fma, fp_mul
from repro.fp.rounding import RoundingMode

PCS = PcsFmaUnit()
FCS = FcsFmaUnit()
UNITS = [PCS, FCS]
unit_ids = lambda u: u.name  # noqa: E731

FORMATS = [BINARY32, BINARY64, EXTENDED68, EXTENDED75]
MODES = list(RoundingMode)


def assert_same_value(x: FPValue, y: FPValue) -> None:
    """Full-field IEEE comparison (sign of zero and NaN class included)."""
    assert x.fmt == y.fmt
    assert x.cls == y.cls
    assert x.sign == y.sign
    if x.is_normal:
        assert x.biased_exponent == y.biased_exponent
        assert x.fraction == y.fraction


def assert_same_cs(x, y) -> None:
    """Full-structure CSFloat comparison (CS words, not collapsed sums)."""
    assert x.cls == y.cls
    assert x.exp == y.exp
    assert x.sign_hint == y.sign_hint
    assert x.mant.sum == y.mant.sum
    assert x.mant.carry == y.mant.carry
    assert x.round_data.sum == y.round_data.sum
    assert x.round_data.carry == y.round_data.carry


# ---------------------------------------------------------------------------
# the CS kernel vs the faithful PCS/FCS unit


class TestKernelVsUnit:
    @pytest.mark.parametrize("unit", UNITS, ids=unit_ids)
    @given(a=normal_doubles(-300, 300), b=normal_doubles(-300, 300),
           c=normal_doubles(-300, 300))
    def test_single_fma(self, unit, a, b, c):
        ref = unit.fma(ieee_to_cs(double(a), unit.params), double(b),
                       ieee_to_cs(double(c), unit.params))
        (fast,) = fma_batch([double(a)], [double(b)], [double(c)],
                            unit=unit)
        assert_same_cs(fast, ref)

    @pytest.mark.parametrize("unit", UNITS, ids=unit_ids)
    @given(a=normal_doubles(-40, 40), b=normal_doubles(-40, 40))
    def test_massive_cancellation(self, unit, a, b):
        # A + B*C with A ~ -B*C: the leading-zero stress case
        c = -a / b
        ref = unit.fma(ieee_to_cs(double(a), unit.params), double(b),
                       ieee_to_cs(double(c), unit.params))
        (fast,) = fma_batch([double(a)], [double(b)], [double(c)],
                            unit=unit)
        assert_same_cs(fast, ref)

    @pytest.mark.parametrize("unit", UNITS, ids=unit_ids)
    def test_special_class_combinations(self, unit):
        specials = [FPValue.zero(BINARY64), FPValue.zero(BINARY64, 1),
                    FPValue.inf(BINARY64), FPValue.inf(BINARY64, 1),
                    FPValue.nan(BINARY64), double(1.5), double(-2.0),
                    double(2.0 ** -1000), double(2.0 ** 1000)]
        for a in specials:
            for b in specials:
                for c in specials:
                    ref = unit.fma(ieee_to_cs(a, unit.params), b,
                                   ieee_to_cs(c, unit.params))
                    (fast,) = fma_batch([a], [b], [c], unit=unit)
                    assert_same_cs(fast, ref)

    @pytest.mark.parametrize("unit", UNITS, ids=unit_ids)
    @given(data=st.lists(st.tuples(normal_doubles(-80, 80),
                                   normal_doubles(-80, 80)),
                         min_size=1, max_size=40),
           seeds=st.tuples(normal_doubles(-10, 10), normal_doubles(-10, 10),
                           normal_doubles(-10, 10)))
    def test_dependent_chain(self, unit, data, seeds):
        """Chained FMAs: carry-save results feed the next A/C operands,
        exercising the redundant-operand decode paths."""
        kernel = kernel_for(unit)
        ref = ieee_to_cs(double(seeds[0]), unit.params)
        ref2 = ieee_to_cs(double(seeds[1]), unit.params)
        fast = kernel.lift_cs(ref)
        fast2 = kernel.lift_cs(ref2)
        for b, _ in data:
            ref = unit.fma(ref, double(b), ref2)
            fast = kernel.fma(fast, kernel.lift_b(double(b)), fast2)
            ref, ref2 = ref2, ref
            fast, fast2 = fast2, fast
            assert_same_cs(kernel.lower(fast2), ref2)

    @pytest.mark.parametrize("unit", UNITS, ids=unit_ids)
    @given(vals=st.lists(st.tuples(normal_doubles(-300, 300),
                                   normal_doubles(-300, 300),
                                   normal_doubles(-300, 300)),
                         min_size=0, max_size=8))
    def test_fma_batch_matches_scalar_loop(self, unit, vals):
        a = [double(v[0]) for v in vals]
        b = [double(v[1]) for v in vals]
        c = [double(v[2]) for v in vals]
        ref = fma_batch(a, b, c, unit=unit, backend="faithful")
        fast = fma_batch(a, b, c, unit=unit)
        for r, f in zip(ref, fast):
            assert_same_cs(f, r)

    def test_strict_unit_has_no_kernel(self):
        assert kernel_for(PcsFmaUnit(strict=True)) is None
        # ... and the batch API transparently falls back to the unit
        unit = PcsFmaUnit(strict=True)
        out = fma_batch([double(1.0)], [double(2.0)], [double(3.0)],
                        unit=unit)
        ref = unit.fma(ieee_to_cs(double(1.0), unit.params), double(2.0),
                       ieee_to_cs(double(3.0), unit.params))
        assert_same_cs(out[0], ref)


# ---------------------------------------------------------------------------
# dot_batch vs the fused dot-product unit


class TestDotBatch:
    @pytest.mark.parametrize("unit", UNITS, ids=unit_ids)
    @given(pairs=st.lists(st.tuples(normal_doubles(-80, 80),
                                    normal_doubles(-80, 80)),
                          min_size=0, max_size=50))
    def test_matches_fused_unit(self, unit, pairs):
        a = [double(p[0]) for p in pairs]
        b = [double(p[1]) for p in pairs]
        ref = FusedDotProductUnit(unit).dot(a, b)
        assert_same_value(dot_batch(a, b, unit=unit), ref)

    @pytest.mark.parametrize("unit", UNITS, ids=unit_ids)
    def test_cancelling_vector(self, unit):
        a = [double(v) for v in [1e30, 1.0, -1e30, 3.5, -3.5]]
        b = [double(v) for v in [1.25, 1.0, 1.25, 1.0, 1.0]]
        ref = FusedDotProductUnit(unit).dot(a, b)
        assert_same_value(dot_batch(a, b, unit=unit), ref)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            dot_batch([double(1.0)], [])


# ---------------------------------------------------------------------------
# accumulate_batch vs the [12] MAC


class TestAccumulateBatch:
    @given(pairs=st.lists(st.tuples(normal_doubles(-25, 25),
                                    normal_doubles(-25, 25)),
                          min_size=0, max_size=60))
    def test_matches_scalar_accumulator(self, pairs):
        a = [double(p[0]) for p in pairs]
        b = [double(p[1]) for p in pairs]
        ref = PcsAccumulator()
        for ai, bi in zip(a, b):
            ref.accumulate(ai, bi)
        fast = accumulate_batch(a, b)
        assert fast._state.sum == ref._state.sum
        assert fast._state.carry == ref._state.carry
        assert fast.operations == ref.operations
        assert_same_value(fast.result(), ref.result())

    def test_zero_products_count_as_operations(self):
        acc = accumulate_batch([double(0.0), double(2.0)],
                               [double(5.0), double(0.5)])
        assert acc.operations == 2
        assert acc.result().to_float() == 1.0

    def test_overflow_preserves_partial_progress(self):
        a = [double(v) for v in [1.0, 2.0 ** 40, 1.0]]
        b = [double(v) for v in [1.0, 2.0 ** 40, 1.0]]
        ref = PcsAccumulator()
        with pytest.raises(AccumulatorOverflow):
            for ai, bi in zip(a, b):
                ref.accumulate(ai, bi)
        fast = PcsAccumulator()
        with pytest.raises(AccumulatorOverflow):
            accumulate_batch(a, b, fast)
        assert fast._state.sum == ref._state.sum
        assert fast._state.carry == ref._state.carry
        assert fast.operations == ref.operations


# ---------------------------------------------------------------------------
# the integer IEEE kernels vs the Fraction-based reference operators


class TestIeeeFast:
    @pytest.mark.parametrize("fmt", FORMATS, ids=lambda f: f.name)
    @pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
    @given(a=normal_fpvalues(-300, 300), b=normal_fpvalues(-300, 300),
           c=normal_fpvalues(-300, 300))
    @settings(max_examples=25)
    def test_ops_match_reference(self, fmt, mode, a, b, c):
        assert_same_value(fp_add_fast(a, b, fmt=fmt, mode=mode),
                          fp_add(a, b, fmt=fmt, mode=mode))
        assert_same_value(fp_mul_fast(a, b, fmt=fmt, mode=mode),
                          fp_mul(a, b, fmt=fmt, mode=mode))
        assert_same_value(fp_fma_fast(a, b, c, fmt=fmt, mode=mode),
                          fp_fma(a, b, c, fmt=fmt, mode=mode))
        assert_same_value(as_format_fast(a, fmt, mode),
                          as_format(a, fmt, mode))

    @pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
    def test_specials_and_zero_signs(self, mode):
        specials = [FPValue.zero(BINARY64), FPValue.zero(BINARY64, 1),
                    FPValue.inf(BINARY64), FPValue.inf(BINARY64, 1),
                    FPValue.nan(BINARY64), double(1.0), double(-1.0)]
        for a in specials:
            for b in specials:
                assert_same_value(fp_add_fast(a, b, mode=mode),
                                  fp_add(a, b, mode=mode))
                assert_same_value(fp_mul_fast(a, b, mode=mode),
                                  fp_mul(a, b, mode=mode))
                for c in specials:
                    assert_same_value(fp_fma_fast(a, b, c, mode=mode),
                                      fp_fma(a, b, c, mode=mode))

    @given(a=normal_fpvalues(-40, 40), b=normal_fpvalues(-40, 40))
    def test_exact_cancellation_zero_sign(self, a, b):
        from repro.fp.ops import fp_neg

        for mode in MODES:
            assert_same_value(fp_add_fast(a, fp_neg(a), mode=mode),
                              fp_add(a, fp_neg(a), mode=mode))
            assert_same_value(
                fp_fma_fast(fp_mul(a, b), fp_neg(a), b, mode=mode),
                fp_fma(fp_mul(a, b), fp_neg(a), b, mode=mode))

    @given(a=normal_fpvalues(-1020, 1020), b=normal_fpvalues(-1020, 1020))
    def test_overflow_and_flush_edges(self, a, b):
        # products that overflow binary64 or flush to zero must take the
        # same saturation path in both implementations
        assert_same_value(fp_mul_fast(a, b), fp_mul(a, b))
        assert_same_value(fp_add_fast(a, b), fp_add(a, b))


# ---------------------------------------------------------------------------
# accelerated engines, HLS wiring, fig14, LDL


class TestEngineAcceleration:
    @pytest.mark.parametrize("stock", [
        CSFmaEngine(PCS), CSFmaEngine(FCS), FusedIeeeEngine(),
        DiscreteMulAddEngine(BINARY64), DiscreteMulAddEngine(EXTENDED68),
        DiscreteMulAddEngine(EXTENDED75),
    ], ids=lambda e: e.name)
    @given(data=st.lists(st.tuples(normal_doubles(-8, 8),
                                   normal_doubles(-8, 8)),
                         min_size=1, max_size=12),
           seeds=st.tuples(normal_doubles(-2, 2), normal_doubles(-2, 2),
                           normal_doubles(-2, 2)))
    @settings(max_examples=20)
    def test_recurrence_identical(self, stock, data, seeds):
        fast = accelerate_engine(stock)
        assert fast is not stock
        assert fast.name == stock.name
        b1 = [double(d[0]) for d in data]
        b2 = [double(d[1]) for d in data]
        x0 = [double(s) for s in seeds]
        ref = run_recurrence(stock, b1, b2, x0, len(data))
        out = run_recurrence(fast, b1, b2, x0, len(data))
        assert out.engine == ref.engine
        for r, f in zip(ref.values, out.values):
            assert_same_value(f, r)

    def test_passthroughs(self):
        assert accelerate_engine(None) is None
        strict = CSFmaEngine(PcsFmaUnit(strict=True))
        assert accelerate_engine(strict) is strict

        class MyEngine(FusedIeeeEngine):
            pass

        custom = MyEngine()
        assert accelerate_engine(custom) is custom

    @pytest.mark.parametrize("backend", ["auto", "vector", "tuple",
                                         "faithful"])
    def test_backend_env_reaches_accelerate(self, monkeypatch, backend):
        """``REPRO_BATCH_BACKEND=faithful`` keeps every stock engine; any
        other backend gets the fast twin."""
        monkeypatch.setenv(BACKEND_ENV, backend)
        for stock in (CSFmaEngine(PCS), FusedIeeeEngine(),
                      DiscreteMulAddEngine(EXTENDED75)):
            fast = accelerate_engine(stock)
            if backend == "faithful":
                assert fast is stock
            else:
                assert type(fast).__name__ == "Fast" + type(stock).__name__
                assert fast.name == stock.name

    def test_fast_cs_engine_rejects_strict_unit(self):
        with pytest.raises(ValueError):
            FastCSFmaEngine(PcsFmaUnit(strict=True))


class TestConsumerWiring:
    SRC = ("t1 = b2 * x2; t2 = x3 + t1; t3 = b1 * x1; y = t2 + t3; "
           "z = y * y; w = z + t2;")
    INPUTS = {"b1": 3.7, "b2": -0.25, "x1": 1.5, "x2": -2.25, "x3": 0.875}

    @pytest.mark.parametrize("unit", UNITS, ids=unit_ids)
    def test_simulate_use_batch(self, unit, monkeypatch):
        """The default (fast twin) against ``REPRO_BATCH_BACKEND=faithful``."""
        from repro.hls import (default_library, parse_program,
                               run_fma_insertion, simulate)

        graph = parse_program(self.SRC, outputs=["y", "w"])
        library = default_library(fma_flavor=unit.params.name)
        run_fma_insertion(graph, library)
        fast = simulate(graph, self.INPUTS, engine=CSFmaEngine(unit))
        monkeypatch.setenv(BACKEND_ENV, "faithful")
        ref = simulate(graph, self.INPUTS, engine=CSFmaEngine(unit))
        assert fast == ref

    @pytest.mark.parametrize("unit", UNITS, ids=unit_ids)
    def test_execute_schedule_use_batch(self, unit, monkeypatch):
        """The default (fast twin) against ``REPRO_BATCH_BACKEND=faithful``."""
        from repro.hls import (default_library, list_schedule,
                               parse_program, run_fma_insertion,
                               execute_schedule)

        graph = parse_program(self.SRC, outputs=["y", "w"])
        library = default_library(fma_flavor=unit.params.name)
        run_fma_insertion(graph, library)
        schedule = list_schedule(graph, library)
        fast = execute_schedule(graph, schedule, library, self.INPUTS,
                                engine=CSFmaEngine(unit))
        monkeypatch.setenv(BACKEND_ENV, "faithful")
        ref = execute_schedule(graph, schedule, library, self.INPUTS,
                               engine=CSFmaEngine(unit))
        assert fast.outputs == ref.outputs
        assert fast.cycles == ref.cycles

    def test_fig14_identical(self, monkeypatch):
        from repro.experiments import fig14

        fast = fig14.run(runs=2)
        monkeypatch.setenv(BACKEND_ENV, "faithful")
        assert fast == fig14.run(runs=2)

    def test_ldl_identical(self):
        """The gather factorization against the scalar reference loop."""
        from repro.solvers.ldl import (_numeric_ldl_reference, ldl_solve,
                                       numeric_ldl, symbolic_ldl)

        rng = np.random.default_rng(7)
        for _ in range(10):
            n = int(rng.integers(3, 20))
            A = rng.normal(size=(n, n)) * (rng.random((n, n)) < 0.4)
            K = A @ A.T + np.eye(n) * (1.0 + rng.random())
            sym = symbolic_ldl(np.abs(K) > 1e-12)
            Ls, Ds = _numeric_ldl_reference(K, sym)
            Lb, Db = numeric_ldl(K, sym)
            assert Ls == Lb
            assert np.array_equal(Ds, Db)
            rhs = rng.normal(size=n)
            assert np.array_equal(ldl_solve(Ls, Ds, sym, rhs),
                                  ldl_solve(Lb, Db, sym, rhs))

    def test_kkt_solve_convenience(self):
        from repro.solvers.kkt import (assemble_kkt, kkt_solve,
                                       kkt_sparsity)
        from repro.solvers.ldl import (_numeric_ldl_reference, ldl_solve,
                                       symbolic_ldl)
        from repro.solvers.qp import QPProblem

        rng = np.random.default_rng(3)
        n, m, p = 4, 2, 3
        M = rng.normal(size=(n, n))
        prob = QPProblem(P=M @ M.T + np.eye(n), q=rng.normal(size=n),
                         A=rng.normal(size=(m, n)), b=rng.normal(size=m),
                         G=rng.normal(size=(p, n)), h=rng.normal(size=p))
        w = np.abs(rng.normal(size=p)) + 0.5
        rhs = rng.normal(size=n + m + p)
        sym = symbolic_ldl(kkt_sparsity(prob))
        K = assemble_kkt(prob, w)
        L, D = _numeric_ldl_reference(K, sym)
        ref = ldl_solve(L, D, sym, rhs)
        assert np.array_equal(kkt_solve(prob, w, rhs, sym), ref)
        assert np.array_equal(kkt_solve(prob, w, rhs), ref)


# ---------------------------------------------------------------------------
# the zero-detect closed form vs the block-wise ground truth


class TestZeroDetectClosedForm:
    @given(block=st.integers(2, 29), nblocks=st.integers(2, 12),
           data=st.data())
    def test_matches_count_skippable_blocks(self, block, nblocks, data):
        """The kernel replaces the block-wise ZD search with a closed
        form over the collapsed window value; it must agree with the
        semantic ground truth for every (sum, carry) pair."""
        from repro.cs.csnumber import CSNumber
        from repro.cs.zero_detect import count_skippable_blocks

        width = block * nblocks
        s = data.draw(st.integers(0, (1 << width) - 1))
        c = data.draw(st.integers(0, (1 << width) - 1))
        max_skip = data.draw(st.integers(1, nblocks - 1))
        value = (s + c) & ((1 << width) - 1)
        if value == 0:
            return
        ref = count_skippable_blocks(CSNumber(s, c, width), block,
                                     max_skip=max_skip)
        if value >> (width - 1):
            inv = (~value) & ((1 << width) - 1)
            rsb = width if inv == 0 else width - inv.bit_length()
        else:
            rsb = width - value.bit_length()
        skipped = max(0, min((rsb - 1) // block, max_skip))
        assert skipped == ref
