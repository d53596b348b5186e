"""Drop-in accelerated :class:`~repro.fma.chain.FmaEngine` twins.

Every engine here reports the *same* ``name`` and produces *bit-identical*
results to its faithful counterpart in :mod:`repro.fma.chain`; only the
evaluation machinery changes (tuple-based CS kernel, integer IEEE
kernels).  :func:`accelerate_engine` maps a stock engine to its fast twin
and is what the HLS simulator/executor and the Fig. 14 sweep call; it
honours ``REPRO_BATCH_BACKEND=faithful`` by returning the stock engine,
and engines it does not recognize (subclasses with overridden behaviour,
already-fast engines) pass through untouched.
"""

from __future__ import annotations

import os
from typing import Any

from ..fma.chain import (CSFmaEngine, DiscreteMulAddEngine, FmaEngine,
                         FusedIeeeEngine)
from ..fma.convert import cs_to_ieee
from ..fma.csfma import CSFmaUnit
from ..fp.formats import BINARY64, FloatFormat
from ..fp.rounding import RoundingMode
from ..fp.value import FPValue
from ..telemetry import core as _tm
from .cskernel import FastCSKernel, kernel_for
from .ieee_fast import as_format_fast, fp_add_fast, fp_fma_fast, fp_mul_fast

__all__ = ["FastCSFmaEngine", "FastDiscreteMulAddEngine",
           "FastFusedIeeeEngine", "accelerate_engine",
           "BACKENDS", "BACKEND_ENV", "requested_backend",
           "resolve_backend"]

# ---------------------------------------------------------------------------
# Backend dispatch
#
# Three evaluation machineries produce bit-identical results:
#
# ``faithful``   the digit-level reference models (the oracle);
# ``tuple``      the scalar fast kernels (:class:`FastCSKernel` tuples,
#                integer IEEE kernels) -- always available;
# ``vector``     the NumPy lane engine (:mod:`repro.batch.vector`) --
#                binary64 word lanes as ``uint64`` arrays, reached by
#                ``fma_words``/``dot_words``/``dot_batch`` (``fma_batch``
#                returns carry-save results and runs ``tuple``); defers
#                armed/special lanes to ``tuple``.
#
# ``auto`` resolves to ``vector``; each entry point then sends calls
# below its size gate to ``tuple``.  The env var ``REPRO_BATCH_BACKEND``
# overrides the default wherever a caller did not pin an explicit
# backend.

#: recognised backend names, in resolution-priority order.
BACKENDS = ("auto", "vector", "tuple", "faithful")

#: environment override consulted when no explicit backend is passed.
BACKEND_ENV = "REPRO_BATCH_BACKEND"


def requested_backend(backend: "str | None" = None) -> str:
    """The pre-resolution backend request, validated.

    The explicit argument wins, else :data:`BACKEND_ENV`, else
    ``auto``.  A request of ``vector`` (argument or environment) is a
    *pin*: the lane engine runs regardless of batch-size heuristics,
    whereas ``auto`` lets each entry point pick the profitable engine
    per call.
    """
    if backend is None:
        backend = os.environ.get(BACKEND_ENV) or "auto"
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; expected one of {BACKENDS}")
    return backend


def resolve_backend(backend: "str | None" = None) -> str:
    """Resolve a backend request to a concrete engine name.

    ``None`` consults :data:`BACKEND_ENV`, then falls back to ``auto``;
    ``auto`` picks ``vector``.  The return value is always one of
    ``vector``/``tuple``/``faithful``.
    """
    backend = requested_backend(backend)
    return "vector" if backend == "auto" else backend


class FastCSFmaEngine(FmaEngine):
    """Fast twin of :class:`CSFmaEngine`: chain values travel as plain
    tuples through :class:`FastCSKernel`."""

    def __init__(self, unit: CSFmaUnit, kernel: FastCSKernel | None = None):
        self.unit = unit
        self.kernel = kernel if kernel is not None else kernel_for(unit)
        if self.kernel is None:
            raise ValueError("unit configuration has no fast kernel; "
                             "use the faithful CSFmaEngine")
        self.name = unit.name

    def lift(self, x: FPValue) -> Any:
        return self.kernel.lift_ieee(x)

    def fma(self, a: Any, b: FPValue, c: Any) -> Any:
        if _tm.ACTIVE is not None:
            _tm.ACTIVE.count(f"batch.engine.fma.{self.name}")
        k = self.kernel
        return k.fma(a, k.lift_b(b), c)

    def lower(self, r: Any) -> FPValue:
        return cs_to_ieee(self.kernel.lower(r))


class FastFusedIeeeEngine(FmaEngine):
    """Fast twin of :class:`FusedIeeeEngine` (classic FMA baseline)."""

    def __init__(self, fmt: FloatFormat = BINARY64,
                 mode: RoundingMode = RoundingMode.NEAREST_EVEN):
        self.fmt = fmt
        self.mode = mode
        self.name = f"classic-fma-{fmt.name}"

    def lift(self, x: FPValue) -> FPValue:
        return as_format_fast(x, self.fmt)

    def fma(self, a: FPValue, b: FPValue, c: FPValue) -> FPValue:
        return fp_fma_fast(a, as_format_fast(b, self.fmt), c,
                           fmt=self.fmt, mode=self.mode)

    def lower(self, r: FPValue) -> FPValue:
        return as_format_fast(r, BINARY64)


class FastDiscreteMulAddEngine(FmaEngine):
    """Fast twin of :class:`DiscreteMulAddEngine` (two roundings per
    multiply-add, optionally widened format)."""

    def __init__(self, fmt: FloatFormat = BINARY64,
                 mode: RoundingMode = RoundingMode.NEAREST_EVEN):
        self.fmt = fmt
        self.mode = mode
        self.name = f"discrete-{fmt.name}"

    def lift(self, x: FPValue) -> FPValue:
        return as_format_fast(x, self.fmt, self.mode)

    def fma(self, a: FPValue, b: FPValue, c: FPValue) -> FPValue:
        prod = fp_mul_fast(as_format_fast(b, self.fmt, self.mode), c,
                           fmt=self.fmt, mode=self.mode)
        return fp_add_fast(a, prod, fmt=self.fmt, mode=self.mode)

    def lower(self, r: FPValue) -> FPValue:
        return as_format_fast(r, BINARY64, self.mode)


def accelerate_engine(engine: FmaEngine | None) -> FmaEngine | None:
    """Fast twin of a stock engine (same name, bit-identical results).

    Exact-type matching keeps behaviour-overriding subclasses on the
    faithful path; strict-mode CS units (which raise on architectural
    invariant violations the kernel does not model) also pass through,
    as does every engine when :data:`BACKEND_ENV` selects ``faithful``.
    ``None`` (graphs without carry-save nodes) stays ``None``.
    """
    if engine is None or resolve_backend() == "faithful":
        return engine
    t = type(engine)
    tm = _tm.ACTIVE
    if t is CSFmaEngine:
        if kernel_for(engine.unit) is None:
            return engine
        if tm is not None:
            tm.count(f"batch.engine.accelerated.{engine.name}")
        return FastCSFmaEngine(engine.unit)
    if t is FusedIeeeEngine:
        if tm is not None:
            tm.count(f"batch.engine.accelerated.{engine.name}")
        return FastFusedIeeeEngine(engine.fmt, engine.unit.mode)
    if t is DiscreteMulAddEngine:
        if tm is not None:
            tm.count(f"batch.engine.accelerated.{engine.name}")
        return FastDiscreteMulAddEngine(engine.fmt, engine.mode)
    return engine
