"""Public batched entry points: ``fma_batch``, ``dot_batch``,
``accumulate_batch``, and the binary64 word twins ``fma_words`` /
``dot_words``.

Each function evaluates many operations through the fast kernels of
:mod:`repro.batch` while remaining bit-identical to the corresponding
scalar loop over the faithful models (``backend="faithful"`` literally
runs that loop, which is what the differential tests compare against).

The word entry points are the serving layer's boundary: binary64 bit
patterns in, bit patterns out.  On the vector engine they stay on
``uint64`` lane arrays end to end; on every other path they decode to
the same objects :func:`fma_batch` / :func:`dot_batch` take.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .. import probes
from ..fma.accumulator import AccumulatorOverflow, PcsAccumulator
from ..fma.convert import cs_to_ieee, ieee_to_cs
from ..fma.csfma import CSFmaUnit, FcsFmaUnit
from ..fma.dotprod import FusedDotProductUnit
from ..fma.formats import CSFloat
from ..fp.formats import BINARY64
from ..fp.value import FpClass, FPValue, fp_to_word, word_to_fp
from ..guard import residue as _gd
from ..telemetry import core as _tm
from .cskernel import CS_NORMAL, CS_ZERO, bit_positions, kernel_for
from .engines import requested_backend, resolve_backend
from .ieee_fast import fp_mul_fast
from .vector import vector_kernel_for

__all__ = ["fma_batch", "dot_batch", "accumulate_batch", "fma_words",
           "dot_words"]

#: ``auto`` routes a call to the vector engine only at or above these
#: sizes; below them the engine's fixed ndarray overhead loses to the
#: tuple kernel (counted as a ``small-batch`` fallback).  An explicit
#: ``backend="vector"`` pin skips the heuristic.  Independent FMA lanes
#: amortize the per-call staging only across hundreds of lanes, a single
#: dot across its vector length, a coalesced dot payload across its lanes.
VECTOR_MIN_FMA_LANES = 512
VECTOR_MIN_DOT_LEN = 512
VECTOR_MIN_DOT_LANES = 32


def _vector_gate(unit, n: int, minimum: int, pinned: bool, tm):
    """The :class:`~repro.batch.vector.VectorCSKernel` for a call of
    ``n`` lanes, or ``None`` after counting
    ``batch.vector.fallback.<reason>`` into ``tm``.

    Armed fault probes and the armed residue guard observe scalar
    datapath signals, so armed work always takes the tuple kernel;
    unless ``pinned``, calls below ``minimum`` lanes take it too."""
    if probes.ARMED is not None:
        reason = "armed-probes"
    elif _gd.ACTIVE is not None:
        reason = "armed-guard"
    elif not pinned and n < minimum:
        reason = "small-batch"
    else:
        vk = vector_kernel_for(unit)
        if vk is not None:
            return vk
        reason = "no-kernel"
    if tm is not None:
        tm.count("batch.vector.fallback")
        tm.count(f"batch.vector.fallback.{reason}")
    return None


def _dispatch(op: str, unit, n: int, backend, minimum: int):
    """Resolve one batch call to ``(unit, kernel, vk, tm)``: ``kernel``
    is ``None`` on the faithful path, ``vk`` the vector lane kernel when
    the call may use it."""
    unit = unit if unit is not None else FcsFmaUnit()
    requested = requested_backend(backend)
    backend = resolve_backend(requested)
    kernel = kernel_for(unit) if backend != "faithful" else None
    tm = _tm.ACTIVE
    if tm is not None:
        # call-boundary instrumentation only: per-kernel lane counts,
        # never per-element work (keeps the disabled-overhead gate free)
        tm.count(f"batch.{op}.calls")
        tm.count(f"batch.{op}.elements.{unit.params.name}", n)
        if kernel is None:
            tm.count(f"batch.{op}.fallback_scalar")
    vk = None
    if kernel is not None and backend == "vector":
        vk = _vector_gate(unit, n, minimum, requested == "vector", tm)
    return unit, kernel, vk, tm


def _as_cs(x: "CSFloat | FPValue", unit: CSFmaUnit) -> CSFloat:
    if isinstance(x, FPValue):
        return ieee_to_cs(x, unit.params)
    return x


def _fma_tuple(kernel, a, b, c) -> tuple:
    """One ``a + b * c`` lane on the tuple kernel."""
    at = kernel.lift_ieee(a) if isinstance(a, FPValue) else kernel.lift_cs(a)
    ct = kernel.lift_ieee(c) if isinstance(c, FPValue) else kernel.lift_cs(c)
    bt = kernel.lift_b(b)
    pos = bit_positions(bt[3]) if bt[0] == CS_NORMAL else None
    return kernel.fma(at, bt, ct, pos)


def _fma_scalar(unit, kernel, a, b, c) -> list[CSFloat]:
    """Lane by lane: the faithful unit, or the tuple kernel."""
    if kernel is None:
        return [unit.fma(_as_cs(ai, unit), bi, _as_cs(ci, unit))
                for ai, bi, ci in zip(a, b, c)]
    lower = kernel.lower
    return [lower(_fma_tuple(kernel, ai, bi, ci))
            for ai, bi, ci in zip(a, b, c)]


def _fma_cols(vk, aw, bw, cw, defer, tm):
    """The vector core of :func:`fma_batch` and :func:`fma_words`.

    Lifts the binary64 word lanes, adds the Inf/NaN lanes to the
    caller's ``defer`` mask and runs every other lane through
    :meth:`VectorCSKernel.fma_lanes`.  Returns ``(cols, defer)``; the
    caller redoes the deferred lanes on the scalar kernel."""
    acs, _ab, spec_a = vk.lift_words(aw)
    _cb, bcs, spec_b = vk.lift_words(bw)
    ccs, _xb, spec_c = vk.lift_words(cw)
    special = (spec_a | spec_b | spec_c) & ~defer
    defer = defer | special
    # deferred lanes run scalar; make their vector lanes trivial
    # (class ZERO) so the lane engine never sees a special class
    for cols in (acs, bcs, ccs):
        cols["cls"] = np.where(defer, CS_ZERO, cols["cls"])
    if tm is not None:
        n_def = int(defer.sum())
        n_spec = int(special.sum())
        tm.count("batch.vector.lanes", defer.shape[0] - n_def)
        if n_def:
            tm.count("batch.vector.deferred", n_def)
        if n_spec:
            tm.count("batch.vector.deferred.special", n_spec)
    return vk.fma_lanes(acs, bcs, ccs), defer


def fma_batch(a: Sequence["CSFloat | FPValue"], b: Sequence[FPValue],
              c: Sequence["CSFloat | FPValue"],
              unit: CSFmaUnit | None = None, *,
              backend: str | None = None) -> list[CSFloat]:
    """Evaluate independent ``a[i] + b[i] * c[i]`` through one CS unit.

    ``a``/``c`` accept CS operands or IEEE values (lifted exactly);
    ``b`` stays IEEE as in the hardware.  Bit-identical to calling
    ``unit.fma`` element by element.  ``backend`` selects the evaluation
    machinery (:data:`repro.batch.engines.BACKENDS`; ``None`` honours
    ``REPRO_BATCH_BACKEND``).
    On the vector engine, lanes with a CS or non-binary64 operand have
    no word encoding and take the tuple kernel.
    """
    if not (len(a) == len(b) == len(c)):
        raise ValueError("operand vector length mismatch")
    unit, kernel, vk, tm = _dispatch("fma", unit, len(a), backend,
                                     VECTOR_MIN_FMA_LANES)
    if vk is None:
        return _fma_scalar(unit, kernel, a, b, c)
    words, defer = [], []
    n_cs = n_fmt = 0
    for ai, bi, ci in zip(a, b, c):
        if not (isinstance(ai, FPValue) and isinstance(ci, FPValue)):
            n_cs += 1
        elif ai.fmt is bi.fmt is ci.fmt is BINARY64:
            words.append((fp_to_word(ai), fp_to_word(bi), fp_to_word(ci)))
            defer.append(False)
            continue
        else:
            n_fmt += 1
        words.append((0, 0, 0))
        defer.append(True)
    if tm is not None:
        if n_cs:
            tm.count("batch.vector.deferred.cs-operand", n_cs)
        if n_fmt:
            tm.count("batch.vector.deferred.non-binary64", n_fmt)
    w = np.array(words, np.uint64).reshape(-1, 3)
    cols, defer = _fma_cols(vk, w[:, 0], w[:, 1], w[:, 2],
                            np.array(defer, bool), tm)
    lower = kernel.lower
    out = [lower(t) for t in vk.lower_lanes(cols)]
    for i in np.flatnonzero(defer).tolist():
        out[i] = lower(_fma_tuple(kernel, a[i], b[i], c[i]))
    return out


def fma_words(a: Sequence[int], b: Sequence[int], c: Sequence[int],
              unit: CSFmaUnit | None = None, *,
              backend: str | None = None) -> list[int]:
    """:func:`fma_batch` over binary64 bit patterns, returning the
    bit pattern of each lane's IEEE result (``cs_to_ieee``).

    Operands decode as :func:`repro.fp.word_to_fp` does (subnormal
    encodings flush to signed zero).  On the vector engine the lanes
    never become objects -- ``lift_words -> fma_lanes -> pack_words``
    -- and only Inf/NaN lanes take the scalar kernel; every other path
    decodes the words and runs :func:`fma_batch`'s lane loop.
    """
    if not (len(a) == len(b) == len(c)):
        raise ValueError("operand vector length mismatch")
    unit, kernel, vk, tm = _dispatch("fma", unit, len(a), backend,
                                     VECTOR_MIN_FMA_LANES)
    if vk is None:
        out = _fma_scalar(unit, kernel, [word_to_fp(w) for w in a],
                          [word_to_fp(w) for w in b],
                          [word_to_fp(w) for w in c])
        return [fp_to_word(cs_to_ieee(r)) for r in out]
    cols, defer = _fma_cols(vk, np.array(a, np.uint64),
                            np.array(b, np.uint64), np.array(c, np.uint64),
                            np.zeros(len(a), bool), tm)
    out = vk.pack_words(cols).tolist()
    for i in np.flatnonzero(defer).tolist():
        r = _fma_tuple(kernel, word_to_fp(a[i]), word_to_fp(b[i]),
                       word_to_fp(c[i]))
        out[i] = fp_to_word(cs_to_ieee(kernel.lower(r)))
    return out


def dot_batch(a: Sequence[FPValue], b: Sequence[FPValue],
              unit: CSFmaUnit | None = None, *,
              backend: str | None = None) -> FPValue:
    """Fused inner product ``sum_i a[i] * b[i]``.

    Bit-identical to
    :meth:`repro.fma.dotprod.FusedDotProductUnit.dot` on the same unit:
    the accumulator stays in the unit's carry-save operand format and is
    normalized back to IEEE once at the end.  ``backend`` as in
    :func:`fma_batch`; the vector engine runs the product trees for all
    steps as one ndarray pass (:meth:`VectorCSKernel.dot_hybrid`) and
    defers to the tuple kernel while probes/guard are armed.
    """
    if len(a) != len(b):
        raise ValueError("vector length mismatch")
    unit, kernel, vk, tm = _dispatch("dot", unit, len(a), backend,
                                     VECTOR_MIN_DOT_LEN)
    if kernel is None:
        return FusedDotProductUnit(unit).dot(a, b)
    if vk is not None and tm is not None:
        tm.count("batch.vector.lanes")
    with _tm.span("batch.dot.kernel"):
        acc = (vk.dot_hybrid(a, b) if vk is not None
               else kernel.dot_tuple(a, b))
    return cs_to_ieee(kernel.lower(acc))


def dot_words(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]],
              unit: CSFmaUnit | None = None, *,
              backend: str | None = None) -> list[int]:
    """Independent fused dots ``sum_t a[i][t] * b[i][t]`` over binary64
    bit-pattern vectors, one result bit pattern per lane.

    A payload the vector gate admits (:data:`VECTOR_MIN_DOT_LANES` lanes
    or more, or pinned) runs as one padded ``(T, N)`` word-plane pass
    through :meth:`VectorCSKernel.dot_many_words`; otherwise each lane is
    one :func:`dot_batch` call.
    """
    if len(a) != len(b):
        raise ValueError("lane count mismatch")
    unit = unit if unit is not None else FcsFmaUnit()
    vk = None
    if a:
        requested = requested_backend(backend)
        if resolve_backend(requested) == "vector":
            # counted per lane instead: a declined payload runs lane by
            # lane through dot_batch, whose own gate counts each fallback
            vk = _vector_gate(unit, len(a), VECTOR_MIN_DOT_LANES,
                              requested == "vector", None)
    if vk is None:
        return [fp_to_word(dot_batch([word_to_fp(w) for w in aw],
                                     [word_to_fp(w) for w in bw], unit,
                                     backend=backend))
                for aw, bw in zip(a, b)]
    lens = [len(aw) for aw in a]
    aw = np.zeros((max(lens), len(a)), np.uint64)
    bw = np.zeros_like(aw)
    for i, (ai, bi) in enumerate(zip(a, b)):
        aw[:lens[i], i] = ai
        bw[:lens[i], i] = bi
    lower = vk.kernel.lower
    return [fp_to_word(cs_to_ieee(lower(t)))
            for t in vk.dot_many_words(aw, bw, lens=lens)]


def accumulate_batch(a: Sequence[FPValue], b: Sequence[FPValue],
                     acc: PcsAccumulator | None = None, *,
                     backend: str | None = None) -> PcsAccumulator:
    """Accumulate all products ``a[i] * b[i]`` into a [12]-style MAC.

    Bit-identical to calling :meth:`PcsAccumulator.accumulate` per pair
    (one singly-rounded binary64 multiply feeding the carry-free window
    add), which is what ``backend="faithful"`` runs; every other backend
    takes the single-pass SWAR loop.  Returns the accumulator for
    chaining.
    """
    if len(a) != len(b):
        raise ValueError("vector length mismatch")
    if acc is None:
        acc = PcsAccumulator()
    if _tm.ACTIVE is not None:
        _tm.ACTIVE.count("batch.acc.calls")
        _tm.ACTIVE.count("batch.acc.elements", len(a))
    if resolve_backend(backend) == "faithful":
        for ai, bi in zip(a, b):
            acc.accumulate(ai, bi)
        return acc

    from ..cs.csnumber import CSNumber

    width = acc.width
    mask = (1 << width) - 1
    sp = acc.carry_spacing
    H = 0
    pos = sp - 1
    while pos < width:
        H |= 1 << pos
        pos += sp
    notH = ~H & mask
    lsb = acc.lsb_exp
    state = acc._state
    S, C = state.sum, state.carry
    ops = 0
    try:
        for ai, bi in zip(a, b):
            x = fp_mul_fast(ai, bi, fmt=BINARY64)
            cls = x.cls
            if cls is not FpClass.NORMAL:
                if cls is FpClass.ZERO:
                    ops += 1
                    continue
                raise AccumulatorOverflow("non-finite addend")
            shift = x.biased_exponent - 1023 - 52 - lsb
            mant = x.fraction | (1 << 52)
            if x.sign:
                mant = -mant
            addend = (mant << shift) if shift >= 0 else (mant >> (-shift))
            if addend.bit_length() >= width:
                raise AccumulatorOverflow(
                    f"|x| = 2^{x.biased_exponent - 1023} exceeds the "
                    f"window (max_exp={acc.max_exp})")
            w = addend & mask
            # one 3:2 level, then the chunked Carry Reduce as a single
            # SWAR pass (same identity as the FMA window datapath)
            t = S ^ C
            s3 = (t ^ w) & mask
            c3 = (((S & C) | (t & w)) << 1) & mask
            z = (s3 & notH) + (c3 & notH)
            axb = s3 ^ c3
            S = (z & notH) | ((z ^ axb) & H)
            C = ((((s3 & c3) | (axb & z)) & H) << 1) & mask
            ops += 1
    finally:
        acc._state = CSNumber(S, C, width)
        acc._ops += ops
    return acc
