"""Bit-accurate floating-point values with flag-based exception encoding.

The paper follows FloPoCo's convention of signalling exceptional values
(zero, infinity, NaN) on *two extra wires* instead of encoding them inside
the number representation (Sec. III-B: "this can be avoided by using two
additional wires for explicitly signalling exceptions").  :class:`FPValue`
mirrors that: the class field carries the exception state, while the
sign/exponent/fraction fields are only meaningful for ``NORMAL`` values.

Subnormals are not representable -- any exact value whose rounded
magnitude falls below the smallest normal flushes to (signed) zero, the
behaviour of the FPGA libraries the paper builds on.
"""

from __future__ import annotations

import enum
import math
import struct
from dataclasses import dataclass
from fractions import Fraction

from .formats import BINARY64, FloatFormat
from .rounding import RoundingMode, round_scaled

__all__ = ["FpClass", "FPValue"]


class FpClass(enum.Enum):
    """FloPoCo-style two-wire exception class of a value."""

    ZERO = 0
    NORMAL = 1
    INF = 2
    NAN = 3


@dataclass(frozen=True)
class FPValue:
    """A floating-point value in a given :class:`FloatFormat`.

    Attributes
    ----------
    fmt:
        The format the value is stored in.
    cls:
        Exception class (two-wire encoding).
    sign:
        0 for positive, 1 for negative.  Meaningful for ZERO, NORMAL and
        INF (IEEE signed zeroes/infinities); ignored for NaN.
    biased_exponent:
        Biased exponent; only meaningful for NORMAL values, where it lies
        in ``[1, fmt.max_biased_exponent]``.
    fraction:
        Stored fraction field (without the implied leading 1); only
        meaningful for NORMAL values.
    """

    fmt: FloatFormat
    cls: FpClass
    sign: int = 0
    biased_exponent: int = 0
    fraction: int = 0

    def __post_init__(self) -> None:
        if self.sign not in (0, 1):
            raise ValueError("sign must be 0 or 1")
        if self.cls is FpClass.NORMAL:
            if not (1 <= self.biased_exponent <= self.fmt.max_biased_exponent):
                raise ValueError(
                    f"biased exponent {self.biased_exponent} out of normal "
                    f"range [1, {self.fmt.max_biased_exponent}] for "
                    f"{self.fmt.name}"
                )
            if not (0 <= self.fraction <= self.fmt.fraction_mask):
                raise ValueError("fraction field out of range")

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def zero(cls, fmt: FloatFormat, sign: int = 0) -> "FPValue":
        return cls(fmt, FpClass.ZERO, sign)

    @classmethod
    def inf(cls, fmt: FloatFormat, sign: int = 0) -> "FPValue":
        return cls(fmt, FpClass.INF, sign)

    @classmethod
    def nan(cls, fmt: FloatFormat) -> "FPValue":
        return cls(fmt, FpClass.NAN)

    @classmethod
    def from_parts(cls, fmt: FloatFormat, sign: int, biased_exponent: int,
                   fraction: int) -> "FPValue":
        """Build a NORMAL value from raw fields."""
        return cls(fmt, FpClass.NORMAL, sign, biased_exponent, fraction)

    @classmethod
    def from_float(cls, x: float, fmt: FloatFormat = BINARY64) -> "FPValue":
        """Convert a Python float.

        For ``fmt == BINARY64`` the conversion of normal numbers is exact;
        subnormal floats flush to zero (matching the hardware libraries).
        For other formats the value is correctly rounded (ties to even).
        """
        if math.isnan(x):
            return cls.nan(fmt)
        if math.isinf(x):
            return cls.inf(fmt, 1 if x < 0 else 0)
        if x == 0.0:
            return cls.zero(fmt, 1 if math.copysign(1.0, x) < 0 else 0)
        if fmt is BINARY64 or fmt == BINARY64:
            bits = struct.unpack("<Q", struct.pack("<d", x))[0]
            sign = (bits >> 63) & 1
            be = (bits >> 52) & 0x7FF
            frac = bits & ((1 << 52) - 1)
            if be == 0:  # subnormal: flush to zero
                return cls.zero(fmt, sign)
            return cls.from_parts(fmt, sign, be, frac)
        return cls.from_fraction(Fraction(x), fmt)

    @classmethod
    def from_fraction(cls, value: Fraction, fmt: FloatFormat,
                      mode: RoundingMode = RoundingMode.NEAREST_EVEN,
                      ) -> "FPValue":
        """Correctly round an exact rational to the format.

        Overflow saturates to infinity; magnitudes that round below the
        smallest normal flush to zero (no subnormals).
        """
        if value == 0:
            return cls.zero(fmt)
        sign = 1 if value < 0 else 0
        mag = -value if sign else value
        # Unbiased exponent e such that 1 <= mag / 2^e < 2.
        e = _ilog2(mag)
        # Round magnitude to significand with fmt.fraction_bits fraction
        # bits: sig = round(mag / 2^(e - fraction_bits)).
        sig = round_scaled(mag, e - fmt.fraction_bits, mode)
        if sig >= (1 << fmt.significand_bits):
            # Rounding overflowed into the next binade (e.g. 1.111..1
            # rounded up).  Renormalize.
            sig >>= 1
            e += 1
        if sig < (1 << fmt.fraction_bits):
            # Can only happen for pathological inputs; renormalize down.
            while sig and sig < (1 << fmt.fraction_bits):
                sig <<= 1
                e -= 1
        if sig == 0:
            return cls.zero(fmt, sign)
        be = e + fmt.bias
        if be > fmt.max_biased_exponent:
            return cls.inf(fmt, sign)
        if be < 1:
            return cls.zero(fmt, sign)  # flush-to-zero
        return cls.from_parts(fmt, sign, be, sig & fmt.fraction_mask)

    # ------------------------------------------------------------------
    # observers
    # ------------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.cls is FpClass.ZERO

    @property
    def is_normal(self) -> bool:
        return self.cls is FpClass.NORMAL

    @property
    def is_inf(self) -> bool:
        return self.cls is FpClass.INF

    @property
    def is_nan(self) -> bool:
        return self.cls is FpClass.NAN

    @property
    def is_finite(self) -> bool:
        return self.cls in (FpClass.ZERO, FpClass.NORMAL)

    @property
    def significand(self) -> int:
        """Significand including the implied leading 1 (NORMAL only)."""
        if not self.is_normal:
            raise ValueError("significand of a non-normal value")
        return self.fraction | (1 << self.fmt.fraction_bits)

    @property
    def unbiased_exponent(self) -> int:
        if not self.is_normal:
            raise ValueError("exponent of a non-normal value")
        return self.biased_exponent - self.fmt.bias

    def to_fraction(self) -> Fraction:
        """Exact rational value (finite values only)."""
        if self.is_zero:
            return Fraction(0)
        if not self.is_normal:
            raise ValueError(f"no finite rational value for {self.cls}")
        mag = Fraction(self.significand)
        shift = self.unbiased_exponent - self.fmt.fraction_bits
        if shift >= 0:
            mag *= 1 << shift
        else:
            mag /= 1 << (-shift)
        return -mag if self.sign else mag

    def to_float(self) -> float:
        """Convert to a Python float (rounded if the format is wider)."""
        if self.is_nan:
            return math.nan
        if self.is_inf:
            return -math.inf if self.sign else math.inf
        if self.is_zero:
            return -0.0 if self.sign else 0.0
        f = self.to_fraction()
        try:
            return float(f)
        except OverflowError:
            return -math.inf if self.sign else math.inf

    # ------------------------------------------------------------------
    # packing (bit-exact round trips; used by the HLS converters and the
    # switching-activity energy model)
    # ------------------------------------------------------------------

    def pack(self) -> int:
        """Pack into the FloPoCo-style word: 2 exception bits, sign,
        exponent, fraction (MSB first)."""
        word = self.cls.value
        word = (word << 1) | self.sign
        word = (word << self.fmt.exponent_bits) | (
            self.biased_exponent if self.is_normal else 0)
        word = (word << self.fmt.fraction_bits) | (
            self.fraction if self.is_normal else 0)
        return word

    @classmethod
    def unpack(cls, word: int, fmt: FloatFormat) -> "FPValue":
        """Inverse of :meth:`pack`."""
        frac = word & fmt.fraction_mask
        word >>= fmt.fraction_bits
        be = word & fmt.exponent_mask
        word >>= fmt.exponent_bits
        sign = word & 1
        word >>= 1
        fpclass = FpClass(word & 3)
        if fpclass is FpClass.NORMAL:
            return cls.from_parts(fmt, sign, be, frac)
        return cls(fmt, fpclass, sign)

    @property
    def packed_width(self) -> int:
        """Width in bits of the packed word."""
        return self.fmt.total_bits + 2

    # ------------------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.is_normal:
            return (f"FPValue({self.fmt.name}, {'-' if self.sign else '+'}"
                    f"1.{self.fraction:0{self.fmt.fraction_bits}b} * "
                    f"2^{self.unbiased_exponent})")
        return f"FPValue({self.fmt.name}, {self.cls.name}, sign={self.sign})"


# ---------------------------------------------------------------------------
# binary64 word codec: the one boundary format between the serving layer
# (hex words on the wire) and the batch kernels (uint64 lane arrays)

_WORD_MASK = (1 << 64) - 1
_FRAC_MASK = (1 << 52) - 1
_QNAN = 0x7FF8000000000000


def fp_to_word(x: FPValue) -> int:
    """IEEE binary64 bit pattern of a binary64 ``x`` (NaN canonicalized
    to the quiet NaN, matching the golden-vector corpus; *not* the
    FloPoCo :meth:`FPValue.pack` word, which carries two extra exception
    bits)."""
    if x.is_nan:
        return _QNAN
    if x.is_inf:
        return (x.sign << 63) | 0x7FF0000000000000
    if x.is_zero:
        return x.sign << 63
    return (x.sign << 63) | (x.biased_exponent << 52) | x.fraction


def word_to_fp(word: int) -> FPValue:
    """Decode an IEEE binary64 bit pattern exactly.

    Subnormal encodings flush to signed zero -- the same loader
    semantics as :meth:`FPValue.from_float` and the FloPoCo-style models.
    """
    word &= _WORD_MASK
    sign = (word >> 63) & 1
    be = (word >> 52) & 0x7FF
    frac = word & _FRAC_MASK
    if be == 0x7FF:
        return (FPValue.nan(BINARY64) if frac
                else FPValue.inf(BINARY64, sign))
    if be == 0:  # subnormal or zero: flush, preserving the sign
        return FPValue.zero(BINARY64, sign)
    return FPValue.from_parts(BINARY64, sign, be, frac)


def _ilog2(mag: Fraction) -> int:
    """floor(log2(mag)) for a positive rational, computed exactly."""
    num, den = mag.numerator, mag.denominator
    e = num.bit_length() - den.bit_length()
    # 2^e <= num/den < 2^(e+2); fix up by comparison.
    if e >= 0:
        if num < den << e:
            e -= 1
        elif num >= den << (e + 1):
            e += 1
    else:
        if num << (-e) < den:
            e -= 1
        elif num << (-e - 1) >= den:
            e += 1
    return e
