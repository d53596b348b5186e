"""IEEE-754 substrate: formats, values, rounding, discrete operators.

This package models the *standard-conforming* side of the paper: the
binary formats of Fig. 2, FloPoCo-style exception wires, the discrete
multiplier/adder baselines (CoreGen-like), the widened 68b/75b accuracy
reference formats of Fig. 14, and an exact rational oracle.
"""

from .formats import (BINARY32, BINARY64, EXTENDED68, EXTENDED75,
                      FloatFormat, format_by_name)
from .ops import (as_format, double, exact_fma_fraction, fp_abs, fp_add,
                  fp_div, fp_fma, fp_mul, fp_mul_add_discrete, fp_neg,
                  fp_sub)
from .reference import (ExactTrace, mantissa_error_bits, run_recurrence_exact,
                        ulp_error)
from .rounding import RoundingMode, round_fraction_to_int, round_scaled, \
    shift_right_round
from .value import FpClass, FPValue, fp_to_word, word_to_fp

__all__ = [
    "BINARY32", "BINARY64", "EXTENDED68", "EXTENDED75",
    "FloatFormat", "format_by_name",
    "FpClass", "FPValue", "fp_to_word", "word_to_fp",
    "RoundingMode", "round_fraction_to_int", "round_scaled",
    "shift_right_round",
    "fp_add", "fp_sub", "fp_mul", "fp_div", "fp_neg", "fp_abs", "fp_fma",
    "fp_mul_add_discrete", "as_format", "double", "exact_fma_fraction",
    "ExactTrace", "mantissa_error_bits", "ulp_error",
    "run_recurrence_exact",
]
