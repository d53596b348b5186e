"""Fig. 14 -- numerical accuracy of chained FMA implementations.

The paper feeds "valid but random data" through a pair of chained FMA
units computing the recurrence

    x[n] = B1*x[n-1] + B2*x[n-2] + x[n-3]

to x[50], with 1 < |B1| < 32 and 0 < |B2| < 1, and reports the average
mantissa error over 20 computations against a 75-bit CoreGen datapath
as the golden reference.  We reproduce exactly that setup and
additionally gauge everything against the *exact* rational trajectory.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from ..fma import (DiscreteMulAddEngine, FmaEngine, FusedIeeeEngine,
                   fcs_engine, pcs_engine, run_recurrence)
from ..fp import BINARY64, EXTENDED68, EXTENDED75, FPValue, double

__all__ = ["Fig14Result", "run", "format_table", "make_workload",
           "default_engines"]

STEPS = 48  # x[50] from three seeds, two FMAs per step


def make_workload(seed: int, steps: int = STEPS):
    """One Fig. 14 stimulus: coefficients and seeds."""
    rng = random.Random(seed)
    b1 = [double(rng.choice([-1, 1]) * rng.uniform(1.0, 32.0))
          for _ in range(steps)]
    b2 = [double(rng.choice([-1, 1]) * rng.uniform(1e-9, 1.0))
          for _ in range(steps)]
    x0 = [double(rng.uniform(-1.0, 1.0)) for _ in range(3)]
    return b1, b2, x0


def default_engines() -> list[FmaEngine]:
    return [
        DiscreteMulAddEngine(BINARY64),     # the 64b CoreGen datapath
        DiscreteMulAddEngine(EXTENDED68),   # the 68b variant
        FusedIeeeEngine(),                  # classic FMA baseline
        pcs_engine(),
        fcs_engine(),
    ]


@dataclass(frozen=True)
class Fig14Result:
    engine: str
    mean_ulp_error: float       # avg |x50 - golden| in golden-ULP units
    max_ulp_error: float
    runs: int


def _ulp_of(v: FPValue) -> Fraction:
    e = v.unbiased_exponent - v.fmt.fraction_bits
    return Fraction(1 << e) if e >= 0 else Fraction(1, 1 << (-e))


def run(runs: int = 20, steps: int = STEPS, seed0: int = 0,
        engines: list[FmaEngine] | None = None) -> list[Fig14Result]:
    """Run the accuracy study; golden reference = the 75b datapath
    (exactly the paper's methodology).

    Every engine (golden included) runs as its bit-identical fast twin
    from :mod:`repro.batch` unless ``REPRO_BATCH_BACKEND=faithful``; the
    reported errors are the same down to the last bit.
    """
    from ..batch import accelerate_engine

    engines = [accelerate_engine(e) for e in
               (engines if engines is not None else default_engines())]
    golden_engine = accelerate_engine(DiscreteMulAddEngine(EXTENDED75))
    sums = {e.name: Fraction(0) for e in engines}
    maxes = {e.name: Fraction(0) for e in engines}
    counted = 0
    for r in range(runs):
        b1, b2, x0 = make_workload(seed0 + r, steps)
        golden = run_recurrence(golden_engine, b1, b2, x0, steps).final
        if not golden.is_normal:
            continue
        counted += 1
        gval = golden.to_fraction()
        # errors in units of the golden value's binary64 ULP
        g64 = FPValue.from_fraction(gval, BINARY64)
        ulp = _ulp_of(g64) if g64.is_normal else Fraction(1)
        for e in engines:
            v = run_recurrence(e, b1, b2, x0, steps).final
            err = (abs(v.to_fraction() - gval) / ulp
                   if v.is_normal else Fraction(2 ** 52))
            sums[e.name] += err
            maxes[e.name] = max(maxes[e.name], err)
    return [Fig14Result(e.name, float(sums[e.name] / max(counted, 1)),
                        float(maxes[e.name]), counted)
            for e in engines]


def format_table(results: list[Fig14Result]) -> str:
    out = ["Fig. 14: average mantissa error of x[50] vs 75b golden "
           "reference (binary64 ULPs)",
           f"{'Engine':<22} {'mean ULP err':>12} {'max ULP err':>12}"]
    for r in results:
        out.append(f"{r.engine:<22} {r.mean_ulp_error:>12.3f} "
                   f"{r.max_ulp_error:>12.3f}")
    from .figures import bar_chart

    out.append("")
    out.append(bar_chart([(r.engine, r.mean_ulp_error)
                          for r in results], unit=" ulp"))
    return "\n".join(out)
