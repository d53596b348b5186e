"""Primal-dual interior-point QP solver (the CVXGEN-style algorithm).

A standard infeasible-start primal-dual method with Mehrotra-like
centering: each iteration assembles the regularized KKT system of
:mod:`repro.solvers.kkt`, factors it with the static-order LDL^T of
:mod:`repro.solvers.ldl`, and performs the triangular solves -- the
`ldlsolve()` kernel the paper accelerates.

The solve step is pluggable: the default runs the numeric
:func:`~repro.solvers.ldl.ldl_solve`; a :class:`KernelBackend` instead
executes the *generated* straight-line kernel through the HLS simulator,
optionally with the bit-accurate PCS/FCS FMA arithmetic -- demonstrating
end to end that the hardware numerics solve the control problem.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .codegen import SolverKernel, generate_kernel
from .kkt import assemble_kkt, kkt_sparsity
from .ldl import SymbolicLDL, ldl_solve, numeric_ldl, symbolic_ldl
from .qp import QPProblem

__all__ = ["IPMResult", "InteriorPointSolver", "KernelBackend"]

SolveFn = Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass
class IPMResult:
    """Outcome of an interior-point solve."""

    z: np.ndarray
    converged: bool
    iterations: int
    objective: float
    duality_gap: float
    residual: float
    kkt_solves: int = 0


class KernelBackend:
    """Executes the generated `ldlsolve()` kernel for the solve phase.

    ``engine`` selects the arithmetic: ``None`` uses bit-accurate IEEE
    binary64 operators; a PCS/FCS chain engine runs the kernel after the
    FMA-insertion pass with carry-save arithmetic.
    """

    def __init__(self, kernel: SolverKernel, engine=None,
                 fma_flavor: str | None = None):
        from ..hls import default_library, parse_program, run_fma_insertion

        self.kernel = kernel
        self.engine = engine
        self.graph = parse_program(kernel.source,
                                   outputs=kernel.output_names)
        self.pass_report = None
        if engine is not None:
            flavor = fma_flavor or engine.unit.params.name
            library = default_library(fma_flavor=flavor)
            self.pass_report = run_fma_insertion(self.graph, library)

    def solve(self, L: dict, D: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        from ..hls import simulate

        binds = self.kernel.input_bindings(L, D, rhs)
        outs = simulate(self.graph, binds, engine=self.engine)
        return self.kernel.unpermute(outs)


@dataclass
class InteriorPointSolver:
    """Primal-dual IPM over a fixed QP structure."""

    problem: QPProblem
    max_iterations: int = 40
    tolerance: float = 1e-7
    regularization: float = 1e-7
    backend: KernelBackend | None = None
    _symbolic: SymbolicLDL | None = field(default=None, repr=False)

    def _sym(self) -> SymbolicLDL:
        if self._symbolic is None:
            self._symbolic = symbolic_ldl(kkt_sparsity(self.problem))
        return self._symbolic

    @classmethod
    def with_kernel_backend(cls, problem: QPProblem, engine=None,
                            **kw) -> "InteriorPointSolver":
        """Construct a solver whose `ldlsolve` runs the generated kernel
        (optionally with carry-save FMA arithmetic)."""
        kernel = generate_kernel(problem)
        return cls(problem, backend=KernelBackend(kernel, engine), **kw)

    # ------------------------------------------------------------------

    def solve(self) -> IPMResult:
        p = self.problem
        n, m, q = p.n, p.n_eq, p.n_ineq
        z = np.zeros(n)
        nu = np.zeros(m)
        s = np.maximum(p.h - p.G @ z, 1.0)
        lam = np.ones(q)
        sym = self._sym()
        kkt_solves = 0

        for it in range(1, self.max_iterations + 1):
            rx = p.P @ z + p.q + p.A.T @ nu + p.G.T @ lam
            re = p.A @ z - p.b
            ri = p.G @ z + s - p.h
            mu = float(s @ lam / q) if q else 0.0
            res = max(np.max(np.abs(rx), initial=0.0),
                      np.max(np.abs(re), initial=0.0),
                      np.max(np.abs(ri), initial=0.0))
            if res < self.tolerance and mu < self.tolerance:
                return IPMResult(z, True, it - 1, p.objective(z), mu, res,
                                 kkt_solves)

            sigma = 0.1
            w = s / lam
            K = assemble_kkt(p, w, self.regularization)
            L, D = numeric_ldl(K, sym)

            # third block: G dz - W dlam = -ri + s - sigma*mu/lam
            # (substituting ds from the complementarity linearization)
            rhs = np.concatenate([
                -rx,
                -re,
                -ri + s - (sigma * mu) / lam,
            ])
            if self.backend is not None:
                step = self.backend.solve(L, D, rhs)
            else:
                step = ldl_solve(L, D, sym, rhs)
            kkt_solves += 1
            dz = step[:n]
            dnu = step[n:n + m]
            dlam = step[n + m:]
            # ds from the linearized complementarity condition
            # s.lam + s.dlam + lam.ds = sigma*mu
            ds = (sigma * mu - s * lam - s * dlam) / lam

            alpha = 1.0
            for vec, dvec in ((s, ds), (lam, dlam)):
                neg = dvec < 0
                if np.any(neg):
                    alpha = min(alpha,
                                float(np.min(-vec[neg] / dvec[neg])))
            alpha = min(1.0, 0.99 * alpha)

            z = z + alpha * dz
            nu = nu + alpha * dnu
            lam = np.maximum(lam + alpha * dlam, 1e-12)
            s = np.maximum(s + alpha * ds, 1e-12)

        rx = p.P @ z + p.q + p.A.T @ nu + p.G.T @ lam
        mu = float(s @ lam / q) if q else 0.0
        res = float(np.max(np.abs(rx), initial=0.0))
        return IPMResult(z, False, self.max_iterations, p.objective(z),
                         mu, res, kkt_solves)
