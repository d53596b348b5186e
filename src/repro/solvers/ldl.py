"""Sparse LDL^T factorization: ordering, symbolic analysis, numerics.

CVXGEN's generated solvers rely on an ahead-of-time *symbolic* LDL^T
factorization of the fixed-sparsity KKT matrix: the elimination order,
the fill-in pattern and therefore the full straight-line program of the
factor/solve phases are known at code-generation time.  This module
implements that pipeline:

* :func:`min_degree_order` -- a greedy minimum-degree fill-reducing
  permutation,
* :func:`symbolic_ldl` -- fill-in analysis for a fixed order,
* :func:`numeric_ldl` / :func:`ldl_solve` -- the actual factorization
  (no pivoting; the regularized quasidefinite KKT makes this sound) and
  the triangular solves,

and is the data source for the `ldlsolve()` code generator in
:mod:`repro.solvers.codegen`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "min_degree_order",
    "SymbolicLDL",
    "symbolic_ldl",
    "numeric_ldl",
    "ldl_solve",
    "ldl_solve_dense",
]


def min_degree_order(pattern: np.ndarray) -> np.ndarray:
    """Greedy minimum-degree ordering of a symmetric sparsity pattern.

    Simulates elimination on the boolean adjacency structure, always
    picking the node of least current degree (ties by index for
    determinism).  Returns the permutation ``order`` such that pivot
    ``k`` eliminates original row/column ``order[k]``.
    """
    n = pattern.shape[0]
    adj: list[set[int]] = [set(np.nonzero(pattern[i])[0].tolist()) - {i}
                           for i in range(n)]
    alive = set(range(n))
    order = np.empty(n, dtype=int)
    for k in range(n):
        pick = min(alive, key=lambda i: (len(adj[i] & alive), i))
        order[k] = pick
        alive.discard(pick)
        neigh = adj[pick] & alive
        for i in neigh:
            adj[i] |= neigh - {i}
            adj[i].discard(pick)
    return order


@dataclass(frozen=True)
class SymbolicLDL:
    """Result of the symbolic analysis.

    ``order`` maps pivot position -> original index; ``l_pattern`` holds
    the strictly-lower-triangular non-zero positions of L *in permuted
    coordinates*, row-major sorted.
    """

    n: int
    order: np.ndarray
    l_pattern: tuple[tuple[int, int], ...]

    @property
    def nnz(self) -> int:
        return len(self.l_pattern)

    def rows(self) -> list[list[int]]:
        """Column indices of L per row (permuted coordinates)."""
        out: list[list[int]] = [[] for _ in range(self.n)]
        for i, j in self.l_pattern:
            out[i].append(j)
        return out

    def cols(self) -> list[list[int]]:
        """Row indices of L per column (permuted coordinates)."""
        out: list[list[int]] = [[] for _ in range(self.n)]
        for i, j in self.l_pattern:
            out[j].append(i)
        return out


def symbolic_ldl(pattern: np.ndarray,
                 order: np.ndarray | None = None) -> SymbolicLDL:
    """Compute the fill-in pattern of L for a fixed elimination order."""
    n = pattern.shape[0]
    if pattern.shape != (n, n):
        raise ValueError("pattern must be square")
    if not np.array_equal(pattern, pattern.T):
        raise ValueError("pattern must be symmetric")
    if order is None:
        order = min_degree_order(pattern)
    perm = np.asarray(order)
    # permuted boolean matrix
    pat = pattern[np.ix_(perm, perm)].copy()
    np.fill_diagonal(pat, True)
    lpat: list[tuple[int, int]] = []
    for k in range(n):
        below = np.nonzero(pat[k + 1:, k])[0] + k + 1
        for i in below:
            lpat.append((int(i), k))
        # fill-in: eliminating k connects all its below-diagonal entries
        for a in below:
            for bidx in below:
                if bidx < a:
                    pat[a, bidx] = True
                    pat[bidx, a] = True
    lpat.sort()
    return SymbolicLDL(n, perm, tuple(lpat))


def _batch_plan(sym: SymbolicLDL) -> dict:
    """Static gather plan for the batched factorization kernel.

    Everything here depends only on the sparsity (the CVXGEN premise:
    the elimination schedule is known ahead of time), so it is computed
    once per :class:`SymbolicLDL` and cached on the instance:

    * per-row column indices of L and their flat entry numbers,
    * for every L entry ``(i, j)``, aligned gather positions of the
      update terms ``L[i,k] * L[j,k] * D[k]`` (``k`` in row ``i`` and
      row ``j``), in the same ``k`` order as the scalar loop.
    """
    plan = getattr(sym, "_batch_plan", None)
    if plan is not None:
        return plan
    rows = sym.rows()
    entof = {ij: ent for ent, ij in enumerate(sym.l_pattern)}
    rowpos = [{k: t for t, k in enumerate(r)} for r in rows]
    by_col: list[list[tuple]] = [[] for _ in range(sym.n)]
    for ent, (i, j) in enumerate(sym.l_pattern):
        pos_i = rowpos[i]
        pi, pj, ks = [], [], []
        for t, k in enumerate(rows[j]):
            ti = pos_i.get(k)
            if ti is not None:
                pi.append(ti)
                pj.append(t)
                ks.append(k)
        by_col[j].append((i, ent,
                          np.asarray(pi, dtype=np.intp),
                          np.asarray(pj, dtype=np.intp),
                          np.asarray(ks, dtype=np.intp)))
    plan = {
        "row_idx": [np.asarray(r, dtype=np.intp) for r in rows],
        "row_ent": [np.asarray([entof[(i, j)] for j in rows[i]],
                               dtype=np.intp) for i in range(sym.n)],
        "by_col": by_col,
    }
    object.__setattr__(sym, "_batch_plan", plan)
    return plan


def numeric_ldl(K: np.ndarray, sym: SymbolicLDL,
                ) -> tuple[dict[tuple[int, int], float], np.ndarray]:
    """Factor ``K`` (symmetric, quasidefinite) as ``P' K P = L D L'``.

    Returns the sparse L entries (permuted coordinates) and the diagonal
    D.  No pivoting is performed -- exactly the static schedule the
    generated hardware/code uses.

    L values live in a flat array indexed by the static entry order;
    each update term ``(L[i,k] * L[j,k]) * D[k]`` is formed by
    vectorized elementwise gathers (same association as the scalar
    expression) and subtracted in the same serial order, so the factors
    are bit-identical to :func:`_numeric_ldl_reference`.
    """
    n = sym.n
    perm = sym.order
    Kp = K[np.ix_(perm, perm)]
    plan = _batch_plan(sym)
    lval = np.zeros(len(sym.l_pattern))
    D = np.zeros(n)
    by_col = plan["by_col"]
    row_ent = plan["row_ent"]
    row_idx = plan["row_idx"]
    for j in range(n):
        acc = Kp[j, j]
        ents = row_ent[j]
        if len(ents):
            ljk = lval[ents]
            for t in ((ljk * ljk) * D[row_idx[j]]).tolist():
                acc -= t
        if acc == 0.0:
            raise ZeroDivisionError(
                f"zero pivot at position {j}; regularize the KKT system")
        D[j] = acc
        for i, ent, pi, pj, ks in by_col[j]:
            s = Kp[i, j]
            if len(ks):
                li = lval[row_ent[i][pi]]
                lj = lval[row_ent[j][pj]]
                for t in ((li * lj) * D[ks]).tolist():
                    s -= t
            lval[ent] = s / D[j]
    L = {ij: lval[ent] for ent, ij in enumerate(sym.l_pattern)}
    return L, D


def _numeric_ldl_reference(K: np.ndarray, sym: SymbolicLDL,
                           ) -> tuple[dict[tuple[int, int], float],
                                      np.ndarray]:
    """The scalar factorization loop: the reference :func:`numeric_ldl`
    is differentially tested against."""
    n = sym.n
    perm = sym.order
    Kp = K[np.ix_(perm, perm)]
    rows = sym.rows()
    L: dict[tuple[int, int], float] = {}
    D = np.zeros(n)
    for j in range(n):
        # d_j = K_jj - sum_k L_jk^2 d_k
        acc = Kp[j, j]
        for k in rows[j]:
            acc -= L[(j, k)] ** 2 * D[k]
        if acc == 0.0:
            raise ZeroDivisionError(
                f"zero pivot at position {j}; regularize the KKT system")
        D[j] = acc
        # column j of L
        for i, jj in sym.l_pattern:
            if jj != j:
                continue
            s = Kp[i, j]
            row_i = set(rows[i])
            for k in rows[j]:
                if k in row_i:
                    s -= L[(i, k)] * L[(j, k)] * D[k]
            L[(i, j)] = s / D[j]
    return L, D


def ldl_solve(L: dict[tuple[int, int], float], D: np.ndarray,
              sym: SymbolicLDL, rhs: np.ndarray) -> np.ndarray:
    """Solve ``K x = rhs`` given the factorization.

    This is the numeric twin of the generated `ldlsolve()` kernel:
    forward substitution, diagonal scaling, backward substitution, all
    on the fixed sparsity -- long chains of multiply-add operations.
    """
    n = sym.n
    perm = sym.order
    b = rhs[perm].astype(float).copy()
    rows = sym.rows()
    cols = sym.cols()
    # forward: L y = b
    y = np.zeros(n)
    for i in range(n):
        acc = b[i]
        for j in rows[i]:
            acc -= L[(i, j)] * y[j]
        y[i] = acc
    # diagonal
    z = y / D
    # backward: L' x = z
    x = np.zeros(n)
    for i in range(n - 1, -1, -1):
        acc = z[i]
        for j in cols[i]:
            acc -= L[(j, i)] * x[j]
        x[i] = acc
    out = np.zeros(n)
    out[perm] = x
    return out


def ldl_solve_dense(K: np.ndarray, rhs: np.ndarray,
                    sym: SymbolicLDL | None = None) -> np.ndarray:
    """Convenience: symbolic (if needed) + numeric + solve in one call."""
    if sym is None:
        sym = symbolic_ldl(np.abs(K) > 0)
    L, D = numeric_ldl(K, sym)
    return ldl_solve(L, D, sym, rhs)
