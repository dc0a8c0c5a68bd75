"""Perron values of symmetric nonnegative operators by thick-restart Lanczos.

``perron_value`` is a thick-restart Lanczos iteration (Wu and Simon, SIAM
J. Matrix Anal. Appl. 22, 2000) from a deterministic uniform start,
certified only by a sup-norm eigen-residual checked on an explicit matvec.
The generic walk ladder (``walks``) is its one caller, on Dirichlet walk
steps, which are symmetric.  On a Dirichlet truncation whose spectral gap
closes like 1/R^2 (Z^k balls), a Krylov method needs O(R) matvecs where
power iteration needs O(R^2), and Lanczos' three-term recurrence
orthogonalises against the last two basis vectors only (Saad, *Numerical
Methods for Large Eigenvalue Problems*, 2011, ch. 6).  A restart keeps the
top Ritz vectors and the residual direction, so a slowly converging rung
does not start each cycle again from one vector.  The one nonsymmetric
matrix of a command, the induced system's 2d x 2d loop matrix, goes to
LAPACK (``kernel.induced_bowen_root``); the nonsymmetric skew operator is
solved only in tests.  Every Dirichlet truncation ladder is read by the
same limit rule, ``truncation_limit``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConvergenceError

# A truncation ladder has plateaued when its last rung moved less than this.
PLATEAU_TOL = 1e-3

# Krylov basis of one cycle, and the Ritz vectors a restart keeps of it.
KRYLOV_DIM = 16
KEEP = 8

# Consecutive residual checks without a new best residual that end a solve.
STALL_CHECKS = 8

# Columns per block when a restart rebuilds the kept Ritz vectors in place.
BLOCK_COLS = 1 << 14


@dataclass
class PerronResult:
    value: float
    vector: np.ndarray
    iterations: int
    residual: float


def perron_value(
    matvec: Callable[[np.ndarray], np.ndarray],
    dim: int,
    tol: float = 1e-12,
    max_iter: int = 1_000_000,
) -> PerronResult:
    """Perron value and vector of a symmetric nonnegative operator ``matvec``.

    A basis of at most KRYLOV_DIM unit vectors holds p kept Ritz vectors
    (none at first), then the Lanczos vectors of the current cycle, then
    the residual direction.  A cycle's first product A q is orthogonalised
    against the whole basis, since the kept vectors couple to q (the
    arrowhead of the projected matrix T), and each later product against
    the last two vectors; the cycle ends when the basis is full or the
    next vector's norm beta, which bounds every Ritz residual |beta s_k|,
    falls below ``tol * max(1, lam)``.  A restart keeps the KEEP Ritz
    vectors of the largest Ritz values, rebuilt in place one block of
    columns at a time, with T diagonal on them and coupled to the residual
    direction by beta s_k, the top Ritz vector v signed to a positive sum.
    A symmetric nonnegative operator has a real spectrum in [-rho, rho], so
    the top Ritz value tends to rho.

    Lanczos vectors lose orthogonality in floating point and the operator's
    symmetry is not checked here, so no cycle is trusted: the residual
    ||A v - lam v||_inf / ||v||_inf, with lam the Rayleigh quotient of v,
    is checked on an explicit matvec, and it alone certifies the result.
    It is checked at the uniform start (whose product is also the first
    Lanczos step) and after each restart, except while the Ritz estimate
    |beta s_k| of v exceeds sqrt(dim) ||v||_inf tol max(1, lam): a 2-norm
    residual that large cannot pass the sup-norm check, so that matvec
    would be spent for nothing.  The zero operator passes the check on the
    first matvec.  The iteration stops when the residual falls below
    ``tol * max(1, lam)``, and raises ConvergenceError (carrying the best
    residual) once ``max_iter`` matvecs have not reached it, or once
    STALL_CHECKS checks in a row set no new best residual: a residual
    stuck at the rounding floor of the operator above ``tol`` never passes.
    The last matvec of the budget is always a check.  ``iterations`` counts
    matvecs.
    """
    if dim == 0:
        return PerronResult(0.0, np.zeros(0), 0, 0.0)
    m = min(KRYLOV_DIM, dim + 1)
    basis = np.empty((m, dim))
    basis[0] = 1.0 / dim
    basis[0] /= np.linalg.norm(basis[0])
    proj = np.zeros((m, m))  # T on basis[: k + 1], symmetric
    p = 0  # kept Ritz vectors basis[:p]; a cycle expands from basis[p]
    v = basis[0]
    check = True
    calls = 0
    best = np.inf
    stalled = 0  # checks since the last new best residual
    while True:
        if check:
            w = matvec(v)
            calls += 1
            lam = float(v @ w)  # Rayleigh quotient; v is kept at unit 2-norm
            residual = float(np.max(np.abs(w - lam * v))) / float(np.max(np.abs(v)))
            if residual <= tol * max(1.0, abs(lam)):
                return PerronResult(lam, v.copy(), calls, residual)
            stalled = 0 if residual < best else stalled + 1
            best = min(best, residual)
        if calls >= max_iter or stalled >= STALL_CHECKS:
            raise ConvergenceError(
                f"Krylov iteration did not reach tol={tol} in {calls} matvecs "
                f"(best residual {best:.3e})",
                residual=best,
            )
        k = p
        if p:
            w = matvec(basis[p])
            calls += 1
        while True:
            done = basis[0 if k == p else k - 1 : k + 1]
            h = done @ w
            q = basis[k + 1]
            np.subtract(w, h @ done, out=q)
            proj[k, k] = h[-1]
            if k > p:
                proj[k - 1, k] = proj[k, k - 1] = beta
            beta = float(np.linalg.norm(q))
            if k + 2 == m or calls + 1 >= max_iter or beta <= tol * max(1.0, abs(lam)):
                break
            q /= beta
            w = matvec(q)
            calls += 1
            k += 1
        theta, s = np.linalg.eigh(proj[: k + 1, : k + 1])  # ascending
        p = min(KEEP, k + 1, m - 2)
        keep = s[:, -p:].T
        for a in range(0, dim, BLOCK_COLS):
            cols = slice(a, a + BLOCK_COLS)
            basis[:p, cols] = keep @ basis[: k + 1, cols]
        couple = beta * s[k, -p:]
        v = basis[p - 1]
        sign = np.copysign(1.0, v.sum())
        v *= sign / np.linalg.norm(v)
        couple[-1] *= sign
        q = basis[p]
        q[:] = basis[k + 1]
        q -= (basis[:p] @ q) @ basis[:p]
        q /= np.linalg.norm(q) or 1.0  # a zero residual: the space is invariant
        proj[:] = 0.0
        proj[range(p), range(p)] = theta[-p:]
        proj[:p, p] = proj[p, :p] = couple
        passable = np.sqrt(dim) * max(v.max(), -v.min()) * tol * max(1.0, abs(theta[-1]))
        check = abs(couple[-1]) <= passable or calls + 1 >= max_iter


def truncation_limit(radii: Sequence[int], rho: Sequence[float]) -> tuple[float, bool]:
    """Limit estimate and plateau flag of a Dirichlet truncation ladder.

    ``rho[i]`` is the truncated spectral radius at ``radii[i]``, radii
    ascending.  A ladder that never falls (up to 1e-10) and still rises at
    its last rung is extrapolated from its last two rungs, assuming
    rho(R) = limit - c / R**2; any other ladder, one rung included, gives
    its supremum.  Either way the limit is capped at 1, which bounds
    every ladder of this package.  ``plateau`` is true when the last rung is
    within PLATEAU_TOL of the largest earlier rung at least two radii below
    it.
    """
    limit = max(rho)
    rising = all(b >= a - 1e-10 for a, b in zip(rho, rho[1:]))
    if len(rho) >= 2 and rising and rho[-1] > rho[-2]:
        r1, r2 = float(radii[-2]), float(radii[-1])
        if 0 < r1 < r2:
            w1, w2 = 1.0 / r1**2, 1.0 / r2**2
            limit = (rho[-1] * w1 - rho[-2] * w2) / (w1 - w2)
    plateau = False
    prev = [i for i, r in enumerate(radii[:-1]) if r <= radii[-1] - 2]
    if prev:
        plateau = abs(rho[-1] - rho[prev[-1]]) < PLATEAU_TOL
    return min(float(limit), 1.0), plateau
