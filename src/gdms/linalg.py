"""Perron values of symmetric nonnegative operators by restarted Lanczos.

Every spectral radius that a command computes by iteration comes from one
routine, ``perron_value``: an explicitly restarted Lanczos iteration from a
deterministic uniform start, stopped by a sup-norm eigen-residual checked
on an explicit matvec.  Its operators are all symmetric: the pressure's
symmetrised transfer matrix S(s) = U^{1/2} A U^{1/2}
(``pressure.perron_data``), the Dirichlet walk steps of ``walks`` and the
symmetrised tree-radial chain.  On a Dirichlet truncation whose spectral
gap closes like 1/R^2 (Z^k balls), a Krylov method needs O(R) matvecs where
power iteration needs O(R^2), and Lanczos' three-term recurrence
orthogonalises against the last two basis vectors only (Saad, *Numerical
Methods for Large Eigenvalue Problems*, 2011, ch. 6).  The one
nonsymmetric matrix of a command, the induced system's 2d x 2d loop matrix,
goes to LAPACK (``kernel.induced_bowen_root``); the nonsymmetric skew
operator is solved only in tests.  Every Dirichlet truncation ladder of
those spectral radii is read by the same limit rule, ``truncation_limit``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConvergenceError

# A truncation ladder has plateaued when its last rung moved less than this.
PLATEAU_TOL = 1e-3

# Largest Krylov basis of one cycle before it restarts.
KRYLOV_DIM = 30

EPS = np.finfo(float).eps


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

    Each cycle extends the current vector v to a Lanczos basis of at most
    KRYLOV_DIM vectors: alpha_k = q_k.A q_k and A q_k - alpha_k q_k -
    beta_{k-1} q_{k-1} give the next vector, and the cycle restarts from the
    Ritz vector of the top eigenvalue of the symmetric tridiagonal T_k
    (``eigh``), signed to a positive sum.  A symmetric nonnegative operator
    has a real spectrum in [-rho, rho], so that Ritz value tends to rho.
    Lanczos vectors lose orthogonality in floating point and the operator's
    symmetry is not checked here, so the cycle is not trusted: before each
    cycle the residual ||A v - lam v||_inf / ||v||_inf, with lam the
    Rayleigh quotient of v, is checked on an explicit matvec, and it alone
    certifies the result.  The zero operator passes that check on the first
    matvec.  The iteration stops when the residual falls below
    ``tol * max(1, lam)``, and raises ConvergenceError (carrying the best
    residual) once ``max_iter`` matvecs have not reached it.
    ``iterations`` counts matvecs.
    """
    if dim == 0:
        return PerronResult(0.0, np.zeros(0), 0, 0.0)
    v = np.full(dim, 1.0 / dim)
    v /= np.linalg.norm(v)
    m = min(KRYLOV_DIM, dim)
    basis = np.empty((m + 1, dim))
    # hess[:k, :k] is kept as the full tridiagonal T_k
    hess = np.zeros((m + 1, m))
    calls = 0
    best = np.inf
    while True:
        av = matvec(v)
        calls += 1
        lam = float(v @ av)  # Rayleigh quotient; v is kept at unit 2-norm
        residual = float(np.max(np.abs(av - lam * v))) / float(np.max(np.abs(v)))
        best = min(best, residual)
        if residual <= tol * max(1.0, abs(lam)):
            return PerronResult(lam, v, calls, residual)
        if calls >= max_iter:
            raise ConvergenceError(
                f"Krylov iteration did not reach tol={tol} in {max_iter} matvecs "
                f"(best residual {best:.3e})",
                residual=best,
            )
        # One Lanczos cycle from v, reusing A v as its first product.
        basis[0] = v
        w = av
        k = 0
        while True:
            # w = A q_k - alpha_k q_k - beta_{k-1} q_{k-1}
            j = max(k - 1, 0)
            hess[k, k] = basis[k] @ w
            hess[j, k] = hess[k, j]
            w = w - hess[j : k + 1, k] @ basis[j : k + 1]
            beta = float(np.linalg.norm(w))
            hess[k + 1, k] = beta
            k += 1
            # Stop at the basis size, at an invariant subspace, or where the
            # next product would leave no matvec for the residual check.
            invariant = beta <= EPS * np.linalg.norm(hess[: k + 1, k - 1])
            if k == m or invariant or calls + 1 >= max_iter:
                break
            np.divide(w, beta, out=basis[k])
            w = matvec(basis[k])
            calls += 1
        s = np.linalg.eigh(hess[:k, :k])[1][:, -1]  # eigenvalues ascend
        y = s @ basis[:k]
        if y.sum() < 0.0:
            y = -y
        v = y / np.linalg.norm(y)


def perron_value_dense(
    matrix: np.ndarray, tol: float = 1e-12, max_iter: int = 1_000_000
) -> PerronResult:
    m = np.asarray(matrix, dtype=float)
    return perron_value(lambda v: m @ v, m.shape[0], tol=tol, max_iter=max_iter)


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
