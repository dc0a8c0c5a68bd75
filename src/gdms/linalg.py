"""Restarted Krylov iterations for Perron values of nonnegative operators.

All spectral radii in this package are computed by the same routine,
``perron_value``: an exact nilpotency test on supports, then an explicitly
restarted Krylov iteration from a deterministic uniform start, stopped by a
sup-norm eigen-residual checked on an explicit matvec.  On a Dirichlet
truncation whose spectral gap closes like 1/R^2 (Z^k balls), a Krylov method
needs O(R) matvecs where power iteration needs O(R^2) (Saad, *Numerical
Methods for Large Eigenvalue Problems*, 2011).  Each cycle is Arnoldi, which
orthogonalises every new vector against the whole basis, unless the caller
declares the operator symmetric: then it is Lanczos, whose three-term
recurrence orthogonalises against the last two basis vectors only and
spans the same Krylov space.  The symmetric walk ladders of ``walks`` and
the pressure's symmetrised transfer matrix S(s) (``pressure.perron_data``)
take Lanczos; the induced loop matrix, the tree-radial chain and every
other nonsymmetric operator take Arnoldi.  Every Dirichlet truncation
ladder of those spectral radii is read by the same limit rule,
``truncation_limit``.
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
    symmetric: bool = False,
) -> PerronResult:
    """Perron value and vector of a nonnegative operator given by ``matvec``.

    A nilpotent operator (spectral radius 0) is recognised exactly by
    ``_null_indicator`` and returns 0 with an exact null vector.  Otherwise
    each cycle extends the current vector v to a Krylov basis of at most
    KRYLOV_DIM vectors and restarts from the Ritz vector of the Ritz value
    of largest real part, signed to a positive sum; for a nonnegative
    operator that value tends to the Perron value, and choosing it by real
    part rather than modulus passes over -rho of periodic incidence
    structures.  The cycle is Arnoldi (Gram-Schmidt against the whole basis,
    applied twice; Ritz pairs of the Hessenberg matrix), or, with
    ``symmetric``, Lanczos: alpha_k = q_k.A q_k and
    A q_k - alpha_k q_k - beta_{k-1} q_{k-1} give the next vector, and the
    Ritz pairs are those of the symmetric tridiagonal T_k (``eigh``).  A
    symmetric nonnegative operator has a real spectrum in [-rho, rho], so
    the top Ritz value tends to rho.  Lanczos vectors lose orthogonality in
    floating point and the caller's claim of symmetry is not checked here,
    so neither cycle is trusted: before each cycle the residual
    ||A v - lam v||_inf / ||v||_inf, with lam the Rayleigh quotient of v,
    is checked on an explicit matvec, and it alone certifies the result.
    The iteration stops when it falls below ``tol * max(1, lam)``, and
    raises ConvergenceError (carrying the best residual) once ``max_iter``
    matvecs have not reached it.  ``iterations`` counts matvecs, those of
    the nilpotency test included.
    """
    if dim == 0:
        return PerronResult(0.0, np.zeros(0), 0, 0.0)
    null, calls = _null_indicator(matvec, dim)
    if null is not None:
        return PerronResult(0.0, null / np.linalg.norm(null), calls, 0.0)
    v = np.full(dim, 1.0 / dim)
    v /= np.linalg.norm(v)
    m = min(KRYLOV_DIM, dim)
    basis = np.empty((m + 1, dim))
    hess = np.zeros((m + 1, m))
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
        # One Krylov cycle from v, reusing A v as its first product.
        basis[0] = v
        w = av
        k = 0
        while True:
            if symmetric:
                # hess[:k, :k] is kept as the full tridiagonal T_k:
                # w = A q_k - alpha_k q_k - beta_{k-1} q_{k-1}
                j = max(k - 1, 0)
                hess[k, k] = basis[k] @ w
                hess[j, k] = hess[k, j]
                w = w - hess[j : k + 1, k] @ basis[j : k + 1]
            else:
                q = basis[: k + 1]
                h = q @ w
                w = w - h @ q
                h2 = q @ w
                w -= h2 @ q
                hess[: k + 1, k] = h + h2
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
        if symmetric:
            s = np.linalg.eigh(hess[:k, :k])[1][:, -1]  # eigenvalues ascend
        else:
            theta, vecs = np.linalg.eig(hess[:k, :k])
            s = vecs[:, int(np.argmax(theta.real))]
            s = (s * np.conj(s[np.argmax(np.abs(s))])).real
        y = s @ basis[:k]
        if y.sum() < 0.0:
            y = -y
        v = y / np.linalg.norm(y)


def _null_indicator(
    matvec: Callable[[np.ndarray], np.ndarray], dim: int
) -> tuple[np.ndarray | None, int]:
    """Exact nilpotency test of a nonnegative operator A on supports.

    The supports S_k of A^k 1 are nested (S_1 lies in S_0, and S_{k+1} is
    the set A reaches from S_k), so they either empty out, which happens
    exactly when A is nilpotent, or stop shrinking at a nonempty set, which
    proves A is not.  Each step applies A to the 0/1 indicator of S_k,
    whose image has support S_{k+1}; no entry decays towards rounding level
    as in A^k 1 itself.  Returns the indicator of the last nonempty S_k,
    which A maps to zero, or None, and the number of matvecs.
    """
    x = np.ones(dim)
    size = dim
    calls = 0
    while True:
        live = matvec(x) != 0.0
        calls += 1
        n = int(np.count_nonzero(live))
        if n == 0:
            return x, calls
        if n == size:
            return None, calls
        size = n
        x = live.astype(float)


def perron_value_dense(
    matrix: np.ndarray,
    tol: float = 1e-12,
    max_iter: int = 1_000_000,
    symmetric: bool = False,
) -> PerronResult:
    m = np.asarray(matrix, dtype=float)
    return perron_value(
        lambda v: m @ v, m.shape[0], tol=tol, max_iter=max_iter, symmetric=symmetric
    )


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
