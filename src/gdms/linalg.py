"""Power iteration for Perron values of nonnegative operators.

All spectral radii in this package are computed by the same routine: power
iteration with a unit diagonal shift (which removes periodicity of the
underlying nonnegative matrix without moving its Perron vector), a
deterministic uniform start vector, and a sup-norm eigen-residual as the
stopping criterion.  Every Dirichlet truncation ladder of those spectral
radii is read by the same limit rule, ``truncation_limit``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConvergenceError

# A truncation ladder has plateaued when its last rung moved less than this.
PLATEAU_TOL = 1e-3


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
    v0: np.ndarray | None = None,
) -> PerronResult:
    """Perron value and vector of a nonnegative operator given by ``matvec``.

    Iterates v <- (A + I) v; the shift makes the iteration converge even for
    periodic incidence structures (the spectral radius of A is the shifted
    value minus one, with the same eigenvector).  Stops when the residual
    ||A v - lam v||_inf / ||v||_inf falls below ``tol * max(1, lam)``.
    """
    if dim == 0:
        return PerronResult(0.0, np.zeros(0), 0, 0.0)
    v = np.full(dim, 1.0 / dim) if v0 is None else np.asarray(v0, dtype=float).copy()
    nrm = np.linalg.norm(v)
    if nrm == 0.0:
        raise ValueError("start vector must be nonzero")
    v /= nrm
    best = np.inf
    for k in range(1, max_iter + 1):
        av = matvec(v)
        lam = float(v @ av)  # Rayleigh quotient; v is kept at unit 2-norm
        residual = float(np.max(np.abs(av - lam * v))) / max(
            float(np.max(np.abs(v))), 1e-300
        )
        best = min(best, residual)
        if residual <= tol * max(1.0, abs(lam)):
            return PerronResult(lam, v, k, residual)
        w = av + v
        nrm = np.linalg.norm(w)
        if nrm == 0.0:
            # A v = -v is impossible for nonnegative A and positive v; a zero
            # update means A annihilates v and the shift keeps v fixed.
            return PerronResult(0.0, v, k, 0.0)
        v = w / nrm
    raise ConvergenceError(
        f"power iteration did not reach tol={tol} in {max_iter} iterations "
        f"(best residual {best:.3e})",
        residual=best,
    )


def perron_value_dense(
    matrix: np.ndarray,
    tol: float = 1e-12,
    max_iter: int = 1_000_000,
    v0: np.ndarray | None = None,
) -> PerronResult:
    m = np.asarray(matrix, dtype=float)
    return perron_value(lambda v: m @ v, m.shape[0], tol=tol, max_iter=max_iter, v0=v0)


def truncation_limit(
    radii: Sequence[int], rho: Sequence[float], min_rungs: int
) -> tuple[float, bool]:
    """Limit estimate and plateau flag of a Dirichlet truncation ladder.

    ``rho[i]`` is the truncated spectral radius at ``radii[i]``, radii
    ascending.  A ladder of at least ``min_rungs`` rungs that never falls
    (up to 1e-10) and still rises at its last rung is extrapolated from its
    last two rungs, assuming rho(R) = limit - c / R**2; any other ladder
    gives its supremum.  Either way the limit is capped at 1, which bounds
    every ladder of this package.  ``plateau`` is true when the last rung is
    within PLATEAU_TOL of the largest earlier rung at least two radii below
    it.
    """
    limit = max(rho)
    rising = all(b >= a - 1e-10 for a, b in zip(rho, rho[1:]))
    if len(rho) >= max(min_rungs, 2) and rising and rho[-1] > rho[-2]:
        r1, r2 = float(radii[-2]), float(radii[-1])
        if 0 < r1 < r2:
            w1, w2 = 1.0 / r1**2, 1.0 / r2**2
            limit = (rho[-1] * w1 - rho[-2] * w2) / (w1 - w2)
    plateau = False
    prev = [i for i, r in enumerate(radii[:-1]) if r <= radii[-1] - 2]
    if prev:
        plateau = abs(rho[-1] - rho[prev[-1]]) < PLATEAU_TOL
    return min(float(limit), 1.0), plateau
