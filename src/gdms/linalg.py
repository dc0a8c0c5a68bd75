"""Power iteration for Perron values of nonnegative operators.

All spectral radii in this package are computed by the same routine: power
iteration with a unit diagonal shift (which removes periodicity of the
underlying nonnegative matrix without moving its Perron vector), a
deterministic uniform start vector, and a sup-norm eigen-residual as the
stopping criterion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConvergenceError


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
    raise_on_failure: bool = True,
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
    lam = 0.0
    best = (np.inf, 0.0, v)
    for k in range(1, max_iter + 1):
        av = matvec(v)
        lam = float(v @ av)  # Rayleigh quotient; v is kept at unit 2-norm
        residual = float(np.max(np.abs(av - lam * v))) / max(
            float(np.max(np.abs(v))), 1e-300
        )
        if residual < best[0]:
            best = (residual, lam, v.copy())
        if residual <= tol * max(1.0, abs(lam)):
            return PerronResult(lam, v, k, residual)
        w = av + v
        nrm = np.linalg.norm(w)
        if nrm == 0.0:
            # A v = -v is impossible for nonnegative A and positive v; a zero
            # update means A annihilates v and the shift keeps v fixed.
            return PerronResult(0.0, v, k, 0.0)
        v = w / nrm
    if raise_on_failure:
        raise ConvergenceError(
            f"power iteration did not reach tol={tol} in {max_iter} iterations "
            f"(best residual {best[0]:.3e})",
            residual=best[0],
        )
    return PerronResult(best[1], best[2], max_iter, best[0])


def perron_value_dense(
    matrix: np.ndarray,
    tol: float = 1e-12,
    max_iter: int = 1_000_000,
    v0: np.ndarray | None = None,
) -> PerronResult:
    m = np.asarray(matrix, dtype=float)
    return perron_value(lambda v: m @ v, m.shape[0], tol=tol, max_iter=max_iter, v0=v0)


def richardson_r2_extrapolate(radii, values) -> float:
    """Limit estimate assuming value(R) = limit - c / R**2.

    The Dirichlet-truncation ladders of this package converge at that rate;
    the two largest radii determine the limit.  Falls back to the last value
    for degenerate input.
    """
    if len(values) < 2 or len(radii) != len(values):
        return float(values[-1])
    r1, r2 = float(radii[-2]), float(radii[-1])
    v1, v2 = float(values[-2]), float(values[-1])
    if r1 <= 0 or r2 <= r1:
        return v2
    w1, w2 = 1.0 / r1**2, 1.0 / r2**2
    return (v2 * w1 - v1 * w2) / (w1 - w2)
