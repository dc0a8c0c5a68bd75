"""Reference Perron solver for nonsymmetric nonnegative operators.

``linalg.perron_value`` runs Lanczos, which needs a symmetric operator.
The skew operator of ``skew.py``, the kernel step T o L and the test
matrices with Jordan blocks or one-way couplings are not symmetric, so the
tests solve them here: the uniform start, Rayleigh quotient and sup-norm
residual on an explicit matvec of ``perron_value``, but checked before
every cycle, with Arnoldi cycles of at most KRYLOV_DIM steps that restart
from one Ritz vector, signed to a positive sum, and an exact nilpotency
test in front.  No command reads it.
"""

from typing import Callable

import numpy as np

from gdms import ConvergenceError
from gdms.linalg import PerronResult

# Largest Arnoldi basis of one cycle before it restarts.
KRYLOV_DIM = 30

EPS = np.finfo(float).eps


def arnoldi_perron(
    matvec: Callable[[np.ndarray], np.ndarray],
    dim: int,
    tol: float = 1e-12,
    max_iter: int = 1_000_000,
) -> PerronResult:
    """Perron value and vector of a nonnegative operator given by ``matvec``.

    A nilpotent operator (spectral radius 0) is recognised exactly by
    ``null_indicator`` and returns 0 with an exact null vector.  Otherwise
    each cycle extends v to an Arnoldi basis (Gram-Schmidt against the whole
    basis, applied twice) and restarts from the Ritz vector of the Ritz
    value of largest real part, which passes over -rho of periodic incidence
    structures.  ``iterations`` counts matvecs, those of the nilpotency test
    included; the residual check alone certifies the result.
    """
    if dim == 0:
        return PerronResult(0.0, np.zeros(0), 0, 0.0)
    null, calls = null_indicator(matvec, dim)
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
        lam = float(v @ av)
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
        basis[0] = v
        w = av
        k = 0
        while True:
            q = basis[: k + 1]
            h = q @ w
            w = w - h @ q
            h2 = q @ w
            w -= h2 @ q
            hess[: k + 1, k] = h + h2
            beta = float(np.linalg.norm(w))
            hess[k + 1, k] = beta
            k += 1
            invariant = beta <= EPS * np.linalg.norm(hess[: k + 1, k - 1])
            if k == m or invariant or calls + 1 >= max_iter:
                break
            np.divide(w, beta, out=basis[k])
            w = matvec(basis[k])
            calls += 1
        theta, vecs = np.linalg.eig(hess[:k, :k])
        s = vecs[:, int(np.argmax(theta.real))]
        s = (s * np.conj(s[np.argmax(np.abs(s))])).real
        y = s @ basis[:k]
        if y.sum() < 0.0:
            y = -y
        v = y / np.linalg.norm(y)


def null_indicator(
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


def arnoldi_perron_dense(matrix: np.ndarray, **kw) -> PerronResult:
    m = np.asarray(matrix, dtype=float)
    return arnoldi_perron(lambda v: m @ v, m.shape[0], **kw)
