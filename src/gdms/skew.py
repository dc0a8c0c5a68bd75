"""Group-extended shift operators and the amenability dichotomy.

Extending the non-backtracking shift by a quotient group G gives a skew
product whose transfer operator, restricted to functions of (first letter,
group element), is a concrete nonnegative matrix on states (v, g):

    (v, g)  -->  (w, g * Psi(v))   with weight c(v)^s,   for all w != v^-1.

Its spectral radius never exceeds e^{P(s)}; at the Bowen root s* (where
P(s*) = 0) it equals 1 exactly when G is amenable and stays strictly below 1
otherwise.  For symmetric ratio data the kernel pressure equals the log of
this spectral radius, which ties the operator ladder to the kernel-count
tables.

The operator is L o T in the notation of ``kernel.py``: the group step T
moves row v along the move table of letter v with weight c(v)^s, then the
letter sum L gives row w the sum of all rows v != w^-1.  The kernel-word
dynamic program ``forward_word_step`` is the other cyclic product T o L, so
T o matvec = forward_word_step o T and both have the same nonzero spectrum.

Infinite groups are handled by Dirichlet truncation to a word-metric ball:
transitions leaving the ball are dropped, which makes the truncated spectral
radius a lower bound that is nondecreasing in the radius.  No convergence
rate is available for the truncation on infinite amenable groups; verdicts
therefore read the ladder through ``linalg.truncation_limit`` (the supremum,
or a 1/R^2 Richardson extrapolation of a rising ladder) and record the
heuristic in the report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, GdmsError
from .groups import DEFAULT_BALL_CAP, Ball, FinitePermQuotient, QuotientGroup, ball
from .kernel import _complement, _scatter, forward_word_step, kernel_counts, kernel_pressure
from .linalg import PerronResult, perron_value, truncation_limit
from .pressure import LinearGdmsSpec, bowen_root, pressure

VERDICT_AMENABLE = "consistent-with-amenable"
VERDICT_NON_AMENABLE = "consistent-with-non-amenable"
EPS_VERDICT = 0.005


def ladder_verdict(limit: float) -> str:
    """Amenable when a ladder's limit estimate reaches 1 - EPS_VERDICT."""
    return VERDICT_AMENABLE if limit >= 1.0 - EPS_VERDICT else VERDICT_NON_AMENABLE


# ---------------------------------------------------------------------------
# The skew operator
# ---------------------------------------------------------------------------

@dataclass
class SkewOperator:
    """Forward transfer operator on states (letter, ball element).

    The state space is the full product of the 2d letters with a ball in G
    (the whole group for finite backends); the operator is stored as the
    per-letter group move table plus letter weights, which is the natural
    sparse encoding: every state has at most 2d-1 outgoing transitions, all
    carrying the same weight c(v)^s.
    """

    spec: LinearGdmsSpec
    G: QuotientGroup
    s: float
    ball: Ball
    truncated: bool

    def __post_init__(self):
        self._moves = self.ball.letter_moves()
        self._weights = self.spec.ratio_array ** self.s

    @property
    def n_letters(self) -> int:
        return 2 * self.spec.d

    @property
    def n_states(self) -> int:
        return self.n_letters * len(self.ball)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Apply L o T to a flat vector (state = letter * |ball| + i)."""
        n_ball = len(self.ball)
        X = x.reshape(self.n_letters, n_ball)
        return _complement(_scatter(X, self._moves, self._weights, n_ball)).reshape(-1)

    def dense(self) -> np.ndarray:
        """Materialize the matrix; intended for small operators and tests."""
        n = self.n_states
        m = np.empty((n, n))
        e = np.zeros(n)
        for j in range(n):
            e[j] = 1.0
            m[:, j] = self.matvec(e)
            e[j] = 0.0
        return m


def build_skew_operator(
    spec: LinearGdmsSpec,
    G: QuotientGroup,
    s: float,
    R: int,
    ball_cap: int = DEFAULT_BALL_CAP,
) -> SkewOperator:
    """Skew operator at exponent s, Dirichlet-truncated to the radius-R ball.

    Finite backends ignore R and use the whole group, making the operator
    exact rather than a truncation.
    """
    if G.d != spec.d:
        raise ConfigError("quotient and GDMS rank mismatch")
    truncated = True
    if isinstance(G, FinitePermQuotient):
        R = G.diameter()
        truncated = False
    elif G.order() == 1:
        R = 0
        truncated = False
    B = ball(G, R, ball_cap)
    return SkewOperator(spec, G, float(s), B, truncated)


def skew_spectral_radius(
    op: SkewOperator,
    tol: float = 1e-12,
    max_iter: int = 100_000,
) -> PerronResult:
    """Perron value of the operator by ``linalg.perron_value``.

    A truncation on a tree (a free quotient with nothing killed) is
    nilpotent and gets rho = 0 exactly; every other operator gets the
    restarted Arnoldi iteration from the deterministic uniform start.
    """
    return perron_value(op.matvec, op.n_states, tol=tol, max_iter=max_iter)


# ---------------------------------------------------------------------------
# Amenability dichotomy report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DichotomyReport:
    """Spectral-radius ladder at the Bowen root with an amenability verdict.

    ``rho_skew`` is nondecreasing in the radius and bounded by 1 + tolerance;
    ``gap`` is 1 - sup_R rho.  The verdict compares the ladder's limit
    estimate (``linalg.truncation_limit``) against 1 - eps; the plateau flag
    records whether the ladder had visibly stopped moving.  ``iterations``
    and ``residuals`` give each rung's matvec count and final eigen-residual;
    a rung copied from an exact (untruncated) operator took 0 matvecs and
    keeps its residual.
    """

    s_star: float
    rho_full: float
    radii: tuple[int, ...]
    rho_skew: tuple[float, ...]
    iterations: tuple[int, ...]
    residuals: tuple[float, ...]
    verdict: str
    gap: float
    rho_limit_estimate: float
    plateau: bool
    kernel_pressure_estimate: float | None
    notes: str

    def as_dict(self) -> dict:
        return {
            "s_star": self.s_star,
            "rho_full": self.rho_full,
            "radii": list(self.radii),
            "rho": list(self.rho_skew),
            "iterations": list(self.iterations),
            "residuals": list(self.residuals),
            "verdict": self.verdict,
            "gap": self.gap,
            "rho_limit_estimate": self.rho_limit_estimate,
            "plateau": self.plateau,
            "kernel_pressure_estimate": self.kernel_pressure_estimate,
            "notes": self.notes,
        }


def amenability_report(
    spec: LinearGdmsSpec,
    G: QuotientGroup,
    radii: Sequence[int],
    ball_cap: int = DEFAULT_BALL_CAP,
    kernel_n_max: int = 20,
    tol: float = 1e-12,
) -> DichotomyReport:
    """Evaluate the dichotomy at s* = Bowen root over a radius ladder.

    Requires a symmetric system (the equality side of the dichotomy needs
    the reversal-inversion weight symmetry).  The kernel-pressure estimate
    from the counting dynamic program is attached as a cross-check; it must
    stay below log rho of the largest truncation up to estimator noise.
    """
    if not spec.symmetric:
        raise ConfigError("dichotomy requires symmetric GDMS")
    if not radii:
        raise ConfigError("need at least one truncation radius")
    radii = tuple(sorted(int(r) for r in radii))
    s_star = bowen_root(spec)
    rho_full = math.exp(pressure(spec, s_star))
    rungs: list[PerronResult] = []
    for R in radii:
        op = build_skew_operator(spec, G, s_star, R, ball_cap)
        rungs.append(skew_spectral_radius(op, tol=tol))
        if not op.truncated:
            # Exact operator: the remaining radii would recompute the same
            # full-group value.
            last = rungs[-1]
            copy = PerronResult(last.value, last.vector, 0, last.residual)
            rungs += [copy] * (len(radii) - len(rungs))
            break
    rho_vals = [r.value for r in rungs]
    limit_est, plateau = truncation_limit(radii, rho_vals, min_rungs=3)

    kp = None
    try:
        kp = kernel_pressure(
            kernel_counts(spec, G, s_star, kernel_n_max, ball_cap)
        ).estimate
    except GdmsError:
        pass
    notes = (
        "verdict from sup rho_R and a 1/R^2 Richardson extrapolation of the "
        "ladder; no truncation convergence rate is available, so the "
        "extrapolation is a recorded heuristic"
    )
    return DichotomyReport(
        s_star=s_star,
        rho_full=rho_full,
        radii=radii,
        rho_skew=tuple(rho_vals),
        iterations=tuple(r.iterations for r in rungs),
        residuals=tuple(r.residual for r in rungs),
        verdict=ladder_verdict(limit_est),
        gap=1.0 - max(rho_vals),
        rho_limit_estimate=limit_est,
        plateau=plateau,
        kernel_pressure_estimate=kp,
        notes=notes,
    )


# ---------------------------------------------------------------------------
# Asymptotic symmetry check
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SymmetryReport:
    """Comparison of the g-sum with the g^-1-sum per word length.

    For symmetric ratios the reversal-inversion involution is a
    weight-preserving bijection between the two sums, so the relative
    asymmetry is zero up to accumulated rounding.  For non-symmetric ratios
    the per-length extreme ratios are reported without a verdict.
    """

    s: float
    n_max: int
    radius: int
    symmetric_spec: bool
    max_rel_asymmetry: float
    per_n_rel_asymmetry: np.ndarray
    per_n_ratio_low: np.ndarray
    per_n_ratio_high: np.ndarray


def check_asymptotic_symmetry(
    spec: LinearGdmsSpec,
    G: QuotientGroup,
    n_max: int,
    R: int,
    s: float = 1.0,
    ball_cap: int = DEFAULT_BALL_CAP,
) -> SymmetryReport:
    """Exact per-(length, group element) sums compared against inverses.

    The dynamic program runs on the full radius-n_max ball so no word is
    truncated away; elements outside radius R are ignored in the comparison.
    """
    if R > n_max:
        raise ConfigError("comparison radius cannot exceed n_max")
    B = ball(G, n_max, ball_cap)
    moves = B.letter_moves()
    inv_idx = B.inverse_index()
    weights = spec.ratio_array ** s
    n_letters = 2 * spec.d

    in_R = np.flatnonzero(B.dist <= R)
    inv_of_in_R = inv_idx[in_R]

    X = _scatter(np.ones((n_letters, 1)), moves[:, :1], weights, len(B))
    rel = np.zeros(n_max)
    lo = np.ones(n_max)
    hi = np.ones(n_max)
    for n in range(1, n_max + 1):
        if n > 1:
            X = forward_word_step(X, moves, weights)
        marg = X.sum(axis=0)
        a = marg[in_R]
        b = marg[inv_of_in_R]
        both = np.maximum(a, b)
        nz = both > 0.0
        if nz.any():
            rel[n - 1] = float(np.max(np.abs(a[nz] - b[nz]) / both[nz]))
            pos = (a > 0) & (b > 0)
            if pos.any():
                ratios = a[pos] / b[pos]
                lo[n - 1] = float(ratios.min())
                hi[n - 1] = float(ratios.max())
    return SymmetryReport(
        s=float(s),
        n_max=n_max,
        radius=R,
        symmetric_spec=spec.symmetric,
        max_rel_asymmetry=float(rel.max()),
        per_n_rel_asymmetry=rel,
        per_n_ratio_low=lo,
        per_n_ratio_high=hi,
    )
