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

The dichotomy is decided by Kesten's criterion for the walk mu_{s*} on G
instead: by the weighted Ihara-Bass identity and the Bowen equation (see
the ``walks`` module), this operator at s* has spectral radius 1 exactly
when mu_{s*} does.  ``amenability_report`` runs ``walks.walk_ladder`` on
|ball| symmetric states; the 2d * |ball| operator here, which is not
symmetric, is the reference the identity is tested against, and only the
tests solve it.

The symmetry check compares the word sums at g and at g^-1.  It runs no
loop of its own: it reads the sums of ``kernel.word_sums``, the one word
dynamic program, with its window widened to reach the comparison radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, GdmsError
from .groups import Ball, QuotientGroup, ball
from .kernel import _complement, _scatter, kernel_counts, kernel_pressure, word_sums
from .pressure import LinearGdmsSpec, bowen_root, pressure
from .walks import WalkLadder, walk_ladder

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
        self._weights = self.spec.letter_weights(self.s)

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
    spec: LinearGdmsSpec, G: QuotientGroup, s: float, R: int
) -> SkewOperator:
    """Skew operator at exponent s, Dirichlet-truncated to the radius-R ball.

    Finite backends ignore R and use the whole group, ``ball(G)``, making
    the operator exact rather than a truncation.
    """
    if G.d != spec.d:
        raise ConfigError("quotient and GDMS rank mismatch")
    B = ball(G) if G.finite else ball(G, R)
    return SkewOperator(spec, G, float(s), B, not G.finite)


# ---------------------------------------------------------------------------
# Amenability dichotomy report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DichotomyReport:
    """The walk mu_{s*} ladder at the Bowen root with an amenability verdict.

    ``weights`` is mu_{s*} per letter code and ``ladder`` its Dirichlet
    truncation ladder, nondecreasing in the radius and at most 1.  ``gap``
    is 1 - sup_R rho; the verdict compares the ladder's limit estimate
    against 1 - EPS_VERDICT.  ``kernel_pressure_estimate`` is None when the
    count table is too short for an estimate or its ball exceeds the cap,
    which refuses the table and never cuts it.
    """

    s_star: float
    rho_full: float
    weights: tuple[float, ...]
    ladder: WalkLadder
    verdict: str
    gap: float
    kernel_pressure_estimate: float | None
    notes: str

    def as_dict(self) -> dict:
        return {
            "s_star": self.s_star,
            "rho_full": self.rho_full,
            "weights": list(self.weights),
            "method": self.ladder.method,
            "radii": list(self.ladder.radii),
            "rho": list(self.ladder.rho),
            "iterations": list(self.ladder.iterations),
            "residuals": list(self.ladder.residuals),
            "verdict": self.verdict,
            "gap": self.gap,
            "rho_limit_estimate": self.ladder.final_estimate,
            "plateau": self.ladder.plateau,
            "kernel_pressure_estimate": self.kernel_pressure_estimate,
            "notes": self.notes,
        }


def amenability_report(
    spec: LinearGdmsSpec,
    G: QuotientGroup,
    radii: Sequence[int],
    kernel_n_max: int = 20,
) -> DichotomyReport:
    """Evaluate the dichotomy at s* = Bowen root by Kesten's criterion.

    Requires a symmetric system (the equality side of the dichotomy needs
    the reversal-inversion weight symmetry).  The verdict reads the ladder
    of the walk mu_{s*}; the kernel-pressure estimate from the counting
    dynamic program is attached as a cross-check.  Its count table is exact
    or refused: a table whose ball exceeds the group's cap raises, and the
    estimate is then None, as it is for a table too short to read.
    """
    if not spec.symmetric:
        raise ConfigError("dichotomy requires symmetric GDMS")
    if G.d != spec.d:
        raise ConfigError("quotient and GDMS rank mismatch")
    s_star = bowen_root(spec)
    rho_full = math.exp(pressure(spec, s_star))
    u = spec.letter_weights(s_star)
    w = u / (1.0 - u**2)
    weights = w / w.sum()
    ladder = walk_ladder(G, weights, radii, tol=1e-12)

    kp = None
    try:
        kp = kernel_pressure(kernel_counts(spec, G, s_star, kernel_n_max)).estimate
    except GdmsError:
        pass
    notes = (
        "Kesten's criterion for the walk mu_{s*}, weights ~ u/(1-u^2) with "
        "u = c^{s*}: by the weighted Ihara-Bass identity and the Bowen equation "
        "sum u/(1+u) = 1 the skew operator at s* has spectral radius 1 exactly "
        "when this walk does; verdict from sup rho_R and a 1/R^2 Richardson "
        "extrapolation of its ladder, a recorded heuristic"
    )
    return DichotomyReport(
        s_star=s_star,
        rho_full=rho_full,
        weights=tuple(weights.tolist()),
        ladder=ladder,
        verdict=ladder_verdict(ladder.final_estimate),
        gap=1.0 - max(ladder.rho),
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
) -> SymmetryReport:
    """Exact per-(length, group element) sums compared against inverses.

    The sums are ``kernel.word_sums`` with reach R, exact at every element
    within R, on the radius-floor((n_max + R) / 2) ball that holds every
    prefix of a word ending there; elements outside radius R are ignored in
    the comparison.  The compared ratios are scale-free, and the power-of-two
    scaling of ``word_sums`` changes no bit of a ratio of normal sums.
    """
    if R > n_max:
        raise ConfigError("comparison radius cannot exceed n_max")
    B = ball(G, (n_max + R) // 2)
    # the elements within R are a breadth-first prefix, closed under inverses
    m = int(np.searchsorted(B.dist, R, side="right"))
    inv = B.inverse_index()[:m]
    rel = np.zeros(n_max)
    lo = np.ones(n_max)
    hi = np.ones(n_max)
    for n, X, _ in word_sums(B, spec.letter_weights(s), n_max, reach=R):
        # a window narrower than R leaves out only elements no word reaches
        a = np.zeros(m)
        k = min(m, X.shape[1])
        a[:k] = X[:, :k].sum(axis=0)
        b = a[inv]
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
