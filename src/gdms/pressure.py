"""The non-backtracking shift over 2d letters, its pressure, and Bowen roots.

A linear system over F_d assigns each letter v a contraction ratio c(v) in
(0,1); admissible words are reduced words, and the weight of a word is the
product of its letter ratios raised to an exponent s.  The weighted sums
Z_n(s) of the admissible words of length n grow like the Perron root rho(s)
of the transfer matrix M(s)[v][w] = c(w)^s (0 at w = v^-1), and the
pressure P(s) = log rho(s) is strictly decreasing and convex with a unique
zero, the Bowen root: the exponent of convergence of the full Poincare
series and the dimension of the limit set of any realization with the open
set condition.  The sums Z_n are the kernel counts of the trivial quotient
(``kernel.word_sums``); this module runs no series.

rho(s) is the root of a secular equation.  Put u_v = c(v)^s, so M = (J - P)U
with J all ones, P the swap v <-> v^-1 and U = diag(u).  If M x = lam x,
y = U x and sigma = sum y, row v reads lam y_v / u_v = sigma - y_{v^-1}; a
generator's two rows, a = u_v and b = u_{v^-1}, solve to y_v = sigma a
(lam - b) / (lam^2 - ab), and summing y over all letters gives

    F_s(lam) = sum over generators of (lam (a + b) - 2ab) / (lam^2 - ab) = 1,

where a symmetric pair contributes 2a / (lam + a).  A root above max u makes
y positive, as only the Perron root can; F_s(max u) > 1 >= F_s(sum u) and
each term decreases above sqrt(ab), so rho(s) is the one root between.
F_s(1) increases in every u (its a-derivative is (1 - b)^2 / (1 - ab)^2), so
it falls strictly in s, and delta is the unique root of F_s(1) = 1: for
symmetric ratios sum_v u_v / (1 + u_v) = 1, the Bowen equation of ``walks``.

Both roots are bisected to adjacent floats (``bisect_floats``) on the terms
(a (lam - b) + b (lam - a)) / (lam (lam - a) + a (lam - b)), or 2a / (lam + a),
with 1 - u_v = -expm1(s log c(v)) at lam = 1: sums and products of nonnegative
numbers, so the computed F_s(1) is within gamma_{d+18} F <= (d + 19) u F,
u = 2^-53 (c^s within 2u, the expm1 within 5u, a term within 19u; Higham,
*Accuracy and Stability of Numerical Algorithms*, 2002, sec. 3.1).
``bowen_root`` trusts the sign of F_s(1) - 1 beyond that bound only, settles
it nearer 1 in 25-digit decimal (DECIMAL), and returns the upper end: delta
is the least float with F_s(1) <= 1 (to DECIMAL_MARGIN), never below the
exact root for the float ratios (for c = 1/3 at rank 2 the root is
1 - 5.1e-17 and delta = 1.0), the side on which ``kernel.delta_kernel``
clips delta(N) at delta.  rho(s) takes its upper end too.
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ConfigError
from .groups import _read_only, letter_name

# The precision of the decimal F_s(1) that settles a sign the floats leave
# open, and the margin below 1 it must clear, far above its rounding.
DECIMAL = decimal.Context(prec=25)
DECIMAL_MARGIN = decimal.Decimal("1e-19")

# ---------------------------------------------------------------------------
# System specification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinearGdmsSpec:
    """Rank d >= 2 plus one contraction ratio per letter (code order).

    ``symmetric`` is true exactly when every generator and its inverse carry
    the same ratio; the amenability machinery requires it.
    """

    d: int
    ratios: tuple[float, ...]

    def __post_init__(self):
        if self.d < 2:
            raise ConfigError(f"rank must be >= 2, got {self.d}")
        if len(self.ratios) != 2 * self.d:
            raise ConfigError(
                f"need {2 * self.d} ratios (one per letter), got {len(self.ratios)}"
            )
        for i, c in enumerate(self.ratios):
            if not (0.0 < c < 1.0):
                raise ConfigError(
                    f"contraction ratio for letter {letter_name(i)} "
                    f"must lie strictly inside (0,1), got {c}"
                )

    @property
    def symmetric(self) -> bool:
        return self.ratios[::2] == self.ratios[1::2]

    @cached_property
    def ratio_array(self) -> np.ndarray:
        return _read_only(np.array(self.ratios, dtype=float))

    @cached_property
    def log_ratios(self) -> np.ndarray:
        return _read_only(np.log(self.ratio_array))

    def letter_weights(self, s: float) -> np.ndarray:
        """The weight c(v)^s of each letter.  None may overflow and the largest
        must be a normal float; one that vanishes beside it only drops out."""
        with np.errstate(over="ignore", under="ignore"):
            weights = self.ratio_array ** s
        if not (np.isfinite(weights).all() and weights.max() >= np.finfo(float).tiny):
            raise ConfigError(f"letter weights c(v)^s underflow or overflow at s = {s!r}")
        return weights

    @staticmethod
    def equal_ratios(d: int, c: float) -> "LinearGdmsSpec":
        return LinearGdmsSpec(d, (float(c),) * (2 * d))

    @staticmethod
    def symmetric_ratios(per_generator: Sequence[float]) -> "LinearGdmsSpec":
        ratios = tuple(float(c) for c in per_generator for _ in range(2))
        return LinearGdmsSpec(len(per_generator), ratios)


# ---------------------------------------------------------------------------
# The secular equation: pressure, Bowen root and pressure curve
# ---------------------------------------------------------------------------

def bisect_floats(above: Callable[[float], bool], lo: float, hi: float):
    """Bisect [lo, hi] down to adjacent floats, keeping ``above`` false at
    lo and true at hi; it is asked only at midpoints strictly inside."""
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        if above(mid):
            hi = mid
        else:
            lo = mid
        mid = 0.5 * (lo + hi)
    return lo, hi


def _secular(lam, u: list, gap: list):
    """F(lam) from the letter weights u and gap[v] = lam - u[v] (code order)."""
    return sum(
        2 * a / (lam + a) if a == b else (a * gb + b * ga) / (lam * ga + a * gb)
        for a, b, ga, gb in zip(u[::2], u[1::2], gap[::2], gap[1::2])
    )


def _rho(spec: LinearGdmsSpec, s: float) -> tuple[float, float]:
    """Adjacent floats around rho(M(s))."""
    u = spec.letter_weights(s).tolist()
    return bisect_floats(
        lambda lam: _secular(lam, u, [lam - x for x in u]) <= 1.0, max(u), sum(u)
    )


def pressure(spec: LinearGdmsSpec, s: float) -> float:
    """P(s) = log rho(M(s)); strictly decreasing and convex in s."""
    return math.log(_rho(spec, s)[1])


def bowen_root(spec: LinearGdmsSpec) -> float:
    """The zero of the pressure: the least float s with F_s(1) <= 1."""
    ratios = spec.ratios
    log_c = [math.log(c) for c in ratios]
    margin = (spec.d + 19) * 2.0**-53
    with decimal.localcontext(DECIMAL):
        exact_log_c = {c: decimal.Decimal(c).ln() for c in set(ratios)}

    def above(s: float) -> bool:
        f = _secular(1.0, [c**s for c in ratios], [-math.expm1(s * x) for x in log_c])
        if abs(f - 1.0) > margin:
            return f < 1.0
        with decimal.localcontext(DECIMAL):
            weight = {c: (decimal.Decimal(s) * x).exp() for c, x in exact_log_c.items()}
            u = [weight[c] for c in ratios]
            return _secular(1, u, [1 - a for a in u]) <= 1 - DECIMAL_MARGIN

    # rho(hi) <= (2d - 1) max(c)^hi = max(c) < 1
    hi = math.log(2 * spec.d - 1) / (-math.log(max(ratios))) + 1.0
    return bisect_floats(above, 0.0, hi)[1]


def pressure_curve(spec: LinearGdmsSpec, s_values: Iterable[float]):
    """Rows (s, P(s), rho, iterations, residual) for ``pressure_curve.csv``:
    no matvec is done, so ``iterations`` is 0, and ``residual`` is the width
    of rho's bisection bracket."""
    brackets = ((float(s), _rho(spec, float(s))) for s in s_values)
    return [(s, math.log(hi), hi, 0, hi - lo) for s, (lo, hi) in brackets]
