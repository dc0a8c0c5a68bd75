"""The non-backtracking shift over 2d letters, its pressure, and Bowen roots.

A linear system over F_d assigns each letter v a contraction ratio c(v) in
(0,1); admissible words are reduced words, and the weight of a word is the
product of its letter ratios raised to an exponent s.  The weighted word sums

    Z_n(s) = sum over admissible words of length n of prod_i c(w_i)^s

grow like the Perron eigenvalue rho(s) of the (2d x 2d) transfer matrix

    M(s)[v][w] = c(w)^s   if w != v^-1,   else 0,

so the pressure function is P(s) = log rho(s).  P is strictly decreasing and
convex in s, positive at s=0 and eventually negative, so it has a unique
zero: the Bowen root, which is both the exponent of convergence of the full
Poincare series and the Hausdorff dimension of the limit set of any
geometric realization satisfying the open set condition.

M(s) = A U(s), with A the symmetric 0/1 matrix of non-backtracking pairs and
U(s) = diag(c(v)^s), is similar to the symmetric S(s) = U^{1/2} A U^{1/2}.
So one Lanczos solve on S(s) gives rho(s) and a unit vector y, from which
M's right and left Perron vectors are U^{-1/2} y and U^{1/2} y, and the
slope is P'(s) = sum_v log c(v) y_v^2 (Hellmann-Feynman).

P(s) is defined by a limit of length-windowed sums; for the locally constant
weights used here that limit exists and equals log rho(s), and the package
computes the eigenvalue throughout.  The sums Z_n themselves are the kernel
counts of the trivial quotient, where every word is a kernel word, so one
word dynamic program (``kernel.word_sums``) serves every series and this
module runs none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError
from .groups import letter_name
from .linalg import PerronResult, perron_value_dense

BOWEN_TOL = 1e-12


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
        return all(
            self.ratios[2 * i] == self.ratios[2 * i + 1] for i in range(self.d)
        )

    @cached_property
    def ratio_array(self) -> np.ndarray:
        a = np.array(self.ratios, dtype=float)
        a.flags.writeable = False
        return a

    @cached_property
    def log_ratios(self) -> np.ndarray:
        a = np.log(self.ratio_array)
        a.flags.writeable = False
        return a

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
# The symmetrised transfer matrix and the Bowen root
# ---------------------------------------------------------------------------

def perron_data(spec: LinearGdmsSpec, s: float) -> PerronResult:
    """One Lanczos solve on S(s) = U^{1/2} A U^{1/2}: its value is rho(s),
    and its unit vector y gives r = U^{-1/2} y, l = U^{1/2} y (l . r = 1)."""
    half = np.sqrt(spec.letter_weights(s))
    n = 2 * spec.d
    sym = np.outer(half, half)
    sym[np.arange(n), np.arange(n) ^ 1] = 0.0
    return perron_value_dense(sym)


def pressure(spec: LinearGdmsSpec, s: float) -> float:
    """P(s) = log rho(M(s)); strictly decreasing and convex in s."""
    return math.log(perron_data(spec, s).value)


def bowen_root(spec: LinearGdmsSpec) -> float:
    """The unique zero of the pressure function, to |P| <= BOWEN_TOL.

    Bracketed bisection with Newton polish; the slope is
    P'(s) = sum_v log c(v) y_v^2 (Hellmann-Feynman on S(s)).
    """
    lo = 0.0
    hi = math.log(2 * spec.d - 1) / (-math.log(max(spec.ratios))) + 1.0
    p_lo = pressure(spec, lo)
    p_hi = pressure(spec, hi)
    if not (p_lo > 0.0 > p_hi):  # pragma: no cover - guaranteed by construction
        raise ConfigError("pressure bracket failed; ratios out of range?")
    s = 0.5 * (lo + hi)
    log_c = spec.log_ratios
    for _ in range(200):
        res = perron_data(spec, s)
        p = math.log(res.value)
        if abs(p) <= BOWEN_TOL:
            return s
        if p > 0:
            lo = s
        else:
            hi = s
        step = s - p / float(log_c @ res.vector**2)
        s = step if lo < step < hi else 0.5 * (lo + hi)
    return s


# ---------------------------------------------------------------------------
# Pressure curve
# ---------------------------------------------------------------------------

def pressure_curve(spec: LinearGdmsSpec, s_values: Iterable[float]):
    """Rows (s, P(s), rho, iterations, residual) for ``pressure_curve.csv``.

    ``iterations`` is the number of matvecs of the one Perron solve
    (``perron_data``) and ``residual`` its final eigen-residual on S(s).
    """
    rows = []
    for s in s_values:
        res = perron_data(spec, float(s))
        rows.append((float(s), math.log(res.value), res.value, res.iterations, res.residual))
    return rows
