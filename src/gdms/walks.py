"""Symmetric random walks on Cayley balls and the Kesten amenability criterion.

A walk on G = F_d / N has one weight per letter code: a step from g goes to
g * image(c) with weight ``weights[c]``, so identity images make the walk
lazy and repeated images add up.  A walk is symmetric when each image
carries the same total weight as its inverse; then its step is a symmetric
matrix on every ball, and ``walk_ladder`` refuses any other walk.  By
Kesten's criterion such a symmetric walk has spectral radius 1 exactly when
G is amenable.  ``walk_ladder`` is the only truncation ladder; two walks run
on it:

* the dichotomy walk mu_{s*}, weights proportional to w_v = u_v / (1 - u_v^2)
  with u_v = c(v)^{s*}.  The weighted Ihara-Bass identity (Bass 1992) gives
  det(I - B_s) = det H_s * prod_edges (1 - u_v^2) for the group-extended
  transfer operator B_s, with H_s = I + D - A symmetric on G and A the
  walk of weights w_v.  On the whole group D is constant, so rho(B_s) = 1
  exactly where (sum_v w_v) rho_G(mu_s) = 1 + sum_v u_v^2 / (1 - u_v^2);
  at rho_G = 1 this is the Bowen equation sum_v u_v / (1 + u_v) = 1, which
  holds at s*.  So rho(B_{s*}) = 1 exactly when rho_G(mu_{s*}) = 1.
* the simple random walk (``srw_spectral_radius``), uniform on the distinct
  non-identity letter images.

Infinite groups are truncated to word-metric balls with Dirichlet boundary,
giving spectral radii that are nondecreasing in the radius and converge
from below at a 1/R^2 rate; ``linalg.truncation_limit`` reads the ladder.
``walk_ladder`` has three methods, chosen by the group.  On a finite group
every move stays in the group, so the constant vector is a Perron vector of
the walk and its spectral radius is the total weight: no ball is read and
no matvec is done.  An infinite free quotient's ball is a tree,
whatever the weights: eliminating lam I - P_R from the leaves up gives
pivots that depend only on a vertex's last generator and remaining depth,
and by Sylvester's law of inertia lam lies above the top eigenvalue
exactly when every pivot is positive.  So a bisection on lam over that
scalar recursion (``_tree_rung``) gives each rung, reading no ball and
doing no matvec; the Akemann-Ostrand value (Amer. J. Math. 1976) is its
limit.  Any other group runs Lanczos on each ball's Dirichlet walk, which
is symmetric.

The isoperimetric scan reports boundary-to-volume ratios of nested balls; it
is a Folner-style diagnostic only, since finite balls cannot decide
amenability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError
from .groups import Ball, FreeQuotient, QuotientGroup, ball, letter_name
from .linalg import perron_value, truncation_limit
from .pressure import bisect_floats


def walk_step(B: Ball, weights: Sequence[float]) -> Callable[[np.ndarray], np.ndarray]:
    """The Dirichlet walk sum_c weights[c] * x[moves[c]] on the ball B.

    ``weights`` holds one weight per letter code; the step reads x at
    g * image(c) for every code of nonzero weight and drops the moves that
    leave the ball.  A code's move row is keyed by its image, the row's
    entry at the identity: codes with the same image add their weights,
    identity images (laziness) fold into one diagonal term, and an image
    off the ball (radius 0) reads nothing.  A call accumulates one output
    vector a move row at a time: x times each distinct weight is written
    once into a buffer whose extra last entry stays 0, so that the index -1
    of a move off the ball reads 0, and every row of that weight gathers
    from it.  A step holds three vectors whatever the number of codes.
    """
    weights = np.asarray(weights, dtype=float)
    moves = B.letter_moves()
    by_image: dict[int, list] = {}
    for c in np.flatnonzero(weights).tolist():
        by_image.setdefault(int(moves[c, 0]), [c, 0.0])[1] += weights[c]
    lazy = by_image.pop(0, (0, 0.0))[1]
    by_image.pop(-1, None)
    by_weight: dict[float, list] = {}
    for c, w in by_image.values():
        by_weight.setdefault(w, []).append(moves[c])
    padded = np.zeros(len(B) + 1)
    scaled = padded[:-1]

    def step(x: np.ndarray) -> np.ndarray:
        out = lazy * x
        for w, rows in by_weight.items():
            np.multiply(x, w, out=scaled)
            for row in rows:
                out += padded[row]
        return out

    return step


def _tree_rung(p: list[float], lazy: float, R: int) -> tuple[float, float]:
    """lambda_max of the Dirichlet walk on a free group's radius-R ball, and
    the width of the bracket it was bisected to.

    ``p[j]`` weighs each of the two letters of surviving generator j and
    ``lazy`` the step that stays put.  The ball is a tree, so eliminating
    lam I - P_R from the leaves up leaves pivots that depend only on a
    vertex's last generator j and its remaining depth h: pivot(j, 0) =
    lam - lazy and pivot(j, h) = lam - lazy - 2 T + t_j, with t_j = p_j^2 /
    pivot(j, h - 1) and T = sum_j t_j (two children along every other
    generator, one along j); the root's pivot is lam - lazy - 2 T.  By
    Sylvester's law of inertia lam > lambda_max(P_R) exactly when every
    pivot is positive, so lam is bisected on [lazy, lazy + 2 sum p] down to
    adjacent floats.  The lower end, where some pivot was not positive, is
    returned: the side a lower bound needs.  R = 0 gives ``lazy``.
    """

    def above(lam: float) -> bool:
        root = lam - lazy
        pivots = [root] * len(p)
        for _ in range(R):
            if min(pivots) <= 0.0:
                return False
            t = [q * q / x for q, x in zip(p, pivots)]
            root = lam - lazy - 2.0 * sum(t)
            pivots = [root + x for x in t]
        return root > 0.0

    lo, hi = bisect_floats(above, lazy, lazy + 2.0 * sum(p))
    return lo, hi - lo


@dataclass(frozen=True)
class WalkLadder:
    """Dirichlet walk spectral radii per radius with a limit estimate.

    ``final_estimate`` and ``plateau`` come from ``linalg.truncation_limit``
    (a 1/R^2 extrapolation of a rising ladder, else its supremum, capped at
    1).  ``method`` is "finite", "tree" or "generic" (``walk_ladder``).
    ``iterations`` counts each rung's matvecs and ``residuals`` holds its
    final eigen-residual; a finite group's rung takes none and is exact
    (residual 0), and a tree rung takes none: its residual is the width of
    its final bisection bracket.
    """

    radii: tuple[int, ...]
    rho: tuple[float, ...]
    iterations: tuple[int, ...]
    residuals: tuple[float, ...]
    final_estimate: float
    plateau: bool
    method: str


def walk_ladder(
    G: QuotientGroup,
    weights: Sequence[float],
    radii: Sequence[int],
    tol: float = 1e-11,
) -> WalkLadder:
    """Spectral-radius ladder of the walk with these letter weights.

    The method follows the group.  "finite": every rung is the total
    weight, the row sum of the walk on the whole group.  "tree": an
    infinite free quotient reads no ball; each rung is ``_tree_rung`` on the
    weight of each surviving generator (the mean of its two codes) with the
    killed letters' weight as laziness.  "generic": any other group runs
    ``walk_step`` on each radius-R ball by Lanczos to ``tol``.  A walk that
    is not symmetric (``_require_symmetric``) is refused before any ball is
    built.  Weights of total 1 give rho <= 1, so a rung that rounds above 1
    (a finite group's total can) reads 1; its residual stays as solved.
    """
    if not radii:
        raise ConfigError("need at least one radius")
    radii = tuple(sorted(int(r) for r in radii))
    weights = np.asarray(weights, dtype=float)
    _require_symmetric(G, weights)
    rungs = []  # (value, matvecs, residual) per radius
    if G.finite:
        method = "finite"
        rungs = [(math.fsum(weights.tolist()), 0, 0.0)] * len(radii)
    elif isinstance(G, FreeQuotient):
        method = "tree"
        pairs = weights.reshape(G.d, 2)
        alive = np.array([j + 1 not in G.kill for j in range(G.d)])
        p, lazy = pairs[alive].mean(axis=1).tolist(), float(pairs[~alive].sum())
        for R in radii:
            value, width = _tree_rung(p, lazy, R)
            rungs.append((value, 0, width))
    else:
        method = "generic"
        ball(G, radii[-1])  # every smaller rung is a prefix of it
        for R in radii:
            B = ball(G, R)
            res = perron_value(walk_step(B, weights), len(B), tol=tol)
            rungs.append((res.value, res.iterations, res.residual))
    values, iterations, residuals = zip(*rungs)
    rho_vals = tuple(min(v, 1.0) for v in values)
    final, plateau = truncation_limit(radii, rho_vals)
    return WalkLadder(radii, rho_vals, iterations, residuals, final, plateau, method)


def _require_symmetric(G: QuotientGroup, weights: np.ndarray) -> None:
    """Refuse walk weights whose step is not a symmetric matrix.

    The step's entry from g to g * x is the total weight of the codes with
    image x, and the entry back is that of the image x^-1, the image of the
    inverse codes; so the totals are compared per image, not per code (an
    involution's two codes may split its weight 1:0, as ``srw_weights``
    does).  Totals that differ only by the rounding of their sums pass.
    """
    images = [G.letter_image(c) for c in range(2 * G.d)]
    total: dict = {}
    for img, w in zip(images, weights.tolist()):
        total[img] = total.get(img, 0.0) + w
    slack = 1e-12 * float(np.abs(weights).sum())
    for c in range(0, 2 * G.d, 2):
        a, b = total[images[c]], total[images[c + 1]]
        if abs(a - b) > slack:
            raise ConfigError(
                f"walk is not symmetric: the image of {letter_name(c)} carries "
                f"weight {a!r}, its inverse {b!r}"
            )


def srw_spectral_radius(G: QuotientGroup, R_list: Sequence[int]) -> WalkLadder:
    """Spectral-radius ladder of the simple random walk on Cayley balls."""
    return walk_ladder(G, srw_weights(G), R_list)


def srw_weights(G: QuotientGroup) -> np.ndarray:
    """Per-code weights of the simple random walk: uniform on ``generating_codes``."""
    codes = G.generating_codes()
    if not codes:
        raise ConfigError("trivial group has no Cayley edges")
    weights = np.zeros(2 * G.d)
    weights[codes] = 1.0 / len(codes)
    return weights


@dataclass(frozen=True)
class IsoperimetricReport:
    """Boundary-to-volume ratios |dB_r| / |B_r| of nested balls.

    A Folner-style diagnostic: ratios tending to zero are consistent with
    amenability, bounded-below ratios with expansion, but finite balls alone
    decide neither.
    """

    radii: tuple[int, ...]
    ratios: tuple[float, ...]
    min_ratio: float


def isoperimetric_scan(G: QuotientGroup, R: int) -> IsoperimetricReport:
    """Scan |dA|/|A| over the balls A = B(id, r) for r = 1..R, each read
    from the radius-R ball."""
    if R < 1:
        raise ConfigError("radius must be >= 1")
    B = ball(G, R)
    moves = B.letter_moves()[G.generating_codes()]
    dist = B.dist
    # an element of A = B(id, r) is on its boundary when a generator takes
    # it out of A: to the next sphere, or, from sphere R, off the ball (-1)
    leaves = ((moves < 0) | (dist[moves] == dist + 1)).any(axis=0)
    boundary = np.bincount(dist[leaves], minlength=R + 1)
    volume = np.cumsum(np.bincount(dist, minlength=R + 1))
    ratios = [int(boundary[r]) / int(volume[r]) for r in range(1, R + 1)]
    return IsoperimetricReport(
        tuple(range(1, R + 1)), tuple(ratios), float(min(ratios))
    )
