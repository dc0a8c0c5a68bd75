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
The Dirichlet cut of a symmetric step is symmetric, so every ball rung runs
the thick-restart Lanczos of ``linalg.perron_value``.  A finite group is walked
once on the whole group, also by Lanczos.  On a free quotient of
rank k >= 2 with equal surviving weights the walk lives on the 2k-regular
tree (lazily when killed letters carry weight) and its truncated Perron
vector is radial, so an (R+1)-state chain on the spheres, symmetrised by
the square roots of the sphere sizes, gives each rung; sqrt(2k-1)/k is the
simple walk's limit.

The isoperimetric scan reports boundary-to-volume ratios of nested balls; it
is a Folner-style diagnostic only, since finite balls cannot decide
amenability.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError
from .groups import Ball, FreeQuotient, QuotientGroup, ball, letter_name
from .linalg import PerronResult, perron_value, perron_value_dense, truncation_limit


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


def _tree_radial_chain(k: int, R: int, p: float, lazy: float) -> np.ndarray:
    """Dirichlet walk on the 2k-regular tree ball, radialized and symmetrised.

    Each of the 2k tree edges at a vertex carries weight ``p`` and the walk
    stays put with weight ``lazy``.  The truncated walk commutes with the
    sphere-transitive automorphisms, so its Perron vector is radial and the
    (R+1)-state chain on the spheres has the same Perron value.  That chain
    steps out with weight 2k p from the centre and (2k - 1) p further out,
    and in with weight p; scaling by the square roots of the sphere sizes
    1, 2k, 2k(2k - 1), ... makes it the symmetric tridiagonal matrix
    returned here, with p sqrt(2k) between spheres 0 and 1 and
    p sqrt(2k - 1) further out.
    """
    off = np.full(R, p * np.sqrt(2 * k - 1))
    off[:1] = p * np.sqrt(2 * k)
    return lazy * np.eye(R + 1) + np.diag(off, 1) + np.diag(off, -1)


@dataclass(frozen=True)
class WalkLadder:
    """Dirichlet walk spectral radii per radius with a limit estimate.

    ``final_estimate`` and ``plateau`` come from ``linalg.truncation_limit``
    (a 1/R^2 extrapolation of a rising ladder, else its supremum, capped at
    1).  ``iterations`` and ``residuals`` give each rung's matvec count and
    final eigen-residual; a rung copied from the whole finite group took 0
    matvecs.  ``method`` is "finite", "tree-radial" or "generic".
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

    A finite group is walked once, on the whole group, and that rung stands
    for every radius; a free quotient of surviving rank >= 2 with equal
    surviving weights uses the radial chain; any other group runs
    ``walk_step`` on each radius-R ball.  A walk that is not symmetric
    (``_require_symmetric``) is refused before any ball is built.  Weights
    of total 1 give rho <= 1, so a rung that rounds above 1 (a finite
    group's can) reads 1; its residual stays as solved.
    """
    if not radii:
        raise ConfigError("need at least one radius")
    radii = tuple(sorted(int(r) for r in radii))
    weights = np.asarray(weights, dtype=float)
    _require_symmetric(G, weights)
    tree = None
    if isinstance(G, FreeQuotient) and G.surviving_rank() >= 2:
        alive = np.array([c not in G.killed_codes for c in range(2 * G.d)])
        p = weights[alive]
        if (p == p[0]).all():
            tree = G.surviving_rank(), float(p[0]), float(weights[~alive].sum())
    rungs: list[PerronResult] = []
    if G.finite:
        method = "finite"
        B = ball(G)  # the whole group; raises past the cap
        exact = perron_value(walk_step(B, weights), len(B), tol=tol)
        copy = PerronResult(exact.value, exact.vector, 0, exact.residual)
        rungs = [exact] + [copy] * (len(radii) - 1)
    elif tree is not None:
        method = "tree-radial"
        k, p, lazy = tree
        for R in radii:
            rungs.append(perron_value_dense(_tree_radial_chain(k, R, p, lazy), tol=tol))
    else:
        method = "generic"
        ball(G, radii[-1])  # every smaller rung is a prefix of it
        for R in radii:
            B = ball(G, R)
            rungs.append(perron_value(walk_step(B, weights), len(B), tol=tol))
    rho_vals = [min(r.value, 1.0) for r in rungs]
    final, plateau = truncation_limit(radii, rho_vals)
    return WalkLadder(
        radii,
        tuple(rho_vals),
        tuple(r.iterations for r in rungs),
        tuple(r.residual for r in rungs),
        final,
        plateau,
        method,
    )


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
    """Scan |dA|/|A| over the balls A = B(id, r) for r = 1..R."""
    if R < 1:
        raise ConfigError("radius must be >= 1")
    B = ball(G, R + 1)
    moves = B.letter_moves()[G.generating_codes()]
    dist = B.dist
    # an element of A = B(id, r) is on its boundary when a generator takes
    # it out of A, i.e. to the next sphere (or off the ball)
    leaves = ((moves < 0) | (dist[moves] == dist + 1)).any(axis=0)
    boundary = np.bincount(dist[leaves], minlength=R + 2)
    volume = np.cumsum(np.bincount(dist, minlength=R + 2))
    ratios = [int(boundary[r]) / int(volume[r]) for r in range(1, R + 1)]
    return IsoperimetricReport(
        tuple(range(1, R + 1)), tuple(ratios), float(min(ratios))
    )
