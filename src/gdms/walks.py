"""Simple random walks on Cayley balls and the Kesten amenability criterion.

The Cayley graph of a quotient G uses the distinct non-identity letter
images as its (symmetric) generating set; the simple random walk moves to a
uniformly random neighbor.  The walk's spectral radius equals 1 exactly when
the group is amenable, which provides an independent cross-check of the
skew-operator dichotomy.

Infinite groups are truncated to word-metric balls with Dirichlet boundary
(transitions leaving the ball are dropped), giving spectral radii that are
nondecreasing in the radius and converge to the true value from below at a
1/R^2 rate.  Free quotients of rank >= 2 have regular-tree Cayley graphs
whose truncated Perron vector is radial, so their ladder is computed exactly
from the radial reduction; the closed-form limit sqrt(2k-1)/k serves as the
test target.  Every rung's Perron value comes from ``linalg.perron_value``,
restarted Arnoldi on the walk step read off the ball's move table or on the
dense radial chain, and each rung keeps its matvec count and final residual.

The isoperimetric scan reports boundary-to-volume ratios of nested balls; it
is a Folner-style diagnostic only, since finite balls cannot decide
amenability.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError
from .groups import DEFAULT_BALL_CAP, Ball, FreeQuotient, QuotientGroup, ball
from .linalg import PerronResult, perron_value, perron_value_dense, truncation_limit


def walk_step(B: Ball, codes: Sequence[int]) -> Callable[[np.ndarray], np.ndarray]:
    """The Dirichlet simple random walk on the Cayley ball B, as a matvec.

    ``codes`` give the distinct non-identity letter images, the generating
    set; the step averages x over the neighbours g * image(c), one per code,
    and drops the moves that leave the ball.  Distinct images never give the
    same neighbour or a self-loop, so the step is the ball's adjacency matrix
    divided by the degree ``len(codes)``.
    """
    moves = B.letter_moves()[list(codes)]
    degree = float(len(codes))

    def step(x: np.ndarray) -> np.ndarray:
        # index -1 reads the appended zero: a move off the ball contributes 0
        return np.append(x, 0.0)[moves].sum(axis=0) / degree

    return step


def _tree_radial_chain(k: int, R: int) -> np.ndarray:
    """Dirichlet walk on the 2k-regular tree ball, radialized.

    The truncated walk commutes with the sphere-transitive automorphisms, so
    its Perron vector is radial and this (R+1)-state chain on the spheres
    has the same Perron value.
    """
    deg = 2 * k
    m = np.zeros((R + 1, R + 1))
    if R == 0:
        return m
    m[0, 1] = 1.0
    for r in range(1, R):
        m[r, r - 1] = 1.0 / deg
        m[r, r + 1] = (deg - 1) / deg
    m[R, R - 1] = 1.0 / deg
    return m


@dataclass(frozen=True)
class WalkLadder:
    """Dirichlet walk spectral radii per radius with a limit estimate.

    ``final_estimate`` and ``plateau`` come from ``linalg.truncation_limit``
    (a 1/R^2 extrapolation of a rising ladder, else its supremum, capped at
    1).  ``iterations`` and ``residuals`` give each rung's matvec count and
    final eigen-residual.
    """

    radii: tuple[int, ...]
    rho: tuple[float, ...]
    iterations: tuple[int, ...]
    residuals: tuple[float, ...]
    final_estimate: float
    plateau: bool
    degree: int
    method: str


def srw_spectral_radius(
    G: QuotientGroup,
    R_list: Sequence[int],
    ball_cap: int = DEFAULT_BALL_CAP,
    tol: float = 1e-11,
) -> WalkLadder:
    """Spectral-radius ladder of the simple random walk on Cayley balls."""
    if not R_list:
        raise ConfigError("need at least one radius")
    radii = tuple(sorted(int(r) for r in R_list))
    tree_rank = (
        G.surviving_rank()
        if isinstance(G, FreeQuotient) and G.surviving_rank() >= 2
        else None
    )
    rungs: list[PerronResult] = []
    if tree_rank is not None:
        method = "tree-radial"
        degree = 2 * tree_rank
        for R in radii:
            rungs.append(perron_value_dense(_tree_radial_chain(tree_rank, R), tol=tol))
    else:
        method = "generic"
        codes = G.generating_codes()
        if not codes:
            raise ConfigError("trivial group has no Cayley edges")
        degree = len(codes)
        for R in radii:
            B = ball(G, R, ball_cap)
            rungs.append(perron_value(walk_step(B, codes), len(B), tol=tol))
    rho_vals = [r.value for r in rungs]
    final, plateau = truncation_limit(radii, rho_vals, min_rungs=2)
    return WalkLadder(
        radii,
        tuple(rho_vals),
        tuple(r.iterations for r in rungs),
        tuple(r.residual for r in rungs),
        final,
        plateau,
        degree,
        method,
    )


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


def isoperimetric_scan(
    G: QuotientGroup, R: int, ball_cap: int = DEFAULT_BALL_CAP
) -> IsoperimetricReport:
    """Scan |dA|/|A| over the balls A = B(id, r) for r = 1..R."""
    if R < 1:
        raise ConfigError("radius must be >= 1")
    B = ball(G, R + 1, ball_cap)
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
