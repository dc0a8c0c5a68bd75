"""Reference for the symmetry check: the word dynamic program on the whole
radius-n_max ball, with no window, as ``skew.check_asymptotic_symmetry``
ran before it read ``kernel.word_sums``.

Returns the per-length arrays (relative asymmetry, low ratio, high ratio)
that the check reports.
"""

import math

import numpy as np

from gdms.groups import ball
from gdms.kernel import _scatter, forward_word_step


def _unit_peak(a):
    """``a`` times the power of two that puts its peak in [1/2, 1)."""
    return np.ldexp(a, -math.frexp(float(a.max()))[1])


def full_ball_symmetry(spec, G, n_max, R, s):
    B = ball(G, n_max)
    moves = B.letter_moves()
    inv_idx = B.inverse_index()
    weights = _unit_peak(spec.letter_weights(s))
    in_R = np.flatnonzero(B.dist <= R)
    inv_of_in_R = inv_idx[in_R]

    X = _scatter(np.ones((2 * spec.d, 1)), moves[:, :1], weights, len(B))
    rel = np.zeros(n_max)
    lo = np.ones(n_max)
    hi = np.ones(n_max)
    for n in range(1, n_max + 1):
        if n > 1:
            X = _unit_peak(forward_word_step(X, moves, weights))
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
    return rel, lo, hi
