"""Reference for word weights and the Gibbs measure of the non-backtracking
shift: admissibility, log weights and the stationary Markov measure built
from the Perron vectors of the transfer matrix M(s), and M(s) itself.

No command reads these; the tests use them to check the pressure module
against word-by-word weights and the Gibbs property on cylinders.
"""

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from gdms import ConfigError, LinearGdmsSpec


def transfer_matrix(spec: LinearGdmsSpec, s: float) -> np.ndarray:
    """The read-only M(s): M[v, w] = c(w)^s, 0 on the backtracking w = v^-1."""
    n = 2 * spec.d
    m = np.tile(spec.letter_weights(s), (n, 1))
    m[np.arange(n), np.arange(n) ^ 1] = 0.0
    m.flags.writeable = False
    return m


def perron_vectors(spec: LinearGdmsSpec, s: float) -> tuple[float, np.ndarray, np.ndarray]:
    """rho(s) and M(s)'s positive right and left Perron vectors r and l,
    scaled to l . r = 1, from LAPACK's eigen-decompositions of M and M^T."""
    m = transfer_matrix(spec, s)
    (rho, r), (_, l) = (_top_eigenpair(a) for a in (m, m.T))
    return rho, r / (l @ r), l


def _top_eigenpair(m: np.ndarray) -> tuple[float, np.ndarray]:
    """The eigenvalue of largest real part and its eigenvector, signed to a
    positive sum; for an irreducible nonnegative M these are real."""
    values, vectors = np.linalg.eig(m)
    k = int(np.argmax(values.real))
    vector = vectors[:, k].real
    return float(values[k].real), vector * np.copysign(1.0, vector.sum())


def is_admissible(codes: Sequence[int]) -> bool:
    """True iff no letter is followed by its own inverse."""
    return all(b != (a ^ 1) for a, b in zip(codes, codes[1:]))


def log_weight(spec: LinearGdmsSpec, codes: Sequence[int], s: float) -> float:
    """log of prod c(w_i)^s; the empty word gets 0 (weight 1) by convention."""
    if not is_admissible(codes):
        raise ConfigError("word is not admissible")
    return s * float(spec.log_ratios[list(codes)].sum()) if codes else 0.0


@dataclass(frozen=True)
class GibbsMeasure:
    """Stationary Markov measure realizing the Gibbs property on cylinders.

    ``phat`` is the stochasticized transfer matrix, ``pi`` its stationary
    law; cylinder masses are uniformly comparable to weight(w) * e^{-nP}.
    """

    spec: LinearGdmsSpec
    s: float
    pi: np.ndarray
    phat: np.ndarray
    pressure: float

    def log_cylinder_mass(self, codes: Sequence[int]) -> float:
        if not codes:
            return 0.0
        if not is_admissible(codes):
            raise ConfigError("word is not admissible")
        total = math.log(self.pi[codes[0]])
        for a, b in zip(codes, codes[1:]):
            total += math.log(self.phat[a, b])
        return total

    def cylinder_mass(self, codes: Sequence[int]) -> float:
        return math.exp(self.log_cylinder_mass(codes))


def gibbs_measure(spec: LinearGdmsSpec, s: float) -> GibbsMeasure:
    rho, r, l = perron_vectors(spec, s)
    phat = transfer_matrix(spec, s) * r[None, :] / (rho * r[:, None])
    pi = l * r
    pi = pi / pi.sum()
    phat.flags.writeable = False
    pi.flags.writeable = False
    return GibbsMeasure(spec, float(s), pi, phat, math.log(rho))
