"""Reference for word weights and the Gibbs measure of the non-backtracking
shift: admissibility, log weights and the stationary Markov measure built
from the Perron data of ``pressure.perron_data``, and the transfer matrix
M(s) itself.

No command reads these; the tests use them to check the pressure module
against word-by-word weights and the Gibbs property on cylinders.
"""

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from gdms import ConfigError, LinearGdmsSpec, perron_data


def transfer_matrix(spec: LinearGdmsSpec, s: float) -> np.ndarray:
    """The read-only M(s): M[v, w] = c(w)^s, 0 on the backtracking w = v^-1."""
    n = 2 * spec.d
    m = np.tile(spec.letter_weights(s), (n, 1))
    m[np.arange(n), np.arange(n) ^ 1] = 0.0
    m.flags.writeable = False
    return m


def perron_vectors(spec: LinearGdmsSpec, s: float) -> tuple[float, np.ndarray, np.ndarray]:
    """rho(s) and M(s)'s right and left Perron vectors r = U^{-1/2} y and
    l = U^{1/2} y, from the unit vector y of ``perron_data`` (l . r = 1)."""
    res = perron_data(spec, s)
    half = np.sqrt(spec.letter_weights(s))
    return res.value, res.vector / half, res.vector * half


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
