"""Reference for word weights and the Gibbs measure of the non-backtracking
shift: admissibility, log weights and the stationary Markov measure built
from the Perron data of ``pressure.spectral_data``.

No command reads these; the tests use them to check the pressure module
against word-by-word weights and the Gibbs property on cylinders.
"""

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from gdms import ConfigError, LinearGdmsSpec, spectral_data, transfer_matrix


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
    m = transfer_matrix(spec, s)
    sd = spectral_data(m)
    r = sd.right_vec
    phat = m * r[None, :] / (sd.rho * r[:, None])
    pi = sd.left_vec * r
    pi = pi / pi.sum()
    phat.flags.writeable = False
    pi.flags.writeable = False
    return GibbsMeasure(spec, float(s), pi, phat, math.log(sd.rho))
