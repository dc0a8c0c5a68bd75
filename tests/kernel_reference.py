"""Reference series built on the kernel module: the full partition sums, and
the renewal sums of loop compositions of an induced system.

No command reads these; the tests use them to check the word dynamic
program against enumeration and the loop enumeration against kernel counts.
"""

import math

import numpy as np

from gdms import FreeQuotient, InducedSystem, LinearGdmsSpec, kernel_counts
from gdms.kernel import _complement


def log_partition_sums(spec: LinearGdmsSpec, s: float, n_max: int) -> np.ndarray:
    """log Z_n for n = 1..n_max, Z_n the sum over all admissible words of
    length n of prod_i c(w_i)^s: the kernel counts of the trivial quotient."""
    trivial = FreeQuotient(spec.d, range(1, spec.d + 1))
    return kernel_counts(spec, trivial, s, n_max).log_a


def loop_composition_log_counts(sys: InducedSystem, s: float, n_max: int) -> np.ndarray:
    """log total s-weight of loop compositions by total length (renewal sums).

    Used to cross-check the loop enumeration against the kernel counts: for
    n <= L_max every kernel word of length n is a unique composition.
    """
    n = 2 * sys.spec.d
    # follow[t][v]: weight of compositions of total length t that letter v
    # may follow, i.e. L applied to their weights by last letter.
    follow = [np.zeros(n) for _ in range(n_max + 1)]
    out = np.full(n_max, -np.inf)
    firsts = sys.first_letters()
    lasts = sys.last_letters()
    w = np.exp(s * sys.log_weights)
    lens = np.array([len(p) for p in sys.loops])
    order = np.argsort(lens, kind="stable")
    for total in range(1, n_max + 1):
        vec = np.zeros(n)
        for k in order:
            L = int(lens[k])
            if L > total:
                break
            if L == total:
                vec[lasts[k]] += w[k]
            else:
                vec[lasts[k]] += w[k] * follow[total - L][firsts[k]]
        follow[total] = _complement(vec)
        tot = vec.sum()
        if tot > 0:
            out[total - 1] = math.log(tot)
    return out
