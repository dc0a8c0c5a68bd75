"""Shared fixtures and independent brute-force oracles.

The oracles here deliberately avoid the library's transfer-matrix and
dynamic-programming code paths: words are enumerated one by one as integer
code tuples (code 2i = generator i+1, code 2i+1 = its inverse, inverse =
code ^ 1) and weights accumulated directly, so they can certify the fast
implementations.
"""

import random

import numpy as np
import pytest

from gdms import (
    ConfigError,
    FinitePermQuotient,
    FreeAbelianQuotient,
    FreeQuotient,
    LinearGdmsSpec,
)


# ---------------------------------------------------------------------------
# Independent word oracles
# ---------------------------------------------------------------------------

class NeumaierSum:
    """Compensated accumulator so oracle sums are exact to ~1 ulp.

    Naive sequential summation of ~10^5 positive terms already drifts by
    ~1e-12 relative, which would swamp the tolerances being certified.
    """

    __slots__ = ("s", "c")

    def __init__(self):
        self.s = 0.0
        self.c = 0.0

    def add(self, x):
        t = self.s + x
        if abs(self.s) >= abs(x):
            self.c += (self.s - t) + x
        else:
            self.c += (x - t) + self.s
        self.s = t

    def value(self):
        return self.s + self.c


def naive_reduce(codes):
    """Repeated single-pass cancellation until a fixpoint (spec oracle)."""
    codes = list(codes)
    while True:
        for i in range(len(codes) - 1):
            if codes[i + 1] == codes[i] ^ 1:
                del codes[i : i + 2]
                break
        else:
            return tuple(codes)


def reduce_word(codes):
    """Fully reduce a code sequence by stack cancellation.

    The result equals the input in F_d; a single left-to-right pass with a
    stack performs every cancellation cascade.
    """
    stack = []
    for c in codes:
        if stack and stack[-1] == c ^ 1:
            stack.pop()
        else:
            stack.append(c)
    return tuple(stack)


def kappa(w):
    """Reverse the word and invert each letter.

    An involution on nonempty reduced words; it preserves the multiset of
    generator indices, hence any per-letter weight with c(g) = c(g^-1).
    """
    if not w:
        raise ConfigError("empty word has no kappa image")
    return tuple(c ^ 1 for c in reversed(w))


def apply_word(G, g, codes):
    """Right-multiply ``g`` by the images of ``codes``, left to right."""
    for c in codes:
        g = G.apply_letter(g, c)
    return g


def word_image(G, codes):
    """The image of a word in G; the empty word maps to the identity."""
    return apply_word(G, G.identity(), codes)


def bfs_elements(G, radius):
    """Breadth-first oracle for balls: {element: geodesic word} for the
    elements within ``radius`` of the identity, in the breadth-first order,
    ties broken by letter code, that ``ball`` indexes them in.

    It reads only ``identity`` and ``apply_letter``; a finite group runs out
    of elements before a radius past its diameter.
    """
    words = {G.identity(): ()}
    frontier = list(words)
    for _ in range(radius):
        sphere = []
        for g in frontier:
            for c in range(2 * G.d):
                h = G.apply_letter(g, c)
                if h not in words:
                    words[h] = words[g] + (c,)
                    sphere.append(h)
        if not sphere:
            break
        frontier = sphere
    return words


def iter_reduced_words(d, n):
    """All reduced words of exactly length n, lexicographic in codes."""
    if n == 0:
        yield ()
        return
    def rec(prefix):
        if len(prefix) == n:
            yield tuple(prefix)
            return
        for c in range(2 * d):
            if prefix and c == prefix[-1] ^ 1:
                continue
            prefix.append(c)
            yield from rec(prefix)
            prefix.pop()
    yield from rec([])


def all_reduced_words_upto(d, n_max):
    words = []
    for n in range(n_max + 1):
        words.extend(iter_reduced_words(d, n))
    return words


def brute_partition_sum(spec, s, n):
    """Z_n(s) by direct enumeration; independent of transfer matrices."""
    total = NeumaierSum()
    for w in iter_reduced_words(spec.d, n):
        prod = 1.0
        for c in w:
            prod *= spec.ratios[c] ** s
        total.add(prod)
    return total.value()


def brute_kernel_sums(spec, G, s, n_max):
    """a_n(s) by enumerating every reduced word and folding its image."""
    out = [NeumaierSum() for _ in range(n_max)]
    e = G.identity()
    ratios = [spec.ratios[c] ** s for c in range(2 * spec.d)]

    def rec(last, g, weight, n):
        if n > 0 and g == e:
            out[n - 1].add(weight)
        if n == n_max:
            return
        for c in range(2 * spec.d):
            if last >= 0 and c == last ^ 1:
                continue
            rec(c, G.apply_letter(g, c), weight * ratios[c], n + 1)

    rec(-1, e, 1.0, 0)
    return np.array([acc.value() for acc in out])


def brute_first_returns(G, d, L_max):
    """Reduced words of length <= L_max whose image is the identity while no
    proper nonempty prefix's is, sorted lexicographically in codes."""
    e = G.identity()
    loops = []
    for n in range(1, L_max + 1):
        for w in iter_reduced_words(d, n):
            g = e
            images = []
            for c in w:
                g = G.apply_letter(g, c)
                images.append(g)
            if images[-1] == e and e not in images[:-1]:
                loops.append(w)
    return sorted(loops)


# ---------------------------------------------------------------------------
# Fixtures
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def spec_third():
    """d=2, all ratios 1/3: Bowen root exactly 1."""
    return LinearGdmsSpec.equal_ratios(2, 1.0 / 3.0)


@pytest.fixture(scope="session")
def spec_quarter():
    return LinearGdmsSpec.equal_ratios(2, 0.25)


@pytest.fixture(scope="session")
def spec_fifth_d3():
    """d=3, all ratios 1/5: Bowen root exactly 1."""
    return LinearGdmsSpec.equal_ratios(3, 0.2)


@pytest.fixture(scope="session")
def spec_mixed():
    """Symmetric but generator-dependent ratios."""
    return LinearGdmsSpec(2, (1.0 / 3.0, 1.0 / 3.0, 0.2, 0.2))


@pytest.fixture(scope="session")
def spec_mixed_d3():
    """d=3, symmetric with three different ratios."""
    return LinearGdmsSpec.symmetric_ratios([0.2, 0.15, 0.1])


@pytest.fixture(scope="session")
def spec_nonsym():
    """Ratios differing between a generator and its inverse."""
    return LinearGdmsSpec(2, (1.0 / 3.0, 0.25, 0.2, 0.2))


@pytest.fixture(scope="session")
def z2():
    """Z/2: both generators map to the swap."""
    return FinitePermQuotient(2, [[1, 0], [1, 0]])


@pytest.fixture(scope="session")
def z3():
    """Z/3: both generators map to the 3-cycle."""
    return FinitePermQuotient(3, [[1, 2, 0], [1, 2, 0]])


@pytest.fixture(scope="session")
def s3():
    """S3 image: a transposition and a 3-cycle."""
    return FinitePermQuotient(3, [[1, 0, 2], [1, 2, 0]])


@pytest.fixture(scope="session")
def z_repeated():
    """Z with both generators mapping to 1: a repeated image."""
    return FreeAbelianQuotient(1, [[1], [1]])


@pytest.fixture(scope="session")
def zz():
    """Abelianization of F_2."""
    return FreeAbelianQuotient(2, [[1, 0], [0, 1]])


@pytest.fixture(scope="session")
def f2_of_f3():
    """Non-amenable F_2 image of F_3 (third generator killed)."""
    return FreeQuotient(3, kill=[3])


@pytest.fixture(scope="session")
def trivial_group():
    """N = F_2: the quotient collapses to the trivial group."""
    return FreeQuotient(2, kill=[1, 2])


@pytest.fixture(scope="session")
def free_f2():
    """N = {id}: the quotient is F_2 itself (trivial kernel)."""
    return FreeQuotient(2)


@pytest.fixture()
def rng():
    return random.Random(20260810)
