"""Exact weighted word sums: kernel counts, and the induced first-return system.

A kernel word for a quotient G = F_d / N is an admissible (reduced) word
whose letters multiply to the identity of G; nonempty kernel words are in
bijection with the nontrivial elements of N up to the choice of reduced
representative.  This module computes

    a_n(s) = sum over kernel words of length n of prod_i c(w_i)^s

by dynamic programming over states (last letter, group element), estimates
the kernel pressure limsup (1/n) log a_n, locates its zero (the exponent of
convergence of N), checks the divergence of the kernel Poincare series at
half the full exponent, and builds the induced system whose edges are
first-return loops through the identity coset.

The group-extended transfer operator factors into two primitives on
(letter, ball element) arrays: the group step T (``_scatter``) moves each
letter row v along the move table of v with weight c(v)^s, and the
non-backtracking letter sum L (``_complement``) replaces row w by the sum
of all rows v != w^-1.  Appending a letter to a word is T o L
(``forward_word_step``); the skew operator of ``skew.py`` is L o T.  The two
are the cyclic products of the same pair, so T o (L o T) = (T o L) o T and
they share their nonzero spectrum; they are not adjoints.

``word_sums`` is the one word dynamic program.  It yields, per length n, the
weight of the length-n words sorted by last letter and image in G, and every
series of the package reads it: the kernel counts read the identity column,
the symmetry check of ``skew.py`` compares the column of g with that of
g^-1, and the full partition sums Z_n are the kernel counts of the trivial
quotient, where every word is a kernel word.  The program is exact, not
heuristic: a word of length n <= n_max that ends within ``reach`` of the
identity has each length-k prefix within min(k, reach + n_max - k) of it,
because one letter changes the distance by at most one.  So each step reads
only the prefixes in that window, a prefix of the breadth-first ball order,
and writes the prefix one sphere wider; the ball of radius
floor((n_max + reach) / 2), the widest window, holds every prefix kept, and
a word that leaves it cannot end within ``reach``.  Every state left out is
an exact zero at the elements within ``reach``.  The weights, and the sums
after each step, are scaled by powers of two, which keeps them finite at any
s that ``letter_weights`` accepts and changes no bit of a normal number.

With one ratio c for every letter, s enters the dynamic program only as the
scalar c^s per appended letter: a_n(s) = N_n c^{sn}, where N_n is the
number of kernel words of length n.  So the program runs once, at s = 0,
where it counts those words; that table depends only on the group and
``n_max``, it is memoised on the group, and every s reads
log a_n = log N_n + n s log c from it.  Unequal ratios run the program at
each s.

On a free quotient F_d -> F_k (kill m = d - k generators) the equal-ratio
table needs no ball.  On the Cayley tree of F_k the number of words that end
in a given (letter, element) state depends only on the element's distance r
from the identity and on the cone type of the last letter: a surviving
letter that moved away from the identity, one that moved toward it, or a
killed letter.  Every element at r >= 1 has exactly one neighbour nearer the
identity, and v^-1 may not follow v, so each type has a fixed number of
predecessors of each type, and ``_cone_log_counts`` runs the recurrence on
O(n_max) (r, type) states with the window and the power-of-two scaling of
``word_sums``.  While every count per state is an integer below 2^53 its
table is the ball program's bit for bit (checked through n_max 24 on
F_3/<<g_3>>, whose radius-12 ball of F_2 has 1,062,881 elements); beyond,
the two round differently in the last bits.  It reaches n_max in the
thousands, where the radius-floor(n_max/2) ball of F_k would not fit in
memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
import numpy as np

from .errors import CapExceededError, ConfigError, GdmsError
from .groups import Ball, FreeQuotient, QuotientGroup, _read_only, ball
from .pressure import LinearGdmsSpec, bisect_floats, bowen_root

DEFAULT_LOOP_CAP = 500_000
# Nonzero kernel counts a pressure estimate needs.
MIN_KERNEL_ENTRIES = 8


# ---------------------------------------------------------------------------
# Kernel count tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KernelCountTable:
    """Per-length log kernel sums; -inf marks exact zeros.

    Every table is exact: a ball cap refuses the ball a table needs
    (``CapExceededError``), it never cuts the table to an undercount.
    """

    s: float
    n_max: int
    log_a: np.ndarray

    def support(self) -> np.ndarray:
        """Lengths n (1-based) with a_n > 0."""
        return np.flatnonzero(np.isfinite(self.log_a)) + 1


def _scatter(
    X: np.ndarray, moves: np.ndarray, weights: np.ndarray, n_out: int
) -> np.ndarray:
    """The group step T: Z[v] = weights[v] * X[v] pushed along ``moves[v]``.

    Column i of row v lands in column ``moves[v, i]`` of the result, which
    has ``n_out`` columns; a move of -1 drops the entry.  ``moves`` has one
    column per column of X.  Right multiplication by a letter image is
    injective, so no column receives two entries and each is assigned, not
    summed; dropped entries land in a spare last column that is cut off.
    """
    Z = np.zeros((len(X), n_out + 1))
    for v in range(len(X)):
        Z[v, moves[v]] = X[v] * weights[v]
    return Z[:, :n_out]


def _complement(Z: np.ndarray) -> np.ndarray:
    """The non-backtracking letter sum L: Y[w] = sum over v != w^-1 of Z[v]."""
    total = Z.sum(axis=0)
    Y = np.empty_like(Z)
    for w in range(len(Z)):
        Y[w] = total - Z[w ^ 1]
    return Y


def forward_word_step(
    X: np.ndarray,
    moves: np.ndarray,
    weights: np.ndarray,
    n_out: int | None = None,
) -> np.ndarray:
    """One letter-append step of the word dynamic program, T o L.

    X[v, i] holds the weight of prefixes ending with letter v at ball
    element i; appending letter w multiplies by weights[w], forbids
    w = v^-1, and moves the group coordinate along ``moves[w]`` (-1 drops
    the transition).  ``moves`` has one column per column of X; the result
    has ``n_out`` columns (default: as many as X), which must exceed every
    move target.
    """
    if n_out is None:
        n_out = X.shape[1]
    return _scatter(_complement(X), moves, weights, n_out)


def word_sums(B: Ball, weights: np.ndarray, n_max: int, reach: int = 0):
    """Yield (n, X, e) for n = 1..n_max, the word sums on the ball ``B``.

    X[v, i] * 2**e is the total weight of the length-n words that end in
    letter v at ball element i, exact at every element within ``reach`` of
    the identity; X has a column for each element that the next step or a
    caller reads, the live window of the module docstring, so fewer than
    ``B`` has once the window narrows.  The peak of X lies in [1/2, 1), so
    a table's bits do not depend on the ball beyond the window.  Sums that
    die out end the iteration.
    """
    moves = B.letter_moves()

    def within(r: int) -> int:
        """Number of ball elements at distance <= r (a BFS prefix)."""
        return int(np.searchsorted(B.dist, r, side="right"))

    w_exp = math.frexp(float(weights.max()))[1]
    weights = np.ldexp(weights, -w_exp)
    # the one-letter words are T applied to the identity in every letter row
    X = _scatter(np.ones((len(weights), 1)), moves[:, :1], weights, within(1))
    e = w_exp
    yield 1, X, e
    for n in range(2, n_max + 1):
        # live inputs: reached in n - 1 letters and able to end within
        # ``reach`` in the n_max - (n - 1) letters left
        live = min(n - 1, reach + n_max - n + 1)
        k = within(live)
        X = forward_word_step(X[:, :k], moves[:, :k], weights, within(live + 1))
        X = X[:, : within(min(n, reach + n_max - n))]  # the next step's inputs
        peak = float(X.max())
        if peak <= 0.0:
            return
        x_exp = math.frexp(peak)[1]
        np.ldexp(X, -x_exp, out=X)
        e += w_exp + x_exp
        yield n, X, e


def _log_counts(B: Ball, n_max: int, weights: np.ndarray) -> np.ndarray:
    """log a_n for n = 1..n_max at these letter weights, -inf for zeros:
    the identity column of ``word_sums``."""
    log_a = np.full(n_max, -np.inf)
    for n, X, e in word_sums(B, weights, n_max):
        total = float(X[:, 0].sum())
        if total > 0.0:
            log_a[n - 1] = e * math.log(2.0) + math.log(total)
    return log_a


def _cone_log_counts(G: FreeQuotient, n_max: int) -> np.ndarray:
    """log N_n for n = 1..n_max on a free quotient, -inf for zeros, from the
    cone types of its Cayley tree (see the module docstring); no ball.

    Row ``X[t, r]`` is the count per (letter, element) state of type t (away,
    toward, killed) at distance r.  A state's predecessors sit at the
    element the last letter left: an away state at r + 1 follows the away
    state, 2k - 2 toward states and 2m killed states at r; a toward state at
    r - 1 follows 2k - 1 toward and 2m killed states at r; a killed state
    follows the away state, 2k - 1 toward and 2m - 1 killed states at its own
    element.  The identity has 2k toward states (no away state), and the
    kernel words end there: N_n = 2k toward + 2m killed.
    """
    k, m = G.surviving_rank(), len(G.kill)
    has = np.array([[k > 0], [k > 0], [m > 0]])  # a type with no letters has no states
    X = np.zeros((3, n_max // 2 + 1))
    X[0, 1:2] = X[2, 0] = 0.5  # the one-letter words, at the 2**-1 scale of word_sums
    X *= has
    e = 1
    log_N = np.full(n_max, -np.inf)
    for n in range(1, n_max + 1):
        if n > 1:
            X[:, n_max - n + 2:] = 0.0  # live inputs: back at the identity in time
            away, toward, killed = X
            out = away + (2 * k - 2) * toward + 2 * m * killed
            back = (2 * k - 1) * toward + 2 * m * killed
            stay = away + (2 * k - 1) * toward + (2 * m - 1) * killed
            out[0] += toward[0]  # the identity's extra toward state
            stay[0] += toward[0]
            X = np.zeros_like(X)
            X[0, 1:], X[1, :-1], X[2] = out[:-1], back[1:], stay
            X *= has
            peak = float(X.max())
            if peak <= 0.0:
                break
            x_exp = math.frexp(peak)[1]
            np.ldexp(X, -x_exp, out=X)
            e += x_exp
        total = 2 * k * X[1, 0] + 2 * m * X[2, 0]
        if total > 0.0:
            log_N[n - 1] = e * math.log(2.0) + math.log(total)
    return log_N


def _cone_applies(spec: LinearGdmsSpec, G: QuotientGroup) -> bool:
    """Whether ``kernel_counts`` reads the cone-type table, which needs no
    ball: a free quotient with one ratio for every letter."""
    log_c = spec.log_ratios
    return isinstance(G, FreeQuotient) and bool((log_c == log_c[0]).all())


def kernel_counts(
    spec: LinearGdmsSpec, G: QuotientGroup, s: float, n_max: int
) -> KernelCountTable:
    """Weighted kernel-word counts a_n(s) for n = 1..n_max.

    Exact via radius pruning on the radius-floor(n_max/2) ball; when that
    ball exceeds the group's ball cap, ``ball`` raises ``CapExceededError``
    and no table is counted, since a cut table would undercount.  With equal
    ratios the word counts at s = 0 are computed once per group and
    ``n_max`` and shifted by n s log c.  On a free quotient that table comes
    from the cone types of the tree (``_cone_log_counts``), which reads no
    ball, so no cap applies to it.
    """
    if n_max < 1:
        raise ConfigError("n_max must be >= 1")
    if G.d != spec.d:
        raise ConfigError("quotient and GDMS rank mismatch")
    cone = _cone_applies(spec, G)
    B = None if cone else ball(G, n_max // 2)
    weights = spec.letter_weights(s)
    log_c = spec.log_ratios
    if not (log_c == log_c[0]).all():
        return KernelCountTable(float(s), n_max, _log_counts(B, n_max, weights))
    log_N = G._kernel_tables.get(n_max)
    if log_N is None:
        log_N = G._kernel_tables[n_max] = _read_only(
            _cone_log_counts(G, n_max) if cone else _log_counts(B, n_max, np.ones_like(weights))
        )
    log_a = log_N + np.arange(1, n_max + 1) * (s * log_c[0])
    return KernelCountTable(float(s), n_max, log_a)


# ---------------------------------------------------------------------------
# Kernel pressure estimation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KernelPressureEstimate:
    """Ratio-based estimate of limsup (1/n) log a_n.

    ``estimate`` is the last stride-p ratio and ``dead_band`` the spread of
    the final two ratios (the honesty margin used by the bisection).
    """

    estimate: float
    period: int
    dead_band: float


def kernel_pressure(table: KernelCountTable) -> KernelPressureEstimate:
    """Estimate the kernel pressure at the table's exponent.

    Requires at least ``MIN_KERNEL_ENTRIES`` nonzero counts.  The stride is
    2 when every nonzero count sits at an even length (kernel parity, e.g.
    for quotients all of whose generator images square to the identity or
    for free abelianizations), else 1.
    """
    support = table.support()
    if support.size == 0:
        raise GdmsError("kernel not reached; increase n_max")
    if support.size < MIN_KERNEL_ENTRIES:
        raise GdmsError(
            f"need at least {MIN_KERNEL_ENTRIES} nonzero kernel counts, got {support.size}; "
            "increase n_max"
        )
    period = 2 if np.all(support % 2 == 0) else 1
    log_a = table.log_a
    ratios = []
    for n in support:
        m = n - period
        if m >= 1 and np.isfinite(log_a[m - 1]):
            ratios.append((log_a[n - 1] - log_a[m - 1]) / period)
    if len(ratios) < 2:
        raise GdmsError("not enough consecutive kernel counts for a ratio estimate")
    return KernelPressureEstimate(
        estimate=float(ratios[-1]),
        period=period,
        dead_band=abs(float(ratios[-1] - ratios[-2])),
    )


# ---------------------------------------------------------------------------
# The exponent of convergence of N
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DeltaKernelResult:
    """Zero of the kernel pressure with an honest bracket.

    ``ambiguous`` is set when a bisection step landed inside the estimator's
    dead band, in which case the bracket was widened rather than guessed;
    ``clipped`` when the bracket or the value reached outside the interval
    that holds delta(N) for every N (``delta_kernel``) and was cut to it.
    """

    delta: float
    lo: float
    hi: float
    ambiguous: bool
    exact: bool
    clipped: bool = False
    evaluations: tuple = field(default=(), repr=False)


def delta_kernel(
    spec: LinearGdmsSpec, G: QuotientGroup, n_max: int = 24, tol: float = 5e-4
) -> DeltaKernelResult:
    """The exponent of convergence of the kernel Poincare series.

    Bisection on the sign of the kernel-pressure estimate.  Exact cases: a
    trivial kernel gives 0 (only the identity contributes), and a finite
    quotient, the trivial one included, gives the full Bowen root after the
    ``tol`` check and the non-symmetric warning: N then has finite index,
    and delta(N) = delta(F_d).  A ball cap refuses, it never cuts:
    when the tables read a ball (every case but the cone table of
    ``kernel_counts``) that exceeds the group's cap, the first table raises
    ``CapExceededError``.  A ``tol`` of at least half the starting bracket
    [0, bowen_root + 0.1] would bisect nothing, so it raises ``ConfigError``.

    An estimate is then clipped into [floor, delta], delta = bowen_root:
    delta(N) <= delta because N lies in F_d, and for a symmetric system the
    nontrivial normal subgroup N has delta(N) > delta / 2 (the paper's
    theorem; Roblin), so the floor is delta / 2 there and 0 otherwise.
    ``lo``, ``hi`` and ``delta`` are clipped each on its own, and
    ``clipped`` says whether any of them moved.
    """
    if G.kernel_is_trivial():
        return DeltaKernelResult(0.0, 0.0, 0.0, False, True)
    root = bowen_root(spec)
    lo = 0.0
    hi = root + 0.1
    if hi - lo <= 2 * tol:
        raise ConfigError(
            f"delta_tol {tol!r} is at least half the starting bracket [0, {hi!r}]"
        )
    if not spec.symmetric:
        import warnings

        warnings.warn(
            "delta_kernel on a non-symmetric system: the kernel-pressure "
            "estimator is still valid but the amenability dichotomy is not",
            stacklevel=2,
        )
    if G.finite:
        # N has finite index, so it has the exponent of F_d itself
        return DeltaKernelResult(root, root, root, False, True)
    evals = []
    ambiguous = False
    while hi - lo > 2 * tol:
        s = 0.5 * (lo + hi)
        est = kernel_pressure(kernel_counts(spec, G, s, n_max))
        evals.append((s, est.estimate, est.dead_band))
        band = est.dead_band
        if est.estimate > band:
            lo = s
        elif est.estimate < -band:
            hi = s
        else:
            ambiguous = True
            break
    floor = 0.5 * root if spec.symmetric else 0.0
    raw = (0.5 * (lo + hi), lo, hi)
    delta, lo, hi = (min(max(x, floor), root) for x in raw)
    clipped = (delta, lo, hi) != raw
    return DeltaKernelResult(delta, lo, hi, ambiguous, False, clipped, tuple(evals))


# ---------------------------------------------------------------------------
# Divergence at half the full exponent
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DivergenceReport:
    """Per-length kernel terms at s = delta(F_d)/2.

    The kernel Poincare series diverges at half the full exponent for every
    nontrivial normal subgroup of a symmetric system; finitely many terms
    cannot prove that, so the report asserts the per-length terms show no
    geometric decay across the final third of the table.
    """

    s_half: float
    lengths: np.ndarray
    log_terms: np.ndarray
    tail_nondecreasing: bool
    tail_min_step: float
    table: KernelCountTable


def divergence_check(
    spec: LinearGdmsSpec, G: QuotientGroup, n_max: int = 24
) -> DivergenceReport:
    if not spec.symmetric:
        raise ConfigError("divergence check requires a symmetric system")
    s_half = bowen_root(spec) / 2.0
    table = kernel_counts(spec, G, s_half, n_max)
    support = table.support()
    if support.size == 0:
        raise GdmsError("kernel not reached; increase n_max")
    terms = table.log_a[support - 1]
    third = max(2, len(terms) // 3)
    tail = terms[-third:]
    steps = np.diff(tail)
    return DivergenceReport(
        s_half=s_half,
        lengths=support,
        log_terms=terms,
        tail_nondecreasing=bool(np.all(steps >= -1e-9)),
        tail_min_step=float(steps.min()) if steps.size else 0.0,
        table=table,
    )


# ---------------------------------------------------------------------------
# Induced first-return system
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InducedSystem:
    """First-return loops through the identity coset, up to length L_max.

    A loop is an admissible word whose image is the identity while every
    proper nonempty prefix has a nontrivial image.  Loops compose exactly
    when the last letter of one and the first letter of the next do not
    backtrack; compositions of loops enumerate kernel words bijectively.
    """

    spec: LinearGdmsSpec
    L_max: int
    loops: tuple[tuple[int, ...], ...]
    log_weights: np.ndarray

    def __len__(self):
        return len(self.loops)

    def first_letters(self) -> np.ndarray:
        return np.array([w[0] for w in self.loops], dtype=np.int64)

    def last_letters(self) -> np.ndarray:
        return np.array([w[-1] for w in self.loops], dtype=np.int64)


def induced_loops(
    spec: LinearGdmsSpec,
    G: QuotientGroup,
    L_max: int,
    loop_cap: int = DEFAULT_LOOP_CAP,
) -> InducedSystem:
    """Enumerate all first-return loops of length <= L_max, depth-first.

    The search runs on the indices of the radius-(L_max // 2) ball, reading
    its move table and distances.  It prunes a prefix of length k whose image
    lies farther from the identity than the L_max - k letters left, so every
    kept prefix has distance <= min(k, L_max - k) <= L_max / 2 and stays in
    the ball; a move off the ball is pruned too.  The enumeration is exact
    for the given cutoff, and loops come in lexicographic order of codes.
    """
    if L_max < 1:
        raise ConfigError("L_max must be >= 1")
    B = ball(G, L_max // 2)
    moves = B.letter_moves().T.tolist()
    dist = B.dist.tolist()
    log_c = spec.log_ratios.tolist()
    codes = range(2 * spec.d)
    loops: list[tuple[int, ...]] = []
    weights: list[float] = []

    def extend(i: int, path: list[int], logw: float):
        depth = len(path)
        for code in codes:
            if path and code == (path[-1] ^ 1):
                continue
            j = moves[i][code]
            w = logw + log_c[code]
            if j == 0:
                if len(loops) >= loop_cap:
                    raise CapExceededError(
                        f"more than {loop_cap} induced loops at L_max={L_max}"
                    )
                loops.append(tuple(path) + (code,))
                weights.append(w)
                continue  # first visit to id ends the loop; do not extend
            remaining = L_max - depth - 1
            if j < 0 or remaining <= 0 or dist[j] > remaining:
                continue
            path.append(code)
            extend(j, path, w)
            path.pop()

    extend(0, [], 0.0)
    return InducedSystem(
        spec, L_max, tuple(loops), np.array(weights, dtype=float)
    )


def loop_transfer_matrix(sys: InducedSystem, s: float) -> np.ndarray:
    """Transfer matrix of loop compositions on the 2d letter states.

    Entry [u][u'] sums the s-weights of loops whose first letter may follow
    u and whose last letter is u'; its Perron value is the exponential of
    the induced-system pressure at exponent s.
    """
    n = 2 * sys.spec.d
    by_pair = np.zeros((n, n))
    w = np.exp(s * sys.log_weights)
    np.add.at(by_pair, (sys.first_letters(), sys.last_letters()), w)
    return _complement(by_pair)


def induced_bowen_root(sys: InducedSystem) -> float:
    """Zero of the induced-system pressure: a lower bound for delta(N).

    Bisects on rho(s) = 1 for the 2d x 2d loop matrix to adjacent floats and
    returns the lower end.  The matrix is not symmetric even for a symmetric
    spec, so rho comes from LAPACK: the Perron value of a nonnegative matrix
    is its eigenvalue of largest real part.  Nondecreasing in the loop
    cutoff; errors out when no zero exists below the Bowen root plus one.
    """
    if len(sys) == 0:
        raise GdmsError("induced system has no loops; increase L_max")
    hi = bowen_root(sys.spec) + 1.0

    def above(s: float) -> bool:
        return np.linalg.eigvals(loop_transfer_matrix(sys, s)).real.max() < 1.0

    if above(0.0):
        raise GdmsError(
            "induced pressure already negative at s=0; no root in bracket"
        )
    if not above(hi):  # pragma: no cover - impossible below delta+1
        raise GdmsError("induced pressure has no root below the delta+1 bracket")
    return bisect_floats(above, 0.0, hi)[0]
