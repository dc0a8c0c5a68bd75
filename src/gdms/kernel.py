"""Exact weighted counts of kernel words and the induced first-return system.

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

The dynamic program is exact, not heuristic: a state at word-metric distance
D from the identity with r steps left cannot contribute to any count once
D > r, because one letter changes the distance by at most one.  Discarding
those states bounds the live ball radius by ceil(n_max / 2).  Each step
also runs only on its live window: prefixes of length n - 1 lie within
distance min(n - 1, n_max - n + 1) of the identity, which is a prefix of
the breadth-first ball order, so the step reads that prefix of the state
array and writes the prefix one sphere wider.  Every state left out is an
exact zero, so the sums are bit-identical to a full-width step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
import numpy as np

from .errors import CapExceededError, ConfigError, GdmsError
from .groups import DEFAULT_BALL_CAP, Ball, QuotientGroup, ball
from .linalg import perron_value_dense
from .pressure import LinearGdmsSpec, bowen_root

DEFAULT_LOOP_CAP = 500_000


# ---------------------------------------------------------------------------
# Kernel count tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KernelCountTable:
    """Per-length log kernel sums; -inf marks exact zeros.

    ``exact`` is true when the pruning ball fit under its cap; otherwise the
    table is a documented undercount of the true sums.
    """

    s: float
    n_max: int
    log_a: np.ndarray
    exact: bool
    ball_radius: int

    def support(self) -> np.ndarray:
        """Lengths n (1-based) with a_n > 0."""
        return np.flatnonzero(np.isfinite(self.log_a)) + 1


def _pruning_ball(G: QuotientGroup, n_max: int, ball_cap: int) -> tuple[Ball, bool]:
    radius = (n_max + 1) // 2
    for r in range(radius, -1, -1):
        try:
            return ball(G, r, ball_cap), r == radius
        except CapExceededError:
            continue
    raise CapExceededError("even the identity does not fit the ball cap")


def _scatter(
    X: np.ndarray, moves: np.ndarray, weights: np.ndarray, n_out: int
) -> np.ndarray:
    """The group step T: Z[v] = weights[v] * X[v] pushed along ``moves[v]``.

    Column i of row v lands in column ``moves[v, i]`` of the result, which
    has ``n_out`` columns; a move of -1 drops the entry.  ``moves`` has one
    column per column of X.
    """
    Z = np.zeros((len(X), n_out))
    for v in range(len(X)):
        mv = moves[v]
        t = X[v] * weights[v]
        valid = mv >= 0
        if not valid.all():
            t = t[valid]
            mv = mv[valid]
        if t.size:
            Z[v] = np.bincount(mv, weights=t, minlength=n_out)
    return Z


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


def kernel_counts(
    spec: LinearGdmsSpec,
    G: QuotientGroup,
    s: float,
    n_max: int,
    ball_cap: int = DEFAULT_BALL_CAP,
) -> KernelCountTable:
    """Weighted kernel-word counts a_n(s) for n = 1..n_max.

    Exact via radius pruning whenever the radius-ceil(n_max/2) ball fits the
    cap; on overflow the largest affordable ball is used and ``exact`` is
    False (states forced outside the ball are dropped, so the table can only
    undercount).  Accumulation is in log-domain with per-step rescaling.
    """
    if n_max < 1:
        raise ConfigError("n_max must be >= 1")
    if G.d != spec.d:
        raise ConfigError("quotient and GDMS rank mismatch")
    B, exact = _pruning_ball(G, n_max, ball_cap)
    moves = B.letter_moves()
    n_letters = 2 * spec.d
    weights = spec.ratio_array ** s

    def within(r: int) -> int:
        """Number of ball elements at distance <= r (a BFS prefix)."""
        return int(np.searchsorted(B.dist, r, side="right"))

    # X[v, i] = (rescaled) total weight of admissible length-n prefixes
    # ending with letter v whose image is ball element i; columns past the
    # live window are exact zeros and are not stored.  The one-letter words
    # are T applied to the identity in every letter row.
    X = _scatter(np.ones((n_letters, 1)), moves[:, :1], weights, within(1))
    log_scale = 0.0
    log_a = np.full(n_max, -np.inf)

    def record(n: int):
        total = float(X[:, 0].sum())
        if total > 0.0:
            log_a[n - 1] = log_scale + math.log(total)

    record(1)
    for n in range(2, n_max + 1):
        # Live inputs: reached in n - 1 letters and able to return in the
        # n_max - (n - 1) letters left.
        live = min(n - 1, n_max - n + 1)
        k = within(live)
        X = forward_word_step(X[:, :k], moves[:, :k], weights, within(live + 1))
        peak = float(X.max())
        if peak <= 0.0:
            break
        X /= peak
        log_scale += math.log(peak)
        record(n)
    return KernelCountTable(float(s), n_max, log_a, exact, B.radius)


# ---------------------------------------------------------------------------
# Kernel pressure estimation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KernelPressureEstimate:
    """Ratio-based estimate of limsup (1/n) log a_n with diagnostics.

    ``estimate`` is the last stride-p ratio; ``dead_band`` the spread of the
    final two ratios (the honesty margin used by the bisection); ``trend``
    one of increasing / decreasing / mixed.
    """

    estimate: float
    period: int
    ratios: np.ndarray
    trend: str
    dead_band: float
    n_used: int


def kernel_pressure(
    table: KernelCountTable, min_entries: int = 8
) -> KernelPressureEstimate:
    """Estimate the kernel pressure at the table's exponent.

    Requires at least ``min_entries`` nonzero counts.  The stride is 2 when
    every nonzero count sits at an even length (kernel parity, e.g. for
    quotients all of whose generator images square to the identity or for
    free abelianizations), else 1.
    """
    support = table.support()
    if support.size == 0:
        raise GdmsError("kernel not reached; increase n_max")
    if support.size < min_entries:
        raise GdmsError(
            f"need at least {min_entries} nonzero kernel counts, got {support.size}; "
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
    ratios = np.array(ratios)
    tail = ratios[-min(5, len(ratios)):]
    diffs = np.diff(tail)
    if np.all(diffs >= -1e-12):
        trend = "increasing"
    elif np.all(diffs <= 1e-12):
        trend = "decreasing"
    else:
        trend = "mixed"
    dead_band = abs(float(ratios[-1] - ratios[-2]))
    return KernelPressureEstimate(
        estimate=float(ratios[-1]),
        period=period,
        ratios=ratios,
        trend=trend,
        dead_band=dead_band,
        n_used=int(support[-1]),
    )


# ---------------------------------------------------------------------------
# The exponent of convergence of N
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DeltaKernelResult:
    """Zero of the kernel pressure with an honest bracket.

    ``ambiguous`` is set when a bisection step landed inside the estimator's
    dead band, in which case the bracket was widened rather than guessed.
    ``truncated`` is set when a bisection table outgrew the ball cap and so
    undercounts (its ``exact`` is false).
    """

    delta: float
    lo: float
    hi: float
    ambiguous: bool
    exact: bool
    truncated: bool = False
    evaluations: tuple = field(default=(), repr=False)


def delta_kernel(
    spec: LinearGdmsSpec,
    G: QuotientGroup,
    n_max: int = 24,
    tol: float = 5e-4,
    ball_cap: int = DEFAULT_BALL_CAP,
) -> DeltaKernelResult:
    """The exponent of convergence of the kernel Poincare series.

    Bisection on the sign of the kernel-pressure estimate.  Degenerate
    cases: a trivial kernel gives 0 (only the identity contributes), and the
    trivial quotient gives the full Bowen root (every word is a kernel
    word).
    """
    if G.kernel_is_trivial():
        return DeltaKernelResult(0.0, 0.0, 0.0, False, True)
    if G.order() == 1:
        root = bowen_root(spec)
        return DeltaKernelResult(root, root, root, False, True)
    if not spec.symmetric:
        import warnings

        warnings.warn(
            "delta_kernel on a non-symmetric system: the kernel-pressure "
            "estimator is still valid but the amenability dichotomy is not",
            stacklevel=2,
        )
    lo = 0.0
    hi = bowen_root(spec) + 0.1
    evals = []
    ambiguous = truncated = False
    while hi - lo > 2 * tol:
        s = 0.5 * (lo + hi)
        table = kernel_counts(spec, G, s, n_max, ball_cap)
        truncated |= not table.exact
        est = kernel_pressure(table)
        evals.append((s, est.estimate, est.dead_band))
        band = est.dead_band
        if est.estimate > band:
            lo = s
        elif est.estimate < -band:
            hi = s
        else:
            ambiguous = True
            break
    return DeltaKernelResult(
        0.5 * (lo + hi), lo, hi, ambiguous, False, truncated, tuple(evals)
    )


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
    spec: LinearGdmsSpec,
    G: QuotientGroup,
    n_max: int = 24,
    ball_cap: int = DEFAULT_BALL_CAP,
) -> DivergenceReport:
    if not spec.symmetric:
        raise ConfigError("divergence check requires a symmetric system")
    s_half = bowen_root(spec) / 2.0
    table = kernel_counts(spec, G, s_half, n_max, ball_cap)
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
    ball_cap: int = DEFAULT_BALL_CAP,
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
    B = ball(G, L_max // 2, ball_cap)
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


def induced_bowen_root(sys: InducedSystem, tol: float = 1e-10) -> float:
    """Zero of the induced-system pressure: a lower bound for delta(N).

    Nondecreasing in the loop cutoff; errors out when no zero exists below
    the full-system Bowen root plus one.
    """
    if len(sys) == 0:
        raise GdmsError("induced system has no loops; increase L_max")
    hi = bowen_root(sys.spec) + 1.0

    def rho(s: float) -> float:
        return perron_value_dense(loop_transfer_matrix(sys, s)).value

    lo = 0.0
    if rho(lo) < 1.0:
        raise GdmsError(
            "induced pressure already negative at s=0; no root in bracket"
        )
    if rho(hi) >= 1.0:  # pragma: no cover - impossible below delta+1
        raise GdmsError("induced pressure has no root below the delta+1 bracket")
    while hi - lo > tol:
        s = 0.5 * (lo + hi)
        if rho(s) >= 1.0:
            lo = s
        else:
            hi = s
    return 0.5 * (lo + hi)


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
