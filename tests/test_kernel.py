"""Kernel counting, kernel pressure, delta(N), induced systems."""

import contextlib
import math
import time
from collections import Counter

import numpy as np
import pytest

from gdms import (
    CapExceededError,
    ConfigError,
    FinitePermQuotient,
    FreeAbelianQuotient,
    FreeQuotient,
    GdmsError,
    LinearGdmsSpec,
    bowen_root,
    delta_kernel,
    divergence_check,
    induced_bowen_root,
    induced_loops,
    kernel_counts,
    kernel_pressure,
    pressure,
)
from gdms import kernel as kernel_mod
from gdms.groups import ball, bfs_ball
from gdms.kernel import INDUCED_ROOT_TOL, forward_word_step, loop_transfer_matrix

from conftest import brute_first_returns, brute_kernel_sums, iter_reduced_words, naive_reduce
from kernel_reference import loop_composition_log_counts
from linalg_reference import arnoldi_perron_dense


class TestKernelCounts:
    @pytest.mark.parametrize(
        "group_fixture,spec_fixture,s",
        [
            ("z2", "spec_third", 1.0),
            ("z3", "spec_third", 0.5),
            ("s3", "spec_third", 1.0),
            ("zz", "spec_third", 0.0),
            ("f2_of_f3", "spec_fifth_d3", 1.0),
        ],
    )
    def test_exact_against_enumeration(self, group_fixture, spec_fixture, s, request):
        G = request.getfixturevalue(group_fixture)
        spec = request.getfixturevalue(spec_fixture)
        n_max = 8
        table = kernel_counts(spec, G, s, n_max)
        brute = brute_kernel_sums(spec, G, s, n_max)
        got = np.exp(table.log_a)
        assert np.allclose(got, brute, rtol=1e-12, atol=0.0)

    def test_z2_small_values(self, spec_third, z2):
        table = kernel_counts(spec_third, z2, 1.0, 6)
        a = np.exp(table.log_a)
        assert a[1] == pytest.approx(4.0 / 3.0, rel=1e-13)  # all 12 two-letter words
        assert a[0] == 0.0 and a[2] == 0.0 and a[4] == 0.0  # odd parity dies

    def test_zz_commutator_count(self, spec_third, zz):
        table = kernel_counts(spec_third, zz, 0.0, 4)
        assert math.exp(table.log_a[3]) == pytest.approx(8.0, rel=1e-13)
        assert table.log_a[1] == -np.inf

    def test_killed_generator_gives_length1(self, spec_fifth_d3, f2_of_f3):
        table = kernel_counts(spec_fifth_d3, f2_of_f3, 1.0, 4)
        assert math.exp(table.log_a[0]) == pytest.approx(0.4, rel=1e-13)

    def test_no_kernel_letter_gives_zero_a1(self, spec_third, zz, z2, s3):
        for G in (zz, z2, s3):
            table = kernel_counts(spec_third, G, 1.0, 3)
            assert table.log_a[0] == -np.inf

    def test_trivial_kernel_all_zero(self, spec_third, free_f2):
        table = kernel_counts(spec_third, free_f2, 1.0, 8)
        assert not np.isfinite(table.log_a).any()

    def test_cap_refuses_table(self, spec_third, spec_mixed):
        # Z^2 at n_max 12 needs the radius-6 ball (85 elements); a cut table
        # would undercount, so the cap refuses it at either kind of ratios
        # and memoises none (a free quotient's equal-ratio table reads no
        # ball, so no cap applies to it)
        capped = FreeAbelianQuotient(2, [[1, 0], [0, 1]], ball_cap=50)
        for spec in (spec_third, spec_mixed):
            with pytest.raises(
                CapExceededError, match=r"radius 6 exceeds cap 50 \(largest radius that fits: 4\)"
            ):
                kernel_counts(spec, capped, 1.0, 12)
        assert capped._kernel_tables == {}
        assert len(kernel_counts(spec_third, capped, 1.0, 8).log_a) == 8


def full_width_kernel_counts(spec, G, s, n_max):
    """The kernel DP over the whole pruning ball, zeroing dead states.

    The weights, and the sums after each step, are scaled by the power of
    two that puts their peak in [1/2, 1), with the exponents summed in e.
    """
    B = ball(G, n_max // 2)
    moves = B.letter_moves()
    weights = spec.ratio_array ** s
    w_exp = math.frexp(float(weights.max()))[1]
    weights = np.ldexp(weights, -w_exp)
    X = np.zeros((2 * spec.d, len(B)))
    for v in range(2 * spec.d):
        if moves[v][0] >= 0:
            X[v, moves[v][0]] += weights[v]
    e = w_exp
    log_a = np.full(n_max, -np.inf)
    for n in range(1, n_max + 1):
        if n > 1:
            X[:, B.dist > n_max - (n - 1)] = 0.0
            X = forward_word_step(X, moves, weights)
            x_exp = math.frexp(float(X.max()))[1]
            X = np.ldexp(X, -x_exp)
            e += w_exp + x_exp
        total = float(X[:, 0].sum())
        if total > 0.0:
            log_a[n - 1] = e * math.log(2.0) + math.log(total)
    return log_a


class TestLiveWindow:
    @pytest.mark.parametrize(
        "G,spec_fixture,n_max",
        [
            (FreeQuotient(3, kill=[3]), "spec_fifth_d3", 15),
            (FreeAbelianQuotient(2, [[1, 0], [0, 1]]), "spec_mixed", 22),
            (FreeQuotient(3, kill=[3]), "spec_mixed_d3", 15),
        ],
    )
    def test_bit_identical_to_full_width(self, G, spec_fixture, n_max, request):
        # the DP at the weights it runs: equal ratios run it once, at s = 0
        spec = request.getfixturevalue(spec_fixture)
        for s in (0.0,) if len(set(spec.ratios)) == 1 else (0.5, 1.0):
            got = kernel_counts(spec, G, s, n_max).log_a
            assert got.tobytes() == full_width_kernel_counts(spec, G, s, n_max).tobytes()

    def test_delta_kernel_builds_ball_once(self, spec_mixed_d3, monkeypatch):
        # unequal ratios: the ball program runs at each s (equal ratios on a
        # free quotient read the cone table and build no ball)
        builds = []
        build = FreeQuotient._build_ball

        def counting(self, radius):
            builds.append(radius)
            return build(self, radius)

        monkeypatch.setattr(FreeQuotient, "_build_ball", counting)
        G = FreeQuotient(3, kill=[3])
        res = delta_kernel(spec_mixed_d3, G, n_max=12)
        assert len(res.evaluations) > 1
        assert builds == [6]
        divergence_check(spec_mixed_d3, G, 12)
        assert builds == [6]


def retried_pruning_ball(make, n_max, cap):
    """Reference: the largest ball of radius <= floor(n_max / 2) that fits
    ``cap``, as found by trying every radius down on a fresh group with the
    default cap until a ball has at most ``cap`` elements (radius 0 always
    fits)."""
    for r in range(n_max // 2, -1, -1):
        B = bfs_ball(make(), r)
        if len(B) <= cap or r == 0:
            return B


class TestPruningBall:
    """The pruning ball of radius floor(n_max / 2) is built or refused; a
    refusal names the largest radius that fits, found in one capped search
    as the retries found it, and that ball is memoised."""

    @pytest.mark.parametrize("n_max, cap, radius, seconds", [
        (200, 5_000, 49, 0.5),  # the retries took 1.8 s
        (400, 20_000, 99, 2.0),  # the retries took 12.8 s
    ])
    def test_abelian_radius_in_one_search(self, n_max, cap, radius, seconds):
        make = lambda **kw: FreeAbelianQuotient(2, [[1, 0], [0, 1]], **kw)  # noqa: E731
        G = make(ball_cap=cap)
        start = time.perf_counter()
        with pytest.raises(
            CapExceededError,
            match=rf"radius {n_max // 2} exceeds cap {cap} \(largest radius that fits: {radius}\)",
        ):
            kernel_counts(LinearGdmsSpec.equal_ratios(2, 1 / 3), G, 1.0, n_max)
        elapsed = time.perf_counter() - start
        B = ball(G, radius)  # the ball the refused search kept
        assert (B.radius, len(B)) == (radius, 2 * radius * (radius + 1) + 1)
        ref = bfs_ball(make(), radius)
        assert (B.dist == ref.dist).all()
        assert (B.letter_moves() == ref.letter_moves()).all()
        assert elapsed < seconds

    @pytest.mark.parametrize("make", [
        lambda **kw: FreeAbelianQuotient(2, [[1, 0], [1, 1]], **kw),
        lambda **kw: FreeQuotient(3, [3], **kw),
        lambda **kw: FinitePermQuotient(4, [[1, 0, 2, 3], [1, 2, 3, 0], [1, 0, 3, 2]], **kw),
    ], ids=["abelian", "tree", "finite"])
    @pytest.mark.parametrize("memo_radius", [None, 2, 9])
    def test_matches_retries(self, make, memo_radius):
        for n_max, cap in [(1, 1), (8, 1), (8, 4), (8, 12), (8, 13), (12, 60), (16, 10**6)]:
            G = make(ball_cap=cap)
            if memo_radius is not None:
                with contextlib.suppress(CapExceededError):
                    ball(G, memo_radius)
            ref = retried_pruning_ball(make, n_max, cap)
            if ref.radius < n_max // 2:
                with pytest.raises(CapExceededError) as exc:
                    ball(G, n_max // 2)
                assert str(exc.value).endswith(f"(largest radius that fits: {ref.radius})")
                B = G._capped  # the ball the refused search kept
            else:
                B = ball(G, n_max // 2)
            assert B.radius == ref.radius
            assert (B.dist == ref.dist).all()
            assert (B.letter_moves() == ref.letter_moves()).all()
            # the search memoised the ball it kept
            assert ball(G, B.radius) is B


class TestEqualRatios:
    """Equal ratios read every s from one memoised s = 0 word-count table."""

    @pytest.mark.parametrize(
        "G,spec_fixture,n_max",
        [
            (FreeQuotient(3, kill=[3]), "spec_fifth_d3", 15),
            (FreeAbelianQuotient(2, [[1, 0], [0, 1]]), "spec_third", 22),
            (FreeAbelianQuotient(2, [[1, 0], [0, 1]]), "spec_quarter", 16),
        ],
    )
    @pytest.mark.parametrize("s", [-3.0, 0.5, 1.0, 2.5])
    def test_matches_full_width_at_s(self, G, spec_fixture, n_max, s, request):
        spec = request.getfixturevalue(spec_fixture)
        got = kernel_counts(spec, G, s, n_max).log_a
        ref = full_width_kernel_counts(spec, G, s, n_max)
        assert np.array_equal(np.isfinite(got), np.isfinite(ref))
        finite = np.isfinite(ref)
        assert finite.sum() >= 5
        err = np.abs(got[finite] - ref[finite])
        assert (err <= 1e-13 * np.maximum(1.0, np.abs(ref[finite]))).all()

    def test_one_dp_per_group(self, spec_third, monkeypatch):
        # Z^2 runs the ball program (a free quotient reads the cone table)
        calls = []
        step = kernel_mod.forward_word_step

        def counting(*args, **kwargs):
            calls.append(1)
            return step(*args, **kwargs)

        monkeypatch.setattr(kernel_mod, "forward_word_step", counting)
        G = FreeAbelianQuotient(2, [[1, 0], [0, 1]])
        res = delta_kernel(spec_third, G, n_max=18)
        assert len(res.evaluations) > 1
        divergence_check(spec_third, G, 18)
        assert len(calls) == 18 - 1

    def test_result_does_not_alias_memo(self, spec_fifth_d3):
        G = FreeQuotient(3, kill=[3])
        first = kernel_counts(spec_fifth_d3, G, 0.0, 10).log_a
        before = first.copy()
        first[:] = 7.0
        again = kernel_counts(spec_fifth_d3, G, 0.0, 10).log_a
        assert again.tobytes() == before.tobytes()
        (memo,) = G._kernel_tables.values()
        assert not memo.flags.writeable
        assert not np.shares_memory(again, memo)

    def test_weight_overflow_still_refused(self, spec_fifth_d3):
        G = FreeQuotient(3, kill=[3])
        kernel_counts(spec_fifth_d3, G, 1.0, 10)  # memoise the s = 0 table
        with pytest.raises(ConfigError, match="overflow at s = -500.0"):
            kernel_counts(spec_fifth_d3, G, -500.0, 10)


def enumerated_kernel_word_counts(d, kill, n_max):
    """N_n for n = 1..n_max by listing reduced words of F_d one by one.

    A reduced word of length n is u + v with |u| = n // 2 and no
    cancellation at the seam; its image in F_d / <<kill>> is the identity
    exactly when the reduced image of v is the inverse of that of u.  Both
    halves are listed explicitly and matched by (image, seam letter).
    """
    killed = {c for c in range(2 * d) if c // 2 + 1 in kill}

    def image(w):
        return naive_reduce(c for c in w if c not in killed)

    counts = []
    for n in range(1, n_max + 1):
        h = n // 2
        heads = Counter((image(u), u[-1] if u else -2) for u in iter_reduced_words(d, h))
        tails = Counter((image(v), v[0]) for v in iter_reduced_words(d, n - h))
        total = 0
        for (g, last), x in heads.items():
            g_inv = tuple(c ^ 1 for c in reversed(g))
            total += sum(
                x * tails.get((g_inv, first), 0)
                for first in range(2 * d) if first != last ^ 1
            )
        counts.append(total)
    return counts


# (d, kill): rank 2 to 4, from the trivial kernel to the trivial quotient
CONE_CASES = [(3, [3]), (3, [1, 3]), (4, [2]), (2, [1]), (3, [1, 2, 3]), (2, []), (4, [])]
CONE_IDS = [f"F{d}-kill{''.join(map(str, kill))}" for d, kill in CONE_CASES]


class TestConeTable:
    """Free quotients with equal ratios count kernel words by cone type."""

    @pytest.mark.parametrize("d,kill", CONE_CASES, ids=CONE_IDS)
    def test_counts_match_enumeration(self, d, kill):
        G = FreeQuotient(d, kill)
        log_N = kernel_counts(LinearGdmsSpec.equal_ratios(d, 0.2), G, 0.0, 10).log_a
        got = [round(math.exp(x)) if np.isfinite(x) else 0 for x in log_N]
        assert got == enumerated_kernel_word_counts(d, kill, 10)
        assert G._balls == {}  # no ball was built

    @pytest.mark.parametrize("d,kill", CONE_CASES, ids=CONE_IDS)
    def test_matches_full_width_ball_program(self, d, kill):
        spec = LinearGdmsSpec.equal_ratios(d, 0.2)
        G = FreeQuotient(d, kill)
        # counts below 2**53: the same doubles as the ball program
        got = kernel_counts(spec, G, 0.0, 12).log_a
        assert got.tobytes() == full_width_kernel_counts(spec, G, 0.0, 12).tobytes()
        for s in (-3.0, 0.5, 1.0, 2.5):
            got = kernel_counts(spec, G, s, 12).log_a
            ref = full_width_kernel_counts(spec, G, s, 12)
            assert np.array_equal(np.isfinite(got), np.isfinite(ref))
            finite = np.isfinite(ref)
            err = np.abs(got[finite] - ref[finite])
            assert (err <= 1e-13 * np.maximum(1.0, np.abs(ref[finite]))).all()

    def test_cogrowth_rate_at_n_2000(self, spec_fifth_d3):
        # Grigorchuk's cogrowth formula: the kernel words of F_3 -> G grow
        # like alpha^n with alpha + 5 / alpha = 6 rho, rho the spectral radius
        # of the simple random walk on the six letter images; on F_2 with
        # g_3 killed, rho = 1/3 + (2/3) (sqrt 3 / 2) (Kesten)
        G = FreeQuotient(3, kill=[3])
        log_N = kernel_counts(spec_fifth_d3, G, 0.0, 2000).log_a
        n = np.arange(1001, 2001)
        fit = np.column_stack([n, np.log(n), np.ones(len(n))])
        rate, alpha, _ = np.linalg.lstsq(fit, log_N[1000:], rcond=None)[0]
        rho = 1 / 3 + math.sqrt(3) / 3
        assert abs(rate - math.log(3 * rho + math.sqrt(9 * rho**2 - 5))) < 1e-5
        assert -2.0 < alpha < -1.0

    def test_built_once_without_a_ball(self, spec_fifth_d3, spec_mixed_d3, monkeypatch):
        calls, steps = [], []
        cone, step = kernel_mod._cone_log_counts, kernel_mod.forward_word_step

        def counting(*args):
            calls.append(args[1])
            return cone(*args)

        def stepping(*args, **kwargs):
            steps.append(1)
            return step(*args, **kwargs)

        monkeypatch.setattr(kernel_mod, "_cone_log_counts", counting)
        monkeypatch.setattr(kernel_mod, "forward_word_step", stepping)
        # a cap of one element refuses every ball but the identity's
        G = FreeQuotient(3, kill=[3], ball_cap=1)
        res = delta_kernel(spec_fifth_d3, G, n_max=12)
        assert len(res.evaluations) > 1
        assert len(divergence_check(spec_fifth_d3, G, 12).table.log_a) == 12
        assert calls == [12] and steps == [] and G._balls == {}
        # unequal ratios read the ball, which the cap refuses
        with pytest.raises(CapExceededError, match="exceeds cap 1"):
            delta_kernel(spec_mixed_d3, G, n_max=12)


class TestKernelPressure:
    def test_z2_exact_zero(self, spec_third, z2):
        est = kernel_pressure(kernel_counts(spec_third, z2, 1.0, 20))
        assert est.period == 2
        assert est.estimate == pytest.approx(0.0, abs=1e-12)

    def test_zz_period_two(self, spec_third, zz):
        est = kernel_pressure(kernel_counts(spec_third, zz, 1.0, 20))
        assert est.period == 2
        assert est.trend == "increasing"
        assert est.estimate < 0.0  # finite-table estimate approaches 0 from below

    def test_trivial_quotient_matches_full_pressure(self, spec_mixed, trivial_group):
        s = 0.8
        est = kernel_pressure(kernel_counts(spec_mixed, trivial_group, s, 40))
        assert est.estimate == pytest.approx(pressure(spec_mixed, s), abs=1e-9)

    def test_f2_quotient_strictly_negative(self, spec_fifth_d3, f2_of_f3):
        est = kernel_pressure(kernel_counts(spec_fifth_d3, f2_of_f3, 1.0, 16))
        assert est.period == 1
        assert est.estimate <= -0.05

    def test_empty_table_raises(self, spec_third, free_f2):
        with pytest.raises(GdmsError, match="kernel not reached"):
            kernel_pressure(kernel_counts(spec_third, free_f2, 1.0, 10))

    def test_needs_enough_entries(self, spec_third, z2):
        with pytest.raises(GdmsError, match="at least"):
            kernel_pressure(kernel_counts(spec_third, z2, 1.0, 6))

    @pytest.mark.parametrize("s", [0.4, 0.8, 1.0])
    def test_never_exceeds_full_pressure(self, spec_third, z2, s3, zz, s):
        for G in (z2, s3):
            est = kernel_pressure(kernel_counts(spec_third, G, s, 40))
            assert est.estimate <= pressure(spec_third, s) + 1e-9
        est = kernel_pressure(kernel_counts(spec_third, zz, s, 24))
        assert est.estimate <= pressure(spec_third, s) + 1e-9


def mobius_perm(p, a, b, c, d):
    """x -> (a x + b) / (c x + d) on the projective line over F_p, as a
    permutation of 0..p, with p standing for the point at infinity."""
    def image(x):
        num, den = (a, c) if x == p else ((a * x + b) % p, (c * x + d) % p)
        return p if den == 0 else num * pow(den, -1, p) % p

    return [image(x) for x in range(p + 1)]


class TestDeltaKernel:
    @pytest.mark.parametrize("group_fixture", ["z2", "z3", "s3"])
    def test_finite_quotients_full_exponent(self, spec_third, group_fixture, request):
        G = request.getfixturevalue(group_fixture)
        res = delta_kernel(spec_third, G, n_max=24)
        assert res.delta == pytest.approx(1.0, abs=1e-3)
        assert res.lo <= 1.0 + 1e-3 and res.hi >= 1.0 - 1e-3

    @pytest.mark.parametrize("name", ["z2", "s4", "psl2_13"])
    def test_finite_quotient_is_exact(self, spec_third, spec_mixed, name):
        # N has finite index, so delta(N) = delta; no table is counted.  The
        # estimator's bracket for PSL(2,13) at n_max 24, [1.00010, 1.00063],
        # lay above delta.
        G = {
            "z2": lambda: FinitePermQuotient(2, [[1, 0], [1, 0]]),
            "s4": lambda: FinitePermQuotient(4, [[1, 0, 2, 3], [1, 2, 3, 0]]),
            "psl2_13": lambda: FinitePermQuotient(
                14, [mobius_perm(13, 1, 2, 0, 1), mobius_perm(13, 1, 0, 2, 1)]
            ),
        }[name]()
        for spec in (spec_third, spec_mixed):
            res = delta_kernel(spec, G, n_max=24)
            assert res.exact and not res.ambiguous
            assert res.delta == res.lo == res.hi == bowen_root(spec)
            assert res.evaluations == ()
        assert not G._balls

    def test_trivial_quotient_is_bowen_root(self, spec_mixed, trivial_group):
        res = delta_kernel(spec_mixed, trivial_group)
        assert res.exact
        assert res.delta == bowen_root(spec_mixed)

    def test_trivial_kernel_is_zero(self, spec_third, free_f2):
        res = delta_kernel(spec_third, free_f2)
        assert res.exact and res.delta == 0.0

    def test_f2_quotient_bracket(self, spec_fifth_d3, f2_of_f3):
        res = delta_kernel(spec_fifth_d3, f2_of_f3, n_max=14)
        assert 0.5 < res.lo and res.hi < 1.0

    @pytest.mark.parametrize("p", [5, 7, 11, 13, 17, 19, 23, 29, 31, "zz"])
    def test_estimate_within_half_and_full_exponent(self, spec_third, p):
        # PSL(2,p) on the projective line looks like F_2 out to radius about
        # log p; with the finite shortcut bypassed, the estimator's brackets
        # left [1/2, 1] for every p here (p = 13: [1.00010, 1.00063], p = 17:
        # [0.55, 1.1]), and Z^2's was [0.825, 1.1].  Both have delta(N) = 1.
        if p == "zz":
            G = FreeAbelianQuotient(2, [[1, 0], [0, 1]])
        else:
            G = FinitePermQuotient(
                p + 1, [mobius_perm(p, 1, 2, 0, 1), mobius_perm(p, 1, 0, 2, 1)]
            )
            G.finite = False
        res = delta_kernel(spec_third, G, n_max=24)
        root = bowen_root(spec_third)
        assert not res.exact
        assert root / 2 <= res.lo <= res.delta <= res.hi <= root
        assert res.lo <= 1.0 <= res.hi

    @pytest.mark.parametrize("kill,d,c", [([3], 3, 0.2), ([2], 2, 1 / 3)])
    def test_clipped_flag(self, kill, d, c):
        # at n_max 8 the bisection stops on [0.55, 1.1] (F_3/<<g_3>>) or
        # [0.825, 1.1] (Z), whose top end is cut to delta; at n_max 14 the
        # brackets lie inside (delta/2, delta)
        spec = LinearGdmsSpec.equal_ratios(d, c)
        res = delta_kernel(spec, FreeQuotient(d, kill=kill), n_max=8)
        root = bowen_root(spec)
        assert res.clipped and res.hi == root
        assert root / 2 <= res.lo <= res.delta <= res.hi
        assert not delta_kernel(spec, FreeQuotient(d, kill=kill), n_max=14).clipped

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 2: on an amenable quotient the bracket excludes "
        "delta(N) = delta from below, where the clip to [delta/2, delta] cannot reach",
    )
    def test_amenable_bracket_contains_delta(self):
        # measured brackets: [0.9625, 0.9711] and [0.9797, 0.9840] for Z at
        # c = 1/3 (delta 1), [0.88988, 0.89384] for 2Z at c = 0.3 (delta 0.912489)
        third = LinearGdmsSpec.equal_ratios(2, 1 / 3)
        tenths = LinearGdmsSpec.equal_ratios(2, 0.3)
        misses = []
        for spec, G, n_max in (
            (third, FreeQuotient(2, kill=[2]), 14),
            (third, FreeQuotient(2, kill=[2]), 24),
            (tenths, FreeAbelianQuotient(1, [[2], [0]]), 20),
        ):
            res = delta_kernel(spec, G, n_max=n_max)
            if not res.lo <= bowen_root(spec) <= res.hi:
                misses.append((n_max, res.lo, res.hi))
        assert misses == []

    def test_truncated_when_ball_is_capped(self, spec_third, zz):
        # n_max 18 prunes with the radius-9 ball of Z^2 (181 elements); a cut
        # table undercounts, and the bracket it gave, [0.825, 0.842], missed 1
        assert delta_kernel(spec_third, zz, n_max=18).hi > 0.9
        capped = FreeAbelianQuotient(2, [[1, 0], [0, 1]], ball_cap=60)
        with pytest.raises(
            CapExceededError, match=r"radius 9 exceeds cap 60 \(largest radius that fits: 4\)"
        ):
            delta_kernel(spec_third, capped, n_max=18)

    def test_tol_wider_than_half_bracket_refused(self, spec_third, z2, zz):
        # the starting bracket is [0, 1.1]: a tol of half of it bisects
        # nothing, refused even for a finite quotient, whose answer is exact
        with pytest.raises(ConfigError, match="delta_tol 0.6 is at least half"):
            delta_kernel(spec_third, z2, tol=0.6)
        res = delta_kernel(spec_third, zz, tol=0.5)
        assert len(res.evaluations) == 1 and res.hi - res.lo <= 1.0

    def test_nonsymmetric_warns(self, spec_nonsym, z2):
        with pytest.warns(UserWarning, match="non-symmetric"):
            delta_kernel(spec_nonsym, z2, n_max=16)


class TestDivergence:
    def test_z2_closed_form_growth(self, spec_third, z2):
        rep = divergence_check(spec_third, z2, 24)
        assert rep.s_half == pytest.approx(0.5, abs=1e-11)
        assert rep.tail_nondecreasing
        # per-period step is log(9 * 3^-1) = log 3
        steps = np.diff(rep.log_terms)
        assert np.allclose(steps, math.log(3.0), atol=1e-9)

    def test_zz_tail(self, spec_third, zz):
        rep = divergence_check(spec_third, zz, 24)
        assert rep.tail_nondecreasing
        assert rep.table.s == rep.s_half
        assert (rep.table.log_a[rep.lengths - 1] == rep.log_terms).all()

    def test_requires_symmetry(self, spec_nonsym, z2):
        with pytest.raises(ConfigError, match="symmetric"):
            divergence_check(spec_nonsym, z2, 12)


class TestInducedSystem:
    def test_z2_loops_are_all_two_letter_words(self, spec_third, z2):
        sys = induced_loops(spec_third, z2, 2)
        assert len(sys) == 12
        assert all(len(w) == 2 for w in sys.loops)

    def test_z2_no_longer_first_return_loops(self, spec_third, z2):
        sys = induced_loops(spec_third, z2, 6)
        assert all(len(w) == 2 for w in sys.loops)

    def test_zz_l4_commutators(self, spec_third, zz):
        sys = induced_loops(spec_third, zz, 4)
        assert len(sys) == 8
        assert all(len(w) == 4 for w in sys.loops)

    def test_trivial_quotient_single_letters(self, spec_third, trivial_group):
        sys = induced_loops(spec_third, trivial_group, 3)
        assert sorted(sys.loops) == [(0,), (1,), (2,), (3,)]

    def test_first_return_property(self, spec_third, zz):
        sys = induced_loops(spec_third, zz, 6)
        for codes in sys.loops:
            g = zz.identity()
            for i, c in enumerate(codes):
                g = zz.apply_letter(g, c)
                if i < len(codes) - 1:
                    assert g != zz.identity()
            assert g == zz.identity()

    @pytest.mark.parametrize(
        "backend,ratios,L_max",
        [
            ("zz", (1 / 3, 1 / 3, 0.2, 0.2), 8),
            ("s3", (1 / 3, 1 / 3, 0.2, 0.2), 6),
            ("f2_of_f3", (0.2, 0.2, 0.15, 0.15, 0.1, 0.1), 6),
        ],
    )
    def test_matches_brute_force_first_returns(self, backend, ratios, L_max, request):
        G = request.getfixturevalue(backend)
        spec = LinearGdmsSpec(G.d, ratios)
        sys = induced_loops(spec, G, L_max)
        assert list(sys.loops) == brute_first_returns(G, G.d, L_max)
        expected = [sum(math.log(ratios[c]) for c in w) for w in sys.loops]
        assert sys.log_weights == pytest.approx(expected, rel=1e-14)

    def test_renewal_consistency(self, spec_third, z2, zz):
        for G, L in ((z2, 4), (zz, 6)):
            sys = induced_loops(spec_third, G, L)
            table = kernel_counts(spec_third, G, 1.0, L)
            comp = loop_composition_log_counts(sys, 1.0, L)
            assert np.allclose(
                np.exp(comp), np.exp(table.log_a), rtol=1e-12, atol=0.0
            )

    def test_loop_cap(self, spec_third, zz):
        with pytest.raises(CapExceededError):
            induced_loops(spec_third, zz, 8, loop_cap=10)


class TestInducedBowenRoot:
    def test_z2_equals_delta(self, spec_third, z2):
        sys = induced_loops(spec_third, z2, 2)
        assert induced_bowen_root(sys) == pytest.approx(1.0, abs=1e-8)

    def test_trivial_quotient_equals_bowen(self, spec_mixed, trivial_group):
        for L in (1, 2, 3):
            sys = induced_loops(spec_mixed, trivial_group, L)
            assert induced_bowen_root(sys) == pytest.approx(
                bowen_root(spec_mixed), abs=1e-8
            )

    def test_zz_ladder_increasing(self, spec_third, zz):
        roots = [
            induced_bowen_root(induced_loops(spec_third, zz, L)) for L in (4, 6, 8)
        ]
        assert roots[0] < roots[1] < roots[2] < 1.0

    def test_bounded_by_delta_kernel(self, spec_third, z2):
        res = delta_kernel(spec_third, z2, n_max=24)
        root = induced_bowen_root(induced_loops(spec_third, z2, 2))
        assert root <= res.hi + 1e-6

    def test_empty_system_raises(self, spec_third, free_f2):
        with pytest.raises(GdmsError):
            induced_bowen_root(induced_loops(spec_third, free_f2, 4))

    @pytest.mark.parametrize("spec, G, L_max, root", [
        # the shipped render_induced_z2 system
        (LinearGdmsSpec.equal_ratios(2, 0.3333333333333333),
         FinitePermQuotient(2, [[1, 0], [1, 0]]), 2, 0.9999999999708962),
        # a non-symmetric system over Z
        (LinearGdmsSpec(2, (0.1, 0.3, 0.2, 0.2)),
         FreeAbelianQuotient(1, [[1], [0]]), 6, 0.5452834514289716),
    ], ids=["z2", "nonsym-z"])
    def test_lapack_root_equals_arnoldi_root(self, spec, G, L_max, root):
        # rho of the nonsymmetric loop matrix comes from LAPACK; bisecting on
        # the reference Arnoldi solver gives the same root, bit for bit
        sys = induced_loops(spec, G, L_max)
        lo, hi = 0.0, bowen_root(spec) + 1.0
        while hi - lo > INDUCED_ROOT_TOL:
            s = 0.5 * (lo + hi)
            if arnoldi_perron_dense(loop_transfer_matrix(sys, s)).value >= 1.0:
                lo = s
            else:
                hi = s
        assert induced_bowen_root(sys) == 0.5 * (lo + hi) == root
