"""Kernel counting, kernel pressure, delta(N), induced systems."""

import math

import numpy as np
import pytest

from gdms import (
    CapExceededError,
    ConfigError,
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
from gdms.kernel import _pruning_ball, forward_word_step, loop_composition_log_counts

from conftest import brute_first_returns, brute_kernel_sums


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
        assert table.exact
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

    def test_cap_falls_back_inexact(self, spec_fifth_d3, f2_of_f3):
        table = kernel_counts(spec_fifth_d3, f2_of_f3, 1.0, 12, ball_cap=50)
        assert not table.exact
        full = kernel_counts(spec_fifth_d3, f2_of_f3, 1.0, 12)
        # undercount only
        assert (table.log_a <= full.log_a + 1e-12).all()


def full_width_kernel_counts(spec, G, s, n_max):
    """The kernel DP over the whole pruning ball, zeroing dead states."""
    B, _ = _pruning_ball(G, n_max, 2_000_000)
    moves = B.letter_moves()
    weights = spec.ratio_array ** s
    X = np.zeros((2 * spec.d, len(B)))
    for v in range(2 * spec.d):
        if moves[v][0] >= 0:
            X[v, moves[v][0]] += weights[v]
    log_scale = 0.0
    log_a = np.full(n_max, -np.inf)
    for n in range(1, n_max + 1):
        if n > 1:
            X[:, B.dist > n_max - (n - 1)] = 0.0
            X = forward_word_step(X, moves, weights)
            peak = float(X.max())
            X /= peak
            log_scale += math.log(peak)
        total = float(X[:, 0].sum())
        if total > 0.0:
            log_a[n - 1] = log_scale + math.log(total)
    return log_a


class TestLiveWindow:
    @pytest.mark.parametrize(
        "G,spec_fixture,n_max",
        [
            (FreeQuotient(3, kill=[3]), "spec_fifth_d3", 15),
            (FreeAbelianQuotient(2, [[1, 0], [0, 1]]), "spec_mixed", 22),
        ],
    )
    def test_bit_identical_to_full_width(self, G, spec_fixture, n_max, request):
        spec = request.getfixturevalue(spec_fixture)
        for s in (0.5, 1.0):
            got = kernel_counts(spec, G, s, n_max).log_a
            assert got.tobytes() == full_width_kernel_counts(spec, G, s, n_max).tobytes()

    def test_delta_kernel_builds_ball_once(self, spec_fifth_d3, monkeypatch):
        builds = []
        build = FreeQuotient._build_ball

        def counting(self, radius, cap):
            builds.append(radius)
            return build(self, radius, cap)

        monkeypatch.setattr(FreeQuotient, "_build_ball", counting)
        G = FreeQuotient(3, kill=[3])
        res = delta_kernel(spec_fifth_d3, G, n_max=12)
        assert len(res.evaluations) > 1
        assert builds == [6]
        divergence_check(spec_fifth_d3, G, 12)
        assert builds == [6]


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


class TestDeltaKernel:
    @pytest.mark.parametrize("group_fixture", ["z2", "z3", "s3"])
    def test_finite_quotients_full_exponent(self, spec_third, group_fixture, request):
        G = request.getfixturevalue(group_fixture)
        res = delta_kernel(spec_third, G, n_max=24)
        assert res.delta == pytest.approx(1.0, abs=1e-3)
        assert res.lo <= 1.0 + 1e-3 and res.hi >= 1.0 - 1e-3

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

    def test_truncated_when_ball_is_capped(self, spec_third, zz):
        # n_max 18 prunes with the radius-9 ball of Z^2 (181 elements)
        assert not delta_kernel(spec_third, zz, n_max=18).truncated
        assert delta_kernel(spec_third, zz, n_max=18, ball_cap=60).truncated

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
