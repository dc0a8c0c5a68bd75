"""Skew operators, the Ihara-Bass reduction, the dichotomy report, symmetry."""

import math

import numpy as np
import pytest

from gdms import (
    CapExceededError,
    ConfigError,
    FinitePermQuotient,
    FreeAbelianQuotient,
    LinearGdmsSpec,
    amenability_report,
    ball,
    bowen_root,
    build_skew_operator,
    check_asymptotic_symmetry,
    perron_data,
    pressure,
    walk_step,
)
from gdms.kernel import _scatter, forward_word_step
from gdms.skew import VERDICT_AMENABLE, VERDICT_NON_AMENABLE

from conftest import bfs_elements
from linalg_reference import arnoldi_perron
from symmetry_reference import full_ball_symmetry


def skew_rho(op, tol=1e-12):
    return arnoldi_perron(op.matvec, op.n_states, tol=tol).value


def reference_dense_operator(spec, G, s, ball_obj):
    """Independent dense construction of the forward operator for tests, on
    the elements of the breadth-first oracle."""
    elements = list(bfs_elements(G, ball_obj.radius))
    index = {g: i for i, g in enumerate(elements)}
    assert len(elements) == len(ball_obj)
    n_letters = 2 * spec.d
    n = n_letters * len(ball_obj)
    m = np.zeros((n, n))
    for v in range(n_letters):
        for i, g in enumerate(elements):
            j = index.get(G.apply_letter(g, v), -1)
            if j < 0:
                continue
            for w in range(n_letters):
                if w == v ^ 1:
                    continue
                m[w * len(ball_obj) + j, v * len(ball_obj) + i] += (
                    spec.ratios[v] ** s
                )
    return m


class TestOperatorStructure:
    def test_z2_state_and_transition_counts(self, spec_third, z2):
        op = build_skew_operator(spec_third, z2, 1.0, 5)
        assert op.n_states == 8
        assert not op.truncated
        dense = op.dense()
        # forward operator: 3 outgoing transitions per state
        assert (np.count_nonzero(dense, axis=0) == 3).all()

    def test_finite_group_within_ball_cap(self, spec_third):
        # S_3 has 6 elements: the whole group fits a cap of 6, not one of 5
        images = [[1, 0, 2], [1, 2, 0]]
        op = build_skew_operator(spec_third, FinitePermQuotient(3, images, ball_cap=6), 1.0, 1)
        assert op.n_states == 4 * 6 and not op.truncated
        with pytest.raises(CapExceededError, match="the group has more than 5 elements"):
            build_skew_operator(spec_third, FinitePermQuotient(3, images, ball_cap=5), 1.0, 1)

    def test_d3_truncated_state_count(self, spec_fifth_d3, f2_of_f3):
        op = build_skew_operator(spec_fifth_d3, f2_of_f3, 1.0, 2)
        assert op.n_states == 6 * 17

    def test_matches_reference_dense(self, spec_mixed, z3):
        op = build_skew_operator(spec_mixed, z3, 0.9, 3)
        ref = reference_dense_operator(spec_mixed, z3, 0.9, op.ball)
        assert np.allclose(op.dense(), ref, atol=1e-14)

    def test_truncation_matches_reference(self, spec_third, zz):
        op = build_skew_operator(spec_third, zz, 1.0, 2)
        ref = reference_dense_operator(spec_third, zz, 1.0, op.ball)
        assert np.allclose(op.dense(), ref, atol=1e-14)


class TestSpectralRadius:
    def test_stochastic_case_is_one(self, spec_third, z2):
        op = build_skew_operator(spec_third, z2, 1.0, 1)
        assert skew_rho(op) == pytest.approx(1.0, abs=1e-12)

    def test_trivial_group_equals_transfer_spectrum(self, spec_nonsym, trivial_group):
        s = 0.7
        op = build_skew_operator(spec_nonsym, trivial_group, s, 9)
        rho = skew_rho(op)
        assert rho == pytest.approx(perron_data(spec_nonsym, s).value, abs=1e-11)

    def test_trivial_group_at_root(self, spec_mixed, trivial_group):
        op = build_skew_operator(
            spec_mixed, trivial_group, bowen_root(spec_mixed), 1
        )
        assert skew_rho(op) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("group_fixture", ["z2", "z3", "s3"])
    def test_finite_amenable_equality(self, spec_third, group_fixture, request):
        G = request.getfixturevalue(group_fixture)
        op = build_skew_operator(spec_third, G, 1.0, 1)
        assert abs(skew_rho(op) - 1.0) <= 1e-10

    def test_ladder_monotone_and_bounded(self, spec_third, zz):
        s = 1.0
        bound = math.exp(pressure(spec_third, s))
        prev = 0.0
        for R in (2, 4, 6, 8):
            op = build_skew_operator(spec_third, zz, s, R)
            rho = skew_rho(op)
            assert rho >= prev - 1e-10
            assert rho <= bound + 1e-10
            prev = rho

    def test_f2_quotient_gap(self, spec_fifth_d3, f2_of_f3):
        rhos = []
        for R in (2, 4, 6):
            op = build_skew_operator(spec_fifth_d3, f2_of_f3, 1.0, R)
            rhos.append(skew_rho(op, tol=1e-11))
        assert rhos[0] < rhos[1] < rhos[2]
        assert rhos[-1] < 1.0 - 0.01

    def test_off_root_bound_nonsymmetric(self, spec_nonsym, zz):
        s = 0.8
        bound = math.exp(pressure(spec_nonsym, s))
        op = build_skew_operator(spec_nonsym, zz, s, 5)
        assert skew_rho(op) <= bound + 1e-10


class TestIharaBass:
    """det(I - B_s) = det H_s * prod over edges of (1 - u_v^2), u_v = c(v)^s.

    B_s is the truncated skew operator; H_s = I + D - A lives on the ball
    alone, with A the walk of letter weights u_v / (1 - u_v^2) and D, per
    element, the sum of u_v^2 / (1 - u_v^2) over its moves that stay in the
    ball.  Each edge is two moves, one per direction, hence the half.
    """

    CASES = [
        ("spec_third", "s3", 0),
        ("spec_third", "zz", 4),
        ("spec_mixed", "zz", 4),
        ("spec_fifth_d3", "f2_of_f3", 2),
        ("spec_mixed", "z_repeated", 4),
    ]

    @staticmethod
    def parts(spec, s, B):
        """A, the diagonal of D, and log prod over edges of (1 - u_v^2)."""
        u = spec.ratio_array ** s
        A = np.zeros((len(B), len(B)))
        D = np.zeros(len(B))
        log_edges = 0.0
        for v, row in enumerate(B.letter_moves()):
            i = np.flatnonzero(row >= 0)
            A[i, row[i]] += u[v] / (1.0 - u[v] ** 2)
            D[i] += u[v] ** 2 / (1.0 - u[v] ** 2)
            log_edges += 0.5 * len(i) * math.log(1.0 - u[v] ** 2)
        return A, D, log_edges

    @pytest.mark.parametrize("s", [0.6, 0.9, 1.2])
    @pytest.mark.parametrize("spec_name, group_name, R", CASES)
    def test_determinant_identity(self, request, spec_name, group_name, R, s):
        spec = request.getfixturevalue(spec_name)
        G = request.getfixturevalue(group_name)
        op = build_skew_operator(spec, G, s, R)
        A, D, log_edges = self.parts(spec, s, op.ball)
        H = np.eye(len(op.ball)) + np.diag(D) - A
        assert np.array_equal(H, H.T)
        sign_b, logdet_b = np.linalg.slogdet(np.eye(op.n_states) - op.dense())
        sign_h, logdet_h = np.linalg.slogdet(H)
        assert sign_b == sign_h
        assert abs(logdet_b - (logdet_h + log_edges)) <= 1e-10

    @pytest.mark.parametrize("group_name", ["zz", "z_repeated"])
    def test_dichotomy_walk_is_a(self, request, spec_mixed, group_name):
        # The report's walk mu_{s*} is A at s*, normalised to total weight 1.
        G = request.getfixturevalue(group_name)
        rep = amenability_report(spec_mixed, G, [3], kernel_n_max=2)
        B = ball(G, 3)
        A, _, _ = self.parts(spec_mixed, rep.s_star, B)
        step = walk_step(B, rep.weights)
        P = np.column_stack([step(e) for e in np.eye(len(B))])
        assert sum(rep.weights) == pytest.approx(1.0, abs=1e-15)
        assert np.allclose(A / A.sum(axis=1)[0], P, rtol=0, atol=1e-15)

    @pytest.mark.parametrize(
        "per_generator", [(1 / 3, 1 / 3), (1 / 3, 0.2), (0.3, 0.1, 0.2)]
    )
    def test_bowen_form(self, per_generator):
        # On the whole group D is constant; with rho_G(mu_s) = 1 the skew
        # operator has spectral radius 1 exactly where this sum is 1.
        spec = LinearGdmsSpec.symmetric_ratios(per_generator)
        u = spec.ratio_array ** bowen_root(spec)
        assert abs(float((u / (1.0 + u)).sum()) - 1.0) <= 1e-14


class TestAmenabilityReport:
    def test_finite_quotient(self, spec_third, z3):
        rep = amenability_report(spec_third, z3, [1, 2, 3])
        assert rep.verdict == VERDICT_AMENABLE
        assert abs(max(rep.ladder.rho) - 1.0) <= 1e-10
        assert rep.ladder.method == "finite"
        assert rep.s_star == pytest.approx(1.0, abs=1e-10)

    def test_zz_amenable_with_extrapolation(self, spec_third, zz):
        rep = amenability_report(spec_third, zz, [4, 6, 8, 10, 12])
        assert rep.verdict == VERDICT_AMENABLE
        # raw ladder is still visibly below 1 at R=12 ...
        assert rep.gap <= 0.03
        # ... and the ladder is strictly increasing toward it
        assert all(b > a for a, b in zip(rep.ladder.rho, rep.ladder.rho[1:]))
        assert rep.ladder.final_estimate >= 0.995

    def test_f2_quotient_non_amenable(self, spec_fifth_d3, f2_of_f3):
        rep = amenability_report(spec_fifth_d3, f2_of_f3, [2, 4, 6, 8])
        assert rep.verdict == VERDICT_NON_AMENABLE
        assert rep.gap >= 0.01
        assert rep.kernel_pressure_estimate is not None
        # the kernel pressure is at most log rho of the skew operator
        op = build_skew_operator(spec_fifth_d3, f2_of_f3, rep.s_star, rep.ladder.radii[-1])
        assert rep.kernel_pressure_estimate <= math.log(skew_rho(op)) + 0.05

    def test_requires_symmetric(self, spec_nonsym, z2):
        with pytest.raises(ConfigError, match="symmetric"):
            amenability_report(spec_nonsym, z2, [1, 2])

    def test_no_estimate_no_exactness(self, spec_third, zz):
        # Z^2 has kernel words at lengths 4, 6, 8, ...: the two nonzero
        # counts up to n_max 6 are too few for an estimate, eight are enough
        rep = amenability_report(spec_third, zz, [1, 2], kernel_n_max=6)
        assert rep.kernel_pressure_estimate is None
        rep = amenability_report(spec_third, zz, [1, 2], kernel_n_max=18)
        assert rep.kernel_pressure_estimate is not None
        # the radius-9 ball of n_max 18 has 181 elements: a cap of 100
        # refuses the table, and the ladder, which fits, is unchanged
        capped = FreeAbelianQuotient(2, [[1, 0], [0, 1]], ball_cap=100)
        rep_capped = amenability_report(spec_third, capped, [1, 2], kernel_n_max=18)
        assert rep_capped.kernel_pressure_estimate is None
        assert rep_capped.ladder == rep.ladder

    def test_report_dict_keys(self, spec_third, z2):
        d = amenability_report(spec_third, z2, [1, 2]).as_dict()
        for key in ("s_star", "radii", "rho", "verdict", "gap",
                    "kernel_pressure_estimate", "method", "weights"):
            assert key in d
        assert "kernel_table_exact" not in d


class TestAsymptoticSymmetry:
    @pytest.mark.parametrize("group_fixture", ["z2", "s3", "zz", "f2_of_f3"])
    def test_symmetric_specs_exact(self, group_fixture, request):
        G = request.getfixturevalue(group_fixture)
        spec = (
            LinearGdmsSpec.equal_ratios(G.d, 1.0 / 3.0)
            if G.d == 2
            else LinearGdmsSpec.equal_ratios(G.d, 0.2)
        )
        rep = check_asymptotic_symmetry(spec, G, n_max=8, R=4)
        assert rep.symmetric_spec
        assert rep.max_rel_asymmetry <= 1e-12

    def test_identity_always_balanced(self, spec_nonsym, zz):
        # the identity element is its own inverse, so its sums always agree
        rep = check_asymptotic_symmetry(spec_nonsym, zz, n_max=6, R=0)
        assert rep.max_rel_asymmetry <= 1e-12

    def test_nonsymmetric_ratios_reported(self, spec_nonsym, zz):
        rep = check_asymptotic_symmetry(spec_nonsym, zz, n_max=8, R=4)
        assert not rep.symmetric_spec
        assert rep.max_rel_asymmetry > 1e-3
        assert rep.per_n_ratio_high[-1] > 1.0 > rep.per_n_ratio_low[-1]
        assert np.isfinite(rep.per_n_ratio_high).all()

    def test_radius_cannot_exceed_n_max(self, spec_third, zz):
        with pytest.raises(ConfigError):
            check_asymptotic_symmetry(spec_third, zz, n_max=4, R=6)


class TestSymmetryWindow:
    """The reach-R window of ``word_sums`` gives the full-ball sums bit for bit."""

    SPECS = {
        2: (LinearGdmsSpec(2, (1 / 3, 1 / 3, 0.2, 0.2)), LinearGdmsSpec(2, (1 / 3, 0.25, 0.2, 0.2))),
        3: (LinearGdmsSpec.symmetric_ratios([0.2, 0.15, 0.1]),
            LinearGdmsSpec(3, (0.2, 0.15, 0.1, 0.25, 0.3, 0.12))),
    }

    @pytest.mark.parametrize("group_fixture", ["z2", "s3", "zz", "free_f2", "f2_of_f3"])
    @pytest.mark.parametrize("symmetric", [True, False], ids=["sym", "nonsym"])
    @pytest.mark.parametrize("n_max, R, s", [(8, 4, 1.0), (10, 0, 0.5), (9, 9, 1.3), (10, 3, -50.0)])
    def test_bit_identical_to_full_ball(self, request, group_fixture, symmetric, n_max, R, s):
        G = request.getfixturevalue(group_fixture)
        spec = self.SPECS[G.d][0 if symmetric else 1]
        assert spec.symmetric == symmetric
        rep = check_asymptotic_symmetry(spec, G, n_max, R, s=s)
        rel, lo, hi = full_ball_symmetry(spec, G, n_max, R, s)
        assert rep.per_n_rel_asymmetry.tobytes() == rel.tobytes()
        assert rep.per_n_ratio_low.tobytes() == lo.tobytes()
        assert rep.per_n_ratio_high.tobytes() == hi.tobytes()


class TestFactorisation:
    """matvec is L o T and forward_word_step is T o L, so T intertwines them."""

    CASES = [
        ("spec_third", "zz", 6),
        ("spec_fifth_d3", "f2_of_f3", 3),
        ("spec_third", "s3", 0),
    ]

    @pytest.mark.parametrize("spec_name, group_name, R", CASES)
    def test_group_step_intertwines(self, request, spec_name, group_name, R):
        spec = request.getfixturevalue(spec_name)
        G = request.getfixturevalue(group_name)
        op = build_skew_operator(spec, G, 1.0, R)
        shape = (op.n_letters, len(op.ball))
        moves = op.ball.letter_moves()
        weights = spec.ratio_array
        x = np.random.default_rng(11).random(op.n_states)

        def T(v):
            return _scatter(v.reshape(shape), moves, weights, shape[1])

        assert np.array_equal(T(op.matvec(x)), forward_word_step(T(x), moves, weights))

        def forward(v):
            return forward_word_step(v.reshape(shape), moves, weights).reshape(-1)

        rho_skew = skew_rho(op)
        rho_forward = arnoldi_perron(forward, op.n_states).value
        assert rho_skew > 0.0
        assert abs(rho_skew - rho_forward) <= 1e-12
