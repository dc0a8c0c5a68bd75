"""Transfer matrices, pressure, Bowen roots, Gibbs measures."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from gdms import (
    ConfigError,
    LinearGdmsSpec,
    bowen_root,
    cli,
    kernel_counts,
    pressure,
    pressure_curve,
)

from conftest import brute_partition_sum, iter_reduced_words, kappa
from kernel_reference import log_partition_sums
from pressure_reference import (
    gibbs_measure,
    is_admissible,
    log_weight,
    perron_vectors,
    transfer_matrix,
)


def ergodic_weight(spec, codes, s):
    """prod c(w_i)^s, multiplicative over admissible concatenation."""
    return math.exp(log_weight(spec, codes, s))


class TestSpecValidation:
    def test_ratio_range(self):
        with pytest.raises(ConfigError, match="strictly inside"):
            LinearGdmsSpec.equal_ratios(2, 1.2)
        with pytest.raises(ConfigError, match="strictly inside"):
            LinearGdmsSpec.equal_ratios(2, 0.0)

    def test_rank_floor(self):
        with pytest.raises(ConfigError, match="rank"):
            LinearGdmsSpec.equal_ratios(1, 0.5)

    def test_symmetry_flag(self, spec_third, spec_mixed, spec_nonsym):
        assert spec_third.symmetric
        assert spec_mixed.symmetric
        assert not spec_nonsym.symmetric

    def test_from_config_forms(self):
        # the ratio per letter that each cli.RATIO_FORMS row gives at rank 2
        forms = {"ratio": 0.25, "ratios_by_generator": [0.25, 0.25], "ratios": [0.25] * 4}
        a, b, c = (
            LinearGdmsSpec(2, tuple(cli.RATIO_FORMS[form][1](value, 2)))
            for form, value in forms.items()
        )
        assert a.ratios == b.ratios == c.ratios


class TestAdmissibility:
    def test_examples(self):
        assert is_admissible((0, 2))  # g1 g2
        assert not is_admissible([0, 1])  # g1 then g1^-1
        assert is_admissible([0, 0])  # repetition is fine


class TestWeights:
    def test_basic(self, spec_third):
        assert ergodic_weight(spec_third, (0, 2), 1.0) == pytest.approx(
            1.0 / 9.0, rel=1e-15
        )

    def test_zero_exponent(self, spec_mixed):
        assert ergodic_weight(spec_mixed, (0, 3, 0), 0.0) == 1.0  # g1 g2~ g1

    def test_empty_word_convention(self, spec_third):
        assert ergodic_weight(spec_third, [], 2.0) == 1.0

    def test_multiplicative_over_concat(self, spec_mixed, rng):
        for _ in range(50):
            n, m = rng.randrange(1, 5), rng.randrange(1, 5)
            a = rng.choice(list(iter_reduced_words(2, n)))
            b = rng.choice(list(iter_reduced_words(2, m)))
            if b[0] == a[-1] ^ 1:
                continue
            s = 0.7
            assert ergodic_weight(spec_mixed, a + b, s) == pytest.approx(
                ergodic_weight(spec_mixed, a, s) * ergodic_weight(spec_mixed, b, s),
                rel=1e-12,
            )

    def test_kappa_invariance_iff_symmetric(self, spec_mixed, spec_nonsym):
        mismatch = 0
        for n in range(1, 9):
            for w in iter_reduced_words(2, n):
                k = kappa(w)
                assert ergodic_weight(spec_mixed, w, 1.3) == pytest.approx(
                    ergodic_weight(spec_mixed, k, 1.3), rel=1e-13
                )
                if ergodic_weight(spec_nonsym, w, 1.0) != pytest.approx(
                    ergodic_weight(spec_nonsym, k, 1.0), rel=1e-13
                ):
                    mismatch += 1
            if n > 4:
                break
        assert mismatch > 0

    def test_inadmissible_rejected(self, spec_third):
        with pytest.raises(ConfigError, match="admissible"):
            ergodic_weight(spec_third, [0, 1], 1.0)


class TestTransferMatrix:
    def test_structure(self, spec_third):
        m = transfer_matrix(spec_third, 1.0)
        assert not m.flags.writeable
        assert m.shape == (4, 4)
        for v in range(4):
            assert m[v, v ^ 1] == 0.0
            assert np.count_nonzero(m[v]) == 3
            assert m[v].sum() == pytest.approx(1.0, rel=1e-15)

    def test_length2_sum(self, spec_third):
        m = transfer_matrix(spec_third, 1.0)
        u = spec_third.ratio_array
        z2 = float(u @ m @ np.ones(4))
        assert z2 == pytest.approx(12 / 9, rel=1e-14)

    @pytest.mark.parametrize("s", [0.0, 0.5, 1.0])
    def test_matrix_powers_match_enumeration(self, spec_mixed, s):
        logs = log_partition_sums(spec_mixed, s, 6)
        for n in range(1, 7):
            brute = brute_partition_sum(spec_mixed, s, n)
            assert math.exp(logs[n - 1]) == pytest.approx(brute, rel=1e-12)

    def test_matrix_powers_match_enumeration_nonsym(self, spec_nonsym):
        logs = log_partition_sums(spec_nonsym, 0.8, 6)
        for n in range(1, 7):
            assert math.exp(logs[n - 1]) == pytest.approx(
                brute_partition_sum(spec_nonsym, 0.8, n), rel=1e-12
            )


class TestSpectralData:
    """rho(s) from the secular equation of M(s), against LAPACK."""

    def test_constant_row_sums(self, spec_third):
        (row,) = pressure_curve(spec_third, [1.0])
        assert row[2] == pytest.approx(1.0, abs=1e-15)

    def test_counting_matrix(self, spec_third):
        assert math.exp(pressure(spec_third, 0.0)) == pytest.approx(3.0, abs=1e-14)

    def test_growth_rate_oracle(self, spec_mixed):
        # rho must match the growth factor of the weighted word sums.
        rho = math.exp(pressure(spec_mixed, 1.0))
        logs = log_partition_sums(spec_mixed, 1.0, 31)
        ratio = math.exp(logs[30] - logs[29])
        assert rho == pytest.approx(ratio, abs=1e-6)

    def test_normalization_and_positivity(self, spec_mixed, spec_nonsym):
        for spec in (spec_mixed, spec_nonsym):
            rho, r, l = perron_vectors(spec, 0.9)
            assert rho == pytest.approx(math.exp(pressure(spec, 0.9)), rel=1e-14)
            assert (r > 0).all() and (l > 0).all()
            assert float(l @ r) == pytest.approx(1.0, rel=1e-12)
            m = transfer_matrix(spec, 0.9)
            assert np.max(np.abs(m @ r - rho * r)) <= 1e-11
            assert np.max(np.abs(l @ m - rho * l)) <= 1e-11

    @pytest.mark.parametrize("s", [0.3, 0.9, 1.7])
    def test_slope_matches_central_difference(self, spec_mixed, spec_nonsym, s):
        # P'(s) = sum_v log c(v) l_v r_v, with l . r = 1
        h = 1e-4
        for spec in (spec_mixed, spec_nonsym):
            _, r, l = perron_vectors(spec, s)
            slope = float(spec.log_ratios @ (l * r))
            central = (pressure(spec, s + h) - pressure(spec, s - h)) / (2 * h)
            assert slope == pytest.approx(central, abs=1e-7)

    def test_curve_rows_are_brackets(self, spec_nonsym):
        grid = [0.0, 0.25, 0.75, 1.5]
        for s, row in zip(grid, pressure_curve(spec_nonsym, grid)):
            assert row[:2] == (s, pressure(spec_nonsym, s)) and row[1] == math.log(row[2])
            assert row[3] == 0 and 0.0 < row[4] <= 2 * math.ulp(row[2])

    def test_underflowed_letters_drop_out(self):
        # at s = 400 only the 0.9 letter keeps a normal weight (5e-19): the
        # others underflow to 0, M has the one nonzero column, rho = 0.9^400
        spec = LinearGdmsSpec(2, (0.9, 0.1, 0.1, 0.1))
        assert math.exp(pressure(spec, 400.0)) == pytest.approx(0.9**400, rel=1e-13)


def random_specs(count: int, seed: int):
    """Seeded specs of rank 2-6, ratios in (0.01, 0.99), every other one symmetric."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        d = int(rng.integers(2, 7))
        if i % 2:
            yield LinearGdmsSpec.symmetric_ratios(rng.uniform(0.01, 0.99, d).tolist())
        else:
            yield LinearGdmsSpec(d, tuple(rng.uniform(0.01, 0.99, 2 * d).tolist()))


def secular_at_one(spec: LinearGdmsSpec, s: float) -> Decimal:
    """F_s(1) of the ``pressure`` docstring in 50-digit decimal arithmetic."""
    with localcontext() as ctx:
        ctx.prec = 50
        u = [Decimal(c) ** Decimal(s) for c in spec.ratios]
        return sum(
            (a + b - 2 * a * b) / (1 - a * b) for a, b in zip(u[::2], u[1::2])
        )


class TestSecularEquation:
    def test_random_specs(self):
        # 1,200 seeded specs; a Lanczos solve on the symmetrised S(s), as the
        # pressure once ran, raised ConvergenceError in bowen_root on 280
        for spec in random_specs(1200, seed=34):
            delta = bowen_root(spec)
            assert secular_at_one(spec, delta) <= 1, spec
            top = np.linalg.eigvals(transfer_matrix(spec, delta)).real.max()
            assert abs(top - 1.0) <= 1e-14, spec
            for s in (0.0, 0.4, 1.0, 2.5):
                rho = np.abs(np.linalg.eigvals(transfer_matrix(spec, s))).max()
                assert math.exp(pressure(spec, s)) == pytest.approx(rho, rel=1e-14), spec

    @pytest.mark.parametrize("d", [2, 3, 4, 6])
    @pytest.mark.parametrize("c", [1 / 3, 0.05, 0.5, 0.97])
    def test_equal_ratios_round_up(self, d, c):
        # delta = log(2d - 1) / log(1/c), in 50 digits for the float c:
        # bowen_root gives the least float at or above it
        with localcontext() as ctx:
            ctx.prec = 50
            exact = Decimal(2 * d - 1).ln() / -Decimal(c).ln()
        delta = bowen_root(LinearGdmsSpec.equal_ratios(d, c))
        assert Decimal(math.nextafter(delta, 0.0)) < exact <= Decimal(delta)


class TestPressure:
    def test_closed_form_equal_ratios(self, spec_third):
        for s in (0.0, 0.5, 1.0, 2.0):
            expected = math.log(3) + s * math.log(1.0 / 3.0)
            assert pressure(spec_third, s) == pytest.approx(expected, abs=1e-12)

    def test_topological_entropy_d3(self, spec_fifth_d3):
        assert pressure(spec_fifth_d3, 0.0) == pytest.approx(math.log(5), abs=1e-12)

    def test_enumeration_agreement(self, spec_mixed):
        logs = log_partition_sums(spec_mixed, 1.0, 30)
        assert pressure(spec_mixed, 1.0) == pytest.approx(
            logs[29] - logs[28], abs=1e-4
        )

    def test_decreasing_and_convex(self, spec_nonsym):
        grid = np.linspace(0.0, 2.0, 9)
        vals = [pressure(spec_nonsym, s) for s in grid]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        for a, b, c in zip(vals, vals[1:], vals[2:]):
            assert a + c >= 2 * b - 1e-10


class TestBowenRoot:
    def test_closed_forms(self):
        for d, c in [(2, 1 / 3), (2, 1 / 4), (2, 1 / 5), (3, 1 / 3), (3, 1 / 5)]:
            spec = LinearGdmsSpec.equal_ratios(d, c)
            expected = math.log(2 * d - 1) / (-math.log(c))
            assert bowen_root(spec) == pytest.approx(expected, abs=1e-10)

    def test_root_has_zero_pressure(self, spec_mixed, spec_nonsym):
        for spec in (spec_mixed, spec_nonsym):
            assert abs(pressure(spec, bowen_root(spec))) <= 1e-11

    def test_partial_sum_bracketing(self, spec_mixed):
        # terms grow below the root and shrink above it
        root = bowen_root(spec_mixed)
        low = log_partition_sums(spec_mixed, root - 0.05, 25)
        high = log_partition_sums(spec_mixed, root + 0.05, 25)
        assert low[-1] > low[-5]
        assert high[-1] < high[-5]


class TestGibbs:
    def test_uniform_case(self, spec_third):
        g = gibbs_measure(spec_third, 1.0)
        assert np.allclose(g.pi, 0.25, atol=1e-12)
        for v in range(4):
            row = g.phat[v]
            assert row[v ^ 1] == 0.0
            assert np.allclose(row[row > 0], 1.0 / 3.0, atol=1e-12)

    def test_stochasticity_and_stationarity(self, spec_nonsym):
        g = gibbs_measure(spec_nonsym, 0.8)
        assert np.allclose(g.phat.sum(axis=1), 1.0, atol=1e-12)
        assert np.allclose(g.pi @ g.phat, g.pi, atol=1e-12)
        assert g.pi.sum() == pytest.approx(1.0, abs=1e-12)

    def test_cylinder_mass_normalization(self, spec_mixed):
        g = gibbs_measure(spec_mixed, 1.0)
        total = sum(
            g.cylinder_mass(codes) for codes in iter_reduced_words(2, 3)
        )
        assert total == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("ratios", [
        (1 / 3, 1 / 3, 1 / 5, 1 / 5),
        (1 / 3, 1 / 4, 1 / 5, 1 / 6),
        (0.3, 0.25, 0.2, 0.35),
    ])
    def test_gibbs_band_stable(self, ratios):
        spec = LinearGdmsSpec(2, ratios)
        s = 0.9
        g = gibbs_measure(spec, s)
        p = g.pressure

        def band(n_hi):
            ratios_seen = []
            for n in range(1, n_hi + 1):
                for codes in iter_reduced_words(2, n):
                    lw = s * sum(spec.log_ratios[c] for c in codes)
                    ratios_seen.append(g.log_cylinder_mass(codes) - (lw - n * p))
            return max(ratios_seen) - min(ratios_seen)

        b6, b8 = band(6), band(8)
        assert math.isfinite(b8)
        assert b8 <= b6 + 1e-9


class TestPoincarePartial:
    def test_constant_terms_at_critical_ratio(self, spec_third):
        log_terms = log_partition_sums(spec_third, 1.0, 3)
        assert np.allclose(np.exp(log_terms), 4.0 / 3.0, atol=1e-12)
        partials = np.logaddexp.accumulate(log_terms)
        assert math.exp(partials[-1]) == pytest.approx(4.0, rel=1e-12)

    def test_supercritical_tail_cauchy(self, spec_third):
        log_terms = log_partition_sums(spec_third, 1.5, 20)
        ratios = np.exp(np.diff(log_terms))
        assert (ratios < 1.0).all()

    def test_half_exponent_terms_unbounded(self, spec_third):
        log_terms = log_partition_sums(spec_third, 0.5, 20)
        growth = np.exp(np.diff(log_terms))
        assert np.allclose(growth, 3 * 3 ** -0.5, rtol=1e-10)

    def test_log_domain_no_overflow(self):
        spec = LinearGdmsSpec.equal_ratios(2, 0.2)
        logs = log_partition_sums(spec, 2.0, 400)
        assert np.isfinite(logs).all()
        # Z_n = (4/3) * (3 c^s)^n would underflow linear doubles long before n=400
        expected = math.log(4.0 / 3.0) + 400 * math.log(3 * 0.2 ** 2)
        assert logs[-1] == pytest.approx(expected, rel=1e-12)

    def test_partials_monotone(self, spec_mixed):
        partials = np.logaddexp.accumulate(log_partition_sums(spec_mixed, 0.9, 15))
        assert (np.diff(partials) >= 0).all()

    def test_kernel_delegation(self, spec_third, z2):
        table = kernel_counts(spec_third, z2, 1.0, 8)
        assert math.exp(table.log_a[1]) == pytest.approx(4.0 / 3.0, rel=1e-12)

    def test_curve_rows(self, spec_third):
        rows = pressure_curve(spec_third, [0.0, 1.0])
        assert rows[0][1] == pytest.approx(math.log(3), abs=1e-12)
        assert rows[1][1] == pytest.approx(0.0, abs=1e-12)
