"""Cayley balls, walk spectral radii, isoperimetric diagnostics."""

import math

import numpy as np
import pytest

from gdms import (
    CapExceededError,
    ConfigError,
    FinitePermQuotient,
    FreeAbelianQuotient,
    FreeQuotient,
    amenability_report,
    ball,
    isoperimetric_scan,
    srw_spectral_radius,
    walk_ladder,
    walk_step,
)
from gdms.linalg import perron_value, perron_value_dense
from gdms.walks import _tree_radial_chain

from linalg_reference import arnoldi_perron
from test_groups import Heisenberg


def srw_weights(G):
    """Uniform weights on the Cayley generating set, per letter code."""
    codes = G.generating_codes()
    w = np.zeros(2 * G.d)
    w[codes] = 1.0 / len(codes)
    return w


def walk_matrix(G, R):
    """The dense Dirichlet walk matrix on the radius-R ball, column by column."""
    B = ball(G, R)
    step = walk_step(B, srw_weights(G))
    return np.column_stack([step(e) for e in np.eye(len(B))])


def n_edges(p):
    return np.count_nonzero(p) // 2


class TestCayleyBalls:
    def test_z2_two_vertices_one_edge(self, z2):
        p = walk_matrix(z2, 3)
        assert p.shape == (2, 2)
        assert n_edges(p) == 1
        assert len(z2.generating_codes()) == 1

    def test_f2_tree_ball(self, free_f2):
        p = walk_matrix(free_f2, 2)
        assert p.shape == (17, 17)
        assert n_edges(p) == 16  # a tree: |E| = |V| - 1
        assert len(free_f2.generating_codes()) == 4

    def test_zz_star(self, zz):
        p = walk_matrix(zz, 1)
        assert p.shape == (5, 5)
        assert n_edges(p) == 4

    def test_killed_generators_no_self_loops(self, f2_of_f3):
        p = walk_matrix(f2_of_f3, 2)
        # only the surviving images generate edges
        assert len(f2_of_f3.generating_codes()) == 4
        assert np.diagonal(p).sum() == 0

    def test_adjacency_symmetric(self, zz, s3):
        for G in (zz, s3):
            p = walk_matrix(G, 3)
            assert np.abs(p - p.T).max() == 0

    def test_row_stochasticity_interior(self, zz):
        sums = walk_matrix(zz, 4).sum(axis=1)
        interior = ball(zz, 4).dist < 4
        assert np.allclose(sums[interior], 1.0, atol=1e-15)
        assert (sums <= 1.0 + 1e-15).all()


class TestWalkLadders:
    def test_finite_rho_one_at_diameter(self, s3):
        ladder = srw_spectral_radius(s3, [1, 2, 3, 4])
        assert ladder.rho[-1] == pytest.approx(1.0, abs=1e-12)
        # a finite group is walked once, on the whole group
        assert ladder.method == "finite"
        assert ladder.rho == (ladder.rho[0],) * 4
        assert ladder.iterations[0] > 0 and ladder.iterations[1:] == (0, 0, 0)

    def test_ladders_within_ball_cap(self):
        # S_3 has 6 elements; the radius-4 ball of Z^2 has 41, radius 3 has 25
        s3 = FinitePermQuotient(3, [[1, 0, 2], [1, 2, 0]], ball_cap=5)
        with pytest.raises(CapExceededError, match="the group has more than 5 elements"):
            srw_spectral_radius(s3, [1, 2])
        zz = FreeAbelianQuotient(2, [[1, 0], [0, 1]], ball_cap=40)
        assert srw_spectral_radius(zz, [2, 3]).radii == (2, 3)
        with pytest.raises(
            CapExceededError, match=r"radius 6 exceeds cap 40 \(largest radius that fits: 3\)"
        ):
            srw_spectral_radius(zz, [2, 6])
        assert isoperimetric_scan(zz, 2).radii == (1, 2)
        with pytest.raises(CapExceededError, match="ball of radius 4 exceeds cap 40"):
            isoperimetric_scan(zz, 3)

    def test_monotone_and_capped(self, zz):
        ladder = srw_spectral_radius(zz, [2, 4, 6, 8])
        assert all(b >= a - 1e-10 for a, b in zip(ladder.rho, ladder.rho[1:]))
        assert all(r <= 1.0 + 1e-12 for r in ladder.rho)

    def test_tree_radial_matches_generic(self, free_f2, spec_fifth_d3, f2_of_f3):
        radial = srw_spectral_radius(free_f2, [3, 4, 5])
        assert radial.method == "tree-radial"
        for R, rho in zip(radial.radii, radial.rho):
            B = ball(free_f2, R)
            step = walk_step(B, srw_weights(free_f2))
            generic = perron_value(step, len(B), tol=1e-12).value
            assert rho == pytest.approx(generic, abs=1e-10)
        # the lazy walk mu_{s*} on F_2 in F_3: the killed letters stay put
        mu = amenability_report(spec_fifth_d3, f2_of_f3, [1], kernel_n_max=2).weights
        lazy = walk_ladder(f2_of_f3, mu, range(1, 8), tol=1e-13)
        assert lazy.method == "tree-radial"
        for R, rho in zip(lazy.radii, lazy.rho):
            B = ball(f2_of_f3, R)
            generic = perron_value(walk_step(B, mu), len(B), tol=1e-13).value
            assert abs(rho - generic) <= 1e-12

    def test_kesten_targets(self, free_f2):
        target2 = math.sqrt(3) / 2
        ladder = srw_spectral_radius(free_f2, [4, 6, 8, 10, 12])
        assert abs(ladder.final_estimate - target2) / target2 <= 0.02
        f3 = FreeQuotient(3)
        target3 = math.sqrt(5) / 3
        ladder3 = srw_spectral_radius(f3, [4, 6, 8, 10, 12])
        assert abs(ladder3.final_estimate - target3) / target3 <= 0.02

    def test_killed_generator_tree_same_as_plain(self, f2_of_f3, free_f2):
        a = srw_spectral_radius(f2_of_f3, [4, 8])
        b = srw_spectral_radius(free_f2, [4, 8])
        assert a.rho == pytest.approx(b.rho, abs=1e-12)


def nonsymmetric_radial_chain(k, R, p, lazy):
    """The radial chain as it steps: out with weight 2k p from the centre and
    (2k - 1) p further out, in with weight p."""
    m = lazy * np.eye(R + 1)
    if R == 0:
        return m
    m[0, 1] = 2 * k * p
    for r in range(1, R):
        m[r, r - 1] = p
        m[r, r + 1] = (2 * k - 1) * p
    m[R, R - 1] = p
    return m


@pytest.mark.parametrize("lazy", [0.0, 0.3])
@pytest.mark.parametrize("k", [2, 3])
def test_tree_radial_chain_is_symmetrised_chain(k, lazy):
    p = (1.0 - lazy) / (2 * k)
    for R in range(13):
        m = _tree_radial_chain(k, R, p, lazy)
        assert np.array_equal(m, m.T)
        chain = nonsymmetric_radial_chain(k, R, p, lazy)
        # similar by the square roots of the sphere sizes 1, 2k, 2k(2k-1), ...
        root = np.sqrt([1.0] + [2 * k * (2 * k - 1) ** (r - 1) for r in range(1, R + 1)])
        assert np.allclose(root[:, None] * chain / root[None, :], m, rtol=1e-15, atol=0.0)
        rho = float(np.linalg.eigvals(chain).real.max())
        assert abs(perron_value_dense(m).value - rho) <= 1e-14


# The walk (.3, .2, .5) per generator of F_3 on F_2 = F_3 / <<g_3>>: the
# killed g_3 makes it lazy, and unequal surviving weights take the generic path.
LAZY_F2_IN_F3 = [0.15, 0.15, 0.1, 0.1, 0.25, 0.25]
S4_IMAGES = [[1, 0, 2, 3], [1, 2, 3, 0]]  # a transposition and a 4-cycle


def dense_step(B, weights):
    step = walk_step(B, weights)
    return np.column_stack([step(e) for e in np.eye(len(B))])


class TestSymmetricRungs:
    """Every ball rung runs Lanczos, which must agree with the Arnoldi reference."""

    CASES = {
        # name: (group, weights or None for the simple walk, radii, method)
        "zz": (lambda: FreeAbelianQuotient(2, [[1, 0], [0, 1]]), None, range(4, 41, 4), "generic"),
        "s4": (lambda: FinitePermQuotient(4, S4_IMAGES), None, [1, 2], "finite"),
        "heisenberg": (Heisenberg, None, [2, 4, 6, 8], "generic"),
        "lazy-f2-of-f3": (lambda: FreeQuotient(3, kill=[3]), LAZY_F2_IN_F3, [2, 4, 6], "generic"),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_lanczos_matches_arnoldi(self, name):
        make, weights, radii, method = self.CASES[name]
        G = make()
        w = srw_weights(G) if weights is None else np.array(weights)
        ladder = walk_ladder(G, w, radii, tol=1e-12)
        assert ladder.method == method
        for R, rho in zip(ladder.radii, ladder.rho):
            B = ball(G) if method == "finite" else ball(G, R)
            arnoldi = arnoldi_perron(walk_step(B, w), len(B), tol=1e-12)
            assert abs(rho - arnoldi.value) <= 1e-12
        B = ball(G) if method == "finite" else ball(G, min(radii))
        m = dense_step(B, w)
        assert np.array_equal(m, m.T)

    def test_asymmetric_walk_refused_before_any_ball(self):
        G = FreeAbelianQuotient(2, [[1, 0], [0, 1]])
        with pytest.raises(ConfigError, match=r"not symmetric: the image of g1 carries weight 0\.4"):
            walk_ladder(G, [0.4, 0.1, 0.25, 0.25], [2, 4])
        assert not G._balls

    def test_weights_compared_per_image(self):
        s4 = FinitePermQuotient(4, S4_IMAGES)
        # g1's image is an involution: its two codes may split its weight
        # (``srw_weights`` gives the second 0); the 4-cycle's codes may not
        for w in ([0.5, 0.0, 0.25, 0.25], [0.1, 0.4, 0.25, 0.25]):
            ladder = walk_ladder(s4, w, [1])
            assert ladder.rho[0] == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(ConfigError, match="the image of g2 carries"):
            walk_ladder(s4, [0.25, 0.25, 0.3, 0.2], [1])
        # two codes with one image: the totals are compared, not the codes
        zz = FreeAbelianQuotient(2, [[1, 0], [1, 0]])
        walk_ladder(zz, [0.1, 0.3, 0.4, 0.2], [2])


class TestIsoperimetric:
    def test_zz_ratio_decays(self, zz):
        rep = isoperimetric_scan(zz, 8)
        assert rep.ratios[-1] < rep.ratios[0]
        assert rep.min_ratio < 0.3

    def test_tree_ratio_bounded_below(self, free_f2):
        rep = isoperimetric_scan(free_f2, 6)
        assert all(r >= 0.5 for r in rep.ratios[1:])

    def test_finite_boundary_empties(self, z2):
        rep = isoperimetric_scan(z2, 2)
        assert rep.ratios[-1] == 0.0
        assert rep.min_ratio == 0.0


def test_finite_group_ladder_capped_at_one(s3):
    # Past the diameter every rung is the whole (stochastic) walk, rho = 1
    # up to rounding; the limit estimate never exceeds 1.
    ladder = srw_spectral_radius(s3, [3, 4, 5])
    assert ladder.final_estimate <= 1.0
    assert ladder.final_estimate == pytest.approx(1.0, abs=1e-10)
    assert ladder.plateau


def test_finite_rungs_at_most_one(spec_third):
    # A walk of total weight 1 has rho <= 1, but the Lanczos value of the
    # whole finite walk can round above it: on S_3 from a transposition and
    # a 3-cycle it read 1.0000000000000002, which inverted the walks
    # bracket [rho_R, 1] and made the dichotomy gap negative.  20 of these
    # 100 random groups rounded above 1 before the rungs were capped.
    rng = np.random.default_rng(0)
    groups = [FinitePermQuotient(3, [[1, 0, 2], [2, 0, 1]])]
    for _ in range(100):
        degree = int(rng.integers(2, 7))
        groups.append(
            FinitePermQuotient(degree, [rng.permutation(degree).tolist() for _ in range(2)])
        )
    for G in groups:
        if not G.generating_codes():
            continue
        ladder = srw_spectral_radius(G, [1, 2])
        assert max(ladder.rho) <= 1.0
        assert ladder.rho[-1] <= ladder.final_estimate <= 1.0
        assert amenability_report(spec_third, G, [1, 2], kernel_n_max=2).gap >= 0.0
    ladder = srw_spectral_radius(groups[0], [1, 2])
    assert ladder.rho == (1.0, 1.0)
    assert all(0.0 <= r <= 1e-11 for r in ladder.residuals)  # as solved
