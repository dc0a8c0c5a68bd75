"""Cayley balls, walk spectral radii, isoperimetric diagnostics."""

import math

import numpy as np
import pytest

from gdms import (
    FreeQuotient,
    cayley_ball,
    isoperimetric_scan,
    srw_spectral_radius,
)
from gdms.linalg import perron_value


class TestCayleyBalls:
    def test_z2_two_vertices_one_edge(self, z2):
        g = cayley_ball(z2, 3)
        assert g.n_vertices == 2
        assert g.n_edges == 1
        assert g.degree == 1

    def test_f2_tree_ball(self, free_f2):
        g = cayley_ball(free_f2, 2)
        assert g.n_vertices == 17
        assert g.n_edges == 16  # a tree: |E| = |V| - 1
        assert g.degree == 4

    def test_zz_star(self, zz):
        g = cayley_ball(zz, 1)
        assert g.n_vertices == 5
        assert g.n_edges == 4

    def test_killed_generators_no_self_loops(self, f2_of_f3):
        g = cayley_ball(f2_of_f3, 2)
        assert g.degree == 4  # only the surviving images generate edges
        assert g.adjacency.diagonal().sum() == 0

    def test_adjacency_symmetric(self, zz, s3):
        for G in (zz, s3):
            g = cayley_ball(G, 3)
            diff = (g.adjacency - g.adjacency.T).toarray()
            assert np.abs(diff).max() == 0

    def test_row_stochasticity_interior(self, zz):
        g = cayley_ball(zz, 4)
        p = g.transition_matrix()
        sums = np.asarray(p.sum(axis=1)).ravel()
        interior = g.ball.dist < 4
        assert np.allclose(sums[interior], 1.0, atol=1e-15)
        assert (sums <= 1.0 + 1e-15).all()


class TestWalkLadders:
    def test_finite_rho_one_at_diameter(self, s3):
        ladder = srw_spectral_radius(s3, [1, 2, 3, 4])
        assert ladder.rho[-1] == pytest.approx(1.0, abs=1e-12)
        assert ladder.method == "generic"

    def test_monotone_and_capped(self, zz):
        ladder = srw_spectral_radius(zz, [2, 4, 6, 8])
        assert all(b >= a - 1e-10 for a, b in zip(ladder.rho, ladder.rho[1:]))
        assert all(r <= 1.0 + 1e-12 for r in ladder.rho)

    def test_tree_radial_matches_generic(self, free_f2):
        radial = srw_spectral_radius(free_f2, [3, 4, 5])
        assert radial.method == "tree-radial"
        for R, rho in zip(radial.radii, radial.rho):
            g = cayley_ball(free_f2, R)
            p = g.transition_matrix()
            generic = perron_value(lambda v: p @ v, g.n_vertices, tol=1e-12).value
            assert rho == pytest.approx(generic, abs=1e-10)

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
