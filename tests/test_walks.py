"""Cayley balls, walk spectral radii, isoperimetric diagnostics."""

import math
import tracemalloc

import numpy as np
import pytest

from gdms import (
    CapExceededError,
    ConfigError,
    FinitePermQuotient,
    FreeAbelianQuotient,
    FreeQuotient,
    LinearGdmsSpec,
    amenability_report,
    ball,
    isoperimetric_scan,
    srw_spectral_radius,
    walk_ladder,
    walk_step,
    walks,
)
from gdms.groups import bfs_ball
from gdms.linalg import perron_value
from gdms.walks import _tree_rung

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
        # a finite group's rung is the walk's total weight, exactly
        assert ladder.method == "finite"
        assert ladder.rho == (1.0,) * 4
        assert ladder.iterations == (0,) * 4 and ladder.residuals == (0.0,) * 4

    def test_ladders_within_ball_cap(self):
        # S_3 has 6 elements, but its walk reads no ball; the radius-4 ball
        # of Z^2 has 41 elements, radius 3 has 25
        s3 = FinitePermQuotient(3, [[1, 0, 2], [1, 2, 0]], ball_cap=5)
        assert srw_spectral_radius(s3, [1, 2]).rho == (1.0, 1.0)
        zz = FreeAbelianQuotient(2, [[1, 0], [0, 1]], ball_cap=40)
        assert srw_spectral_radius(zz, [2, 3]).radii == (2, 3)
        with pytest.raises(
            CapExceededError, match=r"radius 6 exceeds cap 40 \(largest radius that fits: 3\)"
        ):
            srw_spectral_radius(zz, [2, 6])
        assert isoperimetric_scan(zz, 3).radii == (1, 2, 3)
        with pytest.raises(
            CapExceededError, match=r"radius 4 exceeds cap 40 \(largest radius that fits: 3\)"
        ):
            isoperimetric_scan(zz, 4)

    @pytest.mark.parametrize("make", [
        lambda: FinitePermQuotient(3, [[1, 0, 2], [1, 2, 0]], ball_cap=5),
        lambda: FinitePermQuotient(9, [[1, 0, *range(2, 9)], [*range(1, 9), 0]]),
        lambda: FreeAbelianQuotient(1, [[0], [0]]),
        lambda: FreeQuotient(2, kill=[1, 2]),
    ], ids=["s3-over-cap", "s9", "trivial-abelian", "trivial-free"])
    def test_finite_ladder_reads_no_ball(self, make, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a finite group's walk ladder built a ball or ran Lanczos")

        monkeypatch.setattr(walks, "ball", refuse)
        monkeypatch.setattr(walks, "perron_value", refuse)
        G = make()
        weights = np.full(2 * G.d, 1.0 / (2 * G.d))
        ladder = walk_ladder(G, weights, [1, 3, 50])
        assert ladder.method == "finite"
        assert ladder.rho == (1.0,) * 3
        assert ladder.iterations == (0,) * 3 and ladder.residuals == (0.0,) * 3
        assert not G._balls

    def test_monotone_and_capped(self, zz):
        ladder = srw_spectral_radius(zz, [2, 4, 6, 8])
        assert all(b >= a - 1e-10 for a, b in zip(ladder.rho, ladder.rho[1:]))
        assert all(r <= 1.0 + 1e-12 for r in ladder.rho)

    def test_tree_radial_matches_generic(self, free_f2, spec_fifth_d3, f2_of_f3):
        radial = srw_spectral_radius(free_f2, [3, 4, 5])
        assert radial.method == "tree"
        for R, rho in zip(radial.radii, radial.rho):
            B = ball(free_f2, R)
            step = walk_step(B, srw_weights(free_f2))
            generic = perron_value(step, len(B), tol=1e-12).value
            assert rho == pytest.approx(generic, abs=1e-10)
        # the lazy walk mu_{s*} on F_2 in F_3: the killed letters stay put
        mu = amenability_report(spec_fifth_d3, f2_of_f3, [1], kernel_n_max=2).weights
        lazy = walk_ladder(f2_of_f3, mu, range(1, 8), tol=1e-13)
        assert lazy.method == "tree"
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
def test_tree_rung_is_radial_chain_root(k, lazy):
    p = (1.0 - lazy) / (2 * k)
    for R in range(13):
        rho = float(np.linalg.eigvals(nonsymmetric_radial_chain(k, R, p, lazy)).real.max())
        assert abs(_tree_rung([p] * k, lazy, R)[0] - rho) <= 1e-14


def akemann_ostrand(p, lazy):
    """rho = lazy + min_t [sum_i sqrt(t^2 + 4 p_i^2) - (k - 1) t] of the walk
    on F_k with weight p_i on each letter of generator i (Akemann-Ostrand,
    Amer. J. Math. 1976).  The bracket is convex in t, so its minimiser
    solves sum_i t / sqrt(t^2 + 4 p_i^2) = k - 1, found by bisection."""
    k = len(p)
    lo, hi = 0.0, 1.0
    assert sum(hi / math.hypot(hi, 2 * q) for q in p) > k - 1
    for _ in range(200):
        t = 0.5 * (lo + hi)
        if sum(t / math.hypot(t, 2 * q) for q in p) < k - 1:
            lo = t
        else:
            hi = t
    return lazy + sum(math.hypot(t, 2 * q) for q in p) - (k - 1) * t


# The walk (.3, .2, .5) per generator of F_3 on F_2 = F_3 / <<g_3>>: the
# killed g_3 makes it lazy, and its unequal surviving weights take the tree
# path, like every infinite free quotient's walk.
LAZY_F2_IN_F3 = [0.15, 0.15, 0.1, 0.1, 0.25, 0.25]
S4_IMAGES = [[1, 0, 2, 3], [1, 2, 3, 0]]  # a transposition and a 4-cycle


def dense_step(B, weights):
    step = walk_step(B, weights)
    return np.column_stack([step(e) for e in np.eye(len(B))])


class TestSymmetricRungs:
    """Every rung agrees with the Arnoldi reference on its ball, or on the
    whole group for a finite one, whose rung is the walk's total weight."""

    CASES = {
        # name: (group, weights or None for the simple walk, radii, method)
        "zz": (lambda: FreeAbelianQuotient(2, [[1, 0], [0, 1]]), None, range(4, 41, 4), "generic"),
        "s4": (lambda: FinitePermQuotient(4, S4_IMAGES), None, [1, 2], "finite"),
        "heisenberg": (Heisenberg, None, [2, 4, 6, 8], "generic"),
        "lazy-f2-of-f3": (lambda: FreeQuotient(3, kill=[3]), LAZY_F2_IN_F3, [2, 4, 6], "tree"),
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


class TestTreeRungs:
    """Every infinite free quotient's rung comes from the pivot recursion."""

    CASES = {
        # name: (rank, killed generators, ratio per generator, radii); the
        # walk is the dichotomy walk mu_{s*} of these ratios
        "f2": (2, [], (0.3, 0.2), range(2, 9)),
        "f2-of-f3-kill-g3": (3, [3], (0.3, 0.2, 0.5), range(2, 9)),
        "f2-of-f3-kill-g1": (3, [1], (0.3, 0.1, 0.2), range(2, 9)),
        "z-of-f2": (2, [2], (0.3, 0.2), range(4, 33, 4)),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_matches_ball_rungs(self, name):
        d, kill, ratios, radii = self.CASES[name]
        spec = LinearGdmsSpec.symmetric_ratios(ratios)
        G = FreeQuotient(d, kill=kill)
        mu = np.array(amenability_report(spec, G, [1], kernel_n_max=2).weights)
        ladder = walk_ladder(G, mu, radii)
        assert ladder.method == "tree"
        assert set(ladder.iterations) == {0}
        for R, rho in zip(ladder.radii, ladder.rho):
            B = ball(G, R)
            assert abs(rho - perron_value(walk_step(B, mu), len(B)).value) <= 1e-13

    @pytest.mark.parametrize(
        "G, weights, p, lazy, limit",
        [
            (FreeQuotient(2), [0.3, 0.3, 0.2, 0.2], (0.3, 0.2), 0.0, 0.87037748502139),
            (FreeQuotient(3, kill=[3]), [1 / 6] * 6, (1 / 6, 1 / 6), 1 / 3, 0.9106836025229592),
        ],
        ids=["f2", "lazy-f2-of-f3"],
    )
    def test_rises_to_akemann_ostrand(self, G, weights, p, lazy, limit):
        assert akemann_ostrand(p, lazy) == pytest.approx(limit, abs=1e-14)
        ladder = walk_ladder(G, weights, [1, 2, 4, 8, 16, 64, 250, 1000])
        assert all(a < b for a, b in zip(ladder.rho, ladder.rho[1:]))
        assert 0.0 < limit - ladder.rho[-1] <= 1e-5

    def test_reads_no_ball_and_runs_no_lanczos(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a free quotient's walk ladder built a ball or ran Lanczos")

        monkeypatch.setattr(walks, "ball", refuse)
        monkeypatch.setattr(walks, "perron_value", refuse)
        G = FreeQuotient(3, kill=[3])
        ladder = walk_ladder(G, LAZY_F2_IN_F3, [0, 12])
        assert not G._balls
        # R = 0 is the lazy weight; R = 12 is the generic ball rung, whose
        # ball has 1,062,881 elements
        assert ladder.rho[0] == 0.5
        assert ladder.rho[1] == pytest.approx(0.9257937135463088, abs=1e-13)
        assert ladder.iterations == (0, 0)
        # a residual is the width of the final bisection bracket: one ulp
        assert ladder.residuals[1] == math.ulp(ladder.rho[1])


def move_matrix(B, weights):
    """Reference walk step as a dense matrix: one entry per code and element."""
    moves = B.letter_moves()
    m = np.zeros((len(B), len(B)))
    for c, w in enumerate(weights):
        for i, j in enumerate(moves[c].tolist()):
            if j >= 0:
                m[i, j] += w
    return m


class TestWalkStep:
    """``walk_step`` folds codes by image but steps like the dense sum over codes."""

    CASES = {
        # name: (group, radius or None for the whole group, per-code weights)
        "lazy-f2-of-f3": (lambda: FreeQuotient(3, kill=[3]), 3, LAZY_F2_IN_F3),
        "repeated-images": (
            lambda: FreeAbelianQuotient(2, [[1, 0], [1, 0]]), 3, [0.1, 0.3, 0.4, 0.2]
        ),
        "identity-image": (lambda: FreeAbelianQuotient(1, [[1], [0]]), 4, [0.2, 0.2, 0.5, 0.1]),
        "radius-zero": (lambda: FreeAbelianQuotient(2, [[1, 0], [0, 1]]), 0, [0.4, 0.1, 0.3, 0.2]),
        "unequal-codes": (lambda: FreeQuotient(2), 3, [0.05, 0.25, 0.0, 0.7]),
        "s4-involution": (lambda: FinitePermQuotient(4, S4_IMAGES), None, [0.5, 0.0, 0.3, 0.2]),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_matches_dense_reference(self, name):
        make, radius, weights = self.CASES[name]
        G = make()
        B = ball(G) if radius is None else ball(G, radius)
        np.testing.assert_allclose(
            dense_step(B, weights), move_matrix(B, weights), rtol=0.0, atol=1e-15
        )
        x = np.random.default_rng(1).random(len(B))
        np.testing.assert_allclose(
            walk_step(B, weights)(x), move_matrix(B, weights) @ x, rtol=1e-14, atol=0.0
        )

    def test_one_step_holds_three_vectors(self):
        # the radius-10 ball of F_2 in F_3 (118,097 elements) under six codes,
        # two of them lazy: the step never gathers a (codes x elements) array
        B = ball(FreeQuotient(3, kill=[3]), 10)
        x = np.random.default_rng(2).random(len(B))
        tracemalloc.start()
        try:
            walk_step(B, LAZY_F2_IN_F3)(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * x.nbytes + 64 * 1024


class TestIsoperimetric:
    @pytest.mark.parametrize("make, R", [
        (lambda: FreeAbelianQuotient(2, [[1, 0], [0, 1]]), 8),
        (lambda: FreeQuotient(2), 6),
        (lambda: FinitePermQuotient(4, S4_IMAGES), 5),
    ], ids=["zz", "f2", "s4"])
    def test_reads_the_radius_R_ball(self, make, R):
        G = make()
        rep = isoperimetric_scan(G, R)
        assert max(G._balls) == R
        # reference: each B_r's boundary read on the radius-(R + 1) ball,
        # where every move that leaves B_r lands on the next sphere
        B = bfs_ball(make(), R + 1)
        moves, dist = B.letter_moves()[G.generating_codes()], B.dist
        leaves = (dist[moves] == dist + 1).any(axis=0)
        ratios = tuple(
            int((leaves & (dist == r)).sum()) / int((dist <= r).sum()) for r in range(1, R + 1)
        )
        assert rep.ratios == ratios

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
    # whole finite walk could round above it: on S_3 from a transposition and
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
