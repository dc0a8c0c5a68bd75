"""Word arithmetic, the involution, quotient backends, and balls."""

import itertools
import tracemalloc

import numpy as np
import pytest

from gdms import (
    ConfigError,
    CapExceededError,
    FinitePermQuotient,
    FreeAbelianQuotient,
    FreeQuotient,
    LinearGdmsSpec,
    QuotientGroup,
    ball,
    check_asymptotic_symmetry,
    cli,
    kernel_counts,
    letter_name,
    srw_spectral_radius,
)

from gdms.groups import DEFAULT_BALL_CAP, bfs_ball

from conftest import (
    all_reduced_words_upto,
    apply_word,
    bfs_elements,
    brute_kernel_sums,
    iter_reduced_words,
    kappa,
    naive_reduce,
    reduce_word,
    word_image,
)
from pressure_reference import is_admissible, log_weight


class TestReduce:
    def test_identity_cancellation(self):
        assert reduce_word([0, 1]) == ()

    def test_cascade(self):
        # g1 g2 g2~ g1 = g1 g1
        assert reduce_word([0, 2, 3, 0]) == (0, 0)

    def test_random_against_naive_scan(self, rng):
        for _ in range(300):
            raw = [rng.randrange(4) for _ in range(20)]
            assert reduce_word(raw) == naive_reduce(raw)

    def test_letter_inverse_involution(self):
        for c in range(6):
            assert c ^ 1 != c
            assert c ^ 1 ^ 1 == c
            assert (c ^ 1) // 2 == c // 2

    def test_letter_names(self):
        assert [letter_name(c) for c in range(4)] == ["g1", "g1~", "g2", "g2~"]


class TestConcat:
    def test_full_cancellation(self):
        assert reduce_word((0,) + (1,)) == ()

    def test_junction(self):
        # (g1 g2)(g2~ g1) = g1 g1
        assert reduce_word((0, 2) + (3, 0)) == (0, 0)

    def test_exhaustive_pairs_length_bounds(self):
        words = all_reduced_words_upto(2, 4)
        for a in words:
            for b in words:
                r = reduce_word(a + b)
                assert r == naive_reduce(a + b)
                assert abs(len(a) - len(b)) <= len(r) <= len(a) + len(b)
                assert (len(r) - len(a) - len(b)) % 2 == 0

    def test_associativity(self, rng):
        small = all_reduced_words_upto(2, 2)
        triples = list(itertools.product(small, repeat=3))
        words4 = all_reduced_words_upto(2, 4)
        triples += [
            (rng.choice(words4), rng.choice(words4), rng.choice(words4))
            for _ in range(500)
        ]
        for a, b, c in triples:
            assert reduce_word(reduce_word(a + b) + c) == reduce_word(a + reduce_word(b + c))


class TestKappa:
    def test_definition(self):
        # g1 g2 -> g2~ g1~
        assert kappa((0, 2)) == (3, 1)
        assert kappa((0,)) == (1,)

    def test_involution_exhaustive(self):
        for n in range(1, 7):
            for w in iter_reduced_words(2, n):
                k = kappa(w)
                assert kappa(k) == w
                assert reduce_word(k) == k
                assert len(k) == len(w)

    def test_empty_word_rejected(self):
        with pytest.raises(ConfigError, match="kappa"):
            kappa(())


class TestQuotientApply:
    def test_commutator_dies_in_abelianization(self, zz):
        # g1 g2 g1~ g2~
        assert word_image(zz, (0, 2, 1, 3)) == (0, 0)

    def test_parity_in_z2(self, z2):
        w = (0, 0, 2, 0, 3)  # g1 g1 g2 g1 g2~
        assert word_image(z2, w) != z2.identity()
        assert word_image(z2, w) == z2.letter_image(0)

    def test_killed_letters_vanish(self, f2_of_f3):
        # g3 g1 g3~ = g1 once g3 is killed
        assert word_image(f2_of_f3, (4, 0, 5)) == word_image(f2_of_f3, (0,))

    def test_empty_word_is_identity(self, zz, z2, f2_of_f3):
        for G in (zz, z2, f2_of_f3):
            assert word_image(G, ()) == G.identity()

    @pytest.mark.parametrize("backend", ["z2", "zz", "f2_of_f3"])
    def test_homomorphism_exhaustive_small(self, backend, request):
        G = request.getfixturevalue(backend)
        words = all_reduced_words_upto(G.d, 3)
        lookup = {w: word_image(G, w) for w in words}
        for a in words:
            for b in words:
                image_a_then_b = apply_word(G, lookup[a], b)
                assert image_a_then_b == word_image(G, naive_reduce(a + b))

    @pytest.mark.parametrize("backend", ["z2", "s3", "zz", "f2_of_f3"])
    def test_homomorphism_random_length6(self, backend, request, rng):
        G = request.getfixturevalue(backend)
        words = [w for w in all_reduced_words_upto(G.d, 6) if len(w) <= 6]
        for _ in range(400):
            a, b = rng.choice(words), rng.choice(words)
            image = apply_word(G, word_image(G, a), b)
            assert image == word_image(G, naive_reduce(a + b))

    @pytest.mark.parametrize("backend", ["z2", "s3", "zz", "f2_of_f3"])
    def test_kappa_inverts_images(self, backend, request):
        G = request.getfixturevalue(backend)
        for n in range(1, 5):
            for w in iter_reduced_words(G.d, n):
                g = word_image(G, w)
                assert apply_word(G, g, kappa(w)) == G.identity()
                # the image of kappa(w) is a left inverse too: it is g^-1
                assert apply_word(G, word_image(G, kappa(w)), w) == G.identity()

    @pytest.mark.parametrize("backend", ["z2", "s3", "zz", "f2_of_f3"])
    def test_letter_images_invert(self, backend, request):
        G = request.getfixturevalue(backend)
        for c in range(2 * G.d):
            g = G.apply_letter(G.identity(), c)
            assert G.apply_letter(g, c ^ 1) == G.identity()


def word_metric(G, radius):
    """Distance to the identity read off ``ball(G, radius)``, at the index
    the breadth-first oracle gives each element."""
    B = ball(G, radius)
    index = {g: i for i, g in enumerate(bfs_elements(G, radius))}
    assert len(index) == len(B)
    return lambda g: int(B.dist[index[g]])


class TestWordMetric:
    def test_identity_distance_zero(self, zz, z2, f2_of_f3):
        for G in (zz, z2, f2_of_f3):
            assert word_metric(G, 3)(G.identity()) == 0

    def test_one_step_changes_distance_by_at_most_one(self, zz, s3, f2_of_f3):
        for G in (zz, s3, f2_of_f3):
            B = ball(G, 4)
            moves = B.letter_moves()
            for c in range(2 * G.d):
                for i, j in enumerate(moves[c]):
                    if j >= 0:
                        assert abs(int(B.dist[i]) - int(B.dist[j])) <= 1

    def test_triangle_inequality_sampled(self, zz, s3, f2_of_f3, rng):
        for G in (zz, s3, f2_of_f3):
            dist = word_metric(G, 10)
            words = all_reduced_words_upto(G.d, 5)
            for _ in range(200):
                a, b = rng.choice(words), rng.choice(words)
                ga = word_image(G, a)
                gab = apply_word(G, ga, b)
                gb = word_image(G, b)
                assert dist(gab) <= dist(ga) + dist(gb)

    def test_abelian_l1_formula(self, zz):
        dist = word_metric(zz, 5)
        assert dist((3, -2)) == 5
        assert dist((0, 0)) == 0

    def test_abelian_bfs_fallback(self, skew_zz):
        dist = word_metric(skew_zz, 2)
        # (1,1) is one generator image away from the identity
        assert dist((1, 1)) == 1
        assert dist((2, 1)) == 2


def assert_same_ball(B, ref):
    assert B.radius == ref.radius
    assert (B.dist == ref.dist).all()
    assert (B.letter_moves() == ref.letter_moves()).all()


def assert_ball_matches_bfs(G, radii):
    """``ball`` (the backend's builder, or a prefix of a memoised larger ball)
    reproduces ``bfs_ball`` exactly."""
    for r in radii:
        assert_same_ball(ball(G, r), bfs_ball(G, r))


def assert_caps_match_bfs(make, radius, caps):
    """Under each ball cap, ``ball`` refuses exactly where the fitted
    ``bfs_ball`` falls short of the radius, naming its radius, on a search
    and on a memo hit alike; the ball the search kept is that ``bfs_ball``
    word for word."""
    for cap in caps:
        ref = bfs_ball(make(ball_cap=cap), radius)
        G = make(ball_cap=cap)
        for _ in range(2):
            if ref.radius < radius:
                with pytest.raises(CapExceededError) as exc:
                    ball(G, radius)
                assert str(exc.value) == (
                    f"ball of radius {radius} exceeds cap {cap} "
                    f"(largest radius that fits: {ref.radius})"
                )
            assert_same_ball(ball(G, ref.radius), ref)


@pytest.fixture(scope="module")
def s4():
    """S4 on degree 4: a transposition, a 4-cycle and a double transposition."""
    return FinitePermQuotient(4, [[1, 0, 2, 3], [1, 2, 3, 0], [1, 0, 3, 2]])


@pytest.fixture(scope="module")
def skew_zz():
    """Z^2 with the non-basis images (1, 0) and (1, 1)."""
    return FreeAbelianQuotient(2, [[1, 0], [1, 1]])


class TestBalls:
    def test_free_f2_radius1(self, free_f2):
        assert len(ball(free_f2, 1)) == 5

    def test_zz_radius2_l1_count(self, zz):
        assert len(ball(zz, 2)) == 13

    def test_free_f2_radius3(self, free_f2):
        B = ball(free_f2, 3)
        assert len(B) == 53
        assert B.sphere_sizes() == [1, 4, 12, 36]

    @pytest.mark.parametrize("k", [2, 3])
    def test_free_sphere_sizes(self, k):
        G = FreeQuotient(k)
        B = ball(G, 4)
        expected = [1] + [2 * k * (2 * k - 1) ** (n - 1) for n in range(1, 5)]
        assert B.sphere_sizes() == expected

    def test_whole_finite_group_spheres_stop_at_diameter(self, s3):
        B = ball(s3)
        assert B.radius == s3.ball_cap
        assert B.sphere_sizes() == [1, 3, 2]

    def test_identity_has_index_zero(self, zz):
        B = ball(zz, 3)
        assert next(iter(bfs_elements(zz, 3))) == zz.identity()
        # index 0 is the one element at distance 0
        assert B.dist[0] == 0 and (B.dist[1:] > 0).all()

    def test_finite_ball_saturates(self, s3):
        B = ball(s3, 10)
        assert len(B) == len(ball(s3)) == 6

    def test_cap_guard(self):
        with pytest.raises(CapExceededError):
            ball(FreeQuotient(2, ball_cap=100), 8)

    def test_inverse_index_stays_in_ball(self, zz, s3):
        for G in (zz, s3):
            B = ball(G, 3)
            inv = B.inverse_index()
            assert (inv >= 0).all()
            assert inv[0] == 0

    @pytest.mark.parametrize("backend", ["z2", "s3", "s4", "zz", "free_f2", "f2_of_f3"])
    def test_inverse_index_matches_group_inverse(self, backend, request):
        G = request.getfixturevalue(backend)
        for radius in range(6):
            B = ball(G, radius)
            words = bfs_elements(G, radius)
            index = {g: i for i, g in enumerate(words)}
            # g is the image of its geodesic word w, so g^-1 is that of kappa(w)
            want = [index[word_image(G, kappa(w) if w else ())] for w in words.values()]
            assert B.inverse_index().tolist() == want

    def test_deterministic_indexing(self, zz):
        a = ball(zz, 3)
        b = bfs_ball(zz, 3)
        assert (a.dist == b.dist).all()
        assert (a.letter_moves() == b.letter_moves()).all()

    @pytest.mark.parametrize(
        "d,kill", [(2, []), (3, [3]), (3, [1, 3]), (3, [1, 2, 3]), (4, [2])]
    )
    def test_free_tree_ball_matches_bfs(self, d, kill):
        assert_ball_matches_bfs(FreeQuotient(d, kill), range(7))

    def test_free_tree_cap_matches_bfs(self):
        make = lambda **kw: FreeQuotient(3, [3], **kw)  # noqa: E731
        assert_caps_match_bfs(make, 4, (0, 1, 5, 16, 17, 53, 160))

    @pytest.mark.parametrize("backend", ["s3", "z2", "z3", "s4"])
    def test_finite_table_ball_matches_bfs(self, backend, request):
        G = request.getfixturevalue(backend)
        assert_ball_matches_bfs(G, range(ball(G).dist[-1] + 3))

    @pytest.mark.parametrize("backend", ["s3", "z2", "z3", "s4"])
    def test_finite_table_cap_matches_bfs(self, backend, request):
        G = request.getfixturevalue(backend)
        images = [G.letter_image(c) for c in range(0, 2 * G.d, 2)]
        make = lambda **kw: FinitePermQuotient(G.degree, images, **kw)  # noqa: E731
        W = ball(G)
        for radius in range(W.dist[-1] + 3):
            assert_caps_match_bfs(make, radius, range(len(W) + 2))

    @pytest.mark.parametrize("backend", ["zz", "skew_zz", "s3", "f2_of_f3"])
    def test_bfs_moves_match_products(self, backend, request):
        G = request.getfixturevalue(backend)
        for r in range(6):
            B = bfs_ball(G, r)
            moves = B.letter_moves()
            elements = list(bfs_elements(G, r))
            index = {g: i for i, g in enumerate(elements)}
            assert len(elements) == len(B)
            for c in range(2 * G.d):
                for i, g in enumerate(elements):
                    assert moves[c][i] == index.get(G.apply_letter(g, c), -1)

    def test_memo_returns_same_ball(self):
        G = FreeAbelianQuotient(2, [[1, 0], [0, 1]])
        B = ball(G, 3)
        assert ball(G, 3) is B
        assert B.letter_moves() is B.letter_moves()
        assert not B.letter_moves().flags.writeable

    def test_memoised_ball_still_capped(self):
        # radius 3 of F_2 has 53 elements; the ball a refused search kept
        # does not lift the cap
        G = FreeQuotient(2, ball_cap=52)
        for _ in range(2):
            with pytest.raises(CapExceededError, match="largest radius that fits: 2"):
                ball(G, 3)
        B = ball(G, 2)
        assert B.radius == 2 and B is G._capped
        assert len(ball(FreeQuotient(2, ball_cap=53), 3)) == 53

    def test_capped_search_runs_once(self, monkeypatch):
        # Z^2 under a cap of 50 stops at radius 4 (41 elements); the group
        # remembers that search, so no later request runs another
        builds = []
        build = FreeAbelianQuotient._build_ball

        def counting(self, radius):
            builds.append(radius)
            return build(self, radius)

        monkeypatch.setattr(FreeAbelianQuotient, "_build_ball", counting)
        G = FreeAbelianQuotient(2, [[1, 0], [0, 1]], ball_cap=50)
        for radius in (10, 10, 10, 12):
            with pytest.raises(CapExceededError, match="largest radius that fits: 4"):
                ball(G, radius)
        B = ball(G, 4)
        assert (B.radius, len(B)) == (4, 41)
        assert len(ball(G, 3)) == 25
        with pytest.raises(CapExceededError, match="the group has more than 50 elements"):
            ball(G)
        assert builds == [10]

    @pytest.mark.parametrize(
        "make",
        [
            lambda: FreeAbelianQuotient(2, [[1, 0], [1, 1]]),
            lambda: FinitePermQuotient(4, [[1, 0, 2, 3], [1, 2, 3, 0], [1, 0, 3, 2]]),
            lambda: FreeQuotient(3, [3]),
        ],
        ids=["abelian", "finite", "tree"],
    )
    def test_smaller_balls_are_prefixes(self, make):
        G = make()
        big = ball(G, 6)
        for r in range(6):
            B = ball(G, r)
            # cut from the memoised ball, not built again
            assert np.shares_memory(B.dist, big.dist)
            ref = bfs_ball(G, r)
            assert (B.dist == ref.dist).all()
            assert (B.letter_moves() == ref.letter_moves()).all()


class TestBackendsMisc:
    def test_s3_closure(self, s3):
        B = ball(s3)
        assert len(B) == 6
        assert B.dist[-1] <= 3

    def test_z3_order(self, z3):
        assert len(ball(z3)) == 3

    def test_finiteness_flags(self, s3, trivial_group, free_f2, f2_of_f3, zz):
        assert s3.finite and trivial_group.finite
        assert not (free_f2.finite or f2_of_f3.finite or zz.finite)

    def test_s9_explored_only_as_far_as_asked(self):
        # S_9 has 362,880 elements; building them all took 110.6 MB traced
        tracemalloc.start()
        try:
            G = FinitePermQuotient(
                9, [[1, 0, *range(2, 9)], [*range(1, 9), 0]], ball_cap=10**4
            )
            B = ball(G, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        ref = bfs_ball(G, 4)
        assert (B.dist == ref.dist).all()
        assert (B.letter_moves() == ref.letter_moves()).all()
        assert len(B) == 46
        assert peak <= 2e6
        with pytest.raises(CapExceededError, match="the group has more than 10000 elements"):
            ball(G)

    def test_bad_permutation_rejected(self):
        with pytest.raises(ConfigError):
            FinitePermQuotient(3, [[0, 0, 1]])

    def test_trivial_kernel_flags(self, free_f2, trivial_group, zz):
        assert free_f2.kernel_is_trivial()
        assert not trivial_group.kernel_is_trivial()
        assert not zz.kernel_is_trivial()
        assert len(ball(trivial_group)) == 1

    def test_config_roundtrip(self):
        def build(section, d):
            # the backend a config's quotient section builds, by its cli.QUOTIENTS row
            return cli.QUOTIENTS[section["type"]][2](section, d, DEFAULT_BALL_CAP)

        G = build({"type": "finite_perm", "degree": 2, "images": [[1, 0], [1, 0]]}, d=2)
        assert isinstance(G, FinitePermQuotient)
        G = build({"type": "abelianization", "rank": 2, "images": [[1, 0], [0, 1]]}, d=2)
        assert isinstance(G, FreeAbelianQuotient)
        G = build({"type": "free_quotient", "kill": [3]}, d=3)
        assert isinstance(G, FreeQuotient)

    def test_config_rank_mismatch(self, tmp_path):
        cfg = {"gdms": {"d": 2, "ratio": 1 / 3},
               "quotient": {"type": "abelianization", "rank": 2, "images": [[1, 0]]}}
        with pytest.raises(ConfigError, match="rank"):
            cli.run("delta-kernel", cfg, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_unreduced_word_rejected(self):
        # g1 g1~ is no admissible word, so it has no weight
        assert not is_admissible((0, 1))
        with pytest.raises(ConfigError, match="admissible"):
            log_weight(LinearGdmsSpec.equal_ratios(2, 1 / 3), (0, 1), 1.0)


# The four letter images of F_2 in code order: x, x^-1, y, y^-1.
STEPS = ((1, 0), (-1, 0), (0, 1), (0, -1))


class Heisenberg(QuotientGroup):
    """H_3(Z) from the two methods a backend must define: g_1 -> x,
    g_2 -> y, and (a, b, c) . (x, y, 0) = (a + x, b + y, c + a y)."""

    d = 2

    def identity(self):
        return (0, 0, 0)

    def apply_letter(self, g, code):
        x, y = STEPS[code]
        a, b, c = g
        return (a + x, b + y, c + a * y)


class PlainZ2(QuotientGroup):
    """Z^2 from the two methods alone: g_1 -> (1, 0), g_2 -> (0, 1)."""

    d = 2

    def identity(self):
        return (0, 0)

    def apply_letter(self, g, code):
        x, y = STEPS[code]
        return (g[0] + x, g[1] + y)


class TestTwoMethodBackend:
    """A backend needs only ``identity`` and ``apply_letter``."""

    @pytest.mark.parametrize("spec_name, s", [("spec_third", 1.0), ("spec_mixed", 0.9)])
    def test_heisenberg_kernel_counts(self, request, spec_name, s):
        spec = request.getfixturevalue(spec_name)
        G = Heisenberg()
        table = kernel_counts(spec, G, s, 10)
        # the shortest kernel words, such as [x, y][x^-1, y], have length 8
        assert table.support().tolist() == [8, 10]
        brute = brute_kernel_sums(spec, G, s, 10)
        assert np.allclose(np.exp(table.log_a), brute, rtol=1e-12, atol=0.0)

    def test_heisenberg_symmetry(self, spec_mixed):
        rep = check_asymptotic_symmetry(spec_mixed, Heisenberg(), n_max=8, R=4)
        assert rep.symmetric_spec
        assert rep.max_rel_asymmetry <= 1e-12

    def test_heisenberg_walk_ladder(self):
        ladder = srw_spectral_radius(Heisenberg(), [2, 4, 6])
        assert ladder.method == "generic"
        assert all(b > a for a, b in zip(ladder.rho, ladder.rho[1:]))
        assert ladder.rho[-1] <= 1.0

    @pytest.mark.parametrize("spec_name", ["spec_third", "spec_mixed"])
    def test_plain_z2_is_the_abelian_backend(self, request, spec_name):
        spec = request.getfixturevalue(spec_name)
        G, ref = PlainZ2(), FreeAbelianQuotient(2, [[1, 0], [0, 1]])
        B, R = ball(G, 9), ball(ref, 9)
        assert B.dist.tobytes() == R.dist.tobytes()
        assert B.letter_moves().tobytes() == R.letter_moves().tobytes()
        for s in (0.5, 1.0):
            got = kernel_counts(spec, G, s, 18).log_a
            assert got.tobytes() == kernel_counts(spec, ref, s, 18).log_a.tobytes()
