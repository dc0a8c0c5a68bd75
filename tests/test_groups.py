"""Word arithmetic, the involution, quotient backends, and balls."""

import itertools

import pytest

from gdms import (
    Ball,
    ConfigError,
    CapExceededError,
    FinitePermQuotient,
    FreeAbelianQuotient,
    FreeQuotient,
    Letter,
    ReducedWord,
    alphabet,
    ball,
    concat_reduce,
    kappa,
    quotient_from_config,
    reduce_word,
    word,
)

from gdms.groups import bfs_ball

from conftest import all_reduced_words_upto, codes_to_word, iter_reduced_words, naive_reduce


def letters_from_codes(codes):
    return [Letter.from_code(c) for c in codes]


class TestReduce:
    def test_identity_cancellation(self):
        assert reduce_word(letters_from_codes([0, 1])) == ReducedWord()

    def test_cascade(self):
        w = reduce_word([Letter(1, 1), Letter(2, 1), Letter(2, -1), Letter(1, 1)])
        assert w == word((1, 1), (1, 1))

    def test_random_against_naive_scan(self, rng):
        for _ in range(300):
            raw = [rng.randrange(4) for _ in range(20)]
            got = reduce_word(letters_from_codes(raw)).codes()
            assert got == naive_reduce(raw)

    def test_letter_inverse_involution(self):
        for letter in alphabet(3):
            assert letter.inverse().inverse() == letter
            assert letter.inverse().gen == letter.gen


class TestConcat:
    def test_full_cancellation(self):
        assert concat_reduce(word((1, 1)), word((1, -1))) == ReducedWord()

    def test_junction(self):
        got = concat_reduce(word((1, 1), (2, 1)), word((2, -1), (1, 1)))
        assert got == word((1, 1), (1, 1))

    def test_exhaustive_pairs_length_bounds(self):
        words = all_reduced_words_upto(2, 4)
        for a in words:
            for b in words:
                r = concat_reduce(codes_to_word(a), codes_to_word(b)).codes()
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
            wa, wb, wc = map(codes_to_word, (a, b, c))
            assert (wa * wb) * wc == wa * (wb * wc)


class TestKappa:
    def test_definition(self):
        assert kappa(word((1, 1), (2, 1))) == word((2, -1), (1, -1))
        assert kappa(word((1, 1))) == word((1, -1))

    def test_involution_exhaustive(self):
        for n in range(1, 7):
            for codes in iter_reduced_words(2, n):
                w = codes_to_word(codes)
                k = kappa(w)
                assert kappa(k) == w
                # kappa output is reduced by construction of ReducedWord
                assert len(k) == len(w)

    def test_empty_word_rejected(self):
        with pytest.raises(ConfigError, match="kappa"):
            kappa(ReducedWord())


class TestQuotientApply:
    def test_commutator_dies_in_abelianization(self, zz):
        w = word((1, 1), (2, 1), (1, -1), (2, -1))
        assert zz.word_image(w) == (0, 0)

    def test_parity_in_z2(self, z2):
        w = word((1, 1), (1, 1), (2, 1), (1, 1), (2, -1))
        assert z2.word_image(w) != z2.identity()
        assert z2.word_image(w) == z2.letter_image(Letter(1, 1))

    def test_killed_letters_vanish(self, f2_of_f3):
        w = word((3, 1), (1, 1), (3, -1))
        assert f2_of_f3.word_image(w) == f2_of_f3.word_image(word((1, 1)))

    def test_empty_word_is_identity(self, zz, z2, f2_of_f3):
        for G in (zz, z2, f2_of_f3):
            assert G.word_image(ReducedWord()) == G.identity()

    @pytest.mark.parametrize("backend", ["z2", "zz", "f2_of_f3"])
    def test_homomorphism_exhaustive_small(self, backend, request):
        G = request.getfixturevalue(backend)
        words = all_reduced_words_upto(G.d, 3)
        lookup = {w: G.word_image(codes_to_word(w)) for w in words}
        for a in words:
            for b in words:
                image_a_then_b = G.apply_word(lookup[a], codes_to_word(b))
                ab = naive_reduce(a + b)
                assert image_a_then_b == G.word_image(codes_to_word(ab))

    @pytest.mark.parametrize("backend", ["z2", "s3", "zz", "f2_of_f3"])
    def test_homomorphism_random_length6(self, backend, request, rng):
        G = request.getfixturevalue(backend)
        words = [w for w in all_reduced_words_upto(G.d, 6) if len(w) <= 6]
        for _ in range(400):
            a, b = rng.choice(words), rng.choice(words)
            image = G.apply_word(G.word_image(codes_to_word(a)), codes_to_word(b))
            assert image == G.word_image(codes_to_word(naive_reduce(a + b)))

    @pytest.mark.parametrize("backend", ["z2", "s3", "zz", "f2_of_f3"])
    def test_kappa_inverts_images(self, backend, request):
        G = request.getfixturevalue(backend)
        for n in range(1, 5):
            for codes in iter_reduced_words(G.d, n):
                w = codes_to_word(codes)
                g = G.word_image(w)
                assert G.apply_word(g, kappa(w)) == G.identity()
                assert G.inverse(g) == G.word_image(kappa(w))

    @pytest.mark.parametrize("backend", ["z2", "s3", "zz", "f2_of_f3"])
    def test_letter_images_invert(self, backend, request):
        G = request.getfixturevalue(backend)
        for letter in alphabet(G.d):
            g = G.apply_letter(G.identity(), letter)
            assert G.apply_letter(g, letter.inverse()) == G.identity()


def word_metric(G, radius):
    """Distance to the identity read off ``ball(G, radius)``."""
    B = ball(G, radius)
    return lambda g: int(B.dist[B.index[g]])


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
                ga = G.word_image(codes_to_word(a))
                gab = G.apply_word(ga, codes_to_word(b))
                gb = G.word_image(codes_to_word(b))
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


def assert_builder_matches_bfs(G, radii):
    """The backend's ball builder reproduces ``bfs_ball`` exactly."""
    for r in radii:
        ref = bfs_ball(G, r)
        B = G._build_ball(r, 10**9)
        assert B.elements == ref.elements
        assert (B.dist == ref.dist).all()
        assert (B.letter_moves() == ref.letter_moves()).all()


def assert_caps_match_bfs(G, radius, caps):
    """The builder refuses the same caps as ``bfs_ball``, word for word."""
    for cap in caps:
        errors = []
        builds = (lambda: bfs_ball(G, radius, cap), lambda: G._build_ball(radius, cap))
        for build in builds:
            try:
                build()
                errors.append(None)
            except CapExceededError as exc:
                errors.append(str(exc))
        assert errors[0] == errors[1]


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

    def test_identity_has_index_zero(self, zz):
        B = ball(zz, 3)
        assert B.elements[0] == zz.identity()
        assert B.index[zz.identity()] == 0

    def test_finite_ball_saturates(self, s3):
        B = ball(s3, 10)
        assert len(B) == s3.order() == 6

    def test_cap_guard(self, free_f2):
        with pytest.raises(CapExceededError):
            ball(free_f2, 8, cap=100)

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
            want = [B.index[G.inverse(g)] for g in B.elements]
            assert B.inverse_index().tolist() == want

    def test_deterministic_indexing(self, zz):
        a = ball(zz, 3)
        b = bfs_ball(zz, 3)
        assert a.elements == b.elements

    @pytest.mark.parametrize(
        "d,kill", [(2, []), (3, [3]), (3, [1, 3]), (3, [1, 2, 3]), (4, [2])]
    )
    def test_free_tree_ball_matches_bfs(self, d, kill):
        assert_builder_matches_bfs(FreeQuotient(d, kill), range(7))

    def test_free_tree_cap_matches_bfs(self):
        assert_caps_match_bfs(FreeQuotient(3, [3]), 4, (0, 1, 5, 16, 17, 53, 160))

    @pytest.mark.parametrize("backend", ["s3", "z2", "z3", "s4"])
    def test_finite_table_ball_matches_bfs(self, backend, request):
        G = request.getfixturevalue(backend)
        assert_builder_matches_bfs(G, range(G.diameter() + 3))

    @pytest.mark.parametrize("backend", ["s3", "z2", "z3", "s4"])
    def test_finite_table_cap_matches_bfs(self, backend, request):
        G = request.getfixturevalue(backend)
        for radius in range(G.diameter() + 3):
            assert_caps_match_bfs(G, radius, range(G.order() + 2))

    @pytest.mark.parametrize("backend", ["zz", "skew_zz", "s3", "f2_of_f3"])
    def test_bfs_moves_match_products(self, backend, request):
        G = request.getfixturevalue(backend)
        for r in range(6):
            B = bfs_ball(G, r)
            moves = B.letter_moves()
            for c, letter in enumerate(alphabet(G.d)):
                for i, g in enumerate(B.elements):
                    assert moves[c][i] == B.index.get(G.apply_letter(g, letter), -1)

    def test_memo_returns_same_ball(self):
        G = FreeAbelianQuotient(2, [[1, 0], [0, 1]])
        B = ball(G, 3)
        assert ball(G, 3) is B
        assert B.letter_moves() is B.letter_moves()
        assert not B.letter_moves().flags.writeable

    def test_memoised_ball_still_capped(self):
        G = FreeQuotient(2)
        B = ball(G, 3)
        with pytest.raises(CapExceededError, match="stopped at radius 3"):
            ball(G, 3, cap=len(B) - 1)
        assert ball(G, 3, cap=len(B)) is B


class TestBackendsMisc:
    def test_s3_closure(self, s3):
        assert s3.order() == 6
        assert s3.diameter() <= 3

    def test_z3_order(self, z3):
        assert z3.order() == 3

    def test_bad_permutation_rejected(self):
        with pytest.raises(ConfigError):
            FinitePermQuotient(3, [[0, 0, 1]])

    def test_trivial_kernel_flags(self, free_f2, trivial_group, zz):
        assert free_f2.kernel_is_trivial()
        assert not trivial_group.kernel_is_trivial()
        assert not zz.kernel_is_trivial()
        assert trivial_group.order() == 1

    def test_config_roundtrip(self):
        G = quotient_from_config(
            {"type": "finite_perm", "degree": 2, "images": [[1, 0], [1, 0]]}, d=2
        )
        assert isinstance(G, FinitePermQuotient)
        G = quotient_from_config(
            {"type": "abelianization", "rank": 2, "images": [[1, 0], [0, 1]]}, d=2
        )
        assert isinstance(G, FreeAbelianQuotient)
        G = quotient_from_config({"type": "free_quotient", "kill": [3]}, d=3)
        assert isinstance(G, FreeQuotient)

    def test_config_rank_mismatch(self):
        with pytest.raises(ConfigError, match="rank"):
            quotient_from_config(
                {"type": "abelianization", "rank": 2, "images": [[1, 0]]}, d=2
            )

    def test_unreduced_word_rejected(self):
        with pytest.raises(ConfigError, match="reduced"):
            ReducedWord((Letter(1, 1), Letter(1, -1)))
