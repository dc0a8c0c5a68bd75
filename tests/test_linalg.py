"""The Lanczos Perron solver, its nonsymmetric test reference, and the
truncation-ladder rule of the walk ladders."""

import numpy as np
import pytest

from gdms import ConvergenceError, build_skew_operator
from gdms.linalg import PLATEAU_TOL, perron_value, perron_value_dense, truncation_limit
from gdms.walks import _tree_radial_chain

from linalg_reference import arnoldi_perron, arnoldi_perron_dense


def dense_perron(m):
    """Reference: the eigenvalue of largest real part from LAPACK."""
    return float(max(np.linalg.eigvals(m).real))


def counted(m):
    """Matvec of a dense matrix that counts its calls."""
    calls = []

    def matvec(v):
        calls.append(1)
        return m @ v

    return matvec, calls


def assert_perron(m, tol=1e-12, solver=arnoldi_perron):
    matvec, calls = counted(m)
    res = solver(matvec, m.shape[0])
    assert res.value == pytest.approx(dense_perron(m), abs=tol)
    assert res.iterations == len(calls)
    assert res.residual <= 1e-12 * max(1.0, res.value)
    assert np.max(np.abs(m @ res.vector - res.value * res.vector)) <= 1e-11
    assert res.vector.sum() > 0.0
    return res


class TestPerronValue:
    """The nonsymmetric reference ``arnoldi_perron`` against LAPACK's ``eigvals``,
    and the zero, empty and symmetric tree-radial cases on ``perron_value``."""

    def test_z2_skew_operator(self, spec_third, zz):
        m = build_skew_operator(spec_third, zz, 1.0, 6).dense()
        assert_perron(m)

    @pytest.mark.parametrize("R", range(4, 13))
    def test_tree_radial_chain(self, R):
        m = _tree_radial_chain(2, R, 0.25, 0.0)
        assert np.array_equal(m, m.T)
        assert_perron(m, solver=perron_value)

    def test_period_two(self):
        # Bipartite incidence: -rho is an eigenvalue of the same modulus.
        rng = np.random.default_rng(3)
        m = np.zeros((9, 9))
        m[:4, 4:] = rng.random((4, 5))
        m[4:, :4] = rng.random((5, 4))
        rho = dense_perron(m)
        assert min(np.linalg.eigvals(m).real) == pytest.approx(-rho, abs=1e-12)
        assert_perron(m)

    def test_reducible_perron_block_last(self):
        # Block upper triangular; the second diagonal block carries the
        # spectral radius, and the uniform start reaches it.
        rng = np.random.default_rng(5)
        m = np.zeros((10, 10))
        m[:6, :6] = 0.2 * rng.random((6, 6))
        m[6:, 6:] = rng.random((4, 4))
        m[:6, 6:] = rng.random((6, 4))
        assert dense_perron(m[6:, 6:]) > dense_perron(m[:6, :6])
        res = assert_perron(m)
        assert res.value == pytest.approx(dense_perron(m[6:, 6:]), abs=1e-12)

    @pytest.mark.parametrize(
        "m", [[[2.5]], [[0.0]], [[1.0, 2.0], [3.0, 0.5]], [[0.0, 4.0], [1.0, 0.0]]]
    )
    def test_small(self, m):
        assert_perron(np.array(m))

    def test_zero_matrix(self):
        # The zero operator is the one symmetric nilpotent operator: the
        # residual check of the uniform start returns it on one matvec.
        res = perron_value_dense(np.zeros((5, 5)))
        assert res.value == 0.0
        assert res.residual == 0.0
        assert res.iterations == 1
        assert arnoldi_perron_dense(np.zeros((5, 5))).iterations == 1

    def test_nilpotent_is_exactly_zero(self):
        # A single Jordan block: every shifted vector has a tiny residual
        # for pseudo-eigenvalues up to residual**(1/n), but rho is 0.
        m = np.diag(np.full(7, 0.5), 1)
        res = arnoldi_perron_dense(m)
        assert res.value == 0.0
        assert res.residual == 0.0
        assert res.iterations == 8
        assert not np.any(m @ res.vector)
        assert np.linalg.norm(res.vector) == pytest.approx(1.0)

    def test_tree_skew_operator_is_nilpotent(self, spec_third, free_f2):
        op = build_skew_operator(spec_third, free_f2, 1.0, 4)
        res = arnoldi_perron(op.matvec, op.n_states)
        assert res.value == 0.0
        assert res.iterations == 2 * 4 + 1

    def test_empty(self):
        for solver in (perron_value, arnoldi_perron):
            res = solver(lambda v: v, 0)
            assert (res.value, res.iterations, res.residual) == (0.0, 0, 0.0)

    def test_max_iter_reports_best_residual(self):
        m = np.random.default_rng(7).random((20, 20))
        # A positive matrix takes one matvec for the nilpotency test and one
        # for the residual of the uniform start; then the budget is spent.
        v = np.full(20, 20**-0.5)
        lam = v @ m @ v
        first = np.max(np.abs(m @ v - lam * v)) / np.max(v)
        with pytest.raises(ConvergenceError, match="best residual") as exc:
            arnoldi_perron_dense(m, max_iter=2)
        assert exc.value.residual == pytest.approx(first, rel=1e-12)
        matvec, calls = counted(m)
        with pytest.raises(ConvergenceError) as exc:
            arnoldi_perron(matvec, 20, max_iter=6)
        assert len(calls) == 6
        assert 0.0 < exc.value.residual <= first


def lanczos(m, **kw):
    """``perron_value`` on a dense matrix, with its matvec calls."""
    matvec, calls = counted(m)
    return perron_value(matvec, m.shape[0], **kw), calls


def assert_lanczos(m):
    assert np.array_equal(m, m.T)
    res, calls = lanczos(m)
    top = float(np.linalg.eigvalsh(m)[-1]) if len(m) else 0.0
    assert res.value == pytest.approx(top, abs=1e-12)
    assert res.iterations == len(calls)
    assert res.residual <= 1e-12 * max(1.0, res.value)
    if len(m):
        assert np.max(np.abs(m @ res.vector - res.value * res.vector)) <= 1e-11
        assert res.vector.sum() > 0.0
    return res


def sparse_symmetric(n, density, seed):
    """A random sparse symmetric nonnegative matrix."""
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.random((n, n)) * (rng.random((n, n)) < density))
    return upper + np.triu(upper, 1).T


class TestLanczosCycle:
    """``perron_value`` (Lanczos) against LAPACK's ``eigvalsh``."""

    @pytest.mark.parametrize("n, density, seed", [(40, 0.1, 0), (200, 0.02, 1), (500, 0.01, 2)])
    def test_sparse_symmetric(self, n, density, seed):
        m = sparse_symmetric(n, density, seed)
        res = assert_lanczos(m)
        assert res.value == pytest.approx(arnoldi_perron_dense(m).value, abs=1e-12)

    def test_period_two(self):
        # Bipartite: -rho is an eigenvalue, and the top algebraic Ritz value
        # still tends to +rho.
        b = np.random.default_rng(3).random((4, 5))
        m = np.zeros((9, 9))
        m[:4, 4:] = b
        m[4:, :4] = b.T
        eig = np.linalg.eigvalsh(m)
        assert eig[0] == pytest.approx(-eig[-1], abs=1e-12)
        assert_lanczos(m)

    def test_reducible_perron_block_last(self):
        # Symmetric and reducible: block diagonal, the larger block last.
        m = np.zeros((10, 10))
        m[:6, :6] = 0.2 * sparse_symmetric(6, 1.0, 4)
        m[6:, 6:] = sparse_symmetric(4, 1.0, 5)
        last = float(np.linalg.eigvalsh(m[6:, 6:])[-1])
        assert last > float(np.linalg.eigvalsh(m[:6, :6])[-1])
        assert assert_lanczos(m).value == pytest.approx(last, abs=1e-12)

    @pytest.mark.parametrize(
        "m", [np.zeros((0, 0)), np.array([[2.5]]), np.array([[0.0]]), np.zeros((5, 5))],
        ids=["dim-0", "dim-1", "dim-1-zero", "zero"],
    )
    def test_small_and_zero(self, m):
        res = assert_lanczos(m)
        # the zero operator passes the first residual check: one matvec
        if len(m) and not m.any():
            assert (res.value, res.iterations, res.residual) == (0.0, 1, 0.0)

    def test_max_iter_reports_best_residual(self):
        m = sparse_symmetric(300, 0.02, 6)
        # one matvec for the uniform start's residual; the second would be
        # the first Lanczos step
        v = np.full(300, 300**-0.5)
        first = np.max(np.abs(m @ v - (v @ m @ v) * v)) / np.max(v)
        with pytest.raises(ConvergenceError, match="best residual") as exc:
            lanczos(m, max_iter=1)
        assert exc.value.residual == pytest.approx(first, rel=1e-12)
        matvec, calls = counted(m)
        with pytest.raises(ConvergenceError) as exc:
            perron_value(matvec, 300, max_iter=8)
        assert len(calls) == 8
        assert 0.0 < exc.value.residual <= first


def model(R):
    """A ladder exactly on the 1/R^2 model, with limit 0.98."""
    return 0.98 - 1.0 / R**2


CASES = {
    # name: (radii, rho, limit, plateau)
    "rising-richardson": ((4, 6, 8), [model(4), model(6), model(8)], 0.98, False),
    "flat": ((4, 6, 8), [0.7, 0.7, 0.7], 0.7, True),
    "two-rungs-enough": ((4, 6), [model(4), model(6)], 0.98, False),
    "single-rung": ((5,), [0.6], 0.6, False),
    "non-monotone": ((4, 6, 8), [0.9, 0.95, 0.94], 0.95, False),
    "plateau-on": ((2, 4, 6, 8), [0.5, 0.9, 0.9995, 0.9999], 1.0, True),
    "plateau-skips-near-rung": ((4, 5, 6), [0.8, 0.9995, 0.9999], 1.0, False),
    "rho-above-one-capped": ((4, 6), [1.0 + 1e-12, 1.0 + 1e-12], 1.0, True),
    "radius-zero-rung": ((0, 2), [0.0, 0.5], 0.5, False),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_truncation_limit(name):
    radii, rho, want_limit, want_plateau = CASES[name]
    limit, plateau = truncation_limit(radii, rho)
    assert limit == pytest.approx(want_limit, abs=1e-12)
    assert plateau is want_plateau
    assert limit <= 1.0


def test_plateau_tolerance_is_strict():
    radii = (4, 6)
    assert truncation_limit(radii, [0.5, 0.5 + 0.5 * PLATEAU_TOL])[1]
    assert not truncation_limit(radii, [0.5, 0.5 + 2 * PLATEAU_TOL])[1]
