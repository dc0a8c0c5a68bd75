"""The truncation-ladder limit rule shared by the skew and walk ladders."""

import pytest

from gdms.linalg import PLATEAU_TOL, truncation_limit


def model(R):
    """A ladder exactly on the 1/R^2 model, with limit 0.98."""
    return 0.98 - 1.0 / R**2


CASES = {
    # name: (radii, rho, min_rungs, limit, plateau)
    "rising-richardson": ((4, 6, 8), [model(4), model(6), model(8)], 3, 0.98, False),
    "flat": ((4, 6, 8), [0.7, 0.7, 0.7], 3, 0.7, True),
    "too-few-rungs": ((4, 6), [model(4), model(6)], 3, model(6), False),
    "two-rungs-enough": ((4, 6), [model(4), model(6)], 2, 0.98, False),
    "single-rung": ((5,), [0.6], 2, 0.6, False),
    "non-monotone": ((4, 6, 8), [0.9, 0.95, 0.94], 3, 0.95, False),
    "plateau-on": ((2, 4, 6, 8), [0.5, 0.9, 0.9995, 0.9999], 3, 1.0, True),
    "plateau-skips-near-rung": ((4, 5, 6), [0.8, 0.9995, 0.9999], 3, 1.0, False),
    "rho-above-one-capped": ((4, 6), [1.0 + 1e-12, 1.0 + 1e-12], 2, 1.0, True),
    "radius-zero-rung": ((0, 2), [0.0, 0.5], 2, 0.5, False),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_truncation_limit(name):
    radii, rho, min_rungs, want_limit, want_plateau = CASES[name]
    limit, plateau = truncation_limit(radii, rho, min_rungs)
    assert limit == pytest.approx(want_limit, abs=1e-12)
    assert plateau is want_plateau
    assert limit <= 1.0


def test_plateau_tolerance_is_strict():
    radii = (4, 6)
    assert truncation_limit(radii, [0.5, 0.5 + 0.5 * PLATEAU_TOL], 3)[1]
    assert not truncation_limit(radii, [0.5, 0.5 + 2 * PLATEAU_TOL], 3)[1]
