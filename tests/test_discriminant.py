import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hillbands import Discriminant, PeriodicJacobi

from helpers import random_operator


def test_hand_computed_period_three():
    # a = (1,1,1), b = (1,0,0): expanding the periodic determinant by hand
    # gives lambda^3 - lambda^2 - 3 lambda + 1 for the monic form.
    op = PeriodicJacobi([1.0, 1.0, 1.0], [1.0, 0.0, 0.0])
    disc = Discriminant.from_operator(op)
    assert np.allclose(disc.monic_coefficients(), [1.0, -3.0, -1.0, 1.0], atol=1e-12)


def test_characteristic_polynomial_identity():
    # det(lambda I - J(theta)) == prod(a) * (Delta(lambda) - 2 cos theta)
    rng = np.random.default_rng(21)
    for period in (1, 2, 3, 5, 8):
        op = random_operator(rng, period)
        disc = Discriminant.from_operator(op)
        pa = op.hopping_product()
        for theta in (0.0, 0.9, np.pi / 2, np.pi):
            m = op.floquet_matrix(theta)
            for lam in (-2.1, 0.3, 1.9):
                det = np.linalg.det(lam * np.eye(period) - m).real
                assert det == pytest.approx(
                    pa * (disc(lam) - 2.0 * np.cos(theta)), rel=1e-9, abs=1e-9
                )


def test_free_matches_from_operator():
    op = PeriodicJacobi.free(6, hopping=0.9, onsite=-0.4)
    built = Discriminant.from_operator(op)
    closed = Discriminant.free(6, hopping=0.9, onsite=-0.4)
    assert np.allclose(built.coefficients, closed.coefficients, atol=1e-10)
    assert built.hopping_product == pytest.approx(closed.hopping_product)


def test_call_scalar_and_array():
    disc = Discriminant.from_operator(PeriodicJacobi([1.0, 1.0], [0.5, -0.5]))
    x = np.array([-2.0, 0.0, 2.0])
    vals = disc(x)
    assert vals.shape == (3,)
    assert disc(0.0) == pytest.approx(vals[1])


def test_derivative_matches_finite_difference():
    disc = Discriminant.from_operator(PeriodicJacobi([1.0, 0.7, 1.2], [0.1, 0.6, -0.3]))
    h = 1e-6
    for lam in (-1.5, 0.2, 2.4):
        fd = (disc(lam + h) - disc(lam - h)) / (2 * h)
        assert disc.derivative(lam) == pytest.approx(fd, rel=1e-7, abs=1e-7)


def test_monic_coefficients_leading_one():
    rng = np.random.default_rng(23)
    op = random_operator(rng, 5)
    monic = Discriminant.from_operator(op).monic_coefficients()
    assert monic[-1] == pytest.approx(1.0, abs=1e-14)


def test_trace_coefficient():
    # Second-highest monic coefficient is minus the sum of on-site terms.
    rng = np.random.default_rng(29)
    op = random_operator(rng, 7)
    monic = Discriminant.from_operator(op).monic_coefficients()
    assert monic[-2] == pytest.approx(-op.onsite.sum(), rel=1e-10)


def test_coefficient_key_and_allclose():
    op = PeriodicJacobi([1.0, 1.0, 1.0], [0.3, -0.1, 0.4])
    d1 = Discriminant.from_operator(op)
    d2 = Discriminant.from_operator(op.shifted(1))
    assert d1.coefficient_key() == d2.coefficient_key()
    assert d1.allclose(d2)
    d3 = Discriminant.from_operator(PeriodicJacobi([1.0, 1.0, 1.0], [0.3, -0.1, 0.5]))
    assert d1.coefficient_key() != d3.coefficient_key()
    assert not d1.allclose(d3)


@given(
    st.integers(min_value=2, max_value=7),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_dihedral_invariance(period, seed):
    # Cyclic shifts and reflection leave the discriminant unchanged.
    rng = np.random.default_rng(seed)
    op = random_operator(rng, period)
    disc = Discriminant.from_operator(op)
    shift = Discriminant.from_operator(op.shifted(rng.integers(1, period)))
    refl = Discriminant.from_operator(op.reflected())
    assert np.allclose(disc.coefficients, shift.coefficients, rtol=1e-9, atol=1e-9)
    assert np.allclose(disc.coefficients, refl.coefficients, rtol=1e-9, atol=1e-9)
