import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import Polynomial

from hillbands import Discriminant, PeriodicJacobi
from hillbands.inverse import chebyshev_nodes

from helpers import (
    exact_discriminant,
    floquet_matrix,
    free_chain,
    free_discriminant,
    monic_coefficients,
    power_coefficients,
    random_operator,
)


def test_hand_computed_period_three():
    # a = (1,1,1), b = (1,0,0): expanding the periodic determinant by hand
    # gives lambda^3 - lambda^2 - 3 lambda + 1 for the monic form.
    op = PeriodicJacobi([1.0, 1.0, 1.0], [1.0, 0.0, 0.0])
    disc = Discriminant.from_operator(op)
    assert np.allclose(monic_coefficients(disc), [1.0, -3.0, -1.0, 1.0], atol=1e-12)


def test_characteristic_polynomial_identity():
    # det(lambda I - J(theta)) == prod(a) * (Delta(lambda) - 2 cos theta)
    rng = np.random.default_rng(21)
    for period in (1, 2, 3, 5, 8):
        op = random_operator(rng, period)
        disc = Discriminant.from_operator(op)
        pa = np.prod(op.hopping)
        for theta in (0.0, 0.9, np.pi / 2, np.pi):
            m = floquet_matrix(op, theta)
            for lam in (-2.1, 0.3, 1.9):
                det = np.linalg.det(lam * np.eye(period) - m).real
                assert det == pytest.approx(
                    pa * (disc.chebyshev(lam) - 2.0 * np.cos(theta)), rel=1e-9, abs=1e-9
                )


def test_free_matches_from_operator():
    op = free_chain(6, hopping=0.9, onsite=-0.4)
    built = Discriminant.from_operator(op)
    closed = free_discriminant(6, hopping=0.9, onsite=-0.4)
    assert built.interval == closed.interval
    assert np.allclose(built.values, closed.values, atol=1e-10)
    assert built.log_hopping_product == pytest.approx(closed.log_hopping_product)


def test_call_scalar_and_array():
    disc = Discriminant.from_operator(PeriodicJacobi([1.0, 1.0], [0.5, -0.5]))
    x = np.array([-2.0, 0.0, 2.0])
    vals = disc.chebyshev(x)
    assert vals.shape == (3,)
    assert disc.chebyshev(0.0) == pytest.approx(vals[1])


def test_derivative_matches_finite_difference():
    disc = Discriminant.from_operator(PeriodicJacobi([1.0, 0.7, 1.2], [0.1, 0.6, -0.3]))
    h = 1e-6
    for lam in (-1.5, 0.2, 2.4):
        fd = (disc.chebyshev(lam + h) - disc.chebyshev(lam - h)) / (2 * h)
        assert disc.chebyshev.deriv()(lam) == pytest.approx(fd, rel=1e-7, abs=1e-7)


def test_monic_coefficients_leading_one():
    rng = np.random.default_rng(23)
    op = random_operator(rng, 5)
    monic = monic_coefficients(Discriminant.from_operator(op))
    assert monic[-1] == pytest.approx(1.0, abs=1e-14)


def test_trace_coefficient():
    # Second-highest monic coefficient is minus the sum of on-site terms.
    rng = np.random.default_rng(29)
    op = random_operator(rng, 7)
    monic = monic_coefficients(Discriminant.from_operator(op))
    assert monic[-2] == pytest.approx(-op.onsite.sum(), rel=1e-10)


def test_node_values_identify_the_spectrum():
    # On one interval, chains of one period share their node values
    # exactly when they share Delta.
    op = PeriodicJacobi([1.0, 1.0, 1.0], [0.3, -0.1, 0.4])
    d1 = Discriminant.from_operator(op)
    d2 = Discriminant.from_operator(op.shifted(1), d1.interval)
    assert np.allclose(d1.values, d2.values, rtol=0.0, atol=1e-9)
    other = PeriodicJacobi([1.0, 1.0, 1.0], [0.3, -0.1, 0.5])
    d3 = Discriminant.from_operator(other, d1.interval)
    assert not np.allclose(d1.values, d3.values, rtol=0.0, atol=1e-9)


@given(
    st.integers(min_value=2, max_value=7),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_dihedral_invariance(period, seed):
    # Cyclic shifts and reflection leave the discriminant unchanged.
    rng = np.random.default_rng(seed)
    op = random_operator(rng, period)
    coeffs = power_coefficients(op)
    shift = power_coefficients(op.shifted(rng.integers(1, period)))
    refl = power_coefficients(op.reflected())
    assert np.allclose(coeffs, shift, rtol=1e-9, atol=1e-9)
    assert np.allclose(coeffs, refl, rtol=1e-9, atol=1e-9)


def twice_chebyshev_t(period, hopping, onsite, lam):
    """2 T_N((lam - b) / 2a) at the doubles lam, in extended precision."""
    x = (np.asarray(lam, dtype=np.longdouble) - onsite) / (2 * np.longdouble(hopping))
    inside = np.abs(x) <= 1
    out = np.empty(x.shape, dtype=np.longdouble)
    out[inside] = 2 * np.cos(period * np.arccos(x[inside]))
    far = x[~inside]
    out[~inside] = 2 * np.sign(far) ** period * np.cosh(period * np.arccosh(np.abs(far)))
    return out


@pytest.mark.parametrize("period", [60, 100, 400])
def test_uniform_chain_matches_twice_chebyshev_t(period):
    # The interval of a uniform chain is its band, where |Delta| <= 2.
    # With a = 1, b = 0 the site factor lam is exact, and Delta agrees
    # with 2 T_N at the nodes and between them to 1e-12 max|Delta|.
    # Elsewhere (lam - b) / a is rounded once, which moves Delta by up to
    # N^2 eps max|Delta| at the band ends, where |Delta'| = N^2 / a.
    eps = np.finfo(float).eps
    for a, b, slack in ((1.0, 0.0, 0.0), (0.9, -0.2, eps * period**2), (1.347, -1.318, eps * period**2)):
        disc = Discriminant.from_operator(free_chain(period, a, b))
        top = np.max(np.abs(disc.values))
        nodes = chebyshev_nodes(disc.interval, period)
        grid = np.linspace(*disc.interval, 4001)
        for lam, got in ((nodes, disc.values), (grid, disc.chebyshev(grid))):
            err = np.max(np.abs(got - twice_chebyshev_t(period, a, b, lam)))
            assert err <= (1e-12 + slack) * top


def test_random_chains_match_exact_arithmetic_at_the_nodes():
    rng = np.random.default_rng(31)
    for period in (1, 2, 5, 16, 33, 64):
        op = random_operator(rng, period)
        disc = Discriminant.from_operator(op)
        nodes = chebyshev_nodes(disc.interval, period)
        exact = np.array([float(exact_discriminant(op, x)[0]) for x in nodes])
        assert np.max(np.abs(disc.values - exact)) <= 1e-12 * np.max(np.abs(exact))
        assert np.allclose(disc.chebyshev(nodes), disc.values, rtol=0.0, atol=1e-12 * np.max(np.abs(exact)))


def test_log_hopping_product_outlives_the_float_range():
    for a in (10.0, 0.1):
        disc = Discriminant.from_operator(free_chain(400, a, 0.3))
        assert disc.log_hopping_product == pytest.approx(400 * np.log(a), rel=1e-14)


def test_empty_interval_rejected():
    with pytest.raises(ValueError):
        Discriminant((1.0, 1.0), [2.0, -2.0], 0.0)


def test_node_values_must_be_one_dimensional():
    # A table of node values was accepted, and failed only in .chebyshev
    # with numpy's "Coefficient array is not 1-d"; an empty one failed in
    # .to_dict and recover_onsite with "Coefficient array is empty".
    for values in ([[1.0, 2.0], [3.0, 4.0]], np.zeros((3, 1)), np.zeros((1, 1, 2))):
        with pytest.raises(ValueError, match="of shape .* are not one-dimensional"):
            Discriminant((0.0, 1.0), values, 0.0)
    for values in ([], np.zeros(0)):
        with pytest.raises(ValueError, match="table of node values of Delta is empty"):
            Discriminant((0.0, 1.0), values, 0.0)


def test_node_values_and_log_product_must_be_finite():
    # Refused at construction, so that recover_onsite never blames a NaN
    # node value on the float range.
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="1 of the 3 node values of Delta are not finite"):
            Discriminant((-2.0, 2.0), [2.0, bad, 2.0], 0.0)
        with pytest.raises(ValueError, match="log\\(prod a\\) = .* is not finite"):
            Discriminant((-2.0, 2.0), [2.0, -2.0, 2.0], bad)
        # An interval end too: it would give .chebyshev an infinite domain.
        for interval in ((bad, 1.0), (-1.0, bad)):
            with pytest.raises(ValueError, match="has an end that is not finite"):
                Discriminant(interval, [1.0, 2.0], 0.0)


def held(coefficients, interval=(-1.0, 2.0)):
    """The power series `coefficients` as a Discriminant on interval."""
    nodes = chebyshev_nodes(interval, len(coefficients) - 1)
    return Discriminant(interval, Polynomial(coefficients)(nodes), 0.0)


def test_derivative():
    # d/dx (1 + 2x + 3x^2) = 2 + 6x
    x = np.array([-1.0, 0.0, 2.0])
    assert np.allclose(held([1.0, 2.0, 3.0]).chebyshev.deriv()(x), [-4.0, 2.0, 14.0], rtol=1e-14, atol=0.0)
    assert held([4.0]).chebyshev.deriv()(x).tolist() == [0.0, 0.0, 0.0]


def test_evaluate_matches_direct_sum():
    c = [1.0, -2.0, 0.5, 3.0]
    x = np.array([-1.3, 0.0, 0.7, 2.5])
    direct = sum(ck * x**k for k, ck in enumerate(c))
    assert np.allclose(held(c, (-1.5, 2.5)).chebyshev(x), direct, rtol=1e-14)


def test_monic():
    # a = (2, 1), b = (0, 0): (prod a) Delta = lam^2 - a_0^2 - a_1^2
    op = PeriodicJacobi([2.0, 1.0], [0.0, 0.0])
    m = monic_coefficients(Discriminant.from_operator(op))
    assert np.allclose(m, [-5.0, 0.0, 1.0])


def test_from_roots_expands_product():
    # Free chain, period 3: (prod a) Delta = lam^3 - 3 lam
    # = (lam + sqrt 3) lam (lam - sqrt 3).
    c = monic_coefficients(Discriminant.from_operator(free_chain(3)))
    assert np.allclose(c, [0.0, -3.0, 0.0, 1.0])


def test_affine_compose_matches_pointwise():
    # free(N, a, b)(lam) = 2 T_N((lam - b) / (2a)) = free(N, 1/2, 0) at the
    # rescaled point.
    alpha, beta = 0.7, -1.2
    comp = free_discriminant(3, alpha, beta)
    base = free_discriminant(3, 0.5, 0.0)
    x = np.linspace(-2, 2, 17)
    assert np.allclose(comp.chebyshev(x), base.chebyshev((x - beta) / (2.0 * alpha)), rtol=1e-13)
