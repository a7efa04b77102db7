"""Polynomial arithmetic of the discriminant.

`Discriminant` holds Delta by its values at the Chebyshev extreme
points of an interval; these tests check that any polynomial of degree
at most N held that way evaluates and differentiates as itself, the
monic scaling read off its series, and the affine change of variable
inside the closed form `helpers.free_discriminant`.
"""

import numpy as np
from numpy.polynomial import Polynomial

from hillbands import Discriminant, PeriodicJacobi
from hillbands.inverse import chebyshev_nodes

from helpers import free_discriminant, monic_coefficients


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
    c = monic_coefficients(Discriminant.from_operator(PeriodicJacobi.free(3)))
    assert np.allclose(c, [0.0, -3.0, 0.0, 1.0])


def test_affine_compose_matches_pointwise():
    # free(N, a, b)(lam) = 2 T_N((lam - b) / (2a)) = free(N, 1/2, 0) at the
    # rescaled point.
    alpha, beta = 0.7, -1.2
    comp = free_discriminant(3, alpha, beta)
    base = free_discriminant(3, 0.5, 0.0)
    x = np.linspace(-2, 2, 17)
    assert np.allclose(comp.chebyshev(x), base.chebyshev((x - beta) / (2.0 * alpha)), rtol=1e-13)
