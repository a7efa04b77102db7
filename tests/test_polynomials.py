"""Polynomial arithmetic of the discriminant.

`Discriminant` holds Delta as an ascending power-basis coefficient
array; these tests check its evaluation, derivative, monic scaling and
the affine change of variable inside `Discriminant.free`.
"""

import numpy as np

from hillbands import Discriminant, PeriodicJacobi


def test_derivative():
    # d/dx (1 + 2x + 3x^2) = 2 + 6x
    x = np.array([-1.0, 0.0, 2.0])
    assert Discriminant([1.0, 2.0, 3.0], 1.0).derivative(x).tolist() == [-4.0, 2.0, 14.0]
    assert Discriminant([4.0], 1.0).derivative(x).tolist() == [0.0, 0.0, 0.0]


def test_evaluate_matches_direct_sum():
    c = [1.0, -2.0, 0.5, 3.0]
    x = np.array([-1.3, 0.0, 0.7, 2.5])
    direct = sum(ck * x**k for k, ck in enumerate(c))
    assert np.allclose(Discriminant(c, 1.0)(x), direct, rtol=1e-14)


def test_monic():
    # a = (2, 1), b = (0, 0): (prod a) Delta = lam^2 - a_0^2 - a_1^2
    op = PeriodicJacobi([2.0, 1.0], [0.0, 0.0])
    m = Discriminant.from_operator(op).monic_coefficients()
    assert np.allclose(m, [-5.0, 0.0, 1.0])


def test_from_roots_expands_product():
    # Free chain, period 3: (prod a) Delta = lam^3 - 3 lam
    # = (lam + sqrt 3) lam (lam - sqrt 3).
    c = Discriminant.from_operator(PeriodicJacobi.free(3)).monic_coefficients()
    assert np.allclose(c, [0.0, -3.0, 0.0, 1.0])


def test_affine_compose_matches_pointwise():
    # free(N, a, b)(lam) = 2 T_N((lam - b) / (2a)) = free(N, 1/2, 0) at the
    # rescaled point.
    alpha, beta = 0.7, -1.2
    comp = Discriminant.free(3, alpha, beta)
    base = Discriminant.free(3, 0.5, 0.0)
    x = np.linspace(-2, 2, 17)
    assert np.allclose(comp(x), base((x - beta) / (2.0 * alpha)), rtol=1e-13)
