"""Chebyshev polynomials as the chain produces them.

The constant chain with a = 1/2, b = 0 runs the Chebyshev recurrence
u_{n+1} = 2 x u_n - u_{n-1}, so its monodromy over N sites holds
Delta = 2 T_N(x) and M[1, 0] = U_{N-1}(x), and its interval is
[-1, 1] itself. These tests check the transfer march, the Chebyshev
series `Discriminant` builds from node values, and the closed form
`helpers.free_discriminant` against the Chebyshev identities.
"""

import numpy as np
import numpy.polynomial.chebyshev as C
import pytest
from numpy.polynomial import Polynomial

from hillbands import Discriminant, transfer
from hillbands.inverse import chebyshev_nodes

from helpers import free_chain, free_discriminant


def chebyshev_chain(n):
    return free_chain(n, 0.5, 0.0)


def power(disc):
    """Ascending power-basis coefficients of a Discriminant's series."""
    return disc.chebyshev.convert(kind=Polynomial).coef


def u_series(n):
    """U_n held as a Discriminant on [-1, 1]: marched values at its nodes."""
    return Discriminant((-1.0, 1.0), u_values(n, chebyshev_nodes((-1.0, 1.0), n + 1)), 0.0)


def t_values(n, x):
    """T_n(x) by the recurrence of the period-n chain."""
    chain = chebyshev_chain(n)
    return 0.5 * transfer.discriminant(chain.hopping, chain.onsite, x)[0]


def u_values(n, x):
    """U_n(x), the corner entry M[1, 0] of the period-(n + 1) chain."""
    return transfer.monodromy(chebyshev_chain(n + 1), x)[0][1, 0]


@pytest.mark.parametrize("n", range(9))
def test_t_coefficients_match_numpy(n):
    # Oracle: numpy's Chebyshev-to-power-basis conversion.
    basis = np.zeros(n + 1)
    basis[n] = 1.0
    expected = C.cheb2poly(basis)
    free = 0.5 * power(free_discriminant(n, 0.5, 0.0))
    assert np.allclose(free, expected, atol=1e-12)
    if n >= 1:
        marched = 0.5 * power(Discriminant.from_operator(chebyshev_chain(n)))
        assert np.allclose(marched, expected, atol=1e-12)


@pytest.mark.parametrize("n", range(1, 9))
def test_u_coefficients_match_derivative_identity(n):
    # U_{n-1} = T_n' / n; the corner has degree n - 1 in a degree-n
    # series, so its top coefficient is 0.
    t = 0.5 * free_discriminant(n, 0.5, 0.0).chebyshev.coef
    expected = np.append(C.chebder(t) / n, 0.0)
    corner = u_series(n - 1).chebyshev.coef
    assert np.allclose(corner, expected, atol=1e-12)


def test_t_eval_inside_interval():
    x = np.linspace(-1, 1, 101)
    assert np.allclose(0.5 * free_discriminant(0, 0.5, 0.0).chebyshev(x), 1.0, atol=1e-12)
    for n in (1, 2, 5, 11):
        assert np.allclose(t_values(n, x), np.cos(n * np.arccos(x)), atol=1e-12)


def test_t_eval_outside_interval_matches_coefficients():
    # The series built on [-1, 1] extrapolates to the march's values.
    x = np.array([-6.0, -1.5, 1.5, 3.0, 20.0])
    for n in (1, 2, 3, 7):
        series = 0.5 * Discriminant.from_operator(chebyshev_chain(n)).chebyshev(x)
        closed = np.sign(x) ** n * np.cosh(n * np.arccosh(np.abs(x)))
        assert np.allclose(t_values(n, x), series, rtol=1e-10)
        assert np.allclose(t_values(n, x), closed, rtol=1e-10)


def test_u_eval_matches_coefficients_everywhere():
    x = np.concatenate([np.linspace(-0.99, 0.99, 21), [-4.0, -1.2, 1.2, 4.0]])
    inside = np.abs(x) < 1.0
    t = np.arccos(x[inside])
    for n in (0, 1, 2, 6):
        assert np.allclose(u_values(n, x), u_series(n).chebyshev(x), rtol=1e-9)
        closed = np.sin((n + 1) * t) / np.sin(t)
        assert np.allclose(u_values(n, x)[inside], closed, rtol=1e-9)


def test_composition_identity():
    # T_m(T_n(x)) = T_{mn}(x): the period-mn chain is the period-n cell
    # repeated m times.
    x = np.linspace(-2, 2, 41)
    for m, n in [(2, 3), (3, 2), (2, 2)]:
        assert np.allclose(
            t_values(m, t_values(n, x)),
            t_values(m * n, x),
            rtol=1e-9,
            atol=1e-9,
        )


def test_pell_identity():
    # T_n^2 - (x^2 - 1) U_{n-1}^2 = 1, det M = 1 for the Chebyshev chain
    x = np.linspace(-1.5, 1.5, 31)
    for n in (1, 2, 4, 7):
        lhs = t_values(n, x) ** 2 - (x**2 - 1) * u_values(n - 1, x) ** 2
        assert np.allclose(lhs, 1.0, atol=1e-9)


def test_negative_degree_rejected():
    with pytest.raises(ValueError):
        free_discriminant(-1)
    with pytest.raises(ValueError):
        free_chain(0)
