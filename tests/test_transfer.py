from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as P

from hillbands import PeriodicJacobi, band_edges_bisection, band_edges_eig, transfer

from helpers import exact_discriminant, random_operator


def test_monodromy_advances_recurrence():
    op = PeriodicJacobi([1.0, 0.7, 1.3], [0.2, -0.4, 0.1])
    lam = 0.37
    # Manual three-term recurrence with the same periodic hopping convention.
    a, b = op.hopping, op.onsite
    u = [0.5, 1.0]  # u_{-1}, u_0
    for n in range(3):
        a_prev = a[(n - 1) % 3]
        u.append(((lam - b[n]) * u[-1] - a_prev * u[-2]) / a[n])
    m, _ = transfer.monodromy(op, lam)
    assert m @ np.array([1.0, 0.5]) == pytest.approx(np.array([u[-1], u[-2]]))


def test_monodromy_det_is_one():
    rng = np.random.default_rng(2)
    for period in (1, 2, 5, 9):
        op = random_operator(rng, period)
        m, _ = transfer.monodromy(op, np.array([-1.7, 0.0, 2.3]))
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        assert det == pytest.approx(np.ones(3), abs=1e-12)


def test_monodromy_coefficients_match_values():
    rng = np.random.default_rng(4)
    op = random_operator(rng, 6)
    entries = transfer.monodromy_coefficients(op.hopping, op.onsite)
    lams = np.linspace(-3, 3, 11)
    values, slopes = transfer.monodromy(op, lams)
    for i in range(2):
        for j in range(2):
            c = entries[i, j]
            assert P.polyval(lams, c) == pytest.approx(values[i, j], rel=1e-10, abs=1e-10)
            assert P.polyval(lams, P.polyder(c)) == pytest.approx(
                slopes[i, j], rel=1e-10, abs=1e-10
            )


def test_discriminant_coefficients_degree_and_leading():
    rng = np.random.default_rng(6)
    for period in (1, 2, 4, 7):
        op = random_operator(rng, period)
        c = transfer.discriminant_coefficients(op.hopping, op.onsite)
        assert c.size == period + 1
        assert c[-1] == pytest.approx(1.0 / op.hopping_product(), rel=1e-12)


def test_dirichlet_minor_roots_match_submatrix():
    # Relabelled to start at site 1, the corner entry M[1, 0] vanishes
    # exactly at the eigenvalues of the chain with site 0 removed.
    rng = np.random.default_rng(8)
    op = random_operator(rng, 6)
    shifted = op.shifted(1)
    c = transfer.monodromy_coefficients(shifted.hopping, shifted.onsite)[1, 0]
    expected = np.linalg.eigvalsh(op.dirichlet_matrix())
    roots = np.sort(P.polyroots(c[:-1]).real)
    assert np.allclose(roots, expected, atol=1e-9)


@given(
    st.integers(min_value=1, max_value=6),
    st.floats(-2.5, 2.5, allow_nan=False),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_trace_equals_discriminant_polynomial(period, lam, seed):
    rng = np.random.default_rng(seed)
    op = random_operator(rng, period)
    m, _ = transfer.monodromy(op, lam)
    delta, slope = transfer.discriminant(op, lam)
    c = transfer.discriminant_coefficients(op.hopping, op.onsite)
    assert transfer.discriminant_value(op, lam) == delta
    assert delta == pytest.approx(np.trace(m), rel=1e-15, abs=1e-15)
    assert P.polyval(lam, c) == pytest.approx(delta, rel=1e-9, abs=1e-9)
    assert P.polyval(lam, P.polyder(c)) == pytest.approx(slope, rel=1e-9, abs=1e-9)


def test_rounding_bound_covers_the_exact_discriminant():
    # Random chains and repeated cells, at the band edges, the gap
    # middles and random energies, against exact arithmetic.
    rng = np.random.default_rng(12)
    chains = [random_operator(rng, period) for period in (1, 2, 5, 9, 16, 24)]
    for copies in (2, 3, 5):
        cell = random_operator(rng, 3)
        chains.append(PeriodicJacobi(np.tile(cell.hopping, copies), np.tile(cell.onsite, copies)))
    for op in chains:
        edges = band_edges_eig(op)
        lam = np.concatenate(
            [edges, 0.5 * (edges[1:-1:2] + edges[2::2]), rng.uniform(-3.5, 3.5, 4)]
        )
        delta, bound = transfer.discriminant_rounding(op, lam)
        assert np.array_equal(delta, transfer.discriminant_value(op, lam))
        error = [abs(Fraction(d) - exact_discriminant(op, x)[0]) for d, x in zip(delta, lam)]
        assert all(e <= Fraction(b) for e, b in zip(error, bound))


def _weak_bond_chain(period):
    rng = np.random.default_rng(period)
    return random_operator(rng, period, hop_range=(0.05, 0.1))


def test_monodromy_overflow_raises():
    # |M| grows like prod|lam - b| / prod a, past 1e308 at N = 300.
    op = _weak_bond_chain(300)
    with pytest.raises(ValueError, match="overflow"):
        transfer.monodromy(op, np.array([0.0, 1.7]))
    # A denormal bond overflows the site factors before the first step.
    with pytest.raises(ValueError, match="overflow"):
        transfer.discriminant_value(PeriodicJacobi([1e-310, 1.0], [0.0, 0.5]), 0.3)
    # The rounding bound can pass the float range where the march does not.
    op = _weak_bond_chain(241)
    transfer.discriminant_value(op, np.array([1.7]))
    with pytest.raises(ValueError, match="overflow"):
        transfer.discriminant_rounding(op, np.array([1.7]))


def test_bisection_on_overflowing_chain_raises():
    with pytest.raises(ValueError, match="overflow"):
        band_edges_bisection(_weak_bond_chain(300))


def test_bisection_on_weak_bonds_below_overflow_matches_eig():
    op = _weak_bond_chain(100)
    scale = max(1.0, np.max(np.abs(op.onsite)) + 2.0 * np.max(op.hopping))
    err = np.max(np.abs(band_edges_bisection(op) - band_edges_eig(op)))
    assert err <= 1e-9 * scale


def test_batched_coefficient_march_equals_single_chains():
    # The batch runs the same elementwise operations as one chain at a time.
    rng = np.random.default_rng(10)
    for period in (1, 2, 5, 13):
        hopping = rng.uniform(0.4, 1.8, (3, 4, period))
        onsite = rng.uniform(-1.5, 1.5, (3, 4, period))
        m = transfer.monodromy_coefficients(hopping, onsite)
        c = transfer.discriminant_coefficients(hopping, onsite)
        assert m.shape == (3, 4, 2, 2, period + 1)
        assert c.shape == (3, 4, period + 1)
        for i in range(3):
            for j in range(4):
                single = transfer.monodromy_coefficients(hopping[i, j], onsite[i, j])
                assert np.array_equal(m[i, j], single)
                assert np.array_equal(
                    c[i, j], transfer.discriminant_coefficients(hopping[i, j], onsite[i, j])
                )


@pytest.mark.parametrize("period", range(1, 13))
def test_coefficient_jacobian_matches_central_differences(period):
    rng = np.random.default_rng(100 + period)
    op = random_operator(rng, period)
    x = np.concatenate([np.log(op.hopping), op.onsite])

    def coefficients(x):
        chain = PeriodicJacobi(np.exp(x[:period]), x[period:])
        return transfer.discriminant_coefficients(chain.hopping, chain.onsite)

    analytic = transfer.coefficient_jacobian(op)
    assert analytic.shape == (period + 1, 2 * period)
    fd = np.zeros_like(analytic)
    for j in range(2 * period):
        h = 1e-6 * max(1.0, abs(x[j]))
        step = np.zeros_like(x)
        step[j] = h
        fd[:, j] = (coefficients(x + step) - coefficients(x - step)) / (2.0 * h)
    assert np.max(np.abs(analytic - fd)) <= 1e-7 * max(1.0, np.max(np.abs(analytic)))
