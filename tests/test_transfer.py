from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as P

from hillbands import Discriminant, PeriodicJacobi, band_edges_bisection, band_edges_eig, transfer
from hillbands.discriminant import chebyshev_nodes, gershgorin_interval

from helpers import exact_discriminant, monodromy_polynomials, power_coefficients, random_operator


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
    # The value march against the entries of M marched as polynomials.
    rng = np.random.default_rng(4)
    op = random_operator(rng, 6)
    entries = monodromy_polynomials(op)
    lams = np.linspace(-3, 3, 11)
    values, slopes = transfer.monodromy(op, lams)
    for i in range(2):
        for j in range(2):
            c = entries[i][j]
            assert c(lams) == pytest.approx(values[i, j], rel=1e-10, abs=1e-10)
            assert c.deriv()(lams) == pytest.approx(slopes[i, j], rel=1e-10, abs=1e-10)


def test_discriminant_coefficients_degree_and_leading():
    # The Chebyshev series of Delta on [lo, hi] has degree N, and its
    # top coefficient times 2^(N-1) (2 / (hi - lo))^N is 1 / prod(a).
    rng = np.random.default_rng(6)
    for period in (1, 2, 4, 7):
        op = random_operator(rng, period)
        disc = Discriminant.from_operator(op)
        lo, hi = disc.interval
        c = disc.chebyshev.coef
        assert c.size == period + 1
        leading = c[-1] * 2.0 ** (period - 1) * (2.0 / (hi - lo)) ** period
        assert leading == pytest.approx(1.0 / op.hopping_product(), rel=1e-12)


def test_dirichlet_minor_roots_match_submatrix():
    # Relabelled to start at site 1, the corner entry M[1, 0] vanishes
    # exactly at the eigenvalues of the chain with site 0 removed.
    rng = np.random.default_rng(8)
    op = random_operator(rng, 6)
    shifted = op.shifted(1)
    expected = np.linalg.eigvalsh(op.dirichlet_matrix())
    roots = np.sort(monodromy_polynomials(shifted)[1][0].roots().real)
    assert np.allclose(roots, expected, atol=1e-9)
    # The value march vanishes there to the rounding of its entries.
    m, _ = transfer.monodromy(shifted, expected)
    assert np.all(np.abs(m[1, 0]) <= 1e-12 * np.max(np.abs(m), axis=(0, 1)))


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
    c = power_coefficients(op)
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


def test_batched_value_march_equals_single_chains():
    # The batch runs the same elementwise operations as one chain at a time.
    rng = np.random.default_rng(10)
    lam = np.linspace(-3.5, 3.5, 9)
    for period in (1, 2, 5, 13):
        hopping = rng.uniform(0.4, 1.8, (period, 3, 4))
        onsite = rng.uniform(-1.5, 1.5, (period, 3, 4))
        batch = transfer.discriminant_batch(hopping, onsite, lam[:, None, None])
        assert batch.shape == (9, 3, 4)
        for i in range(3):
            for j in range(4):
                single = transfer.discriminant_value(
                    PeriodicJacobi(hopping[:, i, j], onsite[:, i, j]), lam)
                assert np.array_equal(batch[:, i, j], single)


def test_fused_delta_equals_the_value_march():
    # Rotation N - 1 of the Jacobian's batch is the chain itself, marched
    # with the same operations: its Delta is discriminant_value's, to the
    # bit. Rotated inputs give the same march.
    rng = np.random.default_rng(12)
    chains = [random_operator(rng, n) for n in range(1, 25)]
    chains += [PeriodicJacobi.free(n, rng.uniform(0.4, 1.8), rng.uniform(-1.5, 1.5))
               for n in range(1, 25)]
    for n, f_prev in ((89, 55), (144, 89)):
        chains.append(PeriodicJacobi(np.ones(n), 0.8 * np.cos(2 * np.pi * f_prev * np.arange(n) / n + 0.3)))
    for op in chains:
        lo, hi = gershgorin_interval(op)
        lam = np.concatenate([chebyshev_nodes((lo, hi), op.period), rng.uniform(lo, hi, 5)])
        delta, grad = transfer.discriminant_jacobian(op.hopping, op.onsite, lam)
        assert delta.shape == lam.shape and grad.shape == lam.shape + (2 * op.period,)
        assert np.array_equal(delta, transfer.discriminant_value(op, lam))
        index = transfer.rotations(op.period)
        rotated = transfer.discriminant_jacobian(op.hopping[index], op.onsite[index], lam)
        assert np.array_equal(rotated[0], delta)
        assert np.array_equal(rotated[1], grad)


@pytest.mark.parametrize("period", range(1, 13))
def test_coefficient_jacobian_matches_central_differences(period):
    # The Jacobian of Delta's node values, its coefficients in the
    # Lagrange basis of the nodes.
    rng = np.random.default_rng(100 + period)
    op = random_operator(rng, period)
    x = np.concatenate([np.log(op.hopping), op.onsite])
    nodes = chebyshev_nodes(gershgorin_interval(op), period)

    def coefficients(x):
        chain = PeriodicJacobi(np.exp(x[:period]), x[period:])
        return transfer.discriminant_value(chain, nodes)

    _, analytic = transfer.discriminant_jacobian(op.hopping, op.onsite, nodes)
    assert analytic.shape == (period + 1, 2 * period)
    fd = np.zeros_like(analytic)
    for j in range(2 * period):
        h = 1e-6 * max(1.0, abs(x[j]))
        step = np.zeros_like(x)
        step[j] = h
        fd[:, j] = (coefficients(x + step) - coefficients(x - step)) / (2.0 * h)
    assert np.max(np.abs(analytic - fd)) <= 1e-7 * max(1.0, np.max(np.abs(analytic)))
