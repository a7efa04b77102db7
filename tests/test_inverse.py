import numpy as np
import pytest

from hillbands import (
    Discriminant,
    PeriodicJacobi,
    band_edges_eig,
    discriminant_from_edges,
    newton_solve,
    recover_onsite,
    recover_operator_from_edges,
    transfer,
)
from hillbands.discriminant import chebyshev_nodes, gershgorin_interval
from hillbands.inverse import monic_map

from helpers import power_coefficients, random_operator


def test_newton_solve_scalar_system():
    root = newton_solve(
        lambda x: np.array([x[0] ** 2 - 4.0]),
        lambda x: np.array([[2.0 * x[0]]]),
        [1.0],
    )
    assert root[0] == pytest.approx(2.0, abs=1e-12)


def test_newton_solve_two_dimensional():
    # Intersection of a circle and a line.
    def fun(x):
        return np.array([x[0] ** 2 + x[1] ** 2 - 2.0, x[0] - x[1]])

    def jac(x):
        return np.array([[2.0 * x[0], 2.0 * x[1]], [1.0, -1.0]])

    root = newton_solve(fun, jac, [2.0, 0.5])
    assert np.allclose(root, [1.0, 1.0], atol=1e-10)


def test_newton_solve_reports_failure():
    with pytest.raises(RuntimeError):
        newton_solve(
            lambda x: np.array([x[0] ** 2 + 1.0]),
            lambda x: np.array([[2.0 * x[0]]]),
            [1.0],
            max_iter=20,
        )


def test_newton_solve_callback_sees_progress():
    norms = []
    newton_solve(
        lambda x: np.array([x[0] ** 2 - 4.0]),
        lambda x: np.array([[2.0 * x[0]]]),
        [10.0],
        callback=lambda k, x, r: norms.append(r),
    )
    assert len(norms) >= 2
    assert norms[-1] < norms[0]


def test_onsite_jacobian_matches_finite_differences():
    rng = np.random.default_rng(41)
    op = random_operator(rng, 5)
    n = op.period

    def coeff_map(b):
        return op.hopping_product() * power_coefficients(PeriodicJacobi(op.hopping, b))[:n]

    nodes = chebyshev_nodes(gershgorin_interval(op), n)
    analytic = monic_map(nodes, op.hopping_product())[:n] @ transfer.discriminant_jacobian(op, nodes)[:, n:]
    h = 1e-6
    fd = np.zeros((n, n))
    for j in range(n):
        bp, bm = op.onsite.copy(), op.onsite.copy()
        bp[j] += h
        bm[j] -= h
        fd[:, j] = (coeff_map(bp) - coeff_map(bm)) / (2.0 * h)
    assert np.allclose(analytic, fd, atol=1e-7)


def test_recover_onsite_near_truth():
    rng = np.random.default_rng(43)
    op = random_operator(rng, 6)
    disc = Discriminant.from_operator(op)
    start = op.onsite + rng.uniform(-0.05, 0.05, op.period)
    found = recover_onsite(disc, op.hopping, initial=start)
    assert np.allclose(found.onsite, op.onsite, atol=1e-9)


def test_recover_onsite_default_start_reproduces_discriminant():
    rng = np.random.default_rng(47)
    op = random_operator(rng, 4)
    disc = Discriminant.from_operator(op)
    found = recover_onsite(disc, op.hopping)
    # Whichever solution branch Newton lands on, the spectrum must match.
    assert np.allclose(power_coefficients(found), power_coefficients(op), rtol=0.0, atol=1e-9)


def test_recover_onsite_accepts_raw_coefficients():
    op = PeriodicJacobi([1.0, 1.0], [0.4, -0.4])
    coeffs = power_coefficients(op)
    found = recover_onsite(coeffs, [1.0, 1.0], initial=[0.3, -0.3])
    assert np.allclose(np.sort(found.onsite), [-0.4, 0.4], atol=1e-10)


def test_recover_onsite_validates_input():
    op = PeriodicJacobi([1.0, 1.0], [0.4, -0.4])
    disc = Discriminant.from_operator(op)
    with pytest.raises(ValueError):
        recover_onsite(disc, [1.0, 1.0, 1.0])  # degree/period mismatch
    with pytest.raises(ValueError):
        recover_onsite(disc, [2.0, 1.0])  # leading coefficient inconsistent
    with pytest.raises(ValueError):
        recover_onsite(np.array([-2.16, 0.0, 1.0]))  # coefficients without hoppings


def test_discriminant_from_edges_round_trip():
    rng = np.random.default_rng(53)
    op = random_operator(rng, 5)
    per = op.floquet_eigenvalues(0.0)
    anti = op.floquet_eigenvalues(np.pi)
    disc = discriminant_from_edges(per, anti)
    truth = Discriminant.from_operator(op, disc.interval)
    assert disc.interval == (min(per[0], anti[0]), max(per[-1], anti[-1]))
    assert np.exp(disc.log_hopping_product) == pytest.approx(op.hopping_product(), rel=1e-10)
    assert np.allclose(disc.values, truth.values, atol=1e-9)


def test_discriminant_from_edges_rejects_bad_data():
    op = PeriodicJacobi([1.0, 0.8, 1.1], [0.2, -0.5, 0.4])
    per = op.floquet_eigenvalues(0.0)
    anti = op.floquet_eigenvalues(np.pi)
    with pytest.raises(ValueError):
        discriminant_from_edges(per, anti[:2])  # count mismatch
    with pytest.raises(ValueError):
        discriminant_from_edges(anti, per)  # swapped data flips the constant
    noisy = anti.copy()
    noisy[0] += 0.3
    with pytest.raises(ValueError):
        discriminant_from_edges(per, noisy)  # difference no longer constant


def test_recover_operator_from_edges_uniform_hopping():
    op = PeriodicJacobi.free(4, hopping=1.0, onsite=0.0)
    onsite = np.array([0.6, -0.2, 0.1, -0.5])
    op = PeriodicJacobi(op.hopping, onsite)
    per = op.floquet_eigenvalues(0.0)
    anti = op.floquet_eigenvalues(np.pi)
    found = recover_operator_from_edges(per, anti)
    assert np.allclose(band_edges_eig(found), np.sort(np.concatenate([per, anti])), atol=1e-8)


def test_recover_operator_from_edges_with_known_hopping():
    rng = np.random.default_rng(59)
    op = random_operator(rng, 4)
    per = op.floquet_eigenvalues(0.0)
    anti = op.floquet_eigenvalues(np.pi)
    found = recover_operator_from_edges(
        per, anti, hopping=op.hopping, initial=op.onsite + 0.03
    )
    assert np.allclose(found.onsite, op.onsite, atol=1e-8)
    with pytest.raises(ValueError):
        recover_operator_from_edges(per, anti, hopping=2.0 * op.hopping)


def _repeated_cell(rng, cell, copies):
    op = random_operator(rng, cell)
    return PeriodicJacobi(np.tile(op.hopping, copies), np.tile(op.onsite, copies))


def test_onsite_jacobian_matches_per_column_minors():
    # The onsite columns of the point Jacobian at the nodes. Reference:
    # column j marched alone on the chain relabelled to start at site
    # j + 1, -M[1, 0] / a_j.
    rng = np.random.default_rng(67)
    chains = [random_operator(rng, n) for n in range(1, 25)]
    chains += [PeriodicJacobi.free(n, rng.uniform(0.4, 1.8), rng.uniform(-1, 1))
               for n in range(1, 25)]
    chains += [_repeated_cell(rng, cell, copies) for cell in (1, 2, 3, 4) for copies in (2, 3, 6)]
    for op in chains:
        n = op.period
        nodes = chebyshev_nodes(gershgorin_interval(op), n)
        expected = np.zeros((n + 1, n))
        for j in range(n):
            minor = transfer.monodromy(op.shifted(j + 1), nodes)[0][1, 0]
            expected[:, j] = -minor / op.hopping[j]
        err = np.max(np.abs(transfer.discriminant_jacobian(op, nodes)[:, n:] - expected))
        assert err <= 1e-14 * np.max(np.abs(expected))


def test_newton_solve_underdetermined_projects_onto_solution_set():
    # One equation in two unknowns: the unit circle.
    root = newton_solve(
        lambda x: np.array([x[0] ** 2 + x[1] ** 2 - 1.0]),
        lambda x: np.array([[2.0 * x[0], 2.0 * x[1]]]),
        [1.5, 0.5],
    )
    assert np.hypot(*root) == pytest.approx(1.0, abs=1e-12)
    # Minimum-norm steps move along the gradient, here the ray through the start.
    assert root[1] / root[0] == pytest.approx(1.0 / 3.0, rel=1e-9)
