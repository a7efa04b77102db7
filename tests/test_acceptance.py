"""Acceptance battery.

Each test checks one headline guarantee of the package at a pinned
tolerance and prints a single PASS/FAIL line (run with `pytest -s` to
see them). Every expected value is produced by an independent oracle:
numpy/scipy eigensolvers, quadrature, numpy's Chebyshev series, finite
differences, or closed forms derived by hand - never by the code under
test.
"""

import itertools
import json

import numpy as np
import numpy.polynomial.chebyshev as C
from numpy.polynomial import Polynomial
from scipy.integrate import quad
from scipy.linalg import eigh_tridiagonal

from hillbands import (
    BandStructure,
    Discriminant,
    PeriodicJacobi,
    band_edges_bisection,
    band_edges_eig,
    discriminant_from_edges,
    enumerate_onsite_classes,
    isospectral_neighbors,
    orbit_distance,
    recover_onsite,
    recover_operator_from_edges,
    transfer,
)
from hillbands.cli import main as cli_main

from helpers import (
    floquet_matrix,
    free_chain,
    free_discriminant,
    power_coefficients,
    random_operator,
    tiled,
    truncated_matrix,
    uniform_chain,
)


def report(label, err, tol):
    ok = err <= tol
    print(f"{'PASS' if ok else 'FAIL'} {label} (measured {err:.3e} <= {tol:.1e})")
    assert ok, f"{label}: measured {err:.3e} exceeds {tol:.1e}"


def report_bool(label, ok, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"{'PASS' if ok else 'FAIL'} {label}{suffix}")
    assert ok, f"{label}{suffix}"


def test_a01_characteristic_polynomial_identity():
    # det(lam I - J(theta)) == prod(a) (Delta(lam) - 2 cos theta)
    rng = np.random.default_rng(101)
    worst = 0.0
    for period in (1, 2, 3, 5, 8, 12):
        op = random_operator(rng, period)
        disc = Discriminant.from_operator(op)
        pa = np.prod(op.hopping)
        for theta in (0.0, 0.7, np.pi / 2, 2.1, np.pi):
            m = floquet_matrix(op, theta)
            for lam in np.linspace(-4.0, 4.0, 7):
                det = np.linalg.det(lam * np.eye(period) - m).real
                rhs = pa * (disc.chebyshev(lam) - 2.0 * np.cos(theta))
                worst = max(worst, abs(det - rhs) / max(1.0, abs(det)))
    report("A01 characteristic polynomial identity", worst, 1e-8)


def test_a02_free_chain_closed_form():
    # Delta = 2 T_N((lam - b) / 2a); single interval [b - 2a, b + 2a]
    # split by touching bands at b + 2a cos(k pi / N).
    a, b = 0.8, -0.3
    worst_coeff = 0.0
    worst_edge = 0.0
    worst_gap = 0.0
    for period in range(1, 11):
        # On its interval, the band [b - 2a, b + 2a], the Chebyshev
        # series of Delta is 2 T_N itself.
        disc = Discriminant.from_operator(free_chain(period, a, b))
        expected = np.zeros(period + 1)
        expected[period] = 2.0
        worst_coeff = max(
            worst_coeff,
            np.max(np.abs(disc.chebyshev.coef - expected)),
            np.max(np.abs(np.subtract(disc.interval, (b - 2 * a, b + 2 * a)))),
        )
        bs = BandStructure(free_chain(period, a, b))
        analytic = np.sort(
            np.concatenate(
                [[b - 2 * a, b + 2 * a]]
                + [[b + 2 * a * np.cos(k * np.pi / period)] * 2 for k in range(1, period)]
            )
        )
        worst_edge = max(worst_edge, np.max(np.abs(bs.edges - analytic)))
        if period > 1:
            worst_gap = max(worst_gap, max(bs.to_dict()["gap_widths"]))
    report("A02a free-chain discriminant Chebyshev coefficients", worst_coeff, 1e-10)
    report("A02b free-chain band edges", worst_edge, 1e-10)
    report("A02c free-chain gaps all closed", worst_gap, 1e-8)


def test_a03_spectrum_membership():
    op = PeriodicJacobi([1.0, 0.55, 1.3, 0.9, 1.1], [0.2, -0.7, 0.4, 1.0, -0.2])
    bs = BandStructure(op)
    inside_ok = all(
        bs.contains(lam, tol=1e-9)
        for theta in np.linspace(0.0, np.pi, 17)
        for lam in op.floquet_eigenvalues(theta)
    )
    lower, upper = bs.edges[1:-1:2], bs.edges[2::2]
    outside_pts = (0.5 * (lower + upper))[upper > lower].tolist()
    outside_pts += [bs.edges[0] - 0.7, bs.edges[-1] + 0.7]
    outside_ok = all(np.abs(transfer.March(op.hopping).at(outside_pts).trace(op.onsite)[0]) > 2.0)
    report_bool(
        "A03 spectrum membership (Bloch eigenvalues in bands, gaps excluded)",
        inside_ok and outside_ok,
        f"{len(outside_pts)} exterior points",
    )


def test_a04_dual_route_band_edges():
    rng = np.random.default_rng(104)
    chains = [random_operator(rng, period) for period in (*range(2, 25), 32, 64)]
    chains.append(free_chain(6, hopping=0.9, onsite=0.1))
    chains += [uniform_chain(rng, period) for period in range(1, 25)]
    worst = 0.0
    for op in chains:
        worst = max(
            worst, np.max(np.abs(band_edges_eig(op) - band_edges_bisection(op)))
        )
    report("A04 dual-route band edges (eig vs bisection)", worst, 1e-9)


def test_a05_dirichlet_interlacing():
    rng = np.random.default_rng(105)
    op = random_operator(rng, 7)
    bs = BandStructure(op)
    mu = op.dirichlet_eigenvalues()
    ordered = bool(np.all(np.diff(bs.edges) >= 0)) and mu.size == op.period - 1
    worst = 0.0
    for j, m in enumerate(mu):
        lo, hi = bs.edges[2 * j + 1], bs.edges[2 * j + 2]
        worst = max(worst, max(lo - m, m - hi, 0.0))
    report_bool("A05a band edges ordered", ordered)
    report("A05b Dirichlet eigenvalues inside gap closures", worst, 1e-8)


def test_a06_density_of_states():
    op = PeriodicJacobi([1.0, 0.8, 1.2], [0.0, 0.5, -0.3])
    bs = BandStructure(op)
    n = op.period
    worst_band = 0.0
    for lower, upper in bs.edges.reshape(-1, 2):
        mass, _ = quad(lambda lam: bs.densities(lam)[0], lower, upper, limit=400)
        worst_band = max(worst_band, abs(mass - 1.0 / n))
    report("A06a DOS band mass = 1/N (quadrature oracle)", worst_band, 1e-6)

    report(
        "A06b IDS reaches 1 at the spectrum top",
        abs(bs.densities(bs.edges[-1])[1] - 1.0),
        1e-12,
    )

    cells = 600
    t = truncated_matrix(op, cells)
    vals = eigh_tridiagonal(np.diag(t), np.diag(t, 1), eigvals_only=True)
    worst_ids = 0.0
    for lam in np.linspace(bs.edges[0] + 0.1, bs.edges[-1] - 0.1, 9):
        empirical = np.searchsorted(vals, lam) / vals.size
        worst_ids = max(worst_ids, abs(bs.densities(lam)[1] - empirical))
    report("A06c IDS vs open-chain eigenvalue counting", worst_ids, 5e-3)


def test_a07_blind_inverse_round_trip():
    rng = np.random.default_rng(107)
    worst = 0.0
    for period in (3, 5, 8):
        op = random_operator(rng, period)
        found = recover_onsite(Discriminant.from_operator(op), op.hopping)  # no initial point
        coeffs = power_coefficients(op)
        err = np.max(np.abs(power_coefficients(found) - coeffs))
        worst = max(worst, err / max(1.0, np.max(np.abs(coeffs))))
    report("A07 blind inverse round trip (N = 3, 5, 8)", worst, 1e-8)


def test_a08_edge_data_reconstruction():
    op = PeriodicJacobi(np.full(5, 0.85), [0.6, -0.2, 0.1, -0.5, 0.3])
    per = op.floquet_eigenvalues(0.0)
    anti = op.floquet_eigenvalues(np.pi)
    disc = discriminant_from_edges(per, anti)
    report(
        "A08a hopping product from edge data",
        abs(np.exp(disc.log_hopping_product) - np.prod(op.hopping)),
        1e-10,
    )
    _, found, _ = recover_operator_from_edges(per, anti)
    err = max(
        np.max(np.abs(np.sort(found.floquet_eigenvalues(0.0)) - np.sort(per))),
        np.max(np.abs(np.sort(found.floquet_eigenvalues(np.pi)) - np.sort(anti))),
    )
    report("A08b reconstructed chain reproduces both edge sets", err, 1e-8)


def test_a09_enumeration_partition():
    values, period = [0.0, 1.0], 6
    classes = enumerate_onsite_classes(values, period)
    groups = {}
    for pattern in itertools.product(values, repeat=period):
        op = PeriodicJacobi(np.ones(period), np.array(pattern))
        key = tuple(
            np.round(
                np.concatenate(
                    [op.floquet_eigenvalues(0.0), op.floquet_eigenvalues(np.pi)]
                ),
                8,
            )
        )
        groups.setdefault(key, set()).add(pattern)
    same = {frozenset(c.members) for c in classes} == {
        frozenset(g) for g in groups.values()
    }
    report_bool(
        "A09 isospectral classes match eigenvalue-oracle partition",
        same and len(classes) == 13,
        f"{len(classes)} classes over {len(values) ** period} patterns",
    )


def test_a10_isospectral_neighbors():
    op = PeriodicJacobi([1.0, 0.8, 1.2, 0.9], [0.0, 0.5, -0.3, 0.2])
    neighbors = isospectral_neighbors(op, count=3, step=0.08, seed=2026)
    worst = max(
        np.max(np.abs(power_coefficients(nb) - power_coefficients(op))) for nb in neighbors
    )
    min_dist = min(orbit_distance(op, nb) for nb in neighbors)
    report("A10a neighbors share the discriminant", worst, 1e-8)
    report_bool(
        "A10b neighbors leave the discrete symmetry orbit",
        min_dist >= 1e-3,
        f"min orbit distance {min_dist:.3e}",
    )


def test_a11_trace_identities():
    rng = np.random.default_rng(111)
    op = random_operator(rng, 6)
    disc = Discriminant.from_operator(op)
    edges = band_edges_eig(op)
    report(
        "A11a edge sum equals twice the onsite trace",
        abs(np.sum(edges) - 2.0 * np.sum(op.onsite)),
        1e-8,
    )
    # c_N T_N((2 lam - lo - hi) / (hi - lo)) has lam^N coefficient
    # c_N 2^(N-1) (2 / (hi - lo))^N.
    lo, hi = disc.interval
    n = op.period
    leading = disc.chebyshev.coef[-1] * 2.0 ** (n - 1) * (2.0 / (hi - lo)) ** n
    report(
        "A11b leading coefficient is 1 / prod(a)",
        abs(leading * np.prod(op.hopping) - 1.0),
        1e-12,
    )
    power = disc.chebyshev.convert(kind=Polynomial).coef
    report(
        "A11c subleading monic coefficient is -sum(b)",
        abs(np.prod(op.hopping) * power[-2] + np.sum(op.onsite)),
        1e-10,
    )


def chebyshev_t(n, x):
    """T_n pointwise: cos(n arccos x) inside [-1, 1], cosh outside."""
    x = np.asarray(x, dtype=float)
    inside = np.abs(x) <= 1.0
    with np.errstate(invalid="ignore"):
        cos_form = np.cos(n * np.arccos(np.clip(x, -1.0, 1.0)))
        cosh_form = np.sign(x) ** n * np.cosh(n * np.arccosh(np.abs(x)))
    return np.where(inside, cos_form, cosh_form)


def test_a12_chebyshev_identities():
    # Delta of the constant chain is 2 T_N((lam - b) / 2a).
    a, b = 0.8, -0.3
    lam = np.linspace(b - 2.5 * a, b + 2.5 * a, 41)
    worst_free = max(
        np.max(
            np.abs(free_discriminant(n, a, b).chebyshev(lam) - 2.0 * chebyshev_t(n, (lam - b) / (2 * a)))
        )
        for n in (1, 2, 3, 5, 8)
    )
    report("A12a free discriminant vs pointwise 2 T_N", worst_free, 1e-9)

    # Repeating a cell m times composes its discriminant with 2 T_m(x / 2),
    # because the m-fold monodromy is M^m and det M = 1. The cell's own
    # Delta comes from det(lam I - J(pi/2)) = prod(a) Delta(lam).
    rng = np.random.default_rng(112)
    x = np.linspace(-2.5, 2.5, 31)
    worst_tile = 0.0
    for cell, m in ((1, 3), (2, 2), (3, 2), (2, 3), (4, 2)):
        op = random_operator(rng, cell)
        bloch = floquet_matrix(op, np.pi / 2.0)
        delta = [
            np.linalg.det(lam * np.eye(cell) - bloch).real / np.prod(op.hopping)
            for lam in x
        ]
        expected = 2.0 * chebyshev_t(m, np.asarray(delta) / 2.0)
        got = Discriminant.from_operator(tiled(op, m)).chebyshev(x)
        worst_tile = max(
            worst_tile, np.max(np.abs(got - expected) / np.maximum(1.0, np.abs(expected)))
        )
    report("A12b repeated cell gives 2 T_m(Delta / 2)", worst_tile, 1e-9)

    worst_coeff = 0.0
    for n in range(13):
        basis = np.zeros(n + 1)
        basis[n] = 1.0
        free = free_discriminant(n, hopping=0.5, onsite=0.0)
        power = free.chebyshev.convert(kind=Polynomial).coef
        worst_coeff = max(worst_coeff, np.max(np.abs(power - 2.0 * C.cheb2poly(basis))))
    report("A12c free coefficients vs numpy cheb2poly", worst_coeff, 1e-10)


def test_a13_root_isolation_oracle():
    # Bisection must report every band edge, with closed gaps as double
    # edges; for the constant chain they sit at b + 2a cos(k pi / N).
    worst = 0.0
    doubles = True
    for period in range(2, 13):
        a, b = 0.6 + 0.1 * period, 0.05 * period - 0.3
        edges = band_edges_bisection(free_chain(period, a, b))
        interior = [b + 2 * a * np.cos(k * np.pi / period) for k in range(1, period)]
        analytic = np.sort(np.concatenate([[b - 2 * a, b + 2 * a], interior, interior]))
        worst = max(worst, np.max(np.abs(edges - analytic)))
        doubles &= edges.size == 2 * period and bool(np.all(edges[1:-1:2] == edges[2::2]))
    report("A13a bisection edges vs the closed form", worst, 1e-9)
    report_bool("A13b double edges reported with multiplicity", doubles)


def test_a14_cli_json_equivalence(capsys):
    assert cli_main(["bands", "--onsite", "0,0.5,-0.3", "--hopping", "1,0.8,1.2", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    bs = BandStructure(PeriodicJacobi([1.0, 0.8, 1.2], [0.0, 0.5, -0.3]))
    err = np.max(np.abs(np.asarray(payload["edges"]) - bs.edges))

    op = PeriodicJacobi([1.0, 1.0], [0.4, -0.4])
    coeffs = power_coefficients(op)
    assert (
        cli_main(
            ["inverse", "--coeffs=" + ",".join(f"{c:.17g}" for c in coeffs), "--hopping", "1,1", "--json"]
        )
        == 0
    )
    inv = json.loads(capsys.readouterr().out)
    found = PeriodicJacobi(inv["hopping"], inv["onsite"])
    inv_err = np.max(np.abs(power_coefficients(found) - coeffs))
    with capsys.disabled():
        report("A14a CLI band edges match the library", err, 1e-12)
        report("A14b CLI inverse round trip", inv_err, 1e-8)
