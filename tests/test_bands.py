import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import eigh_tridiagonal

from hillbands import (
    BandStructure,
    Discriminant,
    PeriodicJacobi,
    band_edges_bisection,
    band_edges_eig,
    bands,
    dos_curve,
    gap_report,
    transfer,
)
from hillbands.discriminant import gershgorin_interval

from helpers import exact_discriminant, random_operator


@pytest.fixture(scope="module")
def generic_op():
    return PeriodicJacobi([1.0, 0.8, 1.2], [0.0, 0.5, -0.3])


@pytest.fixture(scope="module")
def generic_bs(generic_op):
    return BandStructure(generic_op)


def test_hand_computed_period_two_edges():
    # a = (1,1), b = (beta, -beta): the monic quadratic is
    # lambda^2 - beta^2 - 2, so the edges are +-beta and +-sqrt(beta^2 + 4).
    beta = 0.8
    op = PeriodicJacobi([1.0, 1.0], [beta, -beta])
    bs = BandStructure(op)
    outer = np.sqrt(beta**2 + 4.0)
    expected = np.array([-outer, -beta, beta, outer])
    assert np.allclose(bs.edges, expected, atol=1e-12)
    assert len(bs.bands) == 2
    assert len(bs.gaps) == 1
    assert bs.gaps[0].width == pytest.approx(2 * beta)


def test_edge_count_and_ordering(generic_bs):
    edges = generic_bs.edges
    assert edges.size == 6
    assert np.all(np.diff(edges) >= 0)
    for band in generic_bs.bands:
        assert band.lower <= band.upper


def test_dual_route_edges_agree():
    rng = np.random.default_rng(31)
    for period in (1, *range(2, 25), 32, 64):
        op = random_operator(rng, period)
        eig_edges = band_edges_eig(op)
        bis_edges = band_edges_bisection(op)
        assert np.allclose(eig_edges, bis_edges, atol=1e-10)
    for period in range(1, 25):
        op = PeriodicJacobi.free(period, rng.uniform(0.4, 1.8), rng.uniform(-1.5, 1.5))
        assert np.allclose(band_edges_eig(op), band_edges_bisection(op), atol=1e-10)


def _harper(period, f_prev, phi):
    sites = np.arange(period)
    return PeriodicJacobi(np.ones(period), 0.8 * np.cos(2 * np.pi * f_prev * sites / period + phi))


def _scale(op):
    return max(1.0, np.max(np.abs(op.onsite)) + 2.0 * np.max(op.hopping))


@pytest.mark.parametrize("period, f_prev", [(89, 55), (144, 89)])
def test_harper_bisection_matches_eig(period, f_prev):
    # Fibonacci approximants of the almost-Mathieu chain have open gaps
    # as narrow as 1e-8, which the closed-gap test must leave open.
    for phi in (0.3, 2.1):
        op = _harper(period, f_prev, phi)
        err = np.max(np.abs(band_edges_bisection(op) - band_edges_eig(op)))
        assert err <= 1e-9 * _scale(op)


def _uniform_chains():
    return [PeriodicJacobi.free(n, hopping=0.9, onsite=-0.2) for n in (60, 100, 400)]


def _repeated_cells():
    rng = np.random.default_rng(2024)
    cells = [random_operator(rng, 3) for _ in range(20)]
    return [PeriodicJacobi(np.tile(c.hopping, r), np.tile(c.onsite, r))
            for c in cells for r in (2, 3, 5)]


@pytest.mark.parametrize("method", ["eig", "bisection"])
def test_one_closed_gap_rule(method):
    # A gap is open iff its edges differ. Membership, the DOS, open_gaps
    # and the text report all read that one fact, down to the Harper
    # gaps of 2e-13 that the eig route leaves open.
    rng = np.random.default_rng(808)
    chains = [_harper(n, f_prev, 0.3) for n, f_prev in ((89, 55), (144, 89), (233, 144), (377, 233))]
    chains += [random_operator(rng, 64) for _ in range(10)]
    for op in chains + _uniform_chains() + _repeated_cells():
        bs = BandStructure(op, method)
        is_open = np.array([g.is_open() for g in bs.gaps])
        mids = np.array([0.5 * (g.lower + g.upper) for g in bs.gaps])
        listed = np.isin(np.arange(op.period - 1), [g.index for g in bs.open_gaps()])
        states = [line.split()[-1] for line in gap_report(bs).splitlines()[-(op.period - 1):]]
        assert np.array_equal(np.array([g.width for g in bs.gaps]) > 0.0, is_open)
        assert np.array_equal(~bs.contains(mids), is_open)
        assert np.array_equal(bs.density_of_states(mids) == 0.0, is_open)
        assert np.array_equal(listed, is_open)
        assert np.array_equal(np.array(states) == "open", is_open)


def test_routes_close_the_same_gaps():
    # Uniform chains close every gap; a 3-site cell repeated r times
    # keeps only the cell's two. Both routes close exactly those, to
    # width 0.0, and the eig route moves no edge by more than its own
    # rounding, N eps (max|b| + 2 max a).
    for op, cell in [(op, 1) for op in _uniform_chains()] + [(op, 3) for op in _repeated_cells()]:
        n = op.period
        for method in ("eig", "bisection"):
            widths = np.array([g.width for g in BandStructure(op, method).gaps])
            assert np.count_nonzero(widths) == cell - 1
            assert np.all(widths[np.arange(1, n) % (n // cell) != 0] == 0.0)
        raw = np.sort(op.floquet_eigenvalues([0.0, np.pi]), axis=None)
        slack = n * np.finfo(float).eps * (np.max(np.abs(op.onsite)) + 2.0 * np.max(op.hopping))
        assert np.max(np.abs(band_edges_eig(op) - raw)) <= slack


def _halving(past, lo, hi, tol):
    """The one-bit bisection that multisection replaced: the reference."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if np.all(hi - lo <= tol * np.maximum(1.0, np.abs(mid))):
            break
        right = past(mid)
        lo = np.where(right, lo, mid)
        hi = np.where(right, mid, hi)
    return mid


def test_multisection_matches_halving_reference(monkeypatch):
    rng = np.random.default_rng(41)
    chains = [random_operator(rng, n) for n in (1, 2, 5, 13, 24)]
    chains += [
        PeriodicJacobi.free(n, rng.uniform(0.4, 1.8), rng.uniform(-1.5, 1.5))
        for n in (3, 8, 17, 24)
    ]
    harper = [_harper(89, 55, phi) for phi in (0.3, 2.1)]
    multisected = [band_edges_bisection(op) for op in chains + harper]
    monkeypatch.setattr(bands, "_multisect", _halving)
    for op, edges in zip(chains, multisected):
        assert np.max(np.abs(edges - band_edges_bisection(op))) <= 1e-12 * _scale(op)
    for op, edges in zip(harper, multisected[len(chains) :]):
        reference = band_edges_bisection(op)
        # Where Delta -+ 2 has a near-double zero (the narrow open gaps
        # of the Harper chain), the predicate is decided by rounding
        # within rounding(Delta) / |Delta'| of the edge, and each method
        # may stop anywhere in that interval; that allowance is capped.
        _, slope = transfer.discriminant(op, reference)
        _, rounding = transfer.discriminant_rounding(op, reference)
        with np.errstate(divide="ignore"):
            conditioning = np.minimum(2.0 * rounding / np.abs(slope), 1e-9 * _scale(op))
        assert np.all(np.abs(edges - reference) <= 1e-12 * _scale(op) + conditioning)


def test_bisection_marches_fewer_than_32_times(monkeypatch):
    # 4 bits per pass: about 12 passes for the edges, 12 for the gap
    # extrema and two marches for the rounding bound (91 at one bit).
    calls = []
    march = transfer._march_values

    def counted(*args, **kwargs):
        calls.append(1)
        return march(*args, **kwargs)

    monkeypatch.setattr(transfer, "_march_values", counted)
    band_edges_bisection(random_operator(np.random.default_rng(24), 24))
    assert len(calls) < 32


def _extremum_everywhere(op, tol=1e-13):
    """The bisection route that multisected every gap's extremum c_j and
    closed the gap there by the rounding bound, with no check at the gap
    midpoint first: the reference."""
    n = op.period
    lo, hi = gershgorin_interval(op)
    mu = np.concatenate([[lo], op.dirichlet_eigenvalues(), [hi]])
    orient = (-1.0) ** (n - 1 - np.arange(n))
    edges = bands._multisect(
        lambda lam: np.repeat(orient, 2) * transfer.discriminant_value(op, lam)
        >= np.tile([-2.0, 2.0], n),
        np.repeat(mu[:-1], 2),
        np.repeat(mu[1:], 2),
        tol,
    )
    middle = 0.5 * (edges[0::2] + edges[1::2])
    crit = bands._multisect(
        lambda lam: orient[:-1] * transfer.discriminant(op, lam)[1] <= 0.0,
        middle[:-1],
        middle[1:],
        tol,
    )
    peak, rounding = transfer.discriminant_rounding(op, crit)
    shut = np.abs(peak) - 2.0 <= rounding
    return np.sort(bands._close(edges, shut, crit[shut]))


def _slope_marches(monkeypatch):
    """Count the marches that carry Delta' from now on."""
    slopes = []
    march = transfer._march_values

    def counted(*args, **kwargs):
        slopes.append(kwargs.get("slope", False))
        return march(*args, **kwargs)

    monkeypatch.setattr(transfer, "_march_values", counted)
    return slopes


def test_certified_open_gaps_skip_the_extremum_search(monkeypatch):
    # Random chains: every gap is certified open at its midpoint, so no
    # march for Delta' runs and the edges are those of the reference.
    rng = np.random.default_rng(90)
    chains = [random_operator(rng, n) for n in range(1, 25)]
    references = [_extremum_everywhere(op) for op in chains]
    slopes = _slope_marches(monkeypatch)
    for op, reference in zip(chains, references):
        del slopes[:]
        edges = band_edges_bisection(op)
        assert not any(slopes)
        assert np.array_equal(edges, reference)
        assert np.all(edges[2::2] > edges[1:-1:2])


def test_uniform_chains_close_every_gap_at_its_extremum(monkeypatch):
    # No gap of a uniform chain is certified: each is closed at c_j,
    # exactly where the reference closes it.
    rng = np.random.default_rng(91)
    chains = [PeriodicJacobi.free(n, rng.uniform(0.4, 1.8), rng.uniform(-1.5, 1.5))
              for n in range(3, 25)]
    references = [_extremum_everywhere(op) for op in chains]
    slopes = _slope_marches(monkeypatch)
    for op, reference in zip(chains, references):
        del slopes[:]
        edges = band_edges_bisection(op)
        assert any(slopes)
        assert np.array_equal(edges, reference)
        assert np.all(edges[2::2] == edges[1:-1:2])


@pytest.mark.parametrize("period, f_prev", [(89, 55), (144, 89)])
@pytest.mark.parametrize("phi", [0.3, 2.1])
def test_harper_edges_match_extremum_reference(period, f_prev, phi):
    # Only some Harper gaps are certified; the rest are multisected in
    # fewer brackets, whose passes may stop sooner, so the edges agree
    # within the multisection tolerance and every gap state is the same.
    op = _harper(period, f_prev, phi)
    edges, reference = band_edges_bisection(op), _extremum_everywhere(op)
    assert np.all(np.abs(edges - reference) <= 1e-13 * np.maximum(1.0, np.abs(reference)))
    assert np.array_equal(edges[2::2] > edges[1:-1:2], reference[2::2] > reference[1:-1:2])


def test_repeated_cell_gaps_close_exactly():
    # Three copies of a 3-site cell: the gaps inside each band of the
    # cell are closed. The transfer matrix of such a cell can be far
    # from normal, so tr M cancels large entries at the gap extremum and
    # its rounding exceeds any fixed multiple of N eps.
    rng = np.random.default_rng(0)
    for _ in range(200):
        cell = random_operator(rng, 3)
        op = PeriodicJacobi(np.tile(cell.hopping, 3), np.tile(cell.onsite, 3))
        edges = band_edges_bisection(op)
        widths = edges[2::2] - edges[1:-1:2]
        assert np.all(widths[[0, 1, 3, 4, 6, 7]] == 0.0)
        assert np.max(np.abs(edges - band_edges_eig(op))) <= 1e-9


def test_dual_route_with_closed_gaps():
    op = PeriodicJacobi.free(5, hopping=0.8, onsite=0.2)
    eig_edges = band_edges_eig(op)
    bis_edges = band_edges_bisection(op)
    assert np.allclose(eig_edges, bis_edges, atol=1e-9)
    for gap in BandStructure(op, method="bisection").gaps:
        assert not gap.is_open()


def test_free_operator_single_interval():
    op = PeriodicJacobi.free(4, hopping=0.7, onsite=-0.1)
    bs = BandStructure(op)
    assert bs.edges[0] == pytest.approx(-0.1 - 1.4, abs=1e-10)
    assert bs.edges[-1] == pytest.approx(-0.1 + 1.4, abs=1e-10)
    assert not bs.open_gaps()


def test_floquet_eigenvalues_inside_bands(generic_bs, generic_op):
    for theta in np.linspace(0, np.pi, 9):
        for lam in generic_op.floquet_eigenvalues(theta):
            assert generic_bs.contains(lam, tol=1e-9)
            assert any(b.contains(lam, tol=1e-9) for b in generic_bs.bands)


def test_gap_midpoints_outside_spectrum(generic_bs):
    disc = generic_bs.discriminant
    for gap in generic_bs.open_gaps():
        mid = 0.5 * (gap.lower + gap.upper)
        assert abs(disc(mid)) > 2.0
        assert not generic_bs.contains(mid)
    assert not generic_bs.contains(generic_bs.edges[0] - 1.0)
    assert not generic_bs.contains(generic_bs.edges[-1] + 1.0)


def test_band_centres_of_random_long_chains_are_in_the_spectrum():
    # At N = 64 bands are narrower than the rounding of Delta, so
    # |Delta| <= 2 put a sixth of the band centres outside; the edges
    # decide membership instead.
    rng = np.random.default_rng(64)
    for _ in range(10):
        bs = BandStructure(random_operator(rng, 64))
        centres = 0.5 * (bs.edges[0::2] + bs.edges[1::2])
        assert np.all(bs.contains(centres))
        mids = [0.5 * (g.lower + g.upper) for g in bs.open_gaps()]
        assert not np.any(bs.contains(np.array(mids)))
        assert not bs.contains(bs.edges[0] - 1.0)
        assert not bs.contains(bs.edges[-1] + 1.0)


def test_contains_tolerance_widens_each_band(generic_bs):
    for band in generic_bs.bands:
        assert np.all(generic_bs.contains([band.lower, band.upper]))
        for lam in (band.lower - 1e-3, band.upper + 1e-3):
            assert not generic_bs.contains(lam)
            assert generic_bs.contains(lam, tol=2e-3) == band.contains(lam, tol=2e-3)


def test_closed_gaps_of_uniform_chains_are_in_the_spectrum():
    # The eig route leaves slivers of a few ulp between the edges of a
    # closed gap; a level inside one is still in the spectrum.
    for period, a, b in ((60, 0.9, -0.2), (100, 0.9, -0.2), (64, 1.347, -1.318)):
        bs = BandStructure(PeriodicJacobi.free(period, a, b))
        levels = b + 2 * a * np.cos(np.pi * np.arange(1, period) / period)
        assert np.all(bs.contains(levels))


def test_dirichlet_interlacing(generic_op, generic_bs):
    # One Dirichlet eigenvalue sits in each closed gap [E_{2j+1}, E_{2j+2}].
    mu = generic_op.dirichlet_eigenvalues()
    edges = generic_bs.edges
    assert mu.size == generic_op.period - 1
    for j, m in enumerate(mu):
        assert edges[2 * j + 1] - 1e-9 <= m <= edges[2 * j + 2] + 1e-9


def test_bloch_phase_endpoints(generic_bs):
    for band in generic_bs.bands:
        lo = generic_bs.bloch_phase(band.lower)
        hi = generic_bs.bloch_phase(band.upper)
        assert {round(lo, 6), round(hi, 6)} == {0.0, round(np.pi, 6)}


def test_dispersion_reproduces_floquet(generic_op, generic_bs):
    thetas = np.linspace(0, np.pi, 7)
    table = generic_bs.dispersion(thetas)
    assert table.shape == (generic_op.period, 7)
    for i, theta in enumerate(thetas):
        assert np.allclose(
            table[:, i], generic_op.floquet_eigenvalues(theta), atol=1e-10
        )


def test_dispersion_of_uniform_chain_matches_closed_form():
    # Phase theta over the cell is theta / N per site, so band m sits at
    # b + 2a cos((theta + 2 pi m) / N).
    n, a, b = 400, 0.9, -0.2
    thetas = np.array([0.0, 0.37, np.pi / 2, np.pi])
    table = BandStructure(PeriodicJacobi.free(n, a, b)).dispersion(thetas)
    m = np.arange(n)[:, None]
    expected = np.sort(b + 2 * a * np.cos((thetas + 2 * np.pi * m) / n), axis=0)
    assert np.max(np.abs(table - expected)) <= 1e-12 * max(1.0, abs(b) + 2 * a)


def test_bloch_spectra_never_build_the_dense_matrix(monkeypatch):
    # The Bloch spectra are band-matrix solves; a dense N x N matrix
    # would bring back the O(N^3) eigensolve.
    original = PeriodicJacobi.floquet_matrix

    def guarded(self, theta):
        if self.period >= 3:
            raise AssertionError("dense Bloch matrix built")
        return original(self, theta)

    monkeypatch.setattr(PeriodicJacobi, "floquet_matrix", guarded)
    for period in (2, 3, 8, 89):
        op = random_operator(np.random.default_rng(period), period)
        assert op.floquet_eigenvalues(0.37).shape == (period,)
        assert band_edges_eig(op).shape == (2 * period,)
        assert BandStructure(op).dispersion(np.linspace(0, np.pi, 5)).shape == (period, 5)


def test_discriminant_built_only_on_first_use(generic_op):
    bs = BandStructure(generic_op)
    bs.dispersion([0.0, 1.0])
    assert len(bs.gaps) == 2
    assert "discriminant" not in bs.__dict__
    assert bs.to_dict()["discriminant_chebyshev"] == Discriminant.from_operator(
        generic_op
    ).to_dict()
    assert "discriminant" in bs.__dict__


def test_edges_solved_only_on_first_use(monkeypatch, generic_op):
    def refuse(op):
        raise AssertionError("band edges solved")

    monkeypatch.setattr(bands, "band_edges_eig", refuse)
    bs = BandStructure(generic_op)
    assert bs.dispersion([0.0, 1.0]).shape == (3, 2)
    assert "edges" not in bs.__dict__
    with pytest.raises(AssertionError):
        bs.edges
    with pytest.raises(ValueError):
        BandStructure(generic_op, method="bogus")


def test_dos_curve_marches_only_in_band_points(monkeypatch):
    bs = BandStructure(_harper(89, 55, 0.7))
    marched = []
    march = transfer._march_values

    def counted(hopping, onsite, lam, **kwargs):
        marched.append(np.size(lam))
        return march(hopping, onsite, lam, **kwargs)

    monkeypatch.setattr(transfer, "_march_values", counted)
    energies, rho, ids = dos_curve(bs, points=512)
    inside = np.searchsorted(bs.edges, energies, side="right") % 2 == 1
    assert 0 < inside.sum() < 512
    assert np.array_equal(bs.contains(energies), inside)
    assert sum(marched) == 2 * inside.sum()

    # The reference marches the whole grid; the march is elementwise.
    def everywhere(self, lam, tol=0.0):
        return np.searchsorted(self.edges, lam, side="right"), np.ones(np.shape(lam), bool)

    monkeypatch.setattr(BandStructure, "_locate", everywhere)
    _, rho_full, ids_full = dos_curve(bs, points=512)
    assert np.array_equal(rho[inside], rho_full[inside])
    assert np.all(rho[~inside] == 0.0)
    assert np.array_equal(ids, ids_full)


def test_density_of_states_normalization(generic_bs):
    # Each band carries exactly 1/N of the total state count.
    n = generic_bs.operator.period
    for band in generic_bs.bands:
        mass, err = quad(
            generic_bs.density_of_states, band.lower, band.upper, limit=400
        )
        assert mass == pytest.approx(1.0 / n, abs=5e-7)


def test_density_of_states_zero_outside(generic_bs):
    lam = generic_bs.edges[-1] + 0.5
    assert generic_bs.density_of_states(lam) == 0.0
    for gap in generic_bs.open_gaps():
        assert generic_bs.density_of_states(0.5 * (gap.lower + gap.upper)) == 0.0


def test_integrated_density_limits_and_monotone(generic_bs):
    edges = generic_bs.edges
    assert generic_bs.integrated_density(edges[0] - 1.0) == 0.0
    assert generic_bs.integrated_density(edges[-1] + 1e-9) == pytest.approx(1.0)
    grid = np.linspace(edges[0] - 0.2, edges[-1] + 0.2, 301)
    vals = generic_bs.integrated_density(grid)
    assert np.all(np.diff(vals) >= -1e-12)


def test_integrated_density_gap_plateaus(generic_bs):
    n = generic_bs.operator.period
    for j, gap in enumerate(generic_bs.gaps):
        if not gap.is_open():
            continue
        mid = 0.5 * (gap.lower + gap.upper)
        assert generic_bs.integrated_density(mid) == pytest.approx((j + 1) / n)


def test_integrated_density_matches_truncation_counting(generic_op, generic_bs):
    # Oracle: eigenvalue counting for a long open chain (Sturm sequence
    # solver from scipy), which approximates the per-site state count.
    cells = 600
    t = generic_op.truncated_matrix(cells)
    vals = eigh_tridiagonal(np.diag(t), np.diag(t, 1), eigvals_only=True)
    total = vals.size
    edges = generic_bs.edges
    for lam in np.linspace(edges[0] + 0.1, edges[-1] - 0.1, 9):
        empirical = np.searchsorted(vals, lam) / total
        assert generic_bs.integrated_density(lam) == pytest.approx(
            empirical, abs=5e-3
        )


def test_integrated_density_matches_band_loop():
    # Reference: walk the bands from the bottom, counting a band filled
    # from its upper edge on and entering it at its lower edge.
    def reference(bs, lam):
        n = bs.operator.period
        filled = 0
        for band in bs.bands:
            if lam >= band.upper:
                filled += 1
                continue
            if lam < band.lower:
                break
            phase_lower = 0.0 if (n - band.index) % 2 == 0 else np.pi
            return (filled + abs(bs.bloch_phase(lam) - phase_lower) / np.pi) / n
        return filled / n

    rng = np.random.default_rng(37)
    for op in (random_operator(rng, 5), PeriodicJacobi.free(4, hopping=0.9, onsite=0.3)):
        bs = BandStructure(op)
        grid = np.concatenate([bs.edges, np.linspace(bs.edges[0] - 0.3, bs.edges[-1] + 0.3, 97)])
        expected = [reference(bs, lam) for lam in grid]
        assert np.array_equal(bs.integrated_density(grid), expected)
        assert bs.integrated_density(grid[3]) == expected[3]


def test_quasimomentum_scaling(generic_bs):
    lam = generic_bs.bands[0].upper
    assert generic_bs.quasimomentum(lam) == pytest.approx(
        np.pi * generic_bs.integrated_density(lam)
    )


def test_free_integrated_density_closed_form():
    # For the uniform chain the per-site state count below b + 2a cos-angle
    # is arccos((b - lambda) / 2a) / pi, independent of the chosen period.
    a, b = 0.9, 0.3
    bs = BandStructure(PeriodicJacobi.free(4, hopping=a, onsite=b))
    # The grid includes the exact band-touching point b, where arccos
    # turns roundoff in Delta into sqrt(eps)-level phase noise; 1e-7
    # absolute agreement is the honest conditioning floor there.
    for lam in np.linspace(b - 2 * a + 1e-6, b + 2 * a - 1e-6, 11):
        expected = np.arccos(np.clip((b - lam) / (2 * a), -1, 1)) / np.pi
        assert bs.integrated_density(lam) == pytest.approx(expected, abs=1e-7)


def test_bisection_method_selectable(generic_op):
    bs = BandStructure(generic_op, method="bisection")
    assert np.allclose(bs.edges, BandStructure(generic_op).edges, atol=1e-10)
    with pytest.raises(ValueError):
        BandStructure(generic_op, method="nope")


def test_to_dict_round_trip(generic_bs):
    d = generic_bs.to_dict()
    assert d["period"] == 3
    assert np.allclose(d["edges"], generic_bs.edges)
    assert len(d["bands"]) == 3
    assert len(d["gaps"]) == 2
    assert d["gap_widths"][0] == pytest.approx(generic_bs.gaps[0].width)
    import json

    json.dumps(d)  # everything must be plain JSON-serializable types


@pytest.mark.parametrize("period", [60, 100, 400])
def test_uniform_chain_dos_and_ids_match_closed_forms(period):
    # Per site, the uniform chain has IDS arccos((b - lam) / 2a) / pi and
    # DOS 1 / (pi sqrt(4a^2 - (lam - b)^2)) on [b - 2a, b + 2a].
    a, b = 0.9, -0.2
    bs = BandStructure(PeriodicJacobi.free(period, a, b))
    grid = np.linspace(b - 2 * a - 0.1, b + 2 * a + 0.1, 2001)
    ids = np.arccos(np.clip((b - grid) / (2 * a), -1.0, 1.0)) / np.pi
    assert np.max(np.abs(bs.integrated_density(grid) - ids)) <= 1e-10
    far = np.abs(np.abs(grid - b) - 2 * a) > 1e-10
    assert np.array_equal(bs.contains(grid)[far], (np.abs(grid - b) <= 2 * a)[far])

    # Delta = 2 cos(N theta), lam = b + 2a cos(theta): the closed gaps
    # sit at the levels theta = pi j / N, where Delta' and
    # sqrt(4 - Delta^2) both vanish.
    levels = b + 2 * a * np.cos(np.pi * np.arange(period + 1) / period)
    inside = np.abs(grid - b) < 2 * a
    far = inside & (np.min(np.abs(grid[:, None] - levels), axis=1) >= 1e-6)
    exact = 1.0 / (np.pi * np.sqrt(4 * a * a - (grid[far] - b) ** 2))
    assert np.all(np.abs(bs.density_of_states(grid)[far] - exact) <= 1e-9 * exact)
    assert np.all(bs.density_of_states(grid)[~inside] == 0.0)


def _exact_density(op, lam):
    """The DOS at lam from Delta and Delta' in exact rational arithmetic."""
    delta, slope = exact_discriminant(op, lam)
    return float(abs(slope)) / (op.period * np.pi * np.sqrt(float(4 - delta * delta)))


def test_dos_matches_exact_arithmetic_inside_every_band():
    # Inside the narrower bands of random chains the monodromy is far
    # from normal: its entries reach 1e3 and more while |Delta| < 2, so
    # forming 4 - Delta^2 from the entries alone would cancel them.
    rng = np.random.default_rng(22)
    for period in (10, 10, 12, 12, 12):
        bs = BandStructure(random_operator(rng, period))
        lam = np.concatenate(
            [np.linspace(band.lower, band.upper, 10)[1:-1] for band in bs.bands]
        )
        exact = np.array([_exact_density(bs.operator, x) for x in lam])
        assert np.all(np.abs(bs.density_of_states(lam) - exact) <= 1e-9 * exact)


def test_dos_ids_and_membership_never_build_coefficients(monkeypatch, generic_op):
    def refuse(cls, op):
        raise AssertionError("coefficient form of Delta built")

    monkeypatch.setattr(Discriminant, "from_operator", classmethod(refuse))
    bs = BandStructure(generic_op)
    grid = np.linspace(bs.edges[0] - 0.5, bs.edges[-1] + 0.5, 41)
    bs.density_of_states(grid)
    bs.integrated_density(grid)
    bs.contains(grid)
    bs.bloch_phase(grid)
    dos_curve(bs, points=33)
    assert "discriminant" not in bs.__dict__
