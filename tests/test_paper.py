"""The claims of the paper's abstract, one test each, on the odd class.

An odd chain is PeriodicJacobi.odd(q): a = 1, N = 2k sites odd about
the bond between sites 0 and 1, from k free values q. Its Fourier
coefficients q_hat_j = fft(onsite)_j / N set the small-q laws. Each
test calls the library's public API; while the API it needs is absent
the test is a strict xfail on the AttributeError, so that it turns into
a failure, and its marker must go, when the ROADMAP item lands.
README's table lists the claims, their tests and their status.
"""

import numpy as np
import pytest

import hillbands
from hillbands import BandStructure, PeriodicJacobi, band_edges_bisection, band_edges_eig


def _odd_values(k, max_q):
    """k free values from default_rng(k).uniform(-1, 1, k), scaled to max|q|."""
    q = np.random.default_rng(k).uniform(-1.0, 1.0, k)
    return max_q * q / np.max(np.abs(q))


def _r_bounded(k, max_q):
    """The free values of the odd chain with q_hat_j = i r_j exp(-i pi j / N),
    r_{N-j} = r_j, r_j = +-U(0.5, 1) from default_rng(k) for j = 1..k,
    scaled to max|q|: no Fourier coefficient is small beside the others."""
    rng = np.random.default_rng(k)
    n, j = 2 * k, np.arange(2 * k)
    r = np.zeros(n)
    r[1 : k + 1] = rng.choice([-1.0, 1.0], k) * rng.uniform(0.5, 1.0, k)
    r[k + 1 :] = r[k - 1 : 0 : -1]
    sites = n * np.fft.ifft(1j * r * np.exp(-1j * np.pi * j / n)).real
    return max_q * sites[1 : k + 1] / np.max(np.abs(sites))


def _first_order_heights(op):
    """N |q_hat_j| / (2 sin(pi j / N)), j = 1..N-1: the paper's height law.
    Odd chains have h_j = h_{N-j}, so the order of the gaps does not matter."""
    n = op.period
    j = np.arange(1, n)
    return n * np.abs(np.fft.fft(op.onsite)[1:] / n) / (2.0 * np.sin(np.pi * j / n))


def _slope(scales, deviations):
    return np.polyfit(np.log(scales), np.log(deviations), 1)[0]


def _heights(q):
    """The slit heights of PeriodicJacobi.odd(q), without their error bounds."""
    heights, _ = BandStructure(PeriodicJacobi.odd(q)).slit_heights()
    return heights


@pytest.mark.xfail(strict=True, raises=AttributeError, reason="ROADMAP item 1")
def test_a_the_height_map_is_a_local_isomorphism_on_the_odd_class():
    # The Jacobian of q -> (h_1..h_{N-1}) at max|q| = 1e-3 has rank k and
    # condition 1/sin(pi/N): 1.41, 2.61 and 5.13 at k = 2, 4 and 8. A
    # central-difference Jacobian of slit_heights serves until item 1c's
    # envelope formula lands.
    for k in (2, 4, 8):
        q, step = _odd_values(k, 1e-3), 1e-10
        jacobian = np.column_stack([(_heights(q + step * e) - _heights(q - step * e)) / (2.0 * step)
                                    for e in np.eye(k)])
        singular = np.linalg.svd(jacobian, compute_uv=False)
        assert jacobian.shape == (2 * k - 1, k)
        assert np.linalg.matrix_rank(jacobian) == k
        assert singular[0] / singular[-1] == pytest.approx(1.0 / np.sin(np.pi / (2 * k)), rel=1e-3)


@pytest.mark.xfail(strict=True, raises=AttributeError, reason="ROADMAP item 1")
def test_b_the_heights_follow_the_first_order_law():
    # h_j / (N |q_hat_j| / (2 sin(pi j / N))) - 1 falls like max|q|^2
    # over max|q| = 1e-2 .. 1e-4, which stays above the eps / h floor.
    scales = [1e-2, 1e-3, 1e-4]
    for k in (2, 4, 8):
        deviations = []
        for max_q in scales:
            q = _odd_values(k, max_q)
            law = _first_order_heights(PeriodicJacobi.odd(q))
            deviations.append(np.max(np.abs(_heights(q) / law - 1.0)))
        assert _slope(scales, deviations) == pytest.approx(2.0, abs=0.1)


@pytest.mark.xfail(strict=True, raises=AttributeError, reason="ROADMAP item 2")
def test_c_an_odd_spectrum_has_two_to_the_k_odd_potentials():
    # On the r-bounded family, k = 2, 3, 4 and 8 at max|q| up to 0.3, the
    # odd chains isospectral to one are 2^k, distinct at 1e-8, the input
    # among them to 1e-12, and each has the input's eig edges within
    # 1e-12 of the spectrum's norm bound.
    for k in (2, 3, 4, 8):
        for max_q in (0.01, 0.1, 0.3):
            op = PeriodicJacobi.odd(_r_bounded(k, max_q))
            members = hillbands.odd_isospectral_set(op)
            onsite = np.array([member.onsite for member in members])
            assert len(members) == 2**k
            apart = np.max(np.abs(onsite[:, None] - onsite), axis=2) + np.eye(len(members))
            assert np.min(apart) > 1e-8
            assert np.min(np.max(np.abs(onsite - op.onsite), axis=1)) <= 1e-12
            edges, bound = band_edges_eig(op), max(1.0, np.max(np.abs(op.onsite)) + 2.0)
            for member in members:
                assert np.all(member.hopping == 1.0)
                assert np.max(np.abs(band_edges_eig(member) - edges)) <= 1e-12 * bound


@pytest.mark.xfail(strict=True, raises=AttributeError, reason="ROADMAP item 3")
def test_d_gap_centres_and_widths_follow_the_small_q_asymptotics():
    # odd_asymptotics predicts the 2N edges (and the first-order heights):
    # its gap centres are off by O(q^4) and its widths, 2|q_hat_j|, by
    # O(q^3), over max|q| = 0.1 .. 0.01, against the edges of both routes.
    scales = np.geomspace(0.1, 0.01, 4)
    for k in (2, 4, 8):
        predicted = [np.sort(hillbands.odd_asymptotics(_odd_values(k, max_q))[0]) for max_q in scales]
        for route in (band_edges_eig, band_edges_bisection):
            centre, width = [], []
            for max_q, guess in zip(scales, predicted):
                edges = route(PeriodicJacobi.odd(_odd_values(k, max_q)))
                lo, hi, guess_lo, guess_hi = edges[1:-1:2], edges[2::2], guess[1:-1:2], guess[2::2]
                centre.append(np.max(np.abs((lo + hi) - (guess_lo + guess_hi))) / 2.0)
                width.append(np.max(np.abs((hi - lo) - (guess_hi - guess_lo))))
            assert _slope(scales, centre) == pytest.approx(4.0, abs=0.15)
            assert _slope(scales, width) == pytest.approx(3.0, abs=0.15)
