import numpy as np
import pytest

from hillbands import band_structure, dos_curve, gap_report, make_chain


def test_make_chain_broadcasting():
    chain = make_chain([0.0, 0.5, -0.3])
    assert chain.period == 3
    assert np.allclose(chain.hopping, 1.0)

    chain = make_chain(0.2, [1.0, 0.7])
    assert chain.period == 2
    assert np.allclose(chain.onsite, 0.2)

    chain = make_chain(0.1, 0.9)
    assert chain.period == 1


def test_band_structure_shortcut():
    bs = band_structure([0.0, 0.8], hopping=1.0)
    assert len(bs.bands) == 2
    assert np.allclose(bs.edges, band_structure([0.0, 0.8], method="bisection").edges)


def test_dos_curve_shapes_and_padding():
    bs = band_structure([0.0, 0.8])
    energies, rho, ids = dos_curve(bs, points=128)
    assert energies.shape == rho.shape == ids.shape == (128,)
    assert energies[0] < bs.edges[0] and energies[-1] > bs.edges[-1]
    assert rho[0] == 0.0 and rho[-1] == 0.0
    assert ids[0] == 0.0 and ids[-1] == pytest.approx(1.0)
    assert np.all(np.diff(ids) >= -1e-12)


def test_gap_report_mentions_every_band_and_gap():
    bs = band_structure([0.0, 0.5, -0.3], hopping=[1.0, 0.8, 1.2])
    text = gap_report(bs)
    lines = text.splitlines()
    assert "period 3 chain" in lines[0]
    assert sum("open" in line for line in lines) >= 1
    # one row per band and per gap plus headers
    assert len(lines) == 1 + 1 + 3 + 1 + 2


def test_gap_report_closed_state():
    bs = band_structure([0.0, 0.0], hopping=1.0)
    assert "closed" in gap_report(bs)
