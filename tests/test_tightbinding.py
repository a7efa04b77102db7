"""The command line's chain of --onsite and --hopping, its gap table,
and dos_curve, on small 1-D tight-binding chains."""

from types import SimpleNamespace

import numpy as np
import pytest

from hillbands import BandStructure, dos_curve
from hillbands.cli import _chain, _gap_table


def make_chain(onsite, hopping=(1.0,)):
    """The chain of --onsite and --hopping given as these lists."""
    return _chain(SimpleNamespace(onsite=onsite, hopping=hopping))


def gap_report(structure):
    return _gap_table(structure.to_dict())


def test_make_chain_broadcasting():
    chain = make_chain([0.0, 0.5, -0.3])
    assert chain.period == 3
    assert np.allclose(chain.hopping, 1.0)

    chain = make_chain([0.2], [1.0, 0.7])
    assert chain.period == 2
    assert np.allclose(chain.onsite, 0.2)

    chain = make_chain([0.1], [0.9])
    assert chain.period == 1

    # One hopping over no sites is an empty chain, not a mismatch.
    with pytest.raises(ValueError, match="period must be at least one"):
        make_chain([])


def test_band_structure_shortcut():
    bs = BandStructure(make_chain([0.0, 0.8], [1.0]))
    assert bs.edges.reshape(-1, 2).shape == (2, 2)
    assert np.allclose(bs.edges, BandStructure(make_chain([0.0, 0.8]), method="bisection").edges)


def test_dos_curve_shapes_and_padding():
    bs = BandStructure(make_chain([0.0, 0.8]))
    energies, rho, ids = dos_curve(bs, points=128)
    assert energies.shape == rho.shape == ids.shape == (128,)
    assert energies[0] < bs.edges[0] and energies[-1] > bs.edges[-1]
    assert rho[0] == 0.0 and rho[-1] == 0.0
    assert ids[0] == 0.0 and ids[-1] == pytest.approx(1.0)
    assert np.all(np.diff(ids) >= -1e-12)


def test_dos_curve_refuses_negative_points():
    bs = BandStructure(make_chain([0.0, 0.8]))
    with pytest.raises(ValueError, match="points must be nonnegative"):
        dos_curve(bs, points=-3)
    assert "edges" not in vars(bs)  # refused before the edges were solved


def test_gap_report_mentions_every_band_and_gap():
    bs = BandStructure(make_chain([0.0, 0.5, -0.3], [1.0, 0.8, 1.2]))
    text = gap_report(bs)
    lines = text.splitlines()
    assert "period 3 chain" in lines[0]
    assert sum("open" in line for line in lines) >= 1
    # one row per band and per gap plus headers
    assert len(lines) == 1 + 1 + 3 + 1 + 2


def test_gap_report_closed_state():
    bs = BandStructure(make_chain([0.0, 0.0], [1.0]))
    assert "closed" in gap_report(bs)


def test_gap_report_text_is_pinned():
    # The whole table, literally: a period-1 chain prints no gap section,
    # [0.8, -0.8] has one open gap, and the uniform N = 4 chain three
    # closed ones, its middle gap at 2 cos(pi / 2) = 1.22465e-16.
    assert gap_report(BandStructure(make_chain([0.3], [0.9]))) == (
        "period 1 chain; spectrum within [-1.5, 2.1]\n"
        "band         lower         upper         width\n"
        "   0          -1.5           2.1           3.6"
    )
    assert gap_report(BandStructure(make_chain([0.8, -0.8], [1.0]))) == (
        "period 2 chain; spectrum within [-2.15407, 2.15407]\n"
        "band         lower         upper         width\n"
        "   0      -2.15407          -0.8       1.35407\n"
        "   1           0.8       2.15407       1.35407\n"
        " gap         lower         upper         width  state\n"
        "   0          -0.8           0.8           1.6  open"
    )
    assert gap_report(BandStructure(make_chain([0.0] * 4, [1.0]))) == (
        "period 4 chain; spectrum within [-2, 2]\n"
        "band         lower         upper         width\n"
        "   0            -2      -1.41421      0.585786\n"
        "   1      -1.41421   1.22465e-16       1.41421\n"
        "   2   1.22465e-16       1.41421       1.41421\n"
        "   3       1.41421             2      0.585786\n"
        " gap         lower         upper         width  state\n"
        "   0      -1.41421      -1.41421             0  closed\n"
        "   1   1.22465e-16   1.22465e-16             0  closed\n"
        "   2       1.41421       1.41421             0  closed"
    )
