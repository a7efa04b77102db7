"""Convenience layer for 1-D tight-binding band calculations.

Wraps the operator/band machinery behind plain-number interfaces:
scalars broadcast across the cell, reports come back as text tables or
dictionaries ready for JSON.
"""

import numpy as np

from .bands import BandStructure
from .operators import PeriodicJacobi


def make_chain(onsite, hopping=1.0):
    """Build a PeriodicJacobi from scalars or sequences.

    Scalar arguments broadcast against the other argument's length;
    two scalars give a period-1 chain.
    """
    b = np.atleast_1d(np.asarray(onsite, dtype=float))
    a = np.atleast_1d(np.asarray(hopping, dtype=float))
    if a.size == 1 and b.size > 1:
        a = np.full(b.size, a[0])
    if b.size == 1 and a.size > 1:
        b = np.full(a.size, b[0])
    return PeriodicJacobi(a, b)


def band_structure(onsite, hopping=1.0, method="eig"):
    """Band structure of the chain defined by onsite/hopping patterns."""
    return BandStructure(make_chain(onsite, hopping), method=method)


def dos_curve(structure, points=512):
    """Sampled density of states and integrated density over the spectrum.

    Returns (energies, dos, ids) arrays; the grid spans the spectrum
    plus 5% of its width on each side. Both curves come from one march
    over the grid points in the spectrum.
    """
    lo, hi = structure.edges[0], structure.edges[-1]
    margin = 0.05 * (hi - lo if hi > lo else 1.0)
    energies = np.linspace(lo - margin, hi + margin, points)
    return (energies, *structure._densities(energies))


def gap_report(structure):
    """Plain-text table of bands and gaps; a gap is open when its edges differ."""
    lines = []
    n = structure.operator.period
    lines.append(f"period {n} chain; spectrum within [{structure.edges[0]:.6g}, {structure.edges[-1]:.6g}]")
    lines.append(f"{'band':>4}  {'lower':>12}  {'upper':>12}  {'width':>12}")
    for band in structure.bands:
        lines.append(
            f"{band.index:>4}  {band.lower:>12.6g}  {band.upper:>12.6g}  {band.width:>12.6g}"
        )
    if structure.gaps:
        lines.append(f"{'gap':>4}  {'lower':>12}  {'upper':>12}  {'width':>12}  state")
        for gap in structure.gaps:
            state = "open" if gap.is_open() else "closed"
            lines.append(
                f"{gap.index:>4}  {gap.lower:>12.6g}  {gap.upper:>12.6g}  {gap.width:>12.6g}  {state}"
            )
    return "\n".join(lines)
