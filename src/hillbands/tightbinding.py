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

    A scalar hopping broadcasts over the sites, however many (none
    included, which PeriodicJacobi refuses as a period below one); a
    scalar site energy broadcasts over two or more hoppings. Two
    scalars give a period-1 chain.
    """
    b = np.atleast_1d(np.asarray(onsite, dtype=float))
    a = np.atleast_1d(np.asarray(hopping, dtype=float))
    if a.size == 1 and b.size != 1:
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
    over the grid points in the spectrum. A negative count of points is
    refused before any solve; zero gives three empty arrays.
    """
    if points < 0:
        raise ValueError(f"points must be nonnegative, not {points}")
    lo, hi = structure.edges[0], structure.edges[-1]
    margin = 0.05 * (hi - lo if hi > lo else 1.0)
    energies = np.linspace(lo - margin, hi + margin, points)
    return (energies, *structure._densities(energies))


def gap_report(structure):
    """Plain-text table of bands and gaps, read from the edges as to_dict
    reads them; a gap is open when its edges differ."""
    edges = structure.edges
    head, row = "{:>4}  {:>12}  {:>12}  {:>12}", "{:>4}  {:>12.6g}  {:>12.6g}  {:>12.6g}"
    lines = [f"period {structure.operator.period} chain; "
             f"spectrum within [{edges[0]:.6g}, {edges[-1]:.6g}]",
             head.format("band", "lower", "upper", "width")]
    for j, (lower, upper) in enumerate(edges.reshape(-1, 2).tolist()):
        lines.append(row.format(j, lower, upper, upper - lower))
    gaps = edges[1:-1].reshape(-1, 2).tolist()
    if gaps:
        lines.append(head.format("gap", "lower", "upper", "width") + "  state")
        for j, (lower, upper) in enumerate(gaps):
            state = "open" if upper > lower else "closed"
            lines.append(row.format(j, lower, upper, max(0.0, upper - lower)) + f"  {state}")
    return "\n".join(lines)
