"""Operators sharing a band structure.

Equality of discriminants is equality of spectra, so Delta at N + 1
nodes of one interval is a complete isospectrality invariant. Cyclic
relabeling and reflection of the unit cell always preserve it; beyond
that discrete symmetry there is a continuous family, generically of
dimension one less than the period, explored here by walking the null
space of the node-value map and projecting back with `newton_solve`'s
Gauss-Newton steps. The node values and their analytic (log hopping,
onsite) Jacobian come from one march, `transfer.discriminant_jacobian`,
run once per iterate through the memo of `inverse.fused`, as in
`inverse`.

Exhaustive enumeration over a finite alphabet of onsite energies splits
the alphabet^N cube into isospectral classes; classes larger than a
single dihedral orbit are accidental degeneracies worth attention.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from . import transfer
from .discriminant import Discriminant, chebyshev_nodes
from .inverse import fused, newton_solve
from .operators import PeriodicJacobi

CHUNK = 4096  # patterns marched together by enumerate_onsite_classes


def dihedral_orbit(op, decimals=12):
    """All distinct chains reachable by shifts and reflection."""
    seen = {}
    for base in (op, op.reflected()):
        for k in range(op.period):
            candidate = base.shifted(k)
            key = (
                tuple(np.round(candidate.hopping, decimals)),
                tuple(np.round(candidate.onsite, decimals)),
            )
            seen.setdefault(key, candidate)
    return list(seen.values())


def orbit_distance(op, other):
    """Smallest max-norm parameter distance from other to op's orbit."""
    if op.period != other.period:
        raise ValueError("periods differ")
    best = np.inf
    for member in dihedral_orbit(op):
        d = max(
            np.max(np.abs(member.hopping - other.hopping)),
            np.max(np.abs(member.onsite - other.onsite)),
        )
        best = min(best, d)
    return float(best)


@dataclass(frozen=True)
class IsospectralClass:
    """Onsite patterns over a fixed hopping that share a discriminant."""

    key: tuple
    members: tuple

    @property
    def size(self):
        return len(self.members)

    def orbit_count(self, hopping):
        """Number of dihedral orbits merged into this class.

        Only meaningful over uniform hopping, where shifting the onsite
        pattern alone is a symmetry.
        """
        hopping = np.atleast_1d(np.asarray(hopping, dtype=float))
        if hopping.size > 1 and not np.all(hopping == hopping[0]):
            raise ValueError("orbit counting requires uniform hopping")
        if hopping.size == 1:
            hopping = np.full(len(self.members[0]), hopping[0])
        remaining = set(self.members)
        count = 0
        while remaining:
            seed = PeriodicJacobi(hopping, np.array(next(iter(remaining))))
            orbit = {tuple(m.onsite) for m in dihedral_orbit(seed)}
            remaining -= orbit
            count += 1
        return count


def enumerate_onsite_classes(values, period, hopping=1.0, decimals=9):
    """Partition all onsite patterns from a finite alphabet by spectrum.

    The patterns are marched CHUNK at a time at the Chebyshev nodes of
    [min(values) - 2 max a, max(values) + 2 max a], which holds every
    spectrum, and keyed on their node values divided by one scale, the
    largest |Delta| there of the constant lowest pattern. Unscaled
    values reach hundreds, and their rounding then splits classes.

    Parameters
    ----------
    values : sequence of float
        The alphabet each site draws from.
    period : int
        Cell length N; the search space is len(values) ** N patterns.
    hopping : float or array_like
        Fixed bond strengths, uniform if scalar.
    decimals : int
        Rounding used to key the scaled node values.

    Returns
    -------
    list of IsospectralClass
        Sorted by descending size, then by key.
    """
    values = [float(v) for v in values]
    hopping = np.atleast_1d(np.asarray(hopping, dtype=float))
    if hopping.size == 1:
        hopping = np.full(period, hopping[0])
    if not np.all(np.isfinite(values)):
        raise ValueError("alphabet values must be finite")
    lowest = PeriodicJacobi(hopping, np.full(period, min(values)))  # checks period and bonds
    reach = 2.0 * np.max(hopping)
    nodes = chebyshev_nodes((min(values) - reach, max(values) + reach), period)
    scale = max(1.0, np.max(np.abs(transfer.discriminant_value(lowest, nodes))))
    patterns = itertools.product(values, repeat=period)
    groups = {}
    while chunk := list(itertools.islice(patterns, CHUNK)):
        onsite = np.array(chunk).T  # sites first, one pattern per column
        bonds = np.broadcast_to(hopping[:, None], onsite.shape)
        delta = transfer.discriminant_batch(bonds, onsite, nodes[:, None])
        for pattern, key in zip(chunk, np.round(delta.T / scale, decimals)):
            groups.setdefault(tuple(key), []).append(pattern)
    classes = [
        IsospectralClass(key, tuple(members)) for key, members in groups.items()
    ]
    classes.sort(key=lambda c: (-c.size, c.key))
    return classes


def _pack(op):
    return np.concatenate([np.log(op.hopping), op.onsite])


def _unpack(x):
    n = x.size // 2
    return PeriodicJacobi(np.exp(x[:n]), x[n:])


def isospectral_neighbors(op, count=1, step=0.1, seed=None, tol=1e-10):
    """Walk the continuous isospectral family of a chain.

    Each step moves along a random direction in the null space of the
    map to Delta at the nodes of the start's interval, whose Jacobian in
    (log hopping, onsite) is analytic, and projects back with Gauss-Newton,
    so every returned chain shares the starting band structure while
    being genuinely different (not a shift or reflection, generically).

    Parameters
    ----------
    op : PeriodicJacobi
        Starting chain. Needs open gaps: at fully degenerate points
        such as the constant chain, the family collapses to a point
        and projection cannot succeed.
    count : int
        Number of steps, and of returned chains.
    step : float
        Tangent step length in (log hopping, onsite) coordinates.
    seed : int or numpy Generator, optional
        Randomness for the tangent directions.
    tol : float
        Max-norm residual on the node values after projection, relative
        to max(1, max|Delta|) over the start's nodes.

    Returns
    -------
    list of PeriodicJacobi
    """
    rng = np.random.default_rng(seed)
    start = Discriminant.from_operator(op)
    nodes = chebyshev_nodes(start.interval, op.period)
    scale = max(1.0, np.max(np.abs(start.values)))
    n = op.period

    def evaluate(x):
        delta, grad = transfer.discriminant_jacobian(np.exp(x[:n]), x[n:], nodes)
        return (delta - start.values) / scale, grad / scale

    fun, jac = fused(evaluate)
    x = _pack(op)
    out = []
    for _ in range(count):
        _, s, vt = np.linalg.svd(jac(x))
        cutoff = s[0] * 1e-8 if s.size else 0.0
        rank = int(np.sum(s > cutoff))
        null = vt[rank:]
        if null.shape[0] == 0:
            raise RuntimeError("no isospectral freedom at this chain")
        direction = null.T @ rng.standard_normal(null.shape[0])
        direction /= np.linalg.norm(direction)
        x = newton_solve(fun, jac, x + step * direction, tol=tol)
        out.append(_unpack(x))
    return out
