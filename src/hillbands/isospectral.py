"""Operators sharing a band structure.

Equality of discriminants is equality of spectra, so Delta at N + 1
nodes of one interval is a complete isospectrality invariant. Cyclic
relabeling and reflection of the unit cell always preserve it; beyond
that discrete symmetry there is a continuous family, the isospectral
torus: one circle per open gap, on which the Dirichlet eigenvalue of
the gap runs across it and back on the other sheet. Walks on it move
the start's divisor around these circles and build each member with
`inverse.chain_from_divisor`, so every member is isospectral to
rounding by construction.

Exhaustive enumeration over a finite alphabet of onsite energies splits
the alphabet^N cube into isospectral classes; classes larger than a
single dihedral orbit are accidental degeneracies worth attention.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from . import transfer
from .bands import band_edges_eig
from .inverse import chain_from_divisor, chebyshev_nodes
from .operators import PeriodicJacobi

CHUNK = 4096  # patterns marched together by enumerate_onsite_classes
DECIMALS = 9  # rounding of the scaled node values that key its classes


def _dihedral(op):
    """Hoppings and onsite energies of op.shifted(k), then of
    op.reflected().shifted(k), k = 0..N-1: two (2N, N) arrays."""
    n = op.period
    shift = (np.arange(n)[:, None] + np.arange(n)) % n  # row k: site i is site (i + k) mod N
    mirror = op.reflected()
    return (np.concatenate([op.hopping[shift], mirror.hopping[shift]]),
            np.concatenate([op.onsite[shift], mirror.onsite[shift]]))


def dihedral_orbit(op):
    """Distinct chains reachable by shifts and reflection (rows of _dihedral,
    first of each key kept), told apart by their exact parameters, which
    are permutations of op's own (-0.0 and 0.0 are one value)."""
    hopping, onsite = _dihedral(op)
    first = {}
    for i, key in enumerate(np.hstack([hopping, onsite]).tolist()):
        first.setdefault(tuple(key), i)
    return [PeriodicJacobi(hopping[i], onsite[i]) for i in first.values()]


def orbit_distance(op, other):
    """Smallest max-norm parameter distance from other to op's orbit."""
    if op.period != other.period:
        raise ValueError("periods differ")
    hopping, onsite = _dihedral(op)
    return float(np.min(np.maximum(np.max(np.abs(hopping - other.hopping), axis=1),
                                   np.max(np.abs(onsite - other.onsite), axis=1))))


@dataclass(frozen=True)
class IsospectralClass:
    """Onsite patterns over a fixed hopping that share a discriminant."""

    key: tuple
    members: tuple

    @property
    def size(self):
        return len(self.members)


def enumerate_onsite_classes(values, period, hopping=1.0):
    """Partition all onsite patterns from a finite alphabet by spectrum.

    The patterns are marched CHUNK at a time at the Chebyshev nodes of
    [min(values) - 2 max a, max(values) + 2 max a], which holds every
    spectrum, and keyed on their node values divided by one scale, the
    largest |Delta| there of the constant lowest pattern. Unscaled
    values reach hundreds, and their rounding then splits classes.

    Parameters
    ----------
    values : sequence of float
        The alphabet each site draws from, each distinct value read once.
    period : int
        Cell length N; the search space is (distinct values) ** N patterns.
    hopping : float or array_like
        Fixed bond strengths, uniform if scalar.

    Returns
    -------
    list of IsospectralClass
        Sorted by descending size, then by key.
    """
    if period < 1:
        raise ValueError("period must be at least one")
    values = list(dict.fromkeys(float(v) for v in values))
    if not values:
        raise ValueError("alphabet must not be empty")
    hopping = np.atleast_1d(np.asarray(hopping, dtype=float))
    if hopping.size == 1:
        hopping = np.full(period, hopping[0])
    if not np.all(np.isfinite(values)):
        raise ValueError("alphabet values must be finite")
    lowest = PeriodicJacobi(hopping, np.full(period, min(values)))  # checks the bonds
    reach = 2.0 * np.max(hopping)
    nodes = chebyshev_nodes((min(values) - reach, max(values) + reach), period)
    scale = max(1.0, np.max(np.abs(transfer.March(hopping).at(nodes).trace(lowest.onsite)[0])))
    patterns = itertools.product(values, repeat=period)
    groups = {}
    while chunk := list(itertools.islice(patterns, CHUNK)):
        onsite = np.array(chunk).T  # sites first, one pattern per column
        bonds = np.broadcast_to(hopping[:, None], onsite.shape)
        delta = transfer.March(bonds).at(nodes[:, None]).trace(onsite)[0]
        for pattern, key in zip(chunk, np.round(delta.T / scale, DECIMALS)):
            groups.setdefault(tuple(key), []).append(pattern)
    classes = [
        IsospectralClass(key, tuple(members)) for key, members in groups.items()
    ]
    classes.sort(key=lambda c: (-c.size, c.key))
    return classes


def isospectral_neighbors(op, count=1, step=0.1, seed=None):
    """Walk the continuous isospectral family of a chain.

    Open gap j (lower < upper on the eig edges) is a circle with angle
    phi_j: mu_j = mid_j + half_j cos(phi_j) on sheet sign(sin(phi_j)).
    The start's angles come from its Dirichlet spectrum, with sheet +1
    where |M[1, 1](mu_j)| > 1 in one march of the monodromy. Each step
    adds step times a random unit vector to the angles, and each member
    is chain_from_divisor of the start's edges and hopping product at
    the new divisor: isospectral by construction, and generically not a
    shift or reflection of the start.

    Parameters
    ----------
    op : PeriodicJacobi
        Starting chain, with at least one open gap.
    count : int
        Number of steps, and of returned chains.
    step : float
        Angle in radians moved on the divisor circles per step.
    seed : int or numpy Generator, optional
        Randomness for the step directions.

    Returns
    -------
    list of PeriodicJacobi

    Raises
    ------
    RuntimeError
        If no gap is open, as on the constant chain: the family is a point.
    ValueError
        If count is negative, step or an angle it reaches is not finite,
        seed is a negative integer, or a divisor's weight is not finite or underflows.
    """
    if count < 0:
        raise ValueError(f"count must be nonnegative, not {count}")
    if not np.isfinite(step):
        raise ValueError(f"step must be finite, not {step}")
    if isinstance(seed, (int, np.integer)) and seed < 0:
        raise ValueError(f"seed must be nonnegative, not {seed}")
    rng = np.random.default_rng(seed)
    edges = band_edges_eig(op)
    lower, upper = edges[1:-1:2], edges[2::2]
    open_ = upper > lower
    if not np.any(open_):
        raise RuntimeError("no isospectral freedom at this chain: no gap is open")
    mid, half = 0.5 * (lower + upper)[open_], 0.5 * (upper - lower)[open_]
    mu = op.dirichlet_eigenvalues()
    m = transfer.March(op.hopping).at(mu).monodromy(op.onsite)[0]
    sheet = np.where(np.abs(m[1, 1]) > 1.0, 1.0, -1.0)
    phi = sheet[open_] * np.arccos(np.clip((mu[open_] - mid) / half, -1.0, 1.0))
    mu, sheet = lower.copy(), np.ones(lower.size)  # closed gaps: the closed point
    log_product = float(np.sum(np.log(op.hopping)))
    out = []
    for _ in range(count):
        direction = rng.standard_normal(phi.size)
        with np.errstate(over="ignore"):  # an overflow is refused below, by the step
            phi = phi + step * direction / np.linalg.norm(direction)
        if not np.isfinite(phi).all():
            raise ValueError(f"step {step} takes an angle beyond the float range")
        mu[open_] = mid + half * np.cos(phi)  # chain_from_divisor clips its rounding
        sheet[open_] = np.where(np.sin(phi) < 0.0, -1.0, 1.0)
        out.append(chain_from_divisor(edges, mu, sheet, log_product))
    return out
