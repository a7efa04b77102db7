"""Band structure of a periodic chain from its Hill discriminant.

A period-N chain has N closed spectral bands separated by N-1 gaps, some
of which may be closed. The 2N band edges are the zeros of Delta -+ 2,
equivalently the eigenvalues of the Bloch Hamiltonians at phase 0 and
pi. Both routes are implemented: the Hermitian band-matrix eigensolver
route and multisection on the discriminant between Dirichlet eigenvalues;
they must agree, and the acceptance suite holds them to that.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import transfer
from .discriminant import gershgorin_interval


@dataclass(frozen=True)
class Band:
    """Closed interval [lower, upper] of spectrum, indexed from the bottom."""

    index: int
    lower: float
    upper: float

    @property
    def width(self):
        return self.upper - self.lower

    def contains(self, lam, tol=0.0):
        return self.lower - tol <= lam <= self.upper + tol


@dataclass(frozen=True)
class Gap:
    """Open interval between bands index and index+1; empty, lower ==
    upper, when the gap is closed (see _close)."""

    index: int
    lower: float
    upper: float

    @property
    def width(self):
        return max(0.0, self.upper - self.lower)

    def is_open(self):
        return self.upper > self.lower


def band_edges_eig(op):
    """All 2N band edges: the periodic (theta = 0) and antiperiodic
    (theta = pi) Bloch eigenvalues, each phase one real band-matrix
    solve in O(N^2), made once per chain and process and shared with
    dispersion (see PeriodicJacobi.floquet_eigenvalues).

    The solve leaves a sliver of its own rounding, up to N eps times
    the largest |lam| of the Gershgorin interval, between the edges of
    a closed gap; every gap no wider than that is closed at its middle.
    """
    edges = np.sort(op.floquet_eigenvalues([0.0, np.pi]), axis=None)
    lo, hi = gershgorin_interval(op)
    slack = op.period * np.finfo(float).eps * max(abs(lo), abs(hi))
    lower, upper = edges[1:-1:2], edges[2::2]
    closed = upper - lower <= slack
    return _close(edges, closed, 0.5 * (lower + upper)[closed])


def _close(edges, gaps, at):
    """Close the gaps selected by gaps (a mask or indices): both edges of
    each become its entry of at.

    A closed gap is two equal edges, and nothing else: Gap.is_open,
    contains, the DOS and the IDS all read it from the edges.
    """
    edges[1:-1:2][gaps] = at
    edges[2::2][gaps] = at
    return edges


SPLIT = 16  # sub-intervals per multisection pass: 4 bits per pass
TOL = 1e-13  # relative width, in max(1, |lam|), at which multisection stops


def band_edges_bisection(op):
    """All 2N band edges by multisection on Delta -+ 2, evaluated by recurrence.

    Band j lies between consecutive Dirichlet eigenvalues mu_{j-1} and
    mu_j, the outer ends bounded by the Gershgorin interval. Oriented by
    the sign s_j = (-1)^(N-1-j) of Delta at its upper edge, s_j Delta
    stays <= -2 on that bracket below the band, rises through the band
    and stays >= 2 above it, so that predicate turns true exactly once
    per bracket. Each pass evaluates it at SPLIT - 1 interior points of
    all 2N brackets in one value-only march and keeps the sub-interval
    where it turns, 4 bits per pass, until every bracket is within
    TOL * max(1, |lam|): about 12 passes in place of 45 halvings.

    A closed gap is a double zero, which bisection resolves only to
    about sqrt(eps). A gap whose edges came out in order and where
    |Delta| - 2 at their midpoint exceeds the rounding-error bound the
    recurrence carries there (see transfer.discriminant_rounding) is
    certified open, and keeps its edges. Only the other gaps get an
    extremum search: their extrema c_j, the zeros of Delta' between the
    middles of the two bands, are multisected, and such a gap is
    closed, both edges set to c_j, when |Delta(c_j)| - 2 is within the
    rounding-error bound at c_j. A chain whose gaps are all plainly
    open runs no march for Delta'.
    """
    n = op.period
    lo, hi = gershgorin_interval(op)
    mu = np.concatenate([[lo], op.dirichlet_eigenvalues(), [hi]])
    orient = (-1.0) ** (n - 1 - np.arange(n))
    edge_orient = np.repeat(orient, 2)
    level = np.tile([-2.0, 2.0], n)
    edges = _multisect(
        lambda lam: edge_orient * transfer.discriminant_value(op.hopping, op.onsite, lam) >= level,
        np.repeat(mu[:-1], 2),
        np.repeat(mu[1:], 2),
        TOL,
    )
    lower, upper = edges[1:-1:2], edges[2::2]
    value, rounding = transfer.discriminant_rounding(op, 0.5 * (lower + upper))
    unsure = np.flatnonzero((upper <= lower) | (np.abs(value) - 2.0 <= rounding))
    if unsure.size:
        middle = 0.5 * (edges[0::2] + edges[1::2])
        crit = _multisect(
            lambda lam: orient[unsure] * transfer.discriminant(op, lam)[1] <= 0.0,
            middle[unsure],
            middle[unsure + 1],
            TOL,
        )
        peak, rounding = transfer.discriminant_rounding(op, crit)
        shut = np.abs(peak) - 2.0 <= rounding
        edges = _close(edges, unsure[shut], crit[shut])
    return np.sort(edges)


def _multisect(past, lo, hi, tol):
    """Shrink brackets [lo, hi] onto the point where past(lam) turns true.

    past is monotone on each bracket and takes lam of shape
    (SPLIT - 1, brackets). Sub-interval i of a bracket runs from grid
    point i to i + 1; the first interior point where past holds ends the
    kept one.
    """
    fraction = np.arange(SPLIT + 1)[:, None] / SPLIT
    column = np.arange(lo.size)
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        if np.all(hi - lo <= tol * np.maximum(1.0, np.abs(mid))):
            break
        grid = lo + (hi - lo) * fraction
        grid[-1] = hi
        turned = np.ones((SPLIT, lo.size), dtype=bool)
        turned[:-1] = past(grid[1:-1])
        keep = np.argmax(turned, axis=0)
        lo, hi = grid[keep, column], grid[keep + 1, column]
    return mid


class BandStructure:
    """Spectral data of a periodic chain.

    Parameters
    ----------
    operator : PeriodicJacobi
        The chain whose spectrum is described.
    method : {'eig', 'bisection'}
        How band edges are computed. 'eig' solves the Bloch band
        matrices at phases 0 and pi; 'bisection' brackets the zeros
        of Delta -+ 2 by Dirichlet eigenvalues and multisects them.

    Notes
    -----
    With edges E_0 <= E_1 <= ... <= E_{2N-1}, band j is
    [E_{2j}, E_{2j+1}] and gap j is (E_{2j+1}, E_{2j+2}). The
    integrated density of states increases by exactly 1/N over each
    band and is flat across gaps.

    The edges are computed on first use, not at construction, so a
    caller that never reads them (dispersion alone) never solves for
    them. An error of the edge route, such as the ValueError of a
    recurrence that overflows on the bisection route, is raised at that
    first access; an unknown method is still rejected here.
    """

    def __init__(self, operator, method="eig"):
        if method not in ("eig", "bisection"):
            raise ValueError(f"unknown method {method!r}")
        self.operator = operator
        self.method = method

    @cached_property
    def edges(self):
        """The 2N sorted band edges, by the chosen route on first use."""
        route = band_edges_eig if self.method == "eig" else band_edges_bisection
        edges = route(self.operator)
        edges.setflags(write=False)
        return edges

    @cached_property
    def bands(self):
        return [
            Band(j, float(self.edges[2 * j]), float(self.edges[2 * j + 1]))
            for j in range(self.operator.period)
        ]

    @cached_property
    def gaps(self):
        return [
            Gap(j, float(self.edges[2 * j + 1]), float(self.edges[2 * j + 2]))
            for j in range(self.operator.period - 1)
        ]

    def open_gaps(self):
        return [g for g in self.gaps if g.is_open()]

    def _locate(self, lam, tol=0.0):
        """Edge count and spectrum membership of lam, elementwise.

        k is the number of edges at or below lam, so lam lies inside
        band k // 2 when k is odd, and in a gap or off the spectrum when
        it is even. inside is true in the closed bands widened by tol on
        both sides, as in Band.contains: where k is odd or an edge lies
        within tol of lam (on an edge at tol = 0, which also holds a band
        of width 0 and the one point of a closed gap).
        """
        lam = np.asarray(lam, dtype=float)
        k = np.searchsorted(self.edges, lam, side="right")
        near = np.searchsorted(self.edges, lam - tol) < np.searchsorted(
            self.edges, lam + tol, side="right")
        return k, (k % 2 == 1) | near

    def contains(self, lam, tol=0.0):
        """Spectrum membership, elementwise, decided from the edges.

        tol is an energy tolerance that widens each band on both sides.
        No recurrence runs, so a band narrower than the rounding of
        Delta still contains its own points.
        """
        return self._locate(lam, tol)[1]

    def dispersion(self, thetas):
        """Band energies over Bloch phases; shape (N, len(thetas)).

        One O(N^2) band-matrix solve per phase, all sharing one folded
        band built once; phases 0 and pi read the band edges' solves
        (see PeriodicJacobi.floquet_eigenvalues).
        """
        thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
        return self.operator.floquet_eigenvalues(thetas.ravel()).T

    def density_of_states(self, lam):
        """Per-site DOS |Delta'| / (N pi sqrt(4 - Delta^2)), elementwise.

        Zero off the spectrum; integrates to exactly 1/N over each band.
        Diverges like an inverse square root at open-gap edges. Computed
        with the IDS by one march (see _densities).
        """
        return self._densities(lam)[0]

    def integrated_density(self, lam):
        """Fraction of states at or below lam, in [0, 1], elementwise.

        A point on an upper band edge counts the band as filled; a point
        on a lower edge counts as inside the band. Computed with the DOS
        by one march (see _densities), slope rows included.
        """
        return self._densities(lam)[1]

    def _densities(self, lam):
        """The DOS and the IDS at lam, elementwise, from one march.

        M and M' come from one march of the recurrence over the points
        in the spectrum, as contains decides it from the edges; at all
        other points the DOS is exactly 0 and the IDS sits on its
        plateau, read from the edges. The march is elementwise, so a
        point's values do not depend on which others are marched.

        Since det M = 1, 4 - Delta^2 = -(M00 - M11)^2 - 4 M01 M10. Near
        a closed gap M is close to +-I, Delta^2 cancels against 4, and
        the second form keeps the relative accuracy; where M is far from
        normal its entries cancel instead. Each point takes the form
        whose first-order sensitivity to errors in M is smaller.

        At the point c of a closed gap both Delta' and 4 - Delta^2
        vanish, and their computed quotient is rounding over rounding.
        There M(c + t) = +-I + t M' + O(t^2), and det M = 1 gives
        tr M' = 0 and Delta = +-(2 - det M' t^2), so the quotient tends
        to sqrt(det M'), which the march gives to full accuracy.

        Inside band j the IDS is (j + |arccos(Delta/2) - phase_j| / pi) / N,
        Delta = M00 + M11 from the same march. Delta is +-2 alternately
        along the edges, +2 on the top one, so phase_j, the phase at band
        j's lower edge, is exactly 0 when N - j is even and pi otherwise,
        free of the sqrt-of-roundoff noise of arccos at a computed edge.
        """
        lam = np.asarray(lam, dtype=float)
        n = self.operator.period
        k, inside = self._locate(lam)
        k_in, at = k[inside], lam[inside]
        m, dm = transfer.monodromy(self.operator, at)
        # Odd k puts lam in a band; lam on the upper edge of the band
        # below as well is the one point of a closed gap.
        shut = (k_in % 2 == 1) & (self.edges[k_in - 2] == at)
        delta = m[0, 0] + m[1, 1]
        split = m[0, 0] - m[1, 1]
        under = np.where(shut, 1.0, np.where(
            np.abs(split) + np.abs(m[0, 1]) + np.abs(m[1, 0]) < np.abs(delta),
            -(split * split + 4.0 * m[0, 1] * m[1, 0]),
            4.0 - delta * delta,
        ))
        slope = np.where(shut, np.sqrt(np.abs(dm[0, 0] * dm[1, 1] - dm[0, 1] * dm[1, 0])),
                         np.abs(dm[0, 0] + dm[1, 1]))
        rho = np.zeros(lam.shape)
        with np.errstate(divide="ignore", invalid="ignore"):
            rho[inside] = np.where(
                under > 0.0,
                slope / (n * np.pi * np.sqrt(np.where(under > 0, under, 1.0))),
                0.0,
            )
        band = k // 2
        phase_lower = np.where((n - band[inside]) % 2 == 0, 0.0, np.pi)
        partial = np.zeros(lam.shape)
        partial[inside] = np.abs(np.arccos(np.clip(delta / 2.0, -1.0, 1.0)) - phase_lower) / np.pi
        ids = (band + np.where(k % 2 == 1, partial, 0.0)) / n
        if lam.ndim == 0:
            return float(rho), float(ids)
        return rho, ids

    def to_dict(self):
        return {
            "period": self.operator.period,
            "hopping": self.operator.hopping.tolist(),
            "onsite": self.operator.onsite.tolist(),
            "edges": self.edges.tolist(),
            "bands": [[b.lower, b.upper] for b in self.bands],
            "band_widths": [b.width for b in self.bands],
            "gaps": [[g.lower, g.upper] for g in self.gaps],
            "gap_widths": [g.width for g in self.gaps],
        }
