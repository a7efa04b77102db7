"""Band structure of a periodic chain from its Hill discriminant.

A period-N chain has N closed spectral bands separated by N-1 gaps, some
of which may be closed. The 2N band edges are the zeros of Delta -+ 2,
equivalently the eigenvalues of the Bloch Hamiltonians at phase 0 and
pi. Both routes are implemented: the Hermitian band-matrix eigensolver
route and a bracketed search on the discriminant between Dirichlet
eigenvalues, multisection finished by Newton steps; they must agree, and
the acceptance suite holds them to that. Both, and the DOS march, work
on the chain's cell (see PeriodicJacobi.cell). Only the bisection
search and the DOS march import transfer, so the eig route loads no
march.
"""

from functools import cached_property

import numpy as np

from .operators import PeriodicJacobi


def band_edges_eig(op):
    """All 2N band edges: the periodic (theta = 0) and antiperiodic
    (theta = pi) Bloch eigenvalues, each phase one real band-matrix
    solve of the chain's cell in O(p^2), made once per cell and process
    and shared with dispersion (see PeriodicJacobi.floquet_eigenvalues).
    A cell repeated gives both edges of each gap its folding closes from
    one solve, equal.

    The solve leaves a sliver of its own rounding, up to N eps times
    the largest |lam| of the Gershgorin interval, between the edges of
    a closed gap; every gap no wider than that is closed at its middle,
    in place. A closed gap is two equal edges, and nothing else:
    contains, the DOS, the IDS and to_dict all read it from the edges.
    """
    edges = np.sort(op.floquet_eigenvalues([0.0, np.pi]), axis=None)
    lo, hi = op.gershgorin
    slack = op.period * np.finfo(float).eps * max(abs(lo), abs(hi))
    lower, upper = edges[1:-1:2], edges[2::2]
    closed = upper - lower <= slack
    lower[closed] = upper[closed] = 0.5 * (lower + upper)[closed]
    return edges


SPLIT = 16  # sub-intervals per multisection pass: 4 bits per pass
TOL = 1e-13  # relative width, in max(1, |lam|), at which a bracket is finished
COARSE = 3  # multisection passes on every edge before the gaps are classified
ROUNDS = 64  # cap on the rounds of a search; multisection to TOL takes about 12


def band_edges_bisection(op):
    """All 2N band edges from Delta -+ 2, evaluated by recurrence on the
    chain's p-site cell (see PeriodicJacobi.cell), repeated m = N / p
    times.

    With Delta_p the cell's discriminant, Delta = 2 T_m(Delta_p / 2), so
    the edges are the zeros of Delta_p + 2 cos(pi r / m), r = 0..m, in
    each of the cell's p bands. Cell band j lies between consecutive
    Dirichlet eigenvalues mu_{j-1} and mu_j of the cell, the outer ends
    bounded by the Gershgorin interval. Oriented by the sign
    s_j = (-1)^(p-1-j) of Delta_p at its upper edge, s_j Delta_p stays
    <= -2 on that bracket below the band, rises through the band and
    stays >= 2 above it, so s_j Delta_p + 2 cos(pi r / m) turns >= 0
    exactly once per bracket. Level r = 0 is exactly -2 and r = m
    exactly 2, the ends of cell band j; the m - 1 inner zeros are
    simple, Delta_p' being nonzero inside a band, and each is both edges
    of a gap that the repetition closes, equal. At m = 1 the chain is
    its own cell. COARSE multisection passes (see _multisect), each one
    value-only march of p sites, shrink all p(m + 1) brackets 4096-fold.

    A closed gap of the cell is a double zero, which a bracket on
    Delta_p -+ 2 resolves only to about sqrt(eps). A cell gap whose two
    edge brackets came out apart, and where |Delta_p| - 2 midway between
    them exceeds the rounding-error bound the recurrence carries there
    (see transfer.discriminant_rounding), is certified open. Each other
    cell gap j gets its extremum c_j, the zero of -s_j Delta_p' between
    the middles of cell bands j and j + 1, and is closed, both edges set
    to c_j, when |Delta_p(c_j)| - 2 is within the rounding-error bound
    at c_j.

    One bracketed Newton search (see _newton) finishes the edges of
    certified gaps, the inner zeros and the two outer edges, on
    s Delta_p + 2 cos(pi r / m) with Delta_p' from the derivative rows,
    and finds those extrema, on -s Delta_p' with Delta_p''. The edges of
    gaps that the search found open keep multisection to TOL: they are
    near-double zeros, where Delta_p' says little. A random chain, whose
    gaps are all certified, takes the 3 coarse marches, the 1 of the
    check and about 4 Newton marches, and runs no march with Delta_p''; a
    uniform chain takes 5 marches over its one site, none with Delta_p'',
    and a Harper approximant at N = 89 or 144 takes 19.

    A solve builds the cell's transfer.March, its bond factors
    a_{k-1} / a_k and 1 / a_k, once and hands it to every march of the
    cell: the coarse passes, the Newton rounds and any narrow
    multisection. Each march still prepares its start rows at its own
    points and runs the site loop; the rounding bound's batch of the
    cell and its reversal builds its own, once per call. When every gap
    is certified, the Newton search takes every bracket in the order
    multisection left them, with the coarse passes' evaluator. The
    searches are elementwise, so an edge's bits do not depend on which
    brackets share its marches.

    TOL is relative to max(1, |lam|), so a chain whose Gershgorin reach
    max(|lo|, |hi|) is below 1 is solved scaled by the power of two that
    brings its reach into [1, 2), and its edges are scaled back; both
    scalings are exact. Every other chain is solved as it is.
    """
    lo, hi = op.gershgorin
    cell, m = op.cell, op.period // op.cell.period
    reach = max(abs(lo), abs(hi))
    if reach >= 1.0:
        return _cell_edges(cell, m)
    shift = 1 - int(np.frexp(reach)[1])
    scaled = PeriodicJacobi(np.ldexp(cell.hopping, shift), np.ldexp(cell.onsite, shift))
    return np.ldexp(_cell_edges(scaled, m), -shift)


def _cell_edges(cell, m):
    """The edges of cell repeated m times, by band_edges_bisection's search."""
    from . import transfer

    n = cell.period
    lo, hi = cell.gershgorin
    mu = np.concatenate([[lo], cell.dirichlet_eigenvalues(), [hi]])
    march = transfer.March(cell.hopping)  # for every march of the solve
    orient = (-1.0) ** (n - 1 - np.arange(n))
    sign = np.repeat(orient, m + 1)
    level = np.tile(-2.0 * np.cos(np.pi * np.arange(m + 1) / m), n)
    search = _evaluator(cell, 0, sign, level, march)
    left, right = _multisect(search, np.repeat(mu[:-1], m + 1), np.repeat(mu[1:], m + 1), COARSE)
    bottom = np.arange(n) * (m + 1)  # zero r = 0 of each cell band, r = m at top
    top = bottom + m
    below, above = right[top[:-1]], left[bottom[1:]]
    apart = (below < above).nonzero()[0]
    certified = np.zeros(n - 1, dtype=bool)
    if apart.size:
        value, rounding = transfer.discriminant_rounding(cell, 0.5 * (below + above)[apart])
        certified[apart] = np.abs(value) - 2.0 > rounding
    unsure = (~certified).nonzero()[0]
    inner = (bottom[:, None] + np.arange(1, m)).ravel()
    if not unsure.size:  # every gap certified open: one Newton search finishes every edge
        edges = _newton(search, left, right)
        return np.sort(np.concatenate([edges, edges[inner]]))  # inner zeros: both edges of a gap
    edges = 0.5 * (left + right)
    kept = certified.nonzero()[0]
    fast = np.concatenate([[0], top[kept], bottom[kept + 1], inner, [top[-1]]])
    middle = 0.5 * (edges[bottom] + edges[top])
    g = _evaluator(cell, np.repeat([0, 1], [fast.size, unsure.size]),
                   np.concatenate([sign[fast], -orient[unsure]]),
                   np.concatenate([level[fast], np.zeros(unsure.size)]), march)
    zeros = _newton(g, np.concatenate([left[fast], middle[unsure]]),
                    np.concatenate([right[fast], middle[unsure + 1]]))
    edges[fast], crit = zeros[: fast.size], zeros[fast.size :]
    peak, rounding = transfer.discriminant_rounding(cell, crit)
    shut = np.abs(peak) - 2.0 <= rounding
    edges[top[unsure[shut]]] = edges[bottom[unsure[shut] + 1]] = crit[shut]
    narrow = np.concatenate([top[unsure[~shut]], bottom[unsure[~shut] + 1]])
    left, right = _multisect(_evaluator(cell, 0, sign[narrow], level[narrow], march),
                             left[narrow], right[narrow], ROUNDS)
    edges[narrow] = 0.5 * (left + right)
    return np.sort(np.concatenate([edges, edges[inner]]))


def _evaluator(op, shift, scale, level, march):
    """g(lam, i, derivs) for the searches (see _multisect and _newton): the
    rows of g = scale[i] Delta^(shift[i]) - level[i], Delta^(s) the s-th
    lam-derivative of Delta, and of its first derivs derivatives, for the
    brackets i on the last axis of lam; shift may be one for all. Each
    call is one march, elementwise, so a bracket's values do not depend
    on which others are evaluated with it. march is op's transfer.March,
    built once per solve and shared by its evaluators.
    """
    uniform = np.ndim(shift) == 0  # one shift for all brackets: the rows are a slice
    shift = int(shift) if uniform else np.asarray(shift)

    def g(lam, i, derivs):
        if uniform:
            values = march.at(lam, shift + derivs).trace(op.onsite)[shift:]
        else:
            own = shift[i]
            take = own + np.arange(derivs + 1).reshape((-1,) + (1,) * np.ndim(lam))
            values = np.take_along_axis(march.at(lam, int(own.max()) + derivs).trace(op.onsite),
                                        take, axis=0)
        values *= scale[i]
        values[0] -= level[i]
        return values

    return g


def _finished(lo, hi):
    """Brackets within TOL * max(1, |lam|)."""
    return np.abs(hi - lo) <= np.maximum(TOL, 0.5 * TOL * np.abs(lo + hi))


def _multisect(g, lo, hi, passes):
    """Shrink brackets [lo, hi] onto the point where g turns >= 0, by at
    most passes multisection passes; returns the new (lo, hi).

    g is an evaluator (see _evaluator), < 0 at lo and >= 0 at hi. A pass
    evaluates g at SPLIT - 1 interior points of each unfinished bracket,
    one call for all; sub-interval k of a bracket runs from grid point k
    to k + 1, and the first interior point where g >= 0 ends the kept
    one.
    """
    lo, hi = lo.copy(), hi.copy()
    fraction = np.arange(SPLIT + 1)[:, None] / SPLIT
    turned = np.ones((SPLIT, lo.size), dtype=bool)  # row SPLIT - 1: g >= 0 at hi
    for _ in range(passes):
        i = (~_finished(lo, hi)).nonzero()[0]
        if not i.size:
            break
        low, high = lo[i], hi[i]
        grid = low + (high - low) * fraction
        grid[-1] = high
        np.greater_equal(g(grid[1:-1], i, 0)[0], 0.0, out=turned[:-1, : i.size])
        keep = turned[:, : i.size].argmax(axis=0)
        column = np.arange(i.size)
        lo[i], hi[i] = grid[keep, column], grid[keep + 1, column]
    return lo, hi


def _newton(g, lo, hi):
    """The zero of g in each bracket [lo, hi] by bracketed Newton steps.

    g is as in _multisect. Each round evaluates g and g' at two points
    TOL / 2 * max(1, |lam|) apart around the iterate of every unfinished
    bracket. Both points shrink the bracket, and a bracket is finished
    only once the sign change of g is held within TOL * max(1, |lam|):
    a small step alone proves nothing where g grows almost
    exponentially, as it does across bands narrower than the rounding.
    The next iterate is the Newton step from the point with the smaller
    |g|, clamped to the bracket when it leaves it by less than the
    bracket's width (a zero can sit at an end, as the outer edges of a
    uniform chain sit on the Gershgorin ends). It is the bracket's
    midpoint instead when the step leaves the bracket by more, leaves it
    again past the end it was clamped to, or is more than half the step
    before last, so steps that stop shrinking give way to halving. A
    finished bracket keeps its last Newton point, clamped to the bracket.

    Only the unfinished brackets are carried from round to round: their
    index i, their ends as the two points left them (lo may pass hi by
    rounding; a round reads its bracket with the ends in order), the
    iterate and the last two step lengths. A bracket's point is written
    once, in the round that finishes it.
    """
    x = 0.5 * (lo + hi)
    i = (~_finished(lo, hi)).nonzero()[0]
    lo, hi, at = lo[i], hi[i], x[i]
    before = last = hi - lo  # each bracket's step before last, and last
    pair = np.array([[-0.25], [0.25]]) * TOL
    for _ in range(ROUNDS):
        if not i.size:
            break
        points = at + pair * np.maximum(1.0, np.abs(at))
        rows = g(points, i, 1)
        value, slope = rows[0], rows[1]
        past = value >= 0.0
        lo = np.maximum.reduce(np.where(past, lo, points), axis=0)
        hi = np.minimum.reduce(np.where(past, points, hi), axis=0)
        low, high = np.minimum(lo, hi), np.maximum(lo, hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            guess = points - value / slope
        guess = np.where(np.abs(value[0]) <= np.abs(value[1]), guess[0], guess[1])
        done = _finished(low, high)
        far = np.maximum(low - guess, guess - high) > high - low
        far |= ((guess < low) & (at <= low)) | ((guess > high) & (at >= high))
        far |= np.abs(guess - at) > 0.5 * before
        far &= ~done
        point = np.where(far | np.isnan(guess), 0.5 * (low + high), guess.clip(low, high))
        before, last = last, np.abs(point - at)
        at = point
        if done.any():
            x[i[done]] = point[done]
            live = ~done
            i, lo, hi, at, before, last = i[live], lo[live], hi[live], at[live], before[live], last[live]
    x[i] = at
    return x


class BandStructure:
    """Spectral data of a periodic chain.

    Parameters
    ----------
    operator : PeriodicJacobi
        The chain whose spectrum is described.
    method : {'eig', 'bisection'}
        How band edges are computed. 'eig' solves the Bloch band
        matrices at phases 0 and pi; 'bisection' brackets the zeros
        of Delta -+ 2 by Dirichlet eigenvalues, multisects them and
        finishes them by Newton steps (see band_edges_bisection).

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

    def _locate(self, lam, tol=0.0):
        """Edge count and spectrum membership of lam, elementwise.

        k is the number of edges at or below lam, so lam lies inside
        band k // 2 when k is odd, and in a gap or off the spectrum when
        it is even. inside is true in the closed bands [E_2j, E_2j+1]
        widened by tol on both sides: where k is odd or an edge lies
        within tol of lam (on an edge at tol = 0, which also holds a band
        of width 0 and the one point of a closed gap). A nan energy is
        refused with a ValueError; an infinite one lies off the spectrum.
        """
        lam = np.asarray(lam, dtype=float)
        if np.isnan(lam).any():
            raise ValueError("energies must not be nan")
        edges = self.edges
        k = edges.searchsorted(lam, side="right")
        near = edges.searchsorted(lam - tol) < edges.searchsorted(lam + tol, side="right")
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

        One O(p^2) band-matrix solve of the chain's p-site cell per
        folded phase, all sharing one folded band built once; phases 0
        and pi read the band edges' spectra (see
        PeriodicJacobi.floquet_eigenvalues).
        """
        thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
        return self.operator.floquet_eigenvalues(thetas.ravel()).T

    def densities(self, lam):
        """The per-site DOS and the IDS at lam, elementwise, from one march:
        (dos, ids), two floats for a scalar lam.

        The DOS is |Delta'| / (N pi sqrt(4 - Delta^2)). It is zero off the
        spectrum and integrates to exactly 1/N over each band. It diverges
        like an inverse square root at open-gap edges and at the
        spectrum's two ends, and is inf on them; at the one point of a
        closed gap it is finite. The IDS is the fraction of states at or
        below lam, in [0, 1]. A point on an upper band edge counts the
        band as filled; a point on a lower edge counts as inside the band.
        So the IDS is exactly j / N on the lower edge of band j and
        (j + 1) / N on its upper edge.

        M and M' come from one march of the recurrence over the points
        in the spectrum, as contains decides it from the edges; at all
        other points the DOS is exactly 0 and the IDS sits on its
        plateau, read from the edges. The march is elementwise, so a
        point's values do not depend on which others are marched.

        The march runs over the chain's p-site cell (see
        PeriodicJacobi.cell), the same operator with the same DOS and IDS
        per site. With m = N / p, cell band j is chain bands jm..jm+m-1,
        so the cell's edges are read off the chain's. p sites are marched
        instead of N, and the points of the gaps that the repetition
        closes are ordinary points of the cell's bands.

        Since det M = 1, 4 - Delta^2 = -(M00 - M11)^2 - 4 M01 M10. Near
        a closed gap M is close to +-I, Delta^2 cancels against 4, and
        the second form keeps the relative accuracy; where M is far from
        normal its entries cancel instead. Each point takes the form
        whose first-order sensitivity to errors in M is smaller.

        At the point c of a closed gap both Delta' and 4 - Delta^2
        vanish, and their computed quotient is rounding over rounding.
        There M(c + t) = +-I + t M' + O(t^2), and det M = 1 gives
        tr M' = 0 and Delta = +-(2 - det M' t^2), so the quotient tends
        to sqrt(det M'), which the march gives to full accuracy. On any
        other edge of the cell, 4 - Delta^2 is pure rounding, and the DOS
        is inf, its true value, whatever the sign of that rounding.

        Inside band j the IDS is (j + |arccos(Delta/2) - phase_j| / pi) / N,
        Delta = M00 + M11 from the same march. Delta is +-2 alternately
        along the edges, +2 on the top one, so phase_j, the phase at band
        j's lower edge, is exactly 0 when N - j is even and pi otherwise,
        free of the sqrt-of-roundoff noise of arccos at a computed edge.
        A point on band j's lower edge takes no arccos term at all, which
        there would turn the rounding of Delta into noise of order its
        square root, and reads exactly j / N.
        """
        from . import transfer

        lam = np.asarray(lam, dtype=float)
        cell = self.operator.cell
        n = cell.period
        edges = self.edges.reshape(n, -1)[:, [0, -1]].ravel()
        k, inside = self._locate(lam)
        ids = np.zeros(lam.shape)
        ids[...] = (k // 2) / self.operator.period
        at = lam[inside]
        k = edges.searchsorted(at, side="right")  # the cell's edge count
        m, dm = transfer.March(cell.hopping).at(at, 1).monodromy(cell.onsite)
        # Odd k puts lam in a band; lam on the upper edge of the band
        # below as well is the one point of a closed gap.
        shut = (k % 2 == 1) & (edges[k - 2] == at)
        # Any other edge, upper (k even) or lower, is where the DOS diverges.
        edge = (edges[k - 1] == at) & ~shut
        delta = m[0, 0] + m[1, 1]
        split = m[0, 0] - m[1, 1]
        under = np.where(shut, 1.0, np.where(
            np.abs(split) + np.abs(m[0, 1]) + np.abs(m[1, 0]) < np.abs(delta),
            -(split * split + 4.0 * m[0, 1] * m[1, 0]),
            4.0 - delta * delta,
        ))
        slope = np.abs(dm[0, 0] + dm[1, 1])
        d = dm[:, :, shut]  # det M' only where it is read: it overflows first on weak bonds
        slope[shut] = np.sqrt(np.abs(d[0, 0] * d[1, 1] - d[0, 1] * d[1, 0]))
        rho = np.zeros(lam.shape)
        with np.errstate(divide="ignore", invalid="ignore"):
            rho[inside] = np.where(
                edge, np.inf, np.where(
                    under > 0.0,
                    slope / (n * np.pi * np.sqrt(np.where(under > 0, under, 1.0))),
                    0.0,
                ))
        band = k // 2
        phase_lower = np.where((n - band) % 2 == 0, 0.0, np.pi)
        partial = np.abs(np.arccos(np.clip(delta / 2.0, -1.0, 1.0)) - phase_lower) / np.pi
        ids[inside] = (band + np.where((k % 2 == 1) & (edges[k - 1] != at), partial, 0.0)) / n
        if lam.ndim == 0:
            return float(rho), float(ids)
        return rho, ids

    def to_dict(self):
        bands, gaps = self.edges.reshape(-1, 2), self.edges[1:-1].reshape(-1, 2)
        return {
            "period": self.operator.period,
            "hopping": self.operator.hopping.tolist(),
            "onsite": self.operator.onsite.tolist(),
            "edges": self.edges.tolist(),
            "bands": bands.tolist(),
            "band_widths": (bands[:, 1] - bands[:, 0]).tolist(),
            "gaps": gaps.tolist(),
            "gap_widths": (gaps[:, 1] - gaps[:, 0]).tolist(),
        }


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
    return (energies, *structure.densities(energies))
