"""The three-term recurrence of a periodic chain, marched over one period.

The eigenvalue equation H u = lam u reads

    u_{n+1} = ((lam - b_n) u_n - a_{n-1} u_{n-1}) / a_n,

with a_{-1} = a_{N-1}. The monodromy M(lam) carries (u_0, u_{-1}) to
(u_N, u_{N-1}); column 0 comes from the start (1, 0) and column 1 from
(0, 1), so M[0, 0] = u_N and M[1, 1] = u_{N-1} of the respective
starts. det M = 1 identically, and the Hill discriminant is tr M.

This is the only place the recurrence runs: one loop over arrays of
lam, for one chain or a batch of chains. Delta and M come from
March(hopping).at(lam, derivs), then .trace(onsite) or
.monodromy(onsite), each with its first derivs lam-derivatives on a
leading axis; the classes of an alphabet are a batch of such traces,
and the onsite Jacobian of a chain with its Delta is a batch of its N
rotations (jacobian_at). Rows carry lam-derivatives only for callers
that need Delta' (the DOS, the edges' Newton steps) or Delta'' (the
Newton steps onto the gap extrema), and a march keeps every row only
for the rounding-error bound of Delta (a batch of the chain and its
reversal).
A March holds what a march does not owe to the site values, in two
parts: what the bonds alone fix, their factors with the check that
none overflows, and what lam fixes as well, the shapes and the start
rows (March.at). A bisection solve, whose bonds never change, builds
its cell's March once for all its marches (bands._cell_edges); the
onsite Jacobian of a solve, whose bonds and nodes never change,
prepares both once (jacobian_at), with the operands in the shape of
the rows, so that each evaluation runs only the site loop (March.run).
March.at refuses a lam that is not finite, before any site is marched.
Only this module reads a march's rows.
"""

import math

import numpy as np

FACTOR_BLOCK = 1 << 15  # site factors formed per broadcast in the value march


class March:
    """A march of the recurrence on fixed bonds, prepared in two parts.

    March(hopping) holds what the bonds alone fix: the bonds a, of shape
    (N,) for one chain or (N,) + chains for a batch, and their factors
    back = a_{k-1} / a_k and up = 1 / a_k (Python floats for one chain).
    Raises ValueError, naming the bond, when a factor overflows the
    float range, as that of a subnormal bond does.

    at(lam, derivs) adds what lam fixes as well, and run(onsite) marches
    the sites: every march of these bonds may share the first part, and
    every march at one lam the second.
    """

    __slots__ = ("a", "back", "up", "lam", "derivs", "block", "start")

    def __init__(self, hopping):
        a = np.asarray(hopping, dtype=float)
        n = a.shape[0]
        try:
            with np.errstate(over="raise"):
                back, up = np.concatenate((a[-1:], a[:-1])) / a, 1.0 / a
        except FloatingPointError:
            k, bond = _overflowing_bond(a)
            raise ValueError(
                f"transfer recurrence overflowed at bond {k} of period {n}: a_{k} = {bond:g} "
                f"puts a_{(k - 1) % n} / a_{k} or 1 / a_{k} beyond the float range"
            ) from None
        if a.size == n:  # one chain: Python-float factors
            back, up = back.ravel().tolist(), up.ravel().tolist()
        self.a, self.back, self.up = a, back, up

    def at(self, lam, derivs=0, rows=False):
        """This march at an array of lam, each row carrying its first derivs
        lam-derivatives: a new March of these bonds that adds the part no
        site value changes, the bonds in column shape, lam, the sites per
        block and the read-only start rows u_{-1}, u_0 (start).

        The factors a_{k-1} / a_k and lam are kept as given, so a step
        broadcasts them against the rows. With rows, a batch whose N rows
        fit in FACTOR_BLOCK numbers, so that memory stays bounded, has
        them broadcast once into the row shape (derivs + 1, 2) + shape
        instead; the shifts (lam - b_k) / a_k of all sites then come out
        in it from one broadcast per run, so every ufunc of a site step
        multiplies operands of one shape: NumPy's contiguous path, with
        the same values as the broadcast one. Only a preparation that
        serves many runs repays the copies (see jacobian_at). Raises
        ValueError when lam is not finite: the march would answer nan.
        """
        a, back, lam = self.a, self.back, np.asarray(lam, dtype=float)
        if not np.isfinite(lam).all():
            raise ValueError("energies lam must be finite")
        n = a.shape[0]
        shape = lam.shape if a.ndim == 1 else np.broadcast_shapes(lam.shape, a.shape[1:])
        column = (n,) + (1,) * (len(shape) + 1 - a.ndim) + a.shape[1:]
        row = (derivs + 1, 2) + shape
        start = np.zeros((2,) + row)  # u_{-1}, u_0 of both starts, with derivs derivative rows
        start[0, 0, 1] = 1.0
        start[1, 0, 0] = 1.0
        start.setflags(write=False)
        if rows and n * math.prod(row) <= FACTOR_BLOCK:
            column = (n, 1, 1) + column[1:]  # sites, then the row's derivative and start axes
            # a list of the sites' rows, which the loop indexes without making a view
            back = list(np.broadcast_to(np.reshape(back, column), (n,) + row).copy())
            lam, block = np.broadcast_to(lam, row).copy(), n
        else:
            block = max(1, FACTOR_BLOCK // max(1, math.prod(shape)))
        march = object.__new__(March)  # every field set here, none by __init__
        march.a, march.back, march.up = a.reshape(column), back, self.up
        march.lam, march.derivs, march.block, march.start = lam, derivs, block, start
        return march

    def run(self, onsite, history=False):
        """Rows u_k of the starts (1, 0) and (0, 1) for the onsite energies
        onsite, of the bonds' shape, on a march prepared by at.

        The factors (lam - b_k) / a_k are formed by one broadcast per
        block of at most FACTOR_BLOCK numbers, so that a block stays in
        cache, and a_{k-1} / a_k enters the loop as a Python float for
        one chain (an array over the chains for a batch, or a site's row
        when at laid it out in the rows' shape), so a step is three
        array operations. With derivs = d > 0, each row carries its first
        d lam-derivatives on a leading axis of d + 1 (row j the j-th
        derivative), and the step adds j u_k^(j-1) / a_k to row j, the
        j-th derivative of the recurrence.

        Returns the rows, each of shape (d + 1, 2) + shape (the
        derivatives, then one entry per start), shape being lam broadcast
        against the chains: u_{N-1} and u_N as a list, or with history
        every row from u_{-1} on, stacked in one array with sites on the
        leading axis.

        Raises ValueError when an entry overflows the float range, as it
        does for weak bonds at long periods: |M| grows like
        prod|lam - b| / prod a.
        """
        a, back, up, lam, derivs, block, start = (
            self.a, self.back, self.up, self.lam, self.derivs, self.block, self.start)
        b = np.asarray(onsite, dtype=float).reshape(a.shape)
        n = len(b)
        prev, cur = start[0], start[1]  # indexing: unpacking an array iterates, 1 us slower
        if history:
            rows = np.empty((n + 2,) + cur.shape)
            rows[0], rows[1] = prev, cur
        higher = range(2, derivs + 1)  # rows past the first derivative
        k = 0
        try:
            with np.errstate(over="raise"):
                for first in range(0, n, block):
                    sites = slice(first, first + block)
                    shifts = np.subtract(lam, b[sites])
                    shifts /= a[sites]
                    for k, shift in enumerate(shifts, first):
                        nxt = np.multiply(shift, cur, out=rows[k + 2]) if history else shift * cur
                        nxt -= back[k] * prev
                        if derivs:
                            nxt[1] += up[k] * cur[0]
                            for j in higher:
                                nxt[j] += (j * up[k]) * cur[j - 1]
                        prev, cur = cur, nxt
        except FloatingPointError:
            raise ValueError(
                f"transfer recurrence overflowed at site {k} of period {n}: "
                "the monodromy exceeds the float range"
            ) from None
        return rows if history else [prev, cur]

    def trace(self, onsite):
        """Delta = tr M from one run of the sites onsite, of shape (derivs + 1,)
        + shape: row j is its j-th lam-derivative."""
        prev, cur = self.run(onsite)
        return cur[:, 0] + prev[:, 1]

    def monodromy(self, onsite):
        """M from one run of the sites onsite, of shape (derivs + 1, 2, 2)
        + shape: entry j is its j-th lam-derivative, and M[0] carries
        (u_0, u_{-1}) to (u_N, u_{N-1})."""
        prev, cur = self.run(onsite)
        return np.stack([cur, prev], axis=1)


def _overflowing_bond(a):
    """The first bond k, and a_k, whose factor a_{k-1} / a_k or 1 / a_k
    overflows in some chain of the batch a. Python floats divide to inf
    without a warning."""
    rows = a.reshape(a.shape[0], -1).tolist()
    for k, (prev, cur) in enumerate(zip(rows[-1:] + rows[:-1], rows)):
        for x, y in zip(prev, cur):
            if math.isinf(max(abs(x), 1.0) / y):
                return k, y


def rotations(period):
    """Index of the N rotations of a chain, shape (N, N): site k of
    rotation j is site (j + 1 + k) mod N, so rotation N - 1 is the chain."""
    return (np.arange(period)[:, None] + np.arange(1, period + 1)) % period


def jacobian_at(hopping, lam):
    """The map b -> (Delta(lam), d Delta(lam) / d b) of the chain with
    these bonds and onsite energies b: Delta of shape lam.shape and its
    onsite Jacobian of shape lam.shape + (N,), from one march of the
    chain's N sites.

    On the chain relabelled to start at site j + 1, site j is the last,
    so M[1, 0] of that rotation is the determinant of the open chain with
    site j removed over the product of its bonds and a_{j-1}. That
    determinant is minus d/d b_j of det(lam I - J(pi/2)) = (prod a) Delta,
    so d Delta / d b_j = -M[1, 0] / a_j.

    All N rotations are marched together, as one batch, and rotation
    N - 1, the chain itself, gives Delta with the same operations as
    March.trace of the chain alone, so to the bit. The batch's March,
    prepared at lam in the rows' shape (see March.at: N <= 25 at N + 1
    points), and the bonds in the Jacobian's shape for its readout are
    formed here, once; each call gathers the rotated sites and runs the
    march. Raises ValueError when lam is not finite, or when an entry
    overflows the float range: a bond's factor here, named by its index
    in the chain, as March names it; a site's in the call.
    """
    a = np.asarray(hopping, dtype=float)
    index = rotations(a.size)
    lam = np.asarray(lam, dtype=float)[..., None]
    March(a)  # a bond whose factor overflows, named by its index in the chain
    march = March(a[index]).at(lam, rows=True)  # the same divisions as the chain's factors
    a = np.broadcast_to(a, lam.shape[:-1] + a.shape).copy()  # in the Jacobian's shape

    def jacobian(onsite):
        prev, cur = (row[0] for row in march.run(np.asarray(onsite, dtype=float)[index]))
        return cur[0][..., -1] + prev[1][..., -1], -prev[0] / a

    return jacobian


def discriminant_rounding(op, lam):
    """Delta(lam) and a first-order bound on its rounding error, elementwise.

    Step k computes the row u_{k+1} of each start p with an error of at
    most 2 eps (|lam - b_k| |u_k| + a_{k-1} |u_{k-1}|) / a_k, and that
    error reaches tr M through P_k[p, 0], P_k = T_{N-1} ... T_{k+1} the
    transfer over the sites after k. Marched backward, the rows of P_k
    obey the recurrence of the reversed chain, so a march of the reversed
    chain gives |P_k[p, 0]| = a_k |v_{N-1-k}| / a_{N-1}, v its rows. The
    bound is the sum of all these products, plus eps |Delta| for the
    final sum. Unlike a fixed multiple of N eps it grows with the
    cancellation inside the march, as in a cell repeated several times
    whose transfer matrix is far from normal.

    The chain and its reversal run as one batched march of two chains,
    elementwise, so with the same values as two marches; their bonds and
    sites are written into one array, and the batch's March serves the
    march and the bound's a_{k-1} / a_k. The march keeps its rows,
    written in place into one array with sites on the leading axis, and
    all sites' products are formed and summed by array operations over
    them, in place where the rows are spent. Raises
    ValueError when lam is not finite, or when the march or the bound
    overflows the float range; a bond whose factor overflows in the
    chain or its reversal is named by its index in the chain, as March
    names it.
    """
    lam = np.asarray(lam, dtype=float)
    a, b = op.hopping, op.onsite
    n = op.period
    both = np.empty((2, n, 2))  # bonds, then sites; the chain, then its reversal
    both[0, :, 0], both[1, :, 0] = a, b
    both[0, :-1, 1], both[0, -1, 1], both[1, :, 1] = a[-2::-1], a[-1], b[::-1]
    chains = (n, 2) + (1,) * lam.ndim  # chain axis before lam's: rows stay contiguous
    try:
        march = March(both[0].reshape(chains))
    except ValueError:  # named as the chain's bond, not the reversal's
        March(a)  # a factor of the chain itself, in March's words
        k, bond = _overflowing_bond(both[0, :, 1])  # the reversal's a_{j+1} / a_j alone
        j = (n - 2 - k) % n
        raise ValueError(
            f"transfer recurrence overflowed at bond {j} of period {n}: a_{j} = {bond:g} "
            f"puts a_{(j + 1) % n} / a_{j} beyond the float range"
        ) from None
    rows = march.at(lam).run(both[1].reshape(chains), history=True)
    u, v = rows[:, 0, :, 0], rows[:, 0, :, 1]  # u[i] is u_{i-1}, v of the reversal
    site = (n, 1) + (1,) * lam.ndim  # site k on the leading axis, then start and lam
    a_k, b_k = a.reshape(site), b.reshape(site)
    try:
        with np.errstate(over="raise"):
            delta = u[-1, 0] + u[-2, 1]
            np.abs(u, out=u)
            np.abs(v, out=v)
            local = np.abs((lam - b_k) / a_k) * u[1:-1]
            u[:-2] *= march.back[:, :1]  # a_{k-1} / a_k of the chain
            local += u[:-2]
            v[n:0:-1] *= a_k / a[-1]  # v[n - k] is v_{N-1-k}
            local *= v[n:0:-1]
            total = local.sum(axis=0)
            eps = np.finfo(float).eps
            return delta, eps * (2.0 * (total[0] + total[1]) + np.abs(delta))
    except FloatingPointError:
        raise ValueError(
            f"rounding bound of period {n} overflowed: it exceeds the float range"
        ) from None
