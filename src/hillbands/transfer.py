"""The three-term recurrence of a periodic chain, marched over one period.

The eigenvalue equation H u = lam u reads

    u_{n+1} = ((lam - b_n) u_n - a_{n-1} u_{n-1}) / a_n,

with a_{-1} = a_{N-1}. The monodromy M(lam) carries (u_0, u_{-1}) to
(u_N, u_{N-1}); column 0 comes from the start (1, 0) and column 1 from
(0, 1), so M[0, 0] = u_N and M[1, 1] = u_{N-1} of the respective
starts. det M = 1 identically, and the Hill discriminant is tr M.

This is the only place the recurrence runs: one loop over arrays of
lam, for one chain or a batch of chains. The node values of Delta, the
classes of an alphabet and the onsite Jacobian of a chain with its
Delta (a batch of its N rotations) all come from it. Its rows carry
lam-derivatives only for callers that need Delta' (the DOS, the edges'
Newton steps) or Delta'' (the Newton steps onto the gap extrema), and
it keeps every row only for the rounding-error bound of Delta (a batch
of the chain and its reversal).
"""

import functools
import math

import numpy as np

FACTOR_BLOCK = 1 << 15  # site factors formed per broadcast in the value march


def _march_values(hopping, onsite, lam, derivs=0, history=False):
    """Rows u_k of the starts (1, 0) and (0, 1) for an array of lam.

    hopping and onsite have shape (N,) for one chain, or (N,) + chains
    for a batch whose chain axes broadcast against lam. The factors
    (lam - b_k) / a_k are formed by one broadcast per block of at most
    FACTOR_BLOCK numbers, so that a block stays in cache, and
    a_{k-1} / a_k enters the loop as a Python float for one chain (an
    array over the chains for a batch), so a step is three array
    operations. With derivs = d > 0, each row carries its first d
    lam-derivatives on a leading axis of d + 1 (row j the j-th
    derivative), and the step adds j u_k^(j-1) / a_k to row j, the
    j-th derivative of the recurrence.

    Returns the rows, each of shape (d + 1, 2) + shape (the derivatives,
    then one entry per start), shape being lam broadcast against the
    chains: u_{N-1} and u_N, or every row from u_{-1} on with history.

    Raises ValueError when an entry overflows the float range, as it
    does for weak bonds at long periods: |M| grows like
    prod|lam - b| / prod a. A bond whose factor a_{k-1} / a_k or 1 / a_k
    overflows, such as a subnormal one, is named before any site is
    marched.
    """
    lam = np.asarray(lam, dtype=float)
    a, b = np.asarray(hopping, dtype=float), np.asarray(onsite, dtype=float)
    n = a.shape[0]
    shape = np.broadcast_shapes(lam.shape, a.shape[1:])
    column = (n,) + (1,) * (len(shape) + 1 - a.ndim) + a.shape[1:]
    # u_{-1}, u_0 of both starts, each with its derivs derivative rows
    start = np.zeros((2, derivs + 1, 2) + shape)
    value = start[:, 0]
    block = max(1, FACTOR_BLOCK // max(1, value[0, 0].size))
    value[0, 1] = 1.0
    value[1, 0] = 1.0
    rows = [start[0], start[1]]
    higher = range(2, derivs + 1)  # rows past the first derivative
    k = None  # no site marched yet
    try:
        with np.errstate(over="raise"):
            a, b = a.reshape(column), b.reshape(column)
            back, up = np.concatenate((a[-1:], a[:-1])) / a, 1.0 / a
            k = 0
            if a.size == n:  # one chain: Python-float factors
                back, up = back.ravel().tolist(), up.ravel().tolist()
            for first in range(0, n, block):
                sites = slice(first, first + block)
                shifts = (lam - b[sites]) / a[sites]
                for k, shift in enumerate(shifts, first):
                    prev, cur = rows[-2], rows[-1]
                    nxt = shift * cur
                    nxt -= back[k] * prev
                    if derivs:
                        nxt[1] += up[k] * cur[0]
                        for j in higher:
                            nxt[j] += (j * up[k]) * cur[j - 1]
                    rows.append(nxt)
                    if not history:
                        del rows[0]
    except FloatingPointError:
        if k is None:
            k, bond = _overflowing_bond(a)
            raise ValueError(
                f"transfer recurrence overflowed at bond {k} of period {n}: a_{k} = {bond:g} "
                f"puts a_{(k - 1) % n} / a_{k} or 1 / a_{k} beyond the float range"
            ) from None
        raise ValueError(
            f"transfer recurrence overflowed at site {k} of period {n}: "
            "the monodromy exceeds the float range"
        ) from None
    return rows


def _overflowing_bond(a):
    """The first bond k, and a_k, whose factor a_{k-1} / a_k or 1 / a_k
    overflows in some chain of the batch a. Python floats divide to inf
    without a warning."""
    rows = a.reshape(a.shape[0], -1).tolist()
    for k, (prev, cur) in enumerate(zip(rows[-1:] + rows[:-1], rows)):
        for x, y in zip(prev, cur):
            if math.isinf(max(abs(x), 1.0) / y):
                return k, y


@functools.cache
def rotations(period):
    """Index of the N rotations of a chain, shape (N, N), read-only: site
    k of rotation j is site (j + 1 + k) mod N, so rotation N - 1 is the
    chain. Built once per period and kept for the life of the process,
    N^2 integers per period."""
    index = (np.arange(period)[:, None] + np.arange(1, period + 1)) % period
    index.setflags(write=False)
    return index


def discriminant_jacobian(hopping, onsite, lam):
    """Delta(lam), of shape lam.shape, and d Delta(lam) / d b, of shape
    lam.shape + (N,), from one march of the chain's N sites.

    On the chain relabelled to start at site j + 1, site j is the last,
    so M[1, 0] of that rotation is the determinant of the open chain with
    site j removed over the product of its bonds and a_{j-1}. That
    determinant is minus d/d b_j of det(lam I - J(pi/2)) = (prod a) Delta,
    so d Delta / d b_j = -M[1, 0] / a_j.

    All N rotations are marched together, as one batch, and rotation
    N - 1, the chain itself, gives Delta with the same operations as
    discriminant, so to the bit. Raises ValueError when an entry
    overflows the float range.
    """
    a, b = np.asarray(hopping, dtype=float), np.asarray(onsite, dtype=float)
    index = rotations(b.size)
    prev, cur = (row[0] for row in _march_values(a[index], b[index],
                                                 np.asarray(lam, dtype=float)[..., None]))
    return cur[0][..., -1] + prev[1][..., -1], -prev[0] / a


def monodromy(op, lam):
    """M(lam) and dM/dlam for an array of lam, each of shape (2, 2) + lam.shape,
    from one value march with the derivative rows; ValueError on overflow."""
    prev, cur = _march_values(op.hopping, op.onsite, lam, derivs=1)
    m = np.stack([cur, prev])
    return m[:, 0], m[:, 1]


def discriminant(hopping, onsite, lam, derivs=0):
    """Delta(lam) and its first derivs lam-derivatives by the recurrence,
    elementwise, from one march: row j of the result is the j-th
    derivative, so Delta alone is row 0. At derivs = 0 the march carries
    no derivative rows.

    hopping and onsite have shape (N,) for one chain, or (N,) + chains
    for a batch: sites first, and chain axes that broadcast against lam.
    The result has shape (derivs + 1,) + shape, shape being lam
    broadcast against the chains.
    """
    prev, cur = _march_values(hopping, onsite, lam, derivs=derivs)
    return cur[:, 0] + prev[:, 1]


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
    elementwise, so with the same values as two marches. It keeps its
    rows, stacked with sites on the leading axis, and all sites'
    products are formed and summed by array operations over them, in
    place where the rows are spent. Raises ValueError when the march or
    the bound overflows the float range.
    """
    lam = np.asarray(lam, dtype=float)
    a, b = op.hopping, op.onsite
    n = op.period
    chains = (n, 2) + (1,) * lam.ndim  # chain axis before lam's: rows stay contiguous
    both_a = np.stack([a, np.roll(a[::-1], -1)], axis=1).reshape(chains)
    both_b = np.stack([b, b[::-1]], axis=1).reshape(chains)
    rows = np.stack(_march_values(both_a, both_b, lam, history=True))
    u, v = rows[:, 0, :, 0], rows[:, 0, :, 1]  # u[i] is u_{i-1}, v of the reversal
    site = (n, 1) + (1,) * lam.ndim  # site k on the leading axis, then start and lam
    a_k, b_k = a.reshape(site), b.reshape(site)
    try:
        with np.errstate(over="raise"):
            delta = u[-1, 0] + u[-2, 1]
            np.abs(u, out=u)
            np.abs(v, out=v)
            local = np.abs((lam - b_k) / a_k) * u[1:-1]
            u[:-2] *= np.roll(a_k, 1, axis=0) / a_k
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
