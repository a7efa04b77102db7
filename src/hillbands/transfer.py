"""The three-term recurrence of a periodic chain, marched over one period.

The eigenvalue equation H u = lam u reads

    u_{n+1} = ((lam - b_n) u_n - a_{n-1} u_{n-1}) / a_n,

with a_{-1} = a_{N-1}. The monodromy M(lam) carries (u_0, u_{-1}) to
(u_N, u_{N-1}); column 0 comes from the start (1, 0) and column 1 from
(0, 1), so M[0, 0] = u_N and M[1, 1] = u_{N-1} of the respective
starts. det M = 1 identically, and the Hill discriminant is tr M.

This is the only place the recurrence runs: one loop over arrays of
lam, for one chain or a batch of chains. The node values of Delta, the
classes of an alphabet and the Jacobian of a chain with its Delta (a
batch of its N rotations) all come from it. It carries lam-derivative
rows only for callers that need Delta' (the DOS, the edges' Newton
steps) or Delta'' (the Newton steps onto the gap extrema), and keeps
every row only for the rounding-error bound of Delta.
"""

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

    Returns the rows, each of shape (2,) + shape (one entry per start),
    or (d + 1, 2) + shape with derivs, shape being lam broadcast against
    the chains: u_{N-1} and u_N, or every row from u_{-1} on with history.

    Raises ValueError when an entry overflows the float range, as it
    does for weak bonds at long periods: |M| grows like
    prod|lam - b| / prod a.
    """
    lam = np.asarray(lam, dtype=float)
    a, b = np.asarray(hopping, dtype=float), np.asarray(onsite, dtype=float)
    n = a.shape[0]
    shape = np.broadcast_shapes(lam.shape, a.shape[1:])
    column = (n,) + (1,) * (len(shape) + 1 - a.ndim) + a.shape[1:]
    # u_{-1}, u_0 of both starts, each with its derivs derivative rows
    start = np.zeros((2,) + (derivs + 1,) * (derivs > 0) + (2,) + shape)
    value = start[:, 0] if derivs else start
    block = max(1, FACTOR_BLOCK // max(1, value[0, 0].size))
    value[0, 1] = 1.0
    value[1, 0] = 1.0
    rows = [start[0], start[1]]
    higher = range(2, derivs + 1)  # rows past the first derivative
    k = 0
    try:
        with np.errstate(over="raise"):
            a, b = a.reshape(column), b.reshape(column)
            back, up = np.concatenate((a[-1:], a[:-1])) / a, 1.0 / a
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
        raise ValueError(
            f"transfer recurrence overflowed at site {k} of period {n}: "
            "the monodromy exceeds the float range"
        ) from None
    return rows


def rotations(period):
    """Index of the N rotations of a chain, shape (N, N): site k of
    rotation j is site (j + 1 + k) mod N, so rotation N - 1 is the chain."""
    return (np.arange(period)[:, None] + np.arange(1, period + 1)) % period


def discriminant_jacobian(hopping, onsite, lam):
    """Delta(lam), of shape lam.shape, and d Delta(lam) / d(log a, b), of
    shape lam.shape + (2N,), from one march.

    Column j is d/d log a_j and column N + j is d/d b_j. On the chain
    relabelled to start at site j + 1, bond j closes the cell, so
    M[1, 0] and M[1, 1] of that rotation hold the open chains with site j
    and with sites j, j + 1 removed. Expanding det(lam I - J(pi/2)) =
    (prod a) Delta along bond j, with Delta = M[0, 0] + M[1, 1] for
    every rotation, gives

        d Delta / d b_j = -M[1, 0] / a_j,
        d Delta / d log a_j = 2 M[1, 1] - Delta = M[1, 1] - M[0, 0].

    All N rotations are marched together, as one batch, and rotation
    N - 1, the chain itself, gives Delta with the same operations as
    discriminant, so to the bit. hopping and onsite have shape
    (N,), or both shape (N, N) when the caller has rotated them by the
    index of rotations(N), as a solver that holds the bonds fixed does
    once. Raises ValueError when an entry overflows the float range.
    """
    a, b = np.asarray(hopping, dtype=float), np.asarray(onsite, dtype=float)
    if b.ndim == 1:
        index = rotations(b.size)
        a, b = a[index], b[index]
    prev, cur = _march_values(a, b, np.asarray(lam, dtype=float)[..., None])
    grad = np.concatenate([prev[1] - cur[0], -prev[0] / a[-1]], axis=-1)
    return cur[0][..., -1] + prev[1][..., -1], grad


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
    if not derivs:
        prev, cur = prev[None], cur[None]
    return cur[:, 0] + prev[:, 1]


def discriminant_rounding(op, lam):
    """Delta(lam) and a first-order bound on its rounding error, elementwise.

    Step k computes the row u_{k+1} of each start p with an error of at
    most 2 eps (|lam - b_k| |u_k| + a_{k-1} |u_{k-1}|) / a_k, and that
    error reaches tr M through P_k[p, 0], P_k = T_{N-1} ... T_{k+1} the
    transfer over the sites after k. Marched backward, the rows of P_k
    obey the recurrence of the reversed chain, so a second march of the
    reversed chain gives |P_k[p, 0]| = a_k |v_{N-1-k}| / a_{N-1}, v its
    rows. The bound is the sum of all these products, plus eps |Delta|
    for the final sum. Unlike a fixed multiple of N eps it grows with
    the cancellation inside the march, as in a cell repeated several
    times whose transfer matrix is far from normal.

    Both marches keep their rows, stacked with sites on the leading
    axis, and all sites' products are formed and summed by array
    operations over them, in place where the rows are spent. Raises
    ValueError when a march or the bound overflows the float range.
    """
    lam = np.asarray(lam, dtype=float)
    a, b = op.hopping, op.onsite
    n = op.period
    u = np.stack(_march_values(a, b, lam, history=True))  # u[i] is u_{i-1}
    v = np.stack(_march_values(np.roll(a[::-1], -1), b[::-1], lam, history=True))
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
