"""The three-term recurrence of a periodic chain, marched over one period.

The eigenvalue equation H u = lam u reads

    u_{n+1} = ((lam - b_n) u_n - a_{n-1} u_{n-1}) / a_n,

with a_{-1} = a_{N-1}. The monodromy M(lam) carries (u_0, u_{-1}) to
(u_N, u_{N-1}); column 0 comes from the start (1, 0) and column 1 from
(0, 1), so M[0, 0] = u_N and M[1, 1] = u_{N-1} of the respective
starts. det M = 1 identically, and the Hill discriminant is tr M.

This is the only place the recurrence runs. It is marched in two
algebras, one loop each: over ascending coefficient arrays in lam, where
the entries M00, M01, M10, M11 are polynomials of degree N, N-1, N-1,
N-2, and over arrays of lam values. The coefficient march takes a batch
of chains, hopping and onsite arrays with leading chain axes, and runs
one loop of N steps for all of them; the discriminant of one chain, the
classes of an alphabet and the Jacobian of a chain (one march over its
N rotations) all come from it. The value march carries the
lam-derivative rows only for callers that need Delta', and keeps every
row only for the rounding-error bound of Delta.
"""

import numpy as np

FACTOR_BLOCK = 1 << 15  # site factors formed per broadcast in the value march


def _march(hopping, onsite):
    """u_N and u_{N-1} of the starts (1, 0) and (0, 1) as lam-coefficients.

    hopping and onsite have shape chains + (N,). The march transposes
    them to put sites first and chains last, so that for one chain the
    per-site factors are scalars. Returns cur and prev of shape
    (2, N + 1) + reversed chains: start, power, chains.
    """
    a = np.asarray(hopping, dtype=float).T
    b = np.asarray(onsite, dtype=float).T
    n = a.shape[0]
    cur = np.zeros((2, n + 1) + a.shape[1:])
    prev = np.zeros_like(cur)
    cur[0, 0] = 1.0
    prev[1, 0] = 1.0
    for diag, up, back in zip(-b / a, 1.0 / a, a[np.arange(n) - 1] / a):
        nxt = diag * cur
        shifted = nxt[:, 1:]  # the lam * u_k term raises each power by one
        shifted += up * cur[:, :-1]
        nxt -= back * prev
        prev, cur = cur, nxt
    return cur, prev


def monodromy_coefficients(hopping, onsite):
    """Ascending lam-coefficients of M for a batch of chains.

    hopping and onsite have shape chains + (N,); the result has shape
    chains + (2, 2, N + 1). M[1, 0] is a_{N-1} / prod(a) times the
    characteristic polynomial of the open chain on sites 0 .. N-2, the
    Dirichlet minor left when site N-1 is deleted, and M[1, 1] is
    -a_{N-1}^2 / prod(a) times that of sites 1 .. N-2 (1 when that chain
    is empty, 0 at N = 1).
    """
    cur, prev = _march(hopping, onsite)
    # (row, start, power) + reversed chains -> chains + (row, start, power)
    return np.stack([cur, prev]).T.swapaxes(-1, -3)


def discriminant_coefficients(hopping, onsite):
    """Ascending coefficients of Delta = tr M, shape chains + (N + 1,)."""
    cur, prev = _march(hopping, onsite)
    return (cur[0] + prev[1]).T


def coefficient_jacobian(op):
    """d(Delta coefficients) / d(log a, b), an (N + 1) x 2N matrix.

    Column j is d/d log a_j and column N + j is d/d b_j. On the chain
    relabelled to start at site j + 1, bond j closes the cell, so
    M[1, 0] and M[1, 1] of that rotation hold the open chains with site j
    and with sites j, j + 1 removed. Expanding det(lam I - J(pi/2)) =
    (prod a) Delta along bond j, with Delta = M[0, 0] + M[1, 1] for
    every rotation, gives

        d Delta / d b_j = -M[1, 0] / a_j,
        d Delta / d log a_j = 2 M[1, 1] - Delta = M[1, 1] - M[0, 0].

    All N rotations are marched together in one call.
    """
    n = op.period
    a = op.hopping
    # Site k of rotation j is site (j + 1 + k) mod N. The index is
    # symmetric, so the march's transpose leaves one rotation per column.
    rotations = (np.arange(n)[:, None] + np.arange(1, n + 1)) % n
    cur, prev = _march(a[rotations], op.onsite[rotations])
    return np.concatenate([prev[1] - cur[0], -prev[0] / a], axis=1)


def _march_values(hopping, onsite, lam, slope=False, history=False):
    """Rows u_k of the starts (1, 0) and (0, 1) for an array of lam.

    The factors (lam - b_k) / a_k are formed by one broadcast per block
    of sites, at most FACTOR_BLOCK numbers so that a block stays in
    cache, and a_{k-1} / a_k enters the loop as a Python float, so a
    step is three array operations. With slope, each row carries its
    lam-derivative on a leading (value, slope) axis, and the step adds
    u_k / a_k to the slope part: two more operations.

    Returns the list of rows, each of shape (2,) + lam.shape (one entry
    per start), or (2, 2) + lam.shape with slope. It ends with u_{N-1},
    u_N, and with history it holds every row from u_{-1} on.

    Raises ValueError when an entry overflows the float range, as it
    does for weak bonds at long periods: |M| grows like
    prod|lam - b| / prod a.
    """
    lam = np.asarray(lam, dtype=float)
    a = np.asarray(hopping, dtype=float)
    b = np.asarray(onsite, dtype=float)
    column = (-1,) + (1,) * lam.ndim
    block = max(1, FACTOR_BLOCK // max(1, lam.size))
    start = np.zeros((2, 2) + lam.shape)  # u_{-1}, u_0 of both starts
    start[0, 1] = 1.0
    start[1, 0] = 1.0
    if slope:
        start = np.stack([start, np.zeros_like(start)], axis=1)
    rows = [start[0], start[1]]
    k = 0
    try:
        with np.errstate(over="raise"):
            back = (np.roll(a, 1) / a).tolist()
            up = (1.0 / a).tolist()
            for first in range(0, a.size, block):
                sites = slice(first, first + block)
                shifts = (lam - b[sites].reshape(column)) / a[sites].reshape(column)
                for k, shift in enumerate(shifts, first):
                    prev, cur = rows[-2], rows[-1]
                    nxt = shift * cur
                    nxt -= back[k] * prev
                    if slope:
                        nxt[1] += up[k] * cur[0]
                    rows.append(nxt)
                    if not history:
                        del rows[0]
    except FloatingPointError:
        raise ValueError(
            f"transfer recurrence overflowed at site {k} of period {a.size}: "
            "the monodromy exceeds the float range"
        ) from None
    return rows


def monodromy(op, lam):
    """M(lam) and dM/dlam for an array of lam, each of shape (2, 2) + lam.shape.

    One value march with the derivative rows; callers that need only
    Delta use discriminant_value, which skips them. Raises ValueError
    when an entry overflows the float range.
    """
    prev, cur = _march_values(op.hopping, op.onsite, lam, slope=True)
    m = np.stack([cur, prev])
    return m[:, 0], m[:, 1]


def discriminant(op, lam):
    """Delta(lam) and Delta'(lam) by the recurrence, elementwise."""
    m, dm = monodromy(op, lam)
    return m[0, 0] + m[1, 1], dm[0, 0] + dm[1, 1]


def discriminant_value(op, lam):
    """Delta(lam) alone by the recurrence, elementwise: no derivative rows."""
    prev, cur = _march_values(op.hopping, op.onsite, lam)
    return cur[0] + prev[1]


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

    Both marches keep their rows, and the products are summed site by
    site, so no array of all sites' products is formed. Raises
    ValueError when a march or the bound overflows the float range.
    """
    lam = np.asarray(lam, dtype=float)
    a, b = op.hopping, op.onsite
    n = op.period
    u = _march_values(a, b, lam, history=True)  # u[i] is u_{i-1}
    v = _march_values(np.roll(a[::-1], -1), b[::-1], lam, history=True)
    back = np.roll(a, 1) / a
    total = np.zeros((2,) + lam.shape)
    k = 0
    try:
        with np.errstate(over="raise"):
            for k in range(n):
                local = np.abs((lam - b[k]) / a[k]) * np.abs(u[k + 1])
                local += back[k] * np.abs(u[k])
                local *= np.abs(v[n - k]) * (a[k] / a[-1])  # v[n - k] is v_{N-1-k}
                total += local
            delta = u[-1][0] + u[-2][1]
            eps = np.finfo(float).eps
            return delta, eps * (2.0 * (total[0] + total[1]) + np.abs(delta))
    except FloatingPointError:
        raise ValueError(
            f"rounding bound overflowed at site {k} of period {n}: "
            "it exceeds the float range"
        ) from None
