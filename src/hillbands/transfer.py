"""The three-term recurrence of a periodic chain, marched over one period.

The eigenvalue equation H u = lam u reads

    u_{n+1} = ((lam - b_n) u_n - a_{n-1} u_{n-1}) / a_n,

with a_{-1} = a_{N-1}. The monodromy M(lam) carries (u_0, u_{-1}) to
(u_N, u_{N-1}); column 0 comes from the start (1, 0) and column 1 from
(0, 1), so M[0, 0] = u_N and M[1, 1] = u_{N-1} of the respective
starts. det M = 1 identically, and the Hill discriminant is tr M.

This is the only place the recurrence runs. It is marched in two
algebras: over ascending coefficient arrays in lam, where the entries
M00, M01, M10, M11 are polynomials of degree N, N-1, N-1, N-2, and over
arrays of lam values together with the lam-derivative. The coefficient
march takes a batch of chains, hopping and onsite arrays with leading
chain axes, and runs one loop of N steps for all of them; the
discriminant of one chain, the classes of an alphabet and the Jacobian
of a chain (one march over its N rotations) all come from it.
"""

import numpy as np


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


def monodromy(op, lam):
    """M(lam) and dM/dlam for an array of lam, each of shape (2, 2) + lam.shape.

    Raises ValueError when an entry overflows the float range, as it
    does for weak bonds at long periods: |M| grows like prod|lam - b| / prod a.
    """
    lam = np.asarray(lam, dtype=float)
    cur = np.zeros((2,) + lam.shape)
    prev = np.zeros((2,) + lam.shape)
    cur[0] = 1.0
    prev[1] = 1.0
    dcur = np.zeros_like(cur)
    dprev = np.zeros_like(cur)
    a, b = op.hopping, op.onsite
    try:
        with np.errstate(over="raise"):
            for k in range(op.period):
                shift = lam - b[k]
                nxt = (shift * cur - a[k - 1] * prev) / a[k]
                dnxt = (cur + shift * dcur - a[k - 1] * dprev) / a[k]
                prev, cur = cur, nxt
                dprev, dcur = dcur, dnxt
    except FloatingPointError:
        raise ValueError(
            f"transfer recurrence overflowed at site {k} of period {op.period}: "
            "the monodromy exceeds the float range"
        ) from None
    return np.stack([cur, prev]), np.stack([dcur, dprev])


def discriminant(op, lam):
    """Delta(lam) and Delta'(lam) by the recurrence, elementwise."""
    m, dm = monodromy(op, lam)
    return m[0, 0] + m[1, 1], dm[0, 0] + dm[1, 1]
