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
arrays of lam values together with the lam-derivative.
"""

import numpy as np


def monodromy_coefficients(op):
    """Ascending lam-coefficients of M, shape (2, 2, N + 1).

    M[1, 0] is a_{N-1} / prod(a) times the characteristic polynomial
    of the open chain on sites 0 .. N-2, the Dirichlet minor left when
    site N-1 is deleted.
    """
    n = op.period
    a, b = op.hopping, op.onsite
    cur = np.zeros((2, n + 1))  # u_k for the starts (1, 0) and (0, 1)
    prev = np.zeros((2, n + 1))  # u_{k-1}
    cur[0, 0] = 1.0
    prev[1, 0] = 1.0
    for k in range(n):
        nxt = (-b[k] / a[k]) * cur
        nxt[:, 1:] += (1.0 / a[k]) * cur[:, :-1]
        nxt -= (a[k - 1] / a[k]) * prev
        prev, cur = cur, nxt
    return np.stack([cur, prev])


def discriminant_coefficients(op):
    """Ascending coefficients of Delta = tr M, degree = period."""
    m = monodromy_coefficients(op)
    return m[0, 0] + m[1, 1]


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
