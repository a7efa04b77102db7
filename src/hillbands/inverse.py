"""Inverse spectral problems: recovering a chain from its discriminant.

A chain is fixed by its band edges and its Dirichlet divisor, one
point on each gap's circle (van Moerbeke 1976); `chain_from_divisor`
builds it by one Lanczos pass, with no solver. Edge data without
hoppings takes the divisor at the gap midpoints.

With the hoppings held fixed, the map from onsite energies to the
coefficients of the monic discriminant (prod a) * Delta is a smooth
N-to-N system solved here by damped Newton iteration. The residual and
its Jacobian are `monic_map` times Delta and its onsite Jacobian at
N + 1 fixed nodes, both from one march
(`transfer.discriminant_jacobian` of the chain's bonds and sites),
which `fused` runs once per iterate for both. With no starting
point, a seeded multistart of Levenberg-Marquardt solves finds one
first: MINPACK's `lmder`, called directly through
`scipy.optimize.leastsq` by `least_squares`, which keeps scipy's name
(see there). Band-edge data determines the discriminant directly: the
monic polynomials built from the periodic and antiperiodic eigenvalues
differ by the constant 4 * prod(a), which recovers the hopping product,
and their average is the monic discriminant.
"""

from types import SimpleNamespace

import numpy as np
from numpy.polynomial import Polynomial
from numpy.polynomial import polynomial as P

from . import transfer
from .discriminant import Discriminant, chebyshev_nodes
from .operators import PeriodicJacobi

TOL = 1e-11  # recover_onsite: max-norm residual of the scaled monic coefficients
MAX_ITER = 80  # recover_onsite: Newton iterations per solve
STARTS = 64  # recover_onsite: Levenberg-Marquardt starts of a blind solve


def least_squares(fun, x0, jac, ftol, xtol, gtol, max_nfev):
    """Levenberg-Marquardt by MINPACK's `lmder`, called directly through
    `scipy.optimize.leastsq`; the result holds x and nfev.

    scipy's `least_squares(method="lm")` runs the same `lmder` (its
    x_scale='jac' is leastsq's diag=None) behind a callback wrapper that
    costs several times the call on small chains. Its name and keywords
    stay, for the benchmark's tracer, which wraps this function by name,
    and for the tests, which swap scipy's solver in as the reference.
    full_output keeps leastsq from warning when a start runs out of
    evaluations. Only a blind `recover_onsite` needs `scipy.optimize`,
    which is slow to import, so `import hillbands` does not load it.
    """
    from scipy.optimize import leastsq

    x, _, info, _, _ = leastsq(fun, x0, Dfun=jac, full_output=True, ftol=ftol,
                               xtol=xtol, gtol=gtol, maxfev=max_nfev)
    return SimpleNamespace(x=x, nfev=info["nfev"])


def newton_solve(fun, jac, x0, tol=1e-12, max_iter=60):
    """Solve fun(x) = 0 by Newton iteration with backtracking.

    Below tol, one more full step is kept if it lowers the residual, so
    the root does not sit just under tol.

    Parameters
    ----------
    fun : callable(x) -> ndarray
        Residual vector.
    jac : callable(x) -> ndarray
        Square Jacobian matrix of fun at x.
    x0 : array_like
        Starting point.
    tol : float
        Convergence threshold on the max-norm of the residual.
    max_iter : int
        Iteration budget before giving up.

    Returns
    -------
    np.ndarray
        The root.

    Raises
    ------
    RuntimeError
        If the residual does not drop below tol within max_iter steps.
    """
    x = np.array(x0, dtype=float)
    fx = np.asarray(fun(x), dtype=float)
    norm = np.max(np.abs(fx))
    for k in range(max_iter):
        j = jac(x)
        try:
            step = np.linalg.solve(j, -fx)
        except np.linalg.LinAlgError as exc:
            if norm < tol:
                return x
            raise RuntimeError(f"singular Jacobian at iteration {k}") from exc
        if norm < tol:
            polished = np.max(np.abs(np.asarray(fun(x + step), dtype=float)))
            return x + step if polished < norm else x
        t = 1.0
        while t > 2.0**-30:
            x_new = x + t * step
            f_new = np.asarray(fun(x_new), dtype=float)
            norm_new = np.max(np.abs(f_new))
            if norm_new < norm or norm_new < tol:
                break
            t *= 0.5
        else:
            raise RuntimeError("Newton line search stalled")
        x, fx, norm = x_new, f_new, norm_new
    if norm < tol:
        return x
    raise RuntimeError(
        f"Newton did not converge in {max_iter} iterations (residual {norm:.3e})"
    )


def fused(evaluate):
    """fun and jac for the solvers, from evaluate(x) -> (residual, Jacobian).

    Both are served from a memo keyed on the bytes of x, so each
    distinct iterate runs evaluate, one march, once. The memo keeps the
    last two x, since the solvers ask for the residual and the Jacobian
    at one iterate and newton_solve keeps x when its polishing step does
    not help, and the x of least residual sum of squares so far: MINPACK's
    `lmder`, after a run of refused trials, takes the Jacobian at its last
    accepted point, which is that one. The arrays are read-only, since
    the memo hands the same ones out again.
    """
    recent, best = {}, {}
    least = np.inf

    def both(x):
        nonlocal least
        key = np.asarray(x, dtype=float).tobytes()
        hit = recent.get(key) or best.get(key)
        if hit is None:
            hit = evaluate(x)
            for array in hit:
                array.setflags(write=False)
            if len(recent) == 2:
                del recent[next(iter(recent))]
            recent[key] = hit
            cost = hit[0] @ hit[0]
            if cost < least:
                least = cost
                best.clear()
                best[key] = hit
        return hit

    return (lambda x: both(x)[0]), (lambda x: both(x)[1])


def monic_map(nodes, hopping_product):
    """prod(a) V^-1, V the Vandermonde matrix of the N + 1 nodes: it maps
    Delta at the nodes to the ascending coefficients of (prod a) * Delta."""
    return hopping_product * np.linalg.inv(np.vander(nodes, increasing=True))


def recover_onsite(target, hopping, initial=None):
    """Find onsite energies reproducing a target discriminant.

    Parameters
    ----------
    target : Discriminant or array_like
        The goal, either a Discriminant or its ascending coefficients
        (length N + 1). The leading coefficient must equal
        1 / prod(hopping) up to roundoff: the hopping gauge is an input
        here, not an unknown.
    hopping : array_like
        Positive bond strengths, held fixed.
    initial : array_like, optional
        Starting onsite energies for a plain damped-Newton solve. When
        omitted, a seeded (so deterministic) multistart of STARTS
        Levenberg-Marquardt solves runs instead: the target's roots,
        which the onsite energies approach in the small-hopping limit,
        are assigned to sites in random orders; plain Newton's basins
        are far too small for a blind start. Every solve ends in Newton
        steps to a max-norm residual below TOL on the monic
        coefficients, each relative to its magnitude floored at 1.

    Returns
    -------
    PeriodicJacobi
        A chain with the requested discriminant. The inverse problem
        has finitely many solutions; which one is found depends on the
        starting point, but all share the target band structure.

    Raises
    ------
    RuntimeError
        If no start converges; unattainable coefficient vectors fail
        this way.
    ValueError
        If a hopping, or a coefficient of a target given as an array, is
        not finite, or a hopping is not positive, before any march; if
        the target does not fit the hoppings; if the power-basis
        coefficients of (prod a) * Delta leave the float range, as they
        do at long periods once prod a does; or, on a blind solve, if
        the target's zeros are not all real: a discriminant's are, so
        no chain has such a target.
    """
    a = PeriodicJacobi(hopping, np.zeros(np.size(hopping))).hopping  # checks the bonds
    n = a.size
    if isinstance(target, Discriminant):
        target = target.chebyshev.convert(kind=Polynomial).coef
    elif not np.all(np.isfinite(target)):
        raise ValueError("target coefficients must be finite")
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        pa = float(np.prod(a))
        monic_target = pa * np.atleast_1d(np.asarray(target, dtype=float))
    if not (np.isfinite(pa) and pa > 0.0 and np.all(np.isfinite(monic_target))):
        raise ValueError(
            f"the power-basis coefficients of (prod a) Delta at period {n} leave "
            f"the float range (prod a = {pa:.3g}), so this target cannot be solved for"
        )
    if monic_target.ndim != 1 or monic_target.size != n + 1:
        raise ValueError(
            f"target of shape {monic_target.shape} is not {n + 1} coefficients "
            f"for period {n}"
        )
    if abs(monic_target[-1] - 1.0) > 1e-6:
        raise ValueError(
            "leading coefficient is inconsistent with the hopping product"
        )
    scale = np.maximum(1.0, np.abs(monic_target[:n]))
    roots = P.polyroots(monic_target)
    guess = np.sort(roots.real)
    # Fixed nodes on the hull of the target's zeros, at least 2 wide.
    mid, half = 0.5 * (guess[-1] + guess[0]), max(0.5 * (guess[-1] - guess[0]), 1.0)
    nodes = chebyshev_nodes((mid - half, mid + half), n)
    to_monic = monic_map(nodes, pa)[:n]

    def evaluate(b):
        # Column j of the point Jacobian is minus the characteristic
        # polynomial of the open chain with site j deleted, at the nodes.
        delta, grad = transfer.discriminant_jacobian(a, b, nodes)
        return (to_monic @ delta - monic_target[:n]) / scale, to_monic @ grad / scale[:, None]

    if initial is not None:
        b = newton_solve(*fused(evaluate), initial, tol=TOL, max_iter=MAX_ITER)
        return PeriodicJacobi(a, b)

    if np.any(np.abs(roots.imag) > 1e-8 * max(1.0, np.max(np.abs(roots)))):
        raise ValueError(
            "the target's zeros are not all real, so no chain has this discriminant"
        )

    spread = max(guess[-1] - guess[0], 1.0)
    rng = np.random.default_rng(0)
    for attempt in range(STARTS):
        start = guess.copy() if attempt == 0 else rng.permutation(guess)
        if attempt > 0:
            start = start + rng.normal(scale=0.02 * spread, size=n)
        fun, jac = fused(evaluate)  # one memo per start, so its best point is this start's
        res = least_squares(
            fun,
            start,
            jac=jac,
            xtol=1e-14,
            ftol=1e-14,
            gtol=1e-15,
            max_nfev=60 * n,
        )
        if np.max(np.abs(fun(res.x))) < 1e3 * TOL:
            try:
                b = newton_solve(fun, jac, res.x, tol=TOL, max_iter=MAX_ITER)
            except RuntimeError:
                continue
            return PeriodicJacobi(a, b)
    raise RuntimeError(
        f"no start out of {STARTS} converged; supply an initial point, or the "
        "coefficients may not be attainable with the prescribed hoppings"
    )


def discriminant_from_edges(periodic, antiperiodic):
    """Rebuild the discriminant from band-edge eigenvalue data.

    Parameters
    ----------
    periodic : array_like
        The N eigenvalues at Bloch phase 0, i.e. the zeros of Delta - 2.
    antiperiodic : array_like
        The N eigenvalues at Bloch phase pi, the zeros of Delta + 2.
        The two monic polynomials with these zeros must differ by a
        constant, to 1e-8 of the largest coefficient. All edges must be
        finite.

    Returns
    -------
    Discriminant
        On the hull of the edges, with the recovered hopping product.
    """
    per = np.sort(np.asarray(periodic, dtype=float))
    anti = np.sort(np.asarray(antiperiodic, dtype=float))
    if per.size == 0 or anti.size == 0:
        raise ValueError("need at least one edge of each kind, periodic and antiperiodic")
    if per.size != anti.size:
        raise ValueError("need equally many periodic and antiperiodic eigenvalues")
    if not (np.isfinite(per).all() and np.isfinite(anti).all()):
        raise ValueError("edge values must be finite")
    p0 = P.polyfromroots(per)
    ppi = P.polyfromroots(anti)
    diff = p0 - ppi
    scale = np.max(np.abs(p0))
    if np.max(np.abs(diff[1:])) > 1e-8 * scale:
        raise ValueError("edge data is inconsistent: difference is not constant")
    pa = -diff[0] / 4.0
    if pa <= 0:
        raise ValueError(
            "edge data is inconsistent: nonpositive hopping product"
        )
    interval = (min(per[0], anti[0]), max(per[-1], anti[-1]))
    x = chebyshev_nodes(interval, per.size)[:, None]
    return Discriminant(
        interval, (np.prod(x - per, axis=1) + np.prod(x - anti, axis=1)) / (2.0 * pa), np.log(pa))


def chain_from_divisor(periodic, antiperiodic, mu, sheet, log_hopping_product):
    """The chain with these band edges, log(prod a) and Dirichlet divisor.

    periodic and antiperiodic hold the N zeros each of Delta -+ 2; only
    their union enters. mu_j, in the closure of gap j, are the N - 1
    eigenvalues of the chain with site 0 deleted, where the monodromy M
    is triangular and |M[1, 1]| = exp(sheet_j h_j), sheet_j = +-1, with
    sinh h_j = sqrt(|Delta^2 - 4|) / 2 = sqrt(|prod(mu_j - E)|) / (2A),
    A = prod a. The squared last components of the Dirichlet
    eigenvectors are w_j = exp(sheet_j h_j) A / prod_{i != j}|mu_j - mu_i|
    over their sum, a_{N-1}^2. Lanczos on diag(mu) from sqrt(w) gives the
    sites N - 1 .. 1, A gives a_0, and the trace, sum(b) = sum(E) / 2,
    gives b_0.

    Raises ValueError if a mu_j is outside the closure of gap j, a sheet
    entry is not +-1, or a weight is not finite or underflows, as the
    weights of long chains with tall gaps do.
    """
    per, anti = np.asarray(periodic, dtype=float), np.asarray(antiperiodic, dtype=float)
    edges = np.sort(np.concatenate([per, anti]))
    mu, sheet = np.asarray(mu, dtype=float).reshape(-1), np.asarray(sheet, dtype=float).reshape(-1)
    n = per.size
    if anti.size != n or mu.shape != (n - 1,) or sheet.shape != (n - 1,):
        raise ValueError(f"need N edges of each kind and N - 1 divisor points, N = {n}")
    if not np.all((edges[1:-1:2] <= mu) & (mu <= edges[2::2])):
        raise ValueError("each mu_j must lie in the closure of gap j")
    if not np.all(np.abs(sheet) == 1.0):
        raise ValueError("sheet entries must be +1 or -1")
    with np.errstate(divide="ignore", over="ignore"):  # mu_j on an edge: h_j = 0
        root = np.exp(0.5 * np.sum(np.log(np.abs(mu[:, None] - edges)), axis=1)
                      - log_hopping_product)
        spacing = np.sum(np.log(np.abs(mu[:, None] - mu) + np.eye(n - 1)), axis=1)
    log_w = sheet * np.arcsinh(root / 2.0) + log_hopping_product - spacing
    if not np.all(np.isfinite(log_w)):
        raise ValueError("a Dirichlet weight is not finite")
    w = np.exp(log_w - np.max(log_w, initial=-np.inf))
    if not np.all(w > 0.0):
        raise ValueError("a Dirichlet weight underflows")
    a, b = np.ones(n), np.empty(n)
    basis, q = np.zeros((n - 1, n - 1)), np.sqrt(w / np.sum(w))
    for k in range(n - 1):  # row k of the Lanczos matrix is site N - 1 - k
        basis[:, k] = q
        b[n - 1 - k] = q @ (mu * q)
        if k < n - 2:
            r = mu * q
            for _ in range(2):  # full reorthogonalisation, twice
                r -= basis[:, : k + 1] @ (basis[:, : k + 1].T @ r)
            a[n - 2 - k] = np.linalg.norm(r)
            q = r / a[n - 2 - k]
    if n > 1:
        a[-1] = np.exp(0.5 * (np.max(log_w) + np.log(np.sum(w))))
    a[0] = np.exp(log_hopping_product - np.sum(np.log(a[1:])))
    b[0] = 0.5 * (np.sum(per) + np.sum(anti)) - np.sum(mu)
    return PeriodicJacobi(a, b)


def recover_operator_from_edges(periodic, antiperiodic, hopping=None):
    """The discriminant of these band edges and a chain that has them,
    as (Discriminant, PeriodicJacobi).

    discriminant_from_edges checks the data and gives the hopping
    product. The chain is recover_onsite's at the given bonds, one per
    edge of each kind, else chain_from_divisor's at the gap midpoints on
    sheet +1, whose bonds are in general not uniform.
    """
    disc = discriminant_from_edges(periodic, antiperiodic)
    if hopping is not None:
        n, m = np.size(periodic), np.size(hopping)
        if m != n:
            raise ValueError(f"need {n} hoppings for {n} edges of each kind, not {m}")
        return disc, recover_onsite(disc, hopping)
    edges = np.sort(np.concatenate([periodic, antiperiodic]))
    mid = 0.5 * (edges[1:-1:2] + edges[2::2])
    return disc, chain_from_divisor(periodic, antiperiodic, mid, np.ones(mid.size),
                                    disc.log_hopping_product)
