"""Inverse spectral problems: recovering a chain from its discriminant.

With the hoppings held fixed, the map from onsite energies to the
coefficients of the monic discriminant (prod a) * Delta is a smooth
N-to-N system solved here by damped Newton iteration. The residual and
its Jacobian are `monic_map` times Delta and the onsite columns of its
Jacobian at N + 1 fixed nodes, both from one march of the chain's N
rotations (`transfer.discriminant_jacobian`, the bonds rotated once per
solve), which `fused` runs once per iterate for both. Band-edge data
determines the discriminant directly: the monic polynomials built from
the periodic and antiperiodic eigenvalues differ by the constant
4 * prod(a), which recovers the hopping product, and their average is
the monic discriminant.
"""

import numpy as np
from numpy.polynomial import Polynomial
from numpy.polynomial import polynomial as P

from . import transfer
from .discriminant import Discriminant, chebyshev_nodes
from .operators import PeriodicJacobi


def least_squares(*args, **kwargs):
    """`scipy.optimize.least_squares`, imported on first use.

    `scipy.optimize` is slow to import and only the blind
    `recover_onsite` needs it, so `import hillbands` does not load it.
    """
    from scipy.optimize import least_squares as solve

    return solve(*args, **kwargs)


def newton_solve(fun, jac, x0, tol=1e-12, max_iter=60, callback=None):
    """Solve fun(x) = 0 by Newton iteration with backtracking.

    A square Jacobian gives the Newton step; a rectangular one gives the
    minimum-norm least-squares (Gauss-Newton) step, which for an
    underdetermined system projects x onto the solution set. Below tol,
    one more full step is kept if it lowers the residual, so the root
    does not sit just under tol.

    Parameters
    ----------
    fun : callable(x) -> ndarray
        Residual vector.
    jac : callable(x) -> ndarray
        Jacobian matrix of fun at x, square or not.
    x0 : array_like
        Starting point.
    tol : float
        Convergence threshold on the max-norm of the residual.
    max_iter : int
        Iteration budget before giving up.
    callback : callable(k, x, residual_norm), optional
        Invoked once per iteration.

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
        if callback is not None:
            callback(k, x, norm)
        j = jac(x)
        try:
            if j.shape[0] == j.shape[1]:
                step = np.linalg.solve(j, -fx)
            else:
                step = np.linalg.lstsq(j, -fx, rcond=None)[0]
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

    Both are served from a memo of the last two x, keyed on their
    bytes, so each distinct iterate runs evaluate, one march, once. The
    solvers ask for the residual and the Jacobian at one iterate, and
    come back to the one before a refused trial: scipy's LM takes the
    Jacobian of its last accepted point after its final trial, and
    newton_solve keeps x when its polishing step does not help. The
    arrays are read-only, since the memo hands the same ones out again.
    """
    memo = {}

    def both(x):
        key = np.asarray(x, dtype=float).tobytes()
        if key not in memo:
            residual, jacobian = evaluate(x)
            residual.setflags(write=False)
            jacobian.setflags(write=False)
            if len(memo) == 2:
                del memo[next(iter(memo))]
            memo[key] = residual, jacobian
        return memo[key]

    return (lambda x: both(x)[0]), (lambda x: both(x)[1])


def monic_map(nodes, hopping_product):
    """prod(a) V^-1, V the Vandermonde matrix of the N + 1 nodes: it maps
    Delta at the nodes to the ascending coefficients of (prod a) * Delta."""
    return hopping_product * np.linalg.inv(np.vander(nodes, increasing=True))


def recover_onsite(target, hopping=None, initial=None, tol=1e-11, max_iter=80, starts=64):
    """Find onsite energies reproducing a target discriminant.

    Parameters
    ----------
    target : Discriminant or array_like
        The goal, either a Discriminant or its ascending coefficients
        (length N + 1). The leading coefficient must equal
        1 / prod(hopping) up to roundoff: the hopping gauge is an input
        here, not an unknown.
    hopping : array_like, optional
        Positive bond strengths, held fixed. When omitted, which takes a
        Discriminant target, the bonds are uniform at the geometric mean
        fixed by its hopping product.
    initial : array_like, optional
        Starting onsite energies for a plain damped-Newton solve. When
        omitted, a seeded (so deterministic) multistart runs instead:
        the target's roots, which the onsite energies approach in the
        small-hopping limit, are assigned to sites in random orders and
        driven by Levenberg-Marquardt; plain Newton's basins are far too
        small for a blind start.
    tol : float
        Max-norm tolerance on the monic coefficient residual, relative
        to each target coefficient's magnitude floored at 1.
    max_iter : int
        Newton iteration budget (per start when multistarting).
    starts : int
        Multistart budget when no initial point is given.

    Returns
    -------
    PeriodicJacobi
        A chain with the requested discriminant. The inverse problem
        has finitely many solutions; which one is found depends on the
        starting point, but all share the target band structure.

    Raises
    ------
    RuntimeError
        If no start converges; non-real-rooted or otherwise
        unattainable coefficient vectors fail this way.
    ValueError
        If the target does not fit the hoppings, or the power-basis
        coefficients of (prod a) * Delta leave the float range, as they
        do at long periods once prod a does.
    """
    if isinstance(target, Discriminant):
        if hopping is None:
            hopping = np.full(target.degree, np.exp(target.log_hopping_product / target.degree))
        target = target.chebyshev.convert(kind=Polynomial).coef
    elif hopping is None:
        raise ValueError("a coefficient target needs the hoppings")
    a = np.atleast_1d(np.asarray(hopping, dtype=float))
    n = a.size
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

    index = transfer.rotations(n)
    rotated = a[index]

    def evaluate(b):
        # Onsite column j of the point Jacobian is minus the characteristic
        # polynomial of the open chain with site j deleted, at the nodes.
        delta, grad = transfer.discriminant_jacobian(rotated, np.asarray(b)[index], nodes)
        return (to_monic @ delta - monic_target[:n]) / scale, to_monic @ grad[:, n:] / scale[:, None]

    fun, jac = fused(evaluate)

    if initial is not None:
        b = newton_solve(fun, jac, initial, tol=tol, max_iter=max_iter)
        return PeriodicJacobi(a, b)

    if np.any(np.abs(roots.imag) > 1e-8 * max(1.0, np.max(np.abs(roots)))):
        # Not real-rooted, so certainly not a genuine discriminant;
        # still give Newton one attempt from the staggered trace split.
        center = -monic_target[n - 1] / n
        guess = center + 1e-3 * (np.arange(n) - 0.5 * (n - 1))
        b = newton_solve(fun, jac, guess, tol=tol, max_iter=max_iter)
        return PeriodicJacobi(a, b)

    spread = max(guess[-1] - guess[0], 1.0)
    rng = np.random.default_rng(0)
    for attempt in range(max(1, starts)):
        start = guess.copy() if attempt == 0 else rng.permutation(guess)
        if attempt > 0:
            start = start + rng.normal(scale=0.02 * spread, size=n)
        res = least_squares(
            fun,
            start,
            jac=jac,
            method="lm",
            xtol=1e-14,
            ftol=1e-14,
            gtol=1e-15,
            max_nfev=60 * n,
        )
        if np.max(np.abs(fun(res.x))) < 1e3 * tol:
            try:
                b = newton_solve(fun, jac, res.x, tol=tol, max_iter=max_iter)
            except RuntimeError:
                continue
            return PeriodicJacobi(a, b)
    raise RuntimeError(
        f"no start out of {starts} converged; raise `starts` or supply an "
        "initial point, or the coefficients may not be attainable with the "
        "prescribed hoppings"
    )


def discriminant_from_edges(periodic, antiperiodic, rtol=1e-8):
    """Rebuild the discriminant from band-edge eigenvalue data.

    Parameters
    ----------
    periodic : array_like
        The N eigenvalues at Bloch phase 0, i.e. the zeros of Delta - 2.
    antiperiodic : array_like
        The N eigenvalues at Bloch phase pi, the zeros of Delta + 2.
    rtol : float
        Consistency tolerance: the two monic polynomials must differ by
        a constant at this relative level.

    Returns
    -------
    Discriminant
        On the hull of the edges, with the recovered hopping product.
    """
    per = np.sort(np.asarray(periodic, dtype=float))
    anti = np.sort(np.asarray(antiperiodic, dtype=float))
    if per.size != anti.size or per.size == 0:
        raise ValueError("need equally many periodic and antiperiodic eigenvalues")
    p0 = P.polyfromroots(per)
    ppi = P.polyfromroots(anti)
    diff = p0 - ppi
    scale = np.max(np.abs(p0))
    if np.max(np.abs(diff[1:])) > rtol * scale:
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


def recover_operator_from_edges(periodic, antiperiodic, hopping=None, **kwargs):
    """Full edge-data inversion: discriminant, then onsite recovery.

    When hopping is omitted the bonds are taken uniform at the
    geometric mean fixed by the recovered hopping product.
    """
    return recover_onsite(discriminant_from_edges(periodic, antiperiodic), hopping, **kwargs)
