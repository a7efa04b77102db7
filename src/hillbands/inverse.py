"""Inverse spectral problems: recovering a chain from its discriminant.

A chain is fixed by its band edges and its Dirichlet divisor, one
point on each gap's circle (van Moerbeke 1976); `chain_from_divisor`
builds it by one Lanczos pass, with no solver. Edge data without
hoppings takes the divisor at the gap midpoints.

With the hoppings held fixed, the map from onsite energies to the
coefficients of the monic discriminant (prod a) * Delta is a smooth
N-to-N system solved here by Levenberg-Marquardt: MINPACK's `lmder`,
which `least_squares` calls from SciPy's compiled module
`scipy.optimize._minpack` alone, without importing `scipy.optimize`
(see there). The residual and its Jacobian are prod(a) V^-1, V the
Vandermonde matrix of N + 1 fixed nodes, times Delta and its onsite
Jacobian there, both from one march of the chain's rotations, which
`fused` runs once per iterate for both. What the bonds and the nodes
fix is formed once per solve (`transfer.jacobian_at`), so an iterate
runs only the site loop. With no starting point, a seeded multistart
runs one solve per start until one converges. Band-edge data determines the
discriminant directly: (prod a)(Delta + 2), the monic polynomial of the
antiperiodic eigenvalues, is 4 prod(a) at each periodic one, so one edge
gives log(prod a); Delta is the mean of the two over prod(a).

A target is a Discriminant: Delta, a degree-N polynomial with leading
coefficient 1/(a_0 ... a_{N-1}), held by its values at the N + 1
Chebyshev extreme points of an interval, which the value march gives to
its own rounding; power-basis coefficients lose accuracy exponentially
with N. It is also the payload of `hillbands edges --json`.
"""

import math
from dataclasses import dataclass
from functools import cached_property
from types import SimpleNamespace

import numpy as np
from numpy.polynomial import Chebyshev, Polynomial
from numpy.polynomial import polynomial as P

from . import transfer
from .operators import PeriodicJacobi, _minpack

TOL = 1e-11  # recover_onsite: max-norm residual of the scaled monic coefficients
STARTS = 64  # recover_onsite: Levenberg-Marquardt starts of a blind solve


def chebyshev_nodes(interval, degree):
    """The degree + 1 points mid + half cos(pi k / degree) of interval, hi first."""
    lo, hi = interval
    angles = np.pi * np.arange(degree + 1) / max(degree, 1)
    return 0.5 * (lo + hi) + 0.5 * (hi - lo) * np.cos(angles)


@dataclass(frozen=True)
class Discriminant:
    """Delta by its values at chebyshev_nodes(interval, N), exact to
    rounding inside interval = (lo, hi) and extrapolated outside, with
    log(prod a), which stays finite where prod a leaves the float range.
    An interval end not finite, an empty interval, node values not in one
    dimension or none at all, or a node value or log(prod a) not finite,
    is refused with a ValueError.
    """

    interval: tuple
    values: np.ndarray
    log_hopping_product: float

    def __post_init__(self):
        lo, hi = (float(x) for x in self.interval)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(f"interval [{lo}, {hi}] has an end that is not finite")
        if not lo < hi:
            raise ValueError(f"interval [{lo}, {hi}] is empty")
        values = np.array(self.values, dtype=float, ndmin=1)
        if values.ndim != 1:
            raise ValueError(f"node values of Delta of shape {values.shape} are not one-dimensional")
        if values.size == 0:
            raise ValueError("the table of node values of Delta is empty")
        bad = np.count_nonzero(~np.isfinite(values))
        if bad:
            raise ValueError(f"{bad} of the {values.size} node values of Delta are not finite")
        log_product = float(self.log_hopping_product)
        if not np.isfinite(log_product):
            raise ValueError(f"log(prod a) = {log_product} is not finite")
        values.setflags(write=False)
        object.__setattr__(self, "interval", (lo, hi))
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "log_hopping_product", log_product)

    @classmethod
    def from_operator(cls, op, interval=None):
        """Delta of op at the nodes of interval (by default op.gershgorin,
        on a uniform chain the band itself), by one value march.
        Raises ValueError when the march overflows, as it does in the gaps
        of long random chains."""
        interval = op.gershgorin if interval is None else interval
        nodes = chebyshev_nodes(interval, op.period)
        values = transfer.discriminant(op.hopping, op.onsite, nodes)[0]
        return cls(interval, values, np.sum(np.log(op.hopping)))

    @cached_property
    def chebyshev(self):
        """Delta as a numpy Chebyshev series on interval. Its coefficients
        are the DCT-I of the node values: the real FFT of their even
        extension, with the first and last halved. The extension is scaled
        by a power of two below 1 / (8N) first, and the result back: that
        changes no bit, but keeps the FFT's sums finite where node values
        near the float range add up past it."""
        v, n = self.values, self.values.size - 1
        c = v.copy()
        if n > 0:
            scale = 2.0 ** -((2 * n).bit_length() + 2)
            c = np.fft.rfft(np.concatenate([v, v[-2:0:-1]]) * scale).real / (n * scale)
            c[[0, -1]] *= 0.5
        return Chebyshev(c, domain=self.interval)

    def to_dict(self):
        """The interval and the Chebyshev coefficients, as plain JSON types."""
        return {"interval": list(self.interval), "coefficients": self.chebyshev.coef.tolist()}


def least_squares(fun, x0, jac, ftol, xtol, gtol, max_nfev):
    """Levenberg-Marquardt by MINPACK's `lmder`; the result holds x, nfev
    and fun, the residual `lmder` hands back with x (the fvec of leastsq's
    infodict), which is fun(x) to the bit.

    `lmder` is called from SciPy's extension module
    scipy.optimize._minpack, which `operators._minpack` loads on the
    first call without importing `scipy.optimize`: that import loads
    321 SciPy modules (SciPy 1.17.1), scipy.linalg among them, and
    about 40 MB. The
    arguments are those `scipy.optimize.leastsq` passes it when given
    Dfun (factor 100, diag None), so every iterate is leastsq's to the
    bit, without the probe calls of fun and jac at x0 and the
    covariance leastsq adds. scipy's `least_squares(method="lm")` runs
    the same `lmder` (its x_scale='jac' is diag=None) behind a callback
    wrapper. The name and keywords are scipy's, for the benchmark's
    tracer, which wraps this function by name, and for the tests, which
    swap scipy's solvers in as references. An exception raised by fun
    or jac propagates as it is, and no warning is issued.
    """
    x, info, _ = _minpack()._lmder(fun, jac, np.asarray(x0).flatten(), (), 1, 0, ftol,
                                   xtol, gtol, max_nfev, 100.0, None)
    return SimpleNamespace(x=x, nfev=info["nfev"], fun=info["fvec"])


def fused(evaluate):
    """fun and jac for `least_squares`, from evaluate(x) -> (residual, Jacobian).

    Both are served from a one-slot memo keyed on the bytes of x, so each
    distinct iterate runs evaluate, one march, once: MINPACK's `lmder`
    asks for the Jacobian only at the x of its latest residual call. The
    arrays are read-only, since the memo hands the same ones out again.
    """
    memo = [None, None]

    def both(x):
        key = np.asarray(x, dtype=float).tobytes()
        if memo[0] != key:
            value = evaluate(x)
            for array in value:
                array.setflags(write=False)
            memo[:] = key, value
        return memo[1]

    return (lambda x: both(x)[0]), (lambda x: both(x)[1])


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
        N finite starting onsite energies for one Levenberg-Marquardt
        solve. When omitted, a seeded (so deterministic) multistart of
        up to STARTS such solves runs instead: the target's roots, which
        the onsite energies approach in the small-hopping limit, are
        assigned to sites in random orders. A solve is accepted when the
        residual `lmder` returns with its answer has max-norm below TOL on
        the monic coefficients, each relative to its magnitude floored at
        1. All starts share one `fused` memo and one
        `transfer.jacobian_at` of the bonds at the nodes: the rotated
        bonds, their factors (in the march's row shape up to N = 25) and
        the march's start rows are formed once per call, as are the
        target's first N coefficients and their scales in the shapes of
        the residual and its Jacobian; each evaluation gathers the
        rotated sites, forms (lam - b) / a and runs the N-step site loop,
        and every array operation after it is between operands of one
        shape.

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
        not finite, or a hopping is not positive, or initial is not N
        finite values in one dimension, before any march; if
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
    to_monic = pa * np.linalg.inv(np.vander(nodes, increasing=True))[:n]

    if initial is not None:
        starts = [np.asarray(initial, dtype=float)]
        if starts[0].shape != (n,) or not np.all(np.isfinite(starts[0])):
            raise ValueError(f"initial must be N = {n} finite onsite energies in one dimension")
    elif np.any(np.abs(roots.imag) > 1e-8 * max(1.0, np.max(np.abs(roots)))):
        raise ValueError(
            "the target's zeros are not all real, so no chain has this discriminant"
        )
    else:  # the zeros in order, then seeded random orders of them with 2% noise
        spread, rng = max(guess[-1] - guess[0], 1.0), np.random.default_rng(0)
        starts = (guess if k == 0 else rng.permutation(guess)
                  + rng.normal(scale=0.02 * spread, size=n) for k in range(STARTS))

    # Column j of the point Jacobian is minus the characteristic
    # polynomial of the open chain with site j deleted, at the nodes.
    jacobian = transfer.jacobian_at(a, nodes)
    head, scales = monic_target[:n], np.broadcast_to(scale[:, None], (n, n)).copy()

    def evaluate(b):
        delta, grad = jacobian(b)
        return (to_monic @ delta - head) / scale, to_monic @ grad / scales

    fun, jac = fused(evaluate)
    for start in starts:
        res = least_squares(
            fun,
            start,
            jac=jac,
            xtol=1e-14,
            ftol=1e-14,
            gtol=1e-15,
            max_nfev=60 * n,
        )
        if np.max(np.abs(res.fun)) < TOL:
            return PeriodicJacobi(a, res.x)
    if initial is not None:
        raise RuntimeError(
            "the solve from the given initial point did not converge; the "
            "coefficients may not be attainable with the prescribed hoppings"
        )
    raise RuntimeError(
        f"no start out of {STARTS} converged; the coefficients may not be attainable "
        "with the prescribed hoppings, or the library's recover_onsite(..., initial=...) "
        "may converge from a start near a solution"
    )


def discriminant_from_edges(periodic, antiperiodic):
    """Rebuild the discriminant from band-edge eigenvalue data.

    Parameters
    ----------
    periodic : array_like
        The N eigenvalues at Bloch phase 0, i.e. the zeros of Delta - 2,
        in any order and shape.
    antiperiodic : array_like
        The N eigenvalues at Bloch phase pi, the zeros of Delta + 2, in
        any order and shape.
        Its monic polynomial must exceed the periodic one by 4 prod(a) at the
        N + 1 nodes, to 1e-8 of the latter's maximum. Every edge must be finite.

    Returns
    -------
    Discriminant
        On the hull of the edges, with log(prod a) = log(prod|E+ - E-| / 4)
        at the periodic edge E+ farthest from every antiperiodic edge E-.

    Raises
    ------
    ValueError
        If the data is not such edges, if the node values overflow (at long
        periods), or if errors of N eps max|E| in the edges move log(prod a)
        by over 1e-6 to first order, as once bands are narrower than rounding.
    """
    per = np.sort(np.asarray(periodic, dtype=float), axis=None)
    anti = np.sort(np.asarray(antiperiodic, dtype=float), axis=None)
    if per.size == 0 or anti.size == 0:
        raise ValueError("need at least one edge of each kind, periodic and antiperiodic")
    if per.size != anti.size:
        raise ValueError("need equally many periodic and antiperiodic eigenvalues")
    if not (np.isfinite(per).all() and np.isfinite(anti).all()):
        raise ValueError("edge values must be finite")
    n, interval = per.size, (min(per[0], anti[0]), max(per[-1], anti[-1]))
    # Discriminant refuses what is not finite first, as are the node values of a hull wider than
    # the largest double, whose edge distances and nodes overflow: they fail the checks below too.
    with np.errstate(over="ignore", invalid="ignore"):
        gaps = per[:, None] - anti
        far = gaps[np.argmax(np.min(np.abs(gaps), axis=1))]
        if np.prod(np.sign(far)) <= 0:  # a zero gap, as of coincident edges, is sign 0
            raise ValueError("edge data is inconsistent: nonpositive hopping product")
        x = chebyshev_nodes(interval, n)[:, None]
        log_product = np.sum(np.log(np.abs(far))) - np.log(4.0)
        pa = np.exp(log_product)
        p0, ppi = np.prod(x - per, axis=1), np.prod(x - anti, axis=1)
        disc = Discriminant(interval, (p0 + ppi) / (2.0 * pa), log_product)
    bound = n * np.finfo(float).eps * np.max(np.abs(interval)) * np.sum(1.0 / np.abs(far))
    if bound > 1e-6:
        raise ValueError(f"edge data at N = {n} does not determine the hopping product: "
                         f"rounding moves log(prod a) by up to {bound:.1e}, above 1e-6")
    if np.max(np.abs(ppi - p0 - 4.0 * pa)) > 1e-8 * np.max(np.abs(p0)):
        raise ValueError("edge data is inconsistent: difference is not constant")
    return disc


def chain_from_divisor(edges, mu, sheet, log_hopping_product):
    """The chain with these band edges, log(prod a) and Dirichlet divisor.

    edges are the 2N zeros of Delta -+ 2 in any order and shape, an odd
    count refused. mu_j, in the closure of gap j, are the N - 1
    eigenvalues of the chain with site 0 deleted, where the monodromy M
    is triangular and |M[1, 1]| = exp(sheet_j h_j), sheet_j = +-1, with
    sinh h_j = sqrt(|Delta^2 - 4|) / 2 = sqrt(|prod(mu_j - E)|) / (2A),
    A = prod a. The squared last components of the Dirichlet
    eigenvectors are w_j = exp(sheet_j h_j) A / prod_{i != j}|mu_j - mu_i|
    over their sum, a_{N-1}^2. Lanczos on diag(mu) from sqrt(w) gives the
    sites N - 1 .. 1, A gives a_0, and the trace, sum(b) = sum(E) / 2,
    gives b_0. Lanczos runs on mu scaled by the power of two that brings
    max|E| into [1/2, 1), and its bonds and sites are scaled back: both
    scalings are exact, and the norms of the loop, square roots of sums
    of squares, neither overflow nor underflow on edges far from 1.

    A mu_j outside the closure of gap j by no more than N eps max|E|, the
    rounding of computed edges, is moved onto the nearer edge: a chain's
    own Dirichlet eigenvalues lie up to 77 ulps outside its eig edges.

    Raises ValueError if an edge, a mu_j or log_hopping_product is not
    finite, a mu_j is farther outside the closure of gap j, a sheet entry
    is not +-1, or a weight is not finite or underflows, as the weights
    of long chains with tall gaps do.
    """
    edges = np.sort(np.asarray(edges, dtype=float), axis=None)
    mu, sheet = np.asarray(mu, dtype=float).reshape(-1), np.asarray(sheet, dtype=float).reshape(-1)
    n = edges.size // 2
    if edges.size != 2 * n or mu.shape != (n - 1,) or sheet.shape != (n - 1,):
        raise ValueError(f"need 2N edges and N - 1 divisor points, N = {n}")
    if not np.isfinite(edges).all():
        raise ValueError("edge values must be finite")
    if not np.isfinite(mu).all():
        raise ValueError("divisor points mu_j must be finite")
    if not np.isfinite(log_hopping_product):
        raise ValueError(f"log(prod a) = {log_hopping_product} is not finite")
    lower, upper = edges[1:-1:2], edges[2::2]
    slack = n * np.finfo(float).eps * max(-edges[0], edges[-1])
    if not np.all((lower - mu <= slack) & (mu - upper <= slack)):
        raise ValueError("each mu_j must lie in the closure of gap j")
    mu = np.clip(mu, lower, upper)
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
    scale = math.frexp(max(-edges[0], edges[-1]))[1]  # of max|E|, the edges being sorted
    nu = np.ldexp(mu, -scale)
    for k in range(n - 1):  # row k of the Lanczos matrix is site N - 1 - k
        basis[:, k] = q
        b[n - 1 - k] = q @ (nu * q)
        if k < n - 2:
            r = nu * q
            for _ in range(2):  # full reorthogonalisation, twice
                r -= basis[:, : k + 1] @ (basis[:, : k + 1].T @ r)
            a[n - 2 - k] = np.linalg.norm(r)
            q = r / a[n - 2 - k]
    a[1:-1], b[1:] = np.ldexp(a[1:-1], scale), np.ldexp(b[1:], scale)
    if n > 1:
        a[-1] = np.exp(0.5 * (np.max(log_w) + np.log(np.sum(w))))
    a[0] = np.exp(log_hopping_product - np.sum(np.log(a[1:])))
    b[0] = 0.5 * np.sum(edges) - np.sum(mu)
    return PeriodicJacobi(a, b)


def recover_operator_from_edges(periodic, antiperiodic, hopping=None):
    """The discriminant of these band edges and a chain that has them,
    as (Discriminant, PeriodicJacobi).

    discriminant_from_edges checks the data and gives the hopping
    product. The edges may come in any order and shape. The chain is
    recover_onsite's at the given bonds, one per edge of each kind, else
    chain_from_divisor's of the sorted 2N edges at the gap midpoints on
    sheet +1, whose bonds are in general not uniform.
    """
    periodic, antiperiodic = np.ravel(periodic), np.ravel(antiperiodic)
    disc = discriminant_from_edges(periodic, antiperiodic)
    if hopping is not None:
        n, m = np.size(periodic), np.size(hopping)
        if m != n:
            raise ValueError(f"need {n} hoppings for {n} edges of each kind, not {m}")
        return disc, recover_onsite(disc, hopping)
    edges = np.sort(np.concatenate([periodic, antiperiodic]))
    mid = 0.5 * (edges[1:-1:2] + edges[2::2])
    return disc, chain_from_divisor(edges, mid, np.ones(mid.size), disc.log_hopping_product)
