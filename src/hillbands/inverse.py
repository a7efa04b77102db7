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
draws its starts on the sphere that every chain with the target's Delta
and bonds lies on (the zeros of Delta are the spectrum of J(pi/2), so
they fix sum b and sum b^2), scores them all by one batched value
march, and runs one `_lm` solve per start, best score first, until one
converges. Band-edge data determines the discriminant directly:
(prod a)(Delta + 2), the monic polynomial of the antiperiodic
eigenvalues, is 4 prod(a) at each periodic one, so one edge gives
log(prod a); Delta is the mean of the two over prod(a). A chain solved for at given bonds is then polished
on the edges by one more `_lm` solve, its Jacobian read from the same
march at the edges (_polish).

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
from .operators import PeriodicJacobi, _minpack, bloch_spectra

TOL = 1e-11  # recover_onsite: max-norm residual of the scaled monic coefficients
STARTS = 64  # recover_onsite: Levenberg-Marquardt starts of a blind solve
FTOL = 1e-7  # _lm, every solve: MINPACK's ftol, the least relative fall of the sum of squares per step


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
        values = transfer.March(op.hopping).at(nodes).trace(op.onsite)[0]
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


def _lm(fun, jac, x0):
    """`least_squares` from x0 on the tests of every solve here: xtol 1e-14
    on the step, gtol 1e-15, FTOL on the one-step relative fall of the sum
    of squares, actual and predicted, and 60 evaluations per unknown. A
    solve that converges to a zero residual does so quadratically, its sum
    of squares falling by nearly all of itself at each step, so FTOL never
    fires: it ends on xtol after the same iterates, with the same bits, as
    under ftol 1e-14 (on 1082 targets and 4660 blind starts, none changed
    up to ftol 1e-6). One that stalls at a non-zero minimum ends once a
    step lowers its sum of squares by less than FTOL, not after polishing
    the minimum to 1e-14. `least_squares` and FTOL are looked up at each
    call, since the tests and the benchmark's tracer replace them."""
    return least_squares(fun, x0, jac=jac, xtol=1e-14, ftol=FTOL, gtol=1e-15,
                         max_nfev=60 * np.size(x0))


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
        up to STARTS such solves runs instead. Its candidates, drawn at
        once, are the target's zeros, which the onsite energies approach
        in the small-hopping limit, in order, then in random orders with
        2% noise, each moved onto the sphere of the two invariants of
        J(pi/2) that the zeros fix, sum b and sum b^2 (_sphere_starts).
        One march of all the candidates as a batch at the nodes scores
        each by the max-norm of its residual, and the solves run from
        the candidates in ascending order of that score (a stable sort).
        A solve is accepted when the residual `lmder` returns with its
        answer has max-norm below TOL on the monic coefficients, each
        relative to its magnitude floored at 1. Each start is one `_lm`
        solve, which stops on its tests. All starts share one `fused`
        memo and one `transfer.jacobian_at` of the bonds at the nodes:
        the rotated bonds, their factors (in the march's row shape up to
        N = 25) and the march's start rows are formed once per call, as
        are the target's first N coefficients and their scales in the
        shapes of the residual and its Jacobian; each evaluation gathers
        the rotated sites, forms (lam - b) / a and runs the N-step site
        loop, and every array operation after it is between operands of
        one shape.

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
        do at long periods once prod a does; or, on a blind solve and
        before any march, if the target's zeros are not all real: a
        discriminant's are, so no chain has such a target; or if, at
        N >= 2, sum z^2 - 2 sum a^2 over its zeros z and the bonds a is
        below (sum z)^2 / N by more than rounding: no real chain with
        these bonds has sum b = sum z and sum b^2 = sum z^2 - 2 sum a^2.
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
    else:
        starts = _sphere_starts(guess, a)

    # Column j of the point Jacobian is minus the characteristic
    # polynomial of the open chain with site j deleted, at the nodes.
    jacobian = transfer.jacobian_at(a, nodes)
    head, scales = monic_target[:n], np.broadcast_to(scale[:, None], (n, n)).copy()

    def evaluate(b):
        delta, grad = jacobian(b)
        return (to_monic @ delta - head) / scale, to_monic @ grad / scales

    if initial is None:  # every candidate scored by one march, the best solved first
        march = transfer.March(np.repeat(a[:, None], STARTS, axis=1)).at(nodes[:, None])
        residual = (to_monic @ march.trace(starts.T)[0] - head[:, None]) / scale[:, None]
        starts = starts[np.argsort(np.max(np.abs(residual), axis=0), kind="stable")]
    fun, jac = fused(evaluate)
    for start in starts:
        res = _lm(fun, jac, start)
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


def _sphere_starts(zeros, a):
    """The STARTS candidate sites of a blind solve at bonds a, one per
    row, for a target with the sorted real zeros: the zeros in order, then
    seeded random orders of them with noise of 2% of their spread, each
    moved onto the sphere that every chain with this Delta lies on.

    The zeros are the spectrum of J(pi/2), so each chain with this Delta
    and these bonds has tr J(pi/2) = sum b = sum z and, for N >= 2,
    tr J(pi/2)^2 = sum b^2 + 2 sum a^2 = sum z^2. A candidate keeps its
    mean at sum z / N, and its deviations from its mean are scaled to
    the squared length R^2 = sum (z - mean z)^2 - 2 sum a^2. By
    Cauchy-Schwarz R^2 >= 0 on a chain, so a target with R^2 below
    -4e-8 N max(1, max|z|)^2 is refused with a ValueError: the zeros are
    taken as real to d = 1e-8 max(1, max|z|), and moving each by d moves
    R^2 by up to 2 d sum|z - mean z| <= 4 d N max|z| to first order.
    An R^2 within that slack of 0, on either side, counts as 0, and every
    candidate is the mean: a chain whose sites are all equal has R^2 = 0,
    and the rounding of R^2 would put its starts about sqrt(eps) off it.
    At N = 1 the second invariant has no bond term, and the candidates
    are left as drawn.
    """
    n, mean = zeros.size, np.mean(zeros)
    deviation = zeros - mean
    radius2 = deviation @ deviation - 2.0 * (a @ a)
    slack = 4e-8 * n * max(1.0, np.max(np.abs(zeros))) ** 2
    if n > 1 and radius2 < -slack:
        raise ValueError(
            f"sum z^2 - 2 sum a^2 over the target's zeros z and the hoppings a is below "
            f"(sum z)^2 / N by {-radius2:.3g}, so no chain with these hoppings has this "
            "discriminant"
        )
    rng, spread = np.random.default_rng(0), max(zeros[-1] - zeros[0], 1.0)
    starts = np.vstack([zeros, rng.permuted(np.tile(zeros, (STARTS - 1, 1)), axis=1)
                        + rng.normal(scale=0.02 * spread, size=(STARTS - 1, n))])
    if n == 1:
        return starts
    if radius2 <= slack:
        return np.full_like(starts, mean)
    starts -= np.mean(starts, axis=1, keepdims=True)  # no row is 0: R^2 > 0 or noise
    return mean + starts * (math.sqrt(radius2) / np.linalg.norm(starts, axis=1, keepdims=True))


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


def _polish(op, periodic, antiperiodic):
    """op after one Levenberg-Marquardt solve in its sites on the edge
    residual, with the largest edge distance before and after.

    The residual is the sorted eigenvalues of J(0) and J(pi) less the
    sorted periodic and antiperiodic data, each over max(1, |datum|); the
    edge distance is its max-norm. Its Jacobian is Hellmann-Feynman's,
    dE_i/db_n = psi_i(n)^2 = (d Delta / d b_n) / sum_m d Delta / d b_m at
    E_i, the sum being -Delta'(E_i): the rows of transfer.jacobian_at at
    the eigenvalues, each over its sum, from the march that gives Delta
    there. An iterate of N >= 2 sites that is its own cell takes its
    eigenvalues from operators.bloch_spectra, which keeps no memo, so
    the polish leaves the memo of band edges, which operators alone keys
    and fills, as it found it; any other iterate takes them from
    floquet_eigenvalues. A row whose sum is zero, as at a closed gap
    whose two edges a repeated cell makes equal to the bit, is left
    zero: a double eigenvalue is not differentiable in the sites. The
    solve is one `_lm` run, and its answer is kept only if it lowers the
    edge distance.
    """
    data = np.stack([np.sort(periodic), np.sort(antiperiodic)])
    weight = 1.0 / np.maximum(1.0, np.abs(data))
    a = op.hopping

    def evaluate(b):
        iterate = PeriodicJacobi(a, b)
        if iterate.cell is iterate and a.size > 1:  # solved outside the Bloch-spectrum memo
            w = bloch_spectra(iterate.hopping, iterate.onsite)
        else:
            w = iterate.floquet_eigenvalues([0.0, np.pi])
        grad = transfer.jacobian_at(a, w)(b)[1]
        total = np.sum(grad, axis=-1, keepdims=True)
        rows = np.divide(grad, total, out=np.zeros_like(grad), where=total != 0.0)
        return ((w - data) * weight).ravel(), (rows * weight[..., None]).reshape(-1, a.size)

    fun, jac = fused(evaluate)
    before = np.max(np.abs(fun(op.onsite)))
    res = _lm(fun, jac, op.onsite)
    after = np.max(np.abs(res.fun))
    if not after < before:
        return op, (float(before), float(before))
    return PeriodicJacobi(a, res.x), (float(before), float(after))


def recover_operator_from_edges(periodic, antiperiodic, hopping=None):
    """The discriminant of these band edges, a chain that has them, and
    the chain's edge distance, as (Discriminant, PeriodicJacobi, distance).

    discriminant_from_edges checks the data and gives the hopping
    product. The edges may come in any order and shape. The chain is
    recover_onsite's at the given bonds, one per edge of each kind and
    with the edges' hopping product to 1e-6 (else refused, both products
    named), polished on the edges by _polish, and distance is the largest
    distance of its Bloch eigenvalues at 0 and pi from the data, each
    over max(1, |datum|), before and after the polish. Without bonds it
    is chain_from_divisor's of the sorted 2N edges at the gap midpoints
    on sheet +1, whose bonds are in general not uniform, and distance is
    None: no polish runs.

    Where two chains with these bonds and edges meet, the edges move by
    the square of the sites' change, so they fix the sites only to about
    sqrt(eps): sites 2 + d, 2 - d and 2 - d, 2 + d at bonds 0.25, 0.75
    have the same edges, and the edges 1, 3 and 1.5, 2.5 of sites 2, 2
    give sites 1.999999998, 2.000000002 at edge distance 0. Fixing them
    better needs data beyond the edges, such as the Dirichlet eigenvalues.
    """
    periodic, antiperiodic = np.ravel(periodic), np.ravel(antiperiodic)
    disc = discriminant_from_edges(periodic, antiperiodic)
    if hopping is not None:
        n, m = np.size(periodic), np.size(hopping)
        if m != n:
            raise ValueError(f"need {n} hoppings for {n} edges of each kind, not {m}")
        a = PeriodicJacobi(hopping, np.zeros(n)).hopping  # checks the bonds
        # recover_onsite's 1e-6 on the leading coefficient, read on log(prod a)
        logs = float(np.sum(np.log(a))), disc.log_hopping_product
        if not math.log1p(-1e-6) <= logs[0] - logs[1] <= math.log1p(1e-6):
            shown = [f"{math.exp(x):.6g}" if abs(x) < 700.0 else f"e^{x:.6g}" for x in logs]
            raise ValueError("the hoppings' product {} is not the edges' hopping product {}".format(*shown))
        return disc, *_polish(recover_onsite(disc, hopping), periodic, antiperiodic)
    edges = np.sort(np.concatenate([periodic, antiperiodic]))
    mid = 0.5 * (edges[1:-1:2] + edges[2::2])
    return disc, chain_from_divisor(edges, mid, np.ones(mid.size), disc.log_hopping_product), None
