"""Independent reference answers for every CLI response the benchmark sends.

Nothing here uses the package's coefficient route (power-basis Hill
discriminant, polynomial root isolation). The references are:

* band edges from real-symmetric eigensolves of the Bloch matrices at
  theta = 0 and theta = pi, and closed forms for uniform chains;
* Delta, Delta' and Delta'' from the three-term recurrence, with an
  estimate of its own rounding error;
* closed forms for the IDS and DOS of uniform chains.

Every tolerance is the larger of a fixed user-level accuracy, TAU, and
a multiple, SAFETY, of the oracle's own error at that point. TAU
is the 1e-9 the package's own acceptance battery holds band edges to;
SAFETY keeps the oracle from failing a response for the oracle's own
rounding. Neither is set from what the package returns.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

EPS = np.finfo(float).eps
WIDE = np.longdouble
WIDE_EPS = float(np.finfo(WIDE).eps)
TAU = 1e-9
SAFETY = 8.0


@dataclass(frozen=True)
class Chain:
    """One period of a chain as the benchmark generated it."""

    hopping: np.ndarray
    onsite: np.ndarray
    uniform: bool = False

    @property
    def period(self):
        return self.onsite.size

    @property
    def norm(self):
        """Upper bound on the spectral radius of every Bloch matrix."""
        return float(np.max(np.abs(self.onsite)) + 2.0 * np.max(self.hopping))

    @cached_property
    def edges(self):
        """All 2N band edges, sorted: closed form if uniform, else eigensolves."""
        if self.uniform:
            return uniform_edges(self)
        return np.sort(np.concatenate([
            np.linalg.eigvalsh(bloch_matrix(self, 1.0)),
            np.linalg.eigvalsh(bloch_matrix(self, -1.0)),
        ]))


def bloch_matrix(chain, sign):
    """Real-symmetric Bloch matrix at theta = 0 (sign +1) or pi (sign -1)."""
    a, b, n = chain.hopping, chain.onsite, chain.period
    j = np.diag(b).astype(float)
    if n == 1:
        j[0, 0] += 2.0 * sign * a[0]
        return j
    idx = np.arange(n - 1)
    j[idx, idx + 1] = a[:-1]
    j[idx + 1, idx] = a[:-1]
    j[n - 1, 0] += sign * a[-1]
    j[0, n - 1] += sign * a[-1]
    return j


def edge_error(chain):
    """Bound on the eigensolver's absolute error for one band edge."""
    return 8.0 * chain.period * EPS * max(1.0, chain.norm)


def edge_tolerance(chain):
    return max(TAU * max(1.0, chain.norm), SAFETY * edge_error(chain))


def uniform_edges(chain):
    """Closed form: b + 2a cos(pi k / N), interior edges doubled."""
    a, b, n = chain.hopping[0], chain.onsite[0], chain.period
    k = np.arange(n + 1)
    levels = b + 2.0 * a * np.cos(np.pi * k / n)
    return np.sort(np.concatenate([levels, levels[1:-1]]))


def _march(a, b, e):
    """Delta, Delta' and Delta'' at energies e by the three-term recurrence.

    Marches both columns of the monodromy matrix,
    u_{n+1} = ((E - b_n) u_n - a_{n-1} u_{n-1}) / a_n, from (u_0, u_{-1})
    = (1, 0) and (0, 1), together with their first two derivatives in E.
    """
    u = np.array([np.ones_like(e), np.zeros_like(e)])
    u_prev = np.array([np.zeros_like(e), np.ones_like(e)])
    du, du_prev = np.zeros_like(u), np.zeros_like(u)
    d2u, d2u_prev = np.zeros_like(u), np.zeros_like(u)
    for k in range(a.size):
        shift = e - b[k]
        back = a[k - 1] / a[k]
        u_next = shift * u / a[k] - back * u_prev
        du_next = (u + shift * du) / a[k] - back * du_prev
        d2u_next = (2.0 * du + shift * d2u) / a[k] - back * d2u_prev
        u_prev, u = u, u_next
        du_prev, du = du, du_next
        d2u_prev, d2u = d2u, d2u_next
    return u[0] + u_prev[1], du[0] + du_prev[1], d2u[0] + d2u_prev[1]


def discriminant(chain, energies):
    """Delta, Delta', Delta'' and error estimates for the first two, at each energy.

    The recurrence runs in extended precision where the platform has it,
    on the cell as given and on its mirror image, which shares Delta.
    The two round differently, so their difference, plus a floor of
    N eps |Delta|, estimates the rounding error.
    """
    e = np.atleast_1d(np.asarray(energies, dtype=float)).astype(WIDE)
    a, b, n = chain.hopping.astype(WIDE), chain.onsite.astype(WIDE), chain.period
    cells = [(a, b), (a[::-1], np.roll(b[::-1], 1))]
    values = [_march(ca, cb, e) for ca, cb in cells]
    d, dd, d2 = (np.array([v[i] for v in values]) for i in range(3))
    floor = n * WIDE_EPS
    err = np.ptp(d, axis=0) + floor * np.maximum(1.0, np.abs(d[0]))
    derr = np.ptp(dd, axis=0) + floor * np.maximum(1.0, np.abs(dd[0]))
    return tuple(x.astype(float) for x in (d[0], dd[0], d2[0], err, derr))


def _arccos_spread(x, h):
    """Largest change of arccos(x) when x moves by at most h."""
    xc = np.clip(x, -1.0, 1.0)
    base = np.arccos(xc)
    up = np.abs(np.arccos(np.clip(xc + h, -1.0, 1.0)) - base)
    down = np.abs(np.arccos(np.clip(xc - h, -1.0, 1.0)) - base)
    return np.maximum(up, down)


@dataclass
class Verdict:
    ok: bool
    reason: str = ""


def _fail(reason):
    return Verdict(False, reason)


def _worst(err, tol):
    i = int(np.argmax(err - tol))
    return f"error {err[i]:.3e} > tolerance {tol[i]:.3e} at point {i}"


def check_bands(chain, payload):
    edges = np.asarray(payload["edges"], dtype=float)
    ref = chain.edges
    if edges.shape != ref.shape:
        return _fail(f"{edges.size} edges, expected {ref.size}")
    tol = edge_tolerance(chain)
    err = np.abs(edges - ref)
    if not np.all(err <= tol):
        return _fail("band edges: " + _worst(err, np.full_like(err, tol)))
    bands = np.asarray(payload["bands"], dtype=float)
    if bands.shape != (chain.period, 2) or not np.array_equal(bands.ravel(), edges):
        return _fail("bands do not pair up the edges")
    return Verdict(True)


def reference_density(chain, energies, edges):
    """IDS, DOS and their uncertainties on a grid, plus the DOS mask.

    The DOS is left unchecked (mask False) where the oracle cannot tell
    it: within the edge uncertainty of an edge, where it diverges or
    drops to zero, and where its own relative uncertainty passes 1e-2.
    """
    n = chain.period
    tol_e = SAFETY * edge_error(chain)
    count = np.searchsorted(edges, energies, side="right")
    inside = count % 2 == 1
    band = (count - 1) // 2
    near_edge = np.min(np.abs(energies[:, None] - edges[None, :]), axis=1) <= tol_e
    if chain.uniform:
        a, b = chain.hopping[0], chain.onsite[0]
        x = (energies - b) / (2.0 * a)
        h = 4.0 * EPS * (1.0 + np.abs(x))
        ids = np.arccos(np.clip(-x, -1.0, 1.0)) / np.pi
        ids_err = _arccos_spread(-x, h) / np.pi
        under = np.where(np.abs(x) < 1.0, 1.0 - x * x, 1.0)
        dos = np.where(np.abs(x) < 1.0, 1.0 / (2.0 * np.pi * a * np.sqrt(under)), 0.0)
        dos_rel = np.abs(x) * h / under + 4.0 * EPS
    else:
        d, dd, _, err, derr = discriminant(chain, energies)
        phase = np.arccos(np.clip(d / 2.0, -1.0, 1.0))
        # Delta is +2 at the top edge and alternates down the edge list,
        # so the phase at band j's lower edge is 0 when N - j is even.
        lower = np.where((n - band) % 2 == 0, 0.0, np.pi)
        ids = np.where(inside, band + np.abs(phase - lower) / np.pi, count // 2) / n
        ids_err = np.where(inside, _arccos_spread(d / 2.0, err / 2.0) / (np.pi * n), 0.0)
        under = np.where(inside, 4.0 - d * d, 1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            dos = np.where(inside & (under > 0), np.abs(dd) / (n * np.pi * np.sqrt(np.abs(under))), 0.0)
            dos_rel = np.where(inside, derr / np.abs(dd) + np.abs(d) * err / np.abs(under), 0.0)
        dos_rel = np.nan_to_num(dos_rel, nan=np.inf, posinf=np.inf)
    dos = np.where(inside, dos, 0.0)
    mask = ~near_edge & (~inside | (dos_rel < 1e-2))
    return ids, ids_err, dos, dos_rel, mask


def check_dos(chain, payload, points):
    energy = np.asarray(payload["energy"], dtype=float)
    ids = np.asarray(payload["ids"], dtype=float)
    dos = np.asarray(payload["dos"], dtype=float)
    if not (energy.size == ids.size == dos.size == points):
        return _fail(f"grid has {energy.size} points, expected {points}")
    edges = chain.edges
    lo, hi = edges[0], edges[-1]
    margin = 0.05 * (hi - lo if hi > lo else 1.0)
    grid = np.linspace(lo - margin, hi + margin, points)
    tol_e = edge_tolerance(chain)
    if np.max(np.abs(energy - grid)) > 2.0 * tol_e:
        return _fail("energy grid does not span the spectrum")
    ref_ids, ids_err, ref_dos, dos_rel, mask = reference_density(chain, energy, edges)
    tol = np.maximum(TAU, SAFETY * ids_err)
    err = np.abs(ids - ref_ids)
    if not np.all(err <= tol):
        bad = np.count_nonzero(err > tol)
        return _fail(f"IDS wrong at {bad}/{points} points; worst " + _worst(err, tol))
    rtol = np.maximum(TAU, SAFETY * dos_rel)
    with np.errstate(divide="ignore", invalid="ignore"):
        derr = np.where(ref_dos > 0, np.abs(dos - ref_dos) / ref_dos, np.abs(dos))
    bad = mask & ~(derr <= rtol)
    if np.any(bad):
        return _fail(f"DOS wrong at {np.count_nonzero(bad)}/{points} points; worst "
                     + _worst(np.where(mask, derr, 0.0), rtol))
    return Verdict(True)


def check_dispersion(chain, payload, samples):
    theta = np.asarray(payload["theta"], dtype=float)
    energies = np.asarray(payload["bands"], dtype=float)
    if theta.size != samples or energies.shape != (chain.period, samples):
        return _fail("dispersion has the wrong shape")
    if np.max(np.abs(theta - np.linspace(0.0, np.pi, samples))) > 4.0 * EPS:
        return _fail("phases are not an even grid on [0, pi]")
    edges = chain.edges
    tol = edge_tolerance(chain)
    lower, upper = edges[0::2, None], edges[1::2, None]
    if not np.all((energies >= lower - tol) & (energies <= upper + tol)):
        return _fail("a dispersion energy lies outside its band")
    if chain.uniform:
        a, b, n = chain.hopping[0], chain.onsite[0], chain.period
        m = np.arange(n)[:, None]
        ref = np.sort(b + 2.0 * a * np.cos((theta[None, :] + 2.0 * np.pi * m) / n), axis=0)
        err = np.abs(energies - ref)
        if not np.all(err <= tol):
            return _fail("dispersion vs closed form: " + _worst(err.ravel(), np.full(err.size, tol)))
        return Verdict(True)
    flat = energies.ravel()
    d, dd, d2, derr_d, derr_dd = discriminant(chain, flat)
    target = np.broadcast_to(2.0 * np.cos(theta), energies.shape).ravel()
    resid = np.abs(d - target)
    # Taylor bound: an energy error of tol moves Delta by tol |Delta'| plus
    # tol^2 |Delta''| / 2, taken twice for margin; the second-order term
    # matters at nearly closed gaps, where Delta' nearly vanishes. The
    # last term is the rounding of Delta and of 2 cos(theta) to doubles.
    allowed = (2.0 * tol * (np.abs(dd) + derr_dd) + tol * tol * np.abs(d2)
               + SAFETY * derr_d + 4.0 * EPS * (2.0 + np.abs(d)))
    if not np.all(resid <= allowed):
        return _fail(f"Delta(E) != 2 cos(theta) at {np.count_nonzero(~(resid <= allowed))} "
                     "points; worst " + _worst(resid, allowed))
    return Verdict(True)


def sample_energies(chain):
    """N + 1 Chebyshev nodes across the spectrum's hull.

    Two discriminants of one period share their leading coefficient, so
    agreement at N + 1 points means the same polynomial.
    """
    edges = chain.edges
    return chebyshev_nodes(edges[0], edges[-1], chain.period + 1)


def chebyshev_nodes(lo, hi, count):
    k = np.arange(count)
    return 0.5 * (lo + hi) + 0.5 * (hi - lo) * np.cos(np.pi * (k + 0.5) / count)


def delta_mismatch(chain, other, energies):
    """(error, tolerance) of other's Delta against chain's at energies.

    The tolerance allows what a relative shift of TAU in energy, or of
    TAU in Delta, would explain, plus both oracles' own error bounds.
    """
    d0, dd0, _, e0, _ = discriminant(chain, energies)
    d1, _, _, e1, _ = discriminant(other, energies)
    scale = np.maximum(1.0, np.abs(d0)) + np.abs(dd0) * np.maximum(1.0, np.abs(energies))
    return np.abs(d1 - d0), np.maximum(TAU * scale, SAFETY * (e0 + e1))


def _returned_chain(entry, period):
    a = np.asarray(entry["hopping"], dtype=float)
    b = np.asarray(entry["onsite"], dtype=float)
    if a.shape != (period,) or b.shape != (period,):
        raise ValueError(f"returned chain has period {b.size}, expected {period}")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b)) and np.all(a > 0)):
        raise ValueError("returned chain has non-finite or non-positive coefficients")
    return Chain(a, b)


def check_isospectral(chain, entries):
    """Each returned chain must share chain's Delta at N + 1 energies."""
    energies = sample_energies(chain)
    for i, entry in enumerate(entries):
        try:
            other = _returned_chain(entry, chain.period)
        except ValueError as exc:
            return _fail(str(exc))
        err, tol = delta_mismatch(chain, other, energies)
        if not np.all(err <= tol):
            return _fail(f"chain {i}: Delta " + _worst(err, tol))
    return Verdict(True)


def check_hopping_product(chain, payload):
    ref = float(np.prod(chain.hopping))
    err = abs(float(payload["hopping_product"]) - ref)
    if not err <= TAU * ref:
        return _fail(f"hopping product {payload['hopping_product']!r}, expected {ref!r}")
    return Verdict(True)


def check_classes(values, period, payload):
    """The classes must partition values^period, each class isospectral."""
    classes = payload["classes"]
    if payload["class_count"] != len(classes):
        return _fail("class_count disagrees with the class list")
    seen = set()
    allowed = set(float(v) for v in values)
    for c in classes:
        members = [tuple(float(x) for x in m) for m in c["members"]]
        if c["size"] != len(members):
            return _fail("class size disagrees with its member list")
        for m in members:
            if len(m) != period or not set(m) <= allowed:
                return _fail(f"pattern {m} is not in the cube")
            if m in seen:
                return _fail(f"pattern {m} is in two classes")
            seen.add(m)
    if len(seen) != len(values) ** period:
        return _fail(f"{len(seen)} patterns covered, expected {len(values) ** period}")
    ones = np.ones(period)
    energies = chebyshev_nodes(min(values) - 2.0, max(values) + 2.0, period + 1)
    signatures = []
    for c in classes:
        first = Chain(ones, np.array(c["members"][0], dtype=float))
        for m in c["members"][1:]:
            err, tol = delta_mismatch(first, Chain(ones, np.array(m, dtype=float)), energies)
            if not np.all(err <= tol):
                return _fail(f"class with {m} is not isospectral: " + _worst(err, tol))
        signatures.append(first)
    for i in range(len(signatures)):
        for j in range(i):
            err, tol = delta_mismatch(signatures[i], signatures[j], energies)
            if np.all(err <= tol):
                return _fail(f"classes {j} and {i} share one discriminant")
    return Verdict(True)


def self_check():
    """The recurrence must reproduce the closed forms on uniform chains.

    Returns a list of problems; empty when the oracle is sound.
    """
    problems = []
    for n, a, b in ((7, 0.6, 0.3), (60, 1.0, 0.0), (400, 1.3, -0.4)):
        chain = Chain(np.full(n, a), np.full(n, b), uniform=True)
        x = np.linspace(-0.999, 0.999, 101)
        energies = b + 2.0 * a * x
        d, _, _, err, _ = discriminant(chain, energies)
        exact = 2.0 * np.cos(n * np.arccos(x))
        tol = SAFETY * err + 1e-12 * n
        if not np.all(np.abs(d - exact) <= tol):
            problems.append(f"recurrence vs 2 T_N at N = {n}")
        eig = np.sort(np.concatenate([
            np.linalg.eigvalsh(bloch_matrix(chain, 1.0)),
            np.linalg.eigvalsh(bloch_matrix(chain, -1.0))]))
        if np.max(np.abs(eig - uniform_edges(chain))) > edge_tolerance(chain):
            problems.append(f"eigensolver vs closed-form edges at N = {n}")
    return problems
