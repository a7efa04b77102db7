"""Periodic Jacobi (1-D tight-binding) operators.

The operator acts on sequences by

    (H u)_n = hopping[n] u_{n+1} + onsite[n] u_n + hopping[n-1] u_{n-1}

with both coefficient arrays repeating with the same period N, so
hopping[n] is the bond between sites n and n+1 and hopping[N-1] wraps
the cell. Hoppings must be positive: flipping the sign of a bond is a
gauge transformation that never changes the spectrum.

The eigensolvers are LAPACK ?sbevd, ?sterf and ?hbevd from SciPy's
compiled wrapper module scipy.linalg._flapack, loaded by _flapack()
without running scipy.linalg's package import. That import takes about
0.28 s after NumPy's (median of 7, python -X importtime, SciPy 1.17.1
on a 2-vCPU Xeon), since it clones NumPy's namespace for the array API
and so imports numpy.f2py, numpy.testing and numpy.ma; without it,
importing hillbands.cli fell from 0.48 to 0.14 s. The routines are the
very objects scipy.linalg.lapack exports, so every answer is the same
to the bit. The blind inverse takes MINPACK's lmder from
scipy.optimize._minpack the same way, by _minpack(), on its first
solve, so no request imports scipy.optimize or scipy.linalg.

Every band-matrix solve of a Bloch Hamiltonian is bloch_spectra's. The
memo of band edges (_real_spectrum) and its key belong to this module
alone; a caller that needs edges without filling it calls bloch_spectra,
as inverse's edge polish does for an iterate that is its own cell of
N >= 2 sites. Its other iterates, such as an exactly repeated cell, go
through floquet_eigenvalues and so fill the memo.
"""

import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial

import numpy as np

MEMO_ENTRIES = 16  # chains whose real Bloch spectra, theta = 0 and pi, are kept per process
MAX_REACH = np.finfo(float).max / 4  # PeriodicJacobi: largest max|b| + 2 max a accepted


def _extension(name):
    """SciPy's compiled module of this dotted name, such as
    scipy.linalg._flapack, loaded without importing its package.

    It is found in the package's directory (linalg there) of the scipy
    package, whose spec is read without importing scipy, and registered
    in sys.modules, so that a later import of the package reuses it;
    one already there is taken as it is.
    """
    if name in sys.modules:
        return sys.modules[name]
    scipy = importlib.util.find_spec("scipy")
    package = name.split(".")[1]
    where = [os.path.join(d, package) for d in (scipy.submodule_search_locations if scipy else ())]
    spec = importlib.machinery.PathFinder.find_spec(name, where)
    if spec is None:
        raise ImportError(f"no {name} in {where or 'any scipy package'}", name=name)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


_flapack = partial(_extension, "scipy.linalg._flapack")
_minpack = partial(_extension, "scipy.optimize._minpack")

_lapack = _flapack()
dsbevd, dsterf, zhbevd = _lapack.dsbevd, _lapack.dsterf, _lapack.zhbevd


@dataclass
class PeriodicJacobi:
    """One period of a tight-binding chain.

    Parameters
    ----------
    hopping : array_like
        Positive bond strengths a_0 .. a_{N-1}; a_{N-1} closes the cell.
    onsite : array_like
        Site energies b_0 .. b_{N-1}.

    Both must be finite, and max|b| + 2 max a, the Gershgorin bound on
    |lam| over the spectrum, at most a quarter of the largest double
    (4.49e307): then every energy formed from the spectrum, an edge
    midpoint, a band or gap width or the DOS grid, which runs 5% past
    the spectrum, is a finite double. A chain past that is refused with
    a ValueError before any solve.

    gershgorin, the interval (min b - 2 max a, max b + 2 max a), holds
    the whole spectrum; it is computed here, once per chain.
    """

    hopping: np.ndarray
    onsite: np.ndarray
    period: int = field(init=False)
    gershgorin: tuple = field(init=False, repr=False)

    def __post_init__(self):
        a = np.atleast_1d(np.asarray(self.hopping, dtype=float)).copy()
        b = np.atleast_1d(np.asarray(self.onsite, dtype=float)).copy()
        if a.ndim != 1 or b.ndim != 1:
            raise ValueError("hopping and onsite must be one-dimensional")
        if a.size != b.size:
            raise ValueError(
                f"period mismatch: {a.size} hoppings vs {b.size} onsite energies"
            )
        if a.size == 0:
            raise ValueError("period must be at least one")
        if not (np.isfinite(a).all() and np.isfinite(b).all()):
            raise ValueError("coefficients must be finite")
        if (a <= 0).any():
            raise ValueError("hoppings must be positive")
        spread = 2.0 * float(a.max())
        lo, hi = float(b.min()) - spread, float(b.max()) + spread
        reach = max(-lo, hi)  # max|b| + 2 max a, to the bit
        if reach > MAX_REACH:
            raise ValueError(
                f"max|onsite| + 2 max hopping = {reach:.3g} exceeds a quarter of the "
                f"float range, {MAX_REACH:.3g}, so the band energies would overflow"
            )
        a.setflags(write=False)
        b.setflags(write=False)
        self.hopping = a
        self.onsite = b
        self.period = a.size
        self.gershgorin = (lo, hi)

    @classmethod
    def odd(cls, q):
        """A chain of the paper's odd class from its free values q_1..q_k.

        a = 1, N = 2k and q_{1-n} = -q_n: the sites are odd about the bond
        between sites 0 and 1, and site n holds q_n, so they read
        -q_1, q_1..q_k, -q_k..-q_2. Of the readings of "odd" this is the
        one the paper's claims fit: Delta is even (to 1e-14 on random q),
        so the edges are symmetric about 0, and the map from q to the slit
        heights has rank k, which makes the isospectral set finite.
        """
        q = np.asarray(q, dtype=float)
        if q.ndim != 1 or q.size == 0:
            raise ValueError("q must be a nonempty one-dimensional array")
        return cls(np.ones(2 * q.size), np.concatenate([[-q[0]], q, -q[:0:-1]]))

    @cached_property
    def cell(self):
        """The chain of the first p sites, for the least p dividing N with
        hopping[n + p] == hopping[n] and onsite[n + p] == onsite[n] bit
        for bit; the chain itself when only p = N does.

        Such a chain is its p-site cell repeated m = N / p times: the
        same operator on the integers, so its DOS and IDS per site are
        the cell's, and by Bloch folding J(theta) has the eigenvalues of
        the cell's J((theta + 2 pi k) / m), k = 0..m-1. At p = 1 this is
        the uniform chain. The coefficients are compared as bytes, so a
        change of one ulp anywhere leaves the chain its own cell.
        """
        a, b, n = self.hopping.tobytes(), self.onsite.tobytes(), self.period
        for p in range(1, n // 2 + 1):
            shift = 8 * p
            if n % p == 0 and a[shift:] == a[:-shift] and b[shift:] == b[:-shift]:
                return PeriodicJacobi(self.hopping[:p], self.onsite[:p])
        return self

    def floquet_eigenvalues(self, theta):
        """Sorted eigenvalues of the Bloch Hamiltonian at phase theta.

        A chain of N = 1 site has the one eigenvalue b + 2a cos theta. A
        chain whose cell (see cell) has p < N sites takes the cell's
        eigenvalues at the m = N / p phases pi r / m, r = (theta / pi
        mod 2) + 2k, k = 0..m-1, folded onto [0, pi] by
        r -> min(r, 2m - r), the fold's end r = m being pi exactly. Both
        edges of each gap that the folding closes, r and 2m - r, then
        come from one solve of the cell and are equal to the bit.

        For any other chain, sites are taken in the folded order 0, N-1,
        1, N-2, 2, ..., in which every bond, the closing one included,
        joins sites at most two apart. J(theta) is then a Hermitian band
        matrix of half-bandwidth 2, stored as its 3 x N lower band and
        solved by LAPACK's band solver in O(N^2) (bloch_spectra): real
        ?sbevd when theta is a multiple of pi, complex ?hbevd otherwise.
        The dense matrix is never formed, and between phases only the
        closing-bond entry changes. Each distinct phase is solved once,
        however often it occurs. An array of phases gives shape
        theta.shape + (N,).

        The real spectra, the band edges, come from a per-process memo
        (_real_spectrum), keyed by the cell: a cell's two are computed
        together, once. A phase that is not finite is refused with a
        ValueError before any solve.
        """
        theta = np.asarray(theta, dtype=float)
        if not np.isfinite(theta).all():
            raise ValueError("Bloch phases must be finite")
        a, b = self.hopping, self.onsite
        n, cell = self.period, self.cell
        phases = theta.ravel()
        if n == 1:
            return (b[0] + 2.0 * a[0] * np.cos(theta))[..., None]
        if cell is not self:
            m = n // cell.period
            r = np.mod(phases / np.pi, 2.0)[:, None] + 2.0 * np.arange(m)
            r = np.minimum(r, 2 * m - r)
            folded = cell.floquet_eigenvalues(np.where(r < m, np.pi * r / m, np.pi))
            return np.sort(folded.reshape(theta.shape + (n,)), axis=-1)
        out = np.empty((phases.size, n))
        key = a.tobytes() + b.tobytes()
        rest = {}  # the rows of each distinct phase off the multiples of pi
        for i, phase in enumerate(phases.tolist()):
            if phase % np.pi == 0.0:
                out[i] = _real_spectrum(key)[int(np.cos(phase) < 0.0)]
            else:
                rest.setdefault(phase, []).append(i)
        if rest:
            for w, rows in zip(bloch_spectra(a, b, list(rest)), rest.values()):
                for i in rows:  # an int index; a list index adds a third to a small solve
                    out[i] = w
        return out.reshape(theta.shape + (n,))

    def dirichlet_eigenvalues(self):
        """Sorted eigenvalues of the chain with site 0 deleted: the
        tridiagonal block on sites 1..N-1, bonds a_1..a_{N-2}, by LAPACK
        ?sterf in O(N^2). By Cauchy interlacing against every Bloch
        Hamiltonian, eigenvalue j is trapped in the closure of gap j."""
        if self.period <= 2:
            return self.onsite[1:].copy()  # at most one site, no bond
        w, info = dsterf(self.onsite[1:], self.hopping[1:-1])
        if info != 0:
            raise np.linalg.LinAlgError(f"tridiagonal eigensolver failed (info {info})")
        return w

    def shifted(self, k):
        """Start the unit cell k sites later; the spectrum is unchanged."""
        k = k % self.period
        return PeriodicJacobi(np.roll(self.hopping, -k), np.roll(self.onsite, -k))

    def reflected(self):
        """Spatial reflection about site 0; the spectrum is unchanged."""
        return PeriodicJacobi(self.hopping[::-1], np.roll(self.onsite[::-1], 1))

    def __eq__(self, other):
        if not isinstance(other, PeriodicJacobi):
            return NotImplemented
        return (
            self.period == other.period
            and np.array_equal(self.hopping, other.hopping)
            and np.array_equal(self.onsite, other.onsite)
        )


def _folded_band(a, b):
    """The lower band of J(theta), N >= 2, in the folded site order of
    PeriodicJacobi.floquet_eigenvalues: 3 x N, or 2 x 2 at N = 2, where
    LAPACK allows at most N - 1 subdiagonals and refuses to rescale a
    band with more. Entry (1, 0) lacks the closing bond's
    a_{N-1} e^{i theta}, which the caller adds for its theta."""
    n, half = a.size, (a.size - 1) // 2
    band = np.zeros((min(3, n), n), order="F")
    # Even positions hold sites 0, 1, 2, ..., odd ones N-1, N-2, ....
    band[0, 0::2] = b[: n - n // 2]
    band[0, 1::2] = b[:half:-1]
    # Row 2 holds the bonds two positions apart: a_m between sites m
    # and m+1, a_{N-2-m} between N-1-m and N-2-m. Row 1 holds the one
    # bond between the middle sites, a_half, and at (1, 0) the closing
    # bond joining sites N-1 and 0; at N = 2 these last two are one entry,
    # and there is no row 2.
    band[2:, 0:-2:2] = a[:half]
    band[2:, 1:-2:2] = a[n - 2:half:-1]
    band[1, n - 2] = a[half]
    return band


def _solve(solver, band):
    """Eigenvalues of a lower band matrix by LAPACK ?sbevd or ?hbevd."""
    w, _, info = solver(band, compute_v=0, lower=1, overwrite_ab=0)
    if info != 0:
        raise np.linalg.LinAlgError(f"band eigensolver failed (info {info})")
    return w


def bloch_spectra(hopping, onsite, phases=(0.0, np.pi)):
    """Sorted eigenvalues of J(theta), one row per phase (by default the
    band edges, theta = 0 and pi), solved on every call: no memo. The
    chain has N >= 2 sites and is its own cell (see PeriodicJacobi.cell).
    The band is folded once and each phase sets only its closing-bond
    entry (1, 0): a_{N-1} cos theta for real ?sbevd if the first phase is
    a multiple of pi, a_{N-1} e^{i theta} for complex ?hbevd if not, so
    the phases are all multiples of pi or none is (an O(1) choice).
    """
    band = _folded_band(hopping, onsite)
    open_corner, real = band[1, 0], phases[0] % np.pi == 0.0
    band, solver = (band, dsbevd) if real else (band.astype(complex, order="F"), zhbevd)
    w = np.empty((len(phases), hopping.size))
    for row, phase in enumerate(phases):
        band[1, 0] = open_corner + hopping[-1] * (np.cos(phase) if real else np.exp(1j * phase))
        w[row] = _solve(solver, band)
    return w


@lru_cache(maxsize=MEMO_ENTRIES)
def _real_spectrum(coefficients):
    """Sorted spectra of J(0) and J(pi), rows 0 and 1 of a (2, N) array:
    bloch_spectra's, kept per process.

    coefficients is the bytes of the chain's float64 hoppings followed
    by its onsite energies, so equal chains share an entry and a change
    of one ulp misses. An entry holds about 4N doubles, key included.
    The array is read-only, since the memo hands it to every caller.
    The chain has N >= 2 sites and is its own cell. Only
    floquet_eigenvalues builds the key.
    """
    w = bloch_spectra(*np.frombuffer(coefficients).reshape(2, -1))
    w.setflags(write=False)
    return w
