"""Periodic Jacobi (1-D tight-binding) operators.

The operator acts on sequences by

    (H u)_n = hopping[n] u_{n+1} + onsite[n] u_n + hopping[n-1] u_{n-1}

with both coefficient arrays repeating with the same period N, so
hopping[n] is the bond between sites n and n+1 and hopping[N-1] wraps
the cell. Hoppings must be positive: flipping the sign of a bond is a
gauge transformation that never changes the spectrum.
"""

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np
from scipy.linalg.lapack import dsbevd, dsterf, zhbevd

MEMO_ENTRIES = 32  # real Bloch spectra kept per process: 16 chains at theta = 0 and pi


@dataclass
class PeriodicJacobi:
    """One period of a tight-binding chain.

    Parameters
    ----------
    hopping : array_like
        Positive bond strengths a_0 .. a_{N-1}; a_{N-1} closes the cell.
    onsite : array_like
        Site energies b_0 .. b_{N-1}.
    """

    hopping: np.ndarray
    onsite: np.ndarray
    period: int = field(init=False)

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
        a.setflags(write=False)
        b.setflags(write=False)
        self.hopping = a
        self.onsite = b
        self.period = a.size

    @classmethod
    def free(cls, period, hopping=1.0, onsite=0.0):
        """Constant-coefficient chain: all bonds equal, all sites equal."""
        return cls(np.full(period, hopping), np.full(period, onsite))

    def hopping_product(self):
        """a_0 * ... * a_{N-1}; ValueError when it leaves the float range."""
        with np.errstate(over="raise", under="raise"):
            try:
                return float(np.prod(self.hopping))
            except FloatingPointError:
                raise ValueError(f"hopping product of period {self.period} "
                                 "overflows the float range") from None

    @cached_property
    def cell(self):
        """The one-site chain (hopping[0], onsite[0]) when every bond and
        every site of the chain are equal, else the chain itself.

        Such a chain is one site repeated N times: the same operator on
        the integers as its one-site cell, so its DOS and IDS per site
        are the cell's, and by Bloch folding J(theta) has the eigenvalues
        b + 2a cos((theta + 2 pi k) / N), k = 0..N-1. The test is
        equality of the coefficients bit for bit; a cell of two or more
        sites repeated is not detected and stays its own cell.
        """
        key = self.hopping.tobytes() + self.onsite.tobytes()
        if self.period > 1 and _repeats_one_site(key, self.period):
            return PeriodicJacobi(self.hopping[:1], self.onsite[:1])
        return self

    def floquet_eigenvalues(self, theta):
        """Sorted eigenvalues of the Bloch Hamiltonian at phase theta.

        A chain of one site repeated N times (see cell) has them in
        closed form, b + 2a cos((theta + 2 pi k) / N), k = 0..N-1,
        evaluated for all phases by one broadcast. For any other chain,
        sites are taken in the folded order 0, N-1, 1, N-2, 2, ..., in
        which every bond, the closing one included, joins sites at most
        two apart. J(theta) is then a Hermitian band matrix of
        half-bandwidth 2, stored as its 3 x N lower band and solved by
        LAPACK's band solver in O(N^2): real ?sbevd when theta is a
        multiple of pi, complex ?hbevd otherwise. The dense matrix is
        never formed, and between phases only the closing-bond entry
        changes. An array of phases gives shape theta.shape + (N,).

        The real spectra, the band edges, come from a per-process memo
        (_real_spectrum) on either route: a chain's is computed once per
        sign of cos theta, and the values are the same to the bit either
        way.
        """
        theta = np.asarray(theta, dtype=float)
        a, b = self.hopping, self.onsite
        n = self.period
        phases = theta.ravel()
        out = np.empty((phases.size, n))
        key = a.tobytes() + b.tobytes()
        rest = []  # phases off the multiples of pi
        for i, phase in enumerate(phases.tolist()):
            if phase % np.pi == 0.0:
                out[i] = _real_spectrum(key, np.cos(phase))
            else:
                rest.append(i)
        if rest and _repeats_one_site(key, n):
            angle = (phases[rest, None] + 2.0 * np.pi * np.arange(n)) / n
            out[rest] = np.sort(b[0] + 2.0 * a[0] * np.cos(angle), axis=-1)
        elif rest:
            band = _folded_band(a, b)
            open_corner = band[1, 0]
            complex_band = band.astype(complex, order="F")
            for i in rest:
                complex_band[1, 0] = open_corner + a[-1] * np.exp(1j * phases[i])
                out[i] = _solve(zhbevd, complex_band)
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
    """The 3 x N lower band of J(theta), N >= 2, in the folded site order
    of PeriodicJacobi.floquet_eigenvalues. Entry (1, 0) lacks the closing
    bond's a_{N-1} e^{i theta}, which the caller adds for its theta."""
    n, half = a.size, (a.size - 1) // 2
    band = np.zeros((3, n), order="F")
    # Even positions hold sites 0, 1, 2, ..., odd ones N-1, N-2, ....
    band[0, 0::2] = b[: n - n // 2]
    band[0, 1::2] = b[:half:-1]
    # Row 2 holds the bonds two positions apart: a_m between sites m
    # and m+1, a_{N-2-m} between N-1-m and N-2-m. Row 1 holds the one
    # bond between the middle sites, a_half, and at (1, 0) the closing
    # bond joining sites N-1 and 0; at N = 2 these last two are one entry.
    band[2, 0:-2:2] = a[:half]
    band[2, 1:-2:2] = a[n - 2:half:-1]
    band[1, n - 2] = a[half]
    return band


def _solve(solver, band):
    """Eigenvalues of a lower band matrix by LAPACK ?sbevd or ?hbevd."""
    w, _, info = solver(band, compute_v=0, lower=1, overwrite_ab=0)
    if info != 0:
        raise np.linalg.LinAlgError(f"band eigensolver failed (info {info})")
    return w


def _repeats_one_site(coefficients, n):
    """Whether the coefficients of a period-n chain, as the bytes of
    _real_spectrum's key, repeat one site: all bonds equal and all sites
    equal, bit for bit."""
    bond, site = coefficients[:8], coefficients[8 * n:8 * n + 8]
    return coefficients == bond * n + site * n


@lru_cache(maxsize=MEMO_ENTRIES)
def _real_spectrum(coefficients, cos_theta):
    """Sorted spectrum of J(theta) at cos theta = +-1.

    coefficients is the bytes of the chain's float64 hoppings followed
    by its onsite energies, so equal chains share an entry and a change
    of one ulp misses. An entry holds about 3N doubles, key included.
    The array is read-only, since the memo hands it to every caller.
    A chain of one site repeated takes the closed form, any other one
    real band-matrix solve.
    """
    a, b = np.frombuffer(coefficients).reshape(2, -1)
    n = a.size
    if _repeats_one_site(coefficients, n):
        # theta + 2 pi k = pi r, r = 2k or 2k + 1, folded onto [0, pi] by
        # r -> min(r, 2N - r): both edges of each closed gap, r and
        # 2N - r, come from one cos evaluation and are equal to the bit.
        r = np.arange(0 if cos_theta > 0.0 else 1, 2 * n, 2)
        w = np.cos(np.pi * np.minimum(r, 2 * n - r) / n)
        w.sort()  # b + 2a cos is increasing in cos, as a > 0
        w *= 2.0 * a[0]
        w += b[0]
    else:
        band = _folded_band(a, b)
        band[1, 0] += a[-1] * cos_theta
        w = _solve(dsbevd, band)
    w.setflags(write=False)
    return w
