"""Periodic Jacobi (1-D tight-binding) operators.

The operator acts on sequences by

    (H u)_n = hopping[n] u_{n+1} + onsite[n] u_n + hopping[n-1] u_{n-1}

with both coefficient arrays repeating with the same period N, so
hopping[n] is the bond between sites n and n+1 and hopping[N-1] wraps
the cell. Hoppings must be positive: flipping the sign of a bond is a
gauge transformation that never changes the spectrum.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dsbevd, dsterf, zhbevd


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
        if not np.all(np.isfinite(a)) or not np.all(np.isfinite(b)):
            raise ValueError("coefficients must be finite")
        if np.any(a <= 0):
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

    def floquet_matrix(self, theta):
        """N x N Bloch Hamiltonian for boundary phase u_{n+N} = e^{i theta} u_n.

        Hermitian for real theta; its eigenvalues are the N solutions of
        discriminant(lam) = 2 cos(theta). Dense, so O(N^3) to solve:
        floquet_eigenvalues gets the same eigenvalues in O(N^2).
        """
        n = self.period
        J = np.zeros((n, n), dtype=complex)
        np.fill_diagonal(J, self.onsite)
        if n == 1:
            J[0, 0] += 2.0 * self.hopping[0] * np.cos(theta)
            return J
        idx = np.arange(n - 1)
        J[idx, idx + 1] += self.hopping[:-1]
        J[idx + 1, idx] += self.hopping[:-1]
        J[n - 1, 0] += self.hopping[-1] * np.exp(1j * theta)
        J[0, n - 1] += self.hopping[-1] * np.exp(-1j * theta)
        return J

    def floquet_eigenvalues(self, theta):
        """Sorted eigenvalues of the Bloch Hamiltonian at phase theta.

        Sites are taken in the folded order 0, N-1, 1, N-2, 2, ..., in
        which every bond, the closing one included, joins sites at most
        two apart. J(theta) is then a Hermitian band matrix of
        half-bandwidth 2, stored as its 3 x N lower band and solved by
        LAPACK's band solver in O(N^2): real ?sbevd when theta is a
        multiple of pi, complex ?hbevd otherwise. The dense matrix is
        never formed, and between phases only the closing-bond entry
        changes. An array of phases gives shape theta.shape + (N,).
        """
        theta = np.asarray(theta, dtype=float)
        a, b = self.hopping, self.onsite
        n = self.period
        if n == 1:
            return b[0] + 2.0 * a[0] * np.cos(theta)[..., None]
        order = np.empty(n, dtype=np.intp)
        order[0::2] = np.arange((n + 1) // 2)
        order[1::2] = np.arange(n - 1, (n - 1) // 2, -1)
        band = np.zeros((3, n), order="F")
        band[0] = b[order]
        # Row 2 holds the bonds two positions apart, row 1 the one bond
        # between the middle sites and, at (1, 0), the closing bond
        # joining sites N-1 and 0; at N = 2 these last two are one entry.
        band[2, :-2] = a[np.minimum(order[:-2], order[2:])]
        band[1, n - 2] = a[min(order[-2], order[-1])]
        open_corner = band[1, 0]
        complex_band = band.astype(complex, order="F")
        out = np.empty(theta.shape + (n,))
        for index, phase in np.ndenumerate(theta):
            if phase % np.pi == 0.0:
                band[1, 0] = open_corner + a[-1] * np.cos(phase)
                w, _, info = dsbevd(band, compute_v=0, lower=1, overwrite_ab=0)
            else:
                complex_band[1, 0] = open_corner + a[-1] * np.exp(1j * phase)
                w, _, info = zhbevd(complex_band, compute_v=0, lower=1, overwrite_ab=0)
            if info != 0:
                raise np.linalg.LinAlgError(f"band eigensolver failed (info {info})")
            out[index] = w
        return out

    def dirichlet_matrix(self):
        """Tridiagonal block on sites 1..N-1 (site 0 deleted).

        Its eigenvalues are the interior Dirichlet spectrum: by Cauchy
        interlacing against every floquet_matrix(theta), eigenvalue j
        is trapped in the closure of spectral gap j.
        """
        n = self.period
        if n == 1:
            return np.zeros((0, 0))
        d = np.diag(self.onsite[1:]).astype(float)
        if n > 2:
            idx = np.arange(n - 2)
            d[idx, idx + 1] = self.hopping[1:-1]
            d[idx + 1, idx] = self.hopping[1:-1]
        return d

    def dirichlet_eigenvalues(self):
        """Sorted eigenvalues of dirichlet_matrix(), by LAPACK ?sterf in O(N^2)."""
        if self.period <= 2:
            return self.onsite[1:].copy()  # at most one site, no bond
        w, info = dsterf(self.onsite[1:], self.hopping[1:-1])
        if info != 0:
            raise np.linalg.LinAlgError(f"tridiagonal eigensolver failed (info {info})")
        return w

    def truncated_matrix(self, cells):
        """Dense Hamiltonian of `cells` repetitions with open ends."""
        n = self.period * cells
        diag = np.tile(self.onsite, cells)
        off = np.tile(self.hopping, cells)[: n - 1]
        return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)

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
