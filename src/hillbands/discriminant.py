"""The Hill discriminant of a periodic chain.

Delta(lam) = tr M(lam) is a degree-N polynomial with leading coefficient
1/(a_0 ... a_{N-1}). Everything spectral hangs off it:

  * spectrum = { lam : |Delta(lam)| <= 2 }, a union of N closed bands;
  * det(lam I - J(theta)) = (prod a)(Delta(lam) - 2 cos theta), so the
    Bloch eigenvalues at phase theta solve Delta(lam) = 2 cos theta;
  * for the constant chain, Delta(lam) = 2 T_N((lam - b)/(2a)).
"""

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import Chebyshev, Polynomial
from numpy.polynomial import polynomial as P

from . import transfer


@dataclass(frozen=True)
class Discriminant:
    """Polynomial data of tr M(lam).

    Attributes
    ----------
    coefficients : np.ndarray
        Ascending coefficients of Delta, length period + 1.
    hopping_product : float
        a_0 * ... * a_{N-1}; scales Delta to the monic characteristic
        polynomial of the Bloch family.
    """

    coefficients: np.ndarray
    hopping_product: float

    def __post_init__(self):
        c = np.array(self.coefficients, dtype=float, ndmin=1)
        if c.ndim != 1:
            raise ValueError("coefficient array must be one-dimensional")
        c.setflags(write=False)
        object.__setattr__(self, "coefficients", c)
        object.__setattr__(self, "hopping_product", float(self.hopping_product))

    @classmethod
    def from_operator(cls, op):
        return cls(
            transfer.discriminant_coefficients(op.hopping, op.onsite),
            op.hopping_product(),
        )

    @classmethod
    def free(cls, period, hopping=1.0, onsite=0.0):
        """Closed form for the constant chain, 2 T_N((lam - b)/(2a))."""
        domain = [onsite - 2.0 * hopping, onsite + 2.0 * hopping]
        t = Chebyshev.basis(period, domain=domain).convert(kind=Polynomial)
        return cls(2.0 * t.coef, float(hopping) ** period)

    @property
    def degree(self):
        return self.coefficients.size - 1

    def __call__(self, lam):
        return P.polyval(lam, self.coefficients)

    def derivative(self, lam):
        return P.polyval(lam, P.polyder(self.coefficients))

    def monic_coefficients(self):
        """(prod a) * Delta: monic of degree N, second-highest term -sum(b)."""
        return self.hopping_product * self.coefficients

    def coefficient_key(self, decimals=9):
        """Hashable rounded form; equal keys mean equal band structure."""
        return tuple(np.round(self.coefficients, decimals))

    def allclose(self, other, atol=1e-9):
        a, b = self.coefficients, other.coefficients
        if a.size != b.size:
            return False
        return np.allclose(a, b, rtol=0.0, atol=atol)
