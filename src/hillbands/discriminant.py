"""The Hill discriminant of a periodic chain.

Delta(lam) = tr M(lam) is a degree-N polynomial with leading coefficient
1/(a_0 ... a_{N-1}). Everything spectral hangs off it:

  * spectrum = { lam : |Delta(lam)| <= 2 }, a union of N closed bands;
  * det(lam I - J(theta)) = (prod a)(Delta(lam) - 2 cos theta), so the
    Bloch eigenvalues at phase theta solve Delta(lam) = 2 cos theta;
  * for the constant chain, Delta(lam) = 2 T_N((lam - b)/(2a)).

It is held by its values at the N + 1 Chebyshev extreme points of an
interval, which the value march gives to its own rounding; power-basis
coefficients lose accuracy exponentially with N. A Discriminant is the
target of the inverse problem and the payload of `hillbands edges
--json`. Delta of a chain at given points comes from
transfer.discriminant, accurate to the march's rounding at each.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.polynomial import Chebyshev

from . import transfer


def chebyshev_nodes(interval, degree):
    """The degree + 1 points mid + half cos(pi k / degree) of interval, hi first."""
    lo, hi = interval
    angles = np.pi * np.arange(degree + 1) / max(degree, 1)
    return 0.5 * (lo + hi) + 0.5 * (hi - lo) * np.cos(angles)


def gershgorin_interval(op):
    """[min b - 2 max a, max b + 2 max a], which holds the whole spectrum."""
    reach = 2.0 * float(op.hopping.max())
    return (float(op.onsite.min()) - reach, float(op.onsite.max()) + reach)


@dataclass(frozen=True)
class Discriminant:
    """Delta by its values at chebyshev_nodes(interval, N), exact to
    rounding inside interval = (lo, hi) and extrapolated outside, with
    log(prod a), which stays finite where prod a leaves the float range.
    """

    interval: tuple
    values: np.ndarray
    log_hopping_product: float

    def __post_init__(self):
        lo, hi = (float(x) for x in self.interval)
        if not lo < hi:
            raise ValueError(f"interval [{lo}, {hi}] is empty")
        values = np.array(self.values, dtype=float, ndmin=1)
        values.setflags(write=False)
        object.__setattr__(self, "interval", (lo, hi))
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "log_hopping_product", float(self.log_hopping_product))

    @classmethod
    def from_operator(cls, op, interval=None):
        """Delta of op at the nodes of interval (by default the Gershgorin
        interval, on a uniform chain the band itself), by one value march.
        Raises ValueError when the march overflows, as it does in the gaps
        of long random chains."""
        interval = gershgorin_interval(op) if interval is None else interval
        nodes = chebyshev_nodes(interval, op.period)
        values = transfer.discriminant(op.hopping, op.onsite, nodes)[0]
        return cls(interval, values, np.sum(np.log(op.hopping)))

    @property
    def degree(self):
        return self.values.size - 1

    @cached_property
    def chebyshev(self):
        """Delta as a numpy Chebyshev series on interval. Its coefficients
        are the DCT-I of the node values: the real FFT of their even
        extension, with the first and last halved."""
        v, n = self.values, self.degree
        c = v.copy()
        if n > 0:
            c = np.fft.rfft(np.concatenate([v, v[-2:0:-1]])).real / n
            c[[0, -1]] *= 0.5
        return Chebyshev(c, domain=self.interval)

    def to_dict(self):
        """The interval and the Chebyshev coefficients, as plain JSON types."""
        return {"interval": list(self.interval), "coefficients": self.chebyshev.coef.tolist()}
