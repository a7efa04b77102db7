"""Shared test utilities."""

from fractions import Fraction

import numpy as np

from hillbands import PeriodicJacobi


def random_operator(rng, period, hop_range=(0.4, 1.8), onsite_range=(-1.5, 1.5)):
    return PeriodicJacobi(
        rng.uniform(*hop_range, period), rng.uniform(*onsite_range, period)
    )



def exact_discriminant(op, lam):
    """Delta and Delta' at lam by the recurrence in exact rational arithmetic."""
    a = [Fraction(x) for x in op.hopping]
    b = [Fraction(x) for x in op.onsite]
    lam = Fraction(lam)
    cur, prev = [Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]
    dcur, dprev = [Fraction(0)] * 2, [Fraction(0)] * 2
    for k in range(op.period):
        shift, back = (lam - b[k]) / a[k], a[k - 1] / a[k]
        nxt = [shift * u - back * v for u, v in zip(cur, prev)]
        dnxt = [u / a[k] + shift * du - back * dv for u, du, dv in zip(cur, dcur, dprev)]
        prev, cur, dprev, dcur = cur, nxt, dcur, dnxt
    return cur[0] + prev[1], dcur[0] + dprev[1]
