"""Shared test utilities."""

from fractions import Fraction

import numpy as np
from numpy.polynomial import Polynomial

from hillbands import PeriodicJacobi, inverse, isospectral, transfer


def random_operator(rng, period, hop_range=(0.4, 1.8), onsite_range=(-1.5, 1.5)):
    return PeriodicJacobi(
        rng.uniform(*hop_range, period), rng.uniform(*onsite_range, period)
    )


def monodromy_polynomials(op):
    """The entries of M as numpy Polynomials in lam, marched site by site.

    An oracle apart from the package's march, well conditioned at the
    short periods the tests use it at.
    """
    a, b = op.hopping, op.onsite
    one, zero = Polynomial([1.0]), Polynomial([0.0])
    m = [[one, zero], [zero, one]]
    for k in range(op.period):
        shift, back = Polynomial([-b[k] / a[k], 1.0 / a[k]]), a[k - 1] / a[k]
        m = [[shift * m[0][j] - back * m[1][j] for j in range(2)], m[0]]
    return m


def power_coefficients(op):
    """Ascending power-basis coefficients of Delta = tr M, for comparing
    two chains' discriminants."""
    m = monodromy_polynomials(op)
    return (m[0][0] + m[1][1]).coef


def monic_coefficients(disc):
    """(prod a) Delta in the power basis, converted from disc's Chebyshev series."""
    return np.exp(disc.log_hopping_product) * disc.chebyshev.convert(kind=Polynomial).coef


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


def record_marches(monkeypatch):
    """Log every march of the recurrence from now on, as (batched, chain):
    batched when the march ran the N rotations of a chain, and chain the
    bytes of the marched chain's bonds and sites (for a batch, those of
    rotation N - 1, the chain itself)."""
    log = []
    march = transfer._march_values

    def logged(hopping, onsite, lam, **kwargs):
        a, b = np.asarray(hopping), np.asarray(onsite)
        batched = b.ndim == 2
        if batched:
            a, b = a[:, -1], b[:, -1]
        log.append((batched, a.tobytes() + b.tobytes()))
        return march(hopping, onsite, lam, **kwargs)

    monkeypatch.setattr(transfer, "_march_values", logged)
    return log


def two_march_solvers(monkeypatch):
    """Make the solvers evaluate as they did before Delta and its
    Jacobian came from one march: Delta by a value march of the chain
    alone, the Jacobian by the batch of its rotations, and no memo, so
    the residual and the Jacobian at one iterate march twice each. The
    reference for the fused evaluation."""
    jacobian = transfer.discriminant_jacobian

    def two_marches(hopping, onsite, lam):
        a, b = np.asarray(hopping, dtype=float), np.asarray(onsite, dtype=float)
        chain = (a[:, -1], b[:, -1]) if b.ndim == 2 else (a, b)
        return transfer.discriminant_batch(*chain, lam), jacobian(hopping, onsite, lam)[1]

    def unfused(evaluate):
        return (lambda x: evaluate(x)[0]), (lambda x: evaluate(x)[1])

    monkeypatch.setattr(transfer, "discriminant_jacobian", two_marches)
    monkeypatch.setattr(inverse, "fused", unfused)
    monkeypatch.setattr(isospectral, "fused", unfused)
