"""Real roots of Delta -+ 2 found by `band_edges_bisection`.

The band edges are the 2N real zeros of Delta -+ 2, with a closed gap a
double zero. These tests hold the bisection route to known roots and
to the companion-matrix roots of the discriminant's power coefficients.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as P

from hillbands import PeriodicJacobi, band_edges_bisection, band_edges_eig

from helpers import power_coefficients


def test_real_roots_double_root_reported_twice():
    # Free chain, period 2: Delta = lam^2 - 2, so Delta + 2 has a double
    # zero at 0 and Delta - 2 simple zeros at -+2.
    found = band_edges_bisection(PeriodicJacobi.free(2))
    assert found.size == 4
    assert np.allclose(found, [-2.0, 0.0, 0.0, 2.0], atol=1e-12)


def test_real_roots_two_double_roots():
    # Free chain, period 3: Delta = lam^3 - 3 lam, double zeros of
    # Delta -+ 2 at -1 and 1.
    found = band_edges_bisection(PeriodicJacobi.free(3))
    assert found.size == 6
    assert np.allclose(found, [-2.0, -1.0, -1.0, 1.0, 1.0, 2.0], atol=1e-12)


def test_real_roots_close_pair_resolved():
    # a = (1, 1), b = (beta, -beta): edges -+beta, -+sqrt(beta^2 + 4); a
    # gap of width 1e-5 stays open.
    beta = 5e-6
    outer = np.sqrt(beta**2 + 4.0)
    found = band_edges_bisection(PeriodicJacobi([1.0, 1.0], [beta, -beta]))
    assert found.size == 4
    assert np.allclose(found, [-outer, -beta, beta, outer], atol=1e-9)


@given(
    st.lists(
        st.floats(-5, 5, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=8,
    ),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_real_roots_matches_companion_oracle(onsite, seed):
    rng = np.random.default_rng(seed)
    op = PeriodicJacobi(rng.uniform(0.5, 2.0, len(onsite)), onsite)
    c = np.prod(op.hopping) * power_coefficients(op)
    shift = np.zeros_like(c)
    shift[0] = 2.0 * np.prod(op.hopping)
    oracle = np.sort(np.concatenate([P.polyroots(c - shift), P.polyroots(c + shift)]).real)
    found = band_edges_bisection(op)
    assert found.size == 2 * op.period
    assert np.allclose(found, oracle, atol=1e-6)
    assert np.allclose(found, band_edges_eig(op), atol=1e-6)
