import json

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as P
from scipy.integrate import quad
from scipy.linalg import eigh_tridiagonal, lapack

from hillbands import (
    BandStructure,
    Discriminant,
    PeriodicJacobi,
    band_edges_bisection,
    band_edges_eig,
    bands,
    cli,
    dos_curve,
    operators,
    transfer,
)

from helpers import (
    corpus_chain,
    exact_discriminant,
    free_chain,
    harper_chain,
    make_chain,
    odd_values,
    power_coefficients,
    random_operator,
    record_marches,
    run_cli,
    strict_json,
    tiled,
    truncated_matrix,
    uniform_chain,
)


@pytest.fixture(scope="module")
def generic_op():
    return PeriodicJacobi([1.0, 0.8, 1.2], [0.0, 0.5, -0.3])


@pytest.fixture(scope="module")
def generic_bs(generic_op):
    return BandStructure(generic_op)


def test_hand_computed_period_two_edges():
    # a = (1,1), b = (beta, -beta): the monic quadratic is
    # lambda^2 - beta^2 - 2, so the edges are +-beta and +-sqrt(beta^2 + 4).
    beta = 0.8
    op = PeriodicJacobi([1.0, 1.0], [beta, -beta])
    bs = BandStructure(op)
    outer = np.sqrt(beta**2 + 4.0)
    expected = np.array([-outer, -beta, beta, outer])
    assert np.allclose(bs.edges, expected, atol=1e-12)
    d = bs.to_dict()
    assert len(d["bands"]) == 2
    assert len(d["gaps"]) == 1
    assert d["gap_widths"][0] == pytest.approx(2 * beta)


def test_edge_count_and_ordering(generic_bs):
    edges = generic_bs.edges
    assert edges.size == 6
    assert np.all(np.diff(edges) >= 0)
    assert np.all(edges[0::2] <= edges[1::2])


def test_dual_route_edges_agree():
    rng = np.random.default_rng(31)
    for period in (1, *range(2, 25), 32, 64):
        op = random_operator(rng, period)
        eig_edges = band_edges_eig(op)
        bis_edges = band_edges_bisection(op)
        assert np.allclose(eig_edges, bis_edges, atol=1e-10)
    for period in range(1, 25):
        op = uniform_chain(rng, period)
        assert np.allclose(band_edges_eig(op), band_edges_bisection(op), atol=1e-10)


def test_real_roots_double_root_reported_twice():
    # Free chain, period 2: Delta = lam^2 - 2, so Delta + 2 has a double
    # zero at 0 and Delta - 2 simple zeros at -+2.
    found = band_edges_bisection(free_chain(2))
    assert found.size == 4
    assert np.allclose(found, [-2.0, 0.0, 0.0, 2.0], atol=1e-12)


def test_real_roots_two_double_roots():
    # Free chain, period 3: Delta = lam^3 - 3 lam, double zeros of
    # Delta -+ 2 at -1 and 1.
    found = band_edges_bisection(free_chain(3))
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


def _scale(op):
    return max(1.0, np.max(np.abs(op.onsite)) + 2.0 * np.max(op.hopping))


@pytest.mark.parametrize("period, f_prev", [(89, 55), (144, 89)])
def test_harper_bisection_matches_eig(period, f_prev):
    # Fibonacci approximants of the almost-Mathieu chain have open gaps
    # as narrow as 1e-8, which the closed-gap test must leave open.
    for phi in (0.3, 2.1):
        op = harper_chain(period, f_prev, phi)
        err = np.max(np.abs(band_edges_bisection(op) - band_edges_eig(op)))
        assert err <= 1e-9 * _scale(op)


def assert_free_invariants(op, edges):
    """The 2N edges are the eigenvalues of H(0) and H(pi), so their sum is
    the traces' 2 sum b and, for N >= 2, the sum of their squares is the
    traces of the squares, 2 (sum b^2 + 2 sum a^2); each within
    100 N eps max(1, max|E|)^2."""
    a, b = op.hopping, op.onsite
    tol = 100 * op.period * np.finfo(float).eps * max(1.0, np.max(np.abs(edges))) ** 2
    assert abs(np.sum(edges) - 2.0 * np.sum(b)) <= tol
    assert abs(np.sum(edges**2) - 2.0 * (np.sum(b**2) + 2.0 * np.sum(a**2))) <= tol


@pytest.mark.parametrize("route", [band_edges_eig, band_edges_bisection])
def test_edges_keep_the_free_invariants_on_random_chains(route):
    for n in (2, 3, 4, 8, 16, 24, 64, 128, 256):
        for s in range(5):
            op = corpus_chain(n, s)
            assert_free_invariants(op, route(op))


@pytest.mark.parametrize("period, f_prev", [(89, 55), (144, 89), (233, 144)])
def test_eig_edges_keep_the_free_invariants_on_harper_chains(period, f_prev):
    op = harper_chain(period, f_prev, 0.3)
    assert_free_invariants(op, band_edges_eig(op))


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "FOUND in CHANGES.md: band_edges_bisection closes open Harper gaps narrower than about "
    "2e-9; its worse invariant misses by 6.7 / 5.4 / 1.1 tolerances at N = 89 / 144 / 233"))
def test_bisection_edges_keep_the_free_invariants_on_harper_chains():
    for period, f_prev in ((89, 55), (144, 89), (233, 144)):
        op = harper_chain(period, f_prev, 0.3)
        assert_free_invariants(op, band_edges_bisection(op))


@pytest.mark.parametrize("k", [1, 2, 4, 8])
def test_odd_constructor_is_the_odd_class(k):
    # The class by its definition, site by site: a = 1, N = 2k, site n
    # holds q_n for n = 1..k and site 1 - n (mod 2k) holds -q_n. Negation
    # is exact, so this pins every bit.
    q = odd_values(k, 1e-4)
    op = PeriodicJacobi.odd(q)
    assert op.period == 2 * k
    assert np.array_equal(op.hopping, np.ones(2 * k))
    for n in range(1, k + 1):
        assert op.onsite[n] == q[n - 1]
        assert op.onsite[(1 - n) % (2 * k)] == -q[n - 1]
    for bad in ([], [[0.1, 0.2]]):
        with pytest.raises(ValueError):
            PeriodicJacobi.odd(bad)


@pytest.mark.parametrize("k", [2, 4, 8])
@pytest.mark.parametrize("s", [1e-2, 1e-4, 1e-6])
def test_odd_chains_are_symmetric_and_routes_agree(k, s):
    # Delta of an odd chain is even, so its edges are symmetric about 0.
    # Its gaps are open and of order s wide. At s = 1e-2 all are certified
    # open between their coarse edge brackets; at 1e-4 and 1e-6 almost
    # none is, so the bisection route searches their extrema in the one
    # Newton search with the outer edges, finds them open and multisects
    # their edges, which are near-double zeros (see _conditioning).
    op = PeriodicJacobi.odd(odd_values(k, s))
    lam = np.linspace(*op.gershgorin, 101)
    delta, = transfer.discriminant(op.hopping, op.onsite, lam)
    mirror, = transfer.discriminant(op.hopping, op.onsite, -lam)
    assert np.all(np.abs(mirror - delta) <= 1e-13 * np.maximum(1.0, np.abs(delta)))
    eig, bis = band_edges_eig(op), band_edges_bisection(op)
    assert np.all(np.abs(eig + eig[::-1]) <= 1e-13 * _scale(op))
    assert np.array_equal(eig[2::2] > eig[1:-1:2], bis[2::2] > bis[1:-1:2])
    assert np.all(np.abs(bis - eig) <= 1e-12 * _scale(op) + _conditioning(op, eig))


def _uniform_chains():
    return [free_chain(n, hopping=0.9, onsite=-0.2) for n in (60, 100, 400)] + [
        free_chain(5, hopping=0.8)]


def _repeated_cells():
    rng = np.random.default_rng(2024)
    cells = [random_operator(rng, 3) for _ in range(20)]
    return [tiled(c, r) for c in cells for r in (2, 3, 5)]


@pytest.mark.parametrize("method", ["eig", "bisection"])
def test_one_closed_gap_rule(method):
    # A gap is open iff its edges differ. Membership, the DOS, the gap
    # widths and the text report all read that one fact, down to the Harper
    # gaps of 2e-13 that the eig route leaves open.
    rng = np.random.default_rng(808)
    chains = [harper_chain(n, f_prev, 0.3) for n, f_prev in ((89, 55), (144, 89), (233, 144), (377, 233))]
    chains += [random_operator(rng, 64) for _ in range(10)]
    for op in chains + _uniform_chains() + _repeated_cells():
        bs = BandStructure(op, method)
        lower, upper = bs.edges[1:-1:2], bs.edges[2::2]
        is_open = upper > lower
        mids = 0.5 * (lower + upper)
        states = [line.split()[-1] for line in cli._gap_table(bs.to_dict()).splitlines()[-(op.period - 1):]]
        assert np.array_equal(np.array(bs.to_dict()["gap_widths"]) > 0.0, is_open)
        assert np.array_equal(~bs.contains(mids), is_open)
        assert np.array_equal(bs.densities(mids)[0] == 0.0, is_open)
        assert np.array_equal(np.array(states) == "open", is_open)


def test_routes_close_the_same_gaps():
    # Uniform chains close every gap; a 3-site cell repeated r times
    # keeps only the cell's two. Both routes close exactly those, to
    # width 0.0, and the eig route moves no edge by more than its own
    # rounding, N eps (max|b| + 2 max a).
    for op, cell in [(op, 1) for op in _uniform_chains()] + [(op, 3) for op in _repeated_cells()]:
        n = op.period
        for method in ("eig", "bisection"):
            widths = np.array(BandStructure(op, method).to_dict()["gap_widths"])
            assert np.count_nonzero(widths) == cell - 1
            assert np.all(widths[np.arange(1, n) % (n // cell) != 0] == 0.0)
        raw = np.sort(op.floquet_eigenvalues([0.0, np.pi]), axis=None)
        slack = n * np.finfo(float).eps * (np.max(np.abs(op.onsite)) + 2.0 * np.max(op.hopping))
        assert np.max(np.abs(band_edges_eig(op) - raw)) <= slack
        # The cell's solve gives both edges of each closed gap, equal.
        closed = np.arange(1, n) % (n // cell) != 0
        assert np.array_equal(raw[1:-1:2][closed], raw[2::2][closed])


def _halving(g, lo, hi, passes):
    """The one-bit bisection that multisection replaced, four halvings in
    place of each 4-bit pass, as a search of the same form: the reference."""
    lo, hi = lo.copy(), hi.copy()
    for _ in range(4 * passes):
        i = np.flatnonzero(~bands._finished(lo, hi))
        if not i.size:
            break
        mid = 0.5 * (lo[i] + hi[i])
        right = g(mid, i, 0)[0] >= 0.0
        lo[i] = np.where(right, lo[i], mid)
        hi[i] = np.where(right, mid, hi[i])
    return lo, hi


def test_multisection_matches_halving_reference(monkeypatch):
    rng = np.random.default_rng(41)
    chains = [random_operator(rng, n) for n in (1, 2, 5, 13, 24)]
    chains += [uniform_chain(rng, n) for n in (3, 8, 17, 24)]
    harper = [harper_chain(89, 55, phi) for phi in (0.3, 2.1)]
    multisected = [band_edges_bisection(op) for op in chains + harper]
    monkeypatch.setattr(bands, "_multisect", _halving)
    for op, edges in zip(chains, multisected):
        assert np.max(np.abs(edges - band_edges_bisection(op))) <= 1e-12 * _scale(op)
    for op, edges in zip(harper, multisected[len(chains) :]):
        reference = band_edges_bisection(op)
        assert np.all(np.abs(edges - reference) <= 1e-12 * _scale(op) + _conditioning(op, reference))


def _conditioning(op, reference):
    """Where Delta -+ 2 has a near-double zero (the narrow open gaps of
    the Harper chain), the predicate is decided by rounding within
    rounding(Delta) / |Delta'| of the edge, and each method may stop
    anywhere in that interval: that allowance at the reference edges,
    capped."""
    _, slope = transfer.discriminant(op.hopping, op.onsite, reference, 1)
    _, rounding = transfer.discriminant_rounding(op, reference)
    with np.errstate(divide="ignore"):
        return np.minimum(2.0 * rounding / np.abs(slope), 1e-9 * _scale(op))


def test_bisection_marches_fewer_than_32_times(monkeypatch):
    # 4 bits per pass: 3 coarse passes, 1 march for the rounding bound
    # that certifies every gap open and 4 Newton rounds on the edges, 8 in
    # all (13 by multisection to TOL alone).
    calls = []
    run = transfer.March.run

    def counted(*args, **kwargs):
        calls.append(1)
        return run(*args, **kwargs)

    monkeypatch.setattr(transfer.March, "run", counted)
    band_edges_bisection(random_operator(np.random.default_rng(24), 24))
    assert len(calls) < 32


def _derivative_marches(monkeypatch):
    """Record, from now on, how many lam-derivatives each march carries."""
    derivs = []
    run = transfer.March.run

    def counted(march, *args, **kwargs):
        derivs.append(march.derivs)
        return run(march, *args, **kwargs)

    monkeypatch.setattr(transfer.March, "run", counted)
    return derivs


def test_bisection_march_budget(monkeypatch):
    # Multisection to TOL alone takes 13 marches on the random chain and
    # 25 on the Harper ones. The random chain takes 8. A uniform chain is
    # its one-site cell repeated: 3 coarse passes and 2 rounds of the one
    # Newton search on its N + 1 levels, 5 in all, whatever N. The Harper
    # chains take 3 coarse passes, 1 march for the gap check, 7 rounds of
    # the Newton search on the gap extrema and the certified edges, 1 for
    # the rounding bound at the extrema and 7 passes of multisection on
    # the edges of their narrow open gaps, 19 in all.
    derivs = _derivative_marches(monkeypatch)

    def marches(op):
        del derivs[:]
        band_edges_bisection(op)
        return len(derivs)

    assert marches(random_operator(np.random.default_rng(24), 24)) <= 9
    for n in (24, 100, 400):
        assert marches(free_chain(n, hopping=0.9, onsite=-0.2)) <= 6
    for phi in (0.3, 2.1):
        assert marches(harper_chain(144, 89, phi)) <= 23


def test_bisection_forms_the_cells_bond_factors_once(monkeypatch):
    # A solve forms its cell's bond factors once and hands them to every
    # march: the coarse passes, the Newton rounds and any narrow
    # multisection. The rounding bound's batch of the chain and its
    # reversal forms its own, once per call. Sharing the factors changes
    # no march: the marches of each solve are counted per chain below,
    # random chains N = 1..24, a uniform N = 24 chain, a 3-site cell
    # repeated 4 times and the Harper chains N = 89 and 144.
    formed, marches, roundings = [], [], []
    build, run, rounding = transfer.March.__init__, transfer.March.run, transfer.discriminant_rounding

    def built_counted(march, hopping, *args):
        formed.append(np.ndim(hopping))
        build(march, hopping, *args)

    def march_counted(*args, **kwargs):
        marches.append(1)
        return run(*args, **kwargs)

    def rounding_counted(*args):
        roundings.append(1)
        return rounding(*args)

    rng = np.random.default_rng(34)
    chains = [random_operator(rng, n) for n in range(1, 25)]
    cell = random_operator(rng, 3)
    chains += [free_chain(24, 0.9, -0.2), tiled(cell, 4),
               harper_chain(89, 55, 0.3), harper_chain(144, 89, 0.3)]
    expected = [5, 7, 7, 7, 7, 8, 8, 8, 7, 8, 7, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 5, 8, 19, 19]
    monkeypatch.setattr(transfer.March, "__init__", built_counted)
    monkeypatch.setattr(transfer.March, "run", march_counted)
    monkeypatch.setattr(transfer, "discriminant_rounding", rounding_counted)
    for op, count in zip(chains, expected):
        del formed[:], marches[:], roundings[:]
        band_edges_bisection(op)
        assert formed.count(1) == 1  # the cell's
        assert len(formed) == 1 + len(roundings)  # and one batch per rounding bound
        assert len(marches) == count
    assert len(roundings) == 2  # the last chain, Harper N = 144: its gap check and its extrema
    for hopping, k in (([1.0, 1e-310, 1.0], 1), ([1e-310, 1.0], 0)):
        n = len(hopping)
        with pytest.raises(ValueError) as error:
            band_edges_bisection(PeriodicJacobi(hopping, np.zeros(n)))
        assert str(error.value) == (
            f"transfer recurrence overflowed at bond {k} of period {n}: a_{k} = 1e-310 "
            f"puts a_{(k - 1) % n} / a_{k} or 1 / a_{k} beyond the float range")


def test_bisection_edges_of_bands_narrower_than_rounding():
    # Random N = 64 chains have bands down to 1e-15 wide, where Delta
    # grows almost exponentially and a small Newton step does not mean a
    # converged one. Each edge stays as close to the eig route as
    # multisection to TOL alone comes on the same chain: 6.9e-14, 4.2e-14
    # and 4.0e-14 (it comes within 6.88e-14, 4.13e-14 and 3.91e-14).
    rng = np.random.default_rng(2024)
    for bound in (6.9e-14, 4.2e-14, 4.0e-14):
        op = random_operator(rng, 64)
        eig = band_edges_eig(op)
        assert np.min(np.diff(eig)[0::2]) < 2e-15
        assert np.all(np.abs(band_edges_bisection(op) - eig) <= bound)


def test_uniform_outer_edges_on_the_gershgorin_ends():
    # The outer edges of a uniform chain, b -+ 2a, are the ends of their
    # brackets; Newton steps clamped to the ends land on them.
    rng = np.random.default_rng(92)
    for n in range(2, 25):
        a, b = rng.uniform(0.4, 1.8), rng.uniform(-1.5, 1.5)
        edges = band_edges_bisection(free_chain(n, a, b))
        outer = np.array([b - 2.0 * a, b + 2.0 * a])
        assert np.all(np.abs(edges[[0, -1]] - outer) <= 1e-14 * np.maximum(1.0, np.abs(outer)))


def test_newton_search_does_not_stop_on_a_small_step():
    # g = exp(k (lam - r)) - 1 with k = 1e14: above r every Newton step
    # is about 1 / k, below TOL, however far the zero is. The search
    # stops only once the sign change is held, and halves the bracket
    # while the steps do not shrink.
    r, k = 0.7, 1e14
    rounds = []

    def g(lam, i, derivs):
        assert derivs == 1
        rounds.append(lam)
        z = k * (lam - r)
        return np.stack([np.expm1(z), k * np.exp(z)])

    root, = bands._newton(g, np.array([r - 1e-12]), np.array([r + 1e-11]))
    assert abs(root - r) <= bands.TOL
    assert len(rounds) <= 20


def _coarse_brackets(op):
    """The coarse edge brackets of a chain that is its own cell, as the
    route forms them, with the route's sign and level per bracket."""
    n = op.period
    lo, hi = op.gershgorin
    mu = np.concatenate([[lo], op.dirichlet_eigenvalues(), [hi]])
    orient = (-1.0) ** (n - 1 - np.arange(n))
    sign, level = np.repeat(orient, 2), np.tile([-2.0, 2.0], n)
    left, right = bands._multisect(bands._evaluator(op, 0, sign, level, transfer.March(op.hopping)),
                                   np.repeat(mu[:-1], 2), np.repeat(mu[1:], 2), bands.COARSE)
    return orient, sign, level, left, right


def test_searches_are_elementwise():
    # Each bracket gets the same bits from _newton and _multisect when it
    # is searched with others as when it is searched alone: brackets
    # finished on entry, brackets that finish in different rounds, one
    # that runs to ROUNDS (Newton on a bracket stretched to 1e9, where
    # steps stop shrinking and the search halves) and, for multisection,
    # brackets that run to the last pass. The chains are a random N = 24
    # chain, whose evaluator has one shift for all, and a Harper N = 89
    # chain, whose evaluator mixes Delta for the edges with Delta' for
    # the gap extrema.
    for op in (random_operator(np.random.default_rng(24), 24), harper_chain(89, 55, 0.3)):
        n = op.period
        orient, sign, level, left, right = _coarse_brackets(op)
        shift = np.zeros(2 * n, dtype=int)
        if n == 24:  # the coarse brackets, and the Dirichlet brackets they came from
            lo, hi = op.gershgorin
            mu = np.concatenate([[lo], op.dirichlet_eigenvalues(), [hi]])
            wide_lo, wide_hi = np.repeat(mu[:-1], 2), np.repeat(mu[1:], 2)
            wide_hi[-1] = 1e9
            left, right = np.concatenate([left, wide_lo]), np.concatenate([right, wide_hi])
            shift, sign, level = np.tile(shift, 2), np.tile(sign, 2), np.tile(level, 2)
        else:  # the coarse brackets, and the brackets of the gap extrema
            middle = 0.5 * (left[0::2] + right[1::2])
            left, right = np.concatenate([left, middle[:-1]]), np.concatenate([right, middle[1:]])
            shift = np.concatenate([shift, np.ones(n - 1, dtype=int)])
            sign = np.concatenate([sign, -orient[:-1]])
            level = np.concatenate([level, np.zeros(n - 1)])
        done = band_edges_eig(op)[:3]  # finished on entry
        lo, hi = np.concatenate([left, done]), np.concatenate([right, done])
        shift = np.concatenate([shift, [0, 0, 0]])
        sign = np.concatenate([sign, [1.0, -1.0, 1.0]])
        level = np.concatenate([level, [-2.0, 2.0, -2.0]])
        march = transfer.March(op.hopping)

        def evaluator(j):
            orders = shift[j]
            return bands._evaluator(op, orders if orders.any() else 0, sign[j], level[j], march)

        def counted(lam, i, derivs):
            rounds[i] += 1
            return g(lam, i, derivs)

        def sample(size):
            """Every bracket of the random chain, searched alone; of the
            Harper chain's, every fourth and the three finished on entry."""
            return range(size) if n == 24 else np.r_[0 : size - 3 : 4, size - 3 : size]

        g, rounds = evaluator(slice(None)), np.zeros(lo.size, dtype=int)
        batch = bands._newton(counted, lo, hi)
        assert np.all(rounds[-3:] == 0) and np.array_equal(batch[-3:], done)
        assert len(set(rounds[:-3].tolist())) > 3
        assert (rounds.max() == bands.ROUNDS) == (n == 24)
        for j in sample(lo.size):
            alone = bands._newton(evaluator(slice(j, j + 1)), lo[j : j + 1], hi[j : j + 1])
            assert alone.tobytes() == batch[j : j + 1].tobytes()
        # Multisection searches Delta -+ 2 only: the edge brackets.
        edges = np.flatnonzero(shift == 0)
        lo, hi, shift, sign, level = lo[edges], hi[edges], shift[edges], sign[edges], level[edges]
        for passes in (bands.COARSE, bands.ROUNDS):
            g, rounds = evaluator(slice(None)), np.zeros(lo.size, dtype=int)
            batch = bands._multisect(counted, lo, hi, passes)
            assert np.all(rounds[-3:] == 0)
            if passes == bands.COARSE:  # every bracket runs to the last pass
                assert np.all(rounds[:-3] == passes)
            else:  # every bracket finishes, in different passes
                assert rounds.max() < passes and len(set(rounds[:-3].tolist())) > 1
            for j in sample(lo.size):
                alone = bands._multisect(evaluator(slice(j, j + 1)), lo[j : j + 1], hi[j : j + 1], passes)
                assert all(a.tobytes() == b[j : j + 1].tobytes() for a, b in zip(alone, batch))


def _extremum_everywhere(op):
    """The bisection route with the extremum c_j of every gap searched,
    certified open or not, and the gap closed there by the rounding
    bound: the reference. The edges of the open gaps are finished as on
    the route, by Newton steps where the gap passed the check between its
    coarse edge brackets and by multisection where it did not."""
    n = op.period
    orient, sign, level, left, right = _coarse_brackets(op)
    march = transfer.March(op.hopping)
    edges = 0.5 * (left + right)
    middle = 0.5 * (edges[0::2] + edges[1::2])
    slope = bands._evaluator(op, 1, -orient[:-1], np.zeros(n - 1), march)
    crit = bands._newton(slope, middle[:-1], middle[1:])
    peak, rounding = transfer.discriminant_rounding(op, crit)
    shut = np.abs(peak) - 2.0 <= rounding
    below, above = right[1:-1:2], left[2::2]
    value, rounding = transfer.discriminant_rounding(op, 0.5 * (below + above))
    certified = (below < above) & (np.abs(value) - 2.0 > rounding)
    fast = np.flatnonzero(certified & ~shut)
    fast = np.concatenate([[0], 2 * fast + 1, 2 * fast + 2, [2 * n - 1]])
    edges[fast] = bands._newton(bands._evaluator(op, 0, sign[fast], level[fast], march),
                                left[fast], right[fast])
    narrow = np.flatnonzero(~certified & ~shut)
    narrow = np.concatenate([2 * narrow + 1, 2 * narrow + 2])
    left, right = bands._multisect(bands._evaluator(op, 0, sign[narrow], level[narrow], march),
                                   left[narrow], right[narrow], bands.ROUNDS)
    edges[narrow] = 0.5 * (left + right)
    edges[1:-1:2][shut] = edges[2::2][shut] = crit[shut]
    return np.sort(edges)


def test_certified_open_gaps_skip_the_extremum_search(monkeypatch):
    # Random chains: every gap is certified open between its edge
    # brackets, so no march for Delta'' runs (the edges' Newton steps
    # march Delta' only) and the edges are those of the reference.
    rng = np.random.default_rng(90)
    chains = [random_operator(rng, n) for n in range(1, 25)]
    references = [_extremum_everywhere(op) for op in chains]
    derivs = _derivative_marches(monkeypatch)
    for op, reference in zip(chains, references):
        del derivs[:]
        edges = band_edges_bisection(op)
        assert max(derivs) < 2
        assert np.array_equal(edges, reference)
        assert np.all(edges[2::2] > edges[1:-1:2])


def test_bisection_edges_of_a_random_chain_through_the_cli_are_the_eig_edges(capsys):
    # Every gap is certified open, so the route skips the extremum search.
    chain = ("--onsite", "0,0.5,-0.3,0.9", "--hopping", "1,0.8,1.2,0.6", "--json")
    eig, bis = (np.array(strict_json(run_cli(capsys, "bands", *chain, "--method", method)[1])["edges"])
                for method in ("eig", "bisection"))
    assert eig.size == bis.size == 8
    assert np.all(np.abs(eig - bis) <= 1e-12 * np.maximum(1.0, np.abs(eig)))
    assert np.all(bis[2::2] > bis[1:-1:2])


def test_uniform_chains_are_the_closed_form_from_one_site(monkeypatch):
    # A uniform chain is its one site repeated N times: the route marches
    # that site alone, searches no gap extremum (no march carries
    # Delta''), and its edges are the levels b + 2a cos(pi k / N), each
    # inner one twice, both edges of a gap the repetition closes.
    rng = np.random.default_rng(91)
    chains = [uniform_chain(rng, n) for n in range(3, 25)]
    marches = []
    run = transfer.March.run

    def counted(march, *args, **kwargs):
        marches.append((len(march.a), march.derivs))
        return run(march, *args, **kwargs)

    monkeypatch.setattr(transfer.March, "run", counted)
    for op in chains + _uniform_chains():
        n, a, b = op.period, op.hopping[0], op.onsite[0]
        levels = b + 2.0 * a * np.cos(np.pi * np.arange(n + 1) / n)
        marches.clear()
        edges = band_edges_bisection(op)
        assert np.max(np.abs(edges - np.sort(np.concatenate([levels, levels[1:-1]])))) \
            <= 1e-15 * max(1.0, abs(b) + 2.0 * a)
        assert np.all(edges[2::2] == edges[1:-1:2])
        assert {sites for sites, _ in marches} == {1}
        assert max(derivs for _, derivs in marches) < 2


@pytest.mark.parametrize("period, f_prev", [(89, 55), (144, 89)])
@pytest.mark.parametrize("phi", [0.3, 2.1])
def test_harper_edges_match_extremum_reference(period, f_prev, phi):
    # Only some Harper gaps are certified; the route searches the
    # extremum of the rest alone. The edges agree within the multisection
    # tolerance and every gap state is the same.
    op = harper_chain(period, f_prev, phi)
    edges, reference = band_edges_bisection(op), _extremum_everywhere(op)
    assert np.all(np.abs(edges - reference) <= 1e-13 * np.maximum(1.0, np.abs(reference)))
    assert np.array_equal(edges[2::2] > edges[1:-1:2], reference[2::2] > reference[1:-1:2])


def test_repeated_cell_gaps_close_exactly():
    # Three copies of a 3-site cell: the gaps inside each band of the
    # cell are closed. The transfer matrix of such a cell can be far
    # from normal, so tr M cancels large entries at the gap extremum and
    # its rounding exceeds any fixed multiple of N eps.
    rng = np.random.default_rng(0)
    for _ in range(200):
        op = tiled(random_operator(rng, 3), 3)
        edges = band_edges_bisection(op)
        widths = edges[2::2] - edges[1:-1:2]
        assert np.all(widths[[0, 1, 3, 4, 6, 7]] == 0.0)
        assert np.max(np.abs(edges - band_edges_eig(op))) <= 1e-9


def test_repeated_cells_by_bisection_match_eig():
    # A p-site cell repeated m times, p = 1..5 and m = 2..40, all drawn
    # from one generator in a fixed order before any solve. The route
    # searches the cell, and the m - 1 levels inside each cell band are
    # both edges of the gaps that the repetition closes, equal; the
    # cell's own gaps of a random cell are open.
    rng = np.random.default_rng(2525)
    draws = [(int(rng.integers(1, 6)), int(rng.integers(2, 41))) for _ in range(150)]
    for p, m in draws:
        op = tiled(random_operator(rng, p), m)
        edges = band_edges_bisection(op)
        assert np.max(np.abs(edges - band_edges_eig(op))) <= 1e-12 * _scale(op)
        assert np.count_nonzero(edges[2::2] == edges[1:-1:2]) == p * (m - 1)


def test_bisection_at_small_scales_matches_eig():
    # TOL is relative to max(1, |lam|), an absolute 1e-13 below |lam| = 1:
    # unscaled, these chains came out 0.045 to 0.22 of their reach off at
    # 1e-14 and below, and the 3-site chain at the end with every band of
    # width 0. Solved scaled into a reach of [1, 2), they are the eig
    # edges within 1e-12 of the reach; the Harper chain's narrow open
    # gaps keep their conditioning allowance (see _conditioning), taken
    # at scale 1.
    rng = np.random.default_rng(14)
    harper = harper_chain(89, 55, 0.3)
    cases = [(random_operator(rng, 3), 0.0), (random_operator(rng, 8), 0.0),
             (free_chain(7, 0.9, -0.2), 0.0),
             (harper, _conditioning(harper, band_edges_eig(harper)))]
    for s in (1e-14, 1e-100, 1e-200, 1e-300):
        for base, allowance in cases:
            op = PeriodicJacobi(base.hopping * s, base.onsite * s)
            reach = max(np.abs(op.gershgorin))
            error = np.abs(band_edges_bisection(op) - band_edges_eig(op))
            assert np.all(error <= 1e-12 * reach + s * allowance)
    op = PeriodicJacobi([1e-14, 8e-15, 1.2e-14], [0.0, 5e-15, -3e-15])
    edges, eig = band_edges_bisection(op), band_edges_eig(op)
    assert np.max(np.abs(edges - eig)) <= 1e-12 * max(np.abs(op.gershgorin))
    assert np.all(edges[1::2] > edges[0::2])


def test_dual_route_with_closed_gaps():
    op = free_chain(5, hopping=0.8, onsite=0.2)
    eig_edges = band_edges_eig(op)
    bis_edges = band_edges_bisection(op)
    assert np.allclose(eig_edges, bis_edges, atol=1e-9)
    edges = BandStructure(op, method="bisection").edges
    assert not np.any(edges[2::2] > edges[1:-1:2])


def test_free_operator_single_interval():
    op = free_chain(4, hopping=0.7, onsite=-0.1)
    bs = BandStructure(op)
    assert bs.edges[0] == pytest.approx(-0.1 - 1.4, abs=1e-10)
    assert bs.edges[-1] == pytest.approx(-0.1 + 1.4, abs=1e-10)
    assert not np.any(bs.edges[2::2] > bs.edges[1:-1:2])


def test_floquet_eigenvalues_inside_bands(generic_bs, generic_op):
    lower, upper = generic_bs.edges[0::2], generic_bs.edges[1::2]
    for theta in np.linspace(0, np.pi, 9):
        for lam in generic_op.floquet_eigenvalues(theta):
            assert generic_bs.contains(lam, tol=1e-9)
            assert np.any((lower - 1e-9 <= lam) & (lam <= upper + 1e-9))


def test_gap_midpoints_outside_spectrum(generic_bs):
    op = generic_bs.operator
    lower, upper = generic_bs.edges[1:-1:2], generic_bs.edges[2::2]
    for mid in (0.5 * (lower + upper))[upper > lower]:
        assert abs(transfer.discriminant(op.hopping, op.onsite, mid)[0]) > 2.0
        assert not generic_bs.contains(mid)
    assert not generic_bs.contains(generic_bs.edges[0] - 1.0)
    assert not generic_bs.contains(generic_bs.edges[-1] + 1.0)


def test_band_centres_of_random_long_chains_are_in_the_spectrum():
    # At N = 64 bands are narrower than the rounding of Delta, so
    # |Delta| <= 2 put a sixth of the band centres outside; the edges
    # decide membership instead.
    rng = np.random.default_rng(64)
    for _ in range(10):
        bs = BandStructure(random_operator(rng, 64))
        centres = 0.5 * (bs.edges[0::2] + bs.edges[1::2])
        assert np.all(bs.contains(centres))
        lower, upper = bs.edges[1:-1:2], bs.edges[2::2]
        assert not np.any(bs.contains((0.5 * (lower + upper))[upper > lower]))
        assert not bs.contains(bs.edges[0] - 1.0)
        assert not bs.contains(bs.edges[-1] + 1.0)


def test_contains_tolerance_widens_each_band(generic_bs):
    for lower, upper in generic_bs.edges.reshape(-1, 2):
        assert np.all(generic_bs.contains([lower, upper]))
        for lam in (lower - 1e-3, upper + 1e-3):
            assert not generic_bs.contains(lam)
            assert generic_bs.contains(lam, tol=2e-3) == (lower - 2e-3 <= lam <= upper + 2e-3)


def test_closed_gaps_of_uniform_chains_are_in_the_spectrum():
    # The eig route leaves slivers of a few ulp between the edges of a
    # closed gap; a level inside one is still in the spectrum.
    for period, a, b in ((60, 0.9, -0.2), (100, 0.9, -0.2), (64, 1.347, -1.318)):
        bs = BandStructure(free_chain(period, a, b))
        levels = b + 2 * a * np.cos(np.pi * np.arange(1, period) / period)
        assert np.all(bs.contains(levels))


def test_dirichlet_interlacing(generic_op, generic_bs):
    # One Dirichlet eigenvalue sits in each closed gap [E_{2j+1}, E_{2j+2}].
    mu = generic_op.dirichlet_eigenvalues()
    edges = generic_bs.edges
    assert mu.size == generic_op.period - 1
    for j, m in enumerate(mu):
        assert edges[2 * j + 1] - 1e-9 <= m <= edges[2 * j + 2] + 1e-9


def test_integrated_density_at_band_edges(generic_bs):
    # The Bloch phase runs from 0 to pi or back across each band, so the
    # IDS rises from j / N at band j's lower edge to (j + 1) / N at its upper.
    n = generic_bs.operator.period
    for j, (lower, upper) in enumerate(generic_bs.edges.reshape(-1, 2)):
        assert round(generic_bs.densities(lower)[1], 6) == round(j / n, 6)
        assert round(generic_bs.densities(upper)[1], 6) == round((j + 1) / n, 6)


@pytest.mark.parametrize("method", ["eig", "bisection"])
def test_integrated_density_is_exact_at_every_band_edge(method):
    # Band j's lower edge reads j / N and its upper edge (j + 1) / N. The
    # arccos of Delta / 2 at a lower edge, where Delta = +-2, turned the
    # rounding of Delta into noise of order its square root: up to 9.5e-5
    # on the random N = 22 chain.
    rng = np.random.default_rng(3)
    cell = random_operator(rng, 2)
    chains = [corpus_chain(n, 7) for n in range(2, 25)]
    chains += [harper_chain(89, 55, 0.3), free_chain(12, 0.9, -0.2), tiled(cell, 6)]
    for op in chains:
        bs = BandStructure(op, method)
        count = np.ceil(np.arange(2 * op.period) / 2) / op.period
        assert np.max(np.abs(bs.densities(bs.edges)[1] - count)) <= 1e-15


def test_dispersion_reproduces_floquet(generic_op, generic_bs):
    thetas = np.linspace(0, np.pi, 7)
    table = generic_bs.dispersion(thetas)
    assert table.shape == (generic_op.period, 7)
    for i, theta in enumerate(thetas):
        assert np.allclose(
            table[:, i], generic_op.floquet_eigenvalues(theta), atol=1e-10
        )


def test_dispersion_of_uniform_chain_matches_closed_form():
    # Phase theta over the cell is theta / N per site, so band m sits at
    # b + 2a cos((theta + 2 pi m) / N).
    n, a, b = 400, 0.9, -0.2
    thetas = np.array([0.0, 0.37, np.pi / 2, np.pi])
    table = BandStructure(free_chain(n, a, b)).dispersion(thetas)
    m = np.arange(n)[:, None]
    expected = np.sort(b + 2 * a * np.cos((thetas + 2 * np.pi * m) / n), axis=0)
    assert np.max(np.abs(table - expected)) <= 1e-12 * max(1.0, abs(b) + 2 * a)


def test_bloch_spectra_never_build_the_dense_matrix(monkeypatch):
    # The Bloch spectra are band-matrix solves; a dense eigensolver
    # would bring back the O(N^3) cost.
    def refuse(*args, **kwargs):
        raise AssertionError("dense eigensolver called")

    dense = {
        np.linalg: ("eig", "eigh", "eigvals", "eigvalsh"),
        scipy.linalg: ("eig", "eigh", "eigvals", "eigvalsh"),
        lapack: ("dsyev", "dsyevd", "dsyevr", "zheev", "zheevd", "zheevr", "dgeev", "zgeev"),
    }
    for module, names in dense.items():
        for name in names:
            monkeypatch.setattr(module, name, refuse)
    for period in (2, 3, 8, 89):
        op = random_operator(np.random.default_rng(period), period)
        assert op.floquet_eigenvalues(0.37).shape == (period,)
        assert band_edges_eig(op).shape == (2 * period,)
        assert BandStructure(op).dispersion(np.linspace(0, np.pi, 5)).shape == (period, 5)


def test_bands_json_on_the_eig_route_runs_no_march(monkeypatch, capsys):
    # The payload is the edges and what is read off them; the eig route
    # solves band matrices, so no recurrence runs.
    log = record_marches(monkeypatch)
    assert cli.main(["bands", "--onsite", "0,0.5,-0.3", "--hopping", "1,0.8,1.2", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["edges"] == BandStructure(PeriodicJacobi([1.0, 0.8, 1.2], [0.0, 0.5, -0.3])).edges.tolist()
    assert "discriminant_chebyshev" not in payload
    assert log == []


def test_edges_solved_only_on_first_use(monkeypatch, generic_op):
    def refuse(op):
        raise AssertionError("band edges solved")

    monkeypatch.setattr(bands, "band_edges_eig", refuse)
    bs = BandStructure(generic_op)
    assert bs.dispersion([0.0, 1.0]).shape == (3, 2)
    assert "edges" not in bs.__dict__
    with pytest.raises(AssertionError):
        bs.edges
    with pytest.raises(ValueError):
        BandStructure(generic_op, method="bogus")


def test_dos_curve_shapes_and_padding():
    bs = BandStructure(make_chain([0.0, 0.8]))
    energies, rho, ids = dos_curve(bs, points=128)
    assert energies.shape == rho.shape == ids.shape == (128,)
    assert energies[0] < bs.edges[0] and energies[-1] > bs.edges[-1]
    assert rho[0] == 0.0 and rho[-1] == 0.0
    assert ids[0] == 0.0 and ids[-1] == pytest.approx(1.0)
    assert np.all(np.diff(ids) >= -1e-12)


def test_dos_curve_refuses_negative_points():
    bs = BandStructure(make_chain([0.0, 0.8]))
    with pytest.raises(ValueError, match="points must be nonnegative"):
        dos_curve(bs, points=-3)
    assert "edges" not in vars(bs)  # refused before the edges were solved


def test_dos_curve_marches_only_in_band_points(monkeypatch):
    bs = BandStructure(harper_chain(89, 55, 0.7))
    marched = []
    run = transfer.March.run

    def counted(march, *args, **kwargs):
        marched.append(np.size(march.lam))
        return run(march, *args, **kwargs)

    monkeypatch.setattr(transfer.March, "run", counted)
    energies, rho, ids = dos_curve(bs, points=512)
    inside = np.searchsorted(bs.edges, energies, side="right") % 2 == 1
    assert 0 < inside.sum() < 512
    assert np.array_equal(bs.contains(energies), inside)
    assert sum(marched) == inside.sum()

    # The reference marches the whole grid; the march is elementwise.
    def everywhere(self, lam, tol=0.0):
        return np.searchsorted(self.edges, lam, side="right"), np.ones(np.shape(lam), bool)

    monkeypatch.setattr(BandStructure, "_locate", everywhere)
    _, rho_full, ids_full = dos_curve(bs, points=512)
    assert np.array_equal(rho[inside], rho_full[inside])
    assert np.all(rho[~inside] == 0.0)
    assert np.array_equal(ids, ids_full)


def test_density_of_states_normalization(generic_bs):
    # Each band carries exactly 1/N of the total state count.
    n = generic_bs.operator.period
    for lower, upper in generic_bs.edges.reshape(-1, 2):
        mass, err = quad(
            lambda lam: generic_bs.densities(lam)[0], lower, upper, limit=400
        )
        assert mass == pytest.approx(1.0 / n, abs=5e-7)


def test_density_of_states_zero_outside(generic_bs):
    lam = generic_bs.edges[-1] + 0.5
    assert generic_bs.densities(lam)[0] == 0.0
    lower, upper = generic_bs.edges[1:-1:2], generic_bs.edges[2::2]
    for mid in (0.5 * (lower + upper))[upper > lower]:
        assert generic_bs.densities(mid)[0] == 0.0


def test_integrated_density_limits_and_monotone(generic_bs):
    edges = generic_bs.edges
    assert generic_bs.densities(edges[0] - 1.0)[1] == 0.0
    assert generic_bs.densities(edges[-1] + 1e-9)[1] == pytest.approx(1.0)
    grid = np.linspace(edges[0] - 0.2, edges[-1] + 0.2, 301)
    vals = generic_bs.densities(grid)[1]
    assert np.all(np.diff(vals) >= -1e-12)


def test_a_nan_energy_is_refused_and_infinite_ones_keep_their_limits(generic_bs):
    # A nan energy was once read as past every edge: IDS 1.0, DOS 0.0
    # and outside the spectrum, even at tol = 1.
    for call in (generic_bs.densities, generic_bs.contains,
                 lambda lam: generic_bs.contains(lam, tol=1.0)):
        for lam in (np.nan, [0.0, np.nan]):
            with pytest.raises(ValueError, match="energies must not be nan"):
                call(lam)
    dos, ids = generic_bs.densities(np.array([-np.inf, np.inf]))
    assert ids.tolist() == [0.0, 1.0] and dos.tolist() == [0.0, 0.0]
    assert not generic_bs.contains(np.array([-np.inf, np.inf])).any()


def test_integrated_density_gap_plateaus(generic_bs):
    n = generic_bs.operator.period
    for j, (lower, upper) in enumerate(generic_bs.edges[1:-1].reshape(-1, 2)):
        if not upper > lower:
            continue
        mid = 0.5 * (lower + upper)
        assert generic_bs.densities(mid)[1] == pytest.approx((j + 1) / n)


def test_integrated_density_matches_truncation_counting(generic_op, generic_bs):
    # Oracle: eigenvalue counting for a long open chain (Sturm sequence
    # solver from scipy), which approximates the per-site state count.
    cells = 600
    t = truncated_matrix(generic_op, cells)
    vals = eigh_tridiagonal(np.diag(t), np.diag(t, 1), eigvals_only=True)
    total = vals.size
    edges = generic_bs.edges
    for lam in np.linspace(edges[0] + 0.1, edges[-1] - 0.1, 9):
        empirical = np.searchsorted(vals, lam) / total
        assert generic_bs.densities(lam)[1] == pytest.approx(
            empirical, abs=5e-3
        )


def test_integrated_density_matches_band_loop():
    # Reference: walk the bands from the bottom, counting a band filled
    # from its upper edge on and entering it at its lower edge. A chain
    # of one site repeated is the same operator as its one-site cell, so
    # the walk runs over the cell's one band, between the same two ends.
    def reference(bs, lam):
        bs = BandStructure(bs.operator.cell)
        n = bs.operator.period
        filled = 0
        for j, (lower, upper) in enumerate(bs.edges.reshape(-1, 2).tolist()):
            if lam >= upper:
                filled += 1
                continue
            if lam < lower:
                break
            if lam == lower:
                return filled / n
            phase_lower = 0.0 if (n - j) % 2 == 0 else np.pi
            delta = transfer.discriminant(bs.operator.hopping, bs.operator.onsite, lam)[0]
            phase = np.arccos(np.clip(delta / 2.0, -1.0, 1.0))
            return (filled + abs(phase - phase_lower) / np.pi) / n
        return filled / n

    rng = np.random.default_rng(37)
    for op in (random_operator(rng, 5), free_chain(4, hopping=0.9, onsite=0.3)):
        bs = BandStructure(op)
        grid = np.concatenate([bs.edges, np.linspace(bs.edges[0] - 0.3, bs.edges[-1] + 0.3, 97)])
        expected = [reference(bs, lam) for lam in grid]
        assert np.array_equal(bs.densities(grid)[1], expected)
        assert bs.densities(grid[3])[1] == expected[3]


def test_dos_curve_of_a_chain_scaled_by_a_power_of_two_is_the_same_curve_scaled():
    # Scaling a chain by s = 2^e scales its edges and energies by s, M' by
    # 1 / s and leaves M alone, all exactly: the DOS scales by 1 / s and
    # the IDS keeps its bits. det M', read only at a closed gap's point,
    # was once formed at every point and overflowed with a warning below
    # about s = 2^-510.
    rng = np.random.default_rng(510)
    for n in (2, 3, 5, 8, 13, 24):
        op = random_operator(rng, n)
        shift = 1 - int(np.frexp(max(map(abs, op.gershgorin)))[1])  # reach into [1, 2)
        a, b = np.ldexp(op.hopping, shift), np.ldexp(op.onsite, shift)
        energies, rho, ids = dos_curve(BandStructure(PeriodicJacobi(a, b), "bisection"), 128)
        for power in (-510, -600, -1000):
            scaled = BandStructure(PeriodicJacobi(np.ldexp(a, power), np.ldexp(b, power)),
                                   "bisection")
            at, rho_at, ids_at = dos_curve(scaled, 128)
            assert np.array_equal(at, np.ldexp(energies, power))
            assert np.array_equal(rho_at, np.ldexp(rho, -power))
            assert np.array_equal(ids_at, ids)


def test_harper_dos_curve_climbs_from_0_to_1_over_a_finite_nonnegative_dos():
    energies, rho, ids = dos_curve(BandStructure(harper_chain(89, 55, 0.3)), points=512)
    assert ids[0] == 0.0 and ids[-1] == 1.0 and np.all(np.diff(ids) >= 0.0)
    assert np.all(np.isfinite(rho) & (rho >= 0.0))


def test_free_integrated_density_closed_form():
    # For the uniform chain the per-site state count below b + 2a cos-angle
    # is arccos((b - lambda) / 2a) / pi, independent of the chosen period.
    a, b = 0.9, 0.3
    bs = BandStructure(free_chain(4, hopping=a, onsite=b))
    # The grid includes the exact band-touching point b, where arccos
    # turns roundoff in Delta into sqrt(eps)-level phase noise; 1e-7
    # absolute agreement is the honest conditioning floor there.
    for lam in np.linspace(b - 2 * a + 1e-6, b + 2 * a - 1e-6, 11):
        expected = np.arccos(np.clip((b - lam) / (2 * a), -1, 1)) / np.pi
        assert bs.densities(lam)[1] == pytest.approx(expected, abs=1e-7)


def test_band_structure_shortcut():
    bs = BandStructure(make_chain([0.0, 0.8], [1.0]))
    assert bs.edges.reshape(-1, 2).shape == (2, 2)
    assert np.allclose(bs.edges, BandStructure(make_chain([0.0, 0.8]), method="bisection").edges)


def test_bisection_method_selectable(generic_op):
    bs = BandStructure(generic_op, method="bisection")
    assert np.allclose(bs.edges, BandStructure(generic_op).edges, atol=1e-10)
    with pytest.raises(ValueError):
        BandStructure(generic_op, method="nope")


def test_to_dict_round_trip(generic_bs):
    d = generic_bs.to_dict()
    assert d["period"] == 3
    assert np.allclose(d["edges"], generic_bs.edges)
    assert len(d["bands"]) == 3
    assert len(d["gaps"]) == 2
    assert d["gap_widths"][0] == pytest.approx(max(0.0, generic_bs.edges[2] - generic_bs.edges[1]))
    import json

    json.dumps(d)  # everything must be plain JSON-serializable types


def test_to_dict_reads_the_edges_as_the_band_and_gap_records_do():
    # The payload is sliced from the edges, and its JSON is byte for byte
    # what reading band j as [E_2j, E_2j+1] and gap j as [E_2j+1, E_2j+2],
    # one index at a time, gives: a band's width upper - lower, a gap's
    # max(0.0, upper - lower).
    rng = np.random.default_rng(93)
    chains = [random_operator(rng, n) for n in (1, 2, 7, 64)]
    chains += [free_chain(n, 0.9, -0.2) for n in (1, 5, 60)] + _repeated_cells()[:3]
    for op in chains:
        for method in ("eig", "bisection"):
            bs = BandStructure(op, method)
            payload = json.dumps(bs.to_dict())
            assert "bands" not in bs.__dict__ and "gaps" not in bs.__dict__
            edges = [float(e) for e in bs.edges]
            bands = [[edges[2 * j], edges[2 * j + 1]] for j in range(op.period)]
            gaps = [[edges[2 * j + 1], edges[2 * j + 2]] for j in range(op.period - 1)]
            assert payload == json.dumps({
                "period": op.period,
                "hopping": op.hopping.tolist(),
                "onsite": op.onsite.tolist(),
                "edges": bs.edges.tolist(),
                "bands": bands,
                "band_widths": [upper - lower for lower, upper in bands],
                "gaps": gaps,
                "gap_widths": [max(0.0, upper - lower) for lower, upper in gaps],
            })


@pytest.mark.parametrize("period", [60, 100, 400])
def test_uniform_chain_dos_and_ids_match_closed_forms(period):
    # Per site, the uniform chain has IDS arccos((b - lam) / 2a) / pi and
    # DOS 1 / (pi sqrt(4a^2 - (lam - b)^2)) on [b - 2a, b + 2a].
    a, b = 0.9, -0.2
    bs = BandStructure(free_chain(period, a, b))
    grid = np.linspace(b - 2 * a - 0.1, b + 2 * a + 0.1, 2001)
    ids = np.arccos(np.clip((b - grid) / (2 * a), -1.0, 1.0)) / np.pi
    assert np.max(np.abs(bs.densities(grid)[1] - ids)) <= 1e-10
    far = np.abs(np.abs(grid - b) - 2 * a) > 1e-10
    assert np.array_equal(bs.contains(grid)[far], (np.abs(grid - b) <= 2 * a)[far])

    # Delta = 2 cos(N theta), lam = b + 2a cos(theta): the closed gaps
    # sit at the levels theta = pi j / N, where Delta' and
    # sqrt(4 - Delta^2) both vanish.
    levels = b + 2 * a * np.cos(np.pi * np.arange(period + 1) / period)
    inside = np.abs(grid - b) < 2 * a
    far = inside & (np.min(np.abs(grid[:, None] - levels), axis=1) >= 1e-6)
    exact = 1.0 / (np.pi * np.sqrt(4 * a * a - (grid[far] - b) ** 2))
    assert np.all(np.abs(bs.densities(grid)[0][far] - exact) <= 1e-9 * exact)
    assert np.all(bs.densities(grid)[0][~inside] == 0.0)


@pytest.mark.parametrize("method", ["eig", "bisection"])
def test_uniform_dos_at_the_closed_gap_levels(method):
    # At a closed-gap level b + 2a cos(pi j / N), Delta' and 4 - Delta^2
    # of the N-site march both vanish. The one-site cell has neither
    # there, so the DOS is the closed form to rounding, never 0, and the
    # IDS is 1 - j / N.
    for n, a, b in ((60, 0.9, -0.2), (100, 0.9, -0.2), (400, 0.9, -0.2), (64, 1.347, -1.318)):
        bs = BandStructure(free_chain(n, a, b), method)
        j = np.arange(1, n)
        levels = b + 2 * a * np.cos(np.pi * j / n)
        rho, ids = bs.densities(levels)
        exact = 1.0 / (np.pi * np.sqrt(4 * a * a - (levels - b) ** 2))
        assert np.all(rho > 0.0)
        assert np.max(np.abs(rho - exact) / exact) <= 1e-11
        assert np.max(np.abs(ids - (1.0 - j / n))) <= 1e-12


def _uniform_chain(n):
    if n > 24:
        return free_chain(n, 0.9, -0.2)
    return uniform_chain(np.random.default_rng(n), n)


UNIFORM_PERIODS = list(range(2, 25)) + [60, 100, 400]


def test_uniform_edges_and_dispersion_are_the_closed_form():
    # Band m of a chain of one site repeated N times is
    # b + 2a cos((theta + 2 pi m) / N); its edges are the levels
    # b + 2a cos(pi r / N), each interior one twice: a closed gap.
    eps = np.finfo(float).eps
    thetas = np.array([0.0, 0.37, np.pi / 2, 2.9, np.pi])
    for n in UNIFORM_PERIODS:
        op = _uniform_chain(n)
        a, b = op.hopping[0], op.onsite[0]
        levels = b + 2 * a * np.cos(np.pi * np.arange(n + 1) / n)
        expected = np.sort(np.concatenate([levels, levels[1:-1]]))
        raw = np.sort(op.floquet_eigenvalues([0.0, np.pi]), axis=None)
        edges = band_edges_eig(op)
        assert np.max(np.abs(edges - expected)) <= 2 * eps * (abs(b) + 2 * a)
        # Both edges of each gap come from one cos, before any closing.
        assert np.array_equal(raw[1:-1:2], raw[2::2])
        assert np.array_equal(edges, raw)
        m = np.arange(n)[:, None]
        exact = np.sort(b + 2 * a * np.cos((thetas + 2 * np.pi * m) / n), axis=0)
        table = BandStructure(op).dispersion(thetas)
        assert np.max(np.abs(table - exact)) <= 1e-12 * max(1.0, abs(b) + 2 * a)


def test_uniform_chains_run_no_band_solve_and_march_one_site(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("band-matrix solve")

    sites = []
    run = transfer.March.run

    def counted(march, *args, **kwargs):
        sites.append(len(march.a))
        return run(march, *args, **kwargs)

    monkeypatch.setattr(operators, "_solve", refuse)
    monkeypatch.setattr(transfer.March, "run", counted)
    for n in UNIFORM_PERIODS:
        op = _uniform_chain(n)
        chain = ["--onsite=" + ",".join(map(repr, op.onsite.tolist())),
                 f"--hopping={op.hopping[0].item()!r}", "--json"]
        operators._real_spectrum.cache_clear()
        for command in (["bands"], ["dispersion", "--samples", "8"], ["dos", "--points", "64"]):
            assert cli.main(command + chain) == 0
        curve = json.loads(capsys.readouterr().out.splitlines()[-1])
        energy, rho = np.array(curve["energy"]), np.array(curve["dos"])
        inside = np.abs(energy - op.onsite[0]) < 2 * op.hopping[0]
        assert np.all(rho[inside] > 0.0) and np.all(rho[~inside] == 0.0)
    assert sites and set(sites) == {1}


def test_uniform_and_repeated_long_chains_through_the_cli(capsys, monkeypatch):
    # A uniform N = 400 chain and a 2-site cell repeated 200 times: bands
    # on both routes, dispersion and dos exit 0, the DOS is 0 at no grid
    # point strictly inside a band, the routes' edges agree, and every
    # gap the repetition closes has two equal edges. The uniform chain
    # runs no band-matrix solve and marches one site at a time.
    def refuse(*args, **kwargs):
        raise AssertionError("band-matrix solve on a chain of one site repeated")

    run = transfer.March.run

    def one_site(march, *args, **kwargs):
        assert len(march.a) == 1, f"march over {len(march.a)} sites of a chain of one site repeated"
        return run(march, *args, **kwargs)

    def check(chain, cell):
        payloads = []
        for command in (["bands"], ["dispersion", "--samples", "8"], ["dos", "--points", "512"],
                        ["bands", "--method", "bisection"]):
            code, out, err = run_cli(capsys, *command, *chain, "--json")
            assert code == 0 and err == ""
            payloads.append(strict_json(out))
        edges, curve, bisected = np.array(payloads[0]["edges"]), payloads[2], payloads[3]
        energy, rho = np.array(curve["energy"]), np.array(curve["dos"])
        inside = (edges.searchsorted(energy) % 2 == 1) & ~np.isin(energy, edges)
        assert np.all(rho[inside] != 0.0)
        scale = np.max(np.abs(bisected["onsite"])) + 2 * np.max(bisected["hopping"])
        assert len(bisected["edges"]) == edges.size
        assert np.max(np.abs(edges - bisected["edges"])) <= 1e-12 * scale
        gaps, n = np.array(bisected["gaps"]), edges.size // 2
        closed = np.arange(1, n) % (n // cell) != 0
        assert np.array_equal(gaps[closed, 0], gaps[closed, 1])

    operators._real_spectrum.cache_clear()
    with monkeypatch.context() as patch:
        patch.setattr(operators, "_solve", refuse)
        patch.setattr(transfer.March, "run", one_site)
        check(["--onsite=" + ",".join(["-0.2"] * 400), "--hopping", "0.9"], 1)
    check(["--onsite=" + ",".join(["0.3", "-0.5"] * 200), "--hopping=" + ",".join(["1.1", "0.7"] * 200)], 2)


@pytest.mark.parametrize("method", ["eig", "bisection"])
def test_repeated_cell_dos_beside_the_closed_gap_points(method):
    # A p-site cell repeated m times closes m - 1 gaps inside each band
    # of the cell. One ulp beside such a point the N-site march is
    # rounding over rounding; the cell's march sees an ordinary point of
    # its band, so the DOS there is positive and matches the point's.
    for p, m in ((2, 50), (3, 5), (3, 20)):
        cell = random_operator(np.random.default_rng(2024), p)
        bs = BandStructure(tiled(cell, m), method)
        lower, upper = bs.edges[1:-1:2], bs.edges[2::2]
        shut = lower[lower == upper]
        assert shut.size == p * (m - 1)
        at = bs.densities(shut)[0]
        for side in (-np.inf, np.inf):
            rho = bs.densities(np.nextafter(shut, side))[0]
            assert np.all(rho > 0.0)
            assert np.max(np.abs(rho - at)) <= 1e-11


@pytest.mark.parametrize("method", ["eig", "bisection"])
def test_dos_is_infinite_on_every_edge_but_a_closed_gaps_point(method):
    # The DOS diverges at the edges of open gaps and at the spectrum's two
    # ends. There 4 - Delta^2 is pure rounding, whose sign once picked 0
    # or a large finite value. At the one point of a closed gap the DOS
    # keeps its finite limit sqrt(det M').
    cell = PeriodicJacobi([1.1, 0.7], [0.3, -0.5])
    chains = [(PeriodicJacobi([1.0, 0.8, 1.2], [0.0, 0.5, -0.3]), 0), (harper_chain(89, 55, 0.7), None),
              (tiled(cell, 3), 4), (free_chain(4, 0.9, -0.2), 3)]
    for op, shut in chains:
        bs = BandStructure(op, method)
        edges = bs.edges
        rho = bs.densities(edges)[0]
        closed = np.zeros(edges.size, dtype=bool)
        closed[1:-1] = np.repeat(edges[1:-1:2] == edges[2::2], 2)
        assert shut is None or np.count_nonzero(closed) == 2 * shut
        assert np.all(rho[~closed] == np.inf)
        assert np.all(np.isfinite(rho[closed]) & (rho[closed] > 0.0))


def test_repeated_cells_solve_and_march_only_the_cell(monkeypatch, capsys):
    solved, marched = [], []
    solve, run = operators._solve, transfer.March.run

    def solve_counted(solver, band):
        solved.append(band.shape[1])
        return solve(solver, band)

    def march_counted(march, *args, **kwargs):
        marched.append(len(march.a))
        return run(march, *args, **kwargs)

    monkeypatch.setattr(operators, "_solve", solve_counted)
    monkeypatch.setattr(transfer.March, "run", march_counted)
    rng = np.random.default_rng(2025)
    for p, m in ((2, 200), (3, 8), (4, 5)):
        cell = random_operator(rng, p)
        op = tiled(cell, m)
        chain = ["--onsite=" + ",".join(map(repr, op.onsite.tolist())),
                 "--hopping=" + ",".join(map(repr, op.hopping.tolist())), "--json"]
        solved.clear()
        marched.clear()
        operators._real_spectrum.cache_clear()
        for command in (["bands"], ["bands", "--method", "bisection"],
                        ["dispersion", "--samples", "8"], ["dos", "--points", "64"]):
            assert cli.main(command + chain) == 0
        lines = capsys.readouterr().out.splitlines()
        edges, curve = json.loads(lines[0])["edges"], json.loads(lines[-1])
        bisected = json.loads(lines[1])["edges"]
        assert np.max(np.abs(np.subtract(bisected, edges))) <= 1e-12 * _scale(cell)
        assert set(solved) == {p} and set(marched) == {p}
        energy, rho = np.array(curve["energy"]), np.array(curve["dos"])
        k = np.searchsorted(edges, energy, side="right")
        assert np.all(rho[k % 2 == 1] > 0.0)
        assert np.all(rho[(k % 2 == 0) & ~np.isin(energy, edges)] == 0.0)


def _exact_density(op, lam):
    """The DOS at lam from Delta and Delta' in exact rational arithmetic."""
    delta, slope = exact_discriminant(op, lam)
    return float(abs(slope)) / (op.period * np.pi * np.sqrt(float(4 - delta * delta)))


def test_dos_matches_exact_arithmetic_inside_every_band():
    # Inside the narrower bands of random chains the monodromy is far
    # from normal: its entries reach 1e3 and more while |Delta| < 2, so
    # forming 4 - Delta^2 from the entries alone would cancel them.
    rng = np.random.default_rng(22)
    for period in (10, 10, 12, 12, 12):
        bs = BandStructure(random_operator(rng, period))
        lam = np.concatenate(
            [np.linspace(lower, upper, 10)[1:-1] for lower, upper in bs.edges.reshape(-1, 2)]
        )
        exact = np.array([_exact_density(bs.operator, x) for x in lam])
        assert np.all(np.abs(bs.densities(lam)[0] - exact) <= 1e-9 * exact)


def test_dos_ids_and_membership_never_build_coefficients(monkeypatch, generic_op):
    def refuse(cls, op):
        raise AssertionError("coefficient form of Delta built")

    monkeypatch.setattr(Discriminant, "from_operator", classmethod(refuse))
    bs = BandStructure(generic_op)
    grid = np.linspace(bs.edges[0] - 0.5, bs.edges[-1] + 0.5, 41)
    bs.densities(grid)
    bs.contains(grid)
    dos_curve(bs, points=33)
