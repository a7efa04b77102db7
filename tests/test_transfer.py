import re
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as P

from hillbands import Discriminant, PeriodicJacobi, band_edges_bisection, band_edges_eig, transfer
from hillbands.inverse import chebyshev_nodes

from helpers import (
    corpus_chain,
    dirichlet_matrix,
    exact_discriminant,
    floquet_matrix,
    free_chain,
    harper_chain,
    monodromy,
    monodromy_polynomials,
    mp_discriminant,
    mp_heights,
    odd_values,
    power_coefficients,
    random_operator,
    theta_average_heights,
    tiled,
    uniform_chain,
)


def test_monodromy_advances_recurrence():
    op = PeriodicJacobi([1.0, 0.7, 1.3], [0.2, -0.4, 0.1])
    lam = 0.37
    # Manual three-term recurrence with the same periodic hopping convention.
    a, b = op.hopping, op.onsite
    u = [0.5, 1.0]  # u_{-1}, u_0
    for n in range(3):
        a_prev = a[(n - 1) % 3]
        u.append(((lam - b[n]) * u[-1] - a_prev * u[-2]) / a[n])
    m = monodromy(op, lam)[0]
    assert m @ np.array([1.0, 0.5]) == pytest.approx(np.array([u[-1], u[-2]]))


def test_monodromy_det_is_one():
    rng = np.random.default_rng(2)
    for period in (1, 2, 5, 9):
        op = random_operator(rng, period)
        m = monodromy(op, np.array([-1.7, 0.0, 2.3]))[0]
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        assert det == pytest.approx(np.ones(3), abs=1e-12)


def test_monodromy_coefficients_match_values():
    # The value march against the entries of M marched as polynomials.
    rng = np.random.default_rng(4)
    op = random_operator(rng, 6)
    entries = monodromy_polynomials(op)
    lams = np.linspace(-3, 3, 11)
    values, slopes = monodromy(op, lams, 1)
    for i in range(2):
        for j in range(2):
            c = entries[i][j]
            assert c(lams) == pytest.approx(values[i, j], rel=1e-10, abs=1e-10)
            assert c.deriv()(lams) == pytest.approx(slopes[i, j], rel=1e-10, abs=1e-10)


def test_only_transfer_reads_a_march():
    # Every other module reaches the recurrence by March(...).at(...)
    # and its .trace or .monodromy; no module runs a march or calls the
    # wrappers these replaced.
    source = Path(transfer.__file__).parent
    assert not hasattr(transfer, "discriminant") and not hasattr(transfer, "monodromy")
    for path in sorted(source.glob("*.py")):
        text = path.read_text()
        assert not re.search(r"transfer\.(discriminant|monodromy)\b", text), path.name
        if path.name != "transfer.py":
            assert ".run(" not in text, path.name


def test_monodromy_readout_is_one_march():
    # March.monodromy stacks the rows of one run: entry 0 is the same M
    # at every derivs, and each entry's diagonal sums to that row of
    # March.trace to the bit, on one chain and on a batch.
    rng = np.random.default_rng(5)
    for period in (1, 2, 5, 13):
        op = random_operator(rng, period)
        batch = rng.uniform(0.4, 1.8, (period, 3)), rng.uniform(-1.5, 1.5, (period, 3))
        for hopping, onsite, lam in ((op.hopping, op.onsite, np.linspace(-3, 3, 7)),
                                     (*batch, np.linspace(-3, 3, 7)[:, None])):
            plain = transfer.March(hopping).at(lam).monodromy(onsite)
            shape = np.broadcast_shapes(lam.shape, hopping.shape[1:])
            for derivs in (0, 1, 2):
                march = transfer.March(hopping).at(lam, derivs)
                m = march.monodromy(onsite)
                assert m.shape == (derivs + 1, 2, 2) + shape
                assert np.array_equal(m[0], plain[0])
                assert np.array_equal(m[:, 0, 0] + m[:, 1, 1], march.trace(onsite))


def test_discriminant_coefficients_degree_and_leading():
    # The Chebyshev series of Delta on [lo, hi] has degree N, and its
    # top coefficient times 2^(N-1) (2 / (hi - lo))^N is 1 / prod(a).
    rng = np.random.default_rng(6)
    for period in (1, 2, 4, 7):
        op = random_operator(rng, period)
        disc = Discriminant.from_operator(op)
        lo, hi = disc.interval
        c = disc.chebyshev.coef
        assert c.size == period + 1
        leading = c[-1] * 2.0 ** (period - 1) * (2.0 / (hi - lo)) ** period
        assert leading == pytest.approx(1.0 / np.prod(op.hopping), rel=1e-12)


def test_dirichlet_minor_roots_match_submatrix():
    # Relabelled to start at site 1, the corner entry M[1, 0] vanishes
    # exactly at the eigenvalues of the chain with site 0 removed.
    rng = np.random.default_rng(8)
    op = random_operator(rng, 6)
    shifted = op.shifted(1)
    expected = np.linalg.eigvalsh(dirichlet_matrix(op))
    roots = np.sort(monodromy_polynomials(shifted)[1][0].roots().real)
    assert np.allclose(roots, expected, atol=1e-9)
    # The value march vanishes there to the rounding of its entries.
    m = monodromy(shifted, expected)[0]
    assert np.all(np.abs(m[1, 0]) <= 1e-12 * np.max(np.abs(m), axis=(0, 1)))


@given(
    st.integers(min_value=1, max_value=6),
    st.floats(-2.5, 2.5, allow_nan=False),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_trace_equals_discriminant_polynomial(period, lam, seed):
    rng = np.random.default_rng(seed)
    op = random_operator(rng, period)
    m = monodromy(op, lam)[0]
    delta, slope = transfer.March(op.hopping).at(lam, 1).trace(op.onsite)
    rows = transfer.March(op.hopping).at(lam, 2).trace(op.onsite)
    c = power_coefficients(op)
    assert transfer.March(op.hopping).at(lam).trace(op.onsite)[0] == delta
    # Each derivative row is marched as without the rows above it.
    assert rows[0] == delta and rows[1] == slope
    assert delta == pytest.approx(np.trace(m), rel=1e-15, abs=1e-15)
    assert P.polyval(lam, c) == pytest.approx(delta, rel=1e-9, abs=1e-9)
    assert P.polyval(lam, P.polyder(c)) == pytest.approx(slope, rel=1e-9, abs=1e-9)
    assert P.polyval(lam, P.polyder(c, 2)) == pytest.approx(rows[2], rel=1e-9, abs=1e-9)


def test_rounding_bound_covers_the_exact_discriminant():
    # Random chains and repeated cells, at the band edges, the gap
    # middles and random energies, against exact arithmetic.
    rng = np.random.default_rng(12)
    chains = [random_operator(rng, period) for period in (1, 2, 5, 9, 16, 24)]
    for copies in (2, 3, 5):
        cell = random_operator(rng, 3)
        chains.append(tiled(cell, copies))
    for op in chains:
        edges = band_edges_eig(op)
        lam = np.concatenate(
            [edges, 0.5 * (edges[1:-1:2] + edges[2::2]), rng.uniform(-3.5, 3.5, 4)]
        )
        delta, bound = transfer.discriminant_rounding(op, lam)
        assert np.array_equal(delta, transfer.March(op.hopping).at(lam).trace(op.onsite)[0])
        error = [abs(Fraction(d) - exact_discriminant(op, x)[0]) for d, x in zip(delta, lam)]
        assert all(e <= Fraction(b) for e, b in zip(error, bound))


def _rounding_by_site_loop(op, lam):
    """The bound of discriminant_rounding, summed site by site."""
    a, b, n = op.hopping, op.onsite, op.period
    u = [row[0] for row in transfer.March(a).at(lam).run(b, history=True)]
    v = [row[0] for row in transfer.March(np.roll(a[::-1], -1)).at(lam).run(b[::-1], history=True)]
    back = np.roll(a, 1) / a
    total = np.zeros((2,) + np.shape(lam))
    for k in range(n):
        local = np.abs((lam - b[k]) / a[k]) * np.abs(u[k + 1])
        local += back[k] * np.abs(u[k])
        local *= np.abs(v[n - k]) * (a[k] / a[-1])
        total += local
    delta = u[-1][0] + u[-2][1]
    return delta, np.finfo(float).eps * (2.0 * (total[0] + total[1]) + np.abs(delta))


def test_rounding_bound_matches_the_site_loop():
    # The products of all sites are summed over the stacked rows; the
    # loop over sites is the reference, to 1e-13 relative.
    rng = np.random.default_rng(31)
    chains = [random_operator(rng, period) for period in (1, 2, 5, 64)]
    chains += [random_operator(np.random.default_rng(24), 24), free_chain(60, 0.9, -0.2),
               harper_chain(144, 89, 0.3)]
    chains.append(tiled(random_operator(rng, 3), 5))
    for op in chains:
        edges = band_edges_eig(op)
        lam = np.concatenate([edges, 0.5 * (edges[1:-1:2] + edges[2::2]), rng.uniform(-3.5, 3.5, 4)])
        for points in (lam, lam[:6].reshape(2, 3), np.float64(lam[1])):
            delta, bound = transfer.discriminant_rounding(op, points)
            ref_delta, ref_bound = _rounding_by_site_loop(op, points)
            assert np.shape(bound) == np.shape(points)
            assert np.array_equal(delta, ref_delta)
            assert np.all(np.abs(bound - ref_bound) <= 1e-13 * ref_bound)


def _rounding_by_two_marches(op, lam):
    """discriminant_rounding with the chain and its reversal marched one
    after the other, as two marches: the reference for the batch of two."""
    lam = np.asarray(lam, dtype=float)
    a, b, n = op.hopping, op.onsite, op.period
    u = np.stack(transfer.March(a).at(lam).run(b, history=True))[:, 0]
    v = np.stack(transfer.March(np.roll(a[::-1], -1)).at(lam).run(b[::-1], history=True))[:, 0]
    site = (n, 1) + (1,) * lam.ndim
    a_k, b_k = a.reshape(site), b.reshape(site)
    delta = u[-1, 0] + u[-2, 1]
    np.abs(u, out=u)
    np.abs(v, out=v)
    local = np.abs((lam - b_k) / a_k) * u[1:-1]
    u[:-2] *= np.roll(a_k, 1, axis=0) / a_k
    local += u[:-2]
    v[n:0:-1] *= a_k / a[-1]
    local *= v[n:0:-1]
    total = local.sum(axis=0)
    return delta, np.finfo(float).eps * (2.0 * (total[0] + total[1]) + np.abs(delta))


def test_rounding_bound_is_one_march_equal_to_two(monkeypatch):
    # The chain and its reversal run as one batch of two chains, and the
    # batch runs the same elementwise operations as each chain alone:
    # Delta and the bound are those of two marches to the bit, for an
    # array of lam and for a scalar.
    rng = np.random.default_rng(33)
    chains = [harper_chain(n, f, 0.3) for n, f in ((89, 55), (144, 89), (233, 144))]
    chains += [PeriodicJacobi.odd(odd_values(k, 1e-4)) for k in (2, 4, 8)]
    chains += [random_operator(rng, n) for n in range(1, 65)]
    calls = []
    run = transfer.March.run

    def counted(*args, **kwargs):
        calls.append(1)
        return run(*args, **kwargs)

    for op in chains:
        edges = band_edges_eig(op)
        lam = np.concatenate([edges, 0.5 * (edges[1:-1:2] + edges[2::2]), rng.uniform(-3.5, 3.5, 4)])
        for points in (lam, np.float64(lam[-1])):
            reference = _rounding_by_two_marches(op, points)
            monkeypatch.setattr(transfer.March, "run", counted)
            calls.clear()
            delta, bound = transfer.discriminant_rounding(op, points)
            monkeypatch.setattr(transfer.March, "run", run)
            assert len(calls) == 1
            assert np.shape(delta) == np.shape(bound) == np.shape(points)
            assert np.array_equal(delta, reference[0]) and np.array_equal(bound, reference[1])


def _open_gap_midpoints(op):
    edges = band_edges_eig(op)
    lower, upper = edges[1:-1:2], edges[2::2]
    return 0.5 * (lower + upper)[upper > lower]


def test_theta_average_meets_the_march_within_its_rounding_bound():
    # At every open gap's midpoint of the corpus chains, N = 8, 24 and 64,
    # s = 0..4, the theta-average of the Bloch spectra, which never runs
    # the march, is arccosh(|Delta| / 2) within the march's rounding bound
    # carried through arccosh, plus 4 N eps max(1, h) for the sum of logs.
    # At M = 128 every height h has M h >= 36, so the trapezoid rule's
    # exp(-M h) / M is below that.
    M, eps = 128, np.finfo(float).eps
    for n in (8, 24, 64):
        for s in range(5):
            op = corpus_chain(n, s)
            mid = _open_gap_midpoints(op)
            delta, rounding = transfer.discriminant_rounding(op, mid)
            height = np.arccosh(np.abs(delta) / 2.0)
            average = theta_average_heights(op, mid, M)
            assert np.all(M * average >= 36.0)
            bound = rounding / np.sqrt(delta**2 - 4.0) + 4 * n * eps * np.maximum(1.0, height)
            assert np.all(np.abs(average - height) <= bound)


def test_march_and_theta_average_heights_meet_mp80():
    # At the same 465 midpoints, against arccosh(|Delta| / 2) with Delta by
    # the recurrence at 80 digits: the march's height lies within its
    # rounding bound carried through arccosh, with no slack added, and the
    # theta-average at M = 128 within 4 N eps max(1, h). The 80-digit
    # Delta is itself held to the exact rational one at N = 3, 8 and 16.
    for n in (3, 8, 16):
        for s in range(5):
            op = corpus_chain(n, s)
            mid = _open_gap_midpoints(op)
            for d, x in zip(mp_discriminant(op, mid, 80), mid):
                exact = exact_discriminant(op, x)[0]
                with mpmath.workdps(100):
                    exact = mpmath.mpf(exact.numerator) / exact.denominator
                    assert abs(d - exact) <= abs(exact) * mpmath.mpf(10) ** -70
    M, eps = 128, np.finfo(float).eps
    for n in (8, 24, 64):
        for s in range(5):
            op = corpus_chain(n, s)
            mid = _open_gap_midpoints(op)
            oracle = mp_heights(op, mid, 80)
            delta, rounding = transfer.discriminant_rounding(op, mid)
            march = np.arccosh(np.abs(delta) / 2.0)
            assert np.all(np.abs(march - oracle) <= rounding / np.sqrt(delta**2 - 4.0))
            average = theta_average_heights(op, mid, M)
            assert np.all(np.abs(average - oracle) <= 4 * n * eps * np.maximum(1.0, oracle))


def _weak_bond_chain(period):
    rng = np.random.default_rng(period)
    return random_operator(rng, period, hop_range=(0.05, 0.1))


def test_monodromy_overflow_raises():
    # |M| grows like prod|lam - b| / prod a, past 1e308 at N = 300.
    op = _weak_bond_chain(300)
    with pytest.raises(ValueError, match="overflow"):
        transfer.March(op.hopping).at(np.array([0.0, 1.7])).monodromy(op.onsite)
    # A denormal bond overflows the site factors before the first step.
    with pytest.raises(ValueError, match="overflow"):
        transfer.March([1e-310, 1.0]).at(0.3).trace([0.0, 0.5])
    # The rounding bound can pass the float range where the march does not.
    op = _weak_bond_chain(241)
    transfer.March(op.hopping).at(np.array([1.7])).trace(op.onsite)
    with pytest.raises(ValueError, match="overflow"):
        transfer.discriminant_rounding(op, np.array([1.7]))


def test_bisection_on_overflowing_chain_raises():
    with pytest.raises(ValueError, match="overflow"):
        band_edges_bisection(_weak_bond_chain(300))


def test_bisection_on_weak_bonds_below_overflow_matches_eig():
    op = _weak_bond_chain(100)
    scale = max(1.0, np.max(np.abs(op.onsite)) + 2.0 * np.max(op.hopping))
    err = np.max(np.abs(band_edges_bisection(op) - band_edges_eig(op)))
    assert err <= 1e-9 * scale


def test_batched_value_march_equals_single_chains():
    # The batch runs the same elementwise operations as one chain at a time.
    rng = np.random.default_rng(10)
    lam = np.linspace(-3.5, 3.5, 9)
    for period in (1, 2, 5, 13):
        hopping = rng.uniform(0.4, 1.8, (period, 3, 4))
        onsite = rng.uniform(-1.5, 1.5, (period, 3, 4))
        batch = transfer.March(hopping).at(lam[:, None, None]).trace(onsite)[0]
        assert batch.shape == (9, 3, 4)
        for i in range(3):
            for j in range(4):
                single = transfer.March(hopping[:, i, j]).at(lam).trace(onsite[:, i, j])[0]
                assert np.array_equal(batch[:, i, j], single)


def test_march_rows_are_the_same_bits_on_every_path(monkeypatch):
    # One chain takes its factors a_{k-1} / a_k and 1 / a_k as Python
    # floats, a batch as arrays: both come from the same array division,
    # and the blocks of site factors change no operation. So every row is
    # the same at any FACTOR_BLOCK, and a chain marched alone gives its
    # own column of the batch of its rotations (rotation N - 1), to the
    # bit, as the Delta of a jacobian_at evaluation needs. A prepared
    # march run again is the same march, and so is the batch with its
    # operands in the rows' shape (March.at with rows), which the default
    # FACTOR_BLOCK allows here and blocks of 1 and 7 numbers refuse,
    # leaving the per-site broadcast. One March of the chain,
    # prepared anew at each lam, derivs and history in turn, gives the
    # bits of a fresh discriminant every time.
    def bits(rows):
        return [(row.shape, row.tobytes()) for row in rows]

    default = transfer.FACTOR_BLOCK
    rng = np.random.default_rng(18)
    for n in (1, 2, 5, 13):
        op = random_operator(rng, n)
        index = transfer.rotations(n)
        rotated = op.hopping[index], op.onsite[index]
        reused = transfer.March(op.hopping)
        for lam in (rng.uniform(-3.5, 3.5), rng.uniform(-3.5, 3.5, 2),
                    rng.uniform(-3.5, 3.5, (3, 3))):
            for derivs in (0, 1, 2):
                for history in (False, True):
                    marched = set()
                    for block in (default, 1, 7):
                        monkeypatch.setattr(transfer, "FACTOR_BLOCK", block)
                        prepared = transfer.March(op.hopping).at(lam, derivs)
                        one = prepared.run(op.onsite, history)
                        batch = transfer.March(rotated[0]).at(np.asarray(lam)[..., None],
                                                              derivs).run(rotated[1], history)
                        assert len(one) == (n + 2 if history else 2)
                        assert bits(one) == bits(row[..., -1] for row in batch)
                        assert bits(prepared.run(op.onsite, history)) == bits(one)
                        march = transfer.March(rotated[0])
                        for rows in (False, True):
                            again = march.at(np.asarray(lam)[..., None], derivs, rows)
                            laid_out = np.shape(again.lam) == again.start.shape[1:]
                            if block in (default, 1):  # room for the N rows, and for none
                                assert laid_out == (rows and block == default)
                            assert bits(again.run(rotated[1], history)) == bits(batch)
                        rows = reused.at(lam, derivs).run(op.onsite, history)
                        fresh = transfer.March(op.hopping).at(lam, derivs).trace(op.onsite)
                        assert bits([rows[-1][:, 0] + rows[-2][:, 1]]) == bits([fresh])
                        assert bits([reused.at(lam, derivs).trace(op.onsite)]) == bits([fresh])
                        marched.add((tuple(bits(one)), tuple(bits(batch))))
                    assert len(marched) == 1


def test_one_chain_bond_ratio_overflow_raises():
    # a_0 / a_1 = 1e310 leaves the float range, though no site factor
    # (lam - b_k) / a_k does: the march raises on the bond quotient alone,
    # for one chain and for a batch of two.
    a, b = np.array([1e300, 1e-10]), np.zeros(2)
    with pytest.raises(ValueError, match="overflow"):
        transfer.March(a).at(0.3).trace(b)
    with pytest.raises(ValueError, match="overflow"):
        transfer.March(np.stack([a, [1.0, 1.0]], axis=1)).at(0.3).trace(np.zeros((2, 2)))


def test_fused_delta_equals_the_value_march():
    # Rotation N - 1 of the Jacobian's batch is the chain itself, marched
    # with the same operations: its Delta is March.trace's, to the bit.
    rng = np.random.default_rng(12)
    chains = [random_operator(rng, n) for n in range(1, 25)]
    chains += [uniform_chain(rng, n) for n in range(1, 25)]
    chains += [harper_chain(n, f_prev, 0.3) for n, f_prev in ((89, 55), (144, 89))]
    for op in chains:
        lo, hi = op.gershgorin
        lam = np.concatenate([chebyshev_nodes((lo, hi), op.period), rng.uniform(lo, hi, 5)])
        delta, grad = transfer.jacobian_at(op.hopping, lam)(op.onsite)
        assert delta.shape == lam.shape and grad.shape == lam.shape + (op.period,)
        assert np.array_equal(delta, transfer.March(op.hopping).at(lam).trace(op.onsite)[0])


def test_prepared_jacobian_is_the_one_chain_marches_to_the_bit(monkeypatch):
    # Delta is March.trace's and column j is -M[1, 0] / a_j of rotation
    # j marched alone, both to the bit; one closure over many onsite
    # vectors gives the bits of fresh calls, and its start rows, which
    # every call reads, cannot be written.
    rng = np.random.default_rng(19)
    preparations, at = [], transfer.March.at

    def kept(*args, **kwargs):
        preparations.append(at(*args, **kwargs))
        return preparations[-1]

    monkeypatch.setattr(transfer.March, "at", kept)
    for n in (1, 2, 5, 13):
        op = random_operator(rng, n)
        for lam in (rng.uniform(-3.5, 3.5), rng.uniform(-3.5, 3.5, 4)):
            jacobian = transfer.jacobian_at(op.hopping, lam)
            delta, grad = jacobian(op.onsite)
            assert np.array_equal(delta, transfer.March(op.hopping).at(lam).trace(op.onsite)[0])
            for j in range(n):
                column = -monodromy(op.shifted(j + 1), lam)[0][1, 0] / op.hopping[j]
                assert np.array_equal(grad[..., j], column)
            start = preparations[-1].start
            with pytest.raises(ValueError, match="read-only"):
                start[1, 0, 0] = 2.0
            for _ in range(50):
                b = rng.uniform(-1.5, 1.5, n)
                fresh = transfer.jacobian_at(op.hopping, lam)(b)
                for reused, new in zip(jacobian(b), fresh):
                    assert reused.shape == new.shape and reused.tobytes() == new.tobytes()


def test_prepared_jacobian_names_an_overflowing_bond_and_site():
    # A subnormal bond is named when the preparation forms its factors,
    # before any site is marched; an overflowing monodromy is named at its
    # site when the onsite vector is marched.
    lam = np.array([0.3, 1.7])
    with pytest.raises(ValueError, match=r"^transfer recurrence overflowed at bond 0 of period 2: "
                       r"a_0 = 1e-310 puts a_1 / a_0 or 1 / a_0 beyond the float range$"):
        transfer.jacobian_at([1e-310, 1.0], lam)
    op = _weak_bond_chain(300)
    jacobian = transfer.jacobian_at(op.hopping, lam)
    with pytest.raises(ValueError, match=r"^transfer recurrence overflowed at site \d+ of period 300: "
                       r"the monodromy exceeds the float range$"):
        jacobian(op.onsite)


@pytest.mark.parametrize("hopping, k", [((1.0, 2.0, 1e-310), 2), ((2.0, 1e-310, 1.0), 1),
                                        ((1.0, 1e-310, 1e-310, 3.0), 1)])
def test_rotated_batch_names_the_chains_own_bond(hopping, k):
    # jacobian_at marches the chain's N rotations as one batch; a bond
    # whose factor overflows is named by its index in the chain, in
    # March's words, not by its place in a rotation.
    n = len(hopping)
    message = (f"transfer recurrence overflowed at bond {k} of period {n}: a_{k} = 1e-310 "
               f"puts a_{(k - 1) % n} / a_{k} or 1 / a_{k} beyond the float range")
    lam, onsite = np.array([0.3, 1.7]), np.zeros(n)
    for call in (lambda: transfer.March(hopping).at(lam).trace(onsite),
                 lambda: transfer.jacobian_at(hopping, lam),
                 lambda: transfer.jacobian_at(hopping, lam)(onsite)):
        with pytest.raises(ValueError) as error:
            call()
        assert str(error.value) == message


@pytest.mark.parametrize("hopping, message", [
    pytest.param((2.0, 1e-310, 1.0), "transfer recurrence overflowed at bond 1 of period 3: "
                 "a_1 = 1e-310 puts a_0 / a_1 or 1 / a_1 beyond the float range", id="chain"),
    pytest.param((1e-10, 1e300, 1e200, 1e100), "transfer recurrence overflowed at bond 0 of "
                 "period 4: a_0 = 1e-10 puts a_1 / a_0 beyond the float range", id="reversal"),
])
def test_rounding_bound_names_the_chains_own_bond(hopping, message):
    # discriminant_rounding marches the chain with its reversal, whose
    # bonds run backward; a bond whose factor overflows is named by its
    # index in the chain. A factor of the chain itself is named in
    # March's words; the reversal alone divides a_1 = 1e300 by
    # a_0 = 1e-10, where the chain's own march answers.
    op, lam = PeriodicJacobi(hopping, np.zeros(len(hopping))), np.array([0.5])
    with pytest.raises(ValueError) as error:
        transfer.discriminant_rounding(op, lam)
    assert str(error.value) == message
    try:
        assert np.all(np.isfinite(transfer.March(op.hopping).at(lam).trace(op.onsite)))
    except ValueError as refused:
        assert str(refused) == message


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_public_marches_refuse_an_energy_that_is_not_finite(monkeypatch, bad):
    # A march at a nan or infinite lam answers nan; transfer's public
    # functions refuse such a lam, alone or among finite ones, before any
    # site is marched.
    def refuse(*args, **kwargs):
        raise AssertionError("march")

    monkeypatch.setattr(transfer.March, "run", refuse)
    op = PeriodicJacobi([1.0, 0.8, 1.2], [0.0, 0.5, -0.3])
    for lam in (bad, np.array([0.3, bad])):
        for call in (lambda: transfer.March(op.hopping).at(lam).trace(op.onsite),
                     lambda: transfer.March(op.hopping).at(lam, 2).trace(op.onsite),
                     lambda: transfer.March(op.hopping).at(lam, 1).monodromy(op.onsite),
                     lambda: transfer.jacobian_at(op.hopping, lam),
                     lambda: transfer.jacobian_at(op.hopping, lam)(op.onsite),
                     lambda: transfer.discriminant_rounding(op, lam),
                     lambda: transfer.March(op.hopping).at(lam)):
            with pytest.raises(ValueError, match="^energies lam must be finite$"):
                call()


def test_blind_preparation_holds_at_most_factor_block_numbers_per_operand(monkeypatch):
    # The rotated batch's operands take the rows' shape, N rows of
    # 2 (N + 1) N numbers at the blind solve's N + 1 nodes, only while
    # they fit in FACTOR_BLOCK numbers, up to N = 25; longer chains keep
    # the per-site broadcast. Either way no operand, nor a block of
    # shifts, holds more than FACTOR_BLOCK numbers.
    def numbers(operand):
        return sum(map(np.size, operand)) if isinstance(operand, list) else np.size(operand)

    seen, run = [], transfer.March.run

    def kept(march, *args, **kwargs):
        seen.append(march)
        return run(march, *args, **kwargs)

    monkeypatch.setattr(transfer.March, "run", kept)
    rng = np.random.default_rng(35)
    for n in (1, 2, 7, 24, 25, 26, 40):
        op = random_operator(rng, n)
        transfer.jacobian_at(op.hopping, chebyshev_nodes(op.gershgorin, n))(op.onsite)
        march = seen[-1]
        rows = np.shape(march.lam) == march.start.shape[1:]
        assert rows == (2 * n * n * (n + 1) <= transfer.FACTOR_BLOCK) == (n <= 25)
        operands = (march.a, march.back, march.up, march.lam, march.start)
        assert max(map(numbers, operands)) <= transfer.FACTOR_BLOCK
        assert march.block * max(np.size(march.lam), np.prod(march.start.shape[3:])) \
            <= transfer.FACTOR_BLOCK


def test_onsite_jacobian_over_its_sum_is_the_squared_bloch_eigenvector():
    # Hellmann-Feynman: at a Bloch eigenvalue E_i, dE_i/db_n = psi_i(n)^2,
    # which is d Delta / d b_n over its sum over n, that sum being
    # -Delta'(E_i). Checked against dense eigh's eigenvectors at theta = 0
    # and pi on corpus chains N = 2..24 (worst 1.2e-13).
    for n in range(2, 25):
        for s in range(5):
            op = corpus_chain(n, s)
            for theta in (0.0, np.pi):
                w, v = np.linalg.eigh(floquet_matrix(op, theta))
                grad = transfer.jacobian_at(op.hopping, w)(op.onsite)[1]
                rows = grad / np.sum(grad, axis=-1, keepdims=True)
                assert np.max(np.abs(rows - np.abs(v.T) ** 2)) <= 1e-12


def test_rotation_index_ends_with_the_chain():
    for n in (1, 2, 7):
        assert np.array_equal(transfer.rotations(n)[-1], np.arange(n))  # rotation N - 1 is the chain


@pytest.mark.parametrize("period", range(1, 13))
def test_coefficient_jacobian_matches_central_differences(period):
    # The onsite Jacobian of Delta's node values, its coefficients in
    # the Lagrange basis of the nodes.
    rng = np.random.default_rng(100 + period)
    op = random_operator(rng, period)
    x = op.onsite
    nodes = chebyshev_nodes(op.gershgorin, period)

    def coefficients(x):
        return transfer.March(op.hopping).at(nodes).trace(x)[0]

    _, analytic = transfer.jacobian_at(op.hopping, nodes)(op.onsite)
    assert analytic.shape == (period + 1, period)
    fd = np.zeros_like(analytic)
    for j in range(period):
        h = 1e-6 * max(1.0, abs(x[j]))
        step = np.zeros_like(x)
        step[j] = h
        fd[:, j] = (coefficients(x + step) - coefficients(x - step)) / (2.0 * h)
    assert np.max(np.abs(analytic - fd)) <= 1e-7 * max(1.0, np.max(np.abs(analytic)))
