import numpy as np
import pytest

from hillbands import (
    Discriminant,
    PeriodicJacobi,
    band_edges_bisection,
    band_edges_eig,
    discriminant_from_edges,
    inverse,
    recover_onsite,
    recover_operator_from_edges,
    transfer,
)
from hillbands.inverse import chain_from_divisor, chebyshev_nodes

from helpers import (
    corpus_chain,
    edge_error,
    free_chain,
    free_discriminant,
    harper_chain,
    long_edge_data,
    power_coefficients,
    random_operator,
    record_marches,
    run_cli,
    strict_json,
    tiled,
    two_march_solvers,
)


def test_onsite_jacobian_matches_finite_differences():
    rng = np.random.default_rng(41)
    op = random_operator(rng, 5)
    n = op.period

    def coeff_map(b):
        return np.prod(op.hopping) * power_coefficients(PeriodicJacobi(op.hopping, b))[:n]

    nodes = chebyshev_nodes(op.gershgorin, n)
    _, grad = transfer.jacobian_at(op.hopping, nodes)(op.onsite)
    analytic = np.prod(op.hopping) * np.linalg.inv(np.vander(nodes, increasing=True))[:n] @ grad
    h = 1e-6
    fd = np.zeros((n, n))
    for j in range(n):
        bp, bm = op.onsite.copy(), op.onsite.copy()
        bp[j] += h
        bm[j] -= h
        fd[:, j] = (coeff_map(bp) - coeff_map(bm)) / (2.0 * h)
    assert np.allclose(analytic, fd, atol=1e-7)


def test_recover_onsite_near_truth():
    rng = np.random.default_rng(43)
    op = random_operator(rng, 6)
    disc = Discriminant.from_operator(op)
    start = op.onsite + rng.uniform(-0.05, 0.05, op.period)
    found = recover_onsite(disc, op.hopping, initial=start)
    assert np.allclose(found.onsite, op.onsite, atol=1e-9)


def test_recover_onsite_default_start_reproduces_discriminant():
    rng = np.random.default_rng(47)
    op = random_operator(rng, 4)
    disc = Discriminant.from_operator(op)
    found = recover_onsite(disc, op.hopping)
    # Whichever solution branch the solve lands on, the spectrum must match.
    assert np.allclose(power_coefficients(found), power_coefficients(op), rtol=0.0, atol=1e-9)


def test_recover_onsite_accepts_raw_coefficients():
    op = PeriodicJacobi([1.0, 1.0], [0.4, -0.4])
    coeffs = power_coefficients(op)
    found = recover_onsite(coeffs, [1.0, 1.0], initial=[0.3, -0.3])
    assert np.allclose(np.sort(found.onsite), [-0.4, 0.4], atol=1e-10)


def test_recover_onsite_validates_input():
    op = PeriodicJacobi([1.0, 1.0], [0.4, -0.4])
    disc = Discriminant.from_operator(op)
    with pytest.raises(ValueError):
        recover_onsite(disc, [1.0, 1.0, 1.0])  # degree/period mismatch
    with pytest.raises(ValueError):
        recover_onsite(disc, [2.0, 1.0])  # leading coefficient inconsistent


def test_blind_solve_reports_an_unattainable_target():
    # Delta = lam^2 - 1 at a = (1, 1) has real zeros, but b0 + b1 = 0 with
    # b0 b1 = 1 has no real solution, so every start fails.
    with pytest.raises(RuntimeError, match="no start out of 64 converged"):
        recover_onsite([-1.0, 0.0, 1.0], [1.0, 1.0])


@pytest.mark.filterwarnings("error")
def test_recover_onsite_names_the_float_range():
    # prod a = 10^400 and 10^-400 leave the float range, and so do the
    # power-basis coefficients of (prod a) Delta: the error says so,
    # where it once blamed the count of the underflowed coefficients.
    for target, hopping in ((free_discriminant(400, 10.0), np.full(400, 10.0)),
                            (free_discriminant(200, 0.01), np.full(200, 0.01))):
        with pytest.raises(ValueError, match="float range"):
            recover_onsite(target, hopping)


def test_recover_onsite_checks_the_hoppings_before_any_march(monkeypatch):
    # prod a = 1 at a = (-1, -1) passed the float-range check, and the
    # blind solve ran before the chain was rejected; a = (0, 1) and
    # (inf, 1) were reported as leaving the float range.
    def refuse(*args, **kwargs):
        raise AssertionError("march")

    monkeypatch.setattr(transfer.March, "run", refuse)
    for hopping, message in (([-1.0, -1.0], "hoppings must be positive"),
                             ([0.0, 1.0], "hoppings must be positive"),
                             ([np.inf, 1.0], "coefficients must be finite"),
                             ([np.nan, 1.0], "coefficients must be finite")):
        for initial in (None, [0.0, 0.0]):
            with pytest.raises(ValueError, match=message):
                recover_onsite([-2.0, 0.0, 1.0], hopping, initial)
        with pytest.raises(ValueError, match=message):
            recover_operator_from_edges([1.0, 3.0], [1.5, 2.5], hopping)


def test_recover_onsite_refuses_a_malformed_start_before_any_march(monkeypatch):
    # A start must be N finite values in one dimension; any other is
    # refused by name, before any march.
    def refuse(*args, **kwargs):
        raise AssertionError("march")

    monkeypatch.setattr(transfer.March, "run", refuse)
    for initial in ([0.1], [0.1, -0.1, 0.2], [[0.1, 0.2]], [np.nan, 0.0]):
        with pytest.raises(ValueError, match="initial must be N = 2 finite onsite energies"):
            recover_onsite([-2.0, 0.0, 1.0], [1.0, 1.0], initial)


def test_recover_onsite_checks_the_target_before_any_march(monkeypatch):
    # A non-finite target at prod a = 1 was reported as leaving the float
    # range; it is refused as not finite, before any march.
    def refuse(*args, **kwargs):
        raise AssertionError("march")

    monkeypatch.setattr(transfer.March, "run", refuse)
    for target in ([np.nan, 0.0, 1.0], [-2.0, np.inf, 1.0], [-2.0, 0.0, -np.inf]):
        for initial in (None, [0.0, 0.0]):
            with pytest.raises(ValueError, match="target coefficients must be finite"):
                recover_onsite(target, [1.0, 1.0], initial)


def test_recover_onsite_marches_once_per_iterate(monkeypatch):
    # Blind, from a start and from edge data, all by LM:
    # each distinct iterate is one march of the chain's rotations. The
    # chains drawn first from seeds 97 (N = 7) and 92 (N = 4) have LM
    # starts that end on several refused trials; even then lmder takes
    # each Jacobian at the x of its latest residual call, and the start is
    # judged on the residual lmder returns, so one memo slot serves it.
    rng = np.random.default_rng(97)
    chains = [random_operator(rng, n) for n in (2, 3, 4, 5)]
    chains += [random_operator(np.random.default_rng(seed), n) for seed, n in ((97, 7), (92, 4))]
    uniform = PeriodicJacobi(np.full(4, 0.9), rng.uniform(-1.5, 1.5, 4))
    periodic, antiperiodic = uniform.floquet_eigenvalues([0.0, np.pi])
    log = record_marches(monkeypatch)
    solves = [lambda op=op: recover_onsite(power_coefficients(op), op.hopping) for op in chains]
    solves += [
        lambda: recover_onsite(power_coefficients(chains[3]), chains[3].hopping,
                               initial=chains[3].onsite + 0.01),
        lambda: recover_operator_from_edges(periodic, antiperiodic, uniform.hopping),
    ]
    for solve in solves:
        del log[:]
        solve()
        assert len(log) > 2
        assert all(batched for batched, _ in log)
        assert len({chain for _, chain in log}) == len(log)


def test_blind_solve_prepares_once_and_marches_once_per_iterate(monkeypatch):
    # The rotated bonds, their factors and the start rows are formed once
    # per recover_onsite call; each distinct LM iterate then runs one
    # march, the site loop alone. The chain drawn first from seed 97
    # (N = 7) has starts that end on refused trials.
    op = random_operator(np.random.default_rng(97), 7)
    prepared, iterates = [], set()
    prepare, solve = transfer.March.at, inverse.least_squares

    def prepare_counted(*args, **kwargs):
        prepared.append(1)
        return prepare(*args, **kwargs)

    def seen(f):
        def logged(x):
            iterates.add(np.asarray(x, dtype=float).tobytes())
            return f(x)
        return logged

    def solve_logged(fun, x0, jac, **kwargs):
        return solve(seen(fun), x0, jac=seen(jac), **kwargs)

    monkeypatch.setattr(transfer.March, "at", prepare_counted)
    monkeypatch.setattr(inverse, "least_squares", solve_logged)
    log = record_marches(monkeypatch)
    for _ in range(2):
        prepared.clear()
        iterates.clear()
        del log[:]
        recover_onsite(power_coefficients(op), op.hopping)
        assert len(prepared) == 1
        assert len(log) == len(iterates) > 2


def test_blind_inversion_matches_two_march_reference(monkeypatch):
    # The fused march gives Delta to the bit, so every LM iterate, and the
    # chain found, is the same as with two marches.
    rng = np.random.default_rng(98)
    targets = [(power_coefficients(op), op.hopping)
               for op in (random_operator(rng, n) for n in range(2, 8))]
    found = [recover_onsite(*target).onsite for target in targets]
    two_march_solvers(monkeypatch)
    for target, onsite in zip(targets, found):
        assert np.array_equal(recover_onsite(*target).onsite, onsite)


def test_blind_solve_is_the_same_bits_with_operands_in_rows_or_broadcast(monkeypatch):
    # The rotated batch's operands in the rows' shape change no operation
    # of the march: on chains drawn as a ~ U(0.4, 1.8), b ~ U(-1.5, 1.5)
    # from default_rng([N, 35]), N = 3..12, each blind solve returns the
    # same bytes after the same number of marches when a FACTOR_BLOCK of
    # one number forces the per-site broadcast.
    targets = []
    for n in range(3, 13):
        op = corpus_chain(n, 35)
        targets.append((Discriminant.from_operator(op), op.hopping))
    shaped, at = [], transfer.March.at

    def spied(*args, rows=False, **kwargs):
        march = at(*args, rows=rows, **kwargs)
        if rows:
            shaped.append(np.shape(march.lam) == march.start.shape[1:])
        return march

    monkeypatch.setattr(transfer.March, "at", spied)
    log = record_marches(monkeypatch)
    runs = []
    for block in (transfer.FACTOR_BLOCK, 1):
        monkeypatch.setattr(transfer, "FACTOR_BLOCK", block)
        shaped.clear()
        runs.append([])
        for target in targets:
            del log[:]
            runs[-1].append((recover_onsite(*target).onsite.tobytes(), len(log)))
        assert shaped == [block > 1] * len(targets)
    assert runs[0] == runs[1]


def test_blind_solve_moves_on_when_a_start_misses_tol(monkeypatch):
    # The first start's LM answer and its residual, which meets TOL, are
    # moved by 1e-3 so that it misses; the solve takes the next start and
    # still returns a chain with the target Delta.
    op = random_operator(np.random.default_rng(0), 4)
    disc = Discriminant.from_operator(op)
    solve, calls = inverse.least_squares, []

    def flaky(*args, **kwargs):
        res = solve(*args, **kwargs)
        calls.append(res)
        if len(calls) == 1:
            res.x, res.fun = res.x + 1e-3, res.fun + 1e-3
        return res

    monkeypatch.setattr(inverse, "least_squares", flaky)
    found = recover_onsite(disc, op.hopping)
    assert len(calls) == 2
    got = Discriminant.from_operator(found, disc.interval).values
    assert np.max(np.abs(got - disc.values)) <= 1e-12 * np.max(np.abs(disc.values))


def test_solve_from_a_given_start_reports_an_unattainable_target():
    # b0 + b1 = 0 with b0 b1 = 1 has no real solution, so the one LM solve
    # from the given start misses TOL.
    with pytest.raises(RuntimeError, match="the solve from the given initial point did not"):
        recover_onsite([-1.0, 0.0, 1.0], [1.0, 1.0], initial=[0.0, 0.0])


def test_blind_solve_recovers_random_chains_up_to_period_8():
    # Chains drawn as a ~ U(0.4, 1.8), b ~ U(-1.5, 1.5) from
    # default_rng([N, s]), N = 3..8, s = 1000..1003: every blind solve
    # succeeds, with the target's eig edges to 1e-10 relative.
    for n in range(3, 9):
        for s in range(1000, 1004):
            op = corpus_chain(n, s)
            found = recover_onsite(Discriminant.from_operator(op), op.hopping)
            assert edge_error(found, band_edges_eig(op)) <= 1e-10, (n, s)


def test_blind_inverse_through_the_cli_on_the_benchmarks_first_fixed_targets(capsys):
    # The benchmark's fixed blind-inverse targets, block 0: from
    # default_rng([7919, 0]), for N = 3..7 in turn, the bonds from
    # U(0.4, 1.8) and then the sites from U(-1.5, 1.5). The N = 5 and 7
    # chains are inverted from the power coefficients of Delta at their
    # bonds; the answer's edges are the source chain's within
    # 1e-9 (max|b| + 2 max a).
    rng = np.random.default_rng([7919, 0])
    targets = [random_operator(rng, n) for n in range(3, 8)]
    for op in targets[2::2]:
        coeffs, hopping = (",".join(map(repr, x.tolist())) for x in (power_coefficients(op), op.hopping))
        code, out, err = run_cli(capsys, "inverse", f"--coeffs={coeffs}", f"--hopping={hopping}", "--json")
        assert code == 0 and err == ""
        payload = strict_json(out)
        found = PeriodicJacobi(payload["hopping"], payload["onsite"])
        scale = np.max(np.abs(op.onsite)) + 2 * np.max(op.hopping)
        assert np.max(np.abs(band_edges_eig(found) - band_edges_eig(op))) <= 1e-9 * scale


def test_lm_wrapper_matches_scipy_least_squares(monkeypatch):
    # inverse.least_squares calls MINPACK's lmder through leastsq;
    # scipy's least_squares(method="lm") runs the same lmder behind its
    # callback wrapper, with diag=None at x_scale="jac" (its default
    # since SciPy 1.16). So every start takes the same steps: the chains
    # found are equal to the bit, and so is every start's count of
    # evaluations.
    from scipy.optimize import least_squares as reference

    rng = np.random.default_rng(98)
    targets = [(power_coefficients(op), op.hopping)
               for op in (random_operator(rng, n) for n in range(2, 8))]

    def solved(solve):
        counts = []

        def counted(*args, **kwargs):
            res = solve(*args, **kwargs)
            counts.append(res.nfev)
            return res

        monkeypatch.setattr(inverse, "least_squares", counted)
        return [recover_onsite(*target).onsite for target in targets], counts

    found, counts = solved(inverse.least_squares)
    ref, ref_counts = solved(lambda *args, **kwargs: reference(*args, method="lm",
                                                               x_scale="jac", **kwargs))
    assert len(counts) >= len(targets)
    assert counts == ref_counts
    for onsite, expected in zip(found, ref):
        assert onsite.tobytes() == expected.tobytes()


def test_lm_is_scipy_leastsq_to_the_bit(monkeypatch):
    # inverse.least_squares calls lmder as leastsq does when given Dfun,
    # only without leastsq's probe calls and covariance, so from every
    # start it ends at the same x, bit for bit, after as many
    # evaluations: with the blind solve's budget, and with one so small
    # that the start runs out of evaluations (info 5). The residual it
    # returns, on which recover_onsite accepts a start, is leastsq's fvec
    # and fun at x, both to the bit.
    from scipy.optimize import leastsq

    calls = []
    solve = inverse.least_squares

    def recorded(fun, x0, jac, **kwargs):
        calls.append((fun, np.array(x0), jac, kwargs))
        return solve(fun, x0, jac, **kwargs)

    monkeypatch.setattr(inverse, "least_squares", recorded)
    rng = np.random.default_rng(31)
    for n in (3, 4, 5, 6, 7, 8, 9):
        op = random_operator(rng, n)
        try:
            recover_onsite(power_coefficients(op), op.hopping)
        except RuntimeError:
            pass
    assert len(calls) > 7
    infos = set()
    for fun, x0, jac, kwargs in calls:
        for budget in (kwargs["max_nfev"], 3):
            options = dict(kwargs, max_nfev=budget)
            res = solve(fun, x0, jac, **options)
            x, _, out, _, info = leastsq(fun, x0, Dfun=jac, full_output=True, ftol=options["ftol"],
                                         xtol=options["xtol"], gtol=options["gtol"], maxfev=budget)
            assert res.x.tobytes() == x.tobytes()
            assert res.nfev == out["nfev"]
            assert res.fun.tobytes() == out["fvec"].tobytes()
            assert res.fun.tobytes() == fun(res.x).tobytes()
            infos.add(info)
    assert 5 in infos and len(infos) > 1
    # An evaluation whose march overflows raises, through lmder, the
    # march's own ValueError, as it does through leastsq.
    fun, x0, jac, kwargs = calls[0]
    far = np.full(x0.size, 1e300)
    with pytest.raises(ValueError, match="transfer recurrence overflowed") as ours:
        solve(fun, far, jac, **kwargs)
    with pytest.raises(ValueError) as theirs:
        leastsq(fun, far, Dfun=jac, full_output=True)
    assert str(ours.value) == str(theirs.value)


def test_discriminant_from_edges_round_trip():
    rng = np.random.default_rng(53)
    op = random_operator(rng, 5)
    per = op.floquet_eigenvalues(0.0)
    anti = op.floquet_eigenvalues(np.pi)
    disc = discriminant_from_edges(per, anti)
    truth = Discriminant.from_operator(op, disc.interval)
    assert disc.interval == (min(per[0], anti[0]), max(per[-1], anti[-1]))
    assert np.exp(disc.log_hopping_product) == pytest.approx(np.prod(op.hopping), rel=1e-10)
    assert np.allclose(disc.values, truth.values, atol=1e-9)


def test_discriminant_from_edges_rejects_bad_data():
    op = PeriodicJacobi([1.0, 0.8, 1.1], [0.2, -0.5, 0.4])
    per = op.floquet_eigenvalues(0.0)
    anti = op.floquet_eigenvalues(np.pi)
    with pytest.raises(ValueError):
        discriminant_from_edges(per, anti[:2])  # count mismatch
    with pytest.raises(ValueError, match="nonpositive hopping product"):
        discriminant_from_edges(anti, per)  # swapped data flips the constant
    noisy = anti.copy()
    noisy[0] += 0.3
    with pytest.raises(ValueError, match="difference is not constant"):
        discriminant_from_edges(per, noisy)  # difference no longer constant
    for bad in (np.nan, np.inf, -np.inf):  # once read as an empty interval or a bad product
        for edges in ((np.array([bad, 3.0]), [1.5, 2.5]), ([1.0, 3.0], np.array([1.5, bad]))):
            with pytest.raises(ValueError, match="edge values must be finite"):
                discriminant_from_edges(*edges)
    for edges in (([], []), ([], [1.0]), ([1.0], [])):
        with pytest.raises(ValueError, match="need at least one edge of each kind"):
            discriminant_from_edges(*edges)
    with pytest.raises(ValueError, match="need equally many"):
        discriminant_from_edges([1.0, 3.0], [2.0])


@pytest.mark.filterwarnings("error")
def test_discriminant_from_edges_refuses_node_values_that_overflow():
    # The products of edge distances overflow at many of the 641 nodes:
    # refused, with no overflow warning.
    with pytest.raises(ValueError, match="of the 641 node values of Delta are not finite"):
        discriminant_from_edges(*long_edge_data())


def test_discriminant_from_edges_reads_the_hopping_product_at_one_edge():
    # log(prod a) from the periodic edge farthest from every antiperiodic
    # edge: within 1.3e-10 on these random chains (the first-order bound
    # allows 5.6e-8 at N = 64), and within 1e-13 on the Harper chains.
    for n in (8, 32, 64):
        for s in range(20):
            op = corpus_chain(n, s)
            disc = discriminant_from_edges(*op.floquet_eigenvalues([0.0, np.pi]))
            assert abs(disc.log_hopping_product - np.sum(np.log(op.hopping))) <= 1e-9
    for n, f_prev in ((89, 55), (144, 89), (233, 144)):
        op = harper_chain(n, f_prev, 0.3)
        disc = discriminant_from_edges(*op.floquet_eigenvalues([0.0, np.pi]))
        assert abs(disc.log_hopping_product) <= 1e-12


def test_discriminant_from_edges_refuses_coincident_edge_sets():
    # Every periodic edge is also an antiperiodic one, so prod a = 0: said
    # so, not read as a log(prod a) of -inf or node values that are not finite.
    for per, anti in (([1.0, 3.0], [1.0, 3.0]), ([1.0, 1.0], [1.0, 2.0])):
        with pytest.raises(ValueError, match="nonpositive hopping product"):
            discriminant_from_edges(per, anti)


@pytest.mark.parametrize("n", [128, 384])
def test_discriminant_from_edges_refuses_edges_that_do_not_determine_the_hopping_product(n):
    # Bands narrower than rounding: the edges fix log(prod a) only to
    # 1.4e-5 at N = 128 and 8.6 at N = 384, so any answer could be wrong.
    op = random_operator(np.random.default_rng(0), n)
    with pytest.raises(ValueError, match=f"edge data at N = {n} does not determine the hopping"):
        discriminant_from_edges(*op.floquet_eigenvalues([0.0, np.pi]))


def test_recover_operator_from_edges_uniform_hopping():
    op = free_chain(4)
    onsite = np.array([0.6, -0.2, 0.1, -0.5])
    op = PeriodicJacobi(op.hopping, onsite)
    per = op.floquet_eigenvalues(0.0)
    anti = op.floquet_eigenvalues(np.pi)
    _, found = recover_operator_from_edges(per, anti)
    assert np.allclose(band_edges_eig(found), np.sort(np.concatenate([per, anti])), atol=1e-8)


def test_recover_operator_from_edges_with_known_hopping():
    rng = np.random.default_rng(59)
    op = random_operator(rng, 4)
    per = op.floquet_eigenvalues(0.0)
    anti = op.floquet_eigenvalues(np.pi)
    found = recover_onsite(discriminant_from_edges(per, anti), op.hopping,
                           initial=op.onsite + 0.03)
    assert np.allclose(found.onsite, op.onsite, atol=1e-8)
    with pytest.raises(ValueError):
        recover_operator_from_edges(per, anti, hopping=2.0 * op.hopping)


def test_recover_operator_from_edges_names_a_wrong_hopping_count(monkeypatch):
    # One bond for two edges of each kind was refused as a target of the
    # wrong shape for period 1, a target the caller never gave.
    def refuse(*args, **kwargs):
        raise AssertionError("march")

    monkeypatch.setattr(transfer.March, "run", refuse)
    for hopping, count in (([1.0], 1), ([1.0, 1.0, 1.0], 3), (np.ones((1, 1)), 1)):
        with pytest.raises(ValueError, match=f"need 2 hoppings for 2 edges of each kind, not {count}"):
            recover_operator_from_edges([1.0, 3.0], [1.5, 2.5], hopping)


def test_recover_operator_from_edges_returns_the_discriminant_of_the_data():
    per, anti = [1.0, 3.0], [1.5, 2.5]
    for hopping in (None, [0.25, 0.75]):
        disc, op = recover_operator_from_edges(per, anti, hopping)
        expected = discriminant_from_edges(per, anti)
        assert disc.interval == expected.interval
        assert disc.log_hopping_product == expected.log_hopping_product
        assert np.array_equal(disc.values, expected.values)
        assert edge_error(op, per + anti) <= 1e-12


def test_edge_data_in_one_row_is_the_same_as_in_one_dimension():
    # Edges shaped (1, N), in no order, give the Discriminant and the chain
    # of the same edges in 1-D, to the bit, with and without hoppings.
    rng = np.random.default_rng(61)
    for n in (2, 3, 5):
        op = random_operator(rng, n)
        per, anti = op.floquet_eigenvalues([0.0, np.pi])[:, ::-1]
        flat = discriminant_from_edges(per, anti)
        row = discriminant_from_edges(per[None, :], anti[None, :])
        assert row.interval == flat.interval and row.log_hopping_product == flat.log_hopping_product
        assert np.array_equal(row.values, flat.values)
        for hopping in (None, op.hopping):
            _, expected = recover_operator_from_edges(per, anti, hopping)
            disc, found = recover_operator_from_edges(per[None, :], anti[None, :], hopping)
            assert np.array_equal(disc.values, flat.values)
            assert np.array_equal(found.hopping, expected.hopping)
            assert np.array_equal(found.onsite, expected.onsite)


def test_onsite_jacobian_matches_per_column_minors():
    # The onsite columns of the point Jacobian at the nodes. Reference:
    # column j marched alone on the chain relabelled to start at site
    # j + 1, -M[1, 0] / a_j.
    rng = np.random.default_rng(67)
    chains = [random_operator(rng, n) for n in range(1, 25)]
    chains += [free_chain(n, rng.uniform(0.4, 1.8), rng.uniform(-1, 1))
               for n in range(1, 25)]
    chains += [tiled(random_operator(rng, cell), copies)
               for cell in (1, 2, 3, 4) for copies in (2, 3, 6)]
    for op in chains:
        n = op.period
        nodes = chebyshev_nodes(op.gershgorin, n)
        expected = np.zeros((n + 1, n))
        for j in range(n):
            minor = transfer.monodromy(op.shifted(j + 1), nodes)[0][1, 0]
            expected[:, j] = -minor / op.hopping[j]
        _, grad = transfer.jacobian_at(op.hopping, nodes)(op.onsite)
        err = np.max(np.abs(grad - expected))
        assert err <= 1e-14 * np.max(np.abs(expected))


def _own_divisor(op):
    mu = op.dirichlet_eigenvalues()
    sheet = np.where(np.abs(transfer.monodromy(op, mu)[0][1, 1]) > 1.0, 1.0, -1.0)
    return mu, sheet


def test_chain_from_its_own_divisor_round_trip():
    # A chain's edges, hopping product and divisor give the chain back.
    rng = np.random.default_rng(131)
    for n in (2, 3, 4, 5, 8, 16, 24):
        op = random_operator(rng, n)
        per, anti = op.floquet_eigenvalues([0.0, np.pi])
        found = chain_from_divisor(np.concatenate([per, anti]), *_own_divisor(op),
                                   np.sum(np.log(op.hopping)))
        assert edge_error(found, np.concatenate([per, anti])) <= 1e-13
        assert np.allclose(found.dirichlet_eigenvalues(), op.dirichlet_eigenvalues(),
                           rtol=0.0, atol=1e-13)
        if n <= 5:
            assert np.allclose(found.hopping, op.hopping, rtol=0.0, atol=1e-11)
            assert np.allclose(found.onsite, op.onsite, rtol=0.0, atol=1e-11)


def test_chain_from_divisor_takes_the_edges_in_any_layout():
    # The sorted edges of band_edges_eig and the (2, N) Bloch spectra
    # pass as they are, and give the chain back within the round trip's bounds.
    rng = np.random.default_rng(131)
    for n in (2, 3, 4, 5, 8, 16, 24):
        op = random_operator(rng, n)
        spectra = op.floquet_eigenvalues([0.0, np.pi])
        log_product = np.sum(np.log(op.hopping))
        for edges in (band_edges_eig(op), spectra):
            found = chain_from_divisor(edges, *_own_divisor(op), log_product)
            assert edge_error(found, spectra.ravel()) <= 1e-13
            assert np.allclose(found.dirichlet_eigenvalues(), op.dirichlet_eigenvalues(),
                               rtol=0.0, atol=1e-13)
            if n <= 5:
                assert np.allclose(found.hopping, op.hopping, rtol=0.0, atol=1e-11)
                assert np.allclose(found.onsite, op.onsite, rtol=0.0, atol=1e-11)


def test_chain_from_its_own_divisor_on_eig_edges():
    # The eigensolvers put a chain's own mu_j up to 2.2e-14 outside its
    # eig gap on these chains; that is within N eps max|E|, the edges'
    # rounding, so mu_j is moved onto the nearer edge. Twice as far out
    # is refused.
    chains = [corpus_chain(n, s) for n in (64, 128) for s in range(4)]
    chains += [harper_chain(89, 55, 0.3), harper_chain(144, 89, 0.3)]
    for op in chains:
        edges, (mu, sheet) = band_edges_eig(op), _own_divisor(op)
        lower, upper = edges[1:-1:2], edges[2::2]
        log_product = np.sum(np.log(op.hopping))
        found = chain_from_divisor(edges, mu, sheet, log_product)
        assert edge_error(found, edges) <= 1e-13
        moved = np.clip(mu, lower, upper)
        assert np.all(np.abs(found.dirichlet_eigenvalues() - moved)
                      <= 1e-13 * np.maximum(1.0, np.abs(moved)))
        slack = op.period * np.finfo(float).eps * np.max(np.abs(edges))
        for j, beyond in ((0, lower[0] - 2 * slack), (-1, upper[-1] + 2 * slack)):
            far = mu.copy()
            far[j] = beyond
            with pytest.raises(ValueError, match="closure of gap"):
                chain_from_divisor(edges, far, sheet, log_product)


def _assert_own_divisor_keeps_its_data(op, edges):
    """The chain from op's own divisor on these edges has the edges, and
    Dirichlet eigenvalues at op's mu_j clipped into the gaps, each within
    1e-13 max(1, |value|)."""
    mu, sheet = _own_divisor(op)
    found = chain_from_divisor(edges, mu, sheet, np.sum(np.log(op.hopping)))
    assert edge_error(found, edges) <= 1e-13
    clipped = np.clip(mu, edges[1:-1:2], edges[2::2])
    assert np.all(np.abs(found.dirichlet_eigenvalues() - clipped)
                  <= 1e-13 * np.maximum(1.0, np.abs(clipped)))


def test_chain_from_its_own_divisor_keeps_its_data_at_long_periods():
    # The chain itself is lost from N = 24 on, by the problem's
    # conditioning, but its data are kept: corpus chains N = 8 .. 256,
    # s = 0..3, on bisection edges, and up to N = 128 on eig edges, and
    # the Harper approximants N = 89, 144 and 233 on eig edges.
    for n in (8, 16, 24, 32, 40, 64, 128, 256):
        for s in range(4):
            op = corpus_chain(n, s)
            _assert_own_divisor_keeps_its_data(op, band_edges_bisection(op))
            if n <= 128:
                _assert_own_divisor_keeps_its_data(op, band_edges_eig(op))
    for n, f_prev in ((89, 55), (144, 89), (233, 144)):
        op = harper_chain(n, f_prev, 0.3)
        _assert_own_divisor_keeps_its_data(op, band_edges_eig(op))


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 9")
def test_chain_from_its_own_divisor_keeps_its_eig_edges_at_n_256():
    # Every band at N = 256 is narrower than the eig route's closing
    # slack, and the answer's edges read 7.9e-14 to 7.5e-13 off.
    for s in range(4):
        op = corpus_chain(256, s)
        _assert_own_divisor_keeps_its_data(op, band_edges_eig(op))


def test_chain_from_divisor_refuses_an_odd_edge_count():
    for edges, mu in (([-2.0, 1.0, 2.0], [0.0]), ([1.0], []), ([-2.0, -1.0, 1.0, 1.5, 2.0], [0.0])):
        with pytest.raises(ValueError, match="need 2N edges and N - 1 divisor points"):
            chain_from_divisor(edges, mu, np.ones(len(mu)), 0.0)


def test_edges_without_hoppings_on_random_chains():
    # Two hundred chains, N = 2..32: the divisor at the gap midpoints,
    # no solver; the rebuilt chain has the given edges.
    for seed in range(500, 700):
        rng = np.random.default_rng(seed)
        op = random_operator(rng, 2 + (seed - 500) % 31)
        per, anti = op.floquet_eigenvalues([0.0, np.pi])
        _, found = recover_operator_from_edges(per, anti)
        assert edge_error(found, np.concatenate([per, anti])) <= 1e-12


def test_edges_without_hoppings_on_uniform_chains():
    # Every gap is closed, so every Dirichlet eigenvalue sits on its
    # closed gap, at height 0: the uniform chain comes back.
    for n in range(1, 33):
        per, anti = free_chain(n, 0.9, -0.2).floquet_eigenvalues([0.0, np.pi])
        _, found = recover_operator_from_edges(per, anti)
        assert np.all(np.abs(found.hopping - 0.9) <= 1e-12)
        assert np.all(np.abs(found.onsite + 0.2) <= 1e-12)


def test_chain_from_divisor_period_one():
    found = chain_from_divisor([0.3 + 2.4, 0.3 - 2.4], [], [], np.log(1.2))
    assert found.hopping == pytest.approx([1.2], rel=1e-15)
    assert found.onsite == pytest.approx([0.3], rel=1e-15)
    assert recover_operator_from_edges([0.3 + 2.4], [0.3 - 2.4])[1] == found


def test_chain_from_divisor_rejects_bad_divisors():
    op = PeriodicJacobi([1.0, 0.8, 1.2], [0.0, 0.5, -0.3])
    per, anti = op.floquet_eigenvalues([0.0, np.pi])
    mu, sheet = _own_divisor(op)
    log_product = np.sum(np.log(op.hopping))
    edges = band_edges_eig(op)
    outside = [mu.copy(), mu.copy(), mu.copy()]
    outside[0][0] = edges[1] - 1e-9  # below gap 0
    outside[1][1] = edges[4] + 1e-9  # above gap 1
    outside[2][0] = mu[1]  # in gap 1, not gap 0
    for bad in outside:
        with pytest.raises(ValueError, match="closure of gap"):
            chain_from_divisor(np.concatenate([per, anti]), bad, sheet, log_product)
    for bad in ([1.0, 0.0], [1.0, 2.0], [-1.0, np.nan]):
        with pytest.raises(ValueError, match="sheet"):
            chain_from_divisor(np.concatenate([per, anti]), mu, bad, log_product)
    with pytest.raises(ValueError):
        chain_from_divisor(np.concatenate([per, anti]), mu[:1], sheet[:1], log_product)
    # Input that is not finite is named, not taken for a bad weight or divisor.
    for bad in (np.nan, np.inf, -np.inf):
        for end in (0, -1):
            edges = np.concatenate([per, anti])
            edges[end] = bad
            with pytest.raises(ValueError, match="edge values must be finite"):
                chain_from_divisor(edges, mu, sheet, log_product)
        with pytest.raises(ValueError, match="divisor points mu_j must be finite"):
            chain_from_divisor(np.concatenate([per, anti]), [mu[0], bad], sheet, log_product)
        with pytest.raises(ValueError, match="log\\(prod a\\) = .* is not finite"):
            chain_from_divisor(np.concatenate([per, anti]), mu, sheet, bad)


def test_chain_from_divisor_refuses_a_weight_that_is_not_finite():
    # log(prod a) = -800: sinh h = sqrt(|prod(mu - E)|) / (2A) overflows.
    with pytest.raises(ValueError, match="a Dirichlet weight is not finite"):
        chain_from_divisor([-2.0, 1.0, -1.0, 2.0], [0.0], [1.0], -800.0)
