import numpy as np
import pytest

from hillbands import (
    Discriminant,
    PeriodicJacobi,
    band_edges_eig,
    discriminant_from_edges,
    inverse,
    newton_solve,
    recover_onsite,
    recover_operator_from_edges,
    transfer,
)
from hillbands.inverse import chain_from_divisor, chebyshev_nodes, monic_map

from helpers import (
    edge_error,
    free_discriminant,
    long_edge_data,
    power_coefficients,
    random_operator,
    record_marches,
    two_march_solvers,
)


def test_newton_solve_scalar_system():
    root = newton_solve(
        lambda x: np.array([x[0] ** 2 - 4.0]),
        lambda x: np.array([[2.0 * x[0]]]),
        [1.0],
    )
    assert root[0] == pytest.approx(2.0, abs=1e-12)


def test_newton_solve_two_dimensional():
    # Intersection of a circle and a line.
    def fun(x):
        return np.array([x[0] ** 2 + x[1] ** 2 - 2.0, x[0] - x[1]])

    def jac(x):
        return np.array([[2.0 * x[0], 2.0 * x[1]], [1.0, -1.0]])

    root = newton_solve(fun, jac, [2.0, 0.5])
    assert np.allclose(root, [1.0, 1.0], atol=1e-10)


def test_newton_solve_reports_failure():
    with pytest.raises(RuntimeError):
        newton_solve(
            lambda x: np.array([x[0] ** 2 + 1.0]),
            lambda x: np.array([[2.0 * x[0]]]),
            [1.0],
            max_iter=20,
        )


def test_newton_solve_halves_a_step_that_overshoots():
    # The full Newton step on arctan from 3 lands at -9.49, where the
    # residual is larger: the step is halved, and the solve still ends at 0.
    trials = []

    def fun(x):
        trials.append(float(x[0]))
        return np.arctan(x)

    root = newton_solve(fun, lambda x: np.array([[1.0 / (1.0 + x[0] ** 2)]]), [3.0])
    assert root[0] == pytest.approx(0.0, abs=1e-12)
    full = trials[1] - 3.0
    assert abs(np.arctan(trials[1])) > np.arctan(3.0)
    assert trials[2] == pytest.approx(3.0 + 0.5 * full, rel=1e-15)


def test_newton_solve_line_search_stalls():
    # At tol = 0 the residual of x^2 - 2 cannot fall below the rounding
    # of the root, so no halving lowers it in the end.
    with pytest.raises(RuntimeError, match="Newton line search stalled"):
        newton_solve(lambda x: x**2 - 2.0, lambda x: np.array([[2.0 * x[0]]]), [1.0], tol=0.0)


def test_newton_solve_runs_out_of_iterations():
    with pytest.raises(RuntimeError, match="did not converge in 2 iterations"):
        newton_solve(lambda x: x**2 - 4.0, lambda x: np.array([[2.0 * x[0]]]), [1.0],
                     max_iter=2)


def test_newton_solve_returns_a_root_with_a_singular_jacobian():
    root = newton_solve(lambda x: x**2, lambda x: np.array([[2.0 * x[0]]]), [0.0])
    assert root.tolist() == [0.0]


def test_onsite_jacobian_matches_finite_differences():
    rng = np.random.default_rng(41)
    op = random_operator(rng, 5)
    n = op.period

    def coeff_map(b):
        return np.prod(op.hopping) * power_coefficients(PeriodicJacobi(op.hopping, b))[:n]

    nodes = chebyshev_nodes(op.gershgorin, n)
    _, grad = transfer.discriminant_jacobian(op.hopping, op.onsite, nodes)
    analytic = monic_map(nodes, np.prod(op.hopping))[:n] @ grad
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
    # Whichever solution branch Newton lands on, the spectrum must match.
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

    monkeypatch.setattr(transfer, "_march_values", refuse)
    for hopping, message in (([-1.0, -1.0], "hoppings must be positive"),
                             ([0.0, 1.0], "hoppings must be positive"),
                             ([np.inf, 1.0], "coefficients must be finite"),
                             ([np.nan, 1.0], "coefficients must be finite")):
        for initial in (None, [0.0, 0.0]):
            with pytest.raises(ValueError, match=message):
                recover_onsite([-2.0, 0.0, 1.0], hopping, initial)
        with pytest.raises(ValueError, match=message):
            recover_operator_from_edges([1.0, 3.0], [1.5, 2.5], hopping)


def test_recover_onsite_checks_the_target_before_any_march(monkeypatch):
    # A non-finite target at prod a = 1 was reported as leaving the float
    # range; it is refused as not finite, before any march.
    def refuse(*args, **kwargs):
        raise AssertionError("march")

    monkeypatch.setattr(transfer, "_march_values", refuse)
    for target in ([np.nan, 0.0, 1.0], [-2.0, np.inf, 1.0], [-2.0, 0.0, -np.inf]):
        for initial in (None, [0.0, 0.0]):
            with pytest.raises(ValueError, match="target coefficients must be finite"):
                recover_onsite(target, [1.0, 1.0], initial)


def test_recover_onsite_marches_once_per_iterate(monkeypatch):
    # Blind (LM, then Newton), from a start (Newton) and from edge data:
    # each distinct iterate is one march of the chain's rotations. The
    # chains drawn first from seeds 97 (N = 7) and 92 (N = 4) have LM
    # starts that end on several refused trials, after which scipy takes
    # the Jacobian at its last accepted point, the best of the start,
    # three or more iterates back; at seed 92 an earlier start's best is
    # better still, so the memo must keep the best of the current start.
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


def test_blind_inversion_matches_two_march_reference(monkeypatch):
    # The fused march gives Delta to the bit, so every LM and Newton
    # iterate, and the chain found, is the same as with two marches.
    rng = np.random.default_rng(98)
    targets = [(power_coefficients(op), op.hopping)
               for op in (random_operator(rng, n) for n in range(2, 8))]
    found = [recover_onsite(*target).onsite for target in targets]
    two_march_solvers(monkeypatch)
    for target, onsite in zip(targets, found):
        assert np.array_equal(recover_onsite(*target).onsite, onsite)


def test_blind_solve_moves_on_when_newton_fails(monkeypatch):
    # The first start's Newton polish raises; the solve takes the next
    # start and still returns a chain with the target Delta.
    op = random_operator(np.random.default_rng(0), 4)
    disc = Discriminant.from_operator(op)
    solve, calls = inverse.newton_solve, []

    def flaky(*args, **kwargs):
        calls.append(args)
        if len(calls) == 1:
            raise RuntimeError("Newton line search stalled")
        return solve(*args, **kwargs)

    monkeypatch.setattr(inverse, "newton_solve", flaky)
    found = recover_onsite(disc, op.hopping)
    assert len(calls) == 2
    got = Discriminant.from_operator(found, disc.interval).values
    assert np.max(np.abs(got - disc.values)) <= 1e-12 * np.max(np.abs(disc.values))


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
    # that the start runs out of evaluations (info 5).
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
    with pytest.raises(ValueError):
        discriminant_from_edges(anti, per)  # swapped data flips the constant
    noisy = anti.copy()
    noisy[0] += 0.3
    with pytest.raises(ValueError):
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


def test_recover_operator_from_edges_uniform_hopping():
    op = PeriodicJacobi.free(4, hopping=1.0, onsite=0.0)
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

    monkeypatch.setattr(transfer, "_march_values", refuse)
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


def _repeated_cell(rng, cell, copies):
    op = random_operator(rng, cell)
    return PeriodicJacobi(np.tile(op.hopping, copies), np.tile(op.onsite, copies))


def test_onsite_jacobian_matches_per_column_minors():
    # The onsite columns of the point Jacobian at the nodes. Reference:
    # column j marched alone on the chain relabelled to start at site
    # j + 1, -M[1, 0] / a_j.
    rng = np.random.default_rng(67)
    chains = [random_operator(rng, n) for n in range(1, 25)]
    chains += [PeriodicJacobi.free(n, rng.uniform(0.4, 1.8), rng.uniform(-1, 1))
               for n in range(1, 25)]
    chains += [_repeated_cell(rng, cell, copies) for cell in (1, 2, 3, 4) for copies in (2, 3, 6)]
    for op in chains:
        n = op.period
        nodes = chebyshev_nodes(op.gershgorin, n)
        expected = np.zeros((n + 1, n))
        for j in range(n):
            minor = transfer.monodromy(op.shifted(j + 1), nodes)[0][1, 0]
            expected[:, j] = -minor / op.hopping[j]
        _, grad = transfer.discriminant_jacobian(op.hopping, op.onsite, nodes)
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
        found = chain_from_divisor(per, anti, *_own_divisor(op), np.sum(np.log(op.hopping)))
        assert edge_error(found, np.concatenate([per, anti])) <= 1e-13
        assert np.allclose(found.dirichlet_eigenvalues(), op.dirichlet_eigenvalues(),
                           rtol=0.0, atol=1e-13)
        if n <= 5:
            assert np.allclose(found.hopping, op.hopping, rtol=0.0, atol=1e-11)
            assert np.allclose(found.onsite, op.onsite, rtol=0.0, atol=1e-11)


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
        per, anti = PeriodicJacobi.free(n, 0.9, -0.2).floquet_eigenvalues([0.0, np.pi])
        _, found = recover_operator_from_edges(per, anti)
        assert np.all(np.abs(found.hopping - 0.9) <= 1e-12)
        assert np.all(np.abs(found.onsite + 0.2) <= 1e-12)


def test_chain_from_divisor_period_one():
    found = chain_from_divisor([0.3 + 2.4], [0.3 - 2.4], [], [], np.log(1.2))
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
            chain_from_divisor(per, anti, bad, sheet, log_product)
    for bad in ([1.0, 0.0], [1.0, 2.0], [-1.0, np.nan]):
        with pytest.raises(ValueError, match="sheet"):
            chain_from_divisor(per, anti, mu, bad, log_product)
    with pytest.raises(ValueError):
        chain_from_divisor(per, anti, mu[:1], sheet[:1], log_product)


def test_chain_from_divisor_refuses_a_weight_that_is_not_finite():
    # log(prod a) = -800: sinh h = sqrt(|prod(mu - E)|) / (2A) overflows.
    with pytest.raises(ValueError, match="a Dirichlet weight is not finite"):
        chain_from_divisor([-2.0, 1.0], [-1.0, 2.0], [0.0], [1.0], -800.0)
