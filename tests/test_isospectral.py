import itertools
import re

import numpy as np
import pytest

from hillbands import (
    Discriminant,
    PeriodicJacobi,
    band_edges_eig,
    dihedral_orbit,
    enumerate_onsite_classes,
    isospectral_neighbors,
    isospectral,
    orbit_distance,
    transfer,
)

from helpers import (
    edge_error,
    free_chain,
    odd_members_k2,
    odd_values,
    power_coefficients,
    random_operator,
    record_marches,
)


def test_orbit_members_share_discriminant():
    rng = np.random.default_rng(61)
    op = random_operator(rng, 6)
    coeffs = power_coefficients(op)
    orbit = dihedral_orbit(op)
    assert any(member == op for member in orbit)
    for member in orbit:
        assert np.allclose(power_coefficients(member), coeffs, rtol=0.0, atol=1e-9)


def test_orbit_size_generic_and_symmetric():
    generic = PeriodicJacobi([1.0] * 4, [0.1, 0.2, 0.3, 0.4])
    assert len(dihedral_orbit(generic)) == 8  # full dihedral group

    palindrome = PeriodicJacobi([1.0] * 3, [0.5, 0.2, 0.2])
    assert len(dihedral_orbit(palindrome)) == 3  # reflection is a shift here

    constant = PeriodicJacobi([1.0] * 5, [0.3] * 5)
    assert len(dihedral_orbit(constant)) == 1


def test_orbit_size_does_not_depend_on_scale():
    # Members are told apart by their exact values, not rounded to a
    # fixed number of decimals, which merged all six at scale 1e-13.
    sizes = [len(dihedral_orbit(PeriodicJacobi(np.ones(3), scale * np.array([0.0, 1.0, 2.5]))))
             for scale in (1e-13, 1.0, 1e13)]
    assert sizes == [6, 6, 6]


def test_orbit_distance():
    op = PeriodicJacobi([1.0, 0.7, 1.2], [0.5, -0.1, 0.3])
    for member in dihedral_orbit(op):
        assert orbit_distance(op, member) == 0.0
    nudged = PeriodicJacobi(op.hopping, op.onsite + [0.0, 0.01, 0.0])
    assert orbit_distance(op, nudged) == pytest.approx(0.01, abs=1e-12)
    with pytest.raises(ValueError):
        orbit_distance(op, PeriodicJacobi([1.0], [0.0]))


def _orbit_reference(op):
    """The orbit built chain by chain from shifted and reflected, first
    of each 12-decimal key kept: the reference."""
    seen = {}
    for base in (op, op.reflected()):
        for k in range(op.period):
            candidate = base.shifted(k)
            key = (tuple(np.round(candidate.hopping, 12)), tuple(np.round(candidate.onsite, 12)))
            seen.setdefault(key, candidate)
    return list(seen.values())


def test_orbit_index_arrays_match_chain_by_chain_reference():
    rng = np.random.default_rng(62)
    chains = [random_operator(rng, n) for n in range(1, 13) for _ in range(5)]
    chains += [
        PeriodicJacobi([1.0] * 3, [0.5, 0.2, 0.2]),
        PeriodicJacobi([0.9, 1.1, 0.9, 1.3], [0.4, 0.4, -0.2, -0.2]),
        PeriodicJacobi([1.0] * 5, [0.3] * 5),
        PeriodicJacobi([1.0, 2.0] * 3, [0.0, 1.0] * 3),
    ]
    for op in chains:
        reference = _orbit_reference(op)
        members = dihedral_orbit(op)
        assert len(members) == len(reference)
        for member, expected in zip(members, reference):
            assert np.array_equal(member.hopping, expected.hopping)
            assert np.array_equal(member.onsite, expected.onsite)
        other = random_operator(rng, op.period)
        for target in reference + [other]:
            expected = min(
                max(np.max(np.abs(m.hopping - target.hopping)), np.max(np.abs(m.onsite - target.onsite)))
                for m in reference
            )
            assert orbit_distance(op, target) == expected


def test_binary_enumeration_period_four():
    classes = enumerate_onsite_classes([0.0, 1.0], 4)
    assert len(classes) == 6
    assert sum(c.size for c in classes) == 16
    # Constant patterns are singletons; each class is one dihedral orbit.
    sizes = sorted(c.size for c in classes)
    assert sizes == [1, 1, 2, 4, 4, 4]
    for c in classes:
        orbit = dihedral_orbit(PeriodicJacobi(np.ones(4), np.array(c.members[0])))
        assert set(c.members) == {tuple(m.onsite.tolist()) for m in orbit}


def test_enumeration_matches_eigenvalue_oracle():
    # Independent grouping: key each pattern by its Bloch eigenvalues at
    # phases 0 and pi computed with numpy's Hermitian solver.
    values, period = [0.0, 0.5, 1.0], 4
    classes = enumerate_onsite_classes(values, period)
    groups = {}
    for pattern in itertools.product(values, repeat=period):
        op = PeriodicJacobi(np.ones(period), np.array(pattern))
        key = tuple(
            np.round(
                np.concatenate(
                    [op.floquet_eigenvalues(0.0), op.floquet_eigenvalues(np.pi)]
                ),
                8,
            )
        )
        groups.setdefault(key, set()).add(pattern)
    expected = {frozenset(g) for g in groups.values()}
    found = {frozenset(c.members) for c in classes}
    assert found == expected


def test_neighbors_share_spectrum_but_not_orbit():
    op = PeriodicJacobi([1.0, 0.8, 1.2, 0.9], [0.0, 0.5, -0.3, 0.2])
    coeffs = power_coefficients(op)
    found = isospectral_neighbors(op, count=2, step=0.08, seed=7)
    assert len(found) == 2
    for nb in found:
        assert nb.period == op.period
        assert np.all(nb.hopping > 0)
        assert np.allclose(power_coefficients(nb), coeffs, rtol=0.0, atol=1e-8)
        assert orbit_distance(op, nb) > 1e-4


def test_neighbors_deterministic_with_seed():
    op = PeriodicJacobi([1.0, 0.8, 1.2], [0.0, 0.5, -0.3])
    first = isospectral_neighbors(op, count=1, step=0.05, seed=123)[0]
    second = isospectral_neighbors(op, count=1, step=0.05, seed=123)[0]
    assert first == second


def test_neighbors_period_one_has_no_freedom():
    # No gap at N = 1, and every gap closed on the constant chain.
    for op in (PeriodicJacobi([1.0], [0.5]), free_chain(6, 0.9, -0.2)):
        with pytest.raises(RuntimeError, match="no gap is open"):
            isospectral_neighbors(op, seed=0)


@pytest.mark.parametrize("values, period", [([0.0, 1.0], 8), ([0.0, 1.0, 2.0], 5)])
@pytest.mark.parametrize("chunk", [100, isospectral.CHUNK])
def test_enumeration_matches_per_pattern_reference(monkeypatch, values, period, chunk):
    # Reference: one discriminant per pattern on the alphabet's interval,
    # its node values scaled by those of the constant lowest pattern.
    monkeypatch.setattr(isospectral, "CHUNK", chunk)
    hopping = np.array([1.0, 0.8, 1.3, 0.9, 1.1, 0.7, 1.2, 1.0][:period])
    interval = (min(values) - 2 * max(hopping), max(values) + 2 * max(hopping))
    lowest = Discriminant.from_operator(
        PeriodicJacobi(hopping, np.full(period, min(values))), interval)
    scale = max(1.0, np.max(np.abs(lowest.values)))
    groups = {}
    for pattern in itertools.product(values, repeat=period):
        op = PeriodicJacobi(hopping, np.array(pattern))
        key = tuple(np.round(Discriminant.from_operator(op, interval).values / scale, 9))
        groups.setdefault(key, []).append(pattern)
    expected = sorted(((key, tuple(m)) for key, m in groups.items()),
                      key=lambda c: (-len(c[1]), c[0]))
    found = enumerate_onsite_classes(values, period, hopping=hopping)
    assert [(c.key, c.members) for c in found] == expected


def test_enumeration_rejects_bad_input():
    with pytest.raises(ValueError):
        enumerate_onsite_classes([0.0, 1.0], 0)
    with pytest.raises(ValueError):
        enumerate_onsite_classes([0.0, np.nan], 3)
    with pytest.raises(ValueError):
        enumerate_onsite_classes([0.0, 1.0], 3, hopping=[1.0, -1.0, 1.0])
    # A negative period once reached np.full before PeriodicJacobi checked
    # it, and NumPy's "negative dimensions are not allowed" came out.
    with pytest.raises(ValueError, match="period must be at least one"):
        enumerate_onsite_classes([0.0, 1.0], -2)
    with pytest.raises(ValueError, match="alphabet must not be empty"):
        enumerate_onsite_classes([], 2)


def test_enumeration_reads_a_repeated_value_once():
    # An alphabet with 0 twice is {0, 1}: each pattern once, in one class.
    found = enumerate_onsite_classes([0.0, 0.0, 1.0], 2)
    assert [(c.key, c.members) for c in found] == [
        (c.key, c.members) for c in enumerate_onsite_classes([0.0, 1.0], 2)]
    assert sorted(m for c in found for m in c.members) == [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)]
    # First-seen order: 1 before 0.
    assert enumerate_onsite_classes([1.0, 0.0, 1.0], 2)[0].members == ((1.0, 0.0), (0.0, 1.0))


def test_neighbors_march_once(monkeypatch):
    # The only march of a walk is the one that reads the start's sheets
    # at its Dirichlet eigenvalues, with no derivative row, since the
    # sheets read M alone; every member is linear algebra.
    rng = np.random.default_rng(72)
    for n in (3, 6, 9):
        op = random_operator(rng, n)
        log, derivs = record_marches(monkeypatch), []
        run = transfer.March.run
        monkeypatch.setattr(transfer.March, "run",
                            lambda march, *args: derivs.append(march.derivs) or run(march, *args))
        isospectral_neighbors(op, count=3, seed=n)
        assert log == [(False, op.hopping.tobytes() + op.onsite.tobytes())]
        assert derivs == [0]
        monkeypatch.undo()


def test_neighbors_match_the_eig_edges():
    chains = [random_operator(np.random.default_rng(seed), 24) for seed in range(1000, 1030)]
    chains += [random_operator(np.random.default_rng(seed), 256) for seed in (7, 8, 9)]
    for op in chains:
        for nb in isospectral_neighbors(op, count=2, seed=op.period):
            assert edge_error(nb, band_edges_eig(op)) <= 1e-13
            assert orbit_distance(op, nb) > 1e-4


def test_neighbors_with_zero_step_return_the_start():
    # The start's angles and sheets are its own divisor, so a step of 0
    # rebuilds the start itself.
    rng = np.random.default_rng(74)
    for n in (2, 3, 4, 5):
        op = random_operator(rng, n)
        same = isospectral_neighbors(op, count=1, step=0.0, seed=0)[0]
        assert np.allclose(same.hopping, op.hopping, rtol=0.0, atol=1e-10)
        assert np.allclose(same.onsite, op.onsite, rtol=0.0, atol=1e-10)


def test_neighbors_reject_a_step_that_is_not_finite():
    # A nan or infinite step once reached chain_from_divisor as a nan
    # divisor, reported as a point outside its gap.
    op = PeriodicJacobi([1.0, 1.0, 1.0], [0.0, 0.7, -0.3])
    for step in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="step must be finite"):
            isospectral_neighbors(op, step=step, seed=0)


@pytest.mark.parametrize("onsite, step, count, seeds", [
    ([0.0, 1.0], 1e308, 3, (1,)),
    ([0.0, 1.0, 0.4], 1.7e308, 1, (3, 5)),
])
def test_neighbors_refuse_a_finite_step_whose_angles_overflow(onsite, step, count, seeds):
    # A finite step near the float range once overflowed the angles (in
    # the sum, or in step * direction before its division by the norm),
    # warned in cos and sin, and was reported as a divisor point outside
    # its gap. It is refused, by name, before any chain is built.
    op = PeriodicJacobi(np.ones(len(onsite)), onsite)
    for seed in seeds:
        message = re.escape(f"step {step} takes an angle beyond the float range")
        with pytest.raises(ValueError, match=f"^{message}$"):
            isospectral_neighbors(op, count=count, step=step, seed=seed)


def test_neighbors_reject_a_negative_count(monkeypatch):
    # A negative count once returned no chains, and the console script
    # exited 0 with []. A negative seed was refused by NumPy's generator
    # in words that named neither the seed nor its value; it is refused
    # by name, before any march.
    op = PeriodicJacobi([1.0, 1.0, 1.0], [0.0, 0.7, -0.3])
    assert isospectral_neighbors(op, count=0, seed=0) == []
    with pytest.raises(ValueError, match="count must be nonnegative"):
        isospectral_neighbors(op, count=-1, seed=0)

    def refuse(*args, **kwargs):
        raise AssertionError("march")

    monkeypatch.setattr(transfer.March, "run", refuse)
    for seed in (-3, np.int64(-1)):
        with pytest.raises(ValueError, match=f"^seed must be nonnegative, not {int(seed)}$"):
            isospectral_neighbors(op, seed=seed)


def test_neighbors_raise_where_the_weights_underflow():
    # At N = 512 the Dirichlet weights of a random chain span more than
    # the float range; the walk raises instead of returning a chain.
    op = random_operator(np.random.default_rng(0), 512)
    with pytest.raises(ValueError, match="underflows"):
        isospectral_neighbors(op, seed=0)


def test_neighbors_of_chains_far_from_unit_scale_keep_the_edges():
    # Lanczos's norms once squared bonds near 1e-181 to 0, or near 1e300
    # to inf, and the walk failed with "coefficients must be finite" on
    # chains whose bands it had solved.
    rng = np.random.default_rng(600)
    for n in (3, 5, 8):
        op = random_operator(rng, n)
        for power in (-1000, -600, 600, 1000):
            scaled = PeriodicJacobi(np.ldexp(op.hopping, power), np.ldexp(op.onsite, power))
            edges = band_edges_eig(scaled)
            for nb in isospectral_neighbors(scaled, count=2, seed=n):
                error = np.max(np.abs(band_edges_eig(nb) - edges))
                assert error <= 1e-12 * np.max(np.abs(edges))


@pytest.mark.parametrize("max_q", [1e-3, 1e-2, 0.1, 0.3])
def test_an_odd_spectrum_at_k_2_has_exactly_four_odd_potentials(max_q):
    # Claim (c), counted completely at k = 2: of the odd chains on the
    # circle |q'| = |q| that every member lies on, exactly 2^k = 4 have
    # the input's Delta(0), pairwise at least 0.1 max|q| apart, the input
    # among them to 1e-12, each with the input's eig edges to 1e-11.
    q = odd_values(2, max_q)
    members = odd_members_k2(q)
    assert members.shape == (4, 2)
    apart = np.max(np.abs(members[:, None] - members), axis=2) + np.eye(4) * max_q
    assert np.min(apart) >= 0.1 * max_q
    assert np.min(np.max(np.abs(members - q), axis=1)) <= 1e-12
    edges = band_edges_eig(PeriodicJacobi.odd(q))
    for member in members:
        assert np.max(np.abs(band_edges_eig(PeriodicJacobi.odd(member)) - edges)) <= 1e-11
