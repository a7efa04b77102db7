import itertools

import numpy as np
import pytest

from hillbands import (
    Discriminant,
    PeriodicJacobi,
    dihedral_orbit,
    enumerate_onsite_classes,
    isospectral_neighbors,
    isospectral,
    orbit_distance,
)

from helpers import random_operator


def test_orbit_members_share_discriminant():
    rng = np.random.default_rng(61)
    op = random_operator(rng, 6)
    disc = Discriminant.from_operator(op)
    orbit = dihedral_orbit(op)
    assert any(member == op for member in orbit)
    for member in orbit:
        assert Discriminant.from_operator(member).allclose(disc)


def test_orbit_size_generic_and_symmetric():
    generic = PeriodicJacobi([1.0] * 4, [0.1, 0.2, 0.3, 0.4])
    assert len(dihedral_orbit(generic)) == 8  # full dihedral group

    palindrome = PeriodicJacobi([1.0] * 3, [0.5, 0.2, 0.2])
    assert len(dihedral_orbit(palindrome)) == 3  # reflection is a shift here

    constant = PeriodicJacobi([1.0] * 5, [0.3] * 5)
    assert len(dihedral_orbit(constant)) == 1


def test_orbit_distance():
    op = PeriodicJacobi([1.0, 0.7, 1.2], [0.5, -0.1, 0.3])
    for member in dihedral_orbit(op):
        assert orbit_distance(op, member) == 0.0
    nudged = PeriodicJacobi(op.hopping, op.onsite + [0.0, 0.01, 0.0])
    assert orbit_distance(op, nudged) == pytest.approx(0.01, abs=1e-12)
    with pytest.raises(ValueError):
        orbit_distance(op, PeriodicJacobi([1.0], [0.0]))


def test_binary_enumeration_period_four():
    classes = enumerate_onsite_classes([0.0, 1.0], 4)
    assert len(classes) == 6
    assert sum(c.size for c in classes) == 16
    # Constant patterns are singletons; each class is one dihedral orbit.
    sizes = sorted(c.size for c in classes)
    assert sizes == [1, 1, 2, 4, 4, 4]
    for c in classes:
        assert c.orbit_count(1.0) == 1


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


def test_orbit_count_requires_uniform_hopping():
    classes = enumerate_onsite_classes([0.0, 1.0], 3)
    with pytest.raises(ValueError):
        classes[0].orbit_count([1.0, 0.9, 1.0])


def test_neighbors_share_spectrum_but_not_orbit():
    op = PeriodicJacobi([1.0, 0.8, 1.2, 0.9], [0.0, 0.5, -0.3, 0.2])
    disc = Discriminant.from_operator(op)
    found = isospectral_neighbors(op, count=2, step=0.08, seed=7)
    assert len(found) == 2
    for nb in found:
        assert nb.period == op.period
        assert np.all(nb.hopping > 0)
        assert Discriminant.from_operator(nb).allclose(disc, atol=1e-8)
        assert orbit_distance(op, nb) > 1e-4


def test_neighbors_deterministic_with_seed():
    op = PeriodicJacobi([1.0, 0.8, 1.2], [0.0, 0.5, -0.3])
    first = isospectral_neighbors(op, count=1, step=0.05, seed=123)[0]
    second = isospectral_neighbors(op, count=1, step=0.05, seed=123)[0]
    assert first == second


def test_neighbors_period_one_has_no_freedom():
    with pytest.raises(RuntimeError):
        isospectral_neighbors(PeriodicJacobi([1.0], [0.5]), seed=0)


@pytest.mark.parametrize("values, period", [([0.0, 1.0], 8), ([0.0, 1.0, 2.0], 5)])
@pytest.mark.parametrize("chunk", [100, isospectral.CHUNK])
def test_enumeration_matches_per_pattern_reference(monkeypatch, values, period, chunk):
    # Reference: one discriminant per pattern, keyed as before batching.
    monkeypatch.setattr(isospectral, "CHUNK", chunk)
    hopping = np.array([1.0, 0.8, 1.3, 0.9, 1.1, 0.7, 1.2, 1.0][:period])
    groups = {}
    for pattern in itertools.product(values, repeat=period):
        op = PeriodicJacobi(hopping, np.array(pattern))
        key = Discriminant.from_operator(op).coefficient_key(9)
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


def test_neighbors_step_costs_less_than_one_difference_jacobian(monkeypatch):
    # A central-difference Jacobian in (log a, b) alone takes 4N + 1
    # discriminants; the analytic one takes none.
    rng = np.random.default_rng(71)
    op = random_operator(rng, 8)
    original = Discriminant.from_operator
    calls = []

    def counted(cls, chain):
        calls.append(chain)
        return original(chain)

    monkeypatch.setattr(Discriminant, "from_operator", classmethod(counted))
    found = isospectral_neighbors(op, count=1, seed=5)
    monkeypatch.undo()
    assert len(calls) < 4 * op.period + 1
    assert Discriminant.from_operator(found[0]).allclose(
        Discriminant.from_operator(op), atol=1e-8
    )
