import numpy as np
import pytest

from hillbands import PeriodicJacobi

from helpers import random_operator


def test_basic_construction():
    op = PeriodicJacobi([1.0, 0.8], [0.5, -0.5])
    assert op.period == 2
    assert op.hopping.tolist() == [1.0, 0.8]
    assert op.onsite.tolist() == [0.5, -0.5]


def test_arrays_are_read_only():
    op = PeriodicJacobi([1.0], [0.0])
    with pytest.raises(ValueError):
        op.hopping[0] = 2.0
    with pytest.raises(ValueError):
        op.onsite[0] = 2.0


@pytest.mark.parametrize(
    "hopping, onsite",
    [
        ([], []),
        ([1.0, 1.0], [0.0]),
        ([[1.0]], [[0.0]]),
        ([0.0], [0.0]),
        ([-1.0], [0.0]),
        ([np.nan], [0.0]),
        ([1.0], [np.inf]),
    ],
)
def test_invalid_inputs_rejected(hopping, onsite):
    with pytest.raises(ValueError):
        PeriodicJacobi(hopping, onsite)


def test_free_constructor():
    op = PeriodicJacobi.free(4, hopping=0.7, onsite=-0.2)
    assert np.allclose(op.hopping, 0.7)
    assert np.allclose(op.onsite, -0.2)
    assert op.period == 4


def test_hopping_product():
    op = PeriodicJacobi([1.0, 2.0, 0.5], [0.0, 0.0, 0.0])
    assert op.hopping_product() == pytest.approx(1.0)


@pytest.mark.parametrize("hopping", [10.0, 0.1])
def test_hopping_product_out_of_float_range_raises(hopping):
    # 10^400 overflows and 10^-400 underflows to 0.
    op = PeriodicJacobi.free(400, hopping, 0.3)
    with pytest.raises(ValueError, match="overflow"):
        op.hopping_product()


def test_floquet_matrix_is_hermitian():
    rng = np.random.default_rng(7)
    op = random_operator(rng, 5)
    for theta in (0.0, 0.3, np.pi / 2, np.pi):
        m = op.floquet_matrix(theta)
        assert np.allclose(m, m.conj().T, atol=1e-14)


def test_floquet_matrix_period_one():
    op = PeriodicJacobi([0.8], [0.3])
    # Single site with both periodic links folded onto the diagonal.
    assert op.floquet_matrix(0.0) == pytest.approx(np.array([[0.3 + 1.6]]))
    assert op.floquet_matrix(np.pi) == pytest.approx(np.array([[0.3 - 1.6]]))


def test_floquet_matrix_structure():
    op = PeriodicJacobi([1.0, 0.5, 2.0], [0.1, 0.2, 0.3])
    theta = 0.7
    m = op.floquet_matrix(theta)
    assert m[0, 1] == pytest.approx(1.0)
    assert m[1, 2] == pytest.approx(0.5)
    assert m[0, 2] == pytest.approx(2.0 * np.exp(-1j * theta))
    assert m[2, 0] == pytest.approx(2.0 * np.exp(1j * theta))
    assert np.allclose(np.diag(m), [0.1, 0.2, 0.3])


def test_floquet_eigenvalues_real_and_sorted():
    rng = np.random.default_rng(11)
    op = random_operator(rng, 6)
    for theta in (0.0, 1.1, np.pi):
        vals = op.floquet_eigenvalues(theta)
        assert vals.dtype == np.float64
        assert np.all(np.diff(vals) >= 0)


def _chain(kind, period):
    rng = np.random.default_rng(period)
    if kind == "random":
        return random_operator(rng, period)
    if kind == "harper":
        sites = np.arange(period)
        return PeriodicJacobi(
            np.ones(period), 0.8 * np.cos(2 * np.pi * 0.618 * sites + 0.3)
        )
    # Uniform: every closed gap makes a double eigenvalue at theta = 0 or pi.
    return PeriodicJacobi.free(period, rng.uniform(0.4, 1.8), rng.uniform(-1.5, 1.5))


@pytest.mark.parametrize("kind", ["random", "harper", "uniform"])
@pytest.mark.parametrize("period", [1, 2, 3, 4, 24, 89, 610])
def test_floquet_eigenvalues_match_dense(kind, period):
    op = _chain(kind, period)
    scale = max(1.0, np.max(np.abs(op.onsite)) + 2.0 * np.max(op.hopping))
    for theta in (0.0, np.pi / 2, 0.37, np.pi):
        expected = np.linalg.eigvalsh(op.floquet_matrix(theta))
        err = np.max(np.abs(op.floquet_eigenvalues(theta) - expected))
        assert err <= 1e-12 * scale


def test_floquet_eigenvalues_over_a_phase_array():
    op = random_operator(np.random.default_rng(17), 7)
    thetas = np.array([[0.0, 0.37], [np.pi / 2, np.pi]])
    table = op.floquet_eigenvalues(thetas)
    assert table.shape == (2, 2, 7)
    for index, theta in np.ndenumerate(thetas):
        assert np.array_equal(table[index], op.floquet_eigenvalues(theta))


def test_dirichlet_matrix_drops_first_site():
    op = PeriodicJacobi([1.0, 0.5, 2.0], [0.1, 0.2, 0.3])
    d = op.dirichlet_matrix()
    assert d.shape == (2, 2)
    assert np.allclose(d, [[0.2, 0.5], [0.5, 0.3]])


def test_dirichlet_eigenvalues_oracle():
    rng = np.random.default_rng(3)
    op = random_operator(rng, 7)
    expected = np.linalg.eigvalsh(op.dirichlet_matrix())
    assert np.allclose(op.dirichlet_eigenvalues(), expected, atol=1e-12)


def test_dirichlet_eigenvalues_match_dense_large():
    op = random_operator(np.random.default_rng(610), 610)
    scale = max(1.0, np.max(np.abs(op.onsite)) + 2.0 * np.max(op.hopping))
    expected = np.linalg.eigvalsh(op.dirichlet_matrix())
    assert np.max(np.abs(op.dirichlet_eigenvalues() - expected)) <= 1e-12 * scale


def test_dirichlet_eigenvalues_short_periods():
    assert PeriodicJacobi([0.7], [0.3]).dirichlet_eigenvalues().size == 0
    assert PeriodicJacobi([0.7, 1.1], [0.3, -0.4]).dirichlet_eigenvalues() == pytest.approx([-0.4])


def test_truncated_matrix_tridiagonal():
    op = PeriodicJacobi([1.0, 0.5], [0.1, -0.1])
    t = op.truncated_matrix(3)  # three unit cells, open ends
    assert t.shape == (6, 6)
    assert np.allclose(np.diag(t), [0.1, -0.1, 0.1, -0.1, 0.1, -0.1])
    assert np.allclose(np.diag(t, 1), [1.0, 0.5, 1.0, 0.5, 1.0])
    assert np.allclose(t, t.T)


def test_shift_preserves_floquet_spectrum():
    rng = np.random.default_rng(5)
    op = random_operator(rng, 5)
    for k in range(1, 5):
        shifted = op.shifted(k)
        for theta in (0.0, np.pi):
            assert np.allclose(
                shifted.floquet_eigenvalues(theta),
                op.floquet_eigenvalues(theta),
                atol=1e-10,
            )


def test_reflection_preserves_floquet_spectrum():
    rng = np.random.default_rng(9)
    op = random_operator(rng, 6)
    refl = op.reflected()
    for theta in (0.0, 0.4, np.pi):
        assert np.allclose(
            refl.floquet_eigenvalues(theta), op.floquet_eigenvalues(theta), atol=1e-10
        )


def test_shift_composition():
    rng = np.random.default_rng(13)
    op = random_operator(rng, 4)
    assert op.shifted(1).shifted(3) == op.shifted(0)
    assert op.shifted(2) == op.shifted(-2)


def test_equality():
    a = PeriodicJacobi([1.0, 2.0], [0.0, 1.0])
    b = PeriodicJacobi([1.0, 2.0], [0.0, 1.0])
    c = PeriodicJacobi([1.0, 2.0], [0.0, 1.1])
    assert a == b
    assert a != c
    assert a != "not an operator"
