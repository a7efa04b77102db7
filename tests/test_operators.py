import ast
import importlib.machinery
import math
import os
import re
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy
from scipy.linalg.lapack import dsbevd

from hillbands import PeriodicJacobi, band_edges_eig, bands, operators

from helpers import (
    dirichlet_matrix,
    floquet_matrix,
    free_chain,
    fresh,
    random_operator,
    run_cli,
    strict_json,
    tiled,
    truncated_matrix,
    uniform_chain,
)


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


def test_floquet_matrix_is_hermitian():
    rng = np.random.default_rng(7)
    op = random_operator(rng, 5)
    for theta in (0.0, 0.3, np.pi / 2, np.pi):
        m = floquet_matrix(op, theta)
        assert np.allclose(m, m.conj().T, atol=1e-14)


def test_floquet_matrix_period_one():
    op = PeriodicJacobi([0.8], [0.3])
    # Single site with both periodic links folded onto the diagonal.
    assert floquet_matrix(op, 0.0) == pytest.approx(np.array([[0.3 + 1.6]]))
    assert floquet_matrix(op, np.pi) == pytest.approx(np.array([[0.3 - 1.6]]))


def test_floquet_matrix_structure():
    op = PeriodicJacobi([1.0, 0.5, 2.0], [0.1, 0.2, 0.3])
    theta = 0.7
    m = floquet_matrix(op, theta)
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
    if kind == "repeated":
        # A 2-site cell where the period is even, a 1-site one otherwise.
        return tiled(random_operator(rng, 2 - period % 2), period // (2 - period % 2))
    # Uniform: every closed gap makes a double eigenvalue at theta = 0 or pi.
    return uniform_chain(rng, period)


@pytest.mark.parametrize("kind", ["random", "harper", "uniform", "repeated"])
@pytest.mark.parametrize("period", [1, 2, 3, 4, 24, 89, 610])
def test_floquet_eigenvalues_match_dense(kind, period):
    op = _chain(kind, period)
    scale = max(1.0, np.max(np.abs(op.onsite)) + 2.0 * np.max(op.hopping))
    for theta in (0.0, np.pi / 2, 0.37, np.pi, -2.0, 7.0):
        expected = np.linalg.eigvalsh(floquet_matrix(op, theta))
        err = np.max(np.abs(op.floquet_eigenvalues(theta) - expected))
        assert err <= 1e-12 * scale


@pytest.mark.parametrize("scale", [1e-200, 1e200, 1e300])
def test_two_site_chains_at_extreme_scales_match_dense(capfd, scale):
    # At N = 2 the folded band has one subdiagonal. With a second, all
    # zero, LAPACK refused to rescale (DLASCL, parameter 2, printed on
    # stdout): the edges of a 1e-200 chain came out near 1e-254 with its
    # gap closed, and those of a 1e300 chain as inf.
    rng = np.random.default_rng(2)
    chains = [random_operator(rng, 2) for _ in range(20)]
    chains += [PeriodicJacobi([1.0, 1.0], [1.0, 0.0]), PeriodicJacobi([1.0, 1.0], [1.0, -1.0])]
    for unit in chains:
        op = PeriodicJacobi(scale * unit.hopping, scale * unit.onsite)
        for theta in (0.0, 0.37, np.pi / 2, np.pi):
            expected = np.linalg.eigvalsh(floquet_matrix(op, theta))
            err = np.max(np.abs(op.floquet_eigenvalues(theta) - expected))
            assert err <= 1e-15 * np.max(np.abs(expected))
    # An onsite energy far above the bonds, and the other way round.
    for op in (PeriodicJacobi([1.0, 0.5], [scale, 0.0]),
               PeriodicJacobi([scale, 0.5 * scale], [1.0, 0.0])):
        for theta in (0.0, 0.37, np.pi):
            expected = np.linalg.eigvalsh(floquet_matrix(op, theta))
            err = np.max(np.abs(op.floquet_eigenvalues(theta) - expected))
            assert err <= 1e-15 * np.max(np.abs(expected))
    edges = band_edges_eig(PeriodicJacobi([scale, scale], [scale, 0.0]))
    assert edges[2] - edges[1] == pytest.approx(scale, rel=1e-15)  # the gap is open
    assert capfd.readouterr() == ("", "")


@pytest.mark.parametrize("scale", [1e-200, 1e200, 1e300])
def test_two_site_chains_at_extreme_scales_through_the_cli_are_the_closed_form(capfd, scale):
    # J(theta) of b = (s, 0) and a = (h, h) is [[s, h (1 + e^-i theta)], [c.c., 0]]:
    # eigenvalues s / 2 -+ hypot(s / 2, 2 h cos(theta / 2)). Nothing else
    # is written to either stream, LAPACK's messages included.
    def closed(h, thetas):
        return [scale / 2 + sign * math.hypot(scale / 2, 2 * h * math.cos(t / 2))
                for sign in (-1, 1) for t in thetas]

    code, out, err = run_cli(capfd, "bands", f"--onsite={scale!r},0", f"--hopping={scale!r}", "--json")
    assert code == 0 and err == ""
    got, want = strict_json(out)["edges"], sorted(closed(scale, (0.0, math.pi)))
    assert np.all(np.abs(np.subtract(got, want)) <= 1e-15 * np.max(np.abs(want)))
    code, out, err = run_cli(capfd, "dispersion", f"--onsite={scale!r},0", "--hopping", "1",
                             "--samples", "3", "--json")
    assert code == 0 and err == ""
    curve = strict_json(out)
    got, want = np.ravel(curve["bands"]), closed(1.0, curve["theta"])
    assert np.all(np.abs(got - want) <= 1e-15 * np.max(np.abs(want)))


def test_chains_at_the_float_range_limit_match_dense_and_past_it_are_refused(capfd):
    # max|b| + 2 max a may reach a quarter of the largest double. There
    # the edges equal the dense eigenvalues, and the widths, midpoints,
    # dispersion and DOS grid are finite with no warning.
    limit = operators.MAX_REACH
    rng = np.random.default_rng(8)
    units = [random_operator(rng, n) for n in (2, 3, 5) for _ in range(3)]
    units += [PeriodicJacobi([1.0, 1.0], [2.0, -2.0]), free_chain(3),
              PeriodicJacobi([1.0], [0.0]), PeriodicJacobi([1e-300, 1e-300], [4.0, -4.0])]
    for unit in units:
        reach = np.max(np.abs(unit.onsite)) + 2.0 * np.max(unit.hopping)
        a, b = unit.hopping / reach * limit, unit.onsite / reach * limit
        while np.max(np.abs(b)) + 2.0 * np.max(a) > limit:
            a, b = np.nextafter(a, 0.0), np.nextafter(b, 0.0)
        op = PeriodicJacobi(a, b)
        expected = np.sort([np.linalg.eigvalsh(floquet_matrix(op, t)) for t in (0.0, np.pi)],
                           axis=None)
        edges = band_edges_eig(op)
        assert np.max(np.abs(edges - expected)) <= 1e-15 * np.max(np.abs(expected))
        structure = bands.BandStructure(op)
        energies, rho, ids = bands.dos_curve(structure, points=64)
        record = structure.to_dict()
        for values in (record["band_widths"], record["gap_widths"], energies, rho, ids,
                       structure.dispersion(np.linspace(0.0, np.pi, 5))):
            assert np.all(np.isfinite(values))
        # A closed gap's edges both sit at its midpoint, a sum of two edges.
        assert np.all(np.isfinite(0.5 * (edges[1:-1:2] + edges[2::2])))
    assert capfd.readouterr() == ("", "")
    # One ulp past the limit is refused before any solve, by name.
    for hopping, onsite in (([np.nextafter(limit / 2, np.inf)], [0.0]),
                            ([1e-300], [-np.nextafter(limit, np.inf)]),
                            ([1e308, 1e308], [1e308, -1e308]),
                            ([1.0, 1.0, 1.0], [1e308, -1e308, 0.0])):
        with pytest.raises(ValueError, match="quarter of the float range"):
            PeriodicJacobi(hopping, onsite)


def test_floquet_eigenvalues_over_a_phase_array():
    rng = np.random.default_rng(17)
    # A phase given twice, or -0.37 and 0.37, which fold onto the same
    # phases of a repeated cell, reads the same bits as given alone.
    thetas = np.array([[0.0, 0.37, -0.37], [np.pi / 2, np.pi, 0.37]])
    for op in (random_operator(rng, 7), tiled(random_operator(rng, 3), 4), random_operator(rng, 1)):
        table = op.floquet_eigenvalues(thetas)
        assert table.shape == (2, 3, op.period)
        for index, theta in np.ndenumerate(thetas):
            assert np.array_equal(table[index], op.floquet_eigenvalues(theta))


def test_a_phase_that_is_not_finite_is_refused_before_any_solve(monkeypatch):
    # A nan phase once folded to pi on a repeated cell, and failed in
    # LAPACK on a chain that is its own cell; an infinite one alike.
    def refuse(*args, **kwargs):
        raise AssertionError("band-matrix solve")

    monkeypatch.setattr(operators, "_solve", refuse)
    operators._real_spectrum.cache_clear()
    for op in (PeriodicJacobi([1.0, 0.8, 1.2], [0.0, 0.5, -0.3]), free_chain(4, 0.9, -0.2),
               PeriodicJacobi([1.0], [0.3])):
        for theta in (np.nan, np.inf, -np.inf, [0.0, np.nan], [[np.pi], [np.inf]]):
            with pytest.raises(ValueError, match="Bloch phases must be finite"):
                op.floquet_eigenvalues(theta)
            with pytest.raises(ValueError, match="Bloch phases must be finite"):
                bands.BandStructure(op).dispersion(theta)


def test_each_distinct_phase_is_solved_once(monkeypatch):
    # At theta = 0 and pi a cell repeated m times folds onto the m + 1
    # phases pi r / m, r = 0..m: the two of each gap that the folding
    # closes, r and 2m - r, coincide. Each distinct phase is one solve of
    # the cell.
    solved = []
    solve = operators._solve

    def counted(solver, band):
        solved.append(band.shape[1])
        return solve(solver, band)

    monkeypatch.setattr(operators, "_solve", counted)
    rng = np.random.default_rng(33)
    for p, m in ((2, 305), (3, 5), (3, 20), (2, 50)):
        op = tiled(random_operator(rng, p), m)
        operators._real_spectrum.cache_clear()
        solved.clear()
        band_edges_eig(op)
        assert solved == [p] * (m + 1)


def test_cell_is_the_least_repeating_prefix():
    rng = np.random.default_rng(31)
    two, three = random_operator(rng, 2), random_operator(rng, 3)
    assert tiled(two, 6).cell == two
    # A 4-site cell that is itself 2-periodic reduces to its 2-site cell.
    assert tiled(tiled(two, 2), 3).cell == two
    assert tiled(three, 5).cell == three
    assert free_chain(12, 0.9, -0.2).cell == PeriodicJacobi([0.9], [-0.2])


def test_a_chain_that_repeats_no_shorter_cell_is_its_own_cell():
    rng = np.random.default_rng(32)
    chains = [random_operator(rng, 1), random_operator(rng, 13), random_operator(rng, 24)]
    for op in (tiled(random_operator(rng, 2), 6), free_chain(12, 0.9, -0.2)):
        for changed in (0, 1):
            coefficients = [op.hopping.copy(), op.onsite.copy()]
            coefficients[changed][5] = np.nextafter(coefficients[changed][5], np.inf)
            chains.append(PeriodicJacobi(*coefficients))
    for op in chains:
        assert op.cell is op


memo = operators._real_spectrum


def _key(op):
    return op.hopping.tobytes() + op.onsite.tobytes()


def test_real_spectrum_memo_hit_is_bit_identical_to_a_fresh_solve():
    op = _chain("harper", 89)
    memo.cache_clear()
    first = op.floquet_eigenvalues([0.0, np.pi])
    assert memo.cache_info()[:2] == (1, 1)  # (hits, misses): one entry holds both
    again = op.floquet_eigenvalues([0.0, np.pi])
    assert memo.cache_info()[:2] == (3, 1)
    fresh = memo.__wrapped__(_key(op))
    assert again.tobytes() == first.tobytes() == fresh.tobytes()
    for row, cos_theta in enumerate((1.0, -1.0)):  # each sign from a band of its own
        band = operators._folded_band(op.hopping, op.onsite)
        band[1, 0] += op.hopping[-1] * cos_theta
        assert operators._solve(dsbevd, band).tobytes() == fresh[row].tobytes()
    assert not memo(_key(op)).flags.writeable


def test_equal_chains_built_separately_share_one_entry():
    rng = np.random.default_rng(22)
    a, b = rng.uniform(0.4, 1.8, 8), rng.uniform(-1.5, 1.5, 8)
    memo.cache_clear()
    one = PeriodicJacobi(a, b).floquet_eigenvalues(0.0)
    two = PeriodicJacobi(a.tolist(), b.copy()).floquet_eigenvalues(0.0)
    assert np.array_equal(one, two)
    info = memo.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 1, 1)


def test_one_ulp_change_of_one_coefficient_misses():
    op = random_operator(np.random.default_rng(23), 8)
    memo.cache_clear()
    op.floquet_eigenvalues(np.pi)
    for changed in (0, 1):
        coefficients = [op.hopping.copy(), op.onsite.copy()]
        coefficients[changed][3] = np.nextafter(coefficients[changed][3], np.inf)
        PeriodicJacobi(*coefficients).floquet_eigenvalues(np.pi)
    info = memo.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 3, 3)


def test_every_multiple_of_pi_hits_the_entries_of_zero_and_pi():
    op = random_operator(np.random.default_rng(24), 7)
    memo.cache_clear()
    edges = op.floquet_eigenvalues([0.0, np.pi])
    table = op.floquet_eigenvalues([2.0 * np.pi, -np.pi, 3.0 * np.pi])
    info = memo.cache_info()
    assert (info.hits, info.misses, info.currsize) == (4, 1, 1)
    assert np.array_equal(table, edges[[0, 1, 1]])


def test_bands_dos_and_dispersion_of_one_chain_share_one_memo_miss(capsys):
    # The three requests read theta = 0 and pi of their chain from one solve.
    chain = ["--onsite", "0,0.5,-0.3,0.9", "--hopping", "1,0.8,1.2,0.6"]
    memo.cache_clear()
    for command in (["bands"], ["dos"], ["dispersion", "--samples", "8"]):
        assert run_cli(capsys, *command, *chain)[0] == 0
    assert memo.cache_info().misses == 1


def test_memo_holds_at_most_32_spectra():
    rng = np.random.default_rng(25)
    memo.cache_clear()
    for _ in range(100):
        random_operator(rng, 4).floquet_eigenvalues([0.0, np.pi])
    info = memo.cache_info()
    assert info.misses == 100
    assert info.maxsize == operators.MEMO_ENTRIES == 16  # chains, two spectra each
    assert info.currsize <= 16


def test_writing_to_a_returned_spectrum_changes_no_later_answer():
    # The uniform chain's gaps are all closed, so band_edges_eig writes
    # its closed gaps into the edges in place. Its spectra
    # come from its one-site cell, which has no memo entry.
    for op in (random_operator(np.random.default_rng(26), 6), free_chain(6, 0.9, -0.2)):
        memo.cache_clear()
        spectra = op.floquet_eigenvalues([0.0, np.pi])
        edges = band_edges_eig(op)
        reference = spectra.copy(), edges.copy()
        spectra[:] = np.nan
        edges[1:-1:2] = edges[2::2] = 0.0
        assert memo.cache_info().hits == (3 if op.cell is op else 0)  # one miss holds both
        assert np.array_equal(op.floquet_eigenvalues([0.0, np.pi]), reference[0])
        assert np.array_equal(band_edges_eig(op), reference[1])
        if op.cell is op:
            fresh = memo.__wrapped__(_key(op))
            assert np.array_equal(op.floquet_eigenvalues([0.0, np.pi]), fresh)


def test_only_operators_solves_a_bloch_hamiltonian_and_keys_its_memo():
    # Every band-matrix solve is bloch_spectra's: no other module names
    # the memo, its solver, its byte key, the band or a LAPACK routine,
    # and operators sets the band's closing-bond entry (1, 0) in one loop.
    source = Path(operators.__file__)
    named = re.compile(r"\b(_real_spectrum|__wrapped__|dsbevd|zhbevd|_folded_band)\b|(hopping|onsite)\.tobytes\(")
    for path in sorted(source.parent.glob("*.py")):
        if path != source:
            assert not named.search(path.read_text()), path.name
    tree = ast.parse(source.read_text())
    corners = [node for node in ast.walk(tree) if isinstance(node, ast.Subscript)
               and isinstance(node.ctx, ast.Store) and ast.unparse(node).endswith("[1, 0]")]
    loops = [loop for loop in ast.walk(tree) if isinstance(loop, ast.For)
             and any(corner in ast.walk(loop) for corner in corners)]
    assert len(corners) == len(loops) == 1


CHAIN = ["--onsite", "0,0.5,-0.3", "--hopping", "1,0.8,1.2"]


@pytest.mark.parametrize("name, solve, argv, message", [
    ("dsterf", PeriodicJacobi.dirichlet_eigenvalues, ["bands", *CHAIN, "--method", "bisection"],
     "tridiagonal eigensolver failed (info 1)"),
    ("dsbevd", lambda op: op.floquet_eigenvalues(np.pi), ["bands", *CHAIN], "band eigensolver failed (info 1)"),
    ("zhbevd", lambda op: op.floquet_eigenvalues(0.5), ["dispersion", *CHAIN], "band eigensolver failed (info 1)"),
], ids=["dsterf", "dsbevd", "zhbevd"])
def test_a_lapack_failure_is_a_linalgerror_and_a_command_line_error(capsys, monkeypatch, name, solve, argv,
                                                                      message):
    # Each routine answers as it does but with LAPACK's info 1. A
    # LinAlgError is a ValueError, so the command line reports it on one
    # line and exits 1.
    routine = getattr(operators, name)
    monkeypatch.setattr(operators, name, lambda *args, **kwargs: (*routine(*args, **kwargs)[:-1], 1))
    memo.cache_clear()
    with pytest.raises(np.linalg.LinAlgError, match=re.escape(message)):
        solve(PeriodicJacobi([1.0, 0.8, 1.2], [0.0, 0.5, -0.3]))
    assert run_cli(capsys, *argv) == (1, "", f"error: {message}\n")


def test_dirichlet_matrix_drops_first_site():
    op = PeriodicJacobi([1.0, 0.5, 2.0], [0.1, 0.2, 0.3])
    d = dirichlet_matrix(op)
    assert d.shape == (2, 2)
    assert np.allclose(d, [[0.2, 0.5], [0.5, 0.3]])


def test_dirichlet_eigenvalues_oracle():
    rng = np.random.default_rng(3)
    op = random_operator(rng, 7)
    expected = np.linalg.eigvalsh(dirichlet_matrix(op))
    assert np.allclose(op.dirichlet_eigenvalues(), expected, atol=1e-12)


def test_dirichlet_eigenvalues_match_dense_large():
    op = random_operator(np.random.default_rng(610), 610)
    scale = max(1.0, np.max(np.abs(op.onsite)) + 2.0 * np.max(op.hopping))
    expected = np.linalg.eigvalsh(dirichlet_matrix(op))
    assert np.max(np.abs(op.dirichlet_eigenvalues() - expected)) <= 1e-12 * scale


def test_dirichlet_eigenvalues_short_periods():
    assert PeriodicJacobi([0.7], [0.3]).dirichlet_eigenvalues().size == 0
    assert PeriodicJacobi([0.7, 1.1], [0.3, -0.4]).dirichlet_eigenvalues() == pytest.approx([-0.4])


def test_truncated_matrix_tridiagonal():
    op = PeriodicJacobi([1.0, 0.5], [0.1, -0.1])
    t = truncated_matrix(op, 3)  # three unit cells, open ends
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


_SAME_SOLVERS = (
    "import scipy.linalg.lapack as lapack\n"
    "same = [getattr(operators, f) is getattr(lapack, f) for f in ('dsbevd', 'dsterf', 'zhbevd')]\n"
    "same.append(sys.modules['scipy.linalg._flapack'] is flapack)\n"
)


def test_band_requests_never_import_scipy_linalg():
    # The solvers come from scipy.linalg._flapack alone: serving the band
    # requests leaves scipy.linalg unimported. Imported afterwards, its
    # lapack module exports the very objects hillbands calls.
    script = (
        "import contextlib, io, sys\n"
        "from hillbands import cli, operators\n"
        "chain = ['--onsite', '0,0.5,-0.3,0.9', '--hopping', '1,0.8,1.2,0.6']\n"
        "requests = [['bands', *chain], ['bands', *chain, '--method', 'bisection'],\n"
        "            ['dos', *chain, '--points', '16'], ['dispersion', *chain, '--samples', '5'],\n"
        "            ['classes', '--values', '0,1', '--period', '4'],\n"
        "            ['neighbors', '--onsite', '0,0.7,-0.3', '--seed', '1']]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [cli.main(argv + ['--json']) for argv in requests]\n"
        "assert codes == [0] * len(requests), codes\n"
        "loaded = 'scipy.linalg' in sys.modules\n"
        "flapack = sys.modules['scipy.linalg._flapack']\n"
        + _SAME_SOLVERS +
        "print(loaded, all(same))\n"
    )
    assert fresh(script) == "False True"


def test_solvers_are_scipy_linalg_lapacks_when_scipy_linalg_comes_first():
    script = (
        "import sys\n"
        "import scipy.linalg\n"
        "flapack = sys.modules['scipy.linalg._flapack']\n"
        "from hillbands import operators\n"
        + _SAME_SOLVERS +
        "print(all(same))\n"
    )
    assert fresh(script) == "True"


def test_flapack_loader_reuses_a_loaded_module_and_names_the_directory_it_searched(monkeypatch):
    find = importlib.machinery.PathFinder.find_spec

    def hide_flapack(name, path=None, target=None):
        return None if name == "scipy.linalg._flapack" else find(name, path, target)

    monkeypatch.setattr(importlib.machinery.PathFinder, "find_spec", hide_flapack)
    assert operators._flapack() is sys.modules["scipy.linalg._flapack"]
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
    with pytest.raises(ImportError) as caught:
        operators._flapack()
    assert os.path.join(os.path.dirname(scipy.__file__), "linalg") in str(caught.value)


def test_blind_solves_never_import_scipy_optimize_and_later_reuse_its_minpack():
    # lmder comes from scipy.optimize._minpack alone: the blind inverse
    # and edges with hoppings leave scipy.optimize, and scipy.linalg,
    # unimported. Imported afterwards, scipy.optimize takes the module
    # hillbands loaded, and its leastsq still runs.
    script = (
        "import contextlib, io, sys\n"
        "from hillbands import cli, operators\n"
        "requests = [['inverse', '--coeffs=-2,0,1', '--hopping=1,1'],\n"
        "            ['edges', '--periodic', '1,3', '--antiperiodic', '1.5,2.5',\n"
        "             '--hopping', '0.25,0.75']]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [cli.main(argv + ['--json']) for argv in requests]\n"
        "assert codes == [0] * len(requests), codes\n"
        "loaded = [m for m in ('scipy.optimize', 'scipy.linalg') if m in sys.modules]\n"
        "minpack = sys.modules['scipy.optimize._minpack']\n"
        "from scipy.optimize import _minpack_py, leastsq\n"
        "x, info = leastsq(lambda x: x - 3.0, [0.0, 1.0])\n"
        "same = _minpack_py._minpack is minpack and operators._minpack() is minpack\n"
        "print(loaded, same, x.tolist(), info in (1, 2, 3, 4))\n"
    )
    assert fresh(script) == "[] True [3.0, 3.0] True"


def test_lmder_is_scipy_optimizes_when_scipy_optimize_comes_first():
    script = (
        "import sys\n"
        "import scipy.optimize\n"
        "minpack = sys.modules['scipy.optimize._minpack']\n"
        "from hillbands import cli, operators\n"
        "assert cli.main(['inverse', '--coeffs=-2,0,1', '--hopping=1,1']) == 0\n"
        "print(operators._minpack() is minpack, sys.modules['scipy.optimize._minpack'] is minpack)\n"
    )
    assert fresh(script) == "True True"


def test_minpack_loader_reuses_a_loaded_module_and_names_the_directory_it_searched(monkeypatch):
    find = importlib.machinery.PathFinder.find_spec

    def hide_minpack(name, path=None, target=None):
        return None if name == "scipy.optimize._minpack" else find(name, path, target)

    operators._minpack()
    monkeypatch.setattr(importlib.machinery.PathFinder, "find_spec", hide_minpack)
    assert operators._minpack() is sys.modules["scipy.optimize._minpack"]
    monkeypatch.delitem(sys.modules, "scipy.optimize._minpack")
    with pytest.raises(ImportError) as caught:
        operators._minpack()
    assert os.path.join(os.path.dirname(scipy.__file__), "optimize") in str(caught.value)
