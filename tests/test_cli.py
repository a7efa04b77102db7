import contextlib
import io
import json
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hillbands import BandStructure, Discriminant, PeriodicJacobi, bands, cli, dos_curve, inverse
from hillbands.cli import _gap_table, main

from helpers import (
    bits,
    fresh,
    long_edge_data,
    make_chain,
    power_coefficients,
    random_operator,
    run_cli,
    strict_json,
)


def test_bands_text_output(capsys):
    code, out, err = run_cli(
        capsys, "bands", "--onsite", "0,0.5,-0.3", "--hopping", "1,0.8,1.2"
    )
    assert code == 0 and err == ""
    assert "period 3 chain" in out
    assert "open" in out


def test_bands_json_matches_library(capsys):
    code, out, _ = run_cli(capsys, "bands", "--onsite", "0,0.5", "--json")
    assert code == 0
    payload = json.loads(out)
    bs = BandStructure(PeriodicJacobi([1.0, 1.0], [0.0, 0.5]))
    assert bits(payload) == bits(bs.to_dict())
    assert payload["period"] == 2


def test_make_chain_broadcasting():
    chain = make_chain([0.0, 0.5, -0.3])
    assert chain.period == 3
    assert np.allclose(chain.hopping, 1.0)

    chain = make_chain([0.2], [1.0, 0.7])
    assert chain.period == 2
    assert np.allclose(chain.onsite, 0.2)

    chain = make_chain([0.1], [0.9])
    assert chain.period == 1

    # One hopping over no sites is an empty chain, not a mismatch.
    with pytest.raises(ValueError, match="period must be at least one"):
        make_chain([])


def gap_report(structure):
    return _gap_table(structure.to_dict())


def test_gap_report_mentions_every_band_and_gap():
    bs = BandStructure(make_chain([0.0, 0.5, -0.3], [1.0, 0.8, 1.2]))
    text = gap_report(bs)
    lines = text.splitlines()
    assert "period 3 chain" in lines[0]
    assert sum("open" in line for line in lines) >= 1
    # one row per band and per gap plus headers
    assert len(lines) == 1 + 1 + 3 + 1 + 2


def test_gap_report_closed_state():
    bs = BandStructure(make_chain([0.0, 0.0], [1.0]))
    assert "closed" in gap_report(bs)


def test_gap_report_text_is_pinned():
    # The whole table, literally: a period-1 chain prints no gap section,
    # [0.8, -0.8] has one open gap, and the uniform N = 4 chain three
    # closed ones, its middle gap at 2 cos(pi / 2) = 1.22465e-16.
    assert gap_report(BandStructure(make_chain([0.3], [0.9]))) == (
        "period 1 chain; spectrum within [-1.5, 2.1]\n"
        "band         lower         upper         width\n"
        "   0          -1.5           2.1           3.6"
    )
    assert gap_report(BandStructure(make_chain([0.8, -0.8], [1.0]))) == (
        "period 2 chain; spectrum within [-2.15407, 2.15407]\n"
        "band         lower         upper         width\n"
        "   0      -2.15407          -0.8       1.35407\n"
        "   1           0.8       2.15407       1.35407\n"
        " gap         lower         upper         width  state\n"
        "   0          -0.8           0.8           1.6  open"
    )
    assert gap_report(BandStructure(make_chain([0.0] * 4, [1.0]))) == (
        "period 4 chain; spectrum within [-2, 2]\n"
        "band         lower         upper         width\n"
        "   0            -2      -1.41421      0.585786\n"
        "   1      -1.41421   1.22465e-16       1.41421\n"
        "   2   1.22465e-16       1.41421       1.41421\n"
        "   3       1.41421             2      0.585786\n"
        " gap         lower         upper         width  state\n"
        "   0      -1.41421      -1.41421             0  closed\n"
        "   1   1.22465e-16   1.22465e-16             0  closed\n"
        "   2       1.41421       1.41421             0  closed"
    )


@given(st.floats(allow_nan=False, allow_infinity=False))
@example(-0.0)
@example(5e-324)
@example(1e-5)
@example(1e16)
@example(1.7976931348623157e308)
@settings(max_examples=300, deadline=None)
def test_emit_writes_floats_that_parse_back_to_the_same_bits(x):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit(SimpleNamespace(json=True), lambda: {"x": x, "xs": [x, -x]}, None)
    payload = strict_json(out.getvalue())
    assert bits(payload) == {"x": x.hex(), "xs": [x.hex(), (-x).hex()]}


def test_harper_dispersion_and_dos_json_are_the_library_values(capsys):
    harper = (0.8 * np.cos(2 * np.pi * 55 * np.arange(89) / 89 + 0.3)).tolist()
    onsite = "--onsite=" + ",".join(map(repr, harper))
    bs = BandStructure(PeriodicJacobi(np.ones(89), harper))
    thetas = np.linspace(0.0, np.pi, 8)
    code, out, err = run_cli(capsys, "dispersion", onsite, "--samples", "8", "--json")
    assert code == 0 and err == ""
    assert bits(strict_json(out)) == bits(
        {"theta": thetas.tolist(), "bands": bs.dispersion(thetas).tolist()})
    code, out, err = run_cli(capsys, "dos", onsite, "--points", "512", "--json")
    assert code == 0 and err == ""
    energies, rho, ids = dos_curve(bs, points=512)
    assert bits(strict_json(out)) == bits(
        {"energy": energies.tolist(), "dos": rho.tolist(), "ids": ids.tolist()})


def test_harper_bands_json_is_the_library_value(capsys):
    harper = (0.8 * np.cos(2 * np.pi * 55 * np.arange(89) / 89 + 0.3)).tolist()
    code, out, err = run_cli(capsys, "bands", "--onsite=" + ",".join(map(repr, harper)), "--json")
    assert code == 0 and err == ""
    assert bits(strict_json(out)) == bits(BandStructure(PeriodicJacobi(np.ones(89), harper)).to_dict())


# One request of each subcommand; every one is also served as text, in
# _loaded_after_every_subcommand.
SUBCOMMANDS = [
    ["bands", "--onsite", "0,0.5,-0.3", "--hopping", "1,0.8,1.2"],
    ["bands", "--onsite", "0,0.5,-0.3", "--hopping", "1,0.8,1.2", "--method", "bisection"],
    ["dispersion", "--onsite", "0,0.5", "--samples", "5"],
    ["dos", "--onsite", "0,0.5", "--points", "9"],
    ["inverse", "--coeffs=0.4375,-3.36458333333,-0.208333333333,1.04166666667",
     "--hopping", "1,0.8,1.2"],
    ["edges", "--periodic", "1,3", "--antiperiodic", "1.5,2.5"],
    ["edges", "--periodic", "1,3", "--antiperiodic", "1.5,2.5", "--hopping", "0.25,0.75"],
    ["classes", "--values", "0,1", "--period", "4"],
    ["neighbors", "--onsite", "0,0.7,-0.3", "--count", "2", "--seed", "1"],
]


@pytest.mark.parametrize("argv", SUBCOMMANDS, ids=lambda argv: "-".join(a for a in argv if a.isalpha()))
def test_every_subcommand_writes_one_line_of_strict_json(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--json")
    assert code == 0 and err == ""
    assert strict_json(out)


def test_bands_bisection_method(capsys):
    code, out, _ = run_cli(
        capsys, "bands", "--onsite", "0,0.5", "--method", "bisection", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    bs = BandStructure(PeriodicJacobi([1.0, 1.0], [0.0, 0.5]))
    assert np.allclose(payload["edges"], bs.edges, atol=1e-9)


def test_bands_bisection_overflow_exits_nonzero(capsys):
    rng = np.random.default_rng(300)
    onsite = ",".join(f"{x:.17g}" for x in rng.uniform(-1.5, 1.5, 300))
    hopping = ",".join(f"{x:.17g}" for x in rng.uniform(0.05, 0.1, 300))
    code, out, err = run_cli(
        capsys, "bands", f"--onsite={onsite}", f"--hopping={hopping}", "--method", "bisection"
    )
    assert code == 1 and out == ""
    assert "overflow" in err


def test_bands_json_on_long_chain(capsys):
    # Delta exceeds 1e308 in the gaps of a random N = 1024 chain; the
    # payload is the eig route's edges, which never form it.
    rng = np.random.default_rng(1024)
    onsite, hopping = rng.uniform(-1.5, 1.5, 1024), rng.uniform(0.4, 1.8, 1024)
    code, out, err = run_cli(
        capsys, "bands", "--onsite=" + ",".join(f"{x:.17g}" for x in onsite),
        "--hopping=" + ",".join(f"{x:.17g}" for x in hopping), "--json"
    )
    assert code == 0 and err == ""
    assert json.loads(out)["edges"] == BandStructure(PeriodicJacobi(hopping, onsite)).edges.tolist()


def test_bands_json_with_hopping_product_out_of_float_range(capsys):
    # prod a = 10^400 is not a float. The edges of this uniform chain are
    # b + 2a cos(pi j / N), each level but the ends twice, every gap closed.
    n, a, b = 400, 10.0, 0.3
    code, out, err = run_cli(
        capsys, "bands", "--onsite", ",".join([str(b)] * n), "--hopping", str(a), "--json"
    )
    assert code == 0 and err == ""
    payload = json.loads(out)
    edges = np.asarray(payload["edges"])
    levels = b + 2.0 * a * np.cos(np.pi * np.arange(n + 1) / n)
    expected = np.sort(np.concatenate([levels, levels[1:-1]]))
    assert edges.shape == (2 * n,)
    assert np.all(np.abs(edges - expected) <= 1e-12 * np.maximum(1.0, np.abs(expected)))
    assert payload["gap_widths"] == [0.0] * (n - 1)


@pytest.mark.parametrize("coeffs", ["1,0,1", "5,0,0,1", "1,0,0,0,0,1"])
def test_inverse_refuses_targets_with_complex_zeros(capsys, coeffs):
    # A discriminant's zeros are real, one in each band; these are not.
    n = coeffs.count(",")
    code, out, err = run_cli(
        capsys, "inverse", f"--coeffs={coeffs}", "--hopping", ",".join(["1"] * n)
    )
    assert code == 1 and out == ""
    assert "not all real" in err and "no chain" in err


def test_dispersion_json(capsys):
    code, out, _ = run_cli(
        capsys, "dispersion", "--onsite", "0,0.5", "--samples", "5", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["theta"]) == 5
    assert len(payload["bands"]) == 2
    op = PeriodicJacobi([1.0, 1.0], [0.0, 0.5])
    assert np.allclose(
        [row[0] for row in payload["bands"]], op.floquet_eigenvalues(0.0), atol=1e-10
    )


def test_dos_json(capsys):
    code, out, _ = run_cli(
        capsys, "dos", "--onsite", "0,0.5", "--points", "64", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["energy"]) == len(payload["dos"]) == len(payload["ids"]) == 64
    assert payload["ids"][-1] == pytest.approx(1.0)


def test_inverse_round_trip(capsys):
    op = PeriodicJacobi([1.0, 1.0], [0.4, -0.4])
    coeffs = power_coefficients(op)
    code, out, _ = run_cli(
        capsys,
        "inverse",
        # = form keeps argparse from reading the leading minus as a flag
        "--coeffs=" + ",".join(f"{c:.17g}" for c in coeffs),
        "--hopping",
        "1,1",
        "--json",
    )
    assert code == 0
    payload = json.loads(out)
    found = PeriodicJacobi(payload["hopping"], payload["onsite"])
    assert np.allclose(power_coefficients(found), coeffs, atol=1e-9)


def test_edges_subcommand(capsys):
    op = PeriodicJacobi([1.0, 1.0, 1.0], [0.6, -0.2, 0.1])
    per = ",".join(f"{x:.17g}" for x in op.floquet_eigenvalues(0.0))
    anti = ",".join(f"{x:.17g}" for x in op.floquet_eigenvalues(np.pi))
    code, out, _ = run_cli(
        capsys, "edges", f"--periodic={per}", f"--antiperiodic={anti}", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["hopping_product"] == pytest.approx(1.0, abs=1e-9)
    series = payload["discriminant_chebyshev"]
    lam = np.linspace(*series["interval"], 9)
    truth = Discriminant.from_operator(op).chebyshev(lam)
    got = np.polynomial.Chebyshev(series["coefficients"], domain=series["interval"])(lam)
    assert np.allclose(got, truth, atol=1e-8)


def test_edges_without_hoppings_where_the_multistart_failed(capsys):
    # Edge data of a random N = 3 chain, given to 12 digits, on which a
    # uniform-bond multistart found no chain.
    per = [-1.40614110888, -1.04004119249, 3.0478322385]
    anti = [-2.56556556592, 0.971053198948, 2.1961623041]
    code, out, err = run_cli(capsys, "edges", f"--periodic={','.join(map(repr, per))}",
                             f"--antiperiodic={','.join(map(repr, anti))}", "--json")
    assert code == 0 and err == ""
    payload = json.loads(out)
    found = PeriodicJacobi(payload["hopping"], payload["onsite"])
    assert np.max(np.abs(BandStructure(found).edges - np.sort(per + anti))) <= 1e-10


def test_edges_refuses_node_values_that_overflow(capsys):
    # Refused in both modes: a payload of null coefficients must not be written.
    per, anti = (",".join(map(repr, e.tolist())) for e in long_edge_data())
    for extra in ([], ["--json"]):
        code, out, err = run_cli(capsys, "edges", f"--periodic={per}", f"--antiperiodic={anti}",
                                 *extra)
        assert code == 1 and out == ""
        assert "of the 641 node values of Delta are not finite" in err


@pytest.mark.parametrize("n", [128, 384])
def test_edges_refuses_edges_that_do_not_determine_the_hopping_product(capsys, n):
    op = random_operator(np.random.default_rng(0), n)
    per, anti = (",".join(map(repr, e.tolist())) for e in op.floquet_eigenvalues([0.0, np.pi]))
    for extra in ([], ["--json"]):
        code, out, err = run_cli(capsys, "edges", f"--periodic={per}", f"--antiperiodic={anti}",
                                 *extra)
        assert code == 1 and out == ""
        assert f"edge data at N = {n} does not determine the hopping product" in err


def test_classes_subcommand(capsys):
    code, out, _ = run_cli(
        capsys, "classes", "--values", "0,1", "--period", "4", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["class_count"] == 6
    assert sum(c["size"] for c in payload["classes"]) == 16


def test_classes_subcommand_reads_a_repeated_value_once(capsys):
    # --values 0,0,1 is the alphabet {0, 1}: four patterns, each in one class.
    lines, payload = run_both(capsys, "classes", "--values", "0,0,1", "--period", "2")
    assert payload["alphabet"] == [0.0, 1.0]
    assert lines[0] == "3 isospectral classes over 2^2 patterns"
    members = [tuple(m) for c in payload["classes"] for m in c["members"]]
    assert sorted(members) == [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)]


def test_neighbors_subcommand(capsys):
    code, out, _ = run_cli(
        capsys,
        "neighbors",
        "--onsite",
        "0,0.5,-0.3",
        "--hopping",
        "1,0.8,1.2",
        "--count",
        "1",
        "--seed",
        "3",
        "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload) == 1
    assert payload[0]["orbit_distance"] > 1e-4


SUBNORMAL = "transfer recurrence overflowed at bond 0 of period 3: a_0 = 1e-310 puts a_2 / a_0 or 1 / a_0"


def test_error_paths_exit_nonzero(capsys):
    code, out, err = run_cli(capsys, "inverse", "--coeffs", "1,1", "--hopping", "2")
    assert code == 1
    assert "error:" in err

    code, out, err = run_cli(
        capsys, "edges", "--periodic", "0,1", "--antiperiodic", "0.5,3"
    )
    assert code == 1
    assert "error:" in err

    # Input that is not finite, or bonds that are not positive, are named.
    for argv, message in (
        (["edges", "--periodic", "nan,3", "--antiperiodic", "1.5,2.5"], "edge values must be finite"),
        (["edges", "--periodic", "inf,3", "--antiperiodic", "1.5,2.5"], "edge values must be finite"),
        (["inverse", "--coeffs=-2,0,1", "--hopping", "0,1"], "hoppings must be positive"),
        (["inverse", "--coeffs=-2,0,1", "--hopping", "inf,1"], "coefficients must be finite"),
        (["edges", "--periodic", "1,3", "--antiperiodic", "1.5,2.5", "--hopping", "0,1"],
         "hoppings must be positive"),
        (["neighbors", "--onsite", "0,0.7,-0.3", "--step", "nan"], "step must be finite"),
        (["neighbors", "--onsite", "0,0.7,-0.3", "--step", "inf"], "step must be finite"),
        (["inverse", "--coeffs=nan,0,1", "--hopping", "1,1"], "target coefficients must be finite"),
        (["inverse", "--coeffs=-1,0,1", "--hopping", "1,1"], "no start out of 64 converged"),
        (["classes", "--values", "0,1", "--period", "-2"], "period must be at least one"),
        (["classes", "--values=", "--period", "2"], "alphabet must not be empty"),
        (["neighbors", "--onsite", "0,0.7,-0.3", "--count", "-1"], "count must be nonnegative"),
        (["bands", "--onsite="], "period must be at least one"),
        (["neighbors", "--onsite="], "period must be at least one"),
        (["edges", "--periodic=", "--antiperiodic="], "need at least one edge of each kind"),
        (["edges", "--periodic=", "--antiperiodic", "1"], "need at least one edge of each kind"),
        (["edges", "--periodic", "1,3", "--antiperiodic", "1.5,2.5", "--hopping", "1"],
         "need 2 hoppings for 2 edges of each kind, not 1"),
        (["edges", "--periodic", "1,3", "--antiperiodic", "1.5,2.5", "--hopping", "1,1,1"],
         "need 2 hoppings for 2 edges of each kind, not 3"),
        (["edges", "--periodic", "1.5,2.5", "--antiperiodic", "1,3"], "nonpositive hopping product"),
        (["edges", "--periodic", "1,3", "--antiperiodic", "1,3"], "nonpositive hopping product"),
        (["edges", "--periodic", "1,3", "--antiperiodic", "1.5,2.6"], "difference is not constant"),
        (["bands", "--onsite", "1e308,-1e308", "--hopping", "1e308", "--json"],
         "exceeds a quarter of the float range"),
        (["bands", "--onsite", "1e308,-1e308,0"], "exceeds a quarter of the float range"),
        (["dos", "--onsite", "1e308,-1e308", "--hopping", "1e308"],
         "exceeds a quarter of the float range"),
        (["dispersion", "--onsite", "1e308,-1e308", "--hopping", "1e308", "--json"],
         "exceeds a quarter of the float range"),
        # A subnormal bond's factor 1 / a overflows before any site is marched.
        (["classes", "--values", "0,1e-310", "--period", "3", "--hopping", "1e-310"], SUBNORMAL),
        (["neighbors", "--onsite", "0,1e-310,0", "--hopping", "1e-310"], SUBNORMAL),
        (["dos", "--onsite", "0,1e-310,0", "--hopping", "1e-310", "--points", "4"], SUBNORMAL),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert message in err


def test_bands_answers_subnormal_bonds_on_both_routes(capsys):
    # bands marches only the chain scaled by a power of two, and eig none, so it answers.
    argv = ["bands", "--onsite", "0,1e-310,0", "--hopping", "1e-310", "--json"]
    answers = []
    for method in ("eig", "bisection"):
        code, out, err = run_cli(capsys, *argv, "--method", method)
        assert code == 0 and err == ""
        answers.append(strict_json(out)["edges"])
    assert answers[0] == answers[1]


def test_bad_float_list_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["bands", "--onsite", "zero,one"])


def test_consecutive_calls_share_no_state(capsys, monkeypatch):
    # main reuses one parser; each call must still see only its own argv.
    seen = []
    build = cli._chain

    def spy(args):
        seen.append((list(args.onsite), list(args.hopping), args.method))
        return build(args)

    monkeypatch.setattr(cli, "_chain", spy)
    code, out, _ = run_cli(
        capsys, "bands", "--onsite", "0,0.5", "--hopping", "0.5,2",
        "--method", "bisection", "--json",
    )
    assert code == 0 and json.loads(out)["period"] == 2
    code, out, _ = run_cli(capsys, "bands", "--onsite", "0,0.5")
    assert code == 0 and out.startswith("period 2 chain")
    assert seen == [([0.0, 0.5], [0.5, 2.0], "bisection"), ([0.0, 0.5], [1.0], "eig")]
    assert cli._parser() is cli._parser()


def test_bands_does_not_import_scipy_optimize():
    # No request imports scipy.optimize: the blind inverse takes lmder
    # from scipy.optimize._minpack alone (see the next test), and edge
    # data without hoppings and the neighbours run no solver at all.
    script = (
        "import sys\n"
        "import hillbands\n"
        "from hillbands import cli\n"
        "assert cli.main(['bands', '--onsite', '0,0.5,-0.3', '--json']) == 0\n"
        "assert cli.main(['edges', '--periodic', '1,3', '--antiperiodic', '1.5,2.5']) == 0\n"
        "assert cli.main(['neighbors', '--onsite', '0,0.7,-0.3', '--seed', '1']) == 0\n"
        "print('scipy.optimize' in sys.modules)\n"
    )
    assert fresh(script) == "False"


def test_import_hillbands_resolves_all_and_loads_neither_scipy_fft_nor_scipy_optimize():
    script = (
        "import sys\n"
        "import hillbands\n"
        "missing = [name for name in hillbands.__all__ if not hasattr(hillbands, name)]\n"
        "print(missing, [m for m in ('scipy.fft', 'scipy.optimize') if m in sys.modules])\n"
    )
    assert fresh(script) == "[] []"


def _loaded_after_every_subcommand(modules, more=()):
    """The modules of modules that a fresh interpreter holds after serving
    every subcommand, bands on both routes, text and JSON, the requests
    of SUBCOMMANDS and the requests more; as printed, a list. Every
    request must exit 0."""
    script = (
        "import contextlib, io, sys\n"
        "from hillbands import cli\n"
        "chain = ['--onsite', '0,0.5,-0.3,0.9', '--hopping', '1,0.8,1.2,0.6']\n"
        "edges = ['--periodic', '1,3', '--antiperiodic', '1.5,2.5']\n"
        "requests = [['bands', *chain], ['bands', *chain, '--method', 'bisection'],\n"
        "            ['dos', *chain, '--points', '16'], ['dispersion', *chain, '--samples', '5'],\n"
        "            ['dispersion', *chain, '--samples', '8'],\n"
        "            ['inverse', '--coeffs=-2,0,1', '--hopping=1,1'],\n"
        "            ['edges', *edges], ['edges', *edges, '--hopping', '0.25,0.75'],\n"
        "            ['classes', '--values', '0,1', '--period', '4'],\n"
        "            ['neighbors', '--onsite', '0,0.7,-0.3', '--seed', '1'],\n"
        f"            *{SUBCOMMANDS + list(more)!r}]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [cli.main(argv + extra) for argv in requests for extra in ([], ['--json'])]\n"
        "assert codes == [0] * len(codes), codes\n"
        f"print([m for m in {tuple(modules)!r} if m in sys.modules])\n"
    )
    return fresh(script)


def test_every_subcommand_leaves_scipy_optimize_and_scipy_linalg_unimported():
    assert _loaded_after_every_subcommand(("scipy.optimize", "scipy.linalg")) == "[]"


def test_every_subcommand_leaves_numpy_ma_unimported():
    # numpy.ma costs about a megabyte; np.unique and np.setdiff1d load
    # it. The bisection route on a uniform chain and on a repeated cell
    # builds its index arrays without them.
    repeated = [
        ["bands", "--onsite", "0,0,0,0,0", "--hopping", "0.8", "--method", "bisection"],
        ["bands", "--onsite", "0.3,-0.5,0.3,-0.5", "--hopping", "1.1,0.7,1.1,0.7", "--method", "bisection"],
        ["bands", "--onsite", "0.3,-0.5,0.3,-0.5,0.3,-0.5", "--hopping", "1.1,0.7,1.1,0.7,1.1,0.7",
         "--method", "bisection"],
        ["bands", "--onsite=0,5e-15,-3e-15", "--hopping=1e-14,8e-15,1.2e-14", "--method", "bisection"],
    ]
    assert _loaded_after_every_subcommand(("numpy.ma",), repeated) == "[]"


def run_both(capsys, *argv):
    """Text and JSON output of the same call: (text lines, payload)."""
    code, text, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    code, out, err = run_cli(capsys, *argv, "--json")
    assert code == 0 and err == ""
    return text.splitlines(), strict_json(out)


def printed(values, spec):
    return [format(v, spec) for v in values]


def test_dispersion_text_matches_json(capsys):
    lines, payload = run_both(
        capsys, "dispersion", "--onsite", "0,0.5,-0.3", "--hopping", "1,0.8,1.2",
        "--samples", "7")
    assert lines[0].split() == ["theta", "band0", "band1", "band2"]
    rows = [line.split() for line in lines[1:]]
    assert [row[0] for row in rows] == printed(payload["theta"], ".6f")
    for j, band in enumerate(payload["bands"]):
        assert [row[1 + j] for row in rows] == printed(band, ".8f")


def test_dos_text_matches_json(capsys):
    lines, payload = run_both(
        capsys, "dos", "--onsite", "0,0.5,-0.3", "--hopping", "1,0.8,1.2", "--points", "33")
    assert lines[0] == "energy dos ids"
    columns = list(zip(*(line.split() for line in lines[1:])))
    for column, key in zip(columns, ("energy", "dos", "ids")):
        assert list(column) == printed(payload[key], ".8f")


def _values(line, label):
    assert line.startswith(label)
    return line[len(label):].strip().split(", ")


def test_inverse_text_matches_json(capsys):
    coeffs = power_coefficients(PeriodicJacobi([1.0, 1.0], [0.4, -0.4]))
    lines, payload = run_both(
        capsys, "inverse", "--coeffs=" + ",".join(f"{c:.17g}" for c in coeffs),
        "--hopping", "1,1")
    assert _values(lines[0], "onsite:") == printed(payload["onsite"], ".10g")
    assert _values(lines[1], "hopping:") == printed(payload["hopping"], ".10g")


def test_edges_text_matches_json(capsys):
    op = PeriodicJacobi([1.0, 1.0, 1.0], [0.6, -0.2, 0.1])
    per = ",".join(f"{x:.17g}" for x in op.floquet_eigenvalues(0.0))
    anti = ",".join(f"{x:.17g}" for x in op.floquet_eigenvalues(np.pi))
    lines, payload = run_both(capsys, "edges", f"--periodic={per}", f"--antiperiodic={anti}")
    assert _values(lines[0], "hopping product:") == printed([payload["hopping_product"]], ".10g")
    assert _values(lines[1], "onsite:") == printed(payload["onsite"], ".10g")
    assert _values(lines[2], "hopping:") == printed(payload["hopping"], ".10g")


def test_classes_text_matches_json(capsys):
    lines, payload = run_both(capsys, "classes", "--values", "0,1", "--period", "5")
    assert lines[0] == f"{payload['class_count']} isospectral classes over 2^5 patterns"
    assert len(lines) == 1 + payload["class_count"]
    for i, (line, c) in enumerate(zip(lines[1:], payload["classes"])):
        shown = ", ".join(str(m) for m in c["members"][:4])
        more = "" if c["size"] <= 4 else f" (+{c['size'] - 4} more)"
        assert line == f"class {i}: size {c['size']}: {shown}{more}"


def test_neighbors_text_matches_json(capsys):
    lines, payload = run_both(
        capsys, "neighbors", "--onsite", "0,0.5,-0.3", "--hopping", "1,0.8,1.2",
        "--count", "2", "--seed", "3")
    assert len(lines) == 3 * len(payload) == 6
    for i, nb in enumerate(payload):
        assert lines[3 * i] == f"neighbor {i}:"
        assert _values(lines[3 * i + 1], "  hopping:") == printed(nb["hopping"], ".10g")
        assert _values(lines[3 * i + 2], "  onsite:") == printed(nb["onsite"], ".10g")


def test_dispersion_never_solves_band_edges(capsys, monkeypatch):
    def refuse(op):
        raise AssertionError("band edges solved")

    monkeypatch.setattr(bands, "band_edges_eig", refuse)
    code, out, err = run_cli(capsys, "dispersion", "--onsite", "0,0.5", "--samples", "3", "--json")
    assert code == 0 and err == ""
    assert len(json.loads(out)["bands"]) == 2


def test_negative_points_and_samples_are_refused_before_any_solve(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("solved before the check")

    monkeypatch.setattr(bands, "band_edges_eig", refuse)
    monkeypatch.setattr(PeriodicJacobi, "floquet_eigenvalues", refuse)
    for argv, message in ((["dos", "--onsite", "0,0.5", "--points", "-3"], "points must be nonnegative"),
                          (["dispersion", "--onsite", "0,0.5", "--samples", "-1"],
                           "samples must be nonnegative")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == "" and message in err


def test_zero_points_and_samples_are_empty_answers(capsys):
    code, out, _ = run_cli(capsys, "dos", "--onsite", "0,0.5", "--points", "0", "--json")
    assert code == 0 and strict_json(out) == {"energy": [], "dos": [], "ids": []}
    code, out, _ = run_cli(capsys, "dispersion", "--onsite", "0,0.5", "--samples", "0", "--json")
    assert code == 0 and strict_json(out) == {"theta": [], "bands": [[], []]}


def test_edges_builds_the_discriminant_once(capsys, monkeypatch):
    calls = []
    build = inverse.discriminant_from_edges

    def counted(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(inverse, "discriminant_from_edges", counted)
    op = PeriodicJacobi([1.0, 1.0, 1.0], [0.6, -0.2, 0.1])
    per = ",".join(f"{x:.17g}" for x in op.floquet_eigenvalues(0.0))
    anti = ",".join(f"{x:.17g}" for x in op.floquet_eigenvalues(np.pi))
    for extra in ((), ("--json",), ("--hopping", "1,1,1")):
        calls.clear()
        code, _, err = run_cli(capsys, "edges", f"--periodic={per}", f"--antiperiodic={anti}", *extra)
        assert code == 0 and err == ""
        assert len(calls) == 1


def test_edges_goes_through_recover_operator_from_edges(capsys, monkeypatch):
    # The command answers with the library's public edge inverse, its
    # discriminant and chain both, with and without hoppings.
    seen = []
    recover = inverse.recover_operator_from_edges

    def spy(periodic, antiperiodic, hopping=None):
        seen.append(hopping)
        return recover(periodic, antiperiodic, hopping)

    monkeypatch.setattr(inverse, "recover_operator_from_edges", spy)
    for extra in ((), ("--hopping", "0.25,0.75")):
        code, out, err = run_cli(capsys, "edges", "--periodic", "1,3", "--antiperiodic", "1.5,2.5",
                                 *extra, "--json")
        assert code == 0 and err == ""
        disc, op = recover([1.0, 3.0], [1.5, 2.5], [0.25, 0.75] if extra else None)
        assert bits(strict_json(out)) == bits({
            "hopping_product": float(np.exp(disc.log_hopping_product)),
            "discriminant_chebyshev": disc.to_dict(),
            "hopping": op.hopping.tolist(),
            "onsite": op.onsite.tolist(),
        })
    assert seen == [None, [0.25, 0.75]]
