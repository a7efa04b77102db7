import argparse
import contextlib
import io
import json
import math
import re
import shlex
import struct
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import orjson
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hillbands import BandStructure, Discriminant, PeriodicJacobi, bands, cli, dos_curve, inverse
from hillbands.cli import _gap_table, main

from helpers import (
    bits,
    corpus_chain,
    fresh,
    harper_chain,
    long_edge_data,
    make_chain,
    power_coefficients,
    random_operator,
    run_cli,
    strict_json,
    uniform_chain,
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


# Each subcommand's whole text output for an argv, literally.
PINNED_TEXTS = [
    (["dispersion", "--onsite", "0,0.5", "--samples", "3"],
     "theta band0 band1\n"
     "0 -1.765564437 2.265564437\n"
     "1.570796327 -1.186140662 1.686140662\n"
     "3.141592654 0 0.5\n"),
    (["dispersion", "--onsite", "0,0.5", "--samples", "0"],
     "theta band0 band1\n"),
    (["dos", "--onsite", "0.3", "--hopping", "0.9", "--points", "4"],
     "energy dos ids\n"
     "-1.68 0 0\n"
     "-0.36 0.1900772535 0.3804989541\n"
     "0.96 0.1900772535 0.6195010459\n"
     "2.28 0 1\n"),
    (["inverse", "--coeffs=-2.16,0,1", "--hopping", "1,1"],
     "onsite:  -0.4, 0.4\n"
     "hopping: 1, 1\n"),
    (["edges", "--periodic", "1,3", "--antiperiodic", "1.5,2.5"],
     "hopping product: 0.1875\n"
     "onsite:  2, 2\n"
     "hopping: 0.25, 0.75\n"),
    (["classes", "--values", "0,1", "--period", "5"],
     "8 isospectral classes over 2^5 patterns\n"
     "class 0: size 5: [0.0, 1.0, 1.0, 1.0, 1.0], [1.0, 0.0, 1.0, 1.0, 1.0], "
     "[1.0, 1.0, 0.0, 1.0, 1.0], [1.0, 1.0, 1.0, 0.0, 1.0] (+1 more)\n"
     "class 1: size 5: [0.0, 0.0, 1.0, 1.0, 1.0], [0.0, 1.0, 1.0, 1.0, 0.0], "
     "[1.0, 0.0, 0.0, 1.0, 1.0], [1.0, 1.0, 0.0, 0.0, 1.0] (+1 more)\n"
     "class 2: size 5: [0.0, 1.0, 0.0, 1.0, 1.0], [0.0, 1.0, 1.0, 0.0, 1.0], "
     "[1.0, 0.0, 1.0, 0.0, 1.0], [1.0, 0.0, 1.0, 1.0, 0.0] (+1 more)\n"
     "class 3: size 5: [0.0, 0.0, 0.0, 1.0, 1.0], [0.0, 0.0, 1.0, 1.0, 0.0], "
     "[0.0, 1.0, 1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0, 1.0] (+1 more)\n"
     "class 4: size 5: [0.0, 0.0, 1.0, 0.0, 1.0], [0.0, 1.0, 0.0, 0.0, 1.0], "
     "[0.0, 1.0, 0.0, 1.0, 0.0], [1.0, 0.0, 0.0, 1.0, 0.0] (+1 more)\n"
     "class 5: size 5: [0.0, 0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 0.0, 1.0, 0.0], "
     "[0.0, 0.0, 1.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0, 0.0] (+1 more)\n"
     "class 6: size 1: [1.0, 1.0, 1.0, 1.0, 1.0]\n"
     "class 7: size 1: [0.0, 0.0, 0.0, 0.0, 0.0]\n"),
    (["neighbors", "--onsite", "0,0.7,-0.3", "--count", "2", "--seed", "1"],
     "neighbor 0:\n"
     "  hopping: 0.9832638283, 1.021579625, 0.9955377084\n"
     "  onsite:  -0.01352180645, 0.7023721363, -0.2888503299\n"
     "neighbor 1:\n"
     "  hopping: 0.9971131332, 1.007354686, 0.9955730979\n"
     "  onsite:  0.0186780057, 0.6939602065, -0.3126382122\n"),
    (["neighbors", "--onsite", "0,0.7,-0.3", "--count", "0"],
     "\n"),
]


@pytest.mark.parametrize("argv, text", PINNED_TEXTS, ids=[shlex.join(argv) for argv, _ in PINNED_TEXTS])
def test_every_subcommands_text_is_pinned(capsys, argv, text):
    # The whole output, literally, as test_gap_report_text_is_pinned pins
    # that of bands: no samples print the header alone, and no neighbours
    # one empty line.
    assert run_cli(capsys, *argv) == (0, text, "")


@given(st.floats(allow_nan=False, allow_infinity=False))
@example(-0.0)
@example(5e-324)
@example(1e-5)
@example(1e16)
@example(1.7976931348623157e308)
@settings(max_examples=300, deadline=None)
def test_emit_writes_floats_that_parse_back_to_the_same_bits(x):
    payload = strict_json(cli._json_line({"x": x, "xs": [x, -x]}))
    assert bits(payload) == {"x": x.hex(), "xs": [x.hex(), (-x).hex()]}


def test_harper_dispersion_and_dos_json_are_the_library_values(capsys):
    harper = harper_chain(89, 55, 0.3)
    onsite = "--onsite=" + ",".join(map(repr, harper.onsite.tolist()))
    bs = BandStructure(harper)
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
    harper = harper_chain(89, 55, 0.3)
    code, out, err = run_cli(capsys, "bands", "--onsite=" + ",".join(map(repr, harper.onsite.tolist())),
                             "--json")
    assert code == 0 and err == ""
    assert bits(strict_json(out)) == bits(BandStructure(harper).to_dict())


# One request of each subcommand, then the requests of a repeated cell,
# of a chain near the bottom of the float range and of a period-4
# inverse; every one is also served as text, in
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
    ["dos", "--onsite", "0,0.5,0,0.5", "--points", "9"],
    ["neighbors", "--onsite", "0,7e-182,-3e-182", "--hopping", "1e-181", "--seed", "1"],
    ["inverse", "--coeffs=2.4767361111111112,1.087962962962963,-4.62962962962963,-0.462962962962963,"
     "1.1574074074074074", "--hopping", "1,0.8,1.2,0.9"],
]
SUBCOMMAND_IDS = ["bands", "bands-bisection", "dispersion", "dos", "inverse", "edges0", "edges1", "classes",
                  "neighbors", "dos-repeated-cell", "neighbors-at-1e-181", "inverse-period-4"]


@pytest.mark.parametrize("argv", SUBCOMMANDS, ids=SUBCOMMAND_IDS)
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


def test_edges_writes_the_series_of_node_values_near_the_float_range(capsys):
    # A repeated dimer, N = 592: its node values reach 1.5e307, and their
    # sums in the series' FFT would overflow. The series is finite, the
    # bits of that of the node values scaled by 2**-64, and both modes
    # answer with no warning (which the test settings make an error).
    op = PeriodicJacobi(np.full(592, 0.5), np.tile([1.5, -1.5], 296))
    per, anti = op.floquet_eigenvalues([0.0, np.pi])
    argv = ["edges", f"--periodic={','.join(map(repr, per.tolist()))}",
            f"--antiperiodic={','.join(map(repr, anti.tolist()))}"]
    code, out, err = run_cli(capsys, *argv, "--json")
    assert code == 0 and err == ""
    series = strict_json(out)["discriminant_chebyshev"]
    disc = inverse.discriminant_from_edges(per, anti)
    assert np.max(np.abs(disc.values)) > 1e307
    small = Discriminant(disc.interval, np.ldexp(disc.values, -64), 0.0)
    assert bits(series["coefficients"]) == bits(np.ldexp(small.chebyshev.coef, 64).tolist())
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == "" and out.startswith("hopping product: ")


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
        (["inverse", "--coeffs=-1,0,1", "--hopping", "1,1"],
         "sum z^2 - 2 sum a^2 over the target's zeros z and the hoppings a is below (sum z)^2 / N"),
        (["classes", "--values", "0,1", "--period", "-2"], "period must be at least one"),
        (["classes", "--values=", "--period", "2"], "alphabet must not be empty"),
        (["neighbors", "--onsite", "0,0.7,-0.3", "--count", "-1"], "count must be nonnegative"),
        (["neighbors", "--onsite", "0,0.7,-0.3", "--seed", "-3"], "seed must be nonnegative"),
        (["neighbors", "--onsite", "0,1", "--step", "1e308", "--count", "3", "--seed", "1"],
         "step 1e+308 takes an angle beyond the float range"),
        (["bands", "--onsite="], "period must be at least one"),
        (["neighbors", "--onsite="], "period must be at least one"),
        (["edges", "--periodic=", "--antiperiodic="], "need at least one edge of each kind"),
        (["edges", "--periodic=", "--antiperiodic", "1"], "need at least one edge of each kind"),
        (["edges", "--periodic", "1,3", "--antiperiodic", "1.5,2.5", "--hopping", "1"],
         "need 2 hoppings for 2 edges of each kind, not 1"),
        (["edges", "--periodic", "1,3", "--antiperiodic", "1.5,2.5", "--hopping", "1,1,1"],
         "need 2 hoppings for 2 edges of each kind, not 3"),
        (["edges", "--periodic", "2.5", "--antiperiodic", "-1.5", "--hopping", "2"],
         "the hoppings' product 2 is not the edges' hopping product 1"),
        (["edges", "--periodic", "1,3", "--antiperiodic", "1.5,2.5", "--hopping", "1e200,1e200"],
         "the hoppings' product e^921.034 is not the edges' hopping product 0.1875"),
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
        # On a hull wider than the largest double the nodes and the edge
        # distances overflow: the refusal comes with no RuntimeWarning.
        (["edges", "--periodic=1e308,-1e308", "--antiperiodic=0,1"],
         "3 of the 3 node values of Delta are not finite"),
        (["edges", "--periodic=1e308,1.5e308", "--antiperiodic=1.2e308,1.7e308"],
         "3 of the 3 node values of Delta are not finite"),
        (["edges", "--periodic=1.7e308,1.7e308", "--antiperiodic=-1.7e308,-1.7e308", "--hopping=1,1"],
         "3 of the 3 node values of Delta are not finite"),
        (["edges", "--periodic=1.7e308", "--antiperiodic=-1.7e308", "--json"],
         "2 of the 2 node values of Delta are not finite"),
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


# The argv grammar, as argparse reads it. main decodes the forms requests
# send itself and leaves every other argv to argparse; either way, these
# answers must not change.

def same_answers(capsys, *argvs):
    """The one (exit code, stdout, stderr) that every argv of argvs gives."""
    answers = {run_cli(capsys, *argv) for argv in argvs}
    assert len(answers) == 1, answers
    return answers.pop()


def test_option_values_with_equals_or_as_the_next_argument_in_any_order(capsys):
    code, out, err = same_answers(
        capsys,
        ["bands", "--onsite=0,0.5", "--hopping=1,0.8", "--json"],
        ["bands", "--onsite", "0,0.5", "--hopping", "1,0.8", "--json"],
        ["bands", "--json", "--hopping", "1,0.8", "--onsite=0,0.5"],
        ["bands", "--hopping=1,0.8", "--json", "--onsite", "0,0.5", "--method=eig"],
    )
    assert code == 0 and err == ""
    assert bits(strict_json(out)) == bits(BandStructure(PeriodicJacobi([1.0, 0.8], [0.0, 0.5])).to_dict())


def test_an_abbreviated_option_is_read_as_the_whole_one(capsys):
    code, out, err = same_answers(
        capsys, ["bands", "--hop", "1", "--onsite", "0,1"], ["bands", "--hopping", "1", "--onsite", "0,1"])
    assert code == 0 and err == "" and out.startswith("period 2 chain")


def test_a_repeated_option_takes_its_last_value(capsys):
    code, out, err = same_answers(
        capsys, ["bands", "--onsite", "5,5", "--onsite", "0,1"], ["bands", "--onsite", "0,1"])
    assert code == 0 and err == ""
    code, out, err = run_cli(capsys, "dos", "--onsite", "0,1", "--points", "3", "--points=5", "--json")
    assert code == 0 and len(strict_json(out)["energy"]) == 5


def test_values_that_begin_with_a_minus(capsys):
    code, out, err = run_cli(capsys, "bands", "--onsite=-1,2", "--json")
    assert code == 0 and strict_json(out)["edges"][0] < -1.0
    # A negative number given separately is the option's value, which the
    # library then refuses (exit 1, not argparse's 2).
    code, out, err = same_answers(
        capsys, ["dos", "--onsite", "0,1", "--points", "-3"], ["dos", "--onsite", "0,1", "--points=-3"])
    assert code == 1 and out == "" and "points must be nonnegative" in err
    code, out, err = same_answers(
        capsys, ["neighbors", "--onsite", "0,0.7,-0.3", "--seed", "-3"],
        ["neighbors", "--onsite", "0,0.7,-0.3", "--seed=-3"])
    assert code == 1 and out == "" and err.startswith("error:")
    assert "seed must be nonnegative, not -3" in err
    # A separate value that is not a number is read as an option.
    code, out, err = run_cli(capsys, "dos", "--onsite", "-inf,0")
    assert code == 2 and out == "" and "argument --onsite: expected one argument" in err


def test_empty_tokens_are_skipped_and_whitespace_around_tokens_ignored(capsys):
    code, out, err = same_answers(
        capsys, *(["bands", "--onsite", text, "--json"] for text in ("1,2", "1,,2", "1,2,", " 1 , 2 ", ",1,\t,2")))
    assert code == 0 and err == ""
    assert strict_json(out) == BandStructure(PeriodicJacobi([1.0, 1.0], [1.0, 2.0])).to_dict()


@pytest.mark.parametrize("argv", [
    ["bands", "--onsite", "nan,1"],
    ["bands", "--onsite=0,1", "--hopping", "inf"],
    ["dos", "--onsite=-inf,0"],
    ["dispersion", "--onsite", "0,NaN", "--json"],
])
def test_nan_and_inf_tokens_reach_the_library_refusal(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == "" and err == "error: coefficients must be finite\n"


@pytest.mark.parametrize("text", ["0,x", "0x1p3", "1e", "1,2,three"])
def test_a_bad_float_list_exits_2_with_usage_and_the_list(capsys, text):
    for argv in (["bands", "--onsite", text], ["bands", f"--onsite={text}", "--json"]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("usage: hillbands bands ")
        assert err.endswith(f"argument --onsite: not a comma-separated float list: {text!r}\n")


@pytest.mark.parametrize("argv, message", [
    ([], "the following arguments are required: command"),
    (["bogus"], "argument command: invalid choice: 'bogus'"),
    (["--json", "bands", "--onsite", "0,1"], "unrecognized arguments: --json"),
    (["bands", "--onsite", "0,1", "--bogus", "1"], "unrecognized arguments: --bogus 1"),
    (["bands", "--onsite", "0,1", "extra"], "unrecognized arguments: extra"),
    (["bands", "--onsite", "0,1", "--points", "3"], "unrecognized arguments: --points 3"),
    (["bands", "--onsite"], "argument --onsite: expected one argument"),
    (["bands", "--hopping", "1"], "the following arguments are required: --onsite"),
    (["inverse", "--coeffs=1,2"], "the following arguments are required: --hopping"),
    (["bands", "--onsite", "0,1", "--method", "newton"], "argument --method: invalid choice: 'newton'"),
    (["bands", "--onsite", "0,1", "--json=1"], "argument --json: ignored explicit argument '1'"),
    (["dispersion", "--onsite", "0,1", "--samples", "nan"], "argument --samples: invalid int value: 'nan'"),
    (["neighbors", "--onsite", "0,1", "--step", "x"], "argument --step: invalid float value: 'x'"),
])
def test_usage_errors_exit_2_with_argparse_messages(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("usage: hillbands") and message in err


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["bands", "-h"], ["dos", "--onsite", "0,1", "--help"],
                                  ["classes", "--he"]])
def test_help_exits_0(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == "" and out.startswith("usage: hillbands")


def exact(value):
    """value with every float as its eight bytes and every value's type
    kept, so that == compares bits, the sign and payload of nan included."""
    if isinstance(value, float):
        return struct.pack("<d", value)
    if isinstance(value, dict):
        return {key: exact(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return type(value), [exact(item) for item in value]
    return type(value), value


def parsed(argv):
    """vars of the namespace argparse makes of argv, or the code it exits with."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli._parser().parse_args(argv))
        except SystemExit as exc:
            return exc.code


# Mostly repr of any double; now and then a token float() reads oddly or
# not at all.
FLOAT_TOKENS = st.one_of(
    *[st.floats().map(repr)] * 4,
    st.sampled_from(["", " ", "\t", "-0.0", "-nan", "+inf", "-Infinity", " 1 ", "1_0", "\u0661"]),
    st.sampled_from(["0x1p3", "x", "1e", "--", "-"]),
)
FLOAT_LISTS = st.lists(FLOAT_TOKENS, max_size=5).map(",".join)
TEXT_OF_TYPE = {
    cli._csv_floats: FLOAT_LISTS,
    int: st.one_of(*[st.integers(-10**6, 10**6).map(str)] * 4, st.sampled_from(["", "x", " 7 ", "1_0", "nan"])),
    float: st.one_of(*[st.floats().map(repr)] * 4, st.sampled_from(["", "x", " 1 ", "-inf", "1_0"])),
}


@st.composite
def argvs(draw):
    """An argv of one subcommand: its required options (now and then one
    left out) and a few more, repeats allowed, in any order, each written
    with = or as two arguments, now and then abbreviated or unknown."""
    name = draw(st.sampled_from(list(cli._COMMANDS)))
    options = cli._COMMANDS[name][2]
    flags = [flag for flag, spec in options.items() if spec.get("required") and draw(st.integers(0, 9))]
    flags += draw(st.lists(st.sampled_from(list(options)), max_size=4))
    argv = [name]
    for flag in draw(st.permutations(flags)):
        spec = options[flag]
        shown = draw(st.sampled_from([flag] * 12 + [flag[:-1], "--bogus"]))
        if spec.get("action") == "store_true":
            argv.append(draw(st.sampled_from([shown] * 4 + [shown + "=1"])))
            continue
        if "choices" in spec:
            value = draw(st.sampled_from([*spec["choices"], "newton", ""]))
        else:
            value = draw(TEXT_OF_TYPE[spec["type"]])
        argv += draw(st.sampled_from([[f"{shown}={value}"], [shown, value]]))
    if draw(st.integers(0, 9)) == 0:
        stray = draw(st.sampled_from(["-h", "--help", "extra", "--", "bands", "--json"]))
        argv.insert(draw(st.integers(0, len(argv))), stray)
    return argv


@given(argvs())
@example(["bands", "--onsite=-0.0,nan,-inf", "--json"])
@example(["dos", "--points", "-3", "--onsite=1"])
@example(["inverse", "--coeffs=1,2", "--hopping", "1", "--coeffs", "3"])
@example(["classes", "--period", "2", "--values", "0,1", "--hop", "1"])
@settings(max_examples=400, deadline=None)
def test_decode_defers_or_makes_the_namespace_argparse_makes(argv):
    decoded = cli._decode(argv)
    if decoded is not None:
        assert exact(vars(decoded)) == exact(parsed(argv))


@given(st.lists(st.one_of(st.text(max_size=6), FLOAT_TOKENS), max_size=6).map(",".join))
@example(" 1 ,, 2,")
@example("nan,-nan,-0.0,inf")
@example(" \x1c1")
@settings(max_examples=400, deadline=None)
def test_csv_floats_is_float_token_by_token_skipping_empty_tokens(text):
    try:
        expected = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        with pytest.raises(argparse.ArgumentTypeError) as refused:
            cli._csv_floats(text)
        assert str(refused.value) == f"not a comma-separated float list: {text!r}"
    else:
        assert exact(cli._csv_floats(text)) == exact(expected)


# The formats in which a double reaches the command line: repr, as the
# benchmark writes it, and printf's at too few, enough and too many digits.
FORMATS = [repr, "%.17g".__mod__, "%.20e".__mod__, "%.25g".__mod__, "%.16g".__mod__]
DOUBLES = st.integers(0, 2**64 - 1).map(lambda n: struct.unpack("<d", struct.pack("<Q", n))[0])


@st.composite
def long_mantissas(draw):
    """A decimal of 1 to 60 random digits, its point anywhere among them,
    times a power of ten in -345..310."""
    digits = draw(st.from_regex(r"[1-9][0-9]{0,59}", fullmatch=True))
    point = draw(st.integers(1, len(digits)))
    sign = draw(st.sampled_from(["", "-"]))
    return f"{sign}{digits[:point]}.{digits[point:] or '0'}e{draw(st.integers(-345, 310))}"


@st.composite
def near_halfway(draw):
    """The exact decimal halfway between a positive double and the next one
    up, or one unit away in its last digit."""
    x = abs(draw(DOUBLES.filter(lambda x: abs(x) < 1.7976931348623157e308)))
    with localcontext() as context:
        context.prec = 1200  # more than the 768 digits of any such midpoint
        _, digits, exponent = ((Decimal(x) + Decimal(math.nextafter(x, math.inf))) / 2).as_tuple()
    nudged = int("".join(map(str, digits))) + draw(st.sampled_from([-1, 0, 1]))
    return f"{nudged}e{exponent}"


FLOAT_TEXTS = st.one_of(*[DOUBLES.map(fmt) for fmt in FORMATS], long_mantissas(), near_halfway())


@given(st.lists(FLOAT_TEXTS, min_size=1, max_size=8))
@example(["0.1", "-0.0", "5e-324", "2.2250738585072011e-308", "1.7976931348623157e308"])
@example(["9007199254740993", "9007199254740993.0", "1e23", "8.98846567431158e307"])
@settings(max_examples=500, deadline=None)
def test_a_json_request_reads_each_float_to_the_bits_float_reads(tokens):
    # orjson is loaded, as main loads it for --json: _csv_floats reads the
    # list by orjson when every element is a float, and each token that
    # orjson reads as a float is float()'s double, bit for bit.
    assert exact(cli._csv_floats(",".join(tokens))) == exact(list(map(float, tokens)))
    for token in tokens:
        with contextlib.suppress(orjson.JSONDecodeError):  # inf, nan: not JSON
            value = orjson.loads(token)
            if type(value) is float:
                assert exact(value) == exact(float(token)), token


def test_orjson_reads_a_hundred_thousand_random_doubles_to_the_bits_float_reads():
    rng = np.random.default_rng(50)
    doubles = rng.integers(0, 2**64, 20000, dtype=np.uint64).view(np.float64)
    for fmt in FORMATS:
        tokens = list(map(fmt, doubles[np.isfinite(doubles)].tolist()))
        values = orjson.loads(f"[{','.join(tokens)}]")
        read = [(value, token) for value, token in zip(values, tokens) if type(value) is float]
        assert len(read) > 0.99 * len(tokens)  # the rest are %.16g's ints
        assert exact([value for value, _ in read]) == exact([float(token) for _, token in read])


def _refuse_json(text):
    raise orjson.JSONDecodeError("refused, so that float() reads every list", text, 0)


INF, NAN = float("inf"), float("nan")
CSV_TABLE = [
    ("-0", [-0.0]), ("1", [1.0]), ("-0.0", [-0.0]), ("1e400", [INF]), ("1.7976931348623159e308", [INF]),
    ("1.5e-400", [0.0]), ("2.4703282292062328e-324", [5e-324]), ("inf", [INF]), ("nan", [NAN]),
    (".5", [0.5]), ("+1.5", [1.5]), ("1_0.5", [10.5]), ("\u0661.\u0665", [1.5]), ("true", None),
    ('"1.5"', None), ("[1.5]", None), ("", []), (" ", []), ("1,,2", [1.0, 2.0]), ("1,2,", [1.0, 2.0]),
    (" 1 , 2 ", [1.0, 2.0]), ("\ud800", None),
]


@pytest.mark.parametrize("text, expected", CSV_TABLE, ids=[ascii(text) for text, _ in CSV_TABLE])
def test_csv_floats_reads_the_same_floats_or_refuses_the_same_by_orjson_and_by_float(
        monkeypatch, text, expected):
    # expected None: the list is refused, with its text in the message.
    def read():
        try:
            return exact(cli._csv_floats(text))
        except argparse.ArgumentTypeError as refused:
            return str(refused)

    answer = f"not a comma-separated float list: {text!r}" if expected is None else exact(expected)
    assert read() == answer
    monkeypatch.setattr(orjson, "loads", _refuse_json)
    assert read() == answer


def _csv(values):
    """values written with repr, as the benchmark writes them."""
    return ",".join(map(repr, np.asarray(values, dtype=float).tolist()))


def test_json_requests_answer_the_same_bytes_by_orjson_and_by_float(capsys, monkeypatch):
    # Every request, as argv with --json, gives the same exit code, stdout
    # and stderr whether orjson or float() reads its lists; the lists the
    # benchmark writes are read by orjson.
    large = [harper_chain(610, 377, 0.3), uniform_chain(np.random.default_rng(50), 400)]
    requests = SUBCOMMANDS + [
        [kind, f"--onsite={_csv(op.onsite)}", f"--hopping={_csv(op.hopping)}", *extra]
        for op in large
        for kind, extra in [("bands", []), ("dos", ["--points", "512"]), ("dispersion", ["--samples", "8"])]
    ]
    op = corpus_chain(5, 0)
    requests.append(["inverse", f"--coeffs={_csv(power_coefficients(op))}", f"--hopping={_csv(op.hopping)}"])
    read, loads = set(), orjson.loads

    def spy(text):
        values = loads(text)
        if set(map(type, values)) <= {float}:
            read.add(text)
        return values

    monkeypatch.setattr(orjson, "loads", spy)
    answers = [run_cli(capsys, *argv, "--json") for argv in requests]
    assert all(code == 0 for code, _, _ in answers)
    written = {f"[{arg.partition('=')[2]}]" for argv in requests[len(SUBCOMMANDS):] for arg in argv[1:3]}
    assert len(written) == 6 and written <= read
    monkeypatch.setattr(orjson, "loads", _refuse_json)
    assert [run_cli(capsys, *argv, "--json") for argv in requests] == answers


def test_requests_are_decoded_without_argparse(capsys, monkeypatch):
    # The forms the benchmark sends, --name=value lists and --name value
    # scalars, never reach argparse: a request that fell back would pay
    # for converting its lists twice.
    requests = [argv + extra for argv in SUBCOMMANDS for extra in ([], ["--json"])]
    requests += [["bands", "--onsite=-0.5,0.5", "--hopping=1.0,0.8", "--method", "bisection", "--json"],
                 ["classes", "--values=0.0,1.0", "--period", "3", "--json"]]
    for argv in requests:
        decoded = cli._decode(argv)
        assert decoded is not None and exact(vars(decoded)) == exact(parsed(argv)), argv

    def refuse():
        raise AssertionError("argparse parsed a request")

    monkeypatch.setattr(cli, "_parser", refuse)
    for argv in SUBCOMMANDS:
        code, out, err = run_cli(capsys, *argv, "--json")
        assert code == 0 and err == ""


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
    # The names of __all__ and the submodules inverse, isospectral and
    # transfer, some of them imported on first access, are the defining
    # modules' own objects.
    script = (
        "import sys\n"
        "import hillbands\n"
        "names = [name for name in hillbands.__all__ if name != '__version__']\n"
        "modules = ['inverse', 'isospectral', 'transfer']\n"
        "found = {name: getattr(hillbands, name) for name in names + modules}\n"
        "wrong = [name for name in names\n"
        "         if found[name] is not getattr(sys.modules[found[name].__module__], name)]\n"
        "wrong += [m for m in modules if found[m] is not sys.modules['hillbands.' + m]]\n"
        "print(wrong, [m for m in ('scipy.fft', 'scipy.optimize') if m in sys.modules],\n"
        "      hasattr(hillbands, 'missing'))\n"
    )
    assert fresh(script) == "[] [] False"


def _loaded_after_every_subcommand(modules, more=()):
    """The modules of modules that a fresh interpreter holds after serving
    every subcommand, bands on both routes, text and JSON, the requests
    of SUBCOMMANDS and the requests more; as printed, a list. Every
    request must exit 0 with a first line on stdout, and fresh refuses
    any output on stderr."""
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
        "def serve(argv):\n"
        "    with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "        return cli.main(argv), out.getvalue().partition('\\n')[0] != ''\n"
        "answers = [serve(argv + extra) for argv in requests for extra in ([], ['--json'])]\n"
        "assert answers == [(0, True)] * len(answers), answers\n"
        f"print([m for m in {tuple(modules)!r} if m in sys.modules])\n"
    )
    return fresh(script)


DEFERRED = ("hillbands.inverse", "hillbands.isospectral", "hillbands.transfer", "numpy.polynomial",
            "argparse")


@pytest.mark.parametrize("argv, loaded", [
    (SUBCOMMANDS[0], []),
    (SUBCOMMANDS[2], []),
    (SUBCOMMANDS[3], ["hillbands.transfer"]),
    (SUBCOMMANDS[1], ["hillbands.transfer"]),
], ids=["bands", "dispersion", "dos", "bands-bisection"])
def test_a_request_loads_only_the_modules_its_subcommand_runs(argv, loaded):
    # Of DEFERRED, a fresh interpreter that has served argv as text and
    # as JSON holds only the modules loaded: transfer for the marches of
    # dos and of the bisection route, none for eig edges and Bloch spectra.
    script = (
        "import contextlib, io, sys\n"
        "from hillbands import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [cli.main({argv!r} + extra) for extra in ([], ['--json'])]\n"
        "assert codes == [0, 0], codes\n"
        f"print([m for m in {DEFERRED!r} if m in sys.modules])\n"
    )
    assert fresh(script) == repr(loaded)


def test_orjson_loads_only_to_write_json():
    # A fresh interpreter that has served every subcommand as text holds
    # no orjson; once it serves one request with --json, it does.
    script = (
        "import contextlib, io, sys\n"
        "from hillbands import cli\n"
        "seen = []\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    for argv in {SUBCOMMANDS!r} + [{SUBCOMMANDS[0]!r} + ['--json']]:\n"
        "        assert cli.main(argv) == 0, argv\n"
        "        seen.append('orjson' in sys.modules)\n"
        "print(seen)\n"
    )
    assert fresh(script) == repr([False] * len(SUBCOMMANDS) + [True])


def test_a_json_request_loads_orjson_before_its_lists_are_read():
    # In a fresh interpreter, a text request decodes its argv without
    # orjson, and a --json request with orjson loaded, so that
    # _csv_floats reads the lists by it.
    script = (
        "import contextlib, io, sys\n"
        "from hillbands import cli\n"
        "seen, decode = [], cli._decode\n"
        "cli._decode = lambda argv: seen.append('orjson' in sys.modules) or decode(argv)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [cli.main({SUBCOMMANDS[0]!r} + extra) for extra in ([], ['--json'])]\n"
        "assert codes == [0, 0], codes\n"
        "print(seen)\n"
    )
    assert fresh(script) == "[False, True]"


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
    assert [row[0] for row in rows] == printed(payload["theta"], ".10g")
    for j, band in enumerate(payload["bands"]):
        assert [row[1 + j] for row in rows] == printed(band, ".10g")


def test_dos_text_matches_json(capsys):
    lines, payload = run_both(
        capsys, "dos", "--onsite", "0,0.5,-0.3", "--hopping", "1,0.8,1.2", "--points", "33")
    assert lines[0] == "energy dos ids"
    columns = list(zip(*(line.split() for line in lines[1:])))
    for column, key in zip(columns, ("energy", "dos", "ids")):
        assert list(column) == printed(payload[key], ".10g")


@pytest.mark.parametrize("scale", ["1e-300", "1e300"])
@pytest.mark.parametrize("argv, columns", [
    (["dos", "--points", "9"], lambda payload: [payload["energy"], payload["dos"], payload["ids"]]),
    (["dispersion", "--samples", "5"], lambda payload: [payload["theta"], *payload["bands"]]),
], ids=["dos", "dispersion"])
def test_dos_and_dispersion_text_keep_ten_digits_far_from_unit_scale(capsys, scale, argv, columns):
    # Each row is the payload's row at 10 significant digits, so the text
    # of a chain at 1e-300 or 1e300 keeps its values, in short lines.
    lines, payload = run_both(capsys, *argv, "--onsite", f"{scale},0", "--hopping", scale)
    columns = columns(payload)
    assert lines[1:] == [" ".join(printed(row, ".10g")) for row in zip(*columns)]
    assert len(lines) > 1 and max(map(len, lines)) <= 60


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
        disc, op, distance = recover([1.0, 3.0], [1.5, 2.5], [0.25, 0.75] if extra else None)
        expected = {
            "hopping_product": float(np.exp(disc.log_hopping_product)),
            "discriminant_chebyshev": disc.to_dict(),
            "hopping": op.hopping.tolist(),
            "onsite": op.onsite.tolist(),
        }
        if extra:
            expected["edge_distance"] = {"before": distance[0], "after": distance[1]}
        assert bits(strict_json(out)) == bits(expected)
    assert seen == [None, [0.25, 0.75]]


def test_readme_transcripts_are_the_output_and_every_example_runs(capsys):
    # README's transcripts are what the program writes, byte for byte, the
    # cli docstring's examples answer, and README's library example holds
    # to its closing check.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```(\w*)\n(.*?)```", readme, re.S)
    transcripts = [body for _, body in blocks if body.startswith("$ hillbands ")]
    assert len(transcripts) == 3
    for body in transcripts:
        command, expected = body.split("\n", 1)
        assert run_cli(capsys, *shlex.split(command)[2:]) == (0, expected, "")
    examples = [line.split()[1:] for line in cli.__doc__.splitlines()
                if line.lstrip().startswith("hillbands ")]
    assert len(examples) == len(cli._COMMANDS)
    for argv in examples:
        assert run_cli(capsys, *argv)[0] == 0
    (library,) = [body for language, body in blocks if language == "python"]
    *steps, check = library.strip().splitlines()
    scope = {}
    exec("\n".join(steps), scope)
    assert eval(check, scope) is True


def test_ci_runs_the_installed_script_at_most_four_times():
    # Every command-line check is a tier-1 row (SUBCOMMANDS, PINNED_TEXTS,
    # test_error_paths_exit_nonzero): CI's one step on the installed
    # script is a smoke of at most four commands, with no loop.
    workflow = (Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml").read_text()
    scripts = [step.partition("run:")[2] for step in re.split(r"\n +- ", workflow)]
    ((smoke, runs),) = [(script, runs) for script in scripts
                        if (runs := re.findall(r"(?:^|\$\(|[|;&]) *hillbands\b", script, re.M))]
    assert len(runs) <= 4
    assert not re.search(r"^ *(for|while|until)\b", smoke, re.M)
