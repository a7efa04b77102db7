import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hillbands import BandStructure, Discriminant, PeriodicJacobi, bands, cli, tightbinding
from hillbands.cli import main

from helpers import power_coefficients


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
    assert np.allclose(payload["edges"], bs.edges, atol=1e-12)
    assert payload["period"] == 2


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


def test_bands_json_on_long_chain_overflow_exits_nonzero(capsys):
    # Delta exceeds 1e308 in the gaps of a random N = 1024 chain, so its
    # node values cannot be formed: the request fails loudly.
    rng = np.random.default_rng(1024)
    onsite = ",".join(f"{x:.17g}" for x in rng.uniform(-1.5, 1.5, 1024))
    hopping = ",".join(f"{x:.17g}" for x in rng.uniform(0.4, 1.8, 1024))
    code, out, err = run_cli(
        capsys, "bands", f"--onsite={onsite}", f"--hopping={hopping}", "--json"
    )
    assert code == 1 and out == ""
    assert "overflow" in err


def test_bands_json_with_hopping_product_out_of_float_range(capsys):
    # prod a = 10^400 is not a float; log(prod a) is, and Delta on the
    # band of this uniform chain is 2 T_N.
    code, out, err = run_cli(
        capsys, "bands", "--onsite", ",".join(["0.3"] * 400), "--hopping", "10", "--json"
    )
    assert code == 0 and err == ""
    series = json.loads(out)["discriminant_chebyshev"]
    assert series["interval"] == [0.3 - 20.0, 0.3 + 20.0]
    expected = np.zeros(401)
    expected[400] = 2.0
    assert np.max(np.abs(np.asarray(series["coefficients"]) - expected)) <= 1e-12


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
    truth = Discriminant.from_operator(op)(lam)
    got = np.polynomial.Chebyshev(series["coefficients"], domain=series["interval"])(lam)
    assert np.allclose(got, truth, atol=1e-8)


def test_classes_subcommand(capsys):
    code, out, _ = run_cli(
        capsys, "classes", "--values", "0,1", "--period", "4", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["class_count"] == 6
    assert sum(c["size"] for c in payload["classes"]) == 16


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


def test_error_paths_exit_nonzero(capsys):
    code, out, err = run_cli(capsys, "inverse", "--coeffs", "1,1", "--hopping", "2")
    assert code == 1
    assert "error:" in err

    code, out, err = run_cli(
        capsys, "edges", "--periodic", "0,1", "--antiperiodic", "0.5,3"
    )
    assert code == 1
    assert "error:" in err


def test_bad_float_list_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["bands", "--onsite", "zero,one"])


def test_consecutive_calls_share_no_state(capsys, monkeypatch):
    # main reuses one parser; each call must still see only its own argv.
    seen = []
    build = tightbinding.band_structure

    def spy(onsite, hopping=1.0, method="eig"):
        seen.append((list(onsite), list(hopping), method))
        return build(onsite, hopping, method=method)

    monkeypatch.setattr(tightbinding, "band_structure", spy)
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
    # Only the blind inverse needs scipy.optimize; it is imported on first use.
    script = (
        "import sys\n"
        "import hillbands\n"
        "from hillbands import cli\n"
        "assert cli.main(['bands', '--onsite', '0,0.5,-0.3', '--json']) == 0\n"
        "print('scipy.optimize' in sys.modules)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src"), env.get("PYTHONPATH", "")]
    )
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip().splitlines()[-1] == "False"


def run_both(capsys, *argv):
    """Text and JSON output of the same call: (text lines, payload)."""
    code, text, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    code, out, err = run_cli(capsys, *argv, "--json")
    assert code == 0 and err == ""
    assert out.endswith("\n") and out.count("\n") == 1  # compact, one line
    return text.splitlines(), json.loads(out)


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
