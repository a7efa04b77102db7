"""Shared test utilities."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
from numpy.polynomial import Polynomial

from hillbands import Discriminant, PeriodicJacobi, band_edges_eig, inverse, transfer
from hillbands.cli import _chain, main


def run_cli(capture, *argv):
    """Exit code, stdout and stderr of one call of the command line;
    capture is pytest's capsys, or capfd to see output below Python's."""
    code = main(list(argv))
    captured = capture.readouterr()
    return code, captured.out, captured.err


def make_chain(onsite, hopping=(1.0,)):
    """The chain of --onsite and --hopping given as these lists."""
    return _chain(SimpleNamespace(onsite=onsite, hopping=hopping))


def refuse_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def strict_json(out):
    """The payload of one line of strict JSON: NaN and Infinity refused."""
    assert out.endswith("\n") and out.count("\n") == 1  # compact, one line
    return json.loads(out, parse_constant=refuse_constant)


def bits(x):
    """x with every float spelled by float.hex, so that == compares bits,
    the sign of zero included."""
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, dict):
        return {key: bits(value) for key, value in x.items()}
    if isinstance(x, list):
        return [bits(value) for value in x]
    return x


def fresh(script):
    """Run script in a fresh interpreter that imports hillbands from src;
    returns its last line of output."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src"), env.get("PYTHONPATH", "")]
    )
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    return done.stdout.strip().splitlines()[-1]


def random_operator(rng, period, hop_range=(0.4, 1.8), onsite_range=(-1.5, 1.5)):
    return PeriodicJacobi(
        rng.uniform(*hop_range, period), rng.uniform(*onsite_range, period)
    )


def long_edge_data():
    """Periodic and antiperiodic edges of a random N = 640 chain (seed
    [640, 0], a ~ U(0.4, 1.8), b ~ U(-1.5, 1.5)), where the products of
    edge distances behind Delta's node values overflow."""
    rng = np.random.default_rng([640, 0])
    a = rng.uniform(0.4, 1.8, 640)
    b = rng.uniform(-1.5, 1.5, 640)
    return PeriodicJacobi(a, b).floquet_eigenvalues([0.0, np.pi])


def floquet_matrix(op, theta):
    """Dense N x N Bloch Hamiltonian of op for boundary phase
    u_{n+N} = e^{i theta} u_n: Hermitian for real theta, with the N
    solutions of Delta(lam) = 2 cos(theta) as eigenvalues. An oracle for
    the band-matrix solves of PeriodicJacobi.floquet_eigenvalues."""
    n = op.period
    J = np.zeros((n, n), dtype=complex)
    np.fill_diagonal(J, op.onsite)
    if n == 1:
        J[0, 0] += 2.0 * op.hopping[0] * np.cos(theta)
        return J
    idx = np.arange(n - 1)
    J[idx, idx + 1] += op.hopping[:-1]
    J[idx + 1, idx] += op.hopping[:-1]
    J[n - 1, 0] += op.hopping[-1] * np.exp(1j * theta)
    J[0, n - 1] += op.hopping[-1] * np.exp(-1j * theta)
    return J


def free_discriminant(period, hopping=1.0, onsite=0.0):
    """Closed form of the constant chain's Delta, 2 T_N((lam - b)/(2a)), as
    a Discriminant: on [b - 2a, b + 2a] its node values are
    2 T_N(cos(pi k / N)) = 2 (-1)^k. An oracle apart from the march."""
    if period < 0:
        raise ValueError("period must be nonnegative")
    values = 2.0 * (-1.0) ** np.arange(period + 1)
    return Discriminant((onsite - 2.0 * hopping, onsite + 2.0 * hopping), values,
                        period * np.log(hopping))


def dirichlet_matrix(op):
    """Dense tridiagonal block of op on sites 1..N-1 (site 0 deleted),
    whose eigenvalues are the Dirichlet spectrum."""
    n = op.period
    if n == 1:
        return np.zeros((0, 0))
    d = np.diag(op.onsite[1:]).astype(float)
    if n > 2:
        idx = np.arange(n - 2)
        d[idx, idx + 1] = op.hopping[1:-1]
        d[idx + 1, idx] = op.hopping[1:-1]
    return d


def truncated_matrix(op, cells):
    """Dense Hamiltonian of `cells` repetitions of op with open ends."""
    n = op.period * cells
    diag = np.tile(op.onsite, cells)
    off = np.tile(op.hopping, cells)[: n - 1]
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


def edge_error(op, edges):
    """Largest |eig edge of op - edge| / max(1, |edge|) over the sorted edges."""
    edges = np.sort(edges)
    return np.max(np.abs(band_edges_eig(op) - edges) / np.maximum(1.0, np.abs(edges)))


def monodromy_polynomials(op):
    """The entries of M as numpy Polynomials in lam, marched site by site.

    An oracle apart from the package's march, well conditioned at the
    short periods the tests use it at.
    """
    a, b = op.hopping, op.onsite
    one, zero = Polynomial([1.0]), Polynomial([0.0])
    m = [[one, zero], [zero, one]]
    for k in range(op.period):
        shift, back = Polynomial([-b[k] / a[k], 1.0 / a[k]]), a[k - 1] / a[k]
        m = [[shift * m[0][j] - back * m[1][j] for j in range(2)], m[0]]
    return m


def power_coefficients(op):
    """Ascending power-basis coefficients of Delta = tr M, for comparing
    two chains' discriminants."""
    m = monodromy_polynomials(op)
    return (m[0][0] + m[1][1]).coef


def monic_coefficients(disc):
    """(prod a) Delta in the power basis, converted from disc's Chebyshev series."""
    return np.exp(disc.log_hopping_product) * disc.chebyshev.convert(kind=Polynomial).coef


def exact_discriminant(op, lam):
    """Delta and Delta' at lam by the recurrence in exact rational arithmetic."""
    a = [Fraction(x) for x in op.hopping]
    b = [Fraction(x) for x in op.onsite]
    lam = Fraction(lam)
    cur, prev = [Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]
    dcur, dprev = [Fraction(0)] * 2, [Fraction(0)] * 2
    for k in range(op.period):
        shift, back = (lam - b[k]) / a[k], a[k - 1] / a[k]
        nxt = [shift * u - back * v for u, v in zip(cur, prev)]
        dnxt = [u / a[k] + shift * du - back * dv for u, du, dv in zip(cur, dcur, dprev)]
        prev, cur, dprev, dcur = cur, nxt, dcur, dnxt
    return cur[0] + prev[1], dcur[0] + dprev[1]


def record_marches(monkeypatch):
    """Log every march of the recurrence from now on, as (batched, chain):
    batched when the march ran the N rotations of a chain, and chain the
    bytes of the marched chain's bonds and sites (for a batch, those of
    rotation N - 1, the chain itself)."""
    log = []
    march = transfer._march_values

    def logged(hopping, onsite, lam, **kwargs):
        a, b = np.asarray(hopping), np.asarray(onsite)
        batched = b.ndim == 2
        if batched:
            a, b = a[:, -1], b[:, -1]
        log.append((batched, a.tobytes() + b.tobytes()))
        return march(hopping, onsite, lam, **kwargs)

    monkeypatch.setattr(transfer, "_march_values", logged)
    return log


def two_march_solvers(monkeypatch):
    """Make the solvers evaluate as they did before Delta and its
    Jacobian came from one march: Delta by a value march of the chain
    alone, the Jacobian by the batch of its rotations, and no memo, so
    the residual and the Jacobian at one iterate march twice each. The
    reference for the fused evaluation."""
    jacobian = transfer.discriminant_jacobian

    def two_marches(hopping, onsite, lam):
        return transfer.discriminant(hopping, onsite, lam)[0], jacobian(hopping, onsite, lam)[1]

    def unfused(evaluate):
        return (lambda x: evaluate(x)[0]), (lambda x: evaluate(x)[1])

    monkeypatch.setattr(transfer, "discriminant_jacobian", two_marches)
    monkeypatch.setattr(inverse, "fused", unfused)
