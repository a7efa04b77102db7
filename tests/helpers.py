"""Shared test utilities."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import mpmath
import numpy as np
from numpy.polynomial import Polynomial

from hillbands import Discriminant, PeriodicJacobi, band_edges_eig, inverse, transfer
from hillbands.cli import _chain, main


def run_cli(capture, *argv):
    """Exit code, stdout and stderr of one call of the command line,
    argparse's own exits (help, usage errors) included; capture is
    pytest's capsys, or capfd to see output below Python's."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
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


def interpreter(*args, cwd=None):
    """The finished run of a fresh interpreter with these arguments that
    imports hillbands from src, its stdout and stderr as text."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src"), env.get("PYTHONPATH", "")]
    )
    return subprocess.run([sys.executable, *args], env=env, cwd=cwd, capture_output=True, text=True)


def fresh(script):
    """Run script in a fresh interpreter that imports hillbands from src;
    returns its last line of output. The script must exit 0 and write
    nothing to stderr, not even a warning."""
    done = interpreter("-c", script)
    done.check_returncode()
    assert done.stderr == "", done.stderr
    return done.stdout.strip().splitlines()[-1]


def random_operator(rng, period, hop_range=(0.4, 1.8), onsite_range=(-1.5, 1.5)):
    return PeriodicJacobi(
        rng.uniform(*hop_range, period), rng.uniform(*onsite_range, period)
    )


def corpus_chain(n, s):
    """Chain s of period n of the corpus: a ~ U(0.4, 1.8), then
    b ~ U(-1.5, 1.5), drawn from default_rng([n, s])."""
    return random_operator(np.random.default_rng([n, s]), n)


def free_chain(period, hopping=1.0, onsite=0.0):
    """The uniform chain: every bond `hopping`, every site `onsite`."""
    return PeriodicJacobi(np.full(period, hopping), np.full(period, onsite))


def uniform_chain(rng, n):
    """A uniform chain of period n, its bond from U(0.4, 1.8) drawn from
    rng before its site from U(-1.5, 1.5)."""
    return free_chain(n, rng.uniform(0.4, 1.8), rng.uniform(-1.5, 1.5))


def harper_chain(period, f_prev, phi):
    """The Fibonacci approximant a = 1, b_n = 0.8 cos(2 pi f_prev n / period + phi)
    of the almost-Mathieu chain."""
    sites = np.arange(period)
    return PeriodicJacobi(np.ones(period), 0.8 * np.cos(2 * np.pi * f_prev * sites / period + phi))


def tiled(cell, m):
    """The chain of cell repeated m times."""
    return PeriodicJacobi(np.tile(cell.hopping, m), np.tile(cell.onsite, m))


def odd_values(k, max_q):
    """The free values q_1..q_k of an odd chain (PeriodicJacobi.odd):
    default_rng(k).uniform(-1, 1, k), scaled to max|q| = max_q."""
    q = np.random.default_rng(k).uniform(-1.0, 1.0, k)
    return q * (max_q / np.max(np.abs(q)))


def odd_members_k2(q):
    """The free values of every odd chain of period 4 (k = 2) with the
    spectrum of PeriodicJacobi.odd(q), one row each, in order of angle.

    At a = 1, Delta = lam^4 + c_2 lam^2 + c_0 is even and monic, and c_2
    is fixed by tr J(pi/2)^2 = 2 |q|^2 + 8, so the members are the points
    q' of the circle |q'| = |q| where Delta(0) is q's: every sign change
    of Delta(0) - Delta_q(0) over 4096 angles, from one batched march,
    bisected 60 times, all brackets in one march a round.
    """
    radius = np.hypot(*q)
    at_zero = transfer.March(np.ones(4)).at(0.0).trace(PeriodicJacobi.odd(q).onsite)[0]

    def excess(t):  # Delta(0) - Delta_q(0) at the angles t
        x, y = radius * np.cos(t), radius * np.sin(t)
        return transfer.March(np.ones((4, t.size))).at(0.0).trace(np.stack([-x, x, y, -y]))[0] - at_zero

    t = np.linspace(0.0, 2.0 * np.pi, 4097)
    sign = np.signbit(excess(t))
    change = np.flatnonzero(sign[:-1] != sign[1:])
    lo, hi, low_sign = t[change], t[change + 1], sign[change]
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        same = np.signbit(excess(mid)) == low_sign
        lo, hi = np.where(same, mid, lo), np.where(same, hi, mid)
    mid = 0.5 * (lo + hi)
    return radius * np.column_stack([np.cos(mid), np.sin(mid)])


def long_edge_data():
    """Periodic and antiperiodic edges of the corpus chain N = 640, s = 0,
    where the products of edge distances behind Delta's node values
    overflow."""
    return corpus_chain(640, 0).floquet_eigenvalues([0.0, np.pi])


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


def mp_discriminant(op, lam, digits):
    """Delta at each point of lam, in C order, by the recurrence in mpmath
    at `digits` decimal digits: a list of mpf. The chain's doubles and lam
    are taken exactly. An oracle for the march that shares no code with it."""
    with mpmath.workdps(digits):
        a = [mpmath.mpf(x) for x in op.hopping.tolist()]
        b = [mpmath.mpf(x) for x in op.onsite.tolist()]
        out = []
        for x in np.ravel(lam).tolist():
            cur, prev = [1, 0], [0, 1]
            for k in range(op.period):
                shift, back = (x - b[k]) / a[k], a[k - 1] / a[k]
                prev, cur = cur, [shift * u - back * v for u, v in zip(cur, prev)]
            out.append(cur[0] + prev[1])
    return out


def mp_heights(op, lam, digits):
    """arccosh(|Delta| / 2) at each point of lam, with Delta from
    mp_discriminant at `digits` digits, rounded to doubles of lam's shape."""
    with mpmath.workdps(digits):
        heights = [float(mpmath.acosh(abs(d) / 2)) for d in mp_discriminant(op, lam, digits)]
    return np.reshape(heights, np.shape(lam))


def theta_average_heights(op, lam, M):
    """The mean over theta_m = 2 pi m / M, m = 0..M-1, of
    sum_j log|lam - E_j(theta_m)|, E_j(theta) the Bloch eigenvalues of
    floquet_eigenvalues, minus log(prod a), elementwise in lam.

    Since prod_j (lam - E_j(theta)) = (prod a) (Delta(lam) - 2 cos theta),
    this is the trapezoid rule for the mean of log|Delta - 2 cos theta|,
    which is arccosh(|Delta| / 2) where |Delta| >= 2. The sum equals
    log|2 T_M(Delta / 2) - 2| / M exactly, so at a height h the rule is
    off by about exp(-M h) / M. An oracle for the heights that never
    runs the march."""
    lam = np.asarray(lam, dtype=float)
    spectra = op.floquet_eigenvalues(2.0 * np.pi * np.arange(M) / M)
    logs = np.log(np.abs(lam[..., None, None] - spectra)).sum(axis=-1).mean(axis=-1)
    return logs - np.sum(np.log(op.hopping))


def monodromy(op, lam, derivs=0):
    """M of op at lam and its first derivs lam-derivatives, on a leading
    axis, by the plain march of the chain alone: the reference for M."""
    return transfer.March(op.hopping).at(lam, derivs).monodromy(op.onsite)


def record_marches(monkeypatch):
    """Log every march of the recurrence from now on, as (batched, chain):
    batched when the march ran the N rotations of a chain, and chain the
    bytes of the marched chain's bonds and sites (for a batch, those of
    rotation N - 1, the chain itself)."""
    log = []
    run = transfer.March.run

    def logged(march, onsite, *args, **kwargs):
        a, b = march.a.reshape(len(march.a), -1)[:, -1], np.asarray(onsite)
        batched = b.ndim == 2
        if batched:
            b = b[:, -1]
        log.append((batched, a.tobytes() + b.tobytes()))
        return run(march, onsite, *args, **kwargs)

    monkeypatch.setattr(transfer.March, "run", logged)
    return log


def two_march_solvers(monkeypatch):
    """Make the solvers evaluate as they did before Delta and its
    Jacobian came from one march: Delta by a value march of the chain
    alone, the Jacobian by the batch of its rotations, and no memo, so
    the residual and the Jacobian at one iterate march twice each. The
    reference for the fused evaluation."""
    jacobian_at = transfer.jacobian_at

    def two_marches(hopping, lam):
        jacobian = jacobian_at(hopping, lam)
        return lambda onsite: (transfer.March(hopping).at(lam).trace(onsite)[0], jacobian(onsite)[1])

    def unfused(evaluate):
        return (lambda x: evaluate(x)[0]), (lambda x: evaluate(x)[1])

    monkeypatch.setattr(transfer, "jacobian_at", two_marches)
    monkeypatch.setattr(inverse, "fused", unfused)
