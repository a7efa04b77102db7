"""Seeded request streams for the two workloads.

Each workload is an endless sequence of blocks. A block holds a fixed
mix of request kinds and chain sizes, so every whole block costs about
the same whatever the seed; the seed draws the chain coefficients,
phases and the order inside a block (blind-inverse targets excepted, see
inverse_iso). A run serves a fixed number of whole blocks, so its mix
and its requests depend only on the seed and the run length.

Chains reach the program only as argv strings, written with repr() so
that they parse back to the same doubles.
"""

import itertools
from dataclasses import dataclass, field

import numpy as np

from oracle import Chain, bloch_matrix

HOP = (0.4, 1.8)      # U(0.4, 1.8) hoppings, as in the ROADMAP baseline
SITE = (-1.5, 1.5)    # U(-1.5, 1.5) onsite energies
SALT = {"small_chains": 1, "spectra_large": 2}

# Harper approximants: b_n = 0.8 cos(2 pi F_{k-1} n / F_k + phi), a_n = 1.
FIBONACCI = ((89, 55), (144, 89), (233, 144), (377, 233), (610, 377))
UNIFORM_LARGE = (60, 100, 400)
CLASS_CASES = (((0.0, 1.0), 8), ((0.0, 1.0, 2.0), 5))
TARGET_STREAM = 7919  # seeds the fixed sequence of blind-inverse targets


@dataclass
class Request:
    kind: str
    argv: list
    chain: Chain = None
    chain_id: int = -1
    params: dict = field(default_factory=dict)
    block: int = 0


def _csv(values):
    return ",".join(repr(float(v)) for v in values)


def _chain_args(chain):
    return [f"--onsite={_csv(chain.onsite)}", f"--hopping={_csv(chain.hopping)}"]


def random_chain(rng, n):
    return Chain(rng.uniform(*HOP, n), rng.uniform(*SITE, n))


def uniform_chain(rng, n):
    return Chain(np.full(n, rng.uniform(*HOP)), np.full(n, rng.uniform(*SITE)), uniform=True)


def harper_chain(n, f_prev, phi):
    sites = np.arange(n)
    return Chain(np.ones(n), 0.8 * np.cos(2.0 * np.pi * f_prev * sites / n + phi))


def spectral_request(kind, chain, chain_id):
    """One of the four band-structure request kinds on one chain."""
    if kind == "bands":
        return Request(kind, ["bands", *_chain_args(chain)], chain, chain_id)
    if kind == "bands-bisection":
        return Request(kind, ["bands", *_chain_args(chain), "--method", "bisection"],
                       chain, chain_id)
    if kind.startswith("dos"):
        points = int(kind.split(":")[1])
        return Request("dos", ["dos", *_chain_args(chain), "--points", str(points)],
                       chain, chain_id, {"points": points})
    samples = int(kind.split(":")[1])
    return Request("dispersion", ["dispersion", *_chain_args(chain), "--samples", str(samples)],
                   chain, chain_id, {"samples": samples})


def spectra_small(rng, block, new_id):
    """Every period 2..24 once per spectral kind; a quarter of chains uniform."""
    out = []
    kinds = ("bands", "bands-bisection", "dos:256", "dispersion:64")
    for n in range(2, 25):
        for k, kind in enumerate(kinds):
            uniform = (n + k + block) % 4 == 0
            chain = uniform_chain(rng, n) if uniform else random_chain(rng, n)
            out.append(spectral_request(kind, chain, new_id()))
    return out


def small_chains(rng, block, new_id):
    """The spectral mix and the inverse/isospectral mix on fresh small chains."""
    out = spectra_small(rng, block, new_id) + inverse_iso(rng, block, new_id)
    rng.shuffle(out)
    return out


def spectra_large(rng, block, new_id):
    """Five Harper approximants and three uniform chains, 3-4 requests each.

    One chain with N <= 144 per block also gets a bisection-route
    request, rotating through the four such chains.
    """
    chains = [harper_chain(n, f, rng.uniform(0.0, 2.0 * np.pi)) for n, f in FIBONACCI]
    chains += [uniform_chain(rng, n) for n in UNIFORM_LARGE]
    small = [c for c in chains if c.period <= 144]
    bisect = small[block % len(small)]
    out = []
    for chain in chains:
        cid = new_id()
        kinds = ["bands", "dos:512", "dispersion:8"]
        if chain is bisect:
            kinds.append("bands-bisection")
        out.extend(spectral_request(kind, chain, cid) for kind in kinds)
    rng.shuffle(out)
    return out


def inverse_iso(rng, block, new_id):
    """Blind inverse at N = 3..7, edge data at N = 3..5, neighbours, one classes.

    The cost of a blind inverse is heavy-tailed in the target (it is set
    by how many multistarts converge), so its targets are one fixed
    sequence, the same for every seed: block k always inverts the k-th
    target of each period. Otherwise the draw of a few slow targets would
    decide a run's throughput. The seed draws everything else.
    """
    targets = np.random.default_rng([TARGET_STREAM, block])
    out = []
    for n in range(3, 8):
        chain = random_chain(targets, n)
        out.append(Request("inverse", ["inverse", f"--coeffs={_csv(coefficients(chain))}",
                                       f"--hopping={_csv(chain.hopping)}"], chain, new_id()))
        for _ in range(2):
            chain = random_chain(rng, n)
            seed = int(rng.integers(0, 2**31))
            out.append(Request("neighbors", ["neighbors", *_chain_args(chain), "--count", "2",
                                             "--seed", str(seed)], chain, new_id()))
    for n in range(3, 6):
        chain = Chain(np.full(n, rng.uniform(*HOP)), rng.uniform(*SITE, n))
        periodic = np.linalg.eigvalsh(bloch_matrix(chain, 1.0))
        antiperiodic = np.linalg.eigvalsh(bloch_matrix(chain, -1.0))
        out.append(Request("edges", ["edges", f"--periodic={_csv(periodic)}",
                                     f"--antiperiodic={_csv(antiperiodic)}"], chain, new_id()))
    values, period = CLASS_CASES[block % len(CLASS_CASES)]
    out.append(Request("classes", ["classes", f"--values={_csv(values)}", "--period", str(period)],
                       None, new_id(), {"values": values, "period": period}))
    return out


def coefficients(chain):
    """Ascending coefficients of Delta by the recurrence in polynomial form.

    Used only to write the argv of blind inverse requests (N <= 7, where
    the power basis is well conditioned).
    """
    a, b = chain.hopping, chain.onsite
    P = np.polynomial.Polynomial
    m = [[P([1.0]), P([0.0])], [P([0.0]), P([1.0])]]
    for k in range(chain.period):
        step = [[P([-b[k] / a[k], 1.0 / a[k]]), P([-a[k - 1] / a[k]])], [P([1.0]), P([0.0])]]
        m = [[step[i][0] * m[0][j] + step[i][1] * m[1][j] for j in range(2)] for i in range(2)]
    return (m[0][0] + m[1][1]).coef


GENERATORS = {"small_chains": small_chains, "spectra_large": spectra_large}


def blocks(name, seed):
    """Endless stream of request blocks for one workload and seed."""
    rng = np.random.default_rng([SALT[name], seed])
    new_id = itertools.count().__next__
    block = 0
    while True:
        requests = GENERATORS[name](rng, block, new_id)
        for req in requests:
            req.block = block
        yield requests
        block += 1


def warmup(name):
    """A few small requests of every kind the workload sends, untimed."""
    rng = np.random.default_rng([SALT[name], 2**32 - 1])
    new_id = itertools.count().__next__
    kinds = ("bands", "bands-bisection", "dos:64", "dispersion:8")
    out = [spectral_request(kind, random_chain(rng, 6), new_id()) for kind in kinds]
    if name == "small_chains":
        out += [r for r in inverse_iso(rng, 0, new_id) if r.chain is None or r.chain.period <= 4]
    return out


def setup_request():
    """The request a fresh interpreter serves once to count as set up."""
    return ["bands", "--onsite=0.0,0.5,-0.3,0.2", "--hopping=1.0,0.8,1.2,0.9"]
