"""Command-line interface.

    hillbands bands --onsite 0,0.5 --hopping 1
    hillbands dispersion --onsite 0,0.5 --samples 64 --json
    hillbands dos --onsite 0,0.5 --points 200
    hillbands inverse --coeffs -2,0,1 --hopping 1,1
    hillbands edges --periodic 1,3 --antiperiodic 1.5,2.5
    hillbands classes --values 0,1 --period 4
    hillbands neighbors --onsite 0,0.7,-0.3 --count 2 --seed 1

Every subcommand accepts --json for machine-readable output: one line of
compact JSON written by orjson, each number in the shortest form that
parses back to the same double (pipe it through python -m json.tool to
indent it).
"""

import argparse
import functools
import sys

import numpy as np
import orjson

from . import inverse, isospectral
from .bands import BandStructure, dos_curve
from .operators import PeriodicJacobi


def _csv_floats(text):
    try:
        return [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated float list: {text!r}")


def _add_chain_arguments(sub):
    sub.add_argument("--onsite", type=_csv_floats, required=True,
                     help="comma-separated site energies for one cell")
    sub.add_argument("--hopping", type=_csv_floats, default=(1.0,),
                     help="comma-separated bond strengths (default 1)")


def _chain(args):
    """The chain of --onsite and --hopping. One hopping broadcasts over
    the sites, however many (none included, which PeriodicJacobi refuses
    as a period below one); one site energy over two or more hoppings."""
    b, a = np.asarray(args.onsite, dtype=float), np.asarray(args.hopping, dtype=float)
    if a.size == 1 and b.size != 1:
        a = np.full(b.size, a[0])
    if b.size == 1 and a.size > 1:
        b = np.full(a.size, b[0])
    return PeriodicJacobi(a, b)


def _emit(args, payload, text):
    """Write the payload under --json, else the text; both are zero-argument
    callables, and only the one written is called. JSON goes out compact,
    on one line, from orjson: each float in its shortest round-trip form,
    a non-finite one as null."""
    if args.json:
        sys.stdout.write(orjson.dumps(payload(), option=orjson.OPT_APPEND_NEWLINE).decode())
    else:
        sys.stdout.write(text() + "\n")


def _gap_table(record):
    """Plain-text table of the bands and gaps of a BandStructure.to_dict
    record; a gap is open when its edges differ."""
    edges = record["edges"]
    head, row = "{:>4}  {:>12}  {:>12}  {:>12}", "{:>4}  {:>12.6g}  {:>12.6g}  {:>12.6g}"
    lines = [f"period {record['period']} chain; "
             f"spectrum within [{edges[0]:.6g}, {edges[-1]:.6g}]",
             head.format("band", "lower", "upper", "width")]
    for j, ((lower, upper), width) in enumerate(zip(record["bands"], record["band_widths"])):
        lines.append(row.format(j, lower, upper, width))
    if record["gaps"]:
        lines.append(head.format("gap", "lower", "upper", "width") + "  state")
        for j, ((lower, upper), width) in enumerate(zip(record["gaps"], record["gap_widths"])):
            state = "open" if upper > lower else "closed"
            lines.append(row.format(j, lower, upper, width) + f"  {state}")
    return "\n".join(lines)


def _cmd_bands(args):
    bs = BandStructure(_chain(args), method=args.method)
    _emit(args, bs.to_dict, lambda: _gap_table(bs.to_dict()))


def _cmd_dispersion(args):
    if args.samples < 0:
        raise ValueError(f"samples must be nonnegative, not {args.samples}")
    bs = BandStructure(_chain(args))
    thetas = np.linspace(0.0, np.pi, args.samples)
    energies = bs.dispersion(thetas)

    def text():
        lines = ["theta " + " ".join(f"band{j}" for j in range(energies.shape[0]))]
        for k, theta in enumerate(thetas):
            lines.append(f"{theta:.6f} " + " ".join(f"{e:.8f}" for e in energies[:, k]))
        return "\n".join(lines)

    _emit(args, lambda: {"theta": thetas.tolist(), "bands": energies.tolist()}, text)


def _cmd_dos(args):
    bs = BandStructure(_chain(args))
    energies, rho, ids = dos_curve(bs, points=args.points)

    def text():
        lines = ["energy dos ids"]
        for row in zip(energies, rho, ids):
            lines.append("{:.8f} {:.8f} {:.8f}".format(*row))
        return "\n".join(lines)

    _emit(args, lambda: {"energy": energies.tolist(), "dos": rho.tolist(), "ids": ids.tolist()},
          text)


def _chain_text(op):
    """The onsite and hopping lines of a returned chain, at 10 digits."""
    return ("onsite:  " + ", ".join(f"{b:.10g}" for b in op.onsite)
            + "\nhopping: " + ", ".join(f"{a:.10g}" for a in op.hopping))


def _cmd_inverse(args):
    op = inverse.recover_onsite(np.asarray(args.coeffs), args.hopping)
    _emit(args, lambda: {"hopping": op.hopping.tolist(), "onsite": op.onsite.tolist()},
          lambda: _chain_text(op))


def _cmd_edges(args):
    disc, op = inverse.recover_operator_from_edges(args.periodic, args.antiperiodic, args.hopping)
    product = float(np.exp(disc.log_hopping_product))
    _emit(args,
          lambda: {
              "hopping_product": product,
              "discriminant_chebyshev": disc.to_dict(),
              "hopping": op.hopping.tolist(),
              "onsite": op.onsite.tolist(),
          },
          lambda: f"hopping product: {product:.10g}\n" + _chain_text(op))


def _cmd_classes(args):
    classes = isospectral.enumerate_onsite_classes(
        args.values, args.period, hopping=args.hopping)
    alphabet = list(dict.fromkeys(args.values))  # as read: each distinct value once

    def payload():
        return {
            "alphabet": alphabet,
            "period": args.period,
            "class_count": len(classes),
            "classes": [
                {"size": c.size, "members": [list(m) for m in c.members]}
                for c in classes
            ],
        }

    def text():
        lines = [f"{len(classes)} isospectral classes over "
                 f"{len(alphabet)}^{args.period} patterns"]
        for i, c in enumerate(classes):
            shown = ", ".join(str(list(m)) for m in c.members[:4])
            more = "" if c.size <= 4 else f" (+{c.size - 4} more)"
            lines.append(f"class {i}: size {c.size}: {shown}{more}")
        return "\n".join(lines)

    _emit(args, payload, text)


def _cmd_neighbors(args):
    op = _chain(args)
    found = isospectral.isospectral_neighbors(
        op, count=args.count, step=args.step, seed=args.seed)

    def payload():
        return [
            {"hopping": nb.hopping.tolist(), "onsite": nb.onsite.tolist(),
             "orbit_distance": isospectral.orbit_distance(op, nb)}
            for nb in found
        ]

    def text():
        lines = []
        for i, nb in enumerate(found):
            lines.append(f"neighbor {i}:")
            lines.append("  hopping: " + ", ".join(f"{a:.10g}" for a in nb.hopping))
            lines.append("  onsite:  " + ", ".join(f"{b:.10g}" for b in nb.onsite))
        return "\n".join(lines)

    _emit(args, payload, text)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hillbands",
        description="Band structure of 1-D periodic tight-binding chains "
                    "via the Hill discriminant.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("bands", help="band edges, widths and gaps")
    _add_chain_arguments(p)
    p.add_argument("--method", choices=["eig", "bisection"], default="eig")
    p.set_defaults(func=_cmd_bands)

    p = subs.add_parser("dispersion", help="band energies over Bloch phase")
    _add_chain_arguments(p)
    p.add_argument("--samples", type=int, default=64)
    p.set_defaults(func=_cmd_dispersion)

    p = subs.add_parser("dos", help="density of states curve")
    _add_chain_arguments(p)
    p.add_argument("--points", type=int, default=256)
    p.set_defaults(func=_cmd_dos)

    p = subs.add_parser("inverse", help="recover onsite energies from "
                                        "discriminant coefficients")
    p.add_argument("--coeffs", type=_csv_floats, required=True,
                   help="ascending discriminant coefficients, length N+1")
    p.add_argument("--hopping", type=_csv_floats, required=True)
    p.set_defaults(func=_cmd_inverse)

    p = subs.add_parser("edges", help="rebuild a chain from periodic and "
                                      "antiperiodic eigenvalues")
    p.add_argument("--periodic", type=_csv_floats, required=True)
    p.add_argument("--antiperiodic", type=_csv_floats, required=True)
    p.add_argument("--hopping", type=_csv_floats, default=None,
                   help="bond strengths to solve the sites for; without them, the "
                        "chain with its Dirichlet eigenvalues at the gap midpoints")
    p.set_defaults(func=_cmd_edges)

    p = subs.add_parser("classes", help="enumerate isospectral onsite classes "
                                        "over a finite alphabet")
    p.add_argument("--values", type=_csv_floats, required=True)
    p.add_argument("--period", type=int, required=True)
    p.add_argument("--hopping", type=_csv_floats, default=(1.0,))
    p.set_defaults(func=_cmd_classes)

    p = subs.add_parser("neighbors", help="walk the continuous isospectral "
                                          "family of a chain")
    _add_chain_arguments(p)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--step", type=float, default=0.1,
                   help="angle in radians moved on the divisor circles per neighbour")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_neighbors)

    for sub in subs.choices.values():
        sub.add_argument("--json", action="store_true",
                         help="emit JSON instead of text")
    return parser


@functools.cache
def _parser():
    """The parser main uses, built once per process.

    Parsing keeps no state in it: every call gets a fresh namespace, and
    the defaults are immutable.
    """
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        args.func(args)
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
