"""Command-line interface.

    hillbands bands --onsite 0,0.5 --hopping 1
    hillbands dispersion --onsite 0,0.5 --samples 64 --json
    hillbands dos --onsite 0,0.5 --points 200
    hillbands inverse --coeffs=-2,0,1 --hopping 1,1
    hillbands edges --periodic 1,3 --antiperiodic 1.5,2.5
    hillbands classes --values 0,1 --period 4
    hillbands neighbors --onsite 0,0.7,-0.3 --count 2 --seed 1

Each subcommand is a function of the parsed arguments that returns its
payload, plain JSON types only. Under --json the payload is written as
one line of compact JSON by orjson, each number in the shortest form
that parses back to the same double (pipe it through python -m json.tool
to indent it); without it, the subcommand's renderer writes the payload
as text, so the text is the payload rendered.

The argv of a request is decoded in one pass (_decode) when it is a
subcommand followed only by its own options, each spelled in full and
given once, as --name=value, as --name value with a value that does not
begin with "-", or as a bare flag. Every other argv, help and usage
errors included, is argparse's to read and answer. Both read one table
of the subcommands' options, _COMMANDS.

A module is imported where it is first needed: inverse and isospectral
in the commands that call them, argparse in _parser and in _csv_floats'
refusal, orjson in main before the argv is read, when it holds --json,
so that _csv_floats reads its float lists by orjson too. So a request
loads only what its subcommand runs, bands, dispersion and dos requests
decoded by _decode never load argparse, and a text request never loads
orjson.
"""

import functools
import sys
from types import SimpleNamespace

import numpy as np

from .bands import BandStructure, dos_curve
from .operators import PeriodicJacobi


def _csv_floats(text):
    """The floats of a comma-separated list, as float() reads it token by
    token; tokens that are empty or whitespace are skipped.

    Once orjson is loaded, as main loads it for a request that writes
    JSON, the list is first read as one JSON array, about ten times
    faster for hundreds of floats, and kept when every element is a
    float. orjson reads each number of JSON's grammar, a subset of
    float()'s, to the same double. Every other list, ints such as -0
    included, takes float()'s path, so the values and refusals are the
    same on both.
    """
    orjson = sys.modules.get("orjson")
    if orjson is not None:
        try:
            values = orjson.loads(f"[{text}]")
        except orjson.JSONDecodeError:
            pass
        else:
            if set(map(type, values)) <= {float}:
                return values
    try:
        return list(map(float, filter(str.strip, text.split(","))))
    except ValueError:
        import argparse

        raise argparse.ArgumentTypeError(f"not a comma-separated float list: {text!r}")


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


def _json_line(payload):
    """The payload as one line of compact JSON from orjson, its newline
    included: each float in its shortest round-trip form, a non-finite
    one as null. orjson is imported only on the paths that write JSON,
    since it loads 15 modules a text request does not need: main has
    imported it for --json, but not for an abbreviation argparse reads."""
    import orjson

    return orjson.dumps(payload, option=orjson.OPT_APPEND_NEWLINE).decode()


def _floats(values):
    """A returned list of floats, comma-separated, at 10 digits."""
    return ", ".join(f"{v:.10g}" for v in values)


def _columns(header, columns):
    """The header line, then one line per row of the columns at _floats' 10 digits."""
    return "\n".join([header] + [" ".join(f"{v:.10g}" for v in row) for row in zip(*columns)])


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
    return BandStructure(_chain(args), method=args.method).to_dict()


def _cmd_dispersion(args):
    if args.samples < 0:
        raise ValueError(f"samples must be nonnegative, not {args.samples}")
    thetas = np.linspace(0.0, np.pi, args.samples)
    energies = BandStructure(_chain(args)).dispersion(thetas)
    return {"theta": thetas.tolist(), "bands": energies.tolist()}


def _dispersion_text(payload):
    bands = payload["bands"]
    return _columns("theta " + " ".join(f"band{j}" for j in range(len(bands))),
                    [payload["theta"], *bands])


def _cmd_dos(args):
    energies, rho, ids = dos_curve(BandStructure(_chain(args)), points=args.points)
    return {"energy": energies.tolist(), "dos": rho.tolist(), "ids": ids.tolist()}


def _dos_text(payload):
    return _columns("energy dos ids", [payload["energy"], payload["dos"], payload["ids"]])


def _chain_payload(op):
    """The hopping and onsite lists of a returned chain."""
    return {"hopping": op.hopping.tolist(), "onsite": op.onsite.tolist()}


def _chain_text(payload):
    """The onsite and hopping lines of a returned chain."""
    return f"onsite:  {_floats(payload['onsite'])}\nhopping: {_floats(payload['hopping'])}"


def _cmd_inverse(args):
    from . import inverse

    return _chain_payload(inverse.recover_onsite(np.asarray(args.coeffs), args.hopping))


def _cmd_edges(args):
    from . import inverse

    disc, op, distance = inverse.recover_operator_from_edges(
        args.periodic, args.antiperiodic, args.hopping)
    payload = {
        "hopping_product": float(np.exp(disc.log_hopping_product)),
        "discriminant_chebyshev": disc.to_dict(),
        **_chain_payload(op),
    }
    if distance is not None:  # the sites were solved for and polished on the edges
        payload["edge_distance"] = {"before": distance[0], "after": distance[1]}
    return payload


def _edges_text(payload):
    return f"hopping product: {payload['hopping_product']:.10g}\n" + _chain_text(payload)


def _cmd_classes(args):
    from . import isospectral

    classes = isospectral.enumerate_onsite_classes(
        args.values, args.period, hopping=args.hopping)
    return {
        "alphabet": list(dict.fromkeys(args.values)),  # as read: each distinct value once
        "period": args.period,
        "class_count": len(classes),
        "classes": [
            {"size": c.size, "members": [list(m) for m in c.members]}
            for c in classes
        ],
    }


def _classes_text(payload):
    lines = [f"{payload['class_count']} isospectral classes over "
             f"{len(payload['alphabet'])}^{payload['period']} patterns"]
    for i, c in enumerate(payload["classes"]):
        shown = ", ".join(str(m) for m in c["members"][:4])
        more = "" if c["size"] <= 4 else f" (+{c['size'] - 4} more)"
        lines.append(f"class {i}: size {c['size']}: {shown}{more}")
    return "\n".join(lines)


def _cmd_neighbors(args):
    from . import isospectral

    op = _chain(args)
    found = isospectral.isospectral_neighbors(
        op, count=args.count, step=args.step, seed=args.seed)
    return [
        {**_chain_payload(nb), "orbit_distance": isospectral.orbit_distance(op, nb)}
        for nb in found
    ]


def _neighbors_text(payload):
    lines = []
    for i, nb in enumerate(payload):
        lines.append(f"neighbor {i}:")
        lines.append("  hopping: " + _floats(nb["hopping"]))
        lines.append("  onsite:  " + _floats(nb["onsite"]))
    return "\n".join(lines)


_CHAIN = {
    "--onsite": dict(type=_csv_floats, required=True,
                     help="comma-separated site energies for one cell"),
    "--hopping": dict(type=_csv_floats, default=(1.0,),
                      help="comma-separated bond strengths (default 1)"),
}
_JSON = {"--json": dict(action="store_true", default=False, help="emit JSON instead of text")}

# Every subcommand: its help line, the function that returns its payload,
# its options, each flag with its add_argument keywords, and the function
# that renders its payload as text. _parser makes argparse's parser from
# this table and _decode reads the same table, so the two paths cannot
# disagree on an option.
_COMMANDS = {
    "bands": ("band edges, widths and gaps", _cmd_bands, {
        **_CHAIN,
        "--method": dict(choices=("eig", "bisection"), default="eig"),
        **_JSON}, _gap_table),
    "dispersion": ("band energies over Bloch phase", _cmd_dispersion, {
        **_CHAIN,
        "--samples": dict(type=int, default=64),
        **_JSON}, _dispersion_text),
    "dos": ("density of states curve", _cmd_dos, {
        **_CHAIN,
        "--points": dict(type=int, default=256),
        **_JSON}, _dos_text),
    "inverse": ("recover onsite energies from discriminant coefficients", _cmd_inverse, {
        "--coeffs": dict(type=_csv_floats, required=True,
                         help="ascending discriminant coefficients, length N+1"),
        "--hopping": dict(type=_csv_floats, required=True),
        **_JSON}, _chain_text),
    "edges": ("rebuild a chain from periodic and antiperiodic eigenvalues", _cmd_edges, {
        "--periodic": dict(type=_csv_floats, required=True),
        "--antiperiodic": dict(type=_csv_floats, required=True),
        "--hopping": dict(type=_csv_floats, default=None,
                          help="bond strengths to solve the sites for; without them, the "
                               "chain with its Dirichlet eigenvalues at the gap midpoints"),
        **_JSON}, _edges_text),
    "classes": ("enumerate isospectral onsite classes over a finite alphabet", _cmd_classes, {
        "--values": dict(type=_csv_floats, required=True),
        "--period": dict(type=int, required=True),
        "--hopping": dict(type=_csv_floats, default=(1.0,)),
        **_JSON}, _classes_text),
    "neighbors": ("walk the continuous isospectral family of a chain", _cmd_neighbors, {
        **_CHAIN,
        "--count": dict(type=int, default=1),
        "--step": dict(type=float, default=0.1,
                       help="angle in radians moved on the divisor circles per neighbour"),
        "--seed": dict(type=int, default=None),
        **_JSON}, _neighbors_text),
}


@functools.cache
def _parser():
    """The parser main gives every argv that _decode leaves, made from
    _COMMANDS once per process, on first use.

    Parsing keeps no state in it: every call gets a fresh namespace, and
    the defaults are immutable.
    """
    import argparse

    parser = argparse.ArgumentParser(
        prog="hillbands",
        description="Band structure of 1-D periodic tight-binding chains "
                    "via the Hill discriminant.")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (summary, func, options, render) in _COMMANDS.items():
        p = subs.add_parser(name, help=summary)
        for flag, spec in options.items():
            p.add_argument(flag, **spec)
        p.set_defaults(func=func, render=render)
    return parser


def _decode(argv):
    """A SimpleNamespace of the attributes _parser().parse_args(argv) sets,
    for the argv that requests send: a subcommand, then only options of
    its own, each spelled out in full, given once, and written
    --name=value, --name value (a value that does not begin with "-") or,
    for a flag, --name; every value converts by its option's type and is
    one of its choices, and every required option is given. None for any
    other argv, which is argparse's to answer, help and usage errors
    included."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, func, options, render = _COMMANDS[argv[0]]
    given = {}
    rest = iter(argv[1:])
    for arg in rest:
        flag, equals, value = arg.partition("=")
        spec = options.get(flag)
        if spec is None or flag in given:
            return None
        if spec.get("action") == "store_true":
            if equals:
                return None
            given[flag] = True
            continue
        if not equals:
            value = next(rest, "-")  # a missing value is argparse's error
            if value.startswith("-"):
                return None
        if "type" in spec:
            try:
                value = spec["type"](value)
            except Exception:  # argparse reads the value again, and reports or raises
                return None
        if "choices" in spec and value not in spec["choices"]:
            return None
        given[flag] = value
    args = SimpleNamespace(command=argv[0])
    for flag, spec in options.items():
        if flag not in given and spec.get("required"):
            return None
        setattr(args, flag[2:].replace("-", "_"), given.get(flag, spec.get("default")))
    args.func, args.render = func, render
    return args


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if "--json" in argv:
        import orjson  # noqa: F401 -- for _csv_floats, before the float lists are read
    args = _decode(argv)
    if args is None:
        args = _parser().parse_args(argv)
    try:
        payload = args.func(args)
        if args.json:
            sys.stdout.write(_json_line(payload))
        else:
            sys.stdout.write(args.render(payload) + "\n")
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
