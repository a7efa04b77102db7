"""Span and count recording around the package's layers, from outside.

The tracer replaces module and class attributes of the imported package
with recording wrappers, at the names the package looks them up by at
call time, and puts the originals back on uninstall. The package's code
is not changed. A name that no longer exists is reported as absent and
its metrics read zero.

A span is (name, start, end, parent index, request id, ok, amount);
amount is a per-call quantity such as the number of energies evaluated.
Spans stay in memory and are written out when the run ends.
"""

import importlib
import json
import time
from collections import Counter

import numpy as np


def _size(x):
    return int(np.size(x))


# (module, attribute path, span name, mode, amount(args, kwargs, result))
# mode "span" records a span; "count" only counts calls, for functions so
# small that timing them would cost more than they do.
TARGETS = (
    ("hillbands.cli", "main", "cli.main", "span", None),
    ("hillbands.tightbinding", "band_structure", "tightbinding.band_structure", "span", None),
    ("hillbands.tightbinding", "dos_curve", "tightbinding.dos_curve", "span", None),
    ("hillbands.tightbinding", "gap_report", "tightbinding.gap_report", "span", None),
    ("hillbands.tightbinding", "make_chain", "tightbinding.make_chain", "span", None),
    ("hillbands.bands", "BandStructure.__init__", "bands.BandStructure", "span", None),
    ("hillbands.bands", "band_edges_eig", "bands.band_edges_eig", "span", None),
    ("hillbands.bands", "band_edges_bisection", "bands.band_edges_bisection", "span", None),
    ("hillbands.bands", "BandStructure.integrated_density", "bands.integrated_density", "span",
     lambda args, kw, res: _size(args[1])),
    ("hillbands.bands", "BandStructure.density_of_states", "bands.density_of_states", "span",
     None),
    ("hillbands.bands", "BandStructure.dispersion", "bands.dispersion", "span",
     lambda args, kw, res: _size(args[1])),
    ("hillbands.discriminant", "Discriminant.from_operator", "discriminant.from_operator",
     "span", None),
    ("hillbands.discriminant", "Discriminant.__call__", "discriminant.eval", "span",
     lambda args, kw, res: _size(args[1])),
    ("hillbands.discriminant", "Discriminant.derivative", "discriminant.eval", "span",
     lambda args, kw, res: _size(args[1])),
    ("hillbands.transfer", "discriminant_coefficients", "transfer.discriminant_coefficients",
     "span", None),
    ("hillbands.polynomials", "multiply", "polynomials.multiply", "count", None),
    ("hillbands.polynomials", "evaluate", "polynomials.evaluate", "count", None),
    ("hillbands.rootfinding", "real_roots", "rootfinding.real_roots", "span", None),
    ("hillbands.rootfinding", "refine_root", "rootfinding.refine_root", "count", None),
    ("hillbands.operators", "PeriodicJacobi.floquet_eigenvalues",
     "operators.floquet_eigenvalues", "span", None),
    ("hillbands.inverse", "recover_onsite", "inverse.recover_onsite", "span", None),
    ("hillbands.inverse", "recover_operator_from_edges", "inverse.recover_operator_from_edges",
     "span", None),
    ("hillbands.inverse", "discriminant_from_edges", "inverse.discriminant_from_edges", "span",
     None),
    ("hillbands.inverse", "onsite_jacobian", "inverse.onsite_jacobian", "span", None),
    ("hillbands.inverse", "least_squares", "inverse.least_squares", "span",
     lambda args, kw, res: int(res.nfev)),
    ("hillbands.inverse", "newton_solve", "inverse.newton_solve", "span", None),
    ("hillbands.isospectral", "enumerate_onsite_classes", "isospectral.enumerate_onsite_classes",
     "span", lambda args, kw, res: sum(c.size for c in res)),
    ("hillbands.isospectral", "isospectral_neighbors", "isospectral.isospectral_neighbors",
     "span", None),
    ("hillbands.isospectral", "orbit_distance", "isospectral.orbit_distance", "span", None),
)


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.request = -1
        self.absent = []
        self._stack = []
        self._undo = []

    def install(self):
        for module_name, path, name, mode, amount in TARGETS:
            try:
                owner, attr, raw = _lookup(module_name, path)
            except (ImportError, AttributeError):
                self.absent.append(f"{module_name}.{path}")
                continue
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, name, mode, amount))
            else:
                wrapped = self._wrap(raw, name, mode, amount)
            setattr(owner, attr, wrapped)
            self._undo.append((owner, attr, raw))

    def uninstall(self):
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo.clear()

    def _wrap(self, fn, name, mode, amount):
        if mode == "count":
            counts = self.counts

            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return counted

        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def spanned(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            ok, result, start = False, None, clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = clock()
                stack.pop()
                qty = amount(args, kwargs, result) if (amount and ok) else 0
                spans[index] = (name, start, end, parent, self.request, ok, qty)

        return spanned

    def write(self, path):
        with open(path, "w") as fh:
            fh.write(json.dumps({"fields": ["name", "start", "end", "parent", "request",
                                            "ok", "amount"], "absent": self.absent}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _lookup(module_name, path):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    if not isinstance(owner, type):
        return owner, attr, getattr(owner, attr)
    if attr not in owner.__dict__:
        raise AttributeError(path)
    return owner, attr, owner.__dict__[attr]


def layer_metrics(tracer):
    """Per-layer metrics from the recorded spans and counts."""
    spans = tracer.spans
    names = [s[0] for s in spans]
    index = {}
    for i, name in enumerate(names):
        index.setdefault(name, []).append(i)

    def under(i, ancestor):
        p = spans[i][3]
        while p >= 0:
            if names[p] == ancestor:
                return True
            p = spans[p][3]
        return False

    child_time = np.zeros(len(spans))
    for s in spans:
        if s[3] >= 0:
            child_time[s[3]] += s[2] - s[1]

    def calls(name):
        return len(index.get(name, ()))

    def time_s(name):
        """Wall time inside name, counting a recursive call once."""
        return sum(spans[i][2] - spans[i][1] for i in index.get(name, ()) if not under(i, name))

    def self_s(name):
        return sum(spans[i][2] - spans[i][1] - child_time[i] for i in index.get(name, ()))

    def amount(name):
        return sum(spans[i][6] for i in index.get(name, ()))

    def failures(name):
        return sum(1 for i in index.get(name, ()) if not spans[i][5])

    def calls_under(name, ancestor):
        return sum(1 for i in index.get(name, ()) if under(i, ancestor))

    count = tracer.counts
    enum = "isospectral.enumerate_onsite_classes"
    patterns = amount(enum)
    starts = calls("inverse.least_squares")
    recovered = calls("inverse.recover_onsite") - failures("inverse.recover_onsite")
    m = {
        "cli.main.calls": (calls("cli.main"), "count"),
        "cli.main.self_s": (self_s("cli.main"), "s"),
        "tightbinding.band_structure.time_s": (time_s("tightbinding.band_structure"), "s"),
        "tightbinding.dos_curve.time_s": (time_s("tightbinding.dos_curve"), "s"),
        "tightbinding.gap_report.time_s": (time_s("tightbinding.gap_report"), "s"),
        "bands.BandStructure.time_s": (time_s("bands.BandStructure"), "s"),
        "bands.band_edges_eig.time_s": (time_s("bands.band_edges_eig"), "s"),
        "bands.band_edges_bisection.time_s": (time_s("bands.band_edges_bisection"), "s"),
        "bands.integrated_density.time_s": (time_s("bands.integrated_density"), "s"),
        "bands.integrated_density.points": (amount("bands.integrated_density"), "count"),
        "bands.density_of_states.time_s": (time_s("bands.density_of_states"), "s"),
        "bands.dispersion.time_s": (time_s("bands.dispersion"), "s"),
        "bands.dispersion.phases": (amount("bands.dispersion"), "count"),
        "discriminant.from_operator.calls": (calls("discriminant.from_operator"), "count"),
        "discriminant.from_operator.self_s": (self_s("discriminant.from_operator"), "s"),
        "discriminant.eval.points": (amount("discriminant.eval"), "count"),
        "discriminant.eval.time_s": (time_s("discriminant.eval"), "s"),
        "transfer.discriminant_coefficients.calls":
            (calls("transfer.discriminant_coefficients"), "count"),
        "transfer.discriminant_coefficients.time_s":
            (time_s("transfer.discriminant_coefficients"), "s"),
        "polynomials.multiply.calls": (count["polynomials.multiply"], "count"),
        "polynomials.evaluate.calls": (count["polynomials.evaluate"], "count"),
        "rootfinding.real_roots.calls": (calls("rootfinding.real_roots"), "count"),
        "rootfinding.real_roots.time_s": (time_s("rootfinding.real_roots"), "s"),
        "rootfinding.refine_root.calls": (count["rootfinding.refine_root"], "count"),
        "operators.floquet_eigenvalues.calls": (calls("operators.floquet_eigenvalues"), "count"),
        "operators.floquet_eigenvalues.time_s": (time_s("operators.floquet_eigenvalues"), "s"),
        "inverse.recover_onsite.calls": (calls("inverse.recover_onsite"), "count"),
        "inverse.recover_onsite.time_s": (time_s("inverse.recover_onsite"), "s"),
        "inverse.recover_onsite.failures": (failures("inverse.recover_onsite"), "count"),
        "inverse.onsite_jacobian.calls": (calls("inverse.onsite_jacobian"), "count"),
        "inverse.onsite_jacobian.time_s": (time_s("inverse.onsite_jacobian"), "s"),
        "inverse.least_squares.calls": (starts, "count"),
        "inverse.least_squares.nfev": (amount("inverse.least_squares"), "count"),
        "inverse.least_squares.time_s": (time_s("inverse.least_squares"), "s"),
        "inverse.newton_solve.calls": (calls("inverse.newton_solve"), "count"),
        "inverse.newton_solve.failures": (failures("inverse.newton_solve"), "count"),
        "inverse.recoveries_per_start": (recovered / starts if starts else 0.0, "ratio"),
        "isospectral.enumerate_onsite_classes.time_s": (time_s(enum), "s"),
        "isospectral.enumerate_onsite_classes.patterns": (patterns, "count"),
        "isospectral.delta_per_pattern":
            (calls_under("discriminant.from_operator", enum) / patterns if patterns else 0.0,
             "ratio"),
        "isospectral.isospectral_neighbors.time_s":
            (time_s("isospectral.isospectral_neighbors"), "s"),
        "isospectral.neighbors.delta_calls":
            (calls_under("discriminant.from_operator", "isospectral.isospectral_neighbors"),
             "count"),
    }
    return m


def request_coverage(tracer):
    """Per request id: (seconds in top-level spans, seconds in their child spans)."""
    spans = tracer.spans
    top, below = {}, {}
    for s in spans:
        if s[3] < 0:
            top[s[4]] = top.get(s[4], 0.0) + (s[2] - s[1])
        elif spans[s[3]][3] < 0:
            below[s[4]] = below.get(s[4], 0.0) + (s[2] - s[1])
    return top, below
