"""Band structure of 1-D periodic tight-binding chains via the Hill discriminant.

The submodules inverse, isospectral and transfer, and the names taken
from the first two, are imported on first attribute access (PEP 562),
so a process that runs none of them does not load them.
"""

import importlib

from .bands import BandStructure, band_edges_bisection, band_edges_eig, dos_curve
from .operators import PeriodicJacobi

__version__ = "0.1.0"

__all__ = [
    "BandStructure",
    "Discriminant",
    "IsospectralClass",
    "PeriodicJacobi",
    "band_edges_bisection",
    "band_edges_eig",
    "chain_from_divisor",
    "dihedral_orbit",
    "discriminant_from_edges",
    "dos_curve",
    "enumerate_onsite_classes",
    "isospectral_neighbors",
    "orbit_distance",
    "recover_onsite",
    "recover_operator_from_edges",
    "__version__",
]

# The names of __all__ that each submodule defines, imported on first use.
_DEFERRED = {
    "inverse": ("Discriminant", "chain_from_divisor", "discriminant_from_edges",
                "recover_onsite", "recover_operator_from_edges"),
    "isospectral": ("IsospectralClass", "dihedral_orbit", "enumerate_onsite_classes",
                    "isospectral_neighbors", "orbit_distance"),
}


def __getattr__(name):
    """The submodule inverse, isospectral or transfer, or a name of __all__
    that one of the first two defines, imported on first access."""
    if name in ("inverse", "isospectral", "transfer"):
        return importlib.import_module(f".{name}", __name__)
    for module, names in _DEFERRED.items():
        if name in names:
            return getattr(importlib.import_module(f".{module}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
