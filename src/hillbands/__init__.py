"""Band structure of 1-D periodic tight-binding chains via the Hill discriminant.

__all__ is the one list of exports. The submodules inverse, isospectral
and transfer, and each name of __all__ not defined here, are imported on
first attribute access (PEP 562), the name from inverse, else from
isospectral, so a process that runs none of them does not load them.
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

def __getattr__(name):
    """The submodule inverse, isospectral or transfer, or a name of __all__
    from the first of inverse and isospectral that defines it, imported on
    first access."""
    if name in ("inverse", "isospectral", "transfer"):
        return importlib.import_module(f".{name}", __name__)
    for source in ("inverse", "isospectral") if name in __all__ else ():
        module = importlib.import_module(f".{source}", __name__)
        if hasattr(module, name):
            return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
