"""Band structure of 1-D periodic tight-binding chains via the Hill discriminant."""

from .bands import BandStructure, band_edges_bisection, band_edges_eig, dos_curve
from .inverse import (
    Discriminant,
    chain_from_divisor,
    discriminant_from_edges,
    recover_onsite,
    recover_operator_from_edges,
)
from .isospectral import (
    IsospectralClass,
    dihedral_orbit,
    enumerate_onsite_classes,
    isospectral_neighbors,
    orbit_distance,
)
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
