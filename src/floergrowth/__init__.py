"""Reidemeister trace machinery, twisted zeta functions, and growth bounds
for iterated surface maps, built on free-group calculus over the mapping
torus group ring."""

from .foxcalc import RingElem, RingMatrix, fox_derivative, jacobian
from .freegroup import Endomorphism, Word
from .groupring import (
    HElem,
    NormInterval,
    norm_interval,
    orbit_coordinate,
    reidemeister_interval,
    reidemeister_trace,
)
from .growth import (
    GrowthReport,
    full_report,
    growth_estimate,
    lower_bound_zeta,
    spectral_radius,
    upper_bound_norm,
    upper_bound_spectral,
)
from .mappingclass import (
    ClassSpec,
    ComponentSpec,
    assemble_dim,
    asymptotic_invariant,
    graph_manifold_test,
    periodic_zeta_for_class,
)
from .ratfunc import CrossCheckError, RationalFunction
from .reptheory import (
    Representation,
    abelian_quotient_rep,
    trivial_representation,
    twisted_lefschetz,
    twisted_zeta,
    validate_rep,
)
from .torus import fixed_point_count, lefschetz_number, nielsen_sequence
from .zetafns import (
    PowerSeries,
    RadicalRational,
    is_hyperbolic,
    periodic_dims_sequence,
    periodic_zeta,
    radius_estimate,
    symplectic_zeta_series,
    torus_symplectic_zeta,
    weil_zeta_torus,
)

__version__ = "0.1.0"

__all__ = [
    "Word",
    "Endomorphism",
    "RingElem",
    "RingMatrix",
    "fox_derivative",
    "jacobian",
    "HElem",
    "NormInterval",
    "orbit_coordinate",
    "reidemeister_trace",
    "reidemeister_interval",
    "norm_interval",
    "Representation",
    "trivial_representation",
    "abelian_quotient_rep",
    "validate_rep",
    "twisted_lefschetz",
    "twisted_zeta",
    "RationalFunction",
    "CrossCheckError",
    "GrowthReport",
    "growth_estimate",
    "spectral_radius",
    "lower_bound_zeta",
    "upper_bound_norm",
    "upper_bound_spectral",
    "full_report",
    "PowerSeries",
    "symplectic_zeta_series",
    "radius_estimate",
    "RadicalRational",
    "periodic_zeta",
    "periodic_dims_sequence",
    "is_hyperbolic",
    "weil_zeta_torus",
    "torus_symplectic_zeta",
    "lefschetz_number",
    "fixed_point_count",
    "nielsen_sequence",
    "ComponentSpec",
    "ClassSpec",
    "assemble_dim",
    "asymptotic_invariant",
    "graph_manifold_test",
    "periodic_zeta_for_class",
]
