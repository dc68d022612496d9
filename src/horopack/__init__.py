"""Horoball packings of fully asymptotic Coxeter cells in hyperbolic 3-space.

The projective (Klein) model over the Lorentzian form diag(-1,1,1,1) hosts
the four regular honeycombs whose cells have all vertices on the absolute:
(3,3,6), (3,4,4), (4,3,6), (5,3,6).  The package builds their cells and
characteristic orthoschemes, evaluates horoball sector volumes exactly,
sweeps the one-parameter packing families, and certifies the optimal
arrangements against the universal upper bound for congruent balls.
"""

from .coxeter import (
    Cell,
    CoxeterMatrix,
    Orthoscheme,
    UnsupportedSymbolError,
    build_cell,
    build_orthoscheme,
    coxeter_matrix,
    vertex_distance,
)
from .horoball import (
    FaceOverflowError,
    Horoball,
    cell_volume_oracle,
    cone_sector_volume,
    horoball_level,
    polar_point,
    sector_volume,
    vertex_sector_volume,
)
from .lorentz import (
    GeometryError,
    Hyperplane,
    MINKOWSKI,
    PointClass,
    ProjectivePoint,
    bilinear_form,
    classify,
    distance,
    reflect,
)
from .packing import (
    DensityReport,
    Family,
    InvalidPackingError,
    PackingConfiguration,
    Violation,
    catalog,
    certify_optimum,
    configuration,
    density,
    families,
    family,
    sweep,
    validate_packing,
    volume_function,
)
from .volume import (
    VolumeResult,
    bf_constant,
    bf_series_tail_bound,
    lobachevsky,
    monte_carlo_volume,
    orthoscheme_volume,
)

__version__ = "0.1.0"

__all__ = [
    "Cell",
    "CoxeterMatrix",
    "DensityReport",
    "FaceOverflowError",
    "Family",
    "GeometryError",
    "Horoball",
    "Hyperplane",
    "InvalidPackingError",
    "MINKOWSKI",
    "Orthoscheme",
    "PackingConfiguration",
    "PointClass",
    "ProjectivePoint",
    "UnsupportedSymbolError",
    "Violation",
    "VolumeResult",
    "bf_constant",
    "bf_series_tail_bound",
    "bilinear_form",
    "build_cell",
    "build_orthoscheme",
    "catalog",
    "cell_volume_oracle",
    "certify_optimum",
    "classify",
    "cone_sector_volume",
    "configuration",
    "coxeter_matrix",
    "density",
    "distance",
    "families",
    "family",
    "horoball_level",
    "lobachevsky",
    "monte_carlo_volume",
    "orthoscheme_volume",
    "polar_point",
    "reflect",
    "sector_volume",
    "sweep",
    "validate_packing",
    "vertex_distance",
    "vertex_sector_volume",
    "volume_function",
    "__version__",
]
