"""Biot-Savart fields, dipole sheets, and dual-route linking numbers.

The package computes static fields of current loops and charged sheets
(every loop and every flat polygon or disk sheet in closed form, at one
point or at an (n, 3) array of points; the Gauss integral by
deterministic adaptive quadrature), counts signed crossings through
spanning surfaces, flat or meshed curved ones, and ships experiment
drivers that verify the dipole/loop similitude and the circulation law
A = Lk at desk scale.
"""

from .errors import (
    CurvesTooClose,
    DegenerateBase,
    DegenerateIntersection,
    DegeneratePatch,
    LoopfieldError,
    NearSingular,
    NoConvergence,
    NonTransversal,
    NotUnit,
    SceneFormatError,
)
from .geometry import (
    Circle,
    CompositeCurve,
    Curve,
    Disk,
    PlanarRect,
    PolyLine,
    RectLoop,
    SurfaceMesh,
    SurfacePatch,
    as_vec3,
    bounding_box_diagonal,
    mesh_boundary,
    mesh_surface,
)
from .quadrature import QuadratureSpec, integrate_1d, integrate_2d
from .fields import (
    DipoleSheetSpec,
    FieldConstants,
    biot_savart,
    circle_field,
    coulomb_surface_field,
    cross_projection_identity,
    curve_field,
    differential_probe,
    dipole_mesh_field,
    disk_sheet_field,
    dipole_sheet_field_exact,
    point_dipole_field,
    polygon_sheet_field,
    segment_field,
    taylor_probe,
)
from .linking import (
    LinkScene,
    combinatorial_lk,
    curve_min_distance,
    gauss_linking,
    gauss_pair_integral,
    vector_area,
)
from .experiments import (
    CatalogRow,
    ConvergenceReport,
    ReportRow,
    ampere_catalog,
    curl_vanishing,
    default_catalog,
    line_limit_study,
    maxwell_probe,
    similitude_general,
    similitude_infinitesimal,
    symmetry_sweep,
)

__version__ = "0.1.0"
