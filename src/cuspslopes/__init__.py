"""Slope geometry on hyperbolic cusp tori.

Short-slope enumeration on a flat cusp torus, the crossing-number /
prime-counting bound on exceptional filling slopes, half-plane horodisk
calculus, surface cusp-length audits, and deterministic lattice diagrams.
"""

__version__ = "0.1.0"

from .bound_calculus import (
    ADAMS_AREA,
    CAO_MEYERHOFF_AREA,
    BoundQuery,
    BoundReport,
    LemmaVerdict,
    project_to_fp,
    slope_count_bound,
    smallest_prime_greater,
    verify_counting_lemma,
)
from .cusp_geometry import (
    CuspShape,
    DegenerateBasisError,
    NonPrimitiveSlopeError,
    Slope,
    area,
    area_identity_residual,
    intersection_number,
    slope_angle,
    slope_length,
    slope_vector,
)
from .diagram import CanvasTooSmallError, DiagramSpec, emit_lattice_svg
from .halfplane_geometry import (
    HorodiskPair,
    WrappingQuery,
    boundary_length_lower_bound,
    extremal_ratio,
    mutually_tangent,
    tangency_separation,
    wrapping_bound,
)
from .report_io import (
    AnalysisReport,
    CuspFileError,
    ReportFormatError,
    build_analysis_report,
    load_cusp_file,
    load_report,
    save_report,
)
from .slope_search import (
    SIX_THEOREM_LENGTH,
    ShortSlopeReport,
    SlopeClass,
    SlopeEntry,
    classify_slope,
    enumerate_short_slopes,
)
from .surface_audit import (
    AuditVerdict,
    SurfaceAudit,
    SurfaceType,
    boroczky_check,
    check_cusp_length_inequality,
    doubled_surface_chain,
    euler_characteristic,
    gauss_bonnet_area,
    punctured_sphere_feasible,
)
