"""Slope geometry on hyperbolic cusp tori.

Short-slope enumeration on a flat cusp torus, the crossing-number /
prime-counting bound on exceptional filling slopes, half-plane horodisk
calculus, surface cusp-length audits, and deterministic lattice diagrams.

``import cuspslopes`` runs only this file.  Each public name, and each
submodule, is imported on first use through the module ``__getattr__``
(PEP 562), so a call loads only the modules it needs: loading a cusp file
imports ``cusp_file`` and ``cusp_geometry`` and nothing else, none of the
report code, and the first report built or loaded imports ``report_io``,
which imports the scan and the bound calculus.  The CLI reaches every
submodule through this namespace as well, so a subcommand loads only its own
modules.  The library modules import each other directly.
"""

__version__ = "0.1.0"

# Each public name, by the submodule that defines it.
_EXPORTS = {
    "bound_calculus": (
        "ADAMS_AREA",
        "CAO_MEYERHOFF_AREA",
        "BoundQuery",
        "BoundReport",
        "LemmaVerdict",
        "project_to_fp",
        "slope_count_bound",
        "smallest_prime_greater",
        "verify_counting_lemma",
    ),
    "cusp_file": ("CuspFileError", "load_cusp_file"),
    "cusp_geometry": (
        "CuspShape",
        "DegenerateBasisError",
        "NonPrimitiveSlopeError",
        "Slope",
        "area",
        "area_identity_residual",
        "intersection_number",
        "slope_angle",
        "slope_length",
        "slope_vector",
    ),
    "diagram": ("CanvasTooSmallError", "DiagramSpec", "emit_lattice_svg"),
    "halfplane_geometry": (
        "HorodiskPair",
        "WrappingQuery",
        "boundary_length_lower_bound",
        "extremal_ratio",
        "mutually_tangent",
        "tangency_separation",
        "wrapping_bound",
    ),
    "report_io": (
        "AnalysisReport",
        "ReportFormatError",
        "build_analysis_report",
        "load_report",
        "save_report",
    ),
    "slope_search": (
        "SIX_THEOREM_LENGTH",
        "ShortSlopeReport",
        "SlopeClass",
        "SlopeEntry",
        "classify_slope",
        "enumerate_short_slopes",
    ),
    "surface_audit": (
        "AuditVerdict",
        "SurfaceAudit",
        "SurfaceType",
        "boroczky_check",
        "check_cusp_length_inequality",
        "doubled_surface_chain",
        "euler_characteristic",
        "gauss_bonnet_area",
        "punctured_sphere_feasible",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_OWNER)


def _submodule(name):
    # Importing binds the submodule in this namespace, so __getattr__ sees a
    # submodule name once.  A plain import, unlike importlib.import_module,
    # is reported by -X importtime.
    return getattr(__import__(f"{__name__}.{name}"), name)


def __getattr__(name):
    if name in _OWNER:
        # Bound here, so later lookups are plain attribute reads.
        value = globals()[name] = getattr(_submodule(_OWNER[name]), name)
        return value
    if name in _EXPORTS:
        return _submodule(name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_OWNER, *_EXPORTS})
