"""Numerical toolkit for winding fields, spherical mollification, signed
slice volumes, and tube-union experiments over direction-to-position maps.

The public names are loaded lazily (PEP 562): `import kakeya_lab` imports no
module of the package and not numpy, and the first use of a name imports the
module that owns it.  So a program that imports the package keeps its own
numpy and BLAS settings, and loads only the modules it uses.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "sphere": ["SphereMesh", "sample_sphere", "geodesic_distance", "integrate_over_sphere"],
    "maps": ["PositionMap", "RegularityReport", "make_map", "parse_map_spec", "holder_estimate",
             "slobodeckij_seminorm", "lipschitz_constant_on_net", "mcshane_extend"],
    "smoothing": ["Kernel", "mollifier_kernel", "mollify_on_sphere", "mollification_bounds"],
    "winding": ["SliceLoop", "WindingField", "BoundaryError", "ResidualError", "winding_number_2d",
                "ray_crossing_oracle", "winding_field", "generalized_winding_3d",
                "degree_circle_map", "degree_integral_bound"],
    "slices": ["SVProfile", "PolyFit", "slice_loop", "signed_volume_stokes", "signed_volume_grid",
               "sweep_signed_volume", "fit_sv_polynomial", "sv_lower_bound_check",
               "minimal_abs_integral", "loop_area", "neighborhood_measure", "isoperimetric_check"],
    "measure": ["MeasureEstimate", "TubeFamily", "rasterize_image_measure", "build_tube_family",
                "tube_union_volume", "lipschitz_tube_experiment", "line_kakeya_cover",
                "cone_coverage_check"],
    "convergence": ["triangle_inequality_check", "winding_agreement", "convergence_split",
                    "ConvergenceReport"],
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_OWNER)


def __getattr__(name: str):
    # unknown names, submodules among them, raise AttributeError, so that
    # `from kakeya_lab import convergence` falls back to importing the submodule
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_OWNER[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
