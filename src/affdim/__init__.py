"""Dimension theory toolkit for planar self-affine systems with rank-one maps.

The package computes certified brackets for the critical exponent of
mixed invertible/rank-one iterated function systems, checks convex
separation uniformly over the rank-one row directions, estimates box
dimensions of sampled attractors, and constructs the exceptional row
angles where compositions collide and the dimension drops.

Each exported name is imported from its module on first access, so a
caller pays only for the modules it uses.
"""

from importlib import import_module

__version__ = "0.1.0"

# every exported name -> the module that defines it
_EXPORTS = {
    name: module
    for module, names in (
        ("errors", ("AffdimError", "BracketInconsistencyError", "BudgetError",
                    "ConfigError", "ContractionError", "ExcludedParameterError",
                    "IdentityMismatchError", "NoSignChangeError")),
        ("ifs", ("AffineMap2", "IfsFamily", "RankOneSite", "attractor_bound",
                 "check_irreducibility", "compose_word")),
        ("linalg", ("LineDir", "Mat2", "RankOneFactor", "conditional_norm",
                    "image_dir", "singular_values", "unit_vector")),
        ("dimension", ("AnchoredSumSpec", "DimensionBracket", "affinity_dimension",
                       "anchor_exponent_profile", "anchored_norm_sum", "partition_sum",
                       "pressure_upper_root", "regular_dimension_bracket")),
        ("separation", ("ArcSet", "ConvexBody", "SeparationCertificate",
                        "admissible_projections", "check_convex_separation",
                        "disk_polygon", "family_bodies", "image_body",
                        "projected_interval", "projection_witness")),
        ("attractor", ("BoxCountSeries", "PointCloud", "box_dim_estimate", "chaos_game",
                       "cylinder_points", "hausdorff_distance", "render_levels")),
        ("exceptional", ("ExceptionalReport", "LineMap", "ReducedFamily",
                         "commutation_residual", "dimension_drop", "exceptional_family",
                         "find_common_fixed_point_angle", "fixed_point_gap",
                         "invariance_clouds", "line_map", "translation_series_gap")),
        ("config", ("SCHEMA_VERSION", "FamilyConfig", "SolverOptions", "config_digest",
                    "parse_config")),
    )
    for name in names
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(import_module("." + module, __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
