"""Dimension theory toolkit for planar self-affine systems with rank-one maps.

The package computes certified brackets for the critical exponent of
mixed invertible/rank-one iterated function systems, checks convex
separation uniformly over the rank-one row directions, estimates box
dimensions of sampled attractors, and constructs the exceptional row
angles where compositions collide and the dimension drops.
"""

from .errors import (
    AffdimError,
    BracketInconsistencyError,
    BudgetError,
    ConfigError,
    ContractionError,
    ExcludedParameterError,
    IdentityMismatchError,
    NoSignChangeError,
)
from .ifs import (
    AffineMap2,
    IfsFamily,
    RankOneSite,
    attractor_bound,
    check_irreducibility,
    compose_word,
    identity_map,
)
from .linalg import (
    LineDir,
    Mat2,
    RankOneFactor,
    conditional_norm,
    image_dir,
    singular_values,
    unit_vector,
)
from .dimension import (
    AnchoredSumSpec,
    DimensionBracket,
    SolverOptions,
    affinity_dimension,
    anchor_exponent_profile,
    anchored_norm_sum,
    partition_sum,
    pressure_upper_root,
    regular_dimension_bracket,
)
from .separation import (
    ArcSet,
    ConvexBody,
    SeparationCertificate,
    admissible_projections,
    body_distance,
    check_convex_separation,
    containment_margin,
    disk_polygon,
    family_bodies,
    image_body,
    projected_interval,
    projection_witness,
    swept_segment,
)
from .attractor import (
    BoxCountSeries,
    PointCloud,
    box_dim_estimate,
    chaos_game,
    cylinder_points,
    hausdorff_distance,
    level_bodies,
    render_levels,
)
from .exceptional import (
    ExceptionalReport,
    LineMap,
    ReducedFamily,
    commutation_residual,
    dimension_drop,
    exceptional_family,
    find_common_fixed_point_angle,
    fixed_point_gap,
    invariance_clouds,
    line_map,
    translation_series_gap,
)
from .config import (
    SCHEMA_VERSION,
    FamilyConfig,
    config_dict,
    config_digest,
    parse_config,
    serialize_config,
)

__version__ = "0.1.0"
