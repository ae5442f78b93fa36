"""Rank on-body sensor placements from 2D pose keypoint recordings.

Pipeline: ingest pose-estimator keypoint files, consolidate the 17 COCO
keypoints into 12 placement sites, centralize and repair each recording,
then score every candidate site subset by how mutually distinct it makes
the activities (summed pairwise absolute cosine distance between flattened
trajectory vectors) and rank subsets best-first. Rankings from different
sources are compared with exact Kendall's tau.
"""

from .config import RunConfig, load_config, parse_config_text
from .errors import (
    ComputationError,
    ConfigError,
    DataError,
    ManifestError,
    SensorPlaceError,
)
from .rankcorr import RankAssignment, TauReport, align_rankings, compare_rankings, kendall_tau
from .scoring import (
    ActivityVector,
    PlacementSubset,
    Ranking,
    ScoredSubset,
    build_activity_vector,
    build_ranking,
    cosine_distance,
    enumerate_subsets,
    max_score,
    rank_placements,
    score_subset,
)
from .skeleton import (
    DEFAULT_ROSTER,
    SITE_NAMES,
    SITE_ORDER,
    ActivitySet,
    RawPoseFrame,
    SkeletonFrame,
    SkeletonSeries,
    canonical_sites,
    centralize,
    merge_keypoints,
    preprocess_recording,
    repair_gaps,
    select_sites,
    truncate_series,
)
from .synth import (
    MotionSpec,
    SiteMotion,
    generate_activity,
    make_separable_set,
    separable_specs,
)

__version__ = "0.1.0"

__all__ = [
    "ActivitySet",
    "ActivityVector",
    "ComputationError",
    "ConfigError",
    "DEFAULT_ROSTER",
    "DataError",
    "ManifestError",
    "MotionSpec",
    "PlacementSubset",
    "RankAssignment",
    "Ranking",
    "RawPoseFrame",
    "RunConfig",
    "SITE_NAMES",
    "SITE_ORDER",
    "ScoredSubset",
    "SensorPlaceError",
    "SiteMotion",
    "SkeletonFrame",
    "SkeletonSeries",
    "TauReport",
    "align_rankings",
    "build_activity_vector",
    "build_ranking",
    "canonical_sites",
    "centralize",
    "compare_rankings",
    "cosine_distance",
    "enumerate_subsets",
    "generate_activity",
    "kendall_tau",
    "load_config",
    "make_separable_set",
    "max_score",
    "merge_keypoints",
    "parse_config_text",
    "preprocess_recording",
    "rank_placements",
    "repair_gaps",
    "score_subset",
    "select_sites",
    "separable_specs",
    "truncate_series",
    "__version__",
]
