"""Rank on-body sensor placements from 2D pose keypoint recordings.

Pipeline: ingest pose-estimator keypoint files, consolidate the 17 COCO
keypoints into 12 placement sites, centralize and repair each recording,
then score every candidate site subset by how mutually distinct it makes
the activities (summed pairwise absolute cosine distance between flattened
trajectory vectors) and rank subsets best-first. Rankings from different
sources are compared with exact Kendall's tau.

The public names below are imported from their modules on first use
(PEP 562), so importing the package loads no numpy; only the modules that
compute on arrays do.
"""

import importlib

__version__ = "0.1.0"

# Public names by the module that defines them.
_EXPORTS = {
    "config": ("RunConfig", "load_config", "parse_config_text"),
    "errors": (
        "ComputationError",
        "ConfigError",
        "DataError",
        "ManifestError",
        "SensorPlaceError",
    ),
    "rankcorr": ("TauReport", "compare_rankings", "kendall_tau"),
    "scoring": ("mean_scores", "rank_placements", "sort_ranking"),
    "sites": ("DEFAULT_ROSTER", "SITE_NAMES", "SITE_ORDER", "canonical_label", "canonical_sites",
              "enumerate_subsets"),
    "skeleton": (
        "SkeletonSeries",
        "WindowSets",
        "centralize",
        "merge_keypoints",
        "preprocess_recording",
        "repair_gaps",
        "select_sites",
    ),
    "synth": (
        "MotionSpec",
        "SiteMotion",
        "generate_activity",
        "make_separable_set",
        "separable_specs",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF) + ["__version__"]


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
