"""Toolkit for preference-intensity comparison systems on box domains.

Given a black-box oracle answering "is the improvement from y to x at
least as large as the improvement from w to z?", the package verifies
the axioms such a system must satisfy, reconstructs a cardinal utility
by a constructive dyadic-ladder procedure, decides concavity through the
midpoint gain law, and probes differentiability numerically.
"""
from .axioms import (ALL_AXIOMS, AxiomReport, Witness, check_consistency,
                     check_continuity_proxy, check_crossover, check_monotonicity,
                     check_second_consistency, replay_witness, run_axiom_suite)
from .concavity import (ConcavityVerdict, check_gossen_law, check_midpoint_concavity,
                        concavity_roundtrip)
from .config import RunConfig
from .diffcalc import (AlepClassification, alep_classify, numeric_gradient,
                       numeric_hessian)
from .domain import BoxDomain, Segment, as_point
from .errors import (AltkitError, ArchimedeanError, BracketError, ConfigError,
                     ConstructionError, DegenerateFitError, DomainError,
                     OrderingError, RangeError)
from .fixtures import (IntensitySpec, UtilitySpec, catalog, intensity_catalog,
                       make_difference_oracle, make_intensity_oracle, oracle_by_name,
                       utility_by_name, utility_from_json)
from .ladder import (AffineFit, DyadicLadder, ReconstructedUtility, archimedean_count,
                     build_ladder, check_density, order_embedding_check,
                     reconstruct_utility, representation_spot_check,
                     verify_affine_uniqueness)
from .oracle import AltOracle, IntensityOrder, Preference, classify
from .sampling import run_indexed, subrng
from .smoothness import (SmoothnessReport, calibrate, debreu_smoothness_proxy,
                         diagonal_point, line_smoothness_limit, solve_f)
from .solvers import band_bisect

__version__ = "0.1.0"

__all__ = [
    "ALL_AXIOMS", "AffineFit", "AlepClassification", "AltOracle", "AltkitError",
    "ArchimedeanError", "AxiomReport", "BoxDomain", "BracketError",
    "ConcavityVerdict", "ConfigError", "ConstructionError", "DegenerateFitError",
    "DomainError", "DyadicLadder", "IntensityOrder", "IntensitySpec",
    "OrderingError", "Preference", "RangeError",
    "ReconstructedUtility", "RunConfig", "Segment", "SmoothnessReport",
    "UtilitySpec", "Witness", "alep_classify", "archimedean_count", "as_point",
    "band_bisect", "build_ladder", "calibrate", "catalog",
    "check_consistency", "check_continuity_proxy", "check_crossover",
    "check_density", "check_gossen_law", "check_midpoint_concavity",
    "check_monotonicity", "check_second_consistency", "classify",
    "concavity_roundtrip", "debreu_smoothness_proxy",
    "diagonal_point", "intensity_catalog",
    "line_smoothness_limit", "make_difference_oracle", "make_intensity_oracle",
    "numeric_gradient", "numeric_hessian", "oracle_by_name",
    "order_embedding_check", "reconstruct_utility", "replay_witness",
    "representation_spot_check", "run_axiom_suite", "run_indexed",
    "solve_f", "subrng", "utility_by_name",
    "utility_from_json", "verify_affine_uniqueness",
]
