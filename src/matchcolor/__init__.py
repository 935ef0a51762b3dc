"""Asymptotically near-optimal (list-)edge coloring of multigraphs.

The toolkit measures the fractional chromatic index exactly, calibrates
hard-core matching distributions to prescribed edge marginals, and colors by
repeatedly removing sampled matchings, repairing structural flaws with local
resampling.  Exact small-instance oracles back every approximate path.
"""

from .colorer import GsConfig, RoundParams, color_multigraph, greedy_edge_coloring, plan_round
from .errors import (
    CalibrationError,
    CapacityError,
    GreedyBlockedError,
    InfeasibleTargetError,
    LocalSearchError,
    ParseError,
    RoundError,
)
from .fractional import FractionalIndex, OddSetCertificate, chi_star, find_violated_matching_constraint
from .graphs import (
    ColoringReport,
    Multigraph,
    dump_multigraph,
    load_multigraph,
    validate_coloring,
)
from .hardcore import (
    CalibrationResult,
    ChainConfig,
    HardCoreModel,
    calibrate_activities,
    exact_marginals,
    log_partition_function,
    measure_correlation_decay,
    sample_matching,
    sample_matching_recursive,
)
from .listcolor import ListConfig, list_edge_color
from .localsearch import (
    ChargeReport,
    FlawSpec,
    RunTrace,
    causality_from_footprints,
    check_commutativity,
    check_lll_condition,
    estimate_charges_exact,
    verify_lopsidependency,
)
from .rng import stream

__version__ = "0.1.0"

__all__ = [
    "CalibrationError",
    "CalibrationResult",
    "CapacityError",
    "ChainConfig",
    "ChargeReport",
    "ColoringReport",
    "FlawSpec",
    "FractionalIndex",
    "GreedyBlockedError",
    "GsConfig",
    "HardCoreModel",
    "InfeasibleTargetError",
    "ListConfig",
    "LocalSearchError",
    "Multigraph",
    "OddSetCertificate",
    "ParseError",
    "RoundError",
    "RoundParams",
    "RunTrace",
    "calibrate_activities",
    "causality_from_footprints",
    "check_commutativity",
    "check_lll_condition",
    "chi_star",
    "color_multigraph",
    "dump_multigraph",
    "estimate_charges_exact",
    "exact_marginals",
    "find_violated_matching_constraint",
    "greedy_edge_coloring",
    "list_edge_color",
    "load_multigraph",
    "log_partition_function",
    "measure_correlation_decay",
    "plan_round",
    "sample_matching",
    "sample_matching_recursive",
    "stream",
    "validate_coloring",
    "verify_lopsidependency",
    "__version__",
]
