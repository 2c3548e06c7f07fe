"""bellsim: Monte Carlo toolkit for the classical signed spin-pair experiment.

Simulates pairs of opposite spin directions measured by sign against
reference settings, computes the sign-product correlation estimator
with exact integer tallies, sweeps it over angles against the linear
classical law and the singlet cosine, and evaluates the CHSH statistic,
whose per-trial identity pins it inside [-2, 2] for any spin
distribution.
"""

from ._version import __version__
from .chsh import (
    CANONICAL_QUAD,
    ChshResult,
    SettingQuad,
    StrategyEnumeration,
    chsh_statistic,
    enumerate_deterministic_strategies,
    per_trial_terms,
    result_summary,
    search_max_chsh,
    standard_combination,
)
from .correlation import (
    CorrelationCurve,
    CorrelationEstimate,
    CurvePoint,
    estimate_correlation,
    reference_linear,
    reference_singlet,
    sweep_correlation,
    write_curve_csv,
)
from .experiment import (
    Cap,
    ConfigurationError,
    DistributionSpec,
    FixedAxis,
    GeneratedTrials,
    InvariantError,
    Mixture,
    Outcome,
    TrialDatabase,
    UniformSphere,
    generate_database,
    measure_sign,
    parse_distribution,
    read_database,
    select_settings,
    write_database,
)
from .geometry import (
    UnitVector,
    angle_between,
    direction_at_angle,
    sample_uniform_direction,
    sample_uniform_directions,
)
from .rng import CounterStream, root_stream
from .stats import DeviationBound, WithinReport, check_within, hoeffding_bound, standard_error

__all__ = [
    "__version__",
    "CANONICAL_QUAD",
    "Cap",
    "ChshResult",
    "ConfigurationError",
    "CorrelationCurve",
    "CorrelationEstimate",
    "CounterStream",
    "CurvePoint",
    "DeviationBound",
    "DistributionSpec",
    "FixedAxis",
    "GeneratedTrials",
    "InvariantError",
    "Mixture",
    "Outcome",
    "SettingQuad",
    "StrategyEnumeration",
    "TrialDatabase",
    "UniformSphere",
    "UnitVector",
    "WithinReport",
    "angle_between",
    "check_within",
    "chsh_statistic",
    "direction_at_angle",
    "enumerate_deterministic_strategies",
    "estimate_correlation",
    "generate_database",
    "hoeffding_bound",
    "measure_sign",
    "parse_distribution",
    "per_trial_terms",
    "read_database",
    "reference_linear",
    "reference_singlet",
    "result_summary",
    "root_stream",
    "sample_uniform_direction",
    "sample_uniform_directions",
    "search_max_chsh",
    "select_settings",
    "standard_combination",
    "standard_error",
    "sweep_correlation",
    "write_curve_csv",
    "write_database",
]
