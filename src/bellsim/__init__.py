"""bellsim: Monte Carlo toolkit for the classical signed spin-pair experiment.

Simulates pairs of opposite spin directions measured by sign against
reference settings, computes the sign-product correlation estimator
with exact integer tallies, sweeps it over angles against the linear
classical law and the singlet cosine, and evaluates the CHSH statistic,
whose per-trial identity pins it inside [-2, 2] for any spin
distribution.

The package is a lazy namespace (PEP 562): each public name is imported
from its module on first lookup, so ``import bellsim`` loads no numpy
and the ``bellsim`` command (``bellsim.__main__``) can set its
environment before numpy starts.
"""

import importlib

from ._version import __version__

# public names by defining module
_EXPORTS = {
    "chsh": (
        "CANONICAL_QUAD",
        "ChshResult",
        "SettingQuad",
        "StrategyEnumeration",
        "chsh_statistic",
        "enumerate_deterministic_strategies",
        "per_trial_terms",
        "result_summary",
        "search_max_chsh",
        "standard_combination",
    ),
    "correlation": (
        "CorrelationCurve",
        "CorrelationEstimate",
        "CurvePoint",
        "estimate_correlation",
        "reference_linear",
        "reference_singlet",
        "sweep_correlation",
        "write_curve_csv",
    ),
    "experiment": (
        "Cap",
        "ConfigurationError",
        "DistributionSpec",
        "FixedAxis",
        "GeneratedTrials",
        "InvariantError",
        "Mixture",
        "Outcome",
        "TrialDatabase",
        "UniformSphere",
        "generate_database",
        "measure_sign",
        "parse_distribution",
        "read_database",
        "select_settings",
        "write_database",
    ),
    "geometry": (
        "UnitVector",
        "angle_between",
        "direction_at_angle",
        "sample_uniform_direction",
        "sample_uniform_directions",
    ),
    "rng": ("CounterStream", "root_stream"),
    "stats": ("DeviationBound", "WithinReport", "check_within", "hoeffding_bound", "standard_error"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *sorted(_HOME)]


def __getattr__(name: str):
    # the name's module is imported on its first lookup, and the value is
    # then kept as a package global
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_HOME))
