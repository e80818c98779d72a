"""Exact quantiles of two-component Bernoulli mixtures.

Given S that equals X with probability q and Y otherwise, the quantile of S
at level p is computed by splitting p across the components as
p = q*alpha + (1-q)*beta and taking

    s_p = max{ Qx(alpha*), Qy(beta*) }

at the optimal split.  The package carries an exact piecewise distribution
class (all rational arithmetic), standard parametric families, the split
solver, a classifier for the sixteen-cell case table of CDF behaviors at
the quantile, and independent verification oracles (direct inversion, grid
scan, Monte Carlo).

Only sampling, the grid and Monte Carlo oracles and the instance generator
need numpy; they import it when called, so the package and its exact path
load without it.  The package never imports scipy.
"""

from .classify import (
    BRANCHING_CELLS,
    CaseLabel,
    ClassificationReport,
    InternalContradictionError,
    RelationCheck,
    classify,
    verify_cell_relations,
)
from .distributions import (
    NEG_INF,
    POS_INF,
    DomainError,
    Distribution,
    Exponential,
    LogNormal,
    Normal,
    Piecewise,
    Uniform,
    as_fraction,
)
from .mixture import (
    MixtureSpec,
    direct_quantile,
    merged_distribution,
    mixture_cdf,
    mixture_cdf_left_limit,
    numeric_quantile,
    sample,
)
from .serialization import (
    SpecParseError,
    parse_distribution,
    parse_mixture,
    serialize_distribution,
    serialize_mixture,
)
from .split import (
    QuantileSolution,
    feasible_alpha_range,
    ordering_predicate,
    split_quantile,
)
from .verification import (
    CheckReport,
    GridOracleConfig,
    InstanceGenConfig,
    SuiteResult,
    cross_check,
    generate_instance,
    grid_oracle_quantile,
    monte_carlo_quantile,
    run_suite,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "NEG_INF",
    "POS_INF",
    "DomainError",
    "Distribution",
    "Piecewise",
    "Uniform",
    "Normal",
    "Exponential",
    "LogNormal",
    "as_fraction",
    "MixtureSpec",
    "mixture_cdf",
    "mixture_cdf_left_limit",
    "merged_distribution",
    "direct_quantile",
    "numeric_quantile",
    "sample",
    "QuantileSolution",
    "feasible_alpha_range",
    "ordering_predicate",
    "split_quantile",
    "CaseLabel",
    "RelationCheck",
    "ClassificationReport",
    "InternalContradictionError",
    "BRANCHING_CELLS",
    "classify",
    "verify_cell_relations",
    "GridOracleConfig",
    "InstanceGenConfig",
    "CheckReport",
    "SuiteResult",
    "grid_oracle_quantile",
    "monte_carlo_quantile",
    "generate_instance",
    "cross_check",
    "run_suite",
    "SpecParseError",
    "parse_distribution",
    "serialize_distribution",
    "parse_mixture",
    "serialize_mixture",
]
