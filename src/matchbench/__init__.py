"""Single-index assortative matching: simulation, estimation, benchmarks."""

from .distributions import (
    DistributionModel,
    exponential,
    gaussian,
    rademacher,
    uniform01,
)
from .errors import (
    ConfigError,
    DegenerateIndexError,
    MatchbenchError,
    NumericalError,
    QuadratureConvergenceError,
    RankRejectionError,
)
from .estimators import (
    EstimatorResult,
    MomentSet,
    cca,
    compute_moments,
    mrs_estimate,
    normalize_weights,
    ols_index,
    population_moments_gaussian,
    spearman_estimate,
    spearman_objective,
    spearman_objective_prob_form,
    spearman_upper_bound,
)
from .market import (
    MarketSpec,
    MatchedSample,
    assignment_oracle,
    counterexample_market,
    gaussian_market,
    simulate_market,
)
from .oracle import (
    CounterexampleReport,
    closed_form,
    closed_form_counterexample,
    monte_carlo_counterexample,
    numeric_counterexample,
    quad_integrate,
)
from .saliency import (
    AffinityDecomposition,
    mutual_indices,
    rank1_weights,
    svd_decompose,
    verify_surplus_identity,
)

__version__ = "0.1.0"
