"""Ground-truth engine for the canonical-correlation bias benchmark.

Three independent routes produce the matched-outcome covariances of the
two-attribute benchmark market: exact closed forms, adaptive quadrature
over the population transfer map, and plain Monte Carlo. Their agreement
is what the test suite leans on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .distributions import (
    DistributionModel,
    exponential,
    scaled_cdf,
    scaled_quantile,
    seed_streams,
)
from .errors import QuadratureConvergenceError
from .market import MarketSpec, simulate_market

_EXP1 = exponential(1.0)
_SQRT1_2 = 1.0 / math.sqrt(2.0)

# G7/K15 node-weight table (Gauss weight is zero on Kronrod-only nodes).
_GK_TABLE = (
    (+0.949107912342759, 0.129484966168870, 0.063092092629979),
    (-0.949107912342759, 0.129484966168870, 0.063092092629979),
    (+0.741531185599394, 0.279705391489277, 0.140653259715525),
    (-0.741531185599394, 0.279705391489277, 0.140653259715525),
    (+0.405845151377397, 0.381830050505119, 0.190350578064785),
    (-0.405845151377397, 0.381830050505119, 0.190350578064785),
    (0.000000000000000, 0.417959183673469, 0.209482141084728),
    (+0.991455371120813, 0.000000000000000, 0.022935322010529),
    (-0.991455371120813, 0.000000000000000, 0.022935322010529),
    (+0.864864423359769, 0.000000000000000, 0.104790010322250),
    (-0.864864423359769, 0.000000000000000, 0.104790010322250),
    (+0.586087235467691, 0.000000000000000, 0.169004726639267),
    (-0.586087235467691, 0.000000000000000, 0.169004726639267),
    (+0.207784955007898, 0.000000000000000, 0.204432940075298),
    (-0.207784955007898, 0.000000000000000, 0.204432940075298),
)
_GK_NODES = np.array([row[0] for row in _GK_TABLE])
_GK_WEIGHTS_G = np.array([row[1] for row in _GK_TABLE])
_GK_WEIGHTS_K = np.array([row[2] for row in _GK_TABLE])

_MAX_DEPTH = 64


def _gk15(f: Callable, a: float, b: float) -> tuple[float, float]:
    center = 0.5 * (a + b)
    half = 0.5 * (b - a)
    fx = np.asarray(f(center + half * _GK_NODES), dtype=float)
    k = half * float(fx @ _GK_WEIGHTS_K)
    g = half * float(fx @ _GK_WEIGHTS_G)
    return k, abs(k - g)


def _adaptive(f: Callable, a: float, b: float, budget: float, depth: int = 0) -> float:
    value, err = _gk15(f, a, b)
    if err <= budget or err <= 5e-16 * (1.0 + abs(value)):
        return value
    if depth >= _MAX_DEPTH:
        raise QuadratureConvergenceError(
            f"panel [{a}, {b}] did not converge after {_MAX_DEPTH} refinements"
        )
    mid = 0.5 * (a + b)
    return _adaptive(f, a, mid, 0.5 * budget, depth + 1) + _adaptive(
        f, mid, b, 0.5 * budget, depth + 1
    )


def quad_integrate(f: Callable, weight: DistributionModel, tol: float) -> float:
    """E[f(Z)] for Z ~ weight by adaptive G7/K15 panels.

    ``f`` must accept ndarray input. Unbounded supports are truncated at
    extreme quantiles chosen from ``tol``; the clipped tail is re-added as
    mass times f at the tail's conditional mean, which is exact for affine
    integrands and negligible otherwise at these tail masses. Atomic
    weights reduce to exact sums.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if weight.kind == "rademacher":
        vals = np.asarray(f(np.array([-1.0, 1.0])), dtype=float)
        return float(0.5 * (vals[0] + vals[1]))
    if weight.kind == "uniform01":
        return _adaptive(f, 0.0, 1.0, tol)
    integrand = lambda z: np.asarray(f(z), dtype=float) * weight.pdf(z)
    if weight.kind == "exponential":
        rate = weight.param
        tail_mass = tol / 10.0
        zmax = weight.quantile(1.0 - tail_mass)
        core = _adaptive(integrand, 0.0, zmax, 0.8 * tol)
        # memoryless excess: the tail's conditional mean sits 1/rate past zmax
        tail = tail_mass * float(np.asarray(f(np.array([zmax + 1.0 / rate])))[0])
        return core + tail
    # gaussian
    sd = weight.param
    tail_mass = tol / 20.0
    zhi = weight.quantile(1.0 - tail_mass)
    core = _adaptive(integrand, -zhi, zhi, 0.8 * tol)
    cond_mean = sd * weight.pdf(zhi) * sd / tail_mass  # sd^2 * pdf / mass, Mills ratio
    upper = tail_mass * float(np.asarray(f(np.array([cond_mean])))[0])
    lower = tail_mass * float(np.asarray(f(np.array([-cond_mean])))[0])
    return core + upper + lower


@dataclass(frozen=True, eq=False)
class CounterexampleReport:
    """Matched-outcome covariances and the weight ratio they imply.

    ``ratio_cca`` is the second-to-first weight ratio canonical correlation
    recovers (cov_x2 / cov_x1); ``ratio_true`` is the generating ratio.
    ``symbolic`` maps quantity names to exact formulas, where they are known.
    """

    cov_x1: float
    cov_x2: float
    ratio_cca: float
    ratio_true: float
    expectation_terms: dict[str, float]
    method: str
    stderrs: dict[str, float] | None = None
    symbolic: dict[str, str] | None = None

    @staticmethod
    def from_covariances(alpha, cov_x1: float, cov_x2: float, method: str,
                         expectation_terms=None, stderrs=None) -> "CounterexampleReport":
        """Report whose ratios are cov_x2 / cov_x1 and alpha[1] / alpha[0]."""
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio_cca = float(np.divide(cov_x2, cov_x1))
            ratio_true = float(np.divide(alpha[1], alpha[0]))
        return CounterexampleReport(
            cov_x1=float(cov_x1),
            cov_x2=float(cov_x2),
            ratio_cca=ratio_cca,
            ratio_true=ratio_true,
            expectation_terms=expectation_terms or {},
            method=method,
            stderrs=stderrs,
        )

    def to_json_dict(self) -> dict:
        def entry(name: str, value: float) -> dict:
            out = {"value": float(value), "decimal17": format(float(value), ".17g")}
            if self.symbolic and name in self.symbolic:
                out["symbolic"] = self.symbolic[name]
            return out

        obj = {
            "method": self.method,
            "cov_x1": entry("cov_x1", self.cov_x1),
            "cov_x2": entry("cov_x2", self.cov_x2),
            "ratio_cca": entry("ratio_cca", self.ratio_cca),
            "ratio_true": entry("ratio_true", self.ratio_true),
            "expectation_terms": {k: entry(k, v) for k, v in self.expectation_terms.items()},
        }
        if self.stderrs is not None:
            obj["stderrs"] = {k: format(float(v), ".17g") for k, v in self.stderrs.items()}
        return obj


_SYMBOLIC = {
    "cov_x1": "(1-e^-2)/4",
    "cov_x2": "(3e^-2+1)/8",
    "ratio_cca": "(3+e^2)/(2e^2-2)",
    "ratio_true": "1",
    "mean_cdf_shift_plus2": "1-e^-2/2",
    "mean_cdf_shift_minus2": "e^-2/2",
    "mean_x_cdf_shift_minus2": "7e^-2/4",
    "mean_x_cdf_shift_plus2": "1-e^-2/4",
    "mean_x_cdf_shift0": "3/4",
    "mean_x_matched_outcome": "(3e^-2+5)/8",
}


def counterexample_expectations() -> dict[str, float]:
    """Exact expectations under X ~ Exp(1) with G its own CDF.

    Keys: mean_cdf_shift_s is E[G(X+s)], mean_x_cdf_shift_s is E[X G(X+s)],
    and mean_x_matched_outcome is E[X Yhat] with Yhat the matched outcome.
    """
    e2 = math.exp(-2.0)
    return {
        "mean_cdf_shift_plus2": 1.0 - e2 / 2.0,
        "mean_cdf_shift_minus2": e2 / 2.0,
        "mean_x_cdf_shift_minus2": 7.0 * e2 / 4.0,
        "mean_x_cdf_shift_plus2": 1.0 - e2 / 4.0,
        "mean_x_cdf_shift0": 3.0 / 4.0,
        "mean_x_matched_outcome": (3.0 * e2 + 5.0) / 8.0,
    }


def closed_form_counterexample() -> CounterexampleReport:
    e2 = math.exp(-2.0)
    return CounterexampleReport(
        cov_x1=(1.0 - e2) / 4.0,
        cov_x2=(3.0 * e2 + 1.0) / 8.0,
        ratio_cca=(3.0 + math.exp(2.0)) / (2.0 * math.exp(2.0) - 2.0),
        ratio_true=1.0,
        expectation_terms=counterexample_expectations(),
        method="closed_form",
        symbolic=_SYMBOLIC,
    )


def matched_outcome(x1, x2):
    """Partner index matched to attributes (x1, x2) in the benchmark market.

    Piecewise in the coin value; always in [0, 1] and equal to the combined
    index CDF evaluated at (x1 + x2)/sqrt(2).
    """
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    scalar = x1.ndim == 0 and x2.ndim == 0
    x1, x2 = np.broadcast_arrays(x1, x2)
    if not np.all((x1 == 1.0) | (x1 == -1.0)):
        raise ValueError("first attribute must be -1 or +1")
    if np.any(x2 < 0.0):
        raise ValueError("second attribute must be nonnegative")
    low = 0.5 * (_EXP1.cdf(x2) + _EXP1.cdf(x2 - 2.0))
    high = 0.5 * (_EXP1.cdf(x2 + 2.0) + _EXP1.cdf(x2))
    out = np.where(x1 < 0.0, low, high)
    return float(out) if scalar else out


def quadrature_expectations(tol: float) -> dict[str, float]:
    """Numerical counterparts of the exact expectations, same keys."""
    g = _EXP1.cdf
    mean_y_low = quad_integrate(lambda z: z * matched_outcome(-np.ones_like(z), z), _EXP1, tol)
    mean_y_high = quad_integrate(lambda z: z * matched_outcome(np.ones_like(z), z), _EXP1, tol)
    return {
        "mean_cdf_shift_plus2": quad_integrate(lambda z: g(z + 2.0), _EXP1, tol),
        "mean_cdf_shift_minus2": quad_integrate(lambda z: g(z - 2.0), _EXP1, tol),
        "mean_x_cdf_shift_minus2": quad_integrate(lambda z: z * g(z - 2.0), _EXP1, tol),
        "mean_x_cdf_shift_plus2": quad_integrate(lambda z: z * g(z + 2.0), _EXP1, tol),
        "mean_x_cdf_shift0": quad_integrate(lambda z: z * g(z), _EXP1, tol),
        "mean_x_matched_outcome": 0.5 * (mean_y_low + mean_y_high),
    }


def _is_benchmark_market(spec: MarketSpec) -> bool:
    return (
        spec.p_components is not None
        and spec.q_components is not None
        and spec.p_components[0].kind == "rademacher"
        and spec.p_components[1] == _EXP1
        and spec.q_components[0].kind == "uniform01"
        and abs(spec.beta[0] - 1.0) < 1e-12
        and abs(spec.alpha[0] - _SQRT1_2) < 1e-12
        and abs(spec.alpha[1] - _SQRT1_2) < 1e-12
    )


def _population_index_cdf(spec: MarketSpec, tol: float) -> Callable:
    d1, d2 = spec.p_components
    a1, a2 = float(spec.alpha[0]), float(spec.alpha[1])
    if a2 == 0.0:
        return lambda z: scaled_cdf(d1, a1, z)
    if d1.kind == "rademacher":
        shifts = [(a1 * v, p) for v, p in d1.atoms()]
        def mixture(z):
            z = np.asarray(z, dtype=float)
            return sum(p * scaled_cdf(d2, a2, z - shift) for shift, p in shifts)
        return mixture
    if d1.kind == "gaussian" and d2.kind == "gaussian":
        sd = math.hypot(a1 * d1.param, a2 * d2.param)
        return lambda z: scaled_cdf(DistributionModel("gaussian", sd), 1.0, z)
    # generic continuous first attribute: integrate the conditional CDF
    def convolved(z):
        z = np.asarray(z, dtype=float)
        flat = np.atleast_1d(z)
        out = np.array(
            [
                quad_integrate(
                    lambda x1: scaled_cdf(d2, a2, zi - a1 * x1), d1, tol / 10.0
                )
                for zi in flat
            ]
        )
        return float(out[0]) if z.ndim == 0 else out.reshape(z.shape)
    return convolved


def numeric_counterexample(spec: MarketSpec, tol: float) -> CounterexampleReport:
    """Quadrature version of the weight-ratio diagnosis for any two-attribute
    market with independent components and a scalar y side.

    The population transfer map is composed from the index CDF and the
    y-side quantile, then cov(X_i, T) is integrated over atoms and panels.
    """
    if spec.dx != 2 or spec.dy != 1:
        raise ValueError("needs dx=2 and dy=1")
    if spec.p_components is None or spec.q_components is None:
        raise ValueError("needs independent components on both sides")
    d1, d2 = spec.p_components
    if not d2.is_continuous:
        raise ValueError("second x attribute must be continuous")
    a1, a2 = float(spec.alpha[0]), float(spec.alpha[1])
    b = float(spec.beta[0])
    qdist = spec.q_components[0]

    index_cdf = _population_index_cdf(spec, tol)
    p_lo = 5e-324
    p_hi = np.nextafter(1.0, 0.0)

    def tmap(z):
        p = np.clip(index_cdf(z), p_lo, p_hi)
        return scaled_quantile(qdist, b, p)

    def mean_over(fn) -> float:
        # fn(x1_value, x2_array) -> array; outer over X1, inner over X2
        if d1.kind == "rademacher":
            return sum(
                p * quad_integrate(lambda x2, v=v: fn(v, x2), d2, tol)
                for v, p in d1.atoms()
            )
        def outer(x1_nodes):
            x1_nodes = np.atleast_1d(np.asarray(x1_nodes, dtype=float))
            return np.array(
                [quad_integrate(lambda x2, v=float(v): fn(v, x2), d2, tol) for v in x1_nodes]
            )
        return quad_integrate(outer, d1, tol)

    mean_t = mean_over(lambda x1v, x2: tmap(a1 * x1v + a2 * x2))
    mean_x1t = mean_over(lambda x1v, x2: x1v * tmap(a1 * x1v + a2 * x2))
    mean_x2t = mean_over(lambda x1v, x2: x2 * tmap(a1 * x1v + a2 * x2))
    cov_x1 = mean_x1t - d1.mean() * mean_t
    cov_x2 = mean_x2t - d2.mean() * mean_t
    terms = quadrature_expectations(tol) if _is_benchmark_market(spec) else {}
    return CounterexampleReport.from_covariances(spec.alpha, cov_x1, cov_x2, "quadrature", terms)


def _cov_stderrs(x1, x2, t) -> tuple[float, float, dict[str, float]]:
    """Sample covariances of x1 and x2 with t, and their standard errors
    (the ratio's by the delta method)."""
    n = t.size
    tc = t - t.mean()
    covs, ses = [], []
    for a in (x1, x2):
        prods = (a - a.mean()) * tc
        covs.append(float(prods.mean()))
        ses.append(float(np.std(prods, ddof=1) / math.sqrt(n)))
    ratio = covs[1] / covs[0]
    stderrs = {
        "cov_x1": ses[0],
        "cov_x2": ses[1],
        "ratio_cca": abs(ratio) * math.hypot(ses[0] / covs[0], ses[1] / covs[1]),
    }
    return covs[0], covs[1], stderrs


def monte_carlo_counterexample(n: int = 1_000_000, seed: int = 0) -> CounterexampleReport:
    """Monte Carlo column for the benchmark market, with standard errors.

    Uses the exact matched-outcome function rather than sample sorting, so
    it is an independent check of both the closed forms and the simulation
    pipeline.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    s1, s2 = seed_streams(seed, 2)
    x1 = DistributionModel("rademacher").draw(n, s1)
    x2 = _EXP1.draw(n, s2)
    yhat = matched_outcome(x1, x2)
    g = _EXP1.cdf
    terms, stderrs = {}, {}
    for key, values in (
        ("mean_cdf_shift_plus2", g(x2 + 2.0)),
        ("mean_cdf_shift_minus2", g(x2 - 2.0)),
        ("mean_x_cdf_shift_minus2", x2 * g(x2 - 2.0)),
        ("mean_x_cdf_shift_plus2", x2 * g(x2 + 2.0)),
        ("mean_x_cdf_shift0", x2 * g(x2)),
        ("mean_x_matched_outcome", x2 * yhat),
    ):
        terms[key] = float(np.mean(values))
        stderrs[key] = float(np.std(values, ddof=1) / math.sqrt(n))
    cov_x1, cov_x2, cov_stderrs = _cov_stderrs(x1, x2, yhat)
    return CounterexampleReport.from_covariances(
        (_SQRT1_2, _SQRT1_2), cov_x1, cov_x2, "monte_carlo", terms, {**stderrs, **cov_stderrs}
    )


def simulated_monte_carlo(spec: MarketSpec, n: int, seed: int) -> CounterexampleReport:
    """Monte Carlo column of a two-attribute market, obtained through the full
    simulation pipeline (sampling and the coupling sort)."""
    sample = simulate_market(spec, n, seed)
    cov_x1, cov_x2, stderrs = _cov_stderrs(sample.xs[:, 0], sample.xs[:, 1], sample.y_index(spec.beta))
    return CounterexampleReport.from_covariances(spec.alpha, cov_x1, cov_x2, "monte_carlo", stderrs=stderrs)
