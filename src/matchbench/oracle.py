"""Ground-truth engine for the canonical-correlation bias benchmark.

Three independent routes produce the matched-outcome covariances of a
two-attribute market: exact closed forms (the benchmark market's, or a
Gaussian market's), adaptive quadrature over the population transfer map,
and Monte Carlo over a simulated sample matched by sorting, which evaluates
no transfer map at all. Their agreement is what the test suite leans on.
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
    scaled_sf,
)
from .errors import NumericalError, QuadratureConvergenceError
from .estimators import population_moments_gaussian
from .market import MarketSpec, counterexample_market, simulate_market

# G, the CDF of the benchmark market's second x attribute X2 ~ Exp(1)
_G = exponential(1.0).cdf

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


@dataclass
class QuadratureStats:
    """Deterministic work counters of adaptive quadrature: G7/K15 panels
    evaluated and the deepest refinement level reached."""

    panels: int = 0
    max_depth: int = 0

    def to_json_dict(self) -> dict:
        return {"panels": self.panels, "max_depth": self.max_depth}


def _gk15(f: Callable, a, b):
    """K15 estimate over [a, b] and the largest |K15 - G7| difference.

    A vector-valued ``f`` returns an array whose last axis runs over the
    nodes, and the estimate is an array. ``a`` and ``b`` may be arrays too,
    one interval per component; ``f`` then gets one row of nodes per interval.
    """
    center = 0.5 * (a + b)
    half = 0.5 * (b - a)
    nodes = np.asarray(center)[..., None] + np.asarray(half)[..., None] * _GK_NODES
    fx = np.asarray(f(nodes), dtype=float)
    k = half * (fx @ _GK_WEIGHTS_K)
    g = half * (fx @ _GK_WEIGHTS_G)
    return k, float(np.abs(k - g).max())


def _adaptive(f: Callable, a, b, budget: float, stats: QuadratureStats, depth: int = 0):
    value, err = _gk15(f, a, b)
    stats.panels += 1
    stats.max_depth = max(stats.max_depth, depth)
    if err <= budget or err <= 5e-16 * (1.0 + float(np.abs(value).max())):
        return value
    if depth >= _MAX_DEPTH:
        raise QuadratureConvergenceError(
            f"panel [{a}, {b}] did not converge after {_MAX_DEPTH} refinements"
        )
    mid = 0.5 * (a + b)
    return _adaptive(f, a, mid, 0.5 * budget, stats, depth + 1) + _adaptive(
        f, mid, b, 0.5 * budget, stats, depth + 1
    )


def quad_integrate(f: Callable, weight: DistributionModel, tol: float,
                   stats: QuadratureStats | None = None, breaks=None):
    """E[f(Z)] for Z ~ weight by adaptive G7/K15 panels.

    ``f`` must accept ndarray input. It may be vector-valued, returning an
    array whose last axis runs over the input points; the result is then an
    array and every component meets ``tol``. Unbounded supports are
    truncated at extreme quantiles chosen from ``tol``; the clipped tail is
    re-added as mass times f at the tail's conditional mean, which is exact
    for affine integrands and negligible otherwise at these tail masses.
    Atomic weights reduce to exact sums. Panels are counted into ``stats``.

    ``breaks`` (optional, shape ``(components, k)``) lists the points where
    each component of ``f`` has a kink. Every component is then integrated
    piecewise between its own breaks, and a row of nodes passed to ``f``
    belongs to one component.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    stats = stats if stats is not None else QuadratureStats()

    def at(z: float):
        return np.asarray(f(np.array([z])), dtype=float)[..., 0]

    def core(integrand, lo: float, hi: float, budget: float):
        if breaks is None:
            return _adaptive(integrand, lo, hi, budget, stats)
        cuts = np.sort(np.clip(breaks, lo, hi), axis=-1).T
        edges = [lo, *cuts, hi]
        share = budget / (len(edges) - 1)
        return sum(
            _adaptive(integrand, a, b, share, stats) for a, b in zip(edges, edges[1:]) if np.any(b > a)
        )

    if weight.kind == "rademacher":
        value = 0.5 * (at(-1.0) + at(1.0))
    elif weight.kind == "uniform01":
        value = core(f, 0.0, 1.0, tol)
    else:
        integrand = lambda z: np.asarray(f(z), dtype=float) * weight.pdf(z)
        # the exponential is cut in one tail, the gaussian in two
        tail_mass = tol / (10.0 if weight.kind == "exponential" else 20.0)
        if 1.0 - tail_mass == 1.0:
            raise ValueError(f"tol: {tol!r} is too small for the {weight.kind} tail cut, "
                             f"since 1 - {tail_mass!r} rounds to 1")
        zmax = weight.quantile(1.0 - tail_mass)
        if weight.kind == "exponential":
            body = core(integrand, 0.0, zmax, 0.8 * tol)
            # memoryless excess: the tail's conditional mean sits 1/rate past zmax
            value = body + tail_mass * at(zmax + 1.0 / weight.param)
        else:  # gaussian
            sd = weight.param
            body = core(integrand, -zmax, zmax, 0.8 * tol)
            cond_mean = sd * weight.pdf(zmax) * sd / tail_mass  # sd^2 * pdf / mass, Mills ratio
            value = body + tail_mass * at(cond_mean) + tail_mass * at(-cond_mean)
    return float(value) if np.ndim(value) == 0 else value


@dataclass(frozen=True, eq=False)
class CounterexampleReport:
    """Matched-outcome covariances and the weight ratio they imply.

    ``ratio_cca`` is the second-to-first weight ratio canonical correlation
    recovers (cov_x2 / cov_x1); ``ratio_true`` is the generating ratio.
    ``symbolic`` maps quantity names to exact formulas, where they are known.
    ``diagnostics`` holds the quadrature work counters of a quadrature report.
    """

    cov_x1: float
    cov_x2: float
    ratio_cca: float
    ratio_true: float
    expectation_terms: dict[str, float]
    method: str
    stderrs: dict[str, float] | None = None
    symbolic: dict[str, str] | None = None
    diagnostics: QuadratureStats | None = None

    @staticmethod
    def from_covariances(alpha, cov_x1: float, cov_x2: float, method: str,
                         expectation_terms=None, stderrs=None,
                         diagnostics=None) -> "CounterexampleReport":
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
            diagnostics=diagnostics,
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
        if self.diagnostics is not None:
            obj["diagnostics"] = self.diagnostics.to_json_dict()
        return obj


_E2 = math.exp(-2.0)

# The benchmark's named expectation terms E[G(X2+s)], E[X2 G(X2+s)] and
# E[X2 T] over X2 ~ Exp(1), G its own CDF and T the matched y index. A row
# is the key, the integrand of (x1, x2, t), the exact value and its symbolic
# form.
_TERMS = (
    ("mean_cdf_shift_plus2", lambda x1, x2, t: _G(x2 + 2.0), 1.0 - _E2 / 2.0, "1-e^-2/2"),
    ("mean_cdf_shift_minus2", lambda x1, x2, t: _G(x2 - 2.0), _E2 / 2.0, "e^-2/2"),
    ("mean_x_cdf_shift_minus2", lambda x1, x2, t: x2 * _G(x2 - 2.0), 7.0 * _E2 / 4.0, "7e^-2/4"),
    ("mean_x_cdf_shift_plus2", lambda x1, x2, t: x2 * _G(x2 + 2.0), 1.0 - _E2 / 4.0, "1-e^-2/4"),
    ("mean_x_cdf_shift0", lambda x1, x2, t: x2 * _G(x2), 3.0 / 4.0, "3/4"),
    ("mean_x_matched_outcome", lambda x1, x2, t: x2 * t, (3.0 * _E2 + 5.0) / 8.0, "(3e^-2+5)/8"),
)

_SYMBOLIC = {
    "cov_x1": "(1-e^-2)/4",
    "cov_x2": "(3e^-2+1)/8",
    "ratio_cca": "(3+e^2)/(2e^2-2)",
    "ratio_true": "1",
    **{key: form for key, _, _, form in _TERMS},
}


def closed_form_counterexample() -> CounterexampleReport:
    return CounterexampleReport(
        cov_x1=(1.0 - _E2) / 4.0,
        cov_x2=(3.0 * _E2 + 1.0) / 8.0,
        ratio_cca=(3.0 + math.exp(2.0)) / (2.0 * math.exp(2.0) - 2.0),
        ratio_true=1.0,
        expectation_terms={key: exact for key, _, exact, _ in _TERMS},
        method="closed_form",
        symbolic=_SYMBOLIC,
    )


def closed_form(spec: MarketSpec) -> tuple[CounterexampleReport, tuple]:
    """Exact column of ``spec`` and the named expectation-term rows (see
    ``_TERMS``) the quadrature and Monte Carlo columns report beside it.

    The benchmark market gets its formulas and its six terms. Any other
    market must be Gaussian on both sides: its transfer map is linear, so
    cov(X, T) is the population Sxy times beta, and it has no terms. A
    non-Gaussian side or dx other than 2 raises ``ValueError``.
    """
    if spec.to_json() == counterexample_market().to_json():
        return closed_form_counterexample(), _TERMS
    if spec.dx != 2:
        raise ValueError(f"market: the oracle takes two x attributes, got dx = {spec.dx}")
    cov_x1, cov_x2 = population_moments_gaussian(spec).Sxy @ spec.beta
    return CounterexampleReport.from_covariances(spec.alpha, cov_x1, cov_x2, "closed_form"), ()


# finite ends of each kind's support, where its CDF has a kink; the coin has
# none to split at, since quad_integrate sums its two atoms exactly
_SUPPORT_ENDS = {"gaussian": (), "exponential": (0.0,), "uniform01": (0.0, 1.0), "rademacher": ()}


def _iqr(d: DistributionModel) -> float:
    return d.quantile(0.75) - d.quantile(0.25)


def _oriented(spec: MarketSpec):
    """The x attributes as (d1, a1, d2, a2, swapped). X1 and X2 swap, with
    their weights, when both are continuous and weighted and a2 X2 has the
    narrower interquartile range: the quadrature then runs over the narrow
    attribute and integrates the wide one's smooth CDF or density, where a
    narrow one's would be nearly a step. A coin is never swapped."""
    (d1, d2), (a1, a2) = spec.p_components, (float(spec.alpha[0]), float(spec.alpha[1]))
    swap = d1.is_continuous and a1 != 0.0 and a2 != 0.0 and abs(a2) * _iqr(d2) < abs(a1) * _iqr(d1)
    return (d2, a2, d1, a1, True) if swap else (d1, a1, d2, a2, False)


def _population_index_tails(spec: MarketSpec, tol: float, stats: QuadratureStats) -> Callable:
    """z -> (F(z), 1 - F(z)) for the x-side index a1 X1 + a2 X2, each tail
    built from the components' own CDFs or survival functions, so neither
    is found by subtracting the other from 1. X1 and X2 are as ``_oriented``
    orders them."""
    d1, a1, d2, a2, _ = _oriented(spec)
    if a2 == 0.0:
        return lambda z: (scaled_cdf(d1, a1, z), scaled_sf(d1, a1, z))
    if a1 == 0.0:
        return lambda z: (scaled_cdf(d2, a2, z), scaled_sf(d2, a2, z))
    if d1.kind == "gaussian" and d2.kind == "gaussian":
        index = DistributionModel("gaussian", math.hypot(a1 * d1.param, a2 * d2.param))
        return lambda z: (scaled_cdf(index, 1.0, z), scaled_sf(index, 1.0, z))
    # generic first attribute: both tails of a2 X2 at z - a1 X1, averaged
    # over X1 for every z at once in one vector-valued quadrature (an exact
    # sum over a coin's two atoms, which needs no breaks), split where a2 X2
    # meets an end of its support so every piece is smooth
    ends = np.array(_SUPPORT_ENDS[d2.kind])
    def convolved(z):
        z = np.asarray(z, dtype=float)
        column = z.reshape(-1, 1)
        def tails(x1):
            t = column - a1 * x1
            return np.stack([scaled_cdf(d2, a2, t), scaled_sf(d2, a2, t)])
        breaks = None if d1.kind == "rademacher" else (column - a2 * ends) / a1
        lower, upper = quad_integrate(tails, d1, tol / 10.0, stats, breaks=breaks)
        return lower.reshape(z.shape), upper.reshape(z.shape)
    return convolved


# smallest positive double: keeps both tail probabilities inside (0, 1)
_P_MIN = 5e-324
# least interquartile range of a2 X2, relative to |a1|, that keeps a coin
# market's x index far enough from atomic for the quadrature
_NEAR_ATOMIC = 1e-5


def population_transfer_map(spec: MarketSpec, tol: float,
                            stats: QuadratureStats | None = None) -> Callable:
    """Population transfer map T(z) = Q(F(z)) of a two-attribute market with
    independent components and a scalar y side: F is the CDF of the x-side
    index and Q the quantile of the y-side index.

    Where F(z) > 1/2 the map is read off the upper tails, as the y-side
    upper-tail quantile of 1 - F(z), which keeps full precision far into
    the tail. ``tol`` and ``stats`` serve the quadrature that a generic
    first attribute needs for F. An x index that is the coin alone (a zero
    second weight) has atoms, where F jumps and no map T exists. One that is
    nearly so, where a2 X2 has an interquartile range under 1e-5 of |a1|,
    makes the quadrature slow or wrong. Both markets are refused with a
    ``ValueError`` naming ``alpha``, before any quadrature runs.
    """
    if spec.dx != 2 or spec.dy != 1:
        raise ValueError("needs dx=2 and dy=1")
    if spec.p_components is None or spec.q_components is None:
        raise ValueError("needs independent components on both sides")
    d1, d2 = spec.p_components
    if not d2.is_continuous:
        raise ValueError("second x attribute must be continuous")
    a1, a2 = float(spec.alpha[0]), float(spec.alpha[1])
    if not d1.is_continuous:
        if a2 == 0.0:
            raise ValueError("alpha: a zero second weight leaves the coin alone as the x index, "
                             "whose atoms the transfer map cannot match")
        if abs(a2) * _iqr(d2) < _NEAR_ATOMIC * abs(a1):
            raise ValueError(f"alpha: the second weight {a2!r} gives a2*X2 an interquartile range under "
                             f"{_NEAR_ATOMIC:g} of the first weight {a1!r}, so the x index is nearly the "
                             "coin alone, whose atoms the transfer map cannot match")
    index_tails = _population_index_tails(spec, tol, stats if stats is not None else QuadratureStats())
    qdist, b = spec.q_components[0], float(spec.beta[0])

    def tmap(z):
        lower, upper = index_tails(z)
        return scaled_quantile(qdist, b, np.maximum(lower, _P_MIN), np.maximum(upper, _P_MIN))

    return tmap


def _mean_over(spec: MarketSpec, fn: Callable, tol: float, stats: QuadratureStats | None) -> np.ndarray:
    """E[fn(X1, X2)] over the x attributes of ``spec``, ``fn`` broadcasting
    over both, one row per integrand. The inner integrals over the attribute
    ``_oriented`` puts second, for all outer nodes, run as one vector-valued
    pass, broken where the index density has a kink: where both attributes
    sit at an end of their supports."""
    d1, a1, d2, a2, swapped = _oriented(spec)
    g = (lambda x1, x2: fn(x2, x1)) if swapped else fn
    kinks = np.add.outer(a1 * np.array(_SUPPORT_ENDS[d1.kind]), a2 * np.array(_SUPPORT_ENDS[d2.kind])).ravel()

    def outer(x1_nodes):
        column = np.reshape(x1_nodes, (-1, 1))
        breaks = None if a2 == 0.0 else (kinks - a1 * column) / a2
        return quad_integrate(lambda x2: g(column, x2), d2, tol, stats, breaks=breaks)

    return quad_integrate(outer, d1, tol, stats)


def numeric_counterexample(spec: MarketSpec, tol: float, terms=()) -> CounterexampleReport:
    """Quadrature version of the weight-ratio diagnosis for any two-attribute
    market with independent components and a scalar y side.

    cov(X_i, T), as the mean of (X_i - E X_i) T, and the ``terms`` rows (see
    ``_TERMS``) are integrated in one pass over atoms and panels of the
    population transfer map T; the report's diagnostics count the panels.
    """
    stats = QuadratureStats()
    tmap = population_transfer_map(spec, tol, stats)
    m1, m2 = (d.mean() for d in spec.p_components)
    a1, a2 = float(spec.alpha[0]), float(spec.alpha[1])

    def stack(x1, x2):
        t = tmap(a1 * x1 + a2 * x2)
        return np.stack(np.broadcast_arrays((x1 - m1) * t, (x2 - m2) * t, *(fn(x1, x2, t) for _, fn, _, _ in terms)))

    cov_x1, cov_x2, *means = _mean_over(spec, stack, tol, stats).tolist()
    return CounterexampleReport.from_covariances(spec.alpha, cov_x1, cov_x2, "quadrature",
                                                 dict(zip([key for key, *_ in terms], means)), diagnostics=stats)


def _mean_stderr(values: np.ndarray) -> tuple[float, float]:
    """Sample mean of ``values`` and its standard error."""
    return float(np.mean(values)), float(np.std(values, ddof=1) / math.sqrt(values.size))


def _cov_stderrs(x1, x2, t) -> tuple[float, float, dict[str, float]]:
    """Sample covariances of x1 and x2 with t, and their standard errors
    (the ratio's by the delta method)."""
    tc = t - t.mean()
    covs, ses = [], []
    for name, a in (("cov_x1", x1), ("cov_x2", x2)):
        cov, se = _mean_stderr((a - a.mean()) * tc)
        covs.append(cov)
        ses.append(se)
        if cov == 0.0:
            raise NumericalError(f"sample {name} is 0 over {t.size} draws: the ratio's standard error is undefined")
    ratio = covs[1] / covs[0]
    stderrs = {
        "cov_x1": ses[0],
        "cov_x2": ses[1],
        "ratio_cca": abs(ratio) * math.hypot(ses[0] / covs[0], ses[1] / covs[1]),
    }
    return covs[0], covs[1], stderrs


def monte_carlo_counterexample(spec: MarketSpec, n: int, seed: int, terms=()) -> CounterexampleReport:
    """Monte Carlo column of a two-attribute market, obtained through the full
    simulation pipeline (sampling and the coupling sort), with standard errors.

    ``terms`` rows (see ``_TERMS``) are averaged over the sample's columns
    and its matched y index.
    """
    sample = simulate_market(spec, n, seed)
    x1, x2, t = sample.xs[:, 0], sample.xs[:, 1], sample.y_index(spec.beta)
    means, stderrs = {}, {}
    for key, fn, _, _ in terms:
        means[key], stderrs[key] = _mean_stderr(fn(x1, x2, t))
    cov_x1, cov_x2, cov_stderrs = _cov_stderrs(x1, x2, t)
    return CounterexampleReport.from_covariances(
        spec.alpha, cov_x1, cov_x2, "monte_carlo", means, {**stderrs, **cov_stderrs}
    )
