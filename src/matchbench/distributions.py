"""Univariate distribution models, sample ranks, and reproducible sampling.

Four attribute laws are supported: centered Gaussians, the fair ±1 coin
(Rademacher), the exponential on [0, inf), and the uniform on [0, 1].
The last two are used exactly as defined (not re-centered); covariance
computations elsewhere always center empirically, so both conventions
coexist without adjustment.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

KINDS = ("gaussian", "rademacher", "exponential", "uniform01")


def seed_streams(seed: int, k: int) -> list[np.random.Generator]:
    """Split ``seed`` into ``k`` independent counter-based generators.

    Each stream is a Philox generator spawned from one root SeedSequence,
    so draws are bitwise reproducible regardless of the order in which the
    streams are consumed (safe for per-column or per-task parallelism).
    """
    root = np.random.SeedSequence(seed)
    return [np.random.Generator(np.random.Philox(child)) for child in root.spawn(k)]


def _as_float_array(z):
    arr = np.asarray(z, dtype=float)
    return arr, arr.ndim == 0


def _as_probabilities(p):
    arr, scalar = _as_float_array(p)
    if ((arr <= 0.0) | (arr >= 1.0)).any():
        raise ValueError("quantile requires probabilities strictly inside (0, 1)")
    return arr, scalar


@dataclass(frozen=True)
class DistributionModel:
    """A univariate attribute law identified by ``kind`` and one parameter.

    kind          param
    ------------  ------------------------------
    gaussian      standard deviation (> 0)
    rademacher    none (±1 with probability 1/2)
    exponential   rate (> 0), support [0, inf)
    uniform01     none, support [0, 1]
    """

    kind: str
    param: float | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind: must be one of {KINDS}, got {self.kind!r}")
        if self.kind in ("gaussian", "exponential"):
            param = self.param
            # the upper bound also refuses integers too large for a float
            if isinstance(param, bool) or not isinstance(param, numbers.Real) or not (0 < param <= sys.float_info.max):
                raise ValueError(f"param: {self.kind} requires a finite positive number, got {param!r}")
        elif self.param is not None:
            raise ValueError(f"param: {self.kind} takes no parameter, got {self.param!r}")

    @property
    def is_continuous(self) -> bool:
        return self.kind != "rademacher"

    def mean(self) -> float:
        if self.kind == "exponential":
            return 1.0 / self.param
        return 0.5 if self.kind == "uniform01" else 0.0

    def cdf(self, z):
        """Right-continuous CDF; the exponential CDF is 0 on negatives."""
        arr, scalar = _as_float_array(z)
        if self.kind == "gaussian":
            out = ndtr(arr / self.param)
        elif self.kind == "rademacher":
            out = np.where(arr < -1.0, 0.0, np.where(arr < 1.0, 0.5, 1.0))
        elif self.kind == "exponential":
            out = np.where(arr < 0.0, 0.0, -np.expm1(-self.param * np.maximum(arr, 0.0)))
        else:
            out = np.clip(arr, 0.0, 1.0)
        return float(out) if scalar else out

    def sf(self, z):
        """Survival function P(Z > z), computed directly rather than as 1 - cdf(z)."""
        arr, scalar = _as_float_array(z)
        if self.kind == "gaussian":
            out = ndtr(-arr / self.param)
        elif self.kind == "rademacher":
            out = np.where(arr < -1.0, 1.0, np.where(arr < 1.0, 0.5, 0.0))
        elif self.kind == "exponential":
            out = np.where(arr < 0.0, 1.0, np.exp(-self.param * np.maximum(arr, 0.0)))
        else:
            out = np.clip(1.0 - arr, 0.0, 1.0)
        return float(out) if scalar else out

    def pdf(self, z):
        """Density of continuous kinds; atomic kinds have no density."""
        if self.kind == "rademacher":
            raise ValueError("rademacher has no density")
        arr, scalar = _as_float_array(z)
        if self.kind == "gaussian":
            sd = self.param
            out = np.exp(-0.5 * (arr / sd) ** 2) / (sd * math.sqrt(2.0 * math.pi))
        elif self.kind == "exponential":
            out = np.where(arr < 0.0, 0.0, self.param * np.exp(-self.param * np.maximum(arr, 0.0)))
        else:
            out = np.where((arr >= 0.0) & (arr <= 1.0), 1.0, 0.0)
        return float(out) if scalar else out

    def quantile(self, p):
        """Smallest z with cdf(z) >= p, for p strictly inside (0, 1)."""
        arr, scalar = _as_probabilities(p)
        if self.kind == "gaussian":
            out = self.param * ndtri(arr)
        elif self.kind == "rademacher":
            out = np.where(arr <= 0.5, -1.0, 1.0)
        elif self.kind == "exponential":
            out = -np.log1p(-arr) / self.param
        else:
            out = arr.copy()
        return float(out) if scalar else out

    def isf(self, s):
        """Upper-tail quantile: quantile(1 - s), for s strictly inside (0, 1),
        without forming 1 - s, so it keeps full precision as s nears 0."""
        arr, scalar = _as_probabilities(s)
        if self.kind == "gaussian":
            out = -self.param * ndtri(arr)
        elif self.kind == "rademacher":
            out = np.where(arr >= 0.5, -1.0, 1.0)
        elif self.kind == "exponential":
            out = -np.log(arr) / self.param
        else:
            out = 1.0 - arr
        return float(out) if scalar else out

    def draw(self, n: int, rng: np.random.Generator) -> np.ndarray:
        if self.kind == "gaussian":
            return rng.normal(0.0, self.param, n)
        if self.kind == "rademacher":
            return rng.integers(0, 2, n).astype(float) * 2.0 - 1.0
        if self.kind == "exponential":
            return rng.exponential(1.0 / self.param, n)
        return rng.random(n)

    def to_json(self) -> dict:
        obj: dict = {"kind": self.kind}
        if self.param is not None:
            obj["param"] = self.param
        return obj

    @staticmethod
    def from_json(obj: dict) -> "DistributionModel":
        if not isinstance(obj, dict) or "kind" not in obj:
            raise ValueError(f"kind: missing; a distribution is an object with a 'kind' key, got {obj!r}")
        extra = set(obj) - {"kind", "param"}
        if extra:
            raise ValueError(f"{sorted(extra)[0]}: unknown key (a distribution takes kind and param)")
        return DistributionModel(obj["kind"], obj.get("param"))


def gaussian(sd: float) -> DistributionModel:
    return DistributionModel("gaussian", float(sd))


def rademacher() -> DistributionModel:
    return DistributionModel("rademacher")


def exponential(rate: float) -> DistributionModel:
    return DistributionModel("exponential", float(rate))


def uniform01() -> DistributionModel:
    return DistributionModel("uniform01")


def _reflected(dist: DistributionModel, scale: float) -> tuple[float, bool]:
    """``(scale, flipped)`` for reading scale * Z off the law of Z.

    Symmetric kinds absorb a negative scale. For the asymmetric continuous
    kinds a negative scale swaps the tails: P(cZ <= t) = P(Z >= t/c), and
    ``flipped`` is True.
    """
    if scale == 0:
        raise ValueError("scale must be nonzero")
    if scale > 0:
        return scale, False
    if dist.kind in ("gaussian", "rademacher"):  # -Z has the law of Z
        return -scale, False
    return scale, True


def scaled_cdf(dist: DistributionModel, scale: float, t):
    """CDF of scale * Z at t, scale != 0."""
    scale, flipped = _reflected(dist, scale)
    arr = np.asarray(t, float) / scale
    return dist.sf(arr) if flipped else dist.cdf(arr)


def scaled_sf(dist: DistributionModel, scale: float, t):
    """Survival function P(scale * Z > t), scale != 0."""
    scale, flipped = _reflected(dist, scale)
    arr = np.asarray(t, float) / scale
    return dist.cdf(arr) if flipped else dist.sf(arr)


def scaled_quantile(dist: DistributionModel, scale: float, p, q=None):
    """Quantile of scale * Z at p, scale != 0, p strictly inside (0, 1).

    ``q``, when given, is 1 - p computed without cancellation. Where p > 1/2
    the quantile is then read off the upper tail at q, so it keeps full
    precision as p nears 1.
    """
    scale, flipped = _reflected(dist, scale)
    lower, upper = (dist.isf, dist.quantile) if flipped else (dist.quantile, dist.isf)
    if q is None:
        return scale * lower(p)
    p, scalar = _as_float_array(p)
    in_upper = p > 0.5
    out = scale * np.where(
        in_upper, upper(np.where(in_upper, q, 0.5)), lower(np.where(in_upper, 0.5, p))
    )
    return float(out) if scalar else out


def average_ranks(values) -> np.ndarray:
    """Average ranks (1..n, half-integers on ties) of a finite sample within itself.

    One argsort: a run of equal sorted values at 0-based positions
    start..end-1 shares the rank (start + end + 1) / 2. The result equals
    the searchsorted reference in tests/test_distributions.py bit for bit,
    whatever order the sort leaves inside a run.
    """
    arr = np.asarray(values, dtype=float).ravel()
    n = arr.size
    if n == 0:
        raise ValueError("average ranks need a non-empty sample")
    order = np.argsort(arr)
    ordered = arr[order]
    # the sort puts -inf first and inf and nan last
    if not (math.isfinite(ordered[0]) and math.isfinite(ordered[-1])):
        raise ValueError("average ranks need finite values (got nan or inf)")
    ranks = np.empty(n)
    breaks = ordered[1:] != ordered[:-1]
    if breaks.all():
        ranks[order] = np.arange(1.0, n + 1.0)
        return ranks
    starts = np.flatnonzero(np.concatenate(([True], breaks)))
    ends = np.append(starts[1:], n)
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks

