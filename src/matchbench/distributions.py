"""Univariate distribution models, empirical CDFs, and reproducible sampling.

Four attribute laws are supported: centered Gaussians, the fair ±1 coin
(Rademacher), the exponential on [0, inf), and the uniform on [0, 1].
The last two are used exactly as defined (not re-centered); covariance
computations elsewhere always center empirically, so both conventions
coexist without adjustment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

KINDS = ("gaussian", "rademacher", "exponential", "uniform01")

_SQRT2 = math.sqrt(2.0)


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
            raise ValueError(f"unknown distribution kind {self.kind!r}")
        if self.kind in ("gaussian", "exponential"):
            if self.param is None or not (self.param > 0):
                raise ValueError(f"{self.kind} requires a positive parameter, got {self.param!r}")
        elif self.param is not None:
            raise ValueError(f"{self.kind} takes no parameter, got {self.param!r}")

    @property
    def is_continuous(self) -> bool:
        return self.kind != "rademacher"

    def mean(self) -> float:
        return {
            "gaussian": 0.0,
            "rademacher": 0.0,
            "exponential": 1.0 / self.param if self.param else 0.0,
            "uniform01": 0.5,
        }[self.kind]

    def var(self) -> float:
        if self.kind == "gaussian":
            return self.param**2
        if self.kind == "rademacher":
            return 1.0
        if self.kind == "exponential":
            return 1.0 / self.param**2
        return 1.0 / 12.0

    def atoms(self) -> list[tuple[float, float]]:
        """(value, probability) pairs for purely atomic kinds."""
        if self.kind != "rademacher":
            raise ValueError(f"{self.kind} is not atomic")
        return [(-1.0, 0.5), (1.0, 0.5)]

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
        arr, scalar = _as_float_array(p)
        if np.any(arr <= 0.0) or np.any(arr >= 1.0):
            raise ValueError("quantile requires probabilities strictly inside (0, 1)")
        if self.kind == "gaussian":
            out = self.param * ndtri(arr)
        elif self.kind == "rademacher":
            out = np.where(arr <= 0.5, -1.0, 1.0)
        elif self.kind == "exponential":
            out = -np.log1p(-arr) / self.param
        else:
            out = arr.copy()
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
            raise ValueError(f"distribution spec must be an object with a 'kind' key, got {obj!r}")
        extra = set(obj) - {"kind", "param"}
        if extra:
            raise ValueError(f"unknown distribution keys {sorted(extra)}")
        return DistributionModel(obj["kind"], obj.get("param"))


def gaussian(sd: float) -> DistributionModel:
    return DistributionModel("gaussian", float(sd))


def rademacher() -> DistributionModel:
    return DistributionModel("rademacher")


def exponential(rate: float) -> DistributionModel:
    return DistributionModel("exponential", float(rate))


def uniform01() -> DistributionModel:
    return DistributionModel("uniform01")


def sample(dist: DistributionModel, n: int, seed: int) -> np.ndarray:
    """n i.i.d. draws; identical output for identical (dist, n, seed)."""
    if n < 1:
        raise ValueError("need n >= 1")
    return dist.draw(n, seed_streams(seed, 1)[0])


def scaled_cdf(dist: DistributionModel, scale: float, t):
    """CDF of scale * Z at t, scale != 0.

    Symmetric kinds absorb a negative scale; for the asymmetric continuous
    kinds the reflection formula P(cZ <= t) = 1 - F(t/c) applies.
    """
    if scale == 0:
        raise ValueError("scale must be nonzero")
    if scale > 0:
        return dist.cdf(np.asarray(t, float) / scale)
    if self_symmetric(dist):
        return dist.cdf(np.asarray(t, float) / -scale)
    if not dist.is_continuous:
        raise ValueError("negative scaling of an asymmetric atomic law is unsupported")
    arr, scalar = _as_float_array(t)
    out = 1.0 - dist.cdf(arr / scale)
    return float(out) if scalar else out


def scaled_quantile(dist: DistributionModel, scale: float, p):
    """Quantile of scale * Z, scale != 0, p strictly inside (0, 1)."""
    if scale == 0:
        raise ValueError("scale must be nonzero")
    if scale > 0:
        return scale * dist.quantile(p)
    if self_symmetric(dist):
        return -scale * dist.quantile(p)
    if not dist.is_continuous:
        raise ValueError("negative scaling of an asymmetric atomic law is unsupported")
    arr, scalar = _as_float_array(p)
    out = scale * dist.quantile(1.0 - arr)
    return float(out) if scalar else out


def self_symmetric(dist: DistributionModel) -> bool:
    """True when -Z has the same law as Z."""
    return dist.kind in ("gaussian", "rademacher")


@dataclass(frozen=True, eq=False)
class EmpiricalCDF:
    """Rank-based CDF with the r/(n+1) convention and average ranks on ties.

    Evaluating at the k-th order statistic of an all-distinct sample gives
    k/(n+1); tied blocks get the mean rank of the block. Values at sample
    points therefore stay strictly inside (0, 1), and the mean over the
    sample itself is exactly 1/2.
    """

    sorted_values: np.ndarray
    n: int

    def ranks(self, z):
        """Average rank of z within the sample; half-integers on ties."""
        arr, scalar = _as_float_array(z)
        lo = np.searchsorted(self.sorted_values, arr, side="left")
        hi = np.searchsorted(self.sorted_values, arr, side="right")
        ties = hi - lo
        rank = np.where(ties > 0, lo + (ties + 1) / 2.0, lo).astype(float)
        return float(rank) if scalar else rank

    def evaluate(self, z):
        out = self.ranks(z) / (self.n + 1)
        return out

    __call__ = evaluate


def empirical_cdf(values) -> EmpiricalCDF:
    arr = np.asarray(values, dtype=float).ravel()
    if arr.size == 0:
        raise ValueError("empirical CDF needs a non-empty sample")
    return EmpiricalCDF(sorted_values=np.sort(arr), n=int(arr.size))


def average_ranks(values) -> np.ndarray:
    """Average ranks (1..n, half-integers on ties) of a sample within itself."""
    return empirical_cdf(values).ranks(np.asarray(values, dtype=float))


def rank_transform(values) -> np.ndarray:
    """Average ranks of a sample divided by n + 1 (its own empirical CDF)."""
    return empirical_cdf(values).evaluate(np.asarray(values, dtype=float))


_EXP1 = DistributionModel("exponential", 1.0)


def counterexample_index_cdf(x):
    """CDF of (X1 + X2)/sqrt(2) with X1 a fair ±1 coin and X2 ~ Exp(1).

    This is the equal-weight index of the benchmark market on which
    canonical correlation goes wrong; as a two-atom mixture of shifted
    exponentials it is continuous but visibly nonlinear in rank space.
    """
    arr, scalar = _as_float_array(x)
    z = arr * _SQRT2
    out = 0.5 * (_EXP1.cdf(z + 1.0) + _EXP1.cdf(z - 1.0))
    return float(out) if scalar else out
