"""Matched-sample generation under single-index comonotone sorting.

A market is two populations of attribute vectors, an index weight vector
per side, and a supermodular surplus over the two indices. Equilibrium
sorting pairs equal index ranks, so simulation is: draw both sides
independently, sort each by its index, and zip.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .distributions import DistributionModel, seed_streams
from .errors import DegenerateIndexError

_SQRT1_2 = 1.0 / math.sqrt(2.0)
# rows formatted per write in to_csv, so a large sample never becomes one string
_CSV_BLOCK_ROWS = 65536


@dataclass(frozen=True)
class SurplusShape:
    """Bivariate surplus over the two indices: s*t, or a custom callable."""

    kind: str
    fn: Callable[[float, float], float] | None = None

    def __post_init__(self):
        if self.kind not in ("product", "custom"):
            raise ValueError(f"unknown surplus kind {self.kind!r}")
        if self.kind == "custom" and self.fn is None:
            raise ValueError("custom surplus needs a callable")

    @staticmethod
    def product() -> "SurplusShape":
        return SurplusShape("product")

    @staticmethod
    def custom(fn: Callable[[float, float], float]) -> "SurplusShape":
        return SurplusShape("custom", fn)

    @staticmethod
    def custom_supermodular(fn, s_grid, t_grid) -> "SurplusShape":
        """Custom surplus validated for supermodularity on the given grid."""
        shape = SurplusShape("custom", fn)
        if not check_supermodularity(shape, s_grid, t_grid):
            raise ValueError("callable fails the supermodularity check on the grid")
        return shape

    def value(self, s, t):
        if self.kind == "product":
            return np.asarray(s, float) * np.asarray(t, float)
        return self.fn(s, t)

    def pair_matrix(self, s, t) -> np.ndarray:
        """Matrix of surplus values over all (s_i, t_j) pairs."""
        s = np.asarray(s, dtype=float)
        t = np.asarray(t, dtype=float)
        if self.kind == "product":
            return np.outer(s, t)
        out = np.empty((s.size, t.size))
        for i, si in enumerate(s):
            for j, tj in enumerate(t):
                out[i, j] = self.fn(float(si), float(tj))
        return out


def check_supermodularity(phi: SurplusShape, s_grid, t_grid, tol: float = 1e-12) -> bool:
    """True iff every discrete second difference on the grid is >= -tol."""
    s = np.asarray(s_grid, dtype=float)
    t = np.asarray(t_grid, dtype=float)
    if s.size < 2 or t.size < 2:
        raise ValueError("each grid needs at least two points")
    if np.any(np.diff(s) <= 0) or np.any(np.diff(t) <= 0):
        raise ValueError("grids must be strictly increasing")
    m = phi.pair_matrix(s, t)
    second = m[1:, 1:] - m[1:, :-1] - m[:-1, 1:] + m[:-1, :-1]
    return bool(np.all(second >= -tol))


def _check_cov(name: str, cov: np.ndarray, dim: int) -> np.ndarray:
    cov = np.asarray(cov, dtype=float)
    if cov.shape != (dim, dim):
        raise ValueError(f"{name} must be {dim}x{dim}, got {cov.shape}")
    if not np.allclose(cov, cov.T, atol=1e-12):
        raise ValueError(f"{name} must be symmetric")
    if np.linalg.eigvalsh(cov).min() <= 1e-12:
        raise ValueError(f"{name} must be positive definite (min eigenvalue > 1e-12)")
    return cov


@dataclass(frozen=True, eq=False)
class MarketSpec:
    """Full generative description of a market.

    Each side is either a tuple of independent univariate components or a
    single Gaussian covariance (one regime per side, never mixed).
    """

    dx: int
    dy: int
    alpha: np.ndarray
    beta: np.ndarray
    p_components: tuple[DistributionModel, ...] | None = None
    q_components: tuple[DistributionModel, ...] | None = None
    p_cov: np.ndarray | None = None
    q_cov: np.ndarray | None = None
    phi: SurplusShape = field(default_factory=SurplusShape.product)

    def __post_init__(self):
        object.__setattr__(self, "alpha", np.asarray(self.alpha, dtype=float))
        object.__setattr__(self, "beta", np.asarray(self.beta, dtype=float))
        if self.alpha.shape != (self.dx,):
            raise ValueError(f"alpha must have length dx={self.dx}")
        if self.beta.shape != (self.dy,):
            raise ValueError(f"beta must have length dy={self.dy}")
        if not np.any(self.alpha):
            raise ValueError("alpha must be nonzero")
        if not np.any(self.beta):
            raise ValueError("beta must be nonzero")
        for side, comps, cov, dim in (
            ("P", self.p_components, self.p_cov, self.dx),
            ("Q", self.q_components, self.q_cov, self.dy),
        ):
            if (comps is None) == (cov is None):
                raise ValueError(f"side {side}: give exactly one of components or a Gaussian covariance")
            if comps is not None:
                if len(comps) != dim:
                    raise ValueError(f"side {side}: expected {dim} components, got {len(comps)}")
            else:
                checked = _check_cov(f"side {side} covariance", cov, dim)
                object.__setattr__(self, "p_cov" if side == "P" else "q_cov", checked)
        if self.p_components is not None:
            object.__setattr__(self, "p_components", tuple(self.p_components))
        if self.q_components is not None:
            object.__setattr__(self, "q_components", tuple(self.q_components))

    def to_json(self) -> dict:
        obj: dict = {
            "dx": self.dx,
            "dy": self.dy,
            "alpha": [float(a) for a in self.alpha],
            "beta": [float(b) for b in self.beta],
            "phi": self.phi.kind,
        }
        if self.p_components is not None:
            obj["p_components"] = [c.to_json() for c in self.p_components]
        else:
            obj["p_gaussian_cov"] = [[float(v) for v in row] for row in self.p_cov]
        if self.q_components is not None:
            obj["q_components"] = [c.to_json() for c in self.q_components]
        else:
            obj["q_gaussian_cov"] = [[float(v) for v in row] for row in self.q_cov]
        return obj

    @staticmethod
    def from_json(obj: dict) -> "MarketSpec":
        allowed = {
            "dx", "dy", "alpha", "beta", "phi",
            "p_components", "q_components", "p_gaussian_cov", "q_gaussian_cov",
        }
        extra = set(obj) - allowed
        if extra:
            raise ValueError(f"unknown market keys {sorted(extra)}")
        missing = [key for key in ("dx", "dy", "alpha", "beta") if obj.get(key) is None]
        if missing:
            raise ValueError(f"missing market keys {missing}")
        phi = obj.get("phi", "product")
        if phi != "product":
            raise ValueError("only the product surplus is serializable")
        comps_p = obj.get("p_components")
        comps_q = obj.get("q_components")
        return MarketSpec(
            dx=int(obj["dx"]),
            dy=int(obj["dy"]),
            alpha=obj["alpha"],
            beta=obj["beta"],
            p_components=tuple(DistributionModel.from_json(c) for c in comps_p) if comps_p is not None else None,
            q_components=tuple(DistributionModel.from_json(c) for c in comps_q) if comps_q is not None else None,
            p_cov=np.asarray(obj["p_gaussian_cov"], float) if "p_gaussian_cov" in obj else None,
            q_cov=np.asarray(obj["q_gaussian_cov"], float) if "q_gaussian_cov" in obj else None,
        )


def counterexample_market() -> MarketSpec:
    """The two-attribute benchmark market: ±1 coin + Exp(1) men, U[0,1] women,
    equal index weights. Canonical correlation is biased here; the true
    weight ratio is 1."""
    from .distributions import exponential, rademacher, uniform01

    return MarketSpec(
        dx=2,
        dy=1,
        alpha=np.array([_SQRT1_2, _SQRT1_2]),
        beta=np.array([1.0]),
        p_components=(rademacher(), exponential(1.0)),
        q_components=(uniform01(),),
    )


def gaussian_market(cov_x, cov_y, alpha, beta) -> MarketSpec:
    cov_x = np.asarray(cov_x, dtype=float)
    cov_y = np.asarray(cov_y, dtype=float)
    return MarketSpec(
        dx=cov_x.shape[0],
        dy=cov_y.shape[0],
        alpha=alpha,
        beta=beta,
        p_cov=cov_x,
        q_cov=cov_y,
    )


@dataclass(frozen=True, eq=False)
class MatchedSample:
    """n matched couples; row i of xs is married to row i of ys."""

    xs: np.ndarray
    ys: np.ndarray

    def __post_init__(self):
        xs = np.atleast_2d(np.asarray(self.xs, dtype=float))
        ys = np.atleast_2d(np.asarray(self.ys, dtype=float))
        if xs.shape[0] != ys.shape[0]:
            raise ValueError("xs and ys must pair the same number of couples")
        if xs.shape[0] < 1:
            raise ValueError("need at least one couple")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)

    @property
    def n(self) -> int:
        return self.xs.shape[0]

    @property
    def dx(self) -> int:
        return self.xs.shape[1]

    @property
    def dy(self) -> int:
        return self.ys.shape[1]

    def x_index(self, alpha) -> np.ndarray:
        return self.xs @ np.asarray(alpha, dtype=float)

    def y_index(self, beta) -> np.ndarray:
        return self.ys @ np.asarray(beta, dtype=float)

    def to_csv(self, path) -> None:
        """Write a header and one row per couple, each value as ``%.17g``:
        the bytes ``csv.writer`` gives (no quoting, CRLF line ends),
        formatted a block of rows at a time."""
        header = [f"x{j + 1}" for j in range(self.dx)] + [f"y{j + 1}" for j in range(self.dy)]
        data = np.hstack([self.xs, self.ys])
        row = ",".join(["%.17g"] * data.shape[1]) + "\r\n"
        with open(path, "w", newline="") as fh:
            fh.write(",".join(header) + "\r\n")
            for start in range(0, self.n, _CSV_BLOCK_ROWS):
                block = data[start : start + _CSV_BLOCK_ROWS]
                fh.write(row * block.shape[0] % tuple(block.ravel().tolist()))

    @staticmethod
    def from_csv(path) -> "MatchedSample":
        """Read a sample written by ``to_csv``; a malformed file raises a
        ValueError naming its line."""
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise ValueError(f"{path}: empty file, expected a header line")
            dx = sum(1 for name in header if name.startswith("x"))
            dy = len(header) - dx
            if dx < 1 or dy < 1 or header != [f"x{j + 1}" for j in range(dx)] + [f"y{j + 1}" for j in range(dy)]:
                raise ValueError(f"unexpected sample header {header!r}")
            rows = []
            for row in reader:
                if not row:
                    continue
                try:
                    values = [float(v) for v in row]
                except ValueError:
                    values = []
                if len(values) != dx + dy or not all(map(math.isfinite, values)):
                    raise ValueError(f"{path} line {reader.line_num}: expected {dx + dy} finite numbers, got {row!r}")
                rows.append(values)
        if not rows:
            raise ValueError(f"{path}: sample file has no rows")
        data = np.asarray(rows, dtype=float)
        return MatchedSample(xs=data[:, :dx], ys=data[:, dx:])


def _draw_side(components, cov, dim, n, streams) -> np.ndarray:
    if components is not None:
        cols = [components[j].draw(n, streams[j]) for j in range(dim)]
        return np.column_stack(cols)
    z = np.column_stack([streams[j].normal(0.0, 1.0, n) for j in range(dim)])
    return z @ np.linalg.cholesky(cov).T


def simulate_market(spec: MarketSpec, n: int, seed: int) -> MatchedSample:
    """Draw both sides independently and pair equal index ranks.

    Sorting is stable with original draw order as the tiebreaker, so the
    coupling is deterministic even when an index has atoms. One Philox
    stream per attribute column keeps draws reproducible under any
    evaluation order.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    streams = seed_streams(seed, spec.dx + spec.dy)
    xs = _draw_side(spec.p_components, spec.p_cov, spec.dx, n, streams[: spec.dx])
    ys = _draw_side(spec.q_components, spec.q_cov, spec.dy, n, streams[spec.dx :])
    u = xs @ spec.alpha
    v = ys @ spec.beta
    if np.var(u) == 0.0:
        raise DegenerateIndexError("x-side index has zero variance")
    if np.var(v) == 0.0:
        raise DegenerateIndexError("y-side index has zero variance")
    return MatchedSample(xs=xs[np.argsort(u, kind="stable")], ys=ys[np.argsort(v, kind="stable")])


def surplus(spec: MarketSpec, x, y) -> float:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != (spec.dx,) or y.shape != (spec.dy,):
        raise ValueError(f"expected attribute vectors of lengths ({spec.dx}, {spec.dy})")
    return float(spec.phi.value(float(spec.alpha @ x), float(spec.beta @ y)))


def matching_value(pair_surplus: np.ndarray, perm) -> float:
    """Total surplus of a permutation, summed in fixed row order."""
    n = pair_surplus.shape[0]
    return float(pair_surplus[np.arange(n), list(perm)].sum())


def rank_sorted_permutation(xs, ys, spec: MarketSpec) -> tuple[int, ...]:
    """Permutation pairing equal index ranks (the comonotone matching)."""
    u = np.asarray(xs, float) @ spec.alpha
    v = np.asarray(ys, float) @ spec.beta
    ox = np.argsort(u, kind="stable")
    oy = np.argsort(v, kind="stable")
    perm = np.empty(u.size, dtype=int)
    perm[ox] = oy
    return tuple(int(j) for j in perm)


def assignment_oracle(xs, ys, spec: MarketSpec) -> tuple[tuple[int, ...], float]:
    """Exhaustive assignment optimum over all n! pairings (n <= 10).

    Returns the lexicographically smallest maximizing permutation and its
    value; ties are resolved by keeping the first permutation attaining
    the maximum in lexicographic enumeration order.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    ys = np.atleast_2d(np.asarray(ys, dtype=float))
    n = xs.shape[0]
    if n > 10:
        raise ValueError("factorial enumeration is limited to n <= 10")
    if ys.shape[0] != n:
        raise ValueError("xs and ys must have the same number of rows")
    u = xs @ spec.alpha
    v = ys @ spec.beta
    pair = spec.phi.pair_matrix(u, v)
    best_value = -math.inf
    best_perm: tuple[int, ...] | None = None
    for perm in itertools.permutations(range(n)):
        value = matching_value(pair, perm)
        if value > best_value:
            best_value = value
            best_perm = perm
    return best_perm, best_value


def pair_surplus_matrix(xs, ys, spec: MarketSpec) -> np.ndarray:
    """Surplus of every potential couple; row = x rank of draw, col = y."""
    u = np.atleast_2d(np.asarray(xs, float)) @ spec.alpha
    v = np.atleast_2d(np.asarray(ys, float)) @ spec.beta
    return spec.phi.pair_matrix(u, v)
