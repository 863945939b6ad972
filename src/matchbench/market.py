"""Matched-sample generation under single-index comonotone sorting.

A market is two populations of attribute vectors, an index weight vector
per side, and the product surplus s*t of the two indices. Equilibrium
sorting pairs equal index ranks, so simulation is: draw both sides
independently, sort each by its index, and zip.
"""

from __future__ import annotations

import csv
import itertools
import math
import numbers
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .distributions import DistributionModel, seed_streams
from .errors import DegenerateIndexError

_SQRT1_2 = 1.0 / math.sqrt(2.0)
# rows formatted per write in to_csv: a few hundred KiB of Python floats and
# text whatever the sample size (writing speed was flat from 256 to 65,536)
_CSV_BLOCK_ROWS = 4096


def real_array(name: str, value) -> np.ndarray:
    """``value`` as a float array whose entries are all finite numbers.

    A string such as "1" or a bool is refused with the field's name, where
    numpy's float conversion would take it without a word.
    """
    entries = np.asarray(value, dtype=object)  # a ragged list keeps its rows as entries
    for v in entries.flat:
        # the bound also refuses nan and integers too large for a float
        if isinstance(v, bool) or not isinstance(v, numbers.Real) or not abs(v) <= sys.float_info.max:
            raise ValueError(f"{name}: entries must be finite numbers, got {v!r}")
    return entries.astype(float)


def _check_cov(name: str, cov, dim: int) -> np.ndarray:
    cov = real_array(name, cov)
    if cov.shape != (dim, dim):
        raise ValueError(f"{name}: covariance must be {dim}x{dim}, got {cov.shape}")
    if not np.allclose(cov, cov.T, atol=1e-12):
        raise ValueError(f"{name}: covariance must be symmetric")
    if np.linalg.eigvalsh(cov).min() <= 1e-12:
        raise ValueError(f"{name}: covariance must be positive definite (min eigenvalue > 1e-12)")
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

    def __post_init__(self):
        for name, dim in (("dx", self.dx), ("dy", self.dy)):
            if isinstance(dim, bool) or not isinstance(dim, numbers.Integral) or dim < 1:
                raise ValueError(f"{name}: must be an integer >= 1, got {dim!r}")
        object.__setattr__(self, "alpha", real_array("alpha", self.alpha))
        object.__setattr__(self, "beta", real_array("beta", self.beta))
        if self.alpha.shape != (self.dx,):
            raise ValueError(f"alpha must have length dx={self.dx}")
        if self.beta.shape != (self.dy,):
            raise ValueError(f"beta must have length dy={self.dy}")
        if not np.any(self.alpha):
            raise ValueError("alpha must be nonzero")
        if not np.any(self.beta):
            raise ValueError("beta must be nonzero")
        for side, cov_key, comps, cov, dim in (
            ("P", "p_gaussian_cov", self.p_components, self.p_cov, self.dx),
            ("Q", "q_gaussian_cov", self.q_components, self.q_cov, self.dy),
        ):
            if (comps is None) == (cov is None):
                raise ValueError(f"side {side}: give exactly one of components or a Gaussian covariance")
            if comps is not None:
                if len(comps) != dim:
                    raise ValueError(f"side {side}: expected {dim} components, got {len(comps)}")
            else:
                checked = _check_cov(cov_key, cov, dim)
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
            "phi": "product",
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
        if not isinstance(obj, dict):
            raise ValueError(f"must be a JSON object, got {obj!r}")
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
            raise ValueError(f"phi: only the product surplus is supported, got {phi!r}")
        return MarketSpec(
            dx=obj["dx"],
            dy=obj["dy"],
            alpha=obj["alpha"],
            beta=obj["beta"],
            p_components=_components_from_json("p_components", obj.get("p_components")),
            q_components=_components_from_json("q_components", obj.get("q_components")),
            p_cov=obj.get("p_gaussian_cov"),
            q_cov=obj.get("q_gaussian_cov"),
        )


def _components_from_json(key: str, comps) -> tuple[DistributionModel, ...] | None:
    """The components under ``key``; an error names the one at fault, as in
    ``p_components[1].param``."""
    if comps is None:
        return None
    models = []
    for i, comp in enumerate(comps):
        try:
            models.append(DistributionModel.from_json(comp))
        except ValueError as exc:
            raise ValueError(f"{key}[{i}].{exc}") from exc
    return tuple(models)


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
        formatted a block of rows at a time from the rows of xs and ys."""
        header = [f"x{j + 1}" for j in range(self.dx)] + [f"y{j + 1}" for j in range(self.dy)]
        row = ",".join(["%.17g"] * len(header)) + "\r\n"
        with open(path, "w", newline="") as fh:
            fh.write(",".join(header) + "\r\n")
            for start in range(0, self.n, _CSV_BLOCK_ROWS):
                rows = slice(start, start + _CSV_BLOCK_ROWS)
                block = np.hstack([self.xs[rows], self.ys[rows]])
                fh.write(row * block.shape[0] % tuple(block.ravel().tolist()))

    @staticmethod
    def from_csv(path) -> "MatchedSample":
        """Read a sample written by ``to_csv``; a malformed file raises a
        ValueError naming its line.

        The header must read x1, ..., y1, ...; any other header is named as
        line 1. After it, ``np.loadtxt`` parses the rows straight into one
        array. That array is kept only when it has rows, one column per
        header name and finite entries; every value it then holds is the
        one ``float`` gives for the same field, bit for bit. Any other
        outcome reads the rows again in a Python loop, which is the only
        source of row errors, so every message names its line. The file is
        read as UTF-8, each byte that is not UTF-8 kept as an escape, so the
        header check and the row loop name the first such byte.
        """
        with open(path, newline="", encoding="utf-8", errors="surrogateescape") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise ValueError(f"{path}: empty file, expected a header line")
            dx = sum(1 for name in header if name.startswith("x"))
            dy = len(header) - dx
            if dx < 1 or dy < 1 or header != [f"x{j + 1}" for j in range(dx)] + [f"y{j + 1}" for j in range(dy)]:
                problem = _undecoded(header) or f"unexpected sample header {header!r}"
                raise ValueError(f"{path} line {reader.line_num}: {problem}")
            try:
                with warnings.catch_warnings():
                    # a file without rows is named by the row loop
                    warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
                    data = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
            except ValueError:
                data = np.empty((0, 0))
            if not (data.shape[0] and data.shape[1] == dx + dy and np.isfinite(data).all()):
                data = _read_rows(path, fh, dx + dy)
        return MatchedSample(xs=data[:, :dx], ys=data[:, dx:])


def _read_rows(path, fh, width: int) -> np.ndarray:
    """The rows after the header of the open sample file ``fh``, parsed one
    field at a time with ``float``; the first bad row raises a ValueError
    naming its line."""
    fh.seek(0)
    reader = csv.reader(fh)
    next(reader)
    rows = []
    for row in reader:
        if not row:
            continue
        try:
            values = [float(v) for v in row]
        except ValueError:
            values = []
        if len(values) != width or not all(map(math.isfinite, values)):
            problem = _undecoded(row) or f"expected {width} finite numbers, got {row!r}"
            raise ValueError(f"{path} line {reader.line_num}: {problem}")
        rows.append(values)
    if not rows:
        raise ValueError(f"{path}: sample file has no rows")
    return np.asarray(rows, dtype=float)


def _undecoded(fields) -> str | None:
    """The error for the first byte of ``fields`` that is not UTF-8 (read
    as an escape), or None when every byte was UTF-8."""
    escaped = [c for field in fields for c in field if "\udc80" <= c <= "\udcff"]
    return f"byte {ord(escaped[0]) - 0xDC00:#04x} is not UTF-8 text" if escaped else None


def _draw_side(components, cov, dim, n, streams) -> np.ndarray:
    """n draws of one side, column j from stream j, filled into one array."""
    draws = np.empty((n, dim))
    for j in range(dim):
        draws[:, j] = streams[j].normal(0.0, 1.0, n) if cov is not None else components[j].draw(n, streams[j])
    return draws if cov is None else draws @ np.linalg.cholesky(cov).T


def _coupling_order(index: np.ndarray) -> np.ndarray:
    """The stable sorting permutation of ``index``: ties keep draw order.

    Numpy's default sort is several times faster than the stable one. When
    no two keys compare equal the sorting permutation is unique, so the two
    agree; a tie (±0.0 and ±inf included) or a nan takes the stable sort.
    ``simulate_market`` sends a one-attribute side here only when
    ``_sorted_column`` refuses it.
    """
    order = np.argsort(index)
    ranked = index[order]
    if np.any(ranked[1:] == ranked[:-1]) or np.isnan(ranked[-1:]).any():
        return np.argsort(index, kind="stable")
    return order


def _sorted_column(column: np.ndarray, weights: np.ndarray) -> np.ndarray | None:
    """A one-attribute side's ``column`` sorted by its index
    ``column[:, None] @ weights`` (values descending for a negative weight),
    or None where that could differ in bytes from the stable index sort: a
    zero (±0.0 differ in bits; the stable sort orders them by draw), or two
    distinct adjacent values whose index rounds equal."""
    ordered = column.copy()
    (ordered if weights[0] > 0 else ordered[::-1]).sort()
    ranked = ordered[:, None] @ weights
    if not ordered.all() or np.any((ranked[1:] == ranked[:-1]) & (ordered[1:] != ordered[:-1])):
        return None
    return ordered


def _sorted_side(side: str, fields: str, components, cov, weights, n: int, streams) -> np.ndarray:
    """One side's draws, their index checked, in the stable sort order of
    the index: by ``_sorted_column`` or else ``_coupling_order``."""
    draws = _draw_side(components, cov, weights.size, n, streams)
    # an inf or nan in an index, or a spread too wide for a float, makes its variance non-finite
    with np.errstate(over="ignore", invalid="ignore"):
        index = draws @ weights
        spread = np.var(index)
    if not math.isfinite(spread):
        raise ValueError(f"{fields}: the {side}-side index overflows a float; rescale the weights or params")
    if spread == 0.0:
        raise DegenerateIndexError(f"{side}-side index has zero variance")
    if weights.size == 1:
        del index  # freed before the sorted copy is allocated
        ordered = _sorted_column(draws[:, 0], weights)
        if ordered is not None:
            return ordered[:, None]
        index = draws @ weights
    order = _coupling_order(index)
    del index  # freed before the sorted copy is allocated
    return np.take(draws, order, axis=0)


def simulate_market(spec: MarketSpec, n: int, seed: int) -> MatchedSample:
    """Draw both sides independently and pair equal index ranks.

    Each side takes the order of its index's stable sort, with original
    draw order as the tiebreaker, so the coupling is deterministic even
    when an index has atoms: a one-attribute side by sorting its values
    (``_sorted_column``), any other through ``_coupling_order``'s
    permutation; both give the same bytes. One Philox stream per attribute
    column keeps draws reproducible under any evaluation order.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    streams = seed_streams(seed, spec.dx + spec.dy)
    # the x side is sorted before the y side is drawn, so one side's draws at most are held twice
    xs = _sorted_side("x", "alpha/p_components", spec.p_components, spec.p_cov, spec.alpha, n, streams[: spec.dx])
    ys = _sorted_side("y", "beta/q_components", spec.q_components, spec.q_cov, spec.beta, n, streams[spec.dx :])
    return MatchedSample(xs=xs, ys=ys)


def matching_value(pair_surplus: np.ndarray, perm) -> float:
    """Total surplus of a permutation, summed in fixed row order."""
    n = pair_surplus.shape[0]
    return float(pair_surplus[np.arange(n), list(perm)].sum())


def rank_sorted_permutation(xs, ys, spec: MarketSpec) -> tuple[int, ...]:
    """Permutation pairing equal index ranks (the comonotone matching)."""
    u = np.asarray(xs, float) @ spec.alpha
    v = np.asarray(ys, float) @ spec.beta
    perm = np.empty(u.size, dtype=int)
    perm[_coupling_order(u)] = _coupling_order(v)
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
    pair = pair_surplus_matrix(xs, ys, spec)
    rows = np.arange(n)
    # the tails after each first element, in lexicographic order, as positions among the rest
    tails = np.array(list(itertools.permutations(range(n - 1))), dtype=int)
    best_value = -math.inf
    best_perm: tuple[int, ...] | None = None
    for first in range(n):
        rest = np.delete(rows, first)
        perms = np.column_stack((np.full(len(tails), first), rest[tails]))
        values = pair[rows, perms].sum(axis=1)
        i = int(np.argmax(values))
        if values[i] > best_value:
            best_value = float(values[i])
            best_perm = tuple(int(j) for j in perms[i])
    return best_perm, best_value


def pair_surplus_matrix(xs, ys, spec: MarketSpec) -> np.ndarray:
    """Surplus of every potential couple; row = x rank of draw, col = y."""
    u = np.atleast_2d(np.asarray(xs, float)) @ spec.alpha
    v = np.atleast_2d(np.asarray(ys, float)) @ spec.beta
    return np.outer(u, v)
