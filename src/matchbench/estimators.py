"""Index-weight estimators for matched samples.

Canonical correlation (whitening + SVD), the constrained least-squares
variant that pins the first y weight to one, rank-correlation
maximization over the product of unit spheres, and marginal rates of
substitution from a kernel regression. All reported weight vectors are
normalized to unit Euclidean norm with a positive leading nonzero entry
so results are comparable across methods; raw solutions stay available
in the diagnostics.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .distributions import average_ranks, seed_streams
from .errors import DegenerateIndexError, NumericalError
from .market import MarketSpec, MatchedSample
from .saliency import svd_decompose

_TWO_PI = 2.0 * math.pi
_EIGEN_FLOOR_RATIO = 1e-10
_MOMENTS_OVERFLOW = "sample: second moments overflow a float; rescale the columns"
# worker processes of the ``benchmark`` sweep, and threads of the kernel regression's point blocks
WORKERS = min(4, os.cpu_count() or 1)
# weights in a kernel-regression block, unless one row of n is wider: a
# worker's block and its spare (2 MiB) fit a core's L2
_BLOCK = 2**17


@dataclass(frozen=True, eq=False)
class MomentSet:
    """Centered second-moment matrices of a matched sample (divisor n)."""

    Sxx: np.ndarray
    Syy: np.ndarray
    Sxy: np.ndarray

    def __post_init__(self):
        Sxx = np.atleast_2d(np.asarray(self.Sxx, dtype=float))
        Syy = np.atleast_2d(np.asarray(self.Syy, dtype=float))
        Sxy = np.atleast_2d(np.asarray(self.Sxy, dtype=float))
        if Sxx.shape[0] != Sxx.shape[1] or Syy.shape[0] != Syy.shape[1]:
            raise ValueError("Sxx and Syy must be square")
        if Sxy.shape != (Sxx.shape[0], Syy.shape[0]):
            raise ValueError("Sxy must be dx x dy")
        object.__setattr__(self, "Sxx", Sxx)
        object.__setattr__(self, "Syy", Syy)
        object.__setattr__(self, "Sxy", Sxy)


@dataclass(frozen=True, eq=False)
class EstimatorResult:
    alpha_hat: np.ndarray
    beta_hat: np.ndarray
    objective: float
    method: str
    diagnostics: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "method": self.method,
            "alpha": [float(a) for a in self.alpha_hat],
            "beta": [float(b) for b in self.beta_hat],
            "objective": None if not np.isfinite(self.objective) else float(self.objective),
            "diagnostics": _jsonify(self.diagnostics),
        }


def _jsonify(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonify(obj.tolist())
    if isinstance(obj, (np.floating, float)):
        val = float(obj)
        return val if np.isfinite(val) else None
    if isinstance(obj, (np.integer, np.bool_)):
        return obj.item()
    return obj


def normalize_weights(w) -> np.ndarray:
    """Unit Euclidean norm, first nonzero coordinate positive."""
    w = np.asarray(w, dtype=float)
    norm = np.linalg.norm(w)
    if norm == 0.0:
        raise ValueError("cannot normalize a zero weight vector")
    w = w / norm
    lead = np.flatnonzero(w)[0]
    return -w if w[lead] < 0 else w


def compute_moments(sample: MatchedSample) -> MomentSet:
    if sample.n < 2:
        raise ValueError("need at least two couples")
    n = sample.n
    with np.errstate(over="ignore", invalid="ignore"):
        # centered columns as contiguous rows, multiplied in numpy's own loop:
        # OpenBLAS splits a long dot by its thread count, and rounds by it
        xt, yt = (np.subtract(side.T, side.mean(axis=0)[:, None], order="C") for side in (sample.xs, sample.ys))
        moments = MomentSet(*(np.einsum("ji,ki->jk", a, b) / n for a, b in ((xt, xt), (yt, yt), (xt, yt))))
    if not all(np.isfinite(S).all() for S in (moments.Sxx, moments.Syy, moments.Sxy)):
        raise ValueError(_MOMENTS_OVERFLOW)
    return moments


def _inverse_sqrt_clipped(S: np.ndarray) -> tuple[np.ndarray, int]:
    """Symmetric inverse square root with small eigenvalues lifted to a floor.

    Eigenvalues below _EIGEN_FLOOR_RATIO times the largest are clipped to
    that floor so behavior near rank deficiency stays deterministic.
    """
    w, q = np.linalg.eigh(0.5 * (S + S.T))
    top = w.max()
    if top <= 0.0:
        raise NumericalError("covariance matrix has no positive eigenvalue")
    floor = _EIGEN_FLOOR_RATIO * top
    clipped = int(np.sum(w < floor))
    w = np.maximum(w, floor)
    return (q * (w**-0.5)) @ q.T, clipped


def cca(moments: MomentSet) -> EstimatorResult:
    """Top canonical pair via whitening and an SVD of the whitened cross moments.

    The raw pair satisfies the unit index-variance constraints; the
    reported pair is the canonical-sign unit-norm representative and the
    objective is the leading singular value (the canonical correlation).
    """
    isx, clip_x = _inverse_sqrt_clipped(moments.Sxx)
    isy, clip_y = _inverse_sqrt_clipped(moments.Syy)
    whitened = isx @ moments.Sxy @ isy
    decomp = svd_decompose(whitened)
    alpha_raw = isx @ decomp.U[0]
    beta_raw = isy @ decomp.V[0]
    return EstimatorResult(
        alpha_hat=normalize_weights(alpha_raw),
        beta_hat=normalize_weights(beta_raw),
        objective=float(decomp.lambdas[0]),
        method="cca",
        diagnostics={
            "alpha_raw": alpha_raw,
            "beta_raw": beta_raw,
            "singular_values": decomp.lambdas,
            "clipped_eigenvalues": [clip_x, clip_y],
        },
    )


def ols_index(sample: MatchedSample) -> EstimatorResult:
    """Least squares of the first y attribute on x and the remaining y
    attributes, with the first y weight pinned to one.

    Variables are centered first, so the fitted weights agree with the
    moment-based estimators regardless of nonzero attribute means.
    """
    moments = compute_moments(sample)
    xc = sample.xs - sample.xs.mean(axis=0)
    yc = sample.ys - sample.ys.mean(axis=0)
    target = yc[:, 0]
    design = xc if sample.dy == 1 else np.hstack([xc, yc[:, 1:]])
    if sample.n <= design.shape[1]:
        raise ValueError("need more couples than regressors")
    coef, _, rank, _ = np.linalg.lstsq(design, target, rcond=None)
    if rank < design.shape[1]:
        raise NumericalError("collinear regressors")
    alpha = coef[: sample.dx]
    if not np.any(alpha):
        raise NumericalError("least squares fit gives all-zero x weights (constant response?)")
    beta = np.concatenate([[1.0], -coef[sample.dx :]])
    resid = target - design @ coef
    return EstimatorResult(
        alpha_hat=normalize_weights(alpha),
        beta_hat=normalize_weights(beta),
        objective=float(alpha @ moments.Sxy @ beta),
        method="ols",
        diagnostics={
            "alpha_raw": alpha,
            "beta_raw": beta,
            "constraint_A": float(alpha @ moments.Sxx @ alpha),
            "constraint_B": float(beta @ moments.Syy @ beta),
            "residual_variance": float(np.mean(resid**2)),
        },
    )


# An average rank or a dominance count is a multiple of 1/2 in [0, n], so
# four times a product of two is an integer of at most 4n^2. A float64 dot
# over c such terms is then exact in any summation order while
# c * 4n^2 <= 2**53, and the chunk sums add up exactly as Python ints.
_EXACT_DOT_MAX_N = math.isqrt(2**51)


def _exact_dot4(a: np.ndarray, b: np.ndarray) -> int:
    """4 * (a @ b) as an exact integer, for multiples of 1/2 in [0, a.size]."""
    n = a.size
    if n > _EXACT_DOT_MAX_N:
        raise NumericalError(f"rank objectives are exact only up to n = {_EXACT_DOT_MAX_N}, got n = {n}")
    chunk = 2**51 // (n * n)
    # numpy's own loop, not a BLAS dot: OpenBLAS threads its ddot at large
    # n, and those threads spin on the CPUs the benchmark pool's other
    # workers need. Exactness holds in any order, so the sum is unchanged.
    return sum(int(4.0 * np.einsum("i,i->", a[i : i + chunk], b[i : i + chunk])) for i in range(0, n, chunk))


def _dot4_scale(n: int) -> int:
    # one correctly rounded division of an exact dot by this is a rank-product
    # mean, so the comonotone maximum lands exactly on the bound at every n
    return 4 * n * (n + 1) * (n + 1)


def _bound_dot4(n: int) -> int:
    """``spearman_upper_bound(n)`` in exact dot units: 4 * sum of i^2 over 1..n."""
    return 2 * n * (n + 1) * (2 * n + 1) // 3


def _rank_product_mean(rank_u: np.ndarray, rank_v: np.ndarray) -> float:
    return _exact_dot4(rank_u, rank_v) / _dot4_scale(rank_u.size)


def spearman_objective(sample: MatchedSample, alpha, beta) -> float:
    """Mean product of the two index rank transforms (r/(n+1) convention)."""
    u = sample.x_index(alpha)
    v = sample.y_index(beta)
    if np.var(u) == 0.0 or np.var(v) == 0.0:
        raise DegenerateIndexError("index series is constant")
    return _rank_product_mean(average_ranks(u), average_ranks(v))


def spearman_upper_bound(n: int) -> float:
    """Finite-sample maximum of the rank-product objective, (2n+1)/(6(n+1))."""
    return _bound_dot4(n) / _dot4_scale(n)


def spearman_objective_prob_form(sample: MatchedSample, alpha, beta) -> float:
    """Triple-average form: the share of (i, j, k) with couple k dominating
    i on the x index and j on the y index. Agrees with the rank form
    within 3/n; O(n log n) via sorted counting."""
    n = sample.n
    u = sample.x_index(alpha)
    v = sample.y_index(beta)
    count_u = np.searchsorted(np.sort(u), u, side="right")
    count_v = np.searchsorted(np.sort(v), v, side="right")
    return _exact_dot4(count_u, count_v) / (4 * n**3)


def _unit_from_angles(theta: np.ndarray, d: int) -> np.ndarray:
    w = np.ones(d)
    for i in range(d - 1):
        c, s = math.cos(theta[i]), math.sin(theta[i])
        w[i] *= c
        w[i + 1 :] *= s
    return w


# The coarse circle of the dx=2, dy=1 search: the 512 angles k pi/256, so
# point k + 256 is the antipode of point k (bit for bit
# np.arange(0, 2 pi, 2 pi/512)). The best three coarse angles are refined
# on a fine grid one coarse step either side.
_COARSE_STEP = math.pi / 256
_COARSE_CIRCLE = np.arange(512) * _COARSE_STEP
_FINE_STEP = 1e-3


# Nelder-Mead as scipy 1.17.1 runs it: a port of _minimize_neldermead from
# scipy/optimize/_optimize.py (Copyright (c) 2001-2002 Enthought, Inc. and
# 2003- SciPy Developers; BSD 3-Clause license) for the one case used here:
# no bounds, no callback, not adaptive, and no cap on evaluations. Its
# arithmetic and ordering are scipy's, step for step, so it returns the
# same bits.
def _nelder_mead(f, x0, xatol: float, fatol: float, maxiter: int):
    """Minimize ``f`` from ``x0``; returns (x, fun, nfev, nit, success)."""
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    nonzdelt, zdelt = 0.05, 0.00025
    x0 = np.asarray(x0, dtype=float).ravel()
    N = x0.size
    sim = np.tile(x0, (N + 1, 1))
    for k in range(N):
        sim[k + 1, k] = (1 + nonzdelt) * x0[k] if x0[k] != 0 else zdelt
    nfev = 0

    def func(x: np.ndarray):
        nonlocal nfev
        nfev += 1
        return f(np.copy(x))

    fsim = np.array([func(x) for x in sim], dtype=float)
    # scipy sorts twice here; an argsort need not be stable, so both stay
    for _ in range(2):
        ind = np.argsort(fsim)
        sim = np.take(sim, ind, 0)
        fsim = np.take(fsim, ind, 0)

    iterations = 1
    while iterations < maxiter:
        if (np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= xatol
                and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
            break
        xbar = np.add.reduce(sim[:-1], 0) / N
        xr = (1 + rho) * xbar - rho * sim[-1]
        fxr = func(xr)
        if fxr < fsim[0]:
            xe = (1 + rho * chi) * xbar - rho * chi * sim[-1]
            fxe = func(xe)
            if fxe < fxr:
                sim[-1], fsim[-1] = xe, fxe
            else:
                sim[-1], fsim[-1] = xr, fxr
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:
                xc = (1 + psi * rho) * xbar - psi * rho * sim[-1]
                fxc = func(xc)
                keep = fxc <= fxr
            else:
                xc = (1 - psi) * xbar + psi * sim[-1]
                fxc = func(xc)
                keep = fxc < fsim[-1]
            if keep:
                sim[-1], fsim[-1] = xc, fxc
            else:
                for j in range(1, N + 1):
                    sim[j] = sim[0] + sigma * (sim[j] - sim[0])
                    fsim[j] = func(sim[j])
        iterations += 1
        ind = np.argsort(fsim)
        sim = np.take(sim, ind, 0)
        fsim = np.take(fsim, ind, 0)
    return sim[0], np.min(fsim), nfev, iterations, iterations < maxiter


def _ranker(columns: np.ndarray):
    """w -> average ranks of columns @ w; a one-column side is ranked once."""
    if columns.shape[1] > 1:
        return lambda w: average_ranks(columns @ w)
    single = average_ranks(columns[:, 0])
    # ranks reverse exactly under negation, ties included
    return lambda w: single if w[0] > 0 else (columns.shape[0] + 1) - single


def _comonotone_arc(sample: MatchedSample) -> tuple[float, float] | None:
    """The open arc (lo, hi) of angles t at which the x index
    cos(t) x1 + sin(t) x2 of a dx=2, dy=1 sample rises strictly in y order,
    or None when that arc is empty or nan.

    Geometry only: the rows are ordered by y, and the arc is read off the
    differences d of x between rows adjacent in that order. It is the set
    where (cos t, sin t) . d > 0 for every d. Such a t is within pi/2 of
    the direction r from the lowest-y row to the highest, which is the sum
    of the d's, so every d lies within pi of r and the arc is read off the
    angles of the d's relative to r with no wrap-around. Nothing here
    decides that the sample is comonotone: ``spearman_estimate``'s exact
    midpoint check does, and it refuses any arc of a sample with a tie in
    y or in x, as tied average ranks keep the rank dot below the bound.
    """
    order = np.argsort(sample.ys[:, 0])
    # one n-vector at a time, with no n x 2 copy of the sorted rows
    diffs = []
    for j in range(2):
        col = sample.xs[order, j]
        diffs.append((np.diff(col), col[-1] - col[0]))
        del col
    (d0, r0), (d1, r1) = diffs
    # atan2(r x d, r . d), formed in place
    cross = r0 * d1
    cross -= r1 * d0
    d0 *= r0
    d1 *= r1
    d0 += d1
    rel = np.arctan2(cross, d0, out=cross)
    ref = math.atan2(r1, r0)
    lo = ref + float(rel.max()) - 0.5 * math.pi
    hi = ref + float(rel.min()) + 0.5 * math.pi
    # also None on a nan, which the search then refuses by name
    return (lo, hi) if lo < hi else None


def spearman_estimate(sample: MatchedSample, restarts: int = 32, seed: int = 0) -> EstimatorResult:
    """Maximize the rank-product objective over unit weight vectors.

    One search with up to three candidate sources. On a dx=2, dy=1 sample
    the first is the comonotone arc (``_comonotone_arc``): the open arc of
    x angles, found by one sort of y, on which the x index rises in y
    order. Its midpoint is evaluated once, and that exact check alone
    decides: if its value is the bound ``spearman_upper_bound(n)``, the
    arc is the argmax set and the search returns it at once, with
    ``argmax_interval`` (lo, hi, width) and ``objective_evaluations`` 1.
    Any midpoint short of the bound is not counted, and the search goes on
    as with no arc, with ``argmax_interval`` None: multistart Nelder-Mead
    on spherical angle coordinates (the objective is scale-invariant per
    side, so spheres lose nothing), plus an angular grid sweep with local
    refinement when the search space is a single circle (dx=2, dy=1): 512
    coarse angles, of which only the first half is ranked since the
    antipodal half follows exactly from reversed ranks, then a 1e-3 fine
    grid around the best three. The objective need not be concave, so all
    local optima found are kept in the diagnostics. The argmax is the
    first candidate with the largest objective, so ties go to the earlier
    restart, and restarts come before grid points. Each restart runs
    ``_nelder_mead``, which gives scipy's Nelder-Mead result bit for bit
    without loading scipy, and reports its evaluations, iterations and
    convergence in its local optimum. Every result has the same
    diagnostics keys. The objective is the argmax's exact rank dot over
    4 n (n + 1)^2, rounded once; any argmax but the arc's is ranked once
    more for it, outside the evaluation count. ``gap`` is the
    bound minus the objective in exact units of 1 / (4 n (n + 1)^2): 0
    exactly when the estimate is a maximizer of a sample with no ties in y.
    """
    for side, columns in (("x", sample.xs), ("y", sample.ys)):
        if np.all(columns == columns[0]):
            raise DegenerateIndexError(f"every {side} attribute is constant, so every {side}-side index is")
    x_ranks = _ranker(sample.xs)
    y_ranks = _ranker(sample.ys)
    n = sample.n
    scale = _dot4_scale(n)
    evaluations = 0
    local_optima: list[dict] = []
    grid_info = None

    def dot4(alpha: np.ndarray, beta: np.ndarray) -> int:
        nonlocal evaluations
        evaluations += 1
        return _exact_dot4(x_ranks(alpha), y_ranks(beta))

    def value(alpha: np.ndarray, beta: np.ndarray) -> float:
        return dot4(alpha, beta) / scale

    def result(alpha: np.ndarray, beta: np.ndarray, dot: int, interval: dict | None = None) -> EstimatorResult:
        return EstimatorResult(
            alpha_hat=normalize_weights(alpha),
            beta_hat=normalize_weights(beta),
            objective=dot / scale,
            method="spearman",
            diagnostics={
                "restarts": restarts,
                "local_optima": local_optima,
                "grid": grid_info,
                "alpha_argmax": alpha,
                "beta_argmax": beta,
                "upper_bound": spearman_upper_bound(n),
                "objective_evaluations": evaluations,
                "argmax_interval": interval,
                "gap": _bound_dot4(n) - dot,
            },
        )

    circle = (sample.dx, sample.dy) == (2, 1)
    arc = _comonotone_arc(sample) if circle else None
    if arc is not None:
        lo, hi = arc
        mid = 0.5 * (lo + hi)
        alpha, beta = _unit_from_angles(np.array([mid]), 2), np.array([1.0])
        # the check that makes the midpoint an exact maximizer, not a float guess
        if lo < mid < hi and dot4(alpha, beta) == _bound_dot4(n):
            return result(alpha, beta, _bound_dot4(n), {"lo": lo, "hi": hi, "width": hi - lo})
        evaluations = 0  # a midpoint short of the bound is not counted

    ax, ay = sample.dx - 1, sample.dy - 1
    if ax + ay == 0:
        for sign in (1.0, -1.0):
            alpha, beta = np.array([1.0]), np.array([sign])
            local_optima.append({"objective": value(alpha, beta), "alpha": alpha, "beta": beta, "source": "sign"})
    else:
        def unpack(params: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            return (
                _unit_from_angles(params[:ax], sample.dx),
                _unit_from_angles(params[ax:], sample.dy),
            )

        def neg(params: np.ndarray) -> float:
            alpha, beta = unpack(params)
            return -value(alpha, beta)

        rng = seed_streams(seed, 1)[0]
        for r in range(restarts):
            start = rng.uniform(0.0, _TWO_PI, size=ax + ay)
            x, fun, nfev, nit, success = _nelder_mead(neg, start, xatol=1e-6, fatol=1e-10, maxiter=400 * (ax + ay))
            alpha, beta = unpack(x)
            local_optima.append({
                "objective": -float(fun), "alpha": alpha, "beta": beta, "source": f"restart {r}",
                "nfev": nfev, "nit": nit, "success": success,
            })

    candidates = [(o["objective"], o["alpha"], o["beta"]) for o in local_optima]
    if circle:
        beta_grid = np.array([1.0])
        m = _COARSE_CIRCLE.size // 2
        # only the first half is sorted: the ranks of -u are n + 1 - r_u,
        # ties included, and the y ranks sum to n(n + 1)/2, so the
        # antipode's exact dot is 2n(n + 1)^2 - d
        dots = [dot4(_unit_from_angles(_COARSE_CIRCLE[k : k + 1], 2), beta_grid) for k in range(m)]
        coarse_vals = np.array([d / scale for d in dots] + [(scale // 2 - d) / scale for d in dots])
        order = np.argsort(coarse_vals)[::-1]
        picked: list[float] = []
        for idx in order:
            t = float(_COARSE_CIRCLE[idx])
            if all(min(abs(t - s), _TWO_PI - abs(t - s)) > 2.0 * _COARSE_STEP for s in picked):
                picked.append(t)
            if len(picked) == 3:
                break
        fine_evals = 0
        for center in picked:
            fine = np.arange(center - _COARSE_STEP, center + _COARSE_STEP + 0.5 * _FINE_STEP, _FINE_STEP)
            fine_evals += fine.size
            for t in fine:
                alpha = _unit_from_angles(np.array([t]), 2)
                candidates.append((value(alpha, beta_grid), alpha, beta_grid))
        grid_info = {
            "coarse_points": _COARSE_CIRCLE.size,
            "mirrored_points": m,
            "fine_points": int(fine_evals),
            "resolution": _FINE_STEP,
            "refined_centers": picked,
        }

    if not candidates:
        raise ValueError("no search candidates; need restarts >= 1 for this shape")
    _, best_alpha, best_beta = max(candidates, key=lambda c: c[0])
    return result(best_alpha, best_beta, _exact_dot4(x_ranks(best_alpha), y_ranks(best_beta)))


def kernel_regression(sample: MatchedSample, points, bandwidths) -> np.ndarray:
    """Nadaraya-Watson fit of y1 on all x attributes with a product
    Gaussian kernel, evaluated at the given points.

    Works one x column at a time, adding the squared scaled distances in
    attribute order, and sums each row with numpy's pairwise sum, never
    BLAS, so every output depends on its own point alone, bit for bit: not
    on the block rows, the worker count or the BLAS threads. Blocks of
    points go to ``WORKERS`` threads; each forms a block of ``_BLOCK``
    weights in its own buffer, so the elementwise work stays in cache.
    """
    cols = np.ascontiguousarray(sample.xs.T)
    dx, n = cols.shape
    y = sample.ys[:, 0]
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.ndim != 2 or pts.shape[1] != dx:
        raise ValueError(f"evaluation points must have dx={dx} columns, got shape {pts.shape}")
    h = np.asarray(bandwidths, dtype=float)
    if h.shape != (dx,) or not np.all(np.isfinite(h) & (h > 0)):
        raise NumericalError(f"bandwidth degenerate: need {dx} finite positive bandwidths, got {h.tolist()}")
    out = np.empty(pts.shape[0])
    rows = max(1, _BLOCK // n)
    starts = range(0, pts.shape[0], rows)
    workers = max(1, min(WORKERS, len(starts)))
    # Allocated here, not in the workers: freed memory that a worker thread's
    # malloc arena took stays in the process.
    buffers = np.empty((workers, min(dx, 2), rows, n))

    def fit(first: int) -> None:
        weights, spare = buffers[first, 0], buffers[first, -1]
        for start in starts[first::workers]:
            block = pts[start : start + rows]
            w, later = weights[: block.shape[0]], spare[: block.shape[0]]
            # The sum of squares builds up in the weights, which hold the first
            # column's term; each later column's term is formed in the spare and
            # added straight in, in attribute order.
            for j in range(dx):
                z = np.subtract(block[:, j, None], cols[j], out=later if j else w)
                z /= h[j]
                z *= z
                if j:
                    w += z
            w *= -0.5
            w -= w.max(axis=1)[:, None]
            np.exp(w, out=w)
            # full-row pairwise sums: a BLAS product would round by its thread count
            den = w.sum(axis=1)
            w *= y
            out[start : start + rows] = w.sum(axis=1) / den

    with ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(fit, range(workers)))
    return out


def _derivatives_at(sample: MatchedSample, pts: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Central-difference partial derivatives of the y1 kernel fit, one row per point."""
    dx = pts.shape[1]
    stacked = []
    for i in range(dx):
        step = np.zeros(dx)
        step[i] = h[i] / 2.0
        stacked.append(pts + step)
        stacked.append(pts - step)
    # by keyword: bench/layers.py reads points as positional argument 2 or as
    # ``points``, so a positional call would have it count the bandwidths
    values = kernel_regression(sample, points=np.vstack(stacked), bandwidths=h)
    values = values.reshape(dx, 2, pts.shape[0])
    return np.stack([(values[i, 0] - values[i, 1]) / h[i] for i in range(dx)], axis=1)


def _column_sds(a: np.ndarray) -> np.ndarray:
    """Standard deviations of the columns of ``a``, refused when they overflow a float."""
    with np.errstate(over="ignore", invalid="ignore"):
        sds = a.std(axis=0)
    if not np.isfinite(sds).all():
        raise ValueError(_MOMENTS_OVERFLOW)
    return sds


def _mrs_design(sample: MatchedSample) -> tuple[np.ndarray, np.ndarray]:
    """The evaluation points and bandwidths of ``mrs_estimate``."""
    X = sample.xs
    sds = _column_sds(X)
    if np.any(sds == 0.0):
        raise NumericalError("bandwidth degenerate: an x attribute has zero variance")
    dist = np.sum(((X - X.mean(axis=0)) / sds) ** 2, axis=1)
    return X[np.argsort(dist, kind="stable")[:100]], 1.06 * sds * sample.n ** (-0.2)


def mrs_estimate(sample: MatchedSample) -> EstimatorResult:
    """Estimate pairwise x-weight ratios from kernel-regression derivatives of y1.

    Bandwidths follow the 1.06 * sd * n^(-1/5) rule per coordinate with a
    central-difference step of half a bandwidth, at the 100 sample rows
    nearest the attribute centroid (distances scaled by column standard
    deviations). ``ratio_matrix[i, j]`` is the median of the i-th partial
    derivative over the j-th; ``stable[j]`` is False when the j-th
    derivative has no consistent signal across deterministically spread
    sample rows (clustered centers carry no dispersion information), and
    then column j ratios should not be trusted. alpha is the normalized
    median derivative, beta the unit vector on y1.
    """
    pts, h = _mrs_design(sample)
    y_sd = _column_sds(sample.ys[:, 0])
    derivs = _derivatives_at(sample, pts, h)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.median(derivs[:, :, None] / derivs[:, None, :], axis=0)

    spread_rows = np.unique(np.linspace(0, sample.n - 1, min(100, sample.n)).astype(int))
    spread = _derivatives_at(sample, sample.xs[spread_rows], h)
    spread_med = np.median(spread, axis=0)
    mad = 1.4826 * np.median(np.abs(spread - spread_med), axis=0)
    # signal must be sign-consistent across spread points and move the
    # response by more than a negligible fraction of its spread per bandwidth
    floor = 1e-6 * y_sd / h
    consistent = np.where(mad > 0, np.abs(spread_med) > 2.0 * mad, np.abs(spread_med) > 0)
    stable = consistent & (np.abs(spread_med) > floor)

    med = np.median(derivs, axis=0)
    if np.linalg.norm(med) == 0.0:
        raise NumericalError("no derivative signal at any evaluation point")
    return EstimatorResult(
        alpha_hat=normalize_weights(med),
        beta_hat=np.eye(sample.dy)[0],
        objective=math.nan,
        method="mrs",
        diagnostics={
            "ratio_matrix": ratios,
            "stable": stable,
            "bandwidths": h,
            "median_derivatives": med,
            "bandwidth_rule": "1.06*sd*n^(-1/5)",
            "derivative_step": "h/2",
            "n": sample.n,
            "dy": sample.dy,
            "response_coordinate": 0,
            "eval_point_count": int(pts.shape[0]),
        },
    )


def population_moments_gaussian(spec: MarketSpec) -> MomentSet:
    """Population moment matrices of a Gaussian market under comonotone
    sorting: the matched cross moments come from the linear transfer map,
    so the top canonical pair reproduces the generating weights exactly."""
    def side_cov(components, cov, label):
        if cov is not None:
            return cov
        if any(c.kind != "gaussian" for c in components):
            raise ValueError(f"{label} components must all be gaussian")
        return np.diag([c.param**2 for c in components])

    cov_x = side_cov(spec.p_components, spec.p_cov, "P")
    cov_y = side_cov(spec.q_components, spec.q_cov, "Q")
    a_norm = float(spec.alpha @ cov_x @ spec.alpha)
    b_norm = float(spec.beta @ cov_y @ spec.beta)
    sxy = np.outer(cov_x @ spec.alpha, cov_y @ spec.beta) / math.sqrt(a_norm * b_norm)
    return MomentSet(Sxx=cov_x, Syy=cov_y, Sxy=sxy)

