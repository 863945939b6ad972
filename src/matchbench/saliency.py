"""SVD-based saliency analysis of a bilinear surplus (affinity) matrix.

The affinity matrix is an input here (exact, synthetic, or estimated
elsewhere). Its singular value decomposition yields orthogonal index
loadings for each side, surplus shares per index pair, and a numerical
rank; a rank of one means sorting happens on a single index whose weights
can be read off directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RankRejectionError
from .market import MatchedSample


@dataclass(frozen=True, eq=False)
class AffinityDecomposition:
    """A = U' diag(lambdas) V with orthogonal U (dx x dx) and V (dy x dy).

    Row i of U holds the x-side loadings of the i-th mutual-attractiveness
    index, row i of V the y-side loadings. ``shares`` is each singular
    value's fraction of the total; ``numerical_rank`` counts singular
    values above svd_decompose's rank_tol * lambda_1.
    """

    U: np.ndarray
    V: np.ndarray
    lambdas: np.ndarray
    shares: np.ndarray
    numerical_rank: int

    def to_json_dict(self) -> dict:
        return {
            "lambdas": [float(v) for v in self.lambdas],
            "shares": [float(v) for v in self.shares],
            "rank": self.numerical_rank,
            "U": [[float(v) for v in row] for row in self.U],
            "V": [[float(v) for v in row] for row in self.V],
        }


def _first_nonzero(row: np.ndarray) -> int:
    idx = np.flatnonzero(row)
    return int(idx[0]) if idx.size else -1


def svd_decompose(A, rank_tol: float = 1e-8) -> AffinityDecomposition:
    """Full SVD with a reproducible sign convention.

    Each row of U gets a positive first nonzero entry; the paired row of V
    flips with it so the reconstruction is unchanged. Rows beyond the
    shared dimension carry zero singular weight and are sign-fixed
    independently.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise ValueError("affinity matrix must be 2-D")
    if not np.all(np.isfinite(A)):
        raise ValueError("affinity matrix must have finite entries")
    dx, dy = A.shape
    d = min(dx, dy)
    u, s, vt = np.linalg.svd(A)
    if s.size and not np.isfinite(s[0]):
        raise ValueError(f"affinity matrix: its largest singular value overflows a float ({s[0]}); rescale it")
    U = u.T.copy()
    V = vt.copy()
    for i in range(dx):
        j = _first_nonzero(U[i])
        if j >= 0 and U[i, j] < 0:
            U[i] = -U[i]
            if i < d:
                V[i] = -V[i]
    for i in range(d, dy):
        j = _first_nonzero(V[i])
        if j >= 0 and V[i, j] < 0:
            V[i] = -V[i]
    with np.errstate(over="ignore"):
        total = s.sum()
    # where the sum overflows, take the same fractions relative to the largest value
    scaled, total = (s / s[0], (s / s[0]).sum()) if np.isinf(total) else (s, total)
    shares = scaled / total if total > 0 else np.zeros_like(s)
    rank = int(np.sum(s > rank_tol * s[0])) if s.size and s[0] > 0 else 0
    return AffinityDecomposition(U=U, V=V, lambdas=s, shares=shares, numerical_rank=rank)


def mutual_indices(decomp: AffinityDecomposition, sample: MatchedSample) -> tuple[np.ndarray, np.ndarray]:
    """Rotate attributes into the coordinates where the surplus is diagonal."""
    dx, dy = decomp.U.shape[0], decomp.V.shape[0]
    if sample.dx != dx or sample.dy != dy:
        raise ValueError(f"sample dims ({sample.dx}, {sample.dy}) do not match affinity shape {(dx, dy)}")
    return sample.xs @ decomp.U.T, sample.ys @ decomp.V.T


def verify_surplus_identity(A, decomp: AffinityDecomposition, sample: MatchedSample) -> float:
    """Max over couples of |x'Ay - sum_k lambda_k xt_k yt_k|."""
    A = np.asarray(A, dtype=float)
    xt, yt = mutual_indices(decomp, sample)
    d = min(A.shape)
    bilinear = np.einsum("ij,jk,ik->i", sample.xs, A, sample.ys)
    diagonal = (xt[:, :d] * yt[:, :d]) @ decomp.lambdas
    return float(np.max(np.abs(bilinear - diagonal)))


def rank1_weights(decomp: AffinityDecomposition) -> tuple[np.ndarray, np.ndarray]:
    """Recover the index weight pair when the affinity matrix is rank one.

    Signs are joint: the x-side weights are canonical (first nonzero entry
    positive) and the y-side sign compensates, so the outer product always
    reproduces the input matrix.
    """
    if decomp.numerical_rank != 1:
        raise RankRejectionError(
            f"affinity matrix has numerical rank {decomp.numerical_rank}, "
            f"singular values {np.array2string(decomp.lambdas, precision=6)}; "
            "sorting is not single-index",
            lambdas=decomp.lambdas.copy(),
            numerical_rank=decomp.numerical_rank,
        )
    return decomp.U[0].copy(), decomp.V[0].copy()

