"""Input-dimension reduction: normalization, correlation analysis, PCA.

Raw vectors are wide (568 positions) and highly redundant: many positions
are constant over a given corpus and many more are copies of one another
(every neuron derived from the same absent field moves in lockstep).  The
reduction pipeline is fitted per training corpus:

1. normalize each column to zero mean and unit population variance,
   flagging constants (std below 1e-9) whose output is pinned to 0;
2. build the correlation matrix R = E[Xi Xj] of the normalized data;
3. walk columns in ascending index order, keeping a column only when its
   R-column is not (numerically) in the span of the kept ones, which drops
   exact duplicates and affine copies while keeping the first witness
   (classical Gram-Schmidt run twice, two matrix-vector products a pass);
4. diagonalize R restricted to the kept columns and keep the smallest
   eigenvector prefix holding at least the target share (98%) of total
   variance.

Applying the pipeline is affine: select, center, scale, project.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

EPSILON_CONST = 1e-9
DEPENDENCE_TOL = 1e-6
VARIANCE_TARGET = 0.98


class ReductionError(ValueError):
    pass


@dataclass(frozen=True)
class Normalizer:
    mean: np.ndarray
    std: np.ndarray
    constant: np.ndarray  # bool mask of flagged columns

    def __post_init__(self):  # read-only: pipelines keep copies of the kept means and scales
        for a in (self.mean, self.std, self.constant):
            a.flags.writeable = False

    def transform(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        safe = np.where(self.constant, 1.0, self.std)
        out = (X - self.mean) / safe
        out[:, self.constant] = 0.0
        return out


def fit_normalizer(X: np.ndarray) -> Normalizer:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] < 2:
        raise ReductionError("normalization needs at least 2 rows")
    mean = X.mean(axis=0)
    std = X.std(axis=0)  # population variance, ddof=0
    return Normalizer(mean, std, std < EPSILON_CONST)


def correlation_matrix(Xn: np.ndarray) -> np.ndarray:
    """R = E[Xi Xj] over normalized data, symmetrized against rounding."""
    Xn = np.asarray(Xn, dtype=float)
    R = Xn.T @ Xn / Xn.shape[0]
    return (R + R.T) / 2.0


def reduce_dependent_columns(R: np.ndarray) -> list[int]:
    """Indices of columns linearly independent of the ones kept before them.

    Greedy in ascending index order, so of a group of perfectly correlated
    columns the lowest index survives.  Constant columns have an all-zero
    R-column and are never kept.
    """
    p = R.shape[0]
    kept: list[int] = []
    # CGS2: Q's leading columns are the kept unit vectors; twice is enough
    Q = np.empty((p, p), order="F")
    for j in range(p):
        r = R[:, j].copy()
        basis = Q[:, : len(kept)]
        for _ in range(2):
            r -= basis @ (r @ basis)
        norm = np.linalg.norm(r)
        if norm > DEPENDENCE_TOL:
            Q[:, len(kept)] = r / norm
            kept.append(j)
    return kept


def fit_pca(R_kept: np.ndarray, variance: float = VARIANCE_TARGET):
    """Eigendecompose a correlation matrix and pick the leading prefix.

    Returns (basis, eigenvalues, variance_kept): basis columns are the
    eigenvectors spanning at least the requested share of total variance,
    eigenvalues the full descending spectrum.
    """
    if not 0 < variance <= 1:  # also rejects nan
        raise ReductionError(f"variance share {variance!r} is not in (0, 1]")
    try:
        w, V = np.linalg.eigh(R_kept)
    except np.linalg.LinAlgError as exc:
        raise ReductionError(f"symmetric eigendecomposition did not converge: {exc}") from None
    order = np.argsort(w)[::-1]
    w = np.clip(w[order], 0.0, None)
    V = V[:, order]
    total = w.sum()
    if total <= 0:
        raise ReductionError("correlation matrix has no variance")
    shares = np.cumsum(w) / total
    k = int(np.searchsorted(shares, variance) + 1)
    k = min(k, len(w))
    return V[:, :k], w, float(shares[k - 1])


@dataclass(frozen=True)
class ReductionPipeline:
    """Fitted normalize/select/project transform for one corpus."""

    normalizer: Normalizer
    kept: tuple[int, ...]
    basis: np.ndarray        # (len(kept), k)
    eigenvalues: np.ndarray  # full spectrum over kept columns, descending
    variance_kept: float

    def __post_init__(self):
        n, kept = self.normalizer, list(self.kept)
        # gathering before scaling matches transform() only where it pins no constant to 0
        if not all(0 <= i < len(n.mean) for i in kept) or n.constant[kept].any():
            raise ReductionError("every kept column must be a non-constant column of the normalizer")
        take = np.array(kept, dtype=np.intp)
        object.__setattr__(self, "_scaling", (take, n.mean[kept], n.std[kept], len(n.mean)))

    @property
    def output_dim(self) -> int:
        return self.basis.shape[1]

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Project into the reduced space; (p,) -> (k,), (n, p) -> (n, k).

        Each row is its own vector-matrix product, so a row gets the same
        bits alone as inside any batch.
        """
        take, center, scale, width = self._scaling
        if np.shape(x)[-1] != width:
            raise ReductionError(f"rows have {np.shape(x)[-1]} columns, the pipeline expects {width}")
        # vecmat's bits follow the row layout: take() copies into contiguous rows
        out = np.atleast_2d(np.asarray(x, dtype=float)).take(take, axis=1)
        out -= center
        out /= scale
        out = np.vecmat(out, self.basis)
        return out[0] if np.ndim(x) == 1 else out


def fit_pipeline(X: np.ndarray, variance: float = VARIANCE_TARGET) -> ReductionPipeline:
    normalizer = fit_normalizer(X)
    Xn = normalizer.transform(X)
    R = correlation_matrix(Xn)
    kept = reduce_dependent_columns(R)
    if not kept:
        raise ReductionError("every column is constant or dependent")
    R_kept = R[np.ix_(kept, kept)]
    basis, eigenvalues, variance_kept = fit_pca(R_kept, variance)
    # canonical layout: projections stay bit-identical across a save/load
    basis = np.ascontiguousarray(basis)
    return ReductionPipeline(normalizer, tuple(kept), basis, eigenvalues, variance_kept)


def reduction_report(pipe: ReductionPipeline, labels: list[str] | None = None) -> str:
    """Human-readable survivor table in the style of the topology studies."""
    total = len(pipe.normalizer.mean)
    lines = [
        f"columns kept {len(pipe.kept)} of {total}",
        f"projection dimension {pipe.output_dim} "
        f"({pipe.variance_kept * 100.0:.2f}% of variance)",
    ]
    for rank, idx in enumerate(pipe.kept):
        name = labels[idx] if labels else f"column {idx}"
        lines.append(f"{rank:4d}  {idx:4d}  {name}")
    return "\n".join(lines)
