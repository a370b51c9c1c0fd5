"""Input-dimension reduction: normalization, correlation analysis, PCA.

Raw vectors are wide (568 positions) and highly redundant: many positions
are constant over a given corpus and many more are copies of one another
(every neuron derived from the same absent field moves in lockstep).  The
reduction pipeline is fitted per training corpus:

1. normalize to zero mean and unit population variance only the first
   witness, by lowest index, of each distinct varying column: a constant
   (std below 1e-9) could never be kept, and a column with the raw bytes of
   an earlier one normalizes to the same bits, so step 3 would drop it;
2. build the witnesses' correlation matrix R = E[Xi Xj] on their block
   zero-padded to a width that is a multiple of 8: with OpenBLAS an entry
   of A.T @ A has the same bits at every such width, 568 included, so R is
   entry for entry the full-width matrix restricted to the witnesses
   (unpadded, entries move by up to about 6e-15, and every basis with them);
3. walk columns in ascending index order, keeping a column only when its
   R-column is not (numerically) in the span of the kept ones, which drops
   affine copies and linear combinations while keeping the first witness
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


def normalize(X: np.ndarray) -> tuple[np.ndarray, np.ndarray, list[int], np.ndarray]:
    """Column means and population stds, the witnesses, and the witnesses normalized.

    The witnesses are the first, by lowest index, of each distinct column whose
    std is at least EPSILON_CONST: equal raw bytes give equal normalized bits.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] < 2:
        raise ReductionError(f"normalization needs a 2-D array of at least 2 rows, got shape {X.shape}")
    if not (finite := np.isfinite(X)).all():
        i, j = np.argwhere(~finite)[0]
        raise ReductionError(f"normalization needs finite values, row {i} column {j} is {X[i, j]}")
    mean = X.mean(axis=0)
    std = X.std(axis=0)  # population variance, ddof=0
    first: dict[bytes, int] = {}
    for j in np.flatnonzero(std >= EPSILON_CONST).tolist():
        first.setdefault(X[:, j].tobytes(), j)
    columns = list(first.values())
    return mean, std, columns, (X[:, columns] - mean[columns]) / std[columns]


def correlation_matrix(Xn: np.ndarray) -> np.ndarray:
    """R = E[Xi Xj] over normalized columns, symmetrized against rounding.

    The product runs on Xn zero-padded to a width that is a multiple of 8,
    where each entry has the bits it has in the full-width product.
    """
    n, m = Xn.shape
    padded = np.zeros((n, -(-m // 8) * 8))
    padded[:, :m] = Xn
    R = (padded.T @ padded)[:m, :m] / n
    return (R + R.T) / 2.0


def reduce_dependent_columns(R: np.ndarray) -> list[int]:
    """Indices of columns linearly independent of the ones kept before them.

    Greedy in ascending index order, so of a group of perfectly correlated
    columns the lowest index survives.  An all-zero R-column (a constant
    column) is never kept: its residual norm is 0 (NaN at worst).
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
    """Fitted select/normalize/project transform for one corpus."""

    width: int               # columns of an input row
    kept: tuple[int, ...]
    center: np.ndarray       # the kept columns' means
    scale: np.ndarray        # the kept columns' population stds
    basis: np.ndarray        # (len(kept), k)
    eigenvalues: np.ndarray  # full spectrum over kept columns, descending
    variance_kept: float

    def __post_init__(self):
        if not (all(0 <= i < self.width for i in self.kept) and self.basis.ndim == 2
                and self.center.shape == self.scale.shape == (len(self.kept),) == self.basis.shape[:1]
                and np.isfinite(self.center).all() and np.all(np.isfinite(self.scale) & (self.scale > 0))):
            raise ReductionError(f"every kept column must be one of the {self.width} input columns, "
                                 "with a finite center, a finite scale > 0 and one basis row")
        # take()'s index array, built once; not a field, so never saved
        object.__setattr__(self, "_columns", np.array(self.kept, dtype=np.intp))
        for a in (self.center, self.scale, self._columns):  # read-only: a pipeline applies what it saves
            a.flags.writeable = False

    @property
    def output_dim(self) -> int:
        return self.basis.shape[1]

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Project into the reduced space; (p,) -> (k,), (n, p) -> (n, k).

        Each row is its own vector-matrix product, so a row gets the same
        bits alone as inside any batch.
        """
        x = np.asarray(x, dtype=float)  # then the array's own attributes, not numpy's wrappers
        if x.shape[-1] != self.width:
            raise ReductionError(f"rows have {x.shape[-1]} columns, the pipeline expects {self.width}")
        # vecmat's bits follow the row layout: take() copies into contiguous rows
        out = x.take(self._columns, axis=-1)
        out -= self.center
        out /= self.scale
        return np.vecmat(out, self.basis)


def fit_pipeline(X: np.ndarray, variance: float = VARIANCE_TARGET) -> ReductionPipeline:
    mean, std, columns, Xn = normalize(X)
    R = correlation_matrix(Xn)
    local = reduce_dependent_columns(R)
    if not local:
        raise ReductionError("every column is constant or dependent")
    basis, eigenvalues, variance_kept = fit_pca(R[np.ix_(local, local)], variance)
    kept = [columns[i] for i in local]
    # canonical layout: projections stay bit-identical across a save/load
    basis = np.ascontiguousarray(basis)
    return ReductionPipeline(len(mean), tuple(kept), mean[kept], std[kept], basis, eigenvalues,
                             variance_kept)


def reduction_report(pipe: ReductionPipeline, labels: list[str] | None = None) -> str:
    """Human-readable survivor table in the style of the topology studies."""
    lines = [
        f"columns kept {len(pipe.kept)} of {pipe.width}",
        f"projection dimension {pipe.output_dim} "
        f"({pipe.variance_kept * 100.0:.2f}% of variance)",
    ]
    for rank, idx in enumerate(pipe.kept):
        name = labels[idx] if labels else f"column {idx}"
        lines.append(f"{rank:4d}  {idx:4d}  {name}")
    return "\n".join(lines)
