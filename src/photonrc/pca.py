"""Principal component analysis via the covariance method.

Fitting centers the data and eigendecomposes whichever symmetric matrix is
smaller: the D x D covariance Z'Z/(n-1) when n >= D, otherwise the n x n
Gram matrix ZZ'/(n-1), whose eigenvectors u map to covariance eigenvectors
through v = Z'u / sqrt((n-1) mu).  Both routes yield the same subspace;
eigenvalues are clamped at zero and each component's sign is fixed so its
largest-magnitude entry is positive.

Memory: fitting holds one float64 copy of the data, which it centres in
place, with the n x n Gram (or D x D covariance) matrix and its
eigenvectors, or, once those are freed, with one row-major copy of the
components, which sign fixing orients a block of rows at a time.

The model file is a flat little-endian binary (magic ``RCPCA001``) holding
the sample mean, eigenvalues, components, total variance, and sample count,
all float64, so that saving and loading reproduce the model bit for bit.
A loaded model's arrays are views into the one buffer its body is read into.
"""

import struct
from dataclasses import dataclass

import numpy as np

from .cache import read_checked_header
from .errors import DimensionError, NumericalError, RankError

PCA_MAGIC = b"RCPCA001"
_PCA_HEAD = struct.Struct("<8sQQQd")  # magic, K, D, n_samples, total_variance
# component rows per block when fixing signs: 64 rows of a 9,576-wide HOG
# model are 4.9 MB
_BLOCK_ROWS = 64


@dataclass(frozen=True)
class PcaModel:
    mean: np.ndarray          # (D,)
    components: np.ndarray    # (K, D), orthonormal rows
    eigenvalues: np.ndarray   # (K,), descending, >= 0
    total_variance: float
    n_samples: int

    @property
    def n_components(self):
        return self.components.shape[0]

    @property
    def feature_dim(self):
        return self.components.shape[1]

    @property
    def explained_variance_ratio(self):
        if self.total_variance == 0.0:
            return np.zeros_like(self.eigenvalues)
        return self.eigenvalues / self.total_variance

    def explained_fraction(self):
        """Fraction of total variance captured by all kept components."""
        return float(np.sum(self.explained_variance_ratio))


def _fix_signs(components):
    # orient each component so its largest-magnitude entry is positive,
    # negating rows in place a block at a time (negation is exact)
    for start in range(0, components.shape[0], _BLOCK_ROWS):
        block = components[start : start + _BLOCK_ROWS]
        idx = np.argmax(np.abs(block), axis=1)
        flip = block[np.arange(block.shape[0]), idx] < 0
        np.multiply(block, -1.0, out=block, where=flip[:, None])
    return components


def fit_pca(data, n_components):
    """Fit a PCA model to ``data`` of shape (n_samples, feature_dim).

    ``data`` is any array-like, such as a :class:`~photonrc.cache.CacheRows`
    that reads rows from a cache file.  It is read into one new float64
    array, which is centred in place, so the caller's array never changes.
    """
    X = np.array(data, dtype=np.float64)
    if X.ndim != 2:
        raise DimensionError("PCA input must be a 2-D array")
    n, dim = X.shape
    if n < 2:
        raise RankError("PCA needs at least two samples")
    k = int(n_components)
    if not 1 <= k <= dim:
        raise DimensionError(f"n_components must lie in [1, {dim}], got {k}")

    mean = X.mean(axis=0)
    X -= mean  # X is the centred data Z from here on
    denom = n - 1
    total_variance = float(np.einsum("ij,ij->", X, X)) / denom

    if n >= dim:
        sym = X.T @ X  # the covariance, after which Z is not needed
        del X
    else:
        sym = X @ X.T  # the Gram matrix
    sym /= denom
    try:
        vals, vecs = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:  # a ValueError, which reads as a usage error
        raise NumericalError(f"PCA eigendecomposition failed: {exc}") from exc
    del sym
    if n >= dim:
        order = np.argsort(vals)[::-1][:k]
        eigenvalues = np.maximum(vals[order], 0.0)
        components = vecs[:, order].T.copy()
    else:
        vals = np.maximum(vals, 0.0)
        tol = max(n, dim) * np.finfo(np.float64).eps * (vals[-1] if vals[-1] > 0 else 1.0)
        rank = int(np.count_nonzero(vals > tol))
        if k > rank:
            raise RankError(
                f"requested {k} components but the centered data has rank {rank}"
            )
        order = np.argsort(vals)[::-1][:k]
        eigenvalues = vals[order]
        U = vecs[:, order]
        del vecs
        # map Gram eigenvectors into feature space, as (K, D) rows, and renormalize
        components = U.T @ X
        components /= np.sqrt(denom * eigenvalues)[:, None]

    _fix_signs(components)
    return PcaModel(
        mean=mean,
        components=components,
        eigenvalues=eigenvalues,
        total_variance=total_variance,
        n_samples=n,
    )


def transform(model, data):
    """Project rows onto the principal axes: (X - mean) @ components'."""
    X = np.asarray(data)
    squeeze = X.ndim == 1
    if squeeze:
        X = X[None, :]
    if X.shape[1] != model.feature_dim:
        raise DimensionError(
            f"data has {X.shape[1]} features, model expects {model.feature_dim}"
        )
    # one pass makes the float64 centred rows, with no float64 copy before it
    out = np.subtract(X, model.mean, dtype=np.float64) @ model.components.T
    return out[0] if squeeze else out


def reconstruct(model, projected):
    """Map projected rows back to feature space (lossy unless full rank)."""
    Y = np.asarray(projected, dtype=np.float64)
    squeeze = Y.ndim == 1
    if squeeze:
        Y = Y[None, :]
    if Y.shape[1] != model.n_components:
        raise DimensionError(
            f"projection has {Y.shape[1]} columns, model has {model.n_components}"
        )
    out = Y @ model.components + model.mean
    return out[0] if squeeze else out


def save_pca_model(model, path):
    k, dim = model.components.shape
    with open(path, "wb") as fh:
        fh.write(_PCA_HEAD.pack(PCA_MAGIC, k, dim, model.n_samples, model.total_variance))
        fh.write(np.ascontiguousarray(model.mean, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(model.eigenvalues, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(model.components, dtype="<f8"))


def _read_pca_header(fh, path):
    return read_checked_header(fh, path, _PCA_HEAD, PCA_MAGIC, lambda k, d, *_: 8 * (d + k + k * d))


def read_pca_header(path):
    """(K, D) of a PCA model file exactly the size its header announces."""
    with open(path, "rb") as fh:
        return _read_pca_header(fh, path)[:2]


def load_pca_model(path):
    with open(path, "rb") as fh:
        k, dim, n_samples, total_variance = _read_pca_header(fh, path)
        body = np.fromfile(fh, dtype="<f8", count=dim + k + k * dim)
    return PcaModel(
        mean=body[:dim],
        components=body[dim + k :].reshape(k, dim),
        eigenvalues=body[dim : dim + k],
        total_variance=float(total_variance),
        n_samples=int(n_samples),
    )
