"""Principal component analysis via the covariance method.

Fitting centers the data and eigendecomposes whichever symmetric matrix is
smaller: the D x D covariance Z'Z/(n-1) when n >= D, otherwise the n x n
Gram matrix ZZ'/(n-1), whose eigenvectors u map to covariance eigenvectors
through v = Z'u / sqrt((n-1) mu).  Both routes yield the same subspace;
eigenvalues are clamped at zero and each component's sign is fixed so its
largest-magnitude entry is positive.

On the Gram route the fit also returns the scores of its own rows, Z C',
without projecting them: Z C' = Z Z' U / sqrt((n-1) mu) = U sqrt((n-1) mu),
the snapshot method of Sirovich (1987) used by Turk & Pentland's eigenfaces
(1991).  Each kept column of U is scaled in place by sqrt((n-1) mu) and by
the sign its component got, so the scores agree with :func:`transform` of
the same rows to float64 rounding; stored as float32, an entry moved by at
most one ulp in the tests and at desk scale.  The covariance route has no
U and returns no scores.

Memory: fitting holds one float64 copy of the data, which it centres in
place, and the n x n Gram (or D x D covariance) matrix.  LAPACK's dsyevd
(through ``scipy.linalg.eigh``) overwrites that matrix with its
eigenvectors and takes a 2m^2 + O(m) workspace for an m x m matrix; on the
Gram route that phase, the data, the Gram and the workspace, is the fit's
peak.  The n x k scores are the kept eigenvector columns, and the k x D
components overwrite the first k rows of the data a column block at a time,
whose buffer is then trimmed to k x D; on the covariance route, which frees
the data before the eigendecomposition, the components are a row-major copy
of the kept eigenvectors.  Sign fixing orients the components a block of
rows at a time.

The model file is a flat little-endian binary (magic ``RCPCA001``) holding
the sample mean, eigenvalues, components, total variance, and sample count,
all float64, so that saving and loading reproduce the model bit for bit.
A loaded model's arrays are views into the one buffer its body is read into.
"""

import struct
from dataclasses import dataclass

import numpy as np
from scipy import linalg

from .cache import chunk_stops, read_checked_header, replaced
from .errors import DimensionError, NumericalError, RankError

PCA_MAGIC = b"RCPCA001"
_PCA_HEAD = struct.Struct("<8sQQQd")  # magic, K, D, n_samples, total_variance
# component rows per block when fixing signs: 64 rows of a 9,576-wide HOG
# model are 4.9 MB
_BLOCK_ROWS = 64
# feature columns per block when the components overwrite the fit rows, a
# short last block joined to the one before.  A block rounds as the one
# product over every column does only if BLAS takes the same code path for
# it: blocks of 1,024 and 2,048 columns did in the tests and at desk scale, a
# 404-column block did not.  At desk scale 256-column blocks also took about
# 1.5 times as long as the one product; 2,048-column blocks took no longer
_BLOCK_COLS = 2048


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
    """Orient each component so its largest-magnitude entry is positive,
    negating rows in place a block at a time (negation is exact); returns
    each row's sign, -1.0 where it was negated and 1.0 elsewhere."""
    signs = np.ones(components.shape[0])
    for start in range(0, components.shape[0], _BLOCK_ROWS):
        block = components[start : start + _BLOCK_ROWS]
        idx = np.argmax(np.abs(block), axis=1)
        flip = block[np.arange(block.shape[0]), idx] < 0
        np.multiply(block, -1.0, out=block, where=flip[:, None])
        signs[start : start + block.shape[0]][flip] = -1.0
    return signs


def fit_pca(data, n_components):
    """Fit a PCA model to ``data`` of shape (n_samples, feature_dim); returns
    (model, scores).

    ``data`` is any array-like, such as a :class:`~photonrc.cache.CacheRows`
    that reads rows from a cache file.  It is read into one new float64
    array, which is centred in place, so the caller's array never changes.
    Data that is not finite raises :class:`NumericalError`.  ``scores`` is
    the (n_samples, n_components) float64 projection of those rows on the
    Gram route (n_samples < feature_dim), taken from the Gram's
    eigenvectors, and None on the covariance route.  On the Gram route the
    model's components are the first rows of that one array, trimmed to
    K x D; on the covariance route they are a row-major copy of the kept
    eigenvectors.
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

    with np.errstate(invalid="ignore"):  # inf - inf, which the check below names
        mean = X.mean(axis=0)
        X -= mean  # X is the centred data Z from here on
    denom = n - 1
    total_variance = float(np.einsum("ij,ij->", X, X)) / denom
    if not np.isfinite(total_variance):
        raise NumericalError(
            f"PCA input is not finite: its total variance is {total_variance}"
        )

    if n >= dim:
        sym = X.T @ X  # the covariance, after which Z is not needed
        del X
    else:
        sym = X @ X.T  # the Gram matrix
    sym /= denom
    try:
        # numpy takes a product with its own transpose by syrk and mirrors
        # it, so sym is exactly symmetric and sym.T is the same matrix in
        # Fortran order, which LAPACK's dsyevd overwrites with the eigenvectors
        vals, vecs = linalg.eigh(
            sym.T, overwrite_a=True, check_finite=False, driver="evd"
        )
    except np.linalg.LinAlgError as exc:  # a ValueError, which reads as a usage error
        raise NumericalError(f"PCA eigendecomposition failed: {exc}") from exc
    del sym
    if n >= dim:
        order = np.argsort(vals)[::-1][:k]
        eigenvalues = np.maximum(vals[order], 0.0)
        components = vecs.T[order]  # rows of the C-order transpose
        del vecs
        scores = None
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
        scores = vecs[:, order]  # U, the kept eigenvectors, until scaled below
        del vecs
        # the components U'Z in Z's own buffer: column block b of U'Z reads
        # only column block b of Z, so each block's product overwrites the
        # first k rows of that block once it is made
        start = 0
        for stop in chunk_stops(dim, _BLOCK_COLS):
            block = X[:, start:stop]
            block[:k] = scores.T @ block
            start = stop
        del block  # resize refuses an array that a view still refers to
        X.resize((k, dim))  # in place: frees the rows past k
        components = X
        scale = np.sqrt(denom * eigenvalues)
        components /= scale[:, None]

    signs = _fix_signs(components)
    if scores is not None:
        # Z C' = U diag(sqrt((n-1) mu)), each column with its component's sign
        scores *= scale * signs
    model = PcaModel(
        mean=mean,
        components=components,
        eigenvalues=eigenvalues,
        total_variance=total_variance,
        n_samples=n,
    )
    return model, scores


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
    with replaced(path, "wb") as fh:
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
