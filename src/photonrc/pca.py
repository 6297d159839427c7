"""Principal component analysis through the covariance or the Gram matrix.

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

Memory: fitting reads the data into one float64 copy, which it centres in
place, forms the n x n Gram (or D x D covariance) matrix from it and then
frees it, so the eigensolve holds no data row.  LAPACK's dsyevd (through
``scipy.linalg.eigh``) overwrites that matrix with its eigenvectors and
takes a 2m^2 + O(m) workspace for an m x m matrix.  On the Gram route the
n x k scores are the kept eigenvector columns; only then is the data read
and centred again, with the same mean, so it holds the same bytes, and the
k x D components overwrite its first k rows a column block at a time,
whose buffer is then trimmed to k x D.  So the Gram route's phases hold
n D + n^2 float64 values (the product), 3 n^2 (the eigensolve) and n D +
n k + k ``_BLOCK_COLS`` (the components: the data, the scores and one
block's product); at desk scale the last is the peak.  On the covariance
route the data is read once, and the components are a row-major copy of
the kept eigenvectors.  Sign fixing orients the components a block of rows
at a time.  :func:`transform` is one float64 product of whatever rows it is
given; a stage that projects a cache walks it in blocks
(:func:`photonrc.pipeline.project`).

The model file is a float64 container (:mod:`photonrc.cache`) of the K x D
components, whose meta holds the D-entry sample mean, the K eigenvalues,
the sample count and the total variance, so that saving and loading
reproduce the model bit for bit.  The components are written from their
own buffer and read into one new array, with no copy of either; a loaded
model's mean and eigenvalues are views into its meta.
"""

from dataclasses import dataclass

import numpy as np
from scipy import linalg

from .cache import chunk_stops, read_container, write_container
from .errors import DimensionError, NumericalError, RankError

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

    def explained_fraction(self):
        """Fraction of total variance captured by all kept components (0 for none)."""
        if self.total_variance == 0.0:
            return 0.0
        return float(np.sum(self.eigenvalues / self.total_variance))


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


def gram_route(shape, n_components):
    """Whether a fit of ``n_components`` components to data of ``shape``
    takes the Gram route (fewer rows than features) rather than the
    covariance route: the one shape rule of a fit, which :func:`fit_pca`
    applies before it reads a row and the pipeline's dataset stage before
    any HOG row is made.

    DimensionError unless the data is 2-D and ``n_components`` lies in
    [1, D]; RankError for fewer than two rows; and on the Gram route a
    DimensionError for ``n_components >= n``, as n centred rows have rank
    n - 1 at most.
    """
    if len(shape) != 2:
        raise DimensionError("PCA input must be a 2-D array")
    n, dim = shape
    if n < 2:
        raise RankError("PCA needs at least two samples")
    if not 1 <= n_components <= dim:
        raise DimensionError(f"n_components must lie in [1, {dim}], got {n_components}")
    if n < dim and n_components >= n:
        raise DimensionError(
            f"{n_components} components asked of {n} rows, whose centred rank is "
            f"{n - 1} at most"
        )
    return n < dim


def fit_pca(data, n_components):
    """Fit a PCA model to ``data`` of shape (n_samples, feature_dim); returns
    (model, scores).

    ``data`` is any array-like, such as a :class:`~photonrc.cache.CacheRows`
    that reads rows from a cache file.  It is read into one new float64
    array, which is centred in place and freed once the Gram or covariance
    matrix is formed, so the caller's array never changes and the eigensolve
    holds no copy of it.  Data that is not finite raises
    :class:`NumericalError`.  ``scores`` is the (n_samples, n_components)
    float64 projection of those rows on the Gram route (n_samples <
    feature_dim), taken from the Gram's eigenvectors, and None on the
    covariance route.  On the Gram route ``data`` is read a second time,
    after the eigensolve, and the model's components are the first rows of
    that array, trimmed to K x D; on the covariance route, which reads
    ``data`` once, they are a row-major copy of the kept eigenvectors.
    The shape rule, :func:`gram_route`, runs on ``np.shape(data)``, so a
    shape no fit can take raises before any row is read.
    """
    k = int(n_components)
    gram = gram_route(np.shape(data), k)  # before any row is read
    X = np.array(data, dtype=np.float64)
    n, dim = X.shape

    with np.errstate(invalid="ignore"):  # inf - inf, which the check below names
        mean = X.mean(axis=0)
        X -= mean  # X is the centred data Z from here on
    denom = n - 1
    total_variance = float(np.einsum("ij,ij->", X, X)) / denom
    if not np.isfinite(total_variance):
        raise NumericalError(
            f"PCA input is not finite: its total variance is {total_variance}"
        )

    sym = X @ X.T if gram else X.T @ X  # the Gram matrix or the covariance
    del X  # read again on the Gram route, once the eigenvectors are cut to k
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
    if not gram:
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
        # Z again, read and centred as before, so it holds the same bytes
        X = np.array(data, dtype=np.float64)
        X -= mean
        # the components U'Z in Z's own buffer: column block b of U'Z reads
        # only column block b of Z, so each block's product overwrites the
        # first k rows of that block once it is made
        start = 0
        for stop in chunk_stops(dim, _BLOCK_COLS):
            block = X[:, start:stop]
            block[:k] = scores.T @ block
            start = stop
        # in place: frees the rows past k.  No view of X is left once block
        # is gone (mean and scores are copies), so the reference count is not
        # checked: a tracer's snapshot of this frame's locals (sys.settrace,
        # as pdb sets it) holds one more reference to X itself
        del block
        X.resize((k, dim), refcheck=False)
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
    """Project rows onto the principal axes: (X - mean) @ components', one
    float64 product of the rows given.  The rows are cast to float64 and
    centred in place: the same bytes as np.subtract(..., dtype=np.float64),
    which stages twice the casting buffers."""
    X = np.asarray(data)
    if X.shape[-1] != model.feature_dim:
        raise DimensionError(
            f"data has {X.shape[-1]} features, model expects {model.feature_dim}"
        )
    centred = X.astype(np.float64)
    centred -= model.mean
    return centred @ model.components.T


def save_pca_model(model, path):
    meta = np.concatenate([model.mean, model.eigenvalues, [model.n_samples, model.total_variance]])
    write_container(path, np.asarray(model.components, dtype="<f8"), meta)


def load_pca_model(path):
    # the meta of a K x D model: D mean entries, K eigenvalues and two scalars
    components, meta = read_container(path, "<f8", lambda k, dim: dim + k + 2)
    k, dim = components.shape
    return PcaModel(
        mean=meta[:dim],
        components=components,
        eigenvalues=meta[dim : dim + k],
        total_variance=float(meta[-1]),
        n_samples=int(meta[-2]),
    )
