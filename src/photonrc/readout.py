"""Linear readout layer: one-hot targets, ridge training, NMSE diagnostics.

The readout is the only trained part of the machine.  Given reservoir
states X (one row per frame) and one-hot targets D over the six classes,
training solves the regularized normal equations

    (X'X + lambda I) W = X'D

and the readout output is y = X W.  X holds what the detector reads,
q10(sin^2) of every node: each reading is j / 1023 for an integer level j.
Training sums the equations over K = 1023 X (:func:`_levels`), which holds
those integers exactly.  Every partial sum of K'K, K'D and the trace is
then an integer below 2^53, for up to about 8.6e9 rows, so the sums are
exact and equal for any chunking, BLAS blocking or thread count, and the
factor 1023 is applied once, to the solution (W = 1023 V).  Other float
rows train through the same sums, over the float64 products 1023 x, which
are then as exact as float64 allows.

One level rule sets the precision.  Float32 rows whose every entry is a
reading with 0 <= j <= 1023 get float32 levels, made 32 rows at a time in
the rows' own buffer when they were read from a state cache (a caller's
array is never written); any other rows get float64 levels.  With at least
as many train rows as nodes (the primal route) the states are read once, a
chunk of rows at a time (:func:`~photonrc.cache.row_chunks`).  A chunk
keeps float32 levels when its targets are one-hot and rows * max j^2 <=
2^24, where float32 sums of integers are exact too, and is promoted to
float64 otherwise.  One routine, :func:`_add_gram`, adds each chunk's K'K
into the upper triangle of one float64 Gram, one GEMM panel of columns at a
time, in either precision: an exact panel holds the same integers in both,
so the sums, and the bytes of every readout, do not depend on which chunks
took float32.  The Gram's lower triangle then takes a copy, which stays
while the upper one is regularized and factored in place.  With fewer rows
(the dual route) the equations are solved through (KK' + lambda I) A = D with
W = K'A, over the float64 levels of every train row, whose KK' the same
routine adds up; this satisfies the same normal equations exactly and
yields the minimum-norm interpolator at lambda = 0.  Either route must
leave a relative residual of at most 1e-6 on the primal normal equations,
taken with the kept Gram or the kept levels, or training fails with
SingularError.  So training holds one Gram, one chunk of rows with its
levels (for float32 levels of a cache's rows: in the chunk itself) and one
panel of K'K at a time, or, on the dual route, the levels of every train
row.

A model file is a float64 container (:mod:`photonrc.cache`) of the M x N
weights whose one meta value is lambda.  It is read only if it is exactly
the size its header announces and its weights finite.
"""

from dataclasses import dataclass

import numpy as np
from scipy import linalg
from scipy.linalg import blas

from .cache import CacheRows, read_container, row_chunks, write_container
from .classify import N_CLASSES
from .errors import (
    DegenerateTargetError,
    DimensionError,
    LabelError,
    ParseError,
    SingularError,
)
from .reservoir import INTENSITY_LEVELS

RESIDUAL_RTOL = 1e-6
DEFAULT_LAMBDA_SCALE = 1e-4  # lambda = scale * trace(X'X) / N when unspecified

LEVELS = INTENSITY_LEVELS - 1  # a detector reading is j / LEVELS for an integer j
# rows per block of the level conversion, so its temporaries fit in the CPU cache
_LEVEL_ROWS = 32
_LEVELS32 = np.float32(LEVELS)
# float32 holds every integer up to 2^24, so a float32 sum of non-negative
# integers whose total is at most this is exact in any order
_FLOAT32_EXACT = 2**24
# Gram columns per GEMM panel; its product is _PANEL x N in the levels' type
_PANEL = 256


def encode_targets(frame_classes):
    """One-hot targets (T, 6) of per-frame class indices (0-based)."""
    classes = np.asarray(list(frame_classes), dtype=np.int64)
    if classes.ndim != 1:
        raise DimensionError("frame classes must form a 1-D sequence")
    if classes.size and (classes.min() < 0 or classes.max() >= N_CLASSES):
        bad = classes[(classes < 0) | (classes >= N_CLASSES)][0]
        raise LabelError(f"class index {bad} outside [0, {N_CLASSES})")
    targets = np.zeros((classes.size, N_CLASSES))
    targets[np.arange(classes.size), classes] = 1.0
    return targets


@dataclass(frozen=True)
class ReadoutModel:
    weights: np.ndarray  # (M, N): output = states @ weights.T
    ridge_lambda: float

    def __post_init__(self):
        if not np.all(np.isfinite(self.weights)):
            raise ValueError("readout weights must be finite")

    @property
    def n_outputs(self):
        return self.weights.shape[0]

    @property
    def n_features(self):
        return self.weights.shape[1]


def check_ridge_lambda(ridge_lambda):
    """Raise ValueError unless ``ridge_lambda`` is None (auto) or finite and >= 0."""
    if ridge_lambda is not None and not (np.isfinite(ridge_lambda) and ridge_lambda >= 0):
        raise ValueError(f"ridge_lambda must be None (auto) or finite and >= 0, got {ridge_lambda!r}")


def _levels(rows, in_place=False):
    """K = LEVELS * x of the float rows x.  When x is float32 and every
    entry a reading j / LEVELS with 0 <= j <= LEVELS, K is those integers j
    in float32, made 32 rows at a time, in x itself when ``in_place``.
    Otherwise K is float64: j exactly where x is the reading j / LEVELS in
    x's own type, and the float64 product LEVELS * x elsewhere; x is then
    as it was.

    For float32 x, j is rint(LEVELS * x) taken in float32, and x is a
    reading when j / LEVELS in float32 is x, which equals that test taken in
    float64 for each such j.
    """
    x = np.asarray(rows)
    if x.dtype == np.float32:
        K = x if in_place else np.empty(x.shape, np.float32)
        j = np.empty((min(x.shape[0], _LEVEL_ROWS), x.shape[1]), np.float32)
        for a in range(0, x.shape[0], _LEVEL_ROWS):
            xb = x[a : a + _LEVEL_ROWS]
            jb = j[: xb.shape[0]]
            np.rint(np.multiply(xb, _LEVELS32, out=jb), out=jb)
            if not (jb.min() >= 0 and jb.max() <= LEVELS and np.array_equal(jb / _LEVELS32, xb)):
                if in_place:  # each level j of a block that passed divides back to its x
                    np.divide(x[:a], _LEVELS32, out=x[:a])
                break
            K[a : a + _LEVEL_ROWS] = jb
        else:
            return K
    K = np.empty(x.shape)
    for a in range(0, x.shape[0], _LEVEL_ROWS):
        xb, kb = x[a : a + _LEVEL_ROWS], K[a : a + _LEVEL_ROWS]
        np.multiply(xb, LEVELS, out=kb, dtype=np.float64)
        j = np.rint(kb)
        np.copyto(kb, j, where=(j / LEVELS).astype(x.dtype) == xb)
    return K


@dataclass(frozen=True)
class NormalEquations:
    """The ridge system of one training set, in levels K = :func:`_levels`
    of the states, which any number of lambdas solve.

    ``states`` are the train rows, an array or a
    :class:`~photonrc.cache.CacheRows`; ``gram`` is K'K when there are at
    least as many rows as columns (the primal route) and KK' otherwise (the
    dual route), with ``dual_levels`` then K itself, in float64; ``rhs`` is
    K'D.  ``gram`` is float64 and exactly symmetric.  On the primal route a
    chunk of float32 levels with one-hot targets and rows * max j^2 <= 2^24
    is summed in float32, exactly, and any other chunk in float64; one
    routine adds both, so ``gram`` and ``rhs`` are the same either way.
    """

    states: object
    targets: np.ndarray
    gram: np.ndarray
    rhs: np.ndarray
    dual_levels: np.ndarray = None

    @property
    def primal(self):
        return self.dual_levels is None

    @property
    def default_lambda(self):
        """Scale-adaptive default: 1e-4 * trace(X'X) / N, off the Gram's exact diagonal."""
        trace = float(np.trace(self.gram)) / LEVELS**2
        return DEFAULT_LAMBDA_SCALE * trace / self.states.shape[1]


def normal_equations(states, targets):
    """Build the :class:`NormalEquations` of ``states`` (an array or a
    :class:`~photonrc.cache.CacheRows`) and one-hot ``targets``."""
    if not isinstance(states, CacheRows):
        states = np.asarray(states)
    D = np.asarray(targets, dtype=np.float64)
    if len(states.shape) != 2 or D.ndim != 2:
        raise DimensionError("states and targets must be 2-D")
    rows, cols = states.shape
    if rows != D.shape[0]:
        raise DimensionError(f"{rows} state rows vs {D.shape[0]} target rows")
    if rows < 1:
        raise DimensionError("need at least one training row")
    in_place = isinstance(states, CacheRows)  # rows read from a cache are a new array
    if rows < cols:
        K = _levels(states, in_place).astype(np.float64, copy=False)
        gram = _mirror_upper(_add_gram(np.zeros((rows, rows), order="F"), K.T))
        return NormalEquations(states, D, gram, K.T @ D, dual_levels=K)
    gram = np.zeros((cols, cols), order="F")
    rhs = np.zeros((cols, D.shape[1]))
    for first, chunk in row_chunks(states):
        d = D[first : first + chunk.shape[0]]
        K = _levels(chunk, in_place)
        # float32 sums stay where every partial sum of K'K and K'D is an
        # integer of at most 2^24
        one_hot = np.array_equal(d, d.astype(bool))
        if K.dtype == np.float32 and not (one_hot and len(K) * float(K.max()) ** 2 <= _FLOAT32_EXACT):
            K = K.astype(np.float64)
        rhs += K.T @ d.astype(K.dtype)
        _add_gram(gram, K)
        del chunk, K  # so the next chunk is read with none held
    return NormalEquations(states, D, _mirror_upper(gram), rhs)


def _add_gram(gram, K):
    """Add K'K to the upper triangle of ``gram``, in place, one panel of
    _PANEL columns at a time; returns ``gram``.  A panel of integer levels
    holds the same integers in float32 and in float64, so the same float64
    additions follow either way."""
    n = gram.shape[0]
    for p0 in range(0, n, _PANEL):
        p1 = min(p0 + _PANEL, n)
        gram[:p1, p0:p1] += (K[:, p0:p1].T @ K[:, :p1]).T
    return gram


# the edge of the square tiles _mirror_upper copies
_TILE = 64


def _mirror_upper(gram):
    """Copy the upper triangle of the Fortran-order ``gram`` onto its lower one,
    a square tile at a time; returns ``gram``.  Factoring the upper triangle
    in place leaves this copy as it is.  A tile reads its transposed source
    from 64 columns, 32 KB that stay in cache, where a panel of columns
    read its source across every column of the Gram."""
    n = gram.shape[0]
    below = np.tri(_TILE, k=-1, dtype=bool)
    for j0 in range(0, n, _TILE):
        j1 = min(j0 + _TILE, n)
        square = gram[j0:j1, j0:j1]
        np.copyto(square, square.T, where=below[: j1 - j0, : j1 - j0])
        for i0 in range(j1, n, _TILE):
            gram[i0 : i0 + _TILE, j0:j1] = gram[j0:j1, i0 : i0 + _TILE].T
    return gram


def train_ridge(states, targets, ridge_lambda=None, normal=None):
    """Fit the readout weights by ridge regression.

    ``ridge_lambda=None`` picks the scale-adaptive default; 0 is exact
    least squares (minimum-norm when the system is underdetermined).
    ``normal`` is :func:`normal_equations` of these same states and
    targets, for a caller that solves several lambdas on one training set;
    it is left unchanged.  Without it they are built here.
    """
    check_ridge_lambda(ridge_lambda)
    if normal is None:
        normal = normal_equations(states, targets)
        gram = normal.gram  # nothing else holds it, so it is factored in place
    elif normal.states.shape != np.shape(states):
        raise ValueError("normal equations were built from other states")
    else:
        gram = normal.gram.copy(order="F")
    lam = normal.default_lambda if ridge_lambda is None else float(ridge_lambda)

    # in levels: (K'K + LEVELS^2 lambda I) V = K'D, and W = LEVELS V
    shift = lam * LEVELS**2
    diagonal = gram.diagonal().copy()
    gram[np.diag_indices_from(gram)] += shift
    try:
        factor = linalg.cho_factor(gram, lower=False, overwrite_a=True)
        V = linalg.cho_solve(factor, normal.rhs if normal.primal else normal.targets)
        if not normal.primal:
            V = normal.dual_levels.T @ V
    except ValueError as exc:  # a LinAlgError, or a non-finite entry cho_factor refuses
        raise SingularError(f"regularized system not solvable: {exc}") from exc
    if not np.all(np.isfinite(V)):
        raise SingularError("regularized solve produced non-finite weights")

    # the contract is on the primal normal equations, whichever route ran;
    # the relative residual in levels is the one in X
    if normal.primal:
        # the factor's diagonal is spent; with the Gram's own back, the
        # lower triangle is the whole Gram again
        np.fill_diagonal(gram, diagonal)
        gram_v = blas.dsymm(1.0, gram, V, lower=1)
    else:
        gram_v = normal.dual_levels.T @ (normal.dual_levels @ V)
    rhs = normal.rhs
    residual = np.linalg.norm(gram_v + shift * V - rhs)
    denom = max(np.linalg.norm(rhs), np.finfo(np.float64).tiny)
    if residual > RESIDUAL_RTOL * denom:
        raise SingularError(
            f"normal-equations residual {residual / denom:.3e} exceeds {RESIDUAL_RTOL:.0e}"
        )
    return ReadoutModel(weights=np.ascontiguousarray(LEVELS * V.T), ridge_lambda=lam)


def apply_readout(model, states):
    """Evaluate y = X W', chunk by chunk (:func:`~photonrc.cache.row_chunks`),
    for ``states`` an array or a :class:`~photonrc.cache.CacheRows`."""
    X = states if isinstance(states, CacheRows) else np.asarray(states)
    squeeze = len(X.shape) == 1
    if squeeze:
        X = X[None, :]
    if X.shape[1] != model.n_features:
        raise DimensionError(
            f"states have {X.shape[1]} columns, model expects {model.n_features}"
        )
    out = np.empty((X.shape[0], model.n_outputs))
    for first, chunk in row_chunks(X):
        out[first : first + chunk.shape[0]] = np.asarray(chunk, dtype=np.float64) @ model.weights.T
    return out[0] if squeeze else out


def nmse(outputs, desired):
    """Mean squared error normalized by target variance (0 = perfect, 1 = mean)."""
    y = np.asarray(outputs, dtype=np.float64).ravel()
    d = np.asarray(desired, dtype=np.float64).ravel()
    if y.shape != d.shape:
        raise DimensionError("output and target lengths differ")
    if d.size < 2:
        raise DimensionError("NMSE needs at least two samples")
    var = float(np.mean((d - d.mean()) ** 2))
    if var == 0.0:
        raise DegenerateTargetError("target signal is constant")
    return float(np.mean((y - d) ** 2)) / var


def nmse_per_output(outputs, desired):
    """NMSE column by column; constant target columns yield NaN."""
    Y = np.atleast_2d(np.asarray(outputs, dtype=np.float64))
    D = np.atleast_2d(np.asarray(desired, dtype=np.float64))
    if Y.shape != D.shape:
        raise DimensionError("output and target shapes differ")
    out = np.empty(Y.shape[1])
    for j in range(Y.shape[1]):
        try:
            out[j] = nmse(Y[:, j], D[:, j])
        except DegenerateTargetError:
            out[j] = np.nan
    return out


# ---------------------------------------------------------------------------
# Model files

def save_readout_model(model, path):
    write_container(path, np.asarray(model.weights, dtype="<f8"), [model.ridge_lambda])


def load_readout_model(path):
    weights, (lam,) = read_container(path, "<f8", lambda m, n: 1)
    try:
        return ReadoutModel(weights=weights, ridge_lambda=float(lam))
    except ValueError as exc:  # a non-finite weight
        raise ParseError(f"{path}: {exc}") from None
