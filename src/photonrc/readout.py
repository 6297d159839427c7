"""Linear readout layer: one-hot targets, ridge training, NMSE diagnostics.

The readout is the only trained part of the machine.  Given reservoir
states X (one row per frame) and one-hot targets D over the six classes,
training solves the regularized normal equations

    (X'X + lambda I) W = X'D

and the readout output is y = X W.  X holds what the detector reads,
q10(sin^2) of every node, so training and evaluation use the stored values
as they are.

For wide state matrices (more nodes than frames) the equations are solved
through the dual system (XX' + lambda I) A = D with W = X'A, which
satisfies the same normal equations exactly and yields the minimum-norm
interpolator at lambda = 0.  Either route must leave a relative residual
of at most 1e-6 or training fails with SingularError.  Training holds one
float64 copy of the train rows and one Gram, which it regularizes and
factors in place unless a caller shares it across lambdas.  A model file
is read only if it is exactly the size its header announces and its
weights finite.
"""

import struct
from dataclasses import dataclass

import numpy as np
from scipy import linalg

from .cache import read_checked_header
from .classify import N_CLASSES
from .errors import (
    DegenerateTargetError,
    DimensionError,
    LabelError,
    ParseError,
    SingularError,
)

RESIDUAL_RTOL = 1e-6
DEFAULT_LAMBDA_SCALE = 1e-4  # lambda = scale * trace(X'X) / N when unspecified


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


def default_lambda(states):
    """Scale-adaptive default: 1e-4 * trace(X'X) / N."""
    X = np.asarray(states, dtype=np.float64)
    return DEFAULT_LAMBDA_SCALE * float(np.einsum("ij,ij->", X, X)) / X.shape[1]


@dataclass(frozen=True)
class NormalEquations:
    """The ridge system of one training set, which any number of lambdas solve.

    ``features`` is X, the states as float64; ``gram`` is
    X'X when X has at least as many rows as columns (the primal route) and
    XX' otherwise (the dual route); ``rhs`` is X'D.
    """

    features: np.ndarray
    targets: np.ndarray
    gram: np.ndarray
    rhs: np.ndarray

    @property
    def primal(self):
        return self.features.shape[0] >= self.features.shape[1]


def normal_equations(states, targets):
    """Build the :class:`NormalEquations` of ``states`` and one-hot ``targets``.

    X is made C-contiguous, the layout for which numpy's X'X and XX' are
    exactly symmetric; the Cholesky factorization relies on that.
    """
    X = np.ascontiguousarray(states, dtype=np.float64)
    D = np.asarray(targets, dtype=np.float64)
    if X.ndim != 2 or D.ndim != 2:
        raise DimensionError("states and targets must be 2-D")
    if X.shape[0] != D.shape[0]:
        raise DimensionError(
            f"{X.shape[0]} state rows vs {D.shape[0]} target rows"
        )
    if X.shape[0] < 1:
        raise DimensionError("need at least one training row")
    return NormalEquations(
        features=X,
        targets=D,
        gram=X.T @ X if X.shape[0] >= X.shape[1] else X @ X.T,
        rhs=X.T @ D,
    )


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
    elif normal.features.shape != np.shape(states):
        raise ValueError("normal equations were built from other states")
    else:
        gram = normal.gram.copy()
    X = normal.features
    lam = default_lambda(X) if ridge_lambda is None else float(ridge_lambda)

    rhs = normal.rhs
    gram[np.diag_indices_from(gram)] += lam
    try:
        # the Gram is exactly symmetric, so its transpose is the same matrix
        # already in the column-major order LAPACK factors without a copy
        factor = linalg.cho_factor(gram.T, overwrite_a=True)
        W = linalg.cho_solve(factor, rhs if normal.primal else normal.targets)
        if not normal.primal:
            W = X.T @ W
    except ValueError as exc:  # a LinAlgError, or a non-finite entry cho_factor refuses
        raise SingularError(f"regularized system not solvable: {exc}") from exc
    if not np.all(np.isfinite(W)):
        raise SingularError("regularized solve produced non-finite weights")

    # the contract is on the primal normal equations, whichever route ran
    residual = np.linalg.norm((X.T @ (X @ W)) + lam * W - rhs)
    denom = max(np.linalg.norm(rhs), np.finfo(np.float64).tiny)
    if residual > RESIDUAL_RTOL * denom:
        raise SingularError(
            f"normal-equations residual {residual / denom:.3e} exceeds {RESIDUAL_RTOL:.0e}"
        )
    return ReadoutModel(weights=np.ascontiguousarray(W.T), ridge_lambda=lam)


def apply_readout(model, states):
    """Evaluate y = X W'."""
    X = np.asarray(states, dtype=np.float64)
    squeeze = X.ndim == 1
    if squeeze:
        X = X[None, :]
    if X.shape[1] != model.n_features:
        raise DimensionError(
            f"states have {X.shape[1]} columns, model expects {model.n_features}"
        )
    out = X @ model.weights.T
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

READOUT_MAGIC = b"RCOUT001"
# magic, M, N, lambda, state-transform code; readouts apply no transform to
# the states, so the code is 0, and a readout that asks for one is refused
_OUT_HEAD = struct.Struct("<8sQQdI")


def save_readout_model(model, path):
    m, n = model.weights.shape
    with open(path, "wb") as fh:
        fh.write(_OUT_HEAD.pack(READOUT_MAGIC, m, n, model.ridge_lambda, 0))
        fh.write(np.ascontiguousarray(model.weights, dtype="<f8").tobytes())


def _read_readout_header(fh, path):
    m, n, lam, code = read_checked_header(
        fh, path, _OUT_HEAD, READOUT_MAGIC, lambda m, n, *_: 8 * m * n
    )
    if code != 0:
        raise ParseError(f"{path}: state-transform code {code}, expected 0 (none)")
    return m, n, lam


def read_readout_header(path):
    """(M, N, lambda) of a readout file exactly the size its header announces."""
    with open(path, "rb") as fh:
        return _read_readout_header(fh, path)


def load_readout_model(path):
    with open(path, "rb") as fh:
        m, n, lam = _read_readout_header(fh, path)
        weights = np.fromfile(fh, dtype="<f8", count=m * n)
    try:
        return ReadoutModel(weights=weights.reshape(m, n), ridge_lambda=float(lam))
    except ValueError as exc:  # a non-finite weight
        raise ParseError(f"{path}: {exc}") from None
