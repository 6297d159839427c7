"""Independent brute-force reference implementations used by the tests.

These deliberately avoid the vectorized code paths of the package: plain
Python loops, one pixel and one block at a time, so a bug in the fast path
cannot hide in its own reflection.  :func:`version_1_bytes` writes the
per-kind binary formats an earlier photonrc wrote, for the tests of how
the container reader treats them.  :func:`count_ridge_routes` counts the
chunks the ridge sums take in float32 and in float64, and can refuse the
float32 sums, which leaves the float64 ones as the reference.
"""

import math

import numpy as np

from photonrc.cache import read_cache, read_cache_header
from photonrc.pca import load_pca_model
from photonrc import readout
from photonrc.readout import load_readout_model


def hog_oracle(pixels, cell_size=8, block_size=2, num_bins=9, stride=1, eps=1e-12):
    """Loop-based HOG descriptor: gradients, votes, blocks, normalization."""
    img = np.asarray(pixels, dtype=np.float64)
    height, width = img.shape

    def px(i, j):
        # replicate padding
        return img[min(max(i, 0), height - 1), min(max(j, 0), width - 1)]

    bin_width = 180.0 / num_bins
    cells_y = height // cell_size
    cells_x = width // cell_size
    hist = np.zeros((cells_y, cells_x, num_bins))
    for i in range(cells_y * cell_size):
        for j in range(cells_x * cell_size):
            dx = px(i, j + 1) - px(i, j - 1)
            dy = px(i + 1, j) - px(i - 1, j)
            mag = math.hypot(dx, dy)
            theta = math.degrees(math.atan2(dy, dx)) % 180.0
            if theta >= 180.0:
                theta -= 180.0
            t = (theta - bin_width / 2.0) / bin_width
            base = math.floor(t)
            w_hi = t - base
            lo = int(base) % num_bins
            hi = (lo + 1) % num_bins
            cy, cx = i // cell_size, j // cell_size
            hist[cy, cx, lo] += mag * (1.0 - w_hi)
            hist[cy, cx, hi] += mag * w_hi

    blocks_y = (cells_y - block_size) // stride + 1
    blocks_x = (cells_x - block_size) // stride + 1
    out = []
    for by in range(blocks_y):
        for bx in range(blocks_x):
            vec = []
            for cy in range(block_size):
                for cx in range(block_size):
                    vec.extend(hist[by * stride + cy, bx * stride + cx])
            vec = np.asarray(vec)
            out.append(vec / (np.linalg.norm(vec) + eps))
    return np.concatenate(out)


# ---------------------------------------------------------------------------
# HOG: the float formula the vote table replaced

def cell_histograms_oracle(pixels, cell_size=8, num_bins=9):
    """Per-cell histograms by the float formula on every pixel.

    The vectorized formula the vote table replaced: float64 centered
    differences, hypot, arctan2 in degrees folded into [0, 180), the linear
    split between the two nearest bin centers, and two bincounts, lower
    votes first.  Its bytes are the reference the table route must equal.
    """
    img = np.asarray(pixels, dtype=np.float64)
    dx = np.empty_like(img)
    dx[:, 1:-1] = img[:, 2:] - img[:, :-2]
    dx[:, 0] = img[:, 1] - img[:, 0]
    dx[:, -1] = img[:, -1] - img[:, -2]
    dy = np.empty_like(img)
    dy[1:-1, :] = img[2:, :] - img[:-2, :]
    dy[0, :] = img[1, :] - img[0, :]
    dy[-1, :] = img[-1, :] - img[-2, :]
    mag = np.hypot(dx, dy)
    theta = np.degrees(np.arctan2(dy, dx)) % 180.0
    theta = np.where(theta >= 180.0, theta - 180.0, theta)

    cells_y = img.shape[0] // cell_size
    cells_x = img.shape[1] // cell_size
    mag = mag[: cells_y * cell_size, : cells_x * cell_size]
    theta = theta[: cells_y * cell_size, : cells_x * cell_size]
    bin_width = 180.0 / num_bins
    t = (theta - bin_width / 2.0) / bin_width
    base = np.floor(t)
    w_hi = t - base
    bin_lo = base.astype(np.int64) % num_bins
    bin_hi = (bin_lo + 1) % num_bins

    cell_row = np.arange(cells_y * cell_size) // cell_size
    cell_col = np.arange(cells_x * cell_size) // cell_size
    cell_id = cell_row[:, None] * cells_x + cell_col[None, :]
    n_slots = cells_y * cells_x * num_bins
    hist = np.bincount(
        (cell_id * num_bins + bin_lo).ravel(),
        weights=(mag * (1.0 - w_hi)).ravel(),
        minlength=n_slots,
    )
    hist += np.bincount(
        (cell_id * num_bins + bin_hi).ravel(),
        weights=(mag * w_hi).ravel(),
        minlength=n_slots,
    )
    return hist.reshape(cells_y, cells_x, num_bins)


def ridge_oracle(states, targets, lam):
    """Explicit normal-equations solve (X'X + lam I) W = X'D."""
    X = np.asarray(states, dtype=np.float64)
    D = np.asarray(targets, dtype=np.float64)
    gram = X.T @ X + lam * np.eye(X.shape[1])
    return np.linalg.solve(gram, X.T @ D)


# ---------------------------------------------------------------------------
# Reservoir: the float formulas the phase-code kernel replaced

def quantize_phase_oracle(x, levels=256):
    """Truncate to the grid k * 2pi/levels with a float floor and four corrections."""
    step = 2.0 * np.pi / levels
    y = np.mod(np.asarray(x, dtype=np.float64), 2.0 * np.pi)
    k = np.floor(y / step)
    k = np.where((k + 1.0) * step <= y, k + 1.0, k)
    k = np.where(k * step > y, k - 1.0, k)
    k = np.where(k >= levels, k - levels, k)
    k = np.where(k < 0.0, 0.0, k)
    return k * step


def quantize_intensity_oracle(y, levels=1024):
    max_code = levels - 1
    z = np.clip(np.asarray(y, dtype=np.float64), 0.0, 1.0)
    return np.floor(z * max_code + 0.5) / max_code


def intensity_response_oracle(phase):
    """q10(sin^2(q8(phase))), evaluated on every call."""
    s = np.sin(quantize_phase_oracle(phase))
    return quantize_intensity_oracle(s * s)


def run_reservoir_oracle(matrices, inputs, variant, initial_state=None, spans=None):
    """Step-by-step reservoir over the float formulas.

    The coupling and drive products are the package's own (one CSR product
    per step, one GEMM for the drive), so the comparison isolates the
    quantizer and response chain, whose rounding this reproduces exactly.
    """
    U = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
    drive = U @ matrices.input_weights.T
    n = matrices.n_nodes
    x0 = np.zeros(n) if initial_state is None else np.asarray(initial_state, dtype=np.float64)
    states = np.empty((U.shape[0], n))
    for start, stop in spans or [(0, U.shape[0])]:
        x = x0
        for t in range(start, stop):
            if variant == "intensity":
                x = intensity_response_oracle(matrices.weights @ x + drive[t])
            else:
                s = np.sin(x)
                fed = quantize_intensity_oracle(s * s)
                x = quantize_phase_oracle(matrices.weights @ fed + drive[t])
            states[t] = x
    return states


def sample_offdiagonal_oracle(rng, n_nodes, count):
    """Floyd's algorithm with one scalar draw per step; returns sorted linear positions."""
    space = n_nodes * n_nodes - n_nodes
    chosen = set()
    for j in range(space - count, space):
        t = int(rng.integers(0, j + 1))
        chosen.add(j if t in chosen else t)
    return sorted(chosen)


def pca_fit_oracle(data, k):
    """The two-buffer PCA fit: numpy's eigh of the Gram (or covariance)
    matrix, one U'Z product into a new components array and the sign rule
    over the whole array; returns (mean, eigenvalues, components, scores),
    with scores None on the covariance route."""
    Z = np.array(data, dtype=np.float64)
    n, dim = Z.shape
    mean = Z.mean(axis=0)
    Z -= mean
    vals, vecs = np.linalg.eigh((Z.T @ Z if n >= dim else Z @ Z.T) / (n - 1))
    if n >= dim:
        order = np.argsort(vals)[::-1][:k]
        eigenvalues = np.maximum(vals[order], 0.0)
        components = vecs[:, order].T.copy()
    else:
        vals = np.maximum(vals, 0.0)
        order = np.argsort(vals)[::-1][:k]
        eigenvalues = vals[order]
        U = vecs[:, order]
        scale = np.sqrt((n - 1) * eigenvalues)
        components = (U.T @ Z) / scale[:, None]
    largest = components[np.arange(k), np.argmax(np.abs(components), axis=1)]
    signs = np.where(largest < 0, -1.0, 1.0)
    components *= signs[:, None]
    scores = None if n >= dim else U * (scale * signs)
    return mean, eigenvalues, components, scores


def fix_signs_oracle(components):
    """The whole-array sign rule: each row's largest-magnitude entry made positive."""
    components = np.array(components, dtype=np.float64)
    idx = np.argmax(np.abs(components), axis=1)
    flip = components[np.arange(components.shape[0]), idx] < 0
    components[flip] *= -1.0
    return components


def float32_ulps(a, b):
    """Entrywise distance between float32 arrays in units in the last place:
    the number of float32 values from one to the other, across zero too."""
    def ordered(x):
        bits = np.asarray(x, dtype=np.float32).view(np.int32).astype(np.int64)
        return np.where(bits < 0, -(1 << 31) - bits, bits)

    return np.abs(ordered(a) - ordered(b))


def version_1_bytes(path):
    """The bytes the container at ``path`` held in the format version 1 of its
    kind, which version 2 replaced: ``RCFEAT01`` for a row cache (``.rcf``),
    ``RCOUT001`` for a readout (one meta value) and ``RCPCA001`` for a PCA
    model, each with its own header before the same values."""
    def u32(value):
        return int(value).to_bytes(4, "little")

    def u64(*values):
        return np.array(values, dtype="<u8").tobytes()

    def f64(*values):
        return np.array(values, dtype="<f8").tobytes()

    if str(path).endswith(".rcf"):
        values, layout = read_cache(path)
        head = b"RCFEAT01" + u32(1) + u64(*values.shape) + u32(len(layout)) + u64(*layout)
        return head + values.tobytes()
    if read_cache_header(path)[2].size == 1:
        model = load_readout_model(path)
        head = b"RCOUT001" + u64(*model.weights.shape) + f64(model.ridge_lambda) + u32(0)
        return head + model.weights.tobytes()
    model = load_pca_model(path)
    head = b"RCPCA001" + u64(*model.components.shape, model.n_samples) + f64(model.total_variance)
    return head + b"".join(a.tobytes() for a in (model.mean, model.eigenvalues, model.components))


def count_ridge_routes(monkeypatch, float64=False):
    """A count of the primal ridge route's chunks by the type of the levels
    their Gram sums take, which ``monkeypatch`` keeps; ``float64=True`` sets
    the float32 sums' bound below every chunk, which gives the float64 route
    alone."""
    chunks = {"float32": 0, "float64": 0}
    add_gram = readout._add_gram

    def counted(gram, K):
        chunks[K.dtype.name] += 1
        return add_gram(gram, K)

    if float64:
        monkeypatch.setattr(readout, "_FLOAT32_EXACT", -1)
    monkeypatch.setattr(readout, "_add_gram", counted)
    return chunks
