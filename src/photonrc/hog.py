"""Histogram-of-oriented-gradients descriptor for grayscale frames.

Gradients come from the centered-difference kernels (-1, 0, 1) and its
transpose with replicate padding at the borders.  Orientations fold into
[0, 180) degrees (gradient sign ignored) and gradient magnitudes vote into
evenly spaced bins; each pixel splits its vote linearly between the two
nearest bin centers, wrapping between the last and first (with 9 bins the
centers sit at 10, 30, ..., 170 degrees).  Votes aggregate over square
cells, partial cells at the right/bottom border are truncated, and blocks
of cells at a configurable stride are each L2-normalized with
v / (||v|| + eps).

A 160x120 frame under the default config gives 20x15 cells, 19x14 blocks,
and a descriptor of 19 * 14 * 4 * 9 = 9576 values.  The layout tuple is
(19, 14, 4, 9): block columns, block rows, cells per block, bins; the
value array itself is ordered row-major by (block row, block column, cell,
bin).

A pixel's two votes (bins and weights) are a function of its gradient pair
(dx, dy) alone.  On a uint8 frame, which is what ``read_pgm`` returns, both
components are integers in [-255, 255], so only 511 x 511 pairs exist.
:func:`cell_histograms` takes those integer differences and looks the votes
up in a table built by applying the one vote formula, :func:`_votes`, to
every pair.  The table holds exactly the float64 numbers the formula gives,
and the two histogram sums run over the same slots in the same pixel order,
so the result is bit-identical to applying the formula per pixel.  Frames
of any other dtype (float, uint16, signed integers) can hold gradients
outside that grid and apply the formula to their float64 gradients.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError


@dataclass(frozen=True)
class HogConfig:
    cell_size: int = 8        # pixels per cell edge
    block_size: int = 2       # cells per block edge
    num_bins: int = 9
    block_stride: int = 1     # cells between block origins
    normalization_epsilon: float = 1e-12

    def __post_init__(self):
        if self.cell_size < 2:
            raise ValueError("cell_size must be at least 2")
        if self.num_bins < 2:
            raise ValueError("num_bins must be at least 2")
        if self.block_size < 1:
            raise ValueError("block_size must be at least 1")
        if self.block_stride < 1:
            raise ValueError("block_stride must be at least 1")
        if self.normalization_epsilon <= 0:
            raise ValueError("normalization_epsilon must be positive")


DEFAULT_CONFIG = HogConfig()


def _differences(img):
    """Centered differences of a 2-D frame in its own dtype, replicate-padded."""
    if img.ndim != 2:
        raise DimensionError("frame must be a 2-D grayscale array")
    if img.shape[0] < 3 or img.shape[1] < 3:
        raise DimensionError(
            f"frame {img.shape[0]}x{img.shape[1]} smaller than the 3-pixel kernel support"
        )
    dx = np.empty_like(img)
    dx[:, 1:-1] = img[:, 2:] - img[:, :-2]
    dx[:, 0] = img[:, 1] - img[:, 0]
    dx[:, -1] = img[:, -1] - img[:, -2]
    dy = np.empty_like(img)
    dy[1:-1, :] = img[2:, :] - img[:-2, :]
    dy[0, :] = img[1, :] - img[0, :]
    dy[-1, :] = img[-1, :] - img[-2, :]
    return dx, dy


def _orientation(dx, dy):
    mag = np.hypot(dx, dy)
    theta = np.degrees(np.arctan2(dy, dx)) % 180.0
    theta = np.where(theta >= 180.0, theta - 180.0, theta)  # mod can emit 180.0 exactly
    return mag, theta


def _votes(dx, dy, num_bins):
    """The vote formula: (bin_lo, bin_hi, w_lo, w_hi) of each gradient pair.

    Each pixel splits its magnitude between the two nearest bin centers,
    wrapping between the last and the first; the weights are the two
    products the histogram sums.
    """
    mag, theta = _orientation(dx, dy)
    bin_width = 180.0 / num_bins
    t = (theta - bin_width / 2.0) / bin_width
    base = np.floor(t)
    w_hi = t - base
    bin_lo = base.astype(np.int64) % num_bins
    bin_hi = (bin_lo + 1) % num_bins
    return bin_lo, bin_hi, mag * (1.0 - w_hi), mag * w_hi


_REACH = 255                 # largest |dx| or |dy| of a uint8 frame
_SIDE = 2 * _REACH + 1       # integer gradient values per axis
_KEY_OFFSET = _REACH * _SIDE + _REACH


@functools.lru_cache(maxsize=4)
def _vote_table(num_bins):
    """:func:`_votes` of every integer pair, indexed by (dx + 255) * 511 + (dy + 255).

    Returns (bins, weights): (511 * 511, 2) arrays holding (bin_lo, bin_hi)
    in the smallest integer type that fits and (w_lo, w_hi) in float64,
    about 4.7 MB per bin count.  Built one dx row at a time, so no
    full-size float64 temporary exists.  ``pipeline.extract_hog`` clears
    this cache when it returns; a rebuild takes about 30 ms.
    """
    bins = np.empty((_SIDE, _SIDE, 2), dtype=np.min_scalar_type(num_bins - 1))
    weights = np.empty((_SIDE, _SIDE, 2))
    dy = np.arange(-_REACH, _REACH + 1, dtype=np.float64)
    for row, dx in enumerate(range(-_REACH, _REACH + 1)):
        votes = _votes(np.full(_SIDE, float(dx)), dy, num_bins)
        bins[row, :, 0], bins[row, :, 1], weights[row, :, 0], weights[row, :, 1] = votes
    table = bins.reshape(-1, 2), weights.reshape(-1, 2)
    for a in table:
        a.flags.writeable = False
    return table


@functools.lru_cache(maxsize=8)
def _slot_pairs(cells_y, cells_x, cell, num_bins):
    """Where each kept pixel's bin 0 sits: (rows, cols, 2) offsets into two stacked histograms.

    The lower votes sum into the first cells_y * cells_x * num_bins slots,
    the upper votes into the second block of as many.
    """
    cell_row = np.arange(cells_y * cell) // cell
    cell_col = np.arange(cells_x * cell) // cell
    first = (cell_row[:, None] * cells_x + cell_col[None, :]) * num_bins
    slots = np.stack([first, first + cells_y * cells_x * num_bins], axis=-1)
    slots.flags.writeable = False
    return slots


def cell_histograms(pixels, config=DEFAULT_CONFIG):
    """Per-cell orientation histograms, shape (cells_y, cells_x, num_bins).

    Pixels beyond the last full cell (right/bottom border) do not vote.  A
    uint8 frame looks its votes up in the table of :func:`_vote_table`;
    every other dtype computes them by formula from float64 gradients.
    Both give the same bytes.
    """
    img = np.asarray(pixels)
    if img.dtype != np.uint8:
        img = img.astype(np.float64, copy=False)
    if img.ndim != 2:
        raise DimensionError("frame must be a 2-D grayscale array")
    height, width = img.shape
    cell = config.cell_size
    cells_y = height // cell
    cells_x = width // cell
    if cells_y < config.block_size or cells_x < config.block_size:
        raise DimensionError(
            f"frame {height}x{width} holds no full "
            f"{config.block_size}x{config.block_size}-cell block"
        )

    nb = config.num_bins
    rows, cols = cells_y * cell, cells_x * cell  # partial border cells are truncated
    if img.dtype == np.uint8:
        dx, dy = _differences(img.astype(np.int32))
        key = dx[:rows, :cols] * _SIDE
        key += dy[:rows, :cols]
        key += _KEY_OFFSET
        bins, weights = (np.take(a, key, axis=0) for a in _vote_table(nb))
    else:
        dx, dy = _differences(img)
        bin_lo, bin_hi, w_lo, w_hi = _votes(dx[:rows, :cols], dy[:rows, :cols], nb)
        bins = np.stack([bin_lo, bin_hi], axis=-1)
        weights = np.stack([w_lo, w_hi], axis=-1)

    # one pass sums the lower and the upper votes into separate halves, each
    # in pixel order; adding the halves gives the per-cell histograms
    n_slots = cells_y * cells_x * nb
    sums = np.bincount(
        (_slot_pairs(cells_y, cells_x, cell, nb) + bins).ravel(),
        weights=weights.ravel(),
        minlength=2 * n_slots,
    )
    return (sums[:n_slots] + sums[n_slots:]).reshape(cells_y, cells_x, nb)


def _block_grid(cells_y, cells_x, config):
    blocks_y = (cells_y - config.block_size) // config.block_stride + 1
    blocks_x = (cells_x - config.block_size) // config.block_stride + 1
    return blocks_y, blocks_x


def hog_descriptor(pixels, config=DEFAULT_CONFIG):
    """Compute the descriptor of one frame.

    Returns ``(values, layout)``: a flat float64 array plus the layout
    tuple (blocks_x, blocks_y, cells_per_block, bins).
    """
    hist = cell_histograms(pixels, config)
    cells_y, cells_x = hist.shape[:2]
    blocks_y, blocks_x = _block_grid(cells_y, cells_x, config)
    b = config.block_size
    stride = config.block_stride

    cpb = b * b
    blocks = np.empty((blocks_y, blocks_x, cpb, config.num_bins))
    for cy in range(b):
        for cx in range(b):
            blocks[:, :, cy * b + cx] = hist[
                cy : cy + stride * blocks_y : stride,
                cx : cx + stride * blocks_x : stride,
            ]

    norms = np.sqrt(np.einsum("yxcb,yxcb->yx", blocks, blocks))
    blocks /= (norms + config.normalization_epsilon)[:, :, None, None]

    layout = (blocks_x, blocks_y, cpb, config.num_bins)
    return blocks.reshape(-1), layout


def descriptor_layout(resolution, config=DEFAULT_CONFIG):
    """Layout tuple for frames of the given (height, width), without pixels."""
    height, width = resolution
    cells_y = height // config.cell_size
    cells_x = width // config.cell_size
    if cells_y < config.block_size or cells_x < config.block_size:
        raise DimensionError(f"frame {height}x{width} holds no full block")
    blocks_y, blocks_x = _block_grid(cells_y, cells_x, config)
    return (blocks_x, blocks_y, config.block_size**2, config.num_bins)


def feature_count(resolution, config=DEFAULT_CONFIG):
    layout = descriptor_layout(resolution, config)
    return int(np.prod(layout))

