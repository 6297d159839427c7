"""Gradient fields, oriented-histogram votes, and block-normalized descriptors."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photonrc import hog
from photonrc.errors import DimensionError
from photonrc.hog import (
    DEFAULT_CONFIG,
    HogConfig,
    cell_histograms,
    descriptor_layout,
    feature_count,
    hog_descriptor,
)

from _oracles import cell_histograms_oracle, hog_oracle


# ---------------------------------------------------------------------------
# Gradients

def gradient(pixels):
    """Float64 centred differences (dx, dy), as the formula route takes them."""
    return hog._differences(np.asarray(pixels, dtype=np.float64))


def gradient_field(pixels):
    """Per-pixel (magnitude, orientation in degrees in [0, 180))."""
    return hog._orientation(*gradient(pixels))


def test_constant_frame_has_zero_magnitude():
    mag, theta = gradient_field(np.full((12, 12), 77.0))
    assert np.all(mag == 0.0)


def test_three_four_five_neighborhood():
    img = np.array([
        [0.0, 0.0, 0.0],
        [0.0, 0.0, 3.0],
        [0.0, 4.0, 0.0],
    ])
    dx, dy = gradient(img)
    assert dx[1, 1] == 3.0
    assert dy[1, 1] == 4.0
    mag, theta = gradient_field(img)
    assert mag[1, 1] == 5.0
    assert theta[1, 1] == pytest.approx(np.degrees(np.arctan2(4.0, 3.0)))


def test_vertical_step_edge():
    img = np.zeros((8, 8))
    img[:, 4:] = 255.0
    mag, theta = gradient_field(img)
    assert np.all(theta == 0.0)  # horizontal gradient only
    assert np.all(mag[:, 3] == 255.0)
    assert np.all(mag[:, 4] == 255.0)
    assert mag.max() == 255.0
    assert np.all(mag[:, :3] == 0.0)
    assert np.all(mag[:, 5:] == 0.0)


def test_replicate_padding_at_borders():
    img = np.arange(25, dtype=np.float64).reshape(5, 5)
    dx, dy = gradient(img)
    # one-sided differences at the borders, two-sided inside
    assert dx[2, 0] == img[2, 1] - img[2, 0]
    assert dx[2, 4] == img[2, 4] - img[2, 3]
    assert dx[2, 2] == img[2, 3] - img[2, 1]
    assert dy[0, 2] == img[1, 2] - img[0, 2]
    assert dy[4, 2] == img[4, 2] - img[3, 2]


def test_gradient_rejects_tiny_frames():
    with pytest.raises(DimensionError):
        gradient(np.zeros((2, 5)))
    with pytest.raises(DimensionError):
        gradient(np.zeros((5, 2)))
    with pytest.raises(DimensionError):
        gradient(np.zeros(9))


def test_transpose_swaps_gradient_roles(rng):
    img = rng.uniform(0, 255, size=(14, 11))
    dx, dy = gradient(img)
    tdx, tdy = gradient(img.T)
    np.testing.assert_array_equal(tdx, dy.T)
    np.testing.assert_array_equal(tdy, dx.T)
    mag, _ = gradient_field(img)
    tmag, _ = gradient_field(img.T)
    np.testing.assert_allclose(tmag, mag.T, rtol=0, atol=0)


def test_orientation_stays_in_half_circle(rng):
    img = rng.uniform(0, 255, size=(20, 20))
    _, theta = gradient_field(img)
    assert np.all(theta >= 0.0)
    assert np.all(theta < 180.0)


# ---------------------------------------------------------------------------
# Cell histograms

def _ramp_with_angle(angle_deg, shape=(24, 24)):
    """An image whose interior gradient direction is ``angle_deg`` everywhere.

    Border pixels see one-sided differences through the replicate padding,
    so the votes below inspect the fully interior center cell only.
    """
    rad = np.radians(angle_deg)
    yy, xx = np.mgrid[0 : shape[0], 0 : shape[1]].astype(np.float64)
    return np.cos(rad) * xx + np.sin(rad) * yy


def _center_cell(angle_deg):
    hist = cell_histograms(_ramp_with_angle(angle_deg), HogConfig(cell_size=8))
    assert hist.shape == (3, 3, 9)
    return hist[1, 1]


def test_vote_lands_fully_on_a_bin_center():
    hist = _center_cell(30.0)  # the second of the centers 10, 30, ..., 170
    mass = hist.sum()
    assert mass > 0
    assert hist[1] == pytest.approx(mass)
    assert np.all(hist[[0, 2, 3, 4, 5, 6, 7, 8]] == pytest.approx(0.0, abs=1e-9))


def test_vote_splits_between_neighboring_centers():
    hist = _center_cell(25.0)  # three quarters toward 30, one quarter to 10
    mass = hist.sum()
    assert hist[0] == pytest.approx(0.25 * mass)
    assert hist[1] == pytest.approx(0.75 * mass)


def test_vote_wraps_between_last_and_first_bin():
    hist = _center_cell(175.0)  # between the 170 center and the wrapped 10
    mass = hist.sum()
    assert hist[8] == pytest.approx(0.75 * mass)
    assert hist[0] == pytest.approx(0.25 * mass)


def test_histogram_mass_equals_magnitude_mass(rng):
    config = HogConfig(cell_size=4)
    img = rng.uniform(0, 255, size=(13, 18))  # partial cells get truncated
    hist = cell_histograms(img, config)
    mag, _ = gradient_field(img)
    cells_y = 13 // 4
    cells_x = 18 // 4
    kept = mag[: cells_y * 4, : cells_x * 4]
    assert hist.shape == (cells_y, cells_x, 9)
    np.testing.assert_allclose(hist.sum(), kept.sum(), rtol=1e-9)
    # per-cell conservation too
    per_cell = kept.reshape(cells_y, 4, cells_x, 4).sum(axis=(1, 3))
    np.testing.assert_allclose(hist.sum(axis=2), per_cell, rtol=1e-9)


# ---------------------------------------------------------------------------
# Full descriptors

def test_default_layout_on_kth_resolution(rng):
    img = rng.integers(0, 256, size=(120, 160), dtype=np.uint8)
    values, layout = hog_descriptor(img)
    assert layout == (19, 14, 4, 9)
    assert values.shape == (9576,)
    assert feature_count((120, 160)) == 9576
    assert descriptor_layout((120, 160)) == (19, 14, 4, 9)


def test_constant_frame_gives_zero_descriptor():
    values, _ = hog_descriptor(np.full((32, 32), 19.0))
    assert np.all(values == 0.0)


def test_matches_brute_force_oracle(rng):
    for shape in [(16, 16), (32, 32), (19, 21), (24, 40)]:
        img = rng.uniform(0, 255, size=shape)
        values, _ = hog_descriptor(img)
        expected = hog_oracle(img)
        assert values.shape == expected.shape
        np.testing.assert_allclose(values, expected, atol=1e-6, rtol=0)


def test_oracle_agreement_across_configs(rng):
    configs = [
        HogConfig(cell_size=4, block_size=2, num_bins=6),
        HogConfig(cell_size=8, block_size=3, num_bins=9, block_stride=2),
        HogConfig(cell_size=5, block_size=1, num_bins=4),
    ]
    img = rng.uniform(0, 255, size=(40, 33))
    for config in configs:
        values, _ = hog_descriptor(img, config)
        expected = hog_oracle(
            img,
            cell_size=config.cell_size,
            block_size=config.block_size,
            num_bins=config.num_bins,
            stride=config.block_stride,
        )
        np.testing.assert_allclose(values, expected, atol=1e-6, rtol=0)


def test_length_formula_across_configs():
    for cell, block, bins, stride, shape in [
        (8, 2, 9, 1, (120, 160)),
        (4, 2, 9, 2, (64, 64)),
        (6, 3, 5, 1, (60, 48)),
        (8, 1, 12, 1, (24, 30)),
    ]:
        config = HogConfig(cell_size=cell, block_size=block, num_bins=bins, block_stride=stride)
        cells_y = shape[0] // cell
        cells_x = shape[1] // cell
        blocks_y = (cells_y - block) // stride + 1
        blocks_x = (cells_x - block) // stride + 1
        expected = blocks_y * blocks_x * block * block * bins
        assert feature_count(shape, config) == expected
        values, layout = hog_descriptor(np.zeros(shape), config)
        assert values.size == expected
        assert layout == (blocks_x, blocks_y, block * block, bins)


def test_block_norms_bounded(rng):
    img = rng.uniform(0, 255, size=(48, 48))
    values, layout = hog_descriptor(img)
    blocks = values.reshape(-1, layout[2] * layout[3])
    norms = np.linalg.norm(blocks, axis=1)
    assert np.all(norms <= 1.0 + 1e-9)
    assert np.all(values >= 0.0)


def test_scaling_pixels_scales_raw_votes_but_not_blocks(rng):
    img = rng.uniform(1, 100, size=(32, 32))
    c = 3.7
    hist = cell_histograms(img)
    scaled_hist = cell_histograms(c * img)
    np.testing.assert_allclose(scaled_hist, c * hist, rtol=1e-9)
    values, _ = hog_descriptor(img)
    scaled_values, _ = hog_descriptor(c * img)
    np.testing.assert_allclose(scaled_values, values, atol=1e-6)


def test_rejects_frames_without_a_full_block():
    with pytest.raises(DimensionError):
        hog_descriptor(np.zeros((15, 8)))  # one cell tall, default block is 2x2
    with pytest.raises(DimensionError):
        descriptor_layout((8, 8))
    with pytest.raises(DimensionError):
        hog_descriptor(np.zeros((120, 160))[:, :0])


def test_config_validation():
    with pytest.raises(ValueError):
        HogConfig(cell_size=1)
    with pytest.raises(ValueError):
        HogConfig(num_bins=1)
    with pytest.raises(ValueError):
        HogConfig(block_size=0)
    with pytest.raises(ValueError):
        HogConfig(block_stride=0)
    with pytest.raises(ValueError):
        HogConfig(normalization_epsilon=0.0)


# ---------------------------------------------------------------------------
# Vote table: uint8 frames look their votes up, every other dtype computes them

GRADIENTS = np.arange(-255, 256)


def _key(dx, dy):
    return (np.asarray(dx) + 255) * 511 + (np.asarray(dy) + 255)


def _same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _table_columns(num_bins):
    """The vote table as (bin_lo, bin_hi, w_lo, w_hi), in the order _votes returns them."""
    bins, weights = hog._vote_table(num_bins)
    return bins[:, 0], bins[:, 1], weights[:, 0], weights[:, 1]


@pytest.mark.parametrize("num_bins", [2, 9, 12])
def test_vote_table_equals_formula_on_every_pair(num_bins):
    table = _table_columns(num_bins)
    assert all(a.size == 511 * 511 for a in table)
    dx, dy = (g.ravel() for g in np.meshgrid(GRADIENTS, GRADIENTS, indexing="ij"))
    # every pair in a shuffled order, so a misplaced row or column shows
    order = np.random.default_rng(num_bins).permutation(dx.size)
    dx, dy = dx[order], dy[order]
    expected = hog._votes(dx.astype(np.float64), dy.astype(np.float64), num_bins)
    key = _key(dx, dy)
    for got, want in zip(table, expected):
        np.testing.assert_array_equal(got[key], want)
    for got, want in zip(table[2:], expected[2:]):
        assert _same_bytes(got[key], want)


def test_vote_table_equals_formula_on_scalar_pairs():
    bin_lo, bin_hi, w_lo, w_hi = _table_columns(9)
    rng = np.random.default_rng(5)
    edges = [(a, b) for a in (-255, -1, 0, 1, 255) for b in GRADIENTS[::5]]
    pairs = edges + [(b, a) for a, b in edges] + list(zip(*rng.integers(-255, 256, (2, 1500))))
    for dx, dy in pairs:
        want = hog._votes(np.float64(dx), np.float64(dy), 9)
        key = _key(dx, dy)
        assert [bin_lo[key], bin_hi[key]] == [int(want[0]), int(want[1])], (dx, dy)
        assert [w_lo[key], w_hi[key]] == [float(want[2]), float(want[3])], (dx, dy)


def test_vote_table_is_compact_and_read_only():
    bins, weights = hog._vote_table(9)
    assert (bins.dtype, weights.dtype) == (np.uint8, np.float64)
    assert bins.nbytes + weights.nbytes <= 5_000_000
    assert not bins.flags.writeable and not weights.flags.writeable


def _frame(seed, shape, style):
    rng = np.random.default_rng(seed)
    if style == "binary":  # every gradient component in {-255, 0, 255}
        return (rng.integers(0, 2, shape) * 255).astype(np.uint8)
    if style == "smooth":
        yy, xx = np.mgrid[0 : shape[0], 0 : shape[1]]
        return (127.5 + 127.5 * np.sin(xx / 3.0 + seed) * np.cos(yy / 5.0)).astype(np.uint8)
    return rng.integers(0, 256, shape, dtype=np.uint8)


@settings(max_examples=120, deadline=None)
@given(
    data=st.data(),
    num_bins=st.integers(2, 12),
    cell=st.integers(2, 8),
    block=st.integers(1, 3),
    stride=st.integers(1, 2),
    seed=st.integers(0, 2**32 - 1),
    style=st.sampled_from(["uniform", "binary", "smooth"]),
)
def test_uint8_frames_match_their_float_copy(data, num_bins, cell, block, stride, seed, style):
    config = HogConfig(cell_size=cell, block_size=block, num_bins=num_bins, block_stride=stride)
    least = max(3, cell * block)
    shape = (
        data.draw(st.integers(least, least + 2 * cell + 1)),
        data.draw(st.integers(least, least + 2 * cell + 1)),
    )
    img = _frame(seed, shape, style)
    hist = cell_histograms(img, config)
    assert _same_bytes(hist, cell_histograms(img.astype(np.float64), config))
    assert _same_bytes(hist, cell_histograms_oracle(img, cell, num_bins))
    values, layout = hog_descriptor(img, config)
    float_values, float_layout = hog_descriptor(img.astype(np.float64), config)
    assert layout == float_layout
    assert _same_bytes(values, float_values)


def _steps():
    """Frames whose gradients reach +-255 along rows, columns and both diagonals."""
    yy, xx = np.mgrid[0:40, 0:48]
    masks = (xx >= 24, yy >= 20, xx + yy >= 44, xx - yy >= 4, (xx // 3 + yy // 3) % 2 == 0)
    frames = [np.where(mask, 255, 0).astype(np.uint8) for mask in masks]
    return frames + [255 - f for f in frames] + [_frame(0, (48, 56), "binary")]


def test_full_scale_steps_match_the_formula():
    seen = set()
    for img in _steps():
        for config in (DEFAULT_CONFIG, HogConfig(cell_size=4, num_bins=6)):
            hist = cell_histograms(img, config)
            oracle = cell_histograms_oracle(img, config.cell_size, config.num_bins)
            assert _same_bytes(hist, oracle)
            assert _same_bytes(hist, cell_histograms(img.astype(np.float64), config))
        dx, dy = gradient(img)
        seen |= set(zip(dx.ravel().tolist(), dy.ravel().tolist()))
    assert {(a, b) for a in (-255.0, 0.0, 255.0) for b in (-255.0, 0.0, 255.0)} <= seen


def test_uint8_frames_take_the_table(rng, monkeypatch):
    img = rng.integers(0, 256, size=(24, 32), dtype=np.uint8)
    expected = cell_histograms(img)  # builds the table if no earlier test did

    def no_formula(*args):
        raise AssertionError("a uint8 frame applied the vote formula")

    monkeypatch.setattr(hog, "_votes", no_formula)
    assert _same_bytes(cell_histograms(img), expected)


@pytest.mark.parametrize(
    "img",
    [
        np.array([[0, 300, 65535, 7], [256, 1, 40000, 999], [5, 70, 1000, 12345]] * 6,
                 dtype=np.uint16)[:, [0, 1, 2, 3] * 5],
        (np.arange(18 * 21).reshape(18, 21) * 37 % 256 - 128).astype(np.int8),
    ],
    ids=["uint16", "int8"],
)
def test_other_dtypes_take_the_formula(img, monkeypatch):
    def no_table(*args):
        raise AssertionError(f"a {img.dtype} frame looked its votes up")

    monkeypatch.setattr(hog, "_vote_table", no_table)
    config = HogConfig(cell_size=4)
    hist = cell_histograms(img, config)
    assert _same_bytes(hist, cell_histograms_oracle(img, 4, 9))
    gx, gy = gradient(img)
    assert max(np.abs(gx).max(), np.abs(gy).max()) > 255 or img.min() < 0


@pytest.mark.parametrize(
    "shape, config",
    [
        ((64,), DEFAULT_CONFIG),                     # not 2-D
        ((4, 4, 4), DEFAULT_CONFIG),                 # not 2-D
        ((2, 12), HogConfig(cell_size=2, block_size=1)),  # under the 3-pixel kernel
        ((12, 2), HogConfig(cell_size=2, block_size=1)),
        ((15, 8), DEFAULT_CONFIG),                   # no full block
        ((120, 0), DEFAULT_CONFIG),
    ],
)
def test_uint8_dimension_errors_are_unchanged(shape, config):
    img = np.zeros(shape, dtype=np.uint8)
    with pytest.raises(DimensionError) as float_error:
        cell_histograms(img.astype(np.float64), config)
    with pytest.raises(DimensionError) as uint8_error:
        cell_histograms(img, config)
    assert str(uint8_error.value) == str(float_error.value)
    with pytest.raises(DimensionError):
        hog_descriptor(img, config)


def test_formula_folds_an_angle_that_rounds_to_180():
    # column 0 has dx = 1e17 and dy = -1 or -2: the angle mod 180 rounds to 180.0
    yy, xx = np.mgrid[0:16, 0:16].astype(np.float64)
    img = xx * 1e17 - yy
    _, theta = gradient_field(img)
    assert np.all(theta[:, 0] == 0.0)
    config = HogConfig(cell_size=4)
    assert _same_bytes(cell_histograms(img, config), cell_histograms_oracle(img, 4, 9))
