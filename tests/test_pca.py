"""Covariance-method PCA: both eigendecomposition routes, files, errors."""

import sys
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from photonrc import pca as pca_module
from photonrc import pipeline
from photonrc.cache import CacheRows, CacheWriter, chunk_stops, read_cache, read_cache_header
from photonrc.errors import DimensionError, NumericalError, ParseError, RankError
from photonrc.pca import (
    _fix_signs,
    fit_pca,
    load_pca_model,
    save_pca_model,
    transform,
)

from _oracles import fix_signs_oracle, pca_fit_oracle


def _data_with_diagonal_covariance(n, variances, rng):
    """Rows whose sample covariance is exactly diag(variances)."""
    d = len(variances)
    A = rng.standard_normal((n, d))
    A -= A.mean(axis=0)
    Q, _ = np.linalg.qr(A)
    return Q * np.sqrt((n - 1) * np.asarray(variances))


def test_recovers_known_diagonal_covariance(rng):
    variances = [4.0, 1.0, 0.0]
    X = _data_with_diagonal_covariance(50, variances, rng)
    model, _ = fit_pca(X, 2)
    np.testing.assert_allclose(model.eigenvalues, [4.0, 1.0], rtol=1e-6)
    # axis-aligned data: components are the coordinate axes themselves
    expected = np.eye(3)[:2]
    np.testing.assert_allclose(model.components, expected, atol=1e-8)
    assert model.total_variance == pytest.approx(5.0, rel=1e-9)


def test_matches_direct_covariance_eigendecomposition(rng):
    X = rng.standard_normal((50, 10)) * rng.uniform(0.5, 3.0, size=10)
    model, _ = fit_pca(X, 10)
    Z = X - X.mean(axis=0)
    vals, vecs = np.linalg.eigh(Z.T @ Z / 49)
    np.testing.assert_allclose(model.eigenvalues, vals[::-1], rtol=1e-9, atol=1e-12)
    for i in range(10):
        dot = abs(model.components[i] @ vecs[:, 9 - i])
        assert dot == pytest.approx(1.0, abs=1e-8)


def test_full_rank_reconstruction_is_lossless(rng):
    X = rng.standard_normal((50, 10))
    model, _ = fit_pca(X, 10)
    back = transform(model, X) @ model.components + model.mean
    np.testing.assert_allclose(back, X, atol=1e-8)


def test_transforming_the_mean_gives_zero(rng):
    X = rng.standard_normal((30, 6)) + 5.0
    model, _ = fit_pca(X, 3)
    out = transform(model, model.mean)
    assert out.shape == (3,)
    np.testing.assert_allclose(out, 0.0, atol=1e-12)


def test_projected_training_variance_equals_eigenvalue(rng):
    X = rng.standard_normal((200, 30)) @ rng.standard_normal((30, 30))
    model, _ = fit_pca(X, 12)
    proj = transform(model, X)
    var = proj.var(axis=0, ddof=1)
    np.testing.assert_allclose(var, model.eigenvalues, rtol=1e-6)


def test_orthogonal_input_projects_to_zero(rng):
    X = rng.standard_normal((40, 8))
    model, _ = fit_pca(X, 3)
    v = rng.standard_normal(8)
    v -= model.components.T @ (model.components @ v)
    out = transform(model, model.mean + v)
    np.testing.assert_allclose(out, 0.0, atol=1e-10)


def test_projection_idempotence(rng):
    X = rng.standard_normal((60, 15))
    model, _ = fit_pca(X, 5)
    proj = transform(model, X)
    again = transform(model, proj @ model.components + model.mean)
    np.testing.assert_allclose(again, proj, atol=1e-8)


def test_variance_accounting(rng):
    X = rng.standard_normal((80, 12)) * rng.uniform(0.1, 4.0, size=12)
    model, _ = fit_pca(X, 12)
    Z = X - X.mean(axis=0)
    trace = np.trace(Z.T @ Z / 79)
    assert model.eigenvalues.sum() == pytest.approx(trace, rel=1e-6)
    assert model.total_variance == pytest.approx(trace, rel=1e-6)
    assert model.explained_fraction() == pytest.approx(1.0, rel=1e-9)


def test_explained_fraction_nondecreasing_in_k(rng):
    X = rng.standard_normal((50, 10))
    fractions = [fit_pca(X, k)[0].explained_fraction() for k in range(1, 11)]
    assert all(a <= b + 1e-12 for a, b in zip(fractions, fractions[1:]))


def test_components_orthonormal_and_sign_fixed(rng):
    X = rng.standard_normal((70, 9))
    model, _ = fit_pca(X, 6)
    gram = model.components @ model.components.T
    np.testing.assert_allclose(gram, np.eye(6), atol=1e-8)
    peaks = model.components[np.arange(6), np.argmax(np.abs(model.components), axis=1)]
    assert np.all(peaks > 0)
    assert np.all(np.diff(model.eigenvalues) <= 1e-12)
    assert np.all(model.eigenvalues >= 0)


def test_wide_data_uses_gram_route_consistently(rng):
    X = rng.standard_normal((20, 50))  # fewer samples than features
    model, _ = fit_pca(X, 5)
    Z = X - X.mean(axis=0)
    vals, vecs = np.linalg.eigh(Z.T @ Z / 19)
    np.testing.assert_allclose(model.eigenvalues, vals[::-1][:5], rtol=1e-8)
    for i in range(5):
        dot = abs(model.components[i] @ vecs[:, 49 - i])
        assert dot == pytest.approx(1.0, abs=1e-8)
    # projected variance still matches the eigenvalues on the gram route
    proj = transform(model, X)
    np.testing.assert_allclose(proj.var(axis=0, ddof=1), model.eigenvalues, rtol=1e-6)


def test_gram_route_rejects_components_beyond_rank(rng):
    X = rng.standard_normal((5, 10))  # centered rank is at most 4
    with pytest.raises(DimensionError, match="rank is 4 at most"):
        fit_pca(X, 5)
    model, _ = fit_pca(X, 4)
    assert model.n_components == 4
    # three distinct rows, each twice: a centred rank of 2, below n - 1 = 5,
    # which only the eigensolve finds
    twice = np.repeat(rng.standard_normal((3, 10)), 2, axis=0)
    with pytest.raises(RankError, match="rank 2"):
        fit_pca(twice, 3)


@pytest.mark.parametrize(
    "n, k, error",
    [(6, 6, DimensionError), (6, 11, DimensionError), (6, 0, DimensionError), (1, 1, RankError)],
    ids=["gram-rank", "above-features", "no-components", "one-row"],
)
def test_a_shape_no_fit_can_take_is_refused_before_any_read(tmp_path, rng, monkeypatch, n, k,
                                                              error):
    path = tmp_path / "rows.rcf"
    with CacheWriter(path, 10) as writer:
        writer.append(rng.standard_normal((n, 10)))
    reads, solves = [], []
    read, eigh = CacheRows._read, pca_module.linalg.eigh

    def counted_read(self, fh, rows):
        reads.append(rows.size)
        return read(self, fh, rows)

    def counted_eigh(*args, **kwargs):
        solves.append(1)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(CacheRows, "_read", counted_read)
    monkeypatch.setattr(pca_module.linalg, "eigh", counted_eigh)
    with pytest.raises(error):
        fit_pca(CacheRows(path), k)
    assert reads == [] and solves == []
    if n > 1:  # the counters see a fit that can run
        fit_pca(CacheRows(path), 2)
        assert reads and solves == [1]


def test_fit_validation_errors(rng):
    with pytest.raises(RankError):
        fit_pca(rng.standard_normal((1, 4)), 1)
    with pytest.raises(DimensionError):
        fit_pca(rng.standard_normal((10, 4)), 0)
    with pytest.raises(DimensionError):
        fit_pca(rng.standard_normal((10, 4)), 5)
    with pytest.raises(DimensionError):
        fit_pca(rng.standard_normal(10), 1)


@pytest.mark.parametrize("shape", [(40, 12), (12, 40)], ids=["covariance", "gram"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_fit_rejects_data_that_is_not_finite(rng, monkeypatch, shape, bad):
    X = rng.standard_normal(shape)
    X[3, 5] = bad

    def eigh(*args, **kwargs):
        raise AssertionError("eigendecomposed data that is not finite")

    monkeypatch.setattr(scipy.linalg, "eigh", eigh)
    with pytest.raises(NumericalError, match="not finite"):
        fit_pca(X, 3)


def test_transform_validates_width(rng):
    model, _ = fit_pca(rng.standard_normal((10, 4)), 2)
    with pytest.raises(DimensionError):
        transform(model, rng.standard_normal((3, 5)))


def test_degenerate_data_clamps_eigenvalues(rng):
    row = rng.standard_normal(6)
    X = np.tile(row, (10, 1))
    X[0] += 1e-3
    model, _ = fit_pca(X, 2)
    assert np.all(model.eigenvalues >= 0.0)


def test_model_file_round_trip(tmp_path, rng):
    X = rng.standard_normal((25, 7))
    model, _ = fit_pca(X, 4)
    path = tmp_path / "pca.bin"
    save_pca_model(model, path)
    back = load_pca_model(path)
    np.testing.assert_array_equal(back.mean, model.mean)
    np.testing.assert_array_equal(back.eigenvalues, model.eigenvalues)
    np.testing.assert_array_equal(back.components, model.components)
    assert back.total_variance == model.total_variance
    assert back.n_samples == model.n_samples


def test_model_file_corruption_detected(tmp_path, rng):
    X = rng.standard_normal((25, 7))
    path = tmp_path / "pca.bin"
    save_pca_model(fit_pca(X, 4)[0], path)
    data = path.read_bytes()
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"XXXXXXXX" + data[8:])
    with pytest.raises(ParseError, match="magic"):
        load_pca_model(bad)
    cut = tmp_path / "cut.bin"
    cut.write_bytes(data[:-16])
    with pytest.raises(ParseError, match="truncated"):
        load_pca_model(cut)


def test_model_file_size_must_match_its_header(tmp_path, rng):
    path = tmp_path / "pca.bin"
    save_pca_model(fit_pca(rng.standard_normal((25, 7)), 4)[0], path)
    assert read_cache_header(path)[:2] == (4, 7)
    data = path.read_bytes()
    for name, body in (("half", data[: len(data) // 2]), ("long", data + b"\x00" * 8)):
        bad = tmp_path / f"{name}.bin"
        bad.write_bytes(body)
        for read in (read_cache_header, load_pca_model):
            with pytest.raises(ParseError, match="expected"):
                read(bad)


# ---------------------------------------------------------------------------
# One float64 copy of the data, sign fixing a block at a time

@pytest.mark.parametrize("shape", [(40, 12), (12, 40)], ids=["covariance", "gram"])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_fit_leaves_its_input_unchanged(rng, shape, dtype):
    X = (rng.standard_normal(shape) + 3.0).astype(dtype)
    before = X.copy()
    fit_pca(X, 5)
    assert X.dtype == dtype
    assert X.tobytes() == before.tobytes()


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("rows", [1, 63, 64, 65, 200])
def test_block_wise_sign_fix_equals_the_whole_array_rule(rng, order, rows):
    components = np.asarray(rng.standard_normal((rows, 30)), order=order)
    components[::5, 3] = 9.0   # ties between the largest entries
    components[::5, 7] = -9.0
    expected = fix_signs_oracle(components)
    before = components.copy()
    signs = _fix_signs(components)  # in place
    assert components.tobytes() == expected.tobytes()
    # the returned signs are the ones each row got
    assert set(signs.tolist()) <= {-1.0, 1.0}
    assert (before * signs[:, None]).tobytes() == expected.tobytes()


@pytest.mark.parametrize("shape", [(60, 9), (9, 60)], ids=["covariance", "gram"])
def test_fit_on_cache_rows_equals_fit_on_the_array(tmp_path, rng, shape):
    values = rng.standard_normal(shape).astype(np.float32)
    path = tmp_path / "c.rcf"
    with CacheWriter(path, shape[1]) as writer:
        writer.append(values)
    rows = np.arange(0, shape[0], 2)
    a = tmp_path / "a.bin"
    b = tmp_path / "b.bin"
    save_pca_model(fit_pca(values[rows], 4)[0], a)
    save_pca_model(fit_pca(CacheRows(path, rows), 4)[0], b)
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("shape", [(300, 20), (30, 300)], ids=["covariance", "gram"])
def test_saved_model_is_the_row_major_bytes_of_the_fit(tmp_path, rng, shape):
    model, _ = fit_pca(rng.standard_normal(shape), 20)
    assert model.components.flags.c_contiguous
    path = tmp_path / "pca.bin"
    save_pca_model(model, path)
    k, dim = model.components.shape
    body = path.read_bytes()[-8 * k * dim :]
    assert body == np.ascontiguousarray(model.components, dtype="<f8").tobytes()
    back = load_pca_model(path)
    assert back.components.flags.c_contiguous
    # the mean and eigenvalues are views into the meta, and the components
    # a view of the one buffer the body is read into, which holds nothing else
    base = back.mean.base
    assert base is not None and back.eigenvalues.base is base
    assert back.components.base.shape == (k * dim,)


# The eigenvectors overwrite the Gram (or covariance) matrix and the
# components overwrite the fit rows a column block at a time: D = 4,500 is
# cut into blocks of 1,024, 1,024, 1,024 and 1,428 columns (the short last
# one joined to the one before), or of 2,048 and 2,452 by default.  A block
# of a few hundred columns can take another BLAS code path than the one
# product, and round otherwise: with 256, the joined last block of 404
# columns did
@pytest.mark.parametrize("block_cols", [1024, None])
@pytest.mark.parametrize(
    "shape, k",
    [((300, 4500), 299), ((300, 4500), 3), ((400, 60), 60), ((400, 60), 3)],
    ids=["gram-rank", "gram-small-k", "covariance-rank", "covariance-small-k"],
)
def test_in_place_fit_equals_the_two_buffer_fit(rng, monkeypatch, shape, k, block_cols):
    if block_cols is not None:
        monkeypatch.setattr(pca_module, "_BLOCK_COLS", block_cols)
    data = rng.standard_normal(shape).astype(np.float32)
    model, scores = fit_pca(data, k)
    mean, eigenvalues, components, expected_scores = pca_fit_oracle(data, k)
    assert model.mean.tobytes() == mean.tobytes()
    assert model.eigenvalues.tobytes() == eigenvalues.tobytes()
    assert model.components.shape == (k, shape[1]) and model.components.flags.c_contiguous
    assert model.components.tobytes() == components.tobytes()
    if expected_scores is None:
        assert scores is None
    else:
        assert scores.tobytes() == expected_scores.tobytes()


def test_a_traced_fit_equals_an_untraced_fit(rng):
    # a Python-level tracer (sys.settrace, as pdb and python -m trace set)
    # keeps a snapshot of the fit's locals, one more reference to the array
    # whose rows past k the Gram route frees in place; D = 5,000 is cut into
    # blocks of 2,048 and 2,952 columns
    data = rng.standard_normal((300, 5000))
    model, scores = fit_pca(data, 200)

    def tracer(frame, event, arg):
        return tracer

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        traced, traced_scores = fit_pca(data, 200)
    finally:
        sys.settrace(previous)
    assert traced.components.tobytes() == model.components.tobytes()
    assert traced_scores.tobytes() == scores.tobytes()


@pytest.mark.parametrize("shape", [(400, 3000), (1000, 200)], ids=["gram", "covariance"])
def test_the_eigensolve_holds_no_fit_row(tmp_path, rng, monkeypatch, shape):
    # the data is freed once the Gram (or covariance) matrix is formed: on
    # entry to eigh the fit holds that m x m matrix and no copy of the
    # 400 x 3,000 (9.6 MB) or 1,000 x 200 (1.6 MB) float64 centred rows
    path = tmp_path / "c.rcf"
    with CacheWriter(path, shape[1]) as writer:
        writer.append(rng.standard_normal(shape))
    real = pca_module.linalg.eigh
    held = []

    def traced_eigh(*args, **kwargs):
        held.append(tracemalloc.get_traced_memory()[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(pca_module.linalg, "eigh", traced_eigh)
    tracemalloc.start()
    try:
        model, _ = fit_pca(CacheRows(path), 20)
    finally:
        tracemalloc.stop()
    m = min(shape)
    assert len(held) == 1 and held[0] < 8 * m * m + (1 << 20)
    assert model.components.shape == (20, shape[1])


# the projection's 128-row blocks: 300 rows are 128 and 172 (a short last 44
# joined to the one before), 356 rows 128, 128 and 100
@pytest.mark.parametrize("rows", [1, 127, 300, 356])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_a_blocked_transform_rounds_like_one_product(tmp_path, rng, monkeypatch, rows, dtype):
    # pipeline.project's blocks give the bytes of one product over every row:
    # in float64, as transform returns them, and in float32, as the feature
    # cache stores them
    model, _ = fit_pca(rng.standard_normal((200, 3000)), 50)
    values = rng.standard_normal((rows, 3000)).astype(np.float32)
    hog = tmp_path / "hog.rcf"
    with CacheWriter(hog, values.shape[1]) as writer:
        writer.append(values)
    blocks = []

    def kept(model, block):
        blocks.append(transform(model, block))
        return blocks[-1]

    monkeypatch.setattr(pipeline, "transform", kept)
    pipeline.project(model, hog, tmp_path / "features.rcf")
    assert len(blocks) == len(chunk_stops(rows, pipeline._PROJECT_ROWS))
    got = np.concatenate(blocks) if dtype is np.float64 else read_cache(tmp_path / "features.rcf")[0]
    one = np.subtract(values, model.mean, dtype=np.float64) @ model.components.T
    assert got.tobytes() == one.astype(dtype).tobytes()
