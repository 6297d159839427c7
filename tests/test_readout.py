"""Ridge-trained linear readout: targets, solvers, NMSE, model files."""

import ast
import os
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photonrc import cache, readout
from photonrc.cache import CacheRows, CacheWriter, read_cache_header
from photonrc.errors import (
    DegenerateTargetError,
    DimensionError,
    LabelError,
    ParseError,
    SingularError,
)
from photonrc.readout import (
    ReadoutModel,
    _levels,
    _mirror_upper,
    apply_readout,
    encode_targets,
    load_readout_model,
    nmse,
    normal_equations,
    nmse_per_output,
    save_readout_model,
    train_ridge,
)
from photonrc.reservoir import RESPONSE
from _oracles import count_ridge_routes, ridge_oracle


# ---------------------------------------------------------------------------
# Target encoding

def test_single_class_rows():
    np.testing.assert_array_equal(encode_targets([0]), [[1, 0, 0, 0, 0, 0]])
    targets = encode_targets([5, 5, 5])
    assert targets.shape == (3, 6)
    np.testing.assert_array_equal(targets, np.tile([0, 0, 0, 0, 0, 1], (3, 1)))


def test_rows_are_one_hot(rng):
    classes = rng.integers(0, 6, size=200)
    targets = encode_targets(classes)
    assert targets.shape == (200, 6)
    np.testing.assert_array_equal(targets.sum(axis=1), np.ones(200))
    np.testing.assert_array_equal(np.argmax(targets, axis=1), classes)


def test_row_count_matches_manifest(tiny_manifest):
    from photonrc.dataset import index_frames

    index = index_frames(tiny_manifest)
    targets = encode_targets(index.actions)
    assert targets.shape[0] == sum(s.frame_count for s in tiny_manifest.sequences)


def test_unknown_labels_rejected():
    with pytest.raises(LabelError):
        encode_targets([0, 6])
    with pytest.raises(LabelError):
        encode_targets([-1])


# ---------------------------------------------------------------------------
# Training

def test_identity_design_matrix_copies_targets(rng):
    D = rng.standard_normal((8, 6))
    model = train_ridge(np.eye(8), D, ridge_lambda=0.0)
    np.testing.assert_allclose(model.weights, D.T, atol=1e-12)


def test_matches_normal_equations_oracle(rng):
    X = rng.standard_normal((50, 20))
    D = rng.standard_normal((50, 6))
    model = train_ridge(X, D, ridge_lambda=0.1)
    expected = ridge_oracle(X, D, 0.1)
    np.testing.assert_allclose(model.weights.T, expected, atol=1e-8)


def test_shrinkage_is_monotone_in_lambda(rng):
    X = rng.standard_normal((40, 10))
    D = rng.standard_normal((40, 6))
    lams = [0.0, 0.01, 0.1, 1.0, 10.0, 1e4]
    norms = [np.linalg.norm(train_ridge(X, D, ridge_lambda=l).weights) for l in lams]
    assert all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))
    assert norms[-1] < 1e-2 * norms[0]


def test_underdetermined_interpolates_training_data(rng):
    X = rng.standard_normal((100, 1024))
    D = rng.standard_normal((100, 6))
    model = train_ridge(X, D, ridge_lambda=0.0)
    outputs = apply_readout(model, X)
    assert np.max(np.abs(outputs - D)) <= 1e-6


def test_dual_route_satisfies_primal_equations(rng):
    X = rng.standard_normal((30, 80))
    D = rng.standard_normal((30, 6))
    lam = 0.3
    model = train_ridge(X, D, ridge_lambda=lam)
    W = model.weights.T
    lhs = X.T @ (X @ W) + lam * W
    rhs = X.T @ D
    np.testing.assert_allclose(lhs, rhs, atol=1e-8 * np.linalg.norm(rhs))


def test_ridge_solution_minimizes_the_regularized_cost(rng):
    X = rng.standard_normal((25, 8))
    D = rng.standard_normal((25, 6))
    lam = 0.5
    W = train_ridge(X, D, ridge_lambda=lam).weights.T

    def cost(M):
        return np.linalg.norm(X @ M - D) ** 2 + lam * np.linalg.norm(M) ** 2

    base = cost(W)
    for _ in range(100):
        direction = rng.standard_normal(W.shape)
        direction /= np.linalg.norm(direction)
        assert cost(W + 1e-3 * direction) >= base - 1e-12


def test_default_lambda_is_scale_adaptive(rng):
    X = rng.standard_normal((30, 12))
    D = rng.standard_normal((30, 6))
    model = train_ridge(X, D)
    expected = 1e-4 * np.sum(X * X) / 12
    assert model.ridge_lambda == pytest.approx(expected, rel=1e-12)
    assert normal_equations(X, D).default_lambda == model.ridge_lambda
    # scaling the data scales the default the same way
    assert train_ridge(3.0 * X, D).ridge_lambda == pytest.approx(9.0 * expected, rel=1e-12)


def test_rank_deficient_unregularized_system_fails(rng):
    X = rng.standard_normal((20, 5))
    X[:, 4] = X[:, 3]  # exactly collinear columns
    D = rng.standard_normal((20, 6))
    with pytest.raises(SingularError):
        train_ridge(X, D, ridge_lambda=0.0)
    model = train_ridge(X, D, ridge_lambda=1e-6)  # any regularization rescues it
    assert np.all(np.isfinite(model.weights))


def test_training_validation_errors(rng):
    X = rng.standard_normal((10, 4))
    D = rng.standard_normal((10, 6))
    with pytest.raises(ValueError):
        train_ridge(X, D, ridge_lambda=-1.0)
    for bad in (np.nan, np.inf, -np.inf, -1e-12):
        with pytest.raises(ValueError, match="ridge_lambda"):
            train_ridge(X, D, ridge_lambda=bad)
    with pytest.raises(DimensionError):
        train_ridge(X, D[:9])
    with pytest.raises(DimensionError):
        train_ridge(X[0], D)


@pytest.mark.parametrize("rows", [30, 8])  # the primal and the dual route
def test_shared_normal_equations_train_each_lambda_alike(rng, rows):
    states = rng.uniform(0, 2 * np.pi, size=(rows, 12)).astype(np.float32)
    D = encode_targets(rng.integers(0, 6, size=rows))
    normal = normal_equations(states, D)
    assert normal.primal == (rows >= 12)
    for lam in (None, 1e-3, 0.5):
        alone = train_ridge(states, D, lam)
        shared = train_ridge(states, D, lam, normal=normal)
        assert shared.weights.tobytes() == alone.weights.tobytes()
        assert shared.ridge_lambda == alone.ridge_lambda
    with pytest.raises(ValueError, match="other states"):
        train_ridge(states[:-1], D[:-1], 0.1, normal=normal)


# layouts of a (rows, cols) view into a larger float64 array
LAYOUTS = {
    "C": lambda a, r, c: np.ascontiguousarray(a[:r, :c]),
    "F": lambda a, r, c: np.asfortranarray(a[:r, :c]),
    "row-strided": lambda a, r, c: a[: 2 * r : 2, :c],
    "column-sliced": lambda a, r, c: a[:r, 3 : 3 + c],
    "column-strided": lambda a, r, c: a[:r, : 2 * c : 2],
}


def _integer_levels(states):
    """rint(1023 x) of readings x, in float64: the integers j of x = j / 1023."""
    return np.rint(1023.0 * np.asarray(states, dtype=np.float64))


def _readings(levels):
    """The float32 readings j / 1023 of integer levels j, as a state cache holds them."""
    return (np.asarray(levels) / 1023).astype(np.float32)


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("rows, cols", [(150, 100), (100, 300)], ids=["primal", "dual"])
def test_normal_equations_gram_is_exactly_symmetric_for_every_layout(rng, layout, rows, cols):
    # the Cholesky solve factors the Gram's upper triangle, and the residual
    # check reads its lower one; summed in integer levels, both equal the
    # whole integer Gram's, which is exactly symmetric, for any row layout
    big = RESPONSE[rng.integers(0, 256, size=(2 * rows, 2 * cols + 3))]
    X = LAYOUTS[layout](big, rows, cols)
    assert X.shape == (rows, cols)
    gram = normal_equations(X, encode_targets(rng.integers(0, 6, size=rows))).gram
    K = _integer_levels(X)
    whole = K.T @ K if rows >= cols else K @ K.T
    assert gram.shape == (min(rows, cols),) * 2
    assert np.array_equal(gram, whole)
    assert np.array_equal(whole, whole.T)


def _state_cache(path, states):
    with CacheWriter(path, states.shape[1]) as writer:
        writer.append(states)
    return CacheRows(path)


@pytest.mark.parametrize(
    "rows, top, chunk_rows",
    [
        pytest.param(600, 1023, 128, id="600"),  # the primal route, in float64
        pytest.param(300, 1023, 128, id="300"),  # the dual route
        # the primal route in float32: chunks of 512 and 688 rows, whose
        # float64 levels would outgrow the budget by 1.7 MB
        pytest.param(1200, 15, 512, id="float32"),
    ],
)
def test_ridge_training_holds_one_gram_and_two_chunks(tmp_path, rng, monkeypatch, rows, top,
                                                       chunk_rows):
    # the train rows stay in a state cache, read a chunk at a time
    monkeypatch.setattr(cache, "CHUNK_ROWS", chunk_rows)
    n = 400
    states = _state_cache(tmp_path / "states.rcf", _readings(rng.integers(0, top + 1, (rows, n))))
    D = encode_targets(rng.integers(0, 6, size=rows))
    tracemalloc.start()
    try:
        train_ridge(states, D, 1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if rows >= n and rows * top**2 <= 2**24:
        # the N x N Gram, one longest chunk in float32, converted in place,
        # and one float32 panel of K'K
        longest = max(np.diff([0] + cache.chunk_stops(rows)))
        budget = 8 * n * n + 4 * longest * n + 4 * readout._PANEL * n
    elif rows >= n:
        # the N x N Gram and two of the longest chunks in float64 levels
        budget = 8 * n * n + 2 * 8 * (3 * chunk_rows // 2) * n
    else:
        # the rows x rows Gram, and every row read in float32 and as levels
        budget = 8 * rows * rows + 12 * rows * n
    # slack: the mask of cho_factor's finiteness check, and 256 kB for the
    # (N, 6) and (T, 6) arrays
    assert peak < budget + min(rows, n) ** 2 + (1 << 18)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 40), cols=st.integers(1, 24))
def test_level_sums_are_exact_for_any_chunking_and_layout(seed, rows, cols):
    # readings j / 1023 as the grid's stack holds them, a column-strided
    # float32 view, and as the pipeline's state cache holds them
    rng = np.random.default_rng(seed)
    stack = RESPONSE.astype(np.float32)[rng.integers(0, 256, size=(rows, 2 * cols))]
    X = stack[:, ::2]
    D = encode_targets(rng.integers(0, 6, size=rows))
    K = _integer_levels(X)
    whole = K.T @ K if rows >= cols else K @ K.T
    seen = set()
    with tempfile.TemporaryDirectory() as tmp:
        cached = _state_cache(os.path.join(tmp, "states.rcf"), X)
        for chunk_rows in (1, 7, 1024):
            for states in (X, cached):
                with mock.patch.object(cache, "CHUNK_ROWS", chunk_rows):
                    normal = normal_equations(states, D)
                    assert np.array_equal(normal.gram, whole)
                    assert np.array_equal(normal.rhs, K.T @ D)
                    assert normal.default_lambda == 1e-4 * (np.sum(K * K) / 1023**2) / cols
                    for lam in (None, 1e-3):
                        try:
                            model = train_ridge(states, D, lam)
                            seen.add((lam, model.ridge_lambda, model.weights.tobytes()))
                        except SingularError as exc:  # every chunking alike
                            seen.add((lam, str(exc)))
    assert len(seen) == 2


def _float64_route(states, D, lambdas=()):
    """normal_equations of ``states`` and the weights of each lambda, every
    chunk summed in float64 levels as before the float32 sums."""
    with pytest.MonkeyPatch.context() as patch:
        count_ridge_routes(patch, float64=True)
        normal = normal_equations(states, D)
        return normal, [_train_or_fail(states, D, lam) for lam in lambdas]


def _train_or_fail(states, D, lam):
    try:
        model = train_ridge(states, D, lam)
        return model.ridge_lambda, model.weights.tobytes()
    except SingularError as exc:
        return str(exc)


def test_the_float32_reading_test_is_the_float64_one():
    # a reading's level j is rint(1023 x) in float32, and x is a reading
    # when j / 1023 in float32 is x; the float64 levels take j / 1023 in float64
    j = np.arange(1024)
    np.testing.assert_array_equal(
        j.astype(np.float32) / np.float32(1023), (j / 1023).astype(np.float32)
    )
    # so the readings of j = 0 ... 1023 take the float32 levels j, as their
    # float64 readings take the float64 ones, and their neighbours and every
    # other level's take float64 levels that are not readings
    x = _readings(j)
    K = _levels(x[None, :])
    assert K.dtype == np.float32 and np.array_equal(K[0], j)
    K = _levels(j[None, :] / 1023)
    assert K.dtype == np.float64 and np.array_equal(K[0], j)
    others = [
        np.nextafter(x, np.float32(-np.inf)), np.nextafter(x, np.float32(np.inf)),
        _readings([-1, 1024, 1025, 2046]),
    ]
    for value in np.concatenate(others):
        k = _levels(np.array([[value]]))[0, 0]
        assert k.dtype == np.float64
        assert not (k == np.rint(k) and 0 <= k <= 1023 and _readings(k) == value)


def test_the_level_of_a_float32_non_reading_is_its_float64_product():
    # float32(0.1) is no reading; 1023 times it is 102.30000152438879, where
    # a float32 product rounds to 102.30000305175781
    x = np.array([[0.1, 5 / 1023, 0.5]], dtype=np.float32)
    K = _levels(x)
    assert K.dtype == np.float64
    assert K[0].tolist() == [1023 * float(x[0, 0]), 5.0, 1023 * float(x[0, 2])]
    assert K[0, 0] == 102.30000152438879


@pytest.mark.parametrize("in_place", [False, True])
def test_a_block_that_is_no_reading_leaves_the_rows_as_they_were(rng, in_place):
    # the first two 32-row blocks take float32 levels before the third fails
    x = _readings(rng.integers(0, 1024, size=(80, 7)))
    x[70, 3] = 0.5
    before = x.copy()
    K = _levels(x, in_place)
    assert K.dtype == np.float64
    assert x.tobytes() == before.tobytes()
    assert np.array_equal(K, np.where(x == 0.5, 511.5, _integer_levels(x)))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    top=st.one_of(st.sampled_from([128, 256, 512]), st.integers(128, 1023)),
    side=st.sampled_from([-1, 0, 1]),
    chunks=st.integers(1, 3),
    cols=st.integers(1, 12),
)
def test_float32_sums_equal_the_integer_oracle_on_both_sides_of_the_bound(
    seed, top, side, chunks, cols
):
    # chunks of rows * top^2 just below, at (2^24 when top is a power of
    # two) and just above 2^24; one column at top everywhere takes its
    # diagonal to the bound
    rng = np.random.default_rng(seed)
    chunk = 2**24 // top**2 + side
    rows = chunk * chunks
    J = rng.integers(0, top + 1, size=(rows, cols))
    J[:, rng.integers(cols)] = top
    X = _readings(J)
    D = encode_targets(rng.integers(0, 6, size=rows))
    K = J.astype(np.int64)
    lambdas = (None, 1e-3)
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        patch.setattr(cache, "CHUNK_ROWS", chunk)
        path = Path(tmp) / "states.rcf"
        cached = _state_cache(path, X)
        before = X.tobytes(), path.read_bytes()
        parent, trained = _float64_route(X, D, lambdas)
        for states in (X, cached):
            routes = count_ridge_routes(patch)
            normal = normal_equations(states, D)
            float32 = chunk * top**2 <= 2**24
            assert routes == {"float32": chunks * float32, "float64": chunks * (not float32)}
            assert np.array_equal(normal.gram, (K.T @ K).astype(np.float64))
            assert np.array_equal(normal.rhs, (K.T @ D.astype(np.int64)).astype(np.float64))
            assert normal.gram.tobytes() == parent.gram.tobytes()
            assert normal.rhs.tobytes() == parent.rhs.tobytes()
            assert normal.default_lambda == parent.default_lambda
            assert [_train_or_fail(states, D, lam) for lam in lambdas] == trained
        assert (X.tobytes(), path.read_bytes()) == before


# a chunk the float32 sums refuse: each case's value lands at row 73, in
# the second 32-row block of the second of three chunks (40, 40, 20 rows)
REFUSED = {
    "nan": np.nan,
    "inf": np.inf,
    "negative": -3 / 1023,
    "not a reading": 0.5,
    "level above 1023": 1024 / 1023,
    # a reading, but 40 * 1023^2 > 2^24: the bound alone refuses it
    "past the bound": 1.0,
}
# the cases whose levels are integers, which an int64 oracle sums
INTEGER = ("past the bound", "targets not one-hot")


@pytest.mark.parametrize("case", [*REFUSED, "targets not one-hot"])
def test_a_chunk_the_float32_sums_refuse_gives_the_float64_bytes(tmp_path, rng, monkeypatch, case):
    monkeypatch.setattr(cache, "CHUNK_ROWS", 40)
    X = _readings(rng.integers(0, 16, size=(100, 8)))
    D = encode_targets(rng.integers(0, 6, size=100))
    if case in REFUSED:
        X[73, 5] = REFUSED[case]
    else:
        D[73] *= 2
    path = tmp_path / "states.rcf"
    cached = _state_cache(path, X)
    before = X.tobytes(), path.read_bytes()
    with np.errstate(invalid="ignore"):  # inf * 0 in the float64 sums
        parent, trained = _float64_route(X, D, (None, 1e-3))
        for states in (X, cached):
            routes = count_ridge_routes(monkeypatch)
            normal = normal_equations(states, D)
            # only the refused chunk takes the float64 sums: the others
            # hold levels below 16, which no bound refuses
            assert routes == {"float32": 2, "float64": 1}
            for name in ("gram", "rhs"):
                assert getattr(normal, name).tobytes() == getattr(parent, name).tobytes()
            if case in INTEGER:
                K = _integer_levels(X).astype(np.int64)
                assert np.array_equal(normal.gram, (K.T @ K).astype(np.float64))
                assert np.array_equal(normal.rhs, (K.T @ D.astype(np.int64)).astype(np.float64))
            assert [_train_or_fail(states, D, lam) for lam in (None, 1e-3)] == trained
    assert (X.tobytes(), path.read_bytes()) == before


def test_one_routine_adds_into_a_gram():
    # both routes and both level types add K'K by _add_gram, and nothing
    # else adds into a slice of an array in readout.py; dsyrk is not called
    tree = ast.parse(Path(readout.__file__).read_text(encoding="utf-8"))
    names = {node.attr if isinstance(node, ast.Attribute) else node.id
             for node in ast.walk(tree) if isinstance(node, (ast.Attribute, ast.Name))}
    assert "dsyrk" not in names
    adders = {
        function.name
        for function in tree.body if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
        if isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Subscript)
        and any(isinstance(index, ast.Slice) for index in ast.walk(node.target.slice))
    }
    assert adders == {"_add_gram"}


@pytest.mark.parametrize("rows", [30, 8])  # the primal and the dual route
def test_a_shared_normal_is_left_unchanged(rng, rows):
    states = rng.uniform(0, 1, size=(rows, 12))
    D = encode_targets(rng.integers(0, 6, size=rows))
    normal = normal_equations(states, D)
    assert normal.states is states  # an array's rows are read where they are
    before = [a.tobytes() for a in (states, normal.gram, normal.rhs)]
    shared = train_ridge(states, D, 0.01, normal=normal)
    assert [a.tobytes() for a in (states, normal.gram, normal.rhs)] == before
    alone = train_ridge(states, D, 0.01)
    assert states.tobytes() == before[0]
    assert shared.weights.tobytes() == alone.weights.tobytes()


# ---------------------------------------------------------------------------
# Applying the readout

def test_zero_weights_give_zero_outputs(rng):
    model = ReadoutModel(weights=np.zeros((6, 10)), ridge_lambda=0.0)
    out = apply_readout(model, rng.standard_normal((7, 10)))
    np.testing.assert_array_equal(out, np.zeros((7, 6)))


def test_single_row_gives_the_six_dot_products(rng):
    W = rng.standard_normal((6, 5))
    model = ReadoutModel(weights=W, ridge_lambda=0.0)
    x = rng.standard_normal(5)
    out = apply_readout(model, x)
    assert out.shape == (6,)
    np.testing.assert_allclose(out, W @ x, atol=1e-12)


def test_readout_is_linear(rng):
    model = ReadoutModel(weights=rng.standard_normal((6, 9)), ridge_lambda=0.0)
    A = rng.standard_normal((11, 9))
    B = rng.standard_normal((11, 9))
    combined = apply_readout(model, A + B)
    separate = apply_readout(model, A) + apply_readout(model, B)
    np.testing.assert_allclose(combined, separate, atol=1e-9)


def test_apply_readout_gives_one_set_of_bytes_for_arrays_and_caches(tmp_path, rng, monkeypatch):
    # 200 rows in chunks of 64, 64 and 72: the short last one joins
    monkeypatch.setattr(cache, "CHUNK_ROWS", 64)
    stack = RESPONSE.astype(np.float32)[rng.integers(0, 256, size=(200, 60))]
    X = stack[:, ::2]  # column-strided, as the grid's stack holds a group
    model = ReadoutModel(weights=rng.standard_normal((6, 30)), ridge_lambda=0.0)
    outputs = [
        apply_readout(model, states).tobytes()
        for states in (X, np.ascontiguousarray(X), _state_cache(tmp_path / "s.rcf", X))
    ]
    assert outputs[0] == outputs[1] == outputs[2]
    np.testing.assert_allclose(
        apply_readout(model, X), X.astype(np.float64) @ model.weights.T, rtol=1e-12
    )


def test_apply_readout_checks_width(rng):
    model = ReadoutModel(weights=np.zeros((6, 4)), ridge_lambda=0.0)
    with pytest.raises(DimensionError):
        apply_readout(model, rng.standard_normal((3, 5)))


def test_model_validation():
    with pytest.raises(ValueError):
        ReadoutModel(weights=np.array([[np.nan]]), ridge_lambda=0.0)


# ---------------------------------------------------------------------------
# NMSE

def test_nmse_perfect_output_is_zero(rng):
    d = rng.standard_normal(50)
    assert nmse(d, d) == 0.0


def test_nmse_mean_predictor_is_one(rng):
    d = rng.standard_normal(50)
    y = np.full(50, d.mean())
    assert nmse(y, d) == 1.0


def test_nmse_constant_offset(rng):
    d = rng.standard_normal(200)
    c = 0.7
    var = np.mean((d - d.mean()) ** 2)
    assert nmse(d + c, d) == pytest.approx(c * c / var, rel=1e-10)


def test_nmse_invariant_under_joint_affine_maps(rng):
    y = rng.standard_normal(80)
    d = rng.standard_normal(80)
    base = nmse(y, d)
    for a, b in [(2.0, 0.0), (-0.5, 3.0), (10.0, -7.0)]:
        assert nmse(a * y + b, a * d + b) == pytest.approx(base, rel=1e-9)


def test_nmse_errors(rng):
    with pytest.raises(DegenerateTargetError):
        nmse(rng.standard_normal(10), np.full(10, 2.0))
    with pytest.raises(DimensionError):
        nmse(np.zeros(5), np.zeros(6))
    with pytest.raises(DimensionError):
        nmse(np.zeros(1), np.zeros(1))


def test_nmse_per_output_marks_constant_columns(rng):
    D = rng.standard_normal((30, 3))
    D[:, 1] = 4.0
    Y = rng.standard_normal((30, 3))
    out = nmse_per_output(Y, D)
    assert np.isnan(out[1])
    assert np.isfinite(out[[0, 2]]).all()
    assert out[0] == nmse(Y[:, 0], D[:, 0])


# ---------------------------------------------------------------------------
# Model files

def test_readout_file_round_trip(tmp_path, rng):
    model = ReadoutModel(weights=rng.standard_normal((6, 17)), ridge_lambda=0.031)
    path = tmp_path / "readout.bin"
    save_readout_model(model, path)
    back = load_readout_model(path)
    np.testing.assert_array_equal(back.weights, model.weights)
    assert back.ridge_lambda == model.ridge_lambda


def test_readout_file_corruption_detected(tmp_path, rng):
    model = ReadoutModel(weights=rng.standard_normal((6, 5)), ridge_lambda=0.1)
    path = tmp_path / "readout.bin"
    save_readout_model(model, path)
    data = path.read_bytes()
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"WRONG!!!" + data[8:])
    with pytest.raises(ParseError, match="magic"):
        load_readout_model(bad)
    cut = tmp_path / "cut.bin"
    cut.write_bytes(data[:-8])
    with pytest.raises(ParseError, match="truncated"):
        load_readout_model(cut)
    long = tmp_path / "long.bin"
    long.write_bytes(data + b"\x00" * 8)
    with pytest.raises(ParseError, match="trailing bytes"):
        load_readout_model(long)


def test_readout_header_reads_the_shape_without_the_weights(tmp_path, rng):
    model = ReadoutModel(weights=rng.standard_normal((6, 5)), ridge_lambda=0.25)
    path = tmp_path / "readout.bin"
    save_readout_model(model, path)
    rows, cols, meta = read_cache_header(path)
    assert (rows, cols, meta.tolist()) == (6, 5, [0.25])


@pytest.mark.parametrize("damage", ["header", "short", "long"])
def test_readout_file_size_must_match_its_header(tmp_path, rng, damage):
    path = tmp_path / "readout.bin"
    save_readout_model(ReadoutModel(weights=rng.standard_normal((6, 5)), ridge_lambda=0.1), path)
    data = path.read_bytes()
    path.write_bytes({"header": data[:20], "short": data[:-1], "long": data + b"\x00"}[damage])
    for read in (read_cache_header, load_readout_model):
        with pytest.raises(ParseError, match="expected"):
            read(path)


@pytest.mark.parametrize("n", [1, 63, 64, 65, 300])
def test_tiled_mirror_copies_the_upper_triangle_onto_the_lower(rng, n):
    gram = np.asfortranarray(rng.standard_normal((n, n)))
    expected = np.where(np.tri(n, k=-1, dtype=bool), gram.T, gram)
    assert _mirror_upper(gram) is gram
    assert gram.flags.f_contiguous
    assert gram.tobytes(order="F") == np.asfortranarray(expected).tobytes(order="F")
