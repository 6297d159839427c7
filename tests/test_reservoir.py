"""Quantizers, matrix generation, and the reservoir recurrence in both its forms."""

import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import sparse

from _oracles import (
    first_coincidence,
    intensity_response_oracle,
    quantize_intensity_oracle,
    quantize_phase_oracle,
    run_reservoir_oracle,
    sample_offdiagonal_oracle,
)
from photonrc.errors import NumericalError, ParseError, SchemaError
from photonrc.reservoir import (
    DRIVE_ROWS,
    INTENSITY_LEVELS,
    PHASE_LEVELS,
    PHASE_STEP,
    RESPONSE,
    TWO_PI,
    VARIANTS,
    HyperParams,
    ReservoirMatrices,
    ReservoirSpec,
    coupling_count,
    detect,
    generate_matrices,
    load_reservoir_spec,
    phase_code,
    quantize_intensity,
    quantize_phase,
    run_reservoir,
    sample_offdiagonal,
    save_reservoir_spec,
    stack_matrices,
    step_intensity,
    step_phase,
)

PHASE_GRID = np.arange(PHASE_LEVELS) * PHASE_STEP
INTENSITY_GRID = np.arange(INTENSITY_LEVELS) / (INTENSITY_LEVELS - 1)


def _one_node(weight, input_weight):
    return ReservoirMatrices(
        weights=sparse.csr_array(np.array([[float(weight)]])),
        input_weights=np.array([[float(input_weight)]]),
    )


# ---------------------------------------------------------------------------
# Quantizers

def test_phase_quantizer_outputs_lie_on_grid(rng):
    x = rng.uniform(-50.0, 50.0, size=2000)
    q = quantize_phase(x)
    assert np.all(np.isin(q, PHASE_GRID))


def test_phase_quantizer_fixes_grid_points():
    np.testing.assert_array_equal(quantize_phase(PHASE_GRID), PHASE_GRID)


def test_phase_quantizer_idempotent(rng):
    x = rng.uniform(-20.0, 20.0, size=500)
    q = quantize_phase(x)
    np.testing.assert_array_equal(quantize_phase(q), q)


def test_phase_quantizer_truncates(rng):
    y = rng.uniform(0.0, TWO_PI, size=1000)
    q = quantize_phase(y)
    gap = y - q
    assert np.all(gap >= 0.0)
    assert np.all(gap < PHASE_STEP * (1 + 1e-12))


def test_phase_quantizer_boundary_values():
    assert quantize_phase(0.0) == 0.0
    assert quantize_phase(TWO_PI) == 0.0
    assert quantize_phase(np.pi / 2) == np.pi / 2  # level 64 is exactly representable
    assert quantize_phase(1.0) == 40 * PHASE_STEP  # floor(256 / (2 pi)) = 40
    assert quantize_phase(1.0) == pytest.approx(0.98175, abs=5e-6)


def test_intensity_quantizer_outputs_lie_on_grid(rng):
    y = rng.uniform(-1.0, 2.0, size=2000)
    q = quantize_intensity(y)
    assert np.all(np.isin(q, INTENSITY_GRID))


def test_intensity_quantizer_idempotent(rng):
    q = quantize_intensity(rng.uniform(0.0, 1.0, size=500))
    np.testing.assert_array_equal(quantize_intensity(q), q)


def test_intensity_quantizer_clips_and_rounds():
    assert quantize_intensity(-0.5) == 0.0
    assert quantize_intensity(0.0) == 0.0
    assert quantize_intensity(1.0) == 1.0
    assert quantize_intensity(1.7) == 1.0
    assert quantize_intensity(0.5) == 512.0 / 1023.0  # 511.5 rounds up


def test_intensity_quantizer_rounds_half_up():
    # the codes of these intensities are exactly k + 0.5, which round up to k + 1
    for k in (0, 1, 511, 1021):
        y = (k + 0.5) / 1023
        assert y * 1023 == k + 0.5
        assert quantize_intensity(y) == (k + 1) / 1023


def test_intensity_response_chain():
    assert RESPONSE[phase_code(0.0)] == 0.0
    assert RESPONSE[phase_code(np.pi / 2)] == 1.0
    assert np.all(np.isin(RESPONSE[phase_code(np.linspace(-5, 5, 200))], INTENSITY_GRID))


# ---------------------------------------------------------------------------
# Hyperparameters and matrix generation

def test_hyperparams_validation():
    with pytest.raises(ValueError):
        HyperParams(-0.1, 0.01, 0.1, 0.01)
    with pytest.raises(ValueError):
        HyperParams(0.8, -1.0, 0.1, 0.01)
    with pytest.raises(ValueError):
        HyperParams(0.8, 0.01, 0.1, 1.5)
    for gain in ("feedback_gain", "input_gain", "coupling_gain", "coupling_density"):
        for value in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match=gain):
                HyperParams(**{gain: value})


def test_coupling_count_rounds():
    assert coupling_count(1024, 0.01) == 10486  # round(0.01 * 1024^2)
    assert coupling_count(10, 0.0) == 0
    assert coupling_count(4, 0.75) == 12


def test_sample_offdiagonal_properties(rng):
    rows, cols = sample_offdiagonal(rng, 10, 40)
    assert rows.shape == cols.shape == (40,)
    assert np.all(rows != cols)
    assert np.all((rows >= 0) & (rows < 10))
    assert np.all((cols >= 0) & (cols < 10))
    pairs = set(zip(rows.tolist(), cols.tolist()))
    assert len(pairs) == 40


def test_sample_offdiagonal_can_fill_every_slot(rng):
    rows, cols = sample_offdiagonal(rng, 4, 12)
    pairs = set(zip(rows.tolist(), cols.tolist()))
    expected = {(r, c) for r in range(4) for c in range(4) if r != c}
    assert pairs == expected
    with pytest.raises(OverflowError):
        sample_offdiagonal(rng, 4, 13)


@pytest.mark.parametrize("n", [1, 2, 33, 300, 1024])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sample_offdiagonal_matches_scalar_floyd_draws(n, seed):
    count = min(coupling_count(n, 0.01) + 1, n * n - n)
    fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
    rows, cols = sample_offdiagonal(fast, n, count)
    pos = sample_offdiagonal_oracle(slow, n, count)
    # the linear off-diagonal index of (row, col), as the oracle counts them
    assert (rows * (n - 1) + cols - (cols > rows)).tolist() == pos
    # the generator is left where the scalar loop leaves it
    assert fast.integers(0, 2**62) == slow.integers(0, 2**62)


def test_generated_matrices_structure():
    params = HyperParams(0.8, 0.01, 0.1, 0.01)
    m = generate_matrices(1024, 2, params, seed=5)
    dense_diag = m.weights.diagonal()
    np.testing.assert_array_equal(dense_diag, np.full(1024, 0.8))
    assert m.weights.nnz == 10486 + 1024
    off = m.weights.copy()
    off.setdiag(0.0)
    off.eliminate_zeros()
    assert off.nnz == 10486
    assert np.max(np.abs(off.data)) <= 0.1
    assert np.max(np.abs(m.input_weights)) <= 0.01
    assert m.input_weights.shape == (1024, 2)


def test_vanishing_density_gives_pure_diagonal():
    params = HyperParams(0.5, 0.1, 0.2, 1e-6)
    m = generate_matrices(16, 2, params, seed=1)
    np.testing.assert_array_equal(m.weights.toarray(), 0.5 * np.eye(16))


def test_full_density_overflows():
    # a density no reservoir of 8 nodes can hold is a configuration error
    with pytest.raises(ValueError, match="only 56 off-diagonal slots exist"):
        generate_matrices(8, 2, HyperParams(0.8, 0.01, 0.1, 1.0), seed=0)


def test_same_seed_reproduces_matrices_exactly():
    params = HyperParams(0.7, 0.02, 0.3, 0.05)
    a = generate_matrices(64, 3, params, seed=123)
    b = generate_matrices(64, 3, params, seed=123)
    np.testing.assert_array_equal(a.input_weights, b.input_weights)
    np.testing.assert_array_equal(a.weights.toarray(), b.weights.toarray())
    c = generate_matrices(64, 3, params, seed=124)
    assert not np.array_equal(a.input_weights, c.input_weights)


def test_input_weights_drawn_first_from_the_seed():
    # the documented stream order starts with the input matrix, so it must
    # equal the first n*k uniform draws of a fresh generator
    params = HyperParams(0.8, 0.05, 0.1, 0.02)
    m = generate_matrices(32, 4, params, seed=77)
    expected = 0.05 * np.random.default_rng(77).uniform(-1.0, 1.0, size=(32, 4))
    np.testing.assert_array_equal(m.input_weights, expected)


def test_gain_changes_leave_other_draws_untouched():
    base = HyperParams(0.8, 0.01, 0.1, 0.05)
    m1 = generate_matrices(32, 2, base, seed=9)
    # input gain only scales the input matrix
    m2 = generate_matrices(32, 2, HyperParams(0.8, 0.02, 0.1, 0.05), seed=9)
    np.testing.assert_array_equal(m2.input_weights, 2.0 * m1.input_weights)
    np.testing.assert_array_equal(m2.weights.toarray(), m1.weights.toarray())
    # coupling gain only scales off-diagonal values, positions fixed
    m3 = generate_matrices(32, 2, HyperParams(0.8, 0.01, 0.3, 0.05), seed=9)
    np.testing.assert_array_equal(m3.input_weights, m1.input_weights)
    d1 = m1.weights.toarray() - np.diag(m1.weights.diagonal())
    d3 = m3.weights.toarray() - np.diag(m3.weights.diagonal())
    np.testing.assert_array_equal(d1 != 0, d3 != 0)
    np.testing.assert_allclose(d3, 3.0 * d1, rtol=1e-15)
    # feedback gain only moves the diagonal
    m4 = generate_matrices(32, 2, HyperParams(0.4, 0.01, 0.1, 0.05), seed=9)
    np.testing.assert_array_equal(m4.weights.diagonal(), np.full(32, 0.4))
    d4 = m4.weights.toarray() - np.diag(m4.weights.diagonal())
    np.testing.assert_array_equal(d4, d1)


# ---------------------------------------------------------------------------
# Dynamics

def test_single_node_intensity_step():
    # zero feedback, unit input weight, drive pi/2: the phase grid holds
    # pi/2 exactly (level 64) and sin^2 saturates the detector
    m = _one_node(weight=0.0, input_weight=1.0)
    states = run_reservoir(m, [[np.pi / 2]])
    assert states.shape == (1, 1)
    assert states[0, 0] == 1.0


def test_single_node_phase_step():
    # unit feedback, no input, from phase pi/2: the couplings read
    # f(pi/2) = 1.0, q8(1.0) sits at level 40, and the run returns its reading
    m = _one_node(weight=1.0, input_weight=0.0)
    start = np.array([np.pi / 2])
    states = run_reservoir(m, [[0.0]], initial_state=detect(start))
    assert states[0, 0] == RESPONSE.astype(np.float32)[40]
    assert states[0, 0] == np.float32(quantize_intensity(np.sin(0.98175) ** 2))
    assert states[0, 0] == np.float32(detect(step_phase(m, start, np.zeros(1)))[0])


@pytest.mark.parametrize("code", [32, 96])
def test_phase_reading_at_a_rounding_tie_is_the_loop_response(code):
    # sin^2 = 1/2 at these codes, where q10 rounds a tie: the float32 reading a
    # state cache stores is the entry of RESPONSE that the loop feeds back
    m = _one_node(weight=0.0, input_weight=1.0)
    states = run_reservoir(m, [[code * PHASE_STEP]])
    assert states[0, 0] == RESPONSE.astype(np.float32)[code]


def test_zero_state_zero_input_is_fixed_point():
    params = HyperParams(0.8, 0.01, 0.1, 0.05)
    m = generate_matrices(16, 2, params, seed=3)
    states = run_reservoir(m, np.zeros((4, 2)))
    np.testing.assert_array_equal(states, np.zeros((4, 16)))


def test_empty_input_stream_gives_empty_states():
    m = generate_matrices(8, 2, HyperParams(0.8, 0.01, 0.1, 0.05), seed=3)
    states = run_reservoir(m, np.empty((0, 2)))
    assert states.shape == (0, 8) and states.dtype == np.float32


def test_run_matches_manual_step_composition(rng):
    params = HyperParams(0.6, 0.2, 0.3, 0.3)
    m = generate_matrices(2, 2, params, seed=11)
    inputs = rng.uniform(-1.0, 1.0, size=(3, 2))
    states = run_reservoir(m, inputs)
    x = np.zeros(2)
    for t in range(3):
        x = step_intensity(m, x, m.input_weights @ inputs[t])
        np.testing.assert_array_equal(states[t], x.astype(np.float32))


def test_states_stay_on_their_grids(rng):
    params = HyperParams(0.9, 0.5, 0.4, 0.2)
    m = generate_matrices(12, 3, params, seed=21)
    inputs = rng.uniform(-2.0, 2.0, size=(40, 3))
    # a run returns detector readings, as the state cache stores them
    assert np.all(np.isin(run_reservoir(m, inputs), RESPONSE.astype(np.float32)))


def test_trajectories_are_deterministic(rng):
    params = HyperParams(0.8, 0.1, 0.1, 0.1)
    m = generate_matrices(10, 2, params, seed=4)
    inputs = rng.uniform(-1, 1, size=(25, 2))
    a = run_reservoir(m, inputs)
    b = run_reservoir(m, inputs)
    np.testing.assert_array_equal(a, b)


def test_span_resets_match_independent_runs(rng):
    params = HyperParams(0.8, 0.3, 0.2, 0.2)
    m = generate_matrices(6, 2, params, seed=8)
    inputs = rng.uniform(-1, 1, size=(10, 2))
    whole = run_reservoir(m, inputs, spans=_spans([0, 4, 10]))
    first = run_reservoir(m, inputs[:4])
    second = run_reservoir(m, inputs[4:])
    np.testing.assert_array_equal(whole[:4], first)
    np.testing.assert_array_equal(whole[4:], second)
    # without spans the state carries across the boundary
    carried = run_reservoir(m, inputs)
    assert not np.array_equal(carried, whole)


def test_run_reservoir_validation(rng):
    m = generate_matrices(4, 3, HyperParams(0.8, 0.1, 0.1, 0.1), seed=0)
    with pytest.raises(SchemaError):
        run_reservoir(m, np.zeros((5, 2)))
    with pytest.raises(SchemaError):
        run_reservoir(m, np.zeros((5, 3)), initial_state=np.zeros(3))


def test_sparsity_pattern_survives_simulation(rng):
    params = HyperParams(0.8, 0.1, 0.2, 0.1)
    m = generate_matrices(10, 2, params, seed=14)
    before = m.weights.copy()
    run_reservoir(m, rng.uniform(-1, 1, size=(30, 2)))
    np.testing.assert_array_equal(m.weights.indptr, before.indptr)
    np.testing.assert_array_equal(m.weights.indices, before.indices)
    np.testing.assert_array_equal(m.weights.data, before.data)


def test_first_coincidence_cases():
    a = np.zeros((5, 2))
    b = np.zeros((5, 2))
    assert first_coincidence(a, b) == 0
    b2 = b.copy()
    b2[1, 0] = 1.0
    assert first_coincidence(a, b2) == 2
    b3 = b.copy()
    b3[4, 1] = 1.0
    assert first_coincidence(a, b3) is None


def test_fading_memory_is_reported_not_fatal():
    """Two random initial states driven identically should coincide quickly.

    This is an empirical property with no proven bound, so a shortfall is
    reported as a warning rather than a failure; the acceptance suite runs
    the full-strength version of this check.
    """
    params = HyperParams(0.8, 0.01, 0.1, 0.01)
    coincided = 0
    trials = 5
    for trial in range(trials):
        m = generate_matrices(1024, 10, params, seed=3000 + trial)
        rng = np.random.default_rng(4000 + trial)
        inputs = rng.uniform(-1.0, 1.0, size=(60, 10))
        x0 = quantize_intensity(rng.uniform(0.0, 1.0, size=1024))
        a = run_reservoir(m, inputs)
        b = run_reservoir(m, inputs, initial_state=x0)
        step = first_coincidence(a, b)
        if step is not None:
            coincided += 1
    if coincided < trials:
        warnings.warn(
            f"initial-state memory persisted in {trials - coincided} of {trials} trials",
            stacklevel=1,
        )


# ---------------------------------------------------------------------------
# The phase-code kernel against the float formulas it replaced

def _same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _spans(bounds):
    """The frame-index spans, (sequence_id, start, stop, action), that cut
    the rows at ``bounds``."""
    return [(f"s{i}", a, b, 0) for i, (a, b) in enumerate(zip(bounds[:-1], bounds[1:]))]


def _oracle_readings(matrices, inputs, form, initial_state=None, spans=None):
    """What :func:`run_reservoir` returns, by the float formulas of one form of
    the recurrence, and the reading it starts from.

    The intensity form steps the readings from ``initial_state`` itself; the
    phase form steps node phases from ``initial_state``, and its readings,
    its start included, are :func:`detect` of them.
    """
    states = run_reservoir_oracle(matrices, inputs, form, initial_state, spans)
    if form == "phase":
        states = detect(states)
        if initial_state is not None:
            initial_state = detect(initial_state)
    return states.astype(np.float32), initial_state


def _adversarial(levels):
    """Grid values, their one-ulp neighbours, 2pi shifts, signed zeros, large magnitudes."""
    grid = np.arange(levels + 2) * (TWO_PI / levels)
    near = np.concatenate([grid, np.nextafter(grid, np.inf), np.nextafter(grid, -np.inf)])
    shifted = [near + m * TWO_PI for m in (-3, -2, -1, 1, 2, 3)]
    special = [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, TWO_PI, -TWO_PI,
               np.nextafter(TWO_PI, 0.0), np.nextafter(-TWO_PI, 0.0),
               1e3, -1e3, np.nextafter(1e3, 0.0), 999.5, -999.5]
    return np.concatenate([near, -near, *shifted, special])


@pytest.mark.parametrize("levels", [PHASE_LEVELS])
def test_quantize_phase_matches_formula_on_adversarial_values(levels):
    x = _adversarial(levels)
    assert _same(quantize_phase(x), quantize_phase_oracle(x, levels))
    codes = phase_code(x)
    assert codes.min() >= 0 and codes.max() < levels


def test_intensity_response_matches_formula_on_adversarial_values():
    x = _adversarial(PHASE_LEVELS)
    assert _same(RESPONSE[phase_code(x)], intensity_response_oracle(x))
    assert _same(RESPONSE, intensity_response_oracle(PHASE_GRID))


def test_kernel_matches_formula_on_scalars():
    for x in (0.0, -0.0, 1.0, TWO_PI, -1e-300, 999.5):
        assert quantize_phase(x) == quantize_phase_oracle(x)
        assert RESPONSE[phase_code(x)] == intensity_response_oracle(x)


def test_phase_code_rejects_non_finite_phases():
    # with no RuntimeWarning from np.mod first
    for bad in (np.nan, np.inf, -np.inf):
        with warnings.catch_warnings(), pytest.raises(NumericalError, match="finite"):
            warnings.simplefilter("error")
            phase_code(np.array([0.5, bad]))


@pytest.mark.parametrize(
    "params",
    [HyperParams(input_gain=1e308), HyperParams(coupling_gain=1e308, coupling_density=0.5)],
    ids=["input-gain", "coupling-gain"],
)
def test_a_drive_that_overflows_is_a_numerical_error_not_a_warning(params):
    # the drive GEMM, or the couplings' sum, overflows to inf
    matrices = generate_matrices(16, 4, params, seed=1)
    with warnings.catch_warnings(), pytest.raises(NumericalError, match="finite"):
        warnings.simplefilter("error")
        run_reservoir(matrices, np.full((20, 4), 3.0))


_phases = arrays(
    np.float64, st.integers(1, 64), elements=st.floats(-1e3, 1e3, allow_subnormal=True)
)


@settings(max_examples=300, deadline=None)
@given(x=_phases)
def test_quantize_phase_matches_formula(x):
    assert _same(quantize_phase(x), quantize_phase_oracle(x))


@settings(max_examples=300, deadline=None)
@given(x=_phases)
def test_intensity_response_matches_formula(x):
    assert _same(RESPONSE[phase_code(x)], intensity_response_oracle(x))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 16),
    steps=st.integers(0, 24),
    scale=st.sampled_from([0.1, 3.0, 300.0]),
    cuts=st.lists(st.integers(0, 24), max_size=3),
    off_grid_start=st.booleans(),
)
def test_run_reservoir_matches_step_by_step_formulas(
    seed, n, steps, scale, cuts, off_grid_start
):
    rng = np.random.default_rng(seed)
    params = HyperParams(
        feedback_gain=rng.uniform(0.0, 1.5),
        input_gain=rng.uniform(0.0, 1.0),
        coupling_gain=rng.uniform(0.0, 1.0),
        coupling_density=rng.uniform(0.0, 0.4),
    )
    m = generate_matrices(n, 3, params, seed=seed)
    inputs = scale * rng.uniform(-1.0, 1.0, size=(steps, 3))
    bounds = sorted({0, steps, *(c for c in cuts if c < steps)})
    spans = _spans(bounds) if cuts else None
    # from the zero state the two forms of the recurrence read the same bytes,
    # and run_reservoir reads them too
    zero = np.zeros(n)
    got = run_reservoir(m, inputs, spans=spans)
    for form in VARIANTS:
        want, start = _oracle_readings(m, inputs, form, initial_state=zero, spans=spans)
        assert _same(start, zero)
        assert _same(got, want), form
    # and from a start off both grids, as the intensity form's readings or as
    # the phase form's phases
    if off_grid_start:
        x0 = rng.uniform(-10.0, 10.0, size=n)
        for form in VARIANTS:
            want, start = _oracle_readings(m, inputs, form, initial_state=x0, spans=spans)
            got = run_reservoir(m, inputs, initial_state=start, spans=spans)
            assert _same(got, want), form

    # the public single steps, from an arbitrary state
    x = rng.uniform(-10.0, 10.0, size=n)
    drive = scale * rng.uniform(-1.0, 1.0, size=n)
    assert _same(
        step_intensity(m, x, drive), intensity_response_oracle(m.weights @ x + drive)
    )
    s = np.sin(x)
    fed = quantize_intensity_oracle(s * s)
    assert _same(step_phase(m, x, drive), quantize_phase_oracle(m.weights @ fed + drive))
    # x = f(phi): a phase step reads what a step of its reading reads
    assert _same(detect(step_phase(m, x, drive)), step_intensity(m, detect(x), drive))


@pytest.mark.parametrize("form", VARIANTS)
def test_run_reservoir_matches_formulas_at_scale(form, rng):
    m = generate_matrices(256, 8, HyperParams(0.8, 0.05, 0.1, 0.02), seed=5)
    inputs = rng.normal(size=(60, 8)) * 4.0
    spans = _spans([0, 25, 60])
    x0 = rng.uniform(-7.0, 7.0, size=256)
    want, start = _oracle_readings(m, inputs, form, initial_state=x0, spans=spans)
    assert _same(run_reservoir(m, inputs, initial_state=start, spans=spans), want)


@pytest.mark.parametrize("form", VARIANTS)
def test_run_reservoir_drive_blocks_match_one_gemm(form, rng):
    # two drive blocks, the last of them with an 88-row or a 1-row tail
    # joined to it, and spans that cross the block edge
    rows = DRIVE_ROWS
    m = generate_matrices(256, 8, HyperParams(0.8, 0.05, 0.1, 0.02), seed=5)
    for bounds in ([0, rows - 56, 2 * rows + 1, 2 * rows + 88], [0, rows - 56, 2 * rows + 1]):
        inputs = rng.normal(size=(bounds[-1], 8)) * 4.0
        spans = _spans(bounds)
        want, _ = _oracle_readings(m, inputs, form, spans=spans)
        assert _same(run_reservoir(m, inputs, spans=spans), want)


# the start of each part: arbitrary values, or the readings of arbitrary phases
@pytest.mark.parametrize("form", VARIANTS)
def test_stacked_reservoirs_step_as_the_separate_ones(form, rng):
    parts = [
        generate_matrices(n, 6, HyperParams(fg, 0.3, 0.4, 0.05), seed=seed)
        for n, fg, seed in ((40, 0.8, 1), (17, 1.2, 2), (40, 0.1, 1))
    ]
    stack = stack_matrices(parts)
    assert stack.n_nodes == 97 and stack.input_dim == 6
    inputs = rng.normal(size=(300, 6)) * 3.0
    x0 = rng.uniform(-7.0, 7.0, size=97)
    if form == "phase":
        x0 = detect(x0)
    spans = _spans([0, 120, 300])
    got = run_reservoir(stack, inputs, initial_state=x0, spans=spans)
    start = 0
    for m in parts:
        stop = start + m.n_nodes
        alone = run_reservoir(m, inputs, initial_state=x0[start:stop], spans=spans)
        assert _same(got[:, start:stop], alone)
        start = stop
    assert stack_matrices(parts[:1]) is parts[0]


def test_reservoir_weights_carry_int32_indices(rng):
    parts = [generate_matrices(n, 3, HyperParams(0.8, 0.01, 0.1, 0.05), seed=n) for n in (40, 17)]
    for m in (*parts, stack_matrices(parts)):
        assert m.weights.indices.dtype == np.int32 and m.weights.indptr.dtype == np.int32
        # the spmv does the same float operations as with 8-byte indices
        wide = sparse.csr_array(
            (m.weights.data, m.weights.indices.astype(np.int64), m.weights.indptr.astype(np.int64)),
            shape=m.weights.shape,
        )
        x = rng.uniform(-7.0, 7.0, size=m.n_nodes)
        assert (m.weights @ x).tobytes() == (wide @ x).tobytes()


# ---------------------------------------------------------------------------
# Spec files

def test_reservoir_spec_round_trip(tmp_path):
    spec = ReservoirSpec(
        n_nodes=128,
        input_dim=24,
        params=HyperParams(0.8, 0.01, 0.1, 0.01),
        seed=42,
    )
    path = tmp_path / "spec.json"
    save_reservoir_spec(spec, path)
    assert "variant" not in json.loads(path.read_text())
    assert load_reservoir_spec(path) == spec
    # a spec file written when specs named a variant loads to the same spec
    for variant in VARIANTS:
        old = tmp_path / f"{variant}.json"
        old.write_text(json.dumps({**json.loads(path.read_text()), "variant": variant}))
        assert load_reservoir_spec(old) == spec
    m = spec.build()
    assert m.input_weights.shape == (128, 24)


def test_reservoir_spec_validation(tmp_path):
    params = HyperParams(0.8, 0.01, 0.1, 0.01)
    path = tmp_path / "bad.json"
    path.write_text("{ nope")
    with pytest.raises(ParseError):
        load_reservoir_spec(path)
    path.write_text("{}")
    with pytest.raises(SchemaError):
        load_reservoir_spec(path)
    sound = dict(n_nodes=8, input_dim=2, params=params, seed=0)
    for field in ("n_nodes", "input_dim"):
        for count in (0, -3):
            with pytest.raises(ValueError, match=f"{field} must be at least 1"):
                ReservoirSpec(**{**sound, field: count})
            save_reservoir_spec(ReservoirSpec(**sound), path)
            text = path.read_text()
            path.write_text(text.replace(f'"{field}": {sound[field]}', f'"{field}": {count}'))
            with pytest.raises(SchemaError, match=f"{field} must be at least 1"):
                load_reservoir_spec(path)
    # an integer field must be a JSON integer: a boolean or a fraction is not
    # read as one
    save_reservoir_spec(ReservoirSpec(**sound), path)
    doc = json.loads(path.read_text())
    for field in ("n_nodes", "input_dim", "seed"):
        for bad in (True, 8.9, 8.0, "8"):
            path.write_text(json.dumps({**doc, field: bad}))
            with pytest.raises(SchemaError, match=f"{field} must be an integer"):
                load_reservoir_spec(path)
    # a gain must be a JSON number, and an integer gain loads as a float, so
    # the spec it loads to digests like the one a float gain gives
    for gain in params.as_dict():
        for bad in (True, "0.5", None, [0.5]):
            gains = {**doc["hyperparameters"], gain: bad}
            path.write_text(json.dumps({**doc, "hyperparameters": gains}))
            message = f"{path}: hyperparameters.{gain} must be a number"
            with pytest.raises(SchemaError, match=message):
                load_reservoir_spec(path)
    gains = {**doc["hyperparameters"], "feedback_gain": 1}
    path.write_text(json.dumps({**doc, "hyperparameters": gains}))
    loaded = load_reservoir_spec(path).params.feedback_gain
    assert loaded == 1.0 and type(loaded) is float
    for field, bad in [("hyperparameters", [0.8]), ("prng_family", 1)]:
        path.write_text(json.dumps({**doc, field: bad}))
        with pytest.raises(SchemaError, match=f"{path}: {field} must be an? "):
            load_reservoir_spec(path)
    # the file records the one family that reproduces the matrices, and a
    # spec that names another does not load
    assert doc["prng_family"] == "numpy-pcg64"
    path.write_text(json.dumps({**doc, "prng_family": "mersenne"}))
    with pytest.raises(SchemaError, match=f"{path}: unsupported prng_family 'mersenne'"):
        load_reservoir_spec(path)
    path.write_text(json.dumps({**doc, "hyperparameters": {"feedback_gain": 0.8}}))
    with pytest.raises(SchemaError, match="missing field 'hyperparameters.input_gain'"):
        load_reservoir_spec(path)
