"""Grid definitions, trial runs, checkpointing, and resume."""

import csv
import dataclasses
import json
import math

import numpy as np
import pytest

import photonrc.pipeline
import photonrc.tuning
from photonrc.cache import read_cache
from photonrc.dataset import Split, load_manifest
from photonrc.errors import ParseError, SchemaError
from photonrc.pipeline import prepare_data
from photonrc.reservoir import HyperParams
from photonrc.tuning import (
    LOG_FIELDS,
    CellGains,
    GridSpec,
    TrialResult,
    _result_row,
    _row_result,
    best_trial,
    default_grid,
    load_grid_spec,
    logged_trials,
    read_grid_log,
    run_grid,
    run_trial,
    save_grid_spec,
    sort_results,
)

N_NODES = 16


def _small_grid(**overrides):
    kwargs = dict(
        feedback_gain=(0.5, 0.7),
        input_gain=(0.01,),
        coupling_gain=(0.1,),
        coupling_density=(0.01,),
        n_nodes=N_NODES,
        seeds=(0,),
    )
    kwargs.update(overrides)
    return GridSpec(**kwargs)


@pytest.fixture(scope="module")
def prepared(tiny_features):
    return prepare_data(tiny_features["manifest_path"], tiny_features["features"])


# ---------------------------------------------------------------------------
# GridSpec

def test_empty_axis_rejected():
    with pytest.raises(ValueError, match="empty"):
        _small_grid(input_gain=())


def test_out_of_range_values_rejected_by_default():
    with pytest.raises(ValueError, match="outside default range"):
        _small_grid(feedback_gain=(2.0,))
    spec = _small_grid(feedback_gain=(2.0,), allow_out_of_range=True)
    assert spec.feedback_gain == (2.0,)


def test_unknown_variant_rejected():
    with pytest.raises(ValueError, match="variant"):
        _small_grid(variant="amplitude")


def test_cells_enumerate_the_product():
    spec = _small_grid(
        coupling_density=(0.01, 0.02), ridge_lambda=(None, 1e-3), seeds=(0, 1)
    )
    cells = spec.cells()
    assert spec.trial_count == 2 * 2 * 2 * 2 == len(cells) == len(set(cells))
    # last axis varies fastest
    assert cells[0] == (0.5, 0.01, 0.1, 0.01, None, 0)
    assert cells[1] == (0.5, 0.01, 0.1, 0.01, None, 1)
    assert cells[2] == (0.5, 0.01, 0.1, 0.01, 1e-3, 0)


@pytest.mark.parametrize("bad", [-1.0, -1e-12, math.nan, math.inf])
def test_invalid_lambda_rejected(bad, tmp_path):
    with pytest.raises(ValueError, match="ridge_lambda"):
        _small_grid(ridge_lambda=(None, bad))
    assert _small_grid(ridge_lambda=(None, 0.0, 2.5)).ridge_lambda == (None, 0.0, 2.5)
    path = tmp_path / "grid.json"
    save_grid_spec(_small_grid(), path)
    doc = json.loads(path.read_text())
    doc["ridge_lambda"] = [None, bad]
    path.write_text(json.dumps(doc))  # nan and inf as NaN and Infinity
    with pytest.raises(SchemaError, match="ridge_lambda"):
        load_grid_spec(path)


@pytest.mark.parametrize("n_nodes", [0, -4])
def test_node_count_below_one_rejected(n_nodes, tmp_path):
    with pytest.raises(ValueError, match="n_nodes must be at least 1"):
        _small_grid(n_nodes=n_nodes)
    path = tmp_path / "grid.json"
    save_grid_spec(_small_grid(), path)
    doc = json.loads(path.read_text())
    doc["n_nodes"] = n_nodes
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match="n_nodes must be at least 1"):
        load_grid_spec(path)


def test_default_grid_is_in_range():
    spec = default_grid()
    assert spec.trial_count == 15 * 5 * 5 * 4
    assert min(spec.feedback_gain) >= 0.1 and max(spec.feedback_gain) <= 1.5
    assert min(spec.input_gain) >= 1e-4 and max(spec.input_gain) <= 1.0


def test_grid_spec_file_round_trip(tmp_path):
    spec = _small_grid(ridge_lambda=(None, 0.25), variant="phase", seeds=(3, 4))
    path = tmp_path / "grid.json"
    save_grid_spec(spec, path)
    assert "null" in path.read_text()
    assert load_grid_spec(path) == spec


def test_grid_spec_file_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(ParseError):
        load_grid_spec(bad)
    incomplete = tmp_path / "incomplete.json"
    incomplete.write_text('{"feedback_gain": [0.5]}')
    with pytest.raises(SchemaError):
        load_grid_spec(incomplete)
    # the integer fields must be JSON integers and the flag a JSON boolean:
    # "false" would lift the range check, 16.9 would run 16 nodes
    path = tmp_path / "grid.json"
    save_grid_spec(_small_grid(), path)
    doc = json.loads(path.read_text())
    for field, bad in [
        ("n_nodes", 16.9), ("n_nodes", 16.0), ("n_nodes", True), ("n_nodes", "16"),
        ("seeds", [0, 1.5]), ("seeds", [False]), ("seeds", ["0"]),
        ("allow_out_of_range", "false"), ("allow_out_of_range", 0), ("allow_out_of_range", None),
    ]:
        path.write_text(json.dumps({**doc, field: bad}))
        kind = "a boolean" if field == "allow_out_of_range" else "an integer"
        with pytest.raises(SchemaError, match=f"{path}: {field} must be {kind}"):
            load_grid_spec(path)
    # each gain and lambda must be a JSON number (a lambda may be null), each
    # value list an array, and the variant a string
    for field, bad, kind in [
        ("feedback_gain", [True], "a number"), ("input_gain", ["0.5"], "a number"),
        ("coupling_gain", [None], "a number"), ("coupling_density", 0.05, "an array"),
        ("ridge_lambda", ["1e-3"], "a number"), ("ridge_lambda", [False], "a number"),
        ("seeds", 0, "an array"), ("variant", None, "a string"),
    ]:
        path.write_text(json.dumps({**doc, field: bad}))
        with pytest.raises(SchemaError, match=f"{path}: {field} must be {kind}"):
            load_grid_spec(path)
    # an integer where a number belongs loads as that number, as a float
    path.write_text(json.dumps({**doc, "feedback_gain": [1], "ridge_lambda": [0, None]}))
    spec = load_grid_spec(path)
    assert spec.feedback_gain == (1.0,) and spec.ridge_lambda == (0.0, None)
    assert type(spec.feedback_gain[0]) is float and type(spec.ridge_lambda[0]) is float


# ---------------------------------------------------------------------------
# Data preparation

def test_prepare_data_partitions_rows(prepared, tiny_features):
    total = tiny_features["n_frames"]
    assert prepared.features.shape == (total, 24)
    # a cache path binds as its CacheRows, which reads its rows as the cache stores them
    features = np.asarray(prepared.features)
    assert features.dtype == np.float32
    np.testing.assert_array_equal(features, read_cache(tiny_features["features"])[0])
    assert prepared.targets.shape == (total, 6)
    combined = np.sort(np.concatenate([prepared.train_rows, prepared.test_rows]))
    np.testing.assert_array_equal(combined, np.arange(total))
    assert len(prepared.test_spans) < len(prepared.all_spans)


def test_prepare_data_row_count_mismatch(tiny_features):
    with pytest.raises(SchemaError, match="rows"):
        prepare_data(
            tiny_features["manifest_path"], np.zeros((10, 4), dtype=np.float32)
        )


def test_validation_fraction_carves_train_split(tiny_features):
    manifest = load_manifest(tiny_features["manifest_path"])
    base = prepare_data(tiny_features["manifest_path"], tiny_features["features"])
    carved = prepare_data(
        tiny_features["manifest_path"],
        tiny_features["features"],
        validation_fraction=0.5,
        seed=0,
    )
    train_ids = {s.sequence_id for s in manifest.sequences if s.split is Split.TRAIN}
    # evaluation spans come from the original train split only
    assert {sid for sid, *_ in carved.test_spans} <= train_ids
    assert len(carved.test_spans) > 0
    # the real test rows are touched by neither side
    real_test = set(base.test_rows.tolist())
    assert real_test.isdisjoint(carved.train_rows.tolist())
    assert real_test.isdisjoint(carved.test_rows.tolist())
    # deterministic in the seed
    again = prepare_data(
        tiny_features["manifest_path"],
        tiny_features["features"],
        validation_fraction=0.5,
        seed=0,
    )
    np.testing.assert_array_equal(carved.test_rows, again.test_rows)


def test_validation_carve_gives_roles_by_position_not_by_id(tiny_manifest):
    # a Manifest built in code may repeat a sequence_id; give the first
    # validation sequence the id of the first train sequence the carve keeps
    carved = prepare_data(tiny_manifest, None, validation_fraction=0.5, seed=0)
    seqs = list(tiny_manifest.sequences)
    carved_ids = {sid for sid, *_ in carved.test_spans}
    kept = next(s for s in seqs if s.split is Split.TRAIN and s.sequence_id not in carved_ids)
    i = next(i for i, s in enumerate(seqs) if s.sequence_id in carved_ids)
    seqs[i] = dataclasses.replace(seqs[i], sequence_id=kept.sequence_id)
    shared = dataclasses.replace(tiny_manifest, sequences=tuple(seqs))
    again = prepare_data(shared, None, validation_fraction=0.5, seed=0)
    np.testing.assert_array_equal(again.train_rows, carved.train_rows)
    np.testing.assert_array_equal(again.test_rows, carved.test_rows)


# ---------------------------------------------------------------------------
# Trials and the grid loop

def test_run_trial_scores_and_reports(prepared):
    params = HyperParams(
        feedback_gain=0.5, input_gain=0.01, coupling_gain=0.1, coupling_density=0.01
    )
    result = run_trial(prepared, N_NODES, params, None, seed=0)
    assert result.status == "ok"
    assert 0.0 <= result.score <= 600.0
    assert result.nmse_per_class.shape == (6,)
    assert result.wall_time > 0
    # deterministic
    again = run_trial(prepared, N_NODES, params, None, seed=0)
    assert again.score == result.score
    np.testing.assert_array_equal(again.nmse_per_class, result.nmse_per_class)


def test_run_grid_logs_and_resumes(prepared, tmp_path):
    log = tmp_path / "grid_log.csv"
    spec = _small_grid()
    results = run_grid(spec, prepared, workers=1, log_path=log)
    assert len(results) == 2
    assert all(r.status == "ok" for r in results)
    assert len(log.read_text().splitlines()) == 3  # header + 2 rows

    # superset grid: the two finished cells are skipped on resume
    wider = _small_grid(feedback_gain=(0.5, 0.7, 0.9))
    resumed = run_grid(wider, prepared, workers=1, log_path=log, resume=True)
    assert len(resumed) == 3
    assert len(log.read_text().splitlines()) == 4  # one new row only
    by_key = {r.key(): r.score for r in resumed}
    for r in results:
        assert by_key[r.key()] == r.score


# the grid log's header as it is on disk; the columns are derived from
# HyperParams and ACTIONS, and may move only on purpose
LOG_HEADER = (
    "feedback_gain,input_gain,coupling_gain,coupling_density,ridge_lambda,seed,score,"
    "nmse_boxing,nmse_handclapping,nmse_handwaving,nmse_jogging,nmse_running,nmse_walking,"
    "wall_time,status,error\r\n"
)


def test_grid_log_header_is_pinned(prepared, tmp_path):
    log = tmp_path / "grid_log.csv"
    run_grid(_small_grid(), prepared, log_path=log)
    written = log.read_bytes()
    assert written.decode("utf-8").splitlines(keepends=True)[0] == LOG_HEADER
    # a resume with nothing left to run writes back the rows it read, byte for byte
    assert len(run_grid(_small_grid(), prepared, log_path=log, resume=True)) == 2
    assert log.read_bytes() == written


def test_resume_reruns_a_torn_last_row(prepared, tmp_path):
    log = tmp_path / "grid_log.csv"
    full = run_grid(_small_grid(), prepared, workers=1, log_path=log)
    first, _ = read_grid_log(log)
    torn = log.read_bytes()[:-40]  # a crash in the middle of the last row
    log.write_bytes(torn)
    assert [r.key() for r in read_grid_log(log)] == [first.key()]
    assert log.read_bytes() == torn  # the reader skips the torn row and writes nothing
    resumed = run_grid(_small_grid(), prepared, workers=1, log_path=log, resume=True)
    assert [(r.key(), r.score) for r in resumed] == [(r.key(), r.score) for r in full]
    assert log.read_bytes().endswith(b"\n")
    assert sorted(r.key() for r in read_grid_log(log)) == sorted(r.key() for r in full)


def test_logged_trials_keeps_the_last_row_of_a_cell(prepared, tmp_path):
    log = tmp_path / "grid_log.csv"
    run_grid(_small_grid(), prepared, log_path=log)
    header, first, second = log.read_text().splitlines(keepends=True)
    fields = first.split(",")
    fields[6] = "12.5"  # score
    log.write_text(header + first + second + ",".join(fields))
    trials = logged_trials(log)
    assert len(read_grid_log(log)) == 3 and len(trials) == 2
    assert [r.score for r in trials.values()].count(12.5) == 1


def test_resume_rejects_a_malformed_inner_row(prepared, tmp_path):
    log = tmp_path / "grid_log.csv"
    run_grid(_small_grid(), prepared, workers=1, log_path=log)
    lines = log.read_bytes().splitlines(keepends=True)
    lines[1] = b"0.5,oops\r\n"
    log.write_bytes(b"".join(lines))
    with pytest.raises(SchemaError, match="line 2"):
        run_grid(_small_grid(), prepared, workers=1, log_path=log, resume=True)


def test_failed_cells_are_recorded_and_skipped(prepared, tmp_path):
    # density 1.0 needs more couplings than N=16 has off-diagonal slots
    spec = _small_grid(feedback_gain=(0.5,), coupling_density=(0.01, 1.0))
    results = run_grid(spec, prepared, workers=1)
    status = {r.params.coupling_density: r.status for r in results}
    assert status[0.01] == "ok"
    assert status[1.0] == "error"
    bad = [r for r in results if r.status == "error"][0]
    assert "OverflowError" in bad.error
    assert math.isnan(bad.score)
    best = best_trial(results)
    assert best is not None and best.params.coupling_density == 0.01
    # errors sort last
    assert results[-1].status == "error"


def test_axis_order_does_not_change_scores(prepared):
    forward = run_grid(_small_grid(), prepared, workers=1)
    backward = run_grid(_small_grid(feedback_gain=(0.7, 0.5)), prepared, workers=1)
    assert {r.key(): r.score for r in forward} == {
        r.key(): r.score for r in backward
    }


def test_parallel_matches_serial(prepared):
    spec = _small_grid(seeds=(0, 1))
    serial = run_grid(spec, prepared, workers=1)
    parallel = run_grid(spec, prepared, workers=2)
    assert [r.key() for r in serial] == [r.key() for r in parallel]
    assert [r.score for r in serial] == [r.score for r in parallel]


def test_superset_grid_never_scores_worse(prepared):
    subset = run_grid(_small_grid(feedback_gain=(0.5,)), prepared, workers=1)
    superset = run_grid(_small_grid(), prepared, workers=1)
    assert best_trial(superset).score >= best_trial(subset).score


# ---------------------------------------------------------------------------
# The grid plan: every pending (gains, seed) in one lockstep reservoir run per
# stack of STACK_NODES nodes, one readout per lambda

LAMBDAS = (None, 1e-3, 1.0)


def _count_reservoir_runs(monkeypatch):
    calls = []
    original = photonrc.pipeline.run_reservoir

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(photonrc.pipeline, "run_reservoir", counted)
    return calls


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("reset", [False, True])
def test_grid_plan_runs_one_reservoir_per_group(prepared, monkeypatch, workers, reset):
    spec = _small_grid(ridge_lambda=LAMBDAS)
    calls = _count_reservoir_runs(monkeypatch)
    results = run_grid(spec, prepared, workers=workers, reset_per_sequence=reset)
    assert len(calls) == 1  # both feedback gains in one stack, no run per lambda
    assert len(results) == 6 and all(r.status == "ok" for r in results)
    assert all(r.wall_time > 0 for r in results)
    _assert_equal_to_standalone_runs(prepared, spec, results, reset)


def _assert_equal_to_standalone_runs(prepared, spec, results, reset):
    """Each result equals the one-cell grid of its own cell."""
    for r in results:
        cell = {name: (getattr(r.params, name),) for name in LOG_FIELDS[:4]}
        one = dataclasses.replace(spec, ridge_lambda=(r.ridge_lambda,), seeds=(r.seed,), **cell)
        (alone,) = run_grid(one, prepared, reset_per_sequence=reset)
        assert (alone.status, alone.error) == (r.status, r.error)
        np.testing.assert_array_equal(alone.score, r.score)
        np.testing.assert_array_equal(alone.nmse_per_class, r.nmse_per_class)


@pytest.mark.parametrize("variant", ["intensity", "phase"])
@pytest.mark.parametrize("reset", [False, True])
def test_stacks_past_the_cap_equal_standalone_runs(prepared, monkeypatch, variant, reset):
    # 2 gains x 2 seeds = 4 groups, at most 3 to a stack: one stack of 3, one of 1
    monkeypatch.setattr(photonrc.tuning, "STACK_NODES", 3 * N_NODES + N_NODES // 2)
    spec = _small_grid(variant=variant, ridge_lambda=LAMBDAS, seeds=(0, 1))
    calls = _count_reservoir_runs(monkeypatch)
    results = run_grid(spec, prepared, reset_per_sequence=reset)
    assert len(calls) == 2
    assert len(results) == 12 and all(r.status == "ok" for r in results)
    _assert_equal_to_standalone_runs(prepared, spec, results, reset)


@pytest.mark.parametrize(
    "bad",
    [dict(coupling_density=1.0), dict(input_gain=1e308), dict(coupling_gain=-1.0)],
    ids=["fails-to-build", "fails-to-run", "rejected-gains"],
)
def test_a_failing_group_fails_alone_in_its_stack(prepared, monkeypatch, bad):
    # one stack of four groups over mixed seeds, two of them bad; the stack
    # runs its groups again one at a time
    (axis, value), = bad.items()
    good = getattr(_small_grid(), axis)[0]
    spec = _small_grid(
        feedback_gain=(0.5,), seeds=(0, 1), allow_out_of_range=True,
        **{axis: (good, value)},
    )
    calls = _count_reservoir_runs(monkeypatch)
    results = run_grid(spec, prepared)
    failed = [r for r in results if r.status == "error"]
    assert len(failed) == 2 and all(getattr(r.params, axis) == value for r in failed)
    # the stack's run raises, or its build or gain check fails before any run
    assert len(calls) == (1 + 4 if axis == "input_gain" else 2)
    _assert_equal_to_standalone_runs(prepared, spec, results, False)


def test_resume_runs_only_the_missing_cells_of_a_group(prepared, monkeypatch, tmp_path):
    spec = _small_grid(ridge_lambda=LAMBDAS)
    log = tmp_path / "grid_log.csv"
    full = run_grid(spec, prepared, workers=1, log_path=log)
    header, *rows = log.read_text().splitlines(keepends=True)
    kept = [r for r in rows if r.startswith("0.5,")]  # feedback gain 0.5: every lambda
    kept += [r for r in rows if r.startswith("0.7,")][:1]  # feedback gain 0.7: one lambda
    log.write_text(header + "".join(kept))

    calls = _count_reservoir_runs(monkeypatch)
    resumed = run_grid(spec, prepared, workers=2, log_path=log, resume=True)
    assert len(calls) == 1  # the complete group runs no reservoir
    assert len(log.read_text().splitlines()) == 1 + 6  # the two missing cells appended
    assert [(r.key(), r.score) for r in resumed] == [(r.key(), r.score) for r in full]


def test_an_interrupted_grid_keeps_the_stacks_it_finished(prepared, monkeypatch, tmp_path):
    monkeypatch.setattr(photonrc.tuning, "STACK_NODES", N_NODES)  # one group to a stack
    spec = _small_grid(ridge_lambda=LAMBDAS)  # two groups of three lambdas
    full = run_grid(spec, prepared)
    real = photonrc.pipeline.train_ridge
    trained = []

    def interrupted(*args, **kwargs):
        trained.append(1)
        if len(trained) == 5:  # the second lambda of the second stack
            raise KeyboardInterrupt
        return real(*args, **kwargs)

    monkeypatch.setattr(photonrc.pipeline, "train_ridge", interrupted)
    log = tmp_path / "grid_log.csv"
    with pytest.raises(KeyboardInterrupt):
        run_grid(spec, prepared, log_path=log)
    first = sorted((r.key(), r.score) for r in full if r.params.feedback_gain == 0.5)
    assert sorted((r.key(), r.score) for r in read_grid_log(log)) == first
    kept = log.read_bytes()
    assert kept.endswith(b"\n") and len(kept.splitlines()) == 1 + 3  # no torn row
    assert sorted(p.name for p in tmp_path.iterdir()) == ["grid_log.csv"]

    monkeypatch.setattr(photonrc.pipeline, "train_ridge", real)
    calls = _count_reservoir_runs(monkeypatch)
    resumed = run_grid(spec, prepared, log_path=log, resume=True)
    assert len(calls) == 1  # the second group only
    assert log.read_bytes().startswith(kept)  # the rows kept are written back byte for byte
    assert len(read_grid_log(log)) == 6
    assert [(r.key(), r.score) for r in resumed] == [(r.key(), r.score) for r in full]


def test_a_failing_lambda_fails_only_its_own_cell(prepared, monkeypatch):
    spec = _small_grid(ridge_lambda=LAMBDAS)
    clean = {r.key(): r.score for r in run_grid(spec, prepared, workers=1)}
    original = photonrc.pipeline.train_ridge

    def fragile(states, targets, ridge_lambda=None, **kwargs):
        if ridge_lambda == 1e-3:
            raise ValueError("boom")
        return original(states, targets, ridge_lambda=ridge_lambda, **kwargs)

    monkeypatch.setattr(photonrc.pipeline, "train_ridge", fragile)
    results = run_grid(spec, prepared, workers=2)
    for r in results:
        if r.ridge_lambda == 1e-3:
            assert r.status == "error" and r.error == "ValueError: boom"
            assert isinstance(r.params, CellGains)
        else:
            assert r.status == "ok" and r.score == clean[r.key()]


@pytest.mark.parametrize("axis", ["feedback_gain", "input_gain", "coupling_gain"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_a_non_finite_gain_gets_an_error_row(prepared, tmp_path, axis, value):
    good = getattr(_small_grid(), axis)[0]
    spec = _small_grid(**{"feedback_gain": (0.5,), axis: (good, value)}, allow_out_of_range=True)
    log = tmp_path / "grid_log.csv"
    results = run_grid(spec, prepared, log_path=log)
    assert [r.status for r in results] == ["ok", "error"]
    bad = results[1]
    assert isinstance(bad.params, CellGains)
    assert bad.error == f"ValueError: {axis} must be finite and nonnegative"
    logged = [r for r in read_grid_log(log) if r.status == "error"]
    assert len(logged) == 1 and logged[0].error == bad.error


def test_resume_does_not_rerun_a_logged_nan_gain_cell(prepared, tmp_path):
    spec = _small_grid(feedback_gain=(0.5, math.nan), allow_out_of_range=True)
    log = tmp_path / "grid_log.csv"
    first = run_grid(spec, prepared, log_path=log)
    for _ in range(2):
        resumed = run_grid(spec, prepared, log_path=log, resume=True)
        assert len(log.read_text().splitlines()) == 3  # header + 2 rows, no duplicate
        assert [r.status for r in resumed] == [r.status for r in first] == ["ok", "error"]
    # several NaN cells: a NaN sorts after every number, so the gains after it
    # order them alike whether the NaNs are the grid's one object or read back
    spec = _small_grid(
        feedback_gain=(math.nan,), input_gain=(0.01, 0.003, 0.002), allow_out_of_range=True
    )
    log = tmp_path / "nan_grid_log.csv"
    fresh = run_grid(spec, prepared, log_path=log)
    resumed = run_grid(spec, prepared, log_path=log, resume=True)
    assert [r.params.input_gain for r in resumed] == [r.params.input_gain for r in fresh]
    assert [r.params.input_gain for r in fresh] == [0.002, 0.003, 0.01]


def test_resume_reads_a_grid_of_numpy_floats(prepared, tmp_path):
    spec = _small_grid(feedback_gain=(np.float64(0.5), np.float64(0.7)))
    log = tmp_path / "grid_log.csv"
    first = run_grid(spec, prepared, log_path=log)
    assert "np.float64" not in log.read_text()
    resumed = run_grid(spec, prepared, log_path=log, resume=True)
    assert len(log.read_text().splitlines()) == 3  # both cells were found in the log
    assert [(r.key(), r.score) for r in resumed] == [(r.key(), r.score) for r in first]


def test_a_failing_reservoir_fails_every_lambda_of_its_group(prepared):
    # density 1.0 needs more couplings than N=16 has off-diagonal slots
    spec = _small_grid(feedback_gain=(0.5,), coupling_density=(0.01, 1.0), ridge_lambda=LAMBDAS)
    results = run_grid(spec, prepared, workers=2)
    bad = [r for r in results if r.params.coupling_density == 1.0]
    assert len(bad) == 3
    assert all(r.status == "error" and "OverflowError" in r.error for r in bad)
    assert all(isinstance(r.params, CellGains) for r in bad)
    assert all(r.status == "ok" for r in results if r.params.coupling_density == 0.01)


def test_auto_lambda_is_not_a_logged_negative_lambda(prepared, tmp_path):
    # a log written before negative lambdas were rejected may hold one
    log = tmp_path / "grid_log.csv"
    run_grid(_small_grid(feedback_gain=(0.5,)), prepared, workers=1, log_path=log)
    header, row = log.read_text().splitlines(keepends=True)
    fields = row.split(",")
    fields[4] = "-1.0"  # ridge_lambda
    log.write_text(header + ",".join(fields))
    resumed = run_grid(_small_grid(feedback_gain=(0.5,)), prepared, workers=1,
                       log_path=log, resume=True)
    assert [r.ridge_lambda for r in resumed] == [None]
    assert len(log.read_text().splitlines()) == 3  # the auto-lambda cell ran


# ---------------------------------------------------------------------------
# Checkpoint file format

def test_log_round_trip_is_exact(tmp_path):
    result = TrialResult(
        params=HyperParams(
            feedback_gain=0.1 + 0.2,  # not exactly 0.3
            input_gain=1e-17,
            coupling_gain=0.1,
            coupling_density=0.01,
        ),
        ridge_lambda=None,
        seed=7,
        score=437.5000000001,
        nmse_per_class=np.array([0.1, 0.2, np.nan, 0.4, 0.5, 0.6]),
        wall_time=1.25,
    )
    back = _row_result(_result_row(result))
    assert back.params == result.params
    assert back.ridge_lambda is None
    assert back.score == result.score
    assert np.isnan(back.nmse_per_class[2])
    np.testing.assert_array_equal(
        back.nmse_per_class[[0, 1, 3, 4, 5]], result.nmse_per_class[[0, 1, 3, 4, 5]]
    )

    with_lambda = TrialResult(
        params=result.params, ridge_lambda=1 / 3, seed=0, score=float("nan"),
        nmse_per_class=np.full(6, np.nan), wall_time=0.0, status="error",
        error="ValueError: boom",
    )
    back = _row_result(_result_row(with_lambda))
    assert back.ridge_lambda == 1 / 3
    assert math.isnan(back.score)
    assert back.status == "error"
    assert back.error == "ValueError: boom"


def test_read_grid_log_rejects_missing_columns(tmp_path):
    path = tmp_path / "grid_log.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["feedback_gain", "score"])
        writer.writerow(["0.5", "100.0"])
    with pytest.raises(SchemaError, match="missing columns"):
        read_grid_log(path)


def test_sort_results_orders_by_score_then_key():
    def mk(score, fg, status="ok"):
        return TrialResult(
            params=HyperParams(fg, 0.01, 0.1, 0.01),
            ridge_lambda=None, seed=0, score=score,
            nmse_per_class=np.zeros(6), wall_time=0.0, status=status,
        )

    results = [mk(100.0, 0.9), mk(300.0, 0.5), mk(float("nan"), 0.7, "error"),
               mk(300.0, 0.3)]
    ordered = sort_results(results)
    assert [r.score for r in ordered[:3]] == [300.0, 300.0, 100.0]
    assert ordered[0].params.feedback_gain == 0.3  # ties broken by key
    assert ordered[-1].status == "error"
    assert best_trial(ordered).score == 300.0
    assert best_trial([mk(float("nan"), 0.5, "error")]) is None
