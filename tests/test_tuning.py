"""Grid definitions, trial runs, checkpointing, and resume."""

import csv
import math

import numpy as np
import pytest

from photonrc.dataset import Split, load_manifest
from photonrc.errors import ParseError, SchemaError
from photonrc.pipeline import prepare_data
from photonrc.reservoir import HyperParams
from photonrc.tuning import (
    GridSpec,
    TrialResult,
    _result_row,
    _row_result,
    best_trial,
    default_grid,
    load_grid_spec,
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


# ---------------------------------------------------------------------------
# Data preparation

def test_prepare_data_partitions_rows(prepared, tiny_features):
    total = tiny_features["n_frames"]
    assert prepared.features.shape == (total, 24)
    assert prepared.features.dtype == np.float32
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


# ---------------------------------------------------------------------------
# Trials and the grid loop

def test_run_trial_scores_and_reports(prepared):
    params = HyperParams(
        feedback_gain=0.5, input_gain=0.01, coupling_gain=0.1, coupling_density=0.01
    )
    result = run_trial(prepared, N_NODES, "intensity", params, None, seed=0)
    assert result.status == "ok"
    assert 0.0 <= result.score <= 600.0
    assert result.nmse_per_class.shape == (6,)
    assert result.wall_time > 0
    # deterministic
    again = run_trial(prepared, N_NODES, "intensity", params, None, seed=0)
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


def test_resume_reruns_a_torn_last_row(prepared, tmp_path):
    log = tmp_path / "grid_log.csv"
    full = run_grid(_small_grid(), prepared, workers=1, log_path=log)
    log.write_bytes(log.read_bytes()[:-40])  # a crash in the middle of the last row
    resumed = run_grid(_small_grid(), prepared, workers=1, log_path=log, resume=True)
    assert [(r.key(), r.score) for r in resumed] == [(r.key(), r.score) for r in full]
    assert log.read_bytes().endswith(b"\n")
    assert sorted(r.key() for r in read_grid_log(log)) == sorted(r.key() for r in full)


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
