"""End-to-end pipeline: artifacts, caching, digests, reproducibility."""

import dataclasses
import json
import os
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from photonrc.cache import read_cache
from photonrc.dataset import Manifest, save_manifest
from photonrc.errors import (
    NotAPipelineDirError,
    PipelineStageError,
    SchemaError,
)
from photonrc.hog import HogConfig
from photonrc.pipeline import (
    PipelineConfig,
    derive_stream_seed,
    describe_artifacts,
    feature_transform_for,
    file_sha256,
    prepare_data,
    run_pipeline,
)
from photonrc.readout import TRANSFORM_NONLINEAR_PHASE, TRANSFORM_RAW
from photonrc.reservoir import HyperParams
from photonrc.tuning import run_trial

PARAMS = HyperParams(
    feedback_gain=0.8, input_gain=0.01, coupling_gain=0.1, coupling_density=0.05
)

RESULT_FILES = ("sequence_results.csv", "confusion.csv", "score.txt")

# SHA-256 of the `pipe` run's outputs, pinned with numpy 2.4.6, scipy 1.17.1
# and scipy-openblas 0.3.31 on x86-64; another BLAS may round differently.
# config.json and the artifact names are left out: the manifest they hash
# holds an absolute frame_store_root, so they change with the directory.
GOLDEN_SHA256 = {
    "states": "4ce0e1587fa8abb2a2169f1c0cfbe65d9862e3b5daab7dc0a3ae980f536a641e",
    "readout_model": "46c0ad241017550697d6211f7ddfbd744ce07f0e38354bfd9896046f3111db3c",
    "score.txt": "96c3a472047d1221032d747121e780c6ac1e708dad866236a610bba157e16d0e",
    "confusion.csv": "2799d2dcabe5cbbfa54bd309cf38aace7e1ea7d0ed823295656d01040fc3e9cf",
    "sequence_results.csv": "7719e931adb6442386bfff21622df4c18dd603ff9d78f851cb11949cadcba4b2",
}


def _config(manifest_path, out_dir, **overrides):
    kwargs = dict(
        manifest_path=str(manifest_path),
        out_dir=str(out_dir),
        pca_components=24,
        n_nodes=64,
        params=PARAMS,
        seed=0,
    )
    kwargs.update(overrides)
    return PipelineConfig(**kwargs)


@pytest.fixture(scope="module")
def pipe(tiny_corpus, tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("pipe")
    config = _config(tiny_corpus, out_dir)
    report = run_pipeline(config)
    return config, report


def _result_bytes(out_dir):
    return {name: (Path(out_dir) / name).read_bytes() for name in RESULT_FILES}


def _warm_clone(report, new_dir):
    """Copy the content-addressed caches so a run in new_dir can reuse them."""
    new_dir = Path(new_dir)
    new_dir.mkdir(parents=True, exist_ok=True)
    for name in ("hog", "pca_model", "features"):
        src = Path(report.out_dir) / report.artifacts[name]
        shutil.copy2(src, new_dir / report.artifacts[name])
    return new_dir


# ---------------------------------------------------------------------------
# Seed derivation

def test_stream_seeds_are_deterministic_and_distinct():
    a = derive_stream_seed(0, "reservoir")
    assert a == derive_stream_seed(0, "reservoir")
    assert a != derive_stream_seed(1, "reservoir")
    assert a != derive_stream_seed(0, "validation")
    for seed in (0, 1, 2**31):
        for label in ("reservoir", "validation"):
            value = derive_stream_seed(seed, label)
            assert isinstance(value, int)
            assert 0 <= value < 2**63


def test_feature_transform_mapping():
    assert feature_transform_for("intensity") == TRANSFORM_RAW
    assert feature_transform_for("phase") == TRANSFORM_NONLINEAR_PHASE


def test_config_validation(tiny_corpus, tmp_path):
    with pytest.raises(ValueError, match="cache policy"):
        _config(tiny_corpus, tmp_path, cache_policy="maybe")
    with pytest.raises(ValueError, match="pca_fit_on"):
        _config(tiny_corpus, tmp_path, pca_fit_on="test")


# ---------------------------------------------------------------------------
# A full run

def test_report_and_artifacts(pipe):
    config, report = pipe
    assert 0.0 <= report.score <= 600.0
    assert report.nmse_per_class.shape == (6,)
    assert report.resolved_lambda > 0
    for filename in report.artifacts.values():
        assert (Path(report.out_dir) / filename).is_file()
    for digest in report.digests.values():
        assert re.fullmatch(r"[0-9a-f]{12}", digest)
    assert set(report.digests) == {"hog", "pca", "reservoir", "train"}

    summary = json.loads((Path(report.out_dir) / "pipeline.json").read_text())
    assert summary["stages"] == ["dataset", "hog", "pca", "reservoir", "train", "evaluate"]
    assert summary["score"] == report.score
    assert summary["dimensions"]["pca_components"] == 24
    assert summary["dimensions"]["n_nodes"] == 64
    assert summary["dimensions"]["hog_features"] == 9576

    saved_config = json.loads((Path(report.out_dir) / "config.json").read_text())
    assert saved_config == config.as_dict()
    assert saved_config["prng_family"] == "numpy-pcg64"


def test_artifact_names_embed_digests(pipe):
    _, report = pipe
    assert report.artifacts["hog"] == f"hog_{report.digests['hog']}.rcf"
    assert report.artifacts["features"] == f"features_{report.digests['pca']}.rcf"
    assert report.artifacts["states"] == f"states_{report.digests['reservoir']}.rcf"
    assert report.artifacts["readout_model"] == f"readout_{report.digests['train']}.bin"


def test_golden_digests(pipe):
    _, report = pipe
    out = Path(report.out_dir)
    got = {name: file_sha256(out / report.artifacts[name]) for name in ("states", "readout_model")}
    got.update({name: file_sha256(out / name) for name in RESULT_FILES})
    assert got == GOLDEN_SHA256


def test_warm_rerun_is_bit_identical(pipe):
    config, report = pipe
    before = _result_bytes(report.out_dir)
    hog_mtime = os.path.getmtime(Path(report.out_dir) / report.artifacts["hog"])
    again = run_pipeline(config)
    assert again.score == report.score
    assert _result_bytes(report.out_dir) == before
    # the HOG cache was reused, not rewritten
    assert os.path.getmtime(Path(report.out_dir) / report.artifacts["hog"]) == hog_mtime


def test_cold_rerun_is_bit_identical(pipe, tiny_corpus, tmp_path):
    config, report = pipe
    other = run_pipeline(_config(tiny_corpus, tmp_path / "cold"))
    assert other.score == report.score
    assert _result_bytes(other.out_dir) == _result_bytes(report.out_dir)
    for name in ("hog", "features", "states"):
        a = (Path(report.out_dir) / report.artifacts[name]).read_bytes()
        b = (Path(other.out_dir) / other.artifacts[name]).read_bytes()
        assert a == b, name


def test_rebuild_policy_recomputes_but_agrees(pipe, tmp_path):
    config, report = pipe
    clone = _warm_clone(report, tmp_path / "rebuild")
    hog_path = clone / report.artifacts["hog"]
    mtime = os.path.getmtime(hog_path)
    rebuilt = run_pipeline(
        dataclasses.replace(config, out_dir=str(clone), cache_policy="rebuild")
    )
    assert rebuilt.score == report.score
    assert os.path.getmtime(hog_path) > mtime  # rebuild ignores the valid cache
    assert _result_bytes(clone) == _result_bytes(report.out_dir)


@pytest.mark.parametrize("artifact", ["states", "readout_model"])
def test_truncated_artifact_is_recomputed_on_reuse(pipe, tmp_path, artifact):
    config, report = pipe
    copy_dir = tmp_path / "torn"
    shutil.copytree(report.out_dir, copy_dir)
    victim = copy_dir / report.artifacts[artifact]
    data = victim.read_bytes()
    victim.write_bytes(data[: len(data) // 2])
    again = run_pipeline(dataclasses.replace(config, out_dir=str(copy_dir)))
    assert again.score == report.score
    assert victim.read_bytes() == data
    assert _result_bytes(copy_dir) == _result_bytes(report.out_dir)


def test_single_cell_trial_matches_pipeline(pipe):
    config, report = pipe
    data = prepare_data(
        config.manifest_path, Path(report.out_dir) / report.artifacts["features"]
    )
    result = run_trial(
        data, config.n_nodes, config.variant, config.params,
        config.ridge_lambda, config.seed,
    )
    assert result.score == report.score
    np.testing.assert_array_equal(result.nmse_per_class, report.nmse_per_class)


# ---------------------------------------------------------------------------
# Digest sensitivity

def test_seed_changes_reservoir_digest_only(pipe, tmp_path):
    config, report = pipe
    clone = _warm_clone(report, tmp_path / "seed1")
    other = run_pipeline(dataclasses.replace(config, out_dir=str(clone), seed=1))
    assert other.digests["hog"] == report.digests["hog"]
    assert other.digests["pca"] == report.digests["pca"]
    assert other.digests["reservoir"] != report.digests["reservoir"]
    assert other.digests["train"] != report.digests["train"]


def test_lambda_changes_train_digest_only(pipe, tmp_path):
    config, report = pipe
    clone = _warm_clone(report, tmp_path / "lam")
    other = run_pipeline(
        dataclasses.replace(config, out_dir=str(clone), ridge_lambda=0.1)
    )
    assert other.digests["reservoir"] == report.digests["reservoir"]
    assert other.digests["train"] != report.digests["train"]


def test_hyperparameters_change_reservoir_digest(pipe, tmp_path):
    config, report = pipe
    clone = _warm_clone(report, tmp_path / "fg")
    other = run_pipeline(
        dataclasses.replace(
            config, out_dir=str(clone),
            params=dataclasses.replace(PARAMS, feedback_gain=0.5),
        )
    )
    assert other.digests["hog"] == report.digests["hog"]
    assert other.digests["reservoir"] != report.digests["reservoir"]


def test_hog_config_changes_hog_digest(pipe, tmp_path):
    config, report = pipe
    other = run_pipeline(
        dataclasses.replace(
            config, out_dir=str(tmp_path / "hog12"),
            hog_config=HogConfig(cell_size=12),
        )
    )
    assert other.digests["hog"] != report.digests["hog"]
    assert other.digests["pca"] != report.digests["pca"]


def test_manifest_bytes_feed_the_hog_digest(pipe, tmp_path):
    config, _ = pipe
    copy_path = tmp_path / "copy.json"
    original = Path(config.manifest_path)
    doc = json.loads(original.read_text())
    copy_path.write_text(json.dumps(doc, indent=4) + "\n")  # same content, new bytes
    assert file_sha256(copy_path) != file_sha256(original)


def test_reset_per_sequence_changes_states(pipe, tmp_path):
    config, report = pipe
    clone = _warm_clone(report, tmp_path / "reset")
    other = run_pipeline(
        dataclasses.replace(config, out_dir=str(clone), reset_per_sequence=True)
    )
    assert other.digests["reservoir"] != report.digests["reservoir"]
    base_states, _ = read_cache(Path(report.out_dir) / report.artifacts["states"])
    reset_states, _ = read_cache(Path(other.out_dir) / other.artifacts["states"])
    assert not np.array_equal(base_states, reset_states)


def test_pca_fit_scope_changes_pca_digest(pipe, tmp_path):
    config, report = pipe
    clone = _warm_clone(report, tmp_path / "fit_all")
    other = run_pipeline(
        dataclasses.replace(config, out_dir=str(clone), pca_fit_on="all")
    )
    assert other.digests["hog"] == report.digests["hog"]
    assert other.digests["pca"] != report.digests["pca"]


# ---------------------------------------------------------------------------
# Failure routing

def test_empty_manifest_fails_in_dataset_stage(tmp_path):
    manifest = Manifest(
        sequences=(), resolution=(120, 160), frame_store_root="frames", split_seed=0
    )
    path = tmp_path / "empty.json"
    save_manifest(manifest, path)
    with pytest.raises(PipelineStageError, match="stage 'dataset' failed") as info:
        run_pipeline(_config(path, tmp_path / "out"))
    assert info.value.stage == "dataset"
    assert isinstance(info.value.cause, SchemaError)


def test_impossible_coupling_fails_in_reservoir_stage(pipe, tmp_path):
    config, _ = pipe
    bad = dataclasses.replace(
        config,
        out_dir=str(tmp_path / "bad"),
        params=dataclasses.replace(PARAMS, coupling_density=1.0),
    )
    with pytest.raises(PipelineStageError) as info:
        run_pipeline(bad)
    assert info.value.stage == "reservoir"
    assert isinstance(info.value.cause, OverflowError)


# ---------------------------------------------------------------------------
# describe

def test_describe_lists_artifacts_and_score(pipe):
    _, report = pipe
    text = describe_artifacts(report.out_dir)
    assert f"pipeline run in {report.out_dir}" in text
    assert "dataset, hog, pca, reservoir, train, evaluate" in text
    for filename in report.artifacts.values():
        assert filename in text
    assert f"digest[hog] = {report.digests['hog']}" in text
    assert "score:" in text
    assert "missing" not in text


def test_describe_flags_corrupt_caches(pipe, tmp_path):
    _, report = pipe
    copy_dir = tmp_path / "copy"
    shutil.copytree(report.out_dir, copy_dir)
    victim = copy_dir / report.artifacts["states"]
    data = bytearray(victim.read_bytes())
    data[:8] = b"XXXXXXXX"
    victim.write_bytes(bytes(data))
    text = describe_artifacts(copy_dir)
    assert "INTEGRITY WARNING" in text


def test_describe_grid_only_directory(tmp_path):
    (tmp_path / "grid_log.csv").write_text("header\nrow1\nrow2\n")
    text = describe_artifacts(tmp_path)
    assert text == "grid-search directory: 2 trials logged in grid_log.csv"


def test_describe_rejects_unrelated_directory(tmp_path):
    with pytest.raises(NotAPipelineDirError):
        describe_artifacts(tmp_path)
