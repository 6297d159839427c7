"""End-to-end pipeline: artifacts, caching, digests, reproducibility."""

import dataclasses
import itertools
import json
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photonrc import cache
from photonrc.cache import CacheRows, CacheWriter, read_cache, row_chunks
from photonrc.dataset import Manifest, save_manifest
from photonrc.errors import (
    NotAPipelineDirError,
    ParseError,
    PipelineStageError,
    SchemaError,
)
from photonrc import pipeline as pipeline_module
from photonrc.cli import main
from photonrc.hog import _vote_table
from photonrc.pca import fit_pca, save_pca_model, transform
from photonrc.pipeline import (
    PIPELINE_FILE,
    PipelineConfig,
    derive_stream_seed,
    describe_artifacts,
    file_sha256,
    prepare_data,
    run_pipeline,
)
from photonrc.reservoir import HyperParams
from photonrc.tuning import GridSpec, run_grid, run_trial

from _oracles import count_ridge_routes, fix_signs_oracle, float32_ulps, version_1_bytes

PARAMS = HyperParams(
    feedback_gain=0.8, input_gain=0.01, coupling_gain=0.1, coupling_density=0.05
)

RESULT_FILES = ("sequence_results.csv", "confusion.csv", "score.txt")

# SHA-256 of the `pipe` run's outputs, pinned with numpy 2.4.6, scipy 1.17.1
# and scipy-openblas 0.3.31 on x86-64; another BLAS may round differently.
# config.json and the artifact names are left out: the manifest they hash
# holds an absolute frame_store_root, so they change with the directory.
GOLDEN_SHA256 = {
    "hog": "bece51c75c63fb37022f923b0b404cfa05d1b978f1e60518f606e7ed3f647598",
    "pca_model": "0e448ba7daf25b8082c2851c10c2cecf1b029e081144e423e9ca427ceb3dda3e",
    "features": "efdb7cd8f1d319d41c4cdd457596a990a28f3e0ddbcf3bcbf6061716e8d79061",
    "states": "e2f330b4d698181f4bff0a98903fc6ea83aeece957a05c7e03679ef94d18ce59",
    "reservoir_spec": "29a4ad8ff05275d49efdeb35e4d5778aeb3fa59cd00709ee501be2ed881731c5",
    "readout_model": "0cb38c194409742927580c732968ac9011154187fdfc06dd724c30549ececc56",
    "score.txt": "96c3a472047d1221032d747121e780c6ac1e708dad866236a610bba157e16d0e",
    "confusion.csv": "2799d2dcabe5cbbfa54bd309cf38aace7e1ea7d0ed823295656d01040fc3e9cf",
    "sequence_results.csv": "7719e931adb6442386bfff21622df4c18dd603ff9d78f851cb11949cadcba4b2",
    "pipeline.json": "cd5c94706181c66c6b1188b69ef8df1cc5f1b8f41d7d0ef35079edc5355fa7a7",
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


def test_config_validation(tiny_corpus, tmp_path):
    with pytest.raises(ValueError, match="cache policy"):
        _config(tiny_corpus, tmp_path, cache_policy="maybe")
    with pytest.raises(ValueError, match="pca_fit_on"):
        _config(tiny_corpus, tmp_path, pca_fit_on="test")
    for bad in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="ridge_lambda"):
            _config(tiny_corpus, tmp_path, ridge_lambda=bad)
    assert _config(tiny_corpus, tmp_path, ridge_lambda=0.0).ridge_lambda == 0.0
    for field in ("pca_components", "n_nodes"):
        for count in (0, -3):
            with pytest.raises(ValueError, match=f"{field} must be at least 1"):
                _config(tiny_corpus, tmp_path, **{field: count})
    # an unknown variant fails here, before any stage writes a file
    with pytest.raises(ValueError, match="unknown variant 'bogus'"):
        _config(tiny_corpus, tmp_path / "bogus", variant="bogus")
    assert not (tmp_path / "bogus").exists()


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
    got = {
        name: file_sha256(out / report.artifacts[name])
        for name in ("hog", "pca_model", "features", "states", "reservoir_spec", "readout_model")
    }
    got.update({name: file_sha256(out / name) for name in RESULT_FILES + (PIPELINE_FILE,)})
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


def test_a_phase_run_reuses_every_artifact_of_an_intensity_run(pipe, tmp_path):
    # the two forms of the recurrence read the same values, so a phase run
    # names, reuses and reproduces every file of an intensity run
    config, report = pipe
    clone = tmp_path / "phase"
    shutil.copytree(report.out_dir, clone)
    binaries = ("hog", "pca_model", "features", "states", "readout_model")
    mtimes = {name: os.path.getmtime(clone / report.artifacts[name]) for name in binaries}
    phase = run_pipeline(dataclasses.replace(config, out_dir=str(clone), variant="phase"))
    assert phase.artifacts == report.artifacts and phase.digests == report.digests
    assert {name: os.path.getmtime(clone / phase.artifacts[name]) for name in binaries} == mtimes
    assert _result_bytes(clone) == _result_bytes(report.out_dir)
    for name in ("reservoir_spec", PIPELINE_FILE):
        path = report.artifacts.get(name, name)
        assert (clone / path).read_bytes() == (Path(report.out_dir) / path).read_bytes()
    assert json.loads((clone / "config.json").read_text())["variant"] == "phase"


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


# four ways a write can leave a binary artifact torn or overlong
DAMAGES = {
    "header": lambda data: data[:1],  # cut one byte into the header
    "half": lambda data: data[: len(data) // 2],
    "short": lambda data: data[:-1],
    "long": lambda data: data + b"\x00",
}
BINARY_ARTIFACTS = ("hog", "states", "readout_model", "features", "pca_model")


@pytest.mark.parametrize("artifact", BINARY_ARTIFACTS)
def test_truncated_artifact_is_recomputed_on_reuse(pipe, tmp_path, artifact):
    # describe flags the damaged file, a reuse run recomputes it, and then
    # every file equals the cold run's
    config, report = pipe
    cold = Path(report.out_dir)
    for damage, cut in DAMAGES.items():
        copy_dir = tmp_path / damage
        shutil.copytree(report.out_dir, copy_dir)
        victim = copy_dir / report.artifacts[artifact]
        victim.write_bytes(cut(victim.read_bytes()))
        flagged = [
            line for line in describe_artifacts(copy_dir).splitlines()
            if "INTEGRITY WARNING" in line
        ]
        assert len(flagged) == 1 and flagged[0].startswith(f"  {artifact}: "), damage
        again = run_pipeline(dataclasses.replace(config, out_dir=str(copy_dir)))
        assert again.score == report.score
        assert "INTEGRITY WARNING" not in describe_artifacts(copy_dir), damage
        for name in (*report.artifacts.values(), "pipeline.json"):
            assert (copy_dir / name).read_bytes() == (cold / name).read_bytes(), (damage, name)


def test_every_binary_artifact_has_a_header_reader(pipe):
    # run_pipeline's reuse rule and describe read every binary artifact's
    # header through cache.read_cache_header, so none can skip the
    # exact-size rule
    _, report = pipe
    binary = {k for k, name in report.artifacts.items() if name.endswith((".rcf", ".bin"))}
    assert binary == set(BINARY_ARTIFACTS)
    lines = describe_artifacts(report.out_dir).splitlines()
    for key in binary:
        rows, cols, _ = cache.read_cache_header(Path(report.out_dir) / report.artifacts[key])
        (line,) = [l for l in lines if l.startswith(f"  {key}: ")]
        assert line.endswith(f" bytes, {rows} x {cols})"), line


def test_version_1_artifacts_are_flagged_and_recomputed_on_reuse(pipe, tmp_path):
    # artifacts an earlier photonrc wrote in the per-kind formats of version
    # 1: describe names the version of each, and a reuse run recomputes
    # every one and ends byte-identical to the cold run
    config, report = pipe
    cold = Path(report.out_dir)
    copy_dir = tmp_path / "v1"
    shutil.copytree(cold, copy_dir)
    for key in BINARY_ARTIFACTS:
        victim = copy_dir / report.artifacts[key]
        victim.write_bytes(version_1_bytes(victim))
    flagged = [
        line.split(":")[0].strip() for line in describe_artifacts(copy_dir).splitlines()
        if "INTEGRITY WARNING" in line and "unsupported version 1, expected 2" in line
    ]
    assert sorted(flagged) == sorted(BINARY_ARTIFACTS)
    again = run_pipeline(dataclasses.replace(config, out_dir=str(copy_dir)))
    assert again.score == report.score
    assert "INTEGRITY WARNING" not in describe_artifacts(copy_dir)
    for name in (*report.artifacts.values(), PIPELINE_FILE):
        assert (copy_dir / name).read_bytes() == (cold / name).read_bytes(), name


@pytest.fixture(scope="module")
def scratch_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("scratch")


@pytest.mark.parametrize("artifact", BINARY_ARTIFACTS)
@settings(max_examples=25, deadline=None)
@given(draw=st.data())
def test_each_wrong_size_is_named_by_the_header_reader(pipe, scratch_dir, artifact, draw):
    # any length but the true one, cut short or padded with drawn bytes;
    # flipped body bytes keep the size and wait for a content checksum
    _, report = pipe
    data = (Path(report.out_dir) / report.artifacts[artifact]).read_bytes()
    size = len(data)
    length = draw.draw(st.integers(0, size + 63).filter(lambda n: n != size), label="length")
    if length > size:
        data += draw.draw(st.binary(min_size=length - size, max_size=length - size))
    damaged = scratch_dir / report.artifacts[artifact]
    damaged.write_bytes(data[:length])
    with pytest.raises(ParseError, match="truncated|trailing bytes"):
        cache.read_cache_header(damaged)


def _record_cache_reads(monkeypatch):
    """Record whole-cache reads, and the passes a CacheRows makes, by file name."""
    reads, passes = [], []
    real = pipeline_module.read_cache

    def recording(path):
        reads.append(Path(path).name)
        return real(path)

    class RecordingRows(CacheRows):
        def read_blocks(self, firsts, stops):
            passes.append((Path(self.path).name, self.shape[0]))
            return super().read_blocks(firsts, stops)

    monkeypatch.setattr(pipeline_module, "read_cache", recording)
    monkeypatch.setattr(pipeline_module, "CacheRows", RecordingRows)
    return reads, passes


def test_reuse_with_valid_pca_never_reads_the_hog_cache(pipe, tmp_path, monkeypatch):
    config, report = pipe
    copy_dir = tmp_path / "warm"
    shutil.copytree(report.out_dir, copy_dir)
    reads, passes = _record_cache_reads(monkeypatch)
    again = run_pipeline(dataclasses.replace(config, out_dir=str(copy_dir)))
    assert again.score == report.score
    # the evaluate stage's one pass over the state cache is the only read
    n_frames = prepare_data(config.manifest_path, None).total_frames
    assert reads == []
    assert passes == [(report.artifacts["states"], n_frames)]
    for name in (*RESULT_FILES, "pipeline.json"):
        assert (copy_dir / name).read_bytes() == (Path(report.out_dir) / name).read_bytes()


def test_pca_refit_reads_the_hog_cache_once(pipe, tmp_path, monkeypatch):
    # on the Gram route: one pass over the fit rows, one over the other rows,
    # and no whole-cache read
    config, report = pipe
    copy_dir = tmp_path / "refit"
    shutil.copytree(report.out_dir, copy_dir)
    (copy_dir / report.artifacts["pca_model"]).unlink()
    reads, passes = _record_cache_reads(monkeypatch)
    again = run_pipeline(dataclasses.replace(config, out_dir=str(copy_dir)))
    data = prepare_data(config.manifest_path, None)
    hog = report.artifacts["hog"]
    n_fit = data.train_rows.size
    n_frames = data.total_frames
    # then the evaluate stage's pass over the reused state cache
    assert passes == [(hog, n_fit), (hog, n_frames - n_fit), (report.artifacts["states"], n_frames)]
    assert reads == []
    assert again.score == report.score
    assert (copy_dir / "pipeline.json").read_bytes() == (
        Path(report.out_dir) / "pipeline.json"
    ).read_bytes()


def test_reuse_refits_a_torn_pca_model(pipe, tmp_path):
    config, report = pipe
    copy_dir = tmp_path / "torn"
    shutil.copytree(report.out_dir, copy_dir)
    model = copy_dir / report.artifacts["pca_model"]
    whole = model.read_bytes()
    model.write_bytes(whole[: len(whole) // 2])
    line = next(l for l in describe_artifacts(copy_dir).splitlines() if "pca_model:" in l)
    assert "INTEGRITY WARNING" in line
    again = run_pipeline(dataclasses.replace(config, out_dir=str(copy_dir)))
    assert model.read_bytes() == whole
    assert again.score == report.score
    assert "INTEGRITY WARNING" not in describe_artifacts(copy_dir)


def test_single_cell_trial_matches_pipeline(pipe):
    config, report = pipe
    data = prepare_data(
        config.manifest_path, Path(report.out_dir) / report.artifacts["features"]
    )
    result = run_trial(data, config.n_nodes, config.params, config.ridge_lambda, config.seed)
    assert result.score == report.score
    np.testing.assert_array_equal(result.nmse_per_class, report.nmse_per_class)


def test_a_pipeline_run_sums_every_chunk_of_its_states_in_float32(pipe, tmp_path, monkeypatch):
    # the float64 sums give the same bytes, so only a count shows that a
    # run's own states, small detector levels, never fall back to them
    config, report = pipe
    clone = tmp_path / "train"
    shutil.copytree(report.out_dir, clone)
    readout_file = report.artifacts["readout_model"]
    (clone / readout_file).unlink()
    monkeypatch.setattr(cache, "CHUNK_ROWS", 64)
    chunks = count_ridge_routes(monkeypatch)
    run_pipeline(dataclasses.replace(config, out_dir=str(clone)))
    train_rows = prepare_data(config.manifest_path, None).train_rows.size
    assert train_rows >= config.n_nodes  # the primal route
    assert chunks == {"float32": len(cache.chunk_stops(train_rows)), "float64": 0}
    assert chunks["float32"] > 1
    assert (clone / readout_file).read_bytes() == (Path(report.out_dir) / readout_file).read_bytes()


def test_overlong_hog_cache_is_recomputed_on_reuse(pipe, tmp_path):
    config, report = pipe
    copy_dir = tmp_path / "long"
    shutil.copytree(report.out_dir, copy_dir)
    victim = copy_dir / report.artifacts["hog"]
    data = victim.read_bytes()
    victim.write_bytes(data + b"\x00" * 4)
    again = run_pipeline(dataclasses.replace(config, out_dir=str(copy_dir)))
    assert again.score == report.score
    assert victim.read_bytes() == data


def test_extract_hog_releases_the_vote_table(tiny_manifest, tmp_path):
    pipeline_module.extract_hog(tiny_manifest, tmp_path / "hog.rcf")
    assert _vote_table.cache_info().currsize == 0


# ---------------------------------------------------------------------------
# The PCA stage: HOG rows streamed from disk, bounded memory

def _whole_transform_bytes(model, values, path):
    with CacheWriter(path, model.n_components) as writer:
        writer.append(transform(model, values))
    return Path(path).read_bytes()


def _assert_stage_features(features, expected, fit_rows):
    """Fit rows within 1 float32 ulp of the explicit projection, other rows byte-equal."""
    other = np.setdiff1d(np.arange(expected.shape[0]), fit_rows)
    assert features[other].tobytes() == expected[other].tobytes()
    assert float32_ulps(features[fit_rows], expected[fit_rows]).max() <= 1


@pytest.mark.parametrize("fit_on", ["train", "all"])
def test_chunked_pca_stage_equals_the_whole_array_route(pipe, tmp_path, monkeypatch, fit_on):
    # the model equals a fit on the whole array; on the Gram route the fit
    # rows' features come from its scores, within 1 float32 ulp of transform
    config, report = pipe
    hog = Path(report.out_dir) / report.artifacts["hog"]
    values, _ = read_cache(hog)
    monkeypatch.setattr(cache, "CHUNK_ROWS", 64)
    assert values.shape[0] % 64 not in (0, 1)
    rows = pipeline_module.pca_fit_rows(prepare_data(config.manifest_path, None), fit_on)
    assert rows.size < values.shape[1]  # the Gram route
    whole = tmp_path / "whole.bin"
    save_pca_model(fit_pca(values[rows], 24)[0], whole)
    model = pipeline_module.pca_stage(hog, rows, 24, tmp_path / "pca.bin", tmp_path / "f.rcf")
    assert (tmp_path / "pca.bin").read_bytes() == whole.read_bytes()
    save_pca_model(model, tmp_path / "again.bin")  # the model returned is the one saved
    assert (tmp_path / "again.bin").read_bytes() == whole.read_bytes()
    assert model.components.tobytes() == fix_signs_oracle(model.components).tobytes()
    features, _ = read_cache(tmp_path / "f.rcf")
    expected = transform(model, values).astype(np.float32)
    _assert_stage_features(features, expected, rows)


@pytest.mark.parametrize(
    "n_frames, dim, fit",
    [(300, 40, slice(0, None, 2)), (300, 500, slice(None)), (300, 500, slice(0, None, 3)),
     (300, 500, slice(260)), (300, 500, slice(40, None))],
    ids=["covariance", "gram-all", "gram-interleaved", "gram-fit-rows-first",
         "gram-fit-rows-last"],
)
def test_pca_stage_writes_each_row_in_stream_order(tmp_path, rng, monkeypatch, n_frames, dim, fit):
    # covariance route: every row projected, byte-equal to project; Gram
    # route: other rows byte-equal to project, fit rows within 1 ulp of it,
    # whatever the runs of fit and other rows across 64-row chunks
    monkeypatch.setattr(cache, "CHUNK_ROWS", 64)
    values = rng.standard_normal((n_frames, dim)).astype(np.float32)
    hog = tmp_path / "hog.rcf"
    with CacheWriter(hog, dim) as writer:
        writer.append(values)
    rows = np.arange(n_frames)[fit]
    model = pipeline_module.pca_stage(hog, rows, 12, tmp_path / "pca.bin", tmp_path / "f.rcf")
    assert pipeline_module.project(model, hog, tmp_path / "p.rcf") == n_frames
    features, _ = read_cache(tmp_path / "f.rcf")
    projected, _ = read_cache(tmp_path / "p.rcf")
    if rows.size >= dim:
        assert features.tobytes() == projected.tobytes()
    else:
        _assert_stage_features(features, projected, rows)


@pytest.mark.parametrize("rows", [[5, 2], [2, 2]], ids=["descending", "repeated"])
def test_project_refuses_fit_rows_that_are_not_strictly_ascending(tmp_path, rng, rows):
    # a block's fit rows take one slice of the scores, which are in stream order
    values = rng.standard_normal((10, 8)).astype(np.float32)
    hog = tmp_path / "hog.rcf"
    with CacheWriter(hog, 8) as writer:
        writer.append(values)
    model, _ = fit_pca(values, 3)
    with pytest.raises(ValueError, match="strictly ascending"):
        pipeline_module.project(model, hog, tmp_path / "f.rcf", rows, np.zeros((2, 3)))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["hog.rcf"]


@pytest.mark.parametrize("n_frames", [1025, 1124, 1300])
def test_chunked_projection_rounds_like_one_product(tmp_path, rng, monkeypatch, n_frames):
    # 512-row chunks; a last chunk of 1 or 100 rows joins the one before
    monkeypatch.setattr(cache, "CHUNK_ROWS", 512)
    values = rng.standard_normal((n_frames, 3000)).astype(np.float32)
    hog = tmp_path / "hog.rcf"
    with CacheWriter(hog, values.shape[1]) as writer:
        writer.append(values)
    model, _ = fit_pca(values[::3], 50)
    pipeline_module.project(model, hog, tmp_path / "f.rcf")
    expected = _whole_transform_bytes(model, values, tmp_path / "whole.rcf")
    assert (tmp_path / "f.rcf").read_bytes() == expected
    # equal before the float32 rounding too
    chunked = np.concatenate([transform(model, c) for _, c in row_chunks(CacheRows(hog))])
    assert chunked.tobytes() == transform(model, values).tobytes()


@pytest.mark.parametrize(
    "n_frames, n_fit, dim, k",
    [(700, 500, 6000, 200), (3500, 3000, 300, 64), (850, 800, 1000, 400)],
    ids=["gram", "covariance", "gram-block"],
)
def test_pca_stage_memory_stays_within_its_budget(tmp_path, monkeypatch, n_frames, n_fit, dim, k):
    # one bound per phase: the fit, up to the call of project, and the
    # write.  numpy reports its array allocations to tracemalloc, and
    # scipy's eigh allocates LAPACK's workspace as numpy arrays, so that is
    # seen too
    chunk_rows = 128
    monkeypatch.setattr(cache, "CHUNK_ROWS", chunk_rows)
    rng = np.random.default_rng(5)
    hog = tmp_path / "hog.rcf"
    with CacheWriter(hog, dim) as writer:
        for start in range(0, n_frames, 100):
            writer.append(rng.standard_normal((min(100, n_frames - start), dim)))
    rows = np.sort(rng.choice(n_frames, n_fit, replace=False))
    traced = {}
    real_project = pipeline_module.project

    def traced_project(*args):
        traced["fit"] = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        traced["held"] = tracemalloc.get_traced_memory()[0]
        real_project(*args)
        traced["write"] = tracemalloc.get_traced_memory()[1]

    monkeypatch.setattr(pipeline_module, "project", traced_project)
    tracemalloc.start()
    try:
        pipeline_module.pca_stage(hog, rows, k, tmp_path / "pca.bin", tmp_path / "f.rcf")
    finally:
        tracemalloc.stop()
    gram = n_fit < dim
    m = min(n_fit, dim)  # the Gram matrix is n x n, the covariance D x D
    small = 1 << 17  # numpy's casting buffers and Python objects
    # the fit: the eigenvectors overwrite the m x m matrix, and dsyevd's
    # workspace is 2 m^2 + O(m) more.  On the Gram route the fit rows are
    # held through the eigendecomposition and the components overwrite
    # them; the n x k scores, the kept eigenvector columns, are made after
    # the workspace is freed.  On the covariance route the rows are freed
    # before it, and the k x D components (k <= m = D) are made after it.
    # The rows are read as float32 chunks, the longest a short last one
    # joined; 1 MB covers the small arrays
    held = 3 * m * m if gram else 2 * m * m
    assert traced["fit"] < 8 * (n_fit * dim + held) + 4 * 3 * chunk_rows // 2 * dim + (1 << 20)
    # the write holds the model and, on the Gram route, the float32 scores,
    # and not the float64 ones
    model = 8 * (k * dim + dim + k)
    scores = 4 * n_fit * k if gram else 0
    assert traced["held"] < model + scores + small
    # beside them, one chunk of the rows it projects in float32 and the
    # chunk's float64 projection, with either the chunk's float64 centred
    # copy or, once that is freed, one float32 block of stream rows, as long
    # as the stream on the Gram route.  The fit rows' scores are sliced into
    # the block, never gathered: in the "gram-block" case the block
    # outweighs the copy, so a gathered copy of the scores would break the bound
    c = max(np.diff([0] + cache.chunk_stops(n_frames - n_fit if gram else n_frames)))
    block = n_frames if gram else c
    index = 9 * n_frames  # each stream row's fitted flag, and the rows it reads
    peak = 4 * c * dim + 8 * c * k + max(8 * c * dim, 4 * block * k)
    assert traced["write"] < model + scores + peak + index + small


@pytest.mark.parametrize("reset", [False, True], ids=["one-stream", "reset-per-sequence"])
@pytest.mark.parametrize("chunk_rows", [100, 256])
def test_streamed_reservoir_stage_equals_the_whole_array_run(tmp_path, rng, monkeypatch,
                                                             chunk_rows, reset):
    # 1,100 rows: four or eleven chunks, the 256-row ones on drive-block
    # edges and the 100-row ones off them; every span crosses a chunk edge
    monkeypatch.setattr(cache, "CHUNK_ROWS", chunk_rows)
    features = (3.0 * rng.normal(size=(1100, 12))).astype(np.float32)
    features_path = tmp_path / "features.rcf"
    with CacheWriter(features_path, 12) as writer:
        writer.append(features)
    spec = pipeline_module.reservoir_spec(24, 12, HyperParams(0.8, 0.3, 0.4, 0.1), seed=3)
    bounds = [0, 70, 150, 390, 620, 1010, 1100]
    spans = [(f"s{i}", a, b, 0) for i, (a, b) in enumerate(zip(bounds[:-1], bounds[1:]))]
    states_path = tmp_path / "states.rcf"

    def whole_read(path):
        raise AssertionError(f"whole-array read of {path}")

    monkeypatch.setattr(pipeline_module, "read_cache", whole_read)
    rows = pipeline_module.drive_reservoir(
        spec, features_path, states_path, spans if reset else None
    )
    whole = pipeline_module.run_reservoir(
        spec.build(), features, spans=list(zip(bounds[:-1], bounds[1:])) if reset else None
    )
    assert rows == 1100
    assert read_cache(states_path)[0].tobytes() == whole.tobytes()


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
# A crash in the middle of each stage

def _crash_on_call(number, real):
    """``real``, except that its call ``number`` (counted from 0) raises."""
    calls = itertools.count()

    def crashing(*args, **kwargs):
        if next(calls) == number:
            raise OSError("simulated crash")
        return real(*args, **kwargs)

    return crashing


def _crash_in(stage, monkeypatch):
    """Make ``stage`` raise after a partial write; returns the artifacts it
    was writing, which the crash leaves absent, and those it wrote whole or
    cut before it raised, which the crash leaves."""
    if stage == "hog":  # after five frames
        real = pipeline_module.hog_descriptor
        monkeypatch.setattr(pipeline_module, "hog_descriptor", _crash_on_call(5, real))
        return ("hog",), ()
    if stage == "pca":  # on the second chunk of the projection, before the model is saved
        monkeypatch.setattr(cache, "CHUNK_ROWS", 64)
        real = pipeline_module.transform
        monkeypatch.setattr(pipeline_module, "transform", _crash_on_call(1, real))
        return ("pca_model", "features"), ()
    if stage == "reservoir":  # after writing half the states

        class HalfWriter(CacheWriter):
            def append(self, rows):
                super().append(rows[: len(rows) // 2])
                raise OSError("simulated crash")

        monkeypatch.setattr(pipeline_module, "CacheWriter", HalfWriter)
        return ("states",), ()
    if stage == "train":  # after writing a cut readout
        real = pipeline_module.save_readout_model

        def save_cut(model, path):
            real(model, path)
            Path(path).write_bytes(Path(path).read_bytes()[:-100])
            raise OSError("simulated crash")

        monkeypatch.setattr(pipeline_module, "save_readout_model", save_cut)
        return (), ("readout_model",)
    # evaluate: after writing sequence_results.csv
    real = pipeline_module.write_confusion
    monkeypatch.setattr(pipeline_module, "write_confusion", _crash_on_call(0, real))
    return (), ("sequence_results",)


@pytest.mark.parametrize("stage", ["hog", "pca", "reservoir", "train", "evaluate"])
def test_a_crash_in_the_middle_of_a_stage_is_recomputed_on_reuse(
    pipe, tmp_path, monkeypatch, stage
):
    # the crash runs on a copy of the cold run without pipeline.json, the
    # result files and the stage's own artifacts
    config, report = pipe
    cold = Path(report.out_dir)
    copy_dir = tmp_path / "crashed"
    shutil.copytree(cold, copy_dir)
    absent, left = (
        [report.artifacts[key] for key in keys] for keys in _crash_in(stage, monkeypatch)
    )
    for name in {*absent, *left, *RESULT_FILES, PIPELINE_FILE}:
        (copy_dir / name).unlink()
    crashing = dataclasses.replace(config, out_dir=str(copy_dir))
    with pytest.raises(PipelineStageError, match=f"stage '{stage}' failed") as info:
        run_pipeline(crashing)
    assert info.value.stage == stage
    # a file reaches its name whole: the one the crash cut short is not
    # there, nor any temporary file beside it
    assert not [name for name in absent if (copy_dir / name).exists()]
    assert all((copy_dir / name).exists() for name in left)
    assert not list(copy_dir.glob("*.tmp*"))
    monkeypatch.undo()

    again = run_pipeline(crashing)
    assert again.artifacts == report.artifacts
    for name in (*report.artifacts.values(), PIPELINE_FILE):
        assert (copy_dir / name).read_bytes() == (cold / name).read_bytes(), name
    assert "INTEGRITY WARNING" not in describe_artifacts(copy_dir)


# ---------------------------------------------------------------------------
# A run killed while it writes a cache

# a child `pipeline run` that ends its process by os._exit, with no clean-up,
# once the writer of the cache file argv[1] has appended its second block
KILLED_RUN = """
import os, sys
from photonrc import cache
from photonrc.cli import main

name = sys.argv[1]
append = cache.CacheWriter.append
appended = 0

def killed_append(self, rows):
    global appended
    append(self, rows)
    if os.path.basename(self._fh.name).startswith(name + ".tmp"):
        appended += 1
        if appended == 2:
            os._exit(9)

cache.CHUNK_ROWS = 64  # so the feature cache takes more than one block
cache.CacheWriter.append = killed_append
sys.exit(main(sys.argv[2:]))
"""

# the artifacts a killed stage's run reuses: those of the stages before it
BEFORE = {"hog": (), "features": ("hog",), "states": ("hog", "pca_model", "features")}


@pytest.mark.parametrize("killed", sorted(BEFORE))
def test_a_run_killed_while_it_writes_a_cache_leaves_nothing_after_its_rerun(
    pipe, tmp_path, killed
):
    config, report = pipe
    cold, out_dir = Path(report.out_dir), tmp_path / "killed"
    out_dir.mkdir()
    for key in BEFORE[killed]:
        shutil.copy2(cold / report.artifacts[key], out_dir / report.artifacts[key])
    run = [
        "--out-dir", str(out_dir), "pipeline", "run", "--manifest", config.manifest_path,
        "--components", str(config.pca_components), "--n-nodes", str(config.n_nodes),
        *(f"--{gain.replace('_', '-')}={value}" for gain, value in
          dataclasses.asdict(config.params).items()),
    ]
    src = str(Path(pipeline_module.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    name = report.artifacts[killed]
    child = subprocess.Popen([sys.executable, "-c", KILLED_RUN, name, *run], env=env,
                             stdout=subprocess.DEVNULL)
    assert child.wait(timeout=300) == 9
    # the killed writer's file outlives it
    assert [p.name for p in out_dir.glob("*.tmp*")] == [f"{name}.tmp{child.pid}"]

    assert main(run) == 0
    written = {*report.artifacts.values(), *RESULT_FILES, PIPELINE_FILE}
    assert sorted(p.name for p in out_dir.iterdir()) == sorted([*written, "config.json"])
    for name in written:
        assert (out_dir / name).read_bytes() == (cold / name).read_bytes(), name


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


def test_describe_flags_a_truncated_cache(pipe, tmp_path):
    _, report = pipe
    copy_dir = tmp_path / "copy"
    shutil.copytree(report.out_dir, copy_dir)
    victim = copy_dir / report.artifacts["states"]
    data = victim.read_bytes()
    victim.write_bytes(data[: len(data) // 2])  # the header survives, half the rows do not
    line = next(l for l in describe_artifacts(copy_dir).splitlines() if "states:" in l)
    assert "INTEGRITY WARNING" in line
    assert f"{len(data)} bytes" in line  # the size the header announces


def test_describe_grid_only_directory(pipe, tmp_path):
    config, report = pipe
    data = prepare_data(config.manifest_path, Path(report.out_dir) / report.artifacts["features"])
    spec = GridSpec((0.5, 0.8), (0.01,), (0.1,), (0.05,), n_nodes=16)
    run_grid(spec, data, log_path=tmp_path / "grid_log.csv")
    text = describe_artifacts(tmp_path)
    assert text == "grid-search directory: 2 trials logged in grid_log.csv"


def test_describe_rejects_unrelated_directory(tmp_path):
    with pytest.raises(NotAPipelineDirError):
        describe_artifacts(tmp_path)
