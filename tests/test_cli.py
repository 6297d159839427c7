"""Exit codes and artifacts of the command-line interface."""

import dataclasses
import json
import math
import os
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from photonrc import cache, pipeline
from photonrc.cache import CacheWriter, read_cache, read_cache_header, write_json
from photonrc.cli import _hyperparams, build_parser, main
from photonrc.hog import HogConfig, feature_count
from photonrc.dataset import Split, load_manifest, save_manifest
from photonrc.errors import (
    ParseError, PipelineStageError, SchemaError, SingularError, exit_code,
)
from photonrc.pipeline import PCA_FIT_ON, PipelineConfig, describe_artifacts, prepare_data
from photonrc.reservoir import RESPONSE, load_reservoir_spec
from photonrc.synthetic import generate_corpus
from photonrc.tuning import GridSpec, load_grid_spec, run_grid

from _oracles import float32_ulps, version_1_bytes


@pytest.fixture(scope="module")
def cli_env(tmp_path_factory):
    """A small corpus plus every stage artifact produced through main()."""
    root = tmp_path_factory.mktemp("cli")
    manifest = generate_corpus(
        root / "corpus", n_subjects=2, n_repetitions=1,
        resolution=(40, 48), frames_range=(8, 9), seed=21,
    )
    art = root / "artifacts"
    paths = {
        "root": root,
        "manifest": str(manifest),
        "hog": str(art / "hog.rcf"),
        "pca": str(art / "pca.bin"),
        "features": str(art / "features.rcf"),
        "projected": str(art / "projected.rcf"),
        "spec": str(art / "reservoir.json"),
        "states": str(art / "states.rcf"),
        "readout": str(art / "readout.bin"),
        "results": str(art / "results"),
    }
    steps = [
        ["--out-dir", str(art), "extract-hog",
         "--manifest", paths["manifest"], "--out", paths["hog"]],
        ["--out-dir", str(art), "pca", "fit", "--in", paths["hog"],
         "--manifest", paths["manifest"], "--k", "12", "--out", paths["pca"]],
        ["pca", "transform", "--model", paths["pca"], "--in", paths["hog"],
         "--out", paths["projected"]],
        ["reservoir", "run", "--features", paths["features"], "--n-nodes", "32",
         "--coupling-density", "0.05", "--save-spec", paths["spec"],
         "--out", paths["states"]],
        ["train", "--states", paths["states"], "--manifest", paths["manifest"],
         "--out", paths["readout"]],
        ["evaluate", "--model", paths["readout"], "--states", paths["states"],
         "--manifest", paths["manifest"], "--out", paths["results"]],
    ]
    paths["codes"] = [main(argv) for argv in steps]
    return paths


# ---------------------------------------------------------------------------
# Happy paths

def test_stage_commands_succeed(cli_env):
    assert cli_env["codes"] == [0, 0, 0, 0, 0, 0]


def test_stage_artifacts_exist(cli_env):
    import os

    for key in ("hog", "pca", "features", "projected", "spec", "states", "readout"):
        assert os.path.isfile(cli_env[key]), key
    rows, dim, _ = read_cache_header(cli_env["hog"])
    assert dim == feature_count((40, 48))
    rows2, dim2, _ = read_cache_header(cli_env["features"])
    assert (rows2, dim2) == (rows, 12)
    rows3, dim3, _ = read_cache_header(cli_env["states"])
    assert (rows3, dim3) == (rows, 32)
    for name in ("sequence_results.csv", "confusion.csv", "score.txt"):
        assert os.path.isfile(os.path.join(cli_env["results"], name)), name


def test_evaluate_prints_the_score_line(cli_env, capsys, tmp_path):
    code = main([
        "evaluate", "--model", cli_env["readout"], "--states", cli_env["states"],
        "--manifest", cli_env["manifest"], "--out", str(tmp_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("score ")
    assert "classes populated" in out


def test_extract_hog_honors_shape_flags(cli_env, tmp_path):
    out = tmp_path / "hog4.rcf"
    code = main([
        "extract-hog", "--manifest", cli_env["manifest"],
        "--cell", "4", "--block", "1", "--bins", "6", "--out", str(out),
    ])
    assert code == 0
    _, dim, layout = read_cache_header(out)
    config = HogConfig(cell_size=4, block_size=1, num_bins=6)
    assert dim == feature_count((40, 48), config)
    assert layout.tolist() == [12, 10, 1, 6]


def test_pca_fit_flag_aliases_agree(cli_env, tmp_path):
    alias = tmp_path / "pca_alias.bin"
    code = main([
        "--out-dir", str(tmp_path), "pca", "fit", "--features", cli_env["hog"],
        "--manifest", cli_env["manifest"],
        "--components", "12", "--out", str(alias),
    ])
    assert code == 0
    with open(alias, "rb") as fh_a, open(cli_env["pca"], "rb") as fh_b:
        assert fh_a.read() == fh_b.read()
    with open(tmp_path / "features.rcf", "rb") as fh_a, open(cli_env["features"], "rb") as fh_b:
        assert fh_a.read() == fh_b.read()


def test_pca_transform_agrees_with_the_features_pca_fit_writes(cli_env):
    # pca fit takes its fit rows' features from the fit's scores; pca
    # transform projects every row, so those rows may differ by 1 ulp
    fitted, _ = read_cache(cli_env["features"])
    projected, _ = read_cache(cli_env["projected"])
    train = prepare_data(cli_env["manifest"], None).train_rows
    other = np.setdiff1d(np.arange(fitted.shape[0]), train)
    assert fitted[other].tobytes() == projected[other].tobytes()
    assert float32_ulps(fitted[train], projected[train]).max() <= 1


def test_reservoir_spec_file_reproduces_states(cli_env, tmp_path):
    out = tmp_path / "states_from_spec.rcf"
    code = main([
        "reservoir", "run", "--features", cli_env["features"],
        "--spec", cli_env["spec"], "--out", str(out),
    ])
    assert code == 0
    original, _ = read_cache(cli_env["states"])
    replayed, _ = read_cache(out)
    np.testing.assert_array_equal(original, replayed)


def test_reservoir_reset_needs_manifest(cli_env, tmp_path):
    argv = [
        "reservoir", "run", "--features", cli_env["features"], "--n-nodes", "16",
        "--coupling-density", "0.05",
        "--reset-per-sequence", "--out", str(tmp_path / "s.rcf"),
    ]
    assert main(argv) == 1
    assert main(argv + ["--manifest", cli_env["manifest"]]) == 0


def _gridsearch_argv(cli_env, tmp_path):
    grid_path = tmp_path / "grid.json"
    spec = GridSpec(
        feedback_gain=(0.5, 0.8), input_gain=(0.01,), coupling_gain=(0.1,),
        coupling_density=(0.05,), n_nodes=16,
    )
    write_json(grid_path, dataclasses.asdict(spec))
    return [
        "gridsearch", "--grid", str(grid_path), "--manifest", cli_env["manifest"],
        "--features", cli_env["features"], "--log", str(tmp_path / "grid_log.csv"),
    ]


def test_gridsearch_runs_and_resumes(cli_env, tmp_path, capsys):
    argv = _gridsearch_argv(cli_env, tmp_path)
    log = tmp_path / "grid_log.csv"
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "2 trials (0 failed)" in out
    assert "best score" in out
    assert len(log.read_text().splitlines()) == 3

    assert main(argv + ["--resume"]) == 0
    assert "2 trials (0 failed)" in capsys.readouterr().out
    assert len(log.read_text().splitlines()) == 3  # nothing recomputed


def test_gridsearch_without_resume_starts_a_fresh_log(cli_env, tmp_path, capsys):
    argv = _gridsearch_argv(cli_env, tmp_path)
    log = tmp_path / "grid_log.csv"
    assert main(argv) == 0
    first = log.read_bytes()
    assert main(argv) == 0
    assert main(argv + ["--resume"]) == 0
    assert "2 trials (0 failed)" in capsys.readouterr().out
    lines = log.read_text().splitlines()
    assert len(lines) == 3 and lines.count(lines[0]) == 1  # one header, two rows
    assert log.read_bytes().splitlines()[0] == first.splitlines()[0]


def test_gridsearch_log_in_a_new_nested_directory_is_written(cli_env, tmp_path, capsys):
    argv = _gridsearch_argv(cli_env, tmp_path)
    log = tmp_path / "new" / "dir" / "log.csv"
    argv[argv.index("--log") + 1] = str(log)
    assert main(argv) == 0
    assert f"log at {log}" in capsys.readouterr().out
    assert len(log.read_text().splitlines()) == 3


def test_reservoir_run_spec_in_a_new_nested_directory_is_written(cli_env, tmp_path):
    spec = tmp_path / "new" / "nested" / "spec.json"
    code = main([
        "reservoir", "run", "--features", cli_env["features"], "--n-nodes", "32",
        "--coupling-density", "0.05", "--save-spec", str(spec),
        "--out", str(tmp_path / "states.rcf"),
    ])
    assert code == 0
    assert spec.read_bytes() == Path(cli_env["spec"]).read_bytes()


def test_gridsearch_help_names_the_default_log(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["gridsearch", "--help"])
    assert exit_.value.code == 0
    assert "checkpoint CSV (default <out-dir>/grid_log.csv)" in capsys.readouterr().out


def test_gridsearch_resume_reruns_a_torn_last_row(cli_env, tmp_path, capsys):
    argv = _gridsearch_argv(cli_env, tmp_path)
    log = tmp_path / "grid_log.csv"
    assert main(argv) == 0
    log.write_bytes(log.read_bytes()[:-40])
    assert main(argv + ["--resume"]) == 0
    assert "2 trials (0 failed)" in capsys.readouterr().out
    assert len(log.read_text().splitlines()) == 3


def test_gridsearch_malformed_log_is_data_error(cli_env, tmp_path, capsys):
    argv = _gridsearch_argv(cli_env, tmp_path)
    log = tmp_path / "grid_log.csv"
    assert main(argv) == 0
    lines = log.read_bytes().splitlines(keepends=True)
    lines[1] = b"0.5,oops\r\n"
    log.write_bytes(b"".join(lines))
    assert main(argv + ["--resume"]) == 2
    assert "malformed grid-log row" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [-1.0, "NaN", "Infinity"])
def test_gridsearch_rejects_an_invalid_lambda(cli_env, tmp_path, capsys, bad):
    argv = _gridsearch_argv(cli_env, tmp_path)
    grid_path = tmp_path / "grid.json"
    doc = json.loads(grid_path.read_text())
    doc["ridge_lambda"] = [None, bad]
    grid_path.write_text(json.dumps(doc))
    assert main(argv) == 2
    assert "ridge_lambda" in capsys.readouterr().err
    assert not (tmp_path / "grid_log.csv").exists()


def test_pipeline_run_and_describe(cli_env, tmp_path, capsys):
    out_dir = tmp_path / "run"
    code = main([
        "--out-dir", str(out_dir), "pipeline", "run",
        "--manifest", cli_env["manifest"], "--components", "12",
        "--n-nodes", "32", "--coupling-density", "0.05",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("score ")
    assert (out_dir / "pipeline.json").is_file()
    assert (out_dir / "config.json").is_file()

    assert main(["describe", str(out_dir)]) == 0
    text = capsys.readouterr().out
    assert f"pipeline run in {out_dir}" in text
    assert "score:" in text


def test_stage_chain_equals_pipeline_run(tiny_corpus, tmp_path, capsys):
    manifest = str(tiny_corpus)
    chain = tmp_path / "chain"
    steps = [
        ["extract-hog", "--manifest", manifest],
        # pca fit writes the model and the features
        ["pca", "fit", "--in", str(chain / "hog.rcf"), "--manifest", manifest, "--k", "24"],
        ["reservoir", "run", "--features", str(chain / "features.rcf"), "--n-nodes", "64"],
        ["train", "--states", str(chain / "states.rcf"), "--manifest", manifest],
        ["evaluate", "--model", str(chain / "readout.bin"),
         "--states", str(chain / "states.rcf"), "--manifest", manifest],
    ]
    assert [main(["--out-dir", str(chain)] + argv) for argv in steps] == [0] * 5
    piped = tmp_path / "pipe"
    assert main([
        "--out-dir", str(piped), "pipeline", "run", "--manifest", manifest,
        "--components", "24", "--n-nodes", "64",
    ]) == 0
    capsys.readouterr()
    artifacts = json.loads((piped / "pipeline.json").read_text())["artifacts"]
    pairs = {
        "hog.rcf": artifacts["hog"],
        "pca.bin": artifacts["pca_model"],
        "features.rcf": artifacts["features"],
        "states.rcf": artifacts["states"],
        "readout.bin": artifacts["readout_model"],
    }
    for name in ("score.txt", "confusion.csv", "sequence_results.csv"):
        pairs[name] = name
    for chained, pipelined in pairs.items():
        assert (chain / chained).read_bytes() == (piped / pipelined).read_bytes(), chained
    states, _ = read_cache(chain / "states.rcf")
    assert np.isin(states, RESPONSE.astype(np.float32)).all()


def test_no_stage_reads_the_whole_state_cache(tiny_corpus, tmp_path, monkeypatch, capsys):
    # the train and evaluate stages read the state cache a chunk at a time,
    # in pipeline run and in the train and evaluate commands alike
    reads = []
    real = cache.read_cache

    def recording(path):
        reads.append(os.path.basename(path))
        return real(path)

    for module in (cache, pipeline):
        monkeypatch.setattr(module, "read_cache", recording)
    manifest = str(tiny_corpus)
    out = tmp_path / "run"
    assert main([
        "--out-dir", str(out), "pipeline", "run", "--manifest", manifest,
        "--components", "24", "--n-nodes", "64",
    ]) == 0
    states = str(out / json.loads((out / "pipeline.json").read_text())["artifacts"]["states"])
    readout = str(tmp_path / "readout.bin")
    assert main(["train", "--states", states, "--manifest", manifest, "--out", readout]) == 0
    assert main([
        "evaluate", "--model", readout, "--states", states, "--manifest", manifest,
        "--out", str(tmp_path / "results"),
    ]) == 0
    capsys.readouterr()
    assert not [name for name in reads if name.startswith("states")]


def test_describe_defaults_to_out_dir(cli_env, tmp_path, capsys):
    grid_path = tmp_path / "grid.json"
    write_json(grid_path, dataclasses.asdict(GridSpec((0.5,), (0.01,), (0.1,), (0.05,), n_nodes=16)))
    assert main([
        "--out-dir", str(tmp_path), "gridsearch", "--grid", str(grid_path),
        "--manifest", cli_env["manifest"], "--features", cli_env["features"],
    ]) == 0
    assert main(["--out-dir", str(tmp_path), "describe"]) == 0
    assert "grid-search directory: 1 trials" in capsys.readouterr().out


@pytest.mark.parametrize(
    "tail",
    [lambda row: row[:-10], lambda row: row],
    ids=["torn-third-row", "first-row-logged-again"],
)
def test_describe_counts_the_trials_a_resume_keeps(cli_env, tmp_path, capsys, tail):
    argv = _gridsearch_argv(cli_env, tmp_path)
    log = tmp_path / "grid_log.csv"
    assert main(argv) == 0
    first_row = log.read_bytes().splitlines(keepends=True)[1]
    with open(log, "ab") as fh:
        fh.write(tail(first_row))
    damaged = log.read_bytes()
    assert main(["describe", str(tmp_path)]) == 0
    assert "grid-search directory: 2 trials" in capsys.readouterr().out
    assert log.read_bytes() == damaged  # describe writes nothing
    assert main(argv + ["--resume"]) == 0
    assert "2 trials (0 failed)" in capsys.readouterr().out


@pytest.mark.parametrize(
    "damage",
    [lambda log: b"header\nrow\n", lambda log: log.replace(b"\n0.", b"\n\xff.", 1)],
    ids=["no-log-columns", "non-utf8-gain"],
)
def test_describe_rejects_a_log_that_is_not_a_grid_log(cli_env, tmp_path, capsys, damage):
    assert main(_gridsearch_argv(cli_env, tmp_path)) == 0
    log = tmp_path / "grid_log.csv"
    log.write_bytes(damage(log.read_bytes()))
    capsys.readouterr()
    assert main(["describe", str(tmp_path)]) == 2
    assert str(log) in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["pipeline", "grid"])
def test_describe_lists_the_temporary_files_a_killed_write_left(cli_env, tmp_path, capsys, kind):
    if kind == "pipeline":
        run = ["--out-dir", str(tmp_path), "pipeline", "run", "--manifest", cli_env["manifest"]]
        assert main(run + _RUN_FLAGS) == 0
    else:
        assert main(_gridsearch_argv(cli_env, tmp_path)) == 0
    capsys.readouterr()
    assert main(["describe", str(tmp_path)]) == 0
    clean = capsys.readouterr().out
    assert "temporary" not in clean
    (tmp_path / "states_0.rcf.tmp4242").write_bytes(b"torn")
    (tmp_path / "grid_log.csv.tmp17").write_bytes(b"")
    (tmp_path / "notes.tmp").write_bytes(b"no pid")  # not a name replaced() writes
    assert main(["describe", str(tmp_path)]) == 0
    assert capsys.readouterr().out == clean + (
        "  temporary file: grid_log.csv.tmp17 (0 bytes)\n"
        "  temporary file: states_0.rcf.tmp4242 (4 bytes)\n"
    )
    assert (tmp_path / "states_0.rcf.tmp4242").read_bytes() == b"torn"  # describe removes none


# ---------------------------------------------------------------------------
# Usage errors (exit 1)

def test_hyperparameter_flags_default_to_the_pipeline_defaults():
    args = build_parser().parse_args(["pipeline", "run", "--manifest", "m.json"])
    assert _hyperparams(args) == PipelineConfig(manifest_path="m.json", out_dir=".").params


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["polish"]) == 1
    assert "usage error" in capsys.readouterr().err


def test_missing_required_flag_is_usage_error(cli_env, capsys):
    assert main(["extract-hog"]) == 1
    assert main(["train", "--states", cli_env["states"]]) == 1
    capsys.readouterr()


def test_bad_choice_is_usage_error(cli_env, tmp_path, capsys):
    code = main([
        "--out-dir", str(tmp_path), "pipeline", "run", "--manifest", cli_env["manifest"],
        "--cache-policy", "maybe",
    ])
    assert code == 1
    assert "invalid choice: 'maybe'" in capsys.readouterr().err
    # both forms of the recurrence read the same values, so no command takes
    # a --variant
    for argv in (
        ["reservoir", "run", "--features", cli_env["features"]],
        ["pipeline", "run", "--manifest", cli_env["manifest"]],
        ["train", "--states", cli_env["states"], "--manifest", cli_env["manifest"]],
    ):
        assert main(["--out-dir", str(tmp_path)] + argv + ["--variant", "phase"]) == 1
        assert "unrecognized arguments: --variant phase" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# Data errors (exit 2)

def test_missing_manifest_is_data_error(tmp_path, capsys):
    code = main([
        "extract-hog", "--manifest", str(tmp_path / "nope.json"),
        "--out", str(tmp_path / "hog.rcf"),
    ])
    assert code == 2
    capsys.readouterr()


def test_corrupt_cache_is_data_error(cli_env, tmp_path, capsys):
    bad = tmp_path / "bad.rcf"
    bad.write_bytes(b"JUNKJUNKJUNKJUNK")
    code = main([
        "pca", "fit", "--in", str(bad), "--manifest", cli_env["manifest"],
        "--k", "4", "--out", str(tmp_path / "pca.bin"),
    ])
    assert code == 2
    assert "data error" in capsys.readouterr().err


@pytest.mark.parametrize("damage", ["truncated", "overlong"])
@pytest.mark.parametrize("command", ["fit", "transform"])
def test_torn_hog_cache_is_data_error_for_pca(cli_env, tmp_path, capsys, damage, command):
    with open(cli_env["hog"], "rb") as fh:
        data = fh.read()
    bad = tmp_path / "hog.rcf"
    bad.write_bytes(data[:-4] if damage == "truncated" else data + b"\x00" * 4)
    source = ["--manifest", cli_env["manifest"], "--k", "4"] if command == "fit" else [
        "--model", cli_env["pca"]
    ]
    code = main(["pca", command, "--in", str(bad), *source, "--out", str(tmp_path / "out")])
    assert code == 2
    assert "expected" in capsys.readouterr().err


def test_row_count_mismatch_is_data_error(cli_env, tmp_path, capsys):
    small = tmp_path / "small.rcf"
    with CacheWriter(small, 4) as writer:
        writer.append(np.zeros((3, 4), dtype=np.float32))
    code = main([
        "train", "--states", str(small), "--manifest", cli_env["manifest"],
        "--out", str(tmp_path / "readout.bin"),
    ])
    assert code == 2
    assert "rows" in capsys.readouterr().err


def test_describe_empty_directory_is_data_error(tmp_path, capsys):
    assert main(["describe", str(tmp_path)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "text",
    ["{not json", "[1, 2]", '{"dimensions": [1]}', '{"artifacts": {"x": 5}}'],
    ids=["not-json", "not-an-object", "dimensions-not-an-object", "artifact-not-a-name"],
)
def test_describe_bad_pipeline_json_is_data_error(tmp_path, capsys, text):
    (tmp_path / "pipeline.json").write_text(text)
    assert main(["describe", str(tmp_path)]) == 2
    assert "data error" in capsys.readouterr().err


def test_evaluate_rejects_a_cache_with_trailing_bytes(cli_env, tmp_path, capsys):
    long = tmp_path / "long.rcf"
    with open(cli_env["states"], "rb") as fh:
        long.write_bytes(fh.read() + b"\x00" * 4)
    code = main([
        "evaluate", "--model", cli_env["readout"], "--states", str(long),
        "--manifest", cli_env["manifest"], "--out", str(tmp_path / "results"),
    ])
    assert code == 2
    assert "expected" in capsys.readouterr().err


@pytest.mark.parametrize("damage", ["short", "long"])
def test_evaluate_rejects_a_readout_of_the_wrong_size(cli_env, tmp_path, capsys, damage):
    bad = tmp_path / "readout.bin"
    with open(cli_env["readout"], "rb") as fh:
        data = fh.read()
    bad.write_bytes({"short": data[:-1], "long": data + b"\x00"}[damage])
    code = main([
        "evaluate", "--model", str(bad), "--states", cli_env["states"],
        "--manifest", cli_env["manifest"], "--out", str(tmp_path / "results"),
    ])
    assert code == 2
    assert "expected" in capsys.readouterr().err


# Each command that reads a binary artifact: the kind it reads, the cli_env
# key of a file of that kind, and its argv given the file to read there and a
# scratch directory.
KIND_READERS = {
    "pca transform --model": ("pca model", "pca", lambda env, bad, out: [
        "pca", "transform", "--model", bad, "--in", env["hog"], "--out", str(out / "f.rcf")]),
    "evaluate --model": ("readout", "readout", lambda env, bad, out: [
        "evaluate", "--model", bad, "--states", env["states"], "--manifest", env["manifest"],
        "--out", str(out)]),
    "train --states": ("row cache", "states", lambda env, bad, out: [
        "train", "--states", bad, "--manifest", env["manifest"], "--out", str(out / "r.bin")]),
    "evaluate --states": ("row cache", "states", lambda env, bad, out: [
        "evaluate", "--model", env["readout"], "--states", bad, "--manifest", env["manifest"],
        "--out", str(out)]),
    "reservoir run --features": ("row cache", "features", lambda env, bad, out: [
        "reservoir", "run", "--features", bad, "--n-nodes", "32", "--out", str(out / "s.rcf")]),
    "pca fit --in": ("row cache", "hog", lambda env, bad, out: [
        "--out-dir", str(out), "pca", "fit", "--in", bad, "--manifest", env["manifest"],
        "--k", "12", "--out", str(out / "p.bin")]),
}
# the cli_env key of a file of each kind
KINDS = {"row cache": "states", "pca model": "pca", "readout": "readout"}


@pytest.mark.parametrize(
    "command,kind",
    [
        (command, kind) for command, (own, _, _) in KIND_READERS.items()
        for kind in [*KINDS, "version 1"] if kind != own
    ],
)
def test_a_file_of_another_kind_is_a_data_error_naming_it(cli_env, tmp_path, capsys, command, kind):
    # a file of another kind, or of the right kind in format version 1
    _, key, argv = KIND_READERS[command]
    if kind == "version 1":
        bad = tmp_path / f"old{Path(cli_env[key]).suffix}"
        bad.write_bytes(version_1_bytes(cli_env[key]))
    else:
        bad = tmp_path / Path(cli_env[KINDS[kind]]).name
        shutil.copy(cli_env[KINDS[kind]], bad)
    assert main(argv(cli_env, str(bad), tmp_path / "out")) == 2
    err = capsys.readouterr().err
    # the container's kind check, or its version check
    assert re.search(
        rf"^data error: {re.escape(str(bad))}: "
        r"(holds float\d\d values, expected float\d\d|meta length \d+, expected \d+"
        r"|unsupported version 1, expected 2)$",
        err,
    ), err


@pytest.mark.parametrize(
    "flags",
    [
        ["--feedback-gain", "nan"],
        ["--input-gain", "inf"],
        ["--coupling-gain=-inf"],
        ["--lambda", "-1"],
        ["--lambda", "nan"],
        ["--lambda", "inf"],
        ["--n-nodes", "-3"],
        ["--n-nodes", "0"],
        ["--components", "0"],
        ["--components", "-1"],
    ],
)
def test_pipeline_run_rejects_bad_gains_and_lambdas_before_any_stage(
    cli_env, tmp_path, capsys, flags
):
    out_dir = tmp_path / "run"
    code = main([
        "--out-dir", str(out_dir), "pipeline", "run",
        "--manifest", cli_env["manifest"], "--components", "12", "--n-nodes", "32", *flags,
    ])
    assert code == 1
    flag = flags[0].split("=")[0]
    name = "ridge_lambda" if flag == "--lambda" else flag[2:].replace("-", "_")
    assert name in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("n_nodes", ["-3", "0"])
def test_reservoir_run_rejects_a_node_count_below_one(cli_env, tmp_path, capsys, n_nodes):
    code = main([
        "reservoir", "run", "--features", cli_env["features"], "--n-nodes", n_nodes,
        "--save-spec", str(tmp_path / "spec.json"), "--out", str(tmp_path / "states.rcf"),
    ])
    assert code == 1
    assert "n_nodes must be at least 1" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("bad", ["-1", "nan", "inf"])
def test_train_rejects_a_bad_lambda_before_writing(cli_env, tmp_path, capsys, bad):
    out = tmp_path / "readout.bin"
    code = main([
        "train", "--states", cli_env["states"], "--manifest", cli_env["manifest"],
        "--lambda", bad, "--out", str(out),
    ])
    assert code == 1
    assert "ridge_lambda" in capsys.readouterr().err
    assert not out.exists()


# Each JSON input, damaged: a data error (exit 2) naming the file, and the
# field where one field is damaged.
DAMAGES = ["non-utf8", "not-json", "array", "null", "1e400"]
# The integer field of each document that the last two damages replace.
INT_FIELDS = {"manifest": ("split_seed",), "grid": ("n_nodes",), "spec": ("seed",)}
# More damages of one field each: (document, damage) -> (the field's path in
# the document, the JSON written there, or None to delete the field).  Most
# are a value of the wrong JSON type that a coercion would take: int() floors
# a fraction and reads a boolean or a numeric string, float() reads them too,
# str() makes a root path of null, and bool() reads any string as true.  A
# missing nested field is named by its whole path, and a sequence_id repeated
# from sequences[0] is refused.
FIELD_DAMAGES = {
    ("manifest", "repeated-id"): (("sequences", 1, "sequence_id"), '"s01_boxing_r1"'),
    ("manifest", "missing-subject"): (("sequences", 5, "subject"), None),
    ("manifest", "missing-height"): (("resolution", "height"), None),
    ("spec", "missing-gain"): (("hyperparameters", "input_gain"), None),
    ("manifest", "true"): (("split_seed",), "true"),
    ("manifest", "fraction"): (("sequences", 0, "frame_count"), "3.9"),
    ("manifest", "string"): (("sequences", 0, "subject"), '"1"'),
    ("manifest", "null-root"): (("frame_store_root",), "null"),
    ("grid", "true"): (("n_nodes",), "true"),
    ("grid", "fraction"): (("n_nodes",), "16.9"),
    ("grid", "string-flag"): (("allow_out_of_range",), '"false"'),
    ("grid", "true-gain"): (("feedback_gain", 0), "true"),
    ("grid", "string-gain"): (("input_gain", 0), '"0.5"'),
    ("grid", "string-lambda"): (("ridge_lambda", 0), '"1e-3"'),
    ("spec", "true"): (("seed",), "true"),
    ("spec", "fraction"): (("seed",), "16.9"),
    ("spec", "true-gain"): (("hyperparameters", "feedback_gain"), "true"),
    ("pipeline", "string-score"): (("score",), '"600"'),
}


def _field_damage(kind, damage):
    """(path of the damaged field, JSON written there), or None if ``damage`` breaks the file."""
    if damage in ("null", "1e400"):
        return INT_FIELDS[kind], damage
    return FIELD_DAMAGES.get((kind, damage))


def _damaged(raw, kind, damage):
    """The bytes ``raw`` of a ``kind`` JSON object after ``damage``."""
    if damage == "non-utf8":
        return raw.replace(b'"', b'"\xff', 1)
    if damage == "not-json":
        return raw[: len(raw) // 2]
    if damage == "array":
        return b"[" + raw + b"]"
    (*parents, last), bad = _field_damage(kind, damage)
    doc = json.loads(raw)
    target = doc
    for key in parents:
        target = target[key]
    if bad is None:
        del target[last]
        return json.dumps(doc).encode()
    target[last] = "BAD"
    return json.dumps(doc).replace('"BAD"', bad).encode()


def _named_field(kind, damage):
    """What the loader's message says of the damaged field: "<name> must be", or
    "missing field '<path>'" for a deleted one ("" if no field is damaged)."""
    field = _field_damage(kind, damage)
    if field is None:
        return ""
    path, bad = field
    if bad is None:
        name = "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in path)
        return f"missing field '{name[1:]}'"
    name = [key for key in path if isinstance(key, str)][-1]
    return f"{name} must be"


LOADERS = {
    "manifest": load_manifest,
    "grid": load_grid_spec,
    "spec": load_reservoir_spec,
    "pipeline": lambda path: describe_artifacts(os.path.dirname(path)),
}


@pytest.fixture(scope="module")
def json_inputs(cli_env, tmp_path_factory):
    """A sound file of each JSON input: manifest, grid spec, reservoir spec, pipeline.json."""
    root = tmp_path_factory.mktemp("json_inputs")
    grid = root / "grid.json"
    write_json(grid, dataclasses.asdict(GridSpec((0.5,), (0.01,), (0.1,), (0.05,), n_nodes=16)))
    assert main([
        "--out-dir", str(root / "run"), "pipeline", "run", "--manifest", cli_env["manifest"],
        "--components", "12", "--n-nodes", "32", "--coupling-density", "0.05",
    ]) == 0
    return {
        "manifest": cli_env["manifest"],
        "grid": str(grid),
        "spec": cli_env["spec"],
        "pipeline": str(root / "run" / "pipeline.json"),
    }


def _damaged_copy(json_inputs, kind, damage, tmp_path):
    source = json_inputs[kind]
    path = tmp_path / os.path.basename(source)
    with open(source, "rb") as fh:
        path.write_bytes(_damaged(fh.read(), kind, damage))
    return str(path)


CASES = (
    [(kind, damage) for kind in INT_FIELDS for damage in DAMAGES]
    + [("pipeline", damage) for damage in DAMAGES[:3]]
    + list(FIELD_DAMAGES)
)


@pytest.mark.parametrize("kind,damage", CASES)
def test_a_damaged_json_input_is_named_by_its_loader(json_inputs, tmp_path, kind, damage):
    path = _damaged_copy(json_inputs, kind, damage, tmp_path)
    expected = ParseError if damage in ("non-utf8", "not-json") else SchemaError
    with pytest.raises(expected, match=re.escape(path)) as error:
        LOADERS[kind](path)
    assert _named_field(kind, damage) in str(error.value)


# the command reading each JSON input
COMMANDS = {
    "pipeline run": "manifest",
    "train": "manifest",
    "gridsearch": "grid",
    "reservoir run": "spec",
    "describe": "pipeline",
}


@pytest.mark.parametrize(
    "command,damage",
    [(command, damage) for command, kind in COMMANDS.items() for k, damage in CASES if k == kind],
)
def test_a_damaged_json_input_is_a_data_error(
    cli_env, json_inputs, tmp_path, capsys, command, damage
):
    path = _damaged_copy(json_inputs, COMMANDS[command], damage, tmp_path)
    argv = {
        "pipeline run": ["pipeline", "run", "--manifest", path, "--components", "12"],
        "train": ["train", "--states", cli_env["states"], "--manifest", path],
        "gridsearch": [
            "gridsearch", "--grid", path, "--manifest", cli_env["manifest"],
            "--features", cli_env["features"],
        ],
        "reservoir run": ["reservoir", "run", "--features", cli_env["features"], "--spec", path],
        "describe": ["describe", os.path.dirname(path)],
    }[command]
    assert main(["--out-dir", str(tmp_path / "out")] + argv) == 2
    err = capsys.readouterr().err
    assert path in err and _named_field(COMMANDS[command], damage) in err


@pytest.mark.parametrize("n_nodes", [0, -4])
def test_gridsearch_rejects_a_node_count_below_one(cli_env, tmp_path, capsys, n_nodes):
    argv = _gridsearch_argv(cli_env, tmp_path)
    grid_path = tmp_path / "grid.json"
    doc = json.loads(grid_path.read_text())
    doc["n_nodes"] = n_nodes
    grid_path.write_text(json.dumps(doc))
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert str(grid_path) in err and "n_nodes must be at least 1" in err
    assert not (tmp_path / "grid_log.csv").exists()


@pytest.mark.parametrize("fraction", ["1.5", "0", "nan"])
def test_gridsearch_rejects_a_validation_fraction_outside_zero_to_one(
    cli_env, tmp_path, capsys, fraction
):
    argv = _gridsearch_argv(cli_env, tmp_path) + ["--validation-fraction", fraction]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"validation_fraction must lie in the open interval (0, 1), got {float(fraction)}" in err
    assert not (tmp_path / "grid_log.csv").exists()


@pytest.mark.parametrize("field", ["n_nodes", "input_dim"])
def test_reservoir_run_rejects_a_spec_count_below_one(cli_env, tmp_path, capsys, field):
    spec = tmp_path / "spec.json"
    with open(cli_env["spec"], encoding="utf-8") as fh:
        doc = json.load(fh)
    doc[field] = 0
    spec.write_text(json.dumps(doc))
    out = tmp_path / "states.rcf"
    code = main([
        "reservoir", "run", "--features", cli_env["features"], "--spec", str(spec),
        "--out", str(out),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert str(spec) in err and f"{field} must be at least 1" in err
    assert not out.exists()


def test_reservoir_run_rejects_a_spec_of_another_prng_family(cli_env, tmp_path, capsys):
    with open(cli_env["spec"], encoding="utf-8") as fh:
        doc = json.load(fh)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({**doc, "prng_family": "mersenne"}))
    out = tmp_path / "states.rcf"
    code = main([
        "reservoir", "run", "--features", cli_env["features"], "--spec", str(spec),
        "--out", str(out),
    ])
    assert code == 2
    assert f"{spec}: unsupported prng_family 'mersenne'" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# Numerical errors (exit 3)

def test_singular_training_is_numerical_error(cli_env, tmp_path, capsys):
    rows, _, _ = read_cache_header(cli_env["states"])
    zeros = tmp_path / "zeros.rcf"
    with CacheWriter(zeros, 4) as writer:
        writer.append(np.zeros((rows, 4), dtype=np.float32))
    code = main([
        "train", "--states", str(zeros), "--manifest", cli_env["manifest"],
        "--lambda", "0", "--out", str(tmp_path / "readout.bin"),
    ])
    assert code == 3
    assert "numerical error" in capsys.readouterr().err


def test_impossible_coupling_is_usage_error(cli_env, tmp_path, capsys):
    code = main([
        "--out-dir", str(tmp_path), "pipeline", "run",
        "--manifest", cli_env["manifest"], "--components", "12",
        "--n-nodes", "16", "--coupling-density", "1.0",
    ])
    assert code == 1
    assert capsys.readouterr().err.startswith("usage error: stage 'reservoir'")
    # the artifacts of the stages before it, and no spec of a reservoir no
    # one can build
    assert sorted(p.name.split("_")[0] for p in tmp_path.iterdir()) == ["features", "hog", "pca"]


def test_reservoir_run_saves_no_spec_of_a_reservoir_it_cannot_build(cli_env, tmp_path, capsys):
    code = main([
        "reservoir", "run", "--features", cli_env["features"], "--n-nodes", "16",
        "--coupling-density", "1.0", "--save-spec", str(tmp_path / "spec.json"),
        "--out", str(tmp_path / "states.rcf"),
    ])
    assert code == 1
    assert capsys.readouterr().err.startswith("usage error:")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("fit_on", PCA_FIT_ON)
@pytest.mark.parametrize(
    "case", ["train split only", "test split only", "components", "gram components"]
)
def test_a_run_that_cannot_finish_stops_in_its_dataset_stage(
    cli_env, tmp_path, capsys, case, fit_on
):
    manifest = load_manifest(cli_env["manifest"])
    components = 12
    if case == "components":  # one more than the frames' HOG features
        components = feature_count(manifest.resolution) + 1
    elif case == "gram components":
        # 700 of 720 HOG features, above the rank of the 52 train frames or
        # the 103 frames, which are fewer; the fit would find it in stage pca
        components = 700
    else:
        kept = Split.TRAIN if case == "train split only" else Split.TEST
        sequences = tuple(seq for seq in manifest.sequences if seq.split is kept)
        manifest = dataclasses.replace(manifest, sequences=sequences)
    path = tmp_path / "manifest.json"
    save_manifest(manifest, path)
    out_dir = tmp_path / "run"
    code = main([
        "--out-dir", str(out_dir), "pipeline", "run", "--manifest", str(path),
        "--components", str(components), "--n-nodes", "16", "--pca-fit-on", fit_on,
    ])
    assert code == 2
    assert capsys.readouterr().err.startswith("data error: stage 'dataset' failed")
    assert not list(out_dir.glob("hog_*"))


def test_pca_fit_refuses_components_beyond_the_fit_rows_rank_before_reading(
    cli_env, tmp_path, capsys, monkeypatch
):
    # as many components as train rows, fewer than the HOG features: the
    # Gram route's rank bound, a data error before any row is read
    reads = []
    read = cache.CacheRows._read
    monkeypatch.setattr(
        cache.CacheRows, "_read", lambda self, fh, rows: reads.append(1) or read(self, fh, rows)
    )
    n = prepare_data(cli_env["manifest"], None).train_rows.size
    code = main([
        "--out-dir", str(tmp_path), "pca", "fit", "--in", cli_env["hog"],
        "--manifest", cli_env["manifest"], "--k", str(n),
    ])
    assert code == 2
    assert f"whose centred rank is {n - 1} at most" in capsys.readouterr().err
    assert reads == [] and list(tmp_path.iterdir()) == []


def test_an_empty_test_sequence_stops_in_the_dataset_stage(cli_env, tmp_path, capsys):
    manifest = load_manifest(cli_env["manifest"])
    empty = next(seq for seq in manifest.sequences if seq.split is Split.TEST)
    sequences = tuple(
        dataclasses.replace(seq, frame_count=0) if seq is empty else seq
        for seq in manifest.sequences
    )
    path = tmp_path / "manifest.json"
    save_manifest(dataclasses.replace(manifest, sequences=sequences), path)
    out_dir = tmp_path / "run"
    code = main([
        "--out-dir", str(out_dir), "pipeline", "run", "--manifest", str(path),
        "--components", "12", "--n-nodes", "16",
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: stage 'dataset' failed")
    assert f"test-split sequence {empty.sequence_id!r} has no frames" in err
    assert not list(out_dir.glob("hog_*"))


# ---------------------------------------------------------------------------
# One failure rule: a fault exits alike from its stage command and pipeline run

@pytest.mark.parametrize(
    "bare,code",
    [(ValueError("bad flag"), 1), (ParseError("torn file"), 2),
     (FileNotFoundError("no file"), 2), (SingularError("singular"), 3),
     (OverflowError("too many couplings"), 3)],
)
def test_exit_code_maps_each_family_bare_and_wrapped_in_a_stage(bare, code):
    assert exit_code(bare) == code
    assert exit_code(PipelineStageError("train", bare)) == code


def _poison_first_weight(readout):
    """Write NaN over the first weight of a readout file, which ends with its weights."""
    rows, cols, _ = read_cache_header(readout)
    with open(readout, "r+b") as fh:
        fh.seek(-8 * rows * cols, os.SEEK_END)
        fh.write(np.array([math.nan], dtype="<f8").tobytes())


@pytest.mark.parametrize(
    "fault",
    ["non-finite phases", "nan readout weight", "nan state", "nan test state", "nan hog row"],
)
def test_a_fault_exits_alike_from_its_stage_command_and_pipeline_run(
    cli_env, tmp_path, capsys, fault
):
    run_dir = tmp_path / "run"
    run = [
        "--out-dir", str(run_dir), "pipeline", "run", "--manifest", cli_env["manifest"],
        "--components", "12", "--n-nodes", "32", "--coupling-density", "0.05",
    ]
    if fault == "non-finite phases":
        # finite gains whose drive overflows, so the phases are not finite
        gains = ["--feedback-gain", "1e308", "--input-gain", "1e308"]
        stage = [
            "reservoir", "run", "--features", cli_env["features"], "--n-nodes", "32",
            *gains, "--out", str(tmp_path / "states.rcf"),
        ]
        run += gains
        code, named = 3, "phases must be finite"
    elif fault == "nan hog row":
        # a HOG cache of the right size with a NaN in a fit row is reused;
        # without its PCA model the reuse run refits on it
        assert main(run) == 0
        (hog,) = run_dir.glob("hog_*.rcf")
        rows, layout = read_cache(hog)
        rows = rows.copy()
        rows[prepare_data(cli_env["manifest"], None).train_rows[0], 0] = np.nan
        with CacheWriter(hog, rows.shape[1], layout=layout) as writer:
            writer.append(rows)
        next(run_dir.glob("pca_*.bin")).unlink()
        stage = [
            "pca", "fit", "--in", str(hog), "--manifest", cli_env["manifest"], "--k", "12",
            "--out", str(tmp_path / "pca.bin"),
        ]
        code, named = 3, "PCA input is not finite"
    else:
        assert main(run) == 0
        (readout,) = run_dir.glob("readout_*.bin")
        (states,) = run_dir.glob("states_*.rcf")
        if fault == "nan readout weight":
            _poison_first_weight(readout)
            stage = [
                "evaluate", "--model", str(readout), "--states", str(states),
                "--manifest", cli_env["manifest"], "--out", str(tmp_path / "results"),
            ]
            code, named = 2, f"{readout}: readout weights must be finite"
        elif fault == "nan test state":
            # a test row all NaN; the reuse run reuses the readout and scores it
            rows, layout = read_cache(states)
            rows = rows.copy()
            sequence_id, start, _, _ = prepare_data(cli_env["manifest"], None).test_spans[0]
            rows[start] = np.nan
            with CacheWriter(states, rows.shape[1], layout=layout) as writer:
                writer.append(rows)
            stage = [
                "evaluate", "--model", str(readout), "--states", str(states),
                "--manifest", cli_env["manifest"], "--out", str(tmp_path / "results"),
            ]
            code, named = 3, f"readout output of sequence '{sequence_id}' is not finite"
        else:
            # a NaN in a train row; without its readout the reuse run retrains
            rows, layout = read_cache(states)
            rows = rows.copy()
            rows[prepare_data(cli_env["manifest"], None).train_rows[0], 0] = np.nan
            with CacheWriter(states, rows.shape[1], layout=layout) as writer:
                writer.append(rows)
            readout.unlink()
            stage = [
                "train", "--states", str(states), "--manifest", cli_env["manifest"],
                "--out", str(tmp_path / "readout.bin"),
            ]
            code, named = 3, "must not contain infs or NaNs"
    capsys.readouterr()
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(stage) == code
        assert named in capsys.readouterr().err
        assert main(run) == code  # over the poisoned artifact, if any, reused
        err = capsys.readouterr().err
        assert named in err
        if fault == "nan hog row":
            assert "stage 'pca'" in err


# ---------------------------------------------------------------------------
# Frames are read by the HOG stage alone

# the pipeline run settings of cli_env
_RUN_FLAGS = ["--components", "12", "--n-nodes", "32", "--coupling-density", "0.05"]


def _small_corpus(root):
    """A small corpus; returns (manifest path, frame store directory)."""
    manifest = generate_corpus(
        root, n_subjects=2, n_repetitions=1, resolution=(40, 48), frames_range=(8, 9), seed=33,
    )
    return str(manifest), root / "frames"


def _cold_run(manifest, out_dir):
    assert main(["--out-dir", str(out_dir), "pipeline", "run", "--manifest", manifest,
                 *_RUN_FLAGS]) == 0
    return _cold_artifacts(out_dir)


def _cold_artifacts(out_dir):
    return json.loads((out_dir / "pipeline.json").read_text())["artifacts"]


def _without_times(log):
    """The rows of a grid log without its wall_time column, which no rerun repeats."""
    rows = [line.split(",") for line in log.read_text().splitlines()]
    column = rows[0].index("wall_time")
    return [row[:column] + row[column + 1:] for row in rows]


def _after_hog(manifest, cold, out, capsys):
    """Run every command after extract-hog on the caches of the cold run in
    ``cold``, writing under ``out``; returns what each printed and wrote."""
    art = {name: str(cold / filename) for name, filename in _cold_artifacts(cold).items()}
    shutil.copytree(cold, out / "run")
    grid = out / "grid.json"
    write_json(grid, dataclasses.asdict(GridSpec((0.5, 0.8), (0.01,), (0.1,), (0.05,), n_nodes=16)))
    commands = [
        # a reuse pipeline run over a copy of the cold run
        ["--out-dir", str(out / "run"), "pipeline", "run", "--manifest", manifest, *_RUN_FLAGS],
        ["pca", "fit", "--in", art["hog"], "--manifest", manifest, "--k", "12",
         "--out", str(out / "pca" / "pca.bin")],
        ["pca", "transform", "--model", art["pca_model"], "--in", art["hog"],
         "--out", str(out / "projected.rcf")],
        ["reservoir", "run", "--features", art["features"], "--n-nodes", "32",
         "--coupling-density", "0.05", "--reset-per-sequence", "--manifest", manifest,
         "--out", str(out / "states.rcf")],
        ["train", "--states", art["states"], "--manifest", manifest,
         "--out", str(out / "readout.bin")],
        ["evaluate", "--model", art["readout_model"], "--states", art["states"],
         "--manifest", manifest, "--out", str(out / "results")],
        ["gridsearch", "--grid", str(grid), "--manifest", manifest,
         "--features", art["features"], "--log", str(out / "grid_log.csv")],
        ["describe", str(out / "run")],
    ]
    capsys.readouterr()
    printed = []
    for argv in commands:
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 0, (argv, captured.err)
        printed.append(captured.out)
    # the library route of a features-only stream
    data = prepare_data(manifest, art["features"])
    spec = GridSpec((0.5,), (0.01, 0.003), (0.1,), (0.05,), n_nodes=16)
    scores = [trial.score for trial in run_grid(spec, data, log_path=out / "lib_log.csv")]
    logs = ("grid_log.csv", "lib_log.csv")
    written = {name: _without_times(out / name) for name in logs}
    for path in out.rglob("*"):
        if path.is_file() and path.name not in logs:
            written[str(path.relative_to(out))] = path.read_bytes()
    return printed, scores, written


def test_every_command_after_hog_runs_without_the_frame_store(tmp_path, capsys):
    manifest, frames = _small_corpus(tmp_path / "corpus")
    cold = tmp_path / "cold"
    _cold_run(manifest, cold)
    side = tmp_path / "side"  # one path for both passes, so that printed paths agree
    with_store = _after_hog(manifest, cold, side, capsys)
    shutil.rmtree(side)
    frames.rename(tmp_path / "frames_moved_away")
    without_store = _after_hog(manifest, cold, side, capsys)
    assert without_store == with_store
    # the reuse run wrote what the cold run wrote
    for name in (*_cold_artifacts(cold).values(), "pipeline.json"):
        assert (side / "run" / name).read_bytes() == (cold / name).read_bytes(), name


def test_a_missing_frame_fails_the_hog_stage_and_a_rerun_recomputes_it(tmp_path, capsys):
    manifest, frames = _small_corpus(tmp_path / "corpus")
    cold = tmp_path / "cold"
    artifacts = _cold_run(manifest, cold)
    last = load_manifest(manifest).sequences[-1]
    index = last.frame_count - 1
    frame = frames / (last.frame_filename_pattern % index)
    moved = tmp_path / "moved.pgm"
    frame.rename(moved)
    torn = tmp_path / "torn"
    capsys.readouterr()
    run = ["--out-dir", str(torn), "pipeline", "run", "--manifest", manifest, *_RUN_FLAGS]
    assert main(run) == 2
    err = capsys.readouterr().err
    assert f"stage 'hog' failed: {last.sequence_id}[{index}]: missing frame file {frame}" in err
    # the failed stage leaves no HOG cache and no temporary file, and a
    # reuse run redoes it
    assert not (torn / artifacts["hog"]).exists()
    assert not list(torn.glob("*.tmp*"))
    moved.rename(frame)
    assert main(run) == 0
    for name in (*artifacts.values(), "pipeline.json"):
        assert (torn / name).read_bytes() == (cold / name).read_bytes(), name


def test_pca_fit_writes_the_features_beside_the_model(cli_env, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main([
        "pca", "fit", "--in", cli_env["hog"], "--manifest", cli_env["manifest"],
        "--k", "12", "--out", os.path.join("sub", "pca.bin"),
    ]) == 0
    assert f"wrote {os.path.join('sub', 'features.rcf')}:" in capsys.readouterr().out
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sub"]
    assert sorted(p.name for p in (tmp_path / "sub").iterdir()) == ["features.rcf", "pca.bin"]
    with open(cli_env["features"], "rb") as fh:
        assert (tmp_path / "sub" / "features.rcf").read_bytes() == fh.read()
