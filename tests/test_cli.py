"""Exit codes and artifacts of the command-line interface."""

import json

import numpy as np
import pytest

from photonrc.cache import CacheWriter, read_cache, read_cache_header
from photonrc.cli import main
from photonrc.hog import HogConfig, feature_count
from photonrc.synthetic import generate_corpus
from photonrc.tuning import GridSpec, save_grid_spec


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
        "spec": str(art / "reservoir.json"),
        "states": str(art / "states.rcf"),
        "readout": str(art / "readout.bin"),
        "results": str(art / "results"),
    }
    steps = [
        ["--out-dir", str(art), "extract-hog",
         "--manifest", paths["manifest"], "--out", paths["hog"]],
        ["pca", "fit", "--in", paths["hog"], "--manifest", paths["manifest"],
         "--k", "12", "--out", paths["pca"]],
        ["pca", "transform", "--model", paths["pca"], "--in", paths["hog"],
         "--out", paths["features"]],
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

    for key in ("hog", "pca", "features", "spec", "states", "readout"):
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
    assert layout == (12, 10, 1, 6)


def test_pca_fit_flag_aliases_agree(cli_env, tmp_path):
    alias = tmp_path / "pca_alias.bin"
    code = main([
        "pca", "fit", "--features", cli_env["hog"],
        "--manifest", cli_env["manifest"],
        "--components", "12", "--out", str(alias),
    ])
    assert code == 0
    with open(alias, "rb") as fh_a, open(cli_env["pca"], "rb") as fh_b:
        assert fh_a.read() == fh_b.read()


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
    save_grid_spec(
        GridSpec(
            feedback_gain=(0.5, 0.8), input_gain=(0.01,), coupling_gain=(0.1,),
            coupling_density=(0.05,), n_nodes=16,
        ),
        grid_path,
    )
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
        ["pca", "fit", "--in", str(chain / "hog.rcf"), "--manifest", manifest, "--k", "24"],
        ["pca", "transform", "--model", str(chain / "pca.bin"), "--in", str(chain / "hog.rcf")],
        ["reservoir", "run", "--features", str(chain / "features.rcf"), "--n-nodes", "64"],
        ["train", "--states", str(chain / "states.rcf"), "--manifest", manifest],
        ["evaluate", "--model", str(chain / "readout.bin"),
         "--states", str(chain / "states.rcf"), "--manifest", manifest],
    ]
    assert [main(["--out-dir", str(chain)] + argv) for argv in steps] == [0] * 6
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
    pairs.update({name: name for name in ("score.txt", "confusion.csv", "sequence_results.csv")})
    for chained, pipelined in pairs.items():
        assert (chain / chained).read_bytes() == (piped / pipelined).read_bytes(), chained


def test_describe_defaults_to_out_dir(cli_env, tmp_path, capsys):
    (tmp_path / "grid_log.csv").write_text("header\nrow\n")
    assert main(["--out-dir", str(tmp_path), "describe"]) == 0
    assert "grid-search directory: 1 trials" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# Usage errors (exit 1)

def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["polish"]) == 1
    assert "usage error" in capsys.readouterr().err


def test_missing_required_flag_is_usage_error(cli_env, capsys):
    assert main(["extract-hog"]) == 1
    assert main(["train", "--states", cli_env["states"]]) == 1
    capsys.readouterr()


def test_bad_choice_is_usage_error(cli_env, capsys):
    code = main([
        "reservoir", "run", "--features", cli_env["features"],
        "--variant", "amplitude",
    ])
    assert code == 1
    capsys.readouterr()


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


def test_impossible_coupling_is_numerical_error(cli_env, tmp_path, capsys):
    code = main([
        "--out-dir", str(tmp_path), "pipeline", "run",
        "--manifest", cli_env["manifest"], "--components", "12",
        "--n-nodes", "16", "--coupling-density", "1.0",
    ])
    assert code == 3
    assert "stage 'reservoir'" in capsys.readouterr().err
