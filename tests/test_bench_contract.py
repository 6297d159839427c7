"""The benchmark under perfbench/ reaches into the package by name.

``perfbench/tracing.py`` patches every name in its WRAPS table on the
module it lists, ``perfbench/ops.py`` imports its entry points from
``photonrc``, and ``perfbench/run.py`` holds the keyword arguments those
entry points are built with.  A refactor that drops one of those names or
arguments fails here rather than halfway through a benchmark run.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

from photonrc import pipeline, reservoir, tuning
from photonrc.pipeline import PipelineConfig
from photonrc.cache import CacheRows, read_cache_header, row_chunks
from photonrc.dataset import index_frames
from photonrc.tuning import GridSpec, run_grid

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("_bench_tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    wraps = _load_tracing().WRAPS
    missing = [
        f"{module_name}.{name}"
        for module_name, names in wraps.items()
        for name in names
        if not hasattr(importlib.import_module(module_name), name)
    ]
    assert missing == []
    assert set(wraps) >= {"photonrc.pipeline", "photonrc.tuning"}


def test_bench_imports_resolve():
    tree = ast.parse((PERFBENCH / "ops.py").read_text(encoding="utf-8"))
    used = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "photonrc":
            used += [(node.module, alias.name) for alias in node.names]
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "photonrc"
        ):
            used.append(("photonrc", node.attr))
    assert ("photonrc", "run_pipeline") in used
    missing = [
        f"{module}.{name}" for module, name in used
        if not hasattr(importlib.import_module(module), name)
    ]
    assert missing == []


def _bench_literal(name):
    """The literal value ``perfbench/run.py`` assigns to the top-level ``name``."""
    tree = ast.parse((PERFBENCH / "run.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == name for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"perfbench/run.py assigns no {name}")


def test_bench_configs_build():
    # ops.pipeline_config builds a PipelineConfig from each SIZES config, and
    # ops.grid_run a GridSpec from GRID with the workload's node count
    configs = [cfg for workloads in _bench_literal("SIZES").values()
               for _, cfg in workloads.values()]
    assert configs
    grid = _bench_literal("GRID")
    for cfg in configs:
        for policy in ("reuse", "rebuild"):
            PipelineConfig(manifest_path="manifest.json", out_dir="out", cache_policy=policy, **cfg)
        GridSpec(**{
            k: tuple(v) if isinstance(v, list) else v
            for k, v in dict(grid, n_nodes=cfg["n_nodes"]).items()
        })


def test_extract_hog_describes_each_frame_with_one_hog_descriptor_call(
    tiny_manifest, tmp_path, monkeypatch
):
    # tracing.py reads hog.frames and hog.ms_per_frame off these calls, and a
    # run without them counts as a reused HOG stage
    calls = []
    real = pipeline.hog_descriptor

    def counting(pixels, config):
        calls.append(pixels.shape)
        return real(pixels, config)

    monkeypatch.setattr(pipeline, "hog_descriptor", counting)
    path = tmp_path / "hog.rcf"
    pipeline.extract_hog(tiny_manifest, path)
    frames = index_frames(tiny_manifest).total_frames
    assert len(calls) == frames
    assert set(calls) == {tiny_manifest.resolution}
    assert read_cache_header(path)[0] == frames


def test_run_grid_calls_the_traced_reservoir_and_readout_names(tiny_features, monkeypatch):
    # tracing.py reads the grid's reservoir and readout figures off these calls
    calls = []

    def counting(module, name):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    counting(pipeline, "apply_readout")
    # the grid runs its stacks and shares each group's normal equations itself
    for name in ("run_reservoir", "train_ridge"):
        counting(tuning, name)
    counting(reservoir, "generate_matrices")
    spec = GridSpec(
        feedback_gain=(0.5, 0.7), input_gain=(0.01,), coupling_gain=(0.1,),
        coupling_density=(0.01,), ridge_lambda=(None, 1e-3), n_nodes=16,
    )
    data = pipeline.prepare_data(tiny_features["manifest_path"], tiny_features["features"])
    results = run_grid(spec, data)
    assert all(r.status == "ok" for r in results)
    # two cells in one lockstep run, one readout per cell and lambda
    assert sorted(calls) == sorted(
        ["generate_matrices"] * 2 + ["run_reservoir"] + ["train_ridge", "apply_readout"] * 4
    )


def test_cold_pipeline_calls_the_traced_pca_names(tiny_corpus, tmp_path, monkeypatch):
    # tracing.py reads pca.fit_s, pca.transform_s, pca.fit_rows and the
    # model file's cache figures off these calls
    calls = []
    for name in ("fit_pca", "transform", "save_pca_model", "load_pca_model"):
        real = getattr(pipeline, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(pipeline, name, counted)
    config = pipeline.PipelineConfig(
        manifest_path=str(tiny_corpus), out_dir=str(tmp_path), pca_components=8, n_nodes=16
    )
    report = pipeline.run_pipeline(config)
    # the Gram route: the fit rows' features are the fit's scores, and only
    # the other rows are projected; the model is saved after the features
    # and not read back
    data = pipeline.prepare_data(str(tiny_corpus), None)
    other = CacheRows(tmp_path / report.artifacts["hog"], data.test_rows)
    blocks = len(list(row_chunks(other, pipeline._PROJECT_ROWS)))
    assert calls == ["fit_pca"] + ["transform"] * blocks + ["save_pca_model"]
