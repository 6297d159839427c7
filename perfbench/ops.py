"""The operations the benchmark runs, each in a fresh child process.

``run.py`` starts ``python3 perfbench/ops.py REQUEST RESPONSE``: the child
reads the JSON request, runs one operation through photonrc's public API,
and writes a JSON response holding the timings, the outputs the parent
checks, the child's peak RSS, and, when traced, its spans.  A fresh process
per operation is what makes ``ru_maxrss`` a per-operation peak.
"""

import hashlib
import json
import os
import platform
import resource
import shutil
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import photonrc  # noqa: E402
from photonrc import (  # noqa: E402
    GridSpec,
    PipelineConfig,
    derive_stream_seed,
    feature_count,
    generate_corpus,
    generate_matrices,
    index_frames,
    load_manifest,
    prepare_data,
    quantize_phase,
    read_cache,
    run_grid,
    run_pipeline,
    step_intensity,
    step_phase,
    stream_frames,
)

from photonrc.pipeline import file_sha256  # noqa: E402
from tracing import Tracer, maybe_span  # noqa: E402

# result files of a pipeline run whose bytes must not change between runs
RESULT_FILES = ("score.txt", "confusion.csv", "sequence_results.csv")
# enough for ten seeds of each workload at the bench size, about 1 GB
CORPORA_KEPT = 32


def check_source():
    """Refuse to measure a photonrc that is not the one beside this benchmark."""
    where = os.path.realpath(photonrc.__file__)
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit(f"photonrc imported from {where}, expected it under {SRC}")


def pipeline_config(manifest, out_dir, cfg, cache_policy):
    """The default PipelineConfig with the workload's K, N and variant."""
    return PipelineConfig(
        manifest_path=manifest,
        out_dir=out_dir,
        pca_components=cfg["pca_components"],
        n_nodes=cfg["n_nodes"],
        variant=cfg["variant"],
        cache_policy=cache_policy,
    )


def corpus(req, tracer):
    """Generate the synthetic corpus, or reuse the copy made with the same arguments.

    The key covers the generation arguments and the generator's source, so a
    changed generator never serves an old corpus.  Only the most recently
    used corpora are kept.
    """
    args = req["args"]
    with open(photonrc.synthetic.__file__, "rb") as fh:
        source = fh.read()
    key = hashlib.sha256(json.dumps(args, sort_keys=True).encode() + source).hexdigest()[:16]
    cache = req["cache_dir"]
    root = os.path.join(cache, f"corpus-{key}")
    manifest = os.path.join(root, "manifest.json")
    start = time.perf_counter()
    generated = not os.path.isfile(manifest)
    if generated:
        tmp = f"{root}.tmp{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        generate_corpus(tmp, **args)
        shutil.rmtree(root, ignore_errors=True)
        os.replace(tmp, root)
    os.utime(root)
    kept = sorted(
        (d for d in os.listdir(cache) if d.startswith("corpus-") and ".tmp" not in d),
        key=lambda d: os.path.getmtime(os.path.join(cache, d)),
    )
    for old in kept[:-CORPORA_KEPT]:
        shutil.rmtree(os.path.join(cache, old), ignore_errors=True)
    m = load_manifest(manifest)
    return {
        "manifest": manifest,
        "generated": generated,
        "seconds": time.perf_counter() - start,
        "frames": index_frames(m).total_frames,
        "sequences": len(m.sequences),
        "resolution": list(m.resolution),
        "hog_features": feature_count(m.resolution),
    }


def environment(req, tracer):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
    }


def open_corpus(req, tracer):
    """Seconds to validate the manifest and read every frame once.

    Each of ``req["repeats"]`` samples repeats the read until ``req["min_s"]``
    seconds have passed and keeps the mean time of one read.
    """
    times = []
    for _ in range(req["repeats"]):
        reads = 0
        start = time.perf_counter()
        while reads == 0 or time.perf_counter() - start < req["min_s"]:
            for _frame in stream_frames(load_manifest(req["manifest"])):
                pass
            reads += 1
        times.append((time.perf_counter() - start) / reads)
    return {"seconds": times}


def pipeline_runs(req, tracer):
    """run_pipeline per entry of ``req["runs"]``, each an (out_dir, cache_policy) pair,
    then again on the last entry until ``req["until_s"]`` seconds have passed."""

    def once(entry):
        out_dir, policy = entry
        config = pipeline_config(req["manifest"], out_dir, req["config"], policy)
        start = time.perf_counter()
        try:
            with maybe_span(tracer, "pipeline.run_pipeline", "pipeline"):
                report = run_pipeline(config)
        except photonrc.PhotonRcError as exc:
            return {"seconds": time.perf_counter() - start, "error": repr(exc)}
        seconds = time.perf_counter() - start
        files = list(RESULT_FILES) + [report.artifacts["states"], report.artifacts["readout_model"]]
        return {
            "seconds": seconds,
            "score": report.score,
            "populated": report.confusion_matrix.populated_rows,
            "nmse": [float(v) for v in report.nmse_per_class],
            "stage_digests": report.digests,
            "file_digests": {f: file_sha256(os.path.join(out_dir, f)) for f in files},
            "artifacts": report.artifacts,
        }

    runs = []
    start = time.perf_counter()
    for entry in req["runs"]:
        runs.append(once(entry))
    while time.perf_counter() - start < req.get("until_s", 0):
        runs.append(once(req["runs"][-1]))
    return {"runs": runs}


def grid_run(req, tracer):
    """prepare_data + run_grid, logging to ``req["log"]``."""
    spec = GridSpec(**{k: tuple(v) if isinstance(v, list) else v for k, v in req["spec"].items()})
    start = time.perf_counter()
    with maybe_span(tracer, "tuning.prepare_data", "tuning"):
        data = prepare_data(req["manifest"], req["features"])
    with maybe_span(tracer, "tuning.run_grid", "tuning"):
        results = run_grid(spec, data, workers=req["workers"], log_path=req["log"])
    return {
        "seconds": time.perf_counter() - start,
        "populated": len({action for *_, action in data.test_spans}),
        "trials": [
            {
                "cell": [r.params.feedback_gain, r.params.input_gain, r.params.coupling_gain,
                         r.params.coupling_density, r.ridge_lambda, r.seed],
                "score": r.score,
                "nmse": [float(v) for v in r.nmse_per_class],
                "status": r.status,
                "error": r.error,
            }
            for r in results
        ],
        "wall_times": [r.wall_time for r in results],
    }


def step_costs(req, tracer):
    """Median cost of one public step call and one quantize_phase call.

    Both are called on state rows from a finished run's state cache and on
    drive rows built from its feature cache, so the inputs are those the
    reservoir actually met.
    """
    config = pipeline_config(req["manifest"], "", req["config"], "reuse")
    features, _ = read_cache(req["features"])
    states, _ = read_cache(req["states"])
    matrices = generate_matrices(
        config.n_nodes, features.shape[1], config.params,
        derive_stream_seed(config.seed, "reservoir"),
    )
    step = step_phase if config.variant == "phase" else step_intensity
    rows = np.linspace(1, states.shape[0] - 1, req["rows"]).astype(int)
    step_us, quant_us = [], []
    for t in rows:
        x = states[t - 1].astype(np.float64)
        drive = features[t].astype(np.float64) @ matrices.input_weights.T
        start = time.perf_counter()
        step(matrices, x, drive)
        step_us.append((time.perf_counter() - start) * 1e6)
        phases = matrices.weights @ x + drive
        start = time.perf_counter()
        quantize_phase(phases)
        quant_us.append((time.perf_counter() - start) * 1e6)
    return {"step_us": float(np.median(step_us)), "quantize_phase_us": float(np.median(quant_us))}


OPS = {
    "corpus": corpus,
    "environment": environment,
    "open_corpus": open_corpus,
    "pipeline_runs": pipeline_runs,
    "grid_run": grid_run,
    "step_costs": step_costs,
}


def main(request_path, response_path):
    check_source()
    with open(request_path, "r", encoding="utf-8") as fh:
        req = json.load(fh)
    tracer = None
    if req.get("trace"):
        tracer = Tracer()
        tracer.install()
    try:
        result = OPS[req["op"]](req, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["spans"] = tracer.spans if tracer is not None else []
    with open(response_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
