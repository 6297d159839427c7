"""Benchmark of photonrc's three user-facing workloads.

    python3 perfbench/run.py --workload desk_cold --seed 11 --seconds 1 --trace 0

Workloads (all closed-loop: one caller, one operation at a time):

  desk_cold    a cold ``rebuild`` pipeline run with the default config, then
               immediate ``reuse`` reruns.  HOG and PCA (Gram route) do
               nearly all the work; the reruns isolate the cache-read path.
  grid_sweep   ``run_grid`` over 2 feedback gains x 2 input gains x 2 ridge
               lambdas on features a set-up pipeline run made.  Reservoir,
               readout and classify do all the work, the front end none.
  long_stream  a ``reuse`` pipeline run with HOG and PCA made in set-up, so
               reservoir, train and evaluate recompute: phase variant,
               4x the nodes and a longer stream than grid_sweep.

run_s times the operation above (grid_sweep: the median of three;
long_stream: the mean of two, each on its own copy of the set-up directory).
setup_s is the time of the pipeline run that makes the inputs (desk_cold:
the median of three reads of the cached corpus, each averaged over the reads
of about a second).  After the timed operations come immediate ``reuse``
reruns of the workload's first pipeline run (desk_cold: the cold run; the
others: the set-up run), whose outputs must equal that run's.

The traced pass leaves set-up untraced and runs a fixed number of warm
reruns.  Its per-layer figures describe the timed operation, except
pipeline.warm_s, cache.read_s, cache.bytes_read and pipeline.self_s, which
are medians over the traced warm reruns.

``--seed`` is the corpus seed.  Every photonrc operation runs in a fresh
child process (``ops.py``), which gives a peak RSS per operation.  With
``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` a separate traced pass gives the per-layer metrics.  Both run
the correctness checks, and a failed check counts as a failed operation.
``--size roadmap`` runs the sizes of the ROADMAP baseline table and
``--size tiny`` a corpus small enough for the smoke test.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from tracing import FIELDS, TraceError, layer_metrics, split_runs  # noqa: E402

OPS = os.path.join(HERE, "ops.py")
CACHE_DIR = os.path.join(ROOT, ".bench_cache")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BLAS_THREADS = str(min(2, os.cpu_count() or 1))
GRID_WORKERS = 2
# timed operations per invocation: grid_sweep's take about 6 s and
# long_stream's about 10 s; more do not fit the benchmark's time budget
GRID_REPEATS = 3
LONG_REPEATS = 2
# desk_cold's set-up is one read of the corpus, about 0.1 s; each of
# SETUP_REPEATS samples repeats it for SETUP_SAMPLE_S and keeps the time of
# one read
SETUP_REPEATS = 3
SETUP_SAMPLE_S = 1.0
MIN_WARM_RUNS = 5
STEP_ROWS = 200
CHILD_TIMEOUT_S = 170

# ridge_lambda None is the scale-adaptive default; with (0.8, 0.01) this
# includes the pipeline's default cell
GRID = {
    "feedback_gain": [0.8, 0.6],
    "input_gain": [0.01, 0.003],
    "coupling_gain": [0.1],
    "coupling_density": [0.01],
    "ridge_lambda": [None, 1e-3],
    "seeds": [0],
    "variant": "intensity",
}
DEFAULT_CELL = [0.8, 0.01, 0.1, 0.01, None, 0]

# Per size: the generate_corpus arguments (the seed is added) and the
# pipeline's K, N and variant.  "bench" keeps each workload's balance of
# layers at a size whose runs fit the benchmark's time budget; "roadmap" is
# the desk workload of the ROADMAP baseline table.  long_stream's 36 train
# sequences of at least 115 frames give more train rows than its N=4096
# nodes, so train_ridge and fit_pca take the same routes (primal ridge, PCA
# covariance) as at the roadmap size.
SIZES = {
    "bench": {
        "desk_cold": ({"n_subjects": 3, "n_repetitions": 4},
                      {"pca_components": 2000, "n_nodes": 1024, "variant": "intensity"}),
        "grid_sweep": ({"n_subjects": 2, "n_repetitions": 4, "resolution": [60, 80]},
                       {"pca_components": 256, "n_nodes": 1024, "variant": "intensity"}),
        "long_stream": ({"n_subjects": 2, "n_repetitions": 4, "resolution": [60, 80],
                         "frames_range": [115, 124]},
                        {"pca_components": 128, "n_nodes": 4096, "variant": "phase"}),
    },
    "roadmap": {
        "desk_cold": ({"n_subjects": 5, "n_repetitions": 4},
                      {"pca_components": 2000, "n_nodes": 1024, "variant": "intensity"}),
        "grid_sweep": ({"n_subjects": 5, "n_repetitions": 4},
                       {"pca_components": 2000, "n_nodes": 1024, "variant": "intensity"}),
        "long_stream": ({"n_subjects": 2, "n_repetitions": 4, "resolution": [60, 80],
                         "frames_range": [200, 239]},
                        {"pca_components": 128, "n_nodes": 4096, "variant": "phase"}),
    },
    "tiny": {
        "desk_cold": ({"n_subjects": 1, "n_repetitions": 4, "resolution": [32, 48],
                       "frames_range": [8, 10]},
                      {"pca_components": 16, "n_nodes": 32, "variant": "intensity"}),
        "grid_sweep": ({"n_subjects": 1, "n_repetitions": 4, "resolution": [32, 48],
                        "frames_range": [8, 10]},
                       {"pca_components": 16, "n_nodes": 32, "variant": "intensity"}),
        "long_stream": ({"n_subjects": 1, "n_repetitions": 4, "resolution": [32, 48],
                         "frames_range": [20, 24]},
                        {"pca_components": 16, "n_nodes": 64, "variant": "phase"}),
    },
}
# long_stream's set-up pipeline run only has to leave HOG and PCA behind
SETUP_NODES = 8

END_TO_END_UNITS = {"run_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
# the layers whose spans a traced pass must record; set-up is untraced, so
# grid_sweep and long_stream, whose HOG and PCA run in set-up, have none of those
BACK_END = ("dataset", "reservoir", "readout", "classify", "cache", "pipeline")
TRACED_LAYERS = {
    "desk_cold": BACK_END + ("hog", "pca"),
    "grid_sweep": BACK_END + ("tuning",),
    "long_stream": BACK_END,
}


class BenchError(RuntimeError):
    pass


class Bench:
    """One invocation: its work directory, children, checks and spans."""

    def __init__(self, workload, seed, seconds, trace, size, work_dir):
        self.workload = workload
        self.seconds = seconds
        self.trace = trace
        self.corpus_args, self.config = SIZES[size][workload]
        self.corpus_args = dict(self.corpus_args, seed=seed)
        self.work = work_dir
        self.attempted = 0
        self.failures = []
        self.spans = []
        # the spans the per-layer metrics read: the timed operation's, and
        # one list per warm rerun
        self.op_spans = []
        self.warm_runs = []
        self._children = 0
        self._span_ids = 0

    def child(self, op, traced=False, **req):
        self._children += 1
        req_path = os.path.join(self.work, f"req{self._children}.json")
        resp_path = os.path.join(self.work, f"resp{self._children}.json")
        with open(req_path, "w", encoding="utf-8") as fh:
            json.dump(dict(req, op=op, trace=traced), fh)
        proc = subprocess.run(
            [sys.executable, OPS, req_path, resp_path],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise BenchError(f"child {op} exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
        with open(resp_path, "r", encoding="utf-8") as fh:
            resp = json.load(fh)
        # span ids restart in every child; shift them past the ones kept so far
        offset = self._span_ids
        resp["spans"] = [[s[0] + offset, *s[1:5], None if s[5] is None else s[5] + offset, *s[6:]]
                         for s in resp["spans"]]
        for s in resp["spans"]:
            self._span_ids = max(self._span_ids, s[0] + 1)
        self.spans += resp["spans"]
        return resp

    def check(self, ok, what):
        if not ok:
            self.failures.append(what)

    def count_runs(self, runs):
        """Every run is one attempted operation; an error fails it."""
        self.attempted += len(runs)
        for run in runs:
            self.check("error" not in run, f"run failed: {run.get('error')}")

    def check_same(self, runs, label):
        """Every run's artifact digests equal the first run's; six classes scored."""
        ok = [r for r in runs if "error" not in r]
        for i, run in enumerate(ok):
            self.check(run["populated"] == 6, f"{label} run {i}: {run['populated']} classes populated")
            if i:
                for key in ("file_digests", "stage_digests", "trials"):
                    self.check(run.get(key) == ok[0].get(key),
                               f"{label} run {i}: {key} differ from run 0")

    def pipeline(self, manifest, runs, config=None, traced=False, until_s=0.0):
        resp = self.child("pipeline_runs", traced, manifest=manifest, runs=runs,
                          config=config or self.config, until_s=until_s)
        self.count_runs(resp["runs"])
        return resp

    def timed(self, resp):
        """Mark a child's response as the timed operation; returns it."""
        if self.trace:
            self.op_spans += resp["spans"]
        return resp

    def warm(self, manifest, out_dir, config=None):
        """Immediate ``reuse`` reruns in out_dir: untraced, until --seconds
        has passed; traced, exactly MIN_WARM_RUNS, so a traced pass does
        fixed work."""
        until_s = 0.0 if self.trace else self.seconds
        resp = self.pipeline(manifest, [[out_dir, "reuse"]] * MIN_WARM_RUNS, config,
                             traced=self.trace, until_s=until_s)
        if self.trace:
            self.warm_runs = split_runs(resp["spans"])
        return resp["runs"]

    def setup_pipeline(self, manifest, config):
        """The untraced set-up run; returns its directory and run record."""
        out = os.path.join(self.work, "setup")
        resp = self.pipeline(manifest, [[out, "rebuild"]], config)
        self.check_same(resp["runs"], "set-up")
        return out, resp["runs"][0]


def median_seconds(runs):
    return statistics.median(r["seconds"] for r in runs)


def run_desk_cold(b, manifest, metrics, tamper=None):
    if not b.trace:
        metrics["setup_s"] = statistics.median(
            b.child("open_corpus", manifest=manifest, repeats=SETUP_REPEATS,
                    min_s=SETUP_SAMPLE_S)["seconds"])
    out = os.path.join(b.work, "desk")
    if b.trace:
        plain = b.pipeline(manifest, [[os.path.join(b.work, "plain"), "rebuild"]])["runs"][0]
    cold = b.timed(b.pipeline(manifest, [[out, "rebuild"]], traced=b.trace))
    run = cold["runs"][0]
    if tamper:
        tamper(out, run)
    warm = b.warm(manifest, out)
    b.check_same(cold["runs"] + warm, "cold/warm")
    if b.trace:
        b.check_same([plain, run], "untraced/traced")
        metrics["trace.overhead_pct"] = 100.0 * (run["seconds"] / plain["seconds"] - 1.0)
    metrics.update(run_s=run["seconds"], peak_rss_mb=cold["peak_rss_mb"])
    metrics["classify.score"] = run.get("score", 0.0)
    return out, run["artifacts"]


def run_long_stream(b, manifest, metrics, tamper=None):
    setup_config = dict(b.config, n_nodes=SETUP_NODES)
    setup_dir, setup = b.setup_pipeline(manifest, setup_config)
    if not b.trace:
        metrics["setup_s"] = setup["seconds"]
    # every timed run, and traced the untraced run of the overhead figure,
    # starts from its own copy of the set-up directory, so none reuses the
    # states another made
    dirs = [os.path.join(b.work, f"timed{i}")
            for i in range(2 if b.trace else LONG_REPEATS)]
    for d in dirs:
        shutil.copytree(setup_dir, d)
    if b.trace:
        plain = b.pipeline(manifest, [[dirs.pop(), "reuse"]])["runs"][0]
    # one timed run per copy, each in a fresh process
    timed = [b.timed(b.pipeline(manifest, [[d, "reuse"]], traced=b.trace)) for d in dirs]
    if tamper:
        tamper(setup_dir, setup)
    # warm reruns of the set-up run, as in grid_sweep; the N=4096 rerun is
    # mostly apply_readout, which readout.apply_s reports
    warm = b.warm(manifest, setup_dir, setup_config)
    runs = [t["runs"][0] for t in timed]
    out, run = dirs[-1], runs[-1]
    b.check_same(runs, "timed")
    b.check_same([setup] + warm, "set-up/warm")
    if b.trace:
        b.check_same([plain, run], "untraced/traced")
        metrics["trace.overhead_pct"] = 100.0 * (run["seconds"] / plain["seconds"] - 1.0)
    metrics.update(run_s=median_seconds(runs),
                   peak_rss_mb=max(t["peak_rss_mb"] for t in timed))
    metrics["classify.score"] = run.get("score", 0.0)
    return out, run["artifacts"]


def run_grid_sweep(b, manifest, metrics, tamper=None):
    setup_dir, reference = b.setup_pipeline(manifest, b.config)
    if not b.trace:
        metrics["setup_s"] = reference["seconds"]
    features = os.path.join(setup_dir, reference["artifacts"]["features"])
    spec = dict(GRID, n_nodes=b.config["n_nodes"])

    def grid(log, traced):
        resp = b.child("grid_run", traced, manifest=manifest,
                       features=features, spec=spec, workers=GRID_WORKERS,
                       log=os.path.join(b.work, log))
        b.attempted += len(resp["trials"])
        for trial in resp["trials"]:
            b.check(trial["status"] == "ok", f"trial {trial['cell']}: {trial['error']}")
        b.check(resp["populated"] == 6, f"grid: {resp['populated']} classes populated")
        return resp

    if b.trace:
        plain = grid("plain_log.csv", False)
    grids = [b.timed(grid(f"grid_log{i}.csv", b.trace))
             for i in range(1 if b.trace else GRID_REPEATS)]
    if tamper:
        tamper(setup_dir, reference)
    # warm reruns of the set-up run that fed the grid
    warm = b.warm(manifest, setup_dir)
    b.check_same([reference] + warm, "set-up/warm")
    run = grids[0]
    for i, other in enumerate(grids[1:], 1):
        b.check(other["trials"] == run["trials"], f"grid {i}: trials differ from grid 0")
    default = [t for t in run["trials"] if t["cell"] == DEFAULT_CELL]
    b.check(len(default) == 1 and default[0]["score"] == reference.get("score")
            and default[0]["nmse"] == reference.get("nmse"),
            "default grid cell differs from the set-up pipeline run")
    ok = [t["score"] for t in run["trials"] if t["status"] == "ok"]
    if b.trace:
        b.check(plain["trials"] == run["trials"], "untraced/traced: trials differ")
        metrics["trace.overhead_pct"] = 100.0 * (run["seconds"] / plain["seconds"] - 1.0)
        metrics["tuning.trials"] = len(run["trials"])
        metrics["tuning.failed"] = len(run["trials"]) - len(ok)
        metrics["tuning.trial_s"] = statistics.median(run["wall_times"])
    metrics.update(run_s=median_seconds(grids),
                   peak_rss_mb=max(g["peak_rss_mb"] for g in grids))
    metrics["classify.score"] = max(ok, default=0.0)
    return setup_dir, reference["artifacts"]


WORKLOADS = {
    "desk_cold": run_desk_cold,
    "grid_sweep": run_grid_sweep,
    "long_stream": run_long_stream,
}


def per_layer(b, manifest, step_inputs, metrics):
    """Per-layer metrics of a traced pass, plus the step micro-costs."""
    layers = {s[2] for s in b.op_spans + [s for run in b.warm_runs for s in run]}
    expected = set(TRACED_LAYERS[b.workload])
    if expected - layers:
        raise TraceError(f"no spans recorded for layers {sorted(expected - layers)}")
    out, artifacts = step_inputs
    costs = b.child("step_costs", manifest=manifest, config=b.config, rows=STEP_ROWS,
                    features=os.path.join(out, artifacts["features"]),
                    states=os.path.join(out, artifacts["states"]))
    result = {name: value for name, (value, _) in layer_metrics(b.op_spans, b.warm_runs).items()}
    result.update({
        "reservoir.step_us": costs["step_us"],
        "reservoir.quantize_phase_us": costs["quantize_phase_us"],
        "tuning.trials": 0, "tuning.failed": 0, "tuning.trial_s": 0.0,
    })
    result.update(metrics)
    return result


def per_layer_units():
    units = {name: unit for name, (_, unit) in layer_metrics([], []).items()}
    units.update({"reservoir.step_us": "us", "reservoir.quantize_phase_us": "us",
                  "tuning.trials": "count", "tuning.failed": "count", "tuning.trial_s": "s",
                  "classify.score": "points", "trace.overhead_pct": "%"})
    return units


def benchmark(workload, seed, seconds, trace, size="bench", tamper=None):
    """Run one workload; returns (result record, printable lines)."""
    # one BLAS thread setting for every child: the grid's default cell must
    # match the set-up pipeline run bit for bit
    os.environ.update(OPENBLAS_NUM_THREADS=BLAS_THREADS, OMP_NUM_THREADS=BLAS_THREADS,
                      MKL_NUM_THREADS=BLAS_THREADS)
    os.makedirs(CACHE_DIR, exist_ok=True)
    os.makedirs(OUT_DIR, exist_ok=True)
    work = os.path.join(OUT_DIR, f"work-{workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    b = Bench(workload, seed, seconds, trace, size, work)
    try:
        env = b.child("environment")
        corpus = b.child("corpus", args=b.corpus_args, cache_dir=CACHE_DIR)
        manifest = corpus["manifest"]
        metrics = {}
        step_inputs = WORKLOADS[workload](b, manifest, metrics, tamper)
        score = metrics["classify.score"]
        if trace:
            metrics = per_layer(b, manifest, step_inputs, metrics)
            units = per_layer_units()
        else:
            units = END_TO_END_UNITS
        metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "size": size,
        "environment": dict(
            {k: env[k] for k in ("nproc", "python", "numpy", "scipy", "blas")},
            blas_threads=BLAS_THREADS, grid_workers=GRID_WORKERS,
        ),
        "corpus": {
            "seed": seed,
            "cached": not corpus["generated"],
            "sequences": corpus["sequences"],
            "frames": corpus["frames"],
            "resolution": corpus["resolution"],
            "D": corpus["hog_features"],
            "K": b.config["pca_components"],
            "N": b.config["n_nodes"],
            "variant": b.config["variant"],
        },
        "score": score,
        "attempted": b.attempted,
        "failed": len(b.failures),
        "failures": b.failures,
        "metrics": metrics,
    }
    lines = [f"photonrc benchmark: workload {workload}, seed {seed}, size {size}, trace {trace}",
             "environment: " + json.dumps(record["environment"]),
             "corpus: " + json.dumps(record["corpus"])]
    lines += [f"  {name:<30} {m['value']:>14.6g} {m['unit']}" for name, m in metrics.items()]
    lines.append(f"  {'score (of 600)':<30} {score:>14.6g} points")
    lines.append(f"  {'error_rate':<30} {len(b.failures) / max(b.attempted, 1):>14.6g} "
                 f"failed/attempted ({len(b.failures)} of {b.attempted})")
    lines += [f"  FAILED: {what}" for what in b.failures]
    if trace:
        spans_path = os.path.join(OUT_DIR, f"{workload}-seed{seed}.spans.json")
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"fields": FIELDS, "spans": b.spans}, fh)
        lines.append(f"spans: {spans_path}")
    with open(os.path.join(OUT_DIR, f"{workload}-seed{seed}-trace{int(trace)}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
    return record, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=1.0,
                        help="time spent on warm reruns, of which there are at least "
                             f"{MIN_WARM_RUNS}; traced, there are exactly {MIN_WARM_RUNS}")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="bench")
    args = parser.parse_args(argv)
    # SystemExit unwinds through subprocess.run, which then kills the running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    start = time.perf_counter()
    try:
        record, lines = benchmark(args.workload, args.seed, args.seconds, bool(args.trace),
                                  args.size)
    except (BenchError, TraceError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    print(f"wall time {time.perf_counter() - start:.1f} s", file=sys.stderr)
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
