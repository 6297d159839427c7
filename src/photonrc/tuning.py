"""Exhaustive hyperparameter grid search over the reservoir stage.

HOG extraction and PCA do not depend on the reservoir hyperparameters, so
a grid search consumes one prepared feature cache and re-runs only the
reservoir, readout training, and scoring per cell.  Every Cartesian
combination of the value lists (times every seed) becomes one trial;
trials run on a bounded thread pool, own their matrices and state
privately, and append to a checkpoint log as they finish, so an
interrupted search resumes without recomputing.  Failed trials are
recorded with an error tag rather than aborting the grid.

Results are canonically ordered (score descending, then parameters, then
seed), so worker count and completion order never affect the outcome.
"""

import csv
import itertools
import json
import math
import os
import threading
import time
from collections import namedtuple
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ParseError, PhotonRcError, SchemaError
from .pipeline import evaluate_readout, reservoir_spec, reservoir_states, train_readout
from .reservoir import VARIANTS, HyperParams

# not called here; bound so that perfbench/tracing.py WRAPS can patch them on this module
from .pipeline import (  # noqa: F401
    apply_readout,
    classify_stream,
    confusion,
    encode_targets,
    index_frames,
    load_manifest,
    nmse_per_output,
    read_cache,
    run_reservoir,
    train_ridge,
)
from .reservoir import generate_matrices  # noqa: F401

ALPHA_RANGE = (0.1, 1.5)     # feedback gain search window
SMALL_GAIN_RANGE = (0.0001, 1.0)  # input gain, coupling gain, density window

LOG_FIELDS = [
    "feedback_gain",
    "input_gain",
    "coupling_gain",
    "coupling_density",
    "ridge_lambda",
    "seed",
    "score",
    "nmse_boxing",
    "nmse_handclapping",
    "nmse_handwaving",
    "nmse_jogging",
    "nmse_running",
    "nmse_walking",
    "wall_time",
    "status",
    "error",
]


# the value lists of a grid, in the order its cells vary (the last fastest)
AXES = ("feedback_gain", "input_gain", "coupling_gain", "coupling_density", "ridge_lambda", "seeds")

# an error row's gains as the grid gave them, which HyperParams may reject
CellGains = namedtuple("CellGains", LOG_FIELDS[:4])


def _check_range(name, values, lo, hi, allow):
    for v in values:
        if not (lo <= v <= hi) and not allow:
            raise ValueError(
                f"{name} value {v} outside default range [{lo}, {hi}]; "
                "set allow_out_of_range to search it anyway"
            )


@dataclass(frozen=True)
class GridSpec:
    feedback_gain: tuple
    input_gain: tuple
    coupling_gain: tuple
    coupling_density: tuple
    ridge_lambda: tuple = (None,)  # None = scale-adaptive default
    n_nodes: int = 1024
    variant: str = "intensity"
    seeds: tuple = (0,)
    allow_out_of_range: bool = False

    def __post_init__(self):
        for name in AXES:
            object.__setattr__(self, name, tuple(getattr(self, name)))
            if not getattr(self, name):
                raise ValueError(f"{name} value list is empty")
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        allow = self.allow_out_of_range
        _check_range("feedback_gain", self.feedback_gain, *ALPHA_RANGE, allow)
        _check_range("input_gain", self.input_gain, *SMALL_GAIN_RANGE, allow)
        _check_range("coupling_gain", self.coupling_gain, *SMALL_GAIN_RANGE, allow)
        _check_range("coupling_density", self.coupling_density, *SMALL_GAIN_RANGE, allow)

    def cells(self):
        """Cartesian product of all value lists, in deterministic order."""
        return list(itertools.product(*(getattr(self, name) for name in AXES)))

    @property
    def trial_count(self):
        return math.prod(len(getattr(self, name)) for name in AXES)


def default_grid(n_nodes=1024, variant="intensity", seeds=(0,)):
    """Coarse default grid: 0.1-step feedback gains, log-spaced small gains."""
    return GridSpec(
        feedback_gain=tuple(np.round(np.arange(0.1, 1.5001, 0.1), 10)),
        input_gain=tuple(np.logspace(-4, 0, 5)),
        coupling_gain=tuple(np.logspace(-4, 0, 5)),
        coupling_density=tuple(np.logspace(-4, -1, 4)),
        n_nodes=n_nodes,
        variant=variant,
        seeds=tuple(seeds),
    )


def save_grid_spec(spec, path):
    doc = {name: list(getattr(spec, name)) for name in AXES}
    doc.update(
        n_nodes=spec.n_nodes, variant=spec.variant, allow_out_of_range=spec.allow_out_of_range
    )
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_grid_spec(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    try:
        return GridSpec(
            feedback_gain=tuple(float(v) for v in doc["feedback_gain"]),
            input_gain=tuple(float(v) for v in doc["input_gain"]),
            coupling_gain=tuple(float(v) for v in doc["coupling_gain"]),
            coupling_density=tuple(float(v) for v in doc["coupling_density"]),
            ridge_lambda=tuple(
                None if v is None else float(v) for v in doc.get("ridge_lambda", [None])
            ),
            n_nodes=int(doc.get("n_nodes", 1024)),
            variant=str(doc.get("variant", "intensity")),
            seeds=tuple(int(v) for v in doc.get("seeds", [0])),
            allow_out_of_range=bool(doc.get("allow_out_of_range", False)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"{path}: malformed grid file ({exc})") from None


# ---------------------------------------------------------------------------
# Trials

@dataclass(frozen=True)
class TrialResult:
    params: HyperParams  # CellGains when status is "error"
    ridge_lambda: object  # float or None (auto)
    seed: int
    score: float
    nmse_per_class: np.ndarray
    wall_time: float
    status: str = "ok"
    error: str = ""

    def key(self):
        lam = -1.0 if self.ridge_lambda is None else float(self.ridge_lambda)
        return (
            self.params.feedback_gain,
            self.params.input_gain,
            self.params.coupling_gain,
            self.params.coupling_density,
            lam,
            self.seed,
        )


def run_trial(data, n_nodes, variant, params, ridge_lambda, seed, reset_per_sequence=False):
    """Reservoir + readout + score for one hyperparameter cell.

    These are the pipeline's reservoir, train and evaluate stages on
    in-memory arrays; the states are float32 as in the pipeline's state
    cache, so a one-cell grid reproduces a pipeline run bit for bit.
    """
    start = time.perf_counter()
    spec = reservoir_spec(n_nodes, data.input_dim, variant, params, seed)
    states = reservoir_states(spec, data.features, data.all_spans if reset_per_sequence else None)
    model = train_readout(states, data, ridge_lambda, variant)
    _, _, matrix, per_class = evaluate_readout(model, states, data)
    return TrialResult(
        params=params,
        ridge_lambda=ridge_lambda,
        seed=seed,
        score=matrix.score,
        nmse_per_class=per_class,
        wall_time=time.perf_counter() - start,
    )


def _result_row(result):
    lam = "" if result.ridge_lambda is None else repr(float(result.ridge_lambda))
    row = {
        "feedback_gain": repr(result.params.feedback_gain),
        "input_gain": repr(result.params.input_gain),
        "coupling_gain": repr(result.params.coupling_gain),
        "coupling_density": repr(result.params.coupling_density),
        "ridge_lambda": lam,
        "seed": str(result.seed),
        "score": repr(float(result.score)) if math.isfinite(result.score) else "nan",
        "wall_time": f"{result.wall_time:.6f}",
        "status": result.status,
        "error": result.error,
    }
    for name, value in zip(LOG_FIELDS[7:13], result.nmse_per_class):
        row[name] = repr(float(value)) if np.isfinite(value) else "nan"
    return row


def _row_result(row):
    lam = row["ridge_lambda"]
    gains = HyperParams if row["status"] == "ok" else CellGains
    params = gains(*(float(row[name]) for name in LOG_FIELDS[:4]))
    return TrialResult(
        params=params,
        ridge_lambda=None if lam == "" else float(lam),
        seed=int(row["seed"]),
        score=float(row["score"]),
        nmse_per_class=np.array([float(row[f]) for f in LOG_FIELDS[7:13]]),
        wall_time=float(row["wall_time"]),
        status=row["status"],
        error=row.get("error", ""),
    )


def read_grid_log(path):
    """Load previously completed trials from a checkpoint CSV."""
    results = []
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            return results
        missing = set(LOG_FIELDS) - set(reader.fieldnames)
        if missing:
            raise SchemaError(f"{path}: grid log missing columns {sorted(missing)}")
        for row in reader:
            try:
                results.append(_row_result(row))
            except (TypeError, ValueError) as exc:
                raise SchemaError(
                    f"{path}: malformed grid-log row at line {reader.line_num}"
                ) from exc
    return results


def _drop_torn_row(path):
    """Cut a last row that lacks its newline, which every row written in full ends with."""
    with open(path, "rb+") as fh:
        data = fh.read()
        if not data.endswith(b"\n"):
            fh.truncate(data.rfind(b"\n") + 1)


def _error_result(params, ridge_lambda, seed, wall_time, exc):
    return TrialResult(
        params=params,
        ridge_lambda=ridge_lambda,
        seed=seed,
        score=float("nan"),
        nmse_per_class=np.full(6, np.nan),
        wall_time=wall_time,
        status="error",
        error=f"{type(exc).__name__}: {exc}",
    )


def sort_results(results):
    """Canonical order: successes by score descending, then params, then seed."""
    return sorted(
        results,
        key=lambda r: (
            r.status != "ok",
            -(r.score if r.status == "ok" and math.isfinite(r.score) else -math.inf),
        )
        + r.key(),
    )


def run_grid(
    spec,
    data,
    workers=None,
    log_path=None,
    resume=False,
    reset_per_sequence=False,
):
    """Evaluate every grid cell; returns TrialResults in canonical order.

    With ``log_path`` set, each finished trial is appended to the CSV
    checkpoint immediately; ``resume=True`` skips cells already present.
    """
    cells = spec.cells()
    done = {}
    if resume and log_path and os.path.isfile(log_path):
        _drop_torn_row(log_path)  # its cell then runs again
        for result in read_grid_log(log_path):
            done[result.key()] = result

    log_lock = threading.Lock()
    log_fh = None
    writer = None
    if log_path:
        fresh = not (resume and os.path.isfile(log_path) and os.path.getsize(log_path))
        log_fh = open(log_path, "a", newline="", encoding="utf-8")
        writer = csv.DictWriter(log_fh, fieldnames=LOG_FIELDS)
        if fresh:
            writer.writeheader()
            log_fh.flush()

    def evaluate(cell):
        fg, ig, cg, cd, lam, seed = cell
        start = time.perf_counter()
        try:
            params = HyperParams(
                feedback_gain=fg, input_gain=ig, coupling_gain=cg, coupling_density=cd
            )
            result = run_trial(
                data, spec.n_nodes, spec.variant, params, lam, seed,
                reset_per_sequence=reset_per_sequence,
            )
        except (PhotonRcError, OverflowError, ValueError) as exc:
            result = _error_result(
                CellGains(fg, ig, cg, cd), lam, seed, time.perf_counter() - start, exc
            )
        if writer is not None:
            with log_lock:
                writer.writerow(_result_row(result))
                log_fh.flush()
        return result

    pending = []
    results = []
    for cell in cells:
        fg, ig, cg, cd, lam, seed = cell
        key = (fg, ig, cg, cd, -1.0 if lam is None else float(lam), seed)
        if key in done:
            results.append(done[key])
        else:
            pending.append(cell)

    try:
        if workers == 1 or len(pending) <= 1:
            results.extend(evaluate(cell) for cell in pending)
        else:
            max_workers = workers or min(8, os.cpu_count() or 1)
            with ThreadPoolExecutor(max_workers=max_workers) as pool:
                results.extend(pool.map(evaluate, pending))
    finally:
        if log_fh is not None:
            log_fh.close()

    return sort_results(results)


def best_trial(results):
    for result in results:
        if result.status == "ok" and math.isfinite(result.score):
            return result
    return None
