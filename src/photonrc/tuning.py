"""Exhaustive hyperparameter grid search over the reservoir stage.

HOG extraction and PCA do not depend on the reservoir hyperparameters, so
a grid search consumes one prepared feature cache and re-runs only the
reservoir, readout training, and scoring.  Every Cartesian combination of
the value lists (times every seed) becomes one trial.  The reservoir
states do not depend on the ridge lambda either, so the trials that share
their gains and seed form one group: its reservoir runs once, and each of
its lambdas trains and scores a readout on those states.

The pending groups run in stacks of up to :data:`STACK_NODES` reservoir
nodes.  A stack is one block-diagonal reservoir over one chunked drive, so
its groups share one step loop, and each group's states equal those of its
own run byte for byte.  Each group then forms its readout's normal
equations once and solves them for each of its lambdas.  Everything runs
on the calling thread, and each trial is appended to a checkpoint log as
it finishes, so an interrupted search resumes without recomputing.  Failed
trials (:data:`~photonrc.errors.FAILURES`) get an error tag rather than
abort the grid; a stack that fails runs its groups again one at a time, so
an error lands on its own group.  A trial's wall time is its own readout
training and scoring time, plus an equal share of its group's normal
equations, plus an equal share of its stack's reservoir build and run time
over every trial the stack serves.

Results are canonically ordered (score descending, then parameters, then
seed), so the stacking and completion order never affect the outcome.
"""

import csv
import itertools
import math
import os
import time
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .cache import json_typed, read_json, write_json
from .classify import N_CLASSES
from .errors import FAILURES, SchemaError
from .pipeline import (
    evaluate_readout,
    readout_equations,
    reservoir_spec,
    reservoir_states,
    train_readout,
)
from .readout import check_ridge_lambda
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

# the most reservoir nodes one lockstep run steps: the cost per step and
# cell falls up to 4,096 stacked nodes and is flat beyond, while the
# stack's float32 states grow with it
STACK_NODES = 4096

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
    # as PipelineConfig.variant: validated and saved, and it selects nothing
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
        if self.n_nodes < 1:
            raise ValueError(f"n_nodes must be at least 1, got {self.n_nodes}")
        for lam in self.ridge_lambda:
            check_ridge_lambda(lam)
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


def default_grid(n_nodes=1024, seeds=(0,)):
    """Coarse default grid: 0.1-step feedback gains, log-spaced small gains."""
    return GridSpec(
        feedback_gain=tuple(np.round(np.arange(0.1, 1.5001, 0.1), 10)),
        input_gain=tuple(np.logspace(-4, 0, 5)),
        coupling_gain=tuple(np.logspace(-4, 0, 5)),
        coupling_density=tuple(np.logspace(-4, -1, 4)),
        n_nodes=n_nodes,
        seeds=tuple(seeds),
    )


def save_grid_spec(spec, path):
    doc = {name: list(getattr(spec, name)) for name in AXES}
    doc.update(
        n_nodes=spec.n_nodes, variant=spec.variant, allow_out_of_range=spec.allow_out_of_range
    )
    write_json(path, doc)


def load_grid_spec(path):
    def values(doc, name, kind=float, default=None):
        """The value list ``name``, each item through json_typed; a null lambda is the default."""
        raw = doc[name] if default is None else doc.get(name, default)
        return tuple(
            None if v is None and name == "ridge_lambda" else json_typed(v, kind, name)
            for v in json_typed(raw, list, name)
        )

    return read_json(
        path,
        lambda doc: GridSpec(
            **{name: values(doc, name) for name in AXES[:4]},
            ridge_lambda=values(doc, "ridge_lambda", default=[None]),
            n_nodes=json_typed(doc.get("n_nodes", 1024), int, "n_nodes"),
            variant=json_typed(doc.get("variant", "intensity"), str, "variant"),
            seeds=values(doc, "seeds", int, default=[0]),
            allow_out_of_range=json_typed(
                doc.get("allow_out_of_range", False), bool, "allow_out_of_range"
            ),
        ),
    )


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

    def cell(self):
        """The grid cell: its four gains, ridge lambda and seed."""
        p = self.params
        return (
            p.feedback_gain, p.input_gain, p.coupling_gain, p.coupling_density,
            self.ridge_lambda, self.seed,
        )

    def key(self):
        """The cell's sort key; auto lambda (None) sorts first, and a NaN
        gain, which no comparison orders, after every number."""
        *gains, lam, seed = self.cell()
        gains = ((math.isnan(g), 0.0 if math.isnan(g) else g) for g in gains)
        return (*gains, -math.inf if lam is None else float(lam), seed)


def _cell_fields(*cell):
    """A cell's gains, lambda and seed as its grid-log row stores them; they
    identify the cell on resume, where a NaN gain read back equals no float."""
    *gains, lam, seed = cell
    lam = "" if lam is None else repr(float(lam))
    return tuple(repr(float(v)) for v in gains) + (lam, str(seed))


def _run_stack(data, n_nodes, groups, reset_per_sequence=False, on_result=None):
    """Trials of several (gains, seed) groups whose reservoirs run in lockstep.

    ``groups`` lists ((gains, seed), lambdas) pairs, the gains in
    :class:`CellGains` order.  One :func:`reservoir_states` call runs every
    group's reservoir, whose states are float32 as in the pipeline's state
    cache, so a one-cell grid reproduces a pipeline run bit for bit.  Each
    group then builds its readout's normal equations once, and its train
    and evaluate stages run once per lambda.

    Gains that :class:`HyperParams` rejects, or a failing reservoir, fail
    the whole stack; its groups then run again one at a time, and a
    one-group stack gives every lambda of its group an error result.  A
    failing train or evaluate fails its own lambda only.  ``on_result`` is
    called with each result as soon as it is made; the results are returned
    in ``groups`` order, each group's in ``lambdas`` order.
    """
    start = time.perf_counter()
    failure = None
    try:
        specs = [
            reservoir_spec(n_nodes, data.input_dim, HyperParams(*gains), seed)
            for (gains, seed), _ in groups
        ]
        spans = data.all_spans if reset_per_sequence else None
        states = reservoir_states(specs, data.features, spans)
    except FAILURES as exc:
        if len(groups) > 1:
            return [
                result
                for group in groups
                for result in _run_stack(data, n_nodes, [group], reset_per_sequence, on_result)
            ]
        failure = exc
    share = (time.perf_counter() - start) / sum(len(lambdas) for _, lambdas in groups)
    results = []
    for j, ((gains, seed), lambdas) in enumerate(groups):
        start = time.perf_counter()
        error = failure
        if error is None:
            group_states = states[:, j * n_nodes:(j + 1) * n_nodes]
            try:
                normal = readout_equations(group_states, data)
            except FAILURES as exc:
                error = exc
        group_share = share + (time.perf_counter() - start) / len(lambdas)
        for lam in lambdas:
            start = time.perf_counter()
            trial_error = error
            if trial_error is None:
                try:
                    model = train_readout(group_states, data, lam, normal)
                    _, _, matrix, per_class = evaluate_readout(model, group_states, data)
                except FAILURES as exc:
                    trial_error = exc
            wall_time = group_share + time.perf_counter() - start
            if trial_error is None:
                result = TrialResult(
                    params=HyperParams(*gains),
                    ridge_lambda=lam,
                    seed=seed,
                    score=matrix.score,
                    nmse_per_class=per_class,
                    wall_time=wall_time,
                )
            else:
                result = _error_result(CellGains(*gains), lam, seed, wall_time, trial_error)
            if on_result is not None:
                on_result(result)
            results.append(result)
    return results


def run_trial(data, n_nodes, params, ridge_lambda, seed, reset_per_sequence=False):
    """Reservoir + readout + score for one hyperparameter cell: a one-group :func:`_run_stack`."""
    group = ((CellGains(**params.as_dict()), seed), (ridge_lambda,))
    return _run_stack(data, n_nodes, [group], reset_per_sequence)[0]


def _result_row(result):
    row = dict(zip(LOG_FIELDS, _cell_fields(*result.cell())))
    row.update(
        score=repr(float(result.score)) if math.isfinite(result.score) else "nan",
        wall_time=f"{result.wall_time:.6f}",
        status=result.status,
        error=result.error,
    )
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
    """Load the trials of a checkpoint CSV, but for a last row that lacks its
    newline (see :func:`_drop_torn_row`); the file itself is left as it is.
    A byte that is not UTF-8 reads as U+FFFD; in a number it makes the row malformed."""
    with open(path, "r", newline="", encoding="utf-8", errors="replace") as fh:
        lines = fh.readlines()
    if lines and not lines[-1].endswith("\n"):
        lines.pop()
    results = []
    reader = csv.DictReader(lines)
    if reader.fieldnames is None:
        return results
    missing = set(LOG_FIELDS) - set(reader.fieldnames)
    if missing:
        raise SchemaError(f"{path}: grid log missing columns {sorted(missing)}")
    for row in reader:
        try:
            results.append(_row_result(row))
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"{path}: malformed grid-log row at line {reader.line_num}") from exc
    return results


def logged_trials(path):
    """The trials of a grid log by :func:`_cell_fields`; a cell's last row wins."""
    return {_cell_fields(*result.cell()): result for result in read_grid_log(path)}


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
        nmse_per_class=np.full(N_CLASSES, np.nan),
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

    The pending cells are grouped by (gains, seed), and the groups, in grid
    order, into stacks of up to :data:`STACK_NODES` nodes (at least one
    group each).  Each stack is one :func:`_run_stack`: one lockstep
    reservoir run, then one readout per group and lambda.  With ``log_path``
    set, each finished trial is appended to the CSV checkpoint immediately;
    ``resume=True`` skips the cells whose gains, lambda and seed the log
    already stores (:func:`_cell_fields`), so a group whose cells are all
    logged runs no reservoir.

    ``workers`` is accepted and has no effect: the grid runs on the calling
    thread, as its step loop holds the interpreter lock and its readouts
    measured no faster on a second thread.
    """
    cells = spec.cells()
    done = {}
    if resume and log_path and os.path.isfile(log_path):
        done = logged_trials(log_path)
        _drop_torn_row(log_path)  # its cell then runs again

    log_fh = None
    on_result = None
    if log_path:
        log_fh = open(log_path, "a" if resume else "w", newline="", encoding="utf-8")
        writer = csv.DictWriter(log_fh, fieldnames=LOG_FIELDS)
        if log_fh.tell() == 0:
            writer.writeheader()
            log_fh.flush()

        def on_result(result):
            writer.writerow(_result_row(result))
            log_fh.flush()

    # the pending lambdas of each (gains, seed), which share one reservoir run
    groups = {}
    results = []
    for fg, ig, cg, cd, lam, seed in cells:
        key = _cell_fields(fg, ig, cg, cd, lam, seed)
        if key in done:
            results.append(done[key])
        else:
            groups.setdefault((CellGains(fg, ig, cg, cd), seed), []).append(lam)
    pending = list(groups.items())
    per_stack = max(1, STACK_NODES // spec.n_nodes)

    try:
        for i in range(0, len(pending), per_stack):
            results += _run_stack(
                data, spec.n_nodes, pending[i:i + per_stack], reset_per_sequence, on_result
            )
    finally:
        if log_fh is not None:
            log_fh.close()
    return sort_results(results)


def best_trial(results):
    for result in results:
        if result.status == "ok" and math.isfinite(result.score):
            return result
    return None
