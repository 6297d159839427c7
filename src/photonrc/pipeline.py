"""End-to-end orchestration: frames to HOG to PCA to reservoir to score.

The stage bodies are written once here, as plain functions on arrays and
paths: :func:`extract_hog`, :func:`pca_stage`, :func:`drive_reservoir`,
:func:`train_readout`, :func:`evaluate_readout` and :func:`write_results`.
:func:`run_pipeline`, the CLI stage commands
and the grid trials all call them, and :func:`prepare_data` binds a cache
of per-frame rows to its manifest's splits for every one of them.

A pipeline run materializes one artifact per stage under its output
directory.  Artifact names are content-addressed: each stage's file name
carries a short digest of everything that influences its bytes (manifest
content hash, upstream digests, stage parameters), so reruns and grid
trials reuse whatever already matches and never reuse anything stale.
With the default "reuse" cache policy a warm rerun reproduces the cold
run's result files bit for bit; "rebuild" recomputes every stage.  A
binary artifact, the readout included, is reused only if it has the
expected shape and exactly the size its header announces (one rule,
:func:`_is_complete`); otherwise it is recomputed.  A stage reads its
upstream cache only when it recomputes.

The PCA stage never holds the whole HOG cache, and reads each HOG row once.
The fit reads its rows through :class:`~photonrc.cache.CacheRows` straight
into one float64 array, which it centres in place.  On the Gram route
(fewer fit rows than HOG features, as at desk scale) the fit rows' features
are the scores the fit returns, taken from the Gram's eigenvectors (the
snapshot method, see :mod:`photonrc.pca`); only the other rows are read
again and projected, ``cache.CHUNK_ROWS`` rows at a time.  On the
covariance route every row is projected.  :func:`project` writes the
features on both routes.  At its peak the stage holds the fit rows in
float64 with the Gram matrix, which its eigenvectors overwrite, and
LAPACK's eigensolver workspace; the components then overwrite the fit
rows.  The write holds the model, the float32 scores and one chunk, in
float32 and in float64.

No stage after PCA holds more than one Gram and one chunk of rows.  The
reservoir stage reads the feature cache a chunk at a time and writes each
block of readings as it is made.  The train and evaluate stages read the
state cache through :class:`~photonrc.cache.CacheRows`: the ridge readout
sums its normal equations exactly over row chunks (see
:mod:`photonrc.readout`), and the readout is applied a chunk at a time, cut
by :func:`~photonrc.cache.row_chunks` as an in-memory trial cuts its states,
so both give the same bytes.

Every numeric handoff between stages round-trips through a float32 cache
file, and downstream stages consume the file's values rather than the
in-memory originals; this is what makes warm and cold runs byte-identical.

A stage failure, any of :data:`~photonrc.errors.FAILURES`, surfaces as
:class:`PipelineStageError` naming the stage and carrying the root cause.
"""

import contextlib
import hashlib
import json
import os
from dataclasses import asdict, dataclass, replace

import numpy as np

from .cache import (
    CacheRows, CacheWriter, json_typed, read_cache_header, read_json, replaced, row_chunks,
    write_json,
)
from .hog import (
    DEFAULT_CONFIG,
    HogConfig,
    _vote_table,
    descriptor_layout,
    feature_count,
    hog_descriptor,
)
from .classify import (
    N_CLASSES,
    classify_stream,
    confusion,
    score_line,
    write_confusion,
    write_sequence_results,
)
from .dataset import Split, index_frames, load_manifest, make_split, stream_frames
from .errors import FAILURES, NotAPipelineDirError, ParseError, PipelineStageError, SchemaError
from .pca import fit_pca, read_pca_header, save_pca_model, transform
# not called here, as the PCA stage returns the model it saves and every cache
# is read a chunk at a time; bound so that perfbench/tracing.py WRAPS can
# patch them on this module
from .cache import read_cache  # noqa: F401
from .pca import load_pca_model  # noqa: F401
from .readout import (
    apply_readout,
    check_ridge_lambda,
    encode_targets,
    load_readout_model,
    nmse_per_output,
    normal_equations,
    read_readout_header,
    save_readout_model,
    train_ridge,
)
from .reservoir import (
    PRNG_FAMILY,
    VARIANTS,
    HyperParams,
    ReservoirSpec,
    run_reservoir,
    save_reservoir_spec,
    stack_matrices,
)

PIPELINE_FILE = "pipeline.json"
CONFIG_FILE = "config.json"

STAGES = ("dataset", "hog", "pca", "reservoir", "train", "evaluate")

CACHE_POLICIES = ("reuse", "rebuild")
PCA_FIT_ON = ("train", "all")  # the train split's rows, or every frame's

# the evaluate stage's files in the output directory, by artifact key
RESULT_FILES = {
    "sequence_results": "sequence_results.csv", "confusion": "confusion.csv", "score": "score.txt",
}


def derive_stream_seed(global_seed, label):
    """Per-stage seed: one global seed fans out through fixed stream labels."""
    digest = hashlib.sha256(f"{label}:{int(global_seed)}".encode("ascii")).digest()
    return int.from_bytes(digest[:8], "little") >> 1  # keep it a positive int64


def _digest(payload):
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:12]


def file_sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


@dataclass(frozen=True)
class PipelineConfig:
    manifest_path: str
    out_dir: str
    hog_config: HogConfig = DEFAULT_CONFIG
    pca_components: int = 2000
    n_nodes: int = 1024
    # the form of the recurrence, "intensity" or "phase"; both read the same
    # values, so it selects nothing and only config.json records it
    variant: str = "intensity"
    params: HyperParams = HyperParams()
    ridge_lambda: float | None = None  # None picks the scale-adaptive default
    seed: int = 0
    cache_policy: str = "reuse"  # one of CACHE_POLICIES
    # sequences are concatenated into one stream; resetting at sequence
    # starts is an ablation, not the default
    reset_per_sequence: bool = False
    pca_fit_on: str = "train"  # one of PCA_FIT_ON

    def __post_init__(self):
        if self.cache_policy not in CACHE_POLICIES:
            raise ValueError(f"unknown cache policy {self.cache_policy!r}")
        if self.pca_fit_on not in PCA_FIT_ON:
            choices = " or ".join(map(repr, PCA_FIT_ON))
            raise ValueError(f"pca_fit_on must be {choices}, got {self.pca_fit_on!r}")
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}, expected one of {VARIANTS}")
        for name in ("pca_components", "n_nodes"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        check_ridge_lambda(self.ridge_lambda)

    def as_dict(self):
        """The config as config.json stores it, with the PRNG family."""
        doc = asdict(self)
        doc.update(
            hog=doc.pop("hog_config"), hyperparameters=doc.pop("params"), prng_family=PRNG_FAMILY
        )
        return doc


@dataclass(frozen=True)
class PipelineReport:
    score: float
    confusion_matrix: object
    nmse_per_class: np.ndarray
    resolved_lambda: float
    artifacts: dict
    digests: dict
    out_dir: str


@dataclass(frozen=True)
class PreparedData:
    """Per-frame rows (HOG, PCA features or states) plus their manifest's row bookkeeping."""

    # (T, K): a float32 array or a CacheRows; None when only rows are bound
    features: np.ndarray
    targets: np.ndarray   # (T, 6) one-hot
    train_rows: np.ndarray
    test_rows: np.ndarray
    all_spans: tuple      # (sequence_id, start, stop, action) over every sequence
    test_spans: tuple

    @property
    def input_dim(self):
        return self.features.shape[1]


def prepare_data(manifest, features, validation_fraction=None, seed=0):
    """Bind a cache of per-frame rows to its manifest.

    ``manifest`` is a Manifest or a path; ``features`` is an array, a
    :class:`CacheRows`, or a cache path, bound as its CacheRows, whose row
    count must match the manifest's total frame count, or None to bind the
    manifest's rows without any values.  A cache is counted here, not read:
    its rows are read a chunk at a time by whichever stage uses them.

    With ``validation_fraction`` set, in (0, 1), a stratified validation
    subset is carved out of the train split and trials score on it instead
    of the test split, which then stays untouched for the final model.
    """
    if validation_fraction is not None and not 0.0 < validation_fraction < 1.0:  # nan too
        raise ValueError(
            f"validation_fraction must lie in the open interval (0, 1), got {validation_fraction}"
        )
    if isinstance(manifest, (str, os.PathLike)):
        manifest = load_manifest(manifest)
    if isinstance(features, (str, os.PathLike)):
        features = CacheRows(features)
    index = index_frames(manifest)
    if features is not None:
        if not isinstance(features, CacheRows):
            features = np.asarray(features, dtype=np.float32)
        if features.shape[0] != index.total_frames:
            raise SchemaError(
                f"feature cache has {features.shape[0]} rows, "
                f"manifest counts {index.total_frames} frames"
            )
    targets = encode_targets(index.frame_actions())

    if validation_fraction is not None:
        train = [i for i, s in enumerate(manifest.sequences) if s.split is Split.TRAIN]
        relabeled = make_split(
            [manifest.sequences[i] for i in train],
            1.0 - validation_fraction,
            derive_stream_seed(seed, "validation"),
        )
        # TEST after relabeling = validation; the real test sequences get no
        # role.  make_split keeps order, so roles go back by position.
        splits = [None] * len(manifest.sequences)
        for i, s in zip(train, relabeled):
            splits[i] = s.split
        index = replace(index, splits=tuple(splits))

    return PreparedData(
        features=features,
        targets=targets,
        train_rows=index.rows_for(Split.TRAIN),
        test_rows=index.rows_for(Split.TEST),
        all_spans=tuple(index.spans_for()),
        test_spans=tuple(index.spans_for(Split.TEST)),
    )


@contextlib.contextmanager
def _stage(name):
    try:
        yield
    except PipelineStageError:
        raise
    except FAILURES as exc:
        raise PipelineStageError(name, exc) from exc


def header_readers():
    """Each binary artifact's header reader, by artifact key; built per call, so
    a reader patched on this module is the one used."""
    return {
        "hog": read_cache_header, "features": read_cache_header, "states": read_cache_header,
        "pca_model": read_pca_header, "readout_model": read_readout_header,
    }


def _is_complete(path, read_header, *shape):
    """The reuse rule for every binary artifact: ``read_header`` (its entry in
    :func:`header_readers`) returns its shape and accepts only an exact-size file."""
    try:
        return read_header(path)[:2] == shape
    except FAILURES:  # no file, a bad header, or a size it does not announce
        return False


# ---------------------------------------------------------------------------
# Stage bodies

def extract_hog(manifest, path, hog_config=DEFAULT_CONFIG):
    """Write the HOG descriptor of every frame in the manifest's stream to a cache.

    The HOG vote table is released on return, so it is not resident
    through the later stages.
    """
    layout = descriptor_layout(manifest.resolution, hog_config)
    dim = feature_count(manifest.resolution, hog_config)
    try:
        with CacheWriter(path, dim, layout=layout) as writer:
            for frame in stream_frames(manifest):
                values, _ = hog_descriptor(frame.pixels, hog_config)
                writer.append(values)
    finally:
        _vote_table.cache_clear()


def pca_fit_rows(data, fit_on):
    """Rows the PCA is fitted on: the train split (``"train"``) or every frame."""
    return data.train_rows if fit_on == "train" else np.arange(data.targets.shape[0])


def pca_stage(hog_path, rows, n_components, model_path, features_path):
    """Fit PCA on rows ``rows`` of the HOG cache at ``hog_path``, an
    ascending index array, write the features of every row, in stream order,
    to the feature cache at ``features_path`` and then the model to
    ``model_path``; returns the saved model.  A stage that fails before the
    features are whole thus leaves neither file.

    The fit reads its rows from disk straight into its one float64 array.
    :func:`project` writes the features on both routes.  On the Gram route
    it is given the fit rows and their scores, which agree with a projection
    to rounding (1 float32 ulp at most in the tests and at desk scale), and
    reads and projects only the other rows; the scores are rebound to
    float32 first, so the float64 ones are freed before the write.  On the
    covariance route there are no scores and every row is projected.
    """
    model, scores = fit_pca(CacheRows(hog_path, rows), n_components)
    if scores is None:  # the covariance route
        rows = scores = ()
    else:
        scores = scores.astype(np.float32)  # as the feature cache stores them
    project(model, hog_path, features_path, rows, scores)
    save_pca_model(model, model_path)
    return model


def project(model, hog_path, path, rows=(), scores=()):
    """Write the PCA features of every row of the HOG cache at ``hog_path``
    to a feature cache, in stream order; returns the row count.  The one
    writer of a feature cache, for :func:`pca_stage` and CLI ``pca transform``.

    Rows ``rows``, strictly ascending (else ValueError), take their float32
    ``scores`` and are not read; the others are read, a chunk at a time
    (:func:`~photonrc.cache.row_chunks`), and projected, each before its
    block of stream rows is made, so that the block never sits beside the
    projection's float64 copy of the chunk.  As the fit rows ascend, a
    block's fit rows take one slice of ``scores``, copied with no gather.
    """
    n_frames = read_cache_header(hog_path)[0]
    if np.any(np.diff(rows) <= 0):
        raise ValueError("the fitted rows must be strictly ascending")
    fitted = np.zeros(n_frames, dtype=bool)
    fitted[np.asarray(rows, dtype=np.intp)] = True
    scores = np.reshape(scores, (len(rows), model.n_components))  # () too, as 0 rows
    other = np.flatnonzero(~fitted)
    with CacheWriter(path, model.n_components) as writer:
        # with every row fitted, the one empty chunk writes every score
        for first, chunk in row_chunks(CacheRows(hog_path, other)):
            last = first + chunk.shape[0]
            start = int(other[first - 1]) + 1 if first else 0
            stop = int(other[last - 1]) + 1 if last < other.size else n_frames
            projected = transform(model, chunk)
            block = np.empty((stop - start, model.n_components), dtype=np.float32)
            # rows before ``start`` hold start - first fitted rows, before ``stop`` stop - last
            block[fitted[start:stop]] = scores[start - first : stop - last]
            block[~fitted[start:stop]] = projected
            writer.append(block)
            del projected, block  # neither sits beside the next chunk's projection
    return n_frames


def reservoir_spec(n_nodes, input_dim, params, seed):
    """The reservoir a run with global ``seed`` drives."""
    return ReservoirSpec(
        n_nodes=n_nodes,
        input_dim=input_dim,
        params=params,
        seed=derive_stream_seed(seed, "reservoir"),
    )


def reservoir_states(specs, inputs, spans=None, out=None):
    """Drive the reservoirs ``specs`` describe with ``inputs``, an array or a
    :class:`CacheRows`; returns their float32 detector readings, or with
    ``out`` set appends them to it a block at a time (:func:`run_reservoir`).

    The reservoirs step in lockstep as one block-diagonal reservoir
    (:func:`stack_matrices`): the result holds each spec's N columns side
    by side in spec order, each equal to that spec's own run.  ``spans``
    lists (sequence_id, start, stop, action) tuples whose starts reset the
    state; None runs one unbroken stream.  The readings are float32 as the
    state cache stores them, so an in-memory trial sees exactly the values
    a pipeline run reads back.
    """
    if spans is not None:
        spans = [(start, stop) for _, start, stop, _ in spans]
    matrices = stack_matrices([spec.build() for spec in specs])
    return run_reservoir(matrices, inputs, spans=spans, out=out)


def drive_reservoir(spec, features_path, path, spans=None):
    """Write the readings of the reservoir ``spec`` describes, driven by the
    feature cache at ``features_path``, to a state cache; returns the row count.

    The features are read and the readings written a block at a time.
    ``spans`` is as for :func:`reservoir_states`.
    """
    features = CacheRows(features_path)
    with CacheWriter(path, spec.n_nodes) as writer:
        reservoir_states([spec], features, spans, out=writer)
    return features.shape[0]


def _train_set(states, data):
    """The train rows of ``states`` and their targets: a float32 gather of an
    array's, or a :class:`CacheRows` of a cache's, which reads none of them."""
    if data.train_rows.size == 0:
        raise SchemaError("manifest has no train-split sequences")
    return states[data.train_rows], data.targets[data.train_rows]


def readout_equations(states, data):
    """The normal equations of a readout on the train rows of ``states``."""
    return normal_equations(*_train_set(states, data))


def train_readout(states, data, ridge_lambda, normal=None):
    """Ridge-train the readout on the train rows of ``states``, an array or a
    :class:`CacheRows`.

    ``normal`` is :func:`readout_equations` of the same states, for a caller
    that trains several lambdas on them; its train rows are used as they are.
    """
    if normal is None:
        return train_ridge(*_train_set(states, data), ridge_lambda=ridge_lambda)
    return train_ridge(normal.states, normal.targets, ridge_lambda=ridge_lambda, normal=normal)


def evaluate_readout(model, states, data):
    """Score a readout on the test spans of ``states``, an array or a
    :class:`CacheRows` read a chunk at a time.

    Returns (sequence decisions, truths, confusion matrix, per-class NMSE
    over the test rows).
    """
    outputs = apply_readout(model, states)
    if not data.test_spans:
        raise SchemaError("manifest has no test-split sequences")
    decisions, truths = classify_stream(outputs, data.test_spans)
    per_class = nmse_per_output(outputs[data.test_rows], data.targets[data.test_rows])
    return decisions, truths, confusion(decisions, truths), per_class


def write_results(out_dir, decisions, truths, matrix):
    """Write the :data:`RESULT_FILES` to ``out_dir``; returns the score line."""
    path = {key: os.path.join(out_dir, name) for key, name in RESULT_FILES.items()}
    write_sequence_results(path["sequence_results"], decisions, truths)
    write_confusion(path["confusion"], matrix)
    line = score_line(matrix)
    with replaced(path["score"]) as fh:
        fh.write(line + "\n")
    return line


# ---------------------------------------------------------------------------
# The staged run

def run_pipeline(config):
    """Execute every stage; returns a :class:`PipelineReport`.

    Each stage names its artifacts through one closure, ``name``, which is
    also the one place that decides whether the stage is reused: under the
    "reuse" policy, only if each binary artifact it names is complete with
    the shape the stage expects (:func:`_is_complete`).  A reused stage
    reads no upstream cache.
    """
    out_dir = config.out_dir
    os.makedirs(out_dir, exist_ok=True)
    reuse = config.cache_policy == "reuse"
    readers = header_readers()
    artifacts = {}
    digests = {}

    def name(stage, payload, *files):
        """Record ``stage``'s digest and artifact names; returns the artifact
        paths and whether the stage is reused.

        ``files`` are (artifact key, name pattern, *shape) entries, and ``{}``
        in a pattern stands for the digest of ``payload``.  The stage is
        reused under the "reuse" policy only, and only if each artifact
        given a shape is complete with it (:func:`_is_complete`); the checks
        stop at the first that fails.
        """
        digests[stage] = digest = _digest({"stage": stage, **payload})
        paths = []
        reused = reuse
        for key, pattern, *shape in files:
            artifacts[key] = pattern.format(digest)
            paths.append(os.path.join(out_dir, artifacts[key]))
            reused = reused and (not shape or _is_complete(paths[-1], readers[key], *shape))
        return paths, reused

    with _stage("dataset"):
        manifest = load_manifest(config.manifest_path)
        if not manifest.sequences:
            raise SchemaError(f"{config.manifest_path}: manifest lists no sequences")
        data = prepare_data(manifest, None)
        n_frames = data.targets.shape[0]
        manifest_hash = file_sha256(config.manifest_path)
        hog_layout = descriptor_layout(manifest.resolution, config.hog_config)
        feature_dim = feature_count(manifest.resolution, config.hog_config)

    write_json(os.path.join(out_dir, CONFIG_FILE), config.as_dict())

    # each stage reads its upstream cache only when it recomputes
    with _stage("hog"):
        (hog_path,), reused = name(
            "hog",
            {"manifest": manifest_hash, "config": config.as_dict()["hog"]},
            ("hog", "hog_{}.rcf", n_frames, feature_dim),
        )
        if not reused:
            extract_hog(manifest, hog_path, config.hog_config)

    with _stage("pca"):
        (model_path, features_path), reused = name(
            "pca",
            {
                "upstream": digests["hog"],
                "components": config.pca_components,
                "fit_on": config.pca_fit_on,
            },
            ("pca_model", "pca_{}.bin", config.pca_components, feature_dim),
            ("features", "features_{}.rcf", n_frames, config.pca_components),
        )
        if not reused:
            rows = pca_fit_rows(data, config.pca_fit_on)
            pca_stage(hog_path, rows, config.pca_components, model_path, features_path)

    with _stage("reservoir"):
        spec = reservoir_spec(config.n_nodes, config.pca_components, config.params, config.seed)
        (spec_path, states_path), reused = name(
            "reservoir",
            {
                "upstream": digests["pca"],
                "n_nodes": config.n_nodes,
                "hyperparameters": config.params.as_dict(),
                "seed": spec.seed,
                "reset_per_sequence": config.reset_per_sequence,
                # what the state cache holds; no payload of a run that
                # stored phases has this key
                "states": "readings",
            },
            ("reservoir_spec", "reservoir_{}.json"),
            ("states", "states_{}.rcf", n_frames, config.n_nodes),
        )
        save_reservoir_spec(spec, spec_path)
        if not reused:
            spans = data.all_spans if config.reset_per_sequence else None
            drive_reservoir(spec, features_path, states_path, spans)
        # read a chunk at a time by the train and evaluate stages
        states = CacheRows(states_path)

    with _stage("train"):
        (readout_path,), reused = name(
            "train",
            {"upstream": digests["reservoir"], "ridge_lambda": config.ridge_lambda},
            ("readout_model", "readout_{}.bin", N_CLASSES, config.n_nodes),
        )
        if not reused:
            trained = train_readout(states, data, config.ridge_lambda)
            save_readout_model(trained, readout_path)
        model = load_readout_model(readout_path)

    with _stage("evaluate"):
        decisions, truths, matrix, per_class = evaluate_readout(model, states, data)
        write_results(out_dir, decisions, truths, matrix)
        artifacts.update(RESULT_FILES)

    report = PipelineReport(
        score=matrix.score,
        confusion_matrix=matrix,
        nmse_per_class=per_class,
        resolved_lambda=model.ridge_lambda,
        artifacts=artifacts,
        digests=digests,
        out_dir=out_dir,
    )
    summary = {
        "stages": list(STAGES),
        "artifacts": artifacts,
        "digests": digests,
        "dimensions": {
            "frames": n_frames,
            "hog_features": feature_dim,
            "hog_layout": list(hog_layout),
            "pca_components": config.pca_components,
            "n_nodes": config.n_nodes,
        },
        "resolved_lambda": model.ridge_lambda,
        "score": matrix.score,
        "populated_classes": matrix.populated_rows,
    }
    write_json(os.path.join(out_dir, PIPELINE_FILE), summary)
    return report


def _check_summary(summary):
    """Return ``summary``; SchemaError unless each field describe reads has its
    JSON type (:func:`json_typed`)."""
    json_typed(summary.get("dimensions", {}), dict, "dimensions")
    json_typed(summary.get("digests", {}), dict, "digests")
    for name, filename in json_typed(summary.get("artifacts", {}), dict, "artifacts").items():
        json_typed(filename, str, f"artifacts.{name}")
    for stage in json_typed(summary.get("stages", []), list, "stages"):
        json_typed(stage, str, "stages")
    json_typed(summary.get("score", 0.0), float, "score")
    return summary


def describe_artifacts(out_dir):
    """Human-readable summary of a pipeline (or grid-search) directory."""
    summary_path = os.path.join(out_dir, PIPELINE_FILE)
    grid_log = os.path.join(out_dir, "grid_log.csv")
    trials = None
    if os.path.isfile(grid_log):
        from .tuning import logged_trials  # tuning imports this module
        trials = len(logged_trials(grid_log))
    if not os.path.isfile(summary_path):
        if trials is not None:
            return f"grid-search directory: {trials} trials logged in grid_log.csv"
        raise NotAPipelineDirError(f"{out_dir}: no {PIPELINE_FILE} found")
    summary = read_json(summary_path, _check_summary)

    lines = [f"pipeline run in {out_dir}"]
    dims = summary.get("dimensions", {})
    lines.append(
        "  dimensions: {frames} frames, {hog} HOG features, "
        "{k} components, {n} nodes".format(
            frames=dims.get("frames", "?"),
            hog=dims.get("hog_features", "?"),
            k=dims.get("pca_components", "?"),
            n=dims.get("n_nodes", "?"),
        )
    )
    lines.append(f"  stages: {', '.join(summary.get('stages', []))}")
    readers = header_readers()
    for name, filename in sorted(summary.get("artifacts", {}).items()):
        path = os.path.join(out_dir, filename)
        note = "missing"
        if os.path.isfile(path):
            note = f"{os.path.getsize(path)} bytes"
            if name in readers:
                try:
                    rows, dim = readers[name](path)[:2]
                    note += f", {rows} x {dim}"
                except ParseError as exc:
                    note += f", INTEGRITY WARNING: {exc}"
        lines.append(f"  {name}: {filename} ({note})")
    for stage, digest in sorted(summary.get("digests", {}).items()):
        lines.append(f"  digest[{stage}] = {digest}")
    if "score" in summary:
        lines.append(
            f"  score: {summary['score']:.6g} "
            f"({summary.get('populated_classes', '?')} classes populated)"
        )
    if trials is not None:
        lines.append(f"  grid search: {trials} trials logged")
    return "\n".join(lines)
