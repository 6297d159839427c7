"""End-to-end orchestration: frames to HOG to PCA to reservoir to score.

The stage bodies are written once here, as plain functions on arrays and
paths: :func:`extract_hog`, :func:`pca_stage`, :func:`drive_reservoir`,
:func:`train_set`, :func:`evaluate_readout` and :func:`write_results`.
:func:`run_pipeline`, the CLI stage commands and the grid trials all call
them, and train the readout with :func:`~photonrc.readout.train_ridge` on
the rows and targets :func:`train_set` picks.  Each reads its rows'
bookkeeping from one :class:`~photonrc.dataset.FrameIndex`, which
:func:`prepare_data` binds to a cache of per-frame rows; the readout's
one-hot targets are encoded from its per-row actions where a stage needs
them.  :func:`evaluate_readout` returns the test spans' vote matrix
(:func:`~photonrc.classify.classify_stream`), its confusion matrix
against the spans' actions and the per-class NMSE; :func:`write_results`
reads each sequence's id and truth from its span.

A pipeline run materializes one artifact per stage under its output
directory.  Artifact names are content-addressed: each stage's file name
carries a short digest of everything that influences its bytes (manifest
content hash, upstream digests, stage parameters), so reruns and grid
trials reuse whatever already matches and never reuse anything stale.
With the default "reuse" cache policy a warm rerun reproduces the cold
run's result files bit for bit; "rebuild" recomputes every stage.  A
binary artifact, the readout included, is reused only if it is a
container of the current version (:mod:`photonrc.cache`) with the expected
shape and exactly the size its header announces (one rule,
:func:`_is_complete`); otherwise it is recomputed.  A stage reads its
upstream cache only when it recomputes.

The PCA stage never holds the whole HOG cache.  It reads each row that is
not a fit row once, and the fit rows once on the covariance route and twice
on the Gram route (fewer fit rows than HOG features, as at desk scale).  The
fit reads its rows through :class:`~photonrc.cache.CacheRows` into one
float64 array, which it centres in place and frees once the Gram matrix is
formed; after the eigensolve it reads and centres them again, and the
components overwrite them (see :mod:`photonrc.pca`).  On the Gram route the
fit rows' features are the scores the fit returns, taken from the Gram's
eigenvectors (the snapshot method); only the other rows are projected.  On
the covariance route every row is projected.  :func:`project` writes the
features on both routes.  At its peak the stage holds the fit rows in
float64, their float64 scores and one block's product of the components;
the eigensolve holds the Gram matrix, which its eigenvectors overwrite, and
LAPACK's workspace, and no fit row.  The write holds the model, the float32
scores and one block of 128 rows: its float32 read, its float64 projection,
and either its rows centred in float64 or one run's float32 features.

Each stage that streams rows walks them with one
:func:`~photonrc.cache.row_chunks` loop, reading a cache's rows in the
block it computes on: the projection in 128-row blocks, the reservoir in
:data:`~photonrc.reservoir.DRIVE_ROWS` drive blocks, the readout in
``cache.CHUNK_ROWS`` chunks.  No stage after PCA holds more than one Gram
and one chunk of rows.  The reservoir stage reads the feature cache and
writes the readings one drive block at a time, through
:func:`~photonrc.reservoir.run_reservoir`, the one call that runs a
reservoir, which a grid stack shares.  The train and evaluate stages read the
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
    _TEMPORARY, CacheRows, CacheWriter, json_typed, read_cache_header, read_json, replaced,
    row_chunks, write_json,
)
from .hog import (
    DEFAULT_CONFIG,
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
from .dataset import index_frames, load_manifest, stream_frames, validation_index
from .errors import (
    FAILURES, NotAPipelineDirError, ParseError, PipelineStageError, SchemaError,
)
from .pca import fit_pca, gram_route, save_pca_model, transform
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
# the grid search's checkpoint log in its output directory, which describe reads
GRID_LOG = "grid_log.csv"


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
        """The config as config.json stores it, with the PRNG family and the
        HOG config every run extracts with, :data:`~photonrc.hog.DEFAULT_CONFIG`."""
        doc = asdict(self)
        doc.update(
            hog=asdict(DEFAULT_CONFIG), hyperparameters=doc.pop("params"), prng_family=PRNG_FAMILY
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


def prepare_data(manifest, features, validation_fraction=None, seed=0):
    """Bind a cache of per-frame rows to its manifest: the manifest's
    :class:`~photonrc.dataset.FrameIndex` with ``features`` set.

    ``manifest`` is a Manifest or a path; ``features`` is an array, a
    :class:`CacheRows`, or a cache path, bound as its CacheRows, whose row
    count must match the manifest's total frame count, or None to bind the
    manifest's rows without any values.  A cache is counted here, not read:
    its rows are read a chunk at a time by whichever stage uses them.

    With ``validation_fraction`` set, in (0, 1), a stratified validation
    subset is carved out of the train split
    (:func:`~photonrc.dataset.validation_index`) and trials score on it
    instead of the test split, which then stays untouched for the final model.
    """
    if validation_fraction is not None and not 0.0 < validation_fraction < 1.0:  # nan too
        raise ValueError(
            f"validation_fraction must lie in the open interval (0, 1), got {validation_fraction}"
        )
    if isinstance(manifest, (str, os.PathLike)):
        manifest = load_manifest(manifest)
    if isinstance(features, (str, os.PathLike)):
        features = CacheRows(features)
    if validation_fraction is None:
        index = index_frames(manifest)
    else:
        index = validation_index(
            manifest, validation_fraction, derive_stream_seed(seed, "validation")
        )
    if features is not None:
        if not isinstance(features, CacheRows):
            features = np.asarray(features, dtype=np.float32)
        if features.shape[0] != index.total_frames:
            raise SchemaError(
                f"feature cache has {features.shape[0]} rows, "
                f"manifest counts {index.total_frames} frames"
            )
    return replace(index, features=features)


@contextlib.contextmanager
def _stage(name):
    try:
        yield
    except PipelineStageError:
        raise
    except FAILURES as exc:
        raise PipelineStageError(name, exc) from exc


def _is_complete(path, *shape):
    """The reuse rule for every binary artifact: :func:`read_cache_header`
    gives its shape and accepts only an exact-size file of this version."""
    try:
        return read_cache_header(path)[:2] == shape
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
            for pixels in stream_frames(manifest):
                values, _ = hog_descriptor(pixels, hog_config)
                writer.append(values)
    finally:
        _vote_table.cache_clear()


def pca_fit_rows(data, fit_on):
    """Rows the PCA is fitted on: the train split (``"train"``) or every frame."""
    return data.train_rows if fit_on == "train" else np.arange(data.total_frames)


def pca_stage(hog_path, rows, n_components, model_path, features_path):
    """Fit PCA on rows ``rows`` of the HOG cache at ``hog_path``, an
    ascending index array, write the features of every row, in stream order,
    to the feature cache at ``features_path`` and then the model to
    ``model_path``; returns the saved model.  A stage that fails before the
    features are whole thus leaves neither file.

    The fit reads its rows from disk into its one float64 array, twice on
    the Gram route: once for the Gram matrix and once, after the eigensolve,
    for the components.  :func:`project` writes the features on both routes.
    On the Gram route it is given the fit rows and their scores, which agree
    with a projection to rounding (1 float32 ulp at most in the tests and at
    desk scale), and reads and projects only the other rows; the scores are
    rebound to float32 first, so the float64 ones are freed before the
    write.  On the covariance route there are no scores and every row is
    projected.
    """
    model, scores = fit_pca(CacheRows(hog_path, rows), n_components)
    if scores is None:  # the covariance route
        rows = scores = ()
    else:
        scores = scores.astype(np.float32)  # as the feature cache stores them
    project(model, hog_path, features_path, rows, scores)
    save_pca_model(model, model_path)
    return model


# rows per block of a projection, a short last block joined to the one before.
# Projecting 895 desk-scale HOG rows onto 2,000 components, blocks of 64, 128,
# 256 and 1,024 rows gave the bytes of one product, and 128-row blocks took
# 0.30 s against its 0.29 s (medians of 7, 2 BLAS threads).  A 128-row block
# centred in float64 is 9.8 MB, where a 1,024-row chunk's is 78 MB
_PROJECT_ROWS = 128


def project(model, hog_path, path, rows=(), scores=()):
    """Write the PCA features of every row of the HOG cache at ``hog_path``
    to a feature cache, in stream order; returns the row count.  The one
    writer of a feature cache, for :func:`pca_stage` and CLI ``pca transform``.

    Rows ``rows``, strictly ascending (else ValueError), take their float32
    ``scores`` and are not read; the others are read and projected a block
    of :data:`_PROJECT_ROWS` at a time (:func:`~photonrc.cache.row_chunks`),
    each block by one :func:`~photonrc.pca.transform`, which gives the bytes
    of one product over every row.  Each run of fit rows goes to the writer
    as one slice of ``scores``, and each run of projected rows as a float32
    copy of its slice of the block's projection, so no block of stream rows
    is made.
    """
    n_frames = read_cache_header(hog_path)[0]
    if np.any(np.diff(rows) <= 0):
        raise ValueError("the fitted rows must be strictly ascending")
    fitted = np.zeros(n_frames, dtype=bool)
    fitted[np.asarray(rows, dtype=np.intp)] = True
    scores = np.reshape(scores, (len(rows), model.n_components))  # () too, as 0 rows
    other = np.flatnonzero(~fitted)
    written = 0  # fit rows written
    with CacheWriter(path, model.n_components) as writer:
        # with every row fitted, the one empty block writes every score
        for first, block in row_chunks(CacheRows(hog_path, other), _PROJECT_ROWS):
            last = first + block.shape[0]
            start = int(other[first - 1]) + 1 if first else 0
            stop = int(other[last - 1]) + 1 if last < other.size else n_frames
            projected = transform(model, block)
            at = 0  # the block's projected rows written
            cuts = (start + 1 + np.flatnonzero(np.diff(fitted[start:stop]))).tolist()
            for a, b in zip([start, *cuts], [*cuts, stop]):
                if fitted[a:b].any():  # a run holds fit rows only, or none
                    writer.append(scores[written : written + b - a])
                    written += b - a
                else:
                    writer.append(projected[at : at + b - a])
                    at += b - a
            del block, projected  # not beside the next block's
    return n_frames


def reservoir_spec(n_nodes, input_dim, params, seed):
    """The reservoir a run with global ``seed`` drives."""
    return ReservoirSpec(
        n_nodes=n_nodes,
        input_dim=input_dim,
        params=params,
        seed=derive_stream_seed(seed, "reservoir"),
    )


def drive_reservoir(spec, features_path, path, spans):
    """Write the readings of the reservoir ``spec`` describes, driven by the
    feature cache at ``features_path``, to a state cache; returns the row count.

    The features are read and the readings written a drive block at a time
    (:func:`~photonrc.reservoir.run_reservoir`).  ``spans`` lists
    (sequence_id, start, stop, action) tuples whose starts reset the state;
    None runs one unbroken stream.
    """
    features = CacheRows(features_path)
    with CacheWriter(path, spec.n_nodes) as writer:
        run_reservoir(spec.build(), features, spans=spans, out=writer)
    return features.shape[0]


def train_set(states, data):
    """The readout's training data: the train rows of ``states`` and their
    one-hot targets, for :func:`~photonrc.readout.train_ridge`.  The rows are
    a float32 gather of an array's, or a :class:`CacheRows` of a cache's,
    which reads none of them."""
    if data.train_rows.size == 0:
        raise SchemaError("manifest has no train-split sequences")
    return states[data.train_rows], encode_targets(data.actions[data.train_rows])


def evaluate_readout(model, states, data):
    """Score a readout on the test spans of ``states``, an array or a
    :class:`CacheRows` read a chunk at a time.

    Returns (the (S, 6) vote matrix of the S test spans, the confusion
    matrix of its rows against the spans' actions, per-class NMSE over the
    test rows).
    """
    outputs = apply_readout(model, states)
    if not data.test_spans:
        raise SchemaError("manifest has no test-split sequences")
    votes = classify_stream(outputs, data.test_spans)
    per_class = nmse_per_output(
        outputs[data.test_rows], encode_targets(data.actions[data.test_rows])
    )
    return votes, confusion(votes, [action for *_, action in data.test_spans]), per_class


def write_results(out_dir, spans, votes, matrix):
    """Write the :data:`RESULT_FILES` of the vote matrix ``votes`` of
    ``spans`` and its confusion ``matrix`` to ``out_dir``; returns the score line."""
    path = {key: os.path.join(out_dir, name) for key, name in RESULT_FILES.items()}
    write_sequence_results(path["sequence_results"], spans, votes)
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
    reads no upstream cache.  The dataset stage refuses a run that the
    train, evaluate or PCA stage would refuse for its shape alone, the
    reservoir spec is saved once its reservoir is built, and ``config.json``
    is written with ``pipeline.json``, so a failed run leaves both as they
    were.
    """
    out_dir = config.out_dir
    os.makedirs(out_dir, exist_ok=True)
    reuse = config.cache_policy == "reuse"
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
            reused = reused and (not shape or _is_complete(paths[-1], *shape))
        return paths, reused

    with _stage("dataset"):
        manifest = load_manifest(config.manifest_path)
        data = prepare_data(manifest, None)
        n_frames = data.total_frames
        manifest_hash = file_sha256(config.manifest_path)
        hog_layout = descriptor_layout(manifest.resolution)
        feature_dim = feature_count(manifest.resolution)
        # what the train, evaluate and PCA stages would refuse, refused before HOG
        if data.train_rows.size == 0:
            raise SchemaError(f"{config.manifest_path}: manifest has no train-split sequences")
        if not data.test_spans:
            raise SchemaError(f"{config.manifest_path}: manifest has no test-split sequences")
        for sequence_id, start, stop, _ in data.test_spans:
            if start == stop:
                raise SchemaError(
                    f"{config.manifest_path}: test-split sequence {sequence_id!r} has no frames"
                )
        fit_rows = pca_fit_rows(data, config.pca_fit_on)
        gram_route((fit_rows.size, feature_dim), config.pca_components)

    # each stage reads its upstream cache only when it recomputes
    with _stage("hog"):
        (hog_path,), reused = name(
            "hog",
            {"manifest": manifest_hash, "config": config.as_dict()["hog"]},
            ("hog", "hog_{}.rcf", n_frames, feature_dim),
        )
        if not reused:
            extract_hog(manifest, hog_path)

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
            pca_stage(hog_path, fit_rows, config.pca_components, model_path, features_path)

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
        if not reused:
            spans = data.all_spans if config.reset_per_sequence else None
            drive_reservoir(spec, features_path, states_path, spans)
        save_reservoir_spec(spec, spec_path)  # once the reservoir it describes is built
        # read a chunk at a time by the train and evaluate stages
        states = CacheRows(states_path)

    with _stage("train"):
        (readout_path,), reused = name(
            "train",
            {"upstream": digests["reservoir"], "ridge_lambda": config.ridge_lambda},
            ("readout_model", "readout_{}.bin", N_CLASSES, config.n_nodes),
        )
        if not reused:
            trained = train_ridge(*train_set(states, data), ridge_lambda=config.ridge_lambda)
            save_readout_model(trained, readout_path)
        model = load_readout_model(readout_path)

    with _stage("evaluate"):
        votes, matrix, per_class = evaluate_readout(model, states, data)
        write_results(out_dir, data.test_spans, votes, matrix)
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
    # beside the record of the run it configures, so no config.json names a failed run
    write_json(os.path.join(out_dir, CONFIG_FILE), config.as_dict())
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
    grid_log = os.path.join(out_dir, GRID_LOG)
    trials = None
    if os.path.isfile(grid_log):
        from .tuning import logged_trials  # tuning imports this module
        trials = len(logged_trials(grid_log))
    if not os.path.isfile(summary_path):
        if trials is not None:
            lines = [f"grid-search directory: {trials} trials logged in {GRID_LOG}"]
            return "\n".join(lines + _temporaries(out_dir))
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
    for name, filename in sorted(summary.get("artifacts", {}).items()):
        path = os.path.join(out_dir, filename)
        note = "missing"
        if os.path.isfile(path):
            note = f"{os.path.getsize(path)} bytes"
            if filename.endswith((".rcf", ".bin")):  # a container (photonrc.cache)
                try:
                    rows, dim, _ = read_cache_header(path)
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
    return "\n".join(lines + _temporaries(out_dir))


def _temporaries(out_dir):
    """A line for each temporary file of :func:`~photonrc.cache.replaced` in
    ``out_dir``, with its size: a write still running, or one a killed
    process left.  None is removed."""
    return [
        f"  temporary file: {name} ({os.path.getsize(os.path.join(out_dir, name))} bytes)"
        for name in sorted(os.listdir(out_dir))
        if _TEMPORARY.fullmatch(name)
    ]
