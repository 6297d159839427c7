"""End-to-end orchestration: frames to HOG to PCA to reservoir to score.

The stage bodies are written once here, as plain functions on arrays and
paths: :func:`extract_hog`, :func:`fit_pca_model`, :func:`project`,
:func:`reservoir_states`, :func:`train_readout`, :func:`evaluate_readout`
and :func:`write_results`.  :func:`run_pipeline`, the CLI stage commands
and the grid trials all call them, and :func:`prepare_data` binds a cache
of per-frame rows to its manifest's splits for every one of them.

A pipeline run materializes one artifact per stage under its output
directory.  Artifact names are content-addressed: each stage's file name
carries a short digest of everything that influences its bytes (manifest
content hash, upstream digests, stage parameters), so reruns and grid
trials reuse whatever already matches and never reuse anything stale.
With the default "reuse" cache policy a warm rerun reproduces the cold
run's result files bit for bit; "rebuild" recomputes every stage.  A
cache file shorter than its header announces, or a readout file that
does not parse, counts as a miss and is recomputed.

Every numeric handoff between stages round-trips through a float32 cache
file, and downstream stages consume the file's values rather than the
in-memory originals; this is what makes warm and cold runs byte-identical.

Stage failures surface as :class:`PipelineStageError` naming the stage and
carrying the root cause.
"""

import contextlib
import hashlib
import json
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from .cache import CacheWriter, data_offset, read_cache, read_cache_header
from .hog import DEFAULT_CONFIG, HogConfig, descriptor_layout, feature_count, hog_descriptor
from .classify import (
    classify_stream,
    confusion,
    score_line,
    write_confusion,
    write_sequence_results,
)
from .dataset import Split, index_frames, load_manifest, make_split, stream_frames
from .errors import NotAPipelineDirError, ParseError, PhotonRcError, PipelineStageError, SchemaError
from .pca import fit_pca, load_pca_model, save_pca_model, transform
from .readout import (
    TRANSFORM_NONLINEAR_PHASE,
    TRANSFORM_RAW,
    apply_readout,
    encode_targets,
    load_readout_model,
    nmse_per_output,
    save_readout_model,
    train_ridge,
)
from .reservoir import (
    PRNG_FAMILY,
    HyperParams,
    ReservoirSpec,
    run_reservoir,
    save_reservoir_spec,
)

PIPELINE_FILE = "pipeline.json"
CONFIG_FILE = "config.json"

STAGES = ("dataset", "hog", "pca", "reservoir", "train", "evaluate")


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
    variant: str = "intensity"
    params: HyperParams = field(
        default_factory=lambda: HyperParams(
            feedback_gain=0.8, input_gain=0.01, coupling_gain=0.1, coupling_density=0.01
        )
    )
    ridge_lambda: float | None = None  # None picks the scale-adaptive default
    seed: int = 0
    cache_policy: str = "reuse"  # "reuse" | "rebuild"
    # sequences are concatenated into one stream; resetting at sequence
    # starts is an ablation, not the default
    reset_per_sequence: bool = False
    pca_fit_on: str = "train"  # "train" | "all"

    def __post_init__(self):
        if self.cache_policy not in ("reuse", "rebuild"):
            raise ValueError(f"unknown cache policy {self.cache_policy!r}")
        if self.pca_fit_on not in ("train", "all"):
            raise ValueError(f"pca_fit_on must be 'train' or 'all', got {self.pca_fit_on!r}")

    def as_dict(self):
        return {
            "manifest_path": self.manifest_path,
            "out_dir": self.out_dir,
            "hog": asdict(self.hog_config),
            "pca_components": self.pca_components,
            "n_nodes": self.n_nodes,
            "variant": self.variant,
            "hyperparameters": self.params.as_dict(),
            "ridge_lambda": self.ridge_lambda,
            "seed": self.seed,
            "cache_policy": self.cache_policy,
            "reset_per_sequence": self.reset_per_sequence,
            "pca_fit_on": self.pca_fit_on,
            "prng_family": PRNG_FAMILY,
        }


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

    features: np.ndarray  # (T, K) float32, the cache contents
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

    ``manifest`` is a Manifest or a path; ``features`` is an array or a
    cache path.  Row counts must match the manifest's total frame count.

    With ``validation_fraction`` set, a stratified validation subset is
    carved out of the train split and trials score on it instead of the
    test split, which then stays untouched for the final model.
    """
    if isinstance(manifest, (str, os.PathLike)):
        manifest = load_manifest(manifest)
    if isinstance(features, (str, os.PathLike)):
        features, _ = read_cache(features)
    features = np.asarray(features, dtype=np.float32)
    index = index_frames(manifest)
    if features.shape[0] != index.total_frames:
        raise SchemaError(
            f"feature cache has {features.shape[0]} rows, "
            f"manifest counts {index.total_frames} frames"
        )
    encoding = encode_targets(index.frame_actions())

    if validation_fraction is None:
        train_rows = index.rows_for(Split.TRAIN)
        test_rows = index.rows_for(Split.TEST)
        test_spans = tuple(index.spans_for(Split.TEST))
    else:
        train_seqs = [s for s in manifest.sequences if s.split is Split.TRAIN]
        relabeled = make_split(
            train_seqs,
            1.0 - validation_fraction,
            derive_stream_seed(seed, "validation"),
        )
        # TEST after relabeling = validation; the real test split is untouched
        role = {s.sequence_id: s.split for s in relabeled}
        train_chunks, eval_chunks, eval_spans = [], [], []
        for seq_id, start, stop, action in index.spans_for():
            if role.get(seq_id) is Split.TRAIN:
                train_chunks.append(np.arange(start, stop))
            elif role.get(seq_id) is Split.TEST:
                eval_chunks.append(np.arange(start, stop))
                eval_spans.append((seq_id, start, stop, action))
        train_rows = np.concatenate(train_chunks) if train_chunks else np.empty(0, np.intp)
        test_rows = np.concatenate(eval_chunks) if eval_chunks else np.empty(0, np.intp)
        test_spans = tuple(eval_spans)

    return PreparedData(
        features=features,
        targets=encoding.targets,
        train_rows=train_rows,
        test_rows=test_rows,
        all_spans=tuple(index.spans_for()),
        test_spans=test_spans,
    )


@contextlib.contextmanager
def _stage(name):
    try:
        yield
    except PipelineStageError:
        raise
    except (PhotonRcError, OSError, OverflowError, ValueError) as exc:
        raise PipelineStageError(name, exc) from exc


def _cache_is_valid(path, expected_rows, expected_dim):
    if not os.path.isfile(path):
        return False
    try:
        rows, dim, layout = read_cache_header(path)
    except PhotonRcError:
        return False
    # a file cut short after a valid header is a miss, not a reusable cache
    size = data_offset(layout) + 4 * rows * dim
    return (rows, dim) == (expected_rows, expected_dim) and os.path.getsize(path) == size


def feature_transform_for(variant):
    """Phase-variant states are read through the intensity response."""
    return TRANSFORM_NONLINEAR_PHASE if variant == "phase" else TRANSFORM_RAW


# ---------------------------------------------------------------------------
# Stage bodies

def extract_hog(manifest, path, hog_config=DEFAULT_CONFIG):
    """Write the HOG descriptor of every frame in the manifest's stream to a cache."""
    layout = descriptor_layout(manifest.resolution, hog_config)
    dim = feature_count(manifest.resolution, hog_config)
    with CacheWriter(path, dim, layout=layout) as writer:
        for frame in stream_frames(manifest):
            values, _ = hog_descriptor(frame.pixels, hog_config)
            writer.append(values)


def pca_fit_rows(data, fit_on):
    """Rows the PCA is fitted on: the train split (``"train"``) or every frame."""
    return data.train_rows if fit_on == "train" else np.arange(data.features.shape[0])


def fit_pca_model(values, rows, n_components, path):
    """Fit PCA on ``values[rows]``, save it, and return the model read back from ``path``."""
    save_pca_model(fit_pca(values[rows], n_components), path)
    return load_pca_model(path)


def project(model, values, path):
    """Write the PCA projection of ``values`` to a feature cache."""
    with CacheWriter(path, model.n_components) as writer:
        writer.append(transform(model, values))


def reservoir_spec(n_nodes, input_dim, variant, params, seed):
    """The reservoir a run with global ``seed`` drives."""
    return ReservoirSpec(
        n_nodes=n_nodes,
        input_dim=input_dim,
        variant=variant,
        params=params,
        seed=derive_stream_seed(seed, "reservoir"),
    )


def reservoir_states(spec, inputs, spans=None):
    """Drive the reservoir ``spec`` describes with ``inputs``; returns float32 states.

    ``spans`` lists (sequence_id, start, stop, action) tuples whose starts
    reset the state; None runs one unbroken stream.  The states are rounded
    to float32 as the state cache stores them, so an in-memory trial sees
    exactly the values a pipeline run reads back.
    """
    if spans is not None:
        spans = [(start, stop) for _, start, stop, _ in spans]
    states = run_reservoir(spec.build(), inputs, variant=spec.variant, spans=spans)
    return states.astype(np.float32)


def train_readout(states, data, ridge_lambda, variant):
    """Ridge-train the readout on the train rows of ``states``."""
    if data.train_rows.size == 0:
        raise SchemaError("manifest has no train-split sequences")
    return train_ridge(
        states[data.train_rows],
        data.targets[data.train_rows],
        ridge_lambda=ridge_lambda,
        feature_transform=feature_transform_for(variant),
    )


def evaluate_readout(model, states, data):
    """Score a readout on the test spans.

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
    """Write sequence_results.csv, confusion.csv and score.txt; returns the score line."""
    write_sequence_results(os.path.join(out_dir, "sequence_results.csv"), decisions, truths)
    write_confusion(os.path.join(out_dir, "confusion.csv"), matrix)
    line = score_line(matrix)
    with open(os.path.join(out_dir, "score.txt"), "w", encoding="utf-8") as fh:
        fh.write(line + "\n")
    return line


# ---------------------------------------------------------------------------
# The staged run

def run_pipeline(config):
    """Execute every stage; returns a :class:`PipelineReport`."""
    out_dir = config.out_dir
    os.makedirs(out_dir, exist_ok=True)
    reuse = config.cache_policy == "reuse"
    artifacts = {}
    digests = {}

    with _stage("dataset"):
        manifest = load_manifest(config.manifest_path)
        if not manifest.sequences:
            raise SchemaError(f"{config.manifest_path}: manifest lists no sequences")
        n_frames = index_frames(manifest).total_frames
        manifest_hash = file_sha256(config.manifest_path)
        feature_dim = feature_count(manifest.resolution, config.hog_config)

    with open(os.path.join(out_dir, CONFIG_FILE), "w", encoding="utf-8") as fh:
        json.dump(config.as_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")

    with _stage("hog"):
        hog_digest = _digest(
            {"stage": "hog", "manifest": manifest_hash, "config": config.as_dict()["hog"]}
        )
        hog_name = f"hog_{hog_digest}.rcf"
        hog_path = os.path.join(out_dir, hog_name)
        if not (reuse and _cache_is_valid(hog_path, n_frames, feature_dim)):
            extract_hog(manifest, hog_path, config.hog_config)
        hog_values, hog_layout = read_cache(hog_path)
        data = prepare_data(manifest, hog_values)
        artifacts["hog"] = hog_name
        digests["hog"] = hog_digest

    with _stage("pca"):
        pca_digest = _digest(
            {
                "stage": "pca",
                "upstream": hog_digest,
                "components": config.pca_components,
                "fit_on": config.pca_fit_on,
            }
        )
        model_name = f"pca_{pca_digest}.bin"
        proj_name = f"features_{pca_digest}.rcf"
        model_path = os.path.join(out_dir, model_name)
        proj_path = os.path.join(out_dir, proj_name)
        have_model = reuse and os.path.isfile(model_path)
        if not (have_model and _cache_is_valid(proj_path, n_frames, config.pca_components)):
            rows = pca_fit_rows(data, config.pca_fit_on)
            pca_model = fit_pca_model(hog_values, rows, config.pca_components, model_path)
            project(pca_model, hog_values, proj_path)
        proj_values, _ = read_cache(proj_path)
        artifacts["pca_model"] = model_name
        artifacts["features"] = proj_name
        digests["pca"] = pca_digest

    with _stage("reservoir"):
        spec = reservoir_spec(
            config.n_nodes, config.pca_components, config.variant, config.params, config.seed
        )
        res_digest = _digest(
            {
                "stage": "reservoir",
                "upstream": pca_digest,
                "n_nodes": config.n_nodes,
                "variant": config.variant,
                "hyperparameters": config.params.as_dict(),
                "seed": spec.seed,
                "reset_per_sequence": config.reset_per_sequence,
            }
        )
        spec_name = f"reservoir_{res_digest}.json"
        states_name = f"states_{res_digest}.rcf"
        states_path = os.path.join(out_dir, states_name)
        save_reservoir_spec(spec, os.path.join(out_dir, spec_name))
        if not (reuse and _cache_is_valid(states_path, n_frames, config.n_nodes)):
            spans = data.all_spans if config.reset_per_sequence else None
            with CacheWriter(states_path, config.n_nodes) as writer:
                writer.append(reservoir_states(spec, proj_values, spans))
        state_values, _ = read_cache(states_path)
        artifacts["reservoir_spec"] = spec_name
        artifacts["states"] = states_name
        digests["reservoir"] = res_digest

    with _stage("train"):
        train_digest = _digest(
            {
                "stage": "train",
                "upstream": res_digest,
                "ridge_lambda": config.ridge_lambda,
            }
        )
        readout_name = f"readout_{train_digest}.bin"
        readout_path = os.path.join(out_dir, readout_name)
        model = None
        if reuse and os.path.isfile(readout_path):
            with contextlib.suppress(ParseError):  # a torn readout file is a miss
                model = load_readout_model(readout_path)
        if model is None:
            trained = train_readout(state_values, data, config.ridge_lambda, config.variant)
            save_readout_model(trained, readout_path)
            model = load_readout_model(readout_path)
        artifacts["readout_model"] = readout_name
        digests["train"] = train_digest

    with _stage("evaluate"):
        decisions, truths, matrix, per_class = evaluate_readout(model, state_values, data)
        write_results(out_dir, decisions, truths, matrix)
        artifacts["sequence_results"] = "sequence_results.csv"
        artifacts["confusion"] = "confusion.csv"
        artifacts["score"] = "score.txt"

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
    with open(os.path.join(out_dir, PIPELINE_FILE), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return report


def describe_artifacts(out_dir):
    """Human-readable summary of a pipeline (or grid-search) directory."""
    summary_path = os.path.join(out_dir, PIPELINE_FILE)
    grid_log = os.path.join(out_dir, "grid_log.csv")
    trials = None
    if os.path.isfile(grid_log):
        with open(grid_log, "r", encoding="utf-8") as fh:
            trials = max(0, sum(1 for _ in fh) - 1)
    if not os.path.isfile(summary_path):
        if trials is not None:
            return f"grid-search directory: {trials} trials logged in grid_log.csv"
        raise NotAPipelineDirError(f"{out_dir}: no {PIPELINE_FILE} found")
    with open(summary_path, "r", encoding="utf-8") as fh:
        summary = json.load(fh)

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
            if filename.endswith(".rcf"):
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
    return "\n".join(lines)
