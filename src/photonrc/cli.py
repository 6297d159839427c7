"""Command-line interface.

Subcommands mirror the pipeline stages (extract-hog, pca fit, reservoir
run, train, evaluate), plus pca transform, gridsearch, pipeline run, and
describe.  Each stage command calls the stage function of
:mod:`photonrc.pipeline` that ``pipeline run`` calls, so a chain of stage
commands writes the bytes a pipeline run with the same settings writes;
``pca fit`` writes the model and the features, as the PCA stage does.
``pca transform`` applies a saved model to any HOG cache.
Exit codes (:func:`~photonrc.errors.exit_code`): 0 ok, 1 usage, 2 data, 3 numerical.
"""

import argparse
import os
import sys
from dataclasses import fields

from .cache import CacheRows, read_cache_header
from .classify import score_line
from .dataset import load_manifest
from .errors import FAILURES, SchemaError, exit_code
from .hog import DEFAULT_CONFIG, HogConfig
from .pca import load_pca_model
from .pipeline import (
    CACHE_POLICIES,
    PCA_FIT_ON,
    PipelineConfig,
    describe_artifacts,
    drive_reservoir,
    evaluate_readout,
    extract_hog,
    pca_fit_rows,
    pca_stage,
    prepare_data,
    project,
    reservoir_spec,
    run_pipeline,
    train_readout,
    write_results,
)
from .readout import load_readout_model, save_readout_model
from .reservoir import HyperParams, load_reservoir_spec, save_reservoir_spec
from .tuning import best_trial, load_grid_spec, run_grid


_LABELS = {1: "usage error", 2: "data error", 3: "numerical error"}


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; a usage error here exits 1
    def error(self, message):
        raise ValueError(message)


def _add_hyperparam_flags(parser):
    for gain in fields(HyperParams):
        parser.add_argument("--" + gain.name.replace("_", "-"), type=float, default=gain.default)


def build_parser():
    parser = _Parser(prog="photonrc", description=__doc__)
    parser.add_argument("--seed", type=int, default=0, help="global random seed")
    parser.add_argument("--out-dir", default=".", help="directory for outputs")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract-hog", help="compute HOG descriptors into a feature cache")
    p.add_argument("--manifest", required=True)
    p.add_argument("--cell", type=int, default=DEFAULT_CONFIG.cell_size, help="cell size in pixels")
    p.add_argument(
        "--block", type=int, default=DEFAULT_CONFIG.block_size, help="block size in cells"
    )
    p.add_argument("--bins", type=int, default=DEFAULT_CONFIG.num_bins, help="orientation bins")
    p.add_argument("--out", default=None, help="cache file (default <out-dir>/hog.rcf)")
    p.set_defaults(func=cmd_extract_hog)

    pca_parser = sub.add_parser("pca", help="fit or apply the PCA compressor")
    pca_sub = pca_parser.add_subparsers(dest="pca_command", required=True)
    p = pca_sub.add_parser(
        "fit", help="fit a model; also writes every row's features to features.rcf beside it"
    )
    p.add_argument("--in", "--features", dest="features", required=True, help="HOG feature cache")
    p.add_argument("--manifest", required=True)
    p.add_argument(
        "--k", "--components", dest="components", type=int, default=PipelineConfig.pca_components
    )
    p.add_argument("--pca-fit-on", choices=PCA_FIT_ON, default=PipelineConfig.pca_fit_on)
    p.add_argument("--out", default=None, help="model file (default <out-dir>/pca.bin)")
    p.set_defaults(func=cmd_pca_fit)
    p = pca_sub.add_parser("transform", help="project a HOG cache with a saved model")
    p.add_argument("--model", required=True)
    p.add_argument("--in", "--features", dest="features", required=True)
    p.add_argument("--out", default=None, help="cache file (default <out-dir>/features.rcf)")
    p.set_defaults(func=cmd_pca_transform)

    res_parser = sub.add_parser("reservoir", help="drive the reservoir over a feature cache")
    res_sub = res_parser.add_subparsers(dest="reservoir_command", required=True)
    p = res_sub.add_parser("run")
    p.add_argument("--features", required=True, help="projected feature cache")
    p.add_argument("--spec", default=None, help="reservoir spec JSON (else flags below)")
    p.add_argument("--n-nodes", type=int, default=PipelineConfig.n_nodes)
    _add_hyperparam_flags(p)
    p.add_argument("--manifest", default=None, help="needed for per-sequence resets")
    p.add_argument(
        "--reset-per-sequence",
        action=argparse.BooleanOptionalAction,
        default=False,
        help="reset state at sequence starts instead of running one stream",
    )
    p.add_argument("--save-spec", default=None, help="also write the resolved spec JSON")
    p.add_argument("--out", default=None, help="state cache (default <out-dir>/states.rcf)")
    p.set_defaults(func=cmd_reservoir_run)

    p = sub.add_parser("train", help="train the linear readout on the train split")
    p.add_argument("--states", required=True, help="reservoir state cache")
    p.add_argument("--manifest", required=True)
    p.add_argument("--lambda", dest="ridge_lambda", type=float, default=None)
    p.add_argument("--out", default=None, help="model file (default <out-dir>/readout.bin)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score a readout on the test split")
    p.add_argument("--model", required=True)
    p.add_argument("--states", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", default=None, help="results directory (default <out-dir>)")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("gridsearch", help="exhaustive hyperparameter search")
    p.add_argument("--grid", required=True, help="grid spec JSON")
    p.add_argument("--manifest", required=True)
    p.add_argument("--features", required=True, help="projected feature cache")
    p.add_argument("--resume", action="store_true")
    p.add_argument("--log", default=None, help="checkpoint CSV (default <out-dir>/grid_log.csv)")
    p.add_argument(
        "--reset-per-sequence", action=argparse.BooleanOptionalAction, default=False
    )
    p.add_argument(
        "--validation-fraction",
        type=float,
        default=None,
        help="score trials on a slice carved from the train split instead of the test split",
    )
    p.set_defaults(func=cmd_gridsearch)

    pipe_parser = sub.add_parser("pipeline", help="run every stage end to end")
    pipe_sub = pipe_parser.add_subparsers(dest="pipeline_command", required=True)
    p = pipe_sub.add_parser("run")
    p.add_argument("--manifest", required=True)
    p.add_argument("--components", type=int, default=PipelineConfig.pca_components)
    p.add_argument("--n-nodes", type=int, default=PipelineConfig.n_nodes)
    _add_hyperparam_flags(p)
    p.add_argument("--lambda", dest="ridge_lambda", type=float, default=PipelineConfig.ridge_lambda)
    p.add_argument("--cache-policy", choices=CACHE_POLICIES, default=PipelineConfig.cache_policy)
    p.add_argument("--pca-fit-on", choices=PCA_FIT_ON, default=PipelineConfig.pca_fit_on)
    p.add_argument(
        "--reset-per-sequence",
        action=argparse.BooleanOptionalAction,
        default=PipelineConfig.reset_per_sequence,
    )
    p.set_defaults(func=cmd_pipeline_run)

    p = sub.add_parser("describe", help="summarize a pipeline output directory")
    p.add_argument("dir", nargs="?", default=None)
    p.set_defaults(func=cmd_describe)

    return parser


def _out_path(args, flag_value, default_name):
    if flag_value:
        parent = os.path.dirname(os.path.abspath(flag_value))
        os.makedirs(parent, exist_ok=True)
        return flag_value
    os.makedirs(args.out_dir, exist_ok=True)
    return os.path.join(args.out_dir, default_name)


def _hyperparams(args):
    return HyperParams(**{gain.name: getattr(args, gain.name) for gain in fields(HyperParams)})


def cmd_extract_hog(args):
    manifest = load_manifest(args.manifest)
    config = HogConfig(cell_size=args.cell, block_size=args.block, num_bins=args.bins)
    out = _out_path(args, args.out, "hog.rcf")
    extract_hog(manifest, out, config)
    count, dim, layout = read_cache_header(out)
    print(f"wrote {out}: {count} frames x {dim} features, layout {layout}")
    return 0


def cmd_pca_fit(args):
    data = prepare_data(args.manifest, CacheRows(args.features))
    rows = pca_fit_rows(data, args.pca_fit_on)
    out = _out_path(args, args.out, "pca.bin")
    features = os.path.join(os.path.dirname(out), "features.rcf")
    model = pca_stage(args.features, rows, args.components, out, features)
    print(
        f"wrote {out}: {model.n_components} components over {model.feature_dim} features, "
        f"explained variance {100 * model.explained_fraction():.2f}%"
    )
    print(f"wrote {features}: {data.targets.shape[0]} frames x {model.n_components} components")
    return 0


def cmd_pca_transform(args):
    model = load_pca_model(args.model)
    out = _out_path(args, args.out, "features.rcf")
    frames = project(model, args.features, out)
    print(f"wrote {out}: {frames} frames x {model.n_components} components")
    return 0


def cmd_reservoir_run(args):
    features = CacheRows(args.features)  # counted here, read by drive_reservoir
    dim = features.shape[1]
    if args.spec:
        spec = load_reservoir_spec(args.spec)
        if spec.input_dim != dim:
            raise SchemaError(f"spec expects {spec.input_dim}-wide inputs, cache has {dim}")
    else:
        spec = reservoir_spec(args.n_nodes, dim, _hyperparams(args), args.seed)
    spans = None
    if args.reset_per_sequence:
        if not args.manifest:
            raise ValueError("--reset-per-sequence requires --manifest")
        spans = prepare_data(args.manifest, features).all_spans
    if args.save_spec:
        os.makedirs(os.path.dirname(os.path.abspath(args.save_spec)), exist_ok=True)
        save_reservoir_spec(spec, args.save_spec)
    out = _out_path(args, args.out, "states.rcf")
    steps = drive_reservoir(spec, args.features, out, spans)
    print(f"wrote {out}: {steps} steps x {spec.n_nodes} nodes")
    return 0


def cmd_train(args):
    data = prepare_data(args.manifest, CacheRows(args.states))  # read a chunk at a time
    model = train_readout(data.features, data, args.ridge_lambda)
    out = _out_path(args, args.out, "readout.bin")
    save_readout_model(model, out)
    print(
        f"wrote {out}: {model.n_outputs} x {model.n_features} readout, "
        f"lambda {model.ridge_lambda:.6g}"
    )
    return 0


def cmd_evaluate(args):
    data = prepare_data(args.manifest, CacheRows(args.states))  # read a chunk at a time
    model = load_readout_model(args.model)
    decisions, truths, matrix, _ = evaluate_readout(model, data.features, data)
    out_dir = args.out or args.out_dir
    os.makedirs(out_dir, exist_ok=True)
    print(write_results(out_dir, decisions, truths, matrix))
    return 0


def cmd_gridsearch(args):
    spec = load_grid_spec(args.grid)
    data = prepare_data(
        args.manifest,
        args.features,
        validation_fraction=args.validation_fraction,
        seed=args.seed,
    )
    os.makedirs(args.out_dir, exist_ok=True)
    log_path = args.log or os.path.join(args.out_dir, "grid_log.csv")
    results = run_grid(
        spec,
        data,
        log_path=log_path,
        resume=args.resume,
        reset_per_sequence=args.reset_per_sequence,
    )
    ok = [r for r in results if r.status == "ok"]
    failed = len(results) - len(ok)
    print(f"{len(results)} trials ({failed} failed), log at {log_path}")
    best = best_trial(results)
    if best is not None:
        p = best.params
        lam = "auto" if best.ridge_lambda is None else f"{best.ridge_lambda:.6g}"
        print(
            f"best score {best.score:.6g}: feedback {p.feedback_gain:.6g}, "
            f"input {p.input_gain:.6g}, coupling {p.coupling_gain:.6g}, "
            f"density {p.coupling_density:.6g}, lambda {lam}, seed {best.seed}"
        )
    return 0


def cmd_pipeline_run(args):
    config = PipelineConfig(
        manifest_path=args.manifest,
        out_dir=args.out_dir,
        pca_components=args.components,
        n_nodes=args.n_nodes,
        params=_hyperparams(args),
        ridge_lambda=args.ridge_lambda,
        seed=args.seed,
        cache_policy=args.cache_policy,
        reset_per_sequence=args.reset_per_sequence,
        pca_fit_on=args.pca_fit_on,
    )
    report = run_pipeline(config)
    print(score_line(report.confusion_matrix))
    print(f"artifacts in {report.out_dir}")
    return 0


def cmd_describe(args):
    print(describe_artifacts(args.dir or args.out_dir))
    return 0


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except FAILURES as exc:
        code = exit_code(exc)
        print(f"{_LABELS[code]}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
