"""Command-line interface.

Subcommands mirror the pipeline stages (extract-hog, pca fit/transform,
reservoir run, train, evaluate), plus gridsearch, pipeline run, and
describe.  Each stage command calls the stage function of
:mod:`photonrc.pipeline` that ``pipeline run`` calls, so a chain of stage
commands writes the bytes a pipeline run with the same settings writes.
Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical error.
"""

import argparse
import os
import sys

from .cache import CacheWriter, read_cache, read_cache_header
from .classify import score_line
from .dataset import load_manifest
from .errors import DataError, NumericalError, PipelineStageError, SchemaError
from .hog import HogConfig
from .pca import load_pca_model
from .pipeline import (
    PipelineConfig,
    describe_artifacts,
    evaluate_readout,
    extract_hog,
    fit_pca_model,
    pca_fit_rows,
    prepare_data,
    project,
    reservoir_spec,
    reservoir_states,
    run_pipeline,
    train_readout,
    write_results,
)
from .readout import load_readout_model, save_readout_model
from .reservoir import HyperParams, load_reservoir_spec, save_reservoir_spec
from .tuning import best_trial, load_grid_spec, run_grid


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; the contract here is 1
    def error(self, message):
        raise _UsageError(message)


def _add_hyperparam_flags(parser):
    parser.add_argument("--feedback-gain", type=float, default=0.8)
    parser.add_argument("--input-gain", type=float, default=0.01)
    parser.add_argument("--coupling-gain", type=float, default=0.1)
    parser.add_argument("--coupling-density", type=float, default=0.01)


def build_parser():
    parser = _Parser(prog="photonrc", description=__doc__)
    parser.add_argument("--seed", type=int, default=0, help="global random seed")
    parser.add_argument("--threads", type=int, default=None, help="worker bound for gridsearch")
    parser.add_argument("--out-dir", default=".", help="directory for outputs")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract-hog", help="compute HOG descriptors into a feature cache")
    p.add_argument("--manifest", required=True)
    p.add_argument("--cell", type=int, default=8, help="cell size in pixels")
    p.add_argument("--block", type=int, default=2, help="block size in cells")
    p.add_argument("--bins", type=int, default=9, help="orientation bins")
    p.add_argument("--out", default=None, help="cache file (default <out-dir>/hog.rcf)")
    p.set_defaults(func=cmd_extract_hog)

    pca_parser = sub.add_parser("pca", help="fit or apply the PCA compressor")
    pca_sub = pca_parser.add_subparsers(dest="pca_command", required=True)
    p = pca_sub.add_parser("fit")
    p.add_argument("--in", "--features", dest="features", required=True, help="HOG feature cache")
    p.add_argument("--manifest", required=True)
    p.add_argument("--k", "--components", dest="components", type=int, default=2000)
    p.add_argument("--pca-fit-on", choices=["train", "all"], default="train")
    p.add_argument("--out", default=None, help="model file (default <out-dir>/pca.bin)")
    p.set_defaults(func=cmd_pca_fit)
    p = pca_sub.add_parser("transform")
    p.add_argument("--model", required=True)
    p.add_argument("--in", "--features", dest="features", required=True)
    p.add_argument("--out", default=None, help="cache file (default <out-dir>/features.rcf)")
    p.set_defaults(func=cmd_pca_transform)

    res_parser = sub.add_parser("reservoir", help="drive the reservoir over a feature cache")
    res_sub = res_parser.add_subparsers(dest="reservoir_command", required=True)
    p = res_sub.add_parser("run")
    p.add_argument("--features", required=True, help="projected feature cache")
    p.add_argument("--spec", default=None, help="reservoir spec JSON (else flags below)")
    p.add_argument("--n-nodes", type=int, default=1024)
    p.add_argument("--variant", choices=["intensity", "phase"], default="intensity")
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
    p.add_argument("--variant", choices=["intensity", "phase"], default="intensity")
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
    p.add_argument("--components", type=int, default=2000)
    p.add_argument("--n-nodes", type=int, default=1024)
    p.add_argument("--variant", choices=["intensity", "phase"], default="intensity")
    _add_hyperparam_flags(p)
    p.add_argument("--lambda", dest="ridge_lambda", type=float, default=None)
    p.add_argument("--cache-policy", choices=["reuse", "rebuild"], default="reuse")
    p.add_argument("--pca-fit-on", choices=["train", "all"], default="train")
    p.add_argument(
        "--reset-per-sequence", action=argparse.BooleanOptionalAction, default=False
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
    return HyperParams(
        feedback_gain=args.feedback_gain,
        input_gain=args.input_gain,
        coupling_gain=args.coupling_gain,
        coupling_density=args.coupling_density,
    )


def cmd_extract_hog(args):
    manifest = load_manifest(args.manifest)
    config = HogConfig(cell_size=args.cell, block_size=args.block, num_bins=args.bins)
    out = _out_path(args, args.out, "hog.rcf")
    extract_hog(manifest, out, config)
    count, dim, layout = read_cache_header(out)
    print(f"wrote {out}: {count} frames x {dim} features, layout {layout}")
    return 0


def cmd_pca_fit(args):
    data = prepare_data(args.manifest, args.features)
    rows = pca_fit_rows(data, args.pca_fit_on)
    out = _out_path(args, args.out, "pca.bin")
    model = fit_pca_model(data.features, rows, args.components, out)
    print(
        f"wrote {out}: {model.n_components} components over {model.feature_dim} features, "
        f"explained variance {100 * model.explained_fraction():.2f}%"
    )
    return 0


def cmd_pca_transform(args):
    model = load_pca_model(args.model)
    values, _ = read_cache(args.features)
    out = _out_path(args, args.out, "features.rcf")
    project(model, values, out)
    print(f"wrote {out}: {values.shape[0]} frames x {model.n_components} components")
    return 0


def cmd_reservoir_run(args):
    values, _ = read_cache(args.features)
    if args.spec:
        spec = load_reservoir_spec(args.spec)
        if spec.input_dim != values.shape[1]:
            raise SchemaError(
                f"spec expects {spec.input_dim}-wide inputs, cache has {values.shape[1]}"
            )
    else:
        spec = reservoir_spec(
            args.n_nodes, values.shape[1], args.variant, _hyperparams(args), args.seed
        )
    spans = None
    if args.reset_per_sequence:
        if not args.manifest:
            raise _UsageError("--reset-per-sequence requires --manifest")
        spans = prepare_data(args.manifest, values).all_spans
    if args.save_spec:
        os.makedirs(os.path.dirname(os.path.abspath(args.save_spec)), exist_ok=True)
        save_reservoir_spec(spec, args.save_spec)
    out = _out_path(args, args.out, "states.rcf")
    with CacheWriter(out, spec.n_nodes) as writer:
        writer.append(reservoir_states(spec, values, spans))
    print(f"wrote {out}: {values.shape[0]} steps x {spec.n_nodes} nodes ({spec.variant})")
    return 0


def cmd_train(args):
    data = prepare_data(args.manifest, args.states)
    model = train_readout(data.features, data, args.ridge_lambda, args.variant)
    out = _out_path(args, args.out, "readout.bin")
    save_readout_model(model, out)
    print(
        f"wrote {out}: {model.n_outputs} x {model.n_features} readout, "
        f"lambda {model.ridge_lambda:.6g}"
    )
    return 0


def cmd_evaluate(args):
    data = prepare_data(args.manifest, args.states)
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
        workers=args.threads,
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
        variant=args.variant,
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
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except PipelineStageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc.cause, (DataError, OSError)):
            return 2
        return 3
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, OverflowError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
