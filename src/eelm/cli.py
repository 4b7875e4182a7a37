"""Command-line harness.

Subcommands: ``sinc`` (grid-trained regression comparison), ``bench``
(repeated random-split trials on a CSV dataset), ``sweep`` (node-count
sweep), ``train`` (fit one model and save it), ``predict`` (apply a
saved model to new inputs).

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numeric
failure (including every trial of a benchmark failing, whatever with).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .bench import (ExperimentConfig, _entries, _refuse_unused_source,
                    report_all_failed, run_dataset, run_node_sweep, run_sinc)
from .datasets import (CLASSIFICATION, METRICS, REGRESSION, CsvSchema,
                       _read_features, _write_csv, load_csv)
from .errors import (FormatError, NumericalFailure, NumericOverflowError,
                     PreconditionError, RankDeficientError, ShapeError)
from .models import (ALGORITHMS, ANCHOR_STRATEGIES, load_model, predict,
                     save_model, train_eelm, train_elm)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

_TASKS = {"reg": REGRESSION, "cls": CLASSIFICATION}


def _add_model_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=ExperimentConfig.seed,
                        help="base RNG seed")
    parser.add_argument("--anchor-strategy", choices=ANCHOR_STRATEGIES,
                        default=ExperimentConfig.anchor_strategy,
                        help="how the constructive algorithm picks anchors")


# Each experiment flag's dest is the ExperimentConfig field it sets
# (see _config), but for --target and --task, which set csv_schema.
_FIELD_OF_DEST = {"target": "csv_schema", "task": "csv_schema"}


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--algo", choices=(*ALGORITHMS, "both"),
                        default="both", help="which algorithm(s) to run")
    parser.add_argument("--trials", type=int, default=ExperimentConfig.trials,
                        help="number of seeded trials")
    _add_model_flags(parser)
    parser.add_argument("--out", dest="out_path", metavar="PATH",
                        help="write the JSON report here")


def _add_plot_data(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--plot-data", dest="plot_path", metavar="PATH",
                        help="write plot-ready CSV data here")


def _add_sinc_source(parser: argparse.ArgumentParser) -> list:
    return [
        parser.add_argument("--n-train", type=int,
                            default=ExperimentConfig.n_train),
        parser.add_argument("--n-test", type=int,
                            default=ExperimentConfig.n_test),
        parser.add_argument("--noise", dest="noise_sigma", type=float,
                            default=ExperimentConfig.noise_sigma,
                            metavar="SIGMA",
                            help="training-target noise standard deviation"),
        parser.add_argument("--test-dist", dest="test_distribution",
                            choices=("uniform", "normal"),
                            default=ExperimentConfig.test_distribution),
    ]


def _add_split(parser: argparse.ArgumentParser) -> list:
    return [parser.add_argument("--split", dest="split_fraction", type=float,
                                default=ExperimentConfig.split_fraction,
                                metavar="F",
                                help="training fraction of each split")]


def _add_csv_source(parser: argparse.ArgumentParser, required: bool) -> list:
    return [
        parser.add_argument("--csv", dest="csv_path", metavar="PATH",
                            required=required,
                            help="dataset CSV (header row required)"),
        parser.add_argument("--target", metavar="COL", action="append",
                            help="target column name (repeatable for "
                                 "multi-output regression)"),
        parser.add_argument("--task", choices=("reg", "cls"), default="reg",
                            help="regression or classification"),
    ]


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eelm",
        description="Train and benchmark single-hidden-layer networks with "
                    "random (elm) or constructive (eelm) hidden layers.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sinc", help="sin(x)/x benchmark on [-10,10] with "
                                    "test points on [-30,30]")
    p.add_argument("--nodes", type=int, default=200)
    _add_sinc_source(p)
    _add_common(p)
    _add_plot_data(p)
    p.set_defaults(func=_cmd_sinc, trials=50)

    p = sub.add_parser("bench", help="repeated random-split trials on a CSV")
    p.add_argument("--nodes", type=int, required=True)
    _add_split(p)
    _add_csv_source(p, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("sweep", help="repeat a benchmark for several node "
                                     "counts")
    p.add_argument("--nodes-sweep", required=True, metavar="A,B,C",
                   help="comma-separated node counts")
    source_actions = [*_add_split(p), *_add_sinc_source(p),
                      *_add_csv_source(p, required=False)]
    _add_common(p)
    _add_plot_data(p)
    p.set_defaults(func=_cmd_sweep, source_actions=source_actions)

    p = sub.add_parser("train", help="train one model on a CSV and save it")
    p.add_argument("--nodes", type=int, required=True)
    _add_csv_source(p, required=True)
    p.add_argument("--algo", choices=ALGORITHMS, default="eelm")
    _add_model_flags(p)
    p.add_argument("--model-out", required=True, metavar="PATH")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("predict", help="apply a saved model to a feature CSV")
    p.add_argument("--model", required=True, metavar="PATH")
    p.add_argument("--csv", required=True, metavar="PATH",
                   help="feature columns only, header row required")
    p.add_argument("--out", required=True, metavar="PATH",
                   help="output CSV of predictions")
    p.set_defaults(func=_cmd_predict)
    return parser


def _schema(args) -> CsvSchema:
    if not args.target:
        raise PreconditionError("--target is required with --csv")
    target = args.target[0] if len(args.target) == 1 else tuple(args.target)
    return CsvSchema(target=target, task=_TASKS[args.task])


_CONFIG_FIELDS = frozenset(f.name for f in dataclasses.fields(ExperimentConfig))


def _config(args, **fields) -> ExperimentConfig:
    """The ExperimentConfig of an experiment command line: every flag
    whose dest names a config field, the algorithms, the CSV schema when
    a CSV is given, and ``fields``."""
    given = {k: v for k, v in vars(args).items() if k in _CONFIG_FIELDS}
    if given.get("csv_path"):
        given["csv_schema"] = _schema(args)
    algorithms = ALGORITHMS if args.algo == "both" else (args.algo,)
    return ExperimentConfig(algorithms=algorithms, **given, **fields)


def _print_summary(report: dict) -> None:
    metric = report["metric"]
    for _, nodes, algos in _entries(report):
        for algo, section in algos.items():
            agg, trials = section["aggregates"], len(section["trials"])
            if agg["test_metric"] is None:
                shown = f"all {trials} trials failed"
            else:
                shown = (f"train {metric} {agg['train_metric']['mean']:.6g}, "
                         f"test {metric} {agg['test_metric']['mean']:.6g}, "
                         f"train {agg['train_seconds']['mean']:.4g}s over "
                         f"{trials} trial(s), {section['failures']} "
                         f"failure(s)")
            print(f"nodes={nodes:>4} {algo:>4}: {shown}")


def _finish_bench(report: dict) -> int:
    _print_summary(report)
    if report_all_failed(report):
        first = next(r["error"] for _, _, algos in _entries(report)
                     for section in algos.values() for r in section["trials"])
        print(f"error: every trial failed, the first with {first}",
              file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


def _cmd_sinc(args) -> int:
    return _finish_bench(run_sinc(_config(args)))


def _cmd_bench(args) -> int:
    return _finish_bench(run_dataset(_config(args)))


def _cmd_sweep(args) -> int:
    # run_node_sweep's check, on the flags as given so that it names them
    changed = {}
    for action in args.source_actions:
        if getattr(args, action.dest) != action.default:
            field = _FIELD_OF_DEST.get(action.dest, action.dest)
            changed.setdefault(field, []).append(action.option_strings[0])
    _refuse_unused_source(args.csv_path is not None, changed)
    try:
        sweep = tuple(int(tok) for tok in args.nodes_sweep.split(",") if tok)
    except ValueError:
        raise PreconditionError(
            f"--nodes-sweep must be comma-separated integers, got "
            f"{args.nodes_sweep!r}") from None
    return _finish_bench(run_node_sweep(_config(args, node_sweep=sweep)))


def _cmd_train(args) -> int:
    data = load_csv(args.csv_path, _schema(args))
    if args.algo == "elm":
        model, report = train_elm(data, args.nodes, seed=args.seed)
    else:
        model, report = train_eelm(data, args.nodes,
                                   anchor_strategy=args.anchor_strategy,
                                   seed=args.seed)
    save_model(model, args.model_out)
    metric = METRICS[data.task][0]
    print(f"{args.algo}: trained {model.n_hidden} nodes on "
          f"{data.n_samples} samples in {report.train_seconds:.4g}s, "
          f"train {metric} {report.train_metric:.6g}; model -> "
          f"{args.model_out}")
    return EXIT_OK


def _cmd_predict(args) -> int:
    model = load_model(args.model)
    scores = predict(model, _read_features(args.csv))
    _write_csv(args.out, [f"pred_{k + 1}" for k in range(scores.shape[1])],
               (map(repr, row) for row in scores.tolist()))
    print(f"wrote {scores.shape[0]} predictions to {args.out}")
    return EXIT_OK


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        # ELM draws its hidden layer at random: it has no anchors
        if getattr(args, "algo", None) == "elm" and \
                args.anchor_strategy != "random":
            raise PreconditionError("--algo elm does not use "
                                    "--anchor-strategy")
        return args.func(args)
    except (FormatError, ShapeError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except PreconditionError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericOverflowError, RankDeficientError, NumericalFailure) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
