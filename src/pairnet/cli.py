"""Command-line surface: generate data, fit, evaluate, select, benchmark.

Subcommands:

    gen-data   write one benchmark grid as CSV
    fit        one-shot fit on a uniform partition, save model + report
    eval       MSE of a saved model on a dataset
    select     random-search over partitions (and optionally alphas)
    bench      reproduce the two benchmark tables as CSV

Exit codes: 0 on success, 2 for usage or validation errors, 1 for
runtime failures (unreadable artifacts, singular fits, divergence).
Every command prints an echo of its resolved configuration so the run
can be reproduced from the output alone; all randomness flows from
--seed through named substreams.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from .activation import ActivationKind
from .baseline_mlp import DivergenceError, MLPConfig, mlp_forward, mlp_train
from .datasets import BENCHMARKS, gen_test, gen_train, read_csv, write_csv
from .ioutil import write_csv_rows
from .partition import uniform_partition
from .persistence import load_model, save_model
from .seeding import MLP_STREAM
from .selection import SelectionConfig, select_model
from .trainer import FitConfig, fit, mse

__all__ = [
    "main",
    "RunReport",
    "UsageError",
    "TABLE2_PARTITIONS",
    "TABLE2_ALPHAS",
    "table1_rows",
    "table2_rows",
]

# The eight partition rows of the sweep benchmark, in sweep order.
TABLE2_PARTITIONS = (
    (2, 2, 2), (2, 3, 4), (3, 3, 3), (3, 4, 5),
    (4, 4, 4), (4, 5, 6), (5, 5, 5), (6, 6, 6),
)
TABLE2_ALPHAS = (0.1, 0.1, 0.8)

_ALPHA_SUM_TOL = 1e-6


class UsageError(ValueError):
    """Bad flags or values; reported on stderr with exit code 2."""


@dataclass(frozen=True)
class RunReport:
    """Echo of what a command did: config in, metrics and artifacts out."""

    command: str
    config: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)

    def lines(self) -> list[str]:
        out = [f"command = {self.command}"]
        for group, data in (("config", self.config), ("timings", self.timings),
                            ("metrics", self.metrics), ("outputs", self.outputs)):
            out.extend(f"{group}.{key} = {value}" for key, value in data.items())
        return out


def _emit(report: RunReport) -> None:
    for line in report.lines():
        print(line)


def _parse_alphas(text: str, n: int | None = None) -> tuple[float, ...]:
    """Comma-separated fusion weights: validated, then normalized exactly."""
    try:
        values = np.asarray([float(v) for v in text.split(",")])
    except ValueError:
        raise UsageError(f"alphas must be comma-separated numbers, got {text!r}") from None
    if n is not None and values.shape != (n,):
        raise UsageError(f"expected {n} alphas, got {values.size} in {text!r}")
    if not np.all(np.isfinite(values)) or np.any(values < 0.0):
        raise UsageError(f"alphas must be finite and nonnegative, got {text!r}")
    total = float(values.sum())
    if abs(total - 1.0) > _ALPHA_SUM_TOL:
        raise UsageError(f"alphas must sum to 1 within {_ALPHA_SUM_TOL:g}, got sum {total!r}")
    return tuple(float(a) for a in values / total)


def _parse_counts(text: str) -> tuple[int, ...]:
    try:
        counts = tuple(int(v) for v in text.split(","))
    except ValueError:
        raise UsageError(f"partition must be comma-separated integers, got {text!r}") from None
    if not counts or any(m < 1 for m in counts):
        raise UsageError(f"interval counts must be >= 1, got {text!r}")
    return counts


def _parse_count_range(text: str) -> tuple[int, int]:
    try:
        lo, hi = (int(v) for v in text.split(","))
    except ValueError:
        raise UsageError(f"count range must be 'min,max', got {text!r}") from None
    if not 1 <= lo <= hi:
        raise UsageError(f"count range must satisfy 1 <= min <= max, got {text!r}")
    return lo, hi


def _parse_functions(text: str) -> tuple[str, ...]:
    tags = tuple(t.strip() for t in text.split(","))
    for tag in tags:
        if tag not in BENCHMARKS:
            raise UsageError(f"unknown function {tag!r}; expected one of {sorted(BENCHMARKS)}")
    return tags


def _finite_float(text: str) -> float:
    """argparse type for a finite number; argparse names the flag on error."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _nonnegative_int(text: str) -> int:
    """argparse type for an integer >= 0; argparse names the flag on error."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {text!r}")
    return value


def _activation(args) -> ActivationKind:
    try:
        return ActivationKind(args.activation, args.steepness)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _fit_config(args, alphas) -> FitConfig:
    try:
        return FitConfig(
            alphas=alphas, activation=_activation(args), ridge=args.ridge,
            min_rows_policy=args.min_rows_policy, activation_scope=args.scope,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _write_rows(path, fieldnames: list[str], rows: list[dict]) -> None:
    write_csv_rows(path, [fieldnames, *([repr(row[key]) if isinstance(row[key], float)
                                         else row[key] for key in fieldnames] for row in rows)])


def _cmd_gen_data(args) -> int:
    dataset = gen_train(args.function) if args.split == "train" else gen_test(args.function)
    write_csv(dataset, args.out)
    _emit(RunReport(
        command="gen-data",
        config={"function": args.function, "split": args.split},
        metrics={"rows": len(dataset),
                 "y_min": float(dataset.y.min()), "y_max": float(dataset.y.max())},
        outputs={"csv": args.out},
    ))
    return 0


def _cmd_fit(args) -> int:
    counts = _parse_counts(args.partition)
    dataset = read_csv(args.data)
    if len(counts) != dataset.n:
        raise UsageError(f"partition has {len(counts)} dims but data has {dataset.n} columns")
    alphas = _parse_alphas(args.alphas, dataset.n)
    config = _fit_config(args, alphas)
    model, report = fit(dataset, uniform_partition(dataset.domain, counts), config)
    save_model(model, args.model_out)
    report_out = args.report_out or os.path.splitext(args.model_out)[0] + ".report.csv"
    report.to_csv(report_out)
    _emit(RunReport(
        command="fit",
        config={"data": args.data, "partition": ",".join(map(str, counts)),
                "alphas": ",".join(repr(a) for a in alphas),
                "activation": args.activation, "scope": args.scope,
                "ridge": "auto" if args.ridge is None else repr(args.ridge),
                "min_rows_policy": args.min_rows_policy},
        timings={"fit_seconds": repr(report.fit_seconds)},
        metrics={"rows": len(dataset), "subspaces": model.partition.size,
                 "train_mse": repr(report.train_mse),
                 "fallback_subspaces": sum(s.fallback for s in report.subspaces)},
        outputs={"model": args.model_out, "report": report_out},
    ))
    return 0


def _cmd_eval(args) -> int:
    model = load_model(args.model)
    dataset = read_csv(args.data)
    if dataset.n != model.n:
        raise UsageError(f"model expects {model.n} inputs but data has {dataset.n} columns")
    value = mse(model, dataset)
    _emit(RunReport(
        command="eval",
        config={"model": args.model, "data": args.data},
        metrics={"rows": len(dataset), "mse": repr(value)},
    ))
    return 0


def _cmd_select(args) -> int:
    dataset = read_csv(args.data)
    alphas = _parse_alphas(args.alphas, dataset.n) if args.alphas else None
    try:
        config = SelectionConfig(
            candidates=args.candidates, count_range=_parse_count_range(args.count_range),
            alphas=alphas, activation=_activation(args), eval_mode=args.eval_mode,
            holdout_fraction=args.holdout_fraction, seed=args.seed, ridge=args.ridge,
            min_rows_policy=args.min_rows_policy, activation_scope=args.scope,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    model, board = select_model(dataset, config)
    save_model(model, args.model_out)
    outputs = {"model": args.model_out}
    if args.leaderboard_out:
        board.to_csv(args.leaderboard_out)
        outputs["leaderboard"] = args.leaderboard_out
    winner = board.best
    _emit(RunReport(
        command="select",
        config={"data": args.data, "candidates": args.candidates, "seed": args.seed,
                "count_range": args.count_range,
                "alphas": args.alphas or "random-simplex",
                "eval_mode": args.eval_mode, "activation": args.activation,
                "scope": args.scope},
        timings={"total_fit_seconds": repr(board.total_fit_seconds),
                 "refit_seconds": repr(board.refit_seconds)},
        metrics={"winner_candidate": winner.candidate,
                 "winner_partition": winner.counts_label,
                 "winner_alphas": ",".join(repr(a) for a in winner.alphas),
                 "eval_mse": repr(winner.eval_mse),
                 "train_mse": repr(winner.train_mse)},
        outputs=outputs,
    ))
    return 0


def table2_rows(functions=("f1", "f2", "f3"), partitions=TABLE2_PARTITIONS,
                alphas=TABLE2_ALPHAS) -> list[dict]:
    """The partition-sweep benchmark: one row per partition, train and
    test MSE columns per function. Linear activations throughout."""
    functions = tuple(functions)
    train = {tag: gen_train(tag) for tag in functions}
    test = {tag: gen_test(tag) for tag in functions}
    rows = []
    for counts in partitions:
        row = {"partition": "-".join(map(str, counts)), "subspaces": math.prod(counts)}
        for tag in functions:
            part = uniform_partition(train[tag].domain, counts)
            model, report = fit(train[tag], part, FitConfig(alphas=alphas))
            row[f"{tag}_train_mse"] = report.train_mse
            row[f"{tag}_test_mse"] = mse(model, test[tag])
        rows.append(row)
    return rows


def _mlp_seed(base: int, index: int) -> int:
    """Integer seed for MLP run ``index``, drawn from the MLP substream."""
    seq = np.random.SeedSequence(entropy=base, spawn_key=(MLP_STREAM, index))
    return int(seq.generate_state(1, np.uint64)[0])


def table1_rows(functions=("f1", "f2", "f3"), candidates=4, epochs=500,
                mlp_seeds=5, seed=0, hidden=(16,) * 20, learning_rate=1e-3,
                momentum=0.9, batch_size=64) -> list[dict]:
    """The speed/accuracy benchmark: random-search selection (candidates
    + 1 networks, random alphas and partitions) against the best of
    ``mlp_seeds`` finished backprop runs. Training times are totals, i.e.
    the cost of producing the selected model. Deep thin ReLU nets often
    blow up within an epoch, so a diverging restart draws a replacement
    seed (its wall time still counts) up to 10x mlp_seeds attempts; at
    least one restart must finish."""
    rows = []
    for i, tag in enumerate(functions):
        train, test = gen_train(tag), gen_test(tag)
        model, board = select_model(train, SelectionConfig(candidates=candidates, seed=seed + i))
        rows.append({
            "method": "pairnet", "function": tag,
            "t_train_seconds": board.total_fit_seconds + board.refit_seconds,
            "mse_train": mse(model, train), "mse_test": mse(model, test),
        })
        best_mse, best_net, total = None, None, 0.0
        finished = attempts = 0
        while finished < mlp_seeds and attempts < 10 * mlp_seeds:
            config = MLPConfig(hidden=tuple(hidden), epochs=epochs,
                               learning_rate=learning_rate, momentum=momentum,
                               batch_size=batch_size, seed=_mlp_seed(seed + i, attempts))
            attempts += 1
            started = time.perf_counter()
            try:
                net, history, seconds = mlp_train(train, config)
            except DivergenceError:
                total += time.perf_counter() - started
                continue
            total += seconds
            finished += 1
            if best_mse is None or history[-1] < best_mse:
                best_mse, best_net = history[-1], net
        if best_net is None:
            raise RuntimeError(f"all {attempts} backprop attempts diverged on {tag}")
        rows.append({
            "method": "mlp", "function": tag, "t_train_seconds": total,
            "mse_train": best_mse,
            "mse_test": float(np.mean((mlp_forward(best_net, test.X) - test.y) ** 2)),
        })
    return rows


def _cmd_bench(args) -> int:
    functions = _parse_functions(args.functions)
    os.makedirs(args.out, exist_ok=True)
    if args.table == 2:
        rows = table2_rows(functions=functions)
        fieldnames = ["partition", "subspaces"]
        for tag in functions:
            fieldnames += [f"{tag}_train_mse", f"{tag}_test_mse"]
        path = os.path.join(args.out, "table2.csv")
        config = {"table": 2, "functions": ",".join(functions),
                  "alphas": ",".join(map(repr, TABLE2_ALPHAS)), "activation": "linear"}
    else:
        if args.candidates < 1:
            raise UsageError(f"need candidates >= 1, got {args.candidates}")
        if args.epochs < 1 or args.mlp_seeds < 1:
            raise UsageError("epochs and mlp-seeds must be >= 1")
        if args.mlp_width < 1 or args.mlp_depth < 1:
            raise UsageError("mlp-width and mlp-depth must be >= 1")
        hidden = (args.mlp_width,) * args.mlp_depth
        try:
            MLPConfig(hidden=hidden, epochs=args.epochs, learning_rate=args.mlp_lr,
                      momentum=args.mlp_momentum, batch_size=args.mlp_batch)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        rows = table1_rows(functions=functions, candidates=args.candidates,
                           epochs=args.epochs, mlp_seeds=args.mlp_seeds, seed=args.seed,
                           hidden=hidden, learning_rate=args.mlp_lr,
                           momentum=args.mlp_momentum, batch_size=args.mlp_batch)
        fieldnames = ["method", "function", "t_train_seconds", "mse_train", "mse_test"]
        path = os.path.join(args.out, "table1.csv")
        config = {"table": 1, "functions": ",".join(functions), "seed": args.seed,
                  "candidates": args.candidates, "epochs": args.epochs,
                  "mlp_seeds": args.mlp_seeds,
                  "mlp_hidden": f"{args.mlp_width}x{args.mlp_depth}",
                  "mlp_lr": repr(args.mlp_lr), "mlp_momentum": repr(args.mlp_momentum),
                  "mlp_batch": args.mlp_batch}
    _write_rows(path, fieldnames, rows)
    for row in rows:
        print("  ".join(f"{key}={row[key]!r}" if isinstance(row[key], float)
                        else f"{key}={row[key]}" for key in fieldnames))
    _emit(RunReport(command="bench", config=config, outputs={"csv": path}))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pairnet",
        description="One-shot closed-form fitting of pairwise networks on partitioned domains.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("gen-data", help="write a benchmark grid as CSV")
    p.add_argument("--function", required=True, choices=sorted(BENCHMARKS))
    p.add_argument("--split", required=True, choices=("train", "test"))
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_gen_data)

    def fit_flags(p):
        p.add_argument("--activation", default="linear", choices=("linear", "sigmoid"))
        p.add_argument("--steepness", type=_finite_float, default=4.0,
                       help="sigmoid steepness (ignored for linear)")
        p.add_argument("--ridge", type=_finite_float, default=None,
                       help="fixed ridge; default is each cell's floor, 1e-10 * trace/2^(n+1)")
        p.add_argument("--min-rows-policy", default="fallback_mean",
                       choices=("fallback_mean", "error"))
        p.add_argument("--scope", default="subspace", choices=("subspace", "domain"),
                       help="what the activations normalize over")

    p = sub.add_parser("fit", help="one-shot fit on a uniform partition")
    p.add_argument("--data", required=True, help="training CSV (x1..xn,y)")
    p.add_argument("--partition", required=True, help="intervals per dimension, e.g. 6,6,6")
    p.add_argument("--alphas", required=True, help="fusion weights, e.g. 0.1,0.1,0.8")
    p.add_argument("--model-out", required=True, help="output model JSON path")
    p.add_argument("--report-out", default=None,
                   help="per-subspace fit report CSV (default: <model>.report.csv)")
    fit_flags(p)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("eval", help="MSE of a saved model on a dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("select", help="random-search model selection")
    p.add_argument("--data", required=True)
    p.add_argument("--candidates", type=int, default=4,
                   help="search iterations K; K+1 candidates are evaluated")
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    p.add_argument("--count-range", default="2,6", help="per-dimension interval count bounds")
    p.add_argument("--alphas", default=None,
                   help="fixed fusion weights; default draws a random simplex per candidate")
    p.add_argument("--eval-mode", default="holdout", choices=("holdout", "training"))
    p.add_argument("--holdout-fraction", type=float, default=0.2)
    p.add_argument("--model-out", required=True)
    p.add_argument("--leaderboard-out", default=None)
    fit_flags(p)
    p.set_defaults(func=_cmd_select)

    p = sub.add_parser("bench", help="reproduce the benchmark tables")
    p.add_argument("--table", type=int, required=True, choices=(1, 2))
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--functions", default="f1,f2,f3")
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    p.add_argument("--candidates", type=int, default=4,
                   help="table 1: search iterations K (K+1 candidates, default 5 total)")
    p.add_argument("--epochs", type=int, default=500, help="table 1: MLP epochs")
    p.add_argument("--mlp-seeds", type=int, default=5, help="table 1: MLP restarts")
    p.add_argument("--mlp-width", type=int, default=16, help="table 1: hidden layer width")
    p.add_argument("--mlp-depth", type=int, default=20, help="table 1: hidden layer count")
    p.add_argument("--mlp-lr", type=_finite_float, default=1e-3, help="table 1: learning rate")
    p.add_argument("--mlp-momentum", type=_finite_float, default=0.9,
                   help="table 1: momentum in [0, 1); 0 gives plain SGD")
    p.add_argument("--mlp-batch", type=int, default=64, help="table 1: minibatch size")
    p.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
