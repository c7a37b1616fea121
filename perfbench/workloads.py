"""The benchmark's workloads: inputs, one closed-loop pass, and its checks.

A pass is a fixed sequence of user operations run one after another by
one caller. Each operation is timed under a kind (fit, predict, io,
select, sweep, or "other" for operations timed only as part of the
pass) and every output is checked: against the independent reference in
``reference.py``, against pairnet's documented guarantees (train MSE
reproduced bitwise by eval, save -> load -> save byte-identical, loaded
models predicting bitwise the same), and against the first pass of the
run (equal inputs give byte-identical artifacts).

Only these pairnet names are used: fit, mse, save_model, load_model,
uniform_partition, Dataset, gen_train, gen_test, benchmark_eval,
cli.main, plus the FitConfig and Interval value types. No call passes
``threads=`` or reads a timing from the program's own reports.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import time

import numpy as np
from pairnet import (
    Dataset,
    FitConfig,
    Interval,
    benchmark_eval,
    cli,
    fit,
    gen_test,
    gen_train,
    load_model,
    mse,
    save_model,
    uniform_partition,
)

import reference

FUNCTIONS = ("f1", "f2", "f3")
ALPHAS = (0.1, 0.1, 0.8)
# The eight partitions of the paper's sweep table, as `bench --table 2` runs them.
SWEEP_PARTITIONS = ((2, 2, 2), (2, 3, 4), (3, 3, 3), (3, 4, 5),
                    (4, 4, 4), (4, 5, 6), (5, 5, 5), (6, 6, 6))
# Selection runs on a fixed seed, not on the run seed: one seed's pick on
# the paper grids differs from another's by up to 6x in test MSE and 30%
# in time, which no bound could absorb. With a fixed seed, select_s and
# select_test_mse_gmean compare the same searches on every run and
# every commit.
SELECT_SEED = 0
SELECT_CANDIDATES = 8
# Off the paper grid, selection runs on 8000 uniform f2 rows drawn from a
# fixed stream, for the same reason.
SELECT_ROWS = 8000
SELECT_DATA_SEED = 0


class OpFailed(Exception):
    """An operation raised; the rest of the pass is skipped."""


class Ledger:
    """Operations attempted in a run, and those that raised or failed a check."""

    def __init__(self):
        self.attempted = 0
        self.failed_ops = set()
        self.messages = []

    def new_op(self) -> int:
        self.attempted += 1
        return self.attempted

    def check(self, op: int, ok, message: str) -> bool:
        if not ok:
            self.failed_ops.add(op)
            self.messages.append(f"op {op}: {message}")
        return bool(ok)

    @property
    def failed(self) -> int:
        return len(self.failed_ops)


class Pass:
    """Times one pass's operations and carries its outputs.

    Every pass runs the same operations in the same order, so the i-th
    operation of a kind is the same operation in every pass.
    """

    def __init__(self, ledger: Ledger):
        self.ledger = ledger
        self.ops = []  # (kind, rows, seconds) in the order run
        self.outputs = {}  # name -> (op, value) compared against the run's first pass
        self.select_mse = []  # test MSE of each selected model
        self.results = {}  # name -> (op, value) checked against the reference afterwards

    def run(self, kind, rows, fn, *args):
        """Run one operation; returns (result, op id)."""
        op = self.ledger.new_op()
        start = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # noqa: BLE001 - a failing operation is a result
            self.ledger.check(op, False, f"{kind} raised {exc!r}")
            raise OpFailed from exc
        self.ops.append((kind, rows, time.perf_counter() - start))
        return result, op

    def cli(self, kind, rows, argv):
        """Run ``pairnet`` in-process; returns (report dict, op id)."""
        def call():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:  # argparse rejects bad flags this way
                    code = exc.code
            return code, out.getvalue()

        (code, text), op = self.run(kind, rows, call)
        self.ledger.check(op, code == 0, f"pairnet {argv[0]} exited with {code}")
        report = {}
        for line in text.splitlines():
            key, sep, value = line.partition(" = ")
            if sep:
                report[key] = value
        return report, op

    def keep(self, op, name, value):
        """Record an output that must be identical on every pass."""
        self.outputs[name] = (op, value)

    def result(self, op, name, value):
        """Record an output for ``Workload.verify`` to check."""
        self.results[name] = (op, value)


def _read(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def write_rows(dataset: Dataset, path):
    """CSV in the x1..xn,y layout pairnet reads, shortest round-trip floats."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([f"x{i + 1}" for i in range(dataset.n)] + ["y"])
        writer.writerows([*map(repr, x), repr(t)]
                         for x, t in zip(dataset.X.tolist(), dataset.y.tolist()))


def _float(report, key, p, op):
    """A float field of a CLI report; a missing or bad field fails the op."""
    try:
        return float(report[key])
    except (KeyError, ValueError):
        p.ledger.check(op, False, f"report has no float {key!r}")
        raise OpFailed from None


def _grid_references(functions):
    """Reference fit, train MSE and test MSE of every table-2 partition of
    each paper grid, keyed by (partition label, function)."""
    out = {}
    for tag in functions:
        train, test = gen_train(tag), gen_test(tag)
        # The CLI infers the domain from the CSV's column ranges.
        lo, hi = train.X.min(axis=0), train.X.max(axis=0)
        for counts in SWEEP_PARTITIONS:
            edges = [np.linspace(a, b, m + 1) for a, b, m in zip(lo, hi, counts)]
            ref = reference.ReferenceFit(edges, ALPHAS, train.X, train.y)
            train_mse = sum(c.sse for c in ref.cells.values()) / len(train)
            out["-".join(map(str, counts)), tag] = (
                ref, (train_mse, train.y), (ref.mse(test.X, test.y), test.y))
    return out


class Workload:
    """Shared parts: the workdir, the select panel and the table-2 sweep."""

    name = ""
    sweep_functions = FUNCTIONS

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.grid_refs = {}

    def path(self, name):
        return os.path.join(self.workdir, name)

    def prepare_reference(self):
        """Reference results; computed once per run, outside every timing."""
        self.grid_refs = _grid_references(self.sweep_functions)

    def _select(self, p: Pass, tag, train_csv, test_csv):
        model_out = self.path(f"select-{tag}.json")
        board = self.path(f"select-{tag}.board.csv")
        _, op = p.cli("select", 0, [
            "select", "--data", train_csv, "--candidates", str(SELECT_CANDIDATES),
            "--seed", str(SELECT_SEED), "--model-out", model_out, "--leaderboard-out", board])
        p.keep(op, f"leaderboard {tag}", _read(board))
        p.keep(op, f"selected model {tag}", _read(model_out))
        report, op = p.cli("other", 0, ["eval", "--model", model_out, "--data", test_csv])
        value = _float(report, "metrics.mse", p, op)
        p.ledger.check(op, math.isfinite(value) and value > 0,
                       f"selected {tag} test mse {value}")
        p.select_mse.append(value)

    def _sweep(self, p: Pass):
        out = self.path("sweep")
        _, op = p.cli("sweep", 0, ["bench", "--table", "2", "--functions",
                                   ",".join(self.sweep_functions), "--out", out])
        path = os.path.join(out, "table2.csv")
        p.keep(op, "table2.csv", _read(path))
        with open(path, newline="", encoding="utf-8") as fh:
            p.result(op, "table2", {row["partition"]: row for row in csv.DictReader(fh)})

    def verify(self, p: Pass, once: bool):
        """Check a finished pass against the reference, outside its timing.

        ``once`` is set for the run's first pass, which also gets the
        checks too costly to repeat.
        """
        op, rows = p.results["table2"]
        for (label, tag), (_, (train_ref, ytr), (test_ref, yte)) in self.grid_refs.items():
            row = rows.get(label, {})
            for key, ref, y in ((f"{tag}_train_mse", train_ref, ytr),
                                (f"{tag}_test_mse", test_ref, yte)):
                try:
                    value = float(row[key])
                except (KeyError, ValueError):
                    p.ledger.check(op, False, f"table2.csv has no {key} for {label}")
                    continue
                p.ledger.check(op, reference.mse_close(value, ref, y),
                               f"table2 {label} {key} = {value!r}, reference {ref!r}")


class PaperGrid(Workload):
    """The paper's lattices driven through the CLI, as users run them."""

    name = "paper_grid"

    def sizes(self):
        return {"train_rows_per_function": 8000, "test_rows_per_function": 6859,
                "functions": list(FUNCTIONS), "partition": "6,6,6", "cells": 216,
                "select_seed": SELECT_SEED, "select_candidates": SELECT_CANDIDATES,
                "sweep_functions": list(self.sweep_functions)}

    def make_inputs(self):
        for tag in FUNCTIONS:
            for split in ("train", "test"):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = cli.main(["gen-data", "--function", tag, "--split", split,
                                     "--out", self.path(f"{tag}_{split}.csv")])
                if code != 0:
                    raise RuntimeError(f"gen-data {tag} {split} exited with {code}")

    def run_pass(self, p: Pass):
        for tag in FUNCTIONS:
            train_csv, test_csv = self.path(f"{tag}_train.csv"), self.path(f"{tag}_test.csv")
            model_json, cells_csv = self.path(f"{tag}.json"), self.path(f"{tag}.cells.csv")
            report, fit_op = p.cli("fit", 8000, [
                "fit", "--data", train_csv, "--partition", "6,6,6",
                "--alphas", ",".join(map(str, ALPHAS)), "--model-out", model_json,
                "--report-out", cells_csv])
            train_mse = report.get("metrics.train_mse")
            p.keep(fit_op, f"model {tag}", _read(model_json))
            with open(cells_csv, newline="", encoding="utf-8") as fh:
                p.result(fit_op, f"cells {tag}",
                         {int(row["subspace"]): float(row["sse"]) for row in csv.DictReader(fh)})

            report, op = p.cli("predict", 6859, ["eval", "--model", model_json,
                                                 "--data", test_csv])
            p.result(op, f"test mse {tag}", _float(report, "metrics.mse", p, op))

            report, op = p.cli("other", 0, ["eval", "--model", model_json, "--data", train_csv])
            p.ledger.check(op, train_mse is not None and report.get("metrics.mse") == train_mse,
                           f"{tag}: eval on the training CSV gave {report.get('metrics.mse')}, "
                           f"fit reported {train_mse}")

            self._resave(p, model_json)
            self._select(p, tag, train_csv, test_csv)
            self._resave(p, self.path(f"select-{tag}.json"))
        self._sweep(p)

    def _resave(self, p: Pass, model_json):
        """load -> save of a model file the CLI wrote; must be byte-identical."""
        loaded, op = p.run("io", 0, load_model, model_json)
        resaved = model_json + ".resaved"
        p.run("io", 0, save_model, loaded, resaved)
        p.ledger.check(op, _read(resaved) == _read(model_json),
                       f"{model_json}: save -> load -> save changed the model file")

    def verify(self, p: Pass, once: bool):
        super().verify(p, once)
        for tag in FUNCTIONS:
            ref, _, (ref_test, y_test) = self.grid_refs["6-6-6", tag]
            op, sse = p.results[f"cells {tag}"]
            for j, cell in ref.cells.items():
                p.ledger.check(op, j in sse and reference.sse_close(sse[j], cell),
                               f"{tag} cell {j}: sse {sse.get(j)!r}, reference {cell.sse!r}")
            op, value = p.results[f"test mse {tag}"]
            p.ledger.check(op, reference.mse_close(value, ref_test, y_test),
                           f"{tag} test mse {value!r}, reference {ref_test!r}")


class ApiWorkload(Workload):
    """Seeded uniform data fit, predicted and saved through the API.

    ``parts`` lists (label, partition, alphas, train, test, cells to
    check against the reference). Selection and the one-function sweep
    run through the CLI too, so every workload reports every end-to-end
    metric.
    """

    sweep_functions = ("f2",)
    domain = (Interval(1.0, 20.0),) * 3

    def _f2(self, rng, rows):
        X = rng.uniform(1.0, 20.0, size=(rows, 3))
        return Dataset(X, benchmark_eval("f2", X[:, 0], X[:, 1], X[:, 2]), self.domain)

    def rng(self, stream):
        return np.random.default_rng([self.seed, stream])

    def sizes(self):
        out = {"select_rows": SELECT_ROWS, "select_data_seed": SELECT_DATA_SEED,
               "select_seed": SELECT_SEED,
               "select_candidates": SELECT_CANDIDATES,
               "sweep_functions": list(self.sweep_functions)}
        for label, part, _, train, test, cells in self.parts:
            out[label] = {"inputs": train.n, "train_rows": len(train), "test_rows": len(test),
                          "partition": list(part.counts), "cells": part.size,
                          "cells_checked": len(cells)}
        return out

    def make_inputs(self):
        self.build_parts()
        for name, stream in (("select_train.csv", 0), ("select_test.csv", 1)):
            rng = np.random.default_rng([SELECT_DATA_SEED, stream])
            write_rows(self._f2(rng, SELECT_ROWS), self.path(name))

    def prepare_reference(self):
        super().prepare_reference()
        self.refs = {}
        for label, part, alphas, train, test, cells in self.parts:
            ref = reference.ReferenceFit(part.edges, alphas, train.X, train.y, cells)
            held = ref.covers(test.X)
            held_out = Dataset(test.X[held], test.y[held], test.domain)
            self.refs[label] = (ref, held_out, ref.mse(held_out.X, held_out.y))

    def run_pass(self, p: Pass):
        for label, part, alphas, train, test, cells in self.parts:
            (model, report), fit_op = p.run("fit", len(train), fit, train, part,
                                            FitConfig(alphas=alphas))
            predicted, op = p.run("predict", len(test), mse, model, test)
            p.keep(fit_op, f"{label} train mse", report.train_mse)
            p.keep(op, f"{label} test mse", predicted)

            first, second = self.path(f"{label}.json"), self.path(f"{label}.resaved.json")
            p.run("io", 0, save_model, model, first)
            loaded, io_op = p.run("io", 0, load_model, first)
            p.run("io", 0, save_model, loaded, second)
            p.keep(io_op, f"{label} model", _read(first))
            p.ledger.check(io_op, _read(first) == _read(second),
                           f"{label}: save -> load -> save changed the model file")
            again, op = p.run("predict", len(test), mse, loaded, test)
            p.ledger.check(op, again == predicted,
                           f"{label}: loaded model mse {again!r} "
                           f"!= fitted model mse {predicted!r}")
            p.result(fit_op, label, (model, report))
        self._select(p, "f2", self.path("select_train.csv"), self.path("select_test.csv"))
        self._sweep(p)

    def verify(self, p: Pass, once: bool):
        super().verify(p, once)
        for label, _, _, train, _, _ in self.parts:
            op, (model, report) = p.results[label]
            ref, held_out, ref_mse = self.refs[label]
            for j, cell in ref.cells.items():
                p.ledger.check(op, reference.sse_close(report.subspaces[j].sse, cell),
                               f"{label} cell {j}: sse {report.subspaces[j].sse!r}, "
                               f"reference {cell.sse!r}")
            value = mse(model, held_out)
            p.ledger.check(op, reference.mse_close(value, ref_mse, held_out.y),
                           f"{label}: held-out mse {value!r} on checked cells, "
                           f"reference {ref_mse!r}")
            if once:
                again = mse(model, train)
                p.ledger.check(op, report.train_mse == again,
                               f"{label}: report.train_mse {report.train_mse!r} "
                               f"!= mse(train) {again!r}")


class FineCells(ApiWorkload):
    """41,472 rows over 12-12-12: 1728 cells of about 24 rows each."""

    name = "fine_cells"

    def build_parts(self):
        part = uniform_partition(self.domain, (12, 12, 12))
        cells = self.rng(2).choice(part.size, size=64, replace=False)
        self.parts = [("f2_12x12x12", part, ALPHAS, self._f2(self.rng(0), 24 * part.size),
                       self._f2(self.rng(1), 10_000), cells)]


class DenseCells(ApiWorkload):
    """500k rows over 4-4-4 (64 cells of ~7.8k rows) plus one 8-input cell."""

    name = "dense_cells"
    domain8 = (Interval(0.0, 1.0),) * 8

    def _smooth8(self, rng, coef, rows):
        X = rng.uniform(0.0, 1.0, size=(rows, 8))
        y = np.sin(X @ coef[:8]) + coef[8] * X[:, 0] * X[:, 1] + coef[9] * X[:, 7] ** 2
        return Dataset(X, y, self.domain8)

    def build_parts(self):
        part3 = uniform_partition(self.domain, (4, 4, 4))
        part8 = uniform_partition(self.domain8, (1,) * 8)
        coef = self.rng(3).uniform(0.5, 1.5, size=10)
        self.parts = [
            ("f2_4x4x4", part3, ALPHAS, self._f2(self.rng(0), 500_000),
             self._f2(self.rng(1), 500_000),
             self.rng(2).choice(part3.size, size=8, replace=False)),
            ("smooth8_1cell", part8, (1.0 / 8,) * 8, self._smooth8(self.rng(4), coef, 20_000),
             self._smooth8(self.rng(5), coef, 20_000), [0]),
        ]


WORKLOADS = {w.name: w for w in (PaperGrid, FineCells, DenseCells)}
