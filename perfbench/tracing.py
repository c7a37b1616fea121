"""Span recorder for the traced run, kept in the benchmark's own files.

The pairnet modules import each other's functions by name
(``from .model import feature_matrix``), so a layer boundary is traced
by rebinding the public name in the module where its caller looks it
up. Each call then records a span: name, start, end, parent span and a
few counts taken from its arguments or result. Spans stay in memory;
``Tracer.dump`` writes them as JSON when the run ends. A name that no
longer exists is skipped, and the metrics that need it are reported
absent.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import time

# What a span counts, from (args, kwargs, result). A counter that cannot
# be read from a future version of the program is left out of the span.
_COUNT_ERRORS = (AttributeError, TypeError, IndexError, KeyError, ValueError, OSError)


def _rows_arg(i):
    return lambda a, k, r: {"rows": len(a[i])}


def _fit_counts(a, k, r):
    report = r[1]
    counts = {"rows": len(a[0]), "cells": len(report.subspaces),
              "fallback": sum(bool(s.fallback) for s in report.subspaces)}
    try:
        counts["reported_s"] = float(report.fit_seconds)
    except _COUNT_ERRORS:
        pass
    return counts


def _solve_counts(a, k, r):
    return {"dim": int(r[0].shape[0]), "escalations": int(r[1].escalations)}


def _saved_bytes(a, k, r):
    return {"bytes": os.path.getsize(a[1])}


def _read_rows(a, k, r):
    return {"rows": len(r)}


def _cli_command(a, k, r):
    argv = a[0] if a else k.get("argv")
    return {"command": str(argv[0])}


# (module, attribute, span name, counter). The workloads module is the
# benchmark's own caller of the public API, so it is traced the same way.
PATCHES = (
    ("pairnet.partition", "locate_many", "partition.locate_many", _rows_arg(1)),
    ("pairnet.model", "locate_many", "partition.locate_many", _rows_arg(1)),
    ("pairnet.trainer", "route", "partition.route", None),
    ("pairnet.trainer", "feature_matrix", "model.feature_matrix", _rows_arg(1)),
    ("pairnet.model", "feature_matrix", "model.feature_matrix", _rows_arg(1)),
    ("pairnet.trainer", "forward", "model.forward", None),
    ("pairnet.model", "local_forward", "model.local_forward", None),
    ("pairnet.trainer", "solve_spd", "linsolve.solve_spd", _solve_counts),
    ("pairnet.trainer", "mse", "trainer.mse", None),
    ("pairnet.selection", "fit", "trainer.fit", _fit_counts),
    ("pairnet.selection", "mse", "trainer.mse", None),
    ("pairnet.cli", "fit", "trainer.fit", _fit_counts),
    ("pairnet.cli", "mse", "trainer.mse", None),
    ("pairnet.cli", "select_model", "selection.select_model", _rows_arg(0)),
    ("pairnet.cli", "read_csv", "datasets.read_csv", _read_rows),
    ("pairnet.cli", "save_model", "persistence.save_model", _saved_bytes),
    ("pairnet.cli", "load_model", "persistence.load_model", None),
    ("pairnet.cli", "main", "cli.main", _cli_command),
    ("workloads", "fit", "trainer.fit", _fit_counts),
    ("workloads", "mse", "trainer.mse", None),
    ("workloads", "save_model", "persistence.save_model", _saved_bytes),
    ("workloads", "load_model", "persistence.load_model", None),
)


class Tracer:
    """Records spans while installed; one instance per run."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, counts]
        self._stack = []
        self._saved = []
        self.installed = set()  # span names whose boundary could be traced
        self.missing = []  # "module.attribute" names not found

    def _wrap(self, fn, name, counter):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, time.perf_counter(), None, stack[-1] if stack else None, None])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = time.perf_counter()
            if counter is not None:
                try:
                    spans[index][4] = counter(args, kwargs, result)
                except _COUNT_ERRORS:
                    pass
            return result

        return traced

    def install(self):
        self.missing = []
        for module_name, attr, name, counter in PATCHES:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, counter))
            self.installed.add(name)

    def uninstall(self):
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def begin_pass(self):
        """Open a root span for one traced pass; returns its index."""
        self.spans.append(["pass", time.perf_counter(), None, None, None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end_pass(self, index):
        self._stack.pop()
        self.spans[index][2] = time.perf_counter()

    def dump(self, path):
        doc = {"fields": ["name", "start", "end", "parent", "counts"], "spans": self.spans}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def _self_time(span, children):
    """Duration minus the part of it covered by child spans."""
    covered, reach = 0.0, span[1]
    for child in sorted(children, key=lambda s: s[1]):
        lo, hi = max(child[1], reach), min(child[2], span[2])
        if hi > lo:
            covered += hi - lo
            reach = hi
    return (span[2] - span[1]) - covered


def pass_metrics(spans, root, installed):
    """Per-layer metrics of the pass whose root span index is ``root``."""
    inside = {root}
    kids = {}
    for i in range(root + 1, len(spans)):
        parent = spans[i][3]
        if parent not in inside:
            continue
        inside.add(i)
        kids.setdefault(parent, []).append(i)

    def of(name):
        return [i for i in inside if spans[i][0] == name]

    def dur(idx):
        return sum(spans[i][2] - spans[i][1] for i in idx)

    def count(idx, key):
        values = [(spans[i][4] or {}).get(key) for i in idx]
        return None if any(v is None for v in values) else sum(values)

    def under(idx, ancestor):
        return [i for i in idx if _ancestor(spans, i, ancestor) is not None]

    def self_s(idx):
        return sum(_self_time(spans[i], [spans[c] for c in kids.get(i, ())]) for i in idx)

    m = {}

    def put(name, unit, value, needs):
        if value is not None and all(n in installed for n in needs):
            m[name] = (value, unit)

    def ratio(a, b):
        return None if a is None or not b else a / b

    route, locate = of("partition.route"), of("partition.locate_many")
    put("partition.route_s", "s", dur(route), ["partition.route"])
    put("partition.locate_many_s", "s", dur(locate), ["partition.locate_many"])
    put("partition.locate_many_rows", "count", count(locate, "rows"), ["partition.locate_many"])

    fits = [i for i in of("trainer.fit") if not under([i], "trainer.fit")]
    feats = of("model.feature_matrix")
    fit_rows = count(fits, "rows")
    put("model.feature_matrix_s", "s", dur(feats), ["model.feature_matrix"])
    put("model.feature_matrix_calls", "count", len(feats), ["model.feature_matrix"])
    put("model.feature_rows_per_train_row", "ratio",
        ratio(count(under(feats, "trainer.fit"), "rows"), fit_rows),
        ["model.feature_matrix", "trainer.fit"])

    forwards = of("model.forward")
    put("model.forward_s", "s", dur(forwards), ["model.forward"])
    put("model.cells_visited_per_forward", "ratio",
        ratio(len(under(of("model.local_forward"), "model.forward")), len(forwards)),
        ["model.forward", "model.local_forward"])

    put("trainer.fit_s", "s", dur(fits), ["trainer.fit"])
    put("trainer.fit_self_s", "s", self_s(fits), ["trainer.fit"])
    put("trainer.cells", "count", count(fits, "cells"), ["trainer.fit"])
    put("trainer.fallback_cells", "count", count(fits, "fallback"), ["trainer.fit"])
    put("trainer.fit_seconds_reported_share", "ratio",
        ratio(count(fits, "reported_s"), dur(fits)), ["trainer.fit"])

    solves = of("linsolve.solve_spd")
    escalations = count(solves, "escalations")
    put("linsolve.solve_s", "s", dur(solves), ["linsolve.solve_spd"])
    put("linsolve.solves", "count", len(solves), ["linsolve.solve_spd"])
    put("linsolve.cholesky_attempts_per_solve", "ratio",
        None if escalations is None or not solves else 1.0 + escalations / len(solves),
        ["linsolve.solve_spd"])
    put("linsolve.system_dim_mean", "count", ratio(count(solves, "dim"), len(solves)),
        ["linsolve.solve_spd"])

    selects = of("selection.select_model")
    select_fits = under(fits, "selection.select_model")
    # The refit is the fit on all of the select's rows; candidates see a split.
    refits = [i for i in select_fits
              if _rows(spans, i) == _rows(spans, _ancestor(spans, i, "selection.select_model"))]
    put("selection.select_s", "s", dur(selects), ["selection.select_model"])
    put("selection.refit_s", "s", dur(refits), ["selection.select_model", "trainer.fit"])
    put("selection.fits_per_select", "ratio", ratio(len(select_fits), len(selects)),
        ["selection.select_model", "trainer.fit"])

    saves = of("persistence.save_model")
    put("persistence.save_s", "s", dur(saves), ["persistence.save_model"])
    put("persistence.load_s", "s", dur(of("persistence.load_model")),
        ["persistence.load_model"])
    put("persistence.bytes", "bytes", count(saves, "bytes"), ["persistence.save_model"])

    reads = of("datasets.read_csv")
    put("datasets.read_csv_s", "s", dur(reads), ["datasets.read_csv"])
    put("datasets.read_csv_rows", "count", count(reads, "rows"), ["datasets.read_csv"])

    put("cli.self_s", "s", self_s(of("cli.main")), ["cli.main"])
    return m


def _rows(spans, i):
    return (spans[i][4] or {}).get("rows")


def _ancestor(spans, i, name):
    p = spans[i][3]
    while p is not None and spans[p][0] != name:
        p = spans[p][3]
    return p


def median_metrics(per_pass):
    """Median over passes of each metric present in every pass."""
    if not per_pass:
        return {}
    names = set(per_pass[0]).intersection(*per_pass[1:])
    return {name: (statistics.median(p[name][0] for p in per_pass), per_pass[0][name][1])
            for name in sorted(names)}
