"""Line-by-line CSV reading, kept as a test oracle for read_csv.

Every field goes through Python's csv module and float(), one line at a
time, so read_csv, which parses the body with numpy's C reader first,
is checked against it: the same arrays bitwise, or the same error.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from pairnet.datasets import CsvFormatError, Dataset, _column_interval


def line_read_csv(path, domain=None) -> Dataset:
    """read_csv's result or CsvFormatError, from one loop over the lines."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvFormatError(f"{path}: empty file, expected a header row") from None
        n = len(header) - 1
        expected = [f"x{i + 1}" for i in range(n)] + ["y"]
        if n < 1 or header != expected:
            raise CsvFormatError(
                f"{path}: line 1: bad header {header!r}, expected {expected!r}"
            )
        xs, ys = [], []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != n + 1:
                raise CsvFormatError(
                    f"{path}: line {lineno}: expected {n + 1} fields, got {len(row)}"
                )
            try:
                values = [float(v) for v in row]
            except ValueError as exc:
                raise CsvFormatError(f"{path}: line {lineno}: {exc}") from None
            if not all(map(math.isfinite, values)):
                raise CsvFormatError(f"{path}: line {lineno}: non-finite value in {row!r}")
            xs.append(values[:n])
            ys.append(values[n])
    X = np.asarray(xs, dtype=np.float64).reshape(len(xs), n)
    y = np.asarray(ys, dtype=np.float64)
    if domain is None:
        domain = tuple(_column_interval(X[:, i], f"{path}: column x{i + 1}")
                       for i in range(n))
    return Dataset(X, y, domain)
