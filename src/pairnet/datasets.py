"""The three synthetic regression benchmarks and their exact grids.

All three target functions map (x, y, z) with positive coordinates to one
real output:

    f1 = (1 + x^0.5 + y^-1 + z^-1.5)^2
    f2 = x^1.25 * sin(x^0.15 - z^0.05) + y^1.25 + z^0.15
    f3 = (1 + x^0.25 * z + y^0.5 * z^-1 + z^-0.05)^2

The training grid is the 20^3 integer lattice {1..20}^3 enumerated as
x = 1 + floor(k/400), y = 1 + floor(k/20) mod 20, z = 1 + k mod 20 for
k = 0..7999; the test grid is the 19^3 half-integer lattice
{1.5..19.5}^3 enumerated the same way with stride 361/19 for
j = 0..6858. Targets are noise-free. Over the training grid the targets
span [4.248, 55.833], [2.0, 66.023] and [16.0, 1969.527] respectively.

Datasets round-trip through CSV ("x1,...,xn,y" header, shortest
round-trip decimal encoding) without any loss.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .ioutil import write_csv_rows
from .partition import Interval

__all__ = [
    "Dataset",
    "BENCHMARKS",
    "CsvFormatError",
    "benchmark_eval",
    "gen_train",
    "gen_test",
    "read_csv",
    "write_csv",
]

TRAIN_DOMAIN = (Interval(1.0, 20.0), Interval(1.0, 20.0), Interval(1.0, 20.0))
_MAX_TARGET = math.sqrt(np.finfo(np.float64).max)   # the largest |y| with a finite square

# ASCII file, group, record and unit separators: numpy's text reader
# skips them as whitespace, float() refuses them.
_SEPARATORS = "\x1c\x1d\x1e\x1f"


class CsvFormatError(ValueError):
    """Malformed dataset CSV; the message names the offending line."""


@dataclass(frozen=True)
class Dataset:
    """Rows of (x_1..x_n, y) plus the domain box the x's live in.

    Every value must be finite, and so must every target's square
    (|y| <= about 1.34e154); a value that is not is rejected with the
    index of its row.
    """

    X: np.ndarray
    y: np.ndarray
    domain: tuple[Interval, ...]

    def __post_init__(self):
        object.__setattr__(self, "X", np.asarray(self.X, dtype=np.float64))
        object.__setattr__(self, "y", np.asarray(self.y, dtype=np.float64))
        if self.X.ndim != 2:
            raise ValueError(f"X must be 2-dimensional, got shape {self.X.shape}")
        if self.y.shape != (self.X.shape[0],):
            raise ValueError(f"y shape {self.y.shape} does not match {self.X.shape[0]} rows")
        if len(self.domain) != self.X.shape[1]:
            raise ValueError(
                f"domain has {len(self.domain)} intervals for {self.X.shape[1]} columns"
            )
        bad = ~(np.isfinite(self.X).all(axis=1) & np.isfinite(self.y))
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(
                f"row {i} (counting from 0) is not finite: x={self.X[i].tolist()}, "
                f"y={float(self.y[i])!r}"
            )
        big = np.abs(self.y) > _MAX_TARGET   # compared, never squared
        if big.any():
            i = int(np.argmax(big))
            raise ValueError(f"row {i} (counting from 0) has target y={float(self.y[i])!r}, "
                             f"whose square overflows: |y| must be at most {_MAX_TARGET!r}")

    @property
    def n(self) -> int:
        return self.X.shape[1]

    def __len__(self) -> int:
        return self.X.shape[0]


def _f1(x, y, z):
    return (1.0 + x**0.5 + y**-1.0 + z**-1.5) ** 2


def _f2(x, y, z):
    return x**1.25 * np.sin(x**0.15 - z**0.05) + y**1.25 + z**0.15


def _f3(x, y, z):
    return (1.0 + x**0.25 * z + y**0.5 / z + z**-0.05) ** 2


BENCHMARKS = {"f1": _f1, "f2": _f2, "f3": _f3}


def benchmark_eval(tag: str, x, y, z):
    """Evaluate one benchmark function; coordinates must be positive."""
    if tag not in BENCHMARKS:
        raise ValueError(f"unknown benchmark {tag!r}; expected one of {sorted(BENCHMARKS)}")
    x, y, z = (np.asarray(v, dtype=np.float64) for v in (x, y, z))
    if np.any(x <= 0) or np.any(y <= 0) or np.any(z <= 0):
        raise ValueError("benchmark inputs must be positive (negative powers)")
    out = BENCHMARKS[tag](x, y, z)
    return float(out) if out.ndim == 0 else out


def gen_train(tag: str) -> Dataset:
    """The 8000-row training grid for one benchmark."""
    k = np.arange(8000)
    x = 1.0 + k // 400
    y = 1.0 + (k // 20) % 20
    z = 1.0 + k % 20
    return Dataset(np.column_stack([x, y, z]), benchmark_eval(tag, x, y, z), TRAIN_DOMAIN)


def gen_test(tag: str) -> Dataset:
    """The 6859-row test grid; every point is interior to the domain."""
    j = np.arange(6859)
    x = 1.5 + j // 361
    y = 1.5 + (j // 19) % 19
    z = 1.5 + j % 19
    return Dataset(np.column_stack([x, y, z]), benchmark_eval(tag, x, y, z), TRAIN_DOMAIN)


def write_csv(dataset: Dataset, path) -> None:
    """Write a dataset as UTF-8 CSV with exact decimal values."""
    write_csv_rows(path, [[f"x{i + 1}" for i in range(dataset.n)] + ["y"],
                          *([repr(float(v)) for v in row] + [repr(float(target))]
                            for row, target in zip(dataset.X, dataset.y))])


def read_csv(path, domain: tuple[Interval, ...] | None = None) -> Dataset:
    """Read a dataset CSV written by write_csv (or compatible).

    The header must be x1,...,xn,y, and every field a finite number;
    the error for a bad field names its line. When no domain is given it is
    inferred from the per-column min/max (degenerate columns are padded
    by half a unit each way, or by one float step where rounding loses
    that half unit).

    The body is parsed by numpy's C reader. When that parse fails, finds
    a non-finite value, the wrong column count or no rows at all, the
    body is parsed again line by line, which gives the result or the
    error for the bad line.
    """
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
        body = fh.read()
    data = _fast_rows(path, body)
    if data is not None and data.shape[1] == n + 1 and np.isfinite(data).all():
        X, y = np.ascontiguousarray(data[:, :n]), data[:, n].copy()
    else:
        X, y = _read_rows(body, n, path)
    if domain is None:
        domain = tuple(_column_interval(X[:, i], f"{path}: column x{i + 1}")
                       for i in range(n))
    return Dataset(X, y, domain)


def _fast_rows(path, body: str) -> np.ndarray | None:
    """The body's rows (rows, fields) by numpy's C reader, or None when
    it holds no rows or the reader refuses it; whatever this returns,
    _read_rows parses to the same values. A body with _SEPARATORS is
    left to _read_rows. The reader reads the file at path itself, in
    chunks, past its header (a valid header is one line): reading the
    body from an io.StringIO held four bytes per character."""
    if not body.strip() or any(c in body for c in _SEPARATORS):
        return None
    try:
        return np.loadtxt(path, skiprows=1, delimiter=",", comments=None, ndmin=2,
                          dtype=np.float64, encoding="utf-8")
    except ValueError:
        return None


def _read_rows(body: str, n: int, path) -> tuple[np.ndarray, np.ndarray]:
    """X (rows, n) and y (rows,) from the body, line by line; the error
    for a bad field names its line."""
    xs, ys = [], []
    for lineno, row in enumerate(csv.reader(io.StringIO(body, newline="")), start=2):
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
    return X, y


def _column_interval(col: np.ndarray, where: str) -> Interval:
    """[min, max] of the column. A one-valued column is padded by half a
    unit each way or, where rounding loses that half unit on both sides
    (magnitudes of 2^52 and more), by one float step each way. A column
    whose width max - min overflows is refused."""
    if col.size == 0:
        return Interval(0.0, 1.0)
    lo, hi = float(col.min()), float(col.max())
    if lo == hi:
        value = lo
        lo, hi = value - 0.5, value + 0.5
        if lo == hi:
            lo, hi = math.nextafter(value, -math.inf), math.nextafter(value, math.inf)
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise CsvFormatError(
                    f"{where}: every value is {value!r}, which has no finite neighbour "
                    "to pad its domain to"
                )
    try:
        return Interval(lo, hi)
    except ValueError as exc:   # e.g. a width hi - lo past the float range
        raise CsvFormatError(f"{where}: {exc}") from None
