"""Atomic text output, CSV rows too: write a sibling temp file, then rename."""

from __future__ import annotations

import csv
import io
import os
import tempfile

__all__ = ["atomic_write_text", "write_csv_rows"]


def atomic_write_text(path, text: str) -> None:
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_csv_rows(path, rows) -> None:
    """Write rows as UTF-8 CSV lines ended by a newline, header first (atomically)."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    atomic_write_text(path, buf.getvalue())
