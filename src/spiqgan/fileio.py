"""Atomic replacement of output files, and the CSV writer built on it."""

from __future__ import annotations

import csv
import os
from contextlib import contextmanager


@contextmanager
def atomic_path(path):
    """Yield a temporary path beside ``path`` to write the new contents to.

    When the block completes, the temporary file is renamed over ``path``;
    if it raises, the temporary file is removed and ``path`` keeps its
    previous contents, so an interrupted write never leaves a truncated
    artifact behind.
    """
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def write_csv(path, header, rows) -> None:
    """Write ``header`` and then ``rows`` to ``path`` as a UTF-8 CSV with
    LF line ends, through ``atomic_path``."""
    with atomic_path(path) as tmp, open(tmp, "w", encoding="utf-8",
                                        newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
