"""The file helpers every command shares: reading JSON, rendering a CSV
line and writing files atomically.

They live apart from ``corpus`` so that a query, which writes its rows
through them, does not import the ingest side of the package; ``corpus``
re-exports each of them. CSV sources are read by ``corpus.csv_rows``.
"""

from __future__ import annotations

import csv
import io
import json
import os
from contextlib import contextmanager, suppress
from typing import Iterable


class IngestError(Exception):
    """Unreadable source (I/O or encoding failure) with positional context."""


def csv_line(fields: Iterable) -> str:
    """One RFC-4180 row without the terminator. ``None`` is written as an
    empty field and a float by its ``repr``.

    The writer must see a real line terminator, otherwise fields containing
    bare CR/LF would not get quoted; the terminator is sliced off after.
    """
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\r\n").writerow(fields)
    return buf.getvalue()[:-2]


@contextmanager
def write_atomic(path, binary: bool = False):
    """Open a new file to write ``path``'s content into, and rename it over
    ``path`` once the ``with`` block ends without error.

    The temporary file sits beside ``path`` under a random name, created
    exclusively, so concurrent writers never share one; on an error it is
    removed and ``path`` is left as it was. Unlike ``tempfile.mkstemp``'s
    0600 files, it gets the permissions the process umask gives a new file.
    """
    path = os.fspath(path)
    while True:
        tmp = f"{path}.{os.urandom(8).hex()}.tmp"
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            continue
    try:
        if binary:
            fh = open(fd, "wb")
        else:
            fh = open(fd, "w", encoding="utf-8", newline="")
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def read_json(path, what: str):
    """The JSON value held in the file at ``path``.

    A file that cannot be read, is not UTF-8 JSON, or nests deeper than the
    decoder's recursion limit raises ValueError naming ``what`` and ``path``.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise ValueError(f"cannot read {what} {path}: {exc}") from exc


def write_lines(path, lines: Iterable[str]) -> None:
    """Each of ``lines`` and a newline after it, written atomically to
    ``path``."""
    with write_atomic(path) as fh:
        for line in lines:
            fh.write(line + "\n")
