"""Line-oriented text input, atomic file writing and content hashing.

Every corpus and evaluation text file is read by one line rule: UTF-8
without a byte-order mark, ``\n`` or ``\r\n`` line ends stripped, lines
that are empty or hold only whitespace skipped but counted, so that an
error names ``path:line``. All artifact writes go through the atomic
helpers (temp file in the target directory, then rename) so partially
written outputs never appear under their final names.
"""

from __future__ import annotations

import hashlib
import math
import os
import tempfile
from collections.abc import Collection, Iterator
from pathlib import Path

from .errors import DataError


def read_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """``(line number, line)`` for each line of a UTF-8 file that holds
    more than whitespace, line end stripped, numbered from 1 with the
    skipped lines counted. Only ``\n`` ends a line, as for ``wc -l``, and
    a ``\r`` before it is stripped too. Any other ``\r`` raises
    ``DataError`` naming ``path:line``, and so does a leading byte-order
    mark, which would hide the first line's language.

    The file is decoded and split once; only a file that holds a ``\r``
    is checked line by line."""
    with open(path, encoding="utf-8", newline="\n") as fh:
        text = fh.read()
    lines = text.split("\n")
    if "\r" in text:
        lines = _strip_line_ends(path, lines)
    elif lines[0].startswith("\ufeff"):
        raise DataError(f"{path}:1: starts with a UTF-8 byte-order mark")
    for lineno, line in enumerate(lines, start=1):
        if line and not line.isspace():
            yield lineno, line


def _strip_line_ends(path: str | Path, lines: list[str]) -> Iterator[str]:
    """``lines`` (the file split at each ``\n``) with the ``\r`` before
    each ``\n`` stripped, raising ``DataError`` at the first line that
    holds any other ``\r`` or starts the file with a byte-order mark."""
    for lineno, line in enumerate(lines, start=1):
        if lineno < len(lines):  # every piece but the last ended in \n
            line = line.removesuffix("\r")
        if "\r" in line:
            raise DataError(f"{path}:{lineno}: carriage return inside a line")
        if lineno == 1 and line.startswith("\ufeff"):
            raise DataError(f"{path}:1: starts with a UTF-8 byte-order mark")
        yield line


def read_rows(path: str | Path, widths: Collection[int], layout: str) -> Iterator[tuple[int, list[str]]]:
    """``(line number, columns)`` for each ``read_lines`` line split on tabs;
    a line whose column count is not in ``widths`` raises ``DataError``
    naming ``path:line`` and the expected ``layout``."""
    for lineno, line in read_lines(path):
        cols = line.split("\t")
        if len(cols) not in widths:
            raise DataError(f"{path}:{lineno}: expected {layout}, got {len(cols)}")
        yield lineno, cols


def parse_score(text: str, path: str | Path, lineno: int) -> float:
    """``text`` as a finite float, else ``DataError`` naming ``path:line``."""
    try:
        score = float(text)
    except ValueError:
        score = math.nan
    if not math.isfinite(score):
        raise DataError(f"{path}:{lineno}: bad score {text!r}")
    return score


def atomic_write_bytes(path: str | Path, data: bytes) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str | Path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def sha256_file(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()
