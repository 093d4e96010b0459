"""Small file helpers shared by the run, analysis and CLI readers and
writers.  Every text file is read and written here, as UTF-8 whatever
the locale, and with ``\n`` line ends kept as they are."""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

from .errors import InputError


def fmt(value: float) -> str:
    """Full-precision, locale-independent float text (exact round trip)."""
    return repr(float(value))


def read_text(path: str | Path, what: str) -> str:
    """The UTF-8 text of a file, with no newline translated; a file that
    does not decode, or a path holding a NUL, raises :class:`InputError`
    naming ``what`` and the path."""
    try:
        with open(path, encoding="utf-8", newline="\n") as handle:
            return handle.read()
    except ValueError as exc:  # UnicodeDecodeError, or a NUL in the path
        raise InputError(f"could not read {what} {path}: {exc}") from None


def read_json(path: str | Path, what: str):
    """:func:`read_text` parsed as JSON; text that is not JSON raises
    :class:`InputError` worded as a decode error."""
    text = read_text(path, what)
    try:
        return json.loads(text)
    except ValueError as exc:  # JSONDecodeError
        raise InputError(f"could not read {what} {path}: {exc}") from None


def atomic_write_text(path: str | Path, text: str) -> Path:
    """Write a file via temp-and-rename so readers never see partials;
    text that cannot be encoded (a lone surrogate, say) raises
    :class:`InputError` naming the file and leaves nothing behind.  The
    file gets the mode ``open()`` would give it, 0o666 less the umask."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # a fresh name of 64 random bits, opened exclusively; O_BINARY keeps
    # Windows from translating "\n"
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0),
                 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        if isinstance(exc, UnicodeEncodeError):
            raise InputError(f"could not write {path}: {exc}") from None
        raise
    return path


def _finite_or_none(value):
    if isinstance(value, dict):
        return {key: _finite_or_none(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return list(map(_finite_or_none, value))
    return None if isinstance(value, float) and not math.isfinite(value) else value


def write_json(path: str | Path, payload: dict) -> Path:
    """Deterministic, strict JSON: sorted keys, two-space indent, '\\n'
    newlines, and each number that is not finite written as ``null``."""
    text = json.dumps(_finite_or_none(payload), indent=2, sort_keys=True, allow_nan=False)
    return atomic_write_text(path, text + "\n")


def csv_text(header: list[str], columns, comments: list[str] = ()) -> str:
    """``# ``-prefixed comment lines, the header and one row per index of
    the columns.  An array column gives each value of its ``.tolist()``
    as ``str``, which for a float is :func:`fmt`'s text; any other column
    is a sequence of strings that passes unchanged."""
    lines = [f"# {c}" for c in comments]
    lines.append(",".join(header))
    columns = [map(str, c.tolist()) if hasattr(c, "tolist") else c for c in columns]
    lines += map(",".join, zip(*columns, strict=True))
    return "\n".join(lines) + "\n"


def write_csv(path: str | Path, header: list[str], columns,
              comments: list[str] = ()) -> Path:
    """Write :func:`csv_text` of a table."""
    return atomic_write_text(path, csv_text(header, columns, comments))
