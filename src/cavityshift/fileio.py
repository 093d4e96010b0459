"""Small file helpers shared by the run, analysis and CLI writers."""

from __future__ import annotations

import json
import math
import os
import tempfile
from pathlib import Path

from .errors import InputError


def fmt(value: float) -> str:
    """Full-precision, locale-independent float text (exact round trip)."""
    return repr(float(value))


def atomic_write_text(path: str | Path, text: str) -> Path:
    """Write a file via temp-and-rename so readers never see partials;
    text that cannot be encoded (a lone surrogate, say) raises
    :class:`InputError` naming the file and leaves nothing behind."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="\n") as handle:
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
