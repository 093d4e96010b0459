"""Small file helpers shared by the run, analysis and CLI writers."""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path


def fmt(value: float) -> str:
    """Full-precision, locale-independent float text (exact round trip)."""
    return repr(float(value))


def atomic_write_text(path: str | Path, text: str) -> Path:
    """Write a file via temp-and-rename so readers never see partials."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


def write_json(path: str | Path, payload: dict) -> Path:
    """Deterministic JSON: sorted keys, two-space indent, '\\n' newlines."""
    return atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_csv(path: str | Path, header: list[str], rows, comments: list[str] = ()) -> Path:
    """CSV with optional '#'-prefixed comment lines, full float precision."""
    lines = [f"# {c}" for c in comments]
    lines.append(",".join(header))
    # float.__repr__ is fmt's text for a float or a float subclass
    lines += [",".join([float.__repr__(v) if isinstance(v, float) else str(v) for v in row])
              for row in rows]
    return atomic_write_text(path, "\n".join(lines) + "\n")
