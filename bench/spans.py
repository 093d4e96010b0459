"""Span recorder for the traced benchmark run.

Each traced function is replaced by a timing wrapper at the place where
its caller looks it up (a module attribute), so the package itself is
not modified.  A span is (name, start, end, parent); spans live in
memory until :meth:`Tracer.write` saves them at the end of the run.
The recorder assumes one thread, which is how the benchmark calls the
package.
"""

from __future__ import annotations

import gzip
import json
import time
from pathlib import Path


class Tracer:
    """In-memory spans plus a small note per span (e.g. LM iterations)."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []     # ns, perf_counter_ns
        self.ends: list[int] = []
        self.parents: list[int] = []    # index of the enclosing span, -1 at top
        self.notes: list[dict | None] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, note=None):
        """Return ``fn`` wrapped in a span; ``note(args, kwargs, result)``
        may return a dict kept with the span."""
        names, starts, ends = self.names, self.starts, self.ends
        parents, notes, stack = self.parents, self.notes, self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            starts.append(0)
            ends.append(0)
            notes.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                ends[idx] = clock()
                starts[idx] = start
                stack.pop()
                notes[idx] = {"error": type(exc).__name__}
                raise
            ends[idx] = clock()
            starts[idx] = start
            stack.pop()
            if note is not None:
                notes[idx] = note(args, kwargs, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, note=None) -> None:
        original = getattr(owner, attr)
        setattr(owner, attr, self.wrap(name, original, note))
        self._patched.append((owner, attr, original))

    def unpatch(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # --- analysis ------------------------------------------------------------

    def self_times(self) -> list[int]:
        """Duration of each span minus the time covered by its children."""
        own = [e - s for s, e in zip(self.starts, self.ends)]
        self_ns = list(own)
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                self_ns[parent] -= own[idx]
        return self_ns

    def write(self, path: Path) -> None:
        """Save every span as gzipped JSON: a name table,
        [name_id, start_ns, end_ns, parent] rows and the notes by row."""
        table = sorted(set(self.names))
        ids = {n: i for i, n in enumerate(table)}
        rows = [[ids[n], s, e, p] for n, s, e, p in
                zip(self.names, self.starts, self.ends, self.parents)]
        notes = {i: note for i, note in enumerate(self.notes) if note}
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as handle:
            json.dump({"names": table, "spans": rows, "notes": notes}, handle,
                      separators=(",", ":"))

