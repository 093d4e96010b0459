"""Property tests of the run-file reader on mutated curve files and
manifests.

``read_curve_csv`` parses a curve's data block in one piece and leaves
any block that does not parse cleanly to its line loop.  The line-loop
reader it replaced is kept below, verbatim, as the oracle: on every
mutated file both must accept with bit-identical arrays and metadata, or
both must reject with the same message.
"""

from __future__ import annotations

import json
import math
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from cavityshift import (InputError, InstrumentConfig, calibrate_defaults, plan_sweep,
                         read_run, run_paired_experiment, write_run)
from cavityshift.protocol import CSV_COLUMNS, TransitionCurve, read_curve_csv


def oracle_read_curve_csv(path: str | Path) -> TransitionCurve:
    """Load one curve file; every line after the column header must hold
    two finite numbers, otherwise :class:`InputError` names the line, and
    a header value that does not parse raises one naming its key."""
    meta: dict[str, str] = {}
    temps: list[float] = []
    res: list[float] = []
    with open(path, "r", newline="\n") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line == CSV_COLUMNS:
                continue
            if line.startswith("#"):
                key, _, value = line[1:].strip().partition("=")
                meta[key.strip()] = value
                continue
            t_text, _, r_text = line.partition(",")
            try:
                t, r = float(t_text), float(r_text)
            except ValueError:  # also a missing or a third column
                t = r = math.nan
            if not (math.isfinite(t) and math.isfinite(r)):
                raise InputError(
                    f"{path}, line {lineno}: expected two finite numbers, got {line!r}")
            temps.append(t)
            res.append(r)
    if "field_gauss" not in meta or "kind" not in meta:
        raise InputError(f"curve file {path} is missing header metadata")

    def header_value(key: str, parse, default=None):
        if key not in meta:
            return default
        try:
            return parse(meta[key])
        except ValueError:
            raise InputError(f"{path}: header {key}={meta[key]!r} is not "
                             f"a valid {parse.__name__}") from None

    flags = tuple(f for f in meta.get("flags", "").split(";") if f)
    return TransitionCurve(
        field=header_value("field_gauss", float), kind=meta["kind"],
        temperatures=np.array(temps), resistances=np.array(res),
        repetition=header_value("repetition", int, 0),
        seed_path=meta.get("seed_path", ""), flags=flags,
        oracle_t_star=header_value("oracle_t_star_K", float))


@pytest.fixture(scope="module")
def run_text():
    """A small simulated run: {file name: text} of its curves and manifest."""
    params = calibrate_defaults()
    cfg = InstrumentConfig(seed=5, base_temperature=1.31)  # a few clamped setpoints
    plan = replace(plan_sweep(params, cfg, [50.0, 200.0]), n_points=24)
    with tempfile.TemporaryDirectory() as tmp:
        manifest = write_run(tmp, run_paired_experiment(params, cfg, plan), {"seed": 5})
        return {path.name: path.read_text() for path in manifest.parent.iterdir()}


# -- curve-file mutations -----------------------------------------------------

numbers = st.one_of(
    st.floats(1.2, 1.8).map(repr),
    st.floats().map(repr),                      # includes nan and +-inf
    st.sampled_from(["1_0", "1.3_5", "１", "1e999", "-1e999", "0x10", "", " ",
                     "nan", "+inf", "Infinity", "-0.0", "1.3\x0c", "\xa01.3", "1.3\r",
                     "1e", "1.5d0", "\x00"]),
)
other_lines = st.sampled_from(
    ["", "   ", "\r", "\x0c", "#", "# note", "# kind=cavity", "# field_gauss=x",
     CSV_COLUMNS, f" {CSV_COLUMNS}\r", "1.5;3.0", "1.3,2.0\r1.4,3.0", "T,R"])
bad_lines = st.one_of(
    numbers,                                           # one column
    st.tuples(numbers, numbers).map(",".join),
    st.tuples(numbers, numbers, numbers).map(",".join),
    other_lines,
)


def respell(line: str, style: int) -> str:
    """The same row in another accepted spelling, or the line as it is."""
    t_text, comma, r_text = line.partition(",")
    try:
        t, r = float(t_text), float(r_text)
    except ValueError:
        return line
    spellings = (f" {t!r} , {r!r} ", f"{t:.17e},{r:+.17g}", f"\t{t!r},{r!r}\r",
                 f"{t!r},{r!r}\x0c", f"\xa0{t!r},{r!r}")
    return spellings[style % len(spellings)] if comma else line


edits = st.one_of(
    st.tuples(st.just("replace"), st.integers(0, 10**6), bad_lines),
    st.tuples(st.just("insert"), st.integers(0, 10**6), bad_lines),
    st.tuples(st.just("respell"), st.integers(0, 10**6), st.integers(0, 4)),
    st.tuples(st.just("swap"), st.integers(0, 10**6), st.integers(1, 3)),
    st.tuples(st.just("delete"), st.integers(0, 10**6), st.integers(1, 30)),
)


def mutate(text: str, changes, crlf: bool, final_newline: bool) -> str:
    lines = text.split("\n")[:-1]
    for op, index, arg in changes:
        i = index % (len(lines) + 1)  # len(lines) appends, or edits nothing
        if op == "insert":
            lines.insert(i, arg)
        elif op == "delete":
            del lines[i:i + arg]
        elif op == "swap":
            if i + arg < len(lines):
                lines[i], lines[i + arg] = lines[i + arg], lines[i]
        elif i < len(lines):
            lines[i] = arg if op == "replace" else respell(lines[i], arg)
    newline = "\r\n" if crlf else "\n"
    return newline.join(lines) + (newline if final_newline else "")


def outcome(reader, path):
    try:
        return reader(path)
    except InputError as exc:
        return str(exc)


def assert_same_curve(curve: TransitionCurve, expected: TransitionCurve):
    for name in ("kind", "repetition", "seed_path", "flags"):
        assert getattr(curve, name) == getattr(expected, name), name
    for name in ("field", "oracle_t_star"):
        assert repr(getattr(curve, name)) == repr(getattr(expected, name)), name
    for name in ("temperatures", "resistances"):
        got, want = getattr(curve, name), getattr(expected, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name
        # contiguous rows keep every later BLAS reduction bit for bit
        assert got.flags.c_contiguous, name


@settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(file_index=st.integers(0, 3), changes=st.lists(edits, max_size=4),
       crlf=st.booleans(), final_newline=st.booleans())
@example(file_index=0, changes=[], crlf=False, final_newline=True)
@example(file_index=0, changes=[], crlf=True, final_newline=True)
@example(file_index=1, changes=[("delete", 8, 30)], crlf=False, final_newline=True)
@example(file_index=1, changes=[("delete", 8, 30), ("insert", 8, "")], crlf=False,
         final_newline=True)
@example(file_index=1, changes=[("insert", 32, ""), ("insert", 33, "# kind=cavity")],
         crlf=False, final_newline=True)
@example(file_index=2, changes=[("insert", 12, CSV_COLUMNS)], crlf=False, final_newline=True)
@example(file_index=2, changes=[("replace", 31, "1_0,2.0")], crlf=False, final_newline=True)
@example(file_index=3, changes=[("insert", 20, "\r"), ("insert", 0, "1.3,2.0")],
         crlf=False, final_newline=False)
def test_reader_agrees_with_line_loop_oracle(run_text, tmp_path, file_index, changes,
                                             crlf, final_newline):
    name = sorted(n for n in run_text if n.endswith(".csv"))[file_index]
    path = tmp_path / name
    path.write_text(mutate(run_text[name], changes, crlf, final_newline), newline="")
    expected = outcome(oracle_read_curve_csv, path)
    got = outcome(read_curve_csv, path)
    if isinstance(expected, str):
        # the oracle let curve errors through without naming the file
        assert got == (expected if str(path) in expected else f"{path}: {expected}")
    else:
        assert not isinstance(got, str), got
        assert_same_curve(got, expected)


# -- manifest mutations -------------------------------------------------------

json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-5, 300), st.floats(),
              st.text(alphabet="abc_./", max_size=6)),
    lambda children: st.one_of(st.lists(children, max_size=3),
                               st.dictionaries(st.text("abc", max_size=3), children,
                                               max_size=3)),
    max_leaves=6)
DROP = "<drop the key>"
entry_keys = st.sampled_from(["file", "field_gauss", "kind", "repetition", "n_points",
                              "seed_path"])
# (where, key, value): "top" sets or drops a manifest key, "entry" replaces
# a curve entry, "entry_key" sets or drops one key of an entry, "whole"
# replaces the manifest
manifest_edits = st.one_of(
    st.tuples(st.just("top"), st.sampled_from(["format_version", "curves", "config"]),
              st.one_of(st.just(DROP), json_values)),
    st.tuples(st.just("entry"), st.tuples(st.integers(0, 10), st.none()), json_values),
    st.tuples(st.just("entry_key"), st.tuples(st.integers(0, 10), entry_keys),
              st.one_of(st.just(DROP), json_values,
                        st.sampled_from(["run.json", "curve_001_film_rep0.csv"]))),
    st.tuples(st.just("whole"), st.none(), json_values),
)


def set_or_drop(mapping: dict, key, value):
    if value == DROP:
        mapping.pop(key, None)
    else:
        mapping[key] = value


def mutate_manifest(manifest, changes):
    for where, key, value in changes:
        if where == "whole":
            manifest = value
        elif not isinstance(manifest, dict):
            continue
        elif where == "top":
            set_or_drop(manifest, key, value)
        elif isinstance(manifest.get("curves"), list) and manifest["curves"]:
            entries = manifest["curves"]
            index = key[0] % len(entries)
            if where == "entry":
                entries[index] = value
            elif isinstance(entries[index], dict):
                set_or_drop(entries[index], key[1], value)
    return manifest


@settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(manifest_changes=st.lists(manifest_edits, max_size=3),
       file_index=st.integers(0, 3), changes=st.lists(edits, max_size=3),
       crlf=st.booleans())
def test_only_input_or_os_errors_escape_read_run(run_text, manifest_changes, file_index,
                                                 changes, crlf):
    names = sorted(n for n in run_text if n.endswith(".csv"))
    manifest = mutate_manifest(json.loads(run_text["run.json"]), manifest_changes)
    with tempfile.TemporaryDirectory() as tmp:
        run = Path(tmp)
        for name in names:
            (run / name).write_text(run_text[name])
        name = names[file_index]
        (run / name).write_text(mutate(run_text[name], changes, crlf, True), newline="")
        (run / "run.json").write_text(json.dumps(manifest))
        try:
            curves, _ = read_run(run / "run.json")
        except (InputError, OSError):
            return
    assert all(isinstance(curve, TransitionCurve) for curve in curves)
