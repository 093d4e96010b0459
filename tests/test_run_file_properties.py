"""Property tests of the run-file reader on mutated curve files and
manifests, and of the table writer on arbitrary columns.

``read_curve_csv`` parses a curve's data block in one piece and leaves
any block that does not parse cleanly to its line loop.  The line-loop
reader it replaced is kept below as the oracle, verbatim but for the
later rule that ``field_gauss`` be finite and nonnegative and for the
retired ``seed_path`` and ``oracle_t_star_K`` keys, now skipped: on every
mutated file both must accept with bit-identical arrays and metadata, or
both must reject with the same message.

``fileio.csv_text`` writes every table column by column.  The two
row-wise formatters it replaced, one for curve files and one for every
other table, are kept below as oracles, verbatim but for the curve
header, which has shrunk to its four read keys: both must give the same
text on every input.
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

from cavityshift import (InputError, InstrumentConfig, ModelParams, plan_sweep,
                         read_run, run_paired_experiment, write_run)
from cavityshift.fileio import csv_text, fmt
from cavityshift.protocol import CSV_COLUMNS, TransitionCurve, read_curve_csv


def oracle_read_curve_csv(path: str | Path) -> TransitionCurve:
    """Load one curve file; every line after the column header must hold
    two finite numbers, otherwise :class:`InputError` names the line, and
    a header value that does not parse, or a ``field_gauss`` that is not
    finite and nonnegative, raises one naming its key."""
    meta: dict[str, str] = {}
    temps: list[float] = []
    res: list[float] = []
    with open(path, "r", newline="\n", encoding="utf-8") as handle:
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

    field = header_value("field_gauss", float)
    if not (0 <= field < math.inf):
        raise InputError(f"{path}: header field_gauss={meta['field_gauss']!r} "
                         f"must be finite and nonnegative")
    flags = tuple(f for f in meta.get("flags", "").split(";") if f)
    return TransitionCurve(
        field=field, kind=meta["kind"],
        temperatures=np.array(temps), resistances=np.array(res),
        repetition=header_value("repetition", int, 0), flags=flags)


#: A curve file of the run below: its four header lines and the column
#: header come first, then its N_ROWS data rows, so line FIRST_ROW is the
#: first data row and line END appends after the last.
FIRST_ROW, N_ROWS = 5, 24
END = FIRST_ROW + N_ROWS


@pytest.fixture(scope="module")
def run_text():
    """A small simulated run: {file name: text} of its curves and manifest."""
    params = ModelParams()
    cfg = InstrumentConfig(seed=5, base_temperature=1.31)  # a few clamped setpoints
    plan = replace(plan_sweep(params, cfg, [50.0, 200.0]), n_points=N_ROWS)
    with tempfile.TemporaryDirectory() as tmp:
        manifest = write_run(tmp, run_paired_experiment(params, cfg, plan), {"seed": 5})
        return {path.name: path.read_text(encoding="utf-8")
                for path in manifest.parent.iterdir()}


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
     "# field_gauss=-50.0", "# field_gauss=inf", "# field_gauss=nan", CSV_COLUMNS,
     f" {CSV_COLUMNS}\r", "1.5;3.0", "1.3,2.0\r1.4,3.0", "T,R"])
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
    for name in ("kind", "repetition", "flags"):
        assert getattr(curve, name) == getattr(expected, name), name
    assert repr(curve.field) == repr(expected.field)
    for name in ("temperatures", "resistances"):
        got, want = getattr(curve, name), getattr(expected, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name
        # contiguous rows keep every later BLAS reduction bit for bit
        assert got.flags.c_contiguous, name


def test_curve_files_hold_the_rows_the_examples_point_at(run_text):
    # the examples below delete every data row, append after the last,
    # and edit the last, by these line indices
    for name in (n for n in run_text if n.endswith(".csv")):
        lines = run_text[name].split("\n")[:-1]
        assert len(lines) == END, name
        assert lines[FIRST_ROW - 1] == CSV_COLUMNS, name
        assert lines[0].startswith("# field_gauss="), name
        assert not lines[FIRST_ROW].startswith("#"), name


@settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(file_index=st.integers(0, 3), changes=st.lists(edits, max_size=4),
       crlf=st.booleans(), final_newline=st.booleans())
@example(file_index=0, changes=[], crlf=False, final_newline=True)
@example(file_index=0, changes=[], crlf=True, final_newline=True)
@example(file_index=1, changes=[("delete", FIRST_ROW, N_ROWS)], crlf=False,
         final_newline=True)
@example(file_index=1, changes=[("delete", FIRST_ROW, N_ROWS), ("insert", FIRST_ROW, "")],
         crlf=False, final_newline=True)
@example(file_index=1, changes=[("insert", END, ""), ("insert", END + 1, "# kind=cavity")],
         crlf=False, final_newline=True)
@example(file_index=2, changes=[("insert", FIRST_ROW + 4, CSV_COLUMNS)], crlf=False,
         final_newline=True)
@example(file_index=2, changes=[("replace", END - 1, "1_0,2.0")], crlf=False,
         final_newline=True)
@example(file_index=3, changes=[("insert", FIRST_ROW + 12, "\r"), ("insert", 0, "1.3,2.0")],
         crlf=False, final_newline=False)
@example(file_index=0, changes=[("insert", 1, "# field_gauss=-50.0")], crlf=False,
         final_newline=True)
def test_reader_agrees_with_line_loop_oracle(run_text, tmp_path, file_index, changes,
                                             crlf, final_newline):
    name = sorted(n for n in run_text if n.endswith(".csv"))[file_index]
    path = tmp_path / name
    path.write_text(mutate(run_text[name], changes, crlf, final_newline), newline="",
                    encoding="utf-8")
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
                        st.sampled_from(["run.json", "curve_001_film_rep0.csv",
                                         "curve\x00.csv"]))),
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


# bytes that are not UTF-8: a lone 0xff, a truncated two-byte sequence
# and an encoded surrogate
bad_bytes = st.tuples(st.integers(0, 10**6),
                      st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80"]))


@settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(manifest_changes=st.lists(manifest_edits, max_size=3),
       file_index=st.integers(0, 3), changes=st.lists(edits, max_size=3),
       crlf=st.booleans(), undecodable=st.none() | bad_bytes,
       manifest_cut=st.none() | st.integers(0, 10**6))
@example(manifest_changes=[], file_index=2, changes=[], crlf=False,
         undecodable=(7787, b"\xff"), manifest_cut=None)
@example(manifest_changes=[], file_index=0, changes=[], crlf=False, undecodable=None,
         manifest_cut=1)
@example(manifest_changes=[("entry_key", (1, "file"), "curve\x00.csv")], file_index=0,
         changes=[], crlf=False, undecodable=None, manifest_cut=None)
def test_only_input_or_os_errors_escape_read_run(run_text, manifest_changes, file_index,
                                                 changes, crlf, undecodable, manifest_cut):
    """Also with undecodable bytes in a curve file and a manifest cut short
    (``manifest_cut`` characters kept); those errors name the file."""
    names = sorted(n for n in run_text if n.endswith(".csv"))
    manifest = mutate_manifest(json.loads(run_text["run.json"]), manifest_changes)
    with tempfile.TemporaryDirectory() as tmp:
        run = Path(tmp)
        for name in names:
            (run / name).write_text(run_text[name], encoding="utf-8")
        name = names[file_index]
        data = mutate(run_text[name], changes, crlf, True).encode()
        if undecodable is not None:
            at = undecodable[0] % (len(data) + 1)
            data = data[:at] + undecodable[1] + data[at:]
        (run / name).write_bytes(data)
        text = json.dumps(manifest)
        (run / "run.json").write_text(text if manifest_cut is None
                                      else text[:manifest_cut % len(text)],
                                      encoding="utf-8")
        try:
            curves, _ = read_run(run / "run.json")
        except OSError:
            return
        except InputError as exc:
            # a decoding or JSON error names the file it was read from
            if "codec can't decode" in str(exc) or "(char " in str(exc):
                assert str(run) in str(exc)
            return
    assert all(isinstance(curve, TransitionCurve) for curve in curves)


# -- table text ---------------------------------------------------------------

def oracle_curve_text(curve: TransitionCurve, temperature_text: list[str]) -> str:
    """A curve file's text, given ``repr`` of each of its temperatures (the
    same text as :func:`fmt`, which every curve of a plan can share)."""
    lines = [
        f"# field_gauss={fmt(curve.field)}",
        f"# kind={curve.kind}",
        f"# repetition={curve.repetition}",
        f"# flags={';'.join(curve.flags)}",
        CSV_COLUMNS,
    ]
    lines += [f"{t},{r!r}" for t, r in zip(temperature_text, curve.resistances.tolist())]
    return "\n".join(lines) + "\n"


def oracle_write_csv_text(header: list[str], rows, comments: list[str] = ()) -> str:
    """CSV with optional '#'-prefixed comment lines, full float precision.

    (The row-wise ``write_csv`` formatter, returning the text it wrote.)"""
    lines = [f"# {c}" for c in comments]
    lines.append(",".join(header))
    # float.__repr__ is fmt's text for a float or a float subclass
    lines += [",".join([float.__repr__(v) if isinstance(v, float) else str(v) for v in row])
              for row in rows]
    return "\n".join(lines) + "\n"


table_floats = st.one_of(st.floats(), st.sampled_from(
    [-0.0, 5e-324, -5e-324, 1e16, 1e-5, 1e-4, 0.1, 1e22, math.nan, -math.inf]))
texts = st.text(st.characters(blacklist_characters="\n,"), max_size=8)


@st.composite
def tables(draw):
    """(header, columns, comments): columns of floats or ints as arrays,
    and of strings as lists."""
    n_rows = draw(st.integers(0, 12))
    columns = []
    for kind in draw(st.lists(st.sampled_from(["float", "int", "str"]),
                              min_size=1, max_size=6)):
        if kind == "str":
            columns.append(draw(st.lists(st.one_of(texts, table_floats.map(repr)),
                                         min_size=n_rows, max_size=n_rows)))
            continue
        values = draw(st.lists(table_floats if kind == "float"
                               else st.integers(-2 ** 63, 2 ** 63 - 1),
                               min_size=n_rows, max_size=n_rows))
        columns.append(np.array(values, dtype=kind))
    header = draw(st.lists(texts, min_size=len(columns), max_size=len(columns)))
    return header, columns, draw(st.lists(texts, max_size=3))


@settings(deadline=None, max_examples=300)
@given(table=tables())
@example(table=(["x", "flag"], [np.array([-0.0, 5e-324, 1e16, 1e-5, math.nan]),
                                np.array([True, False, True, False, True]).astype(int)],
                ["note=1"]))
def test_csv_text_matches_row_wise_writer(table):
    header, columns, comments = table
    assert csv_text(header, columns, comments) == oracle_write_csv_text(
        header, zip(*columns), comments)


@settings(deadline=None, max_examples=100)
@given(n=st.integers(0, 8), data=st.data(), field=st.floats(0, 1e3),
       kind=st.sampled_from(["film", "cavity"]), repetition=st.integers(0, 99),
       flags=st.lists(st.sampled_from(["clamped:0", "midpoint-outside-central-80pct"])
                      | texts, max_size=2))
def test_curve_file_matches_row_wise_writer(n, data, field, kind, repetition, flags):
    """A flag without UTF-8 text (a lone surrogate) writes no file."""
    steps = data.draw(st.lists(st.floats(1e-9, 1e-2), min_size=n, max_size=n))
    temperatures = 1.3 + np.cumsum(steps)
    resistances = np.array(data.draw(st.lists(table_floats, min_size=n, max_size=n)))
    curve = TransitionCurve(field=field, kind=kind, temperatures=temperatures,
                            resistances=resistances, repetition=repetition,
                            flags=tuple(flags))
    with tempfile.TemporaryDirectory() as tmp:
        try:
            "".join(flags).encode()
        except UnicodeEncodeError:
            with pytest.raises(InputError, match="could not write .*curve_000"):
                write_run(tmp, [curve], {})
            assert not any(Path(tmp).iterdir())
            return
        write_run(tmp, [curve], {})
        (path,) = Path(tmp).glob("curve_*.csv")
        text = path.read_bytes().decode()
    assert text == oracle_curve_text(curve, list(map(repr, temperatures.tolist())))


def test_simulated_run_files_match_row_wise_writer(tmp_path):
    """Every curve file of a run, whose curves share one formatted
    temperature column, holds the row-wise text; the grid dips below the
    cryostat floor, so the files also carry clamped setpoints and flags."""
    params = ModelParams()
    cfg = InstrumentConfig(seed=3)
    plan = replace(plan_sweep(params, cfg, [50.0, 150.0, 250.0]), repetitions=2,
                   n_points=40, t_center_guess=0.4, t_span=2.4)
    curves = run_paired_experiment(params, cfg, plan)
    assert all(curve.flags for curve in curves)
    write_run(tmp_path, curves, {})
    temperature_text = list(map(repr, curves[0].temperatures.tolist()))
    manifest = json.loads((tmp_path / "run.json").read_text(encoding="utf-8"))
    for entry, curve in zip(manifest["curves"], curves, strict=True):
        text = (tmp_path / entry["file"]).read_bytes().decode()
        assert text == oracle_curve_text(curve, temperature_text)
