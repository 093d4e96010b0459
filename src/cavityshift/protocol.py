"""Measurement procedure: fixed-field temperature sweeps of R(T) for the
paired film and cavity samples, plus the on-disk run format.

A dataset is a pure function of (model params, instrument config, plan,
seed): curves may be generated in any order or concurrently and always
come out bit-identical, because each curve owns a substream keyed by
(field index, kind, repetition).
"""

from __future__ import annotations

import functools
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import model
from .errors import InputError, check_number, is_number
from .fileio import atomic_write_text, csv_text, fmt, read_json, read_text, write_json
from .instrument import (InstrumentConfig, measure_profile, noise_stream,
                         resistive_transition)

FORMAT_VERSION = "1"

KIND_CODES = {kind: code for code, kind in enumerate(model.KINDS)}

#: Column header of a curve file; the data rows follow it.
CSV_COLUMNS = "temperature_K,resistance_ohm"

#: Fraction of the temperature grid counted as "central" for coverage.
CENTRAL_FRACTION = 0.8

#: Most resistance samples one dataset may hold, len(fields) x 2 kinds x
#: repetitions x n_points: 0.8 GB of float64.
MAX_PLAN_SAMPLES = 10 ** 8


@dataclass(frozen=True)
class SweepPlan:
    """One acquisition plan: the fields to visit and the shared T grid."""

    fields: tuple[float, ...]
    t_center_guess: float       # K
    t_span: float               # K
    n_points: int = 200
    repetitions: int = 1

    def __post_init__(self):
        object.__setattr__(self, "fields", _field_tuple(self.fields))
        if any(b <= a for a, b in zip(self.fields, self.fields[1:])):
            raise InputError("fields must be strictly increasing")
        # a derived centre lies in [t_c/2, t_c] and a derived span, eight
        # widths, within eight times the highest Tc
        check_number("t_center_guess", self.t_center_guess, at_least=0,
                     at_most=model.MAX_T_C)
        check_number("t_span", self.t_span, above=0, at_most=8 * model.MAX_T_C)
        check_number("n_points", self.n_points, integer=True, at_least=20)
        check_number("repetitions", self.repetitions, integer=True, at_least=1)
        kinds = len(model.KINDS)
        if len(self.fields) * kinds * self.repetitions * self.n_points > MAX_PLAN_SAMPLES:
            raise InputError(
                f"the plan asks for more than {MAX_PLAN_SAMPLES:.0e} samples: "
                f"{len(self.fields)} field(s) x {kinds} kinds x "
                f"repetitions={self.repetitions} x n_points={self.n_points}")
        grid = temperature_grid(self)
        if not (np.diff(grid) > 0).all():
            raise InputError(
                f"the temperature grid collapses: t_span={self.t_span!r} K around "
                f"t_center_guess={self.t_center_guess!r} K is too narrow for "
                f"n_points={self.n_points} strictly increasing temperatures")


def _field_tuple(fields) -> tuple[float, ...]:
    """A field list as floats: a sequence of real numbers >= 0 (see
    :func:`errors.check_number`), not a string, and not empty."""
    if isinstance(fields, str) or not np.iterable(fields):
        raise InputError(f"fields must be a list of numbers, got {fields!r}")
    fields = tuple(fields)
    if not fields:
        raise InputError("field list is empty")
    for index, value in enumerate(fields):
        check_number(f"fields[{index}]", value, at_least=0)
    return tuple(float(f) for f in fields)


@dataclass
class TransitionCurve:
    """One fixed-field R(T) sweep, as a curve file holds it; a simulated
    curve's noise key and true midpoint follow from its config and its
    place in the plan (see :func:`acquire_curve`)."""

    field: float
    kind: str
    temperatures: np.ndarray    # K, nondecreasing
    resistances: np.ndarray     # ohm
    repetition: int = 0
    flags: tuple[str, ...] = ()

    def __post_init__(self):
        model.check_kind(self.kind)
        self.temperatures = np.asarray(self.temperatures, dtype=float)
        self.resistances = np.asarray(self.resistances, dtype=float)
        if self.temperatures.shape != self.resistances.shape:
            raise InputError("temperature and resistance arrays differ in length")
        t = self.temperatures
        # compared, not differenced, as a step may overflow: a sorted grid
        # of finite span holds no NaN, no infinity and no overflowing step
        increasing = (t[1:] > t[:-1]).all()
        if t.size > 1 and not ((increasing or (t[1:] >= t[:-1]).all())
                               and math.isfinite(float(t[-1]) - float(t[0]))):
            raise InputError("temperatures must be finite and nondecreasing")
        if not increasing and not any(f.startswith("clamped") for f in self.flags):
            raise InputError("temperatures must be strictly increasing")


#: A plan without fields visits this many, spanning [h_v, 5*h_v].
N_DEFAULT_FIELDS = 10


def plan_sweep(params: model.ModelParams, cfg: InstrumentConfig, fields=...,
               **given) -> SweepPlan:
    """The plan of the given :class:`SweepPlan` values, as a config's plan
    section holds them, each one missing derived: :data:`N_DEFAULT_FIELDS`
    fields, the centre by :func:`sweep_center` (computed even when given,
    as it checks each field) and the span by :func:`sweep_span`.  A refused
    derived field list or span names the setting it was derived from."""
    derived = fields is ...
    if derived:
        lo, hi = params.h_v, 5.0 * params.h_v
        step = (hi - lo) / (N_DEFAULT_FIELDS - 1)
        fields = tuple(lo + i * step for i in range(N_DEFAULT_FIELDS))
    try:
        center = sweep_center(params, fields)
    except InputError as exc:
        if not derived:
            raise
        raise InputError(f"{exc} (fields were derived from "
                         f"h_v = {params.h_v!r} G)") from exc
    try:
        return SweepPlan(**{"fields": fields, "t_center_guess": center,
                            "t_span": sweep_span(cfg), **given})
    except InputError as exc:
        if "t_span" in given or "t_span" not in str(exc):
            raise
        raise InputError(f"{exc} (t_span was derived from transition_width = "
                         f"{cfg.transition_width!r} mK)") from exc


def sweep_center(params: model.ModelParams, fields) -> float:
    """Grid centre (K) midway between Tc and the deepest film transition
    of ``fields``; with :func:`sweep_span` it keeps both plateaus and
    every midpoint inside the central part of the sweep."""
    deepest = model.film_delta(params, max(_field_tuple(fields)))  # mK
    return params.t_c - 0.5 * deepest * 1e-3


def sweep_span(cfg: InstrumentConfig) -> float:
    """Grid span (K) of eight transition widths."""
    return 8.0 * cfg.transition_width * 1e-3


def temperature_grid(plan: SweepPlan) -> np.ndarray:
    half = 0.5 * plan.t_span
    return np.linspace(plan.t_center_guess - half, plan.t_center_guess + half,
                       plan.n_points)


class _PlanTable(NamedTuple):
    """What every curve of one plan shares, for one set of model
    parameters, cryostat floor, transition width and normal resistance."""

    setpoints: np.ndarray               # K, the read-only clamped grid
    deltas: dict[str, np.ndarray]       # mK per plan field, by kind (read-only)
    t_stars: dict[str, tuple[float, ...]]  # K per plan field, by kind
    profiles: dict[str, np.ndarray]     # ohm, read-only noiseless R, (fields, setpoints)
    flags: dict[str, tuple[tuple[str, ...], ...]]  # curve flags per plan field, by kind


# a command reads one table and a signal/null study alternates two; at the
# plan size limit one table holds up to 0.8 GB of profiles, so keep two
@functools.lru_cache(maxsize=2)
def plan_table(params: model.ModelParams, plan: SweepPlan, base_temperature: float,
               transition_width: float, normal_resistance: float) -> _PlanTable:
    """The setpoints, true transitions, noiseless profiles and flags of a
    plan, shared by all its curves; keyed by exactly the values it reads."""
    grid = temperature_grid(plan)
    setpoints = np.maximum(grid, base_temperature)
    clamped = tuple(f"clamped:{i}" for i in np.nonzero(grid < base_temperature)[0].tolist())
    margin = 0.5 * (1.0 - CENTRAL_FRACTION) * plan.t_span
    central_lo, central_hi = setpoints[0] + margin, setpoints[-1] - margin
    fields = np.array(plan.fields)
    deltas = {"film": model.film_delta(params, fields),
              "cavity": model.cavity_delta(params, fields)}
    t_stars, profiles, flags = {}, {}, {}
    for kind, delta_mk in deltas.items():
        t_star = params.t_c - delta_mk * 1e-3
        t_stars[kind] = tuple(t_star.tolist())
        profiles[kind] = resistive_transition(setpoints, t_star[:, None],
                                              transition_width, normal_resistance)
        flags[kind] = tuple(clamped if central_lo <= t <= central_hi
                            else clamped + ("midpoint-outside-central-80pct",)
                            for t in t_stars[kind])
    for array in (setpoints, *deltas.values(), *profiles.values()):
        array.flags.writeable = False
    return _PlanTable(setpoints, deltas, t_stars, profiles, flags)


def acquire_curve(params: model.ModelParams, cfg: InstrumentConfig,
                  plan: SweepPlan, field: float, kind: str, repetition: int = 0,
                  substream_prefix: tuple[int, ...] = ()) -> TransitionCurve:
    """Sweep one curve at a fixed field, single monotone up-sweep.

    Its noise is drawn from ``noise_stream(cfg.seed, *substream_prefix,
    field index, KIND_CODES[kind], repetition)`` and its true midpoint is
    ``plan_table(...).t_stars[kind][field index]``.
    """
    try:
        index = plan.fields.index(field)
    except ValueError:
        raise InputError(f"field {field} G is not part of the plan") from None
    model.check_kind(kind)
    if not (is_number(repetition, integer=True) and 0 <= repetition < plan.repetitions):
        check_number("repetition", repetition, integer=True)  # a str, None, float, bool
        raise InputError(f"repetition {repetition} outside plan range")

    table = plan_table(params, plan, cfg.base_temperature, cfg.transition_width,
                       cfg.normal_resistance)
    rng = noise_stream(cfg.seed, *substream_prefix, index, KIND_CODES[kind], repetition)
    resistances = measure_profile(cfg, table.setpoints, table.t_stars[kind][index],
                                  table.profiles[kind][index], rng)
    return TransitionCurve(
        field=field, kind=kind, temperatures=table.setpoints, resistances=resistances,
        repetition=repetition, flags=table.flags[kind][index])


def run_paired_experiment(params: model.ModelParams, cfg: InstrumentConfig,
                          plan: SweepPlan,
                          substream_prefix: tuple[int, ...] = ()) -> list[TransitionCurve]:
    """Full dataset: one film and one cavity curve per field and repetition.

    Curves are keyed by (field, kind, repetition); assembly order is
    fixed (field-major, film before cavity) but any other order would
    produce the same curves.
    """
    curves = []
    for field in plan.fields:
        for repetition in range(plan.repetitions):
            for kind in model.KINDS:
                curves.append(acquire_curve(params, cfg, plan, field, kind,
                                            repetition, substream_prefix))
    return curves


# --- run-file format -------------------------------------------------------

def curve_filename(index: int, kind: str, repetition: int) -> str:
    return f"curve_{index:03d}_{kind}_rep{repetition}.csv"


def _scan_lines(path: str | Path, lines) -> tuple[dict[str, str], list[float], list[float]]:
    """The accepted syntax of a curve file, line by line: blank lines and
    column-header lines are skipped, ``# key=value`` lines are metadata and
    every other line must hold two finite numbers, otherwise
    :class:`InputError` names the line."""
    meta: dict[str, str] = {}
    temps: list[float] = []
    res: list[float] = []
    for lineno, line in enumerate(lines, start=1):
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
    return meta, temps, res


def _parse_block(block: str) -> np.ndarray | None:
    """The rows of a data block as a (2, n) array, or None unless every
    line of the block holds two finite numbers."""
    if not block.strip():
        return None  # np.loadtxt warns on a block without data
    try:
        rows = np.loadtxt(io.StringIO(block), delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    # loadtxt skips blank lines, so the shape check also refuses those
    if rows.shape != (block.count("\n"), 2) or not np.isfinite(rows).all():
        return None
    return rows.T.copy()


def read_curve_csv(path: str | Path) -> TransitionCurve:
    """Load one curve file; every line after the column header must hold
    two finite numbers, otherwise :class:`InputError` names the line, and
    a header value that does not parse, a ``field_gauss`` that is not
    finite and nonnegative, or a curve that is not valid, raises one
    naming the file.

    The data block after the column header is parsed in one piece; when
    that refuses, :func:`_scan_lines` decides every line of the file.
    The file is read as UTF-8 whatever the locale; a file that is not
    UTF-8 text, or a path holding a NUL, raises :class:`InputError`
    naming it.
    """
    text = read_text(path, "curve file")
    head, found, block = text.partition(f"\n{CSV_COLUMNS}\n")
    meta, temps, res = _scan_lines(path, head.split("\n"))
    # rows before the column header leave the whole file to the line loop
    data = _parse_block(block) if found and not temps else None
    if data is None:
        meta, temps, res = _scan_lines(path, text.split("\n"))
        data = np.array([temps, res])
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
    if not (0 <= field < math.inf):  # the rule of plan fields; also rejects NaN
        raise InputError(f"{path}: header field_gauss={meta['field_gauss']!r} "
                         f"must be finite and nonnegative")
    repetition = header_value("repetition", int, 0)
    flags = tuple(f for f in meta.get("flags", "").split(";") if f)
    try:
        return TransitionCurve(
            field=field, kind=meta["kind"], temperatures=data[0], resistances=data[1],
            repetition=repetition, flags=flags)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None


def write_run(out_dir: str | Path, curves: list[TransitionCurve],
              config_dict: dict) -> Path:
    """Write one CSV per curve plus the JSON manifest; returns its path."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    field_order: list[float] = []
    # the curves of a plan share one temperature grid: format it once
    temperature_text: dict[bytes, list[str]] = {}
    for curve in curves:
        if curve.field not in field_order:
            field_order.append(curve.field)
        name = curve_filename(field_order.index(curve.field), curve.kind,
                              curve.repetition)
        key = curve.temperatures.tobytes()
        if key not in temperature_text:
            temperature_text[key] = list(map(repr, curve.temperatures.tolist()))
        meta = [f"field_gauss={fmt(curve.field)}", f"kind={curve.kind}",
                f"repetition={curve.repetition}", f"flags={';'.join(curve.flags)}"]
        atomic_write_text(out_dir / name, csv_text(
            CSV_COLUMNS.split(","), (temperature_text[key], curve.resistances), meta))
        entries.append({
            "file": name,
            "field_gauss": curve.field,
            "kind": curve.kind,
            "repetition": curve.repetition,
            "n_points": int(len(curve.temperatures)),
        })
    manifest = {
        "format_version": FORMAT_VERSION,
        "config": config_dict,
        "curves": entries,
    }
    return write_json(out_dir / "run.json", manifest)


def read_run(manifest_path: str | Path) -> tuple[list[TransitionCurve], dict]:
    """Load a dataset back; the CSV round trip is bit-exact.

    The manifest must be a JSON object whose ``curves`` list holds one
    object with a ``file`` name per curve, at least one, and each curve
    must agree with its entry on ``n_points``, ``field_gauss``, ``kind``
    and ``repetition``, in value and in JSON type (``n_points`` and
    ``repetition`` are integers, never ``false`` or ``200.0``; a
    ``field_gauss`` may be an integer); otherwise :class:`InputError`
    names the manifest and the key or entry, or the curve file and the
    key.  No two curves
    may share a (``field_gauss``, ``kind``, ``repetition``), whether one
    file is listed twice or two files carry the same header; such a run
    raises one naming both files.  Every file is read as UTF-8 whatever
    the locale; a manifest or curve file that does not decode, or a
    manifest that is not JSON, raises one naming the file.
    """
    manifest_path = Path(manifest_path)
    manifest = read_json(manifest_path, "run manifest")
    if not isinstance(manifest, dict):
        raise InputError(f"{manifest_path}: a run manifest must be a JSON object, "
                         f"got {type(manifest).__name__}")
    if manifest.get("format_version") != FORMAT_VERSION:
        raise InputError(
            f"unsupported run format {manifest.get('format_version')!r}")
    entries = manifest.get("curves")
    if not (isinstance(entries, list) and entries):
        found = repr(entries) if "curves" in manifest else "no such key"
        raise InputError(f"{manifest_path}: key 'curves' must hold a list of "
                         f"curve entries, got {found}")
    curves = []
    seen: dict[tuple[float, str, int], tuple[int, Path]] = {}  # entry and file
    for index, entry in enumerate(entries):
        if not (isinstance(entry, dict) and isinstance(entry.get("file"), str)):
            raise InputError(f"{manifest_path}: curve entry {index} needs a 'file' "
                             f"name, got {entry!r}")
        path = manifest_path.parent / entry["file"]
        curve = read_curve_csv(path)
        found = {"n_points": curve.temperatures.size, "field_gauss": curve.field,
                 "kind": curve.kind, "repetition": curve.repetition}
        for key, value in found.items():
            given = entry.get(key)
            # Python holds False == 0 and 200.0 == 200: the types must agree
            # too, but a field may be a JSON integer (50 for 50.0)
            same_type = type(given) is type(value) or (key == "field_gauss"
                                                       and type(given) is int)
            if given != value or not same_type:
                raise InputError(f"{path}: {key} is {value!r} in the file but "
                                 f"{given!r} in the manifest")
        identity = (curve.field, curve.kind, curve.repetition)
        if identity in seen:
            first, first_path = seen[identity]
            raise InputError(f"{manifest_path}: curve entries {first} ({first_path}) "
                             f"and {index} ({path}) hold one curve, field_gauss="
                             f"{curve.field!r} kind={curve.kind} "
                             f"repetition={curve.repetition}")
        seen[identity] = index, path
        curves.append(curve)
    return curves, manifest.get("config", {})
