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
import json
import math
from dataclasses import dataclass, field as dataclass_field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import model
from .errors import InputError
from .fileio import atomic_write_text, csv_text, fmt, write_json
from .instrument import (InstrumentConfig, measure_profile, noise_stream,
                         resistive_transition)

FORMAT_VERSION = "1"

KIND_CODES = {"film": 0, "cavity": 1}

#: Column header of a curve file; the data rows follow it.
CSV_COLUMNS = "temperature_K,resistance_ohm"

#: Fraction of the temperature grid counted as "central" for coverage.
CENTRAL_FRACTION = 0.8


@dataclass(frozen=True)
class SweepPlan:
    """One acquisition plan: the fields to visit and the shared T grid."""

    fields: tuple[float, ...]
    t_center_guess: float       # K
    t_span: float               # K
    n_points: int = 200
    repetitions: int = 1

    def __post_init__(self):
        object.__setattr__(self, "fields", tuple(float(f) for f in self.fields))
        if len(self.fields) == 0:
            raise InputError("plan needs at least one field")
        if not all(0 <= f < math.inf for f in self.fields):  # also rejects NaN
            raise InputError(f"fields must be finite and nonnegative, got {self.fields}")
        if any(b <= a for a, b in zip(self.fields, self.fields[1:])):
            raise InputError("fields must be strictly increasing")
        for name in ("n_points", "repetitions"):
            if type(getattr(self, name)) is not int:  # also refuses bool
                raise InputError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.n_points < 20:
            raise InputError(f"n_points must be >= 20, got {self.n_points}")
        if not (-math.inf < self.t_center_guess < math.inf):
            raise InputError(f"t_center_guess must be finite, got {self.t_center_guess}")
        if not (0 < self.t_span < math.inf):
            raise InputError(f"t_span must be finite and > 0, got {self.t_span}")
        if self.repetitions < 1:
            raise InputError(f"repetitions must be >= 1, got {self.repetitions}")
        if not (np.diff(temperature_grid(self)) > 0).all():
            raise InputError(
                f"the temperature grid collapses: t_span={self.t_span!r} K around "
                f"t_center_guess={self.t_center_guess!r} K is too narrow for "
                f"n_points={self.n_points} strictly increasing temperatures")


@dataclass
class TransitionCurve:
    """One fixed-field R(T) sweep.

    ``oracle_t_star`` is the generating midpoint, kept only for oracle
    and test comparisons; analysis must never consume it.
    """

    field: float
    kind: str
    temperatures: np.ndarray    # K, nondecreasing
    resistances: np.ndarray     # ohm
    repetition: int = 0
    seed_path: str = ""
    flags: tuple[str, ...] = ()
    oracle_t_star: float | None = dataclass_field(default=None, repr=False)

    def __post_init__(self):
        if self.kind not in KIND_CODES:
            raise InputError(f"kind must be 'film' or 'cavity', got {self.kind!r}")
        self.temperatures = np.asarray(self.temperatures, dtype=float)
        self.resistances = np.asarray(self.resistances, dtype=float)
        if self.temperatures.shape != self.resistances.shape:
            raise InputError("temperature and resistance arrays differ in length")
        steps = self.temperatures[1:] - self.temperatures[:-1]
        # a NaN step fails both comparisons; an infinite temperature makes
        # a step infinite or negative
        smallest = float(steps.min(initial=math.inf))
        if not (0.0 <= smallest and steps.max(initial=0.0) < math.inf):
            raise InputError("temperatures must be finite and nondecreasing")
        clamped = any(f.startswith("clamped") for f in self.flags)
        if not clamped and smallest <= 0:
            raise InputError("temperatures must be strictly increasing")


def plan_sweep(params: model.ModelParams, cfg: InstrumentConfig,
               fields) -> SweepPlan:
    """Plan covering every transition of the given field list.

    Centers the grid between Tc and the deepest film transition and
    spans eight transition widths, which keeps both plateaus and every
    midpoint inside the central part of the sweep.
    """
    fields = tuple(float(f) for f in fields)
    if len(fields) == 0:
        raise InputError("field list is empty")
    deepest = model.film_delta(params, max(fields))  # mK
    center = params.t_c - 0.5 * deepest * 1e-3
    span = 8.0 * cfg.transition_width * 1e-3
    return SweepPlan(fields=fields, t_center_guess=center, t_span=span)


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


@functools.lru_cache(maxsize=64)
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
    """Sweep one curve at a fixed field, single monotone up-sweep."""
    if field not in plan.fields:
        raise InputError(f"field {field} G is not part of the plan")
    if kind not in KIND_CODES:
        raise InputError(f"kind must be 'film' or 'cavity', got {kind!r}")
    if not (0 <= repetition < plan.repetitions):
        raise InputError(f"repetition {repetition} outside plan range")

    table = plan_table(params, plan, cfg.base_temperature, cfg.transition_width,
                       cfg.normal_resistance)
    index = plan.fields.index(field)
    t_star = table.t_stars[kind][index]

    path = (*substream_prefix, index, KIND_CODES[kind], repetition)
    rng = noise_stream(cfg.seed, *path)
    resistances = measure_profile(cfg, table.setpoints, t_star,
                                  table.profiles[kind][index], rng)

    return TransitionCurve(
        field=field, kind=kind, temperatures=table.setpoints, resistances=resistances,
        repetition=repetition, seed_path="/".join(str(p) for p in path),
        flags=table.flags[kind][index], oracle_t_star=t_star)


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
            for kind in ("film", "cavity"):
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
    A file that is not UTF-8 text, or a path holding a NUL, raises
    :class:`InputError` naming it.
    """
    try:
        with open(path, "r", newline="\n") as handle:
            text = handle.read()
    except ValueError as exc:  # UnicodeDecodeError, or a NUL in the path
        raise InputError(f"could not read curve file {path}: {exc}") from None
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
    oracle_t_star = header_value("oracle_t_star_K", float)
    flags = tuple(f for f in meta.get("flags", "").split(";") if f)
    try:
        return TransitionCurve(
            field=field, kind=meta["kind"], temperatures=data[0], resistances=data[1],
            repetition=repetition, seed_path=meta.get("seed_path", ""), flags=flags,
            oracle_t_star=oracle_t_star)
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
        meta = [f"format_version={FORMAT_VERSION}", f"field_gauss={fmt(curve.field)}",
                f"kind={curve.kind}", f"repetition={curve.repetition}",
                f"seed_path={curve.seed_path}", f"flags={';'.join(curve.flags)}"]
        if curve.oracle_t_star is not None:
            meta.append(f"oracle_t_star_K={fmt(curve.oracle_t_star)}")
        atomic_write_text(out_dir / name, csv_text(
            CSV_COLUMNS.split(","), (temperature_text[key], curve.resistances), meta))
        entries.append({
            "file": name,
            "field_gauss": curve.field,
            "kind": curve.kind,
            "repetition": curve.repetition,
            "seed_path": curve.seed_path,
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
    and ``repetition``; otherwise :class:`InputError` names the manifest
    and the key or entry, or the curve file and the key.  A manifest or
    curve file that does not decode, or a manifest that is not JSON,
    raises one naming the file.
    """
    manifest_path = Path(manifest_path)
    try:
        with open(manifest_path) as handle:
            manifest = json.load(handle)
    except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
        raise InputError(f"could not read run manifest {manifest_path}: {exc}") from None
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
    for index, entry in enumerate(entries):
        if not (isinstance(entry, dict) and isinstance(entry.get("file"), str)):
            raise InputError(f"{manifest_path}: curve entry {index} needs a 'file' "
                             f"name, got {entry!r}")
        path = manifest_path.parent / entry["file"]
        curve = read_curve_csv(path)
        found = {"n_points": curve.temperatures.size, "field_gauss": curve.field,
                 "kind": curve.kind, "repetition": curve.repetition}
        for key, value in found.items():
            if entry.get(key) != value:
                raise InputError(f"{path}: {key} is {value!r} in the file but "
                                 f"{entry.get(key)!r} in the manifest")
        curves.append(curve)
    return curves, manifest.get("config", {})
