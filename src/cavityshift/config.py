"""Run configuration: the strict JSON schema binding model, instrument
and plan together with one master seed.

Every section is optional and falls back to the reference defaults; a
section must be a JSON object, and unknown keys anywhere are rejected.
The plan section holds any of :class:`protocol.SweepPlan`'s values, and
:func:`protocol.plan_sweep` derives each one it lacks, as it does for
the Python API.  The master seed is ``instrument.seed``; a top-level
``seed`` is another spelling of it, and a file that gives both with
different values is rejected.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, fields as dataclass_fields
from pathlib import Path

from . import model
from .errors import InputError
from .fileio import read_json
from .instrument import InstrumentConfig
from .protocol import SweepPlan, plan_sweep


@dataclass(frozen=True)
class RunConfig:
    model: model.ModelParams
    instrument: InstrumentConfig
    plan: SweepPlan


def _build_section(cls, data: dict, name: str, build=None):
    """``build(**data)``, ``cls`` by default, once every key names a field
    of ``cls``; an :class:`InputError` it raises gains the section's name."""
    allowed = {f.name for f in dataclass_fields(cls)}
    unknown = set(data) - allowed
    if unknown:
        raise InputError(f"unknown key(s) in '{name}' section: {sorted(unknown)}")
    try:
        return (build or cls)(**data)
    except InputError as exc:
        raise InputError(f"invalid '{name}' section: {exc}") from exc


def run_config_from_dict(data: dict) -> RunConfig:
    """Validate a raw dict against the strict schema."""
    if not isinstance(data, dict):
        raise InputError("run configuration must be a JSON object")
    allowed = {"model", "instrument", "plan", "seed"}
    unknown = set(data) - allowed
    if unknown:
        raise InputError(f"unknown top-level key(s): {sorted(unknown)}")
    for name in ("model", "instrument", "plan"):
        section = data.get(name, {})
        if not isinstance(section, dict):
            raise InputError(f"'{name}' section must be a JSON object, "
                             f"got {type(section).__name__}")

    params = _build_section(model.ModelParams, data.get("model", {}), "model")
    instrument_data = dict(data.get("instrument", {}))
    if "seed" in data:
        seed = instrument_data.setdefault("seed", data["seed"])
        if seed != data["seed"] or type(seed) is not type(data["seed"]):
            raise InputError(f"seed {data['seed']!r} and instrument.seed {seed!r} "
                             "differ; give the seed once")
    instrument = _build_section(InstrumentConfig, instrument_data, "instrument")

    plan = _build_section(SweepPlan, data.get("plan", {}), "plan",
                          functools.partial(plan_sweep, params, instrument))
    return RunConfig(model=params, instrument=instrument, plan=plan)


def load_run_config(path: str | Path) -> RunConfig:
    return run_config_from_dict(read_json(path, "config file"))


def default_run_config() -> RunConfig:
    return run_config_from_dict({})
