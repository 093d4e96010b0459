"""Where the traced run hooks into cavityshift, and the per-layer metrics
derived from its spans.

Every hook replaces a public function at the place its caller looks it
up: ``protocol`` imports ``noise_stream`` by name, so the hook goes on
``cavityshift.protocol.noise_stream``; ``model.cavity_delta`` is looked
up on the ``model`` module by every caller, and so on.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict

from spans import Tracer


def install(tracer: Tracer) -> None:
    from cavityshift import analysis, cli, fileio, model, protocol, sensitivity

    def curves_written(args, kwargs, result):
        return {"curves": len(args[1])}

    def file_bytes(args, kwargs, result):
        return {"bytes": len(args[1].encode())}

    def study(args, kwargs, result):
        return {"trials": result.trials, "delta_n": result.delta_n,
                "sigma_r": args[1].resistance_noise}

    hooks = [
        (model, "cavity_delta", "model.cavity_delta", None),
        (protocol, "noise_stream", "instrument.noise_stream", None),
        (protocol, "measure_profile", "instrument.measure_profile", None),
        (protocol, "acquire_curve", "protocol.acquire_curve", None),
        (sensitivity, "run_paired_experiment", "protocol.run_paired_experiment", None),
        (cli, "run_paired_experiment", "protocol.run_paired_experiment", None),
        (cli, "write_run", "protocol.write_run", curves_written),
        (cli, "read_run", "protocol.read_run",
         lambda args, kwargs, result: {"curves": len(result[0])}),
        (fileio, "atomic_write_text", "fileio.atomic_write_text", file_bytes),
        (protocol, "atomic_write_text", "fileio.atomic_write_text", file_bytes),
        (analysis, "fit_transition", "analysis.fit_transition",
         lambda args, kwargs, result: {"iterations": result.iterations}),
        (sensitivity, "analyze_dataset", "analysis.analyze_dataset", None),
        (cli, "analyze_dataset", "analysis.analyze_dataset", None),
        (sensitivity, "run_sensitivity", "sensitivity.run_sensitivity", study),
        (cli, "run_sensitivity", "sensitivity.run_sensitivity", study),
        (cli, "calibrate_noise", "sensitivity.calibrate_noise",
         lambda args, kwargs, result: {"target": args[0], "sigma_r": result}),
        (cli, "main", "cli.main", lambda args, kwargs, result: {"command": args[0][0]}),
    ]
    for owner, attr, name, note in hooks:
        tracer.patch(owner, attr, name, note)


def _per_round(count: int, rounds: int) -> float | int:
    # rounds repeat the same inputs, so totals divide exactly
    value = count / rounds
    return int(value) if value.is_integer() else value


def _quantile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))]


def layer_metrics(tracer: Tracer, traced_round_s: list[float],
                  overhead_pct: float) -> tuple[dict, dict]:
    """Per-layer metrics of the traced rounds, given their wall times and
    the tracing overhead measured against untraced rounds.

    Returns (metrics, extra): ``metrics`` holds the quantities every
    workload has, as {name: (value, unit)}; ``extra`` holds those of
    layers only some workloads call (e.g. ``write_run``), with None
    where the workload never called the layer.
    """
    rounds = len(traced_round_s)
    spans = defaultdict(list)
    for idx, name in enumerate(tracer.names):
        spans[name].append(idx)
    dur = [e - s for s, e in zip(tracer.starts, tracer.ends)]
    own = tracer.self_times()
    notes = tracer.notes

    def calls(name):
        return _per_round(len(spans[name]), rounds)

    def mean(values, scale):
        return sum(values) / len(values) / scale if values else None

    def mean_dur(name, scale):
        return mean([dur[i] for i in spans[name]], scale)

    def mean_self(name, scale):
        return mean([own[i] for i in spans[name]], scale)

    def note_sum(name, key, where=lambda i: True):
        return sum(notes[i][key] for i in spans[name]
                   if notes[i] and key in notes[i] and where(i))

    fits = spans["analysis.fit_transition"]
    fit_ms = [dur[i] / 1e6 for i in fits]
    iterations = [notes[i]["iterations"] for i in fits if notes[i] and "iterations" in notes[i]]
    failures = sum(1 for i in fits if notes[i] and "error" in notes[i])
    fit_busy_s = sum(dur[i] for i in fits) / 1e9
    wall_s = sum(traced_round_s)

    calibrations = set(spans["sensitivity.calibrate_noise"])
    in_calibration = lambda i: tracer.parents[i] in calibrations  # noqa: E731
    evaluations = [i for i in spans["sensitivity.run_sensitivity"] if in_calibration(i)]

    metrics = {
        "model.cavity_delta.calls": (calls("model.cavity_delta"), "count"),
        "model.cavity_delta.us_per_call": (mean_dur("model.cavity_delta", 1e3), "us"),
        "instrument.measure_profile.us_per_call":
            (mean_dur("instrument.measure_profile", 1e3), "us"),
        "instrument.noise_stream.us_per_call": (mean_dur("instrument.noise_stream", 1e3), "us"),
        "protocol.acquire_curve.calls": (calls("protocol.acquire_curve"), "count"),
        "protocol.acquire_curve.self_us": (mean_self("protocol.acquire_curve", 1e3), "us"),
        "protocol.run_paired_experiment.ms_per_call":
            (mean_dur("protocol.run_paired_experiment", 1e6), "ms"),
        "analysis.fit_transition.calls": (calls("analysis.fit_transition"), "count"),
        "analysis.fit_transition.ms_p50": (_quantile(fit_ms, 0.5), "ms"),
        "analysis.fit_transition.ms_p99": (_quantile(fit_ms, 0.99), "ms"),
        "analysis.fit_transition.lm_iterations_mean": (mean(iterations, 1), "iterations"),
        "analysis.fit_transition.failures": (_per_round(failures, rounds), "count"),
        "analysis.fit_transition.busy_s": (fit_busy_s / rounds, "s"),
        "analysis.analyze_dataset.self_ms": (mean_self("analysis.analyze_dataset", 1e6), "ms"),
        "analysis.fit_share": (fit_busy_s / wall_s, "fraction"),
        "sensitivity.calibration.evaluations": (_per_round(len(evaluations), rounds), "count"),
        "sensitivity.calibration.trials":
            (_per_round(note_sum("sensitivity.run_sensitivity", "trials", in_calibration),
                        rounds), "count"),
        "fileio.atomic_write_text.ms_per_file":
            (mean_dur("fileio.atomic_write_text", 1e6), "ms"),
        "fileio.files_written": (calls("fileio.atomic_write_text"), "count"),
        "fileio.bytes_written":
            (_per_round(note_sum("fileio.atomic_write_text", "bytes"), rounds), "bytes"),
        "cli.main.self_ms": (mean_self("cli.main", 1e6), "ms"),
        "trace.round_s": (statistics.median(traced_round_s), "s"),
        "trace.overhead_pct": (overhead_pct, "%"),
    }

    extra = {
        "protocol.write_run.ms_per_curve": _per_curve_ms(spans, dur, notes, "protocol.write_run"),
        "protocol.read_run.ms_per_curve": _per_curve_ms(spans, dur, notes, "protocol.read_run"),
        "sensitivity.run_sensitivity.self_ms": mean_self("sensitivity.run_sensitivity", 1e6),
        "sensitivity.calibration.rel_error": _calibration_error(spans, notes, tracer.parents),
    }
    trial_ms = _trial_ms(spans, tracer)
    extra["sensitivity.trial_ms_p50"] = _quantile(trial_ms, 0.5) if trial_ms else None
    extra["sensitivity.trial_ms_p99"] = _quantile(trial_ms, 0.99) if trial_ms else None
    by_command = defaultdict(list)
    for i in spans["cli.main"]:
        by_command[notes[i].get("command", "failed")].append(own[i] / 1e6)
    for command, values in sorted(by_command.items()):
        extra[f"cli.main.{command}.self_ms"] = sum(values) / len(values)
    return metrics, extra


def _per_curve_ms(spans, dur, notes, name):
    curves = sum(notes[i]["curves"] for i in spans[name] if notes[i])
    return sum(dur[i] for i in spans[name]) / 1e6 / curves if curves else None


def _trial_ms(spans, tracer: Tracer) -> list[float]:
    """One Monte Carlo trial runs from one run_paired_experiment start to
    the next within the same study; the last ends with its study."""
    by_study = defaultdict(list)
    for i in spans["protocol.run_paired_experiment"]:
        parent = tracer.parents[i]
        if parent >= 0 and tracer.names[parent] == "sensitivity.run_sensitivity":
            by_study[parent].append(tracer.starts[i])
    trial_ms = []
    for study, starts in by_study.items():
        bounds = starts + [tracer.ends[study]]
        trial_ms.extend((b - a) / 1e6 for a, b in zip(bounds, bounds[1:]))
    return trial_ms


def _calibration_error(spans, notes, parents) -> float | None:
    """Largest |delta_n(sigma*) - target| / target over the calibrations,
    from the evaluation each calibration made at the sigma it returned."""
    errors = []
    for cal in spans["sensitivity.calibrate_noise"]:
        if not notes[cal] or "sigma_r" not in notes[cal]:
            continue
        target, sigma = notes[cal]["target"], notes[cal]["sigma_r"]
        at_sigma = [notes[i]["delta_n"] for i in spans["sensitivity.run_sensitivity"]
                    if parents[i] == cal and notes[i] and notes[i].get("sigma_r") == sigma]
        if at_sigma:
            errors.append(abs(at_sigma[-1] - target) / target)
    return max(errors) if errors else None
