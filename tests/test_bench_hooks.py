"""The traced benchmark run still finds every function it hooks.

``bench/layers.py`` replaces package functions at the module attribute
where each caller looks them up (see ``bench/spans.py``).  A refactor
that drops such a lookup makes ``install`` raise AttributeError, and one
that stops calling a hooked function leaves that layer without spans,
so the per-layer metrics of ``bench/run.py --trace 1`` cannot be
computed; these tests fail first.
"""

from __future__ import annotations

import json
import math
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_every_hook_target_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import layers
    from spans import Tracer

    tracer = Tracer()
    try:
        layers.install(tracer)
        patched = list(tracer._patched)
        assert patched
        for owner, attr, original in patched:
            assert callable(original), f"{owner.__name__}.{attr}"
            assert getattr(owner, attr) is not original
    finally:
        tracer.unpatch()
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original


def _traced_metrics(monkeypatch, capsys, commands, *, warm: bool = False):
    """Per-layer metrics and extra figures of one traced round of the CLI
    ``commands``; with ``warm`` the round runs untraced first, so every
    per-plan cache is full."""
    monkeypatch.syspath_prepend(str(BENCH))
    import layers
    from spans import Tracer

    from cavityshift import cli

    if warm:
        for argv in commands:
            assert cli.main(argv) == 0, capsys.readouterr().err
    tracer = Tracer()
    layers.install(tracer)
    try:
        start = time.perf_counter()
        codes = [cli.main(argv) for argv in commands]
        round_s = time.perf_counter() - start
    finally:
        tracer.unpatch()
    assert codes == [0] * len(commands), capsys.readouterr().err
    metrics, extra = layers.layer_metrics(tracer, [round_s], 0.0)
    not_finite = {name: value for name, (value, _) in metrics.items()
                  if not (isinstance(value, (int, float)) and math.isfinite(value))}
    assert not not_finite
    return metrics, extra


def _small_plan_config(tmp_path, **plan) -> Path:
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "plan": {"fields": [50.0, 100.0, 150.0, 200.0, 250.0], "n_points": 40, **plan},
        "seed": 1}), encoding="utf-8")
    return config


def _study(tmp_path) -> list[list[str]]:
    return [["sensitivity", "--config", str(_small_plan_config(tmp_path)),
             "--trials", "100", "--out", str(tmp_path / "out")]]


def test_traced_study_measures_every_layer(monkeypatch, tmp_path, capsys):
    # a sensitivity study calls every layer but the file-format ones and
    # calibration, whose metrics are then counts of zero
    metrics, _ = _traced_metrics(monkeypatch, capsys, _study(tmp_path))
    assert metrics["analysis.fit_transition.calls"][0] == 1000
    # one acquisition and one fit per curve: 100 trials of 5 fields x 2 kinds
    assert metrics["protocol.acquire_curve.calls"][0] == 1000
    assert metrics["analysis.fit_transition.failures"][0] == 0


def test_traced_study_after_a_warm_run_measures_every_layer(monkeypatch, tmp_path,
                                                             capsys):
    # the per-plan table of true transitions is cached, so the traced study
    # reaches the model layer only through the uncached model contrast
    metrics, _ = _traced_metrics(monkeypatch, capsys, _study(tmp_path), warm=True)
    assert metrics["model.cavity_delta.calls"][0] >= 1


def test_traced_simulate_and_analyze_measure_the_file_layers(monkeypatch, tmp_path,
                                                              capsys):
    config = _small_plan_config(tmp_path, repetitions=2)
    run = tmp_path / "run"
    metrics, extra = _traced_metrics(monkeypatch, capsys, [
        ["simulate", "--config", str(config), "--out", str(run)],
        ["analyze", str(run / "run.json")]])
    curves = len(json.loads((run / "run.json").read_text(encoding="utf-8"))["curves"])
    assert curves == 20
    assert metrics["analysis.fit_transition.calls"][0] == curves
    for name in ("protocol.write_run.ms_per_curve", "protocol.read_run.ms_per_curve"):
        assert 0 < extra[name] < math.inf, name


def test_traced_calibration_makes_one_evaluation(monkeypatch, tmp_path, capsys):
    # the bench times a calibration as its studies and measures its error
    # from the study at the sigma_R it returned: calibrate_noise keeps its
    # positional target and float result, and looks up run_sensitivity on
    # the sensitivity module
    metrics, extra = _traced_metrics(monkeypatch, capsys, [
        ["calibrate", "--config", str(_small_plan_config(tmp_path)), "--trials", "100",
         "--tolerance", "0.1", "--out", str(tmp_path / "cal")]])
    assert metrics["sensitivity.calibration.evaluations"][0] == 1
    assert math.isfinite(extra["sensitivity.calibration.rel_error"])
