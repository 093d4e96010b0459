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


def _traced_study_metrics(monkeypatch, tmp_path, capsys, *, warm: bool) -> dict:
    """Per-layer metrics of one traced CLI sensitivity study; with ``warm``
    the same study runs untraced first, so every per-plan cache is full."""
    monkeypatch.syspath_prepend(str(BENCH))
    import layers
    from spans import Tracer

    from cavityshift import cli

    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "plan": {"fields": [50.0, 100.0, 150.0, 200.0, 250.0], "n_points": 40},
        "seed": 1}))
    argv = ["sensitivity", "--config", str(config), "--trials", "100",
            "--out", str(tmp_path / "out")]
    if warm:
        assert cli.main(argv) == 0, capsys.readouterr().err
    tracer = Tracer()
    layers.install(tracer)
    try:
        start = time.perf_counter()
        code = cli.main(argv)
        round_s = time.perf_counter() - start
    finally:
        tracer.unpatch()
    assert code == 0, capsys.readouterr().err
    metrics, _ = layers.layer_metrics(tracer, [round_s], 0.0)
    not_finite = {name: value for name, (value, _) in metrics.items()
                  if not (isinstance(value, (int, float)) and math.isfinite(value))}
    assert not not_finite
    return metrics


def test_traced_study_measures_every_layer(monkeypatch, tmp_path, capsys):
    # a sensitivity study calls every layer but the file-format ones and
    # calibration, whose metrics are then counts of zero
    metrics = _traced_study_metrics(monkeypatch, tmp_path, capsys, warm=False)
    assert metrics["analysis.fit_transition.calls"][0] == 1000


def test_traced_study_after_a_warm_run_measures_every_layer(monkeypatch, tmp_path,
                                                             capsys):
    # the per-plan table of true transitions is cached, so the traced study
    # reaches the model layer only through the uncached model contrast
    metrics = _traced_study_metrics(monkeypatch, tmp_path, capsys, warm=True)
    assert metrics["model.cavity_delta.calls"][0] >= 1
