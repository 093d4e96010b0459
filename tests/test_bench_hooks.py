"""The traced benchmark run still finds every function it hooks.

``bench/layers.py`` replaces package functions at the module attribute
where each caller looks them up (see ``bench/spans.py``).  A refactor
that drops such a lookup makes ``install`` raise AttributeError, so
``bench/run.py --trace 1`` would crash; this test fails first.
"""

from __future__ import annotations

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
