"""The benchmark's tracer (``perfbench/tracing.py``) swaps wrappers in
for scan functions by module attribute name. A renamed or removed
function breaks it only when the benchmark runs; this test catches that
in the unit suite, loading the tracer unchanged from ``perfbench/``."""

from __future__ import annotations

import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_tracer_wraps_and_restores_every_name(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    import tracing

    tracer = tracing.Tracer()
    before = [getattr(module, name) for module, name, _ in tracer.targets]
    with tracer:
        assert len(tracer._saved) == len(tracer.targets)
        for (module, name, _), fn in zip(tracer.targets, before):
            assert getattr(module, name) is not fn, name
    after = [getattr(module, name) for module, name, _ in tracer.targets]
    assert all(a is b for a, b in zip(after, before))
