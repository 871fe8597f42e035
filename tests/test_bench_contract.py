"""The benchmark's traced run wraps package functions by name.

`benchmarks/run.py --trace 1` replaces each name in `install_wrappers` with a
timing wrapper, so a refactor that removes or renames one breaks the traced
run. This test calls `install_wrappers` with a tracer that only looks each
name up.
"""

import importlib.util
from pathlib import Path

import voxtrait
import voxtrait.acoustics
import voxtrait.audio_io
import voxtrait.features
import voxtrait.models
import voxtrait.regression
import voxtrait.segmentation
import voxtrait.stats

RUN_PY = Path(__file__).resolve().parent.parent / "benchmarks" / "run.py"


class _LookupTracer:
    def __init__(self):
        self.wrapped = []

    def wrap(self, owner, attr, name, count=None, trace_memory=False):
        assert callable(getattr(owner, attr)), f"{name}: {owner!r}.{attr} is not callable"
        self.wrapped.append(name)


def test_every_traced_name_exists():
    spec = importlib.util.spec_from_file_location("bench_run", RUN_PY)
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    tracer = _LookupTracer()
    run.install_wrappers(tracer, voxtrait)
    assert "features.FeatureTable.get" in tracer.wrapped
    assert "acoustics.analyze_prosody_window" in tracer.wrapped
