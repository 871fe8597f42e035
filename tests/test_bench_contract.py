"""The benchmark's own contract with the package.

`benchmarks/run.py --trace 1` replaces each name in `install_wrappers` with a
timing wrapper, so a refactor that removes or renames one breaks the traced
run. One test calls `install_wrappers` with a tracer that only looks each
name up. Another runs one pass of the `corpus` and `table` workloads with
their per-operation correctness checks, which a benchmark run also applies,
and a third checks that two `table` passes in one process give the same
digests, as a benchmark run checks across its passes, and pins the seed-7
digests themselves.
"""

import importlib.util
import sys
from pathlib import Path

import voxtrait
import voxtrait.acoustics
import voxtrait.audio_io
import voxtrait.features
import voxtrait.models
import voxtrait.regression
import voxtrait.segmentation
import voxtrait.stats

BENCH = Path(__file__).resolve().parent.parent / "benchmarks"
RUN_PY = BENCH / "run.py"


def _bench_module(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


class _LookupTracer:
    def __init__(self):
        self.wrapped = []

    def wrap(self, owner, attr, name, count=None, trace_memory=False):
        assert callable(getattr(owner, attr)), f"{name}: {owner!r}.{attr} is not callable"
        self.wrapped.append(name)


def test_every_traced_name_exists():
    run = _bench_module("run")
    tracer = _LookupTracer()
    run.install_wrappers(tracer, voxtrait)
    assert "features.FeatureTable.get" in tracer.wrapped
    assert "acoustics.analyze_prosody_window" in tracer.wrapped


def test_corpus_and_table_passes_pass_their_checks(tmp_path):
    # a failed check or a raising call marks the benchmark run incorrect
    workloads = _bench_module("workloads")
    tracing = _bench_module("tracing")
    workloads.Corpus.build(str(tmp_path), 7)
    rec = tracing.Recorder()
    for workload in (workloads.Corpus, workloads.Table):
        workload(str(tmp_path), 7).run_pass(rec)
    assert {op.kind for op in rec.ops} >= {"recording", "csv", "matrix", "model", "scores"}
    assert [(op.op_id, op.errors) for op in rec.ops if not op.ok] == []


def test_table_passes_give_equal_digests(tmp_path):
    # a benchmark run flags a pass whose digests differ from the first one's
    workloads = _bench_module("workloads")
    tracing = _bench_module("tracing")
    table = workloads.Table(str(tmp_path), 7)
    rec = tracing.Recorder()
    first, second = (table.digests(table.run_pass(rec)) for _ in range(2))
    assert first == second
    assert [(op.op_id, op.errors) for op in rec.ops if not op.ok] == []
    # the seed-7 model JSON and arrow matrix, byte for byte
    assert first == {
        "merged_arrows_csv": "f818ebbe6daa992ca5c414654b6956eee44a5c215f6861d0e6ee23a85cd0d801",
        "models_json": "4e62783f325f18a98415b52d4dd908961a4696457c9732bc8ed7bbfba77167bf",
    }
