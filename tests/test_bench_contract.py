"""The benchmark's own contract with the package.

`benchmarks/run.py --trace 1` replaces each name in `install_wrappers` with a
timing wrapper, so a refactor that removes or renames one breaks the traced
run. One test calls `install_wrappers` with a tracer that only looks each
name up. Another runs one pass of the `corpus` and `table` workloads with
their per-operation correctness checks, which a benchmark run also applies,
and pins the seed-7 `corpus` digests; a third checks that two `table`
passes in one process give the same digests, as a benchmark run checks
across its passes, and pins the seed-7 `table` digests themselves; a
fourth pins the seed-11 `table` digests. The last checks the scoring
statistics the `corpus` workload takes from `cli._stats_from_table`.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import voxtrait
import voxtrait.cli
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
    corpus = workloads.Corpus(str(tmp_path), 7)
    corpus_out = corpus.run_pass(rec)
    workloads.Table(str(tmp_path), 7).run_pass(rec)
    assert {op.kind for op in rec.ops} >= {"recording", "csv", "matrix", "model", "scores"}
    assert [(op.op_id, op.errors) for op in rec.ops if not op.ok] == []
    # the seed-7 feature table, both arrow matrices and the model JSON,
    # byte for byte: the audio path from WAV to descriptors feeds them all
    assert corpus.digests(corpus_out) == {
        "features_csv": "96c18d3be966d140faa8fe932f50156841f3c42c2dfc479dea0f6e399b7ce9ab",
        "t_arrows_csv": "ae163a4414e759cb89d4644854ff202c2c34cf988be885cc2f75c62bd64d4c37",
        "W_arrows_csv": "c4b51524ef85462fb6f72b1c4ca0d9284bdd191403ecb3324f60c3cbd3a5395d",
        "cooperative_S1_model_json": (
            "22cdd983cbd6ce416c8dac73130d39ed1e87d217d0c37719bbb9bbe4cf803293"
        ),
    }


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


def test_table_seed_11_digests_are_pinned(tmp_path):
    # a second table, so that a change of bits the seed-7 models happen not
    # to show still changes a pinned digest
    workloads = _bench_module("workloads")
    tracing = _bench_module("tracing")
    table = workloads.Table(str(tmp_path), 11)
    rec = tracing.Recorder()
    digests = table.digests(table.run_pass(rec))
    assert [(op.op_id, op.errors) for op in rec.ops if not op.ok] == []
    assert digests == {
        "merged_arrows_csv": "e68ddd8d16881978fae046e92ec6016d57a98ef95fc29faff09a454bd90910fc",
        "models_json": "a052413d9837b3e081c7dd592f3329890975f8927bf2735f3e28cc0fade8c268",
    }


@pytest.mark.parametrize("seed", [7, 11])
def test_score_stats_of_the_workload_tables_keep_their_bits(seed):
    # every column of these tables varies, and each keeps the mean and
    # sample std that np.mean and np.std(ddof=1) give it, bit for bit
    table, _ = _bench_module("workloads").make_table(seed)
    got = voxtrait.cli._stats_from_table(table)
    want = {}
    for name in voxtrait.features.FEATURE_NAMES:
        values = [row.features[name] for row in table.rows if row.features.present(name)]
        if values:
            arr = np.asarray(values, dtype=np.float64)
            want[name] = (float(arr.mean()).hex(), float(arr.std(ddof=1)).hex())
    assert len(want) == 30
    assert {name: (m.hex(), s.hex()) for name, (m, s) in got.items()} == want
