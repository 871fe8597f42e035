import csv
import os

import pytest

from voxtrait import _blocks
from voxtrait.audio_io import load_wav, resample
from voxtrait.features import FeatureTable, extract_features
from voxtrait.regression import read_ratings_csv
from voxtrait.synth import generate_corpus


@pytest.fixture(scope="session")
def corpus(tmp_path_factory):
    """Small deterministic synthetic corpus: 6 speakers x 3 sessions."""
    root = tmp_path_factory.mktemp("corpus")
    return generate_corpus(str(root), n_speakers=6, seed=7)


@pytest.fixture(scope="session")
def extracted(corpus):
    """(FeatureTable, RatingTable) extracted from the shared corpus."""
    table = FeatureTable()
    with open(corpus.manifest, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            clip = resample(load_wav(os.path.join(corpus.root, row["path"])))
            table.add(row["speaker_id"], row["session"], extract_features(clip))
    return table, read_ratings_csv(corpus.ratings)


class _CountingPool:
    """The block pool, counting the runs handed to its threads."""

    def __init__(self, pool):
        self.pool = pool
        self.runs = 0

    def submit(self, fn, *args):
        self.runs += 1
        return self.pool.submit(fn, *args)

    @staticmethod
    def runs_for(n_blocks):
        """Runs a loop of n_blocks hands to pool threads."""
        return max(0, min(_blocks._workers, n_blocks // _blocks.MIN_BLOCKS_PER_WORKER) - 1)


@pytest.fixture()
def block_threads(monkeypatch):
    """Three block threads, however many CPUs the machine has.

    Yields the pool wrapper, whose `runs` counts the runs handed to pool
    threads, so a test can check that a loop really was shared out.
    """
    monkeypatch.setattr(_blocks, "_workers", 3)
    pool = _CountingPool(_blocks._shared_pool())
    monkeypatch.setattr(_blocks, "_shared_pool", lambda: pool)
    return pool
