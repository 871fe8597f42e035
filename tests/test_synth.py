"""Synthetic corpus: determinism, file inventory and planted ground truth."""

import csv
import filecmp
import hashlib
import os

import numpy as np
import pytest

from voxtrait.features import SESSIONS
from voxtrait.regression import DV_NAMES, read_ratings_csv
from voxtrait.synth import (
    NEGATIVE_DVS,
    POSITIVE_DVS,
    SA_DVS,
    VOWEL_TABLE,
    generate_corpus,
    synthesize_interview,
    synthesize_vowel,
)

from oracles import synthesize_vowel_reference

RATE = 11025


def test_dv_partition():
    assert set(POSITIVE_DVS) | set(NEGATIVE_DVS) == set(DV_NAMES)
    assert not set(POSITIVE_DVS) & set(NEGATIVE_DVS)
    assert SA_DVS == POSITIVE_DVS


def test_corpus_is_reproducible_byte_for_byte(tmp_path):
    a = generate_corpus(str(tmp_path / "a"), n_speakers=2, seed=3)
    b = generate_corpus(str(tmp_path / "b"), n_speakers=2, seed=3)
    for rel in sorted(os.listdir(a.wav_dir)):
        assert filecmp.cmp(
            os.path.join(a.wav_dir, rel), os.path.join(b.wav_dir, rel), shallow=False
        ), rel
    for name in ("manifest.csv", "ratings.csv", "latents.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    c = generate_corpus(str(tmp_path / "c"), n_speakers=2, seed=4)
    assert not filecmp.cmp(
        os.path.join(a.wav_dir, "sp01_S1.wav"),
        os.path.join(c.wav_dir, "sp01_S1.wav"),
        shallow=False,
    )


# sha256 of the six WAVs of generate_corpus(n_speakers=2, seed=3), read in
# sorted file-name order. These files are the acceptance checks' data: a
# change to synthesis must leave every byte as it is, not update this pin.
SEED3_WAV_SHA256 = "504bc0d7e2729cf3ece46fc38da3cd913efec94a2998b182b5bcc8fdbbd4a964"


def test_corpus_wav_bytes_are_pinned(tmp_path):
    paths = generate_corpus(str(tmp_path), n_speakers=2, seed=3)
    names = sorted(os.listdir(paths.wav_dir))
    assert len(names) == 6
    digest = hashlib.sha256()
    for name in names:
        with open(os.path.join(paths.wav_dir, name), "rb") as fh:
            digest.update(fh.read())
    assert digest.hexdigest() == SEED3_WAV_SHA256


# sha256 of the three CSVs of generate_corpus(n_speakers=2, seed=3): the
# manifest, the ratings and the ground-truth latents.
SEED3_CSV_SHA256 = {
    "manifest.csv": "355212ea5a36ba6000b6d054ab071e54e8ca7e94f2a33852e6df1bffd1b036af",
    "ratings.csv": "6dd79e113bdd4db0e2b1ac9d050f69f36c6cb2373ee3aa1f22ebc1d5d4e43db8",
    "latents.csv": "bb3edd4a133bfe78c05ed2ef5487fd42244dc2d0ef3055bc863605d677db8174",
}


def test_corpus_csv_bytes_are_pinned(tmp_path):
    generate_corpus(str(tmp_path), n_speakers=2, seed=3)
    got = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in SEED3_CSV_SHA256
    }
    assert got == SEED3_CSV_SHA256


def test_corpus_inventory(corpus):
    n = 6
    wavs = sorted(os.listdir(corpus.wav_dir))
    assert len(wavs) == 3 * n
    with open(corpus.manifest, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3 * n
    assert {r["session"] for r in rows} == set(SESSIONS)
    for r in rows:
        assert os.path.exists(os.path.join(corpus.root, r["path"]))

    ratings = read_ratings_csv(corpus.ratings)
    per_speaker_p = {}
    per_speaker_sa = {}
    for (sid, dv, rt), val in ratings.ratings.items():
        assert isinstance(val, int) and 1 <= val <= 7
        bucket = per_speaker_p if rt == "P" else per_speaker_sa
        bucket.setdefault(sid, set()).add(dv)
    assert all(dvs == set(DV_NAMES) for dvs in per_speaker_p.values())
    assert all(dvs == set(SA_DVS) for dvs in per_speaker_sa.values())
    assert len(per_speaker_p) == n

    with open(corpus.latents, newline="") as fh:
        latents = list(csv.DictReader(fh))
    assert len(latents) == 3 * n
    for row in latents:
        assert 0.10 <= float(row["psr_target"]) <= 0.85


def test_vowel_synthesis_shape_and_bounds():
    rng = np.random.default_rng(0)
    v = synthesize_vowel(RATE, 150.0, (700.0, 1200.0, 2600.0), (130.0, 70.0, 160.0), 2205, rng)
    assert v.shape == (2205,)
    assert np.all(np.isfinite(v))
    assert np.max(np.abs(v)) == pytest.approx(1.0)
    assert synthesize_vowel(RATE, 150.0, (700.0,), (130.0,), 0, rng).size == 0


@pytest.mark.parametrize("f0", [90.0, 150.0, 185.0, 260.0, 400.0])
def test_recurrence_rounds_like_the_cosine_matrix(f0):
    # k_max runs from about 13 (400 Hz) to 58 (90 Hz). The recurrence moves
    # the floats by far less than an int16 step, so every WAV sample rounds
    # the same way as in the n x K cosine-matrix form it replaced.
    for i, n in enumerate((1, 110, 2205, 2867)):
        formants, bandwidths = VOWEL_TABLE[i % len(VOWEL_TABLE)]
        v = synthesize_vowel(RATE, f0, formants, bandwidths, n, np.random.default_rng(i))
        ref = synthesize_vowel_reference(
            RATE, f0, formants, bandwidths, n, np.random.default_rng(i)
        )
        assert v.shape == ref.shape == (n,)
        assert np.array_equal(np.round(v * 32767), np.round(ref * 32767)), (f0, n)


def test_interview_layout_tracks_psr_target():
    from voxtrait.audio_io import AudioClip
    from voxtrait.features import extract_features
    from voxtrait.segmentation import segment_clip

    for seed, target in ((0, 0.2), (1, 0.45), (2, 0.7)):
        rng = np.random.default_rng(seed)
        x = synthesize_interview(rng, RATE, target, 185.0, 1.0)
        clip = AudioClip(x, RATE)
        seg = segment_clip(clip)
        assert seg.pauses, target
        measured = sum(p.duration for p in seg.pauses) / seg.total_speech
        assert measured == pytest.approx(target, abs=0.08)


def test_extracted_f0_tracks_f0_base_loosely(corpus, extracted):
    # F0 is a deliberately noisy channel (pause structure must stay the
    # best predictor), so only loose per-row and rank-level agreement hold
    table, _ = extracted
    measured = []
    planted = []
    with open(corpus.latents, newline="") as fh:
        for row in csv.DictReader(fh):
            fv = table.get(row["speaker_id"], row["session"])
            assert fv is not None
            assert fv["f0_mean"] == pytest.approx(float(row["f0_base"]), abs=35.0)
            measured.append(fv["f0_mean"])
            planted.append(float(row["f0_base"]))
    assert np.corrcoef(measured, planted)[0, 1] > 0.5


def test_extreme_attitudes_stay_in_valid_psr_band(tmp_path):
    # the clip keeps even extreme latents inside the synthesizable band
    paths = generate_corpus(str(tmp_path / "x"), n_speakers=12, seed=99)
    with open(paths.latents, newline="") as fh:
        targets = [float(r["psr_target"]) for r in csv.DictReader(fh)]
    assert min(targets) >= 0.10
    assert max(targets) <= 0.85
    assert max(targets) - min(targets) > 0.15  # latents actually move it
