"""Descriptor bookkeeping: vectors, tables, temporal math, CSV format."""

import hashlib
import math
import os
import pickle
import tracemalloc
import wave

import numpy as np
import pytest

from voxtrait import _blocks, acoustics
from voxtrait.audio_io import AudioClip, load_wav, resample
from voxtrait.config import RunConfig
from voxtrait.errors import DuplicateKeyError, InputError, TableFormatError
from voxtrait.features import (
    FEATURE_NAMES,
    FeatureTable,
    FeatureVector,
    TableRow,
    extract_features,
    measure_vowels,
    read_table_csv,
    temporal_features,
    write_table_csv,
)
from voxtrait.segmentation import (
    PauseSegment,
    SegmentationResult,
    VowelSegment,
    segment_clip,
)
from voxtrait.synth import generate_corpus, synthesize_vowel

import oracles
from oracles import extract_features_reference


def test_vector_fills_absent_names():
    v = FeatureVector({"spkrate": 0.5})
    assert v["spkrate"] == 0.5
    assert v["cep8"] is None
    assert v.present("spkrate") and not v.present("cep8")
    arr = v.as_array()
    assert arr.shape == (30,)
    assert arr[0] == 0.5
    assert np.isnan(arr[1:]).all()


def test_as_array_is_built_once_and_handed_out_as_copies():
    v = FeatureVector({"spkrate": 0.5, "f0_mean": 120.0, "cep8": None})
    want = np.full(len(FEATURE_NAMES), np.nan)
    want[FEATURE_NAMES.index("spkrate")] = 0.5
    want[FEATURE_NAMES.index("f0_mean")] = 120.0
    first = v.as_array()
    assert np.array_equal(first, want, equal_nan=True)
    first[:] = 7.0  # a caller's own array
    assert np.array_equal(v.as_array(), want, equal_nan=True)
    # the cached array is no field: equality, repr and pickling see values only
    same = FeatureVector({"f0_mean": 120.0, "spkrate": 0.5})
    assert v == same and v != FeatureVector({"spkrate": 0.5})
    assert repr(v) == repr(same) == f"FeatureVector(values={v.values!r})"
    back = pickle.loads(pickle.dumps(v))
    assert back == v and repr(back) == repr(v)
    assert np.array_equal(back.as_array(), want, equal_nan=True)


def test_vector_rejects_unknown_names():
    with pytest.raises(InputError):
        FeatureVector({"speaking_rate": 1.0})
    v = FeatureVector({})
    with pytest.raises(KeyError):
        v["speaking_rate"]


def test_table_key_discipline():
    table = FeatureTable()
    table.add("B", "S1", FeatureVector({}))
    with pytest.raises(DuplicateKeyError):
        table.add("B", "S1", FeatureVector({}))
    with pytest.raises(InputError):
        table.add("B", "S4", FeatureVector({}))
    table.add("A", "S2", FeatureVector({"f1": 500.0}))
    table.add("B", "S2", FeatureVector({}))
    table.add("C", "S3", FeatureVector({}))
    assert table.speakers() == ["B", "A", "C"]  # insertion order, not sorted
    assert table.get("A", "S2")["f1"] == 500.0
    assert table.get("B", "S3") is None
    assert table.get("Z", "S1") is None
    assert [(r.speaker_id, r.session) for r in table.rows] == [
        ("B", "S1"), ("A", "S2"), ("B", "S2"), ("C", "S3")
    ]

    rows = [TableRow("A", "S1", FeatureVector({}))] * 2
    with pytest.raises(DuplicateKeyError):
        FeatureTable(rows)


def test_table_built_from_rows_checks_each_session():
    rows = [TableRow("A", "S1", FeatureVector({})), TableRow("A", "S9", FeatureVector({}))]
    with pytest.raises(InputError):
        FeatureTable(rows)


def test_table_built_from_rows_is_keyed():
    table = FeatureTable([TableRow("B", "S2", FeatureVector({"f2": 1.5})),
                          TableRow("A", "S1", FeatureVector({}))])
    assert table.get("B", "S2")["f2"] == 1.5
    assert table.get("B", "S1") is None
    assert table.speakers() == ["B", "A"]
    with pytest.raises(DuplicateKeyError):
        table.add("A", "S1", FeatureVector({}))
    table.add("A", "S3", FeatureVector({}))
    assert table.get("A", "S3") is not None


def test_temporal_features_hand_worked():
    seg = SegmentationResult(
        vowels=(
            VowelSegment(0.1, 0.3),
            VowelSegment(0.5, 0.9),
            VowelSegment(1.2, 1.45),
        ),
        pauses=(PauseSegment(1.5, 2.1), PauseSegment(2.5, 3.2)),
        total_duration=4.0,
    )
    out = temporal_features(seg)
    speech = 4.0 - 1.3
    assert out["spkrate"] == pytest.approx((0.2 + 0.4 + 0.25) / speech)
    assert out["mean_pause"] == pytest.approx(0.65)
    assert out["pauses_second"] == pytest.approx(2 / 4.0)
    assert out["pause_speech_ratio"] == pytest.approx(1.3 / speech)
    assert out["rhythm"] == pytest.approx(3 / 4.0)
    assert out["vowel_mean"] == pytest.approx(0.85 / 3)
    assert out["vowel_std"] == pytest.approx(float(np.std([0.2, 0.4, 0.25], ddof=1)))


def test_temporal_features_degenerate():
    empty = SegmentationResult(vowels=(), pauses=(), total_duration=0.0)
    out = temporal_features(empty)
    assert all(out[k] is None for k in out)

    one_vowel = SegmentationResult(
        vowels=(VowelSegment(0.0, 0.5),), pauses=(), total_duration=1.0
    )
    out = temporal_features(one_vowel)
    assert out["mean_pause"] is None
    assert out["vowel_std"] is None
    assert out["pause_speech_ratio"] == 0.0
    assert out["rhythm"] == 1.0


def _corpus_clips(corpus, every=3):
    for name in sorted(os.listdir(corpus.wav_dir))[::every]:
        yield resample(load_wav(os.path.join(corpus.wav_dir, name)))


def _assert_prosody_windows_are_per_window(clip, seg, cfg):
    x, rate = clip.samples, clip.sample_rate
    n = int(round(cfg.prosody_window * rate))
    measured = list(measure_vowels(clip, seg, cfg))
    assert [m[0] for m in measured] == list(seg.stressed)
    for vowel, prosody, _, _ in measured:
        lo = max(int(round(vowel.center * rate)) - n // 2, 0)
        window = x[lo : lo + n]
        if window.size < int(round(cfg.frame_length * rate)):
            assert prosody is None
        else:
            assert prosody == acoustics.analyze_prosody_window(
                window, rate, vowel.center, cfg.f0_floor, cfg.f0_ceiling, cfg.voicing_threshold
            )
    return measured


def _assert_windows_equal_the_one_window_copies(clip, seg, cfg):
    # each quality and spectral window equals the one-window HNR, LPC and
    # mel-cepstrum code kept in oracles.py, and analyze_*_window of its window
    x, rate = clip.samples, clip.sample_rate
    n = int(round(cfg.prosody_window * rate))
    n_spec = int(round(cfg.spectral_window * rate))
    measured = _assert_prosody_windows_are_per_window(clip, seg, cfg)
    for vowel, prosody, quality, spectral in measured:
        center = int(round(vowel.center * rate))
        if prosody is None:
            assert quality is None
        else:
            window = x[max(center - n // 2, 0) :][:n]
            voiced = prosody.voiced_f0
            f0 = float(np.median(voiced)) if voiced else None
            hnr = None if f0 is None else oracles.harmonicity_db(window, f0, rate)
            assert quality.harmonicity_db == hnr
            assert quality == acoustics.analyze_quality_window(window, rate, vowel.center, f0)
        window = x[max(center - n_spec // 2, 0) :][:n_spec]
        if window.size < n_spec:
            assert spectral is None
        else:
            assert (spectral.formants, spectral.bandwidths) == oracles.lpc_formants(window, rate)
            assert spectral.cepstra == tuple(oracles.mfcc(window, rate).tolist())
            assert spectral == acoustics.analyze_spectral_window(window, rate, vowel.center)
    return measured


def test_extract_features_equals_reference_loop(corpus):
    cfg = RunConfig()
    for clip in _corpus_clips(corpus):
        seg = segment_clip(clip, cfg)
        assert extract_features(clip, cfg, seg) == extract_features_reference(clip, cfg, seg)
        _assert_windows_equal_the_one_window_copies(clip, seg, cfg)


def test_measure_vowels_at_the_clip_edge(corpus):
    # Cut the clip 10 ms past the center of its next-to-last stressed vowel:
    # that vowel's spectral window runs short, the last vowel's are empty.
    cfg = RunConfig()
    clip = next(_corpus_clips(corpus))
    seg = segment_clip(clip, cfg)
    cut = seg.stressed[-2].center + 0.010
    short = AudioClip(clip.samples[: int(cut * clip.sample_rate)], clip.sample_rate)
    measured = list(measure_vowels(short, seg, cfg))
    assert [m[0] for m in measured] == list(seg.stressed)
    assert measured[-3][1] is not None and measured[-3][3] is not None
    assert measured[-2][1] is not None and measured[-2][3] is None
    assert measured[-1][1:] == (None, None, None)
    assert extract_features(short, cfg, seg) == extract_features_reference(short, cfg, seg)
    _assert_windows_equal_the_one_window_copies(short, seg, cfg)


def test_measure_vowels_without_stressed_vowels(corpus):
    cfg = RunConfig()
    clip = next(_corpus_clips(corpus))
    seg = segment_clip(clip, cfg)
    unstressed = SegmentationResult(
        tuple(VowelSegment(v.start, v.end) for v in seg.vowels), seg.pauses, seg.total_duration
    )
    assert list(measure_vowels(clip, unstressed, cfg)) == []
    got = extract_features(clip, cfg, unstressed)
    assert got == extract_features_reference(clip, cfg, unstressed)
    assert got["harmonicity"] is None and got["f1"] is None and got["cep1"] is None


_QUALITY_ROWS = acoustics.quality_block_rows(882, 11025, acoustics.F0_FLOOR_HZ)


@pytest.mark.parametrize(
    "windows", [_QUALITY_ROWS - 1, _QUALITY_ROWS, _QUALITY_ROWS + 1, 2 * _QUALITY_ROWS + 3]
)
def test_quality_and_spectral_windows_across_block_boundaries(windows):
    # Vowels at F0s from 76 to 220 Hz, so that each block's HNR runs at both
    # NCC sizes (nfft 2048 below about 79.3 Hz at 80 ms, else 1024), with a
    # stressed vowel every 60 ms. The clip ends 15 ms past the last center,
    # so the last prosody window is cut at the edge and the last spectral
    # window is cut below its full length.
    cfg = RunConfig()
    rate = cfg.sample_rate
    rng = np.random.default_rng(windows)
    f0s = (76.0, 200.0, 120.0, 78.0, 220.0, 150.0)
    step = int(0.060 * rate)
    audio = np.concatenate(
        [
            synthesize_vowel(rate, f0s[i % 6], (700.0, 1200.0, 2600.0), (80.0, 90.0, 120.0),
                             step, rng)
            for i in range(windows + 1)
        ]
    )
    centers = [0.03 + 0.06 * i for i in range(windows)]
    x = audio[: int(round((centers[-1] + 0.015) * rate))]
    seg = SegmentationResult(
        tuple(VowelSegment(c - 0.01, c + 0.01, stressed=True) for c in centers), (), x.size / rate
    )
    clip = AudioClip(x, rate)
    measured = _assert_windows_equal_the_one_window_copies(clip, seg, cfg)
    assert len(measured) == windows
    assert len(measured[-1][1].f0_track) < 6 and measured[-1][3] is None
    assert measured[-2][3] is not None
    hnr_f0 = [float(np.median(p.voiced_f0)) for _, p, _, _ in measured if p.voiced_f0]
    assert min(hnr_f0) < 79.0 < max(hnr_f0)
    assert extract_features(clip, cfg, seg) == extract_features_reference(clip, cfg, seg)


_SUBFRAME_ROWS = acoustics.ncc_block_rows(
    acoustics.subframe_grid(0, 11025)[0],
    acoustics.pitch_lags(11025, acoustics.F0_FLOOR_HZ, acoustics.F0_CEILING_HZ)[1],
)


# 16 F0 blocks (1023 to 1025 subframes, and 16 blocks less one subframe and
# plus one) and 24 (24 blocks plus 5 subframes): counts at which a
# _blocks.run_blocks loop would share its blocks out over two and three
# threads, where measure_vowels keeps every block in the caller's thread.
_POOLED = 2 * _blocks.MIN_BLOCKS_PER_WORKER * _SUBFRAME_ROWS


@pytest.mark.parametrize(
    "subframes",
    [_SUBFRAME_ROWS - 1, _SUBFRAME_ROWS, _SUBFRAME_ROWS + 1, 1023, 1024, 1025]
    + [_POOLED - 1, _POOLED + 1, 3 * _POOLED // 2 + 5],
)
def test_prosody_windows_across_block_boundaries(corpus, subframes, block_threads):
    # Stressed vowels every 50 ms, so prosody windows overlap, over a clip
    # cut so that the last window keeps the last 1 to 6 of the subframes.
    # With one F0 block of subframes, less one or plus one, the clip's last
    # subframe falls just before, at or just past the end of the first block;
    # plus one puts a block boundary inside a vowel unless a block holds a
    # multiple of 6 rows. The 1023 to 1025 subframes run over many blocks.
    # F0 blocks start at each block of 16 vowels, whose 96 subframes put an
    # F0 block boundary inside the 11th window (subframe 62).
    cfg = RunConfig()
    rate = cfg.sample_rate
    audio = np.concatenate([clip.samples for clip in _corpus_clips(corpus, every=6)])
    windows = -(-subframes // 6)
    tail = subframes - 6 * (windows - 1)
    flen, hop, _ = acoustics.subframe_grid(0, rate)
    centers = [0.05 + 0.05 * i for i in range(windows)]
    lo = int(round(centers[-1] * rate)) - int(round(cfg.prosody_window * rate)) // 2
    x = audio[: lo + flen + hop * (tail - 1)]
    seg = SegmentationResult(
        tuple(VowelSegment(c - 0.01, c + 0.01, stressed=True) for c in centers),
        (),
        x.size / rate,
    )
    measured = _assert_prosody_windows_are_per_window(AudioClip(x, rate), seg, cfg)
    assert sum(len(m[1].f0_track) for m in measured) == subframes
    assert len(measured[-1][1].f0_track) == tail
    assert block_threads.runs == 0  # measure_vowels hands no run to the pool


def _measure_vowels_peak(audio: np.ndarray, minutes: int) -> int:
    cfg = RunConfig()
    n = minutes * 60 * cfg.sample_rate
    clip = AudioClip(np.tile(audio, -(-n // audio.size))[:n], cfg.sample_rate)
    seg = segment_clip(clip, cfg)
    tracemalloc.start()
    try:
        for _ in measure_vowels(clip, seg, cfg):
            pass
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_measure_vowels_memory_does_not_grow_with_clip_length(corpus, monkeypatch):
    # one block at a time, as measure_vowels runs in the caller's thread;
    # one worker also keeps segment_clip's frame analysis serial
    monkeypatch.setattr(_blocks, "_workers", 1)
    audio = np.concatenate([clip.samples for clip in _corpus_clips(corpus, every=1)])
    assert _measure_vowels_peak(audio, 8) < 1.25 * _measure_vowels_peak(audio, 2)


def test_threaded_measure_vowels_memory_is_bounded_per_thread(
    corpus, monkeypatch, block_threads
):
    # NCC_BLOCK_BYTES is a budget per thread: with block threads available,
    # measure_vowels holds no more than threads times the serial pass does
    # (an F0 block alone peaks near NCC_BLOCK_BYTES + 256 KiB, so a bound of
    # one block per extra thread above the serial peak would leave no room)
    audio = np.concatenate([clip.samples for clip in _corpus_clips(corpus, every=1)])
    threads = _blocks._workers
    monkeypatch.setattr(_blocks, "_workers", 1)
    serial = _measure_vowels_peak(audio, 8)
    monkeypatch.setattr(_blocks, "_workers", threads)
    assert _measure_vowels_peak(audio, 8) <= threads * serial
    # segment_clip's frame analysis was shared out, and measure_vowels hands
    # no run to the pool
    assert block_threads.runs == threads - 1


def test_ncc_curve_calls_per_stressed_vowel(monkeypatch):
    # The benchmark fingerprint records acoustics.ncc_curve_calls, which the
    # measured windows no longer make. The 25 ms subframes of the 80 ms
    # prosody windows (6 each) go through ncc_frames as one block for the
    # clip's one vowel block, and the HNR of the windows as one more: their
    # F0s all put the HNR NCC at one FFT size.
    rate = 11025
    rng = np.random.default_rng(4)
    silence = np.zeros(int(0.3 * rate))
    parts = [silence]
    for f0, dur in [(120.0, 0.25), (180.0, 0.15), (140.0, 0.30), (220.0, 0.12)]:
        vowel = synthesize_vowel(rate, f0, (700.0, 1200.0, 2600.0), (80.0, 90.0, 120.0),
                                 int(dur * rate), rng)
        parts += [0.5 * vowel / np.max(np.abs(vowel)), silence]
    clip = AudioClip(np.concatenate(parts), rate)
    cfg = RunConfig()
    seg = segment_clip(clip, cfg)
    calls = []
    blocks = []
    ncc_curve = acoustics.ncc_curve
    ncc_frames = acoustics.ncc_frames

    def counting_curve(x, max_lag):
        calls.append(max_lag)
        return ncc_curve(x, max_lag)

    def counting_frames(frames, lo, hi, squares=None):
        if np.ndim(frames) == 2:
            blocks.append(len(frames))
        return ncc_frames(frames, lo, hi, squares)

    monkeypatch.setattr(acoustics, "ncc_curve", counting_curve)
    monkeypatch.setattr(acoustics, "ncc_frames", counting_frames)
    measured = list(measure_vowels(clip, seg, cfg))
    flen, hop, subframes = acoustics.subframe_grid(
        int(round(cfg.prosody_window * rate)), rate
    )
    assert subframes == 6
    assert len(measured) == math.ceil(len(seg.vowels) / 2) >= 2
    assert all(len(p.f0_track) == subframes and p.voiced_f0 for _, p, _, _ in measured)
    assert calls == []
    assert blocks == [subframes * len(measured), len(measured)]


def test_corpus_extraction_fills_every_descriptor(extracted):
    table, _ = extracted
    assert len(table.rows) == 18
    for row in table.rows:
        missing = [n for n in FEATURE_NAMES if not row.features.present(n)]
        assert missing == [], f"{row.speaker_id}/{row.session} lacks {missing}"


# sha256 of the 30 descriptor reprs, comma-joined, of 30 s of the seed-7
# one-speaker corpus tiled and written as 44.1 kHz 16-bit stereo: the path
# of a recorder's WAV through decode, mixdown, resampling, segmentation
# and every per-vowel measure.
STEREO_44K_DESCRIPTORS_SHA256 = "16cf1994da78cdd57ccebda9468f6fd7436ec01f9304c43b3d1d2d12f3f0e809"


def test_44k_stereo_descriptors_are_pinned(tmp_path):
    paths = generate_corpus(str(tmp_path / "corpus"), n_speakers=1, seed=7)
    audio = np.concatenate(
        [load_wav(os.path.join(paths.wav_dir, name)).samples
         for name in sorted(os.listdir(paths.wav_dir))]
    )
    n = 30 * 11025
    tiled = np.tile(audio, -(-n // audio.size))[:n]
    left = resample(AudioClip(tiled, 11025), 44100).samples
    right = np.roll(left, 3)
    pcm = np.round(np.stack((left, right), axis=1) * 32767.0).astype("<i2")
    path = str(tmp_path / "stereo.wav")
    with wave.open(path, "wb") as wf:
        wf.setnchannels(2)
        wf.setsampwidth(2)
        wf.setframerate(44100)
        wf.writeframes(pcm.tobytes())

    clip = resample(load_wav(path))
    cfg = RunConfig()
    fv = extract_features(clip, cfg, segment_clip(clip, cfg))
    text = ",".join(repr(fv[name]) for name in FEATURE_NAMES)
    assert hashlib.sha256(text.encode()).hexdigest() == STEREO_44K_DESCRIPTORS_SHA256


def test_csv_round_trip_with_absent_cells(tmp_path):
    table = FeatureTable()
    table.add("A", "S1", FeatureVector({"spkrate": 0.123456789012345, "f1": 712.25}))
    table.add("A", "S2", FeatureVector({"cep3": -1.5e-7}))
    path = str(tmp_path / "feat.csv")
    write_table_csv(path, table)
    back = read_table_csv(path)
    assert len(back.rows) == 2
    assert back.get("A", "S1")["spkrate"] == 0.123456789012345
    assert back.get("A", "S1")["f1"] == 712.25
    assert back.get("A", "S1")["cep3"] is None
    assert back.get("A", "S2")["cep3"] == -1.5e-7


def test_csv_format_errors(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("speaker,session\nA,S1\n")
    with pytest.raises(TableFormatError):
        read_table_csv(str(p))

    header = ",".join(["speaker_id", "session", *FEATURE_NAMES])
    p.write_text(header + "\nA,S1,1.0\n")
    with pytest.raises(TableFormatError):
        read_table_csv(str(p))

    cells = ["A", "S1"] + ["x"] + [""] * 29
    p.write_text(header + "\n" + ",".join(cells) + "\n")
    with pytest.raises(TableFormatError, match=r"bad\.csv:2: "):
        read_table_csv(str(p))

    with pytest.raises(InputError):
        read_table_csv(str(tmp_path / "absent.csv"))


@pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
def test_csv_rejects_non_finite_cells(tmp_path, cell):
    header = ",".join(["speaker_id", "session", *FEATURE_NAMES])
    good = ",".join(["A", "S1"] + ["1.0"] * 30)
    bad = ",".join(["B", "S1", cell] + [""] * 29)
    p = tmp_path / "feat.csv"
    p.write_text(f"{header}\n{good}\n\n{bad}\n")
    with pytest.raises(TableFormatError, match=r"feat\.csv:4: .*not finite"):
        read_table_csv(str(p))


def test_csv_row_errors_name_the_line(tmp_path):
    header = ",".join(["speaker_id", "session", *FEATURE_NAMES])
    row = ",".join(["A", "S1"] + [""] * 30)
    p = tmp_path / "feat.csv"
    p.write_text(f"{header}\n{row}\n{row}\n")
    with pytest.raises(DuplicateKeyError, match=r"feat\.csv:3: duplicate row"):
        read_table_csv(str(p))
    p.write_text(f"{header}\n\n{row.replace('S1', 'S9')}\n")
    with pytest.raises(InputError, match=r"feat\.csv:3: session must be"):
        read_table_csv(str(p))
    p.write_text(f"{header}\n{row},\n")
    with pytest.raises(TableFormatError, match=r"feat\.csv:2: wrong column count"):
        read_table_csv(str(p))
