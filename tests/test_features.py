"""Descriptor bookkeeping: vectors, tables, temporal math, CSV format."""

import hashlib
import math
import os
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


def test_extract_features_equals_reference_loop(corpus):
    cfg = RunConfig()
    for clip in _corpus_clips(corpus):
        seg = segment_clip(clip, cfg)
        assert extract_features(clip, cfg, seg) == extract_features_reference(clip, cfg, seg)
        _assert_prosody_windows_are_per_window(clip, seg, cfg)


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
    _assert_prosody_windows_are_per_window(short, seg, cfg)


_SUBFRAME_ROWS = acoustics.ncc_block_rows(
    acoustics.subframe_grid(0, 11025)[0],
    acoustics.pitch_lags(11025, acoustics.F0_FLOOR_HZ, acoustics.F0_CEILING_HZ)[1],
)


# From 16 blocks (1023 to 1025 subframes, and 16 blocks less one subframe
# and plus one) the blocks are shared out over two threads, and from 24
# (24 blocks plus 5 subframes) over three.
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
    assert block_threads.runs == block_threads.runs_for(-(-subframes // _SUBFRAME_ROWS))


def test_measure_vowels_memory_does_not_grow_with_clip_length(corpus):
    cfg = RunConfig()
    audio = np.concatenate([clip.samples for clip in _corpus_clips(corpus, every=1)])

    def peak(minutes: int) -> int:
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

    assert peak(8) < 1.25 * peak(2)


def test_ncc_curve_calls_per_stressed_vowel(monkeypatch):
    # The benchmark fingerprint records acoustics.ncc_curve_calls: one call
    # per measured window, for HNR. The 25 ms subframes of the 80 ms prosody
    # windows (6 each) go through ncc_frames as one block for the clip.
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

    def counting_frames(frames, max_lag):
        if np.ndim(frames) == 2:
            blocks.append(len(frames))
        return ncc_frames(frames, max_lag)

    monkeypatch.setattr(acoustics, "ncc_curve", counting_curve)
    monkeypatch.setattr(acoustics, "ncc_frames", counting_frames)
    measured = list(measure_vowels(clip, seg, cfg))
    flen, hop, subframes = acoustics.subframe_grid(
        int(round(cfg.prosody_window * rate)), rate
    )
    assert subframes == 6
    assert len(measured) == math.ceil(len(seg.vowels) / 2) >= 2
    assert all(len(p.f0_track) == subframes and p.voiced_f0 for _, p, _, _ in measured)
    assert len(calls) == len(measured)
    assert blocks == [subframes * len(measured)]


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
