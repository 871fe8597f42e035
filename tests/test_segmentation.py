"""Vowel and pause detection on constructed clips with known layout."""

import csv
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voxtrait.audio_io import AudioClip
from voxtrait.errors import ClipTooShortError, InputError
from voxtrait.segmentation import (
    FRAME_BLOCK,
    PAUSE_MIN_DURATION_S,
    FrameTrack,
    PauseSegment,
    SegmentationResult,
    VowelSegment,
    analyze_frames,
    detect_pauses,
    detect_vowels,
    segment_clip,
    select_stressed,
    write_segments_csv,
    _trim_pauses,
)

from oracles import analyze_frames_reference, trim_pauses_reference, vowel_spans_reference

RATE = 11025
HOP = 110  # round(0.010 * 11025)


def _burst(n: int) -> np.ndarray:
    t = np.arange(n) / RATE
    return 0.3 * np.sin(2.0 * math.pi * 150.0 * t)


def _clip_with_gaps(gaps_samples: list[int], burst_samples: int = 3300) -> AudioClip:
    """Alternating tone bursts and silences, all hop-aligned."""
    parts = [_burst(burst_samples)]
    for g in gaps_samples:
        parts.append(np.zeros(g))
        parts.append(_burst(burst_samples))
    return AudioClip(np.concatenate(parts), RATE)


def test_gap_durations_and_pause_floor():
    # hop-aligned gaps: 39, 50 and 120 hops; only the last two are pauses
    gaps = [39 * HOP, 50 * HOP, 120 * HOP]
    clip = _clip_with_gaps(gaps)
    track = analyze_frames(clip)
    raw = detect_pauses(track, clip.duration)
    assert len(raw) == 2
    for pause, gap in zip(raw, gaps[1:]):
        gap_s = gap / RATE
        assert gap_s - HOP / RATE <= pause.duration <= gap_s

    # full segmentation keeps both but pulls boundaries off adjacent vowels
    seg = segment_clip(clip)
    assert len(seg.pauses) == 2
    widen = 0.5 * (track.frame_length - track.hop)
    for pause, gap in zip(seg.pauses, gaps[1:]):
        gap_s = gap / RATE
        assert gap_s - HOP / RATE - 2 * widen <= pause.duration <= gap_s
        for v in seg.vowels:
            assert v.end <= pause.start or v.start >= pause.end
    assert seg.total_speech == pytest.approx(
        seg.total_duration - sum(p.duration for p in seg.pauses)
    )


def test_burst_count_and_stress_split():
    seg = segment_clip(_clip_with_gaps([50 * HOP, 120 * HOP]))
    assert len(seg.vowels) == 3
    for v in seg.vowels:
        assert 0.24 <= v.duration <= 0.34
    assert len(seg.stressed) == 2  # ceil(3/2)


def test_short_gap_is_not_a_pause():
    seg = segment_clip(_clip_with_gaps([39 * HOP]))
    assert seg.pauses == ()
    assert len(seg.vowels) == 2


def test_silent_clip_is_one_long_pause():
    clip = AudioClip(np.zeros(RATE), RATE)
    seg = segment_clip(clip)
    assert seg.vowels == ()
    assert len(seg.pauses) == 1
    assert seg.pauses[0].start == 0.0
    assert seg.pauses[0].end == pytest.approx(1.0)
    assert seg.total_speech == pytest.approx(0.0)


def test_frame_track_geometry():
    track = analyze_frames(AudioClip(np.zeros(1000), RATE))
    assert track.frame_length_samples == 276
    assert track.hop_samples == HOP
    assert track.n_frames == (1000 - 276) // HOP + 1
    assert track.frame_start(3) == pytest.approx(3 * HOP / RATE)
    assert not track.voiced.any()
    assert np.all(track.energy_db == -120.0)


def test_clip_too_short_for_one_frame():
    with pytest.raises(ClipTooShortError):
        analyze_frames(AudioClip(np.zeros(100), RATE))
    with pytest.raises(InputError):
        analyze_frames(AudioClip(np.zeros(1000), RATE), frame_length=0.01, hop=0.02)


def test_detect_vowels_needs_voiced_peaks():
    track = analyze_frames(AudioClip(np.zeros(2000), RATE))
    assert detect_vowels(track) == []


def test_select_stressed_longest_earlier_ties():
    vowels = [
        VowelSegment(0.0, 0.2),
        VowelSegment(0.3, 0.45),
        VowelSegment(0.5, 0.9),
        VowelSegment(1.0, 1.2),
        VowelSegment(1.3, 1.5),
    ]
    out = select_stressed(vowels)
    assert [v.stressed for v in out] == [True, False, True, True, False]
    assert [v.start for v in out] == [v.start for v in vowels]
    assert not any(v.stressed for v in vowels)  # inputs untouched
    assert select_stressed([]) == []


def test_segment_validation():
    with pytest.raises(InputError):
        VowelSegment(1.0, 1.0)
    with pytest.raises(InputError):
        PauseSegment(2.0, 1.0)
    v = VowelSegment(1.0, 1.5)
    assert v.center == pytest.approx(1.25)


def test_detect_pauses_respects_min_duration():
    track = analyze_frames(AudioClip(np.zeros(RATE), RATE))
    assert detect_pauses(track, 1.0, min_duration=2.0) == []
    long_enough = detect_pauses(track, 1.0, min_duration=PAUSE_MIN_DURATION_S)
    assert len(long_enough) == 1


def test_segments_csv_round_trip(tmp_path):
    seg = SegmentationResult(
        vowels=(VowelSegment(0.1, 0.3, stressed=True), VowelSegment(1.0, 1.2)),
        pauses=(PauseSegment(0.4, 0.9),),
        total_duration=2.0,
    )
    path = str(tmp_path / "seg.csv")
    write_segments_csv(path, seg)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["kind", "start_s", "end_s", "stressed"]
    assert [r[0] for r in rows[1:]] == ["vowel", "pause", "vowel"]
    assert float(rows[1][1]) == 0.1 and int(rows[1][3]) == 1
    assert float(rows[2][2]) == 0.9


def _speechlike(n: int, seed: int) -> np.ndarray:
    """Tone bursts in noise with stretches of digital silence."""
    rng = np.random.default_rng(seed)
    t = np.arange(n) / RATE
    x = 0.3 * np.sin(2.0 * math.pi * 140.0 * t) * (np.sin(2.0 * math.pi * 0.7 * t) > 0)
    x += 0.02 * rng.standard_normal(n)
    x[n // 3 : n // 3 + 2000] = 0.0
    return np.clip(x, -1.0, 1.0)


@pytest.mark.parametrize(
    "n_frames",
    [1, 2, 63, 64, FRAME_BLOCK - 1, FRAME_BLOCK, FRAME_BLOCK + 1, 3 * FRAME_BLOCK + 5],
)
def test_block_analysis_matches_whole_array(n_frames):
    x = _speechlike(276 + HOP * (n_frames - 1), seed=n_frames)
    track = analyze_frames(AudioClip(x, RATE))
    energy, strength = analyze_frames_reference(x, RATE)
    assert track.n_frames == n_frames
    assert np.array_equal(track.energy_db, energy)
    assert np.array_equal(track.voicing_strength, strength)


def test_frame_analysis_memory_does_not_grow_with_clip_length():
    def peak(minutes: int) -> int:
        clip = AudioClip(_speechlike(minutes * 60 * RATE, seed=minutes), RATE)
        tracemalloc.start()
        try:
            analyze_frames(clip)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(8) < 1.25 * peak(2)


@st.composite
def _frame_tracks(draw):
    n = draw(st.integers(1, 120))
    # a coarse energy grid makes ties and plateaus common
    energy = np.array(draw(st.lists(st.integers(-12, 0), min_size=n, max_size=n)), float)
    voiced = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    track = FrameTrack(
        sample_rate=RATE,
        frame_length_samples=276,
        hop_samples=HOP,
        energy_db=3.0 * energy,
        voicing_strength=voiced.astype(float),
        voiced=voiced,
    )
    return track, draw(st.integers(1, 12)), draw(st.sampled_from([3.0, 6.0, 20.0]))


@settings(max_examples=300, deadline=None)
@given(_frame_tracks())
def test_detect_vowels_matches_all_pairs_spacing_check(case):
    track, sep_frames, drop_db = case
    hop = track.hop
    got = detect_vowels(
        track, nucleus_drop_db=drop_db, min_duration=0.0, min_separation=sep_frames * hop
    )
    spans = vowel_spans_reference(track.energy_db, track.voiced, sep_frames, drop_db)
    want = sorted((a * hop, (b + 1) * hop) for a, b in spans)
    assert [(v.start, v.end) for v in got] == want


@st.composite
def _vowels_and_pauses(draw):
    cuts = sorted(set(draw(st.lists(st.integers(0, 400), max_size=40))))
    # consecutive cut pairs: disjoint, sorted, possibly touching vowels
    pairs = list(zip(cuts[::2], cuts[1::2]))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    vowels = [VowelSegment(0.01 * a, 0.01 * b) for (a, b), k in zip(pairs, keep) if k]
    pauses = []
    for a, length in draw(st.lists(st.tuples(st.integers(0, 400), st.integers(1, 120)))):
        pauses.append(PauseSegment(0.01 * a, 0.01 * (a + length)))
    return vowels, pauses, draw(st.sampled_from([0.01, 0.2, 0.4]))


@settings(max_examples=300, deadline=None)
@given(_vowels_and_pauses())
def test_pause_trimming_matches_all_vowels_scan(case):
    vowels, pauses, min_duration = case
    got = _trim_pauses(pauses, vowels, min_duration)
    want = trim_pauses_reference(
        [(p.start, p.end) for p in pauses], [(v.start, v.end) for v in vowels], min_duration
    )
    assert [(p.start, p.end) for p in got] == want
