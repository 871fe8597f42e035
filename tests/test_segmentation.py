"""Vowel and pause detection on constructed clips with known layout."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voxtrait import acoustics
from voxtrait.audio_io import AudioClip
from voxtrait.config import RunConfig
from voxtrait.errors import ClipTooShortError, InputError
from voxtrait.segmentation import (
    FrameTrack,
    PauseSegment,
    VowelSegment,
    analyze_frames,
    detect_pauses,
    detect_vowels,
    segment_clip,
    select_stressed,
    _trim_pauses,
)

from oracles import analyze_frames_reference, trim_pauses_reference, vowel_spans_reference

RATE = 11025
HOP = 110  # round(0.010 * 11025)
MAX_LAG = acoustics.pitch_lags(RATE, acoustics.F0_FLOOR_HZ, acoustics.F0_CEILING_HZ)[1]
ROWS = acoustics.ncc_block_rows(276, MAX_LAG)  # frames per block at the default 25 ms


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
    assert not track.voiced.any()
    assert np.all(track.energy_db == -120.0)


def test_clip_too_short_for_one_frame():
    with pytest.raises(ClipTooShortError):
        analyze_frames(AudioClip(np.zeros(100), RATE))
    # RunConfig rejects a hop longer than its frame, but the clip's own rate
    # sets the samples: at 40 Hz a 1 ms hop rounds to no sample at all
    with pytest.raises(InputError, match="bad frame geometry"):
        analyze_frames(AudioClip(np.zeros(1000), 40), RunConfig(frame_hop=0.001))


def test_frame_too_short_for_the_pitch_range():
    # the normalized autocorrelation keeps 8 samples of overlap, so a frame
    # needs the lowest pitch lag (ceil(11025 / 500) = 23) plus 8 samples
    shortest = acoustics.min_frame_samples(RATE, 75.0, 500.0)
    assert shortest == 31
    for frame_length in (0.002, (shortest - 1) / RATE):
        with pytest.raises(InputError, match="frame_length"):
            RunConfig(frame_length=frame_length, frame_hop=0.001)
    cfg = RunConfig(frame_length=shortest / RATE, frame_hop=0.001)
    track = analyze_frames(AudioClip(np.zeros(1000), RATE), cfg)
    assert track.frame_length_samples == shortest
    # the clip's own rate sets the samples: at 8000 Hz the same frame is 22
    # samples, short of the ceil(8000 / 500) + 8 = 24 that rate needs
    assert acoustics.min_frame_samples(8000, 75.0, 500.0) == 24
    with pytest.raises(InputError, match="too short"):
        analyze_frames(AudioClip(np.zeros(1000), 8000), cfg)


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
    assert detect_pauses(track, 1.0, RunConfig(pause_min_duration=2.0)) == []
    long_enough = detect_pauses(track, 1.0, RunConfig())
    assert len(long_enough) == 1


def _speechlike(n: int, seed: int) -> np.ndarray:
    """Tone bursts in noise with stretches of digital silence."""
    rng = np.random.default_rng(seed)
    t = np.arange(n) / RATE
    x = 0.3 * np.sin(2.0 * math.pi * 140.0 * t) * (np.sin(2.0 * math.pi * 0.7 * t) > 0)
    x += 0.02 * rng.standard_normal(n)
    x[n // 3 : n // 3 + 2000] = 0.0
    return np.clip(x, -1.0, 1.0)


# ROWS - 1 to ROWS + 1 frames straddle the end of the first block; 3 * ROWS + 5
# and 1023 to 3077 frames run over many blocks, the last one partial (a set:
# ROWS + 1 may equal one of the fixed lengths)
@pytest.mark.parametrize(
    "n_frames",
    sorted({1, 2, 63, 64, ROWS - 1, ROWS, ROWS + 1, 3 * ROWS + 5, 1023, 1024, 1025, 3077}),
)
def test_block_analysis_matches_whole_array(n_frames):
    x = _speechlike(276 + HOP * (n_frames - 1), seed=n_frames)
    track = analyze_frames(AudioClip(x, RATE))
    energy, strength = analyze_frames_reference(x, RATE)
    assert track.n_frames == n_frames
    assert np.array_equal(track.energy_db, energy)
    assert np.array_equal(track.voicing_strength, strength)


def test_block_analysis_of_50ms_frames_matches_whole_array():
    # 551-sample frames take a 1024-point FFT, twice the default's, so a
    # block holds about half as many of them
    flen = int(round(0.050 * RATE))
    rows = acoustics.ncc_block_rows(flen, MAX_LAG)
    assert rows < ROWS
    n_frames = 3 * rows + 5
    x = _speechlike(flen + HOP * (n_frames - 1), seed=50)
    track = analyze_frames(AudioClip(x, RATE), RunConfig(frame_length=0.050))
    energy, strength = analyze_frames_reference(x, RATE, frame_length=0.050)
    assert track.n_frames == n_frames
    assert np.array_equal(track.energy_db, energy)
    assert np.array_equal(track.voicing_strength, strength)


def test_voicing_strength_is_the_pitch_tracker_curve():
    # one kernel: each frame's voicing strength is, to the bit, the peak of
    # the curve f0_once searches, over the same lag range
    x = _speechlike(RATE, seed=5)
    track = analyze_frames(AudioClip(x, RATE))
    lo, hi = acoustics.pitch_lags(RATE, acoustics.F0_FLOOR_HZ, acoustics.F0_CEILING_HZ)
    flen, hop = track.frame_length_samples, track.hop_samples
    expected = [
        acoustics.ncc_curve(x[i * hop : i * hop + flen], hi)[lo:].max()
        for i in range(track.n_frames)
    ]
    assert track.voiced.any() and not track.voiced.all()
    assert np.array_equal(track.voicing_strength, expected)


def test_frame_analysis_memory_does_not_grow_with_clip_length():
    # Above the three per-frame output arrays (17 bytes a frame), the peak
    # is one block's NCC working set, which ncc_block_rows sizes to
    # NCC_BLOCK_BYTES. BLOCK_SLACK covers the small arrays its row cost
    # leaves out, about 0.13 MB at the default frames.
    BLOCK_SLACK = 256 << 10

    def peak(minutes: int) -> int:
        clip = AudioClip(_speechlike(minutes * 60 * RATE, seed=minutes), RATE)
        tracemalloc.start()
        try:
            track = analyze_frames(clip)
            working = tracemalloc.get_traced_memory()[1] - 17 * track.n_frames
        finally:
            tracemalloc.stop()
        assert working <= acoustics.NCC_BLOCK_BYTES + BLOCK_SLACK, minutes
        return working

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
        track,
        RunConfig(
            nucleus_drop_db=drop_db,
            min_vowel_duration=0.0,
            min_nucleus_separation=sep_frames * hop,
        ),
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
