"""Vowel and pause detection on constructed clips with known layout."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voxtrait import _blocks, acoustics
from voxtrait.audio_io import AudioClip
from voxtrait.config import RunConfig
from voxtrait.errors import ClipTooShortError, InputError
from voxtrait.segmentation import (
    FrameTrack,
    PauseSegment,
    VowelSegment,
    _score_frames,
    analyze_frames,
    detect_pauses,
    detect_vowels,
    segment_clip,
    select_stressed,
    _runs,
    _trim_pauses,
)

import oracles
from oracles import (
    analyze_frames_reference,
    runs_reference,
    trim_pauses_reference,
    vowel_spans_reference,
)

RATE = 11025
HOP = 110  # round(0.010 * 11025)
MAX_LAG = acoustics.pitch_lags(RATE, acoustics.F0_FLOOR_HZ, acoustics.F0_CEILING_HZ)[1]
ROWS = acoustics.ncc_block_rows(276, MAX_LAG)  # frames per block at the default 25 ms
# blocks for which a loop is shared out over two threads
POOLED_BLOCKS = 2 * _blocks.MIN_BLOCKS_PER_WORKER


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
# ROWS + 1 may equal one of the fixed lengths). From 16 blocks (1023 to 1025
# frames, and 16 blocks less one frame and plus one) the blocks are shared
# out over two threads, and from 24 (24 blocks plus 5 frames, 3077 frames)
# over three.
@pytest.mark.parametrize(
    "n_frames",
    sorted(
        {1, 2, 63, 64, ROWS - 1, ROWS, ROWS + 1, 3 * ROWS + 5, 1023, 1024, 1025, 3077}
        | {POOLED_BLOCKS * ROWS - 1, POOLED_BLOCKS * ROWS + 1, 3 * POOLED_BLOCKS // 2 * ROWS + 5}
    ),
)
def test_block_analysis_matches_whole_array(n_frames, block_threads):
    x = _speechlike(276 + HOP * (n_frames - 1), seed=n_frames)
    track = analyze_frames(AudioClip(x, RATE))
    energy, strength = analyze_frames_reference(x, RATE)
    assert track.n_frames == n_frames
    assert np.array_equal(track.energy_db, energy)
    assert np.array_equal(track.voicing_strength, strength)
    assert block_threads.runs == block_threads.runs_for(-(-n_frames // ROWS))


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
    # the curve f0_frames searches, over the same lag range
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


def _voicing_rows(rows: int, flen: int, seed: int) -> np.ndarray:
    """Disjoint frames of speech-like noise, with rows of digital silence
    (whole, head or tail), DC rows, whose NCC rounds above 1 at some lags, a
    row at 1e-160 and one scaled so that the overlap energies of the pitch
    lags straddle _TINY."""
    rng = np.random.default_rng(seed)
    t = np.arange(flen) / RATE
    f0 = rng.uniform(75.0, 500.0, (rows, 1))
    x = 0.3 * np.sin(2.0 * math.pi * f0 * t) + 0.05 * rng.standard_normal((rows, flen))
    x *= rng.uniform(0.01, 1.0, (rows, 1))
    if rows <= 8:
        return x
    base = x[0].copy()
    cut = int(rng.integers(1, flen))
    # overlap energies shrink about as (flen - lag) / flen: put the middle
    # pitch lag's at _TINY
    lo, hi = acoustics.pitch_lags(RATE, acoustics.F0_FLOOR_HZ, acoustics.F0_CEILING_HZ)
    mid = (lo + min(hi, flen - 8)) / 2
    faint = base * math.sqrt(1e-30 * flen / (flen - mid) / np.sum(base * base))
    special = [
        np.zeros(flen),
        np.where(t < t[cut], 0.0, base),
        np.where(t < t[cut], base, 0.0),
        np.full(flen, 0.3),
        np.full(flen, -0.71),
        0.5 + 0.001 * rng.standard_normal(flen),
        faint,
        1e-160 * base,
    ]
    for i, row in zip(rng.permutation(rows), special):
        x[i] = row
    return x


@pytest.mark.parametrize("flen", [276, 120, 40, 31])
@pytest.mark.parametrize("rows", [1, ROWS - 1, ROWS, ROWS + 1])
def test_voicing_peak_equals_the_reference_copy(rows, flen):
    # 120-, 40- and 31-sample frames are short enough that _MIN_OVERLAP cuts
    # the top lag 147; 31 samples reach only the lowest lag, 23
    lo, hi = acoustics.pitch_lags(RATE, acoustics.F0_FLOOR_HZ, acoustics.F0_CEILING_HZ)
    block = _voicing_rows(rows, flen, seed=rows * flen)
    frame = flen / RATE
    energy, strength = analyze_frames_reference(block.ravel(), RATE, frame, frame)
    want = oracles.ncc_frames(block, hi)[:, lo:].max(axis=1)
    assert np.array_equal(want, strength)
    assert np.array_equal(acoustics.ncc_peak(block, lo, hi), want)
    assert np.array_equal(acoustics.ncc_peak(block, lo, hi, block * block), want)
    got_energy, got_strength = _score_frames(block, lo, hi)
    assert np.array_equal(got_energy, energy)
    assert np.array_equal(got_strength, want)
    cfg = RunConfig(frame_hop=frame, frame_length=frame)
    track = analyze_frames(AudioClip(block.ravel(), RATE), cfg)
    assert np.array_equal(track.energy_db, energy)
    assert np.array_equal(track.voicing_strength, want)
    if rows > 8:
        assert (want[~block.any(axis=1)] == 0.0).all()
        # a DC row's NCC rounds above 1, and its peak is clipped to 1
        dc = (block == 0.3).all(axis=1)
        assert (acoustics._ncc_lags(block[dc], lo, hi).max(axis=1) > 1.0).all()
        assert (want[dc] == 1.0).all()
        # rows whose overlap energies fall to _TINY at part of the lags
        dead = oracles.ncc_frames(block, hi)[:, lo:] == 0.0
        partly = dead.any(axis=1) & ~dead.all(axis=1)
        assert flen < 40 or partly.any()


# Above the three per-frame output arrays (17 bytes a frame), the peak is
# the NCC working set of each block in flight, which ncc_block_rows sizes to
# NCC_BLOCK_BYTES. BLOCK_SLACK covers the small arrays its row cost leaves
# out, about 0.13 MB at the default frames.
BLOCK_SLACK = 256 << 10


def _frame_analysis_peak(minutes: int) -> int:
    clip = AudioClip(_speechlike(minutes * 60 * RATE, seed=minutes), RATE)
    tracemalloc.start()
    try:
        track = analyze_frames(clip)
        return tracemalloc.get_traced_memory()[1] - 17 * track.n_frames
    finally:
        tracemalloc.stop()


def test_frame_analysis_memory_does_not_grow_with_clip_length(monkeypatch):
    # one block at a time: the blocks run inline
    monkeypatch.setattr(_blocks, "_workers", 1)
    peaks = {minutes: _frame_analysis_peak(minutes) for minutes in (2, 8)}
    for minutes, working in peaks.items():
        assert working <= acoustics.NCC_BLOCK_BYTES + BLOCK_SLACK, minutes
    assert peaks[8] < 1.25 * peaks[2]


def test_threaded_frame_analysis_memory_is_one_block_per_thread(block_threads):
    # NCC_BLOCK_BYTES is a budget per thread: each core has its own L2
    for minutes in (2, 8):
        working = _frame_analysis_peak(minutes)
        assert working <= 3 * (acoustics.NCC_BLOCK_BYTES + BLOCK_SLACK), minutes
    assert block_threads.runs == 4


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


@settings(max_examples=300, deadline=None)
@given(st.lists(st.booleans(), max_size=200))
def test_runs_match_the_index_walk(bits):
    mask = np.array(bits, dtype=bool)
    got = _runs(mask)
    assert got == runs_reference(mask)
    assert all(type(i) is int and type(j) is int for i, j in got)
