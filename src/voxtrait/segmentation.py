"""Frame analysis, vowel nuclei, stressed-vowel selection and pause detection.

Timing convention: frame i starts at i*hop and is frame_length long, but for
segment boundaries each frame labels the hop-sized slice starting at its own
start. Pause runs are then widened by (frame_length - hop)/2 per side, which
makes measured gap durations land in [gap - hop, gap]: a constructed 0.39 s
gap can never cross the 0.400 s pause floor, while 0.5 s gaps stay within a
hop of truth.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import acoustics
from ._blocks import run_blocks
from .audio_io import AudioClip
from .config import RunConfig
from .errors import ClipTooShortError, InputError


@dataclass(frozen=True)
class FrameTrack:
    """Per-frame energy and voicing over a clip."""

    sample_rate: int
    frame_length_samples: int
    hop_samples: int
    energy_db: np.ndarray
    voicing_strength: np.ndarray
    voiced: np.ndarray

    @property
    def n_frames(self) -> int:
        return int(self.energy_db.size)

    @property
    def frame_length(self) -> float:
        return self.frame_length_samples / self.sample_rate

    @property
    def hop(self) -> float:
        return self.hop_samples / self.sample_rate


@dataclass(frozen=True)
class VowelSegment:
    start: float
    end: float
    stressed: bool = False

    def __post_init__(self) -> None:
        if not self.end > self.start:
            raise InputError("vowel segment must have positive duration")

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def center(self) -> float:
        return 0.5 * (self.start + self.end)


@dataclass(frozen=True)
class PauseSegment:
    start: float
    end: float

    def __post_init__(self) -> None:
        if not self.end > self.start:
            raise InputError("pause segment must have positive duration")

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class SegmentationResult:
    vowels: tuple[VowelSegment, ...]
    pauses: tuple[PauseSegment, ...]
    total_duration: float

    @property
    def total_speech(self) -> float:
        return self.total_duration - sum(p.duration for p in self.pauses)

    @property
    def stressed(self) -> tuple[VowelSegment, ...]:
        return tuple(v for v in self.vowels if v.stressed)


def _score_frames(frames: np.ndarray, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """(energy dB, voicing strength) of each row of a (n, flen) frame array.

    The squared samples serve both the energy and the NCC's overlap energies.
    """
    sq = frames * frames
    mean_sq = sq.mean(axis=1)
    energy = np.full(frames.shape[0], acoustics.SILENCE_FLOOR_DB)
    audible = mean_sq > 1e-12
    energy[audible] = np.maximum(
        10.0 * np.log10(mean_sq[audible]), acoustics.SILENCE_FLOOR_DB
    )
    return energy, acoustics.ncc_frames(frames, lo, hi, sq).max(axis=1)


def analyze_frames(clip: AudioClip, cfg: RunConfig | None = None) -> FrameTrack:
    """Slice a clip into frames and score energy plus voicing for each.

    Frames are cfg.frame_length long every cfg.frame_hop. Voicing strength
    is the peak normalized autocorrelation over the pitch lags of
    cfg.f0_floor to cfg.f0_ceiling (acoustics.ncc_frames over those lags
    only, sharing the squared samples with the energy); a
    frame is voiced when it reaches cfg.voicing_threshold. Digital silence
    scores 0 and lands at the -120 dB energy floor. Frames are strided views of the clip, scored
    acoustics.ncc_block_rows at a time (62 default frames), so a block's
    working arrays stay within acoustics.NCC_BLOCK_BYTES, 1 MiB, which fits
    the 4 MiB per-core L2 cache the block size was tuned on, and working
    memory does not grow with clip length. A long clip's blocks are shared
    out over one thread per CPU (_blocks.run_blocks), one block in flight
    per thread; the scores are the serial ones, bit for bit. The clip's own
    rate sets the frame sizes in samples, and it may differ from
    cfg.sample_rate, so the frame geometry is checked again here.
    """
    cfg = cfg or RunConfig()
    rate = clip.sample_rate
    flen = int(round(cfg.frame_length * rate))
    hop_s = int(round(cfg.frame_hop * rate))
    if flen <= 1 or hop_s < 1 or hop_s > flen:
        raise InputError("bad frame geometry")
    shortest = acoustics.min_frame_samples(rate, cfg.f0_floor, cfg.f0_ceiling)
    if flen < shortest:
        raise InputError(
            f"{flen}-sample frames are too short for the F0 range; need >= {shortest}"
        )
    x = clip.samples
    if x.size < flen:
        raise ClipTooShortError(
            f"clip of {x.size} samples is shorter than one {flen}-sample frame"
        )
    frames = sliding_window_view(x, flen)[::hop_s]
    n_frames = frames.shape[0]

    lo, hi = acoustics.pitch_lags(rate, cfg.f0_floor, cfg.f0_ceiling)
    rows = acoustics.ncc_block_rows(flen, hi)
    energy = np.empty(n_frames)
    strength = np.empty(n_frames)

    def score(starts: range) -> None:
        for a in starts:
            b = min(a + rows, n_frames)
            energy[a:b], strength[a:b] = _score_frames(frames[a:b], lo, hi)

    run_blocks(score, range(0, n_frames, rows))

    return FrameTrack(
        sample_rate=rate,
        frame_length_samples=flen,
        hop_samples=hop_s,
        energy_db=energy,
        voicing_strength=strength,
        voiced=strength >= cfg.voicing_threshold,
    )


def _runs(mask: np.ndarray) -> list[tuple[int, int]]:
    """Maximal [first, last] index runs of True."""
    padded = np.concatenate(([False], mask, [False]))
    # the padded mask changes at each run's first index and just past its last
    edges = np.flatnonzero(np.diff(padded))
    return list(zip(edges[::2].tolist(), (edges[1::2] - 1).tolist()))


def detect_vowels(track: FrameTrack, cfg: RunConfig | None = None) -> list[VowelSegment]:
    """Vowel segments grown from voiced-energy nuclei.

    Nuclei are voiced local energy maxima at least cfg.min_nucleus_separation
    apart; each grows over contiguous voiced frames within
    cfg.nucleus_drop_db of its own energy. Stronger nuclei claim frames
    first, so one burst yields one segment. Segments shorter than
    cfg.min_vowel_duration are dropped.
    """
    cfg = cfg or RunConfig()
    energy = track.energy_db
    voiced = track.voiced
    n = track.n_frames
    if n == 0:
        return []
    hop = track.hop

    is_peak = voiced.copy()
    if n > 1:
        is_peak[1:] &= energy[1:] >= energy[:-1]
        is_peak[:-1] &= energy[:-1] >= energy[1:]
    candidates = np.flatnonzero(is_peak)
    if candidates.size == 0:
        return []
    order = candidates[np.argsort(-energy[candidates], kind="stable")]

    min_sep_frames = max(1, int(round(cfg.min_nucleus_separation / hop)))
    claimed = np.zeros(n, dtype=bool)
    accepted: list[int] = []  # sorted; only the neighbours of c can be too close
    spans: list[tuple[int, int]] = []
    for c in order:
        if claimed[c]:
            continue
        i = bisect_left(accepted, c)
        if (i < len(accepted) and accepted[i] - c < min_sep_frames) or (
            i > 0 and c - accepted[i - 1] < min_sep_frames
        ):
            continue
        floor = energy[c] - cfg.nucleus_drop_db
        a = c
        while a - 1 >= 0 and voiced[a - 1] and energy[a - 1] >= floor and not claimed[a - 1]:
            a -= 1
        b = c
        while b + 1 < n and voiced[b + 1] and energy[b + 1] >= floor and not claimed[b + 1]:
            b += 1
        claimed[a : b + 1] = True
        insort(accepted, c)
        spans.append((a, b))

    segments = []
    for a, b in spans:
        start = a * hop
        end = (b + 1) * hop
        if end - start >= cfg.min_vowel_duration:
            segments.append(VowelSegment(start=start, end=end))
    segments.sort(key=lambda s: s.start)
    return segments


def select_stressed(vowels: list[VowelSegment]) -> list[VowelSegment]:
    """Flag the ceil(n/2) longest vowels as stressed, earlier start wins ties.

    Returns fresh segments in the original order.
    """
    n = len(vowels)
    if n == 0:
        return []
    k = math.ceil(n / 2)
    ranked = sorted(range(n), key=lambda i: (-vowels[i].duration, vowels[i].start))
    chosen = set(ranked[:k])
    return [replace(v, stressed=(i in chosen)) for i, v in enumerate(vowels)]


def detect_pauses(
    track: FrameTrack, total_duration: float, cfg: RunConfig | None = None
) -> list[PauseSegment]:
    """Maximal non-voice stretches of at least cfg.pause_min_duration seconds.

    A frame is non-voice when it is unvoiced and its energy sits more than
    cfg.speech_floor_drop_db below the median voiced energy. With no voiced
    frames at all, every unvoiced frame qualifies. Leading and trailing
    stretches count; the last run extends to the clip end.
    """
    cfg = cfg or RunConfig()
    n = track.n_frames
    if n == 0:
        return []
    voiced = track.voiced
    if voiced.any():
        floor = float(np.median(track.energy_db[voiced])) - cfg.speech_floor_drop_db
        quiet = (~voiced) & (track.energy_db < floor)
    else:
        quiet = ~voiced
    hop = track.hop
    widen = 0.5 * (track.frame_length - hop)
    pauses = []
    for a, b in _runs(quiet):
        start = max(a * hop - widen, 0.0)
        end = (b + 1) * hop + widen
        if b == n - 1:
            end = total_duration
        end = min(end, total_duration)
        if end - start >= cfg.pause_min_duration:
            pauses.append(PauseSegment(start=start, end=end))
    return pauses


def segment_clip(clip: AudioClip, config: RunConfig | None = None) -> SegmentationResult:
    """Full segmentation: vowels with stress flags, pauses, total duration.

    Pauses are trimmed so they never overlap a vowel segment (the widening
    step can otherwise brush a directly adjacent vowel), and re-checked
    against the duration floor after trimming.
    """
    cfg = config or RunConfig()
    track = analyze_frames(clip, cfg)
    vowels = select_stressed(detect_vowels(track, cfg))
    raw_pauses = detect_pauses(track, clip.duration, cfg)
    return SegmentationResult(
        vowels=tuple(vowels),
        pauses=tuple(_trim_pauses(raw_pauses, vowels, cfg.pause_min_duration)),
        total_duration=clip.duration,
    )


def _trim_pauses(
    pauses: list[PauseSegment], vowels: list[VowelSegment], min_duration: float
) -> list[PauseSegment]:
    """Pull pause boundaries off the vowels that poke into them.

    `vowels` must be disjoint and sorted by start, as detect_vowels returns
    them, so their ends are sorted too and two bisections find the vowels
    that overlap a pause. Trimmed pauses shorter than min_duration go.
    """
    starts = [v.start for v in vowels]
    ends = [v.end for v in vowels]
    out = []
    for p in pauses:
        start, end = p.start, p.end
        for v in vowels[bisect_right(ends, start) : bisect_left(starts, end)]:
            if v.end <= start or v.start >= end:
                continue
            # vowel pokes into this pause from one side; push the boundary
            if v.center <= start:
                start = max(start, v.end)
            else:
                end = min(end, v.start)
        if end - start >= min_duration:
            out.append(PauseSegment(start=start, end=end))
    return out

