"""The 30 nonverbal descriptors and their per-recording extraction.

Vector layout (and CSV column order) is fixed:

  spkrate         total vowel length / total speech length
  mean_pause      mean pause duration (s)
  pauses_second   pauses per second of recording
  pause_speech_ratio  total pause length / total speech length
  rhythm          vowels per second of recording
  vowel_mean/vowel_std    vowel duration statistics (s)
  intensity_std   std of stressed-window mean intensities (dB)
  f0_std/f0_mean  pooled voiced subframe F0 statistics (Hz)
  vowel_f0_range  mean per-stressed-vowel F0 range (Hz)
  harmonicity     mean HNR (dB)
  jitter_loc jitter_ppq5 shimmer_loc shimmer_apq5   perturbation means
  f1 f2 f3 b1 b2 b3    formant frequency and bandwidth means (Hz)
  cep1..cep8      mel cepstrum means

A measure that cannot be computed is absent (None), never silently zero.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import acoustics
from ._blocks import run_blocks
from .audio_io import AudioClip
from .config import RunConfig
from .csvio import finite, read_csv, write_csv
from .errors import DuplicateKeyError, InputError
from .segmentation import SegmentationResult, segment_clip

FEATURE_NAMES: tuple[str, ...] = (
    "spkrate",
    "mean_pause",
    "pauses_second",
    "pause_speech_ratio",
    "rhythm",
    "vowel_mean",
    "vowel_std",
    "intensity_std",
    "f0_std",
    "f0_mean",
    "vowel_f0_range",
    "harmonicity",
    "jitter_loc",
    "jitter_ppq5",
    "shimmer_loc",
    "shimmer_apq5",
    "f1",
    "f2",
    "f3",
    "b1",
    "b2",
    "b3",
    "cep1",
    "cep2",
    "cep3",
    "cep4",
    "cep5",
    "cep6",
    "cep7",
    "cep8",
)

# The same names as a set, for membership checks.
FEATURE_SET: frozenset[str] = frozenset(FEATURE_NAMES)

SESSIONS: tuple[str, ...] = ("S1", "S2", "S3")


@dataclass(frozen=True)
class FeatureVector:
    """Mapping of the 30 descriptor names to values, None where absent.

    Write nothing into `values` after construction: as_array hands out
    copies of an array built from it then.
    """

    values: dict[str, float | None]

    def __post_init__(self) -> None:
        unknown = self.values.keys() - FEATURE_SET
        if unknown:
            raise InputError(f"unknown feature names: {sorted(unknown)}")
        full = {name: self.values.get(name) for name in FEATURE_NAMES}
        object.__setattr__(self, "values", full)
        array = np.array([np.nan if v is None else v for v in full.values()])
        object.__setattr__(self, "_array", array)

    def __getitem__(self, name: str) -> float | None:
        if name not in FEATURE_SET:
            raise KeyError(name)
        return self.values[name]

    def present(self, name: str) -> bool:
        return self[name] is not None

    def as_array(self) -> np.ndarray:
        """Values in canonical order with NaN for absent."""
        return self._array.copy()


@dataclass(frozen=True)
class TableRow:
    speaker_id: str
    session: str
    features: FeatureVector


@dataclass
class FeatureTable:
    """Feature vectors keyed by (speaker_id, session), rows in insertion order."""

    rows: list[TableRow] = field(default_factory=list)
    _index: dict[tuple[str, str], FeatureVector] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        for row in self.rows:
            key = (row.speaker_id, row.session)
            if key in self._index:
                raise DuplicateKeyError(f"duplicate row for {key}")
            self._index[key] = row.features

    def add(self, speaker_id: str, session: str, features: FeatureVector) -> None:
        if session not in SESSIONS:
            raise InputError(f"session must be one of {SESSIONS}, got {session!r}")
        if self.get(speaker_id, session) is not None:
            raise DuplicateKeyError(f"duplicate row for {(speaker_id, session)}")
        self.rows.append(TableRow(speaker_id, session, features))
        self._index[(speaker_id, session)] = features

    def get(self, speaker_id: str, session: str) -> FeatureVector | None:
        return self._index.get((speaker_id, session))

    def speakers(self) -> list[str]:
        return list(dict.fromkeys(row.speaker_id for row in self.rows))


def _std(values: list[float]) -> float | None:
    # sample standard deviation; undefined below two observations
    if len(values) < 2:
        return None
    return float(np.std(np.asarray(values), ddof=1))


def temporal_features(seg: SegmentationResult) -> dict[str, float | None]:
    """The five duration-bookkeeping descriptors plus vowel-length stats."""
    total = seg.total_duration
    speech = seg.total_speech
    vowel_durs = [v.duration for v in seg.vowels]
    pause_durs = [p.duration for p in seg.pauses]
    out: dict[str, float | None] = {}
    out["spkrate"] = sum(vowel_durs) / speech if speech > 0 else None
    out["mean_pause"] = float(np.mean(pause_durs)) if pause_durs else None
    out["pauses_second"] = len(pause_durs) / total if total > 0 else None
    out["pause_speech_ratio"] = sum(pause_durs) / speech if speech > 0 else None
    out["rhythm"] = len(vowel_durs) / total if total > 0 else None
    out["vowel_mean"] = float(np.mean(vowel_durs)) if vowel_durs else None
    out["vowel_std"] = _std(vowel_durs)
    return out


def _mean_or_none(values: list[float]) -> float | None:
    return float(np.mean(values)) if values else None


def _span(size: int, rate: int, center: float, length_s: float) -> tuple[int, int]:
    """[lo, hi) of the length_s window centered on center, cut at the clip edges."""
    n = int(round(length_s * rate))
    lo = max(int(round(center * rate)) - n // 2, 0)
    return lo, min(lo + n, size)


def _f0_tracks(x: np.ndarray, rate: int, spans: list[tuple[int, int]], cfg: RunConfig):
    """Yield the F0 track of each x[lo:hi] span, one F0 per 25 ms subframe.

    The subframes of every span are gathered from one strided view of the
    clip and pitch-tracked acoustics.ncc_block_rows rows per f0_frames call
    (62 of the 25 ms subframes), so the NCC working memory stays near
    acoustics.NCC_BLOCK_BYTES, 1 MiB, however long the clip is; that budget
    keeps a block inside the 4 MiB per-core L2 cache it was tuned on. Many
    blocks are shared out over one thread per CPU (_blocks.run_blocks), one
    block in flight per thread.
    """
    flen, hop, _ = acoustics.subframe_grid(0, rate)
    counts = [acoustics.subframe_grid(hi - lo, rate)[2] for lo, hi in spans]
    starts = np.array(
        [lo + hop * i for (lo, _), count in zip(spans, counts) for i in range(count)], np.intp
    )
    f0 = np.empty(starts.size)
    if starts.size:
        frames = sliding_window_view(x, flen)
        _, max_lag = acoustics.pitch_lags(rate, cfg.f0_floor, cfg.f0_ceiling)
        rows = acoustics.ncc_block_rows(flen, max_lag)

        def pitch(blocks: range) -> None:
            for a in blocks:
                block = frames[starts[a : a + rows]]
                f0[a : a + rows], _ = acoustics.f0_frames(
                    block, rate, cfg.f0_floor, cfg.f0_ceiling, cfg.voicing_threshold
                )

        run_blocks(pitch, range(0, starts.size, rows))
    for count in counts:
        yield acoustics.f0_track(f0[:count])
        f0 = f0[count:]


def measure_vowels(clip: AudioClip, seg: SegmentationResult, cfg: RunConfig) -> Iterator[tuple]:
    """Yield (vowel, prosody, quality, spectral) for each stressed vowel.

    The last three are the acoustics Prosody-, Quality- and SpectralWindow.
    Prosody and voice quality are measured over a prosody_window centered on
    the vowel, spectral measures over a spectral_window. A result is None
    when the clip edge cuts its window below one frame (prosody, quality)
    or below the full window (spectral). The F0 subframes of all prosody
    windows are pitch-tracked together, in blocks over the whole clip. Voice
    quality and spectral measures then run over blocks of vowels, each
    sized by acoustics.quality_block_rows to the NCC_BLOCK_BYTES budget (16
    vowels at the defaults), so their working memory does not grow with the
    clip. Each result equals the tests' oracles.py measurement of its window
    and the same block functions called on that window alone.
    """
    x = clip.samples
    rate = clip.sample_rate
    flen_min = int(round(cfg.frame_length * rate))
    spectral_len = int(round(cfg.spectral_window * rate))
    stressed = seg.stressed
    spans = [_span(x.size, rate, v.center, cfg.prosody_window) for v in stressed]
    # a window cut below one frame is not measured: it keeps an empty span
    spans = [(lo, hi) if hi - lo >= flen_min else (lo, lo) for lo, hi in spans]
    # start of each full spectral window; None where the clip edge cuts it
    spectral_starts = [
        lo if hi - lo >= spectral_len else None
        for lo, hi in (_span(x.size, rate, v.center, cfg.spectral_window) for v in stressed)
    ]
    tracks = _f0_tracks(x, rate, spans, cfg)
    rows = acoustics.quality_block_rows(int(round(cfg.prosody_window * rate)), rate, cfg.f0_floor)
    for a in range(0, len(stressed), rows):
        block = range(a, min(a + rows, len(stressed)))
        prosody = {}
        for i in block:
            track = next(tracks)
            lo, hi = spans[i]
            if hi > lo:
                intensity = acoustics.intensity_db(x[lo:hi])
                prosody[i] = acoustics.ProsodyWindow(stressed[i].center, track, intensity)
        windows = [x[slice(*spans[i])] for i in prosody]
        centers = [pw.center for pw in prosody.values()]
        f0 = [float(np.median(pw.voiced_f0)) if pw.voiced_f0 else None for pw in prosody.values()]
        quality = dict(zip(prosody, acoustics.quality_windows(windows, rate, centers, f0)))
        full = [i for i in block if spectral_starts[i] is not None]
        starts = np.array([spectral_starts[i] for i in full], dtype=np.intp)
        frames = x[starts[:, None] + np.arange(spectral_len)]
        centers = [stressed[i].center for i in full]
        spectral = dict(zip(full, acoustics.spectral_windows(frames, rate, centers)))
        for i in block:
            yield stressed[i], prosody.get(i), quality.get(i), spectral.get(i)


def extract_features(
    clip: AudioClip,
    config: RunConfig | None = None,
    seg: SegmentationResult | None = None,
) -> FeatureVector:
    """Compute all 30 descriptors for one canonical-rate clip.

    Prosody and voice-quality measures use 80 ms windows at stressed vowel
    centers, spectral measures 40 ms windows at the same centers (see
    measure_vowels). Pass a precomputed segmentation to skip redoing it.
    """
    cfg = config or RunConfig()
    if clip.sample_rate != cfg.sample_rate:
        raise InputError(
            f"clip rate {clip.sample_rate} != analysis rate {cfg.sample_rate}; resample first"
        )
    if seg is None:
        seg = segment_clip(clip, cfg)
    values: dict[str, float | None] = dict.fromkeys(FEATURE_NAMES)
    values.update(temporal_features(seg))

    pooled_f0: list[float] = []
    # each descriptor's values over the windows; intensity_std takes their
    # std, every other one their mean, and one without values stays None
    per_window: dict[str, list[float]] = defaultdict(list)
    cep_rows: list[tuple[float, ...]] = []

    for _, pw, qw, sw in measure_vowels(clip, seg, cfg):
        measured: dict[str, float | None] = {}
        if pw is not None:
            voiced = pw.voiced_f0
            if voiced:
                pooled_f0.extend(voiced)
                measured["vowel_f0_range"] = pw.f0_max - pw.f0_min
            measured["intensity_std"] = pw.mean_intensity
            measured["jitter_loc"] = qw.jitter_local
            measured["jitter_ppq5"] = qw.jitter_ppq5
            measured["shimmer_loc"] = qw.shimmer_local
            measured["shimmer_apq5"] = qw.shimmer_apq5
            measured["harmonicity"] = qw.harmonicity_db
        if sw is not None:
            measured.update(zip(("f1", "f2", "f3", "b1", "b2", "b3"), sw.formants + sw.bandwidths))
            cep_rows.append(sw.cepstra)
        for name, v in measured.items():
            if v is not None:
                per_window[name].append(v)

    values["f0_mean"] = _mean_or_none(pooled_f0)
    values["f0_std"] = _std(pooled_f0)
    for name, vals in per_window.items():
        values[name] = _std(vals) if name == "intensity_std" else _mean_or_none(vals)
    if cep_rows:
        means = np.mean(np.asarray(cep_rows), axis=0)
        for i in range(8):
            values[f"cep{i + 1}"] = float(means[i])
    return FeatureVector(values)


def write_table_csv(path: str, table: FeatureTable) -> None:
    """speaker_id,session plus the 30 columns; absent cells stay empty.

    Floats are written with repr, which round-trips float64 exactly.
    """
    rows = []
    for row in table.rows:
        cells = [row.speaker_id, row.session]
        for name in FEATURE_NAMES:
            v = row.features[name]
            cells.append("" if v is None else repr(float(v)))
        rows.append(cells)
    write_csv(path, ["speaker_id", "session", *FEATURE_NAMES], rows)


def read_table_csv(path: str) -> FeatureTable:
    """The table write_table_csv writes; every present cell must be finite."""
    table = FeatureTable()

    def parse(line: int, cells: list[str]) -> None:
        values = {
            name: (None if cell == "" else finite(cell))
            for name, cell in zip(FEATURE_NAMES, cells[2:])
        }
        table.add(cells[0], cells[1], FeatureVector(values))

    read_csv(path, ["speaker_id", "session", *FEATURE_NAMES], parse)
    return table
