"""Windowed acoustic measurements.

Low-level operations shared by segmentation and feature extraction: frame
energy, normalized-autocorrelation voicing and F0, cycle marking with
jitter/shimmer, harmonicity, LPC formants and mel cepstra. One
normalized-autocorrelation kernel, `_ncc_lags`, computes the curve over a
given lag range. `ncc_frames` returns it over lags 0..max_lag, for the pitch
tracker `f0_frames` and harmonicity; `ncc_peak` returns only its largest
value over the pitch lags, for segmentation's frame voicing, and divides
only those lags by their overlap energies. Each takes a block of frames
per call; `features.measure_vowels` hands `f0_frames` the F0 subframes of
every stressed vowel of a clip together. Voicing and F0 size their blocks
with `ncc_block_rows`, so that a block's working arrays fit NCC_BLOCK_BYTES
(1 MiB, a quarter of the 4 MiB per-core L2 cache of the machine it was
tuned on) whatever the frame length. Long clips run their blocks on one
thread per CPU, one block in flight per thread, so the budget is per
thread, as each core has its own L2 cache.

The voice-quality and spectral measures have the same shape: one block
function per measure (`harmonicity_frames`, `lpc_frames`, `mfcc_frames`,
gathered by `quality_windows` and `spectral_windows`), which
`features.measure_vowels` calls on blocks of `quality_block_rows` vowels,
sized to the same NCC_BLOCK_BYTES budget. Each measure has this one entry
point, and a window measured alone is a one-row block: each row of a block
comes out equal to the same function called on that row alone. LPC runs its
autocorrelation, its Levinson-Durbin recursion and its polynomial roots as
stacked calls over the block's rows, each row with the bits of its own
one-row calls. Cycle marking and jitter/shimmer stay one window at a time.

Four one-window functions remain that no pipeline path calls: `ncc_curve`
and `analyze_prosody_window`, `analyze_quality_window` and
`analyze_spectral_window`. benchmarks/run.py wraps them for its per-layer
timings and window counts, and its contract test looks up every wrapped
name; they go when the benchmark stops wrapping them (ROADMAP item 5).

All functions take plain sample arrays; the 80 ms prosody / 40 ms spectral
window slicing is done by the callers in `features`.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.fft import dct, irfft, rfft

from .errors import InputError

F0_FLOOR_HZ = 75.0
F0_CEILING_HZ = 500.0
VOICING_THRESHOLD = 0.45
SILENCE_FLOOR_DB = -120.0
SUBFRAME_LENGTH_S = 0.025
SUBFRAME_HOP_S = 0.010
PREEMPHASIS = 0.97
N_MEL_FILTERS = 26
N_CEPSTRA = 8
MEL_LOG_FLOOR = 1e-10
LPC_ORDER = 12
FORMANT_MARGIN_HZ = 50.0
MAX_FORMANT_BANDWIDTH_HZ = 700.0
HNR_MIN_DB = -20.0
HNR_MAX_DB = 40.0

# Minimum sample overlap for a normalized autocorrelation value to count.
_MIN_OVERLAP = 8
_TINY = 1e-30
# Bytes one ncc_frames block may take; see ncc_block_rows for what counts.
# Tuned on a VM with 4 MiB of L2 cache per core, where budgets of 0.5 to
# 2 MiB ran the benchmark about equally fast and 4 MiB slower. Blocks of
# 1024 default frames (17 MB) overflowed the cache, and malloc mapped their
# multi-MB arrays afresh for every block: about 127,000 minor page faults
# per 10-min clip, against a few hundred at 1 MiB. 1 MiB leaves room in
# smaller caches. The budget is per thread: splitting 1 MiB between two
# threads (31-row blocks) ran frame analysis slower than one thread did.
NCC_BLOCK_BYTES = 1 << 20


@dataclass(frozen=True)
class ProsodyWindow:
    """Per-window pitch and loudness summary around one vowel center."""

    center: float
    f0_track: tuple[float | None, ...]
    mean_intensity: float

    @property
    def voiced_f0(self) -> tuple[float, ...]:
        return tuple(v for v in self.f0_track if v is not None)

    @property
    def f0_mean(self) -> float | None:
        voiced = self.voiced_f0
        return float(np.mean(voiced)) if voiced else None

    @property
    def f0_min(self) -> float | None:
        voiced = self.voiced_f0
        return min(voiced) if voiced else None

    @property
    def f0_max(self) -> float | None:
        voiced = self.voiced_f0
        return max(voiced) if voiced else None


@dataclass(frozen=True)
class QualityWindow:
    """Cycle-level perturbation and harmonicity around one vowel center."""

    center: float
    jitter_local: float | None
    jitter_ppq5: float | None
    shimmer_local: float | None
    shimmer_apq5: float | None
    harmonicity_db: float | None


@dataclass(frozen=True)
class SpectralWindow:
    """Formants, bandwidths and mel cepstra around one vowel center."""

    center: float
    formants: tuple[float | None, float | None, float | None]
    bandwidths: tuple[float | None, float | None, float | None]
    cepstra: tuple[float, ...]


def intensity_db(samples: np.ndarray) -> float:
    """Mean-square energy in dB re full scale, floored at -120 dB."""
    x = np.asarray(samples, dtype=np.float64)
    if x.size == 0:
        raise InputError("intensity_db needs at least one sample")
    ms = float(np.mean(x * x))
    if ms <= 1e-12:
        return SILENCE_FLOOR_DB
    return max(10.0 * math.log10(ms), SILENCE_FLOOR_DB)


def ncc_frames(frames: np.ndarray, max_lag: int) -> np.ndarray:
    """Normalized autocorrelation along the last axis for lags 0..max_lag.

    r[tau] = sum(x[t] x[t+tau]) / sqrt(sum_head(x^2) * sum_tail(x^2)), the
    normalization using only the overlapping stretch at each lag (Boersma
    1993). max_lag is cut so that at least _MIN_OVERLAP samples overlap.
    Values are clipped into [-1, 1]; lags with negligible overlap energy
    give 0. Rows of a 2-D block come out bit-identical to 1-D calls.
    """
    ac = _ncc_lags(np.asarray(frames, dtype=np.float64), 0, max_lag)
    return np.clip(ac, -1.0, 1.0, out=ac)


def ncc_peak(
    frames: np.ndarray, lo: int, hi: int, squares: np.ndarray | None = None
) -> np.ndarray:
    """Largest value of each row's ncc_frames curve over the lags lo..hi.

    Only those lags are normalized, and the largest is clipped into [-1, 1]
    after the max, which leaves the same bits as the max of the clipped
    curve, since clipping is monotone. hi is cut as in ncc_frames and must
    stay >= lo. squares, when given, is frames * frames, to share with the
    caller's energy measure.
    """
    peak = _ncc_lags(np.asarray(frames, dtype=np.float64), lo, hi, squares).max(axis=-1)
    return np.clip(peak, -1.0, 1.0)


def _ncc_lags(
    x: np.ndarray, lo: int, hi: int, squares: np.ndarray | None = None
) -> np.ndarray:
    """Unclipped normalized autocorrelation of x along its last axis, lags lo..hi.

    The one NCC kernel behind ncc_frames and ncc_peak. The FFT runs at the
    size of the full lag range 0..hi, so each lag keeps the bits it has in
    the whole curve; only the lags lo..hi are divided by their overlap
    energies. squares is x * x, computed here when not given.
    """
    n = x.shape[-1]
    hi, nfft = _ncc_size(n, hi)
    spec = rfft(x, nfft)
    # spec * conj(spec) in that order at every size: numpy's complex multiply
    # is not bitwise commutative, and an inline `spec * np.conj(spec)` turns
    # into conj * spec once numpy elides the temporary (256 KiB and up).
    power = np.conj(spec)
    np.multiply(spec, power, out=power)
    ac = irfft(power, nfft)[..., lo : hi + 1]
    sq = np.cumsum(x * x if squares is None else squares, axis=-1)
    # energy of the overlapping head x[:n-tau] and tail x[tau:] at each lag
    head = sq[..., n - 1 - hi : n - lo][..., ::-1]
    denom = np.empty(sq.shape[:-1] + (hi + 1 - lo,))
    if lo == 0:
        denom[..., 0] = sq[..., -1]
        np.subtract(sq[..., -1:], sq[..., :hi], out=denom[..., 1:])
    else:
        np.subtract(sq[..., -1:], sq[..., lo - 1 : hi], out=denom)
    np.multiply(head, denom, out=denom)
    np.sqrt(denom, out=denom)
    live = denom > _TINY
    np.divide(ac, denom, out=ac, where=live)
    ac[~live] = 0.0
    return ac


def _ncc_size(n: int, max_lag: int) -> tuple[int, int]:
    """(max_lag, nfft) of ncc_frames on n-sample frames."""
    max_lag = min(max_lag, n - _MIN_OVERLAP)
    return max_lag, 1 << int(n + max_lag).bit_length()


def ncc_block_rows(n: int, max_lag: int) -> int:
    """Rows of n-sample frames per ncc_frames block within NCC_BLOCK_BYTES.

    A row costs its complex spectrum and the power spectrum made from it
    (16 bytes per each of nfft/2 + 1 bins), the real inverse transform
    (8 * nfft bytes) and two float64 frame-length arrays, its squared
    samples and their running sum: about 16.7 KB at the default 25 ms
    frames (276 samples, nfft 512), so 62 rows per block. At least one.
    """
    _, nfft = _ncc_size(n, max_lag)
    row_bytes = 32 * (nfft // 2 + 1) + 8 * nfft + 16 * n
    return max(1, NCC_BLOCK_BYTES // row_bytes)


def ncc_curve(x: np.ndarray, max_lag: int) -> np.ndarray:
    """ncc_frames of one window; a single 0 when the window is too short.

    No pipeline path calls it; it stays for benchmarks/run.py (see the
    module docstring).
    """
    if min(max_lag, np.size(x) - _MIN_OVERLAP) < 1:
        return np.zeros(1)
    return ncc_frames(x, max_lag)


# A periodic signal correlates equally at every multiple of its period, so
# the shortest lag within this margin of the best peak wins; otherwise the
# period multiple can take the argmax on numerical noise and halve the F0.
_OCTAVE_MARGIN = 0.01


def _clamp(x: float, lo: float, hi: float) -> float:
    """float(np.clip(x, lo, hi)) for a scalar, without numpy's per-call cost."""
    return float(min(max(x, lo), hi))


def _parabolic(y0: float, y1: float, y2: float) -> tuple[float, float] | None:
    """(offset, peak) of the parabola through three equally spaced points.

    offset is the vertex position relative to y1, clipped to +-0.5. None
    unless y1 is a local maximum and the points are not collinear.
    """
    y0, y1, y2 = float(y0), float(y1), float(y2)
    denom = y0 - 2.0 * y1 + y2
    if not (abs(denom) > _TINY and y1 >= y0 and y1 >= y2):
        return None
    delta = min(max(0.5 * (y0 - y2) / denom, -0.5), 0.5)
    return delta, y1 - 0.25 * (y0 - y2) * delta


def _pick_peaks(curves: np.ndarray, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """Best lag (parabolic-refined) and its strength within [lo, hi], per row.

    curves is a (rows, lags) block of NCC curves and lo >= 1. A row's best
    lag is its argmax over [lo, hi], or the shortest local maximum before it
    within _OCTAVE_MARGIN of its value. Rows too short to reach lo give 0, 0.
    """
    rows, size = curves.shape
    hi = min(hi, size - 1)
    if hi < lo:
        return np.zeros(rows), np.zeros(rows)
    row = np.arange(rows)
    best = np.argmax(curves[:, lo : hi + 1], axis=1) + lo
    strength = curves[row, best]
    if hi > lo:
        inner = curves[:, lo:hi]
        ok = (
            (inner >= (strength - _OCTAVE_MARGIN)[:, None])
            & (inner >= curves[:, lo - 1 : hi - 1])
            & (inner >= curves[:, lo + 1 : hi + 1])
            & (np.arange(lo, hi) < best[:, None])
        )
        hit = ok.any(axis=1)
        best[hit] = lo + np.argmax(ok[hit], axis=1)
        strength = curves[row, best]
    lag = best.astype(np.float64)
    # parabolic refinement at interior peaks
    mid, offset, _ = _parabolas(curves, np.flatnonzero((best > lo) & (best < hi)), best)
    lag[mid] += offset
    return lag, strength


def _parabolas(
    curves: np.ndarray, rows: np.ndarray, at: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """_parabolic through curves[i, at[i] - 1 : at[i] + 2] for each i in rows.

    Returns (rows, offset, peak) of the rows that have a vertex there, with
    _parabolic's arithmetic.
    """
    y0, y1, y2 = (curves[rows, at[rows] + k] for k in (-1, 0, 1))
    denom = y0 - 2.0 * y1 + y2
    vertex = (np.abs(denom) > _TINY) & (y1 >= y0) & (y1 >= y2)
    y0, y1, y2, denom = y0[vertex], y1[vertex], y2[vertex], denom[vertex]
    offset = np.clip(0.5 * (y0 - y2) / denom, -0.5, 0.5)
    return rows[vertex], offset, y1 - 0.25 * (y0 - y2) * offset


def pitch_lags(sample_rate: int, f0_floor: float, f0_ceiling: float) -> tuple[int, int]:
    """(lo, hi) autocorrelation lags, in samples, of the F0 search range."""
    if not 0 < f0_floor < f0_ceiling or f0_ceiling >= sample_rate / 2:
        raise InputError("need 0 < f0_floor < f0_ceiling < rate/2")
    lo = max(2, int(math.ceil(sample_rate / f0_ceiling)))
    hi = int(math.floor(sample_rate / f0_floor))
    return lo, hi


def min_frame_samples(sample_rate: int, f0_floor: float, f0_ceiling: float) -> int:
    """Shortest frame whose autocorrelation reaches the lowest pitch lag."""
    return pitch_lags(sample_rate, f0_floor, f0_ceiling)[0] + _MIN_OVERLAP


def f0_frames(
    frames: np.ndarray,
    sample_rate: int,
    f0_floor: float = F0_FLOOR_HZ,
    f0_ceiling: float = F0_CEILING_HZ,
    voicing_threshold: float = VOICING_THRESHOLD,
) -> tuple[np.ndarray, np.ndarray]:
    """(f0, strength) of each row of a (rows, n) block of analysis frames.

    One ncc_frames call over the block, then one peak pick per row. f0 is
    NaN where a row is unvoiced; strength is the row's best normalized
    autocorrelation in the admissible lag range. Each row equals the
    tests' oracles.py copy and f0_frames of that row alone.
    """
    lo, hi = pitch_lags(sample_rate, f0_floor, f0_ceiling)
    x = np.asarray(frames, dtype=np.float64)
    if x.shape[1] - _MIN_OVERLAP >= lo:
        curves = ncc_frames(x, hi)
    else:  # no admissible lag has enough overlap
        curves = np.zeros((x.shape[0], 0))
    lag, strength = _pick_peaks(curves, lo, hi)
    unvoiced = (strength < voicing_threshold) | (lag <= 0)
    f0 = np.divide(sample_rate, lag, out=np.full(lag.shape, np.nan), where=~unvoiced)
    return np.clip(f0, f0_floor, f0_ceiling, out=f0), strength


def f0_track(f0: np.ndarray) -> tuple[float | None, ...]:
    """A row of f0_frames output as a track: float F0s, None where unvoiced."""
    return tuple(None if math.isnan(v) else v for v in f0.tolist())


def subframe_grid(n_samples: int, sample_rate: int) -> tuple[int, int, int]:
    """(frame_length, hop, count) in samples for the 25 ms / 10 ms grid."""
    flen = int(round(SUBFRAME_LENGTH_S * sample_rate))
    hop = int(round(SUBFRAME_HOP_S * sample_rate))
    count = (n_samples - flen) // hop + 1 if n_samples >= flen else 0
    return flen, hop, count


def mark_cycles(
    samples: np.ndarray, f0: float, sample_rate: int
) -> tuple[np.ndarray, np.ndarray] | None:
    """Locate pitch cycles at waveform peaks near each expected period.

    Anchors on the strongest peak, then walks outward expecting one peak per
    1/f0 seconds, searching +-25% of a period around each expected position.
    Returns (periods_seconds, peak_amplitudes) or None when fewer than two
    marks are found.
    """
    x = np.asarray(samples, dtype=np.float64)
    if not (math.isfinite(f0) and f0 > 0):
        raise InputError("f0 must be finite and positive")
    period = sample_rate / f0
    if x.size < 2 * period or x.size == 0:
        return None
    anchor = int(np.argmax(np.abs(x)))
    sign = 1.0 if x[anchor] >= 0 else -1.0
    y = sign * x
    floor = 0.05 * y[anchor]
    if floor <= 0:
        return None

    def walk(start: int, step: float) -> list[int]:
        found = []
        pos = float(start)
        while True:
            center = pos + step
            lo = int(round(center - abs(step) / 4.0))
            hi = int(round(center + abs(step) / 4.0))
            lo, hi = max(lo, 0), min(hi, y.size - 1)
            if hi <= lo:
                break
            seg = y[lo : hi + 1]
            j = int(np.argmax(seg))
            if seg[j] < floor:
                break
            nxt = lo + j
            if nxt == int(round(pos)):
                break
            found.append(nxt)
            pos = float(nxt)
        return found

    marks = sorted(walk(anchor, -period) + [anchor] + walk(anchor, period))
    if len(marks) < 2:
        return None
    # Sub-sample refinement: integer marks quantize a fractional period into
    # an alternating-period staircase that reads as fake jitter.
    positions = []
    amplitudes = []
    for m in marks:
        pos = float(m)
        amp = float(y[m])
        if 1 <= m < y.size - 1:
            vertex = _parabolic(y[m - 1], y[m], y[m + 1])
            if vertex is not None:
                pos = m + vertex[0]
                amp = vertex[1]
        positions.append(pos)
        amplitudes.append(amp)
    periods = np.diff(np.asarray(positions)) / sample_rate
    return periods, np.asarray(amplitudes)


@dataclass(frozen=True)
class PerturbationMeasures:
    jitter_local: float | None
    jitter_ppq5: float | None
    shimmer_local: float | None
    shimmer_apq5: float | None


# float(v.sum()) / v.size is np.mean's own arithmetic (the same pairwise sum,
# then one division) without its per-call overhead.


def _local_perturbation(values: np.ndarray) -> float | None:
    if values.size < 2:
        return None
    mean = float(values.sum()) / values.size
    if mean <= 0:
        return None
    steps = np.abs(np.diff(values))
    return float(steps.sum()) / steps.size / mean


def _ppq5(values: np.ndarray) -> float | None:
    # mean absolute deviation from the centered 5-point running mean
    if values.size < 5:
        return None
    mean = float(values.sum()) / values.size
    if mean <= 0:
        return None
    centred = (values[:-4] + values[1:-3] + values[2:-2] + values[3:-1] + values[4:]) / 5.0
    devs = np.abs(values[2:-2] - centred)
    return float(devs.sum()) / devs.size / mean


def jitter_shimmer(
    periods: np.ndarray, amplitudes: np.ndarray
) -> PerturbationMeasures:
    """Relative period and amplitude perturbation.

    local  = mean |x[i] - x[i-1]| / mean(x)
    ppq5   = mean |x[i] - mean(x[i-2..i+2])| / mean(x)

    Measures needing more cycles than supplied come back None.
    """
    t = np.asarray(periods, dtype=np.float64)
    a = np.asarray(amplitudes, dtype=np.float64)
    return PerturbationMeasures(
        jitter_local=_local_perturbation(t),
        jitter_ppq5=_ppq5(t),
        shimmer_local=_local_perturbation(a),
        shimmer_apq5=_ppq5(a),
    )


def _hnr_lags(sample_rate: int, f0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi) lags of the HNR peak search: two lags either side of rate/f0."""
    lag = sample_rate / f0
    return np.maximum(np.floor(lag).astype(np.intp) - 2, 2), np.ceil(lag).astype(np.intp) + 2


def quality_block_rows(n: int, sample_rate: int, f0_floor: float) -> int:
    """Windows of n samples per quality_windows block within NCC_BLOCK_BYTES.

    Sized by the HNR's NCC at its longest lag, that of f0_floor: 16 of the
    80 ms windows at the defaults (882 samples, nfft 2048).
    """
    return ncc_block_rows(n, int(_hnr_lags(sample_rate, np.float64(f0_floor))[1]))


def _hnr_db(r: float) -> float:
    """10 log10(r / (1 - r)) of an NCC peak r, clamped to [-20, +40] dB."""
    if r <= 0.0:
        return HNR_MIN_DB
    if r >= 1.0:
        return HNR_MAX_DB
    return _clamp(10.0 * math.log10(r / (1.0 - r)), HNR_MIN_DB, HNR_MAX_DB)


def harmonicity_frames(
    frames: Sequence[np.ndarray], f0: Sequence[float], sample_rate: int
) -> list[float | None]:
    """Harmonics-to-noise ratio of each window from its NCC at its pitch lag.

    frames are 1-D windows, of any lengths, and f0 holds one pitch per
    window. HNR = 10 log10(r / (1 - r)), clamped to [-20, +40] dB, where r
    is the parabolic-refined NCC peak within two lags of the pitch lag. None
    where the window is too short to evaluate its pitch lag. Windows of one
    length and one FFT size share one ncc_frames call, at the largest lag
    among them, which leaves each window's own lags with the same bits; each
    result equals the tests' oracles.py copy and harmonicity_frames of its
    window alone.
    """
    f0 = np.asarray(f0, dtype=np.float64)
    if not (np.isfinite(f0).all() and (f0 > 0).all()):
        raise InputError("f0 must be finite and positive")
    los, his = _hnr_lags(sample_rate, f0)
    groups: dict[tuple[int, int], list[int]] = {}
    for i, (x, hi) in enumerate(zip(frames, his.tolist())):
        n = np.size(x)
        if n >= hi + _MIN_OVERLAP:
            groups.setdefault((n, _ncc_size(n, hi)[1]), []).append(i)
    out: list[float | None] = [None] * len(f0)
    for rows in groups.values():
        lo, hi = los[rows], his[rows]
        block = np.stack([np.asarray(frames[i], dtype=np.float64) for i in rows])
        curves = ncc_frames(block, int(hi.max()))
        lags = np.arange(curves.shape[1])
        inside = (lags >= lo[:, None]) & (lags <= hi[:, None])
        idx = np.where(inside, curves, -np.inf).argmax(axis=1)
        r = curves[np.arange(len(rows)), idx]
        # fractional pitch lags push the true correlation peak between integer
        # lags; refine the peak value, where it lies inside the row's lags, or
        # a clean tone cannot reach the clamp
        mid, _, peak = _parabolas(curves, np.flatnonzero(idx < hi), idx)
        r[mid] = peak
        for i, peak in zip(rows, r.tolist()):
            out[i] = _hnr_db(peak)
    return out


def preemphasize(samples: np.ndarray, coeff: float = PREEMPHASIS) -> np.ndarray:
    """y[t] = x[t] - coeff * x[t-1] along the last axis, y[0] = x[0]."""
    x = np.asarray(samples, dtype=np.float64)
    out = np.empty_like(x)
    out[..., :1] = x[..., :1]
    out[..., 1:] = x[..., 1:] - coeff * x[..., :-1]
    return out


def _levinson(r: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Levinson-Durbin recursion (Makhoul 1975) over the rows of r.

    r is a (rows, order + 1) block of autocorrelations. Returns (kept, a):
    the indices of the rows whose prediction error, r[:, 0] at the start,
    stays positive through every order, and their (len(kept), order + 1)
    polynomials with a[:, 0] = 1. A row whose error reaches <= 0 drops out.
    Each step's dot product is one stacked 1 x i by i x 1 matmul, which
    runs the BLAS dot of a row's own 1-D np.dot on the same strides, so
    each row keeps the bits of a recursion run on it alone.
    """
    kept = np.flatnonzero(~(r[:, 0] <= 0))
    r = r[kept]
    a = np.zeros((kept.size, order + 1))
    a[:, 0] = 1.0
    err = r[:, 0].copy()
    for i in range(1, order + 1):
        # np.dot copies a reversed operand before it calls BLAS; matmul on
        # the reversed view would take another loop, with other rounding
        rev = np.ascontiguousarray(r[:, i - 1 : 0 : -1])
        acc = r[:, i] + np.matmul(a[:, None, 1:i], rev[:, :, None])[:, 0, 0]
        k = -acc / err
        prev = a[:, : i + 1].copy()
        a[:, 1 : i + 1] = prev[:, 1 : i + 1] + k[:, None] * prev[:, i - 1 :: -1]
        err *= 1.0 - k * k
        live = ~(err <= 0)
        if not live.all():
            kept, a, r, err = kept[live], a[live], r[live], err[live]
    return kept, a


@lru_cache(maxsize=8)
def _hamming(n: int) -> np.ndarray:
    """np.hamming(n), computed once per length and read-only."""
    w = np.hamming(n)
    w.flags.writeable = False
    return w


Formants = tuple[
    tuple[float | None, float | None, float | None],
    tuple[float | None, float | None, float | None],
]


def lpc_frames(frames: np.ndarray, sample_rate: int, order: int = LPC_ORDER) -> list[Formants]:
    """First three formant frequencies and bandwidths of each row of a block.

    Pre-emphasized, Hamming-windowed autocorrelation LPC of the given order.
    Complex roots map to frequency angle(z) * rate / 2pi and bandwidth
    -(rate/pi) * ln|z|; candidates must lie 50 Hz inside (0, Nyquist) with
    bandwidth under 700 Hz. Missing slots are None, never fabricated. The
    autocorrelation (one stacked product per lag), the Levinson recursion
    and the polynomial roots (one stacked eigenvalue call) each run over
    the whole block. Each row equals the tests' oracles.py copy and
    lpc_frames of that row alone.
    """
    x = preemphasize(frames)
    rows, n = x.shape
    out: list[Formants] = [((None, None, None), (None, None, None))] * rows
    if n <= order + 1:
        return out
    w = x * _hamming(n)
    r = np.empty((rows, order + 1))
    for k in range(order + 1):
        # one 1 x (n-k) by (n-k) x 1 product per row: each row's own np.dot
        r[:, k] = np.matmul(w[:, None, : n - k], w[:, k:, None])[:, 0, 0]
    r[:, 0] *= 1.0 + 1e-9  # hair of ridge regularization
    kept, polys = _levinson(r, order)
    for i, roots in zip(kept.tolist(), _roots(polys)):
        out[i] = _formants(roots, sample_rate)
    return out


def _roots(polys: Sequence[np.ndarray]) -> list[np.ndarray]:
    """np.roots of each polynomial, leading coefficient 1 and all of one order.

    np.roots takes the eigenvalues of the companion matrix; here those of
    every polynomial come from one stacked eigvals call. A polynomial that
    np.roots would trim (a zero trailing coefficient) goes through np.roots
    on its own.
    """
    out: list[np.ndarray | None] = [None] * len(polys)
    whole = []
    for i, a in enumerate(polys):
        if a[-1] == 0:
            out[i] = np.roots(a)
        else:
            whole.append(i)
    if whole:
        p = np.stack([polys[i] for i in whole])
        m = p.shape[1] - 1
        companion = np.zeros((len(whole), m, m))
        companion[:, 1:, :-1] = np.eye(m - 1)
        companion[:, 0, :] = -p[:, 1:] / p[:, :1]
        for i, roots in zip(whole, np.linalg.eigvals(companion)):
            out[i] = roots
    return out


def _formants(roots: np.ndarray, sample_rate: int) -> Formants:
    """The formant and bandwidth slots of one LPC polynomial's roots."""
    roots = roots[np.imag(roots) > 0]
    cands = []
    for z in roots:
        mag = abs(z)
        if mag <= 0 or mag >= 1.0:
            continue
        freq = math.atan2(z.imag, z.real) * sample_rate / (2.0 * math.pi)
        bw = -(sample_rate / math.pi) * math.log(mag)
        if (
            FORMANT_MARGIN_HZ < freq < sample_rate / 2 - FORMANT_MARGIN_HZ
            and 0 < bw < MAX_FORMANT_BANDWIDTH_HZ
        ):
            cands.append((freq, bw))
    cands.sort()
    freqs: list[float | None] = [None, None, None]
    bws: list[float | None] = [None, None, None]
    for i, (freq, bw) in enumerate(cands[:3]):
        freqs[i] = freq
        bws[i] = bw
    return (freqs[0], freqs[1], freqs[2]), (bws[0], bws[1], bws[2])


def _hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def _mel_to_hz(m):
    return 700.0 * (np.power(10.0, np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


@lru_cache(maxsize=8)
def _mel_filterbank(sample_rate: int, nfft: int, n_filters: int) -> np.ndarray:
    """Triangular filters, linearly spaced on the mel scale over 0..Nyquist."""
    edges_hz = _mel_to_hz(
        np.linspace(0.0, float(_hz_to_mel(sample_rate / 2.0)), n_filters + 2)
    )
    bin_hz = np.arange(nfft // 2 + 1) * (sample_rate / nfft)
    fb = np.zeros((n_filters, bin_hz.size))
    for j in range(n_filters):
        left, center, right = edges_hz[j], edges_hz[j + 1], edges_hz[j + 2]
        rising = (bin_hz - left) / max(center - left, 1e-12)
        falling = (right - bin_hz) / max(right - center, 1e-12)
        fb[j] = np.clip(np.minimum(rising, falling), 0.0, None)
    return fb


def mfcc_frames(
    frames: np.ndarray,
    sample_rate: int,
    n_coeffs: int = N_CEPSTRA,
    n_filters: int = N_MEL_FILTERS,
) -> np.ndarray:
    """Mel cepstra c1..c8 of each row of a (rows, n) block.

    Pipeline: pre-emphasis 0.97, Hamming window, power spectrum on the next
    power-of-two FFT, 26 triangular mel filters over 0..Nyquist, log with an
    absolute floor of 1e-10, orthonormal DCT-II. c0 is dropped because it
    only restates the energy measure. Each row equals the tests' oracles.py
    copy and mfcc_frames of that row alone.
    """
    x = preemphasize(frames)
    rows, n = x.shape
    if n == 0:
        raise InputError("mfcc needs a non-empty window")
    w = x * _hamming(n)
    nfft = max(1 << int(n - 1).bit_length(), 64)
    power = np.abs(rfft(w, nfft)) ** 2
    fb = _mel_filterbank(sample_rate, nfft, n_filters)
    energies = np.empty((rows, n_filters))
    # one matrix-vector product per row: a matrix product over the block
    # (power @ fb.T) does not give the same bits
    for i in range(rows):
        energies[i] = fb @ power[i]
    np.maximum(energies, MEL_LOG_FLOOR, out=energies)
    ceps = dct(np.log(energies), type=2, norm="ortho")
    return ceps[:, 1 : n_coeffs + 1]


def analyze_prosody_window(
    samples: np.ndarray,
    sample_rate: int,
    center: float,
    f0_floor: float = F0_FLOOR_HZ,
    f0_ceiling: float = F0_CEILING_HZ,
    voicing_threshold: float = VOICING_THRESHOLD,
) -> ProsodyWindow:
    """F0 track and mean intensity of one window.

    The window is cut into 25 ms subframes every 10 ms, pitch-tracked as one
    f0_frames block. No pipeline path calls it; it stays for
    benchmarks/run.py (see the module docstring), while the pipeline runs
    features.measure_vowels.
    """
    x = np.asarray(samples, dtype=np.float64)
    flen, hop, count = subframe_grid(x.size, sample_rate)
    track: tuple[float | None, ...] = ()
    if count:
        frames = sliding_window_view(x, flen)[::hop]
        f0, _ = f0_frames(frames, sample_rate, f0_floor, f0_ceiling, voicing_threshold)
        track = f0_track(f0)
    return ProsodyWindow(center=center, f0_track=track, mean_intensity=intensity_db(x))


def quality_windows(
    windows: Sequence[np.ndarray],
    sample_rate: int,
    centers: Sequence[float],
    f0: Sequence[float | None],
) -> list[QualityWindow]:
    """Perturbation and HNR of windows whose F0 is already known.

    A window without a usable F0 (unvoiced) yields all-None measures. Cycles
    are marked window by window; the HNR of the voiced windows comes from
    one harmonicity_frames call.
    """
    voiced = [i for i, f in enumerate(f0) if f is not None]
    hnr = iter(
        harmonicity_frames([windows[i] for i in voiced], [f0[i] for i in voiced], sample_rate)
    )
    out = []
    for x, center, f in zip(windows, centers, f0):
        if f is None:
            out.append(QualityWindow(center, None, None, None, None, None))
            continue
        cycles = mark_cycles(x, f, sample_rate)
        if cycles is None:
            pert = PerturbationMeasures(None, None, None, None)
        else:
            pert = jitter_shimmer(*cycles)
        out.append(
            QualityWindow(
                center=center,
                jitter_local=pert.jitter_local,
                jitter_ppq5=pert.jitter_ppq5,
                shimmer_local=pert.shimmer_local,
                shimmer_apq5=pert.shimmer_apq5,
                harmonicity_db=next(hnr),
            )
        )
    return out


def analyze_quality_window(
    samples: np.ndarray,
    sample_rate: int,
    center: float,
    f0: float | None,
) -> QualityWindow:
    """quality_windows of one window, kept for benchmarks/run.py."""
    return quality_windows([samples], sample_rate, [center], [f0])[0]


def spectral_windows(
    frames: np.ndarray, sample_rate: int, centers: Sequence[float]
) -> list[SpectralWindow]:
    """Formants, bandwidths and mel cepstra of each row of a (rows, n) block."""
    formants = lpc_frames(frames, sample_rate)
    ceps = mfcc_frames(frames, sample_rate).tolist()
    return [
        SpectralWindow(center, f, b, tuple(c))
        for center, (f, b), c in zip(centers, formants, ceps)
    ]


def analyze_spectral_window(
    samples: np.ndarray, sample_rate: int, center: float
) -> SpectralWindow:
    """spectral_windows of one window, kept for benchmarks/run.py."""
    return spectral_windows(np.asarray(samples)[None, :], sample_rate, [center])[0]
