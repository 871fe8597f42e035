"""Windowed acoustic measurements.

Low-level operations shared by segmentation and feature extraction: frame
energy, normalized-autocorrelation voicing and F0, cycle marking with
jitter/shimmer, harmonicity, LPC formants and mel cepstra. One
normalized-autocorrelation kernel, `ncc_frames`, serves segmentation's
frame voicing and the pitch tracker `f0_frames`, each a block of frames
per call; `features.measure_vowels` hands `f0_frames` the F0 subframes of
every stressed vowel of a clip together. Both size their blocks with
`ncc_block_rows`, so that a block's working arrays fit NCC_BLOCK_BYTES
(1 MiB, a quarter of the 4 MiB per-core L2 cache of the machine it was
tuned on) whatever the frame length. Long clips run their blocks on one
thread per CPU, one block in flight per thread, so the budget is per
thread, as each core has its own L2 cache. HNR takes one window per call,
through `ncc_curve`.

All functions take plain sample arrays; the 80 ms prosody / 40 ms spectral
window slicing is done by the callers in `features`.
"""

from __future__ import annotations

import math
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
    x = np.asarray(frames, dtype=np.float64)
    n = x.shape[-1]
    max_lag, nfft = _ncc_size(n, max_lag)
    spec = rfft(x, nfft)
    # spec * conj(spec) in that order at every size: numpy's complex multiply
    # is not bitwise commutative, and an inline `spec * np.conj(spec)` turns
    # into conj * spec once numpy elides the temporary (256 KiB and up).
    power = np.conj(spec)
    np.multiply(spec, power, out=power)
    ac = irfft(power, nfft)[..., : max_lag + 1]
    sq = np.cumsum(x * x, axis=-1)
    # energy of the overlapping head x[:n-tau] and tail x[tau:] at each lag
    head = sq[..., n - 1 - max_lag : n][..., ::-1]
    denom = np.empty(sq.shape[:-1] + (max_lag + 1,))
    denom[..., 0] = sq[..., -1]
    np.subtract(sq[..., -1:], sq[..., :max_lag], out=denom[..., 1:])
    np.multiply(head, denom, out=denom)
    np.sqrt(denom, out=denom)
    live = denom > _TINY
    np.divide(ac, denom, out=ac, where=live)
    ac[~live] = 0.0
    return np.clip(ac, -1.0, 1.0, out=ac)


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
    """ncc_frames of one window; a single 0 when the window is too short."""
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
    # parabolic refinement at interior peaks, the arithmetic of _parabolic
    mid = np.flatnonzero((best > lo) & (best < hi))
    y0, y1, y2 = (curves[mid, best[mid] + k] for k in (-1, 0, 1))
    denom = y0 - 2.0 * y1 + y2
    vertex = (np.abs(denom) > _TINY) & (y1 >= y0) & (y1 >= y2)
    mid, y0, y2, denom = mid[vertex], y0[vertex], y2[vertex], denom[vertex]
    lag[mid] += np.clip(0.5 * (y0 - y2) / denom, -0.5, 0.5)
    return lag, strength


def _pick_peak(curve: np.ndarray, lo: int, hi: int) -> tuple[float, float]:
    """Best lag (parabolic-refined) and its strength within [lo, hi]."""
    lag, strength = _pick_peaks(curve[None, :], lo, hi)
    return float(lag[0]), float(strength[0])


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
    autocorrelation in the admissible lag range. Rows come out equal to
    f0_once of each row alone.
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


def f0_once(
    samples: np.ndarray,
    sample_rate: int,
    f0_floor: float = F0_FLOOR_HZ,
    f0_ceiling: float = F0_CEILING_HZ,
    voicing_threshold: float = VOICING_THRESHOLD,
) -> tuple[float | None, float]:
    """F0 of one analysis frame, or None when the frame is unvoiced.

    Returns (f0, strength) where strength is the best normalized
    autocorrelation in the admissible lag range.
    """
    frame = np.asarray(samples, dtype=np.float64)[None, :]
    f0, strength = f0_frames(frame, sample_rate, f0_floor, f0_ceiling, voicing_threshold)
    return f0_track(f0)[0], float(strength[0])


def subframe_grid(n_samples: int, sample_rate: int) -> tuple[int, int, int]:
    """(frame_length, hop, count) in samples for the 25 ms / 10 ms grid."""
    flen = int(round(SUBFRAME_LENGTH_S * sample_rate))
    hop = int(round(SUBFRAME_HOP_S * sample_rate))
    count = (n_samples - flen) // hop + 1 if n_samples >= flen else 0
    return flen, hop, count


def estimate_f0(
    samples: np.ndarray,
    sample_rate: int,
    f0_floor: float = F0_FLOOR_HZ,
    f0_ceiling: float = F0_CEILING_HZ,
    voicing_threshold: float = VOICING_THRESHOLD,
) -> list[float | None]:
    """Per-subframe F0 across a window, None where unvoiced.

    The window is cut into 25 ms subframes every 10 ms; each is pitch-tracked
    independently with the normalized autocorrelation method, all of them
    in one f0_frames block.
    """
    x = np.asarray(samples, dtype=np.float64)
    flen, hop, count = subframe_grid(x.size, sample_rate)
    if count == 0:
        return []
    frames = sliding_window_view(x, flen)[::hop]
    f0, _ = f0_frames(frames, sample_rate, f0_floor, f0_ceiling, voicing_threshold)
    return list(f0_track(f0))


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
    if f0 <= 0:
        raise InputError("f0 must be positive")
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


def _local_perturbation(values: np.ndarray) -> float | None:
    if values.size < 2:
        return None
    mean = float(np.mean(values))
    if mean <= 0:
        return None
    return float(np.mean(np.abs(np.diff(values)))) / mean


def _ppq5(values: np.ndarray) -> float | None:
    # mean absolute deviation from the centered 5-point running mean
    if values.size < 5:
        return None
    mean = float(np.mean(values))
    if mean <= 0:
        return None
    centred = (values[:-4] + values[1:-3] + values[2:-2] + values[3:-1] + values[4:]) / 5.0
    return float(np.mean(np.abs(values[2:-2] - centred))) / mean


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


def harmonicity_db(samples: np.ndarray, f0: float, sample_rate: int) -> float | None:
    """Harmonics-to-noise ratio from the autocorrelation at the pitch lag.

    HNR = 10 log10(r / (1 - r)), clamped to [-20, +40] dB. None when the
    window is too short to evaluate the pitch lag.
    """
    x = np.asarray(samples, dtype=np.float64)
    if f0 <= 0:
        raise InputError("f0 must be positive")
    lag = sample_rate / f0
    hi = int(math.ceil(lag)) + 2
    if x.size < hi + _MIN_OVERLAP:
        return None
    curve = ncc_curve(x, hi)
    lo = max(2, int(math.floor(lag)) - 2)
    if lo >= curve.size:
        return None
    hi_c = min(hi, curve.size - 1)
    idx = lo + int(np.argmax(curve[lo : hi_c + 1]))
    r = float(curve[idx])
    # fractional pitch lags push the true correlation peak between integer
    # lags; refine the peak value or a clean tone cannot reach the clamp
    if 1 <= idx < curve.size - 1:
        vertex = _parabolic(curve[idx - 1], curve[idx], curve[idx + 1])
        if vertex is not None:
            r = vertex[1]
    if r <= 0.0:
        return HNR_MIN_DB
    if r >= 1.0:
        return HNR_MAX_DB
    hnr = 10.0 * math.log10(r / (1.0 - r))
    return _clamp(hnr, HNR_MIN_DB, HNR_MAX_DB)


def preemphasize(samples: np.ndarray, coeff: float = PREEMPHASIS) -> np.ndarray:
    x = np.asarray(samples, dtype=np.float64)
    if x.size == 0:
        return x.copy()
    out = np.empty_like(x)
    out[0] = x[0]
    out[1:] = x[1:] - coeff * x[:-1]
    return out


def _levinson(r: np.ndarray, order: int) -> np.ndarray | None:
    a = np.zeros(order + 1)
    a[0] = 1.0
    err = r[0]
    if err <= 0:
        return None
    for i in range(1, order + 1):
        acc = r[i] + float(np.dot(a[1:i], r[i - 1 : 0 : -1]))
        k = -acc / err
        prev = a[: i + 1].copy()
        a[1 : i + 1] = prev[1 : i + 1] + k * prev[i - 1 :: -1]
        err *= 1.0 - k * k
        if err <= 0:
            return None
    return a


@lru_cache(maxsize=8)
def _hamming(n: int) -> np.ndarray:
    """np.hamming(n), computed once per length and read-only."""
    w = np.hamming(n)
    w.flags.writeable = False
    return w


def lpc_formants(
    samples: np.ndarray,
    sample_rate: int,
    order: int = LPC_ORDER,
) -> tuple[
    tuple[float | None, float | None, float | None],
    tuple[float | None, float | None, float | None],
]:
    """First three formant frequencies and bandwidths from LPC root angles.

    Pre-emphasized, Hamming-windowed autocorrelation LPC of the given order.
    Complex roots map to frequency angle(z) * rate / 2pi and bandwidth
    -(rate/pi) * ln|z|; candidates must lie 50 Hz inside (0, Nyquist) with
    bandwidth under 700 Hz. Missing slots are None, never fabricated.
    """
    x = preemphasize(samples)
    n = x.size
    empty = ((None, None, None), (None, None, None))
    if n <= order + 1:
        return empty
    w = x * _hamming(n)
    r = np.array([float(np.dot(w[: n - k], w[k:])) for k in range(order + 1)])
    if r[0] <= 0:
        return empty
    r[0] *= 1.0 + 1e-9  # hair of ridge regularization
    a = _levinson(r, order)
    if a is None:
        return empty
    roots = np.roots(a)
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


def mfcc(
    samples: np.ndarray,
    sample_rate: int,
    n_coeffs: int = N_CEPSTRA,
    n_filters: int = N_MEL_FILTERS,
) -> np.ndarray:
    """Mel cepstra c1..c8 of one window.

    Pipeline: pre-emphasis 0.97, Hamming window, power spectrum on the next
    power-of-two FFT, 26 triangular mel filters over 0..Nyquist, log with an
    absolute floor of 1e-10, orthonormal DCT-II. c0 is dropped because it
    only restates the energy measure.
    """
    x = preemphasize(samples)
    if x.size == 0:
        raise InputError("mfcc needs a non-empty window")
    w = x * _hamming(x.size)
    nfft = max(1 << int(x.size - 1).bit_length(), 64)
    power = np.abs(rfft(w, nfft)) ** 2
    fb = _mel_filterbank(sample_rate, nfft, n_filters)
    energies = np.maximum(fb @ power, MEL_LOG_FLOOR)
    ceps = dct(np.log(energies), type=2, norm="ortho")
    return ceps[1 : n_coeffs + 1]


def analyze_prosody_window(
    samples: np.ndarray,
    sample_rate: int,
    center: float,
    f0_floor: float = F0_FLOOR_HZ,
    f0_ceiling: float = F0_CEILING_HZ,
    voicing_threshold: float = VOICING_THRESHOLD,
) -> ProsodyWindow:
    track = estimate_f0(samples, sample_rate, f0_floor, f0_ceiling, voicing_threshold)
    return ProsodyWindow(
        center=center,
        f0_track=tuple(track),
        mean_intensity=intensity_db(samples),
    )


def analyze_quality_window(
    samples: np.ndarray,
    sample_rate: int,
    center: float,
    f0: float | None,
) -> QualityWindow:
    """Perturbation and HNR for a window whose F0 is already known.

    A window without a usable F0 (unvoiced) yields all-None measures.
    """
    if f0 is None:
        return QualityWindow(center, None, None, None, None, None)
    cycles = mark_cycles(samples, f0, sample_rate)
    if cycles is None:
        pert = PerturbationMeasures(None, None, None, None)
    else:
        pert = jitter_shimmer(*cycles)
    return QualityWindow(
        center=center,
        jitter_local=pert.jitter_local,
        jitter_ppq5=pert.jitter_ppq5,
        shimmer_local=pert.shimmer_local,
        shimmer_apq5=pert.shimmer_apq5,
        harmonicity_db=harmonicity_db(samples, f0, sample_rate),
    )


def analyze_spectral_window(
    samples: np.ndarray, sample_rate: int, center: float
) -> SpectralWindow:
    formants, bandwidths = lpc_formants(samples, sample_rate)
    ceps = mfcc(samples, sample_rate)
    return SpectralWindow(
        center=center,
        formants=formants,
        bandwidths=bandwidths,
        cepstra=tuple(float(c) for c in ceps),
    )
