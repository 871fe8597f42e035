"""Independent reference implementations and frozen transcriptions.

Everything here is deliberately written the slow, literal way and shares
no code with the package: enumeration instead of dynamic programming,
quadrature instead of library CDFs, explicit DFT/DCT loops instead of FFT
calls. Tests compare the fast implementations against these. The last
sections keep earlier versions of package code verbatim, so that faster
rewrites can be checked bit for bit against them.
"""

from __future__ import annotations

import math
from itertools import product
from typing import Sequence

import numpy as np
from scipy.fft import dct, irfft, rfft
from scipy.signal import lfilter, upfirdn
from scipy.stats import f as f_dist
from scipy.stats import t as t_dist

from voxtrait.acoustics import (
    _MIN_OVERLAP,
    _OCTAVE_MARGIN,
    _TINY,
    F0_CEILING_HZ,
    F0_FLOOR_HZ,
    FORMANT_MARGIN_HZ,
    HNR_MAX_DB,
    HNR_MIN_DB,
    LPC_ORDER,
    MAX_FORMANT_BANDWIDTH_HZ,
    MEL_LOG_FLOOR,
    N_CEPSTRA,
    N_MEL_FILTERS,
    PREEMPHASIS,
    VOICING_THRESHOLD,
    _clamp,
    _hamming,
    _mel_filterbank,
    ncc_curve,
    pitch_lags,
    subframe_grid,
)
from voxtrait.audio_io import _CUTOFF_FRACTION, _HALF_LEN_FACTOR, _design_lowpass
from voxtrait.errors import ConstantColumnError, InputError, InsufficientDataError, StatsError
from voxtrait.features import FEATURE_NAMES, FeatureTable
from voxtrait.regression import (
    _COLLINEAR_TOL,
    RegressionModel,
    StabilityReport,
    Standardization,
    Thresholds,
    _pearson,
    decide_stable,
)
from voxtrait.stats import (
    _TRANSITION_SESSIONS,
    TESTS,
    TRANSITIONS,
    MatrixCell,
    SignificanceMatrix,
    _tier,
    paired_t_test,
    wilcoxon_signed_rank,
)
from voxtrait.synth import _resonator


def rank_abs(values):
    """Average ranks of |values|, smallest first, ties averaged."""
    a = [abs(v) for v in values]
    order = sorted(range(len(a)), key=lambda i: a[i])
    ranks = [0.0] * len(a)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and a[order[j + 1]] == a[order[i]]:
            j += 1
        avg = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        i = j + 1
    return ranks


def brute_force_signed_rank_p(diffs) -> tuple[float, float]:
    """(W+, two-sided p) by enumerating every sign assignment.

    Zero differences must already be dropped. The null puts probability
    2^-n on each of the 2^n sign vectors; p is the fraction whose rank sum
    deviates from the null mean at least as much as the observed one.
    """
    d = [float(v) for v in diffs]
    assert all(v != 0.0 for v in d)
    n = len(d)
    ranks = rank_abs(d)
    w_obs = sum(r for r, v in zip(ranks, d) if v > 0)
    mu = sum(ranks) / 2.0
    dev = abs(w_obs - mu)
    hits = 0
    for signs in product((1.0, -1.0), repeat=n):
        w = sum(r for r, s in zip(ranks, signs) if s > 0)
        # integer-safe comparison: ranks are multiples of 0.5
        if abs(w - mu) >= dev - 1e-12:
            hits += 1
    return w_obs, hits / 2.0**n


def t_sf(t: float, df: int) -> float:
    """P(T > t) for Student's t by trapezoid quadrature of the density."""
    norm = math.exp(
        math.lgamma((df + 1) / 2.0) - math.lgamma(df / 2.0)
    ) / math.sqrt(df * math.pi)
    if t < 0:
        return 1.0 - t_sf(-t, df)
    x = np.linspace(0.0, t, 200_001)
    pdf = norm * (1.0 + x * x / df) ** (-(df + 1) / 2.0)
    return 0.5 - float(np.trapezoid(pdf, x))


def mfcc_reference(samples, sample_rate: int, n_coeffs: int = 8, n_filters: int = 26):
    """Mel cepstra c1..c8 computed the long way.

    Explicit DFT matrix, scalar-loop triangle filters and a textbook
    orthonormal DCT-II. Contract mirrored: pre-emphasis 0.97, Hamming
    window, next power-of-two spectrum (floor 64), log floor 1e-10,
    leading coefficient dropped.
    """
    x = np.asarray(samples, dtype=np.float64)
    pre = np.empty_like(x)
    pre[0] = x[0]
    for i in range(1, x.size):
        pre[i] = x[i] - 0.97 * x[i - 1]
    n = pre.size
    window = np.array(
        [0.54 - 0.46 * math.cos(2.0 * math.pi * i / (n - 1)) for i in range(n)]
    )
    w = pre * window
    nfft = 64
    while nfft < n:
        nfft *= 2
    padded = np.zeros(nfft)
    padded[:n] = w
    k = np.arange(nfft // 2 + 1)
    dft = np.exp(-2j * math.pi * np.outer(k, np.arange(nfft)) / nfft) @ padded
    power = np.abs(dft) ** 2

    def hz_to_mel(f):
        return 2595.0 * math.log10(1.0 + f / 700.0)

    def mel_to_hz(m):
        return 700.0 * (10.0 ** (m / 2595.0) - 1.0)

    top = hz_to_mel(sample_rate / 2.0)
    edges = [mel_to_hz(top * j / (n_filters + 1)) for j in range(n_filters + 2)]
    bin_hz = [kk * sample_rate / nfft for kk in range(nfft // 2 + 1)]
    energies = []
    for j in range(n_filters):
        left, center, right = edges[j], edges[j + 1], edges[j + 2]
        acc = 0.0
        for b, f in enumerate(bin_hz):
            if left < f < right:
                if f <= center:
                    wgt = (f - left) / max(center - left, 1e-12)
                else:
                    wgt = (right - f) / max(right - center, 1e-12)
                acc += max(wgt, 0.0) * power[b]
            elif f == center:
                acc += power[b]
        energies.append(math.log(max(acc, 1e-10)))

    ceps = []
    m = n_filters
    for i in range(1, n_coeffs + 1):
        s = sum(
            energies[j] * math.cos(math.pi * i * (2 * j + 1) / (2 * m))
            for j in range(m)
        )
        ceps.append(s * math.sqrt(2.0 / m))
    return np.asarray(ceps)


# Transcribed by hand from the published train-mode tables, independently
# of the packaged registry fixture. Numeric strings are verbatim; the two
# typographically corrupted rows carry uncertain=True and the conservative
# reading adopted by the registry.
MODEL_TRANSCRIPTION: dict[tuple[str, str], dict] = {
    ("cooperative", "S1"): {
        "betas": [("pause_speech_ratio", "-.67"), ("mean_pause", "-.35"), ("cep1", "+.29")],
        "r": ".81",
    },
    ("cooperative", "S2"): {
        "betas": [("pause_speech_ratio", "-.73"), ("b2", "+.26")],
        "r": ".66",
    },
    ("cooperative", "S3"): {
        "betas": [("pause_speech_ratio", "-.78"), ("cep6", "+.26")],
        "r": ".70",
    },
    ("practical_solution", "S1"): {
        "betas": [
            ("pause_speech_ratio", "-.77"),
            ("intensity_std", "-.32"),
            ("f0_mean", "-.28"),
        ],
        "r": ".63",
    },
    ("practical_solution", "S2"): {
        "betas": [("pause_speech_ratio", "-.71"), ("b2", "+.37")],
        "r": ".60",
    },
    ("practical_solution", "S3"): {
        "betas": [
            ("pause_speech_ratio", "-.77"),
            ("intensity_std", "-.29"),
            ("vowel_f0_range", "+.32"),
            ("cep6", "+.36"),
        ],
        "r": ".70",
    },
    ("serene", "S1"): {
        "betas": [("pause_speech_ratio", "-.83"), ("cep1", "+.43"), ("cep4", "+.60")],
        "r": ".57",
    },
    ("serene", "S2"): {
        "betas": [("pause_speech_ratio", "-.71")],
        "r": ".42",
    },
    ("serene", "S3"): {
        "betas": [
            ("pause_speech_ratio", "-.95"),
            ("shimmer_apq5", "-.54"),
            ("cep4", "+.67"),
            ("cep6", "+.36"),
        ],
        "r": ".70",
    },
    ("hesitant", "S1"): {
        "betas": [("pause_speech_ratio", "+.96"), ("vowel_std", "+.40"), ("cep4", "-.56")],
        "r": ".70",
    },
    ("hesitant", "S2"): {
        "betas": [("pause_speech_ratio", "+.65"), ("rhythm", "+.35"), ("cep4", "-.53")],
        "r": ".57",
    },
    ("hesitant", "S3"): {
        "betas": [("pause_speech_ratio", "+.73"), ("spkrate", "+.31"), ("cep4", "-.53")],
        "r": ".60",
    },
    ("determined", "S1"): {
        "betas": [("pause_speech_ratio", "-.96"), ("cep1", "+.47"), ("cep4", "+.40")],
        "r": ".66",
    },
    ("determined", "S2"): {
        "betas": [("pause_speech_ratio", "-.81")],
        "r": ".54",
    },
    ("determined", "S3"): {
        "betas": [("pause_speech_ratio", "-.78"), ("cep6", "+.45")],
        "r": ".55",
    },
    ("answered_properly", "S1"): {
        "betas": [
            ("pause_speech_ratio", "-.69"),
            ("f2", "+.37"),
            ("cep1", "+.29"),
            ("intensity_std", "-.30"),
            ("jitter_ppq5", "+.30"),
        ],
        "r": ".64",
    },
    ("answered_properly", "S2"): {
        "betas": [("pause_speech_ratio", "-.59"), ("b2", "+.44")],
        "r": ".59",
    },
    ("answered_properly", "S3"): {
        "betas": [
            ("pause_speech_ratio", "-.61"),
            ("cep6", "+.41"),
            ("intensity_std", "-.26"),
            ("vowel_f0_range", "+.30"),
        ],
        "r": ".65",
        "uncertain": True,
    },
    ("tremulous", "S1"): {
        "betas": [
            ("pause_speech_ratio", "+.19"),
            ("cep1", "-.26"),
            ("cep4", "-.40"),
            ("cep7", "+.22"),
        ],
        "r": ".59",
    },
    ("tremulous", "S2"): {
        "betas": [
            ("pause_speech_ratio", "+.37"),
            ("b2", "-.25"),
            ("cep2", "+.15"),
            ("cep4", "-.36"),
        ],
        "r": ".71",
        "uncertain": True,
    },
    ("tremulous", "S3"): {
        "betas": [
            ("mean_pause", "-.34"),
            ("pauses_second", "-.26"),
            ("pause_speech_ratio", "+.66"),
            ("shimmer_apq5", "+.32"),
            ("cep4", "-.18"),
            ("cep6", "-.17"),
        ],
        "r": ".67",
    },
    ("turned_face_aside", "S1"): {
        "betas": [("jitter_loc", "-.41"), ("cep1", "-.40"), ("cep7", "+.44")],
        "r": ".47",
    },
    ("turned_face_aside", "S2"): {
        "betas": [("pause_speech_ratio", "+.43"), ("cep1", "-.56"), ("cep7", "+.42")],
        "r": ".50",
    },
    ("turned_face_aside", "S3"): {
        "betas": [
            ("vowel_f0_range", "-.39"),
            ("b3", "-.37"),
            ("cep6", "-.56"),
            ("cep7", "+.64"),
        ],
        "r": ".60",
    },
    ("breathed_rapidly", "S1"): {
        "betas": [("mean_pause", "+.46"), ("cep4", "-.56")],
        "r": ".65",
    },
    ("breathed_rapidly", "S2"): {
        "betas": [
            ("pauses_second", "-.31"),
            ("pause_speech_ratio", "+.65"),
            ("f2", "+.22"),
            ("cep4", "-.26"),
        ],
        "r": ".71",
    },
    ("breathed_rapidly", "S3"): {
        "betas": [
            ("pauses_second", "-.34"),
            ("pause_speech_ratio", "+.74"),
            ("shimmer_apq5", "+.44"),
            ("cep4", "-.42"),
        ],
        "r": ".74",
    },
}

# Published cosine similarities between transition vectors, keyed by alpha
# and transition pair, in the fixed pair order used throughout.
PUBLISHED_COSINES = {
    0.01: {("1->2", "1->3"): 0.71, ("1->2", "2->3"): 0.26, ("1->3", "2->3"): 0.53},
    0.05: {("1->2", "1->3"): 0.58, ("1->2", "2->3"): 0.00, ("1->3", "2->3"): 0.54},
}


# Whole-array forms of code the package now runs in blocks or with bisection.
# Kept verbatim so the bounded-memory and sub-quadratic versions can be
# checked bit for bit against them.


def decode_pcm_reference(body: bytes, bits: int, n_channels: int) -> np.ndarray:
    """Mono float64 samples of a whole interleaved integer-PCM data chunk."""
    n_frames = len(body) // (bits // 8 * n_channels)
    body = body[: n_frames * (bits // 8) * n_channels]
    if bits == 8:
        raw = np.frombuffer(body, dtype=np.uint8).astype(np.float64)
        scaled = (raw - 128.0) / 128.0
    elif bits == 16:
        raw = np.frombuffer(body, dtype="<i2").astype(np.float64)
        scaled = raw / 32768.0
    elif bits == 32:
        raw = np.frombuffer(body, dtype="<i4").astype(np.float64)
        scaled = raw / 2147483648.0
    else:  # 24-bit: assemble little-endian triplets and sign-extend
        b = np.frombuffer(body, dtype=np.uint8).reshape(-1, 3).astype(np.int32)
        val = b[:, 0] | (b[:, 1] << 8) | (b[:, 2] << 16)
        val -= (val & 0x800000) << 1
        scaled = val.astype(np.float64) / float(1 << 23)
    return scaled.reshape(n_frames, n_channels).mean(axis=1)


def resample_reference(x: np.ndarray, src: int, target: int) -> np.ndarray:
    """audio_io.resample's samples from one upfirdn call over the whole clip."""
    g = math.gcd(src, target)
    up, down = target // g, src // g
    n_out = int(round(x.size * target / src))
    if n_out == 0:
        return np.zeros(0)
    blocks = math.ceil(_HALF_LEN_FACTOR * max(up, down) / down)
    half = blocks * down
    cutoff = _CUTOFF_FRACTION * min(src, target) / (src * up)
    h = _design_lowpass(2 * half + 1, cutoff) * up
    y = upfirdn(h, x, up=up, down=down)
    start = half // down
    out = y[start : start + n_out]
    if out.size < n_out:
        out = np.pad(out, (0, n_out - out.size))
    return np.clip(out, -1.0, 1.0)


def analyze_frames_reference(
    x, rate, frame_length=0.025, hop=0.010, f0_floor=75.0, f0_ceiling=500.0
):
    """(energy dB, voicing strength) per frame, all frames in one array."""
    flen = int(round(frame_length * rate))
    hop_s = int(round(hop * rate))
    n_frames = (x.size - flen) // hop_s + 1
    idx = np.arange(flen)[None, :] + hop_s * np.arange(n_frames)[:, None]
    frames = x[idx]

    sq = frames * frames
    mean_sq = sq.mean(axis=1)
    energy = np.full(n_frames, -120.0)
    audible = mean_sq > 1e-12
    energy[audible] = np.maximum(10.0 * np.log10(mean_sq[audible]), -120.0)

    lo = max(2, int(math.ceil(rate / f0_ceiling)))
    hi = min(int(math.floor(rate / f0_floor)), flen - 8)
    nfft = 1 << int(flen + hi).bit_length()
    spec = rfft(frames, nfft, axis=1)
    # spec * conj(spec) written out: inline, numpy elides the conj temporary
    # from 256 KiB (64 frames at nfft 512) and multiplies as conj * spec.
    power = np.conj(spec)
    np.multiply(spec, power, out=power)
    ac = irfft(power, nfft, axis=1)[:, : hi + 1]
    csum = np.cumsum(sq, axis=1)
    total = csum[:, -1][:, None]
    lags = np.arange(hi + 1)
    head = csum[:, flen - 1 - lags]
    tail = total - np.concatenate((np.zeros((n_frames, 1)), csum[:, :hi]), axis=1)
    denom = np.sqrt(head * tail)
    with np.errstate(invalid="ignore", divide="ignore"):
        ncc = np.where(denom > 1e-30, ac / np.maximum(denom, 1e-30), 0.0)
    strength = np.clip(ncc[:, lo : hi + 1], -1.0, 1.0).max(axis=1)
    return energy, strength


def vowel_spans_reference(energy, voiced, min_sep_frames, nucleus_drop_db):
    """[first, last] frame spans grown from nuclei, in acceptance order.

    Every candidate nucleus is checked against every accepted one.
    """
    n = energy.size
    is_peak = voiced.copy()
    if n > 1:
        is_peak[1:] &= energy[1:] >= energy[:-1]
        is_peak[:-1] &= energy[:-1] >= energy[1:]
    candidates = np.flatnonzero(is_peak)
    order = candidates[np.argsort(-energy[candidates], kind="stable")]
    claimed = np.zeros(n, dtype=bool)
    accepted = []
    spans = []
    for c in order:
        if claimed[c]:
            continue
        if any(abs(c - a) < min_sep_frames for a in accepted):
            continue
        floor = energy[c] - nucleus_drop_db
        a = c
        while a - 1 >= 0 and voiced[a - 1] and energy[a - 1] >= floor and not claimed[a - 1]:
            a -= 1
        b = c
        while b + 1 < n and voiced[b + 1] and energy[b + 1] >= floor and not claimed[b + 1]:
            b += 1
        claimed[a : b + 1] = True
        accepted.append(c)
        spans.append((a, b))
    return spans


def trim_pauses_reference(pauses, vowels, min_duration):
    """(start, end) of each pause trimmed against every (start, end) vowel."""
    out = []
    for p_start, p_end in pauses:
        start, end = p_start, p_end
        for v_start, v_end in vowels:
            if v_end <= start or v_start >= end:
                continue
            if 0.5 * (v_start + v_end) <= start:
                start = max(start, v_end)
            else:
                end = min(end, v_start)
        if end - start >= min_duration:
            out.append((start, end))
    return out


def extract_features_reference(clip, cfg, seg):
    """FeatureVector of one clip from the single measurement loop that
    `features.extract_features` ran before `measure_vowels` took it over.

    Segmentation, the window analyses and the temporal descriptors come from
    the package; the loop and the aggregation are kept verbatim.
    """
    from voxtrait import acoustics
    from voxtrait.features import FEATURE_NAMES, FeatureVector, temporal_features

    def window(x, rate, center, length_s):
        n = int(round(length_s * rate))
        lo = max(int(round(center * rate)) - n // 2, 0)
        hi = min(lo + n, x.size)
        return x[lo:hi]

    def std(values):
        return float(np.std(np.asarray(values), ddof=1)) if len(values) >= 2 else None

    def mean_or_none(values):
        return float(np.mean(values)) if values else None

    values = dict.fromkeys(FEATURE_NAMES)
    values.update(temporal_features(seg))
    x = clip.samples
    rate = clip.sample_rate
    flen_min = int(round(cfg.frame_length * rate))
    spectral_len = int(round(cfg.spectral_window * rate))
    pooled_f0, ranges, intensities, hnrs, cep_rows = [], [], [], [], []
    perturb = {"jitter_loc": [], "jitter_ppq5": [], "shimmer_loc": [], "shimmer_apq5": []}
    formant_slots = {name: [] for name in ("f1", "f2", "f3", "b1", "b2", "b3")}
    for vowel in seg.stressed:
        pros_samples = window(x, rate, vowel.center, cfg.prosody_window)
        if pros_samples.size >= flen_min:
            pw = acoustics.analyze_prosody_window(
                pros_samples,
                rate,
                vowel.center,
                f0_floor=cfg.f0_floor,
                f0_ceiling=cfg.f0_ceiling,
                voicing_threshold=cfg.voicing_threshold,
            )
            intensities.append(pw.mean_intensity)
            voiced = pw.voiced_f0
            if voiced:
                pooled_f0.extend(voiced)
                ranges.append(pw.f0_max - pw.f0_min)
                f0_med = float(np.median(voiced))
            else:
                f0_med = None
            qw = acoustics.analyze_quality_window(pros_samples, rate, vowel.center, f0_med)
            if qw.jitter_local is not None:
                perturb["jitter_loc"].append(qw.jitter_local)
            if qw.jitter_ppq5 is not None:
                perturb["jitter_ppq5"].append(qw.jitter_ppq5)
            if qw.shimmer_local is not None:
                perturb["shimmer_loc"].append(qw.shimmer_local)
            if qw.shimmer_apq5 is not None:
                perturb["shimmer_apq5"].append(qw.shimmer_apq5)
            if qw.harmonicity_db is not None:
                hnrs.append(qw.harmonicity_db)

        spec_samples = window(x, rate, vowel.center, cfg.spectral_window)
        if spec_samples.size >= spectral_len:
            sw = acoustics.analyze_spectral_window(spec_samples, rate, vowel.center)
            for i, name in enumerate(("f1", "f2", "f3")):
                if sw.formants[i] is not None:
                    formant_slots[name].append(sw.formants[i])
            for i, name in enumerate(("b1", "b2", "b3")):
                if sw.bandwidths[i] is not None:
                    formant_slots[name].append(sw.bandwidths[i])
            cep_rows.append(sw.cepstra)

    values["f0_mean"] = mean_or_none(pooled_f0)
    values["f0_std"] = std(pooled_f0)
    values["vowel_f0_range"] = mean_or_none(ranges)
    values["intensity_std"] = std(intensities)
    values["harmonicity"] = mean_or_none(hnrs)
    for name, vals in perturb.items():
        values[name] = mean_or_none(vals)
    for name, vals in formant_slots.items():
        values[name] = mean_or_none(vals)
    if cep_rows:
        means = np.mean(np.asarray(cep_rows), axis=0)
        for i in range(8):
            values[f"cep{i + 1}"] = float(means[i])
    return FeatureVector(values)


# The stepwise/LOOCV code as it stood before its p-values called
# scipy.special directly, its constant-column test became max > min and its
# Gram blocks were indexed without np.ix_. Kept verbatim (zscore_fit and
# stepwise_fit too, so every call stays inside this copy) to check that
# those changes leave every model and stability report bit-identical. The
# result types, decide_stable and _pearson are the package's own.


def zscore_fit(X: np.ndarray, names: Sequence[str]) -> Standardization:
    """Column means and sample standard deviations; rejects constants."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X[:, None]
    if X.shape[0] < 2:
        raise InsufficientDataError("standardization needs >= 2 rows")
    if X.shape[1] != len(names):
        raise InputError("names must match the number of columns")
    mean = X.mean(axis=0)
    std = X.std(axis=0, ddof=1)
    for j, s in enumerate(std):
        if s == 0.0 or not np.isfinite(s):
            raise ConstantColumnError(f"column {names[j]!r} has zero variance")
    return Standardization(tuple(names), mean, std)



def _forward_scan(
    G: np.ndarray,
    gy: np.ndarray,
    syy: float,
    n: int,
    selected: list[int],
    candidates: np.ndarray,
) -> tuple[int, float] | None:
    """Best candidate index and its partial-F p-value, or None."""
    k = len(selected)
    df2 = n - (k + 1) - 1
    if df2 < 1 or candidates.size == 0:
        return None
    # rss at rounding level means the fit is already exact; without this
    # guard fp-negative residuals turn every candidate into a fake
    # perfect-fit entry
    rss_floor = 1e-12 * max(syy, 1.0)
    if k:
        sel = np.asarray(selected)
        Gss = G[np.ix_(sel, sel)]
        rhs = np.concatenate((G[np.ix_(sel, candidates)], gy[sel][:, None]), axis=1)
        try:
            sol = np.linalg.solve(Gss, rhs)
        except np.linalg.LinAlgError:
            return None
        beta_s = sol[:, -1]
        rss = syy - float(gy[sel] @ beta_s)
        if rss <= rss_floor:
            return None
        d = G[candidates, candidates] - np.einsum(
            "ij,ij->j", G[np.ix_(sel, candidates)], sol[:, :-1]
        )
        num = gy[candidates] - G[np.ix_(sel, candidates)].T @ beta_s
    else:
        rss = syy
        if rss <= rss_floor:
            return None
        d = G[candidates, candidates].copy()
        num = gy[candidates].copy()

    ok = d > _COLLINEAR_TOL * np.maximum(G[candidates, candidates], 1.0)
    if not ok.any():
        return None
    delta = np.full(candidates.size, -np.inf)
    delta[ok] = num[ok] ** 2 / d[ok]
    resid = rss - delta
    with np.errstate(invalid="ignore", divide="ignore"):
        F = np.where(resid > 0, delta * df2 / np.maximum(resid, 1e-300), np.inf)
    F[~ok] = -np.inf
    p = np.full(candidates.size, np.inf)
    finite = np.isfinite(F) & ok
    p[finite] = f_dist.sf(F[finite], 1, df2)
    p[ok & ~finite] = 0.0  # perfect fit
    best = int(np.argmin(p))
    if not np.isfinite(p[best]):
        return None
    return int(candidates[best]), float(p[best])


def _ols_stats(
    G: np.ndarray, gy: np.ndarray, syy: float, n: int, selected: list[int]
) -> tuple[np.ndarray, float, np.ndarray]:
    """(betas, rss, two-sided p per included predictor)."""
    sel = np.asarray(selected)
    Gss = G[np.ix_(sel, sel)]
    Ginv = np.linalg.inv(Gss)
    beta = Ginv @ gy[sel]
    rss = max(syy - float(gy[sel] @ beta), 0.0)
    df = n - len(selected) - 1
    if df < 1:
        return beta, rss, np.zeros(len(selected))
    sigma2 = rss / df
    se = np.sqrt(np.maximum(sigma2 * np.diag(Ginv), 1e-300))
    tvals = beta / se
    pvals = 2.0 * t_dist.sf(np.abs(tvals), df)
    return beta, rss, pvals


def stepwise_fit(
    Z: np.ndarray,
    zy: np.ndarray,
    names: Sequence[str],
    entry_p: float = 0.05,
    removal_p: float = 0.10,
) -> RegressionModel:
    """Forward/backward stepwise OLS on standardized data.

    Entry: the candidate with the smallest partial-F p enters when
    p * n_candidates < entry_p. Removal: the worst included predictor
    leaves when its p exceeds removal_p. Repeats until a full pass changes
    nothing. Candidates collinear with the current set are skipped, which
    deterministically drops the later-indexed column of a collinear pair.
    Empty models are legal and come back with train_r = 0.
    """
    Z = np.asarray(Z, dtype=np.float64)
    zy = np.asarray(zy, dtype=np.float64).ravel()
    if Z.ndim != 2 or Z.shape[0] != zy.size:
        raise InputError("Z must be (n, p) with one y per row")
    n, p = Z.shape
    if len(names) != p:
        raise InputError("names must match the number of columns")
    if n < 4:
        raise InsufficientDataError(f"stepwise fit needs >= 4 rows, got {n}")

    G = Z.T @ Z
    gy = Z.T @ zy
    syy = float(zy @ zy)

    selected: list[int] = []
    seen: set[tuple[int, ...]] = set()
    for _ in range(4 * p + 4):
        changed = False
        in_set = set(selected)
        candidates = np.asarray([j for j in range(p) if j not in in_set], dtype=np.int64)
        hit = _forward_scan(G, gy, syy, n, selected, candidates)
        if hit is not None:
            j, pval = hit
            if pval * candidates.size < entry_p:
                selected.append(j)
                changed = True
        while len(selected) > 0:
            _, _, pvals = _ols_stats(G, gy, syy, n, selected)
            worst = int(np.argmax(pvals))
            if pvals[worst] > removal_p:
                del selected[worst]
                changed = True
            else:
                break
        key = tuple(sorted(selected))
        if not changed or key in seen:
            break
        seen.add(key)

    if not selected:
        return RegressionModel(predictors=(), betas=(), train_r=0.0)
    beta, rss, _ = _ols_stats(G, gy, syy, n, selected)
    train_r = math.sqrt(max(1.0 - rss / syy, 0.0)) if syy > 0 else 0.0
    return RegressionModel(
        predictors=tuple(names[j] for j in selected),
        betas=tuple(float(b) for b in beta),
        train_r=float(train_r),
    )
def _fit_standardized(
    X: np.ndarray,
    y: np.ndarray,
    names: Sequence[str],
    entry_p: float,
    removal_p: float,
) -> tuple[RegressionModel, Standardization, float, float] | None:
    """Standardize and fit; None when y or every column is constant."""
    y = np.asarray(y, dtype=np.float64)
    y_mean = float(y.mean())
    y_std = float(y.std(ddof=1))
    if y_std == 0.0:
        return None
    keep = [j for j in range(X.shape[1]) if float(np.std(X[:, j], ddof=1)) > 0.0]
    if not keep:
        return None
    stz = zscore_fit(X[:, keep], [names[j] for j in keep])
    Z = stz.apply(X[:, keep])
    zy = (y - y_mean) / y_std
    model = stepwise_fit(Z, zy, stz.names, entry_p=entry_p, removal_p=removal_p)
    return model, stz, y_mean, y_std


def loocv_stability(
    X: np.ndarray,
    y: np.ndarray,
    names: Sequence[str],
    overall: RegressionModel,
    entry_p: float = 0.05,
    removal_p: float = 0.10,
    min_identical_fraction: float = 0.75,
    min_r_ratio: float = 0.75,
) -> StabilityReport:
    """Leave-one-out refits of the whole stepwise pipeline.

    Each fold re-standardizes with its own training statistics, refits, and
    predicts the held-out rating. A fold counts as identical when its
    selected predictor-name set matches the overall model's. Degenerate
    folds (constant rating) count as non-identical and yield no prediction.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    n = y.size
    if X.shape[0] != n or n < 3:
        raise InsufficientDataError("LOOCV needs >= 3 rows")
    overall_set = frozenset(overall.predictors)
    identical = 0
    preds = np.full(n, np.nan)
    for i in range(n):
        mask = np.ones(n, dtype=bool)
        mask[i] = False
        try:
            fitted = _fit_standardized(X[mask], y[mask], names, entry_p, removal_p)
        except InsufficientDataError:
            fitted = None  # fold too small to refit; treat like a constant fold
        if fitted is None:
            continue
        model_i, stz, y_mean, y_std = fitted
        if frozenset(model_i.predictors) == overall_set:
            identical += 1
        cols = [stz.names.index(name) for name in model_i.predictors]
        z_row = (X[i][[names.index(nm) for nm in stz.names]] - stz.mean) / stz.std
        score = float(np.dot(z_row[cols], model_i.betas)) if cols else 0.0
        preds[i] = y_mean + y_std * score
    valid = ~np.isnan(preds)
    r_loocv = _pearson(preds[valid], y[valid]) if valid.sum() >= 2 else 0.0
    fraction = identical / n
    return StabilityReport(
        n_folds=n,
        fraction_identical=fraction,
        r_loocv=r_loocv,
        r_overall=overall.train_r,
        stable=decide_stable(
            fraction,
            r_loocv,
            overall.train_r,
            Thresholds(min_identical_fraction=min_identical_fraction, min_r_ratio=min_r_ratio),
        ),
    )



# zscore_fit as it stood before it shared its rules with the stacked fold
# fit (with its _rescaled_std), and _paired_arrays and significance_matrix
# as they stood before the matrix built one array per transition. Kept
# verbatim; the paired tests and matrix types are the package's own, and
# the matrix test runs those tests on this _paired_arrays.


def _rescaled_std(column: np.ndarray) -> float:
    """Sample std of a column measured after scaling by its largest magnitude."""
    m = np.abs(column).max()
    return m * (column / m).std(ddof=1)


def zscore_fit_remeasured(X: np.ndarray, names: Sequence[str]) -> Standardization:
    """Column means and sample standard deviations; rejects constants."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X[:, None]
    if X.shape[0] < 2:
        raise InsufficientDataError("standardization needs >= 2 rows")
    if X.shape[1] != len(names):
        raise InputError("names must match the number of columns")
    mean = X.mean(axis=0)
    std = X.std(axis=0, ddof=1)
    # max == min is the exact constant test: the std of a constant column
    # can round to a tiny nonzero value (19 copies of 0.1 give 1.4e-17)
    varies = X.max(axis=0) > X.min(axis=0)
    # At tiny scales (about 1e-170) the squared deviations underflow and a
    # varying column's std comes out 0; those columns, and only those, are
    # measured again after scaling by their largest magnitude.
    for j in np.flatnonzero(varies & (std == 0.0)):
        std[j] = _rescaled_std(X[:, j])
    ok = varies & (std > 0.0) & np.isfinite(std)
    if not ok.all():
        name = names[int(np.argmin(ok))]
        raise ConstantColumnError(f"column {name!r} has zero variance")
    return Standardization(tuple(names), mean, std)


def _paired_arrays(a, b) -> tuple[np.ndarray, np.ndarray]:
    xa = np.asarray([np.nan if v is None else float(v) for v in a])
    xb = np.asarray([np.nan if v is None else float(v) for v in b])
    if xa.shape != xb.shape:
        raise InputError("paired samples must have equal length")
    keep = ~(np.isnan(xa) | np.isnan(xb))
    return xa[keep], xb[keep]


def significance_matrix(
    table: FeatureTable,
    test: str,
    alphas: tuple[float, float] = (0.01, 0.05),
) -> SignificanceMatrix:
    """Run one paired test per feature and session transition.

    Each arrow is the test's own direction at the looser alpha, so it is
    drawn exactly when the cell reaches a significance tier: the sign of
    the mean difference for the t-test, W+ against n(n+1)/4 for Wilcoxon.
    Cells whose feature data is degenerate (too few pairs, zero variance,
    all-zero differences) are "none"; but a table with fewer than two
    speakers having both sessions of some transition is rejected outright.
    """
    if test not in TESTS:
        raise InputError(f"test must be one of {TESTS}")
    test_fn = paired_t_test if test == "t" else wilcoxon_signed_rank
    cells: dict[tuple[str, str, str], MatrixCell] = {}
    for transition in TRANSITIONS:
        sess_a, sess_b = _TRANSITION_SESSIONS[transition]
        speakers = [
            s
            for s in table.speakers()
            if table.get(s, sess_a) is not None and table.get(s, sess_b) is not None
        ]
        if len(speakers) < 2:
            raise InsufficientDataError(
                f"transition {transition}: need >= 2 speakers with both sessions"
            )
        for feature in FEATURE_NAMES:
            pairs = [
                (table.get(s, sess_a)[feature], table.get(s, sess_b)[feature])
                for s in speakers
            ]
            a = [p[0] for p in pairs]
            b = [p[1] for p in pairs]
            try:
                res = test_fn(a, b, alpha=max(alphas))
            except StatsError:
                cells[(feature, transition, test)] = MatrixCell("none", "none")
                continue
            cells[(feature, transition, test)] = MatrixCell(
                res.direction,
                _tier(res.p_value, alphas),
                p_value=res.p_value,
                n_pairs=res.n_pairs,
            )
    return SignificanceMatrix(features=FEATURE_NAMES, tests=(test,), cells=cells)


# The vowel synthesizer as it was before the harmonic source moved to the
# Chebyshev recurrence: one n x K cosine matrix, summed along its rows.
# _resonator is the package's own.


def synthesize_vowel_reference(
    rate: int,
    f0: float,
    formants: tuple[float, ...],
    bandwidths: tuple[float, ...],
    n_samples: int,
    rng: np.random.Generator,
    vibrato: float = 0.004,
    shimmer: float = 0.02,
) -> np.ndarray:
    """Harmonic source with slow F0/amplitude drift into a resonator cascade."""
    if n_samples <= 0:
        return np.zeros(0)
    t = np.arange(n_samples) / rate
    vib_rate = 4.5 + 2.0 * rng.uniform()
    vib_phase = 2.0 * math.pi * rng.uniform()
    drift = 0.008 * (rng.uniform() - 0.5)
    inst = f0 * (1.0 + vibrato * np.sin(2.0 * math.pi * vib_rate * t + vib_phase) + drift * t)
    phase = 2.0 * math.pi * np.cumsum(inst) / rate
    k_max = max(1, int(0.95 * (rate / 2.0) / float(np.max(inst))))
    k = np.arange(1, k_max + 1)
    src = (np.cos(np.outer(phase, k)) / k).sum(axis=1)
    am_rate = 2.0 + 3.0 * rng.uniform()
    am_phase = 2.0 * math.pi * rng.uniform()
    src *= 1.0 + shimmer * np.sin(2.0 * math.pi * am_rate * t + am_phase)
    y = src
    for freq, bw in zip(formants, bandwidths):
        b, a = _resonator(freq, bw, rate)
        y = lfilter(b, a, y)
    edge = min(int(0.010 * rate), n_samples // 2)
    if edge > 0:
        ramp = 0.5 - 0.5 * np.cos(np.linspace(0.0, math.pi, edge))
        y[:edge] *= ramp
        y[-edge:] *= ramp[::-1]
    peak = float(np.max(np.abs(y)))
    if peak > 0.0:
        y = y / peak
    return y


# The acoustics kernels as they were before their per-call overhead was cut:
# ncc_frames with np.where and a clipped copy, _parabolic through np.clip,
# _pick_peak with np.arange fancy indexing, _ppq5 with one np.mean per
# cycle and _local_perturbation with np.mean. Kept verbatim (this _pick_peak
# calls this _parabolic); the constants are the package's own.


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
    max_lag = min(max_lag, n - _MIN_OVERLAP)
    nfft = 1 << int(n + max_lag).bit_length()
    spec = rfft(x, nfft)
    # spec * conj(spec) in that order at every size: numpy's complex multiply
    # is not bitwise commutative, and an inline `spec * np.conj(spec)` turns
    # into conj * spec once numpy elides the temporary (256 KiB and up).
    power = np.conj(spec)
    np.multiply(spec, power, out=power)
    ac = irfft(power, nfft)[..., : max_lag + 1]
    sq = np.cumsum(x * x, axis=-1)
    lags = np.arange(max_lag + 1)
    head = sq[..., n - 1 - lags]
    before = np.concatenate((np.zeros(sq.shape[:-1] + (1,)), sq[..., :max_lag]), axis=-1)
    denom = np.sqrt(head * (sq[..., -1:] - before))
    out = np.where(denom > _TINY, ac / np.maximum(denom, _TINY), 0.0)
    return np.clip(out, -1.0, 1.0)


def _parabolic(y0: float, y1: float, y2: float) -> tuple[float, float] | None:
    """(offset, peak) of the parabola through three equally spaced points.

    offset is the vertex position relative to y1, clipped to +-0.5. None
    unless y1 is a local maximum and the points are not collinear.
    """
    y0, y1, y2 = float(y0), float(y1), float(y2)
    denom = y0 - 2.0 * y1 + y2
    if not (abs(denom) > _TINY and y1 >= y0 and y1 >= y2):
        return None
    delta = float(np.clip(0.5 * (y0 - y2) / denom, -0.5, 0.5))
    return delta, y1 - 0.25 * (y0 - y2) * delta


def _pick_peak(curve: np.ndarray, lo: int, hi: int) -> tuple[float, float]:
    """Best lag (parabolic-refined) and its strength within [lo, hi]."""
    hi = min(hi, curve.size - 1)
    if hi < lo:
        return 0.0, 0.0
    seg = curve[lo : hi + 1]
    best = int(np.argmax(seg)) + lo
    strength = float(curve[best])
    if best > lo:
        inner = np.arange(lo, best)
        ok = (
            (curve[inner] >= strength - _OCTAVE_MARGIN)
            & (curve[inner] >= curve[inner - 1])
            & (curve[inner] >= curve[inner + 1])
        )
        hits = inner[ok]
        if hits.size:
            best = int(hits[0])
            strength = float(curve[best])
    lag = float(best)
    if lo < best < hi:
        vertex = _parabolic(curve[best - 1], curve[best], curve[best + 1])
        if vertex is not None:
            lag += vertex[0]
    return lag, strength


def estimate_f0(
    samples: np.ndarray,
    sample_rate: int,
    f0_floor: float = F0_FLOOR_HZ,
    f0_ceiling: float = F0_CEILING_HZ,
    voicing_threshold: float = VOICING_THRESHOLD,
) -> list[float | None]:
    """Per-subframe F0 of a window, one subframe at a time: the loop of
    f0_once calls (one NCC curve and one peak pick each) that
    `acoustics.estimate_f0` ran before `f0_frames` took a block per call."""
    x = np.asarray(samples, dtype=np.float64)
    lo, hi = pitch_lags(sample_rate, f0_floor, f0_ceiling)
    flen, hop, count = subframe_grid(x.size, sample_rate)
    track: list[float | None] = []
    for i in range(count):
        frame = x[i * hop : i * hop + flen]
        if min(hi, frame.size - _MIN_OVERLAP) < 1:
            curve = np.zeros(1)
        else:
            curve = ncc_frames(frame, hi)
        lag, strength = _pick_peak(curve, lo, hi)
        if strength < voicing_threshold or lag <= 0:
            track.append(None)
        else:
            track.append(float(min(max(sample_rate / lag, f0_floor), f0_ceiling)))
    return track


def _ppq5(values: np.ndarray) -> float | None:
    # mean absolute deviation from the centered 5-point running mean
    if values.size < 5:
        return None
    mean = float(np.mean(values))
    if mean <= 0:
        return None
    devs = [
        abs(values[i] - float(np.mean(values[i - 2 : i + 3])))
        for i in range(2, values.size - 2)
    ]
    return float(np.mean(devs)) / mean


def _local_perturbation(values: np.ndarray) -> float | None:
    if values.size < 2:
        return None
    mean = float(np.mean(values))
    if mean <= 0:
        return None
    return float(np.mean(np.abs(np.diff(values)))) / mean


# The one-window HNR, LPC formant and mel-cepstrum code as it was before the
# voice-quality and spectral windows of a recording were measured in blocks:
# one ncc_curve call per HNR window, one np.roots call per LPC polynomial and
# one rfft, log and dct per window. Kept verbatim, with preemphasize in its
# 1-D form, _parabolic from the copy above and the one-row Levinson-Durbin
# recursion the block LPC ran per row before it was stacked over the block;
# ncc_curve, _clamp, _hamming, _mel_filterbank and the constants are the
# package's own.


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


# _column_stats and _loo_rows as they stood before the column spread was
# measured a chunk of folds at a time and the rows around a block were
# copied once for all of its folds. Kept verbatim; _rescaled_std above is
# the same function as the package's.


def _column_stats(
    Xs: np.ndarray, names: Sequence[str], live: np.ndarray, drop_constant: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(varies, mean, std) per column of each fold of the (folds, p, m) stack Xs.

    In the `live` folds a column whose std is 0 or not finite raises
    ConstantColumnError; with drop_constant, a constant column does not.
    """
    # max > min is the exact constant test: the std of a constant column
    # can round to a tiny nonzero value (19 copies of 0.1 give 1.4e-17)
    varies = Xs.max(axis=2) > Xs.min(axis=2)
    mean = Xs.mean(axis=2)
    std = np.array([x.std(axis=1, ddof=1) for x in Xs])  # a fold's temporary at a time
    # At tiny scales (about 1e-170) the squared deviations underflow and a
    # varying column's std comes out 0; those columns, and only those, are
    # measured again after scaling by their largest magnitude.
    for b, j in zip(*np.nonzero(live[:, None] & varies & (std == 0.0))):
        std[b, j] = _rescaled_std(Xs[b, j])
    checked = live[:, None] & varies if drop_constant else live[:, None]
    bad = np.argwhere(checked & ~(varies & (std > 0.0) & np.isfinite(std)))
    if bad.size:
        raise ConstantColumnError(f"column {names[bad[0, 1]]!r} has zero variance")
    return varies, mean, std


def _loo_rows(a: np.ndarray, folds: range) -> np.ndarray:
    """(folds, cols, n - 1) stack of a's (n, cols) rows, each fold without its own."""
    n, cols = a.shape
    out = np.empty((len(folds), cols, n - 1))
    for b, i in enumerate(folds):
        out[b, :, :i] = a[:i].T
        out[b, :, i:] = a[i + 1 :].T
    return out
