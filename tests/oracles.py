"""Independent reference implementations and frozen transcriptions.

Everything here is deliberately written the slow, literal way and shares
no code with the package: enumeration instead of dynamic programming,
quadrature instead of library CDFs, explicit DFT/DCT loops instead of FFT
calls. Tests compare the fast implementations against these.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np


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
    else:  # 24-bit: assemble little-endian triplets and sign-extend
        b = np.frombuffer(body, dtype=np.uint8).reshape(-1, 3).astype(np.int32)
        val = b[:, 0] | (b[:, 1] << 8) | (b[:, 2] << 16)
        val -= (val & 0x800000) << 1
        scaled = val.astype(np.float64) / float(1 << 23)
    return scaled.reshape(n_frames, n_channels).mean(axis=1)


def analyze_frames_reference(
    x, rate, frame_length=0.025, hop=0.010, f0_floor=75.0, f0_ceiling=500.0
):
    """(energy dB, voicing strength) per frame, all frames in one array."""
    from scipy.fft import irfft, rfft

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
    # numpy evaluates `spec * np.conj(spec)` in place in the conj temporary
    # once it reaches 256 KiB (64 frames at nfft 512), i.e. as
    # conj(spec) * spec. The order is written out so that short clips get
    # it too.
    power = np.conj(spec)
    power *= spec
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
