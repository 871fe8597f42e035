"""Synthetic interview corpus with ground truth known by construction.

The recordings behind the published results are not distributable, so this
module fabricates a stand-in corpus for end-to-end exercise of the
pipeline. Each speaker carries a latent attitude score that linearly
drives the planted pause-speech ratio (strongly, negative direction), the
fundamental frequency, and a vocal-tract length scale that moves the
spectral envelope. Questionnaire ratings are the same latent plus rater
noise; positive items rise with the latent, negative items fall. A
pipeline that measures descriptors from the audio and regresses ratings
on them should therefore select pause_speech_ratio with the planted sign.

Interviews are vowel sequences from a pulse-excited resonator cascade,
separated by silence gaps sized to hit the target pause-speech ratio.
Everything draws from seeded generators keyed as [seed, speaker] and
[seed, speaker, session], so corpora are reproducible file for file.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass
from itertools import cycle

import numpy as np
from scipy.signal import lfilter

from .audio_io import write_wav
from .features import SESSIONS
from .regression import DV_NAMES, RatingTable, write_ratings_csv

POSITIVE_DVS: tuple[str, ...] = (
    "cooperative",
    "practical_solution",
    "serene",
    "determined",
    "answered_properly",
)
NEGATIVE_DVS: tuple[str, ...] = (
    "hesitant",
    "tremulous",
    "turned_face_aside",
    "breathed_rapidly",
)
# Self-assessments exist only for the positive items; the negative ones
# are rated by the interviewer alone.
SA_DVS: tuple[str, ...] = POSITIVE_DVS

# (formant frequencies Hz, bandwidths Hz) for the rotation of vowels
VOWEL_TABLE: tuple[tuple[tuple[float, ...], tuple[float, ...]], ...] = (
    ((700.0, 1220.0, 2600.0), (130.0, 70.0, 160.0)),
    ((530.0, 1840.0, 2480.0), (60.0, 90.0, 200.0)),
    ((300.0, 2290.0, 3010.0), (60.0, 100.0, 400.0)),
    ((570.0, 840.0, 2410.0), (80.0, 100.0, 80.0)),
)

_NOISE_FLOOR = 1e-4  # about -80 dB, far below the pause-detection floor

# Latent-to-target maps. The pause-speech ratio is the strong, nearly
# clean channel; F0 and the envelope scale get enough session noise that
# they cannot out-predict it in a regression.
PSR_SLOPE = -0.16
PSR_BASE = 0.42
F0_BASE_HZ = 185.0
F0_SLOPE_HZ = 6.0


@dataclass(frozen=True)
class SessionTruth:
    speaker_id: str
    session: str
    attitude: float
    psr_target: float
    f0_base: float
    tract_scale: float


@dataclass(frozen=True)
class CorpusPaths:
    root: str
    manifest: str
    ratings: str
    latents: str
    wav_dir: str


def _resonator(freq: float, bandwidth: float, rate: int) -> tuple[list[float], list[float]]:
    r = math.exp(-math.pi * bandwidth / rate)
    theta = 2.0 * math.pi * freq / rate
    a1 = -2.0 * r * math.cos(theta)
    a2 = r * r
    return [1.0 + a1 + a2], [1.0, a1, a2]


def synthesize_vowel(
    rate: int,
    f0: float,
    formants: tuple[float, ...],
    bandwidths: tuple[float, ...],
    n_samples: int,
    rng: np.random.Generator,
    vibrato: float = 0.004,
    shimmer: float = 0.02,
) -> np.ndarray:
    """Harmonic source with slow F0/amplitude drift into a resonator cascade.

    Additive synthesis (1/k harmonic amplitudes, shared phase) keeps the
    source band-limited and continuously periodic; sample-quantized pulse
    trains correlate better at two periods than one and read back an
    octave low.
    """
    if n_samples <= 0:
        return np.zeros(0)
    t = np.arange(n_samples) / rate
    vib_rate = 4.5 + 2.0 * rng.uniform()
    vib_phase = 2.0 * math.pi * rng.uniform()
    drift = 0.008 * (rng.uniform() - 0.5)
    inst = f0 * (1.0 + vibrato * np.sin(2.0 * math.pi * vib_rate * t + vib_phase) + drift * t)
    phase = 2.0 * math.pi * np.cumsum(inst) / rate
    k_max = max(1, int(0.95 * (rate / 2.0) / float(np.max(inst))))
    # cos(k*phase) by the Chebyshev recurrence
    # cos((k+1)p) = 2 cos(p) cos(kp) - cos((k-1)p), one n-sample row at a time
    # (Press et al., Numerical Recipes, sec. 5.4); terms are added in order of k.
    cur = np.cos(phase)
    two_c1 = 2.0 * cur
    prev, term = np.ones(n_samples), np.empty(n_samples)
    src = cur.copy()
    for k in range(2, k_max + 1):
        np.multiply(two_c1, cur, out=term)
        np.subtract(term, prev, out=prev)
        prev, cur = cur, prev
        np.divide(cur, k, out=term)
        src += term
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


def _speech_chunk(
    rng: np.random.Generator,
    rate: int,
    n_samples: int,
    f0_base: float,
    tract_scale: float,
    vowels,
) -> np.ndarray:
    """Vowels with sub-pause gaps, last vowel stretched flush to the edge."""
    out = np.zeros(n_samples)
    pos = 0
    min_vowel = int(0.050 * rate)
    while n_samples - pos >= min_vowel:
        dur = int((0.14 + 0.12 * rng.uniform()) * rate)
        if n_samples - pos - dur < int(0.12 * rate):
            dur = n_samples - pos
        formants, bandwidths = next(vowels)
        f0 = f0_base * (1.0 + 0.015 * (rng.uniform() - 0.5))
        v = synthesize_vowel(
            rate,
            f0,
            tuple(f * tract_scale for f in formants),
            bandwidths,
            dur,
            rng,
        )
        out[pos : pos + dur] = v * (0.26 + 0.10 * rng.uniform())
        pos += dur
        if pos >= n_samples:
            break
        pos += int((0.04 + 0.05 * rng.uniform()) * rate)
    out += _NOISE_FLOOR * rng.standard_normal(n_samples)
    return out


def synthesize_interview(
    rng: np.random.Generator,
    rate: int,
    psr_target: float,
    f0_base: float,
    tract_scale: float,
) -> np.ndarray:
    """One recording whose silence gaps hit the target pause-speech ratio.

    Gaps between speech chunks are each >= 0.45 s so every one clears the
    0.400 s pause floor; sub-pause gaps inside chunks stay well under it.
    """
    speech_s = 4.6 + 0.8 * rng.uniform()
    pause_s = psr_target * speech_s
    n_pauses = max(1, int(round(pause_s / 0.7)))
    if pause_s / n_pauses < 0.45:
        n_pauses = max(1, int(pause_s / 0.45))
    pause_len = int(round(pause_s / n_pauses * rate))

    n_chunks = n_pauses + 1
    props = rng.dirichlet(np.full(n_chunks, 8.0))
    props = 0.5 / n_chunks + 0.5 * props
    chunk_lens = [int(round(p * speech_s * rate)) for p in props]

    vowels = cycle(VOWEL_TABLE)
    pieces = [_NOISE_FLOOR * rng.standard_normal(int(0.10 * rate))]
    for i, chunk_len in enumerate(chunk_lens):
        pieces.append(_speech_chunk(rng, rate, chunk_len, f0_base, tract_scale, vowels))
        if i < n_pauses:
            pieces.append(_NOISE_FLOOR * rng.standard_normal(pause_len))
    pieces.append(_NOISE_FLOOR * rng.standard_normal(int(0.12 * rate)))
    x = np.concatenate(pieces)
    return np.clip(x, -0.999, 0.999)


def _rating(base_sign: int, attitude: float, noise: float) -> int:
    raw = 4.0 + base_sign * 1.9 * attitude + 0.5 * noise
    return int(min(7, max(1, round(raw))))


def _sa_rating(base_sign: int, attitude: float, noise: float) -> int:
    raw = 4.0 + base_sign * 1.4 * attitude + 0.9 * noise
    return int(min(7, max(1, round(raw))))


def generate_corpus(
    out_dir: str,
    n_speakers: int = 20,
    seed: int = 42,
    sample_rate: int = 11025,
) -> CorpusPaths:
    """Write WAVs plus manifest, ratings and ground-truth latent CSVs."""
    wav_dir = os.path.join(out_dir, "wav")
    os.makedirs(wav_dir, exist_ok=True)

    manifest_rows: list[tuple[str, str, str]] = []
    truths: list[SessionTruth] = []
    ratings = RatingTable()

    for idx in range(n_speakers):
        speaker_id = f"sp{idx + 1:02d}"
        rs = np.random.default_rng([seed, idx])
        attitude = float(rs.standard_normal())
        for dv in DV_NAMES:
            sign = 1 if dv in POSITIVE_DVS else -1
            ratings.add(speaker_id, dv, "P", _rating(sign, attitude, float(rs.standard_normal())))
        for dv in SA_DVS:
            sign = 1 if dv in POSITIVE_DVS else -1
            ratings.add(
                speaker_id, dv, "SA", _sa_rating(sign, attitude, float(rs.standard_normal()))
            )
        for s_idx, session in enumerate(SESSIONS):
            rg = np.random.default_rng([seed, idx, s_idx])
            eta = rg.standard_normal(3)
            psr = float(np.clip(PSR_BASE + PSR_SLOPE * attitude + 0.02 * eta[0], 0.10, 0.85))
            f0_base = F0_BASE_HZ + F0_SLOPE_HZ * attitude + 6.0 * float(eta[1])
            tract_scale = 1.0 + 0.035 * attitude + 0.010 * float(eta[2])
            x = synthesize_interview(rg, sample_rate, psr, f0_base, tract_scale)
            rel_path = os.path.join("wav", f"{speaker_id}_{session}.wav")
            write_wav(os.path.join(out_dir, rel_path), x, sample_rate)
            manifest_rows.append((rel_path, speaker_id, session))
            truths.append(
                SessionTruth(
                    speaker_id=speaker_id,
                    session=session,
                    attitude=attitude,
                    psr_target=psr,
                    f0_base=f0_base,
                    tract_scale=tract_scale,
                )
            )

    manifest_path = os.path.join(out_dir, "manifest.csv")
    with open(manifest_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["path", "speaker_id", "session"])
        writer.writerows(manifest_rows)

    ratings_path = os.path.join(out_dir, "ratings.csv")
    write_ratings_csv(ratings_path, ratings)

    latents_path = os.path.join(out_dir, "latents.csv")
    with open(latents_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["speaker_id", "session", "attitude", "psr_target", "f0_base", "tract_scale"]
        )
        for t in truths:
            writer.writerow(
                [
                    t.speaker_id,
                    t.session,
                    repr(t.attitude),
                    repr(t.psr_target),
                    repr(t.f0_base),
                    repr(t.tract_scale),
                ]
            )

    return CorpusPaths(
        root=out_dir,
        manifest=manifest_path,
        ratings=ratings_path,
        latents=latents_path,
        wav_dir=wav_dir,
    )
