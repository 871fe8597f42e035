"""Signal-level measures checked against ground truth and loop-coded oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import mfcc_reference
from voxtrait.acoustics import (
    F0_CEILING_HZ,
    F0_FLOOR_HZ,
    HNR_MAX_DB,
    HNR_MIN_DB,
    _clamp,
    _mel_filterbank,
    _parabolic,
    _hz_to_mel,
    _pick_peak,
    _ppq5,
    _mel_to_hz,
    estimate_f0,
    f0_once,
    harmonicity_db,
    intensity_db,
    jitter_shimmer,
    lpc_formants,
    mark_cycles,
    mfcc,
    ncc_curve,
    ncc_frames,
    pitch_lags,
    preemphasize,
    subframe_grid,
)
from voxtrait.errors import InputError
from voxtrait.synth import synthesize_vowel

RATE = 11025


def test_parabolic_vertex():
    # y = 1 - (t - 0.25)^2 sampled at t = -1, 0, 1: vertex at +0.25, peak 1
    offset, peak = _parabolic(1 - 1.25**2, 1 - 0.25**2, 1 - 0.75**2)
    assert offset == pytest.approx(0.25) and peak == pytest.approx(1.0)
    assert _parabolic(1 - 0.75**2, 1 - 0.25**2, 1 - 1.25**2) == pytest.approx((-0.25, 1.0))
    assert _parabolic(0.0, 1.0, 1.5) is None  # y1 is not a local maximum
    assert _parabolic(1.0, 1.0, 1.0) is None  # flat: no curvature


@settings(max_examples=300, deadline=None)
@given(
    x=st.floats(allow_nan=False, allow_infinity=False),
    bounds=st.sampled_from([(F0_FLOOR_HZ, F0_CEILING_HZ), (HNR_MIN_DB, HNR_MAX_DB), (75, 500)]),
)
def test_clamp_equals_np_clip(x, bounds):
    # f0_once and harmonicity_db clamp with it; np.clip gave the same floats
    lo, hi = bounds
    for value in (x, lo, hi):
        got = _clamp(value, lo, hi)
        assert got == float(np.clip(value, lo, hi)) and type(got) is float


def _sine(freq: float, duration_s: float, rate: int = RATE, amp: float = 1.0):
    t = np.arange(int(duration_s * rate)) / rate
    return amp * np.sin(2.0 * math.pi * freq * t)


def _harmonic(freq: float, n_samples: int, n_harm: int = 40, rate: int = RATE):
    t = np.arange(n_samples) / rate
    k = np.arange(1, n_harm + 1)
    return (np.cos(2.0 * math.pi * freq * np.outer(t, k)) / k).sum(axis=1)


# ------------------------------------------------------------------ MFCC


@pytest.mark.parametrize("size", [441, 512, 200])
def test_mfcc_matches_loop_reference(size):
    rng = np.random.default_rng(size)
    x = rng.standard_normal(size)
    got = mfcc(x, RATE)
    ref = mfcc_reference(x, RATE)
    assert np.max(np.abs(got - ref)) < 1e-6


def test_mfcc_on_vowel_like_window():
    rng = np.random.default_rng(3)
    x = synthesize_vowel(RATE, 120.0, (700.0, 1200.0, 2600.0), (130.0, 70.0, 160.0), 441, rng)
    got = mfcc(x, RATE)
    ref = mfcc_reference(x, RATE)
    assert got.shape == (8,)
    assert np.max(np.abs(got - ref)) < 1e-6


def test_mfcc_empty_window_rejected():
    with pytest.raises(InputError):
        mfcc(np.zeros(0), RATE)


# ------------------------------------------------------------- intensity


def test_intensity_floor_and_known_value():
    assert intensity_db(np.zeros(100)) == -120.0
    # 0.1-amplitude sine: mean square = 0.005
    x = _sine(150.0, 0.2, amp=0.1)
    assert intensity_db(x) == pytest.approx(10.0 * math.log10(0.005), abs=0.05)
    assert intensity_db(np.ones(64)) == pytest.approx(0.0, abs=1e-9)


# ----------------------------------------------------------- correlation


def test_ncc_curve_basics():
    x = _sine(150.0, 0.05)
    curve = ncc_curve(x, 200)
    assert curve[0] == pytest.approx(1.0)
    assert np.all(curve <= 1.0) and np.all(curve >= -1.0)
    period = RATE / 150.0
    near = int(round(period))
    assert curve[near] > 0.99


def test_ncc_curve_short_input():
    assert ncc_curve(np.ones(4), 50).shape == (1,)


@pytest.mark.parametrize("rows", [1, 63, 64, 65, 1024])
def test_ncc_frames_rows_equal_ncc_curve(rows):
    # 64 rows of 257 complex bins is where numpy starts eliding temporaries,
    # so this pins one multiply order on both sides of that size
    rng = np.random.default_rng(rows)
    t = np.arange(276) / RATE
    f0 = rng.uniform(80.0, 400.0, size=(rows, 1))
    block = np.sin(2.0 * math.pi * f0 * t) + 0.3 * rng.standard_normal((rows, 276))
    block[0, 100:] = 0.0  # stretches without overlap energy give 0
    lo, hi = pitch_lags(RATE, 75.0, 500.0)
    curves = ncc_frames(block, hi)
    assert curves.shape == (rows, hi + 1)
    for row, curve in zip(block, curves):
        assert np.array_equal(curve, ncc_curve(row, hi))


def test_ncc_frames_cuts_the_lag_to_the_minimum_overlap():
    x = _sine(150.0, 0.01)  # 110 samples
    assert ncc_frames(x, 500).shape == (110 - 8 + 1,)
    assert np.array_equal(ncc_frames(x, 500), ncc_curve(x, 500))


def test_pitch_lags():
    assert pitch_lags(RATE, 75.0, 500.0) == (23, 147)
    assert pitch_lags(8000, 100.0, 3999.0) == (3, 80)
    with pytest.raises(InputError):
        pitch_lags(RATE, 500.0, 500.0)
    with pytest.raises(InputError):
        pitch_lags(RATE, 600.0, 500.0)
    with pytest.raises(InputError):
        pitch_lags(RATE, 75.0, RATE / 2)
    with pytest.raises(InputError):
        pitch_lags(RATE, 0.0, 500.0)


# ------------------------------------------------------------------- F0


def test_sine_f0_within_one_hz():
    x = _sine(150.0, 0.5)
    track = estimate_f0(x, RATE)
    assert len(track) > 0 and all(f is not None for f in track)
    assert abs(float(np.mean([f for f in track])) - 150.0) < 1.0


def test_f0_strength_near_one_for_pure_tone():
    f0, strength = f0_once(_sine(200.0, 0.04), RATE)
    assert f0 == pytest.approx(200.0, abs=1.0)
    assert strength > 0.99


def test_f0_no_octave_error_on_rich_harmonics():
    # every multiple of the period correlates equally well; the shortest
    # admissible lag must win
    x = _harmonic(120.0, int(0.04 * RATE))
    f0, _ = f0_once(x, RATE)
    assert f0 == pytest.approx(120.0, abs=1.5)


def test_noise_is_unvoiced():
    rng = np.random.default_rng(17)
    f0, strength = f0_once(rng.standard_normal(int(0.025 * RATE)), RATE)
    assert f0 is None
    assert strength < 0.45


def test_f0_bounds_validated():
    with pytest.raises(InputError):
        f0_once(_sine(150.0, 0.04), RATE, f0_floor=500.0, f0_ceiling=75.0)


def test_subframe_grid_exact():
    flen, hop, count = subframe_grid(1000, RATE)
    assert (flen, hop) == (276, 110)
    assert count == (1000 - 276) // 110 + 1
    assert subframe_grid(100, RATE)[2] == 0


# ------------------------------------------------------------ perturbation


def test_mark_cycles_recovers_sine_period():
    x = _sine(150.0, 0.08)
    got = mark_cycles(x, 150.0, RATE)
    assert got is not None
    periods, amps = got
    assert np.allclose(periods, 1.0 / 150.0, rtol=1e-3)
    assert np.allclose(amps, 1.0, atol=1e-3)


def test_mark_cycles_too_short():
    assert mark_cycles(_sine(150.0, 0.005), 150.0, RATE) is None
    with pytest.raises(InputError):
        mark_cycles(_sine(150.0, 0.05), -1.0, RATE)


def _bump_train(positions, amplitudes, rate: int = RATE, width: float = 2.0):
    n = int(positions[-1]) + 50
    t = np.arange(n, dtype=np.float64)
    x = np.zeros(n)
    for p, a in zip(positions, amplitudes):
        x += a * np.exp(-0.5 * ((t - p) / width) ** 2)
    return x


def test_perturbation_formulas_on_planted_marks():
    """Jitter/shimmer agree with direct arithmetic on planted cycle data."""
    base = RATE / 140.0
    rng = np.random.default_rng(31)
    periods = base * (1.0 + 0.01 * rng.standard_normal(12))
    positions = 40.0 + np.concatenate(([0.0], np.cumsum(periods)))
    amplitudes = 1.0 + 0.05 * rng.standard_normal(13)
    x = _bump_train(positions, amplitudes)
    got = mark_cycles(x, 140.0, RATE)
    assert got is not None
    got_periods, got_amps = got
    assert got_periods.size == periods.size

    p_s = periods / RATE
    expect_local = float(np.mean(np.abs(np.diff(p_s)))) / float(np.mean(p_s))
    expect_ppq5 = float(
        np.mean(
            [abs(p_s[i] - np.mean(p_s[i - 2 : i + 3])) for i in range(2, p_s.size - 2)]
        )
    ) / float(np.mean(p_s))
    expect_shim = float(np.mean(np.abs(np.diff(amplitudes)))) / float(np.mean(amplitudes))

    pert = jitter_shimmer(got_periods, got_amps)
    assert pert.jitter_local == pytest.approx(expect_local, rel=0.02)
    assert pert.jitter_ppq5 == pytest.approx(expect_ppq5, rel=0.02)
    assert pert.shimmer_local == pytest.approx(expect_shim, rel=0.02)


def test_perturbation_needs_enough_cycles():
    pert = jitter_shimmer(np.array([0.007, 0.0071, 0.0069]), np.array([1.0, 1.0, 1.0, 1.0]))
    assert pert.jitter_local is not None
    assert pert.jitter_ppq5 is None  # ppq5 needs five periods
    assert jitter_shimmer(np.array([0.007]), np.array([1.0])).jitter_local is None


def test_sine_perturbation_near_zero():
    x = _sine(150.0, 0.08)
    periods, amps = mark_cycles(x, 150.0, RATE)
    pert = jitter_shimmer(periods, amps)
    assert pert.jitter_local < 1e-3
    assert pert.shimmer_local < 1e-3


# ---------------------------------------------------------------- HNR


def test_hnr_clean_tone_hits_clamp():
    assert harmonicity_db(_sine(150.0, 0.08), 150.0, RATE) == HNR_MAX_DB


def test_hnr_ordering_with_noise():
    rng = np.random.default_rng(41)
    clean = _sine(150.0, 0.08)
    noisy = clean + 0.1 * rng.standard_normal(clean.size)
    very_noisy = clean + 1.0 * rng.standard_normal(clean.size)
    h_clean = harmonicity_db(clean, 150.0, RATE)
    h_noisy = harmonicity_db(noisy, 150.0, RATE)
    h_very = harmonicity_db(very_noisy, 150.0, RATE)
    assert h_clean > h_noisy > h_very
    assert HNR_MIN_DB <= h_very <= HNR_MAX_DB


def test_hnr_window_too_short():
    assert harmonicity_db(_sine(150.0, 0.005), 150.0, RATE) is None


# ---------------------------------------------------------------- LPC


def test_formants_of_three_resonator_vowel():
    rng = np.random.default_rng(5)
    x = synthesize_vowel(
        RATE, 100.0, (700.0, 1200.0, 2600.0), (130.0, 70.0, 160.0), 1024, rng
    )
    (f1, f2, f3), (b1, b2, b3) = lpc_formants(x, RATE)
    assert f1 == pytest.approx(700.0, rel=0.05)
    assert f2 == pytest.approx(1200.0, rel=0.05)
    assert f3 == pytest.approx(2600.0, rel=0.05)
    for bw in (b1, b2, b3):
        assert 0 < bw < 700.0


def test_formants_degenerate_inputs():
    assert lpc_formants(np.zeros(512), RATE) == (
        (None, None, None),
        (None, None, None),
    )
    assert lpc_formants(np.ones(5), RATE)[0] == (None, None, None)


# ------------------------------------------------------------- helpers


def test_preemphasis_exact():
    x = np.array([1.0, 2.0, 3.0])
    y = preemphasize(x)
    assert y[0] == 1.0
    assert y[1] == pytest.approx(2.0 - 0.97)
    assert y[2] == pytest.approx(3.0 - 0.97 * 2.0)
    assert preemphasize(np.zeros(0)).size == 0


def test_mel_scale_round_trip():
    f = np.array([0.0, 300.0, 1000.0, 5000.0])
    assert np.allclose(_mel_to_hz(_hz_to_mel(f)), f, atol=1e-9)


def test_mel_filterbank_shape_and_coverage():
    fb = _mel_filterbank(RATE, 512, 26)
    assert fb.shape == (26, 257)
    assert np.all(fb >= 0.0)
    # every filter carries weight and the band interiors overlap
    assert np.all(fb.sum(axis=1) > 0.0)
    interior = fb[:, 2:-2].sum(axis=0)
    assert np.count_nonzero(interior == 0.0) < 10


# The kernels against the copies of their earlier bodies in oracles.py, bit
# for bit.


def _windows(seed: int, rows: int | None, n: int, zeros: str) -> np.ndarray:
    """Noisy sines at a random scale: one window (rows None) or a block, with
    no zeros, a zeroed head or tail in some rows, or some rows all zero."""
    rng = np.random.default_rng(seed)
    shape = (n,) if rows is None else (rows, n)
    t = np.arange(n) / RATE
    f0 = rng.uniform(75.0, 500.0, size=shape[:-1] + (1,))
    x = np.sin(2.0 * math.pi * f0 * t) + rng.uniform(0.0, 1.0) * rng.standard_normal(shape)
    x *= 10.0 ** rng.uniform(-5.0, 1.3)
    hit = rng.random(shape[:-1]) < 0.5
    cut = int(rng.integers(0, n + 1))
    if zeros == "head":
        x[hit, :cut] = 0.0
    elif zeros == "tail":
        x[hit, cut:] = 0.0
    elif zeros == "rows":
        x[hit] = 0.0
    return x


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    rows=st.sampled_from([None, 1, 7, 64, 65]),
    n=st.integers(9, 300),
    max_lag=st.integers(1, 320),
    zeros=st.sampled_from(["none", "head", "tail", "rows"]),
)
def test_ncc_frames_and_pick_peak_equal_the_reference_copy(seed, rows, n, max_lag, zeros):
    x = _windows(seed, rows, n, zeros)
    curves = ncc_frames(x, max_lag)
    assert np.array_equal(curves, oracles.ncc_frames(x, max_lag))
    for curve in np.atleast_2d(curves):
        for lo in (2, 3, 23):
            for hi in (lo + 1, 147, curve.size + 3):
                assert _pick_peak(curve, lo, hi) == oracles._pick_peak(curve, lo, hi)


@settings(max_examples=300, deadline=None)
@given(
    values=st.lists(st.floats(-0.2, 2.0), min_size=1, max_size=40),
    scale=st.sampled_from([1e-5, 1e-3, 0.0123, 1.0, 20.0]),
)
def test_ppq5_equals_the_reference_copy(values, scale):
    x = np.asarray(values) * scale
    assert _ppq5(x) == oracles._ppq5(x)


@settings(max_examples=300, deadline=None)
@given(st.tuples(*[st.floats(-1.0, 1.0)] * 3))
def test_parabolic_equals_the_reference_copy(points):
    assert _parabolic(*points) == oracles._parabolic(*points)
