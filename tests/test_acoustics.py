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
    PREEMPHASIS,
    _clamp,
    _mel_filterbank,
    _parabolic,
    _hnr_lags,
    _hz_to_mel,
    _levinson,
    _local_perturbation,
    _ncc_size,
    _pick_peaks,
    _ppq5,
    _mel_to_hz,
    _roots,
    analyze_prosody_window,
    f0_frames,
    f0_track,
    harmonicity_frames,
    intensity_db,
    jitter_shimmer,
    lpc_frames,
    mark_cycles,
    mfcc_frames,
    ncc_curve,
    ncc_frames,
    pitch_lags,
    preemphasize,
    spectral_windows,
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
    # harmonicity_frames clamps with it; np.clip gave the same floats
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
    got = mfcc_frames(x[None], RATE)[0]
    ref = mfcc_reference(x, RATE)
    assert np.max(np.abs(got - ref)) < 1e-6


def test_mfcc_on_vowel_like_window():
    rng = np.random.default_rng(3)
    x = synthesize_vowel(RATE, 120.0, (700.0, 1200.0, 2600.0), (130.0, 70.0, 160.0), 441, rng)
    got = mfcc_frames(x[None], RATE)[0]
    ref = mfcc_reference(x, RATE)
    assert got.shape == (8,)
    assert np.max(np.abs(got - ref)) < 1e-6


def test_mfcc_empty_window_rejected():
    with pytest.raises(InputError):
        mfcc_frames(np.zeros(0)[None], RATE)


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


def _subframes(x: np.ndarray, rate: int = RATE) -> np.ndarray:
    """The 25 ms subframes, every 10 ms, of a window: one f0_frames block."""
    flen, hop, count = subframe_grid(x.size, rate)
    return np.array([x[i * hop : i * hop + flen] for i in range(count)]).reshape(count, flen)


def test_sine_f0_within_one_hz():
    x = _sine(150.0, 0.5)
    track = f0_track(f0_frames(_subframes(x), RATE)[0])
    assert len(track) > 0 and all(f is not None for f in track)
    assert abs(float(np.mean([f for f in track])) - 150.0) < 1.0


def test_f0_strength_near_one_for_pure_tone():
    f0, strength = f0_frames(_sine(200.0, 0.04)[None], RATE)
    assert f0[0] == pytest.approx(200.0, abs=1.0)
    assert strength[0] > 0.99


def test_f0_no_octave_error_on_rich_harmonics():
    # every multiple of the period correlates equally well; the shortest
    # admissible lag must win
    x = _harmonic(120.0, int(0.04 * RATE))
    f0, _ = f0_frames(x[None], RATE)
    assert f0[0] == pytest.approx(120.0, abs=1.5)


def test_noise_is_unvoiced():
    rng = np.random.default_rng(17)
    f0, strength = f0_frames(rng.standard_normal((1, int(0.025 * RATE))), RATE)
    assert f0_track(f0) == (None,)
    assert strength[0] < 0.45


def test_f0_bounds_validated():
    with pytest.raises(InputError):
        f0_frames(_sine(150.0, 0.04)[None], RATE, f0_floor=500.0, f0_ceiling=75.0)


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


@pytest.mark.parametrize("f0", [0.0, -1.0, math.nan, math.inf, -math.inf])
def test_non_finite_or_non_positive_f0_is_an_input_error(f0):
    # a NaN F0 used to reach numpy (a "Maximum allowed dimension exceeded"
    # ValueError in harmonicity, a NaN-to-integer one in mark_cycles), and an
    # infinite one gave a made-up harmonicity
    x = _sine(150.0, 0.08)
    with pytest.raises(InputError):
        mark_cycles(x, f0, RATE)
    with pytest.raises(InputError):
        harmonicity_frames([x], [f0], RATE)
    with pytest.raises(InputError):
        harmonicity_frames([x, x], [150.0, f0], RATE)


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
    assert harmonicity_frames([_sine(150.0, 0.08)], [150.0], RATE)[0] == HNR_MAX_DB


def test_hnr_ordering_with_noise():
    rng = np.random.default_rng(41)
    clean = _sine(150.0, 0.08)
    noisy = clean + 0.1 * rng.standard_normal(clean.size)
    very_noisy = clean + 1.0 * rng.standard_normal(clean.size)
    h_clean = harmonicity_frames([clean], [150.0], RATE)[0]
    h_noisy = harmonicity_frames([noisy], [150.0], RATE)[0]
    h_very = harmonicity_frames([very_noisy], [150.0], RATE)[0]
    assert h_clean > h_noisy > h_very
    assert HNR_MIN_DB <= h_very <= HNR_MAX_DB


def test_hnr_window_too_short():
    assert harmonicity_frames([_sine(150.0, 0.005)], [150.0], RATE)[0] is None


# ---------------------------------------------------------------- LPC


def test_formants_of_three_resonator_vowel():
    rng = np.random.default_rng(5)
    x = synthesize_vowel(
        RATE, 100.0, (700.0, 1200.0, 2600.0), (130.0, 70.0, 160.0), 1024, rng
    )
    (f1, f2, f3), (b1, b2, b3) = lpc_frames(x[None], RATE)[0]
    assert f1 == pytest.approx(700.0, rel=0.05)
    assert f2 == pytest.approx(1200.0, rel=0.05)
    assert f3 == pytest.approx(2600.0, rel=0.05)
    for bw in (b1, b2, b3):
        assert 0 < bw < 700.0


def test_formants_degenerate_inputs():
    assert lpc_frames(np.zeros((1, 512)), RATE)[0] == (
        (None, None, None),
        (None, None, None),
    )
    assert lpc_frames(np.ones((1, 5)), RATE)[0][0] == (None, None, None)


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
    rows=st.sampled_from([None, 0, 1, 7, 64, 65]),
    n=st.integers(9, 300),
    max_lag=st.integers(1, 320),
    zeros=st.sampled_from(["none", "head", "tail", "rows"]),
)
def test_ncc_frames_and_pick_peak_equal_the_reference_copy(seed, rows, n, max_lag, zeros):
    # curves run shorter than lo = 23 when n or max_lag is small, and the
    # last hi lies past the curve end
    x = _windows(seed, rows, n, zeros)
    curves = ncc_frames(x, max_lag)
    assert np.array_equal(curves, oracles.ncc_frames(x, max_lag))
    block = np.atleast_2d(curves)
    for lo in (2, 3, 23):
        for hi in (lo + 1, 147, block.shape[1] + 3):
            want = [oracles._pick_peak(curve, lo, hi) for curve in block]
            lags, strengths = _pick_peaks(block, lo, hi)
            assert list(zip(lags.tolist(), strengths.tolist())) == want
            alone = [_pick_peaks(curve[None], lo, hi) for curve in block]
            assert [(lag.item(), strength.item()) for lag, strength in alone] == want


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(0, 1500),
    zeros=st.sampled_from(["none", "head", "tail"]),
    rate=st.sampled_from([RATE, 8000, 16000]),
)
def test_subframe_f0_track_equals_the_subframe_loop(seed, n, zeros, rate):
    x = _windows(seed, None, n, zeros)
    want = oracles.estimate_f0(x, rate)
    frames = _subframes(x, rate)
    f0, strength = f0_frames(frames, rate)
    assert list(f0_track(f0)) == want
    if n:
        assert list(analyze_prosody_window(x, rate, 0.0).f0_track) == want
    # the rows of one f0_frames block equal f0_frames of each row alone
    alone = [f0_frames(frame[None], rate) for frame in frames]
    assert [(f0_track(f)[0], s.item()) for f, s in alone] == list(
        zip(f0_track(f0), strength.tolist())
    )


@settings(max_examples=300, deadline=None)
@given(
    values=st.lists(st.floats(-0.2, 2.0), min_size=1, max_size=40),
    scale=st.sampled_from([1e-5, 1e-3, 0.0123, 1.0, 20.0]),
)
def test_ppq5_equals_the_reference_copy(values, scale):
    x = np.asarray(values) * scale
    assert _ppq5(x) == oracles._ppq5(x)


@settings(max_examples=300, deadline=None)
@given(
    values=st.lists(st.floats(-0.2, 2.0), min_size=1, max_size=40),
    scale=st.sampled_from([1e-5, 1e-3, 0.0123, 1.0, 20.0]),
)
def test_local_perturbation_equals_the_reference_copy(values, scale):
    x = np.asarray(values) * scale
    assert _local_perturbation(x) == oracles._local_perturbation(x)


@settings(max_examples=300, deadline=None)
@given(st.tuples(*[st.floats(-1.0, 1.0)] * 3))
def test_parabolic_equals_the_reference_copy(points):
    assert _parabolic(*points) == oracles._parabolic(*points)


# The block functions of the voice-quality and spectral windows against the
# one-window copies in oracles.py, bit for bit.


def _hnr_nfft(n: int, f0: float) -> int:
    return _ncc_size(n, int(_hnr_lags(RATE, np.float64(f0))[1]))[1]


def test_harmonicity_frames_equal_the_one_window_copy():
    # At 882 samples (80 ms) F0s below about 79.3 Hz put the HNR NCC at
    # nfft 2048 and the others at 1024, so this block straddles the two
    # FFT sizes. Shorter windows are cut at the clip edge; the 156-sample
    # one is one sample too short for the 75 Hz lag and the 40-sample one
    # for every lag here. One row is silent.
    rng = np.random.default_rng(12)
    cases = [(882, f) for f in (75.0, 200.0, 78.0, 79.5, 80.0, 140.0, 76.3, 500.0, 110.0)]
    cases += [(882, 11025 / 147), (600, 75.0), (600, 300.0), (157, 75.0), (156, 75.0)]
    cases += [(40, 120.0), (300, 90.0)]
    windows = [
        _harmonic(f, n) * rng.uniform(0.01, 1.0) + rng.uniform(0.0, 0.5) * rng.standard_normal(n)
        for n, f in cases
    ]
    windows[5] = np.zeros(882)
    f0 = [f for _, f in cases]
    want = [oracles.harmonicity_db(x, f, RATE) for x, f in zip(windows, f0)]
    assert {_hnr_nfft(882, f) for f in f0[:9]} == {1024, 2048}
    assert want[13] is None and want[14] is None and want[12] is not None
    assert want[5] == HNR_MIN_DB
    assert harmonicity_frames(windows, f0, RATE) == want
    assert [harmonicity_frames([x], [f], RATE)[0] for x, f in zip(windows, f0)] == want
    assert harmonicity_frames([], [], RATE) == []
    with pytest.raises(InputError):
        harmonicity_frames(windows[:2], [120.0, 0.0], RATE)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(0, 20),
    zeros=st.sampled_from(["none", "head", "tail", "rows"]),
)
def test_harmonicity_frames_equal_the_one_window_copy_on_random_blocks(seed, rows, zeros):
    rng = np.random.default_rng(seed)
    block = _windows(seed, rows, 882, zeros)
    windows = [row[: rng.choice([882, 882, 700, 200, 150])] for row in block]
    f0 = rng.uniform(75.0, 500.0, rows).tolist()
    want = [oracles.harmonicity_db(x, f, RATE) for x, f in zip(windows, f0)]
    assert harmonicity_frames(windows, f0, RATE) == want


def _lpc_poly(row: np.ndarray) -> np.ndarray | None:
    """The Levinson polynomial lpc_frames fits to one window, or None."""
    n = row.size
    w = preemphasize(row) * np.hamming(n)
    r = np.array([float(np.dot(w[: n - k], w[k:])) for k in range(13)])
    if r[0] <= 0:
        return None
    r[0] *= 1.0 + 1e-9
    return oracles._levinson(r, 12)


def _spectral_block(n: int, seed: int) -> np.ndarray:
    """Vowels and noise, with a silent row, a row whose Levinson recursion
    fails (a sine at a subnormal scale) and a row whose LPC polynomial has a
    zero trailing coefficient (one impulse once pre-emphasized)."""
    rng = np.random.default_rng(seed)
    rows = [
        synthesize_vowel(RATE, f0, (700.0, 1200.0, 2600.0), (130.0, 70.0, 160.0), n, rng)
        for f0 in (90.0, 150.0, 230.0)
    ]
    rows += [rng.standard_normal(n), np.zeros(n), 1e-160 * np.sin(0.3 * np.arange(n))]
    impulse = np.zeros(n)
    impulse[n // 3] = 0.5
    for t in range(n // 3 + 1, n):
        impulse[t] = PREEMPHASIS * impulse[t - 1]
    rows.append(impulse)
    return np.stack(rows)


@pytest.mark.parametrize("n", [441, 512, 200, 14, 13, 1])
def test_spectral_frames_equal_the_one_window_copies(n):
    block = _spectral_block(n, n)
    if n == 441:
        polys = [_lpc_poly(row) for row in block]
        assert polys[4] is None  # silent: r[0] is 0
        assert polys[5] is None and block[5].any()  # the recursion fails
        assert polys[6][-1] == 0.0 and polys[0][-1] != 0.0
    want = [oracles.lpc_formants(row, RATE) for row in block]
    assert lpc_frames(block, RATE) == want
    assert [lpc_frames(row[None], RATE)[0] for row in block] == want
    ceps = mfcc_frames(block, RATE)
    for row, got in zip(block, ceps):
        assert np.array_equal(got, oracles.mfcc(row, RATE))
        assert np.array_equal(mfcc_frames(row[None], RATE)[0], got)
    centers = [0.1 * i for i in range(len(block))]
    windows = spectral_windows(block, RATE, centers)
    assert [(w.formants, w.bandwidths) for w in windows] == want
    assert [w.cepstra for w in windows] == [tuple(c) for c in ceps.tolist()]
    assert [w.center for w in windows] == centers


def test_spectral_frames_of_no_rows():
    empty = np.zeros((0, 441))
    assert lpc_frames(empty, RATE) == []
    assert mfcc_frames(empty, RATE).shape == (0, 8)
    assert spectral_windows(empty, RATE, []) == []
    with pytest.raises(InputError):
        mfcc_frames(np.zeros((2, 0)), RATE)


def _first_failing_order(r: np.ndarray, order: int) -> int | None:
    """The order at which the one-row recursion's error first reaches <= 0."""
    return next((m for m in range(1, order + 1) if oracles._levinson(r, m) is None), None)


def _assert_levinson_rows_equal_the_one_row_copy(r: np.ndarray, order: int) -> None:
    want = [oracles._levinson(row, order) for row in r]
    kept, polys = _levinson(r, order)
    assert kept.tolist() == [i for i, a in enumerate(want) if a is not None]
    assert polys.shape == (kept.size, order + 1)
    for i, a in zip(kept.tolist(), polys):
        assert np.array_equal(a, want[i])


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(0, 30),
    n=st.integers(14, 600),
    zeros=st.sampled_from(["none", "head", "tail", "rows"]),
    order=st.sampled_from([1, 2, 12]),
)
def test_levinson_rows_equal_the_one_row_copy(seed, rows, n, zeros, order):
    # autocorrelations of windows, and of random sequences that are no
    # autocorrelation at all, whose recursion fails at some order
    x = _windows(seed, rows, n, zeros)
    r = np.array([[np.dot(row[: n - k], row[k:]) for k in range(order + 1)] for row in x])
    _assert_levinson_rows_equal_the_one_row_copy(r.reshape(rows, order + 1), order)
    rng = np.random.default_rng(seed)
    r = np.concatenate((np.ones((rows, 1)), rng.uniform(-1.0, 1.0, (rows, order))), axis=1)
    _assert_levinson_rows_equal_the_one_row_copy(r, order)


def test_levinson_rows_fail_at_different_orders():
    # the autocorrelation of a sine at ever smaller scales underflows at
    # ever lower orders; random sequences fail where |k| first exceeds 1
    n = 441
    w = preemphasize(np.sin(0.3 * np.arange(n))) * np.hamming(n)
    scaled = [w * 10.0**-e for e in range(150, 165)]
    r = np.array([[float(np.dot(v[: n - k], v[k:])) for k in range(13)] for v in scaled])
    r[:, 0] *= 1.0 + 1e-9
    rng = np.random.default_rng(3)
    r = np.concatenate((r, np.c_[np.ones(40), rng.uniform(-1.0, 1.0, (40, 12))]))
    failing = {_first_failing_order(row, 12) for row in r}
    assert None in failing and len(failing - {None}) >= 5
    _assert_levinson_rows_equal_the_one_row_copy(r, 12)
    # one row, no rows
    _assert_levinson_rows_equal_the_one_row_copy(r[:1], 12)
    _assert_levinson_rows_equal_the_one_row_copy(r[:0], 12)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(0, 20),
    n=st.integers(1, 600),
    zeros=st.sampled_from(["none", "head", "tail", "rows"]),
)
def test_lpc_frames_equal_the_one_window_copy_on_random_blocks(seed, rows, n, zeros):
    block = _windows(seed, rows, n, zeros)
    # some rows at subnormal scales, where the recursion fails
    rng = np.random.default_rng(seed)
    block[rng.random(rows) < 0.2] *= 1e-158
    assert lpc_frames(block, RATE) == [oracles.lpc_formants(row, RATE) for row in block]


def test_roots_equal_np_roots():
    # a stacked companion-matrix eigenvalue call, except for polynomials
    # that np.roots trims (zero trailing coefficients), which it runs alone
    rng = np.random.default_rng(8)
    polys = [np.concatenate(([1.0], rng.uniform(-1.0, 1.0, 12))) for _ in range(6)]
    polys[1][-1] = 0.0
    polys[3][-3:] = 0.0
    polys[4] = np.concatenate(([1.0], np.zeros(12)))
    polys[5] = np.poly([0.5, -0.25, 0.125, 0.9, -0.8, 0.3, 0.2, -0.1, 0.6, 0.7, -0.6, 0.4])
    got = _roots(polys)
    assert len(got) == len(polys)
    for a, roots in zip(polys, got):
        assert np.array_equal(roots, np.roots(a))
    assert _roots([]) == []
