"""Acceptance gate: seven end-of-build checks, one scorecard line each.

Every check goes through public entry points only and prints a single
``ACCEPTANCE n PASS/FAIL: ...`` line straight to the terminal (bypassing
capture) so a full run reads as a seven-line summary. Expected numbers
come from the packaged reference fixtures, from hand-built oracles in
``oracles.py``, or from planted synthetic ground truth.
"""

from __future__ import annotations

import csv
import os
import re
import shutil
import time
from importlib import resources

import numpy as np

from oracles import (
    MODEL_TRANSCRIPTION,
    PUBLISHED_COSINES,
    brute_force_signed_rank_p,
    mfcc_reference,
    t_sf,
)
from voxtrait import cli
from voxtrait.acoustics import (
    HNR_MAX_DB,
    estimate_f0,
    harmonicity_db,
    jitter_shimmer,
    lpc_formants,
    mark_cycles,
    mfcc,
)
from voxtrait.audio_io import load_wav, resample
from voxtrait.features import FEATURE_NAMES, FeatureTable, extract_features
from voxtrait.models import get_model, registry, score
from voxtrait.regression import (
    Thresholds,
    cross_session_eval,
    loocv_stability,
    read_ratings_csv,
    stepwise_fit,
    train_model,
    zscore_fit,
)
from voxtrait.stats import paired_t_test, read_matrix_csv, wilcoxon_signed_rank
from voxtrait.synth import generate_corpus, synthesize_vowel

RATE = 11025
TRANSITIONS = ("1->2", "1->3", "2->3")


def _verdict(capsys, number: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"\nACCEPTANCE {number} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


# ------------------------------------------------------- 1: cosines


def test_criterion_1_fixture_cosines(capsys):
    """The packaged arrow matrix reproduces all six published cosines."""
    t0 = time.perf_counter()
    got: dict[tuple[float, tuple[str, str]], float] = {}
    for alpha in (0.01, 0.05):
        rc = cli.main(["transition-similarity", "--published", "--alpha", str(alpha)])
        out = capsys.readouterr().out
        assert rc == 0
        for line in out.splitlines():
            m = re.fullmatch(r"cos\(([^,]+),([^)]+)\) = (-?\d+\.\d{4})", line.strip())
            if m:
                got[(alpha, (m.group(1), m.group(2)))] = float(m.group(3))
    elapsed = time.perf_counter() - t0

    errs = []
    for alpha, table in PUBLISHED_COSINES.items():
        for pair, want in table.items():
            have = got.get((alpha, pair))
            if have is None or abs(have - want) > 0.005:
                errs.append(f"alpha={alpha} {pair[0]} vs {pair[1]}: got {have}, want {want}")
    if len(got) != 6:
        errs.append(f"expected 6 cosine lines, parsed {len(got)}")
    if elapsed >= 1.0:
        errs.append(f"took {elapsed:.2f}s, budget 1s")

    ok = not errs
    detail = (
        f"six cosines within 0.005 of the published values in {elapsed:.2f}s"
        if ok
        else "; ".join(errs)
    )
    _verdict(capsys, 1, ok, detail)


# ------------------------------------------------------ 2: registry


def test_criterion_2_registry_verbatim(capsys):
    models = {(m.dv, m.session): m for m in registry()}
    errs = []
    if len(models) != 27:
        errs.append(f"registry holds {len(models)} models, want 27")
    if set(models) != set(MODEL_TRANSCRIPTION):
        errs.append("registry keys differ from the transcription fixture")
    for key, want in MODEL_TRANSCRIPTION.items():
        m = models.get(key)
        if m is None:
            continue
        if list(m.predictors) != [name for name, _ in want["betas"]]:
            errs.append(f"{key}: predictor list differs")
        if list(m.beta_text) != [text for _, text in want["betas"]]:
            errs.append(f"{key}: coefficient text differs")
        if m.train_r_text != want["r"]:
            errs.append(f"{key}: correlation text differs")
        if m.text_uncertain != want.get("uncertain", False):
            errs.append(f"{key}: uncertain flag differs")

    # one standardized unit on the pause-speech channel, all else at the mean
    model = get_model("cooperative", "S1")
    z = {name: 0.0 for name in model.predictors}
    z["pause_speech_ratio"] = 1.0
    unit = score(model, z).score
    if abs(unit - (-0.67)) > 1e-9:
        errs.append(f"unit pause_speech_ratio score {unit!r}, want -0.67")

    ok = not errs
    detail = (
        f"27/27 models match the transcription verbatim; unit pause-speech z scores {unit:+.2f}"
        if ok
        else "; ".join(errs[:5])
    )
    _verdict(capsys, 2, ok, detail)


# ----------------------------------------------------- 3: acoustics


def test_criterion_3_acoustic_oracles(capsys):
    t0 = time.perf_counter()
    errs = []

    x = 0.5 * np.sin(2.0 * np.pi * 150.0 * np.arange(int(RATE * 0.5)) / RATE)
    track = estimate_f0(x, RATE)
    voiced = [f for f in track if f is not None]
    f0_mean = float(np.mean(voiced)) if voiced else float("nan")
    if not abs(f0_mean - 150.0) < 1.0:
        errs.append(f"sine F0 {f0_mean:.2f} Hz, want 150 +- 1")

    periods, amps = mark_cycles(x, 150.0, RATE)
    pert = jitter_shimmer(periods, amps)
    if not (pert.jitter_local is not None and pert.jitter_local < 1e-3):
        errs.append(f"sine jitter_local {pert.jitter_local}")
    if not (pert.shimmer_local is not None and pert.shimmer_local < 1e-3):
        errs.append(f"sine shimmer_local {pert.shimmer_local}")
    hnr = harmonicity_db(x, 150.0, RATE)
    if hnr != HNR_MAX_DB:
        errs.append(f"sine HNR {hnr}, want clamp at {HNR_MAX_DB}")

    rng = np.random.default_rng(5)
    vowel = synthesize_vowel(
        RATE, 100.0, (700.0, 1200.0, 2600.0), (130.0, 70.0, 160.0), 1024, rng
    )
    (f1, f2, f3), _ = lpc_formants(vowel, RATE)
    for got_f, want_f in ((f1, 700.0), (f2, 1200.0), (f3, 2600.0)):
        if got_f is None or abs(got_f - want_f) > 0.05 * want_f:
            errs.append(f"formant {got_f} vs {want_f} (5% band)")

    worst = 0.0
    for n, seed in ((441, 0), (512, 1), (200, 2)):
        w = np.random.default_rng(seed).standard_normal(n)
        worst = max(worst, float(np.max(np.abs(mfcc(w, RATE) - mfcc_reference(w, RATE)))))
    if worst > 1e-6:
        errs.append(f"MFCC deviates from the reference coding by {worst:.2e}")

    elapsed = time.perf_counter() - t0
    if elapsed >= 5.0:
        errs.append(f"took {elapsed:.2f}s, budget 5s")

    ok = not errs
    detail = (
        f"F0 {f0_mean:.2f} Hz, jitter/shimmer < 1e-3, HNR clamped, formants within 5%, "
        f"MFCC max dev {worst:.1e}, {elapsed:.2f}s"
        if ok
        else "; ".join(errs)
    )
    _verdict(capsys, 3, ok, detail)


# --------------------------------------------------------- 4: stats


def test_criterion_4_exact_paired_tests(capsys):
    rng = np.random.default_rng(2026)
    mismatches = []
    for trial in range(200):
        n = int(rng.integers(2, 13))
        a = rng.normal(size=n)
        b = a + rng.normal(size=n)
        res = wilcoxon_signed_rank(a, b)
        w_ref, p_ref = brute_force_signed_rank_p(b - a)
        # ranks are multiples of 1/2, so both sides are exact dyadics
        if res.statistic != w_ref or res.p_value != p_ref:
            mismatches.append(trial)

    res_t = paired_t_test([0.0, 0.0, 0.0], [1.0, 2.0, 3.0])
    p_ref_t = 2.0 * t_sf(res_t.statistic, 2)
    errs = []
    if mismatches:
        errs.append(f"{len(mismatches)}/200 Wilcoxon p-values differ from enumeration")
    if abs(res_t.statistic - 3.4641) > 1e-4:
        errs.append(f"paired t statistic {res_t.statistic:.5f}, want 3.4641")
    if abs(res_t.p_value - 0.0742) > 1e-3:
        errs.append(f"paired t p {res_t.p_value:.5f}, want about 0.0742")
    if abs(res_t.p_value - p_ref_t) > 1e-6:
        errs.append(f"paired t p {res_t.p_value:.8f} vs quadrature {p_ref_t:.8f}")

    ok = not errs
    detail = (
        f"200/200 exact Wilcoxon p-values equal brute-force enumeration; "
        f"t = {res_t.statistic:.4f}, p = {res_t.p_value:.4f}"
        if ok
        else "; ".join(errs)
    )
    _verdict(capsys, 4, ok, detail)


# ------------------------------------------------- 5: planted models


def _fit_columns(X: np.ndarray, y: np.ndarray, entry_p: float):
    sx = zscore_fit(X, FEATURE_NAMES)
    sy = zscore_fit(y[:, None], ("rating",))
    zy = sy.apply(y[:, None])[:, 0]
    model = stepwise_fit(sx.apply(X), zy, FEATURE_NAMES, entry_p=entry_p)
    report = loocv_stability(X, y, FEATURE_NAMES, model, Thresholds(entry_p=entry_p))
    return model, report


def test_criterion_5_planted_single_predictor(capsys):
    """Strong planted signals come back with exact support; noise does not.

    Entry screening runs at 0.01 here: at 0.05 the Bonferroni-scanned
    entry test admits an occasional spurious second column, which is a
    threshold choice rather than a recovery failure.
    """
    t0 = time.perf_counter()
    entry_p = 0.01
    recovered = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((69, 30))
        j = seed % 30
        y = 0.8 * X[:, j] + 0.2 * rng.standard_normal(69)
        model, report = _fit_columns(X, y, entry_p)
        recovered += model.predictors == (FEATURE_NAMES[j],) and report.stable

    noise_unstable = 0
    for seed in range(100):
        rng = np.random.default_rng(10_000 + seed)
        X = rng.standard_normal((69, 30))
        y = rng.standard_normal(69)
        _, report = _fit_columns(X, y, entry_p)
        noise_unstable += not report.stable

    elapsed = time.perf_counter() - t0
    errs = []
    if recovered < 95:
        errs.append(f"planted support recovered and stable in only {recovered}/100 seeds")
    if noise_unstable < 90:
        errs.append(f"noise targets declared unstable in only {noise_unstable}/100 seeds")
    if elapsed >= 60.0:
        errs.append(f"took {elapsed:.1f}s, budget 60s")

    ok = not errs
    detail = (
        f"planted recovery {recovered}/100, noise unstable {noise_unstable}/100, {elapsed:.1f}s"
        if ok
        else "; ".join(errs)
    )
    _verdict(capsys, 5, ok, detail)


# -------------------------------------------------- 6: audio round trip


def test_criterion_6_synthetic_corpus_round_trip(capsys, tmp_path):
    """Corpus -> WAV -> descriptors -> model recovers the planted channel.

    Each seeded corpus drives pause structure from the latent attitude, so
    a faithful pipeline must pick pause_speech_ratio with a negative
    weight and carry its fit across sessions.
    """
    t0 = time.perf_counter()
    good = 0
    failures = []
    for seed in range(20):
        root = tmp_path / f"seed{seed}"
        paths = generate_corpus(str(root), n_speakers=20, seed=seed)
        table = FeatureTable()
        with open(paths.manifest, newline="", encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                clip = resample(load_wav(os.path.join(paths.root, row["path"])))
                table.add(row["speaker_id"], row["session"], extract_features(clip))
        ratings = read_ratings_csv(paths.ratings)

        model = train_model(table, ratings, "cooperative", "S1")
        ok_seed = "pause_speech_ratio" in model.predictors
        if ok_seed:
            beta = model.betas[model.predictors.index("pause_speech_ratio")]
            ok_seed = beta < 0.0
        if ok_seed:
            r2 = cross_session_eval(model, table, ratings, "S2")
            r3 = cross_session_eval(model, table, ratings, "S3")
            ok_seed = abs(r2 - model.train_r) <= 0.15 and abs(r3 - model.train_r) <= 0.15
        good += ok_seed
        if not ok_seed:
            failures.append(seed)
        shutil.rmtree(root)  # 60 WAVs per seed; keep tmp bounded

    elapsed = time.perf_counter() - t0
    errs = []
    if good < 18:
        errs.append(f"round trip succeeded in only {good}/20 seeds (failed: {failures})")
    if elapsed >= 300.0:
        errs.append(f"took {elapsed:.1f}s, budget 300s")

    ok = not errs
    detail = (
        f"pause-speech channel recovered with negative weight and cross-session r "
        f"within 0.15 in {good}/20 seeds, {elapsed:.1f}s"
        if ok
        else "; ".join(errs)
    )
    _verdict(capsys, 6, ok, detail)


# -------------------------------------------- 7: scope of reproduction


def test_criterion_7_reference_values_are_transcriptions(capsys):
    """The published numbers ship as fixtures, not as reproducible outputs.

    The recordings behind the reference models and the arrow matrix are
    not in the repository, so their correlation magnitudes and specific
    arrows cannot be recomputed here. What is checked instead: the
    fixtures are complete and internally consistent, and the modelling
    protocol itself is validated on synthetic ground truth by checks 5
    and 6.
    """
    errs = []
    models = registry()
    if len(models) != 27:
        errs.append(f"registry holds {len(models)} models")
    if not all(0.0 < m.train_r <= 1.0 for m in models):
        errs.append("registry correlations outside (0, 1]")

    ref = resources.files("voxtrait").joinpath("data", "reference_arrows.csv")
    matrix = read_matrix_csv(str(ref))
    if len(matrix.features) != 30:
        errs.append(f"arrow fixture covers {len(matrix.features)} features, want 30")
    missing = [
        (feat, tr, test)
        for feat in matrix.features
        for tr in TRANSITIONS
        for test in matrix.tests
        if (feat, tr, test) not in matrix.cells
    ]
    if missing:
        errs.append(f"{len(missing)} arrow cells missing")

    here = globals()
    for stand_in in ("test_criterion_5_planted_single_predictor",
                     "test_criterion_6_synthetic_corpus_round_trip"):
        if stand_in not in here:
            errs.append(f"missing synthetic stand-in {stand_in}")

    ok = not errs
    detail = (
        "published correlations and arrows are fixture transcriptions "
        f"(27 models, {len(matrix.features)}x{len(TRANSITIONS)} arrow cells); recomputing them "
        "needs the original recordings, so protocol validity rests on the synthetic checks 5 and 6"
        if ok
        else "; ".join(errs)
    )
    _verdict(capsys, 7, ok, detail)
