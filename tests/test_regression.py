"""Stepwise selection, stability gating, training and evaluation plumbing."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import fdtrc, stdtr
from scipy.stats import f as f_dist
from scipy.stats import t as t_dist

from voxtrait import regression
from voxtrait.errors import (
    VoxtraitError,
    ConstantColumnError,
    DuplicateKeyError,
    InputError,
    InsufficientDataError,
    TableFormatError,
)
from voxtrait.features import FEATURE_NAMES, SESSIONS, FeatureTable, FeatureVector
from voxtrait.regression import (
    DV_NAMES,
    RatingTable,
    RegressionModel,
    Thresholds,
    _fit_standardized,
    _forward_scan,
    _ols_stats,
    assemble_design,
    cross_session_eval,
    decide_stable,
    load_model,
    loocv_stability,
    read_ratings_csv,
    save_model,
    stepwise_fit,
    train_model,
    write_ratings_csv,
    zscore_fit,
)

import oracles

NAMES30 = [f"v{j:02d}" for j in range(30)]


def _standardize(X):
    stz = zscore_fit(X, [f"x{j + 1}" for j in range(X.shape[1])])
    return stz.apply(X), stz


# --------------------------------------------------------------- z-scores


def test_zscore_fit_exact():
    X = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    stz = zscore_fit(X, ["a", "b"])
    assert np.allclose(stz.mean, [3.0, 4.0])
    assert np.allclose(stz.std, [2.0, 2.0])
    assert np.allclose(stz.apply(X), [[-1, -1], [0, 0], [1, 1]])


def test_zscore_fit_rejections():
    with pytest.raises(ConstantColumnError):
        zscore_fit(np.array([[1.0, 5.0], [2.0, 5.0]]), ["a", "b"])
    with pytest.raises(InsufficientDataError):
        zscore_fit(np.array([[1.0]]), ["a"])
    with pytest.raises(InputError):
        zscore_fit(np.zeros((3, 2)), ["a"])


def test_constant_column_is_detected_exactly():
    flat = np.full(199, 0.1)
    assert np.std(flat, ddof=1) > 0.0  # rounding: the std test alone misses it
    with pytest.raises(ConstantColumnError, match="harmonicity"):
        zscore_fit(flat[:, None], ["harmonicity"])
    rng = np.random.default_rng(5)
    a, c = rng.standard_normal((2, 199))
    X = np.column_stack([a, flat, c])
    y = a + 0.5 * rng.standard_normal(199)
    model, stz, _, _ = _fit_standardized(X, y, ["a", "harmonicity", "c"], 0.05, 0.10)
    assert stz.names == ("a", "c")
    assert "a" in model.predictors


def test_tiny_scale_column_is_standardized():
    # At 1e-170 the squared deviations underflow, so np.std reads 0.0 for a
    # column that varies; its std must still come out at the right scale.
    rng = np.random.default_rng(9)
    a, b = rng.standard_normal((2, 50))
    tiny = 1e-170 * b
    assert np.std(tiny, ddof=1) == 0.0 and tiny.max() > tiny.min()
    stz = zscore_fit(np.column_stack([a, tiny]), ["a", "tiny"])
    assert stz.std[0] == np.std(a, ddof=1)  # other columns: same arithmetic
    assert stz.std[1] == pytest.approx(1e-170 * np.std(b, ddof=1), rel=1e-12)
    assert np.allclose(stz.apply(np.column_stack([a, tiny]))[:, 1], (b - b.mean()) / b.std(ddof=1))

    y = b + 0.3 * rng.standard_normal(50)
    model, stz, _, _ = _fit_standardized(np.column_stack([a, tiny]), y, ["a", "tiny"], 0.05, 0.10)
    assert stz.names == ("a", "tiny")
    assert model.predictors == ("tiny",)


_COLUMN_KINDS = ("varied", "constant", "tiny", "overflowing", "infinite")
_LAYOUTS = ("C", "F", "rows reversed", "columns reversed", "1-D")


def _column(kind, n, rng):
    x = rng.standard_normal(n) * 10.0 ** rng.uniform(-3.0, 3.0) + rng.uniform(-50.0, 50.0)
    if kind == "constant":
        x[:] = 0.1
    elif kind == "tiny":  # squared deviations underflow: the std is measured again
        x *= 1e-172
    elif kind == "overflowing":  # squared deviations overflow: the std reads inf
        x = rng.choice([-1e300, 1e300, 3e299], n)
    elif kind == "infinite":
        x[rng.integers(n)] = rng.choice([-np.inf, np.inf])
    return x


def _zscore_outcome(fit, X, names):
    try:
        stz = fit(X, names)
    except VoxtraitError as exc:
        return type(exc), str(exc)
    return stz.names, stz.mean.tobytes(), stz.std.tobytes()


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")  # the reference on inf
@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 25),
    st.lists(st.sampled_from(_COLUMN_KINDS), min_size=1, max_size=5),
    st.sampled_from(_LAYOUTS),
    st.integers(0, 2**32 - 1),
)
def test_zscore_fit_equals_the_reference_copy(n, kinds, layout, seed):
    """Same means and stds, bit for bit, and the same error, in every layout.

    Only input holding an inf differs: it is now rejected as non-finite,
    where the reference reported a zero-variance column.
    """
    rng = np.random.default_rng(seed)
    X = np.column_stack([_column(kind, n, rng) for kind in kinds])
    X = {
        "C": X,
        "F": np.asfortranarray(X),
        "rows reversed": X[::-1],
        "columns reversed": X[:, ::-1],
        "1-D": X[:, 0],
    }[layout]
    names = [f"c{j}" for j in range(1 if X.ndim == 1 else X.shape[1])]
    got = _zscore_outcome(zscore_fit, X, names)
    want = _zscore_outcome(oracles.zscore_fit_remeasured, X, names)
    if n >= 2 and not np.isfinite(X).all():
        assert got == (InputError, "X must be finite")
        assert want[0] is ConstantColumnError
    else:
        assert got == want


def test_zscore_fit_rejects_a_nan():
    X = np.random.default_rng(1).standard_normal((20, 3))
    X[4, 1] = np.nan
    with pytest.raises(InputError, match="finite"):
        zscore_fit(X, ["a", "b", "c"])


# --------------------------------------------------------- stepwise core


def test_stepwise_fit_rejects_a_nan():
    rng = np.random.default_rng(0)
    Z, stz = _standardize(rng.standard_normal((30, 5)))
    zy = Z[:, 0] + 0.5 * rng.standard_normal(30)
    zy[3] = np.nan  # a NaN rss once made every scan a p = 0 "perfect fit"
    with pytest.raises(InputError, match="finite"):
        stepwise_fit(Z, zy, stz.names)
    zy[3] = 0.0
    Z[7, 2] = np.inf
    with pytest.raises(InputError, match="finite"):
        stepwise_fit(Z, zy, stz.names)


def test_perfect_single_predictor():
    rng = np.random.default_rng(0)
    Z, stz = _standardize(rng.standard_normal((30, 5)))
    model = stepwise_fit(Z, Z[:, 0].copy(), stz.names)
    assert model.predictors == ("x1",)
    assert model.betas[0] == pytest.approx(1.0, abs=1e-9)
    assert model.train_r == pytest.approx(1.0, abs=1e-9)


def test_zero_target_gives_empty_model():
    rng = np.random.default_rng(1)
    Z, stz = _standardize(rng.standard_normal((20, 4)))
    model = stepwise_fit(Z, np.zeros(20), stz.names)
    assert model.predictors == ()
    assert model.train_r == 0.0


def test_planted_predictor_recovered_at_defaults():
    hits = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((30, 30))
        j = int(rng.integers(0, 30))
        y = X[:, j] + 0.5 * rng.standard_normal(30)
        Z, stz = _standardize(X)
        zy = (y - y.mean()) / y.std(ddof=1)
        model = stepwise_fit(Z, zy, NAMES30)
        hits += set(model.predictors) == {NAMES30[j]}
    assert hits >= 19  # measured 20/20 on these fixed seeds


def test_pure_noise_rejected_at_defaults():
    empties = 0
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        X = rng.standard_normal((24, 30))
        y = rng.standard_normal(24)
        Z, stz = _standardize(X)
        zy = (y - y.mean()) / y.std(ddof=1)
        model = stepwise_fit(Z, zy, NAMES30)
        assert len(model.predictors) <= 3
        empties += model.predictors == ()
    assert empties >= 18  # measured 20/20


def test_redundant_first_entrant_is_evicted():
    # x3 = x1 + x2 + noise has the best single-variable fit and enters
    # first; once x1 and x2 are both in it is redundant and must leave
    rng = np.random.default_rng(11)
    n = 200
    x1 = rng.standard_normal(n)
    x2 = rng.standard_normal(n)
    x3 = x1 + x2 + 0.5 * rng.standard_normal(n)
    x4 = rng.standard_normal(n)
    X = np.column_stack([x3, x1, x2, x4])
    y = x1 + x2 + 0.3 * rng.standard_normal(n)
    cors = [abs(np.corrcoef(X[:, j], y)[0, 1]) for j in range(4)]
    assert int(np.argmax(cors)) == 0  # x3 really is the round-one winner
    Z, stz = _standardize(X)
    zy = (y - y.mean()) / y.std(ddof=1)
    model = stepwise_fit(Z, zy, ["x3", "x1", "x2", "x4"])
    assert set(model.predictors) == {"x1", "x2"}


def test_exact_duplicate_column_earlier_wins():
    rng = np.random.default_rng(5)
    n = 40
    a = rng.standard_normal(n)
    b = rng.standard_normal(n)
    X = np.column_stack([b, a, b.copy()])
    y = 2.0 * b + 0.3 * rng.standard_normal(n)
    Z, stz = _standardize(X)
    zy = (y - y.mean()) / y.std(ddof=1)
    model = stepwise_fit(Z, zy, ["u1", "u2", "u3"])
    assert "u1" in model.predictors
    assert "u3" not in model.predictors


def test_stepwise_input_validation():
    with pytest.raises(InsufficientDataError):
        stepwise_fit(np.zeros((3, 2)), np.zeros(3), ["a", "b"])
    with pytest.raises(InputError):
        stepwise_fit(np.zeros((5, 2)), np.zeros(4), ["a", "b"])
    with pytest.raises(InputError):
        stepwise_fit(np.zeros((5, 2)), np.zeros(5), ["a"])


def test_residuals_orthogonal_to_selected_columns():
    rng = np.random.default_rng(23)
    X = rng.standard_normal((40, 8))
    y = X[:, 2] - 0.8 * X[:, 5] + 0.4 * rng.standard_normal(40)
    Z, stz = _standardize(X)
    zy = (y - y.mean()) / y.std(ddof=1)
    model = stepwise_fit(Z, zy, stz.names)
    assert model.predictors
    cols = [stz.names.index(nm) for nm in model.predictors]
    resid = zy - Z[:, cols] @ np.asarray(model.betas)
    assert np.max(np.abs(Z[:, cols].T @ resid)) < 1e-8


def test_full_model_r_dominates_single_predictor_fits():
    rng = np.random.default_rng(29)
    X = rng.standard_normal((50, 10))
    y = X[:, 1] + 0.7 * X[:, 4] + 0.5 * rng.standard_normal(50)
    Z, stz = _standardize(X)
    zy = (y - y.mean()) / y.std(ddof=1)
    model = stepwise_fit(Z, zy, stz.names)
    assert len(model.predictors) >= 2
    for j in range(10):
        beta, rss_vec, _, _ = np.linalg.lstsq(Z[:, j : j + 1], zy, rcond=None)
        rss = float(rss_vec[0]) if rss_vec.size else float(
            np.sum((zy - Z[:, j] * beta[0]) ** 2)
        )
        r_single = np.sqrt(max(1.0 - rss / float(zy @ zy), 0.0))
        assert model.train_r >= r_single - 1e-12


@pytest.mark.parametrize("scale,shift", [(1000.0, 77.0), (0.001, -3.5), (-2.0, 0.0)])
def test_selection_is_affine_invariant(scale, shift):
    rng = np.random.default_rng(37)
    X = rng.standard_normal((40, 12))
    y = X[:, 3] - X[:, 7] + 0.5 * rng.standard_normal(40)
    names = [f"x{j}" for j in range(12)]

    def fit(M):
        Z, _ = _standardize(M)
        zy = (y - y.mean()) / y.std(ddof=1)
        return stepwise_fit(Z, zy, names)

    base = fit(X)
    X2 = X.copy()
    X2[:, 3] = scale * X2[:, 3] + shift
    other = fit(X2)
    assert other.predictors == base.predictors
    assert other.train_r == pytest.approx(base.train_r, abs=1e-12)
    # the rescaled column's standardized beta only flips with the sign
    i = base.predictors.index("x3")
    assert other.betas[i] == pytest.approx(np.sign(scale) * base.betas[i], abs=1e-9)


# ------------------------------------------------------------- stability


def test_decide_stable_boundaries():
    assert decide_stable(0.74, 0.9, 0.9) is False
    # dyadic values so the ratio is exact: 0.375 / 0.5 == 0.75
    assert decide_stable(0.75, 0.375, 0.5) is False  # ratio must exceed
    assert decide_stable(0.75, 0.3751, 0.5) is True
    assert decide_stable(1.0, 0.5, 0.0) is False
    assert decide_stable(1.0, -0.5, -1.0) is False


def test_loocv_exact_linear_is_fully_stable():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((30, 5))
    y = 2.0 * X[:, 0]
    names = [f"x{j + 1}" for j in range(5)]
    Z, stz = _standardize(X)
    model = stepwise_fit(Z, (y - y.mean()) / y.std(ddof=1), names)
    assert model.predictors == ("x1",)
    report = loocv_stability(X, y, names, model)
    assert report.n_folds == 30
    assert report.fraction_identical == 1.0
    assert report.r_loocv == pytest.approx(1.0, abs=1e-9)
    assert report.stable is True


def test_loocv_detects_unstable_noise():
    rng = np.random.default_rng(101)
    X = rng.standard_normal((16, 30))
    y = rng.standard_normal(16)
    Z, stz = _standardize(X)
    model = stepwise_fit(Z, (y - y.mean()) / y.std(ddof=1), NAMES30)
    report = loocv_stability(X, y, NAMES30, model)
    # empty overall model: folds agreeing on "nothing" still mean there is
    # no usable signal, so the r gate must fail
    assert report.stable is False


def _seeded_table(n_speakers=48, seed=11):
    """Every descriptor at its own offset and scale, nine ratings per speaker.

    A latent attitude drives pause_speech_ratio and every rating; two
    ratings also follow a second descriptor, so models of several
    predictors come up.
    """
    rng = np.random.default_rng(seed)
    loc = 10.0 ** rng.uniform(-2.0, 3.5, len(FEATURE_NAMES))
    scale = loc * rng.uniform(0.02, 0.5, len(FEATURE_NAMES))
    psr = FEATURE_NAMES.index("pause_speech_ratio")
    table = FeatureTable()
    ratings = RatingTable()
    for i in range(n_speakers):
        sid = f"sp{i:03d}"
        attitude = rng.standard_normal()
        trait = rng.standard_normal(len(FEATURE_NAMES))
        for session in SESSIONS:
            z = 0.8 * trait + 0.6 * rng.standard_normal(len(FEATURE_NAMES))
            z[psr] = -attitude + 0.2 * rng.standard_normal()
            values = loc + scale * z
            table.add(sid, session, FeatureVector(dict(zip(FEATURE_NAMES, values))))
        for k, dv in enumerate(DV_NAMES):
            raw = 4.0 + (1.9 if k % 2 else -1.9) * attitude + 0.7 * rng.standard_normal()
            if k in (2, 5):
                raw += 0.8 * trait[k]
            ratings.add(sid, dv, "P", int(min(7, max(1, round(raw)))))
    return table, ratings


def test_fit_and_loocv_equal_the_reference_copy():
    """Every model and stability report is == the verbatim older code's."""
    table, ratings = _seeded_table()
    th = Thresholds()
    sizes = set()
    for dv in DV_NAMES:
        for session in SESSIONS:
            X, y, names, _ = assemble_design(table, ratings, dv, session, "P")
            got = _fit_standardized(X, y, names, th.entry_p, th.removal_p)
            want = oracles._fit_standardized(X, y, names, th.entry_p, th.removal_p)
            assert got[0] == want[0]
            assert got[1].names == want[1].names
            assert np.array_equal(got[1].mean, want[1].mean)
            assert np.array_equal(got[1].std, want[1].std)
            assert got[2:] == want[2:]
            assert loocv_stability(X, y, names, got[0]) == oracles.loocv_stability(
                X, y, names, want[0]
            )
            sizes.add(len(got[0].predictors))
    assert max(sizes) >= 2


def test_scan_and_ols_stats_equal_the_reference_copy():
    """Bit-equal entry p-values and OLS statistics on random selections.

    Every row of a stack of 1, 7 or 16 folds equals the single-fold call.
    """
    rng = np.random.default_rng(2)
    n, p = 120, 30
    for trial in range(300):
        folds = (1, 7, 16)[trial % 3]
        single = []
        for _ in range(folds):
            Z = rng.standard_normal((n, p))
            zy = Z[:, :3] @ rng.standard_normal(3) + rng.standard_normal(n)
            single.append((Z.T @ Z, Z.T @ zy, float(zy @ zy)))
        G, gy, syy = (np.stack([s[m] for s in single]) for m in range(3))
        selected = [int(j) for j in rng.choice(p, int(rng.integers(0, 8)), replace=False)]
        candidates = np.setdiff1d(np.arange(p), selected)
        hits = _forward_scan(G, gy, syy, n, selected, candidates)
        assert hits == [oracles._forward_scan(*s, n, selected, candidates) for s in single]
        if selected:
            beta, rss, pvals = _ols_stats(G, gy, syy, n, selected)
            for f, s in enumerate(single):
                want = oracles._ols_stats(*s, n, selected)
                assert np.array_equal(beta[f], want[0]) and rss[f] == want[1]
                assert np.array_equal(pvals[f], want[2])


def test_stacked_scan_gives_no_entrant_only_to_a_singular_fold():
    rng = np.random.default_rng(4)
    n, p = 60, 8
    single = []
    for f in range(7):
        Z = rng.standard_normal((n, p))
        zy = Z[:, :2] @ np.array([1.0, -0.5]) + rng.standard_normal(n)
        G = Z.T @ Z
        if f == 3:
            G[1, :] = G[:, 1] = 0.0  # selected column 1 has no variance
        single.append((G, Z.T @ zy, float(zy @ zy)))
    G, gy, syy = (np.stack([s[m] for s in single]) for m in range(3))
    selected, candidates = [0, 1], np.arange(2, p)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(G[:, :2, :2], gy[:, :2, None])  # one fold fails the stacked call
    hits = _forward_scan(G, gy, syy, n, selected, candidates)
    assert hits == [oracles._forward_scan(*s, n, selected, candidates) for s in single]
    assert [hit is None for hit in hits] == [f == 3 for f in range(7)]


# LOOCV edge cases, each run with blocks of 1 and 7 folds and at the
# default block size, against the reference copy's fold-by-fold loop.
FOLDS_PER_BLOCK = pytest.mark.parametrize("folds_per_block", [1, 7, None])


def _set_folds_per_block(monkeypatch, X, folds_per_block):
    if folds_per_block is not None:
        n, p = X.shape
        nbytes = 8 * p * (n - 1 + p) * folds_per_block
        monkeypatch.setattr(regression, "LOOCV_BLOCK_BYTES", nbytes)


def _edge_design(n=40, p=6, seed=24):
    rng = np.random.default_rng(seed)
    X = 5.0 + rng.standard_normal((n, p)) * np.linspace(0.5, 4.0, p)
    signal = (X[:, 0] - 5.0) / 0.5 + 0.3 * (X[:, 1] - 5.0) / 1.2
    y = np.clip(np.round(4.0 + 1.5 * signal + 0.8 * rng.standard_normal(n)), 1, 7)
    return X, y, [f"x{j + 1}" for j in range(p)]


@FOLDS_PER_BLOCK
def test_loocv_folds_that_keep_different_columns(monkeypatch, folds_per_block):
    X, y, names = _edge_design()
    X[:, 2] = 2.0
    X[7, 2] = 3.0  # constant in fold 7 only
    X[:, 4] = -1.0
    X[30, 4] = 0.0  # constant in fold 30 only
    # constant in every fold: a fold that kept these would enter a predictor
    # only at a 24-candidate Bonferroni bound, not a 5- or 6-candidate one
    X = np.column_stack([X, np.ones((40, 18))])
    names += [f"c{j + 1}" for j in range(18)]
    overall = _fit_standardized(X, y, names, 0.05, 0.10)[0]
    _set_folds_per_block(monkeypatch, X, folds_per_block)
    got = loocv_stability(X, y, names, overall)
    assert got == oracles.loocv_stability(X, y, names, overall)
    assert got.fraction_identical > 0.5


@FOLDS_PER_BLOCK
def test_loocv_skips_a_fold_with_constant_ratings(monkeypatch, folds_per_block):
    X, y, names = _edge_design()
    y[:] = 4.0
    y[11] = 7.0  # fold 11 has only 4s left
    overall = _fit_standardized(X, y, names, 0.05, 0.10)[0]
    _set_folds_per_block(monkeypatch, X, folds_per_block)
    assert loocv_stability(X, y, names, overall) == oracles.loocv_stability(
        X, y, names, overall
    )


@FOLDS_PER_BLOCK
def test_loocv_standardizes_a_tiny_scale_column_again(monkeypatch, folds_per_block):
    X, y, names = _edge_design()
    X[:, 0] = 1e-170 * (X[:, 0] - 5.0)
    assert np.std(X[:, 0], ddof=1) == 0.0
    overall = _fit_standardized(X, y, names, 0.05, 0.10)[0]
    assert "x1" in overall.predictors
    # The reference copy predates zscore_fit's re-measure of such columns and
    # drops them; run its fold loop on the package's single-fold fit instead.
    monkeypatch.setattr(oracles, "_fit_standardized", _fit_standardized)
    _set_folds_per_block(monkeypatch, X, folds_per_block)
    got = loocv_stability(X, y, names, overall)
    assert got == oracles.loocv_stability(X, y, names, overall)
    assert got.fraction_identical > 0.5


@FOLDS_PER_BLOCK
def test_loocv_of_four_rows_refits_no_fold(monkeypatch, folds_per_block):
    X, y, names = _edge_design(n=4)
    y = np.array([2.0, 5.0, 3.0, 6.0])
    overall = RegressionModel(predictors=(), betas=(), train_r=0.0)
    _set_folds_per_block(monkeypatch, X, folds_per_block)
    got = loocv_stability(X, y, names, overall)
    assert got == oracles.loocv_stability(X, y, names, overall)
    assert (got.n_folds, got.fraction_identical, got.r_loocv) == (4, 0.0, 0.0)


@FOLDS_PER_BLOCK
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_loocv_raises_a_fold_constant_column_error(monkeypatch, folds_per_block):
    X, y, names = _edge_design()
    X[0, 3] = 1e160  # its squared deviation overflows in every fold but fold 0
    overall = RegressionModel(predictors=("x1",), betas=(0.8,), train_r=0.8)
    _set_folds_per_block(monkeypatch, X, folds_per_block)
    with pytest.raises(ConstantColumnError) as want:
        oracles.loocv_stability(X, y, names, overall)
    with pytest.raises(ConstantColumnError) as got:
        loocv_stability(X, y, names, overall)
    assert str(got.value) == str(want.value) == "column 'x4' has zero variance"


def test_loocv_rejects_a_nan():
    X, y, names = _edge_design()
    overall = _fit_standardized(X, y, names, 0.05, 0.10)[0]
    y[5] = np.nan
    with pytest.raises(InputError, match="finite"):
        loocv_stability(X, y, names, overall)
    y[5] = 4.0
    X[9, 1] = np.nan
    with pytest.raises(InputError, match="finite"):
        loocv_stability(X, y, names, overall)


@pytest.mark.parametrize("n_speakers", [150, 600])
def test_loocv_working_memory_stays_within_its_block(n_speakers):
    rng = np.random.default_rng(n_speakers)
    X = rng.standard_normal((n_speakers, 30))
    y = np.clip(np.round(4.0 + 1.5 * X[:, 0] + 0.8 * rng.standard_normal(n_speakers)), 1, 7)
    overall = _fit_standardized(X, y, NAMES30, 0.05, 0.10)[0]
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        loocv_stability(X, y, NAMES30, overall)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - start < regression.LOOCV_BLOCK_BYTES * 1.25


def test_direct_p_values_equal_scipy_stats():
    """fdtrc/stdtr are what f.sf/t.sf compute; a scipy that changes that shows here."""
    x = np.concatenate(([0.0], np.logspace(-10, 4, 600), [1e8]))
    for df in (1, 2, 3, 5, 10, 26, 47, 100, 197, 1000, 10**6):
        assert np.array_equal(fdtrc(1, df, x), f_dist.sf(x, 1, df))
        assert np.array_equal(stdtr(df, -x), t_dist.sf(x, df))


def test_loocv_needs_three_rows():
    with pytest.raises(InsufficientDataError):
        loocv_stability(
            np.zeros((2, 3)),
            np.zeros(2),
            ["a", "b", "c"],
            RegressionModel(predictors=(), betas=(), train_r=0.0),
        )


# ------------------------------------------------------- rating plumbing


def test_rating_table_validation():
    t = RatingTable()
    t.add("A", "cooperative", "P", 5)
    with pytest.raises(DuplicateKeyError):
        t.add("A", "cooperative", "P", 4)
    with pytest.raises(InputError):
        t.add("A", "cooperative", "X", 4)
    with pytest.raises(InputError):
        t.add("B", "cooperative", "P", 8)
    with pytest.raises(InputError):
        t.add("B", "cooperative", "P", 4.5)
    with pytest.raises(InputError):
        t.add("B", "cooperativ", "P", 4)
    assert t.get("A", "cooperative", "P") == 5
    assert t.get("A", "cooperative", "SA") is None


def test_ratings_csv_round_trip(tmp_path):
    t = RatingTable()
    t.add("A", "cooperative", "P", 5)
    t.add("A", "hesitant", "SA", 2)
    path = str(tmp_path / "r.csv")
    write_ratings_csv(path, t)
    back = read_ratings_csv(path)
    assert back.ratings == t.ratings

    bad = tmp_path / "bad.csv"
    bad.write_text("speaker,dv,rater,rating\n")
    with pytest.raises(TableFormatError):
        read_ratings_csv(str(bad))
    bad.write_text("speaker_id,dv,rater_type,rating\nA,cooperative,P,high\n")
    with pytest.raises(TableFormatError):
        read_ratings_csv(str(bad))
    with pytest.raises(InputError):
        read_ratings_csv(str(tmp_path / "absent.csv"))


# ------------------------------------------------- design-matrix assembly


def _vector(valmap):
    return FeatureVector(valmap)


def _toy_problem(n=12, seed=3, absent=()):
    """Feature table with six live descriptors; `absent` = (speaker, name)."""
    rng = np.random.default_rng(seed)
    live = ["spkrate", "mean_pause", "f0_mean", "f1", "cep1", "cep2"]
    table = FeatureTable()
    ratings = RatingTable()
    for i in range(n):
        sid = f"sp{i:02d}"
        vals = {}
        for k, name in enumerate(live):
            vals[name] = float(rng.standard_normal() + k)
        for s_name in ("S1", "S2"):
            row = dict(vals)
            if s_name == "S2":
                row = {k: v + 0.1 for k, v in row.items()}
            for a_sid, a_name in absent:
                if a_sid == sid:
                    row[a_name] = None
            table.add(sid, s_name, _vector(row))
        rating = int(np.clip(round(4 + 1.5 * (vals["spkrate"] - 0.0)), 1, 7))
        ratings.add(sid, "cooperative", "P", rating)
    return table, ratings, live


def test_assemble_design_drops_columns_then_rows():
    # f1 absent for 3 of 12 speakers (25% > 10%): column dropped.
    # cep2 absent for 1 of 12 (8.3% <= 10%): kept, that row goes listwise.
    absent = [("sp00", "f1"), ("sp01", "f1"), ("sp02", "f1"), ("sp03", "cep2")]
    table, ratings, live = _toy_problem(absent=absent)
    X, y, names, used = assemble_design(table, ratings, "cooperative", "S1", "P")
    assert "f1" not in names
    assert "cep2" in names
    assert "sp03" not in used
    assert X.shape == (11, len(live) - 1)
    assert y.size == 11


def test_assemble_design_requires_rated_speakers():
    table, _, _ = _toy_problem()
    with pytest.raises(InsufficientDataError):
        assemble_design(table, RatingTable(), "cooperative", "S1", "P")


# ------------------------------------------------------ train / evaluate


def test_train_rejects_self_assessment():
    table, ratings, _ = _toy_problem()
    with pytest.raises(InputError):
        train_model(table, ratings, "cooperative", "S1", rater_type="SA")


def test_train_model_fields_and_self_evaluation_identity():
    table, ratings, _ = _toy_problem()
    model = train_model(table, ratings, "cooperative", "S1")
    assert model.dv == "cooperative"
    assert model.session == "S1"
    assert model.predictors  # the rating was built from spkrate
    assert "spkrate" in model.predictors
    assert model.stability is not None
    assert model.stability.n_folds == 12
    assert "cooperative" in model.standardization  # rating scale stored too
    for name in model.predictors:
        assert name in model.standardization

    # scoring the training session reproduces the training correlation
    r_self = cross_session_eval(model, table, ratings, "S1")
    assert r_self == pytest.approx(model.train_r, abs=1e-9)


def test_cross_session_eval_sign_flip():
    table, ratings, _ = _toy_problem()
    model = train_model(table, ratings, "cooperative", "S1")
    flipped = RatingTable()
    for (sid, dv, rt), val in ratings.ratings.items():
        flipped.add(sid, dv, rt, 8 - val)
    r = cross_session_eval(model, table, ratings, "S2")
    r_flip = cross_session_eval(model, table, flipped, "S2")
    assert r_flip == pytest.approx(-r, abs=1e-12)


def test_cross_session_eval_guards():
    table, ratings, _ = _toy_problem(n=4)
    # n=4 leaves 3-row folds that cannot be refit; they count as degenerate
    model = train_model(table, ratings, "cooperative", "S1")
    assert model.stability.stable is False
    empty = RegressionModel(predictors=(), betas=(), train_r=0.0, dv="cooperative")
    assert cross_session_eval(empty, table, ratings, "S2") == 0.0
    few = RatingTable()
    few.add("sp00", "cooperative", "P", 4)
    few.add("sp01", "cooperative", "P", 5)
    with pytest.raises(InsufficientDataError):
        cross_session_eval(model, table, few, "S2")


def test_constant_rating_rejected():
    table, _, _ = _toy_problem()
    flat = RatingTable()
    for i in range(12):
        flat.add(f"sp{i:02d}", "cooperative", "P", 4)
    with pytest.raises(ConstantColumnError):
        train_model(table, flat, "cooperative", "S1")


def test_model_json_round_trip(tmp_path):
    table, ratings, _ = _toy_problem()
    model = train_model(
        table, ratings, "cooperative", "S1", thresholds=Thresholds(entry_p=0.01)
    )
    path = str(tmp_path / "model.json")
    save_model(path, model)
    back = load_model(path)
    assert back == model

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(TableFormatError):
        load_model(str(bad))
    bad.write_text('{"train_r": 0.5}')
    with pytest.raises(TableFormatError):
        load_model(str(bad))
    with pytest.raises(InputError):
        load_model(str(tmp_path / "absent.json"))


def test_predict_z_shape_check():
    model = RegressionModel(predictors=("a", "b"), betas=(0.5, -0.5), train_r=0.9)
    out = model.predict_z(np.array([1.0, 1.0]))
    assert out.shape == (1,)
    assert out[0] == pytest.approx(0.0)
    with pytest.raises(InputError):
        model.predict_z(np.zeros((2, 3)))
