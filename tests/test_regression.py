"""Stepwise selection, stability gating, training and evaluation plumbing."""

import numpy as np
import pytest
from scipy.special import fdtrc, stdtr
from scipy.stats import f as f_dist
from scipy.stats import t as t_dist

from voxtrait.errors import (
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


# --------------------------------------------------------- stepwise core


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
    """Bit-equal entry p-values and OLS statistics on random selections."""
    rng = np.random.default_rng(2)
    n, p = 120, 30
    for _ in range(300):
        Z = rng.standard_normal((n, p))
        zy = Z[:, :3] @ rng.standard_normal(3) + rng.standard_normal(n)
        G, gy, syy = Z.T @ Z, Z.T @ zy, float(zy @ zy)
        selected = [int(j) for j in rng.choice(p, int(rng.integers(0, 8)), replace=False)]
        candidates = np.setdiff1d(np.arange(p), selected)
        args = (G, gy, syy, n, selected)
        assert _forward_scan(*args, candidates) == oracles._forward_scan(*args, candidates)
        if selected:
            beta, rss, pvals = _ols_stats(*args)
            want = oracles._ols_stats(*args)
            assert np.array_equal(beta, want[0]) and rss == want[1]
            assert np.array_equal(pvals, want[2])


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
