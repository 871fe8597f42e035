"""Paired tests against independent oracles, plus matrix and vector logic."""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import brute_force_signed_rank_p, t_sf
from voxtrait import stats
from voxtrait.errors import (
    AllZeroDifferencesError,
    InputError,
    InsufficientDataError,
    ZeroVarianceError,
    ZeroVectorError,
)
from voxtrait.features import FEATURE_NAMES, FeatureTable, FeatureVector
from voxtrait.stats import (
    EXACT_WILCOXON_MAX_N,
    TESTS,
    TRANSITIONS,
    SignificanceMatrix,
    cosine_similarity,
    exact_signed_rank_p,
    paired_t_test,
    read_matrix_csv,
    significance_matrix,
    transition_vector,
    wilcoxon_signed_rank,
    write_matrix_csv,
)


# ---------------------------------------------------------------- paired t


def test_t_on_unit_steps():
    """d = [1,2,3]: mean 2, sd 1, t = 2/(1/sqrt(3)) = 3.4641."""
    res = paired_t_test([0, 0, 0], [1, 2, 3])
    assert res.statistic == pytest.approx(2.0 * math.sqrt(3.0), abs=1e-4)
    assert res.p_value == pytest.approx(2.0 * t_sf(res.statistic, 2), abs=1e-9)
    assert res.p_value == pytest.approx(0.0742, abs=1e-3)
    assert res.n_pairs == 3
    assert res.direction == "none"  # 0.0742 is not significant at .05


def test_t_p_matches_quadrature_oracle():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(3, 15))
        a = rng.normal(size=n)
        b = a + rng.normal(0.3, 1.0, size=n)
        if float(np.std(b - a, ddof=1)) == 0.0:
            continue
        res = paired_t_test(a, b)
        assert res.p_value == pytest.approx(2.0 * t_sf(abs(res.statistic), n - 1), abs=1e-8)


def test_t_direction_follows_alpha():
    res = paired_t_test([0, 0, 0], [1, 2, 3], alpha=0.10)
    assert res.direction == "up"
    res = paired_t_test([1, 2, 3], [0, 0, 0], alpha=0.10)
    assert res.direction == "down"


def test_t_sign_antisymmetry():
    a = [1.0, 4.0, 2.0, 5.0]
    b = [2.0, 5.0, 4.0, 9.0]
    fwd = paired_t_test(a, b)
    rev = paired_t_test(b, a)
    assert fwd.statistic == pytest.approx(-rev.statistic)
    assert fwd.p_value == pytest.approx(rev.p_value)


def test_t_drops_missing_pairs():
    res = paired_t_test([1.0, None, 2.0, 3.0], [2.0, 5.0, None, 7.0])
    assert res.n_pairs == 2


def test_t_errors():
    with pytest.raises(InsufficientDataError):
        paired_t_test([1.0], [2.0])
    with pytest.raises(ZeroVarianceError):
        paired_t_test([0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
    with pytest.raises(InputError):
        paired_t_test([1.0, 2.0], [1.0])


@pytest.mark.parametrize("shift", [0.5, 0.1, -0.3, 1e-170])
def test_t_rejects_a_constant_shift_however_its_sd_rounds(shift):
    # every pair moves by the same amount, so t is undefined; the sample sd
    # of 19 shifts of 0.1 rounds to 1.4e-17, which gave t = 3.1e16
    a = np.zeros(19)
    with pytest.raises(ZeroVarianceError):
        paired_t_test(a, a + shift)


def test_t_of_differences_at_1e_170_scale_equals_the_unscaled_t():
    # the squared deviations underflow, so np.std reads 0.0 for differences
    # that vary; t does not depend on scale
    a = np.zeros(19)
    d = np.arange(19.0)
    assert np.std(1e-170 * d, ddof=1) == 0.0
    tiny = paired_t_test(a, 1e-170 * d)
    assert tiny.statistic == pytest.approx(paired_t_test(a, d).statistic, rel=1e-12)


@pytest.mark.parametrize(
    "a,b", [(1.0, 2.0), ([[1.0, 2.0, 3.0]], [[2.0, 4.0, 5.0]]), (np.ones((3, 1)), np.ones((3, 1)))]
)
def test_paired_tests_reject_input_that_is_not_1d(a, b):
    for test_fn in (paired_t_test, wilcoxon_signed_rank):
        with pytest.raises(InputError):
            test_fn(a, b)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.none() | st.floats(-1e6, 1e6) | st.integers(-1000, 1000),
            st.none() | st.floats(-1e6, 1e6) | st.integers(-1000, 1000),
        ),
        max_size=12,
    )
)
def test_paired_arrays_equal_the_reference_copy(pairs):
    a = [p[0] for p in pairs]
    b = [p[1] for p in pairs]
    for got, want in zip(stats._paired_arrays(a, b), oracles._paired_arrays(a, b)):
        assert got.dtype == want.dtype and np.array_equal(got, want)


# ---------------------------------------------------------- signed rank


def test_wilcoxon_tied_ranks_frozen():
    # |d| = [1,1,2,2] -> average ranks [1.5,1.5,3.5,3.5]; positives hold
    # ranks 1.5 and 3.5, so W+ = 5 and the split is dead even: p = 1.
    res = wilcoxon_signed_rank([0, 0, 0, 0], [1, -1, 2, -2])
    assert res.statistic == pytest.approx(5.0)
    assert res.p_value == pytest.approx(1.0)


def test_wilcoxon_all_positive_five():
    res = wilcoxon_signed_rank([0] * 5, [1, 2, 3, 4, 5])
    assert res.statistic == pytest.approx(15.0)
    assert res.p_value == pytest.approx(2.0 / 32.0)


def test_wilcoxon_matches_enumeration():
    """Exact p equals literal sign enumeration on random small samples."""
    rng = np.random.default_rng(23)
    for _ in range(60):
        n = int(rng.integers(2, 13))
        d = rng.integers(-6, 7, size=n).astype(float)
        d[d == 0.0] = 1.0
        w_ref, p_ref = brute_force_signed_rank_p(d)
        res = wilcoxon_signed_rank(np.zeros(n), d)
        assert res.statistic == pytest.approx(w_ref)
        assert res.p_value == pytest.approx(p_ref, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.integers(min_value=-9, max_value=9).filter(lambda v: v != 0),
        min_size=1,
        max_size=10,
    )
)
def test_wilcoxon_enumeration_property(diffs):
    # small integer differences force tied |d| ranks far more often than
    # continuous draws, and shrinking finds minimal counterexamples
    d = [float(v) for v in diffs]
    w_ref, p_ref = brute_force_signed_rank_p(d)
    res = wilcoxon_signed_rank([0.0] * len(d), d)
    assert res.statistic == w_ref
    assert res.p_value == p_ref


def test_wilcoxon_drops_zero_differences():
    res = wilcoxon_signed_rank([1.0, 2.0, 3.0, 4.0], [1.0, 5.0, 1.0, 9.0])
    assert res.n_pairs == 3


def test_wilcoxon_all_zero_differences():
    with pytest.raises(AllZeroDifferencesError):
        wilcoxon_signed_rank([1.0, 2.0], [1.0, 2.0])


def test_wilcoxon_positive_affine_invariance():
    d = [3.0, -1.0, 4.0, 1.5, -5.0, 2.0, 6.0]
    base = wilcoxon_signed_rank([0.0] * 7, d)
    scaled = wilcoxon_signed_rank([10.0] * 7, [10.0 + 2.5 * v for v in d])
    assert scaled.p_value == pytest.approx(base.p_value)
    assert scaled.statistic == pytest.approx(base.statistic)


def test_wilcoxon_normal_approx_continuity():
    """Just past the exact cutoff the approximation stays near the exact DP."""
    rng = np.random.default_rng(5)
    n = EXACT_WILCOXON_MAX_N + 1
    d = rng.normal(0.4, 1.0, size=n)
    d[d == 0.0] = 0.1
    res = wilcoxon_signed_rank(np.zeros(n), d)
    ranks = np.argsort(np.argsort(np.abs(d))) + 1.0  # distinct values, plain ranks
    p_exact = exact_signed_rank_p(ranks, float(np.sum(ranks[d > 0])))
    assert res.p_value == pytest.approx(p_exact, abs=0.01)


# ------------------------------------------------- matrices and vectors

# Differences frozen so the tiers land where the tests need them:
# all-positive unit steps reach p < .01 for both tests at n = 12, while
# these two sit in the .01 <= p < .05 band for t and W respectively.
_D_T_BAND = [1.0, 2.0, -0.5, 1.5, 0.5, 2.5, -1.0, 1.0, 2.0, 0.5, 1.5, -0.5]
_D_W_BAND = [3.0, 1.0, 4.0, 1.5, 5.0, -2.0, 2.5, 6.0, -3.5, 3.75, 4.5, 0.75]


def _planted_table() -> FeatureTable:
    rng = np.random.default_rng(99)
    n = 12
    base = {name: rng.uniform(1.0, 2.0, size=n) for name in FEATURE_NAMES}
    base["b1"] = np.full(n, 1.5)  # constant: degenerate cell
    table = FeatureTable()
    for i in range(n):
        s1 = {name: float(base[name][i]) for name in FEATURE_NAMES}
        s2 = dict(s1)
        s2["spkrate"] = s1["spkrate"] + 5.0 + 0.1 * i  # strong shift up
        s2["f1"] = s1["f1"] - 5.0 - 0.1 * i  # strong shift down
        s2["cep1"] = s1["cep1"] + _D_T_BAND[i]
        s2["cep2"] = s1["cep2"] + _D_W_BAND[i]
        s3 = dict(s1)  # identical to S1: 1->3 shows nothing
        sid = f"sp{i:02d}"
        table.add(sid, "S1", FeatureVector(s1))
        table.add(sid, "S2", FeatureVector(s2))
        table.add(sid, "S3", FeatureVector(s3))
    return table


def test_matrix_tiers_and_directions():
    table = _planted_table()
    mt = significance_matrix(table, "t")
    mw = significance_matrix(table, "W")
    for m in (mt, mw):
        assert m.cell("spkrate", "1->2", m.tests[0]).tier == "p01"
        assert m.cell("spkrate", "1->2", m.tests[0]).direction == "up"
        assert m.cell("f1", "1->2", m.tests[0]).tier == "p01"
        assert m.cell("f1", "1->2", m.tests[0]).direction == "down"
        # S3 duplicates S1, so the 1->3 column is everywhere dark
        for feature in FEATURE_NAMES:
            assert m.cell(feature, "1->3", m.tests[0]).tier == "none"
        assert m.cell("b1", "1->2", m.tests[0]).tier == "none"
    assert mt.cell("cep1", "1->2", "t").tier == "p05"
    assert mw.cell("cep2", "1->2", "W").tier == "p05"
    # 2->3 mirrors 1->2 with the direction flipped
    assert mt.cell("spkrate", "2->3", "t").direction == "down"
    assert mw.cell("f1", "2->3", "W").direction == "up"


def test_wilcoxon_arrow_follows_the_signed_ranks_not_the_mean_shift():
    # 19 differences of +1 and one of -30: W+ = 190 of 210, so the test says
    # "up" at p = 0.00037 while the mean shift is -0.55
    diffs = [1.0] * 19 + [-30.0]
    table = FeatureTable()
    for i, d in enumerate(diffs):
        s1 = {name: 10.0 + 0.1 * i for name in FEATURE_NAMES}
        s2 = dict(s1, spkrate=s1["spkrate"] + d)
        table.add(f"sp{i:02d}", "S1", FeatureVector(s1))
        table.add(f"sp{i:02d}", "S2", FeatureVector(s2))
        table.add(f"sp{i:02d}", "S3", FeatureVector(s2))
    res = wilcoxon_signed_rank(np.zeros(20), diffs)
    assert res.direction == "up" and res.p_value < 0.001
    matrix = significance_matrix(table, "W")
    for transition in ("1->2", "1->3"):
        cell = matrix.cell("spkrate", transition, "W")
        assert (cell.direction, cell.tier) == ("up", "p01")


def _make_table(seed):
    path = Path(__file__).resolve().parent.parent / "benchmarks" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads_for_stats", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.make_table(seed)[0]


def _with_holes(table):
    """Every 7th cell absent, every 13th speaker without S2, one flat descriptor."""
    holed = FeatureTable()
    for k, row in enumerate(table.rows):
        if row.session == "S2" and k % 39 == 1:
            continue
        values = {
            name: None if (k * 5 + j) % 7 == 0 else v
            for j, (name, v) in enumerate(row.features.values.items())
        }
        values["b1"] = 2.0  # all-zero differences: a degenerate cell
        holed.add(row.speaker_id, row.session, FeatureVector(values))
    return holed


@pytest.mark.parametrize("seed,holes", [(7, False), (11, False), (3, True)])
def test_significance_matrix_equals_the_reference_copy(monkeypatch, seed, holes):
    """Every cell, p-value included, is == the per-feature-lookup code's."""
    table = _make_table(seed)
    if holes:
        table = _with_holes(table)
    for test in TESTS:
        got = significance_matrix(table, test)
        with monkeypatch.context() as m:
            m.setattr(stats, "_paired_arrays", oracles._paired_arrays)
            want = oracles.significance_matrix(table, test)
        assert list(got.cells.items()) == list(want.cells.items())
        assert (got.features, got.tests) == (want.features, want.tests)
        assert any(cell.tier != "none" for cell in got.cells.values())
        if holes:
            assert got.cell("b1", "1->2", test).p_value is None


def test_matrix_rejects_missing_transition_speakers():
    table = FeatureTable()
    vec = FeatureVector({"spkrate": 1.0})
    table.add("a", "S1", vec)
    table.add("b", "S1", vec)
    table.add("a", "S2", vec)  # only one speaker has both S1 and S2
    with pytest.raises(InsufficientDataError):
        significance_matrix(table, "t")


def test_matrix_bad_test_name():
    with pytest.raises(InputError):
        significance_matrix(_planted_table(), "U")


def test_transition_vector_alpha_gating():
    table = _planted_table()
    mt = significance_matrix(table, "t")
    strict = transition_vector(mt, "1->2", 0.01, "t")
    loose = transition_vector(mt, "1->2", 0.05, "t")
    idx = {name: i for i, name in enumerate(FEATURE_NAMES)}
    assert strict.codes[idx["spkrate"]] == 1
    assert strict.codes[idx["f1"]] == -1
    assert strict.codes[idx["cep1"]] == 0  # p05 cell excluded at .01
    assert loose.codes[idx["cep1"]] == 1
    assert int(np.sum(strict.codes != 0)) == 2
    # p01 cells stay in at the looser alpha: tiers nest
    assert all(
        loose.codes[i] == strict.codes[i]
        for i in range(len(FEATURE_NAMES))
        if strict.codes[i] != 0
    )


def test_transition_vector_validation():
    table = _planted_table()
    mt = significance_matrix(table, "t")
    with pytest.raises(InputError):
        transition_vector(mt, "3->1", 0.05, "t")
    with pytest.raises(InputError):
        transition_vector(mt, "1->2", 0.05, "W")  # matrix only covers t


def test_cosine_values():
    table = _planted_table()
    mt = significance_matrix(table, "t")
    v12 = transition_vector(mt, "1->2", 0.01, "t")
    v23 = transition_vector(mt, "2->3", 0.01, "t")
    assert cosine_similarity(v12, v12) == pytest.approx(1.0)
    assert cosine_similarity(v12, v23) == pytest.approx(-1.0)  # exact mirror
    with pytest.raises(ZeroVectorError):
        cosine_similarity(v12, transition_vector(mt, "1->3", 0.01, "t"))


def test_matrix_csv_round_trip(tmp_path):
    table = _planted_table()
    mt = significance_matrix(table, "t")
    path = tmp_path / "arrows.csv"
    write_matrix_csv(str(path), mt)
    back = read_matrix_csv(str(path))
    assert back.tests == ("t",)
    for feature in FEATURE_NAMES:
        for transition in TRANSITIONS:
            a = mt.cell(feature, transition, "t")
            b = back.cell(feature, transition, "t")
            assert (a.direction, a.tier) == (b.direction, b.tier)


def test_matrix_merge_combines_tests():
    table = _planted_table()
    merged = SignificanceMatrix.merge(
        significance_matrix(table, "t"), significance_matrix(table, "W")
    )
    assert merged.tests == ("t", "W")
    assert merged.cell("spkrate", "1->2", "t").tier == "p01"
    assert merged.cell("spkrate", "1->2", "W").tier == "p01"


def test_packaged_arrow_fixture_loads():
    from importlib.resources import files

    path = files("voxtrait").joinpath("data", "reference_arrows.csv")
    matrix = read_matrix_csv(str(path))
    assert matrix.tests == ("t", "W")
    assert len(matrix.cells) == len(FEATURE_NAMES) * 3 * 2
