"""Topic-shift statistics: paired tests, arrow matrices, transition vectors.

Directions always describe movement from the earlier session to the later
one: "up" means the later mean is higher. Significance is reported in two
tiers, p < .01 and p < .05; tier membership nests (a p < .01 result is also
significant at .05).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr
from scipy.stats import rankdata
from scipy.stats import t as t_dist

from .config import RunConfig
from .csvio import read_csv, write_csv
from .errors import (
    AllZeroDifferencesError,
    InputError,
    InsufficientDataError,
    StatsError,
    TableFormatError,
    ZeroVarianceError,
    ZeroVectorError,
)
from .features import FEATURE_NAMES, FEATURE_SET, FeatureTable
from .regression import _rescaled_std

TRANSITIONS: tuple[str, ...] = ("1->2", "1->3", "2->3")
_TRANSITION_SESSIONS = {"1->2": ("S1", "S2"), "1->3": ("S1", "S3"), "2->3": ("S2", "S3")}
TESTS: tuple[str, ...] = ("t", "W")
TIERS: tuple[str, ...] = ("p01", "p05", "none")
DIRECTIONS: tuple[str, ...] = ("up", "down", "none")

# Largest n for which the signed-rank null distribution is enumerated
# exactly; beyond this the normal approximation takes over.
EXACT_WILCOXON_MAX_N = 25


@dataclass(frozen=True)
class PairedTestResult:
    statistic: float
    p_value: float
    n_pairs: int
    direction: str
    feature: str = ""


def _paired_arrays(a, b) -> tuple[np.ndarray, np.ndarray]:
    xa = np.asarray(a, dtype=np.float64)  # None reads as NaN
    xb = np.asarray(b, dtype=np.float64)
    if xa.ndim != 1 or xa.shape != xb.shape:
        raise InputError("paired samples must be 1-D and of equal length")
    keep = ~(np.isnan(xa) | np.isnan(xb))
    return xa[keep], xb[keep]


def paired_t_test(a, b, alpha: float = max(RunConfig.alphas)) -> PairedTestResult:
    """Two-sided paired t-test on differences d = b - a.

    t = mean(d) / (sd(d) / sqrt(n)) with the sample sd, p from Student's t
    with n-1 degrees of freedom. Pairs with a missing side are dropped.
    """
    xa, xb = _paired_arrays(a, b)
    n = xa.size
    if n < 2:
        raise InsufficientDataError(f"paired t-test needs >= 2 pairs, got {n}")
    d = xb - xa
    # max == min is the exact constant test: the sd of a constant shift can
    # round to a tiny nonzero value (19 shifts of 0.1 give 1.4e-17)
    if d.max() == d.min():
        raise ZeroVarianceError("paired differences have zero variance")
    sd = float(np.std(d, ddof=1))
    if sd == 0.0:  # squared deviations underflow, as at about 1e-170
        sd = float(_rescaled_std(d))
    mean = float(np.mean(d))
    t = mean / (sd / math.sqrt(n))
    p = 2.0 * float(t_dist.sf(abs(t), n - 1))
    direction = "none"
    if p < alpha:
        direction = "up" if mean > 0 else "down"
    return PairedTestResult(statistic=t, p_value=min(p, 1.0), n_pairs=n, direction=direction)


def _signed_rank_parts(d: np.ndarray) -> tuple[np.ndarray, float]:
    """(average ranks of |d|, W+ = rank sum over positive d)."""
    ranks = rankdata(np.abs(d))
    w_plus = float(np.sum(ranks[d > 0]))
    return ranks, w_plus


def exact_signed_rank_p(ranks: np.ndarray, w_plus: float) -> float:
    """Exact two-sided p over all 2^n equally likely sign assignments.

    Works on doubled ranks so ties (half-integer average ranks) stay in
    integer arithmetic. p = P(|W+ - mu| >= |w_obs - mu|) with mu the null
    mean sum(ranks)/2; computed from the exact rank-sum distribution, which
    equals enumerating every sign assignment.
    """
    doubled = np.rint(2.0 * np.asarray(ranks)).astype(np.int64)
    total = int(doubled.sum())
    counts = np.zeros(total + 1)
    counts[0] = 1.0
    for r in doubled:
        nxt = counts.copy()
        nxt[r:] += counts[: counts.size - r]
        counts = nxt
    w2 = int(round(2.0 * w_plus))
    dev = abs(2 * w2 - total)  # 2 * |w2 - total/2| in integers
    sums = np.arange(total + 1)
    tail = counts[np.abs(2 * sums - total) >= dev].sum()
    return float(tail / 2.0 ** len(doubled))


def wilcoxon_signed_rank(a, b, alpha: float = max(RunConfig.alphas)) -> PairedTestResult:
    """Two-sided Wilcoxon signed-rank test on differences d = b - a.

    Zero differences are dropped; ties in |d| get average ranks. The
    statistic is W+, the rank sum over positive differences. For n <= 25
    the p-value is exact over all sign assignments; above that a normal
    approximation with continuity and tie corrections is used.
    """
    xa, xb = _paired_arrays(a, b)
    d = xb - xa
    d = d[d != 0.0]
    n = d.size
    if n == 0:
        raise AllZeroDifferencesError("all paired differences are zero")
    ranks, w_plus = _signed_rank_parts(d)
    mu = n * (n + 1) / 4.0
    if n <= EXACT_WILCOXON_MAX_N:
        p = exact_signed_rank_p(ranks, w_plus)
    else:
        _, tie_counts = np.unique(ranks, return_counts=True)
        tie_term = float(np.sum(tie_counts**3 - tie_counts)) / 48.0
        sigma2 = n * (n + 1) * (2 * n + 1) / 24.0 - tie_term
        num = w_plus - mu
        if num == 0 or sigma2 <= 0:
            p = 1.0
        else:
            z = (abs(num) - 0.5) / math.sqrt(sigma2)
            p = 2.0 * float(ndtr(-z))
    p = min(p, 1.0)
    direction = "none"
    if p < alpha:
        direction = "up" if w_plus > mu else "down"
    return PairedTestResult(statistic=w_plus, p_value=p, n_pairs=n, direction=direction)


@dataclass(frozen=True)
class MatrixCell:
    direction: str
    tier: str
    p_value: float | None = None
    n_pairs: int = 0


@dataclass(frozen=True)
class SignificanceMatrix:
    """direction/tier per (feature, transition, test)."""

    features: tuple[str, ...]
    tests: tuple[str, ...]
    cells: dict[tuple[str, str, str], MatrixCell]

    def cell(self, feature: str, transition: str, test: str) -> MatrixCell:
        return self.cells[(feature, transition, test)]

    @staticmethod
    def merge(first: "SignificanceMatrix", second: "SignificanceMatrix") -> "SignificanceMatrix":
        if first.features != second.features:
            raise InputError("cannot merge matrices over different features")
        tests = tuple(dict.fromkeys(first.tests + second.tests))
        cells = dict(first.cells)
        cells.update(second.cells)
        return SignificanceMatrix(first.features, tests, cells)


def _tier(p: float, alphas: tuple[float, float]) -> str:
    lo, hi = min(alphas), max(alphas)
    if p < lo:
        return "p01"
    if p < hi:
        return "p05"
    return "none"


def significance_matrix(
    table: FeatureTable,
    test: str,
    alphas: tuple[float, float] = RunConfig.alphas,
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
        pairs = [(table.get(s, sess_a), table.get(s, sess_b)) for s in table.speakers()]
        pairs = [(fa, fb) for fa, fb in pairs if fa is not None and fb is not None]
        if len(pairs) < 2:
            raise InsufficientDataError(
                f"transition {transition}: need >= 2 speakers with both sessions"
            )
        A = np.array([fa.as_array() for fa, _ in pairs])  # speakers x features
        B = np.array([fb.as_array() for _, fb in pairs])
        for j, feature in enumerate(FEATURE_NAMES):
            try:
                res = test_fn(A[:, j], B[:, j], alpha=max(alphas))
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


@dataclass(frozen=True)
class TransitionVector:
    """Signed significance codes over the fixed feature order."""

    transition: str
    alpha: float
    test: str
    codes: np.ndarray

    def __post_init__(self) -> None:
        codes = np.asarray(self.codes, dtype=np.int64)
        if codes.shape != (len(FEATURE_NAMES),):
            raise InputError("transition vector must cover all features")
        if not np.all(np.isin(codes, (-1, 0, 1))):
            raise InputError("transition vector codes must be -1, 0 or +1")
        codes.setflags(write=False)
        object.__setattr__(self, "codes", codes)


def transition_vector(
    matrix: SignificanceMatrix,
    transition: str,
    alpha: float,
    test: str = "W",
) -> TransitionVector:
    """{-1, 0, +1} codes: +-1 where the cell is significant at alpha.

    At alpha = .01 only p01 cells count; at .05 both tiers count.
    """
    if transition not in TRANSITIONS:
        raise InputError(f"transition must be one of {TRANSITIONS}")
    if test not in matrix.tests:
        raise InputError(f"matrix does not cover test {test!r}")
    admissible = ("p01",) if alpha <= 0.01 else ("p01", "p05")
    codes = []
    for feature in matrix.features:
        cell = matrix.cell(feature, transition, test)
        if cell.tier in admissible and cell.direction != "none":
            codes.append(1 if cell.direction == "up" else -1)
        else:
            codes.append(0)
    return TransitionVector(
        transition=transition, alpha=alpha, test=test, codes=np.asarray(codes)
    )


def cosine_similarity(u: TransitionVector, v: TransitionVector) -> float:
    """cos = <u, v> / (|u| |v|); rejects zero vectors."""
    cu = u.codes.astype(np.float64)
    cv = v.codes.astype(np.float64)
    nu = float(np.linalg.norm(cu))
    nv = float(np.linalg.norm(cv))
    if nu == 0.0 or nv == 0.0:
        raise ZeroVectorError("cosine similarity undefined for a zero vector")
    return float(np.dot(cu, cv) / (nu * nv))


def write_matrix_csv(path: str, matrix: SignificanceMatrix) -> None:
    """feature,transition,test,direction,tier rows in canonical order."""
    rows = []
    for feature in matrix.features:
        for transition in TRANSITIONS:
            for test in matrix.tests:
                cell = matrix.cell(feature, transition, test)
                rows.append([feature, transition, test, cell.direction, cell.tier])
    write_csv(path, ["feature", "transition", "test", "direction", "tier"], rows)


def read_matrix_csv(path: str) -> SignificanceMatrix:
    cells: dict[tuple[str, str, str], MatrixCell] = {}
    tests: list[str] = []

    def parse(line: int, row: list[str]) -> None:
        feature, transition, test, direction, tier = row
        if feature not in FEATURE_SET or transition not in TRANSITIONS:
            raise TableFormatError("unknown feature/transition")
        if test not in TESTS or direction not in DIRECTIONS or tier not in TIERS:
            raise TableFormatError("unknown test/direction/tier")
        if (direction == "none") != (tier == "none"):
            raise TableFormatError("direction and tier must be none together")
        cells[(feature, transition, test)] = MatrixCell(direction, tier)
        if test not in tests:
            tests.append(test)

    read_csv(path, ["feature", "transition", "test", "direction", "tier"], parse)
    for feature in FEATURE_NAMES:
        for transition in TRANSITIONS:
            for test in tests:
                if (feature, transition, test) not in cells:
                    raise TableFormatError(f"{path}: missing cell {(feature, transition, test)}")
    return SignificanceMatrix(features=FEATURE_NAMES, tests=tuple(tests), cells=cells)
