"""Stability-gated stepwise regression from descriptors to ratings.

Fitting happens in standardized space (sample-std z-scores for predictors
and the rating), so coefficients are comparable across descriptors and the
intercept is identically zero. Entry uses a partial F-test with per-step
family-wise control: the best candidate enters only when its p-value stays
under entry_p after a Bonferroni correction for the number of candidates
scanned. Plain min-p entry admits a spurious predictor most of the time
with 30 candidates, which would defeat the whole stability protocol.

A fitted model is only trusted when leave-one-out refits agree with it:
at least min_identical_fraction of folds must select the identical
predictor set and the LOOCV r must hold up against the training r.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Sequence, get_type_hints

import numpy as np
from scipy.special import fdtrc, stdtr

from .config import RunConfig
from .csvio import read_csv, write_csv
from .errors import (
    ConstantColumnError,
    DuplicateKeyError,
    InputError,
    InsufficientDataError,
    TableFormatError,
)
from .features import FEATURE_NAMES, FEATURE_SET, FeatureTable

RATER_TYPES: tuple[str, ...] = ("P", "SA")
DV_NAMES: tuple[str, ...] = (
    "cooperative",
    "practical_solution",
    "serene",
    "hesitant",
    "determined",
    "answered_properly",
    "tremulous",
    "turned_face_aside",
    "breathed_rapidly",
)

_COLLINEAR_TOL = 1e-10
# Bytes one loocv_stability block may take: its folds' training rows,
# standardized in place, and their Gram matrices. Working memory stays
# near this whatever the number of speakers.
LOOCV_BLOCK_BYTES = 2 << 20
# Bytes of squared deviations _column_stats holds at a time.
SPREAD_CHUNK_BYTES = 256 << 10


@dataclass(frozen=True)
class Standardization:
    names: tuple[str, ...]
    mean: np.ndarray
    std: np.ndarray

    def apply(self, X: np.ndarray) -> np.ndarray:
        return (np.asarray(X, dtype=np.float64) - self.mean) / self.std


def _rescaled_std(column: np.ndarray) -> float:
    """Sample std of a column measured after scaling by its largest magnitude."""
    m = np.abs(column).max()
    return m * (column / m).std(ddof=1)


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
    # np.std's own arithmetic, a chunk of folds at a time: the squared
    # deviations from `mean`, summed, / (m - 1), sqrt. The deviations keep
    # Xs's memory order, so each column sums in the order np.std sums it.
    folds, p, m = Xs.shape
    std = np.empty(mean.shape)
    step = max(1, SPREAD_CHUNK_BYTES // max(8 * p * m, 1))
    for start in range(0, folds, step):
        chunk = slice(start, start + step)
        dev = Xs[chunk] - mean[chunk, :, None]
        dev *= dev
        dev.sum(axis=2, out=std[chunk])
    std /= max(m - 1, 0)
    np.sqrt(std, out=std)
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


def zscore_fit(X: np.ndarray, names: Sequence[str]) -> Standardization:
    """Column means and sample standard deviations; rejects constants."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X[:, None]
    if X.shape[0] < 2:
        raise InsufficientDataError("standardization needs >= 2 rows")
    if X.shape[1] != len(names):
        raise InputError("names must match the number of columns")
    if not np.isfinite(X).all():
        raise InputError("X must be finite")
    # a view: each column reduces in X's own memory order
    _, mean, std = _column_stats(X.T[None], names, np.ones(1, dtype=bool), False)
    return Standardization(tuple(names), mean[0], std[0])


@dataclass(frozen=True)
class StabilityReport:
    n_folds: int
    fraction_identical: float
    r_loocv: float
    r_overall: float
    stable: bool


@dataclass(frozen=True)
class Thresholds:
    """The stepwise entry/removal p-values and the two stability gates."""

    entry_p: float = RunConfig.entry_p
    removal_p: float = RunConfig.removal_p
    min_identical_fraction: float = RunConfig.min_identical_fraction
    min_r_ratio: float = RunConfig.min_r_ratio


@dataclass(frozen=True)
class RegressionModel:
    """Standardized linear model over a subset of the descriptors."""

    predictors: tuple[str, ...]
    betas: tuple[float, ...]
    train_r: float
    dv: str = ""
    session: str = ""
    rater_type: str = "P"
    intercept: float = 0.0
    standardization: dict[str, tuple[float, float]] = field(default_factory=dict)
    thresholds: Thresholds = field(default_factory=Thresholds)
    stability: StabilityReport | None = None
    text_uncertain: bool = False
    source: str = "trained"

    def predict_z(self, z: np.ndarray) -> np.ndarray:
        """Scores from already-standardized predictor columns."""
        z = np.asarray(z, dtype=np.float64)
        if z.ndim == 1:
            z = z[None, :]
        if z.shape[1] != len(self.predictors):
            raise InputError("z must have one column per model predictor")
        beta = np.asarray(self.betas)
        return z @ beta + self.intercept


def decide_stable(
    fraction_identical: float,
    r_loocv: float,
    r_overall: float,
    thresholds: Thresholds = Thresholds(),
) -> bool:
    """Both gates, exactly as stated: fraction_identical >= min_identical_fraction
    AND r_loocv / r_overall > min_r_ratio, from thresholds (.75 and .75 by default).
    """
    if fraction_identical < thresholds.min_identical_fraction:
        return False
    if r_overall <= 0.0:
        return False
    return (r_loocv / r_overall) > thresholds.min_r_ratio


def _take(a: np.ndarray, rows: np.ndarray, cols: np.ndarray | None = None) -> np.ndarray:
    """C-contiguous a[:, rows] (or a[:, rows][:, :, cols]) of a fold stack.

    Fancy indexing after a slice lays the fold axis innermost; BLAS then
    sums each fold's products in another order than on a contiguous block.
    """
    out = a.take(rows, axis=1)
    return out if cols is None else out.take(cols, axis=2)


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[f] @ b[f] for each row f of two (folds, L) stacks, bit for bit.

    A stacked matmul whose core is 1 x L by L x 1 calls the same BLAS dot,
    with the same strides, as the 1-D product; a stacked reduction such as
    einsum sums in another order.
    """
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _forward_scan(
    G: np.ndarray,
    gy: np.ndarray,
    syy: np.ndarray,
    n: int,
    selected: list[int],
    candidates: np.ndarray,
) -> list[tuple[int, float] | None]:
    """Each fold's best candidate index and its partial-F p-value, or None.

    G (folds, p, p), gy (folds, p) and syy (folds,) stack folds that share
    `selected`, so they all scan the same candidates.
    """
    folds = G.shape[0]
    k = len(selected)
    df2 = n - (k + 1) - 1
    if df2 < 1 or candidates.size == 0:
        return [None] * folds
    # rss at rounding level means the fit is already exact; without this
    # guard fp-negative residuals turn every candidate into a fake
    # perfect-fit entry
    rss_floor = 1e-12 * np.maximum(syy, 1.0)
    live = np.ones(folds, dtype=bool)
    Gcc = G[:, candidates, candidates]
    if k:
        sel = np.asarray(selected)
        gys = _take(gy, sel)
        Gsc = _take(G, sel, candidates)
        rhs = np.concatenate((Gsc, gys[..., None]), axis=2)
        Gss = _take(G, sel, sel)
        try:
            sol = np.linalg.solve(Gss, rhs)
        except np.linalg.LinAlgError:
            # one singular fold fails the whole stacked call; only that
            # fold goes without an entrant
            sol = np.empty(rhs.shape)
            for f in range(folds):
                try:
                    sol[f] = np.linalg.solve(Gss[f], rhs[f])
                except np.linalg.LinAlgError:
                    live[f] = False
        beta_s = sol[..., -1]
        rss = syy - _dots(gys, beta_s)
        d = Gcc - np.einsum("fij,fij->fj", Gsc, sol[..., :-1])
        num = _take(gy, candidates) - np.matmul(Gsc.transpose(0, 2, 1), beta_s[..., None])[..., 0]
    else:
        rss = syy
        d = Gcc
        num = _take(gy, candidates)

    ok = d > _COLLINEAR_TOL * np.maximum(Gcc, 1.0)
    delta = np.full(d.shape, -np.inf)
    delta[ok] = num[ok] ** 2 / d[ok]
    with np.errstate(invalid="ignore", divide="ignore"):
        resid = rss[:, None] - delta
        F = np.where(resid > 0, delta * df2 / np.maximum(resid, 1e-300), np.inf)
    F[~ok] = -np.inf
    p = np.full(d.shape, np.inf)
    finite = np.isfinite(F) & ok
    p[finite] = fdtrc(1, df2, F[finite])  # f.sf(F, 1, df2)
    p[ok & ~finite] = 0.0  # perfect fit
    best = np.argmin(p, axis=1)
    p_best = p[np.arange(folds), best]
    live &= ~(rss <= rss_floor)
    return [
        (int(candidates[j]), float(pb)) if ok_f and np.isfinite(pb) else None
        for j, pb, ok_f in zip(best, p_best, live)
    ]


def _ols_stats(
    G: np.ndarray, gy: np.ndarray, syy: np.ndarray, n: int, selected: list[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(betas, rss, two-sided p per included predictor), one row per fold."""
    sel = np.asarray(selected)
    Ginv = np.linalg.inv(_take(G, sel, sel))
    gys = _take(gy, sel)
    beta = np.matmul(Ginv, gys[..., None])[..., 0]
    rss = syy - _dots(gys, beta)
    rss = np.where(rss < 0.0, 0.0, rss)  # max(rss, 0.0): np.maximum makes -0.0 0.0
    df = n - len(selected) - 1
    if df < 1:
        return beta, rss, np.zeros(beta.shape)
    sigma2 = rss / df
    se = np.sqrt(np.maximum(sigma2[:, None] * np.diagonal(Ginv, axis1=1, axis2=2), 1e-300))
    tvals = beta / se
    pvals = 2.0 * stdtr(df, -np.abs(tvals))  # 2 t.sf(|t|, df)
    return beta, rss, pvals


def _by_selection(selected: list[list[int]], folds: list[int]):
    """(selected list, fold indices) for each distinct selection among folds."""
    groups: dict[tuple[int, ...], list[int]] = {}
    for f in folds:
        groups.setdefault(tuple(selected[f]), []).append(f)
    return [(list(key), np.asarray(idx)) for key, idx in groups.items()]


def _stepwise(
    G: np.ndarray,
    gy: np.ndarray,
    syy: np.ndarray,
    n: int,
    entry_p: float,
    removal_p: float,
) -> list[tuple[list[int], np.ndarray, float]]:
    """(selected, betas, r) of the stepwise search on each fold of G.

    Folds with the same current selection take each scan and removal step
    together, as one stacked call.
    """
    folds, p = G.shape[:2]
    selected: list[list[int]] = [[] for _ in range(folds)]
    seen: list[set[tuple[int, ...]]] = [set() for _ in range(folds)]
    fit: dict[int, tuple[np.ndarray, float]] = {}
    active = list(range(folds))

    def stack(idx: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return (G, gy, syy) if idx.size == folds else (G[idx], gy[idx], syy[idx])

    for _ in range(4 * p + 4):
        if not active:
            break
        changed = dict.fromkeys(active, False)
        for sel, idx in _by_selection(selected, active):
            candidates = np.asarray([j for j in range(p) if j not in sel], dtype=np.int64)
            hits = _forward_scan(*stack(idx), n, sel, candidates)
            for f, hit in zip(idx, hits):
                if hit is not None and hit[1] * candidates.size < entry_p:
                    selected[f].append(hit[0])
                    changed[f] = True
        removing = [f for f in active if selected[f]]
        while removing:
            again = []
            for sel, idx in _by_selection(selected, removing):
                beta, rss, pvals = _ols_stats(*stack(idx), n, sel)
                worst = np.argmax(pvals, axis=1)
                for row, (f, w) in enumerate(zip(idx, worst)):
                    if pvals[row, w] > removal_p:
                        del selected[f][w]
                        changed[f] = True
                        if selected[f]:
                            again.append(f)
                    else:
                        # the last removal check is the final fit of `selected`
                        fit[f] = (beta[row], float(rss[row]))
            removing = again
        still = []
        for f in active:
            key = tuple(sorted(selected[f]))
            if changed[f] and key not in seen[f]:
                seen[f].add(key)
                still.append(f)
        active = still
    # syy > 0 once a predictor entered: the rss floor stops an entry at syy = 0
    return [
        (sel, fit[f][0], math.sqrt(max(1.0 - fit[f][1] / syy[f], 0.0)))
        if sel
        else (sel, np.empty(0), 0.0)
        for f, sel in enumerate(selected)
    ]


def stepwise_fit(
    Z: np.ndarray,
    zy: np.ndarray,
    names: Sequence[str],
    entry_p: float = RunConfig.entry_p,
    removal_p: float = RunConfig.removal_p,
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
    if not (np.isfinite(Z).all() and np.isfinite(zy).all()):
        raise InputError("Z and zy must be finite")
    ((selected, beta, r),) = _stepwise(*_gram(Z.T[None], zy[None]), n, entry_p, removal_p)
    return _model(selected, beta, r, names)


def _model(selected: list[int], beta: np.ndarray, r: float, names: Sequence[str]):
    return RegressionModel(tuple(names[j] for j in selected), tuple(map(float, beta)), r)


def _pearson(x: np.ndarray, y: np.ndarray) -> float:
    """Pearson r; 0.0 when either side is constant (no linear association)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    # max == min is the exact constant test: the centered sums of squares of
    # a constant side can round to a tiny nonzero value
    if x.size != y.size or x.size < 2 or x.max() == x.min() or y.max() == y.min():
        return 0.0
    xc = x - x.mean()
    yc = y - y.mean()
    denom = math.sqrt(float(xc @ xc) * float(yc @ yc))
    if denom == 0.0:
        return 0.0
    return float(xc @ yc / denom)


def _fit_standardized(
    X: np.ndarray,
    y: np.ndarray,
    names: Sequence[str],
    entry_p: float,
    removal_p: float,
) -> tuple[RegressionModel, Standardization, float, float] | None:
    """Standardize and fit; None when y or every column is constant."""
    Xs = np.asarray(X, dtype=np.float64).T.copy()[None]  # standardized in place
    (fit,) = _fit_stack(Xs, np.asarray(y, dtype=np.float64)[None], names, entry_p, removal_p)
    if fit is None:
        return None
    keep, mean, std, y_mean, y_std, selected, beta, r = fit
    kept = [names[j] for j in keep]
    return _model(selected, beta, r, kept), Standardization(tuple(kept), mean, std), y_mean, y_std


def _gram(ZT: np.ndarray, zy: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(G, gy, syy) of each fold of the standardized (folds, p, n) stack ZT.

    Per fold these are Z.T @ Z, Z.T @ zy and zy @ zy of its (n, p) Z, by
    the same BLAS calls.
    """
    G = np.matmul(ZT, ZT.transpose(0, 2, 1))
    gy = np.matmul(ZT, zy[..., None])[..., 0]
    return G, gy, _dots(zy, zy)


def _fit_stack(
    Xs: np.ndarray,
    ys: np.ndarray,
    names: Sequence[str],
    entry_p: float,
    removal_p: float,
) -> list[tuple | None]:
    """Standardize, in place, and stepwise-fit each fold of the (folds, p, m) stack Xs.

    Per fold: None when its ratings ys or all its columns are constant, else
    (keep, mean, std, y_mean, y_std, selected, betas, r), selected indexing
    keep. Each column's m values lie contiguous and every reduction runs over
    the last axis, so a fold's numbers are those of fitting it alone.
    """
    folds, p, m = Xs.shape
    y_mean = ys.mean(axis=1)
    y_std = ys.std(axis=1, ddof=1)
    varies, mean, std = _column_stats(Xs, names, y_std != 0.0, True)
    refit = (y_std != 0.0) & varies.any(axis=1)
    if m < 4 and refit.any():
        raise InsufficientDataError(f"stepwise fit needs >= 4 rows, got {m}")
    # the columns a fold drops (constant within it) divide by 0 here
    with np.errstate(divide="ignore", invalid="ignore"):
        Xs -= mean[..., None]
        Xs /= std[..., None]
        zy = (ys - y_mean[:, None]) / y_std[:, None]

    by_keep: dict[bytes, list[int]] = {}
    for b in np.flatnonzero(refit):
        by_keep.setdefault(varies[b].tobytes(), []).append(int(b))
    grams = []
    for idx in by_keep.values():
        keep = np.flatnonzero(varies[idx[0]])
        whole = len(idx) == folds and keep.size == p
        grams.append((idx, keep, *_gram(Xs if whole else Xs[np.ix_(idx, keep)], zy[idx])))
    del Xs  # the search needs only the Grams
    out: list[tuple | None] = [None] * folds
    for idx, keep, G, gy, syy in grams:
        for b, fit in zip(idx, _stepwise(G, gy, syy, m, entry_p, removal_p)):
            out[b] = (keep, mean[b, keep], std[b, keep], float(y_mean[b]), float(y_std[b]), *fit)
    return out


def _loo_rows(a: np.ndarray, folds: range) -> np.ndarray:
    """(folds, cols, n - 1) stack of a's (n, cols) rows, each fold without its own.

    folds is a range of step 1. The rows before and after it sit at the
    same place in every fold and are copied once for all of them. Within
    the block, fold b keeps the block's first b rows in place and moves
    each later one down a place: a copy of the later rows, then a masked
    copy of the earlier ones, fill every fold.
    """
    n, cols = a.shape
    start, stop = folds.start, folds.stop
    out = np.empty((len(folds), cols, n - 1))
    out[:, :, :start] = a[:start].T
    out[:, :, stop - 1 :] = a[stop:].T
    block = out[:, :, start : stop - 1]
    block[...] = a[start + 1 : stop].T
    before = np.arange(stop - start - 1) < np.arange(stop - start)[:, None]
    np.copyto(block, a[start : stop - 1].T, where=before[:, None, :])
    return out


def _refit_block(
    X: np.ndarray,
    y: np.ndarray,
    folds: range,
    names: Sequence[str],
    entry_p: float,
    removal_p: float,
) -> list[tuple[int, tuple[str, ...], float]]:
    """(left-out row, predictors, its predicted rating) of each refit fold."""
    try:  # rows built in the call, so _fit_stack can free them before its search
        fits = _fit_stack(
            _loo_rows(X, folds), _loo_rows(y[:, None], folds)[:, 0], names, entry_p, removal_p
        )
    except InsufficientDataError:
        return []  # too few rows for the stepwise fit: no fold refits
    out = []
    for i, fit in zip(folds, fits):
        if fit is None:
            continue
        keep, mean, std, y_mean, y_std, sel, beta, _ = fit
        z_row = (X[i, keep] - mean) / std
        score = float(np.dot(z_row[sel], beta)) if sel else 0.0
        out.append((i, tuple(names[keep[j]] for j in sel), y_mean + y_std * score))
    return out


def loocv_stability(
    X: np.ndarray,
    y: np.ndarray,
    names: Sequence[str],
    overall: RegressionModel,
    thresholds: Thresholds = Thresholds(),
) -> StabilityReport:
    """Leave-one-out refits of the whole stepwise pipeline, gated by thresholds.

    Each fold re-standardizes with its own training statistics, refits, and
    predicts the held-out rating. A fold counts as identical when its
    selected predictor-name set matches the overall model's. Degenerate
    folds (constant rating) count as non-identical and yield no prediction.
    Folds are refit LOOCV_BLOCK_BYTES of training rows at a time, stacked,
    with the same result as refitting each on its own.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    n = y.size
    if X.shape[0] != n or n < 3:
        raise InsufficientDataError("LOOCV needs >= 3 rows")
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise InputError("X and y must be finite")
    p = X.shape[1]
    overall_set = frozenset(overall.predictors)
    identical = 0
    preds = np.full(n, np.nan)
    per_block = max(1, LOOCV_BLOCK_BYTES // (8 * max(p, 1) * (n - 1 + p)))
    for start in range(0, n, per_block):
        folds = range(start, min(start + per_block, n))
        for i, predictors, pred in _refit_block(
            X, y, folds, names, thresholds.entry_p, thresholds.removal_p
        ):
            if frozenset(predictors) == overall_set:
                identical += 1
            preds[i] = pred
    valid = ~np.isnan(preds)
    r_loocv = _pearson(preds[valid], y[valid]) if valid.sum() >= 2 else 0.0
    fraction = identical / n
    return StabilityReport(
        n_folds=n,
        fraction_identical=fraction,
        r_loocv=r_loocv,
        r_overall=overall.train_r,
        stable=decide_stable(fraction, r_loocv, overall.train_r, thresholds),
    )


@dataclass
class RatingTable:
    """Integer 1..7 ratings keyed by (speaker_id, dv, rater_type)."""

    ratings: dict[tuple[str, str, str], int] = field(default_factory=dict)

    def add(self, speaker_id: str, dv: str, rater_type: str, rating: int) -> None:
        if dv not in DV_NAMES:
            raise InputError(f"unknown dv {dv!r}")
        if rater_type not in RATER_TYPES:
            raise InputError(f"rater_type must be one of {RATER_TYPES}")
        if not isinstance(rating, int) or not 1 <= rating <= 7:
            raise InputError("rating must be an integer in 1..7")
        key = (speaker_id, dv, rater_type)
        if key in self.ratings:
            raise DuplicateKeyError(f"duplicate rating for {key}")
        self.ratings[key] = rating

    def get(self, speaker_id: str, dv: str, rater_type: str) -> int | None:
        return self.ratings.get((speaker_id, dv, rater_type))


def read_ratings_csv(path: str) -> RatingTable:
    table = RatingTable()

    def parse(line: int, cells: list[str]) -> None:
        speaker_id, dv, rater_type, rating = cells
        table.add(speaker_id, dv, rater_type, int(rating))

    read_csv(path, ["speaker_id", "dv", "rater_type", "rating"], parse)
    return table


def write_ratings_csv(path: str, table: RatingTable) -> None:
    write_csv(
        path,
        ["speaker_id", "dv", "rater_type", "rating"],
        ([*key, rating] for key, rating in table.ratings.items()),
    )


def assemble_design(
    table: FeatureTable,
    ratings: RatingTable,
    dv: str,
    session: str,
    rater_type: str,
    max_absent_fraction: float = RunConfig.max_absent_fraction,
) -> tuple[np.ndarray, np.ndarray, list[str], list[str]]:
    """(X, y, kept feature names, speaker ids) for one training problem.

    Columns absent in more than max_absent_fraction of candidate rows are
    dropped first; remaining rows with any absent cell are dropped listwise.
    """
    speakers = [
        s
        for s in table.speakers()
        if table.get(s, session) is not None and ratings.get(s, dv, rater_type) is not None
    ]
    if not speakers:
        raise InsufficientDataError(f"no rated speakers for {dv}/{session}/{rater_type}")
    raw = np.vstack([table.get(s, session).as_array() for s in speakers])
    absent_frac = np.mean(np.isnan(raw), axis=0)
    kept_idx = [j for j in range(len(FEATURE_NAMES)) if absent_frac[j] <= max_absent_fraction]
    if not kept_idx:
        raise InsufficientDataError("every feature column exceeds the absence limit")
    sub = raw[:, kept_idx]
    row_ok = ~np.isnan(sub).any(axis=1)
    X = sub[row_ok]
    used = [s for s, ok in zip(speakers, row_ok) if ok]
    y = np.asarray([float(ratings.get(s, dv, rater_type)) for s in used])
    names = [FEATURE_NAMES[j] for j in kept_idx]
    return X, y, names, used


def train_model(
    table: FeatureTable,
    ratings: RatingTable,
    dv: str,
    session: str,
    rater_type: str = "P",
    thresholds: Thresholds | None = None,
    max_absent_fraction: float = RunConfig.max_absent_fraction,
) -> RegressionModel:
    """Standardize, stepwise-fit and stability-check one rating model.

    Training on SA (self-assessment) ratings is rejected: those labels are
    unavailable for several dependent variables and are only used for
    evaluation.
    """
    if rater_type != "P":
        raise InputError("training uses rater_type 'P' only; SA is evaluation-only")
    th = thresholds or Thresholds()
    X, y, names, _ = assemble_design(
        table, ratings, dv, session, rater_type, max_absent_fraction
    )
    if y.size < 4:
        raise InsufficientDataError(f"need >= 4 complete rows, got {y.size}")
    fitted = _fit_standardized(X, y, names, th.entry_p, th.removal_p)
    if fitted is None:
        raise ConstantColumnError("ratings or all feature columns are constant")
    model, stz, y_mean, y_std = fitted
    stability = loocv_stability(X, y, names, model, th)
    standardization = {
        name: (float(m), float(s)) for name, m, s in zip(stz.names, stz.mean, stz.std)
    }
    standardization[dv] = (y_mean, y_std)
    return replace(
        model,
        dv=dv,
        session=session,
        rater_type=rater_type,
        standardization=standardization,
        thresholds=th,
        stability=stability,
    )


def cross_session_eval(
    model: RegressionModel,
    table: FeatureTable,
    ratings: RatingTable,
    session: str,
    rater_type: str = "P",
) -> float:
    """Pearson r between model scores and ratings on another session.

    Test predictors are standardized with the model's own training
    statistics; nothing is re-fit. Needs >= 3 speakers with every model
    predictor present and a rating.
    """
    rows = []
    targets = []
    for s in table.speakers():
        fv = table.get(s, session)
        rating = ratings.get(s, model.dv, rater_type)
        if fv is None or rating is None:
            continue
        if any(not fv.present(name) for name in model.predictors):
            continue
        rows.append([fv[name] for name in model.predictors])
        targets.append(float(rating))
    if len(targets) < 3:
        raise InsufficientDataError(
            f"cross-session evaluation needs >= 3 usable speakers, got {len(targets)}"
        )
    y = np.asarray(targets)
    if not model.predictors:
        return 0.0
    mean = np.asarray([model.standardization[n][0] for n in model.predictors])
    std = np.asarray([model.standardization[n][1] for n in model.predictors])
    Z = (np.asarray(rows, dtype=np.float64) - mean) / std
    scores = model.predict_z(Z)
    return _pearson(scores, y)


def save_model(path: str, model: RegressionModel) -> None:
    doc = {
        "dv": model.dv,
        "session": model.session,
        "rater_type": model.rater_type,
        "predictors": [
            {"name": name, "beta": beta}
            for name, beta in zip(model.predictors, model.betas)
        ],
        "intercept": model.intercept,
        "train_r": model.train_r,
        "standardization": {
            name: {"mean": m, "std": s}
            for name, (m, s) in model.standardization.items()
        },
        "stability": None if model.stability is None else asdict(model.stability),
        "thresholds": asdict(model.thresholds),
        "text_uncertain": model.text_uncertain,
        "source": model.source,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def load_model(path: str) -> RegressionModel:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise TableFormatError(f"{path} is not valid JSON: {exc}") from exc
    try:
        stability = _json_object(doc, "a model file").get("stability")
        standardization = _json_object(doc.get("standardization", {}), "standardization")
        model = RegressionModel(
            predictors=tuple(p["name"] for p in doc["predictors"]),
            betas=tuple(float(p["beta"]) for p in doc["predictors"]),
            train_r=float(doc["train_r"]),
            dv=doc.get("dv", ""),
            session=doc.get("session", ""),
            rater_type=doc.get("rater_type", "P"),
            intercept=float(doc.get("intercept", 0.0)),
            standardization={
                name: (float(v["mean"]), float(v["std"]))
                for name, v in standardization.items()
            },
            thresholds=_from_json(Thresholds, doc.get("thresholds", {})),
            stability=None if stability is None else _from_json(StabilityReport, stability),
            text_uncertain=bool(doc.get("text_uncertain", False)),
            source=doc.get("source", "trained"),
        )
        _check_scorable(model)
    except (KeyError, TypeError, ValueError) as exc:
        raise TableFormatError(f"{path}: malformed model file: {exc}") from exc
    return model


def _check_scorable(model: RegressionModel) -> None:
    """ValueError where the model cannot score a feature table.

    Each predictor must be a descriptor with a standardization entry, each
    beta, mean and std finite, and each std > 0. json.load reads NaN and
    Infinity, so a model file can hold them.
    """
    for name in model.predictors:
        if name not in FEATURE_SET:
            raise ValueError(f"unknown predictor {name!r}")
        if name not in model.standardization:
            raise ValueError(f"predictor {name!r} has no standardization entry")
    if not all(map(math.isfinite, model.betas)):
        raise ValueError("every beta must be finite")
    for name, (mean, std) in model.standardization.items():
        if not (math.isfinite(mean) and math.isfinite(std) and std > 0.0):
            raise ValueError(f"{name!r} needs a finite mean and a finite std > 0")


def _json_object(obj, what: str) -> dict:
    if not isinstance(obj, dict):
        raise TypeError(f"{what} must be a JSON object")
    return obj


def _from_json(cls, obj: dict):
    """The dataclass cls from a JSON object, each field cast to its annotated type.

    A key left out takes the field's default; a field without one is required.
    """
    _json_object(obj, cls.__name__)
    types = get_type_hints(cls)
    return cls(**{f.name: types[f.name](obj[f.name]) for f in fields(cls) if f.name in obj})
