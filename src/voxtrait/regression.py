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

import csv
import json
import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np
from scipy.special import fdtrc, stdtr

from .csvio import read_csv
from .errors import (
    ConstantColumnError,
    DuplicateKeyError,
    InputError,
    InsufficientDataError,
    TableFormatError,
)
from .features import FEATURE_NAMES, FeatureTable

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


@dataclass(frozen=True)
class Standardization:
    names: tuple[str, ...]
    mean: np.ndarray
    std: np.ndarray

    def apply(self, X: np.ndarray) -> np.ndarray:
        return (np.asarray(X, dtype=np.float64) - self.mean) / self.std


def zscore_fit(X: np.ndarray, names: Sequence[str]) -> Standardization:
    """Column means and sample standard deviations; rejects constants."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X[:, None]
    if X.shape[0] < 2:
        raise InsufficientDataError("standardization needs >= 2 rows")
    if X.shape[1] != len(names):
        raise InputError("names must match the number of columns")
    mean = X.mean(axis=0)
    std = X.std(axis=0, ddof=1)
    # max == min is the exact constant test: the std of a constant column
    # can round to a tiny nonzero value (19 copies of 0.1 give 1.4e-17)
    varies = X.max(axis=0) > X.min(axis=0)
    # At tiny scales (about 1e-170) the squared deviations underflow and a
    # varying column's std comes out 0; those columns, and only those, are
    # measured again after scaling by their largest magnitude.
    for j in np.flatnonzero(varies & (std == 0.0)):
        m = np.abs(X[:, j]).max()
        std[j] = m * (X[:, j] / m).std(ddof=1)
    ok = varies & (std > 0.0) & np.isfinite(std)
    if not ok.all():
        name = names[int(np.argmin(ok))]
        raise ConstantColumnError(f"column {name!r} has zero variance")
    return Standardization(tuple(names), mean, std)


@dataclass(frozen=True)
class StabilityReport:
    n_folds: int
    fraction_identical: float
    r_loocv: float
    r_overall: float
    stable: bool


@dataclass(frozen=True)
class Thresholds:
    entry_p: float = 0.05
    removal_p: float = 0.10
    min_identical_fraction: float = 0.75
    min_r_ratio: float = 0.75


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
    min_identical_fraction: float = 0.75,
    min_r_ratio: float = 0.75,
) -> bool:
    """Both gates, exactly as stated: fraction >= 0.75 AND ratio > 0.75."""
    if fraction_identical < min_identical_fraction:
        return False
    if r_overall <= 0.0:
        return False
    return (r_loocv / r_overall) > min_r_ratio


def _forward_scan(
    G: np.ndarray,
    gy: np.ndarray,
    syy: float,
    n: int,
    selected: list[int],
    candidates: np.ndarray,
) -> tuple[int, float] | None:
    """Best candidate index and its partial-F p-value, or None."""
    k = len(selected)
    df2 = n - (k + 1) - 1
    if df2 < 1 or candidates.size == 0:
        return None
    # rss at rounding level means the fit is already exact; without this
    # guard fp-negative residuals turn every candidate into a fake
    # perfect-fit entry
    rss_floor = 1e-12 * max(syy, 1.0)
    if k:
        sel = np.asarray(selected)
        # a C-contiguous block: on the F-ordered G[sel][:, candidates],
        # `Gsc.T @ beta_s` sums in another order and moves the entry p-values
        Gsc = G[sel[:, None], candidates]
        rhs = np.concatenate((Gsc, gy[sel][:, None]), axis=1)
        try:
            sol = np.linalg.solve(G[sel[:, None], sel], rhs)
        except np.linalg.LinAlgError:
            return None
        beta_s = sol[:, -1]
        rss = syy - float(gy[sel] @ beta_s)
        if rss <= rss_floor:
            return None
        d = G[candidates, candidates] - np.einsum("ij,ij->j", Gsc, sol[:, :-1])
        num = gy[candidates] - Gsc.T @ beta_s
    else:
        rss = syy
        if rss <= rss_floor:
            return None
        d = G[candidates, candidates].copy()
        num = gy[candidates].copy()

    ok = d > _COLLINEAR_TOL * np.maximum(G[candidates, candidates], 1.0)
    if not ok.any():
        return None
    delta = np.full(candidates.size, -np.inf)
    delta[ok] = num[ok] ** 2 / d[ok]
    resid = rss - delta
    with np.errstate(invalid="ignore", divide="ignore"):
        F = np.where(resid > 0, delta * df2 / np.maximum(resid, 1e-300), np.inf)
    F[~ok] = -np.inf
    p = np.full(candidates.size, np.inf)
    finite = np.isfinite(F) & ok
    p[finite] = fdtrc(1, df2, F[finite])  # f.sf(F, 1, df2)
    p[ok & ~finite] = 0.0  # perfect fit
    best = int(np.argmin(p))
    if not np.isfinite(p[best]):
        return None
    return int(candidates[best]), float(p[best])


def _ols_stats(
    G: np.ndarray, gy: np.ndarray, syy: float, n: int, selected: list[int]
) -> tuple[np.ndarray, float, np.ndarray]:
    """(betas, rss, two-sided p per included predictor)."""
    sel = np.asarray(selected)
    Ginv = np.linalg.inv(G[sel[:, None], sel])
    beta = Ginv @ gy[sel]
    rss = max(syy - float(gy[sel] @ beta), 0.0)
    df = n - len(selected) - 1
    if df < 1:
        return beta, rss, np.zeros(len(selected))
    sigma2 = rss / df
    se = np.sqrt(np.maximum(sigma2 * np.diag(Ginv), 1e-300))
    tvals = beta / se
    pvals = 2.0 * stdtr(df, -np.abs(tvals))  # 2 t.sf(|t|, df)
    return beta, rss, pvals


def stepwise_fit(
    Z: np.ndarray,
    zy: np.ndarray,
    names: Sequence[str],
    entry_p: float = 0.05,
    removal_p: float = 0.10,
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

    G = Z.T @ Z
    gy = Z.T @ zy
    syy = float(zy @ zy)

    selected: list[int] = []
    seen: set[tuple[int, ...]] = set()
    for _ in range(4 * p + 4):
        changed = False
        in_set = set(selected)
        candidates = np.asarray([j for j in range(p) if j not in in_set], dtype=np.int64)
        hit = _forward_scan(G, gy, syy, n, selected, candidates)
        if hit is not None:
            j, pval = hit
            if pval * candidates.size < entry_p:
                selected.append(j)
                changed = True
        while len(selected) > 0:
            _, _, pvals = _ols_stats(G, gy, syy, n, selected)
            worst = int(np.argmax(pvals))
            if pvals[worst] > removal_p:
                del selected[worst]
                changed = True
            else:
                break
        key = tuple(sorted(selected))
        if not changed or key in seen:
            break
        seen.add(key)

    if not selected:
        return RegressionModel(predictors=(), betas=(), train_r=0.0)
    beta, rss, _ = _ols_stats(G, gy, syy, n, selected)
    train_r = math.sqrt(max(1.0 - rss / syy, 0.0)) if syy > 0 else 0.0
    return RegressionModel(
        predictors=tuple(names[j] for j in selected),
        betas=tuple(float(b) for b in beta),
        train_r=float(train_r),
    )


def _pearson(x: np.ndarray, y: np.ndarray) -> float:
    """Pearson r; 0.0 when either side is constant (no linear association)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.size != y.size or x.size < 2:
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
    y = np.asarray(y, dtype=np.float64)
    y_mean = float(y.mean())
    y_std = float(y.std(ddof=1))
    if y_std == 0.0:
        return None
    # zscore_fit's exact constant test. Index with `keep` even when it holds
    # every column: X[:, keep] is a copy laid out differently from X, and
    # the column means and stds sum in a layout-dependent order.
    keep = np.flatnonzero(X.max(axis=0) > X.min(axis=0))
    if not keep.size:
        return None
    Xk = X[:, keep]
    stz = zscore_fit(Xk, [names[j] for j in keep])
    Z = stz.apply(Xk)
    zy = (y - y_mean) / y_std
    model = stepwise_fit(Z, zy, stz.names, entry_p=entry_p, removal_p=removal_p)
    return model, stz, y_mean, y_std


def loocv_stability(
    X: np.ndarray,
    y: np.ndarray,
    names: Sequence[str],
    overall: RegressionModel,
    entry_p: float = 0.05,
    removal_p: float = 0.10,
    min_identical_fraction: float = 0.75,
    min_r_ratio: float = 0.75,
) -> StabilityReport:
    """Leave-one-out refits of the whole stepwise pipeline.

    Each fold re-standardizes with its own training statistics, refits, and
    predicts the held-out rating. A fold counts as identical when its
    selected predictor-name set matches the overall model's. Degenerate
    folds (constant rating) count as non-identical and yield no prediction.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    n = y.size
    if X.shape[0] != n or n < 3:
        raise InsufficientDataError("LOOCV needs >= 3 rows")
    overall_set = frozenset(overall.predictors)
    column = {name: j for j, name in enumerate(names)}
    identical = 0
    preds = np.full(n, np.nan)
    for i in range(n):
        mask = np.ones(n, dtype=bool)
        mask[i] = False
        try:
            fitted = _fit_standardized(X[mask], y[mask], names, entry_p, removal_p)
        except InsufficientDataError:
            fitted = None  # fold too small to refit; treat like a constant fold
        if fitted is None:
            continue
        model_i, stz, y_mean, y_std = fitted
        if frozenset(model_i.predictors) == overall_set:
            identical += 1
        cols = [stz.names.index(name) for name in model_i.predictors]
        z_row = (X[i][[column[nm] for nm in stz.names]] - stz.mean) / stz.std
        score = float(np.dot(z_row[cols], model_i.betas)) if cols else 0.0
        preds[i] = y_mean + y_std * score
    valid = ~np.isnan(preds)
    r_loocv = _pearson(preds[valid], y[valid]) if valid.sum() >= 2 else 0.0
    fraction = identical / n
    return StabilityReport(
        n_folds=n,
        fraction_identical=fraction,
        r_loocv=r_loocv,
        r_overall=overall.train_r,
        stable=decide_stable(
            fraction, r_loocv, overall.train_r, min_identical_fraction, min_r_ratio
        ),
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
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["speaker_id", "dv", "rater_type", "rating"])
        for (speaker_id, dv, rater_type), rating in table.ratings.items():
            writer.writerow([speaker_id, dv, rater_type, rating])


def assemble_design(
    table: FeatureTable,
    ratings: RatingTable,
    dv: str,
    session: str,
    rater_type: str,
    max_absent_fraction: float = 0.10,
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
    max_absent_fraction: float = 0.10,
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
    stability = loocv_stability(
        X,
        y,
        names,
        model,
        entry_p=th.entry_p,
        removal_p=th.removal_p,
        min_identical_fraction=th.min_identical_fraction,
        min_r_ratio=th.min_r_ratio,
    )
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


def _stability_to_dict(report: StabilityReport | None):
    if report is None:
        return None
    return {
        "n_folds": report.n_folds,
        "fraction_identical": report.fraction_identical,
        "r_loocv": report.r_loocv,
        "r_overall": report.r_overall,
        "stable": report.stable,
    }


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
        "stability": _stability_to_dict(model.stability),
        "thresholds": {
            "entry_p": model.thresholds.entry_p,
            "removal_p": model.thresholds.removal_p,
            "min_identical_fraction": model.thresholds.min_identical_fraction,
            "min_r_ratio": model.thresholds.min_r_ratio,
        },
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
        stability = None
        if doc.get("stability") is not None:
            s = doc["stability"]
            stability = StabilityReport(
                n_folds=int(s["n_folds"]),
                fraction_identical=float(s["fraction_identical"]),
                r_loocv=float(s["r_loocv"]),
                r_overall=float(s["r_overall"]),
                stable=bool(s["stable"]),
            )
        th = doc.get("thresholds", {})
        return RegressionModel(
            predictors=tuple(p["name"] for p in doc["predictors"]),
            betas=tuple(float(p["beta"]) for p in doc["predictors"]),
            train_r=float(doc["train_r"]),
            dv=doc.get("dv", ""),
            session=doc.get("session", ""),
            rater_type=doc.get("rater_type", "P"),
            intercept=float(doc.get("intercept", 0.0)),
            standardization={
                name: (float(v["mean"]), float(v["std"]))
                for name, v in doc.get("standardization", {}).items()
            },
            thresholds=Thresholds(
                entry_p=float(th.get("entry_p", 0.05)),
                removal_p=float(th.get("removal_p", 0.10)),
                min_identical_fraction=float(th.get("min_identical_fraction", 0.75)),
                min_r_ratio=float(th.get("min_r_ratio", 0.75)),
            ),
            stability=stability,
            text_uncertain=bool(doc.get("text_uncertain", False)),
            source=doc.get("source", "trained"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise TableFormatError(f"{path}: malformed model file: {exc}") from exc
