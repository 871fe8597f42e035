"""Registry of published rating models and scoring against them.

The registry ships as a JSON data file transcribed from the source tables.
Coefficient strings are preserved verbatim (including their leading sign
and bare decimal point) so fidelity can be checked by string comparison;
parsed floats are derived from those strings at load time. The published
values sit under a "Correlations/predictors" header whose meaning is
ambiguous; scoring treats them as standardized regression weights, which
their magnitudes support, and reports flag this as an interpretation.

Two table rows are typographically corrupted in the source. They are
encoded under the most conservative reading and carry text_uncertain=True,
which every ScoreReport built from them surfaces.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from typing import Mapping

from .errors import InputError, MissingFeatureError, TableFormatError
from .features import FEATURE_SET, FeatureVector
from .regression import DV_NAMES

_REGISTRY_RESOURCE = "reference_models.json"
SCORE_TERM_TOL = 1e-9


@dataclass(frozen=True)
class ReferenceModel:
    """One published model: verbatim coefficient text plus parsed floats."""

    dv: str
    session: str
    rater_type: str
    predictors: tuple[str, ...]
    beta_text: tuple[str, ...]
    betas: tuple[float, ...]
    train_r_text: str
    train_r: float
    text_uncertain: bool = False

    def __post_init__(self) -> None:
        if len(self.predictors) != len(self.betas) or len(self.betas) != len(self.beta_text):
            raise InputError("predictor, beta and text lengths must agree")
        for name in self.predictors:
            if name not in FEATURE_SET:
                raise InputError(f"unknown predictor {name!r}")


@dataclass(frozen=True)
class ScoreTerm:
    predictor: str
    z_value: float
    product: float


@dataclass(frozen=True)
class ScoreReport:
    """Standardized score for one model, itemized term by term."""

    dv: str
    session: str
    score: float
    terms: tuple[ScoreTerm, ...]
    text_uncertain: bool

    def __post_init__(self) -> None:
        total = sum(t.product for t in self.terms)
        if abs(total - self.score) > SCORE_TERM_TOL:
            raise InputError("score does not equal the sum of its terms")


def _load_registry_doc() -> list[dict]:
    ref = resources.files(__package__).joinpath("data", _REGISTRY_RESOURCE)
    try:
        doc = json.loads(ref.read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise InputError(f"registry data file missing: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise TableFormatError(f"registry data file is not valid JSON: {exc}") from exc
    if not isinstance(doc, list):
        raise TableFormatError("registry data file must be a JSON list")
    return doc


@lru_cache(maxsize=1)
def registry() -> tuple[ReferenceModel, ...]:
    """All 27 published models (9 dependent variables x 3 sessions)."""
    models = []
    for entry in _load_registry_doc():
        models.append(
            ReferenceModel(
                dv=entry["dv"],
                session=entry["session"],
                rater_type=entry.get("rater_type", "P"),
                predictors=tuple(p["name"] for p in entry["predictors"]),
                beta_text=tuple(p["beta_text"] for p in entry["predictors"]),
                betas=tuple(float(p["beta_text"]) for p in entry["predictors"]),
                train_r_text=entry["train_r_text"],
                train_r=float(entry["train_r_text"]),
                text_uncertain=bool(entry.get("text_uncertain", False)),
            )
        )
    if len(models) != len(DV_NAMES) * 3:
        raise TableFormatError(
            f"registry must hold {len(DV_NAMES) * 3} models, found {len(models)}"
        )
    return tuple(models)


def get_model(dv: str, session: str) -> ReferenceModel:
    for model in registry():
        if model.dv == dv and model.session == session:
            return model
    raise InputError(f"no registry model for dv={dv!r}, session={session!r}")


def _values(vector: FeatureVector | Mapping[str, float | None]) -> Mapping[str, float | None]:
    """Name -> value, None where absent; a FeatureVector's holds all 30 names."""
    return vector.values if isinstance(vector, FeatureVector) else vector


def score(model: ReferenceModel, z: Mapping[str, float | None] | FeatureVector) -> ScoreReport:
    """Score an already-standardized vector: sum of beta * z per predictor."""
    values = _values(z)
    terms = []
    total = 0.0
    for name, beta in zip(model.predictors, model.betas):
        if values.get(name) is None:
            raise MissingFeatureError(f"feature {name!r} is absent from the vector")
        zv = float(values[name])
        product = beta * zv
        total += product
        terms.append(ScoreTerm(predictor=name, z_value=zv, product=product))
    return ScoreReport(
        dv=model.dv,
        session=model.session,
        score=total,
        terms=tuple(terms),
        text_uncertain=model.text_uncertain,
    )


def standardize_against(
    vector: FeatureVector | Mapping[str, float | None],
    stats: Mapping[str, tuple[float, float]],
) -> dict[str, float]:
    """z = (x - mean) / std per feature, using caller-supplied statistics.

    Only features present in both the vector and the statistics come back;
    a zero or negative std is an error rather than a silent skip.
    """
    values = _values(vector)
    out: dict[str, float] = {}
    for name, (mean, std) in stats.items():
        if name not in FEATURE_SET:
            raise InputError(f"unknown feature {name!r} in reference statistics")
        if values.get(name) is None:
            continue
        x = float(values[name])
        if not std > 0.0:
            raise InputError(f"reference std for {name!r} must be positive")
        out[name] = (x - mean) / std
    return out
