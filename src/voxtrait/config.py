"""Run configuration shared by the pipeline and the CLI."""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
from dataclasses import dataclass
from typing import Any

from . import acoustics
from .audio_io import TARGET_RATE
from .errors import InputError


@dataclass(frozen=True)
class RunConfig:
    """Every tunable the pipeline reads, with range-checked defaults.

    The defaults are the one canonical operating point: 11025 Hz analysis
    rate, 400 ms pause floor, significance levels .01/.05, stability gates
    0.75/0.75, voicing threshold 0.45 and an F0 search range of 75-500 Hz.
    Every other default in the package names one of these fields; the rate
    and the acoustics constants come from `audio_io` and `acoustics`, which
    this module imports.
    """

    sample_rate: int = TARGET_RATE
    f0_floor: float = acoustics.F0_FLOOR_HZ
    f0_ceiling: float = acoustics.F0_CEILING_HZ
    voicing_threshold: float = acoustics.VOICING_THRESHOLD
    pause_min_duration: float = 0.400
    frame_length: float = acoustics.SUBFRAME_LENGTH_S
    frame_hop: float = acoustics.SUBFRAME_HOP_S
    prosody_window: float = 0.080
    spectral_window: float = 0.040
    nucleus_drop_db: float = 6.0
    min_vowel_duration: float = 0.030
    min_nucleus_separation: float = 0.060
    speech_floor_drop_db: float = 20.0
    entry_p: float = 0.05
    removal_p: float = 0.10
    min_identical_fraction: float = 0.75
    min_r_ratio: float = 0.75
    max_absent_fraction: float = 0.10
    alphas: tuple[float, float] = (0.01, 0.05)
    seed: int = 42
    jobs: int = 1

    def __post_init__(self) -> None:
        self._check_types()
        if self.sample_rate <= 0:
            raise InputError("sample_rate must be positive")
        if not 0 < self.f0_floor < self.f0_ceiling:
            raise InputError("need 0 < f0_floor < f0_ceiling")
        if self.f0_ceiling >= self.sample_rate / 2:
            raise InputError("f0_ceiling must lie below the Nyquist rate")
        if not 0 < self.voicing_threshold < 1:
            raise InputError("voicing_threshold must lie in (0, 1)")
        if self.pause_min_duration <= 0:
            raise InputError("pause_min_duration must be positive")
        if not 0 < self.frame_hop <= self.frame_length:
            raise InputError("need 0 < frame_hop <= frame_length")
        shortest = acoustics.min_frame_samples(self.sample_rate, self.f0_floor, self.f0_ceiling)
        if int(round(self.frame_length * self.sample_rate)) < shortest:
            raise InputError(
                f"frame_length must span >= {shortest} samples at "
                f"{self.sample_rate} Hz to reach the F0 range"
            )
        if self.spectral_window <= 0 or self.prosody_window < self.frame_length:
            raise InputError("analysis windows too short")
        for name in (
            "nucleus_drop_db",
            "min_vowel_duration",
            "min_nucleus_separation",
            "speech_floor_drop_db",
        ):
            if getattr(self, name) < 0:
                raise InputError(f"{name} must be >= 0")
        for name in ("entry_p", "removal_p"):
            v = getattr(self, name)
            if not 0 < v < 1:
                raise InputError(f"{name} must lie in (0, 1)")
        for name in ("min_identical_fraction", "min_r_ratio", "max_absent_fraction"):
            v = getattr(self, name)
            if not 0 <= v <= 1:
                raise InputError(f"{name} must lie in [0, 1]")
        alphas = tuple(sorted(self.alphas))
        if len(alphas) != 2 or not all(0 < a < 1 for a in alphas):
            raise InputError("alphas must be two levels in (0, 1)")
        object.__setattr__(self, "alphas", alphas)
        if self.jobs < 1:
            raise InputError("jobs must be >= 1")

    def _check_types(self) -> None:
        # A JSON config can hand any value to any field: an int field takes
        # an integer, alphas two numbers and every other field a number,
        # never a bool, a string, null, NaN or an infinity.
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if f.name == "alphas":
                ok = isinstance(value, (list, tuple)) and len(value) == 2
                ok = ok and all(_is_number(a, numbers.Real) for a in value)
                kind = "a list of two finite numbers"
            elif f.type == "int":
                ok, kind = _is_number(value, numbers.Integral), "an integer"
            else:
                ok, kind = _is_number(value, numbers.Real), "a finite number"
            if not ok:
                raise InputError(f"{f.name} must be {kind}, got {value!r}")

    def to_dict(self) -> dict[str, Any]:
        d = dataclasses.asdict(self)
        d["alphas"] = list(self.alphas)
        return d


def _is_number(value: Any, kind: type) -> bool:
    if not isinstance(value, kind) or isinstance(value, bool):
        return False
    return isinstance(value, numbers.Integral) or math.isfinite(value)


def load_config(path: str | None, **overrides: Any) -> RunConfig:
    """Read a JSON config file (optional) and apply keyword overrides.

    Overrides with value None are ignored so CLI flags can default to None.
    """
    values: dict[str, Any] = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise InputError(f"cannot read config file {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise InputError(f"config file {path} is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise InputError("config file must hold a JSON object")
        values.update(raw)
    for key, val in overrides.items():
        if val is not None:
            values[key] = val
    known = {f.name for f in dataclasses.fields(RunConfig)}
    unknown = set(values) - known
    if unknown:
        raise InputError(f"unknown config keys: {sorted(unknown)}")
    return RunConfig(**values)
