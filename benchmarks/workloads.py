"""The benchmark's three workloads: seeded inputs, one pass, checks, digests.

Each workload class has
  build(workdir, seed)   writes the inputs into workdir (`table` has none);
  __init__(workdir, seed) loads what `build` left (`table` generates its
                         tables here);
  warm_up(rec)           one operation that fills first-call caches;
  run_pass(rec)          one full pass over the inputs, every operation inside
                         `rec.op(...)` with its correctness checks;
  digests(out)           sha256 of the pass's outputs, the behaviour fingerprint.

The set-up that `setup_s` times is build, __init__ and warm_up, each in a
fresh process; the measuring process repeats __init__ and warm_up untimed.

The package is only ever called through module or class attributes
(`audio_io.load_wav`, `features.FeatureTable.get`, ...), so the traced run
can swap in its wrappers.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os
import shutil
import wave

import numpy as np
from scipy.signal import resample_poly

from voxtrait import (
    audio_io,
    cli,
    errors,
    features,
    models,
    regression,
    segmentation,
    stats,
    synth,
)

CORPUS_SPEAKERS = 20
# Acceptance check 6: cross-session r must stay this close to the train r.
CROSS_SESSION_TOLERANCE = 0.15
LONG_CLIP_SECONDS = 600
LONG_CLIP_RATE = 44100
WARMUP_CLIP_SECONDS = 2
TABLE_SPEAKERS = 200

TIMING_DESCRIPTORS = (
    "spkrate",
    "mean_pause",
    "pauses_second",
    "pause_speech_ratio",
    "rhythm",
    "vowel_mean",
    "vowel_std",
)
PROSODY_DESCRIPTORS = ("intensity_std", "f0_std", "f0_mean", "vowel_f0_range")
COSINE_PAIRS = (("1->2", "1->3"), ("1->2", "2->3"), ("1->3", "2->3"))

# Location and scale of each descriptor in the `table` workload, rounded
# from the seed-7 synthetic corpus; pause_speech_ratio is planted instead.
TABLE_COLUMNS: dict[str, tuple[float, float]] = {
    "spkrate": (0.75, 0.02),
    "mean_pause": (0.70, 0.08),
    "pauses_second": (0.38, 0.12),
    "rhythm": (2.8, 0.24),
    "vowel_mean": (0.197, 0.011),
    "vowel_std": (0.046, 0.0074),
    "intensity_std": (1.46, 0.33),
    "f0_std": (29.6, 7.4),
    "f0_mean": (173.0, 9.0),
    "vowel_f0_range": (27.6, 13.5),
    "harmonicity": (29.4, 2.8),
    "jitter_loc": (0.0088, 0.0083),
    "jitter_ppq5": (0.0053, 0.0071),
    "shimmer_loc": (0.021, 0.015),
    "shimmer_apq5": (0.0086, 0.0086),
    "f1": (544.0, 33.0),
    "f2": (1570.0, 127.0),
    "f3": (2635.0, 103.0),
    "b1": (86.0, 22.0),
    "b2": (110.0, 22.0),
    "b3": (241.0, 31.0),
    "cep1": (8.5, 0.98),
    "cep2": (-8.0, 0.82),
    "cep3": (-2.1, 1.08),
    "cep4": (-5.5, 0.60),
    "cep5": (-3.0, 0.78),
    "cep6": (-0.11, 0.39),
    "cep7": (-2.4, 0.46),
    "cep8": (-0.93, 0.36),
}
# Planted session shift: direction per session step, in units of the scale.
TABLE_SHIFTS = {"f0_mean": 1, "harmonicity": -1, "rhythm": 1}
TABLE_SHIFT_SIZE = 0.4


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _written(write, path: str, obj) -> bytes:
    write(path, obj)
    with open(path, "rb") as fh:
        return fh.read()


def _extract(rec, path: str, op_id: str, required):
    """One recording: load_wav -> resample -> segment_clip -> extract_features.

    Returns (clip, FeatureVector), or None when a call raised. The operation
    fails when a descriptor named in `required` is absent or not finite.
    """
    with rec.op("recording", op_id) as op:
        clip = audio_io.load_wav(path, source_id=op_id)
        rec.checkpoint()
        clip = audio_io.resample(clip)
        rec.checkpoint()
        seg = segmentation.segment_clip(clip)
        rec.checkpoint()
        fv = features.extract_features(clip, seg=seg)
        op.audio_s = clip.duration
        bad = [n for n in required if fv[n] is None or not math.isfinite(fv[n])]
        op.check(not bad, f"{op_id}: absent or non-finite {bad}")
        return clip, fv
    return None


def _matrix(rec, table: features.FeatureTable, test: str, check=None):
    """One significance matrix, or None when a call raised.

    The W matrix also gets the three transition cosines. `check(op, matrix)`
    adds the workload's own checks.
    """
    with rec.op("matrix", f"{test} matrix") as op:
        matrix = stats.significance_matrix(table, test)
        op.check(
            len(matrix.cells) == len(features.FEATURE_NAMES) * len(stats.TRANSITIONS),
            f"{test} matrix is missing cells",
        )
        if test == "W":
            vectors = {
                tr: stats.transition_vector(matrix, tr, alpha=0.05, test=test)
                for tr in stats.TRANSITIONS
            }
            for a, b in COSINE_PAIRS:
                try:
                    stats.cosine_similarity(vectors[a], vectors[b])
                except errors.ZeroVectorError:
                    pass  # no significant arrow in one transition: cosine undefined by design
        if check is not None:
            check(op, matrix)
        return matrix
    return None


def _matrix_bytes(workdir: str, matrix: stats.SignificanceMatrix | None) -> bytes:
    if matrix is None:
        return b""
    return _written(stats.write_matrix_csv, os.path.join(workdir, "matrix.csv"), matrix)


def _models_bytes(workdir: str, trained) -> bytes:
    path = os.path.join(workdir, "model.json")
    return b"".join(_written(regression.save_model, path, m) for m in trained)


class Corpus:
    """The paper-sized study: 20 speakers x 3 sessions of synthetic interviews."""

    name = "corpus"

    @staticmethod
    def build(workdir: str, seed: int) -> None:
        synth.generate_corpus(workdir, n_speakers=CORPUS_SPEAKERS, seed=seed)

    def __init__(self, workdir: str, seed: int) -> None:
        self.workdir = workdir
        with open(os.path.join(workdir, "manifest.csv"), newline="", encoding="utf-8") as fh:
            self.rows = [
                (os.path.join(workdir, r["path"]), r["speaker_id"], r["session"])
                for r in csv.DictReader(fh)
            ]
        self.ratings = regression.read_ratings_csv(os.path.join(workdir, "ratings.csv"))

    def warm_up(self, rec) -> None:
        path, speaker, session = self.rows[0]
        _extract(rec, path, f"{speaker}/{session}", ())
        models.registry()

    def run_pass(self, rec) -> dict:
        table = features.FeatureTable()
        for path, speaker, session in self.rows:
            done = _extract(rec, path, f"{speaker}/{session}", ("f0_mean", "pause_speech_ratio"))
            if done is not None:
                table.add(speaker, session, done[1])

        csv_path = os.path.join(self.workdir, "features.csv")
        with rec.op("csv", "features.csv") as op:
            features.write_table_csv(csv_path, table)
            back = features.read_table_csv(csv_path)
            op.check(
                [(r.speaker_id, r.session, r.features) for r in back.rows]
                == [(r.speaker_id, r.session, r.features) for r in table.rows],
                "feature CSV round trip changed the table",
            )

        t_matrix = _matrix(rec, table, "t")
        w_matrix = _matrix(rec, table, "W")

        model = None
        with rec.op("model", "cooperative/S1") as op:
            model = regression.train_model(table, self.ratings, "cooperative", "S1")
            r_cross = [
                regression.cross_session_eval(model, table, self.ratings, s) for s in ("S2", "S3")
            ]
            beta = dict(zip(model.predictors, model.betas)).get("pause_speech_ratio")
            op.check(
                beta is not None and beta < 0.0,
                f"cooperative/S1 predictors {model.predictors}: "
                "want pause_speech_ratio with beta < 0",
            )
            op.check(
                all(abs(r - model.train_r) <= CROSS_SESSION_TOLERANCE for r in r_cross),
                f"cross-session r {r_cross} not within {CROSS_SESSION_TOLERANCE} "
                f"of train r {model.train_r}",
            )

        with rec.op("scores", "registry") as op:
            reference = cli._stats_from_table(table)  # as `voxtrait score` uses
            registry = models.registry()
            scores = [
                models.score(m, models.standardize_against(row.features, reference)).score
                for row in table.rows
                for m in registry
            ]
            op.check(
                len(registry) == 27 and all(math.isfinite(s) for s in scores),
                "registry scores are not all finite",
            )

        return {"csv": csv_path, "t": t_matrix, "W": w_matrix, "model": model}

    def digests(self, out: dict) -> dict[str, str]:
        with open(out["csv"], "rb") as fh:
            feature_csv = fh.read()
        return {
            "features_csv": _sha256(feature_csv),
            "t_arrows_csv": _sha256(_matrix_bytes(self.workdir, out["t"])),
            "W_arrows_csv": _sha256(_matrix_bytes(self.workdir, out["W"])),
            "cooperative_S1_model_json": _sha256(
                _models_bytes(self.workdir, [out["model"]] if out["model"] else [])
            ),
        }


def _write_pcm16_stereo(path: str, left: np.ndarray, right: np.ndarray, rate: int) -> None:
    pcm = np.round(np.clip(np.stack((left, right), axis=1), -1.0, 1.0) * 32767.0).astype("<i2")
    with wave.open(path, "wb") as wf:
        wf.setnchannels(2)
        wf.setsampwidth(2)
        wf.setframerate(rate)
        wf.writeframes(pcm.tobytes())


class LongClip:
    """One 10-minute interview, stored as 44.1 kHz 16-bit stereo PCM."""

    name = "long-clip"

    @staticmethod
    def build(workdir: str, seed: int) -> None:
        corpus_dir = os.path.join(workdir, "corpus")
        paths = synth.generate_corpus(corpus_dir, n_speakers=CORPUS_SPEAKERS, seed=seed)
        with open(paths.manifest, newline="", encoding="utf-8") as fh:
            audio = np.concatenate(
                [
                    audio_io.load_wav(os.path.join(corpus_dir, r["path"])).samples
                    for r in csv.DictReader(fh)
                ]
            )
        shutil.rmtree(corpus_dir)
        rate = audio_io.TARGET_RATE
        n = LONG_CLIP_SECONDS * rate
        tiled = np.tile(audio, -(-n // audio.size))[:n]
        left = resample_poly(tiled, LONG_CLIP_RATE // rate, 1)
        # A slightly delayed right channel, so the mixdown is real work.
        right = np.roll(left, 3)
        _write_pcm16_stereo(os.path.join(workdir, "long.wav"), left, right, LONG_CLIP_RATE)
        k = WARMUP_CLIP_SECONDS * LONG_CLIP_RATE
        _write_pcm16_stereo(
            os.path.join(workdir, "warmup.wav"), left[:k], right[:k], LONG_CLIP_RATE
        )

    def __init__(self, workdir: str, seed: int) -> None:
        self.workdir = workdir
        self.path = os.path.join(workdir, "long.wav")

    def warm_up(self, rec) -> None:
        _extract(rec, os.path.join(self.workdir, "warmup.wav"), "warmup", ())

    def run_pass(self, rec) -> dict:
        done = _extract(rec, self.path, "long", TIMING_DESCRIPTORS + PROSODY_DESCRIPTORS)
        if done is None:
            return {"features": None}
        clip, fv = done
        op = rec.ops[-1]
        want = LONG_CLIP_SECONDS * audio_io.TARGET_RATE
        op.check(
            abs(clip.samples.size - want) <= 1,
            f"duration {clip.duration} s is not {LONG_CLIP_SECONDS} s to within one sample",
        )
        return {"features": fv}

    def digests(self, out: dict) -> dict[str, str]:
        fv = out["features"]
        text = "" if fv is None else ",".join(repr(fv[n]) for n in features.FEATURE_NAMES)
        return {"descriptor_vector": _sha256(text.encode())}


def make_table(seed: int) -> tuple[features.FeatureTable, regression.RatingTable]:
    """200 speakers x S1-S3 of descriptors plus panel ratings, straight from the seed.

    A latent attitude drives pause_speech_ratio (negative slope, as in the
    synthetic corpus) and every rating; the other descriptors are speaker
    traits plus session noise, and TABLE_SHIFTS move between sessions.
    """
    rng = np.random.default_rng(seed)
    table = features.FeatureTable()
    ratings = regression.RatingTable()
    for idx in range(TABLE_SPEAKERS):
        speaker = f"sp{idx + 1:03d}"
        attitude = float(rng.standard_normal())
        trait = rng.standard_normal(len(TABLE_COLUMNS))
        for s_idx, session in enumerate(features.SESSIONS):
            noise = rng.standard_normal(len(TABLE_COLUMNS))
            values = {}
            for j, (name, (loc, scale)) in enumerate(TABLE_COLUMNS.items()):
                shift = TABLE_SHIFTS.get(name, 0) * TABLE_SHIFT_SIZE * s_idx
                values[name] = loc + scale * (0.8 * trait[j] + 0.6 * noise[j] + shift)
            psr = synth.PSR_BASE + synth.PSR_SLOPE * attitude + 0.02 * rng.standard_normal()
            values["pause_speech_ratio"] = float(np.clip(psr, 0.10, 0.85))
            table.add(speaker, session, features.FeatureVector(values))
        for dv in regression.DV_NAMES:
            sign = 1 if dv in synth.POSITIVE_DVS else -1
            raw = 4.0 + sign * 1.9 * attitude + 0.5 * rng.standard_normal()
            ratings.add(speaker, dv, "P", int(min(7, max(1, round(raw)))))
    return table, ratings


def _check_shift(op, matrix: stats.SignificanceMatrix) -> None:
    for name, direction in TABLE_SHIFTS.items():
        want = "up" if direction > 0 else "down"
        for tr in stats.TRANSITIONS:
            for test in matrix.tests:
                cell = matrix.cell(name, tr, test)
                op.check(
                    cell.tier != "none" and cell.direction == want,
                    f"planted shift {name} {tr} {test}: "
                    f"got {cell.direction}/{cell.tier}, want {want}",
                )


class Table:
    """Descriptor and rating tables at 200 speakers, no audio at all."""

    name = "table"

    @staticmethod
    def build(workdir: str, seed: int) -> None:
        pass  # the tables are generated in memory by __init__

    def __init__(self, workdir: str, seed: int) -> None:
        self.workdir = workdir
        self.table, self.ratings = make_table(seed)

    def warm_up(self, rec) -> None:
        _matrix(rec, self.table, "t")

    def run_pass(self, rec) -> dict:
        t_matrix = _matrix(rec, self.table, "t", _check_shift)
        w_matrix = _matrix(rec, self.table, "W", _check_shift)
        trained = []
        for s_idx, session in enumerate(features.SESSIONS):
            other = features.SESSIONS[(s_idx + 1) % len(features.SESSIONS)]
            for dv in regression.DV_NAMES:
                with rec.op("model", f"{dv}/{session}") as op:
                    model = regression.train_model(self.table, self.ratings, dv, session)
                    regression.cross_session_eval(model, self.table, self.ratings, other)
                    trained.append(model)
                    want = -1.0 if dv in synth.POSITIVE_DVS else 1.0
                    beta = dict(zip(model.predictors, model.betas)).get("pause_speech_ratio")
                    op.check(
                        beta is not None and beta * want > 0.0,
                        f"{dv}/{session}: predictors {model.predictors}, want "
                        f"pause_speech_ratio with sign {want:+.0f}",
                    )
        merged = None
        if t_matrix is not None and w_matrix is not None:
            merged = stats.SignificanceMatrix.merge(t_matrix, w_matrix)
        return {"matrix": merged, "models": trained}

    def digests(self, out: dict) -> dict[str, str]:
        return {
            "merged_arrows_csv": _sha256(_matrix_bytes(self.workdir, out["matrix"])),
            "models_json": _sha256(_models_bytes(self.workdir, out["models"])),
        }


WORKLOADS = {cls.name: cls for cls in (Corpus, LongClip, Table)}
