"""Command-line surface for the full pipeline.

Subcommands: extract, compare-topics, transition-similarity, train,
evaluate, score, synth-corpus, windows. Every run resolves its
configuration once and emits it alongside the output (as `<out>.run.json`
next to file outputs, on stderr for stdout-only commands) so results can
be reproduced from the sidecar alone.

Exit codes: 0 success; 2 input problems (unreadable files, bad formats,
bad arguments); 3 statistical preconditions not met; 4 partial success
(some recordings failed); 5 model trained but declared unstable.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
import traceback
from concurrent.futures import ProcessPoolExecutor
from functools import partial

import numpy as np

from .audio_io import load_wav, resample
from .config import RunConfig, load_config
from .csvio import finite, read_csv
from .errors import DuplicateKeyError, InputError, StatsError, TableFormatError
from .features import (
    FEATURE_NAMES,
    SESSIONS,
    FeatureTable,
    FeatureVector,
    extract_features,
    measure_vowels,
    read_table_csv,
    write_table_csv,
)
from .models import registry, score, standardize_against
from .regression import (
    Thresholds,
    cross_session_eval,
    load_model,
    read_ratings_csv,
    save_model,
    train_model,
)
from .segmentation import segment_clip
from .stats import (
    TRANSITIONS,
    SignificanceMatrix,
    cosine_similarity,
    read_matrix_csv,
    significance_matrix,
    transition_vector,
    write_matrix_csv,
)
from .synth import generate_corpus

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_STATS = 3
EXIT_PARTIAL = 4
EXIT_UNSTABLE = 5


def _emit_run_config(command: str, cfg: RunConfig, out_path: str | None) -> None:
    doc = {"command": command, "config": cfg.to_dict()}
    text = json.dumps(doc, indent=2) + "\n"
    if out_path is None:
        sys.stderr.write(text)
    else:
        with open(out_path + ".run.json", "w", encoding="utf-8") as fh:
            fh.write(text)


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    """The --config file with every RunConfig field given as a flag laid over it."""
    overrides = {f.name: getattr(args, f.name, None) for f in dataclasses.fields(RunConfig)}
    return load_config(getattr(args, "config", None), **overrides)


def read_manifest(path: str) -> list[tuple[str, str, str]]:
    """Rows of (wav path, speaker_id, session); paths relative to the manifest.

    Each (speaker_id, session) may appear on one line only.
    """
    base = os.path.dirname(os.path.abspath(path))
    rows: list[tuple[str, str, str]] = []
    first_line: dict[tuple[str, str], int] = {}

    def parse(line: int, cells: list[str]) -> None:
        wav, speaker, session = cells
        if session not in SESSIONS:
            raise TableFormatError(f"unknown session {session!r}")
        key = (speaker, session)
        if key in first_line:
            raise DuplicateKeyError(f"duplicate row for {key}, first on line {first_line[key]}")
        first_line[key] = line
        rows.append((os.path.join(base, wav), speaker, session))

    read_csv(path, ["path", "speaker_id", "session"], parse)
    return rows


def _extract_one(job: tuple[str, str, str, RunConfig]) -> tuple[str, str, FeatureVector]:
    path, speaker, session, cfg = job
    clip = load_wav(path, source_id=f"{speaker}/{session}")
    clip = resample(clip, cfg.sample_rate)
    seg = segment_clip(clip, cfg)
    return speaker, session, extract_features(clip, cfg, seg)


def cmd_extract(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    manifest = read_manifest(args.manifest)
    jobs = [(path, spk, ses, cfg) for path, spk, ses in manifest]
    if cfg.jobs > 1 and len(jobs) > 1:
        # one future per manifest row keeps the outcomes in manifest order
        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            futures = [pool.submit(_extract_one, job) for job in jobs]
        outcomes = [future.result for future in futures]
    else:
        outcomes = [partial(_extract_one, job) for job in jobs]
    table = FeatureTable()
    failures = 0
    for job, outcome in zip(jobs, outcomes):
        try:
            result = outcome()
        except Exception as exc:  # one bad recording must not cost the table
            sys.stderr.write(f"warning: {job[0]}: {type(exc).__name__}: {exc}\n")
            if not isinstance(exc, (InputError, StatsError)):
                traceback.print_exception(exc)  # a fault in the program, not the input
            failures += 1
        else:
            table.add(*result)
    write_table_csv(args.out, table)
    _emit_run_config("extract", cfg, args.out)
    if manifest and failures == len(manifest):
        sys.stderr.write("error: every recording failed to process\n")
        return EXIT_INPUT
    if failures:
        return EXIT_PARTIAL
    return EXIT_OK


def cmd_compare_topics(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    table = read_table_csv(args.features)
    tests = ("t", "W") if args.test == "both" else (args.test,)
    matrix: SignificanceMatrix | None = None
    for test in tests:
        part = significance_matrix(table, test, alphas=cfg.alphas)
        matrix = part if matrix is None else SignificanceMatrix.merge(matrix, part)
    write_matrix_csv(args.out, matrix)
    _emit_run_config("compare-topics", cfg, args.out)
    return EXIT_OK


def _builtin_matrix_path() -> str:
    from importlib import resources

    ref = resources.files("voxtrait").joinpath("data", "reference_arrows.csv")
    return str(ref)


def cmd_transition_similarity(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    path = _builtin_matrix_path() if args.published else args.matrix
    if path is None:
        raise InputError("pass --matrix FILE or --published")
    matrix = read_matrix_csv(path)
    vectors = {
        tr: transition_vector(matrix, tr, alpha=args.alpha, test=args.test)
        for tr in TRANSITIONS
    }
    pairs = [("1->2", "1->3"), ("1->2", "2->3"), ("1->3", "2->3")]
    for ta, tb in pairs:
        value = cosine_similarity(vectors[ta], vectors[tb])
        sys.stdout.write(f"cos({ta},{tb}) = {value:.4f}\n")
    _emit_run_config("transition-similarity", cfg, None)
    return EXIT_OK


def cmd_train(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    table = read_table_csv(args.features)
    ratings = read_ratings_csv(args.ratings)
    thresholds = Thresholds(
        **{f.name: getattr(cfg, f.name) for f in dataclasses.fields(Thresholds)}
    )
    model = train_model(
        table,
        ratings,
        dv=args.dv,
        session=args.session,
        rater_type=args.rater_type,
        thresholds=thresholds,
        max_absent_fraction=cfg.max_absent_fraction,
    )
    save_model(args.out, model)
    _emit_run_config("train", cfg, args.out)
    st = model.stability
    sys.stdout.write(
        f"{args.dv}/{args.session}: predictors {list(model.predictors)!r} "
        f"train_r={model.train_r:.4f}\n"
        f"stability: identical {st.fraction_identical:.2f} of {st.n_folds} folds, "
        f"loocv_r={st.r_loocv:.4f}, stable={st.stable}\n"
    )
    return EXIT_OK if st.stable else EXIT_UNSTABLE


def cmd_evaluate(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    model = load_model(args.model)
    table = read_table_csv(args.features)
    ratings = read_ratings_csv(args.ratings)
    r = cross_session_eval(model, table, ratings, session=args.session, rater_type=args.rater_type)
    sys.stdout.write(
        f"{model.dv} trained on {model.session}, tested on "
        f"{args.session}/{args.rater_type}: r = {r:.4f}\n"
    )
    _emit_run_config("evaluate", cfg, None)
    return EXIT_OK


def _read_stats_csv(path: str) -> dict[str, tuple[float, float]]:
    stats: dict[str, tuple[float, float]] = {}

    def parse(line: int, cells: list[str]) -> None:
        stats[cells[0]] = (finite(cells[1]), finite(cells[2]))

    read_csv(path, ["feature", "mean", "std"], parse)
    return stats


def _stats_from_table(table: FeatureTable) -> dict[str, tuple[float, float]]:
    """Per-feature mean/std over every row; features needing them get both."""
    stats: dict[str, tuple[float, float]] = {}
    rows = [row.features for row in table.rows]
    for name in FEATURE_NAMES:
        values = [row[name] for row in rows if row.present(name)]
        if len(values) < 2:
            continue
        arr = np.asarray(values, dtype=np.float64)
        std = float(arr.std(ddof=1))
        if std > 0.0:
            stats[name] = (float(arr.mean()), std)
    return stats


def cmd_score(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    table = read_table_csv(args.features)
    stats = _read_stats_csv(args.stats) if args.stats else _stats_from_table(table)
    models = [
        m
        for m in registry()
        if (args.dv is None or m.dv == args.dv)
        and (args.session is None or m.session == args.session)
    ]
    if not models:
        raise InputError("no registry model matches the dv/session filters")
    sys.stdout.write(
        "# coefficients interpreted as standardized regression weights\n"
        "speaker,session,dv,model_session,score,top_terms,text_uncertain\n"
    )
    for row in table.rows:
        z = standardize_against(row.features, stats)
        for model in models:
            if any(name not in z for name in model.predictors):
                missing = [name for name in model.predictors if name not in z]
                sys.stderr.write(
                    f"warning: {row.speaker_id}/{row.session}: "
                    f"{model.dv}/{model.session} skipped, missing {missing}\n"
                )
                continue
            report = score(model, z)
            ranked = sorted(report.terms, key=lambda t: -abs(t.product))
            top = ";".join(f"{t.predictor}:{t.product:+.3f}" for t in ranked[:3])
            sys.stdout.write(
                f"{row.speaker_id},{row.session},{model.dv},{model.session},"
                f"{report.score:+.4f},{top},{int(report.text_uncertain)}\n"
            )
    _emit_run_config("score", cfg, None)
    return EXIT_OK


def cmd_synth_corpus(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    paths = generate_corpus(
        args.out,
        n_speakers=args.speakers,
        seed=cfg.seed,
        sample_rate=cfg.sample_rate,
    )
    _emit_run_config("synth-corpus", cfg, os.path.join(args.out, "corpus"))
    sys.stdout.write(
        f"manifest: {paths.manifest}\nratings: {paths.ratings}\nlatents: {paths.latents}\n"
    )
    return EXIT_OK


def cmd_windows(args: argparse.Namespace) -> int:
    """Per-stressed-vowel dump of the measures that extract aggregates."""
    cfg = _config_from_args(args)
    clip = load_wav(args.wav)
    clip = resample(clip, cfg.sample_rate)
    seg = segment_clip(clip, cfg)
    writer = csv.writer(sys.stdout)
    writer.writerow(
        ["start_s", "end_s", "f0_mean", "intensity_db", "jitter_loc", "shimmer_loc",
         "harmonicity_db", "f1", "f2", "f3"]
    )

    def fmt(v):
        return "" if v is None else f"{v:.4f}"

    for vowel, prosody, quality, spectral in measure_vowels(clip, seg, cfg):
        if prosody is None:
            continue
        formants = (None, None, None) if spectral is None else spectral.formants
        writer.writerow(
            [f"{vowel.start:.3f}", f"{vowel.end:.3f}", fmt(prosody.f0_mean),
             f"{prosody.mean_intensity:.2f}", fmt(quality.jitter_local),
             fmt(quality.shimmer_local), fmt(quality.harmonicity_db),
             fmt(formants[0]), fmt(formants[1]), fmt(formants[2])]
        )
    _emit_run_config("windows", cfg, None)
    return EXIT_OK


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--sample-rate", dest="sample_rate", type=int)
    p.add_argument("--pause-min-duration", dest="pause_min_duration", type=float)
    p.add_argument("--voicing-threshold", dest="voicing_threshold", type=float)
    p.add_argument("--entry-p", dest="entry_p", type=float)
    p.add_argument("--removal-p", dest="removal_p", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--jobs", type=int)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="voxtrait",
        description="Nonverbal speech descriptors, topic-shift statistics, rating models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="descriptor table from a WAV manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    _add_config_flags(p)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("compare-topics", help="significance arrows per feature and transition")
    p.add_argument("--features", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--test", choices=["t", "W", "both"], default="both")
    _add_config_flags(p)
    p.set_defaults(func=cmd_compare_topics)

    p = sub.add_parser("transition-similarity", help="cosines between transition vectors")
    p.add_argument("--matrix")
    p.add_argument("--published", action="store_true",
                   help="use the packaged published arrow matrix")
    p.add_argument("--alpha", type=float, default=max(RunConfig.alphas))
    p.add_argument("--test", choices=["t", "W"], default="W")
    _add_config_flags(p)
    p.set_defaults(func=cmd_transition_similarity)

    p = sub.add_parser("train", help="stepwise model with stability gate")
    p.add_argument("--features", required=True)
    p.add_argument("--ratings", required=True)
    p.add_argument("--dv", required=True)
    p.add_argument("--session", required=True, choices=SESSIONS)
    p.add_argument("--rater-type", dest="rater_type", default="P")
    p.add_argument("--out", required=True)
    _add_config_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="apply a model to another session")
    p.add_argument("--model", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--ratings", required=True)
    p.add_argument("--session", required=True, choices=SESSIONS)
    p.add_argument("--rater-type", dest="rater_type", default="P")
    _add_config_flags(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("score", help="score recordings against the published models")
    p.add_argument("--features", required=True)
    p.add_argument("--stats", help="feature,mean,std CSV; defaults to the table's own stats")
    p.add_argument("--dv")
    p.add_argument("--session", choices=SESSIONS)
    _add_config_flags(p)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("synth-corpus", help="deterministic synthetic interview corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--speakers", type=int, default=20)
    _add_config_flags(p)
    p.set_defaults(func=cmd_synth_corpus)

    p = sub.add_parser("windows", help="per-vowel measurement dump for one recording")
    p.add_argument("--wav", required=True)
    _add_config_flags(p)
    p.set_defaults(func=cmd_windows)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    except StatsError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_STATS


if __name__ == "__main__":
    sys.exit(main())
