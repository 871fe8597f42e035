"""Benchmark of the voxtrait pipeline on one seeded workload.

    python3 benchmarks/run.py --workload corpus|long-clip|table \
        [--seed 7] [--seconds 10] [--trace 0|1]

Run from the repository root; the package is imported from ./src. The
parent process only starts children and never imports the package, so it
stays small. Set-up children each build the workload's inputs from the
seed, load them and warm up, and report how long that took (several times
with --trace 0, to time the set-up). Then one fresh measuring child loads
the last build, warms up and runs full passes over it, one caller in a
closed loop, for --seconds. The measuring child's peak RSS is therefore
that of a process that ran only this workload: a child's ru_maxrss also
covers its parent's peak at the time of the exec, and the parent's peak
is that of a bare interpreter.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of
a traced run. The traced run first runs untraced passes for half the time,
then wraps the package's public functions (see `install_wrappers`) for the
other half, which gives the tracing overhead. Every run prints its output
digests; the last line of stdout is one JSON object with `correct`,
`attempted`, `failed` and `metrics`. The end-to-end times are scaled by a
speed probe (see END_TO_END); the plain wall times are printed beside them.

benchmarks/fingerprint.json holds the seed-7 digests and counts; a run at
seed 7 reports any difference, which does not make it fail. After an
intended behaviour change, replace them with the `fingerprint` lines that
--trace 1 runs at seed 7 print. benchmarks/selftest.py checks the benchmark
itself.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"
FINGERPRINT = Path(__file__).resolve().parent / "fingerprint.json"
# Set-ups per --trace 0 run: at least SETUP_MIN, and more, up to SETUP_MAX,
# while their total time stays under SETUP_BUDGET_S.
SETUP_MIN = 3
SETUP_MAX = 5
SETUP_BUDGET_S = 8.0
RUN_LIMIT_S = 170.0
# A speed probe runs at the start of each measured pass, and at each
# checkpoint (see tracing.Recorder) once for every this many seconds since
# the last probe.
PROBE_EVERY_S = 0.75

# (name, unit); every workload reports all of them. Times are scaled to the
# reference speed of tracing.SpeedProbe: on the shared 2-vCPU VM the bounds
# were set on, the CPU speed drifts by up to 1.8x within a minute, and the
# spread of plain wall times over runs reached 0.33 of their median.
#   pass_norm_s  seconds per full pass over the workload's inputs, the
#                inverse of throughput: the mean over the run's passes of
#                each pass's time, without its probes, scaled by the mean of
#                the probes taken in and at the start of that pass
#   peak_rss_mb  max RSS of the measuring process, which ran only this workload
#   setup_s      median over the set-up children of the time each took to
#                build the inputs, load them and warm up, scaled by probes
#                taken just before and after
END_TO_END = (
    ("pass_norm_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

# (metric, unit, source): ("incl" | "self", span) for seconds per pass,
# ("count", key) for per-pass counts, ("peak", key) for bytes.
PER_LAYER = (
    ("audio_io.load_wav_s", "s", ("incl", "audio_io.load_wav")),
    ("audio_io.bytes_read", "bytes", ("count", "audio_io.bytes_read")),
    ("audio_io.resample_s", "s", ("incl", "audio_io.resample")),
    ("audio_io.resample_samples_out", "samples", ("count", "audio_io.resample_samples_out")),
    ("segmentation.analyze_frames_s", "s", ("incl", "segmentation.analyze_frames")),
    ("segmentation.frames", "count", ("count", "segmentation.frames")),
    ("segmentation.analyze_frames_peak_mb", "MB",
     ("peak", "segmentation.analyze_frames_peak_bytes")),
    ("segmentation.detect_vowels_s", "s", ("incl", "segmentation.detect_vowels")),
    ("segmentation.detect_pauses_s", "s", ("incl", "segmentation.detect_pauses")),
    ("segmentation.segment_clip_self_s", "s", ("self", "segmentation.segment_clip")),
    ("segmentation.vowels", "count", ("count", "segmentation.vowels")),
    ("segmentation.stressed_vowels", "count", ("count", "segmentation.stressed_vowels")),
    ("segmentation.pauses", "count", ("count", "segmentation.pauses")),
    ("acoustics.prosody_s", "s", ("incl", "acoustics.analyze_prosody_window")),
    ("acoustics.quality_s", "s", ("incl", "acoustics.analyze_quality_window")),
    ("acoustics.spectral_s", "s", ("incl", "acoustics.analyze_spectral_window")),
    ("acoustics.windows", "count", ("count", "acoustics.windows")),
    ("acoustics.ncc_curve_calls", "count", ("count", "acoustics.ncc_curve_calls")),
    ("features.extract_features_self_s", "s", ("self", "features.extract_features")),
    ("features.table_get_calls", "count", ("count", "features.FeatureTable.get_calls")),
    ("features.table_get_s", "s", ("incl", "features.FeatureTable.get")),
    ("features.table_csv_s", "s", ("incl", "features.table_csv")),
    ("stats.significance_matrix_s", "s", ("incl", "stats.significance_matrix")),
    ("stats.paired_tests", "count", ("count", "stats.paired_tests")),
    ("stats.wilcoxon_s", "s", ("incl", "stats.wilcoxon_signed_rank")),
    ("regression.train_model_s", "s", ("incl", "regression.train_model")),
    ("regression.assemble_design_s", "s", ("incl", "regression.assemble_design")),
    ("regression.loocv_stability_s", "s", ("incl", "regression.loocv_stability")),
    ("regression.stepwise_fit_calls", "count", ("count", "regression.stepwise_fit_calls")),
    ("regression.stepwise_fit_s", "s", ("incl", "regression.stepwise_fit")),
    ("regression.cross_session_eval_s", "s", ("incl", "regression.cross_session_eval")),
    ("regression.stable_models", "ratio", None),
    ("models.score_s", "s", ("incl", "models.score")),
    ("synth.generate_corpus_s", "s", None),
    ("trace.overhead_pct", "%", None),
    ("trace.unattributed_pct", "%", None),
)


def install_wrappers(tracer, vt) -> None:
    """Wrap the public functions the per-layer metrics time and count."""
    one = lambda key: lambda a, r: {key: 1}  # noqa: E731
    tracer.wrap(vt.audio_io, "load_wav", "audio_io.load_wav",
                lambda a, r: {"audio_io.bytes_read": os.path.getsize(a[0])})
    tracer.wrap(vt.audio_io, "resample", "audio_io.resample",
                lambda a, r: {"audio_io.resample_samples_out": r.samples.size})
    tracer.wrap(vt.segmentation, "segment_clip", "segmentation.segment_clip",
                lambda a, r: {"segmentation.vowels": len(r.vowels),
                              "segmentation.stressed_vowels": len(r.stressed),
                              "segmentation.pauses": len(r.pauses)})
    tracer.wrap(vt.segmentation, "analyze_frames", "segmentation.analyze_frames",
                lambda a, r: {"segmentation.frames": r.n_frames}, trace_memory=True)
    tracer.wrap(vt.segmentation, "detect_vowels", "segmentation.detect_vowels")
    tracer.wrap(vt.segmentation, "detect_pauses", "segmentation.detect_pauses")
    for kind in ("prosody", "quality", "spectral"):
        attr = f"analyze_{kind}_window"
        tracer.wrap(vt.acoustics, attr, f"acoustics.{attr}", one("acoustics.windows"))
    tracer.wrap(vt.acoustics, "ncc_curve", "acoustics.ncc_curve")
    tracer.wrap(vt.features, "extract_features", "features.extract_features")
    tracer.wrap(vt.features.FeatureTable, "get", "features.FeatureTable.get")
    tracer.wrap(vt.features, "write_table_csv", "features.table_csv")
    tracer.wrap(vt.features, "read_table_csv", "features.table_csv")
    tracer.wrap(vt.stats, "significance_matrix", "stats.significance_matrix")
    tracer.wrap(vt.stats, "paired_t_test", "stats.paired_t_test", one("stats.paired_tests"))
    tracer.wrap(vt.stats, "wilcoxon_signed_rank", "stats.wilcoxon_signed_rank",
                one("stats.paired_tests"))
    tracer.wrap(vt.regression, "train_model", "regression.train_model",
                lambda a, r: {"regression.models_stable": int(r.stability.stable)})
    tracer.wrap(vt.regression, "assemble_design", "regression.assemble_design")
    tracer.wrap(vt.regression, "loocv_stability", "regression.loocv_stability")
    tracer.wrap(vt.regression, "stepwise_fit", "regression.stepwise_fit")
    tracer.wrap(vt.regression, "cross_session_eval", "regression.cross_session_eval")
    tracer.wrap(vt.models, "score", "models.score")
    # Timed only so that its time is attributed to the models layer.
    tracer.wrap(vt.models, "standardize_against", "models.standardize_against")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=("corpus", "long-clip", "table"))
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--child", help=argparse.SUPPRESS)  # input directory of the measuring process
    p.add_argument("--setup", help=argparse.SUPPRESS)  # directory a set-up child builds into
    return p.parse_args(argv)


def import_package():
    """Import voxtrait from ./src only, never from an installed copy."""
    sys.path.insert(0, str(SRC))
    import voxtrait

    if SRC.resolve() not in Path(voxtrait.__file__).resolve().parents:
        raise ImportError(f"voxtrait was imported from {voxtrait.__file__}, not {SRC}")
    import tracing
    import workloads  # also imports voxtrait.models and voxtrait.synth

    return voxtrait, tracing, workloads


# ---------------------------------------------------------------- child


def measure(w, rec, seconds: float, traced: bool) -> list[dict]:
    """At least one full pass, then more while the next one, if as long as the
    last, would end less than half a pass after `seconds`. When `rec` has a
    speed probe, each pass also gets `work`, its time without the probes, and
    `probe_times`, the probes taken at its start and in it."""
    probe = rec.probe
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start + passes[-1]["wall"] / 2 < seconds:
        first = len(rec.ops)
        if traced:
            rec.begin_pass()
        if probe is not None:
            probe.take()
            first_probe = len(probe.times) - 1
        t0 = time.perf_counter()
        with rec.span("pass"):
            out = w.run_pass(rec)
        p = {"wall": time.perf_counter() - t0, "ops": rec.ops[first:], "digests": w.digests(out)}
        if probe is not None:
            p["probe_times"] = probe.times[first_probe:]
            p["work"] = p["wall"] - sum(p["probe_times"][1:])
        if traced:
            p["incl"], p["self"] = rec.pass_totals()
            p["counts"] = dict(rec.counts)
            p["peaks"] = dict(rec.peaks)
        passes.append(p)
    return passes


def layer_metrics(passes: list[dict], untraced_wall: float, op_kinds) -> dict[str, float]:
    """Per-layer values, each the median over the traced passes."""
    out = {}
    for name, _, source in PER_LAYER:
        if source is None:
            continue
        how, key = source
        if how == "peak":
            vals = [p["peaks"].get(key, 0) / 2**20 for p in passes]
        elif how == "count":
            vals = [p["counts"].get(key, 0) for p in passes]
        else:
            vals = [p[how].get(key, 0.0) for p in passes]
        out[name] = statistics.median(vals)
    trained = [p["counts"].get("regression.train_model_calls", 0) for p in passes]
    stable = [p["counts"].get("regression.models_stable", 0) for p in passes]
    out["regression.stable_models"] = stable[-1] / trained[-1] if trained[-1] else 0.0
    out["synth.generate_corpus_s"] = 0.0  # filled in by the parent, which runs set-up
    traced_wall = statistics.median(p["wall"] for p in passes)
    out["trace.overhead_pct"] = 100.0 * (traced_wall - untraced_wall) / untraced_wall
    bench_own = [
        sum(v for k, v in p["self"].items() if k == "pass" or k in op_kinds) / p["wall"]
        for p in passes
    ]
    out["trace.unattributed_pct"] = 100.0 * statistics.median(bench_own)
    return out


def report_consistency(passes: list[dict], traced: list[dict]) -> bool:
    """Print a flag for any output or count that differs between passes."""
    ok = True
    first = passes[0]["digests"]
    for i, p in enumerate(passes[1:], start=2):
        if p["digests"] != first:
            print(f"FLAG digests of pass {i} differ from pass 1: {p['digests']} vs {first}")
            ok = False
    for i, p in enumerate(traced[1:], start=2):
        for key in set(p["counts"]) | set(traced[0]["counts"]):
            a, b = traced[0]["counts"].get(key, 0), p["counts"].get(key, 0)
            if a != b:
                print(f"FLAG count {key} is {b} in traced pass {i} but {a} in traced pass 1")
                ok = False
    return ok


def report_fingerprint(workload: str, seed: int, digests: dict, counts: dict | None) -> None:
    """Compare with the recorded default-seed fingerprint; report only."""
    mine = {"digests": digests}
    if counts is not None:
        mine["counts"] = counts
    print(f"fingerprint {workload} seed {seed} {json.dumps(mine, sort_keys=True)}")
    if not FINGERPRINT.exists():
        return
    recorded = json.loads(FINGERPRINT.read_text())
    if seed != recorded["seed"] or workload not in recorded["workloads"]:
        return
    want = recorded["workloads"][workload]
    for section, values in mine.items():
        for key, value in values.items():
            if key in want.get(section, {}) and want[section][key] != value:
                print(f"fingerprint CHANGED {section} {key}: {value} "
                      f"(recorded {want[section][key]})")
    print("fingerprint compared with benchmarks/fingerprint.json")


def print_workload_figures(passes: list[dict]) -> None:
    """Per-workload figures with units and sample counts; printed only, because
    the result's metrics must be defined on every workload."""
    ops = [op for p in passes for op in p["ops"]]
    rec_ops = [op for op in ops if op.kind == "recording"]
    if rec_ops:
        ms = [1000.0 * op.seconds for op in rec_ops]
        audio = sum(op.audio_s for op in rec_ops)
        print(f"extract_x_realtime {audio / sum(op.seconds for op in rec_ops):.2f} audio s per s")
        print(f"recording_ms_p50 {statistics.median(ms):.3f} ms (n={len(ms)})")
        if len(ms) >= 100:  # at least ten samples beyond the 90th percentile
            print(f"recording_ms_p90 {statistics.quantiles(ms, n=10)[-1]:.3f} ms (n={len(ms)})")
    matrix_s = [sum(op.seconds for op in p["ops"] if op.kind == "matrix") for p in passes]
    if any(matrix_s):
        print(f"matrices_s {statistics.median(matrix_s):.4f} s (n={len(passes)} passes)")
    model_ops = [op for op in ops if op.kind == "model"]
    if model_ops:
        rate = len(model_ops) / sum(op.seconds for op in model_ops)
        print(f"models_per_s {rate:.3f} 1/s (n={len(model_ops)})")


def traced_run(args, w, vt, tracing) -> tuple[list[dict], list[dict], dict, dict]:
    """(untraced passes, traced passes, per-layer metrics, counts)."""
    untraced = measure(w, tracing.Recorder(), args.seconds / 2, traced=False)
    tracer = tracing.Tracer()
    install_wrappers(tracer, vt)
    try:
        traced = measure(w, tracer, args.seconds / 2, traced=True)
    finally:
        tracer.restore()
    RUN_DIR.mkdir(exist_ok=True)
    spans_path = RUN_DIR / f"spans-{args.workload}-seed{args.seed}.csv"
    tracer.write_spans(str(spans_path))

    untraced_wall = statistics.median(p["wall"] for p in untraced)
    values = layer_metrics(traced, untraced_wall, {op.kind for op in tracer.ops})
    own = traced[-1]["self"]
    print(f"traced pass wall {traced[-1]['wall']:.4f} s = sum of self times "
          f"{sum(own.values()):.4f} s; untraced pass wall {untraced_wall:.4f} s "
          f"(median of {len(untraced)})")
    for name, secs in sorted(own.items(), key=lambda kv: -kv[1]):
        print(f"self_s {name} {secs:.4f}")
    print(f"spans written to {spans_path.relative_to(ROOT)} ({len(tracer.spans)} spans)")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}
    counts = {n: values[n] for n, _, src in PER_LAYER if src and src[0] == "count"}
    return untraced, traced, metrics, counts


def untraced_run(args, w, tracing) -> tuple[list[dict], dict]:
    """(passes, end-to-end metrics other than setup_s)."""
    probe = tracing.SpeedProbe(every_s=PROBE_EVERY_S)
    rec = tracing.Recorder(probe)
    passes = measure(w, rec, args.seconds, traced=False)
    values = {
        "pass_norm_s": statistics.fmean(
            probe.scaled(p["work"], p["probe_times"]) for p in passes
        ),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print(f"pass_s {statistics.fmean(p['work'] for p in passes):.4f} s wall per pass "
          f"without probes; {len(probe.times)} probes, median "
          f"{statistics.median(probe.times):.5f} s (reference {probe.REFERENCE_S} s)")
    print(f"peak_rss_mb {values['peak_rss_mb']:.1f} MB from ru_maxrss; "
          f"VmHWM {high_water_mb()} MB")
    return passes, {name: {"value": values[name], "unit": unit}
                    for name, unit in END_TO_END if name in values}


def high_water_mb() -> str:
    """VmHWM of this process, which covers only its own address space."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return f"{int(line.split()[1]) / 1024.0:.1f}"
    except OSError:
        pass
    return "unknown"


def setup_main(args, vt, tracing, workloads) -> int:
    """One set-up as a fresh measuring process needs it: build the inputs into
    args.setup, load them and warm up. Prints the seconds that took, plain
    and scaled by probes taken just before and after, and the time inside
    synth.generate_corpus."""
    probe = tracing.SpeedProbe()
    tracer = tracing.Tracer()
    tracer.wrap(vt.synth, "generate_corpus", "synth.generate_corpus")
    try:
        probe.take()
        probe.take()
        t0 = time.perf_counter()
        cls = workloads.WORKLOADS[args.workload]
        cls.build(args.setup, args.seed)
        cls(args.setup, args.seed).warm_up(tracing.Recorder())
        wall_s = time.perf_counter() - t0
        probe.take()
        probe.take()
    finally:
        tracer.restore()
    generate_s = tracer.pass_totals()[0].get("synth.generate_corpus", 0.0)
    print(json.dumps({"setup_s": probe.scaled(wall_s, probe.times), "wall_s": wall_s,
                      "generate_s": generate_s}))
    return 0


def child_main(args, vt, tracing, workloads) -> int:
    t0 = time.perf_counter()
    w = workloads.WORKLOADS[args.workload](args.child, args.seed)
    w.warm_up(tracing.Recorder())
    print(f"measuring process loaded its inputs and warmed up in "
          f"{time.perf_counter() - t0:.4f} s")

    if args.trace:
        untraced, traced, metrics, counts = traced_run(args, w, vt, tracing)
    else:
        (untraced, metrics), traced, counts = untraced_run(args, w, tracing), [], None
    passes = untraced + traced

    print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes of "
          f"{[round(p['wall'], 4) for p in passes]} s")
    print_workload_figures(untraced)
    ops = [op for p in passes for op in p["ops"]]
    failed = [op for op in ops if not op.ok]
    print(f"failed_fraction {len(failed) / len(ops):.4f} ({len(failed)} of {len(ops)} operations)")
    for op in failed[:5]:
        print(f"FAILED {op.kind} {op.op_id}: {'; '.join(op.errors)}")
        sys.stderr.write(op.traceback)
    for key, digest in passes[0]["digests"].items():
        print(f"digest {key} {digest}")
    consistent = report_consistency(passes, traced)
    report_fingerprint(args.workload, args.seed, passes[0]["digests"], counts)

    result = {
        "correct": not failed and consistent,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


# --------------------------------------------------------------- parent


def parent_main(args) -> int:
    started = time.perf_counter()
    work = RUN_DIR / f"{args.workload}-{os.getpid()}"
    base = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--trace", str(args.trace)]

    def child(extra: list[str]) -> list[str] | None:
        """Stdout lines of one child, or None when it failed."""
        budget = RUN_LIMIT_S - (time.perf_counter() - started)
        proc = subprocess.run(base + extra, stdout=subprocess.PIPE, text=True,
                              timeout=budget, cwd=ROOT)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            sys.stdout.write(proc.stdout)
            print(f"{extra[-2]} process exited with {proc.returncode}", file=sys.stderr)
            return None
        return lines

    try:
        setups = []
        least, most = (1, 1) if args.trace else (SETUP_MIN, SETUP_MAX)
        while len(setups) < least or (
            len(setups) < most and sum(t["wall_s"] for t in setups) < SETUP_BUDGET_S
        ):
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            lines = child(["--setup", str(work)])
            if lines is None:
                return 1
            setups.append(json.loads(lines[-1]))

        lines = child(["--seconds", str(args.seconds), "--child", str(work)])
        if lines is None:
            return 1
        result = json.loads(lines[-1])
        if args.trace:
            generate_s = setups[0]["generate_s"]
            result["metrics"]["synth.generate_corpus_s"]["value"] = generate_s
        else:
            times = [t["setup_s"] for t in setups]
            setup_s = statistics.median(times)
            result["metrics"]["setup_s"] = {"value": setup_s, "unit": "s"}
            print(f"setup_s {setup_s:.4f} s: median of {len(times)} scaled set-ups "
                  f"{[round(t, 4) for t in times]}, wall "
                  f"{[round(t['wall_s'], 4) for t in setups]}")
        for line in lines[:-1]:
            print(line)
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (args.child or args.setup):
        if not (SRC / "voxtrait").is_dir():
            print(f"no voxtrait package under {SRC}", file=sys.stderr)
            return 2
        return parent_main(args)
    try:
        vt, tracing, workloads = import_package()
    except ImportError as exc:
        print(f"cannot import the voxtrait package from {SRC}: {exc}", file=sys.stderr)
        return 2
    if args.setup:
        return setup_main(args, vt, tracing, workloads)
    return child_main(args, vt, tracing, workloads)


if __name__ == "__main__":
    sys.exit(main())
