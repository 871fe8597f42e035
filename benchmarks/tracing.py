"""Operation timing and call tracing for the benchmark.

`Recorder` times the benchmark's operations (one recording, one matrix, one
model, ...) and is all the untraced run uses. `SpeedProbe` measures how fast
the machine currently is, so that end-to-end times can be scaled to one
reference speed. `Tracer` additionally replaces
public functions of the package with timing wrappers, on the module or class
attribute the package looks up at call time, and restores them afterwards.
Every wrapped call becomes a span (name, start, end, parent, operation id);
spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import csv
import functools
import statistics
import time
import traceback
import tracemalloc
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np


@dataclass
class OpRecord:
    kind: str
    op_id: str
    seconds: float = 0.0
    audio_s: float = 0.0
    errors: list[str] = field(default_factory=list)
    traceback: str = ""

    @property
    def ok(self) -> bool:
        return not self.errors

    def check(self, condition: bool, message: str) -> None:
        if not condition:
            self.errors.append(message)


class SpeedProbe:
    """A fixed piece of work, independent of the package, whose time tracks
    how fast the machine is at the moment.

    On a shared virtual machine the CPU speed drifts by tens of percent
    within seconds, which hides the program's own cost. Dividing a time by
    the probe times taken around it and multiplying by REFERENCE_S gives the
    time the work would take when the probe takes REFERENCE_S. The probe
    mixes interpreter-bound dict loops and small least-squares solves with
    array passes over 2 MB, as the workloads do; the first two take about
    half of its time. `table` is mostly interpreter-bound and `long-clip`
    mostly array-bound, and each is scaled best by a probe like itself.
    """

    # About the probe's median on the 2-vCPU Intel Xeon VM the bounds were
    # set on, so that scaled seconds read close to wall seconds there.
    REFERENCE_S = 0.027

    def __init__(self, every_s: float = 0.0) -> None:
        rng = np.random.default_rng(0)
        self._rows = [{"id": f"r{i}", "v": float(i)} for i in range(400)]
        self._x = rng.standard_normal((120, 8))
        self._y = rng.standard_normal(120)
        self._big = rng.standard_normal(1 << 18)
        self.every_s = every_s
        self.times: list[float] = []
        self._last = time.perf_counter()

    def take(self) -> None:
        t0 = time.perf_counter()
        acc = 0.0
        for _ in range(250):
            for row in self._rows:
                if row["id"] != "":
                    acc += row["v"]
        for _ in range(80):
            acc += float(np.linalg.lstsq(self._x, self._y, rcond=None)[0][0])
        spectrum = np.abs(np.fft.rfft(self._big)) ** 2
        acc += float(spectrum.sum() + np.cumsum(self._big * 0.5 + 1.0)[-1])
        self._last = time.perf_counter()
        self.times.append(self._last - t0)

    def __call__(self) -> None:
        """Take one probe per `every_s` since the last one, so that probes
        take about the same share of the time whatever an operation's length."""
        for _ in range(int((time.perf_counter() - self._last) / self.every_s)):
            self.take()

    @classmethod
    def scaled(cls, seconds: float, probe_times: list[float]) -> float:
        return seconds * cls.REFERENCE_S / statistics.fmean(probe_times)


class Recorder:
    """Times operations; a raising call or a failed check fails the operation.

    With a `probe`, `checkpoint` lets it run; an operation's time leaves out
    the probes taken inside it.
    """

    def __init__(self, probe: SpeedProbe | None = None) -> None:
        self.ops: list[OpRecord] = []
        self.probe = probe

    def checkpoint(self) -> None:
        """Called after each operation and between the stages of a recording,
        so that the probes are spread over a long operation too."""
        if self.probe is not None:
            self.probe()

    @contextmanager
    def op(self, kind: str, op_id: str):
        rec = OpRecord(kind, op_id)
        self._enter(kind, op_id)
        first_probe = len(self.probe.times) if self.probe is not None else 0
        t0 = time.perf_counter()
        try:
            yield rec
        except Exception as exc:  # the operation's boundary: record it, keep going
            rec.errors.append(f"{type(exc).__name__}: {exc}")
            rec.traceback = traceback.format_exc()
        finally:
            rec.seconds = time.perf_counter() - t0
            if self.probe is not None:
                rec.seconds -= sum(self.probe.times[first_probe:])
            self._exit()
            self.ops.append(rec)
            self.checkpoint()

    @contextmanager
    def span(self, name: str):
        self._enter(name, None)
        try:
            yield
        finally:
            self._exit()

    def _enter(self, name: str, op_id: str | None) -> None:
        pass

    def _exit(self) -> None:
        pass


class Tracer(Recorder):
    """A Recorder that also records a span for every wrapped package call."""

    def __init__(self) -> None:
        super().__init__()
        # [name, start, end, parent index, operation id]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.peaks: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._op_id = ""
        self._pass_start = 0
        self._saved: list[tuple[object, str, object]] = []

    def _enter(self, name: str, op_id: str | None) -> None:
        if op_id is not None:
            self._op_id = op_id
        elif not self._stack:
            self._op_id = ""
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._op_id])

    def _exit(self) -> None:
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def wrap(self, owner, attr: str, name: str, count=None, trace_memory: bool = False):
        """Replace owner.attr by a timing wrapper until `restore`.

        `count(args, result)` returns extra counts to add; each call also adds
        one to `<name>_calls`. With trace_memory, the tracemalloc peak inside
        the call is kept as the largest `<name>_peak_bytes`; the call's span
        then includes tracemalloc's own cost.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if trace_memory:
                tracemalloc.start()
            tracer._enter(name, None)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._exit()
                if trace_memory:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    key = f"{name}_peak_bytes"
                    tracer.peaks[key] = max(tracer.peaks[key], peak)
            tracer.counts[f"{name}_calls"] += 1
            if count is not None:
                tracer.counts.update(count(args, result))
            return result

        self._saved.append((owner, attr, original))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def begin_pass(self) -> None:
        """Start per-pass bookkeeping: counts and peaks restart, spans stay."""
        self._pass_start = len(self.spans)
        self.counts.clear()
        self.peaks.clear()

    def pass_totals(self) -> tuple[dict[str, float], dict[str, float]]:
        """(inclusive seconds, self seconds) per span name since `begin_pass`.

        A span's self time is its duration minus the time its child spans
        cover; calls are sequential, so children never overlap.
        """
        first = self._pass_start
        spans = self.spans[first:]
        child = [0.0] * len(spans)
        inclusive: dict[str, float] = defaultdict(float)
        for name, start, end, parent, _ in spans:
            inclusive[name] += end - start
            if parent >= first:
                child[parent - first] += end - start
        own: dict[str, float] = defaultdict(float)
        for (name, start, end, _, _), covered in zip(spans, child):
            own[name] += end - start - covered
        return inclusive, own

    def write_spans(self, path: str) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["span", "parent", "op_id", "name", "start_s", "end_s"])
            for i, (name, start, end, parent, op_id) in enumerate(self.spans):
                writer.writerow([i, parent, op_id, name, f"{start:.9f}", f"{end:.9f}"])
