"""The traced run: spans around calls into each engine layer.

:class:`Tracer` wraps the public functions each layer is entered
through, from the benchmark's side; ``src/repro`` holds no tracing.
Spans (name, start, end, parent) are kept in memory and summarised
when the run ends: a layer's self time is its spans' durations minus
the time their direct child spans cover. The tracer is switched on for
every other frame, so the untraced frames in between measure what the
tracing costs.
"""

from __future__ import annotations

import importlib
import json
import time

from repro.fastpath import bodies as fp_bodies
from repro.fastpath import cloth as fp_cloth
from repro.fastpath import joints as fp_joints
from repro.fastpath import narrowphase as fp_narrowphase
from repro.fastpath import rows as fp_rows
from repro.fastpath import solver as fp_solver
from repro.fastpath.broadphase import VectorSweepAndPrune
from repro.profiling import FrameReport

#: ``World.step`` calls ``build_islands`` through its own module
#: namespace, so the wrapper is installed there.
_world_module = importlib.import_module("repro.engine.world")

#: The root span of each traced frame; its self time is ``step.other``.
FRAME = "step"

#: Traced frames kept in the Chrome trace: a contact-field frame alone
#: holds about 8,000 spans.
TRACE_FRAMES = 4

#: Layers in pipeline order, as named in the per-layer metrics.
LAYERS = ("broadphase", "narrowphase", "island_creation", "rows",
          "solve", "bodies", "cloth", "report", FRAME)


def _count_pairs(tracer, args, kwargs, result):
    tracer.counts["broadphase.pairs"] += len(result)


def _count_contacts(tracer, args, kwargs, result):
    tracer.counts["narrowphase.contacts"] += len(result)
    tracer.counts["narrowphase.pairs_hit"] += len(
        {(c.geom_a.uid, c.geom_b.uid) for c in result})


def _count_islands(tracer, args, kwargs, result):
    tracer.counts["island_creation.islands"] += len(result[0])


def _count_rows(tracer, args, kwargs, result):
    tracer.counts["rows.count"] += sum(len(rows) for rows in result
                                       if rows is not None)


def _count_row_updates(tracer, args, kwargs, result):
    tracer.counts["solve.row_updates"] += sum(s.row_updates
                                              for s in result)


def _count_cloth(tracer, args, kwargs, result):
    tracer.counts["cloth.constraint_updates"] += \
        result["constraint_updates"]


def _count_tests(tracer, args, kwargs, result):
    # The narrowphase reports the pairs it tested through
    # ``FrameReport.count("narrowphase", tests=...)``.
    if args[1] == "narrowphase":
        tracer.counts["narrowphase.tests"] += kwargs.get("tests", 0)


def _call(step):
    return step()


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.enabled = False
        self.spans = []  # (name, start, end, parent index or -1)
        self.counts = {name: 0 for name in (
            "broadphase.pairs", "narrowphase.contacts",
            "narrowphase.pairs_hit", "narrowphase.tests",
            "island_creation.islands", "rows.count",
            "solve.row_updates", "cloth.constraint_updates")}
        self.frames = 0
        self._stack = []
        self._saved = []
        self._frame = self._wrap(FRAME, _call)

    # -- spans ----------------------------------------------------------
    def _wrap(self, name, fn, count=None):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack
            spans = tracer.spans
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if count is not None:
                count(tracer, args, kwargs, result)
            return result
        return traced

    def frame(self, step):
        """Run ``step()`` as one traced frame: the root span, with the
        wrappers recording only while it runs."""
        self.frames += 1
        self.enabled = True
        try:
            return self._frame(step)
        finally:
            self.enabled = False

    # -- installation ---------------------------------------------------
    def _patch(self, owner, attr, name, count=None):
        fn = getattr(owner, attr)
        self._saved.append((owner, attr, fn))
        setattr(owner, attr, self._wrap(name, fn, count))

    def install(self):
        """Wrap every layer's entry point (undo with :meth:`uninstall`)."""
        self._patch(VectorSweepAndPrune, "pairs", "broadphase",
                    _count_pairs)
        self._patch(fp_narrowphase, "collide_pairs", "narrowphase",
                    _count_contacts)
        self._patch(_world_module, "build_islands", "island_creation",
                    _count_islands)
        self._patch(fp_rows, "build_contact_rows", "rows", _count_rows)
        self._patch(fp_joints, "build_joint_rows", "rows", _count_rows)
        self._patch(fp_solver, "solve_islands", "solve",
                    _count_row_updates)
        self._patch(fp_bodies, "apply_forces", "bodies")
        self._patch(fp_bodies, "integrate", "bodies")
        self._patch(fp_cloth, "step_cloth", "cloth", _count_cloth)
        self._patch(FrameReport, "count", "report", _count_tests)
        for method in ("touch", "add_task", "add_tasks"):
            self._patch(FrameReport, method, "report")
        return self

    def uninstall(self):
        for owner, attr, fn in self._saved:
            setattr(owner, attr, fn)
        self._saved = []

    def __enter__(self):
        return self.install()

    def __exit__(self, exc_type, exc, tb):
        self.uninstall()

    # -- summaries ------------------------------------------------------
    def self_times(self) -> dict:
        """Seconds of self time per span name."""
        totals = dict.fromkeys(LAYERS, 0.0)
        for name, start, end, parent in self.spans:
            duration = end - start
            totals[name] += duration
            if parent >= 0:
                totals[self.spans[parent][0]] -= duration
        return totals

    def layer_metrics(self) -> dict:
        """Per-frame self time of each layer and the layer counts."""
        frames = max(1, self.frames)
        selfs = self.self_times()
        counts = self.counts
        metrics = {f"{layer}.ms": 1e3 * selfs[layer] / frames
                   for layer in LAYERS if layer != FRAME}
        metrics["step.other_ms"] = 1e3 * selfs[FRAME] / frames
        for name in ("broadphase.pairs", "narrowphase.contacts",
                     "island_creation.islands", "rows.count",
                     "solve.row_updates", "cloth.constraint_updates"):
            metrics[name] = counts[name] / frames
        tests = counts["narrowphase.tests"]
        metrics["narrowphase.contact_yield"] = (
            counts["narrowphase.pairs_hit"] / tests if tests else 0.0)
        return metrics

    def write_chrome_trace(self, path: str):
        """Write the first ``TRACE_FRAMES`` traced frames as Chrome
        trace-event JSON (loads in Perfetto and chrome://tracing)."""
        events = []
        roots = 0
        for name, start, end, parent in self.spans:
            if parent < 0:
                roots += 1
                if roots > TRACE_FRAMES:
                    break
            events.append({"name": name, "ph": "X", "pid": 1, "tid": 1,
                           "ts": start * 1e6, "dur": (end - start) * 1e6,
                           "args": {"parent": parent}})
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events,
                       "displayTimeUnit": "ms"}, handle)
