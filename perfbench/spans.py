"""Span recorder and the probes that attach it to the simulator's layers.

Everything here wraps *public* entry points of :mod:`repro` from the
outside; nothing under ``src/`` knows it is being watched.  Two probe sets
exist:

* :class:`RoundTimer` times decision rounds: the bound ``on_tick`` of the
  strategy instance each built world holds, counted only on ticks with at
  least one due cell.  It is the only probe active in timed runs.
* :class:`Tracer` records a span per layer call and per kernel dispatch
  (generator step or callback, named by the module that defined it) for
  the separate traced run.

Spans are kept in flat in-memory arrays (name id, start, end, parent, run
id) and written out once, when the run ends.  Self time is derived from the
arrays afterwards (:func:`self_times`).  Spans are assumed to come from one
thread at a time, which holds for an in-process run and for a service
serving one connection.
"""

from __future__ import annotations

import json
import os
import time
from array import array
from typing import Any, Callable, Optional

import numpy as np

KERNEL_MODULE = "repro.util.events"

# -- span storage -------------------------------------------------------------


class SpanRecorder:
    """Flat arrays of spans plus free-form counters."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.run = array("i")
        self.run_id = 0
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, nid: int) -> int:
        idx = len(self.start)
        stack = self._stack
        self.name.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.run.append(self.run_id)
        self.end.append(0.0)
        stack.append(idx)
        self.start.append(self.clock())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = self.clock()
        self._stack.pop()

    @property
    def depth(self) -> int:
        return len(self._stack)

    def count(self, key: str, n: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "run": np.frombuffer(self.run, dtype=np.int32).copy(),
        }

    def save(self, path: str) -> None:
        """Write the spans (``<path>.npz``) and names/counters (``.json``)."""
        np.savez(path + ".npz", **self.arrays())
        with open(path + ".json", "w") as fh:
            json.dump({"names": self.names, "counts": self.counts}, fh)


def load_spans(path: str) -> tuple[dict[str, np.ndarray], list[str], dict]:
    with np.load(path + ".npz") as data:
        arrays = {k: data[k] for k in data.files}
    with open(path + ".json") as fh:
        meta = json.load(fh)
    return arrays, meta["names"], meta["counts"]


def self_times(start: np.ndarray, end: np.ndarray,
               parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the time its direct children cover.

    Children of one span never overlap (they come from one call stack), so
    the covered time is the sum of the children's durations.
    """
    dur = end - start
    covered = np.zeros(len(dur))
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], dur[has_parent])
    return dur - covered


def adopt_roots(outer: dict[str, np.ndarray], inner: dict[str, np.ndarray]
                ) -> dict[str, np.ndarray]:
    """Merge two processes' spans into one tree.

    Every root span of ``inner`` (the server) becomes a child of the
    innermost ``outer`` (client) span that contains it in time; both
    sides read the same monotonic clock.  Returns the concatenated
    arrays, ``inner``'s parent indices shifted past ``outer``'s.
    """
    n = len(outer["start"])
    parent = inner["parent"].copy()
    parent[parent >= 0] += n
    o_start, o_end = outer["start"], outer["end"]
    depth = np.zeros(n, dtype=np.int64)
    for i in range(n):  # outer trees are shallow; depth by parent walk
        p = outer["parent"][i]
        while p >= 0:
            depth[i] += 1
            p = outer["parent"][p]
    for j in np.nonzero(inner["parent"] < 0)[0]:
        s, e = inner["start"][j], inner["end"][j]
        holders = np.nonzero((o_start <= s) & (o_end >= e))[0]
        if len(holders):
            parent[j] = holders[np.argmax(depth[holders])]
    merged = {k: np.concatenate([outer[k], inner[k]]) for k in outer}
    merged["parent"] = np.concatenate([outer["parent"], parent])
    return merged


# -- probes -------------------------------------------------------------------


def _module_of(fn: Any) -> str:
    mod = getattr(fn, "__module__", None)
    if not isinstance(mod, str):
        mod = type(fn).__module__
    return mod


_MISSING = object()


class _Patches:
    """Attribute replacements, undone in reverse order."""

    def __init__(self) -> None:
        self._saved: list[tuple[Any, str, Any]] = []

    def set(self, owner: Any, attr: str, value: Any) -> None:
        self._saved.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, value)

    def undo(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)


class RoundTimer:
    """Times every decision round of every world built while installed.

    A round is one call of the ``on_tick`` bound to the strategy instance
    in ``fw.scheduler.strategy`` on a tick with at least one due cell; the
    due set is evaluated before the clock starts.  Wrapping the instance
    (not the classes of its hierarchy) times each tick exactly once even
    when an override calls ``super().on_tick``.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        #: Round durations (ms), one list per world built, in build order.
        self.worlds: list[list[float]] = []
        self.ticks = 0
        self._patches = _Patches()
        #: Called with each built world's strategy before it is timed
        #: (the tracer spans it there).
        self.on_strategy: list[Callable[[Any], None]] = []

    @property
    def samples_ms(self) -> list[float]:
        return [t for world in self.worlds for t in world]

    def wrap_strategy(self, strategy: Any) -> None:
        inner = strategy.on_tick  # bound method of this instance
        clock = self.clock
        samples: list[float] = []
        self.worlds.append(samples)

        def on_tick(view: Any) -> None:
            self.ticks += 1
            if not view.due_cells():
                return inner(view)
            t0 = clock()
            try:
                return inner(view)
            finally:
                samples.append((clock() - t0) * 1e3)

        strategy.on_tick = on_tick

    def install(self) -> "RoundTimer":
        from repro.core.builder import FrameworkBuilder

        original = FrameworkBuilder.build
        timer = self

        def build(builder: Any) -> Any:
            fw = original(builder)
            strategy = fw.scheduler.strategy
            for hook in timer.on_strategy:
                hook(strategy)
            timer.wrap_strategy(strategy)
            return fw

        self._patches.set(FrameworkBuilder, "build", build)
        return self

    def uninstall(self) -> None:
        self._patches.undo()


class _StepProxy:
    """Generator stand-in that records one span per resumption.

    ``Process`` only calls ``send`` and ``throw``; both delegate to the
    real generator unchanged, so ``StopIteration``, ``Interrupt`` and any
    other exception leave exactly as they would without the proxy.
    """

    __slots__ = ("_gen", "_nid", "_rec")

    def __init__(self, gen: Any, nid: int, rec: SpanRecorder):
        self._gen = gen
        self._nid = nid
        self._rec = rec

    def send(self, value: Any) -> Any:
        rec = self._rec
        idx = rec.begin(self._nid)
        try:
            return self._gen.send(value)
        finally:
            rec.finish(idx)

    def throw(self, *exc: Any) -> Any:
        rec = self._rec
        idx = rec.begin(self._nid)
        try:
            return self._gen.throw(*exc)
        finally:
            rec.finish(idx)


#: Layer calls that get a span: (module, class, method, span name).
LAYER_METHODS: tuple[tuple[str, str, str, str], ...] = (
    ("repro.oar.server", "OarServer", "submit", "OarServer.submit"),
    ("repro.oar.server", "OarServer", "grow", "OarServer.grow"),
    ("repro.oar.server", "OarServer", "shrink", "OarServer.shrink"),
    ("repro.oar.server", "OarServer", "replan_now", "OarServer.replan_now"),
    ("repro.oar.server", "OarServer", "grow_candidates",
     "OarServer.grow_candidates"),
    ("repro.oar.gantt", "Gantt", "profile_earliest", "Gantt.profile_earliest"),
    ("repro.oar.gantt", "Gantt", "reserve", "Gantt.reserve"),
    ("repro.oar.gantt", "Gantt", "release", "Gantt.release"),
    ("repro.oar.gantt", "Gantt", "free_uids", "Gantt.free_uids"),
    ("repro.oar.gantt", "Gantt", "profile_free_mask",
     "Gantt.profile_free_mask"),
    ("repro.monitoring.probes", "Kwapi", "node_power_watts",
     "Kwapi.node_power_watts"),
    ("repro.faults.injector", "FaultInjector", "inject", "FaultInjector.inject"),
    ("repro.core.builder", "FrameworkBuilder", "build", "FrameworkBuilder.build"),
    ("repro.core.store", "CampaignStore", "record_success",
     "CampaignStore.record_success"),
    ("repro.service.campaign", "CampaignService", "run_matrix",
     "run_campaigns"),
    ("repro.service.session", "Session", "decision_round",
     "Session.decision_round"),
)

#: Calls that are only counted: (module, class, method, counter).  Their
#: work runs later as kernel steps, or is a trivial facade call.
COUNTED_METHODS: tuple[tuple[str, str, str, str], ...] = (
    ("repro.ci.server", "JenkinsServer", "trigger", "ci.builds"),
    ("repro.kadeploy.deployment", "Kadeploy", "deploy", "kadeploy.deployments"),
    ("repro.scheduling.launcher", "TickView", "launch", "scheduling.launches"),
    ("repro.scheduling.launcher", "TickView", "defer", "scheduling.defers"),
    ("repro.util.events", "Simulator", "timeout", "events.timeouts"),
)


class Tracer:
    """Install span probes on the public layer entry points."""

    def __init__(self) -> None:
        self.rec = SpanRecorder()
        self._patches = _Patches()
        self._step_ids: dict[str, int] = {}
        self._cb_ids: dict[str, int] = {}
        self._restore_stage: Optional[Callable] = None

    # -- helpers ---------------------------------------------------------------

    def _span(self, fn: Callable, name: str) -> Callable:
        rec = self.rec
        nid = rec.name_id(name)

        def spanned(*args: Any, **kwargs: Any) -> Any:
            idx = rec.begin(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                rec.finish(idx)

        return spanned

    def _counted(self, fn: Callable, key: str) -> Callable:
        counts = self.rec.counts

        def counted(*args: Any, **kwargs: Any) -> Any:
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        return counted

    def _callback(self, fn: Callable) -> Callable:
        """Span a kernel callback under the module that defined it."""
        mod = _module_of(fn)
        if mod == KERNEL_MODULE:
            return fn  # the kernel's own resume hops stay dispatch time
        nid = self._cb_ids.get(mod)
        if nid is None:
            nid = self._cb_ids[mod] = self.rec.name_id("cb:" + mod)
        rec = self.rec
        counts = rec.counts

        def callback(*args: Any) -> Any:
            counts["events.callbacks"] = counts.get("events.callbacks", 0) + 1
            idx = rec.begin(nid)
            try:
                return fn(*args)
            finally:
                rec.finish(idx)

        return callback

    # -- install ---------------------------------------------------------------

    def install(self) -> "Tracer":
        import importlib

        from repro.core import builder as builder_mod
        from repro.util import events

        p = self._patches
        rec = self.rec
        tracer = self

        sim_cls = events.Simulator
        orig_process = sim_cls.process

        def process(sim: Any, gen: Any, name: str = "") -> Any:
            name = name or getattr(gen, "__name__", "process")
            frame = getattr(gen, "gi_frame", None)
            mod = (frame.f_globals.get("__name__", "?") if frame is not None
                   else type(gen).__module__)
            rec.count("events.processes")
            if mod.startswith("repro.checksuite") \
                    and getattr(gen, "__name__", "") == "run":
                rec.count("checksuite.runs")
            nid = tracer._step_ids.get(mod)
            if nid is None:
                nid = tracer._step_ids[mod] = rec.name_id("step:" + mod)
            return orig_process(sim, _StepProxy(gen, nid, rec), name)

        p.set(sim_cls, "process", process)
        orig_call_at = sim_cls.call_at
        orig_call_in = sim_cls.call_in
        p.set(sim_cls, "call_at", lambda sim, when, fn, *a:
              orig_call_at(sim, when, tracer._callback(fn), *a))
        p.set(sim_cls, "call_in", lambda sim, delay, fn, *a:
              orig_call_in(sim, delay, tracer._callback(fn), *a))
        orig_add = events.Event.add_callback
        p.set(events.Event, "add_callback", lambda ev, fn:
              orig_add(ev, tracer._callback(fn)))
        p.set(sim_cls, "run", self._span(sim_cls.run, "Simulator.run"))

        for mod_name, cls_name, attr, span in LAYER_METHODS:
            cls = getattr(importlib.import_module(mod_name), cls_name)
            p.set(cls, attr, self._span(getattr(cls, attr), span))
        for mod_name, cls_name, attr, key in COUNTED_METHODS:
            cls = getattr(importlib.import_module(mod_name), cls_name)
            p.set(cls, attr, self._counted(getattr(cls, attr), key))

        from repro.monitoring.probes import Ganglia, Kwapi
        for cls in (Ganglia, Kwapi):
            p.set(cls, "sample_park", self._sampled(cls.sample_park,
                                                    cls.__name__))

        # The testbed stage of world construction, via the builder's
        # public subsystem registry.
        stage = builder_mod.default_registry().factory("testbed")
        builder_mod.register_subsystem(
            "testbed", self._span(stage, "testbed.build"))
        self._restore_stage = stage

        from repro.service import session as session_mod
        p.set(session_mod, "run_scenario",
              self._span(session_mod.run_scenario, "run_scenario"))
        sock_cls = session_mod.SocketTransport
        p.set(sock_cls, "send_line", self._line_io(sock_cls.send_line, "out"))
        p.set(sock_cls, "recv_line", self._line_io(sock_cls.recv_line, "in"))
        return self

    def _sampled(self, fn: Callable, owner: str) -> Callable:
        spanned = self._span(fn, owner + ".sample_park")
        counts = self.rec.counts

        def sample_park(*args: Any) -> Any:
            n = spanned(*args)
            counts["monitoring.sample_park_calls"] = \
                counts.get("monitoring.sample_park_calls", 0) + 1
            counts["monitoring.nodes_sampled"] = \
                counts.get("monitoring.nodes_sampled", 0) + n
            return n

        return sample_park

    def _line_io(self, fn: Callable, direction: str) -> Callable:
        """Count socket line I/O; span it only inside another span, so the
        server's idle wait for the next command (which the client's own
        spans already cover) is not recorded."""
        rec = self.rec
        nid = rec.name_id("SocketTransport.send_line" if direction == "out"
                          else "SocketTransport.recv_line")
        counts = rec.counts
        lines_key = "service.lines_" + direction
        bytes_key = "service.bytes_" + direction

        def line_io(transport: Any, *args: Any) -> Any:
            if not rec.depth:
                result = fn(transport, *args)
            else:
                idx = rec.begin(nid)
                try:
                    result = fn(transport, *args)
                finally:
                    rec.finish(idx)
            line = args[0] if direction == "out" else result
            counts[lines_key] = counts.get(lines_key, 0) + 1
            counts[bytes_key] = counts.get(bytes_key, 0) + len(line) + 1
            if direction == "out" and line.startswith("ERR"):
                counts["service.errors"] = counts.get("service.errors", 0) + 1
            return result

        return line_io

    def wrap_strategy(self, strategy: Any) -> None:
        """Span the strategy instance's ``on_tick`` (and ``elastic_tick``)."""
        strategy.on_tick = self._span(strategy.on_tick, "on_tick")
        if hasattr(strategy, "elastic_tick"):
            strategy.elastic_tick = self._span(strategy.elastic_tick,
                                               "elastic_tick")

    def uninstall(self) -> None:
        self._patches.undo()
        if self._restore_stage is not None:
            from repro.core import builder as builder_mod
            builder_mod.register_subsystem("testbed", self._restore_stage)
            self._restore_stage = None


def install_fork_guard(*probes: Any) -> None:
    """Drop the probes in forked children (the campaign worker pool):
    their spans could never reach this process's recorder."""
    def drop() -> None:
        for probe in probes:
            probe.uninstall()

    os.register_at_fork(after_in_child=drop)
