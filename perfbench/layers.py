"""Per-layer figures from a traced run's spans.

Layers are named after the repository's modules.  A span belongs to the
layer of the public call it wraps, or, for a kernel dispatch span
(``step:<module>`` for a generator step, ``cb:<module>`` for a callback),
to the layer of the module that defined the generator or callback.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from spans import self_times

#: Layer of the spans the benchmark opens around a whole run
#: (``run_scenario`` in process and in the server, the reference client's
#: calls).  Their self time is whatever no layer span below them covers,
#: so it is credited to no layer of the repository.
UNATTRIBUTED = "unattributed"

SPAN_LAYER = {
    "Simulator.run": "events",
    "run_scenario": UNATTRIBUTED,
    "FrameworkBuilder.build": "core",
    "testbed.build": "testbed",
    "on_tick": "scheduling",
    "elastic_tick": "scheduling.elastic",
    "FaultInjector.inject": "faults",
    "CampaignStore.record_success": "core.store",
    "run_campaigns": "core.batch",
}

SPAN_PREFIX_LAYER = (
    ("OarServer.", "oar"),
    ("Gantt.", "oar.gantt"),
    ("Ganglia.", "monitoring"),
    ("Kwapi.", "monitoring"),
    ("Session.", "service"),
    ("SocketTransport.", "service"),
    ("ReferenceClient.", UNATTRIBUTED),
)

#: Most specific prefix first.
MODULE_LAYER = (
    ("repro.util.events", "events"),
    ("repro.oar.gantt", "oar.gantt"),
    ("repro.oar", "oar"),
    ("repro.scheduling.elastic", "scheduling.elastic"),
    ("repro.scheduling", "scheduling"),
    ("repro.monitoring", "monitoring"),
    ("repro.faults", "faults"),
    ("repro.checksuite", "checksuite"),
    ("repro.checks", "checksuite"),
    ("repro.ci", "ci"),
    ("repro.kadeploy", "kadeploy"),
    ("repro.nodes", "nodes"),
    ("repro.testbed", "testbed"),
    ("repro.service", "service"),
    ("repro.core.store", "core.store"),
    ("repro.core.batch", "core.batch"),
    ("repro.core", "core"),
)

LAYERS = ("events", "oar", "oar.gantt", "scheduling", "scheduling.elastic",
          "monitoring", "faults", "checksuite", "ci", "kadeploy", "nodes",
          "testbed", "core", "core.store", "core.batch", "service", "other",
          UNATTRIBUTED)


def layer_of(name: str) -> str:
    kind, _, module = name.partition(":")
    if kind in ("step", "cb") and module:
        for prefix, layer in MODULE_LAYER:
            if module == prefix or module.startswith(prefix + "."):
                return layer
        return "other"
    if name in SPAN_LAYER:
        return SPAN_LAYER[name]
    for prefix, layer in SPAN_PREFIX_LAYER:
        if name.startswith(prefix):
            return layer
    return "other"


class Spans:
    """Indexed view of one span tree (arrays as saved by SpanRecorder)."""

    def __init__(self, arrays: dict[str, np.ndarray], names: list[str]):
        self.names = names
        self.name = arrays["name"]
        self.start = arrays["start"]
        self.end = arrays["end"]
        self.parent = arrays["parent"]
        self.dur = self.end - self.start
        self.self_s = self_times(self.start, self.end, self.parent)
        self._ids = {n: i for i, n in enumerate(names)}

    def mask(self, name: str) -> np.ndarray:
        nid = self._ids.get(name)
        if nid is None:
            return np.zeros(len(self.name), dtype=bool)
        return self.name == nid

    def count(self, name: str) -> int:
        return int(self.mask(name).sum())

    def total(self, name: str, under: Optional[str] = None) -> float:
        """Inclusive time of ``name`` spans (whose parent is ``under``)."""
        m = self.mask(name)
        if under is not None:
            m &= self._parent_is(under)
        return float(self.dur[m].sum())

    def count_under(self, name: str, under: str) -> int:
        return int((self.mask(name) & self._parent_is(under)).sum())

    def self_total(self, name: str) -> float:
        return float(self.self_s[self.mask(name)].sum())

    def _parent_is(self, name: str) -> np.ndarray:
        nid = self._ids.get(name, -1)
        has = self.parent >= 0
        out = np.zeros(len(self.name), dtype=bool)
        out[has] = self.name[self.parent[has]] == nid
        return out

    def layer_self(self) -> dict[str, float]:
        per_name = np.bincount(self.name, weights=self.self_s,
                               minlength=len(self.names))
        out = {layer: 0.0 for layer in LAYERS}
        for nid, name in enumerate(self.names):
            out[layer_of(name)] += float(per_name[nid])
        return out

    def tail_after_children(self, name: str) -> float:
        """Summed time from each ``name`` span's last child to its end
        (for ``run_scenario``: building the report after the simulation)."""
        m = np.nonzero(self.mask(name))[0]
        if not len(m):
            return 0.0
        last_end = self.start[m].copy()
        pos = {int(i): k for k, i in enumerate(m)}
        for child in np.nonzero(np.isin(self.parent, m))[0]:
            k = pos[int(self.parent[child])]
            last_end[k] = max(last_end[k], self.end[child])
        return float((self.end[m] - last_end).sum())


def layer_metrics(sp: Spans, counts: dict) -> dict[str, float]:
    """Every per-layer metric except the store/client figures the worker
    measures directly."""
    c = lambda key: float(counts.get(key, 0))  # noqa: E731
    selfs = sp.layer_self()
    submits = sp.count("OarServer.submit")
    earliest = sp.count("Gantt.profile_earliest")
    launches, defers = c("scheduling.launches"), c("scheduling.defers")
    grows = sp.count("OarServer.grow")
    candidates = sp.count("OarServer.grow_candidates")
    build_self = sp.self_total("FrameworkBuilder.build")
    report_s = sp.tail_after_children("run_scenario")
    round_s = sp.total("Session.decision_round")
    wait_s = sp.total("SocketTransport.recv_line",
                      under="Session.decision_round")
    return {
        "events.dispatch_self_s": selfs["events"],
        "events.processes": c("events.processes"),
        "events.timeouts": c("events.timeouts"),
        "events.callbacks": c("events.callbacks"),
        "oar.self_s": selfs["oar"],
        "oar.submits": submits,
        "oar.replans": sp.count("OarServer.replan_now"),
        "oar.gantt.self_s": selfs["oar.gantt"],
        "oar.gantt.earliest_calls": earliest,
        "oar.gantt.reserve_calls": sp.count("Gantt.reserve"),
        "oar.gantt.release_calls": sp.count("Gantt.release"),
        "oar.gantt.free_mask_calls": sp.count("Gantt.profile_free_mask"),
        "oar.gantt.earliest_per_job": earliest / submits if submits else 0.0,
        "scheduling.ticks": sp.count("on_tick"),
        "scheduling.rounds": c("scheduling.rounds"),
        "scheduling.self_s": selfs["scheduling"],
        "scheduling.launches": launches,
        "scheduling.defers": defers,
        "scheduling.launch_ratio": (launches / (launches + defers)
                                    if launches + defers else 0.0),
        "scheduling.elastic.tick_s": sp.total("elastic_tick"),
        "scheduling.elastic.self_s": selfs["scheduling.elastic"],
        "scheduling.elastic.grows": grows,
        "scheduling.elastic.shrinks": sp.count("OarServer.shrink"),
        "scheduling.elastic.grow_candidates_calls": candidates,
        "scheduling.elastic.replan_now_calls": sp.count_under(
            "OarServer.replan_now", "elastic_tick"),
        "scheduling.elastic.grant_ratio": (grows / candidates
                                           if candidates else 0.0),
        "monitoring.self_s": selfs["monitoring"],
        "monitoring.sample_park_calls": c("monitoring.sample_park_calls"),
        "monitoring.nodes_sampled": c("monitoring.nodes_sampled"),
        "monitoring.power_reads": sp.count("Kwapi.node_power_watts"),
        "faults.self_s": selfs["faults"],
        "faults.injected": sp.count("FaultInjector.inject"),
        "checksuite.self_s": selfs["checksuite"],
        "checksuite.runs": c("checksuite.runs"),
        "ci.self_s": selfs["ci"],
        "ci.builds": c("ci.builds"),
        "kadeploy.self_s": selfs["kadeploy"],
        "kadeploy.deployments": c("kadeploy.deployments"),
        "nodes.self_s": selfs["nodes"],
        "core.build_s": build_self,
        "testbed.build_s": selfs["testbed"],
        "core.report_s": report_s,
        "core.self_s": selfs["core"],
        "core.store.appends": sp.count("CampaignStore.record_success"),
        "core.store.append_s": sp.total("CampaignStore.record_success"),
        "core.batch.subm_s": sp.total("run_campaigns"),
        "service.rounds": sp.count("Session.decision_round"),
        "service.round_s": round_s,
        "service.client_wait_s": wait_s,
        "service.frame_s": round_s - wait_s,
        "service.self_s": selfs["service"],
        "service.lines_in": c("service.lines_in"),
        "service.lines_out": c("service.lines_out"),
        "service.bytes_in": c("service.bytes_in"),
        "service.bytes_out": c("service.bytes_out"),
        "other.self_s": selfs["other"],
    }
