"""Mutable health state of the testbed's *software* services.

Hardware faults live inside each :class:`~repro.nodes.machine.SimulatedNode`;
service-level problems (a flaky REST API, a broken environment image, a
degraded deployment service, a misconfigured KaVLAN, stale OAR properties)
live here.  Both the fault injector (which breaks things) and the service
simulators / check scripts (which observe the breakage) share this object.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

__all__ = ["ServiceHealth"]


@dataclass
class ServiceHealth:
    """All service-level degradations currently in force."""

    #: site -> probability that one REST API call fails (sidapi family).
    api_failure_prob: dict[str, float] = field(default_factory=dict)
    #: site -> probability that a command-line tool invocation fails.
    cmdline_failure_prob: dict[str, float] = field(default_factory=dict)
    #: (environment image, cluster) pairs whose deployment produces a
    #: broken system (environments family).
    broken_images: set[tuple[str, str]] = field(default_factory=set)
    #: cluster -> extra per-node deployment failure probability
    #: (paralleldeploy / multideploy families).
    deploy_degradation: dict[str, float] = field(default_factory=dict)
    #: sites whose KaVLAN switch reconfiguration is broken.
    kavlan_broken: set[str] = field(default_factory=set)
    #: sites whose kwapi service has stopped recording (kwapi family).
    kwapi_down: set[str] = field(default_factory=set)
    #: node uid -> properties whose OAR-database value drifted from the
    #: Reference API (oarproperties family).
    oar_property_drift: dict[str, set[str]] = field(default_factory=dict)
    #: Bumped on every drift and fix, so caches of property matches
    #: (the OAR server's) know when to refill.
    oar_drift_epoch: int = 0

    def api_ok(self, site: str, draw: float) -> bool:
        """Whether one API call succeeds, given a uniform draw in [0,1)."""
        return draw >= self.api_failure_prob.get(site, 0.0)

    def cmdline_ok(self, site: str, draw: float) -> bool:
        return draw >= self.cmdline_failure_prob.get(site, 0.0)

    def image_ok(self, image: str, cluster: str) -> bool:
        return (image, cluster) not in self.broken_images

    def deploy_extra_failure_prob(self, cluster: str) -> float:
        return self.deploy_degradation.get(cluster, 0.0)

    def drift_oar_property(self, uids: Iterable[str], prop: str) -> None:
        """Corrupt ``prop`` in the OAR rows of ``uids``."""
        for uid in uids:
            self.oar_property_drift.setdefault(uid, set()).add(prop)
        self.oar_drift_epoch += 1

    def fix_oar_property(self, uids: Iterable[str], prop: str) -> None:
        """Undo :meth:`drift_oar_property`."""
        for uid in uids:
            drifted = self.oar_property_drift.get(uid)
            if drifted:
                drifted.discard(prop)
                if not drifted:
                    del self.oar_property_drift[uid]
        self.oar_drift_epoch += 1
