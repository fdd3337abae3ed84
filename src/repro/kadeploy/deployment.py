"""Kadeploy: scalable OS deployment as a three-phase state machine.

Phases (mirroring the real tool):

1. **minenv** — reboot every node into the lightweight deployment
   environment (parallel; each node's boot can fail);
2. **broadcast** — chain-broadcast the image and write it to disk
   (:mod:`repro.kadeploy.kascade` timing model);
3. **boot** — install the bootloader and reboot into the deployed system;
   a node "succeeds" only if it comes back *and* the image actually works
   on that cluster (the ``ENV_IMAGE_BROKEN`` fault makes it not).

Nodes that fail a phase are retried once (as kadeploy does); nodes failing
twice are reported failed.  A cluster under ``DEPLOY_DEGRADED`` sees an
extra per-node failure probability in phases 1 and 3.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..faults.services import ServiceHealth
from ..nodes.machine import MachinePark, PowerState, SimulatedNode
from ..util.errors import DeploymentError
from ..util.events import Simulator
from ..util.rng import RngStreams
from .images import EnvironmentImage, image_by_name
from .kascade import broadcast_time_s

__all__ = ["NodeDeployOutcome", "DeploymentResult", "Kadeploy"]

#: Deployment-environment boots are lighter than full system boots.
_MINENV_BOOT_FACTOR = 0.6

#: Per-node probability that the disk write of the image fails.
_WRITE_FAILURE_PROB = 0.0005


@dataclass
class NodeDeployOutcome:
    node_uid: str
    ok: bool
    failed_phase: Optional[str] = None  # "minenv" | "broadcast" | "boot" | "sanity"
    retried: bool = False


@dataclass
class DeploymentResult:
    """Outcome of one deployment run."""

    image: str
    started_at: float
    finished_at: float
    outcomes: dict[str, NodeDeployOutcome] = field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        return self.finished_at - self.started_at

    @property
    def deployed(self) -> list[str]:
        return sorted(u for u, o in self.outcomes.items() if o.ok)

    @property
    def failed(self) -> dict[str, str]:
        return {u: o.failed_phase for u, o in self.outcomes.items() if not o.ok}

    @property
    def success_rate(self) -> float:
        if not self.outcomes:
            return 0.0
        return len(self.deployed) / len(self.outcomes)


class Kadeploy:
    """Deployment service over a machine park."""

    def __init__(self, sim: Simulator, machines: MachinePark,
                 services: ServiceHealth, rng_streams: RngStreams):
        self.sim = sim
        self.machines = machines
        self.services = services
        self._rng = rng_streams.stream("kadeploy")
        self.deployments_run = 0

    # -- public API ----------------------------------------------------------

    def deploy(self, node_uids: list[str], image_name: str):
        """Process generator deploying ``image_name``; returns the result.

        Usage::

            result = yield sim.process(kadeploy.deploy(nodes, "debian9-min"))
        """
        if not node_uids:
            raise DeploymentError("empty node list")
        image = image_by_name(image_name)
        machines = [self.machines[u] for u in node_uids]
        started = self.sim.now
        self.deployments_run += 1
        outcomes = {m.uid: NodeDeployOutcome(m.uid, ok=False) for m in machines}
        yield from self._run_attempt(machines, image, outcomes)
        return DeploymentResult(
            image=image.name,
            started_at=started,
            finished_at=self.sim.now,
            outcomes=outcomes,
        )

    def reboot(self, node_uids: list[str]):
        """Process generator: plain reboot (no image change).

        Returns the per-node success dict (used by the multireboot family).
        """
        machines = [self.machines[u] for u in node_uids]
        boots = [self.sim.process(m.boot()) for m in machines]
        yield self.sim.all_of(boots)
        return {m.uid: m.state == PowerState.ON for m in machines}

    # -- phases ---------------------------------------------------------------

    def _extra_failure(self, machine: SimulatedNode) -> float:
        return self.services.deploy_extra_failure_prob(machine.cluster_uid) / 2.0

    def _run_attempt(self, machines: list[SimulatedNode], image: EnvironmentImage,
                     outcomes: dict[str, NodeDeployOutcome]):
        # Phase 1: reboot into the deployment environment.
        alive = yield from self._reboot_phase(machines, outcomes, "minenv",
                                              boot_factor=_MINENV_BOOT_FACTOR)
        if not alive:
            return []
        # Phase 2: chain broadcast.
        network_mbps = min(m.network_rate_gbps() for m in alive) * 125.0  # Gbps->MB/s
        disk_mbps = min(m.disk_bandwidth_mbps(m.actual.disks[0].device) or 1.0
                        for m in alive)
        yield self.sim.timeout(
            broadcast_time_s(image.size_mb, len(alive),
                             max(network_mbps, 1.0), max(disk_mbps, 1.0))
        )
        writers = []
        for m in alive:
            if float(self._rng.random()) < _WRITE_FAILURE_PROB:
                outcomes[m.uid].failed_phase = "broadcast"
                m.crash()
            else:
                writers.append(m)
        if not writers:
            return []
        # Phase 3: reboot into the deployed environment + sanity check.
        booted = yield from self._reboot_phase(writers, outcomes, "boot",
                                               env=image.name)
        deployed = []
        for m in booted:
            if self.services.image_ok(image.name, m.cluster_uid):
                outcomes[m.uid].ok = True
                deployed.append(m)
            else:
                outcomes[m.uid].failed_phase = "sanity"
        return deployed

    def _reboot_phase(self, machines: list[SimulatedNode],
                      outcomes: dict[str, NodeDeployOutcome], phase: str,
                      boot_factor: float = 1.0, env: Optional[str] = None):
        """Boot all machines; nodes that fail are retried once *within* the
        phase (kadeploy's behaviour — stragglers don't restart the whole
        deployment, which is what keeps 200 nodes around five minutes)."""
        boots = [self.sim.process(self._boot_with_retry(m, boot_factor, env))
                 for m in machines]
        done = yield self.sim.all_of(boots)
        alive: list[SimulatedNode] = []
        for m, proc in zip(machines, boots):
            attempts = done[proc]
            if attempts > 1:
                outcomes[m.uid].retried = True
            extra = self._extra_failure(m)
            if m.state == PowerState.ON and float(self._rng.random()) >= extra:
                alive.append(m)
            else:
                if m.state == PowerState.ON:
                    m.crash()  # service-level failure killed the step
                outcomes[m.uid].failed_phase = phase
        return alive

    def _boot_with_retry(self, machine: SimulatedNode, boot_factor: float,
                         env: Optional[str], attempts: int = 2):
        """Boot; on failure, immediately power-cycle again (up to
        ``attempts`` total).  Returns the number of attempts used."""
        used = 0
        for _ in range(attempts):
            used += 1
            yield from machine.boot(env, boot_factor)
            if machine.state == PowerState.ON:
                break
        return used
