"""Service-facing families: oarstate, cmdline, sidapi.

Slide 21: "Testbed status (oarstate)" and "Basic functionality of
command-line tools, REST API (cmdline, sidapi)".
"""

from __future__ import annotations

from typing import Any

from ..faults.catalog import FaultKind
from .base import CheckContext, CheckFamily, Finding

__all__ = ["OarStateCheck", "CmdlineCheck", "SidApiCheck"]


class OarStateCheck(CheckFamily):
    """Per-site sweep of OAR node states: report Suspected nodes."""

    name = "oarstate"
    kind = "software"

    def configurations(self, testbed) -> list[dict[str, Any]]:
        return [{"site": s.uid} for s in testbed.sites]

    def check(self, ctx: CheckContext, outcome, job):
        yield ctx.sim.timeout(20.0)  # oarnodes query
        for cluster in ctx.testbed.site(outcome.config["site"]).clusters:
            for node in cluster.nodes:
                state = ctx.oar.node_state(node.uid)
                if state == "Suspected":
                    outcome.findings.append(Finding(
                        FaultKind.RANDOM_REBOOTS, node.uid,
                        "node is Suspected (crashed and not recovered)"))


class CmdlineCheck(CheckFamily):
    """Run the user-facing command-line tools a few times per site."""

    name = "cmdline"
    kind = "software"
    invocations = 5

    def configurations(self, testbed) -> list[dict[str, Any]]:
        return [{"site": s.uid} for s in testbed.sites]

    def check(self, ctx: CheckContext, outcome, job):
        site = outcome.config["site"]
        rng = ctx.rng(self.name)
        failures = 0
        for _ in range(self.invocations):
            yield ctx.sim.timeout(15.0)
            if not ctx.services.cmdline_ok(site, float(rng.random())):
                failures += 1
        if failures >= 2:
            outcome.findings.append(Finding(
                FaultKind.CMDLINE_BROKEN, site,
                f"{failures}/{self.invocations} tool invocations failed"))


class SidApiCheck(CheckFamily):
    """Exercise the per-site REST API with a burst of calls."""

    name = "sidapi"
    kind = "software"
    calls = 10

    def configurations(self, testbed) -> list[dict[str, Any]]:
        return [{"site": s.uid} for s in testbed.sites]

    def check(self, ctx: CheckContext, outcome, job):
        site = outcome.config["site"]
        rng = ctx.rng(self.name)
        failures = 0
        for _ in range(self.calls):
            yield ctx.sim.timeout(3.0)
            if not ctx.services.api_ok(site, float(rng.random())):
                failures += 1
        if failures >= 2:
            outcome.findings.append(Finding(
                FaultKind.API_FLAKY, site,
                f"{failures}/{self.calls} REST API calls failed"))
