"""repro: a full reproduction of *"Towards Trustworthy Testbeds thanks to
Throughout Testing"* (Lucas Nussbaum, REPPAR @ IPDPS 2017).

The package simulates the Grid'5000 testbed (8 sites / 32 clusters /
894 nodes / 8490 cores) and the complete testing framework the paper
describes: g5k-checks, OAR, Kadeploy, KaVLAN, monitoring, a Jenkins-shaped
CI server, the external availability-aware test scheduler, 16 test-script
families (751 configurations) and the closed bug-filing/fixing loop.

Worlds are described declaratively by a :class:`~repro.scenarios.ScenarioSpec`
(frozen, JSON-serializable) and come either from the preset library or from
``derive()``-ing one.

Quickstart::

    from repro import run_scenario, scenarios

    spec = scenarios.get("tiny-smoke")        # or "paper-baseline", ...
    fw, report = run_scenario(spec, seed=1)
    print(report.summary())

Sweep a seed × scenario matrix across worker processes::

    from repro import run_campaigns, summarize_runs

    runs = run_campaigns(["tiny-smoke", "flaky-services"],
                         seeds=range(4), workers=4)
    print(summarize_runs(runs))

For finer control, assemble the world yourself (and swap subsystem
backends via the registry)::

    from repro import FrameworkBuilder, scenarios

    fw = FrameworkBuilder(scenarios.get("pernode").derive(seed=7)).build()
    fw.start()
    fw.run_until(7 * 86400)                   # one simulated week
    print(fw.tracker.filed_count, "bugs filed")

The ``repro-campaign`` console script runs any named preset from the
shell.
"""

from . import scenarios
from .core import (
    CampaignReport,
    CampaignRun,
    CampaignStore,
    FrameworkBuilder,
    MetricSummary,
    SubsystemRegistry,
    TestingFramework,
    aggregate_runs,
    register_subsystem,
    run_campaigns,
    run_scenario,
    summarize_runs,
)
from .scenarios import ScenarioSpec

__version__ = "1.1.0"

__all__ = [
    "scenarios",
    "ScenarioSpec",
    "FrameworkBuilder",
    "SubsystemRegistry",
    "register_subsystem",
    "TestingFramework",
    "CampaignReport",
    "CampaignRun",
    "CampaignStore",
    "MetricSummary",
    "run_scenario",
    "run_campaigns",
    "aggregate_runs",
    "summarize_runs",
    "__version__",
]
