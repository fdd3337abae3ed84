"""End-to-end tests: every family passes on a healthy testbed and detects
its fault kinds on a broken one."""

import pytest

from repro.checksuite import ALL_FAMILIES, family_by_name
from repro.faults import FaultKind
from repro.scheduling import PerNodeVariant



# -- healthy testbed: everything passes ---------------------------------------


@pytest.mark.parametrize("name,config", [
    ("refapi", {"cluster": "grisou"}),
    ("oarproperties", {"cluster": "grimoire"}),
    ("dellbios", {"cluster": "graoully"}),
    ("oarstate", {"site": "nancy"}),
    ("cmdline", {"site": "nancy"}),
    ("sidapi", {"site": "lyon"}),
    ("environments", {"image": "debian9-min", "cluster": "grisou"}),
    ("stdenv", {"cluster": "graoully"}),
    ("console", {"cluster": "nova"}),
    ("kavlan", {"site": "nancy"}),
    ("kwapi", {"site": "nancy"}),
    ("mpigraph", {"cluster": "graoully"}),
    ("disk", {"cluster": "grimoire"}),
])
def test_family_passes_on_healthy_testbed(world, run_family, name, config):
    outcome = run_family(world, family_by_name(name), config)
    assert outcome.passed, [str(f) for f in outcome.findings]
    assert not outcome.resources_blocked


@pytest.mark.parametrize("name", ["paralleldeploy", "multireboot", "multideploy"])
def test_hardware_family_passes_on_healthy_cluster(world, run_family, name):
    outcome = run_family(world, family_by_name(name), {"cluster": "grimoire"})
    assert outcome.passed, [str(f) for f in outcome.findings]


# -- broken testbed: the right family catches the right fault ------------------


def _inject(world, kind):
    inst = world.injector.inject(kind)
    assert inst is not None
    return inst


def test_refapi_catches_cstates_drift(world, run_family):
    # grisou-1 sorts first, so the 1-node reservation picks it on an idle
    # testbed — the faulty node is deterministically the one checked.
    world.machines["grisou-1"].actual.bios.c_states = True
    outcome = run_family(world, family_by_name("refapi"), {"cluster": "grisou"})
    assert not outcome.passed
    assert any(f.kind_hint == FaultKind.CPU_CSTATES for f in outcome.findings)


def test_oarproperties_catches_drift(world, run_family):
    inst = _inject(world, FaultKind.OAR_PROPERTY_DRIFT)
    outcome = run_family(world, family_by_name("oarproperties"),
                         {"cluster": inst.target})
    assert not outcome.passed
    assert all(f.kind_hint == FaultKind.OAR_PROPERTY_DRIFT
               for f in outcome.findings)


def test_dellbios_catches_skew(world, run_family):
    inst = None
    while inst is None or not world.testbed.cluster(inst.target).is_dell:
        if inst is not None:
            world.injector.fix(inst)
        inst = _inject(world, FaultKind.BIOS_VERSION_SKEW)
    outcome = run_family(world, family_by_name("dellbios"),
                         {"cluster": inst.target})
    assert not outcome.passed
    assert outcome.findings[0].kind_hint == FaultKind.BIOS_VERSION_SKEW


def test_oarstate_reports_suspected_node(world, run_family):
    world.machines["nova-3"].crash()
    outcome = run_family(world, family_by_name("oarstate"), {"site": "lyon"})
    assert not outcome.passed
    assert any(f.target == "nova-3" for f in outcome.findings)


def test_cmdline_catches_broken_tools(world, run_family):
    world.services.cmdline_failure_prob["nancy"] = 0.95
    outcome = run_family(world, family_by_name("cmdline"), {"site": "nancy"})
    assert not outcome.passed
    assert outcome.findings[0].kind_hint == FaultKind.CMDLINE_BROKEN


def test_sidapi_catches_flaky_api(world, run_family):
    world.services.api_failure_prob["lyon"] = 0.9
    outcome = run_family(world, family_by_name("sidapi"), {"site": "lyon"})
    assert not outcome.passed
    assert outcome.findings[0].kind_hint == FaultKind.API_FLAKY


def test_environments_catches_broken_image(world, run_family):
    world.services.broken_images.add(("centos7-min", "grisou"))
    outcome = run_family(world, family_by_name("environments"),
                         {"image": "centos7-min", "cluster": "grisou"})
    assert not outcome.passed
    assert any(f.kind_hint == FaultKind.ENV_IMAGE_BROKEN
               and f.target == "centos7-min@grisou" for f in outcome.findings)


def test_console_catches_dead_console(world, run_family):
    world.machines["taurus-2"].actual.console_ok = False
    outcome = run_family(world, family_by_name("console"), {"cluster": "taurus"})
    assert not outcome.passed
    assert outcome.findings[0].target == "taurus-2"


def test_kavlan_catches_misconfig(world, run_family):
    world.services.kavlan_broken.add("nancy")
    outcome = run_family(world, family_by_name("kavlan"), {"site": "nancy"})
    assert not outcome.passed
    assert outcome.findings[0].kind_hint == FaultKind.KAVLAN_MISCONFIG


def test_kwapi_catches_kwapi_down(world, run_family):
    world.services.kwapi_down.add("lyon")
    outcome = run_family(world, family_by_name("kwapi"), {"site": "lyon"})
    assert not outcome.passed
    assert outcome.findings[0].kind_hint == FaultKind.KWAPI_DOWN


def test_kwapi_catches_cable_swap(world, run_family):
    # swap the wiring of the two nodes the site reservation will pick
    # (nova-1/nova-10 sort first among lyon's alive nodes)
    a, b = world.machines["nova-1"], world.machines["nova-10"]
    a_wiring = (a.actual.pdu_uid, a.actual.pdu_port)
    a.actual.pdu_uid, a.actual.pdu_port = b.actual.pdu_uid, b.actual.pdu_port
    b.actual.pdu_uid, b.actual.pdu_port = a_wiring
    outcome = run_family(world, family_by_name("kwapi"), {"site": "lyon"})
    assert not outcome.passed
    assert any(f.kind_hint == FaultKind.PDU_CABLE_SWAP for f in outcome.findings)


def test_mpigraph_catches_ofed_failure(world, run_family):
    world.machines["graoully-1"].actual.infiniband.stack_ok = False
    outcome = run_family(world, family_by_name("mpigraph"),
                         {"cluster": "graoully"})
    assert not outcome.passed
    assert outcome.findings[0].kind_hint == FaultKind.IB_OFED_FAILURE


def test_disk_catches_write_cache(world, run_family):
    world.machines["grimoire-1"].actual.find_disk("sdb").write_cache = False
    outcome = run_family(world, family_by_name("disk"), {"cluster": "grimoire"})
    assert not outcome.passed
    assert any(f.kind_hint == FaultKind.DISK_WRITE_CACHE for f in outcome.findings)


def test_disk_catches_firmware_skew(world, run_family):
    world.machines["grimoire-1"].actual.find_disk("sdb").firmware = "FL1A"
    outcome = run_family(world, family_by_name("disk"), {"cluster": "grimoire"})
    assert not outcome.passed
    assert any(f.kind_hint == FaultKind.DISK_FIRMWARE_SKEW for f in outcome.findings)


def test_disk_catches_dead_disk(world, run_family):
    world.machines["grimoire-1"].actual.find_disk("sdc").healthy = False
    outcome = run_family(world, family_by_name("disk"), {"cluster": "grimoire"})
    assert not outcome.passed
    assert any(f.kind_hint == FaultKind.DISK_DEAD for f in outcome.findings)


def test_multireboot_catches_flaky_node(world, run_family):
    world.machines["grimoire-2"].boot_failure_prob = 0.95
    outcome = run_family(world, family_by_name("multireboot"),
                         {"cluster": "grimoire"})
    assert not outcome.passed
    assert any(f.kind_hint == FaultKind.RANDOM_REBOOTS
               and f.target == "grimoire-2" for f in outcome.findings)


def test_multideploy_catches_boot_race(world, run_family):
    for m in world.machines.machines.values():
        if m.cluster_uid == "grimoire":
            m.boot_race_delay_s = 500.0
    outcome = run_family(world, family_by_name("multideploy"),
                         {"cluster": "grimoire"})
    assert not outcome.passed
    assert any(f.kind_hint == FaultKind.KERNEL_BOOT_RACE for f in outcome.findings)


def test_paralleldeploy_catches_degradation(world, run_family):
    world.services.deploy_degradation["grisou"] = 0.6
    outcome = run_family(world, family_by_name("paralleldeploy"),
                         {"cluster": "grisou"})
    assert not outcome.passed
    assert any(f.kind_hint == FaultKind.DEPLOY_DEGRADED for f in outcome.findings)


# -- resource blocking -> UNSTABLE path ----------------------------------------


def test_blocked_resources_reported(world, run_family):
    n = world.testbed.cluster("taurus").node_count
    world.oar.submit(f"cluster='taurus'/nodes={n},walltime=12", auto_duration=None)
    world.sim.run(until=1.0)
    outcome = run_family(world, family_by_name("stdenv"), {"cluster": "taurus"})
    assert outcome.resources_blocked
    assert not outcome.passed


# -- the one reservation lifecycle, family by family ---------------------------


def _family(name):
    if name.endswith("-pernode"):
        return PerNodeVariant(family_by_name(name[:-len("-pernode")]))
    return family_by_name(name)


def _target_nodes(world, config):
    if "cluster" in config:
        clusters = [world.testbed.cluster(config["cluster"])]
    else:
        clusters = world.testbed.site(config["site"]).clusters
    return [n.uid for c in clusters for n in c.nodes]


def _test_jobs(world):
    return [j for j in world.oar.jobs.values() if j.user == "testframework"]


@pytest.mark.parametrize(
    "name", [f.name for f in ALL_FAMILIES] + ["multireboot-pernode"])
def test_reservation_lifecycle(world, run_family, name):
    """Free target: a reserving family submits one immediate job for
    ``nodes_needed`` nodes (ALL: every alive node of the target) and
    ``walltime_s``; an out-of-band family submits nothing.  Target held
    whole by a user job: a reserving family gets the blocked outcome."""
    family = _family(name)
    config = family.configurations(world.testbed)[0]
    target = _target_nodes(world, config)
    outcome = run_family(world, family, dict(config))
    assert not outcome.resources_blocked
    jobs = _test_jobs(world)
    if not family.nodes_needed:
        assert jobs == []
    else:
        (job,) = jobs
        assert job.immediate
        assert job.request.walltime_s == family.walltime_s
        if family.nodes_needed == "ALL":
            alive = [u for u in target if world.machines[u].available]
            assert sorted(job.assignment) == sorted(alive)
        else:
            assert len(job.assignment) == family.nodes_needed
            assert set(job.assignment) <= set(target)
        if "node" in outcome.config:
            assert job.assignment == (outcome.config["node"],)

    key = "cluster" if "cluster" in config else "site"
    world.oar.submit(f"{key}='{config[key]}'/nodes=ALL,walltime=12",
                     auto_duration=None)
    world.sim.run(until=world.sim.now + 1.0)
    blocked = run_family(world, family, dict(config))
    if family.nodes_needed:
        assert blocked.resources_blocked and not blocked.passed
        assert len(_test_jobs(world)) == 2  # the refused one was cancelled
    else:
        assert not blocked.resources_blocked
        assert _test_jobs(world) == []


def test_pernode_reserves_the_next_free_node_of_its_rotation(world, run_family):
    """The cursor's node is held by a user job: the run reserves the next
    node of the rotation instead of coming back blocked, and the cursor
    moves past it.  With the whole cluster held it keeps the cursor's
    node and is blocked."""
    family = PerNodeVariant(family_by_name("multireboot"))
    cluster = world.testbed.cluster("grimoire")
    first, second = cluster.nodes[0].uid, cluster.nodes[1].uid
    world.oar.submit(f"network_address='{first}.{cluster.site}.grid5000.fr'"
                     "/nodes=1,walltime=12", auto_duration=None)
    world.sim.run(until=1.0)
    outcome = run_family(world, family, {"cluster": "grimoire"})
    assert not outcome.resources_blocked
    assert outcome.config["node"] == second
    (job,) = _test_jobs(world)
    assert job.assignment == (second,)

    world.oar.submit(f"cluster='grimoire'/nodes={cluster.node_count}"
                     ",walltime=12", auto_duration=None)
    world.sim.run(until=world.sim.now + 1.0)
    blocked = run_family(world, family, {"cluster": "grimoire"})
    assert blocked.resources_blocked
    assert blocked.config["node"] == cluster.nodes[2].uid
