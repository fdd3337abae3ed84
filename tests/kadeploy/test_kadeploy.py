"""Tests for the Kadeploy deployment simulator."""

import pytest

from repro.faults import ServiceHealth
from repro.kadeploy import (
    REFERENCE_IMAGES,
    STD_ENV,
    Kadeploy,
    broadcast_time_s,
    image_by_name,
)
from repro.nodes import MachinePark, PowerState
from repro.testbed import CLUSTER_SPECS, build_grid5000
from repro.util import MINUTE, DeploymentError, RngStreams, Simulator


def make_world(seed=7, clusters=("paravance", "grisou")):
    specs = [s for s in CLUSTER_SPECS if s.name in clusters]
    testbed = build_grid5000(specs)
    sim = Simulator()
    services = ServiceHealth()
    park = MachinePark.from_testbed(sim, testbed, RngStreams(seed=seed))
    kadeploy = Kadeploy(sim, park, services, RngStreams(seed=seed))
    return sim, park, services, kadeploy, testbed


def run_deploy(sim, kadeploy, uids, image):
    holder = {}

    def driver():
        holder["result"] = yield sim.process(kadeploy.deploy(uids, image))

    sim.process(driver())
    sim.run()
    return holder["result"]


# -- images -----------------------------------------------------------------


def test_exactly_14_reference_images():
    """Slide 15: 14 images x 32 clusters = 448 configurations."""
    assert len(REFERENCE_IMAGES) == 14


def test_image_names_unique():
    names = [img.name for img in REFERENCE_IMAGES]
    assert len(set(names)) == 14


def test_std_env_is_a_reference_image():
    assert image_by_name(STD_ENV).variant == "std"


def test_unknown_image_raises():
    with pytest.raises(KeyError):
        image_by_name("windows315")


# -- broadcast model ---------------------------------------------------------


def test_broadcast_nearly_flat_in_node_count():
    t10 = broadcast_time_s(1200, 10, 1250, 120)
    t200 = broadcast_time_s(1200, 200, 1250, 120)
    assert t200 < t10 * 4  # chain: far from linear scaling
    assert t200 - t10 == pytest.approx(0.35 * 190)


def test_broadcast_bottleneck_is_disk():
    slow_disk = broadcast_time_s(1200, 50, 1250, 60)
    fast_disk = broadcast_time_s(1200, 50, 1250, 400)
    assert slow_disk > fast_disk


def test_broadcast_invalid_args():
    with pytest.raises(ValueError):
        broadcast_time_s(1200, 0, 1250, 120)
    with pytest.raises(ValueError):
        broadcast_time_s(-1, 5, 1250, 120)


# -- deployments ---------------------------------------------------------------


def test_deploy_small_group_succeeds():
    sim, park, _, kadeploy, _ = make_world()
    uids = [f"paravance-{i}" for i in range(1, 9)]
    result = run_deploy(sim, kadeploy, uids, "debian9-min")
    assert result.success_rate == 1.0
    for uid in uids:
        assert park[uid].deployed_env == "debian9-min"
        assert park[uid].state == PowerState.ON


def test_paper_claim_200_nodes_in_about_5_minutes():
    """Slide 8: '200 nodes deployed in ~5 minutes'."""
    sim, park, _, kadeploy, testbed = make_world(clusters=("paravance", "grisou",
                                                           "parasilo", "ecotype",
                                                           "nova", "econome"))
    uids = [n.uid for n in testbed.iter_nodes()][:200]
    assert len(uids) == 200
    result = run_deploy(sim, kadeploy, uids, "debian9-min")
    # Paper: ~5 minutes.  Our simulated boot times land in the same band.
    assert 3 * MINUTE < result.duration_s < 10 * MINUTE
    assert result.success_rate > 0.95


def test_empty_node_list_raises():
    sim, _, _, kadeploy, _ = make_world()
    with pytest.raises(DeploymentError):
        next(kadeploy.deploy([], "debian9-min"))


def test_broken_image_fails_sanity_on_that_cluster():
    sim, park, services, kadeploy, _ = make_world()
    services.broken_images.add(("debian9-min", "grisou"))
    uids = ["grisou-1", "grisou-2", "paravance-1"]
    result = run_deploy(sim, kadeploy, uids, "debian9-min")
    assert result.outcomes["grisou-1"].failed_phase == "sanity"
    assert result.outcomes["grisou-2"].failed_phase == "sanity"
    assert result.outcomes["paravance-1"].ok


def test_degraded_cluster_fails_more():
    failures = []
    for degraded in (False, True):
        sim, park, services, kadeploy, _ = make_world(seed=13)
        if degraded:
            services.deploy_degradation["grisou"] = 0.4
        uids = [f"grisou-{i}" for i in range(1, 41)]
        result = run_deploy(sim, kadeploy, uids, "debian8-std")
        failures.append(len(result.failed))
    assert failures[1] > failures[0]


def test_random_reboot_node_often_fails_deploy():
    ok = 0
    for seed in range(12):
        sim, park, _, kadeploy, _ = make_world(seed=seed)
        park["grisou-1"].boot_failure_prob = 0.5
        result = run_deploy(sim, kadeploy, ["grisou-1"], "debian8-min")
        ok += result.outcomes["grisou-1"].ok
    assert ok < 12  # with retry, some still fail (p_fail ~ (.5)^2 per phase pair)


def test_retry_flag_set_on_failed_then_recovered_node():
    sim, park, _, kadeploy, _ = make_world(seed=3)
    park["grisou-2"].boot_failure_prob = 0.9
    result = run_deploy(sim, kadeploy, ["grisou-2"], "debian8-min")
    outcome = result.outcomes["grisou-2"]
    if outcome.ok:
        assert outcome.retried
    else:
        assert outcome.failed_phase in {"minenv", "broadcast", "boot"}


def test_plain_reboot():
    sim, park, _, kadeploy, _ = make_world()
    uids = ["paravance-1", "paravance-2"]
    holder = {}

    def driver():
        holder["up"] = yield sim.process(kadeploy.reboot(uids))

    sim.process(driver())
    sim.run()
    assert holder["up"] == {u: True for u in uids}
    assert all(park[u].boot_count == 1 for u in uids)


def test_deployment_reproducible():
    def trace(seed):
        sim, _, _, kadeploy, _ = make_world(seed=seed)
        uids = [f"paravance-{i}" for i in range(1, 21)]
        result = run_deploy(sim, kadeploy, uids, "debian8-big")
        return (result.duration_s, tuple(result.deployed))

    assert trace(21) == trace(21)


def test_bigger_image_takes_longer():
    durations = []
    for image in ("debian8-min", "debian8-big"):
        sim, _, _, kadeploy, _ = make_world(seed=5)
        result = run_deploy(sim, kadeploy, [f"grisou-{i}" for i in range(1, 11)], image)
        durations.append(result.duration_s)
    assert durations[1] > durations[0]
