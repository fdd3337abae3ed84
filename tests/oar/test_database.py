"""Tests for the OAR properties database."""

import pytest

from repro.faults import ServiceHealth
from repro.oar import OarDatabase, parse_expression, properties_from_description
from repro.testbed import ReferenceApi


@pytest.fixture()
def db(fresh_testbed):
    return OarDatabase(ReferenceApi(fresh_testbed), ServiceHealth())


def test_row_per_node(db, fresh_testbed):
    assert len(db.node_uids()) == fresh_testbed.node_count


def test_properties_from_description(fresh_testbed):
    props = properties_from_description(fresh_testbed.node("grele-1"))
    assert props["cluster"] == "grele"
    assert props["site"] == "nancy"
    assert props["gpu"] == "YES"
    assert props["gpucount"] == 2
    assert props["eth10g"] == "Y"
    assert props["ib"] == "FDR"
    assert props["memnode"] == 128 * 1024
    assert props["deploy"] == "YES"


def test_ib_property_names(fresh_testbed):
    assert properties_from_description(fresh_testbed.node("graphene-1"))["ib"] == "DDR"
    assert properties_from_description(fresh_testbed.node("parapide-1"))["ib"] == "QDR"
    assert properties_from_description(fresh_testbed.node("azur-1"))["ib"] == "NO"


def test_matching_by_cluster(db, fresh_testbed):
    uids = db.matching(parse_expression("cluster='grisou'"))
    assert len(uids) == fresh_testbed.cluster("grisou").node_count
    assert all(u.startswith("grisou-") for u in uids)


def test_matching_gpu_nodes(db, fresh_testbed):
    uids = db.matching(parse_expression("gpu='YES'"))
    expected = sum(n.gpu is not None for n in fresh_testbed.iter_nodes())
    assert len(uids) == expected


def test_matching_compound_expression(db):
    uids = db.matching(parse_expression("site='nancy' and eth10g='Y' and ib='FDR'"))
    clusters = {u.rsplit("-", 1)[0] for u in uids}
    assert clusters == {"grimoire", "graoully", "grele"}


def test_matching_none_returns_all(db, fresh_testbed):
    assert len(db.matching(None)) == fresh_testbed.node_count


def test_matching_with_candidates(db):
    uids = db.matching(parse_expression("cluster='grisou'"),
                       candidates=["grisou-1", "grisou-2", "paravance-1"])
    assert uids == ["grisou-1", "grisou-2"]


def test_drift_corrupts_served_row(db):
    clean = db.properties("grisou-5")
    db.services.oar_property_drift["grisou-5"] = {"memnode"}
    served = db.properties("grisou-5")
    assert served["memnode"] == clean["memnode"] // 2
    assert served["cluster"] == clean["cluster"]  # untouched fields intact


def test_drift_eth10g_flips(db):
    db.services.oar_property_drift["grisou-5"] = {"eth10g"}
    assert db.properties("grisou-5")["eth10g"] == "N"


def test_drift_disktype(db):
    db.services.oar_property_drift["grisou-5"] = {"disktype"}
    assert db.properties("grisou-5")["disktype"] == "UNKNOWN"


def test_drift_affects_matching(db):
    expr = parse_expression("cluster='grisou' and eth10g='Y'")
    before = db.matching(expr)
    db.services.oar_property_drift["grisou-5"] = {"eth10g"}
    after = db.matching(expr)
    assert "grisou-5" in before and "grisou-5" not in after


def test_sync_keeps_drift_until_fault_fixed(db):
    clean = db.properties("grisou-5")
    db.services.oar_property_drift["grisou-5"] = {"memnode"}
    db.sync_from_refapi()
    assert db.properties("grisou-5")["memnode"] == clean["memnode"] // 2
    # once the fault is reverted (drift removed), serving is clean again
    db.services.oar_property_drift.clear()
    assert db.properties("grisou-5") == clean


def test_sync_picks_up_refapi_changes(db):
    import dataclasses

    node = db.refapi.node("grisou-5")
    db.refapi.update_node(dataclasses.replace(node, ram_gb=256),
                          timestamp=10.0, message="RAM upgrade")
    assert db.properties("grisou-5")["memnode"] == 128 * 1024  # not yet synced
    db.sync_from_refapi()
    assert db.properties("grisou-5")["memnode"] == 256 * 1024
