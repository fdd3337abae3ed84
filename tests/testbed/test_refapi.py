"""Tests for the versioned Reference API store."""

import dataclasses

import pytest

from repro.testbed import BiosSettings, ReferenceApi
from repro.util import HOUR, ReferenceApiError


def test_initial_commit_exists(refapi):
    assert len(refapi.history) == 1
    assert refapi.head.message == "initial import"


def test_node_lookup(refapi):
    assert refapi.node("graphene-1").cluster == "graphene"


def test_node_lookup_unknown_raises(refapi):
    with pytest.raises(ReferenceApiError):
        refapi.node("ghost-1")


def test_update_node_creates_version(refapi):
    node = dataclasses.replace(refapi.node("grisou-1"), bios=BiosSettings(c_states=True))
    v2 = refapi.update_node(node, timestamp=HOUR, message="enable c-states (wrong!)")
    assert len(refapi.history) == 2
    assert refapi.head.version == v2
    assert refapi.node("grisou-1").bios.c_states


def test_commit_unchanged_is_noop(refapi):
    v1 = refapi.head.version
    v2 = refapi.commit(HOUR, "nothing changed")
    assert v1 == v2
    assert len(refapi.history) == 1


def test_commit_in_past_raises(refapi):
    node = dataclasses.replace(refapi.node("grisou-1"), bios=BiosSettings(turbo_boost=True))
    refapi.update_node(node, timestamp=10 * HOUR, message="later change")
    with pytest.raises(ReferenceApiError):
        refapi.commit(5 * HOUR, "time travel")


def test_at_time_returns_archived_snapshot(refapi):
    v1 = refapi.head.version
    node = dataclasses.replace(refapi.node("grisou-1"), bios=BiosSettings(turbo_boost=True))
    v2 = refapi.update_node(node, timestamp=6 * HOUR, message="change")
    assert refapi.at_time(3 * HOUR).version == v1
    assert refapi.at_time(6 * HOUR).version == v2
    assert refapi.at_time(100 * HOUR).version == v2


def test_at_time_before_history_raises(fresh_testbed):
    api = ReferenceApi(fresh_testbed, timestamp=50.0)
    with pytest.raises(ReferenceApiError):
        api.at_time(10.0)


def test_diff_between_versions_pinpoints_change(refapi):
    v1 = refapi.head.version
    node = refapi.node("grisou-1")
    node = dataclasses.replace(
        node, bios=dataclasses.replace(node.bios, hyperthreading=True))
    v2 = refapi.update_node(node, timestamp=HOUR, message="HT flipped")
    entries = refapi.diff(v1, v2)
    assert len(entries) == 1
    assert entries[0].path.endswith("bios.hyperthreading")
    assert entries[0].old is False and entries[0].new is True


def test_diff_unknown_version_raises(refapi):
    with pytest.raises(ReferenceApiError):
        refapi.diff(refapi.head.version, "deadbeef")


def test_get_version(refapi):
    v = refapi.head.version
    assert refapi.get_version(v).version == v


def test_update_unknown_node_raises(refapi):
    ghost = dataclasses.replace(refapi.node("grisou-1"), uid="grisou-999")
    with pytest.raises(ReferenceApiError):
        refapi.update_node(ghost, timestamp=HOUR, message="ghost")


def test_archived_docs_are_snapshots_not_views(refapi):
    """Mutating the live testbed after commit must not alter history."""
    v1_doc_nodes = refapi.head.doc["sites"][0]["clusters"][0]["nodes"]
    first_uid = v1_doc_nodes[0]["uid"]
    node = dataclasses.replace(refapi.node(first_uid), bios=BiosSettings(c_states=True))
    refapi.update_node(node, timestamp=HOUR, message="drift")
    old = refapi.history[0]
    assert old.doc["sites"][0]["clusters"][0]["nodes"][0]["bios"]["c_states"] is False
