"""The park's alive and crashed bitmasks always equal a fresh scan of node
power states.

Every liveness reader (OAR placement, grow candidates, the launcher's
availability counts, the steal negotiation) ANDs with
``MachinePark.alive_mask`` instead of asking each node, so the mask must
follow every way a node's power state can change: spontaneous crashes,
power cycles, Kadeploy deployments, direct ``state`` writes and fault
injection/repair.  The janitor skips its sweep when ``crashed_mask`` is 0,
so that mask must follow the same changes.  The gremlin visits only the
park's crash-prone index, so that index must equal a fresh scan of
``crash_mtbf_s`` in testbed order after every way the MTBF is set or
cleared.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.faults import FAULT_SPECS, ServiceHealth
from repro.faults.catalog import FaultContext, apply_fault, revert_fault
from repro.kadeploy import Kadeploy
from repro.nodes import MachinePark, PowerState
from repro.oar import OarDatabase, OarServer
from repro.testbed import CLUSTER_SPECS, ReferenceApi, build_grid5000
from repro.util import RngStreams, SchedulingError, Simulator

#: Two 12-node clusters: uids such as ``grisou-10`` sort before
#: ``grisou-2``, so bit order (sorted uids) differs from testbed order.
_SPECS = [dataclasses.replace(s, nodes=12) for s in CLUSTER_SPECS
          if s.name in ("grisou", "paravance")]
_TESTBED = build_grid5000(_SPECS)
_N = _TESTBED.node_count
_KINDS = sorted(FAULT_SPECS, key=lambda k: k.value)

_NODE = st.integers(0, _N - 1)
_OPS = st.lists(st.one_of(
    st.tuples(st.just("crash"), _NODE),
    st.tuples(st.just("boot"), _NODE, st.sampled_from([1.0, 0.6])),
    st.tuples(st.just("deploy"), st.lists(_NODE, min_size=1, max_size=4)),
    st.tuples(st.just("set"), _NODE, st.sampled_from(list(PowerState))),
    st.tuples(st.just("fault"), st.sampled_from(_KINDS)),
    st.tuples(st.just("revert"), st.integers(0, 7)),
    st.tuples(st.just("advance"), st.floats(0.0, 900.0)),
), max_size=40)


def _scanned_mask(park, state=PowerState.ON):
    """The mask of nodes in ``state`` rebuilt from scratch, one node at a
    time."""
    mask = 0
    for i, uid in enumerate(park.uids):
        if park[uid].state is state:
            mask |= 1 << i
    return mask


def _scanned_crash_prone(park):
    """The nodes with an MTBF set, found by scanning the park in testbed
    order."""
    return [n for n in park.machines.values() if n.crash_mtbf_s is not None]


def _assert_masks_fresh(park):
    assert park.alive_mask == _scanned_mask(park)
    assert park.crashed_mask == _scanned_mask(park, PowerState.CRASHED)
    assert park.crash_prone_nodes() == _scanned_crash_prone(park)


def test_bits_follow_sorted_uid_order():
    park = MachinePark.from_testbed(Simulator(), _TESTBED, RngStreams(seed=0))
    assert park.uids == sorted(park.machines)
    assert list(park.machines) != park.uids  # testbed order is kept apart
    assert park.alive_mask == (1 << _N) - 1 == _scanned_mask(park)
    assert park.crashed_mask == 0


@settings(max_examples=60, deadline=None)
@given(ops=_OPS, seed=st.integers(0, 3))
def test_alive_mask_equals_fresh_scan(ops, seed):
    sim = Simulator()
    park = MachinePark.from_testbed(sim, _TESTBED, RngStreams(seed=seed))
    services = ServiceHealth()
    kadeploy = Kadeploy(sim, park, services, RngStreams(seed=seed))
    ctx = FaultContext.build(park, services, ("debian9-min",))
    rng = np.random.default_rng(seed)
    uids = park.uids
    faults = []
    for op in ops:
        kind = op[0]
        if kind == "crash":
            park[uids[op[1]]].crash()
        elif kind == "boot":
            sim.process(park[uids[op[1]]].boot(factor=op[2]))
        elif kind == "deploy":
            nodes = sorted({uids[i] for i in op[1]})
            sim.process(kadeploy.deploy(nodes, "debian9-min"))
        elif kind == "set":
            park[uids[op[1]]].state = op[2]
        elif kind == "fault":
            instance = apply_fault(op[1], ctx, rng, len(faults), sim.now)
            if instance is not None:
                faults.append(instance)
        elif kind == "revert":
            if faults:
                revert_fault(faults[op[1] % len(faults)], ctx)
        else:
            sim.run(until=sim.now + op[1])
        _assert_masks_fresh(park)
    sim.run()
    _assert_masks_fresh(park)


def test_park_built_from_crashed_nodes_starts_with_their_bits():
    sim = Simulator()
    nodes = list(MachinePark.from_testbed(sim, _TESTBED,
                                          RngStreams(seed=0)).machines.values())
    nodes[0].crash()
    nodes[1].state = PowerState.BOOTING
    park = MachinePark(nodes)
    _assert_masks_fresh(park)
    assert park.crashed_mask.bit_count() == 1


def test_crash_prone_index_follows_set_clear_and_reset():
    park = MachinePark.from_testbed(Simulator(), _TESTBED, RngStreams(seed=0))
    assert park.crash_prone_nodes() == []
    # Set out of testbed order: a paravance node, then grisou-10 before
    # grisou-2 (bit order), then grisou-2.
    order = ["paravance-3", "grisou-10", "grisou-2"]
    for i, uid in enumerate(order):
        park[uid].crash_mtbf_s = 3600.0 * (i + 1)
        _assert_masks_fresh(park)
    assert [n.uid for n in park.crash_prone_nodes()] \
        == ["grisou-2", "grisou-10", "paravance-3"]
    park["grisou-10"].crash_mtbf_s = None
    _assert_masks_fresh(park)
    park["grisou-10"].crash_mtbf_s = None  # clearing twice is harmless
    _assert_masks_fresh(park)
    park["grisou-10"].crash_mtbf_s = 7200.0  # re-set
    park["paravance-3"].crash_mtbf_s = 900.0  # a new value, same entry
    _assert_masks_fresh(park)
    assert [(n.uid, n.crash_mtbf_s) for n in park.crash_prone_nodes()] \
        == [("grisou-2", 10800.0), ("grisou-10", 7200.0),
            ("paravance-3", 900.0)]
    # A park built over nodes that already carry an MTBF indexes them.
    rebuilt = MachinePark(list(park.machines.values()))
    _assert_masks_fresh(rebuilt)
    assert rebuilt.crash_prone_nodes() == park.crash_prone_nodes()


def test_oar_server_rejects_a_park_of_other_nodes():
    other = build_grid5000([s for s in _SPECS if s.name == "grisou"])
    sim = Simulator()
    park = MachinePark.from_testbed(sim, other, RngStreams(seed=1))
    db = OarDatabase(ReferenceApi(_TESTBED), ServiceHealth())
    with pytest.raises(SchedulingError, match="different node sets"):
        OarServer(sim, db, park)


def test_oar_server_places_on_the_park_bit_order():
    sim = Simulator()
    park = MachinePark.from_testbed(sim, _TESTBED, RngStreams(seed=1))
    db = OarDatabase(ReferenceApi(_TESTBED), ServiceHealth())
    oar = OarServer(sim, db, park)
    assert [oar.gantt.bit(u) for u in park.uids] == list(range(_N))
    park["grisou-1"].crash()
    job = oar.submit("cluster='grisou'/nodes=2,walltime=1", auto_duration=60.0)
    assert job.assignment == ("grisou-10", "grisou-11")
