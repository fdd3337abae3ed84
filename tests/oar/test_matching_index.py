"""``OarServer.matching_mask`` selects exactly the rows ``matching`` lists.

A cache miss of ``matching_mask`` evaluates the expression against a
column index ``{prop: {value: mask}}`` built once per drift epoch, with
each AST node's ``select``; ``OarDatabase.matching`` stays the per-row
definition.  Both must name the same nodes for every expression, before
an OAR_PROPERTY_DRIFT fault, while it holds and after its fix, which is
only true if the index is rebuilt whenever the drift epoch moves.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import ServiceHealth
from repro.nodes import MachinePark
from repro.oar import OarDatabase, OarServer, parse_expression
from repro.oar.request import BoolOp, Comparison, NotOp
from repro.testbed import CLUSTER_SPECS, ReferenceApi, build_grid5000
from repro.util import RngStreams, Simulator

_TESTBED = build_grid5000(
    [s for s in CLUSTER_SPECS if s.name in ("grisou", "grimoire", "graphene")])
_UIDS = sorted(n.uid for n in _TESTBED.iter_nodes())

#: Properties a drift corrupts in distinct ways (halved, UNKNOWN, flipped,
#: set to None) plus a property no row has.
_DRIFTING = ("memnode", "disktype", "eth10g", "cluster", "gpu")
_NAMES = _DRIFTING + ("site", "cpucore", "network_address", "nosuchprop")
_VALUES = ("grisou", "graphene", "nancy", "YES", "NO", "Y", "N", "SAS",
           "SATA", "UNKNOWN", "", 0, 4, 16, 65536, 131072, 2.5, -1)
_OPS = ("=", "!=", "<", "<=", ">", ">=")


def _world():
    sim = Simulator()
    park = MachinePark.from_testbed(sim, _TESTBED, RngStreams(seed=3))
    db = OarDatabase(ReferenceApi(_TESTBED), ServiceHealth())
    return OarServer(sim, db, park)


_COMPARISON = st.builds(Comparison, st.sampled_from(_NAMES),
                        st.sampled_from(_OPS), st.sampled_from(_VALUES))
_EXPR = st.recursive(
    _COMPARISON,
    lambda inner: st.one_of(
        st.builds(BoolOp, st.sampled_from(["and", "or"]), inner, inner),
        st.builds(NotOp, inner)),
    max_leaves=6)


def _agrees(oar, exprs):
    for expr in exprs:
        want = oar.gantt.mask_for(oar.db.matching(expr))
        assert oar.matching_mask(expr) == want, str(expr)


@settings(max_examples=60, deadline=None)
@given(st.lists(_EXPR, min_size=1, max_size=6),
       st.lists(st.sampled_from(_UIDS), min_size=1, max_size=8, unique=True),
       st.sampled_from(_DRIFTING))
def test_index_agrees_with_per_row_matching_across_drift(exprs, uids, prop):
    oar = _world()
    services = oar.db.services
    exprs = exprs + [None]
    _agrees(oar, exprs)
    services.drift_oar_property(uids, prop)
    _agrees(oar, exprs)
    services.fix_oar_property(uids, prop)
    _agrees(oar, exprs)


def test_index_is_rebuilt_when_the_drift_epoch_moves():
    oar = _world()
    services = oar.db.services
    expr = parse_expression("cluster='grisou' and not eth10g='N'")
    before = oar.matching_mask(expr)
    grisou = oar.db.matching(parse_expression("cluster='grisou'"))
    assert before and grisou
    services.drift_oar_property(grisou[:3], "cluster")  # cluster -> None
    after = oar.matching_mask(expr)
    assert after == oar.gantt.mask_for(oar.db.matching(expr))
    assert after == before & ~oar.gantt.mask_for(grisou[:3])
    services.fix_oar_property(grisou[:3], "cluster")
    assert oar.matching_mask(expr) == before


def test_select_of_a_missing_property_is_empty():
    oar = _world()
    assert oar.matching_mask(parse_expression("nosuchprop='x'")) == 0
    assert oar.matching_mask(parse_expression("not nosuchprop='x'")) == \
        oar.gantt.full_mask
