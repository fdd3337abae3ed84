"""Tests for the oarsub -l request parser (unit + property-based)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.oar import (
    ALL_NODES,
    BoolOp,
    Comparison,
    JobRequest,
    NotOp,
    parse_expression,
    parse_request,
)
from repro.util import HOUR, MINUTE, ParseError


# -- unit: expressions ------------------------------------------------------


def test_simple_comparison():
    expr = parse_expression("cluster='grisou'")
    assert expr == Comparison("cluster", "=", "grisou")


def test_numeric_comparison():
    expr = parse_expression("memnode>=65536")
    assert expr.evaluate({"memnode": 131072})
    assert not expr.evaluate({"memnode": 1024})


def test_float_value():
    assert parse_expression("freq=2.4").evaluate({"freq": 2.4})


def test_and_or_precedence():
    expr = parse_expression("a='1' or b='2' and c='3'")
    # and binds tighter: a='1' or (b='2' and c='3')
    assert isinstance(expr, BoolOp) and expr.op == "or"
    assert isinstance(expr.right, BoolOp) and expr.right.op == "and"


def test_parentheses_override_precedence():
    expr = parse_expression("(a='1' or b='2') and c='3'")
    assert isinstance(expr, BoolOp) and expr.op == "and"


def test_not_operator():
    expr = parse_expression("not gpu='YES'")
    assert isinstance(expr, NotOp)
    assert expr.evaluate({"gpu": "NO"})
    assert not expr.evaluate({"gpu": "YES"})


def test_missing_property_is_false():
    expr = parse_expression("gpu='YES'")
    assert not expr.evaluate({})


def test_type_mismatch_is_false_not_error():
    expr = parse_expression("memnode>=64")
    assert not expr.evaluate({"memnode": "lots"})


def test_all_comparison_operators():
    props = {"x": 5}
    assert parse_expression("x=5").evaluate(props)
    assert parse_expression("x!=4").evaluate(props)
    assert parse_expression("x<6").evaluate(props)
    assert parse_expression("x<=5").evaluate(props)
    assert parse_expression("x>4").evaluate(props)
    assert parse_expression("x>=5").evaluate(props)


def test_garbage_raises_parse_error():
    for bad in ("", "cluster=", "= 'x'", "cluster='a' and", "a='1' ; b='2'",
                "(a='1'", "a='1')"):
        with pytest.raises(ParseError):
            parse_expression(bad)


def test_parse_error_reports_position():
    with pytest.raises(ParseError) as err:
        parse_expression("cluster='a' @@ b='2'")
    assert err.value.position >= 0


# -- unit: full requests ------------------------------------------------------


_SLIDE_7_FIRST = "cluster='a' and gpu='YES'/nodes=1"
_SLIDE_7_SECOND = "cluster='b' and eth10g='Y'/nodes=2,walltime=2"


def test_paper_example_request():
    """The oarsub line from slide 7 joins two node sets with ``+``: a
    request takes one, so the parser refuses it at the ``+``, and each
    half parses alone."""
    text = f"{_SLIDE_7_FIRST}+{_SLIDE_7_SECOND}"
    with pytest.raises(ParseError) as info:
        parse_request(text)
    assert info.value.position == text.index("+")
    first = parse_request(_SLIDE_7_FIRST)
    assert first.count == 1
    assert first.walltime_s == HOUR
    assert first.expr.evaluate({"cluster": "a", "gpu": "YES"})
    assert not first.expr.evaluate({"cluster": "a", "gpu": "NO"})
    second = parse_request(_SLIDE_7_SECOND)
    assert second.count == 2
    assert second.walltime_s == 2 * HOUR
    assert second.expr.evaluate({"cluster": "b", "eth10g": "Y"})


def test_bare_nodes_request():
    req = parse_request("nodes=4")
    assert req.expr is None
    assert req.count == 4
    assert req.walltime_s == HOUR  # default


def test_nodes_all():
    req = parse_request("cluster='grisou'/nodes=ALL,walltime=1:30")
    assert req.count == ALL_NODES
    assert req.walltime_s == HOUR + 30 * MINUTE


def test_walltime_hms():
    assert parse_request("nodes=1,walltime=2:30:15").walltime_s == \
        2 * HOUR + 30 * MINUTE + 15


def test_walltime_fractional_hours():
    assert parse_request("nodes=1,walltime=1.5").walltime_s == 1.5 * HOUR


@pytest.mark.parametrize("walltime, pos", [
    ("0", 17), ("-2", 17), ("0:00:00", 17), ("0.0", 17), ("-1:30", 17),
    ("1:-5", 19), ("1:30.5", 19), ("1:30:-1", 22), ("1:30:0.5", 22),
])
def test_bad_walltime_raises_parse_error_at_its_position(walltime, pos):
    text = f"nodes=1,walltime={walltime}"
    with pytest.raises(ParseError) as info:
        parse_request(text)
    assert info.value.position == pos


def test_zero_node_count_rejected():
    with pytest.raises(ParseError):
        parse_request("nodes=0")


def test_trailing_garbage_rejected():
    with pytest.raises(ParseError):
        parse_request("nodes=1 nodes=2")


def test_request_round_trip_paper_example():
    for text in (_SLIDE_7_FIRST, _SLIDE_7_SECOND):
        req = parse_request(text)
        assert parse_request(str(req)) == req


# -- property-based: render/parse round-trip ------------------------------------

_names = st.sampled_from(["cluster", "site", "gpu", "eth10g", "memnode", "ib", "disktype"])
_ops = st.sampled_from(["=", "!=", "<", "<=", ">", ">="])
_values = st.one_of(
    st.integers(min_value=0, max_value=10**6),
    st.text(alphabet="abcdefghij0123456789_", min_size=1, max_size=8),
)


@st.composite
def expressions(draw, depth=0):
    if depth >= 3 or draw(st.booleans()):
        return Comparison(draw(_names), draw(_ops), draw(_values))
    kind = draw(st.sampled_from(["and", "or", "not"]))
    if kind == "not":
        return NotOp(draw(expressions(depth + 1)))
    return BoolOp(kind, draw(expressions(depth + 1)), draw(expressions(depth + 1)))


@given(expressions())
def test_expression_str_round_trips(expr):
    assert parse_expression(str(expr)) == expr


@given(expressions(), st.dictionaries(_names, _values, max_size=5))
def test_evaluation_matches_after_round_trip(expr, props):
    reparsed = parse_expression(str(expr))
    assert reparsed.evaluate(props) == expr.evaluate(props)


@given(
    st.one_of(st.none(), expressions()),
    st.one_of(st.integers(1, 500), st.just(ALL_NODES)),
    st.integers(min_value=60, max_value=48 * 3600),
)
def test_request_str_round_trips(expr, count, walltime):
    req = JobRequest(expr, count, walltime_s=float(walltime))
    assert parse_request(str(req)) == req


# -- unit: elastic width ranges ------------------------------------------------


def test_elastic_range_two_values():
    """``lo..hi`` anchors the preferred width at the minimum."""
    req = parse_request("nodes=2..8")
    assert (req.min_nodes, req.count, req.max_nodes) == (2, 2, 8)
    assert req.malleable


def test_elastic_range_three_values():
    req = parse_request("cluster='grisou'/nodes=2..4..8,walltime=2")
    assert (req.min_nodes, req.count, req.max_nodes) == (2, 4, 8)
    assert req.malleable


def test_rigid_part_degenerate_bounds():
    req = parse_request("nodes=4")
    assert (req.min_nodes, req.count, req.max_nodes) == (4, 4, 4)
    assert not req.malleable


def test_degenerate_range_normalizes_to_rigid():
    """``nodes=3..3`` is a point range: identical to ``nodes=3``."""
    assert parse_request("nodes=3..3") == parse_request("nodes=3")
    assert parse_request("nodes=3..3..3") == parse_request("nodes=3")


def test_elastic_range_round_trips():
    for text in ("nodes=2..8", "nodes=2..4..8",
                 "cluster='a'/nodes=1..2..3,walltime=1:30"):
        req = parse_request(text)
        assert parse_request(str(req)) == req


def test_elastic_range_bad_ordering_rejected():
    for bad in ("nodes=8..2", "nodes=4..2..8", "nodes=2..9..8",
                "nodes=0..4", "nodes=2..4..8..16"):
        with pytest.raises(ParseError):
            parse_request(bad)


def test_all_cannot_appear_in_a_range():
    for bad in ("nodes=ALL..8", "nodes=2..ALL", "nodes=2..4..ALL"):
        with pytest.raises(ParseError):
            parse_request(bad)


def test_request_part_validates_bounds():
    """``JobRequest`` checks its width range when it is built."""
    with pytest.raises(ValueError):
        JobRequest(None, 4, min_count=5, max_count=8)  # count < min
    with pytest.raises(ValueError):
        JobRequest(None, 4, min_count=2, max_count=3)  # count > max
    with pytest.raises(ValueError):
        JobRequest(None, ALL_NODES, min_count=1, max_count=2)  # ALL range


@given(
    st.integers(min_value=1, max_value=100),
    st.integers(min_value=0, max_value=50),
    st.integers(min_value=0, max_value=50),
)
def test_elastic_range_str_round_trips(pref, below, above):
    lo, hi = max(1, pref - below), pref + above
    req = parse_request(f"nodes={lo}..{pref}..{hi}")
    assert (req.min_nodes, req.count, req.max_nodes) == (lo, pref, hi)
    assert parse_request(str(req)) == req


# -- property: any text gives a request or a ParseError ------------------------

_SP = st.sampled_from(["", " ", "  "])
_NAME = st.sampled_from(["cluster", "site", "gpu", "memnode"])
_OP = st.sampled_from(["=", "!=", "<", "<=", ">", ">="])
# Quoted values full of the request grammar's own punctuation.
_QUOTED = st.lists(
    st.sampled_from(["a", "grisou", ",", "/", "+", "walltime=",
                     ",walltime=2", " ", "1", ":"]),
    max_size=4).map(lambda chunks: "'" + "".join(chunks) + "'")
_NUMBER = st.sampled_from(["0", "64", "2.5", "-3"])
_COUNT = st.sampled_from(["1", "4", "ALL", "2..8", "2..4..8", "3..3", "0",
                          "8..2", "1..ALL"])
_CLAUSE = st.sampled_from([",walltime=", ",walltime=", ",walltime=",
                           ", walltime=", ",walltime =", ",WALLTIME="])
_MALFORMED_TAIL = st.sampled_from([
    "", "1:", ":30", "1.5:30", "1:30.5", "1:-5", "x", "'2'", "2,walltime=3",
    "1:2:3:4", "1 2", "1.", "--1", "2)", "2+nodes=1"])


@st.composite
def _comparison(draw):
    value = draw(st.one_of(_QUOTED, _NUMBER))
    return (f"{draw(_SP)}{draw(_NAME)}{draw(_SP)}{draw(_OP)}{draw(_SP)}"
            f"{value}{draw(_SP)}")


@st.composite
def _expr(draw):
    expr = draw(_comparison())
    if draw(st.booleans()):
        joiner = draw(st.sampled_from([" and ", " or "]))
        expr = f"{expr}{joiner}{draw(_comparison())}"
    if draw(st.booleans()):
        expr = f"not ({expr})"
    return expr


@st.composite
def _part(draw):
    nodes = f"nodes{draw(_SP)}={draw(_SP)}{draw(_COUNT)}{draw(_SP)}"
    if draw(st.booleans()):
        return nodes
    return f"{draw(_expr())}/{draw(_SP)}{nodes}"


@st.composite
def _walltime(draw):
    hours = str(draw(st.integers(-2, 30)))
    minutes = draw(st.integers(0, 59))
    seconds = draw(st.integers(0, 59))
    sp = draw(_SP)
    return draw(st.sampled_from([
        f"{sp}{hours}",
        f"{hours}{sp}:{sp}{minutes:02d}",
        f"{hours}:{minutes:02d}{sp}:{seconds:02d}{sp}",
        "1.5", "-1", f"{sp}0.25",
    ]))


@st.composite
def _request_text(draw):
    """``(text, number of parts joined with '+')``."""
    parts = draw(st.lists(_part(), min_size=1, max_size=3))
    text = "+".join(parts)
    tail = draw(st.one_of(st.none(), _walltime(), _MALFORMED_TAIL))
    if tail is not None:
        text = f"{text}{draw(_CLAUSE)}{tail}"
    return text, len(parts)


@settings(max_examples=400)
@given(st.one_of(_request_text(),
                 st.text(alphabet="nodes=1,walltime:'/+ ().ALc-",
                         max_size=30).map(lambda text: (text, None))))
def test_any_text_parses_to_a_request_or_raises_parse_error(case):
    """Any text gives a request or a ParseError; a generated text that
    joins several parts with ``+`` always gives the error."""
    text, parts = case
    try:
        req = parse_request(text)
    except ParseError:
        return
    assert parts in (1, None)
    assert isinstance(req, JobRequest)
    assert req.walltime_s > 0
