"""The parts memo of ``parse_request`` answers exactly as the full parser.

``parse_request`` splits a trailing ``,walltime=<time>`` clause off, reads
the walltime itself and keeps the parsed parts of the text before it in a
bounded memo.  Whatever text it gets, the answer (or the error, with its
message and position) must be the one ``_Parser(text).parse_request()``
gives, on the first call and on every memo hit after it.
"""

import sys
import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.oar import request
from repro.oar.request import _Parser, parse_request
from repro.util import ParseError

_SP = st.sampled_from(["", " ", "  "])
_NAME = st.sampled_from(["cluster", "site", "gpu", "memnode"])
_OP = st.sampled_from(["=", "!=", "<", "<=", ">", ">="])
# Quoted values full of the characters the fast split looks at.
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
    "", "1:", ":30", "1.5:30", "1:30.5", "x", "'2'", "2,walltime=3",
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
    parts = "+".join(draw(st.lists(_part(), min_size=1, max_size=3)))
    tail = draw(st.one_of(st.none(), _walltime(), _MALFORMED_TAIL))
    if tail is None:
        return parts
    return f"{parts}{draw(_CLAUSE)}{tail}"


def _outcome(parse, text):
    try:
        return parse(text)
    except ParseError as exc:
        return ParseError, str(exc), exc.position
    except ValueError as exc:  # e.g. '1:30.5': int('30.5') in both paths
        return ValueError, str(exc)


def _reference(text):
    return _Parser(text).parse_request()


_REQUEST_TEXT = st.one_of(
    _request_text(),
    st.text(alphabet="nodes=1,walltime:'/+ ().ALc", max_size=30))


@settings(max_examples=400)
@given(_REQUEST_TEXT)
def test_memo_answers_as_the_full_parser(text):
    want = _outcome(_reference, text)
    assert _outcome(parse_request, text) == want
    assert _outcome(parse_request, text) == want  # a memo hit, if cached


@given(_request_text(), _walltime())
def test_memo_hit_reads_the_new_walltime(text, walltime):
    _outcome(parse_request, text)  # may seed the memo with its parts
    head = text.rpartition(",walltime=")[0] or text
    other = f"{head},walltime={walltime}"
    assert _outcome(parse_request, other) == _outcome(_reference, other)


@given(st.lists(_request_text(), min_size=1, max_size=40))
def test_memo_never_grows_past_its_bound(texts):
    bound = 5
    memo = request._parts_memo
    saved, saved_bound = dict(memo), request._PARTS_MEMO_MAX
    memo.clear()
    request._PARTS_MEMO_MAX = bound
    try:
        for i, text in enumerate(texts):
            # distinct heads: the memo sees more shapes than it may keep
            text = f"site='s{i}'/nodes=1+{text}"
            assert _outcome(parse_request, text) == _outcome(_reference, text)
            assert len(memo) <= bound
    finally:
        request._PARTS_MEMO_MAX = saved_bound
        memo.clear()
        memo.update(saved)


def test_memo_bound_holds_under_concurrent_parsers():
    """Service sessions parse in threads: with more threads than cores and
    a short switch interval, no eviction races and the bound holds."""
    bound, workers, per_worker = 7, 6, 300
    memo = request._parts_memo
    saved, saved_bound = dict(memo), request._PARTS_MEMO_MAX
    saved_interval = sys.getswitchinterval()
    errors, sizes = [], []

    def parse_many(worker):
        try:
            for i in range(per_worker):
                req = parse_request(f"site='w{worker}i{i % 50}'/nodes={i % 3 + 1}"
                                    f",walltime={i % 5}:30")
                assert req.walltime_s == (i % 5) * 3600 + 1800
                sizes.append(len(memo))
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    memo.clear()
    request._PARTS_MEMO_MAX = bound
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=parse_many, args=(w,))
                   for w in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(saved_interval)
        request._PARTS_MEMO_MAX = saved_bound
        memo.clear()
        memo.update(saved)
    assert errors == []
    assert len(sizes) == workers * per_worker
    assert max(sizes) <= bound


def test_memo_keeps_the_parts_of_a_walltime_free_text():
    text = "cluster='grisou'/nodes=2"
    assert parse_request(text) == _reference(text)
    assert request._parts_memo[text] == _reference(text).parts
    timed = parse_request(f"{text},walltime=2:30")
    assert timed.parts is request._parts_memo[text]
    assert timed.walltime_s == 2.5 * 3600
