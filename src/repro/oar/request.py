"""Parser for the ``oarsub -l`` resource-request mini-language.

Slide 7 shows the selection syntax users (and the testing framework) use::

    oarsub -l "cluster='a' and gpu='YES'/nodes=1+cluster='b' and
               eth10g='Y'/nodes=2,walltime=2"

A request is ``part ('+' part)* (',' 'walltime=' time)?`` where each part is
``[property_expression '/'] 'nodes=' count``.  ``count`` is ``int``, ``ALL``,
or an elastic width range:

* ``nodes=4`` — rigid, exactly four nodes;
* ``nodes=2..8`` — malleable, preferred (and placed at) 2, growable to 8;
* ``nodes=2..4..8`` — malleable, minimum 2, preferred 4, maximum 8.

Rigid is the ``min == preferred == max`` degenerate case; placement always
happens at the *preferred* width, so a request with a range schedules
byte-identically to its rigid counterpart until a malleable policy calls
``grow``/``shrink``.  Property expressions support ``and``/``or``/``not``,
parentheses, and the comparison operators ``= != < <= > >=`` over quoted
strings and numbers.

The parser is a hand-written tokenizer + recursive-descent (precedence:
``or`` < ``and`` < ``not`` < comparison), producing an AST whose nodes
evaluate against a property dict, select from a column index of node
bitmasks, and render back to canonical text (``str(expr)`` re-parses to an
equivalent AST — property-tested).
"""

from __future__ import annotations

import re
import threading
from dataclasses import dataclass
from typing import Any, Optional, Union

from ..util.errors import ParseError
from ..util.simclock import HOUR, MINUTE

__all__ = [
    "PropExpr",
    "Comparison",
    "BoolOp",
    "NotOp",
    "RequestPart",
    "JobRequest",
    "ALL_NODES",
    "parse_expression",
    "parse_request",
    "format_walltime",
]

#: Sentinel for ``nodes=ALL`` (hardware-centric tests take whole clusters).
ALL_NODES = "ALL"


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


#: Column index of the property rows: ``{prop: {value: mask}}``, where
#: ``mask`` has one bit per row holding ``value`` under ``prop``.
Columns = dict[str, dict[Any, int]]


class PropExpr:
    """Base class for property-expression AST nodes.

    ``evaluate`` is the definition, one row at a time; ``select`` answers
    the same question for every row at once: the rows, as a mask within
    ``full``, whose ``evaluate`` would be true.
    """

    def evaluate(self, props: dict[str, Any]) -> bool:  # pragma: no cover
        raise NotImplementedError

    def select(self, columns: Columns, full: int) -> int:  # pragma: no cover
        raise NotImplementedError


_OPS = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


@dataclass(frozen=True)
class Comparison(PropExpr):
    name: str
    op: str
    value: Union[str, int, float]

    def evaluate(self, props: dict[str, Any]) -> bool:
        if self.name not in props:
            return False
        return self._holds(props[self.name])

    def _holds(self, actual: Any) -> bool:
        try:
            return _OPS[self.op](actual, self.value)
        except TypeError:
            return False  # comparing number with string -> no match

    def select(self, columns: Columns, full: int) -> int:
        mask = 0
        for actual, rows in columns.get(self.name, {}).items():
            if self._holds(actual):
                mask |= rows
        return mask

    def __str__(self) -> str:
        value = f"'{self.value}'" if isinstance(self.value, str) else str(self.value)
        return f"{self.name}{self.op}{value}"


@dataclass(frozen=True)
class BoolOp(PropExpr):
    op: str  # "and" | "or"
    left: PropExpr
    right: PropExpr

    def evaluate(self, props: dict[str, Any]) -> bool:
        if self.op == "and":
            return self.left.evaluate(props) and self.right.evaluate(props)
        return self.left.evaluate(props) or self.right.evaluate(props)

    def select(self, columns: Columns, full: int) -> int:
        left = self.left.select(columns, full)
        right = self.right.select(columns, full)
        return left & right if self.op == "and" else left | right

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class NotOp(PropExpr):
    operand: PropExpr

    def evaluate(self, props: dict[str, Any]) -> bool:
        return not self.operand.evaluate(props)

    def select(self, columns: Columns, full: int) -> int:
        return full & ~self.operand.select(columns, full)

    def __str__(self) -> str:
        return f"(not {self.operand})"


@dataclass(frozen=True)
class RequestPart:
    """One resource group: ``expr/nodes=count``.

    ``count`` is the *preferred* width — the one the scheduler places the
    job at.  ``min_count``/``max_count`` bound a malleable job's width
    (``None`` on both means rigid: the job runs at exactly ``count``).
    """

    expr: Optional[PropExpr]
    count: Union[int, str]  # int or ALL_NODES
    min_count: Optional[int] = None
    max_count: Optional[int] = None

    def __post_init__(self) -> None:
        if self.min_count is None and self.max_count is None:
            return
        if not isinstance(self.count, int):
            raise ValueError("elastic width ranges need an integer count, "
                             f"not {self.count!r}")
        lo = self.count if self.min_count is None else self.min_count
        hi = self.count if self.max_count is None else self.max_count
        if not 1 <= lo <= self.count <= hi:
            raise ValueError(
                f"invalid elastic width {lo}..{self.count}..{hi}: "
                "need 1 <= min <= preferred <= max")

    @property
    def min_nodes(self) -> Union[int, str]:
        """Smallest width the job can run at (== ``count`` when rigid)."""
        return self.count if self.min_count is None else self.min_count

    @property
    def max_nodes(self) -> Union[int, str]:
        """Largest width the job may grow to (== ``count`` when rigid)."""
        return self.count if self.max_count is None else self.max_count

    @property
    def malleable(self) -> bool:
        """True when the width range is wider than a single point."""
        return (isinstance(self.count, int)
                and (self.min_nodes < self.count
                     or self.max_nodes > self.count))

    def __str__(self) -> str:
        if self.malleable:
            lo, hi = self.min_nodes, self.max_nodes
            if lo == self.count:
                nodes = f"nodes={lo}..{hi}"
            else:
                nodes = f"nodes={lo}..{self.count}..{hi}"
        else:
            nodes = f"nodes={self.count}"
        return f"{self.expr}/{nodes}" if self.expr is not None else nodes


@dataclass(frozen=True)
class JobRequest:
    """A full ``-l`` argument: resource parts plus a walltime."""

    parts: tuple[RequestPart, ...]
    walltime_s: float

    def __str__(self) -> str:
        parts = "+".join(str(p) for p in self.parts)
        return f"{parts},walltime={format_walltime(self.walltime_s)}"


def format_walltime(seconds: float) -> str:
    total = int(round(seconds))
    h, rem = divmod(total, int(HOUR))
    m, s = divmod(rem, int(MINUTE))
    return f"{h}:{m:02d}:{s:02d}"


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""\s*(?:
        (?P<op><=|>=|!=|=|<|>)
      | (?P<range>\.\.)
      | (?P<punct>[()/+,:])
      | (?P<string>'[^']*')
      | (?P<number>-?\d+(?:\.\d+)?)
      | (?P<word>[A-Za-z_][A-Za-z_0-9]*)
    )""",
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None or match.end() == pos:
            if text[pos:].strip() == "":
                break
            raise ParseError("unexpected character", text, pos)
        for kind in ("op", "range", "punct", "string", "number", "word"):
            value = match.group(kind)
            if value is not None:
                tokens.append(_Token(kind, value, match.start(kind)))
                break
        pos = match.end()
    return tokens


# ---------------------------------------------------------------------------
# Recursive-descent parser
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0

    # -- token helpers -------------------------------------------------------

    def peek(self) -> Optional[_Token]:
        return self.tokens[self.index] if self.index < len(self.tokens) else None

    def next(self) -> _Token:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", self.text, len(self.text))
        self.index += 1
        return tok

    def expect(self, kind: str, text: Optional[str] = None) -> _Token:
        tok = self.next()
        if tok.kind != kind or (text is not None and tok.text != text):
            raise ParseError(f"expected {text or kind}, got {tok.text!r}",
                             self.text, tok.pos)
        return tok

    def at_word(self, *words: str) -> bool:
        tok = self.peek()
        return tok is not None and tok.kind == "word" and tok.text.lower() in words

    def at_punct(self, *chars: str) -> bool:
        tok = self.peek()
        return tok is not None and tok.kind == "punct" and tok.text in chars

    # -- expression grammar ----------------------------------------------------

    def parse_or(self) -> PropExpr:
        left = self.parse_and()
        while self.at_word("or"):
            self.next()
            left = BoolOp("or", left, self.parse_and())
        return left

    def parse_and(self) -> PropExpr:
        left = self.parse_not()
        while self.at_word("and"):
            self.next()
            left = BoolOp("and", left, self.parse_not())
        return left

    def parse_not(self) -> PropExpr:
        if self.at_word("not"):
            self.next()
            return NotOp(self.parse_not())
        return self.parse_atom()

    def parse_atom(self) -> PropExpr:
        if self.at_punct("("):
            self.next()
            expr = self.parse_or()
            self.expect("punct", ")")
            return expr
        name_tok = self.expect("word")
        op_tok = self.expect("op")
        value_tok = self.next()
        value: Union[str, int, float]
        if value_tok.kind == "string":
            value = value_tok.text[1:-1]
        elif value_tok.kind == "number":
            value = float(value_tok.text) if "." in value_tok.text else int(value_tok.text)
        else:
            raise ParseError(f"expected a value, got {value_tok.text!r}",
                             self.text, value_tok.pos)
        return Comparison(name_tok.text, op_tok.text, value)

    # -- request grammar ----------------------------------------------------------

    def parse_part(self) -> RequestPart:
        """``[expr /] nodes=count`` — needs lookahead because both branches
        start with a word."""
        # `nodes` is a reserved word: a part starting with it is the bare
        # `nodes=count` form, never a property comparison.
        if self.at_word("nodes"):
            self.next()
            self.expect("op", "=")
            return RequestPart(None, *self._parse_count_spec())
        expr = self.parse_or()
        self.expect("punct", "/")
        self.expect("word", "nodes")
        self.expect("op", "=")
        return RequestPart(expr, *self._parse_count_spec())

    def _parse_count(self) -> Union[int, str]:
        tok = self.next()
        if tok.kind == "number" and "." not in tok.text and int(tok.text) > 0:
            return int(tok.text)
        if tok.kind == "word" and tok.text.upper() == ALL_NODES:
            return ALL_NODES
        raise ParseError(f"invalid node count {tok.text!r}", self.text, tok.pos)

    def at_range(self) -> bool:
        tok = self.peek()
        return tok is not None and tok.kind == "range"

    def _parse_count_spec(
            self) -> tuple[Union[int, str], Optional[int], Optional[int]]:
        """``count``, ``min..max`` or ``min..preferred..max``.

        Two values mean "place at the minimum, growable to the maximum";
        three spell the preferred width out.  Returns
        ``(count, min_count, max_count)`` with ``(count, None, None)`` for
        the rigid single-value form.
        """
        first = self.next()
        self.index -= 1  # re-read via _parse_count for the shared validation
        count = self._parse_count()
        if not self.at_range():
            return count, None, None
        if count == ALL_NODES or first.kind != "number":
            raise ParseError("ALL cannot anchor an elastic width range",
                             self.text, first.pos)
        values = [count]
        while self.at_range():
            self.next()
            tok = self.peek()
            values.append(self._parse_count())
            if values[-1] == ALL_NODES:
                raise ParseError("ALL cannot appear in an elastic width "
                                 "range", self.text,
                                 tok.pos if tok is not None else 0)
        if len(values) == 2:
            lo, hi = values
            preferred = lo
        elif len(values) == 3:
            lo, preferred, hi = values
        else:
            raise ParseError(
                "elastic width takes min..max or min..preferred..max, "
                f"got {len(values)} values", self.text, first.pos)
        if not lo <= preferred <= hi:
            raise ParseError(
                f"invalid elastic width {lo}..{preferred}..{hi}: need "
                "min <= preferred <= max", self.text, first.pos)
        if lo == hi:
            return preferred, None, None  # degenerate range: plain rigid
        return preferred, lo, hi

    def parse_parts(self) -> tuple[RequestPart, ...]:
        parts = [self.parse_part()]
        while self.at_punct("+"):
            self.next()
            parts.append(self.parse_part())
        return tuple(parts)

    def parse_request(self) -> JobRequest:
        parts = self.parse_parts()
        walltime_s = HOUR  # OAR's default walltime
        if self.at_punct(","):
            self.next()
            self.expect("word", "walltime")
            self.expect("op", "=")
            walltime_s = self._parse_time_value()
        tok = self.peek()
        if tok is not None:
            raise ParseError(f"trailing input {tok.text!r}", self.text, tok.pos)
        return JobRequest(parts, walltime_s)

    def _parse_time_value(self) -> float:
        """``H``, ``H:MM`` or ``H:MM:SS`` (also fractional hours ``1.5``)."""
        h = self.expect("number")
        if "." in h.text:
            return float(h.text) * HOUR
        seconds = int(h.text) * HOUR
        for unit in (MINUTE, 1):
            if not self.at_punct(":"):
                break
            self.next()
            tok = self.expect("number")
            seconds += int(tok.text) * unit
        return float(seconds)


def parse_expression(text: str) -> PropExpr:
    """Parse a bare property expression, e.g. ``"gpu='YES' and memnode>=64"``."""
    parser = _Parser(text)
    expr = parser.parse_or()
    tok = parser.peek()
    if tok is not None:
        raise ParseError(f"trailing input {tok.text!r}", text, tok.pos)
    return expr


#: The trailing walltime clause the fast path splits a request at.
_WALLTIME_CLAUSE = ",walltime="

#: A walltime value exactly as the tokenizer reads one: fractional hours,
#: or integer ``H[:MM[:SS]]``, with spaces allowed around every token.
_TIME_VALUE_RE = re.compile(
    r"\s*(?:(-?\d+\.\d+)|(-?\d+)(?:\s*:\s*(-?\d+)(?:\s*:\s*(-?\d+))?)?)\s*")

#: Most part strings the memo keeps; past it the oldest entry goes.
_PARTS_MEMO_MAX = 4096

#: Request text before its walltime clause -> its parsed parts.  Parts are
#: frozen and a pure function of that text, so sharing them is safe.
_parts_memo: dict[str, tuple[RequestPart, ...]] = {}
#: Serialises inserts and evictions: service sessions parse in threads.
_parts_memo_lock = threading.Lock()


def _time_value(match: re.Match[str]) -> float:
    """:meth:`_Parser._parse_time_value` on a :data:`_TIME_VALUE_RE` match."""
    fractional, hours, minutes, seconds = match.groups()
    if fractional is not None:
        return float(fractional) * HOUR
    total = int(hours) * HOUR
    if minutes is not None:
        total += int(minutes) * MINUTE
    if seconds is not None:
        total += int(seconds)
    return float(total)


def parse_request(text: str) -> JobRequest:
    """Parse a full ``-l`` request string.

    Jobs repeat a few request shapes with a different walltime each, so
    the parts before a trailing ``,walltime=<time>`` clause are parsed once
    and kept in a bounded memo; the walltime is read on every call.  Text
    this split does not recognise, and every error, goes through the full
    parser, so results and error messages do not depend on the memo.

    >>> req = parse_request("cluster='grisou'/nodes=2,walltime=2:30:00")
    >>> req.parts[0].count, req.walltime_s
    (2, 9000.0)
    """
    head, clause, tail = text.rpartition(_WALLTIME_CLAUSE)
    if clause:
        match = _TIME_VALUE_RE.fullmatch(tail)
        if match is None:
            return _Parser(text).parse_request()
        walltime_s = _time_value(match)
    else:
        head, walltime_s = text, HOUR
    parts = _parts_memo.get(head)
    if parts is None:
        try:
            parser = _Parser(head)
            parts = parser.parse_parts()
        except ParseError:
            return _Parser(text).parse_request()
        if parser.peek() is not None:
            return _Parser(text).parse_request()
        with _parts_memo_lock:
            if len(_parts_memo) >= _PARTS_MEMO_MAX:
                del _parts_memo[next(iter(_parts_memo))]
            _parts_memo[head] = parts
    return JobRequest(parts, walltime_s)
