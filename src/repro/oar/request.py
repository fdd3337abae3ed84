"""Parser for the ``oarsub -l`` resource-request mini-language.

Slide 7 shows the selection syntax users (and the testing framework) use::

    oarsub -l "cluster='a' and gpu='YES'/nodes=1+cluster='b' and
               eth10g='Y'/nodes=2,walltime=2"

The simulator takes one node set per request: a request is
``[property_expression '/'] 'nodes=' count (',' 'walltime=' time)?``, and
the ``+`` join above is refused with a :class:`ParseError` at the ``+``
(each half parses alone).  ``count`` is ``int``, ``ALL``, or an elastic
width range:

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
from dataclasses import dataclass
from typing import Any, Optional, Union

from ..util.errors import ParseError
from ..util.simclock import HOUR, MINUTE

__all__ = [
    "PropExpr",
    "Comparison",
    "BoolOp",
    "NotOp",
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
class JobRequest:
    """A full ``-l`` argument: ``expr/nodes=count,walltime=...``.

    ``count`` is the *preferred* width — the one the scheduler places the
    job at.  ``min_count``/``max_count`` bound a malleable job's width
    (``None`` on both means rigid: the job runs at exactly ``count``).
    ``walltime_s`` defaults to OAR's one hour.
    """

    expr: Optional[PropExpr]
    count: Union[int, str]  # int or ALL_NODES
    min_count: Optional[int] = None
    max_count: Optional[int] = None
    walltime_s: float = HOUR

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
        count = self.count
        if not isinstance(count, int):
            return False
        return ((self.min_count is not None and self.min_count < count)
                or (self.max_count is not None and self.max_count > count))

    def __str__(self) -> str:
        if self.malleable:
            lo, hi = self.min_nodes, self.max_nodes
            if lo == self.count:
                nodes = f"nodes={lo}..{hi}"
            else:
                nodes = f"nodes={lo}..{self.count}..{hi}"
        else:
            nodes = f"nodes={self.count}"
        if self.expr is not None:
            nodes = f"{self.expr}/{nodes}"
        return f"{nodes},walltime={format_walltime(self.walltime_s)}"


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
        if not isinstance(count, int):
            raise ParseError("ALL cannot anchor an elastic width range",
                             self.text, first.pos)
        values = [count]
        while self.at_range():
            self.next()
            value = self._parse_count()
            if not isinstance(value, int):
                raise ParseError("ALL cannot appear in an elastic width "
                                 "range", self.text,
                                 self.tokens[self.index - 1].pos)
            values.append(value)
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

    def parse_request(self) -> JobRequest:
        """``[expr /] nodes=count [, walltime=time]`` — needs lookahead
        because both branches start with a word."""
        # `nodes` is a reserved word: a request starting with it is the
        # bare `nodes=count` form, never a property comparison.
        expr: Optional[PropExpr] = None
        if self.at_word("nodes"):
            self.next()
        else:
            expr = self.parse_or()
            self.expect("punct", "/")
            self.expect("word", "nodes")
        self.expect("op", "=")
        count, lo, hi = self._parse_count_spec()
        if self.at_punct("+"):
            raise ParseError("a request takes one node set: '+' is not "
                             "supported", self.text, self.tokens[self.index].pos)
        walltime_s = HOUR  # OAR's default walltime
        if self.at_punct(","):
            self.next()
            self.expect("word", "walltime")
            self.expect("op", "=")
            walltime_s = self._parse_time_value()
        tok = self.peek()
        if tok is not None:
            raise ParseError(f"trailing input {tok.text!r}", self.text, tok.pos)
        return JobRequest(expr, count, lo, hi, walltime_s)

    def _parse_time_value(self) -> float:
        """``H``, ``H:MM`` or ``H:MM:SS`` (also fractional hours ``1.5``).

        ``MM`` and ``SS`` are whole non-negative numbers, and the total
        must be positive: a job with no time to run could never be placed.
        """
        h = self.expect("number")
        if "." in h.text:
            seconds = float(h.text) * HOUR
        else:
            seconds = int(h.text) * HOUR
            for unit in (MINUTE, 1):
                if not self.at_punct(":"):
                    break
                self.next()
                tok = self.expect("number")
                if not tok.text.isdigit():
                    raise ParseError(f"invalid time field {tok.text!r}",
                                     self.text, tok.pos)
                seconds += int(tok.text) * unit
        if seconds <= 0:
            raise ParseError(f"walltime must be positive, got {seconds:g} s",
                             self.text, h.pos)
        return float(seconds)


def parse_expression(text: str) -> PropExpr:
    """Parse a bare property expression, e.g. ``"gpu='YES' and memnode>=64"``."""
    parser = _Parser(text)
    expr = parser.parse_or()
    tok = parser.peek()
    if tok is not None:
        raise ParseError(f"trailing input {tok.text!r}", text, tok.pos)
    return expr


def parse_request(text: str) -> JobRequest:
    """Parse a full ``-l`` request string.

    >>> req = parse_request("cluster='grisou'/nodes=2,walltime=2:30:00")
    >>> req.count, req.walltime_s
    (2, 9000.0)
    """
    return _Parser(text).parse_request()
