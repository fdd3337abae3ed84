"""The ``repro-sim`` wire protocol: a versioned, line-based codec.

Modeled on the ds-sim scheduler protocol (HELO/GETS/SCHD verbs over a
plain socket), so that an external scheduler written in any language can
drive one simulated campaign.  Every message is one UTF-8 text line::

    VERB arg1 arg2 ...\\n

Multi-record answers travel as a ``DATA <n>`` header, ``n`` payload
lines, and a lone ``.`` terminator (SMTP-style).  The codec layer is
symmetric — both peers encode and decode through the same table — and
validates verbs and arities, so the session layer above only ever sees
well-formed :class:`Message` values or a typed :class:`ProtocolError` it
can answer with ``ERR``.

Client → server verbs
    ``HELO`` version [name] · ``RUN`` scenario seed months · ``RESM``
    run-token · ``GETS`` what · ``SCHD`` cell · ``DEFR`` cell · ``REDY``
    · ``SUBM`` json · ``RPRT`` · ``CMPR`` baseline · ``QUIT``

Server → client verbs
    ``OK`` · ``ERR`` code reason · ``PING`` [t] · ``TICK`` t n_jcpl
    n_jobn · ``JCPL`` t cell status · ``JOBN`` cell kind site cluster
    need inflight alive free runs blocked · ``DATA`` n · ``CELL``
    scenario seed status i total · ``DONE`` detail · ``RPRT`` sha256 ·
    ``.``

Framing: the byte stream is the only unit.  One read may return several
lines, and a line may span reads, so a client must split on ``\\n`` —
the ds-sim idiom of one message per ``socket.recv()`` breaks.  The
server coalesces its output: everything said since its last write leaves
in one write when it is about to block on a read, right after each
``CELL`` and ``PING`` line, and on close.  A whole scheduler round
(``TICK``, its ``JCPL`` and ``JOBN`` lines) thus arrives in one write.

Timestamps are serialized with :func:`repr` so the float round-trips
exactly — the determinism contract depends on both peers computing
calendar predicates (peak hours) on the identical value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["PROTOCOL_VERSION", "MAX_LINE_BYTES", "Message", "ProtocolError",
           "encode", "decode", "format_time_arg", "parse_time_arg"]

#: Bumped on any incompatible verb/field change; HELO negotiates it.
PROTOCOL_VERSION = "repro-sim-1"

#: Hard cap on one line (a SUBM matrix document is the largest message).
MAX_LINE_BYTES = 65536

#: ``ERR`` code vocabulary (first ERR argument).  ``toobig`` is the
#: dedicated answer for a line over :data:`MAX_LINE_BYTES` — a client
#: seeing it knows the peer is about to drop the connection rather than
#: attempt to resynchronize inside the oversized line.
ERR_CODES = ("proto", "verb", "arity", "arg", "state", "run", "toobig",
             "internal")

#: verb -> (min_args, max_args | None for unbounded, rawtail).
#: ``rawtail`` verbs take everything after the verb as one argument that
#: may contain spaces (JSON payloads).
_VERBS: dict[str, tuple[int, Optional[int], bool]] = {
    # client -> server
    "HELO": (1, 2, False),
    "RUN": (3, 3, False),
    "RESM": (1, 1, False),
    "GETS": (1, 1, False),
    "SCHD": (1, 1, False),
    "DEFR": (1, 1, False),
    "REDY": (0, 0, False),
    "SUBM": (1, 1, True),
    "RPRT": (0, 1, False),
    "CMPR": (1, 1, False),
    "QUIT": (0, 0, False),
    # server -> client
    "OK": (0, None, False),
    "ERR": (1, None, False),
    "PING": (0, 1, False),
    "TICK": (3, 3, False),
    "JCPL": (3, 3, False),
    "JOBN": (10, 10, False),
    "DATA": (1, 1, False),
    "CELL": (5, 5, False),
    "DONE": (0, None, False),
    ".": (0, 0, False),
}


class ProtocolError(Exception):
    """A malformed or ill-timed message; ``code`` is one of ERR_CODES."""

    def __init__(self, code: str, message: str):
        assert code in ERR_CODES, code
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message


@dataclass(frozen=True)
class Message:
    """One decoded protocol line."""

    verb: str
    args: tuple[str, ...]

    def __str__(self) -> str:
        return encode(self.verb, *self.args)


def format_time_arg(t: float) -> str:
    """Exact float serialization (``repr`` round-trips every IEEE double)."""
    return repr(float(t))


def parse_time_arg(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ProtocolError("arg", f"bad timestamp {text!r}") from None


def encode(verb: str, *args: object) -> str:
    """Render one message line (without the trailing newline)."""
    spec = _VERBS.get(verb)
    if spec is None:
        raise ProtocolError("verb", f"unknown verb {verb!r}")
    lo, hi, rawtail = spec
    if len(args) < lo or (hi is not None and len(args) > hi):
        raise ProtocolError("arity", f"{verb} takes {lo}"
                            + (f"..{hi}" if hi != lo else "")
                            + f" args, got {len(args)}")
    parts = [verb]
    for arg in args:
        text = str(arg)
        if "\n" in text or "\r" in text:
            raise ProtocolError("arg", f"newline inside {verb} argument")
        if not rawtail and (" " in text or text == ""):
            raise ProtocolError("arg",
                                f"space/empty in non-tail {verb} argument")
        parts.append(text)
    line = " ".join(parts)
    if len(line.encode("utf-8")) > MAX_LINE_BYTES:
        raise ProtocolError("toobig",
                            f"{verb} line exceeds {MAX_LINE_BYTES}B")
    return line


def decode(line: str) -> Message:
    """Parse one received line (newline already stripped)."""
    if len(line.encode("utf-8", errors="replace")) > MAX_LINE_BYTES:
        raise ProtocolError("toobig",
                            f"line exceeds {MAX_LINE_BYTES} bytes")
    line = line.strip()
    if not line:
        raise ProtocolError("proto", "empty line")
    verb, _, tail = line.partition(" ")
    spec = _VERBS.get(verb)
    if spec is None:
        raise ProtocolError("verb", f"unknown verb {verb!r}")
    lo, hi, rawtail = spec
    if rawtail:
        tail = tail.strip()
        args: tuple[str, ...] = (tail,) if tail else ()
    else:
        args = tuple(tail.split())
    if len(args) < lo or (hi is not None and len(args) > hi):
        raise ProtocolError("arity", f"{verb} takes {lo}"
                            + (f"..{hi}" if hi != lo else "")
                            + f" args, got {len(args)}")
    return Message(verb, args)
