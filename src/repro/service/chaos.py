"""Deterministic chaos: a fault-injecting wrapper for any ``Transport``.

:class:`ChaosTransport` sits between a :class:`~repro.service.session.Session`
(or a client) and its real transport and, driven by a seeded RNG schedule,
perturbs the line stream the way a degrading network would:

* ``conn-drop``   — close the inner transport mid-exchange (on the send
  side the victim line goes out torn: a prefix with no newline, then EOF);
* ``line-garbage`` — deliver a non-protocol line *before* the real one;
* ``line-split``  — deliver the real line in two halves (two reads);
* ``line-dup``    — deliver the real line twice;
* ``line-delay``  — sleep before delivering, to exercise heartbeats.

The schedule lives in a :class:`ChaosPlan`: one seeded stream, one fault
budget, one event log — *shared across reconnects*, so a convergence test
wraps every successive connection of a resilient client in the same plan
and knows chaos eventually stops (the budget drains) and the run completes.
Every draw is recorded in :attr:`ChaosPlan.events`, which doubles as the
chaos log artifact CI uploads.

Fault kinds and weights come from
:data:`~repro.faults.catalog.TRANSPORT_FAULT_SPECS`, so the service-layer
fault vocabulary is catalogued next to the in-world one.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field

from ..faults.catalog import TRANSPORT_FAULT_SPECS, FaultKind
from ..util.rng import RngStreams
from .protocol import MAX_LINE_BYTES
from .session import SessionClosed, Transport

__all__ = ["ChaosConfig", "ChaosPlan", "ChaosTransport"]

#: Kinds eligible per direction.  Receive-side chaos can corrupt content
#: (the peer's session answers ERR and resynchronizes); send-side chaos is
#: limited to timing and death — content corruption of our *own* outgoing
#: lines would make the victim's recovery depend on how the peer parses
#: trash, which is the peer's convergence problem, not this side's.
_RECV_KINDS = (FaultKind.CONN_DROP, FaultKind.LINE_GARBAGE,
               FaultKind.LINE_SPLIT, FaultKind.LINE_DUP,
               FaultKind.LINE_DELAY)
_SEND_KINDS = (FaultKind.CONN_DROP, FaultKind.LINE_DELAY)

#: Garbage menu: ill-formed, ill-timed, empty, and oversized — one line
#: per ERR path a session can take (verb / proto / state / toobig).
_GARBAGE = (
    "%% chaos noise: not a protocol line %%",
    "BOGUS 1 2 3",
    "REDY",
    "",
    "X" * (MAX_LINE_BYTES + 16),
)


@dataclass(frozen=True)
class ChaosConfig:
    """One reproducible chaos schedule.

    ``fault_rate`` is the per-line probability of injecting a fault while
    the ``max_faults`` budget lasts; once the budget is spent the
    transport turns transparent, which is what lets convergence tests
    terminate.  ``delay_s`` bounds the ``line-delay`` sleep.
    """

    seed: int = 0
    fault_rate: float = 0.1
    max_faults: int = 10
    delay_s: float = 0.02


@dataclass
class _ChaosEvent:
    """One injected fault, for the chaos log artifact."""

    op: int
    direction: str
    kind: str
    detail: str = ""

    def to_doc(self) -> dict:
        return {"op": self.op, "direction": self.direction,
                "kind": self.kind, "detail": self.detail}


class ChaosPlan:
    """Seeded fault schedule shared across a client's reconnects.

    Thread-safe: the server handler and the test's client thread may both
    consult the plan.  Draws come from a dedicated
    :class:`~repro.util.rng.RngStreams` stream (detlint DET003-clean).
    """

    def __init__(self, config: ChaosConfig):
        self.config = config
        self._lock = threading.Lock()
        self._rng = RngStreams(config.seed).stream("chaos-transport")
        self.ops = 0
        self.injected = 0
        self.events: list[_ChaosEvent] = []
        self._menus = {}
        for direction, kinds in (("recv", _RECV_KINDS), ("send", _SEND_KINDS)):
            weights = [TRANSPORT_FAULT_SPECS[k].weight for k in kinds]
            total = sum(weights)
            self._menus[direction] = (kinds, [w / total for w in weights])

    def draw(self, direction: str) -> FaultKind | None:
        """Decide whether (and how) to perturb the next line."""
        with self._lock:
            self.ops += 1
            if self.injected >= self.config.max_faults:
                return None
            if float(self._rng.random()) >= self.config.fault_rate:
                return None
            kinds, probs = self._menus[direction]
            kind = kinds[int(self._rng.choice(len(kinds), p=probs))]
            self.injected += 1
            self.events.append(
                _ChaosEvent(op=self.ops, direction=direction,
                            kind=kind.value))
            return kind

    def pick(self, n: int) -> int:
        """Deterministic index draw (garbage menu, split point, ...)."""
        with self._lock:
            return int(self._rng.integers(n))

    def annotate(self, detail: str) -> None:
        """Attach human-readable detail to the most recent event."""
        with self._lock:
            if self.events:
                self.events[-1].detail = detail

    def log_docs(self) -> list[dict]:
        """The event log as JSON-ready documents (the CI artifact body)."""
        with self._lock:
            return [event.to_doc() for event in self.events]


class ChaosTransport(Transport):
    """Wrap ``inner`` and perturb its line stream per the plan.

    Wrap the *client's* transport to attack both directions of one
    conversation: recv-side faults corrupt what the client hears, and
    send-side faults tear what it says.  One instance per connection;
    the plan persists across reconnects.
    """

    def __init__(self, inner: Transport, plan: ChaosPlan):
        self.inner = inner
        self.plan = plan
        #: Lines already materialized by split/garbage/dup faults.
        self._pending: deque[str] = deque()

    def recv_line(self) -> str:
        if self._pending:
            return self._pending.popleft()
        line = self.inner.recv_line()
        kind = self.plan.draw("recv")
        if kind is None:
            return line
        if kind is FaultKind.CONN_DROP:
            self.plan.annotate("closed while a line was in flight")
            self.inner.close()
            raise SessionClosed("chaos: connection dropped")
        if kind is FaultKind.LINE_GARBAGE:
            garbage = _GARBAGE[self.plan.pick(len(_GARBAGE))]
            self.plan.annotate(f"{len(garbage)}B of noise before the line")
            self._pending.append(line)
            return garbage
        if kind is FaultKind.LINE_SPLIT:
            cut = max(1, len(line) // 2)
            self.plan.annotate(f"line split at byte {cut}")
            self._pending.append(line[cut:])
            return line[:cut]
        if kind is FaultKind.LINE_DUP:
            self.plan.annotate("line delivered twice")
            self._pending.append(line)
            return line
        self.plan.annotate(f"delivery delayed {self.plan.config.delay_s}s")
        time.sleep(self.plan.config.delay_s)
        return line

    def send_line(self, line: str) -> None:
        kind = self.plan.draw("send")
        if kind is FaultKind.CONN_DROP:
            # Torn write: a prefix with no newline, then the connection
            # dies.  The peer's framing buffer discards the tail at EOF.
            cut = max(1, len(line) // 2)
            self.plan.annotate(f"torn after byte {cut} of {len(line)}")
            try:
                self.inner.send_raw(line[:cut])
            except (SessionClosed, AttributeError):
                pass  # already dead, or a transport with no raw seam
            self.inner.close()
            raise SessionClosed("chaos: connection dropped mid-send")
        if kind is FaultKind.LINE_DELAY:
            self.plan.annotate(f"send delayed {self.plan.config.delay_s}s")
            time.sleep(self.plan.config.delay_s)
        self.inner.send_line(line)

    def flush(self) -> None:
        self.inner.flush()

    def close(self) -> None:
        self.inner.close()
