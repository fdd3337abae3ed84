"""Run tokens and replayable decision logs: the ``RESM`` machinery.

Every ``RUN`` is issued a token (``OK run <token>``) and, while it
executes, the session records each ``REDY``-committed tick as the ordered
list of ``(cell-id, action)`` decisions the client sent.  If the
connection dies mid-run, the record flips to ``disconnected`` and a
reconnecting client can send ``RESM <token>``: the server re-executes the
scenario from scratch — cheap, deterministic, and state-free — silently
replaying the recorded decision log until it reaches the tick where the
old connection died, then hands control back to the client for the rest.

Only *committed* ticks are replayed.  Decisions of a tick that never saw
its ``REDY`` died with the aborted simulation and are renegotiated — the
client is expected to be deterministic given identical ``JOBN`` data (the
reference client is), which is exactly the determinism contract the
protocol already imposes.

The registry is shared across a service's sessions and bounded: finished
and abandoned runs are evicted oldest-first once :data:`MAX_RECORDS` is
exceeded, so a long-lived server cannot leak decision logs.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Optional

__all__ = ["RunRecord", "RunRegistry", "MAX_RECORDS"]

#: Registry size bound; evicting a live run is impossible (attached runs
#: are never evicted), so this only trims finished/abandoned histories.
MAX_RECORDS = 256

#: How long ``RESM`` waits for the old session of a run to notice its
#: dropped socket and detach.  A reconnecting client can beat the old
#: session's reaper, most of all on a loaded host; refusing at once would
#: burn a retry on a third connection.
ATTACH_WAIT_S = 2.0


@dataclass
class RunRecord:
    """One issued run token and its replayable decision log."""

    token: str
    scenario: str
    seed: int
    months: Optional[float]
    #: running | disconnected | done | failed
    status: str = "running"
    #: One entry per committed tick: the ordered (cell-id, action)
    #: decisions of that tick ("SCHD" / "DEFR"); ticks with no due cells
    #: are elided by the strategy and therefore never appear here.
    ticks: list[list[tuple[str, str]]] = field(default_factory=list)
    #: True while a session is executing this run (attach guard).
    attached: bool = True
    #: Set once the run completes, so ``RPRT <token>`` can recover the
    #: report from a *fresh* connection (the old one may have died in
    #: the window between DONE and the report fetch).
    report: Optional[object] = None


class RunRegistry:
    """Thread-safe token → :class:`RunRecord` map with LRU-ish eviction."""

    def __init__(self, max_records: int = MAX_RECORDS):
        self._lock = threading.Lock()
        #: Notified by :meth:`detach`, so :meth:`attach` can wait out the
        #: old session of a run it is asked to resume.
        self._detached = threading.Condition(self._lock)
        self._records: dict[str, RunRecord] = {}
        self._next = 1
        self.max_records = max_records

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def create(self, scenario: str, seed: int,
               months: Optional[float]) -> RunRecord:
        with self._lock:
            token = f"run-{self._next}"
            self._next += 1
            record = RunRecord(token=token, scenario=scenario, seed=seed,
                               months=months)
            self._records[token] = record
            self._evict_locked()
            return record

    def get(self, token: str) -> Optional[RunRecord]:
        with self._lock:
            return self._records.get(token)

    def attach(self, token: str) -> RunRecord:
        """Claim a disconnected run for resumption.

        A run still attached to a session is waited for, up to
        :data:`ATTACH_WAIT_S`.  Raises ``KeyError`` for an unknown token
        and ``ValueError`` when the run is not resumable (still attached
        after the wait, finished, or failed).
        """
        with self._lock:
            record = self._records[token]  # KeyError -> ERR run
            self._detached.wait_for(lambda: not record.attached,
                                    timeout=ATTACH_WAIT_S)
            if record.attached:
                raise ValueError(f"run {token} is still attached to a "
                                 "session (old connection not yet reaped)")
            if record.status != "disconnected":
                raise ValueError(f"run {token} already {record.status}; "
                                 "only disconnected runs resume")
            record.attached = True
            record.status = "running"
            return record

    def detach(self, record: RunRecord, status: str) -> None:
        """Release a run with its final (or resumable) status."""
        with self._lock:
            record.attached = False
            record.status = status
            self._detached.notify_all()

    def _evict_locked(self) -> None:
        if len(self._records) <= self.max_records:
            return
        # dicts preserve insertion order: drop the oldest evictable runs.
        for token, record in list(self._records.items()):
            if len(self._records) <= self.max_records:
                break
            if not record.attached:
                del self._records[token]
