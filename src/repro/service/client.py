"""The bundled reference client: the paper's policy over the wire.

This client speaks *only* the line protocol — it never imports simulator
internals, and its scheduling arithmetic is self-contained, so it doubles
as executable documentation for a client in any language.  It mirrors
:class:`~repro.scheduling.policies.DefaultStrategy` exactly:

* fetch the policy knobs once (``GETS policy``);
* for every ``TICK``, walk the ``JOBN`` cells **in presentation order**:
  skip hardware cells during peak hours, skip cells whose site already
  carries the concurrency cap (tick-start count from the JOBN line plus
  this round's own launches), ``DEFR`` cells whose resources do not fit,
  ``SCHD`` the rest (best fit is trivial here: the cell pins its target
  cluster/site, so fitting equals launching — the ds-sim client's
  first-fit-capable loop reduces to the availability test);
* ``REDY`` when the round is decided.

Following presentation order is the client half of the determinism
contract; the server half freezes simulated time during the round.  The
resulting report is byte-identical to an in-process run at the same seed
(``fetch_report`` checks the sha256 the server advertises).

Resilience: :meth:`run_scenario` survives a dying connection.  The run
token from ``OK run <token>`` is captured before the first tick; any wire
failure mid-run abandons the socket, backs off (capped exponential with
*seeded* jitter — no ``random`` module, detlint DET003-clean), reconnects
and sends ``RESM <token>``.  The server replays the committed decision
log and the client renegotiates the rest — deterministically, so the
recovered report is byte-identical to an undisturbed run.  Explicit
server verdicts (``ERR arg`` / ``ERR run``) are not wire damage and fail
fast; everything else is retried up to ``retries`` times.
"""

from __future__ import annotations

import hashlib
import json
import socket
import time
from typing import Callable, Optional

from .protocol import (PROTOCOL_VERSION, Message, ProtocolError, decode, encode,
                       parse_time_arg)
from .session import SessionClosed, SocketTransport, Transport

__all__ = ["ReferenceClient", "ClientError", "ServerError", "ConnectionLost"]

_DAY = 86400.0
_HOUR = 3600.0
#: t=0 is Wednesday 2017-02-01 (mirrors repro.util.simclock).
_EPOCH_WEEKDAY = 2


def _is_peak_hours(t: float) -> bool:
    """Self-contained mirror of ``repro.util.simclock.is_peak_hours``."""
    dow = (int(t // _DAY) + _EPOCH_WEEKDAY) % 7
    hod = (t % _DAY) / _HOUR
    return dow < 5 and 9.0 <= hod < 19.0


class ClientError(Exception):
    """The conversation went wrong (base for all client failures)."""


class ServerError(ClientError):
    """The server answered ``ERR``; ``code`` is its first argument."""

    def __init__(self, args: tuple):
        super().__init__(" ".join(args))
        self.code = args[0] if args else "?"


class ConnectionLost(ClientError):
    """The connection died (EOF, reset, timeout): resumable wire damage."""


#: Failures worth a reconnect: dead sockets, torn/garbled lines (which
#: surface as codec errors or shifted message streams), and ill-timed
#: server answers.  Explicit ``ERR`` verdicts are judged separately by
#: their code.  ``ValueError``/``IndexError``/``KeyError`` are how a
#: *truncated-but-parseable* line fails once its arguments are consumed.
_WIRE_DAMAGE = (OSError, ProtocolError, ClientError, ValueError,
                IndexError, KeyError, TypeError)


class _Job:
    """One JOBN line, parsed."""

    __slots__ = ("cell", "kind", "site", "cluster", "need", "site_inflight",
                 "alive", "free", "runs", "blocked")

    def __init__(self, args: tuple):
        (self.cell, self.kind, self.site, cluster, self.need,
         site_inflight, alive, free, runs, blocked) = args
        self.cluster = None if cluster == "-" else cluster
        self.site_inflight = int(site_inflight)
        self.alive = int(alive)
        self.free = int(free)
        self.runs = int(runs)
        self.blocked = int(blocked)

    def fits(self) -> bool:
        if self.need == "0":
            return True
        if self.need == "ALL":
            return self.alive > 0 and self.free == self.alive
        return self.free >= int(self.need)


class _RunProgress:
    """Cross-attempt state of one :meth:`run_scenario` call."""

    __slots__ = ("token", "done", "completions", "ticks")

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.token: Optional[str] = None
        self.done = False
        #: Approximate under resume (aborted rounds may double-count);
        #: ``ticks`` is exact — the server reports it on DONE.
        self.completions = 0
        self.ticks = 0


class ReferenceClient:
    """Drive campaigns over a socket; context-manager friendly.

    ``retries``/``backoff_base_s``/``backoff_cap_s`` govern mid-run
    recovery: each reconnect waits ``min(cap, base·2^(attempt-1))``
    scaled by a deterministic jitter in [0.5, 1.0] derived from
    ``backoff_seed`` — two clients with different seeds desynchronize
    their retry storms, yet every run of the same client is reproducible.

    ``transport_wrap`` (if given) wraps every connection's transport —
    the seam the chaos convergence suite uses to inject faults.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 name: str = "refclient", timeout_s: float = 300.0,
                 retries: int = 8, backoff_base_s: float = 0.05,
                 backoff_cap_s: float = 2.0, backoff_seed: int = 0,
                 transport_wrap: Optional[
                     Callable[[Transport], Transport]] = None):
        self.host = host
        self.port = port
        self.name = name
        self.timeout_s = timeout_s
        self.retries = retries
        self.backoff_base_s = backoff_base_s
        self.backoff_cap_s = backoff_cap_s
        self.backoff_seed = backoff_seed
        self._wrap = transport_wrap
        self._transport: Optional[Transport] = None
        self._closed = False
        self.policy: Optional[dict] = None
        self._connect_retrying()

    # -- wire plumbing ---------------------------------------------------------

    def _connect_retrying(self) -> None:
        """Bounded-retry first connect: chaos can kill even the HELO."""
        for attempt in range(self.retries + 1):
            try:
                self._connect()
                return
            except _WIRE_DAMAGE as exc:
                self._abandon()
                if attempt >= self.retries:
                    raise ClientError(
                        f"could not establish a session in "
                        f"{self.retries + 1} attempts "
                        f"(last failure: {exc})") from exc
                time.sleep(self._backoff_delay(attempt + 1))

    def _connect(self) -> None:
        sock = socket.create_connection((self.host, self.port),
                                        timeout=self.timeout_s)
        transport: Transport = SocketTransport(
            sock, recv_deadline_s=self.timeout_s)
        if self._wrap is not None:
            transport = self._wrap(transport)
        self._transport = transport
        self._send("HELO", PROTOCOL_VERSION, self.name)
        self._expect("OK")

    def _abandon(self) -> None:
        """Drop the connection without ceremony (the server's session
        EOFs, which is exactly what flips a run record to resumable)."""
        transport, self._transport = self._transport, None
        if transport is not None:
            transport.close()

    def _send(self, verb: str, *args: object) -> None:
        if self._transport is None:
            raise ConnectionLost("not connected")
        try:
            self._transport.send_line(encode(verb, *args))
        except SessionClosed as exc:
            raise ConnectionLost(str(exc)) from None

    def _raw_line(self) -> str:
        if self._transport is None:
            raise ConnectionLost("not connected")
        try:
            return self._transport.recv_line()
        except SessionClosed as exc:
            raise ConnectionLost(str(exc)) from None

    def _recv(self) -> Message:
        while True:
            msg = decode(self._raw_line())
            if msg.verb == "PING":
                continue  # heartbeat: liveness only, never answered
            return msg

    def _expect(self, verb: str) -> Message:
        msg = self._recv()
        if msg.verb == "ERR":
            raise ServerError(msg.args)
        if msg.verb != verb:
            raise ClientError(f"expected {verb}, got {msg.verb}")
        return msg

    def _read_data_block(self) -> list[str]:
        header = self._expect("DATA")
        count = int(header.args[0])
        lines = [self._raw_line() for _ in range(count)]
        self._expect(".")
        return lines

    def _backoff_delay(self, attempt: int) -> float:
        """Capped exponential backoff with deterministic jitter."""
        raw = min(self.backoff_cap_s,
                  self.backoff_base_s * 2 ** max(0, attempt - 1))
        digest = hashlib.sha256(
            f"{self.backoff_seed}:{self.name}:{attempt}".encode()).digest()
        return raw * (0.5 + 0.5 * digest[0] / 255.0)

    # -- the scheduling loop ---------------------------------------------------

    def run_scenario(self, scenario: str, seed: int = 0,
                     months: Optional[float] = None) -> dict:
        """Drive one campaign; returns ``{"sha256":…, "report":…, …}``.

        Survives connection loss: bounded reconnect attempts, each
        resuming via ``RESM`` (or restarting the deterministic run when
        no usable token survived).
        """
        state = _RunProgress()
        for attempt in range(self.retries + 1):
            try:
                return self._attempt_run(scenario, seed, months, state)
            except ServerError as exc:
                # An explicit verdict on a well-formed request fails the
                # same way every retry: unknown scenario / bad seed
                # ("arg") or a deterministic campaign failure ("run").
                if exc.code in ("arg", "run"):
                    raise
                failure: Exception = exc
            except _WIRE_DAMAGE as exc:
                failure = exc
            if attempt >= self.retries:
                raise ClientError(
                    f"run did not survive {self.retries} reconnects "
                    f"(last failure: {failure})") from failure
            self._abandon()
            time.sleep(self._backoff_delay(attempt + 1))
        raise AssertionError("unreachable")

    def _attempt_run(self, scenario: str, seed: int,
                     months: Optional[float], state: _RunProgress) -> dict:
        """One connection's worth of progress on the run."""
        if self._transport is None:
            self._connect()
        if state.done and state.token is None:
            # Finished, but the report fetch needs a token on a fresh
            # connection and none survived: re-run (deterministic, so
            # the report is identical).
            state.reset()
        if not state.done:
            if state.token is None:
                self._send("RUN", scenario, seed,
                           repr(float(months)) if months is not None else "-")
                ok = self._expect("OK")
                if len(ok.args) >= 2 and ok.args[0] == "run":
                    state.token = ok.args[1]
            else:
                self._send("RESM", state.token)
                try:
                    self._expect("OK")
                except ServerError as exc:
                    if exc.code == "run":
                        # The server never issued this token — it was
                        # corrupted in flight.  Start the run over.
                        state.reset()
                        raise ClientError(
                            f"stale run token: {exc}") from exc
                    raise
            self._run_loop(state)
        try:
            sha, report = self.fetch_report(state.token)
        except ServerError as exc:
            if exc.code == "run":
                state.reset()  # corrupted token: re-run from scratch
                raise ClientError(f"stale run token: {exc}") from exc
            raise
        return {"scenario": scenario, "seed": seed, "months": months,
                "ticks": state.ticks, "completions": state.completions,
                "sha256": sha, "report": report}

    def _run_loop(self, state: _RunProgress) -> None:
        """Negotiate ticks until DONE (one connection's attempt)."""
        while True:
            msg = self._recv()
            if msg.verb == "TICK":
                state.completions += self._round(msg)
            elif msg.verb == "DONE":
                state.done = True
                for arg in msg.args:
                    if arg.startswith("ticks="):
                        state.ticks = int(arg[len("ticks="):])
                return
            elif msg.verb == "ERR":
                raise ServerError(msg.args)
            else:
                raise ClientError(f"unexpected {msg.verb} during run")

    def _round(self, tick: Message) -> int:
        now = parse_time_arg(tick.args[0])
        n_jcpl, n_jobn = int(tick.args[1]), int(tick.args[2])
        for _ in range(n_jcpl):
            self._expect("JCPL")
        jobs = [_Job(self._expect("JOBN").args) for _ in range(n_jobn)]
        if self.policy is None:
            self._send("GETS", "policy")
            self.policy = json.loads(self._read_data_block()[0])
        launched: dict[str, int] = {}  # this round's own launches per site
        sent = 0
        for job in jobs:
            action = self._decide(now, job, launched)
            if action is not None:
                self._send(action, job.cell)
                sent += 1
        self._send("REDY")
        for _ in range(sent + 1):  # pipelined: one OK per decision + REDY's
            self._expect("OK")
        return n_jcpl

    def _decide(self, now: float, job: _Job,
                launched: dict) -> Optional[str]:
        """DefaultStrategy, reconstructed from wire data alone."""
        policy = self.policy
        if (job.kind == "hardware"
                and policy["avoid_peak_hours_for_hardware"]
                and _is_peak_hours(now)):
            return None  # calendar gate: retry next tick, no backoff
        if (job.site_inflight + launched.get(job.site, 0)
                >= policy["max_concurrent_per_site"]):
            return None
        if policy["check_resources_first"] and not job.fits():
            return "DEFR"
        launched[job.site] = launched.get(job.site, 0) + 1
        return "SCHD"

    # -- results + campaigns ---------------------------------------------------

    def fetch_report(self, token: Optional[str] = None) -> tuple[str, dict]:
        """RPRT: the last (or ``token``'s) report, hash-verified."""
        if token is not None:
            self._send("RPRT", token)
        else:
            self._send("RPRT")
        advertised = self._expect("RPRT").args[0]
        body = self._read_data_block()[0]
        digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
        if digest != advertised:
            raise ClientError(
                f"report hash mismatch: server said {advertised}, "
                f"body hashes to {digest}")
        return digest, json.loads(body)

    def submit_campaign(self, scenarios: list, seeds: list,
                        months: Optional[float] = None,
                        workers: int = 1) -> list[tuple]:
        """SUBM a matrix; returns ``(scenario, seed, status)`` per cell."""
        doc = {"scenarios": scenarios, "seeds": seeds, "workers": workers}
        if months is not None:
            doc["months"] = months
        self._send("SUBM", json.dumps(doc))
        cells = []
        while True:
            msg = self._recv()
            if msg.verb == "CELL":
                scenario, seed, status, _, _ = msg.args
                cells.append((scenario, int(seed), status))
            elif msg.verb == "DONE":
                return cells
            elif msg.verb == "ERR":
                raise ServerError(msg.args)
            else:
                raise ClientError(f"unexpected {msg.verb} during SUBM")

    def compare(self, baseline: str) -> dict:
        """CMPR: per-metric deltas of stored scenarios vs a baseline."""
        self._send("CMPR", baseline)
        return json.loads(self._read_data_block()[0])

    def close(self) -> None:
        """Idempotent, exception-safe teardown: QUIT is best-effort and
        a dead socket never raises out of here (or ``__exit__``)."""
        if self._closed:
            return
        self._closed = True
        transport, self._transport = self._transport, None
        if transport is None:
            return
        try:
            # Cap the farewell: a wedged server must not stall close().
            inner = getattr(transport, "inner", transport)
            if hasattr(inner, "recv_deadline_s"):
                inner.recv_deadline_s = 2.0
            transport.send_line(encode("QUIT"))
            transport.recv_line()  # the OK bye, if the server is alive
        except (OSError, SessionClosed, ClientError, ProtocolError):
            pass
        finally:
            transport.close()

    def __enter__(self) -> "ReferenceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
