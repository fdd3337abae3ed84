"""Per-connection protocol session: state machine + transports.

One :class:`Session` serves one client connection.  Its lifecycle::

    AWAIT_HELO --HELO--> IDLE --RUN/SUBM--> (streaming) --> IDLE --QUIT

``RUN`` is the interesting state: the session executes a full campaign
*inside* the handler, and the simulated clock only advances between
protocol exchanges — every scheduler tick with due cells blocks on the
socket until the client has decided each one (``SCHD``/``DEFR``) and sent
``REDY``.  That synchronous bridge is what makes a remote scheduler
byte-identical to the in-process one: no sim event fires while a decision
is pending, and decisions apply in arrival order.

Malformed input never kills the server: codec errors and ill-timed verbs
are answered with ``ERR <code> <reason>`` and the session keeps reading.
Only EOF/timeouts (:class:`SessionClosed`) and ``QUIT`` end it.

Resilience: every ``RUN`` is issued a token and its committed ticks are
recorded in a :class:`~repro.service.resume.RunRegistry`; a client that
lost its connection mid-run reconnects and sends ``RESM <token>`` to
resume deterministically (see :mod:`repro.service.resume`).  While a
session waits on a silent peer it sends ``PING`` heartbeats, and a peer
that stays silent past the recv deadline frees the session.
"""

from __future__ import annotations

import hashlib
import json
import socket
from dataclasses import asdict
from typing import Callable, Optional

from .. import scenarios
from ..analysis.compare import compare_runs
from ..core.campaign import run_scenario
from ..scheduling.policies import get_strategy
from ..util.serialization import canonical_json, encode_dataclass
from .policy import ExternalProtocolStrategy
from .protocol import (
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    Message,
    ProtocolError,
    decode,
    encode,
    format_time_arg,
)
from .resume import RunRecord, RunRegistry

__all__ = ["Session", "SessionClosed", "Transport", "SocketTransport"]


class SessionClosed(Exception):
    """The peer went away (EOF, timeout, or QUIT): unwind silently."""


class Transport:
    """One line in, one line out.  Sessions never touch sockets directly,
    so tests drive the full state machine through a scripted transport.

    A transport may hold sent lines back until it next waits for input;
    :meth:`flush` pushes them out at once.  Only the server session
    calls it (progress and heartbeat lines that must not wait)."""

    def send_line(self, line: str) -> None:
        raise NotImplementedError

    def recv_line(self) -> str:
        """Next line without its newline; raises SessionClosed on EOF."""
        raise NotImplementedError

    def flush(self) -> None:
        """Push buffered output to the peer now (no-op when unbuffered)."""

    def close(self) -> None:
        pass


class SocketTransport(Transport):
    """Buffered line framing over a TCP socket, with peer-death deadlines.

    The framing buffer is explicit (no ``makefile`` object), so a socket
    timeout mid-line never loses the partial bytes already received —
    the next ``recv_line`` picks up exactly where the wire left off.

    Output is coalesced: ``send_line`` only appends to an output buffer,
    and one ``sendall`` writes it out when ``recv_line`` is about to
    block (no complete line already received), on :meth:`flush`, before
    :meth:`send_raw`, on :meth:`close`, or once the buffer reaches
    ``MAX_LINE_BYTES``.  A whole protocol round thus leaves in one write
    instead of waking the peer once per line; the bytes on the wire are
    unchanged.

    ``recv_deadline_s`` bounds how long one ``recv_line`` waits in total
    before declaring the peer dead (:class:`SessionClosed` frees the
    session).  ``heartbeat_interval_s`` wakes the :attr:`on_idle` hook
    while waiting, so the session can probe a silent peer with ``PING``
    — a broken connection then fails the *send* immediately instead of
    wedging in ``recv`` until the deadline.
    """

    def __init__(self, sock: socket.socket,
                 recv_deadline_s: Optional[float] = None,
                 heartbeat_interval_s: Optional[float] = None):
        self.sock = sock
        self.recv_deadline_s = recv_deadline_s
        self.heartbeat_interval_s = heartbeat_interval_s
        #: Idle probe, fired after each silent heartbeat interval; may
        #: raise :class:`SessionClosed` to drop a dead peer.
        self.on_idle: Optional[Callable[[], None]] = None
        try:
            # One write per protocol round, but Nagle would still hold a
            # round back while the peer delays its ACK of the last (~40ms).
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass  # non-TCP transports (unix sockets, socketpairs)
        self._buf = bytearray()
        self._out = bytearray()

    def send_line(self, line: str) -> None:
        self._out += line.encode("utf-8")
        self._out += b"\n"
        if len(self._out) >= MAX_LINE_BYTES:
            self.flush()

    def flush(self) -> None:
        if not self._out:
            return
        try:
            # The recv deadline doubles as the send deadline: a peer that
            # stops draining its socket is as dead as one that stops
            # talking.
            self.sock.settimeout(self.recv_deadline_s)
            self.sock.sendall(self._out)
        except OSError:
            raise SessionClosed("send failed") from None
        finally:
            self._out.clear()

    def send_raw(self, text: str) -> None:
        """Send bytes with *no* newline — the torn-write seam chaos
        testing uses to leave a half-line in the peer's framing buffer.
        Lines already buffered go out first."""
        self._out += text.encode("utf-8")
        self.flush()

    def recv_line(self) -> str:
        waited = 0.0
        while True:
            nl = self._buf.find(b"\n")
            if nl >= 0:
                raw = bytes(self._buf[:nl])
                del self._buf[:nl + 1]
                if len(raw) > MAX_LINE_BYTES:
                    raise ProtocolError(
                        "toobig", f"line exceeds {MAX_LINE_BYTES} bytes")
                return raw.decode("utf-8", errors="replace").rstrip("\r")
            if len(self._buf) > MAX_LINE_BYTES:
                # Poison flood with no newline in sight: report once,
                # then drop the peer (resynchronizing is guesswork).
                raise ProtocolError(
                    "toobig", f"line exceeds {MAX_LINE_BYTES} bytes")
            # About to block: whatever we said must reach the peer first.
            self.flush()
            interval = self.heartbeat_interval_s
            if interval is None or (self.recv_deadline_s is not None
                                    and self.recv_deadline_s < interval):
                interval = self.recv_deadline_s
            try:
                self.sock.settimeout(interval)
                chunk = self.sock.recv(65536)
            except socket.timeout:
                waited += interval or 0.0
                if (self.recv_deadline_s is not None
                        and waited >= self.recv_deadline_s):
                    raise SessionClosed(
                        f"peer silent for {waited:.0f}s "
                        "(recv deadline)") from None
                if self.on_idle is not None:
                    self.on_idle()
                continue
            except (OSError, ValueError):
                raise SessionClosed("recv failed") from None
            if not chunk:
                raise SessionClosed("EOF")
            self._buf += chunk

    def close(self) -> None:
        try:
            self.flush()
        except SessionClosed:
            pass  # the peer is gone; nothing left to deliver to
        try:
            self.sock.close()
        except OSError:
            pass


class _RunState:
    """Session state scoped to one RUN: JCPL buffer + GETS counters,
    plus the resume bookkeeping (decision record + replay cursor)."""

    __slots__ = ("oar_started", "oar_completed", "ticks", "decided",
                 "record", "replay", "replayed")

    def __init__(self, record: Optional[RunRecord] = None):
        self.oar_started = 0
        self.oar_completed = 0
        self.ticks = 0
        self.decided = 0
        self.record = record
        #: Committed ticks to re-apply silently before going interactive
        #: (a snapshot — the record keeps growing as new ticks commit).
        self.replay: list[list[tuple[str, str]]] = \
            list(record.ticks) if record is not None else []
        self.replayed = 0


class Session:
    """The protocol state machine for one connection."""

    def __init__(self, transport: Transport, campaigns=None,
                 server_name: str = "repro-sim",
                 runs: Optional[RunRegistry] = None):
        self.transport = transport
        self.campaigns = campaigns
        self.server_name = server_name
        #: Shared across a service's sessions so RESM works from a fresh
        #: connection; a private registry still allows same-session RESM.
        self.runs = runs if runs is not None else RunRegistry()
        self.greeted = False
        self._run: Optional[_RunState] = None
        self._last_report = None

    # -- plumbing --------------------------------------------------------------

    def _send(self, verb: str, *args: object) -> None:
        self.transport.send_line(encode(verb, *args))

    def heartbeat(self) -> None:
        """Idle probe: a PING the client ignores, but whose *send* fails
        fast on a dead connection (wired as the transport's on_idle)."""
        self._send("PING")
        self.transport.flush()

    def _err(self, exc: ProtocolError) -> None:
        self._send("ERR", exc.code, *exc.message.split())

    def _data_block(self, lines: list[str]) -> None:
        self._send("DATA", len(lines))
        for line in lines:
            self.transport.send_line(line)
        self._send(".")

    def _recv(self) -> Message:
        """Next well-formed message; malformed lines are ERRed in place."""
        while True:
            try:
                return decode(self.transport.recv_line())
            except ProtocolError as exc:
                self._err(exc)
                if exc.code == "toobig":
                    # Resynchronizing inside an oversized line is
                    # guesswork: report the dedicated code, then drop.
                    raise SessionClosed("oversized line") from None

    # -- main loop -------------------------------------------------------------

    def serve(self) -> None:
        """Serve until QUIT or disconnect.  Never raises on bad input."""
        try:
            while True:
                msg = self._recv()
                try:
                    if not self._dispatch(msg):
                        return
                except ProtocolError as exc:
                    self._err(exc)
        except SessionClosed:
            return
        finally:
            self.transport.close()

    def _dispatch(self, msg: Message) -> bool:
        verb = msg.verb
        if not self.greeted:
            if verb != "HELO":
                raise ProtocolError("state", "HELO first")
            return self._do_helo(msg)
        if verb == "HELO":
            raise ProtocolError("state", "already greeted")
        if verb == "QUIT":
            self._send("OK", "bye")
            return False
        if verb == "RUN":
            self._do_run(msg)
        elif verb == "RESM":
            self._do_resm(msg)
        elif verb == "SUBM":
            self._do_subm(msg)
        elif verb == "RPRT":
            self._do_rprt(msg)
        elif verb == "CMPR":
            self._do_cmpr(msg)
        elif verb in ("GETS", "SCHD", "DEFR", "REDY"):
            raise ProtocolError("state", f"{verb} only valid inside a run")
        else:  # a server->client verb echoed back at us
            raise ProtocolError("state", f"unexpected {verb}")
        return True

    def _do_helo(self, msg: Message) -> bool:
        if msg.args[0] != PROTOCOL_VERSION:
            raise ProtocolError(
                "proto", "version mismatch: server speaks "
                f"{PROTOCOL_VERSION}, client offered {msg.args[0]}")
        self.greeted = True
        self._send("OK", PROTOCOL_VERSION, self.server_name)
        return True

    # -- RUN: one remotely-scheduled campaign ----------------------------------

    def _do_run(self, msg: Message) -> None:
        name, seed_text, months_text = msg.args
        try:
            spec = scenarios.get(name)
        except KeyError:
            raise ProtocolError("arg", f"unknown scenario {name!r}") from None
        try:
            seed = int(seed_text)
        except ValueError:
            raise ProtocolError("arg", f"bad seed {seed_text!r}") from None
        months: Optional[float] = None
        if months_text != "-":
            try:
                months = float(months_text)
            except ValueError:
                raise ProtocolError("arg",
                                    f"bad months {months_text!r}") from None
            if not months > 0:
                raise ProtocolError("arg", "months must be positive")
        record = self.runs.create(name, seed, months)
        # The token travels before the first TICK so the client holds it
        # even if the very next exchange dies.
        self._send("OK", "run", record.token)
        self._execute_run(spec, seed, months, record)

    def _do_resm(self, msg: Message) -> None:
        token = msg.args[0]
        try:
            record = self.runs.attach(token)
        except KeyError:
            raise ProtocolError("run",
                                f"unknown run token {token!r}") from None
        except ValueError as exc:
            raise ProtocolError("state", str(exc)) from None
        try:
            spec = scenarios.get(record.scenario)
        except KeyError:
            self.runs.detach(record, "failed")
            raise ProtocolError(
                "arg", f"scenario {record.scenario!r} no longer "
                "registered") from None
        self._send("OK", "resume", token, f"replay={len(record.ticks)}")
        self._execute_run(spec, record.seed, record.months, record)

    def _execute_run(self, spec, seed: int, months: Optional[float],
                     record: RunRecord) -> None:
        """Run one (possibly resumed) campaign against this session.

        Resume is replay: the scenario re-executes from scratch (cheap
        and deterministic) while :meth:`decision_round` silently re-
        applies the committed decision log, then switches to interactive
        negotiation exactly where the previous connection died.
        """
        self._run = run = _RunState(record)
        local = get_strategy(spec.strategy)(spec.policy)

        def on_built(fw):
            fw.oar.on_job_start.append(lambda job: _count(run, "oar_started"))
            fw.oar.on_job_complete.append(
                lambda job: _count(run, "oar_completed"))

        try:
            _, report = run_scenario(
                spec, seed=seed, months=months, on_built=on_built,
                strategy=ExternalProtocolStrategy(local, self))
        except SessionClosed:
            # The peer died mid-run: keep the record resumable.
            self.runs.detach(record, "disconnected")
            raise
        except ProtocolError:
            self.runs.detach(record, "failed")
            raise
        except Exception as exc:  # a sim bug must not take the server down
            self.runs.detach(record, "failed")
            raise ProtocolError("run", f"campaign failed: {exc!r}") from exc
        finally:
            self._run = None
        self._last_report = report
        record.report = report
        self.runs.detach(record, "done")
        self._send("DONE", "run", spec.name, f"seed={seed}",
                   f"ticks={run.ticks}", f"decisions={run.decided}")

    def decision_round(self, view, due, completions) -> None:
        """One scheduler tick, negotiated over the wire.

        Called from inside the event kernel (via the strategy) whenever
        cells are due.  Sim time is frozen until the client sends REDY.
        """
        run = self._run
        assert run is not None
        run.ticks += 1
        if run.replayed < len(run.replay):
            self._replay_round(view, due, run)
            return
        now = view.now
        self._send("TICK", format_time_arg(now), len(completions), len(due))
        for (t, cell_id, status) in completions:
            self._send("JCPL", format_time_arg(t), cell_id, status)
        undecided = {}
        for cell in due:
            cid = view.cell_id(cell)
            undecided[str(cid)] = cell
            alive, free = view.availability(cell)
            self._send("JOBN", cid, cell.family.kind, cell.site,
                       cell.cluster if cell.cluster is not None else "-",
                       cell.family.nodes_needed, view.in_flight(cell.site),
                       alive, free, cell.runs, cell.blocked_attempts)
        decided: list[tuple[str, str]] = []
        while True:
            msg = self._recv()
            verb = msg.verb
            try:
                if verb == "REDY":
                    run.decided += len(due) - len(undecided)
                    if run.record is not None:
                        # Commit point: only REDY-complete ticks replay on
                        # RESM; a tick abandoned mid-round is renegotiated.
                        run.record.ticks.append(decided)
                    self._send("OK", "tick", "complete")
                    return
                if verb in ("SCHD", "DEFR"):
                    cell = undecided.pop(msg.args[0], None)
                    if cell is None:
                        raise ProtocolError(
                            "arg", f"cell {msg.args[0]} not due (or already "
                            "decided) this tick")
                    if verb == "SCHD":
                        view.launch(cell)
                    else:
                        view.defer(cell)
                    decided.append((msg.args[0], verb))
                    self._send("OK", verb.lower(), msg.args[0])
                elif verb == "GETS":
                    self._do_gets(msg, view)
                elif verb == "QUIT":
                    self._send("OK", "bye")
                    raise SessionClosed("client quit mid-run")
                else:
                    raise ProtocolError("state",
                                        f"{verb} not valid inside a tick")
            except ProtocolError as exc:
                self._err(exc)

    def _replay_round(self, view, due, run: _RunState) -> None:
        """Silently re-apply one committed tick of a resumed run.

        No wire traffic: the client only rejoins the conversation once
        the replay cursor catches up with where the old connection died.
        A mismatch between the recorded decisions and the re-simulated
        due set means the world diverged — impossible while scenarios are
        deterministic — and fails the run loudly rather than guessing.
        """
        decisions = run.replay[run.replayed]
        run.replayed += 1
        index = {str(view.cell_id(cell)): cell for cell in due}
        for cid, action in decisions:
            cell = index.pop(cid, None)
            if cell is None:
                raise ProtocolError(
                    "internal", f"resume replay desynchronized: cell {cid} "
                    "not due at the recorded tick")
            if action == "SCHD":
                view.launch(cell)
            else:
                view.defer(cell)
        run.decided += len(decisions)

    def _do_gets(self, msg: Message, view) -> None:
        what = msg.args[0]
        if what == "servers":
            self._data_block([f"{cluster} {site} {alive} {free}"
                              for (cluster, site, alive, free)
                              in view.cluster_states()])
        elif what == "jobs":
            run = self._run
            oar = view.scheduler.oar
            doc = {
                "running": len(oar.running_jobs()),
                "waiting": oar.waiting_count(),
                "oar_started": run.oar_started,
                "oar_completed": run.oar_completed,
                "builds_in_flight": sum(
                    1 for c in view.scheduler.cells if c.in_flight),
            }
            self._data_block([canonical_json(doc)])
        elif what == "policy":
            policy = view.scheduler.policy
            self._data_block([canonical_json(encode_dataclass(policy))])
        else:
            raise ProtocolError(
                "arg", f"GETS knows servers|jobs|policy, not {what!r}")

    # -- campaign service ------------------------------------------------------

    def _do_subm(self, msg: Message) -> None:
        if self.campaigns is None:
            raise ProtocolError("state", "no campaign service attached")
        try:
            doc = json.loads(msg.args[0])
        except ValueError:
            raise ProtocolError("arg", "SUBM payload is not JSON") from None

        def on_cell(run, cached, index, total):
            status = "cached" if cached else ("ok" if run.ok else "failed")
            self._send("CELL", run.scenario, run.seed, status, index, total)
            self.transport.flush()  # progress streams while the matrix runs

        try:
            runs = self.campaigns.run_matrix(doc, on_cell=on_cell)
        except (SessionClosed, ProtocolError):
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ProtocolError("arg", f"bad matrix: {exc}") from exc
        ok = sum(1 for r in runs if r.ok)
        self._send("DONE", "subm", f"cells={len(runs)}",
                   f"ok={ok}", f"failed={len(runs) - ok}")

    def _do_rprt(self, msg: Message) -> None:
        if msg.args and msg.args[0] == "store":
            if self.campaigns is None:
                raise ProtocolError("state", "no campaign service attached")
            docs = self.campaigns.stored_runs()
            self._send("RPRT", _sha256(canonical_json(docs)))
            self._data_block([canonical_json(doc) for doc in docs])
            return
        if msg.args:
            # ``RPRT <token>``: recover a finished run's report from any
            # connection — the one that ran it may have died between
            # DONE and the fetch.
            record = self.runs.get(msg.args[0])
            if record is None:
                raise ProtocolError("run",
                                    f"unknown run token {msg.args[0]!r}")
            if record.report is None:
                raise ProtocolError("state",
                                    f"run {record.token} has no report "
                                    f"(status {record.status})")
            report = record.report
        elif self._last_report is None:
            raise ProtocolError("state", "no report yet (RUN first)")
        else:
            report = self._last_report
        body = canonical_json(report.to_dict())
        self._send("RPRT", _sha256(body))
        self._data_block([body])

    def _do_cmpr(self, msg: Message) -> None:
        if self.campaigns is None:
            raise ProtocolError("state", "no campaign service attached")
        baseline = msg.args[0]
        runs = [r for r in self.campaigns.store.runs() if r.ok]
        try:
            deltas = compare_runs(runs, baseline=baseline)
        except (KeyError, ValueError) as exc:
            raise ProtocolError("arg", str(exc.args[0])) from None
        doc = {scenario: [asdict(d) for d in metric_deltas]
               for scenario, metric_deltas in deltas.items()}
        self._data_block([canonical_json(doc)])


def _count(run: _RunState, field: str) -> None:
    setattr(run, field, getattr(run, field) + 1)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
