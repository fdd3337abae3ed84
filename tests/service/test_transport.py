"""SocketTransport over a real socket pair: write coalescing, the flush
points a session relies on, the torn-write seam and the peer-death
deadlines."""

import json
import socket
import threading
import time
from types import SimpleNamespace

import pytest

from repro.service import Session
from repro.service.protocol import encode
from repro.service.session import SessionClosed, SocketTransport
from test_session import HELO


class CountingSocket:
    """Socket proxy that records every ``sendall`` payload."""

    def __init__(self, sock):
        self.sock = sock
        self.writes = []

    def sendall(self, data):
        self.writes.append(bytes(data))
        return self.sock.sendall(data)

    def __getattr__(self, name):
        return getattr(self.sock, name)


class BlockingCampaigns:
    """A 2-cell matrix that stalls after cell 1 until the test has read
    that cell's CELL line (or 5 s pass)."""

    def __init__(self):
        self.first_read = threading.Event()
        self.streamed = None

    def run_matrix(self, doc, on_cell):
        runs = [SimpleNamespace(scenario="tiny-smoke", seed=seed, ok=True)
                for seed in (0, 1)]
        on_cell(runs[0], False, 1, 2)
        self.streamed = self.first_read.wait(5.0)
        on_cell(runs[1], True, 2, 2)
        return runs


def serve_in_thread(transport, campaigns=None):
    thread = threading.Thread(
        target=Session(transport, campaigns=campaigns).serve, daemon=True)
    thread.start()
    return thread


def read_line(reader):
    line = reader.readline()
    assert line.endswith(b"\n"), f"stream ended: {line!r}"
    return line


def test_decision_round_leaves_in_one_write():
    server_sock, peer = socket.socketpair()
    counting = CountingSocket(server_sock)
    thread = serve_in_thread(SocketTransport(counting, recv_deadline_s=30))
    peer.settimeout(30)
    peer.sendall(f"{HELO}\nRUN tiny-smoke 0 0.01\n".encode())
    reader = peer.makefile("rb")
    tick = read_line(reader)
    while not tick.startswith(b"TICK "):
        tick = read_line(reader)
    _, _, n_jcpl, n_jobn = tick.split()
    assert int(n_jobn) >= 2
    block = tick + b"".join(read_line(reader)
                            for _ in range(int(n_jcpl) + int(n_jobn)))
    # The server now blocks on our decisions: the whole round (TICK, its
    # JCPLs and every JOBN) must already have left, and in one write.
    [write] = [w for w in counting.writes if tick in w]
    assert write.endswith(block)
    reader.close()
    peer.close()  # EOF mid-round: the session unwinds
    thread.join(30)
    assert not thread.is_alive()


def test_cell_lines_stream_while_the_matrix_runs():
    server_sock, peer = socket.socketpair()
    campaigns = BlockingCampaigns()
    thread = serve_in_thread(SocketTransport(server_sock, recv_deadline_s=30),
                             campaigns)
    peer.settimeout(30)
    doc = {"scenarios": ["tiny-smoke"], "seeds": [0, 1]}
    peer.sendall(f"{HELO}\n{encode('SUBM', json.dumps(doc))}\n".encode())
    reader = peer.makefile("rb")
    assert read_line(reader).startswith(b"OK ")
    assert read_line(reader) == b"CELL tiny-smoke 0 ok 1 2\n"
    campaigns.first_read.set()
    assert read_line(reader) == b"CELL tiny-smoke 1 cached 2 2\n"
    assert read_line(reader) == b"DONE subm cells=2 ok=2 failed=0\n"
    assert campaigns.streamed, "CELL 1 only arrived after the stall"
    peer.sendall(b"QUIT\n")
    assert read_line(reader) == b"OK bye\n"
    thread.join(30)
    reader.close()
    peer.close()


def test_send_raw_delivers_buffered_lines_first():
    sock, peer = socket.socketpair()
    transport = SocketTransport(sock, recv_deadline_s=5)
    transport.send_line("OK one")
    transport.send_line("OK two")
    peer.setblocking(False)
    with pytest.raises(BlockingIOError):
        peer.recv(1)  # buffered: nothing on the wire yet
    transport.send_raw("TIC")
    transport.close()
    peer.setblocking(True)
    received = b""
    while chunk := peer.recv(4096):
        received += chunk
    assert received == b"OK one\nOK two\nTIC"
    peer.close()


def test_silent_peer_idles_every_interval_then_hits_the_deadline():
    sock, peer = socket.socketpair()
    transport = SocketTransport(sock, recv_deadline_s=1.0,
                                heartbeat_interval_s=0.25)
    idles = []
    transport.on_idle = lambda: idles.append(time.monotonic())
    start = time.monotonic()
    with pytest.raises(SessionClosed, match="recv deadline"):
        transport.recv_line()
    elapsed = time.monotonic() - start
    assert len(idles) == 3  # at 0.25, 0.5, 0.75; the 4th wait hits 1.0
    gaps = [b - a for a, b in zip([start] + idles, idles)]
    assert all(gap >= 0.2 for gap in gaps), gaps
    assert elapsed >= 0.95
    transport.close()
    peer.close()


def test_ping_to_a_dead_peer_fails_inside_the_same_recv():
    sock, peer = socket.socketpair()
    # The peer stops reading but never sends EOF: only a write notices.
    peer.shutdown(socket.SHUT_RD)
    transport = SocketTransport(sock, recv_deadline_s=30,
                                heartbeat_interval_s=0.1)
    session = Session(transport)
    pings = []

    def heartbeat():
        pings.append(time.monotonic())
        session.heartbeat()

    transport.on_idle = heartbeat
    start = time.monotonic()
    with pytest.raises(SessionClosed, match="send failed"):
        transport.recv_line()
    assert len(pings) == 1
    assert time.monotonic() - start < 5.0
    transport.close()
    peer.close()
