"""Single-process HTTP/1.1 load generator for ``repro serve``.

One thread drives at most two keep-alive connections through a
``selectors`` loop, so the client never needs more than one core and no
thread hand-offs blur its timing.

* :func:`closed_loop` — each connection sends its next request as soon as
  the previous response arrives (a fixed number of requests, or more until
  a given snapshot digest has answered a given number of them).
* :func:`open_loop` — requests are due on a fixed schedule, whatever the
  server does; latency is measured from the due time, so a stall is
  charged to every request it delays.  ``lag`` records how late the
  generator itself sent a request once a connection was free: large
  values mean the client, not the server, fell behind.

Every response must be a 200 whose body parses as JSON; a ``snapshot``
field, when present, must name one of the allowed export digests.
"""

from __future__ import annotations

import json
import selectors
import socket
import time
from dataclasses import dataclass, field
from typing import Callable, Collection, List, Optional, Sequence, Tuple

#: Keep-alive connections: the host has two cores and the server one event loop.
CONNECTIONS = 2
#: A batch that has not finished by then counts its unanswered requests failed.
DEADLINE_S = 60.0


@dataclass
class Sample:
    route: str
    due: float
    sent: float
    done: float
    ok: bool
    lag: float = 0.0
    #: The ``snapshot`` digest the response was answered from.
    digest: Optional[str] = None


@dataclass
class Outcome:
    samples: List[Sample] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    wall_s: float = 0.0

    @property
    def failed(self) -> int:
        return sum(1 for s in self.samples if not s.ok)


def route_of(target: str) -> str:
    return target.split("?")[0].strip("/").split("/")[0]


class _Conn:
    def __init__(self, port: int) -> None:
        self.port = port
        self.sock: Optional[socket.socket] = None
        self.buf = bytearray()
        #: (request index, due, sent, lag) of the request in flight.
        self.pending: Optional[Tuple[int, float, float, float]] = None
        self.free_at = 0.0

    def open(self) -> None:
        self.sock = socket.create_connection(("127.0.0.1", self.port), timeout=10)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)
        self.buf.clear()

    def close(self) -> None:
        if self.sock is not None:
            self.sock.close()
            self.sock = None

    def response(self):
        """(status, body) once a whole response is buffered, else None."""
        end = self.buf.find(b"\r\n\r\n")
        if end < 0:
            return None
        head = bytes(self.buf[:end]).decode("latin-1").split("\r\n")
        length = 0
        for line in head[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        total = end + 4 + length
        if len(self.buf) < total:
            return None
        body = bytes(self.buf[end + 4 : total])
        del self.buf[:total]
        return int(head[0].split()[1]), body


def _check(status: int, body: bytes, digests: Collection[str]):
    """(error or None, the response's ``snapshot`` digest or None)."""
    if status != 200:
        return f"status {status}", None
    try:
        payload = json.loads(body)
    except ValueError as exc:
        return f"bad JSON: {exc}", None
    digest = payload.get("snapshot") if isinstance(payload, dict) else None
    if digest is not None and digest not in digests:
        return f"unknown snapshot {digest}", digest
    return None, digest


def _drive(
    port: int,
    targets: Sequence[str],
    due: Optional[Sequence[float]],
    digests: Collection[str],
    on_sent: Optional[Callable[[int], None]] = None,
    until_digest: Optional[str] = None,
    tail: int = 0,
) -> Outcome:
    """Send ``targets`` in order (cycling through them again while
    ``until_digest`` has not yet answered ``tail`` requests)."""
    outcome = Outcome()
    requests = [f"GET {t} HTTP/1.1\r\nHost: bench\r\n\r\n".encode() for t in targets]
    conns = [_Conn(port) for _ in range(CONNECTIONS)]
    # select(2) takes microsecond timeouts; epoll rounds them up to whole
    # milliseconds, which would make the open loop send late.
    selector = selectors.SelectSelector()
    for conn in conns:
        conn.open()
        selector.register(conn.sock, selectors.EVENT_READ, conn)
    start = time.perf_counter()
    waiting = until_digest is not None  # for ``tail`` answers from that digest
    answered_by_it = 0
    nxt = 0
    completed = 0

    def more() -> bool:
        return nxt < len(targets) or waiting

    def finish(conn: _Conn, ok: bool, digest: Optional[str] = None) -> None:
        nonlocal completed, answered_by_it, waiting
        i, due_i, sent_i, lag_i = conn.pending
        done = time.perf_counter() - start
        outcome.samples.append(Sample(route_of(targets[i % len(targets)]), due_i,
                                      sent_i, done, ok, lag_i, digest))
        conn.pending = None
        conn.free_at = done
        completed += 1
        if waiting and digest == until_digest:
            answered_by_it += 1
            waiting = answered_by_it < tail

    try:
        while completed < nxt or more():
            now = time.perf_counter() - start
            if now > DEADLINE_S:
                for conn in conns:
                    if conn.pending is not None:
                        finish(conn, False)
                unsent = targets[nxt:]
                outcome.samples += [Sample(route_of(t), 0, 0, 0, False) for t in unsent]
                outcome.errors.append(
                    f"deadline: {len(unsent)} requests unsent"
                    + ("; the awaited snapshot never answered" if waiting else ""))
                break
            for conn in conns:
                if conn.pending is not None or not more():
                    continue
                target_due = due[nxt] if due is not None else max(now, conn.free_at)
                if target_due > now:
                    break
                conn.sock.send(requests[nxt % len(requests)])
                sent_now = time.perf_counter() - start
                conn.pending = (nxt, target_due, sent_now,
                                sent_now - max(target_due, conn.free_at))
                if on_sent is not None:
                    on_sent(nxt)
                nxt += 1
            idle = any(c.pending is None for c in conns)
            if idle and due is not None and nxt < len(targets):
                timeout = max(0.0, due[nxt] - (time.perf_counter() - start))
            else:
                timeout = 1.0
            for key, _ in selector.select(timeout):
                conn = key.data
                try:
                    chunk = conn.sock.recv(1 << 16)
                except (BlockingIOError, InterruptedError):
                    continue
                except OSError as exc:
                    chunk = b""
                    outcome.errors.append(repr(exc))
                if not chunk:
                    # The server closed the connection: fail the in-flight
                    # request and reconnect.
                    if conn.pending is not None:
                        target = targets[conn.pending[0] % len(targets)]
                        outcome.errors.append(f"{target}: connection closed")
                        finish(conn, False)
                    selector.unregister(conn.sock)
                    conn.close()
                    conn.open()
                    selector.register(conn.sock, selectors.EVENT_READ, conn)
                    continue
                conn.buf += chunk
                parsed = conn.response()
                if parsed is None:
                    continue
                error, digest = _check(parsed[0], parsed[1], digests)
                if error is not None:
                    target = targets[conn.pending[0] % len(targets)]
                    outcome.errors.append(f"{target}: {error}")
                finish(conn, error is None, digest)
    finally:
        outcome.wall_s = time.perf_counter() - start
        for conn in conns:
            selector.unregister(conn.sock)
            conn.close()
        selector.close()
    return outcome


def closed_loop(
    port: int,
    targets: Sequence[str],
    digests: Collection[str],
    on_sent: Optional[Callable[[int], None]] = None,
    until_digest: Optional[str] = None,
    tail: int = 0,
) -> Outcome:
    """Send ``targets`` back to back; with ``until_digest``, keep cycling
    through them until ``tail`` responses came from that snapshot."""
    return _drive(port, targets, None, digests, on_sent, until_digest, tail)


def open_loop(
    port: int,
    targets: Sequence[str],
    due: Sequence[float],
    digests: Collection[str],
) -> Outcome:
    return _drive(port, targets, due, digests)
