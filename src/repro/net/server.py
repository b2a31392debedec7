"""Non-blocking TCP front-end for the serving tier.

A :class:`NetServer` owns one listening socket and a ``selectors`` loop;
each accepted connection gets its own read buffer (an incremental
:class:`~repro.net.protocol.FrameDecoder`) and write buffer, so partial
reads and partial writes are first-class — a frame may arrive in twenty
TCP segments and a 50 MB logits response may drain over many
writability events without ever blocking the loop.

The server *drives* its backend — any
:class:`~repro.serve.tier.ServeTier` in driven mode: every
:meth:`NetServer.poll` round does socket I/O, steps the backend,
harvests resolved futures into responses, enforces per-connection read
deadlines (slow-loris defense), and ticks the optional elastic
controller.  Run it inline (``poll()`` in your own loop — deterministic
tests thread a virtual ``now`` through), or threaded
(:meth:`~repro.serve.tier.ThreadDriven.start` / ``stop``).

Failure semantics at the trust boundary:

- a malformed frame poisons only its connection (typed
  :class:`~repro.net.protocol.ProtocolError`, counted, socket closed);
- a client disconnecting mid-request discards its pending responses
  without touching backend accounting;
- :meth:`close` drains gracefully — stop accepting, finish in-flight
  work, flush write buffers, then fail anything still unresolved with a
  clean ``server_closed`` error frame.
"""

from __future__ import annotations

import json
import selectors
import socket
import time
import traceback
from dataclasses import dataclass

import numpy as np

from ..obs.stats import StatBlock
from ..obs.trace import get_tracer
from ..serve.queue import (
    DeadlineExceededError,
    QueueFullError,
    ServeError,
    ServerClosedError,
)
from ..serve.tier import ThreadDriven
from .. import _clock
from .admission import AdmissionController, AdmissionError, QuotaExceededError
from .protocol import (
    FrameDecoder,
    Message,
    ProtocolError,
    encode_message,
    error_response,
    pong_response,
    result_response,
    stats_reply,
)

__all__ = ["NetServerStats", "NetServer"]

_BYTES = ("repro_net_bytes_total", "bytes over client sockets, by direction",
          "direction")


class NetServerStats(StatBlock):
    """Socket-tier counters + wire latency for one server lifetime.

    A :class:`~repro.obs.stats.StatBlock` over the ``repro_net_*_total``
    counters and ``repro_net_bytes_total{direction=in|out}``; the
    latency window is lock-guarded because clients' threads read
    snapshots while the serving loop appends.
    """

    PREFIX = "repro_net"
    COUNTERS = {
        "connections": "TCP connections accepted",
        "disconnects": "connections closed, any reason",
        "requests": "wire requests decoded",
        "responses": "wire responses sent (ok or error)",
        "rejected_quota": "requests rejected by a tenant's token bucket",
        "rejected_shed": "requests shed by priority-class watermark",
        "rejected_backpressure": "requests rejected by queue backpressure",
        "protocol_errors": "connections dropped for malformed frames",
        "read_timeouts": "connections dropped by the partial-frame deadline",
    }
    LABELED = {"bytes_in": (*_BYTES, "in"), "bytes_out": (*_BYTES, "out")}
    LATENCY = ("repro_net_request_latency_seconds",
               "decode-to-response latency per wire request")


@dataclass
class _Pending:
    """One submitted request awaiting its backend future."""

    request_id: int
    future: object
    kind: str
    tenant: str
    priority: str
    received_at: float
    trace: object = None


class _Connection:
    """Per-connection state: socket, frame decoder, buffers, liveness."""

    def __init__(self, sock: socket.socket, addr, now: float):
        self.sock = sock
        self.addr = addr
        self.decoder = FrameDecoder()
        self.outbuf = bytearray()
        self.pending: list[_Pending] = []
        self.last_recv = now
        self.closed = False


class NetServer(ThreadDriven):
    """Selectors-based TCP front-end feeding one serving backend.

    ``backend`` is any :class:`~repro.serve.tier.ServeTier` (an
    :class:`~repro.serve.InferenceServer`, a
    :class:`~repro.serve.ServingCluster`) run in *driven* mode — the net
    loop steps it; do not also ``start()`` the backend.  ``admission``
    (optional) meters tenants before any submit; ``elastic`` (optional,
    cluster backends) is ticked every poll.  ``port=0`` binds an
    ephemeral port; the bound address is ``self.address``.

    Not thread-safe: exactly one thread may drive :meth:`poll` (either
    yours, or the one :meth:`start` spawns).  Stats snapshots are safe
    from any thread.
    """

    def __init__(self, backend, *, host: str = "127.0.0.1", port: int = 0,
                 admission: AdmissionController | None = None,
                 elastic=None,
                 read_timeout_s: float = 30.0,
                 backlog: int = 128):
        if read_timeout_s <= 0:
            raise ValueError("read_timeout_s must be > 0")
        super().__init__()
        self.backend = backend
        self.admission = admission
        self.elastic = elastic
        self.read_timeout_s = read_timeout_s
        self.stats = NetServerStats()
        self._configs: dict[str, object] = {}  # config JSON → RunConfig
        self._conns: dict[socket.socket, _Connection] = {}
        self._closed = False
        self._listen = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listen.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listen.bind((host, port))
        self._listen.listen(backlog)
        self._listen.setblocking(False)
        #: The bound ``(host, port)`` — read this after ``port=0``.
        self.address = self._listen.getsockname()
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._listen, selectors.EVENT_READ,
                                data=None)

    # -- the loop ---------------------------------------------------------- #
    def poll(self, now: float | None = None,
             io_timeout_s: float = 0.0) -> int:
        """One front-end round; returns responses sent.

        Socket I/O → backend step → harvest resolved futures into write
        buffers → enforce read deadlines → elastic tick.  ``now``
        threads a virtual clock through (deterministic tests);
        ``io_timeout_s`` is how long ``select`` may block waiting for
        socket events.
        """
        if self._selector is None:
            return 0
        now = _clock.now() if now is None else now
        for key, mask in self._selector.select(io_timeout_s):
            if key.data is None:
                self._accept(now)
                continue
            conn: _Connection = key.data
            if mask & selectors.EVENT_READ:
                self._read(conn, now)
            if not conn.closed and mask & selectors.EVENT_WRITE:
                self._flush(conn)
        if self.elastic is not None:
            self.elastic.tick(now=now)
        self.backend.step(now=now)
        sent = self._harvest(now)
        self._enforce_read_deadlines(now)
        return sent

    def _accept(self, now: float) -> None:
        while True:
            try:
                sock, addr = self._listen.accept()
            except (BlockingIOError, OSError):
                return
            sock.setblocking(False)
            conn = _Connection(sock, addr, now)
            self._conns[sock] = conn
            self._selector.register(sock, selectors.EVENT_READ, data=conn)
            self.stats.bump("connections")

    def _read(self, conn: _Connection, now: float) -> None:
        chunks = []
        eof = False
        while True:
            try:
                data = conn.sock.recv(65536)
            except (BlockingIOError, InterruptedError):
                break
            except OSError:
                eof = True
                break
            if not data:
                eof = True
                break
            chunks.append(data)
        payload = b"".join(chunks)
        if payload:
            conn.last_recv = now
            self.stats.bump("bytes_in", len(payload))
            try:
                messages = conn.decoder.feed(payload)
            except ProtocolError as exc:
                # framing corruption is unrecoverable for this stream:
                # best-effort typed error frame, then drop the peer
                self.stats.bump("protocol_errors")
                self._respond(conn, error_response(None, "protocol",
                                                   str(exc)))
                self._close_conn(conn, "protocol")
                return
            for msg in messages:
                self._handle(conn, msg, now)
        if eof:
            self._close_conn(conn, "client")

    def _flush(self, conn: _Connection) -> None:
        """Drain as much of the write buffer as the socket accepts."""
        while conn.outbuf:
            try:
                sent = conn.sock.send(conn.outbuf)
            except (BlockingIOError, InterruptedError):
                break
            except OSError:
                self._close_conn(conn, "client")
                return
            if sent <= 0:
                break
            self.stats.bump("bytes_out", sent)
            del conn.outbuf[:sent]
        if not conn.closed:
            events = selectors.EVENT_READ
            if conn.outbuf:
                events |= selectors.EVENT_WRITE
            self._selector.modify(conn.sock, events, data=conn)

    def _respond(self, conn: _Connection, msg: Message) -> None:
        if conn.closed:
            return
        conn.outbuf.extend(encode_message(msg))
        self.stats.bump("responses")
        self._flush(conn)

    def _close_conn(self, conn: _Connection, reason: str) -> None:
        if conn.closed:
            return
        conn.closed = True
        conn.pending.clear()
        try:
            self._selector.unregister(conn.sock)
        except (KeyError, ValueError):
            pass
        try:
            conn.sock.close()
        except OSError:
            pass
        self._conns.pop(conn.sock, None)
        self.stats.bump("disconnects")

    def _enforce_read_deadlines(self, now: float) -> None:
        # slow-loris defense: a peer holding a partial frame open must
        # make byte progress within read_timeout_s or lose the socket
        for conn in list(self._conns.values()):
            if (conn.decoder.buffered
                    and now - conn.last_recv > self.read_timeout_s):
                self.stats.bump("read_timeouts")
                self._respond(conn, error_response(
                    None, "read_timeout",
                    f"no frame progress in {self.read_timeout_s}s"))
                self._close_conn(conn, "read_timeout")

    # -- request handling -------------------------------------------------- #
    def _handle(self, conn: _Connection, msg: Message, now: float) -> None:
        self.stats.bump("requests")
        rid = msg.request_id
        try:
            if msg.kind == "ping":
                self._respond(conn, pong_response(rid))
            elif msg.kind == "stats":
                self._respond(conn, stats_reply(rid, self.stats_snapshot()))
            elif msg.kind in ("predict", "mutate"):
                timeout, ctx = self._admit(msg, now)
                submit = (self._submit_predict if msg.kind == "predict"
                          else self._submit_mutate)
                future = submit(msg, self._config_for(msg), timeout, now, ctx)
                conn.pending.append(_Pending(
                    request_id=rid, future=future, kind=msg.kind,
                    tenant=msg.headers["tenant"],
                    priority=msg.headers["priority"],
                    received_at=now, trace=ctx))
            else:  # a response kind sent at the server
                self._respond(conn, error_response(
                    rid, "bad_request",
                    f"server does not accept {msg.kind!r} messages"))
        except QuotaExceededError as exc:
            self.stats.bump("rejected_quota")
            self._respond(conn, error_response(rid, "quota", str(exc)))
        except AdmissionError as exc:
            self.stats.bump("rejected_shed")
            self._respond(conn, error_response(rid, "shed", str(exc)))
        except QueueFullError as exc:
            self.stats.bump("rejected_backpressure")
            self._respond(conn, error_response(rid, "backpressure",
                                               str(exc)))
        except ServerClosedError as exc:
            self._respond(conn, error_response(rid, "server_closed",
                                               str(exc)))
        except (ValueError, KeyError, ServeError) as exc:
            self._respond(conn, error_response(rid, "bad_request", str(exc)))
        except Exception as exc:
            # attacker-controlled request contents can raise anything
            # (TypeError from a config JSON of the wrong shape, IndexError
            # from a lying delta payload, ...); one request must never
            # escape the serving loop and take down every tenant
            self._respond(conn, error_response(
                rid, "bad_request", f"{type(exc).__name__}: {exc}"))

    def _admit(self, msg: Message, now: float):
        """Admission + deadline resolution for one request message.

        Returns ``(timeout_s, trace_ctx)`` — the backend-relative
        deadline and the net span context the backend request should
        parent under.  Raises typed admission errors through to
        :meth:`_handle`'s rejection mapping.
        """
        tenant = msg.headers["tenant"]
        queue = self.backend.queue
        depth_fraction = len(queue) / queue.max_depth
        timeout = None
        if self.admission is not None:
            self.admission.admit(tenant, now=now,
                                 depth_fraction=depth_fraction)
            deadline = self.admission.deadline_for(
                tenant, now, explicit=self._wire_deadline(msg, now))
            timeout = deadline - now
        else:
            explicit = self._wire_deadline(msg, now)
            if explicit is not None:
                timeout = explicit - now
        tracer = get_tracer()
        ctx = tracer.new_context() if tracer.enabled else None
        return timeout, ctx

    @staticmethod
    def _wire_deadline(msg: Message, now: float) -> float | None:
        """Convert the wire's epoch deadline onto the serving clock.

        Clients stamp deadlines with ``time.time()`` (the only clock
        both sides share); the serving clock is an arbitrary-epoch
        monotonic counter, so only the *remaining* interval crosses.
        """
        wire = msg.headers.get("deadline")
        if wire is None:
            return None
        return now + (float(wire) - time.time())

    def _config_for(self, msg: Message):
        text = msg.headers["config"]
        cfg = self._configs.get(text)
        if cfg is None:
            from ..api.config import RunConfig

            cfg = RunConfig.from_json(text)
            self._configs[text] = cfg
        return cfg

    def _submit_predict(self, msg: Message, config, timeout, now, ctx):
        kwargs = {}
        payload = msg.headers.get("payload")
        if payload in ("nodes", "indices"):
            if not msg.arrays:
                raise ValueError("payload kind set but no array attached")
            kwargs[payload] = np.asarray(msg.arrays[0], dtype=np.int64)
        elif payload is not None:
            raise ValueError(f"unknown payload kind {payload!r}")
        min_version = msg.headers.get("min_version")
        if min_version is not None:
            # version-pinned read: the backend rejects a pin ahead of
            # its authority synchronously (surfaced as bad_request) and
            # a cluster may steer the read to a caught-up replica
            kwargs["min_version"] = int(min_version)
        return self.backend.submit(config, timeout=timeout, now=now,
                                   trace=ctx, **kwargs)

    def _submit_mutate(self, msg: Message, config, timeout, now, ctx):
        from ..stream.delta import GraphDelta

        if not msg.arrays:
            raise ValueError("mutate request carries no delta payload")
        delta = GraphDelta.from_payload(
            np.asarray(msg.arrays[0], dtype=np.uint8).tobytes())
        # what the optimistic-concurrency guard and the deadline mean
        # is the backend's call (a cluster rejects the former and does
        # not apply the latter to a broadcast)
        return self.backend.submit_delta(
            config, delta, timeout=timeout, now=now,
            expected_version=msg.headers.get("expected_version"), trace=ctx)

    # -- response side ----------------------------------------------------- #
    def _harvest(self, now: float) -> int:
        """Turn every resolved backend future into a wire response."""
        sent = 0
        for conn in list(self._conns.values()):
            if not conn.pending:
                continue
            still = []
            for p in conn.pending:
                if not p.future.done():
                    still.append(p)
                    continue
                self._finish(conn, p, now)
                sent += 1
            conn.pending = still
        return sent

    def _finish(self, conn: _Connection, p: _Pending, now: float) -> None:
        exc = p.future.exception(timeout=0)
        if exc is None:
            value = p.future.result(timeout=0)
            if p.kind == "mutate":
                out = result_response(p.request_id, None,
                                      graph_version=int(value))
            else:
                out = result_response(p.request_id, value,
                                      graph_version=p.future.graph_version)
        elif isinstance(exc, DeadlineExceededError):
            out = error_response(p.request_id, "deadline", str(exc))
        elif isinstance(exc, ServerClosedError):
            out = error_response(p.request_id, "server_closed", str(exc))
        else:
            out = error_response(p.request_id, "internal", str(exc))
        self.stats.record_latency(now - p.received_at)
        tracer = get_tracer()
        if tracer.enabled and p.trace is not None:
            tracer.record("net_request", p.received_at, now, ctx=p.trace,
                          attrs={"tenant": p.tenant, "priority": p.priority,
                                 "kind": p.kind,
                                 "outcome": ("ok" if exc is None
                                             else "error")})
        self._respond(conn, out)

    # -- stats ------------------------------------------------------------- #
    def stats_snapshot(self) -> dict:
        """Net counters + admission accounting + backend snapshot.

        The backend snapshot is sanitized through JSON (``default=str``)
        so the result is always wire-encodable.
        """
        backend = self.backend.stats_snapshot()
        out = {
            "net": self.stats.snapshot(),
            "backend": json.loads(json.dumps(backend, default=str)),
        }
        if self.admission is not None:
            out["admission"] = self.admission.snapshot()
        if self.elastic is not None:
            out["elastic"] = self.elastic.stats.snapshot()
        return out

    # -- threaded mode ----------------------------------------------------- #
    def _loop_once(self) -> None:
        try:
            self.poll(io_timeout_s=0.005)
        except Exception:
            # belt-and-braces: _handle already maps per-request
            # failures to error frames, so anything landing here is a
            # server bug — survive it rather than silently killing
            # serving for every connected tenant
            if self._selector is None:
                self._stop_event.set()  # closed under us
                return
            traceback.print_exc()

    # -- lifecycle --------------------------------------------------------- #
    def close(self, drain_timeout_s: float = 10.0) -> None:
        """Graceful drain: finish in-flight work, flush, then tear down.

        Stops accepting immediately; keeps stepping the backend until
        every pending future resolves (bounded by ``drain_timeout_s`` on
        the wall clock); anything still unresolved gets a clean
        ``server_closed`` error frame; write buffers are flushed before
        sockets close.  The backend itself is *not* closed — it belongs
        to the caller.
        """
        if self._closed:
            return
        self._closed = True
        self.stop()
        try:
            self._selector.unregister(self._listen)
        except (KeyError, ValueError):
            pass
        self._listen.close()
        deadline = time.monotonic() + drain_timeout_s
        while (any(c.pending for c in self._conns.values())
               and time.monotonic() < deadline):
            self.poll(io_timeout_s=0.005)
        for conn in list(self._conns.values()):
            for p in conn.pending:
                self._respond(conn, error_response(
                    p.request_id, "server_closed",
                    "server shutting down before this request resolved"))
            conn.pending = []
        while (any(c.outbuf for c in self._conns.values())
               and time.monotonic() < deadline):
            for conn in list(self._conns.values()):
                if conn.outbuf:
                    self._flush(conn)
            time.sleep(0.001)
        for conn in list(self._conns.values()):
            self._close_conn(conn, "server_close")
        self._selector.close()
        self._selector = None
