"""The network-facing service runtime.

Wraps one :class:`~repro.core.server.LocationAwareServer` behind a real
socket transport: an asyncio TCP listener speaking the line-delimited
JSON protocol of :mod:`repro.service.protocol`, a cycle loop that
drains queued uplinks, runs one bulk evaluation, and flushes every
session's links to the wire, plus a minimal HTTP plane (``/state``,
``/metrics``, ``/healthz``) fed by the stack's own
:class:`~repro.obs.MetricsRegistry`.

Design points:

* **The link layer stays authoritative.**  Sessions never bypass
  :class:`~repro.net.ClientLink`: every downlink message goes through
  ``link.deliver`` (budgets, faults, connectivity) and only what
  reaches the inbox is flushed to the socket.  The chaos
  :class:`~repro.faults.FaultInjector` and the
  :class:`~repro.check.ConsistencyOracle` therefore work against live
  connections exactly as they do in-process.
* **Cycles are the unit of work.**  Uplink ops queue in a bounded
  per-session backlog (:mod:`repro.service.admission`) and are applied
  at the next cycle boundary in global arrival order, so one evaluation
  sees a consistent batch and the engine is never mutated mid-cycle.
  ``evaluate_cycle`` runs synchronously on the event loop — the cycle
  *is* the server's work; there is nothing to overlap it with.
* **Protocol completeness on the wire.**  The runtime subscribes to the
  server's observer hooks and emits ``wakeup_begin`` / ``wakeup_end`` /
  ``committed`` markers, each preceded by a flush of the affected
  client's inbox, so a wire client can maintain exactly the state the
  oracle's mirror holds (roll back to committed on wakeup, commit on
  acknowledgement).

Run it standalone with ``python -m repro.service`` or embedded via
:meth:`ServiceRuntime.start` (background thread, ephemeral ports) — the
tests, benchmark, and load driver use the latter.
"""

from __future__ import annotations

import asyncio
import json
import threading
from dataclasses import dataclass, field

from repro.check import ConsistencyOracle
from repro.core.server import LocationAwareServer
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.geometry import Point, Rect, Velocity
from repro.obs import FlightRecorder
from repro.obs.export import prometheus_text
from repro.service.admission import AdmissionConfig, AdmissionController
from repro.service.protocol import (
    IMMEDIATE_OPS,
    PROTOCOL_VERSION,
    ProtocolError,
    busy_op,
    decode_line,
    error_op,
    reject_op,
)
from repro.service.session import ClientSession

#: readline limit: uplink lines are small, but recovery ``answer``
#: downlinks (and symmetric test traffic) can carry large oid lists.
_LINE_LIMIT = 1 << 20


@dataclass(slots=True)
class ServiceConfig:
    """Everything one runtime needs to come up."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 → ephemeral; read back from tcp_address
    http_port: int = 0
    #: Seconds between automatic evaluation cycles; 0 disables the
    #: timer — cycles then run only on explicit ``tick`` control ops
    #: (the load driver's lock-step mode).
    cycle_interval: float = 0.0
    grid_size: int = 64
    pipeline: str = "cell-batched"
    admission: AdmissionConfig = field(default_factory=AdmissionConfig)
    #: Attach a differential consistency oracle to every session.
    oracle: bool = False
    #: Install a seeded chaos plan on the live transport.
    fault_plan: FaultPlan | None = None
    #: Arm the flight recorder for the whole stack.
    recorder: FlightRecorder | None = None


class ServiceRuntime:
    """One live deployment: sockets in front, the engine behind."""

    def __init__(
        self,
        config: ServiceConfig | None = None,
        server: LocationAwareServer | None = None,
    ):
        self.config = config or ServiceConfig()
        self.server = server or LocationAwareServer(
            grid_size=self.config.grid_size,
            pipeline=self.config.pipeline,
            recorder=self.config.recorder,
        )
        self.registry = self.server.registry
        self.admission = AdmissionController(
            self.config.admission, self.registry
        )
        self.oracle: ConsistencyOracle | None = (
            ConsistencyOracle(self.server) if self.config.oracle else None
        )
        self.injector: FaultInjector | None = None
        if self.config.fault_plan is not None:
            self.injector = FaultInjector(self.server, self.config.fault_plan)
            self.injector.install()
        self.server.add_observer(self)

        self.cycle_count = 0
        self.last_cycle: dict = {}
        self._sessions: dict[int, ClientSession] = {}
        self._next_session_id = 1
        #: client_id -> owning session (wire routing).
        self._client_session: dict[int, ClientSession] = {}
        #: Global FIFO of (session, op) drained at each cycle boundary.
        self._pending: list[tuple[ClientSession, dict]] = []

        self._m_cycles = self.registry.counter("service_cycles_total")
        self._m_uplink_errors = self.registry.counter(
            "service_uplink_errors_total"
        )
        self._m_backlog = self.registry.gauge("service_uplink_backlog")
        self._m_flushed = self.registry.counter(
            "service_downlink_flushed_total"
        )
        self._m_ops: dict[str, object] = {}

        self.tcp_address: tuple[str, int] | None = None
        self.http_address: tuple[str, int] | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop_event: asyncio.Event | None = None
        self._ready = threading.Event()
        self._thread: threading.Thread | None = None
        self._tcp_server: asyncio.AbstractServer | None = None
        self._http_server: asyncio.AbstractServer | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def serve(self) -> None:
        """Bind both listeners and run until :meth:`request_stop`."""
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        self._tcp_server = await asyncio.start_server(
            self._handle_conn,
            self.config.host,
            self.config.port,
            limit=_LINE_LIMIT,
        )
        self.tcp_address = self._tcp_server.sockets[0].getsockname()[:2]
        self._http_server = await asyncio.start_server(
            self._handle_http, self.config.host, self.config.http_port
        )
        self.http_address = self._http_server.sockets[0].getsockname()[:2]
        cycle_task = None
        if self.config.cycle_interval > 0:
            cycle_task = asyncio.ensure_future(self._cycle_loop())
        self._ready.set()
        try:
            await self._stop_event.wait()
        finally:
            if cycle_task is not None:
                cycle_task.cancel()
            self._tcp_server.close()
            self._http_server.close()
            await self._tcp_server.wait_closed()
            await self._http_server.wait_closed()
            for session in list(self._sessions.values()):
                self._close_session(session)
            self.server.close()

    def request_stop(self) -> None:
        """Ask the serve loop to wind down (thread-safe)."""
        if self._loop is not None and self._stop_event is not None:
            self._loop.call_soon_threadsafe(self._stop_event.set)

    # -- background-thread embedding -----------------------------------

    def start(self, timeout: float = 10.0) -> "ServiceRuntime":
        """Run :meth:`serve` on a daemon thread; returns once bound."""
        if self._thread is not None:
            raise RuntimeError("runtime already started")
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self.serve()),
            name="repro-service",
            daemon=True,
        )
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError("service runtime failed to come up")
        return self

    def stop(self, timeout: float = 10.0) -> None:
        self.request_stop()
        if self._thread is not None:
            self._thread.join(timeout)
            self._thread = None

    def __enter__(self) -> "ServiceRuntime":
        # Tolerate ``with ServiceRuntime(...).start() as runtime``.
        return self if self._thread is not None else self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # TCP sessions
    # ------------------------------------------------------------------

    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        if not self.admission.admit_session():
            writer.write(
                json.dumps(
                    reject_op("sessions", self.config.admission.retry_after)
                ).encode()
                + b"\n"
            )
            try:
                await writer.drain()
            except ConnectionError:
                pass
            writer.close()
            return
        peername = writer.get_extra_info("peername")
        session = ClientSession(
            self._next_session_id, writer, peer=str(peername)
        )
        self._next_session_id += 1
        self._sessions[session.session_id] = session
        try:
            while not session.closed:
                try:
                    line = await reader.readline()
                except (
                    ConnectionError,
                    asyncio.LimitOverrunError,
                    # Loop teardown cancels reader tasks; exit quietly
                    # through the normal cleanup path.
                    asyncio.CancelledError,
                ):
                    break
                if not line:
                    break
                session.lines_in += 1
                try:
                    op = decode_line(line)
                except ProtocolError as exc:
                    session.send(error_op(exc.code, exc.detail))
                    self._m_uplink_errors.inc()
                    continue
                name = op["op"]
                self._count_op(name)
                if name == "bye":
                    break
                if name in IMMEDIATE_OPS:
                    await self._handle_immediate(session, op)
                else:
                    if not self.admission.admit_uplink(session.backlog):
                        session.send(
                            busy_op(self.config.admission.retry_after)
                        )
                        continue
                    session.backlog += 1
                    self._pending.append((session, op))
                    self._m_backlog.set(len(self._pending))
        finally:
            self._close_session(session)
            self.admission.release_session()

    def _close_session(self, session: ClientSession) -> None:
        if session.session_id in self._sessions:
            del self._sessions[session.session_id]
        session.mark_closed()
        # The connection is the client's physical channel: losing it is
        # an outage — the links go dark (messages lost, not queued)
        # until the client reconnects and wakes up, exactly the paper's
        # out-of-sync model.
        for client_id in session.client_ids:
            try:
                self.server.link_of(client_id).disconnect()
            except KeyError:
                pass
            self._client_session.pop(client_id, None)
        try:
            session.writer.close()
        except RuntimeError:
            pass

    # -- immediate (control-plane) ops ---------------------------------

    async def _handle_immediate(
        self, session: ClientSession, op: dict
    ) -> None:
        name = op["op"]
        if name == "hello":
            self._handle_hello(session, op)
        elif name == "ping":
            session.send({"op": "pong", "protocol": PROTOCOL_VERSION})
        elif name == "tick":
            now = op.get("now")
            summary = self.run_cycle(
                float(now) if now is not None else None
            )
            # Reply before draining peers: a peer session that is not
            # reading yet (the load driver's lock-step workers) must not
            # hold the control session's cycle acknowledgement hostage.
            session.send({"op": "cycle", **summary})
            await self._drain_writers()
        elif name == "query_answer":
            qid = int(op["qid"])
            if qid not in self.server.engine.queries:
                session.send(error_op("unknown_query", f"no query {qid}"))
                return
            session.send(
                {
                    "op": "answer_state",
                    "qid": qid,
                    "oids": sorted(self.server.engine.answer_of(qid)),
                }
            )
        elif name == "chaos_off":
            if self.injector is not None:
                self.injector.uninstall()
                self.injector = None
            session.send({"op": "chaos", "active": False})
            await self._drain_writers()

    def _handle_hello(self, session: ClientSession, op: dict) -> None:
        client_id = int(op["client"])
        if "sync" in op:
            session.sync = bool(op["sync"])
        owner = self._client_session.get(client_id)
        if owner is not None and not owner.closed and owner is not session:
            session.send(
                error_op(
                    "client_busy",
                    f"client {client_id} is bound to another live session",
                )
            )
            return
        try:
            self.server.link_of(client_id)
            known = True
        except KeyError:
            known = False
        if known:
            # A reconnect: rebind the wire, but the link stays dark
            # until the client sends its wakeup — resynchronisation is
            # the client's move in the out-of-sync protocol.
            resumed = True
        else:
            if not self.admission.admit_client():
                session.send(
                    reject_op("clients", self.config.admission.retry_after)
                )
                return
            budget = op.get("budget")
            self.server.register_client(
                client_id,
                downlink_budget=int(budget) if budget is not None else None,
            )
            if self.oracle is not None:
                self.oracle.watch_client(client_id)
            if self.injector is not None:
                self.injector.bind_client(client_id)
            resumed = False
        session.client_ids.add(client_id)
        self._client_session[client_id] = session
        session.send(
            {
                "op": "welcome",
                "client": client_id,
                "session": session.session_id,
                "cycle": self.cycle_count,
                "resumed": resumed,
                "protocol": PROTOCOL_VERSION,
            }
        )

    # ------------------------------------------------------------------
    # The cycle loop
    # ------------------------------------------------------------------

    async def _cycle_loop(self) -> None:
        """Timer-paced cycles (the TrafficFlow-style free-running mode)."""
        while self._stop_event is not None and not self._stop_event.is_set():
            await asyncio.sleep(self.config.cycle_interval)
            self.run_cycle(None)
            await self._drain_writers()

    def run_cycle(self, now: float | None = None) -> dict:
        """One full service cycle; returns a JSON-ready summary.

        Order mirrors the in-process chaos harness: cycle-level faults
        first, then the uplink batch in arrival order, then the
        oracle-bracketed evaluation, then the downlink flush.
        """
        cycle = self.cycle_count
        if now is None:
            now = float(cycle + 1)
        if self.injector is not None:
            self.injector.begin_cycle(cycle)
        applied, errors = self._drain_uplinks()
        if self.oracle is not None:
            self.oracle.begin_cycle()
        result = self.server.evaluate_cycle(now)
        divergences_now = 0
        if self.oracle is not None:
            divergences_now = len(self.oracle.end_cycle(cycle, result.updates))
        flushed = self._flush_sessions(cycle, now)
        self.cycle_count += 1
        self._m_cycles.inc()
        self.last_cycle = {
            "cycle": cycle,
            "now": now,
            "uplinks_applied": applied,
            "uplink_errors": errors,
            "delivered_updates": result.delivered_updates,
            "dropped_updates": result.dropped_updates,
            "incremental_bytes": result.incremental_bytes,
            "flushed_messages": flushed,
            "divergences": divergences_now,
            "divergences_total": (
                len(self.oracle.divergences) if self.oracle else None
            ),
        }
        return self.last_cycle

    def _drain_uplinks(self) -> tuple[int, int]:
        """Apply every queued op in global arrival order."""
        pending, self._pending = self._pending, []
        applied = 0
        errors = 0
        for session, op in pending:
            session.backlog = max(0, session.backlog - 1)
            if session.closed:
                continue
            try:
                self._apply_op(op)
                applied += 1
            except (KeyError, ValueError, ProtocolError) as exc:
                errors += 1
                self._m_uplink_errors.inc()
                session.send(error_op("bad_op", f"{op.get('op')}: {exc}"))
        self._m_backlog.set(0)
        return applied, errors

    def _apply_op(self, op: dict) -> None:
        server = self.server
        name = op["op"]
        if name == "report":
            server.receive_object_report(
                int(op["oid"]),
                Point(float(op["x"]), float(op["y"])),
                float(op["t"]),
                Velocity(float(op.get("vx", 0.0)), float(op.get("vy", 0.0))),
            )
        elif name == "move":
            qid = int(op["qid"])
            # Validate up front: a buffered move for an unknown query
            # would fail the whole evaluation batch, not just this op.
            server.client_of(qid)
            kind = op["kind"]
            t = float(op["t"])
            if kind == "range":
                server.receive_range_query_move(qid, self._rect_of(op), t)
            elif kind == "knn":
                server.receive_knn_query_move(
                    qid, Point(float(op["cx"]), float(op["cy"])), t
                )
            else:
                server.receive_predictive_query_move(
                    qid, self._rect_of(op), t
                )
        elif name == "register":
            client_id = int(op["client"])
            qid = int(op["qid"])
            kind = op["kind"]
            t = float(op.get("t", 0.0))
            if kind == "range":
                server.register_range_query(
                    client_id, qid, self._rect_of(op), t
                )
            elif kind == "knn":
                server.register_knn_query(
                    client_id,
                    qid,
                    Point(float(op["cx"]), float(op["cy"])),
                    int(op.get("k", 1)),
                    t,
                )
            else:
                server.register_predictive_query(
                    client_id,
                    qid,
                    self._rect_of(op),
                    float(op.get("horizon", 0.0)),
                    t,
                )
        elif name == "commit":
            server.receive_commit(int(op["qid"]))
        elif name == "wakeup":
            server.receive_wakeup(int(op["client"]))
        elif name == "remove":
            server.remove_object(int(op["oid"]))
        elif name == "unregister":
            server.unregister_query(int(op["qid"]))
        else:  # pragma: no cover - decode_line already rejects these
            raise ProtocolError("bad_op", f"unroutable op {name!r}")

    @staticmethod
    def _rect_of(op: dict) -> Rect:
        try:
            return Rect(
                float(op["minx"]),
                float(op["miny"]),
                float(op["maxx"]),
                float(op["maxy"]),
            )
        except KeyError as exc:
            raise ProtocolError(
                "missing_field", f"rect op missing {exc.args[0]!r}"
            ) from exc

    # -- downlink flushing ---------------------------------------------

    def _flush_sessions(self, cycle: int, now: float) -> int:
        flushed = 0
        server = self.server
        for session in list(self._sessions.values()):
            if session.closed:
                continue
            for client_id in session.client_ids:
                try:
                    link = server.link_of(client_id)
                except KeyError:
                    continue
                if link._inbox:
                    flushed += session.flush_link(link)
            if session.sync:
                session.send({"op": "cycle_end", "cycle": cycle, "now": now})
        if flushed:
            self._m_flushed.inc(flushed)
        return flushed

    async def _drain_writers(self) -> None:
        for session in list(self._sessions.values()):
            if session.closed:
                continue
            try:
                await asyncio.wait_for(session.writer.drain(), timeout=30.0)
            except (ConnectionError, RuntimeError, asyncio.TimeoutError):
                # A peer that stopped reading cannot be allowed to stall
                # the cycle loop for everyone else.
                session.mark_closed()

    # -- server protocol observers (wire markers) ----------------------

    def _flush_then(self, client_id: int, marker: dict) -> None:
        """Flush a client's pending inbox, then emit ``marker``.

        The flush preserves wire order: everything the link accepted
        before the protocol event precedes the event's marker, so the
        wire client's rollback/commit lands on the same state the
        oracle mirror computes.
        """
        session = self._client_session.get(client_id)
        if session is None or session.closed:
            return
        try:
            link = self.server.link_of(client_id)
        except KeyError:
            return
        if link._inbox:
            self._m_flushed.inc(session.flush_link(link))
        session.send(marker)

    def on_wakeup_begin(self, client_id: int) -> None:
        self._flush_then(
            client_id, {"op": "wakeup_begin", "client": client_id}
        )

    def on_wakeup_end(self, client_id: int) -> None:
        self._flush_then(client_id, {"op": "wakeup_end", "client": client_id})

    def on_commit(self, qid: int) -> None:
        try:
            client_id = self.server.client_of(qid)
        except KeyError:
            return
        self._flush_then(client_id, {"op": "committed", "qid": qid})

    # ------------------------------------------------------------------
    # HTTP plane
    # ------------------------------------------------------------------

    async def _handle_http(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            request = await reader.readline()
            while True:
                header = await reader.readline()
                if header in (b"\r\n", b"\n", b""):
                    break
            parts = request.decode("latin-1").split()
            method = parts[0] if parts else ""
            path = parts[1] if len(parts) > 1 else "/"
            if method != "GET":
                self._http_reply(writer, 405, "text/plain", b"method not allowed")
            elif path == "/metrics":
                body = prometheus_text(self.registry).encode()
                self._http_reply(
                    writer, 200, "text/plain; version=0.0.4", body
                )
            elif path == "/state":
                body = json.dumps(self.state(), sort_keys=True).encode()
                self._http_reply(writer, 200, "application/json", body)
            elif path == "/healthz":
                self._http_reply(writer, 200, "text/plain", b"ok")
            else:
                self._http_reply(writer, 404, "text/plain", b"not found")
            await writer.drain()
        except ConnectionError:
            pass
        finally:
            writer.close()

    @staticmethod
    def _http_reply(
        writer: asyncio.StreamWriter, status: int, ctype: str, body: bytes
    ) -> None:
        reason = {200: "OK", 404: "Not Found", 405: "Method Not Allowed"}.get(
            status, "Error"
        )
        writer.write(
            (
                f"HTTP/1.1 {status} {reason}\r\n"
                f"Content-Type: {ctype}\r\n"
                f"Content-Length: {len(body)}\r\n"
                "Connection: close\r\n\r\n"
            ).encode()
        )
        writer.write(body)

    def state(self) -> dict:
        """The ``/state`` document: one JSON snapshot of the deployment."""
        engine = self.server.engine
        return {
            "protocol": PROTOCOL_VERSION,
            "cycle": self.cycle_count,
            "sessions": self.admission.sessions_active,
            "clients": self.admission.clients_active,
            "queries": len(engine.queries),
            "objects": len(engine.objects),
            "pending_uplinks": len(self._pending),
            "admission_rejections": self.admission.rejection_counts(),
            "oracle": (
                {
                    "attached": True,
                    "divergences": len(self.oracle.divergences),
                }
                if self.oracle is not None
                else {"attached": False}
            ),
            "chaos_active": self.injector is not None,
            "savings_ratio": self.server.savings_ratio(),
            "last_cycle": self.last_cycle,
        }

    # -- small helpers -------------------------------------------------

    def _count_op(self, name: str) -> None:
        counter = self._m_ops.get(name)
        if counter is None:
            counter = self._m_ops[name] = self.registry.counter(
                "service_uplink_ops_total", labels={"o": name}
            )
        counter.inc()
