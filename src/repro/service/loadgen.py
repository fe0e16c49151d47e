"""Multiplexed load driver for the live service runtime.

Simulates tens of thousands of logical wire clients from a handful of
OS threads: each :class:`_SessionWorker` owns one TCP connection that
multiplexes a partition of the client population, and the driver's main
thread paces evaluation cycles over a separate control connection
(``tick`` ops), so the whole run is lock-step and deterministic.

The traffic is a generator replay: a
:class:`~repro.generator.MovingObjectSimulator` over a Manhattan-style
road network produces the object reports, and a
:class:`~repro.generator.WorkloadGenerator` the query population
(stationary and carried range / k-NN / predictive queries).  Workers
maintain a client-side mirror of every answer from the downlink stream
— exactly what the consistency oracle's mirrors hold server-side — and
the driver closes the loop by reading back a sample of live engine
answers (``query_answer``) and diffing them against the wire mirrors.

Phases per cycle (one reusable barrier, four waits):

1. main fills each worker's outbox from the simulator;
2. workers write their outboxes to the wire;
3. main sends ``tick`` and receives the cycle summary;
4. workers read downlink until the cycle's ``cycle_end`` marker.

Run standalone::

    python -m repro.service.loadgen --clients 10000 --cycles 20 --self-host
"""

from __future__ import annotations

import json
import socket
import threading
from collections import Counter
from dataclasses import dataclass

from repro.generator import (
    MovingObjectSimulator,
    WorkloadConfig,
    WorkloadGenerator,
    manhattan_city,
)
from repro.service.protocol import encode

#: Query ids start here so they never collide with object ids.
FIRST_QID = 1_000_000

_BARRIER_TIMEOUT = 120.0


@dataclass(slots=True)
class LoadConfig:
    """One load run: population sizes, pacing, verification."""

    clients: int = 10_000
    #: Reporting objects (object ``oid`` is reported by client ``oid``);
    #: the remaining clients are idle listeners — realistic fleets are
    #: mostly quiet, and the oracle's per-cycle snapshot check is
    #: O(queries x objects), which bounds how many reporters make sense.
    objects: int = 2_000
    range_queries: int = 120
    knn_queries: int = 30
    predictive_queries: int = 20
    #: Fraction of queries carried by a moving object (they emit
    #: ``move`` ops whenever their carrier reports).
    moving_fraction: float = 0.3
    query_side: float = 0.05
    k: int = 4
    horizon: float = 5.0
    cycles: int = 20
    #: Worker threads == TCP sessions carrying the client population.
    sessions: int = 4
    #: Fraction of moved objects that phone home each cycle.
    report_fraction: float = 0.35
    dt: float = 1.0
    #: Every Nth cycle, stationary range owners acknowledge (commit).
    commit_every: int = 4
    seed: int = 0
    #: Queries sampled for the end-of-run mirror-vs-engine diff.
    verify_samples: int = 32

    def __post_init__(self) -> None:
        if self.objects > self.clients:
            raise ValueError(
                f"objects ({self.objects}) must be <= clients "
                f"({self.clients}): client oid reports object oid"
            )
        if self.sessions < 1:
            raise ValueError("sessions must be >= 1")


class _SessionWorker(threading.Thread):
    """One TCP connection multiplexing a partition of the clients."""

    def __init__(
        self,
        index: int,
        address: tuple[str, int],
        qids_of_client: dict[int, list[int]],
        barrier: threading.Barrier,
        stop_flag: threading.Event,
    ):
        super().__init__(name=f"loadgen-{index}", daemon=True)
        self.index = index
        self.address = address
        #: client -> its qids (this partition only); wakeup rollback
        #: needs to know which mirrors belong to a waking client.
        self.qids_of_client = qids_of_client
        self.barrier = barrier
        self.stop_flag = stop_flag
        self.outbox: list[dict] = []
        #: qid -> the answer set proven on the wire.
        self.mirrors: dict[int, set[int]] = {}
        self.committed: dict[int, set[int]] = {}
        self.counts: Counter[str] = Counter()
        self.errors: list[dict] = []
        self.failure: str | None = None

    def run(self) -> None:  # pragma: no cover - exercised via LoadDriver
        try:
            with socket.create_connection(self.address, timeout=60) as sock:
                wire = sock.makefile("rwb")
                while True:
                    self.barrier.wait(_BARRIER_TIMEOUT)  # A: outbox ready
                    if self.stop_flag.is_set():
                        wire.write(encode({"op": "bye"}))
                        wire.flush()
                        return
                    for op in self.outbox:
                        wire.write(encode(op))
                        self.counts["uplink_lines"] += 1
                    # The trailing ping's pong proves the server has
                    # consumed (queued) every line above it — only then
                    # may the driver tick the cycle.
                    wire.write(encode({"op": "ping"}))
                    wire.flush()
                    self.outbox = []
                    self._read_until(wire, "pong")
                    self.barrier.wait(_BARRIER_TIMEOUT)  # B: consumed
                    self.barrier.wait(_BARRIER_TIMEOUT)  # C: cycle ran
                    self._read_until(wire, "cycle_end")
                    self.barrier.wait(_BARRIER_TIMEOUT)  # D: read done
        except Exception as exc:  # noqa: BLE001 - reported to the driver
            self.failure = f"{type(exc).__name__}: {exc}"
            self.barrier.abort()

    # -- downlink mirror maintenance -----------------------------------

    def _read_until(self, wire, terminal: str) -> None:
        while True:
            line = wire.readline()
            if not line:
                raise ConnectionError("server closed the session")
            op = json.loads(line)
            self.counts["downlink_lines"] += 1
            name = op["op"]
            if name == terminal:
                return
            self._apply_downlink(name, op)

    def _apply_downlink(self, name: str, op: dict) -> None:
        if name == "update":
            mirror = self.mirrors.setdefault(op["qid"], set())
            if op["sign"] > 0:
                mirror.add(op["oid"])
            else:
                mirror.discard(op["oid"])
            self.counts["updates"] += 1
        elif name == "answer":
            self.mirrors[op["qid"]] = set(op["oids"])
            self.counts["answers"] += 1
        elif name == "committed":
            self.committed[op["qid"]] = set(
                self.mirrors.get(op["qid"], ())
            )
            self.counts["committed"] += 1
        elif name == "wakeup_begin":
            # The paper's out-of-sync model: a waking client can trust
            # only its committed base until recovery re-delivers.
            for qid in self.qids_of_client.get(op["client"], ()):
                self.mirrors[qid] = set(self.committed.get(qid, ()))
            self.counts["wakeups"] += 1
        elif name in ("wakeup_end", "welcome", "pong", "chaos"):
            self.counts[name] += 1
        elif name == "busy":
            self.counts["busy"] += 1
        elif name in ("error", "reject"):
            self.counts["errors"] += 1
            if len(self.errors) < 10:
                self.errors.append(op)
        else:
            self.counts[f"unknown:{name}"] += 1


class _ControlLink:
    """The driver's own session: ticks cycles, reads back answers.

    The service registers the control session's client (-1) like any
    other, so a fault plan can disconnect it; its wakeup then puts
    ``wakeup_begin``/``wakeup_end`` markers on this stream ahead of the
    reply to the next request.  :meth:`request` skips them.
    """

    def __init__(self, address: tuple[str, int]):
        self.sock = socket.create_connection(address, timeout=60)
        self.wire = self.sock.makefile("rwb")

    def request(self, op: dict) -> dict:
        self.wire.write(encode(op))
        self.wire.flush()
        while True:
            line = self.wire.readline()
            if not line:
                raise ConnectionError("server closed the control session")
            reply = json.loads(line)
            if reply.get("op") not in ("wakeup_begin", "wakeup_end"):
                return reply

    def close(self) -> None:
        try:
            self.wire.write(encode({"op": "bye"}))
            self.wire.flush()
        except (OSError, ValueError):
            pass
        self.sock.close()


class LoadDriver:
    """Replays a generator workload against a live service address."""

    def __init__(self, address: tuple[str, int], config: LoadConfig):
        self.address = address
        self.config = config
        self.sim = MovingObjectSimulator(
            manhattan_city(blocks=8),
            object_count=config.objects,
            seed=config.seed,
            route_mode="walk",
        )
        self.gen = WorkloadGenerator(
            WorkloadConfig(
                range_queries=config.range_queries,
                knn_queries=config.knn_queries,
                predictive_queries=config.predictive_queries,
                side=config.query_side,
                k=config.k,
                horizon=config.horizon,
                moving_fraction=config.moving_fraction,
                seed=config.seed,
            ),
            self.sim,
            first_qid=FIRST_QID,
        )
        self.cycle_summaries: list[dict] = []

    # -- partitioning ---------------------------------------------------

    def _worker_of_client(self, client_id: int) -> int:
        return client_id % self.config.sessions

    def _owner_of_qid(self, qid: int) -> int:
        return qid % self.config.clients

    # -- op builders ----------------------------------------------------

    def _register_op(self, spec) -> dict:
        client = self._owner_of_qid(spec.qid)
        op: dict = {
            "op": "register",
            "client": client,
            "qid": spec.qid,
            "kind": spec.kind,
            "t": self.sim.now,
        }
        if spec.kind == "knn":
            op["cx"], op["cy"] = spec.center.x, spec.center.y
            op["k"] = spec.k
        else:
            region = spec.region()
            op.update(
                minx=region.min_x,
                miny=region.min_y,
                maxx=region.max_x,
                maxy=region.max_y,
            )
            if spec.kind == "predictive":
                op["horizon"] = spec.horizon
        return op

    def _move_op(self, spec) -> dict:
        op: dict = {
            "op": "move",
            "qid": spec.qid,
            "kind": spec.kind,
            "t": self.sim.now,
        }
        if spec.kind == "knn":
            op["cx"], op["cy"] = spec.center.x, spec.center.y
        else:
            region = spec.region()
            op.update(
                minx=region.min_x,
                miny=region.min_y,
                maxx=region.max_x,
                maxy=region.max_y,
            )
        return op

    @staticmethod
    def _report_op(report) -> dict:
        return {
            "op": "report",
            "client": report.oid,
            "oid": report.oid,
            "x": report.location.x,
            "y": report.location.y,
            "vx": report.velocity.vx,
            "vy": report.velocity.vy,
            "t": report.t,
        }

    # -- the run --------------------------------------------------------

    def run(self) -> dict:
        cfg = self.config
        barrier = threading.Barrier(cfg.sessions + 1)
        stop_flag = threading.Event()
        partitions: list[dict[int, list[int]]] = [
            {} for _ in range(cfg.sessions)
        ]
        for qid in self.gen.specs:
            client = self._owner_of_qid(qid)
            partitions[self._worker_of_client(client)].setdefault(
                client, []
            ).append(qid)
        workers = [
            _SessionWorker(i, self.address, partitions[i], barrier, stop_flag)
            for i in range(cfg.sessions)
        ]
        for worker in workers:
            worker.start()
        control = _ControlLink(self.address)
        try:
            hello = control.request({"op": "hello", "client": -1})
            if hello["op"] != "welcome":
                raise RuntimeError(f"control hello rejected: {hello}")
            self._round(workers, barrier, self._setup_outboxes(), control)
            stationary = [
                spec.qid
                for spec in self.gen.specs.values()
                if spec.carrier is None and spec.kind == "range"
            ]
            for cycle in range(1, cfg.cycles + 1):
                reports = self.sim.tick(cfg.dt, cfg.report_fraction)
                moved = self.gen.updates_for_moved_objects(
                    [r.oid for r in reports]
                )
                outboxes: list[list[dict]] = [[] for _ in workers]
                for report in reports:
                    outboxes[self._worker_of_client(report.oid)].append(
                        self._report_op(report)
                    )
                for spec in moved:
                    owner = self._owner_of_qid(spec.qid)
                    outboxes[self._worker_of_client(owner)].append(
                        self._move_op(spec)
                    )
                if cfg.commit_every and cycle % cfg.commit_every == 0:
                    for qid in stationary:
                        owner = self._owner_of_qid(qid)
                        outboxes[self._worker_of_client(owner)].append(
                            {"op": "commit", "qid": qid}
                        )
                self._round(workers, barrier, outboxes, control)
            verify = self._verify(control, workers)
        finally:
            stop_flag.set()
            try:
                barrier.wait(_BARRIER_TIMEOUT)
            except threading.BrokenBarrierError:
                pass
            for worker in workers:
                worker.join(timeout=30)
            control.close()
        return self._report(workers, verify)

    def _setup_outboxes(self) -> list[list[dict]]:
        """Round 0: hellos, query registrations, initial reports."""
        cfg = self.config
        outboxes: list[list[dict]] = [[] for _ in range(cfg.sessions)]
        for client in range(cfg.clients):
            outboxes[self._worker_of_client(client)].append(
                {"op": "hello", "client": client, "sync": True}
            )
        # Only the first hello's sync flag matters per session, but the
        # per-client hellos are what register the fleet.
        for spec in self.gen.specs.values():
            owner = self._owner_of_qid(spec.qid)
            outboxes[self._worker_of_client(owner)].append(
                self._register_op(spec)
            )
        for report in self.sim.initial_reports():
            outboxes[self._worker_of_client(report.oid)].append(
                self._report_op(report)
            )
        return outboxes

    def _round(
        self,
        workers: list[_SessionWorker],
        barrier: threading.Barrier,
        outboxes: list[list[dict]],
        control: _ControlLink,
    ) -> None:
        for worker, outbox in zip(workers, outboxes):
            worker.outbox = outbox
        try:
            barrier.wait(_BARRIER_TIMEOUT)  # A
            barrier.wait(_BARRIER_TIMEOUT)  # B: workers sent
            summary = control.request({"op": "tick", "now": self.sim.now})
            if summary.get("op") != "cycle":
                raise RuntimeError(f"tick failed: {summary}")
            self.cycle_summaries.append(summary)
            barrier.wait(_BARRIER_TIMEOUT)  # C
            barrier.wait(_BARRIER_TIMEOUT)  # D: workers read
        except threading.BrokenBarrierError:
            failures = [w.failure for w in workers if w.failure]
            raise RuntimeError(
                f"load worker failed: {failures or 'barrier timeout'}"
            ) from None

    def _verify(
        self, control: _ControlLink, workers: list[_SessionWorker]
    ) -> dict:
        """Diff sampled live engine answers against the wire mirrors."""
        import random

        rng = random.Random(self.config.seed)
        qids = sorted(self.gen.specs)
        sample = rng.sample(qids, min(self.config.verify_samples, len(qids)))
        mirror_of: dict[int, set[int]] = {}
        for worker in workers:
            mirror_of.update(worker.mirrors)
        mismatches = []
        for qid in sample:
            reply = control.request({"op": "query_answer", "qid": qid})
            if reply["op"] != "answer_state":
                mismatches.append({"qid": qid, "error": reply})
                continue
            engine = set(reply["oids"])
            wire = mirror_of.get(qid, set())
            if engine != wire:
                mismatches.append(
                    {
                        "qid": qid,
                        "missing_on_wire": sorted(engine - wire)[:10],
                        "extra_on_wire": sorted(wire - engine)[:10],
                    }
                )
        return {"sampled": len(sample), "mismatches": mismatches}

    def _report(self, workers: list[_SessionWorker], verify: dict) -> dict:
        totals: Counter[str] = Counter()
        for worker in workers:
            totals.update(worker.counts)
        last = self.cycle_summaries[-1] if self.cycle_summaries else {}
        return {
            "clients": self.config.clients,
            "sessions": self.config.sessions,
            "cycles": self.config.cycles,
            "objects": self.config.objects,
            "queries": len(self.gen.specs),
            "counts": dict(totals),
            "worker_errors": [e for w in workers for e in w.errors],
            "divergences_total": last.get("divergences_total"),
            "last_cycle": last,
            "verify": verify,
            "ok": (
                not verify["mismatches"]
                and not any(w.failure for w in workers)
                and totals.get("errors", 0) == 0
                and (last.get("divergences_total") in (None, 0))
            ),
        }


# ----------------------------------------------------------------------
# HTTP scraping (benchmark + CI helpers, stdlib sockets only)
# ----------------------------------------------------------------------


def http_get(address: tuple[str, int], path: str) -> tuple[int, str]:
    """Minimal GET against the runtime's HTTP plane."""
    with socket.create_connection(address, timeout=30) as sock:
        sock.sendall(
            f"GET {path} HTTP/1.1\r\nHost: {address[0]}\r\n"
            "Connection: close\r\n\r\n".encode()
        )
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    raw = b"".join(chunks).decode("utf-8", errors="replace")
    head, _, body = raw.partition("\r\n\r\n")
    status = int(head.split()[1]) if head.split() else 0
    return status, body


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.service.loadgen",
        description="Replay a generator workload against a live service.",
    )
    parser.add_argument("--connect", default=None, metavar="HOST:PORT")
    parser.add_argument(
        "--self-host",
        action="store_true",
        help="boot an in-process ServiceRuntime (with oracle) to drive",
    )
    parser.add_argument("--clients", type=int, default=10_000)
    parser.add_argument("--objects", type=int, default=2_000)
    parser.add_argument("--cycles", type=int, default=20)
    parser.add_argument("--sessions", type=int, default=4)
    parser.add_argument("--range-queries", type=int, default=120)
    parser.add_argument("--knn-queries", type=int, default=30)
    parser.add_argument("--predictive-queries", type=int, default=20)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if bool(args.connect) == bool(args.self_host):
        parser.error("exactly one of --connect or --self-host is required")

    config = LoadConfig(
        clients=args.clients,
        objects=min(args.objects, args.clients),
        cycles=args.cycles,
        sessions=args.sessions,
        range_queries=args.range_queries,
        knn_queries=args.knn_queries,
        predictive_queries=args.predictive_queries,
        seed=args.seed,
    )
    if args.self_host:
        from repro.service.runtime import ServiceConfig, ServiceRuntime

        with ServiceRuntime(ServiceConfig(oracle=True)) as runtime:
            report = LoadDriver(runtime.tcp_address, config).run()
            report["metrics_scrape"] = http_get(
                runtime.http_address, "/metrics"
            )[0]
    else:
        host, _, port = args.connect.rpartition(":")
        report = LoadDriver((host, int(port)), config).run()
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0 if report["ok"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
