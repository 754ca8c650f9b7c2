"""The ``serve`` workload: a catalog daemon under ingest and queries.

The daemon runs as its own process (``python -m repro --uk-sites 120
serve``, CLI defaults), or under ``launcher.py`` for the traced run.
Load comes from this process on two threads, one connection each:

* the collector (closed loop) streams the dataset day by day as tagged
  row batches in a seeded shuffled order within each day, waits for
  every durable ack before the next send, and re-sends about one batch
  in 50 to exercise the WAL's dedupe;
* the querier (open loop) asks for seeded device ids at a fixed rate;
  each latency is timed from the query's due time.

After the stream the daemon is shut down and restarted with
``--resume`` from the same WAL, again and again for the rest of the run
(at least :data:`RESTARTS` times); each recovery is timed until its
digest is served.
"""

from __future__ import annotations

import json
import random
import selectors
import shutil
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import common
import spans

#: Input rows and devices streamed (22 days), small enough that the
#: stream and four restarts fit in a run.
TARGET_ROWS = 50_000
TARGET_DEVICES = 170
#: Rows per ingest batch: about 15 batches per simulated day.
BATCH_ROWS = 150
#: One unique batch in this many is re-sent after its ack.
RESEND_EVERY = 50
#: Open-loop query rate (queries per second).
QUERY_RATE = 10.0
#: Latency limit on the query p90; a refused or failed query counts as
#: beyond it, and a generator that ran later than it flags the run.
QUERY_LIMIT_MS = 1000.0
#: The stream is timed in chunks of this many batches, each between two
#: host-speed probes (``common.HostClock``).
CHUNK_BATCHES = 25
#: Fewest timed restarts from the stream's WAL in a run.
RESTARTS = 4
#: Seconds to wait for a daemon to announce its port, or to exit.
DAEMON_DEADLINE_S = 60.0
#: Client socket timeout: a request unanswered this long is a failure.
REQUEST_TIMEOUT_S = 60.0

#: healthz counters of daemon-side failures (sheds are counted from the
#: replies the collector sees).
DAEMON_INCIDENTS = (
    "task_restarts", "snapshot_failures", "torn_checkpoints",
    "storage_faults", "disk_pressure_events", "scrub_damage_events",
)

LAUNCHER = Path(__file__).resolve().parent / "launcher.py"


class LineClient:
    """One line-JSON connection to the daemon (request, then reply)."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=REQUEST_TIMEOUT_S)
        self.reader = self.sock.makefile("rb")

    def call_line(self, line: bytes) -> Dict[str, Any]:
        self.sock.sendall(line)
        reply = self.reader.readline()
        if not reply:
            raise ConnectionError("daemon closed the connection")
        return json.loads(reply)

    def call(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        return self.call_line(json.dumps(payload).encode("utf-8") + b"\n")

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


class Daemon:
    """A daemon child process, started and awaited until it listens."""

    def __init__(
        self,
        env: Dict[str, str],
        wal_dir: Path,
        resume: bool,
        trace_out: Optional[Path],
        log_path: Path,
    ) -> None:
        cli = ["--uk-sites", str(common.UK_SITES), "serve", "--checkpoint-dir", str(wal_dir)]
        if resume:
            cli.append("--resume")
        if trace_out is None:
            cmd = [sys.executable, "-m", "repro"] + cli
        else:
            cmd = [sys.executable, str(LAUNCHER), "--trace-out", str(trace_out)] + cli
        self.log = open(log_path, "ab")
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=self.log, env=env, cwd=str(common.ROOT)
        )
        try:
            self.port = self._await_port()
        except BaseException:
            self.kill()
            raise

    def _await_port(self) -> int:
        assert self.proc.stdout is not None
        selector = selectors.DefaultSelector()
        selector.register(self.proc.stdout, selectors.EVENT_READ)
        deadline = time.monotonic() + DAEMON_DEADLINE_S
        try:
            while time.monotonic() < deadline:
                if not selector.select(timeout=deadline - time.monotonic()):
                    break
                line = self.proc.stdout.readline()
                if not line:
                    raise RuntimeError("daemon exited before listening")
                text = line.decode("utf-8", "replace").strip()
                if text.startswith("catalog daemon listening on"):
                    return int(text.rsplit(":", 1)[1])
        finally:
            selector.close()
        raise RuntimeError("daemon did not announce its port in time")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def cpu_s(self) -> float:
        return spans.process_cpu_s(self.proc.pid)

    def shutdown(self) -> None:
        try:
            client = LineClient(self.port)
            try:
                client.call({"op": "shutdown"})
            finally:
                client.close()
            self.proc.wait(timeout=DAEMON_DEADLINE_S)
        finally:
            self.kill()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=DAEMON_DEADLINE_S)
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self.log.close()


def encode_batches(dataset: Any, rng: random.Random) -> List[Tuple[int, str, int, bytes]]:
    """The stream: (day, batch id, rows, request line), shuffled per day."""
    from repro.datasets.io import radio_event_to_dict, service_record_to_dict

    by_day: Dict[int, List[Dict[str, Any]]] = {}
    for event in dataset.radio_events:
        row = radio_event_to_dict(event)
        row["kind"] = "radio"
        by_day.setdefault(event.day, []).append(row)
    for record in dataset.service_records:
        row = service_record_to_dict(record)
        row["kind"] = "service"
        by_day.setdefault(record.day, []).append(row)
    stream: List[Tuple[int, str, int, bytes]] = []
    for day in sorted(by_day):
        rows = by_day[day]
        day_batches = []
        for index, start in enumerate(range(0, len(rows), BATCH_ROWS)):
            chunk = rows[start:start + BATCH_ROWS]
            batch_id = f"d{day:03d}-b{index:03d}"
            line = json.dumps({"op": "ingest", "batch_id": batch_id, "rows": chunk})
            day_batches.append((day, batch_id, len(chunk), line.encode("utf-8") + b"\n"))
        rng.shuffle(day_batches)
        stream.extend(day_batches)
    return stream


class Querier(threading.Thread):
    """Open-loop point queries at :data:`QUERY_RATE`, timed from due time."""

    def __init__(self, port: int, device_ids: List[str], rng: random.Random) -> None:
        super().__init__(name="querier", daemon=True)
        self.client = LineClient(port)
        self.device_ids = device_ids
        self.rng = rng
        self.stop_event = threading.Event()
        self.latencies_ms: List[float] = []
        self.lateness_ms: List[float] = []
        self.failed = 0
        self.answered = 0
        self.not_found = 0

    def run(self) -> None:
        start = time.perf_counter()
        k = 0
        try:
            while not self.stop_event.is_set():
                due = start + k / QUERY_RATE
                k += 1
                wait = due - time.perf_counter()
                if wait > 0 and self.stop_event.wait(wait):
                    break
                sent = time.perf_counter()
                self.lateness_ms.append((sent - due) * 1e3)
                device_id = self.rng.choice(self.device_ids)
                try:
                    reply = self.client.call({"op": "query", "device_id": device_id})
                except (OSError, ValueError):
                    reply = {"status": "error"}
                done = time.perf_counter()
                status = reply.get("status")
                if status in ("ok", "not_found"):
                    self.answered += 1
                    self.not_found += status == "not_found"
                    self.latencies_ms.append((done - due) * 1e3)
                else:
                    self.failed += 1
                    self.latencies_ms.append(float("inf"))
        finally:
            self.client.close()


class ServeRun:
    """One ``serve`` run: set-up, stream, restart, checks, metrics."""

    def __init__(self, seed: int, result: common.Result, env: Dict[str, str]) -> None:
        self.seed = seed
        self.result = result
        self.env = env
        self.workdir = common.fresh_dir("serve")
        self.daemons: List[Daemon] = []
        self.n_wals = 0
        self.clock = common.HostClock()

    def spawn(self, resume: bool = False, wal: Optional[Path] = None,
              trace_out: Optional[Path] = None) -> Tuple[Daemon, Path]:
        if wal is None:
            self.n_wals += 1
            wal = self.workdir / f"wal-{self.n_wals}"
        daemon = Daemon(self.env, wal, resume, trace_out, self.workdir / "daemon.log")
        self.daemons.append(daemon)
        return daemon, wal

    def close(self) -> None:
        for daemon in self.daemons:
            daemon.kill()
        shutil.rmtree(self.workdir, ignore_errors=True)

    # -- set-up ---------------------------------------------------------------

    def setup(self) -> Tuple[Daemon, Path]:
        """World build plus daemon spawn-to-ready, repeated; keeps the last."""
        times: List[float] = []
        daemon: Optional[Daemon] = None
        wal: Optional[Path] = None
        clock = common.HostClock()
        for _ in range(common.SETUP_REPEATS):
            if daemon is not None:
                daemon.shutdown()
            clock.start()
            self.eco, self.dataset = common.build_world(self.seed, TARGET_ROWS, TARGET_DEVICES)
            daemon, wal = self.spawn()
            times.append(clock.stop_ref())
        assert daemon is not None and wal is not None
        self.setup_times = times
        self.rows = common.n_rows(self.dataset)
        return daemon, wal

    def reference(self) -> None:
        """Digest of an in-process build over the same world (untimed)."""
        from repro.core.catalog import CatalogBuilder
        from repro.core.roaming import RoamingLabeler
        from repro.service.daemon import catalog_digest

        labeler = RoamingLabeler(self.eco.operators, self.eco.uk_mno)
        builder = CatalogBuilder(self.eco.tac_db, self.eco.uk_sectors, labeler)
        self.ref_digest = catalog_digest(
            *builder.build(self.dataset.radio_events, self.dataset.service_records)
        )
        rng = random.Random(self.seed)
        self.stream = encode_batches(self.dataset, rng)
        self.resend = {
            batch_id for _, batch_id, _, _ in self.stream if rng.randrange(RESEND_EVERY) == 0
        }
        self.device_ids = sorted(
            {e.device_id for e in self.dataset.radio_events}
            | {r.device_id for r in self.dataset.service_records}
        )

    # -- the stream -----------------------------------------------------------

    def send(self, client: LineClient, batch_id: str, line: bytes) -> Tuple[Dict[str, Any], float]:
        """Send one batch until the daemon answers other than shed/retry."""
        for _ in range(100):
            start = time.perf_counter()
            try:
                reply = client.call_line(line)
            except (OSError, ValueError) as exc:
                reply = {"status": "error", "error": repr(exc)}
            elapsed = time.perf_counter() - start
            self.result.attempted += 1
            status = reply.get("status")
            if status in ("shed", "retry"):
                self.result.failed += 1
                self.retries += status == "retry"
                time.sleep(float(reply.get("retry_after_s", 0.05)))
                continue
            if status != "ok":
                self.result.failed += 1
            return reply, elapsed
        return {"status": "error", "error": f"{batch_id} never accepted"}, 0.0

    def stream_once(self, daemon: Daemon) -> Dict[str, Any]:
        """Stream every batch with queries running; returns the figures.

        The stream is timed in chunks of :data:`CHUNK_BATCHES` batches
        between host-speed probes; each chunk's acks and length are scaled
        to reference-host time by its own factor.  ``wall_s`` is raw.
        """
        self.retries = 0
        collector = LineClient(daemon.port)
        querier = Querier(daemon.port, self.device_ids, random.Random(self.seed + 1))
        acks_ms: List[float] = []
        factors: List[float] = []
        window = 0.0
        wall = 0.0
        unique_rows = 0
        cpu_before = daemon.cpu_s()
        querier.start()
        try:
            self.clock.start()
            for start in range(0, len(self.stream), CHUNK_BATCHES):
                chunk_acks: List[float] = []
                for _, batch_id, rows, line in self.stream[start:start + CHUNK_BATCHES]:
                    reply, elapsed = self.send(collector, batch_id, line)
                    self.result.check(
                        reply.get("status") == "ok" and not reply.get("duplicate"),
                        f"batch {batch_id}: expected a first ack, got {reply}",
                    )
                    chunk_acks.append(elapsed * 1e3)
                    unique_rows += rows
                    if batch_id in self.resend:
                        again, _ = self.send(collector, batch_id, line)
                        self.result.check(
                            again.get("status") == "ok" and again.get("duplicate") is True,
                            f"batch {batch_id}: re-send not acked as a duplicate: {again}",
                        )
                chunk_wall, factor = self.clock.lap()
                acks_ms.extend(ms * factor for ms in chunk_acks)
                factors.append(factor)
                window += chunk_wall * factor
                wall += chunk_wall
        finally:
            querier.stop_event.set()
            querier.join(timeout=REQUEST_TIMEOUT_S)
            collector.close()
        cpu = daemon.cpu_s() - cpu_before
        self.result.check(not querier.is_alive(), "query thread did not stop")
        return {
            "window_s": window,
            "wall_s": wall,
            "factors": factors,
            "cpu_s": cpu,
            "unique_rows": unique_rows,
            "acks_ms": acks_ms,
            "querier": querier,
        }

    def check_digest(self, daemon: Daemon, when: str) -> Dict[str, Any]:
        client = LineClient(daemon.port)
        try:
            reply = client.call({"op": "digest"})
            health = client.call({"op": "healthz"})["healthz"]
        finally:
            client.close()
        self.result.check(
            reply.get("digest") == self.ref_digest,
            f"{when}: daemon digest differs from the in-process build",
        )
        return health

    def recover(self, wal: Path, trace_out: Optional[Path]) -> Tuple[float, Daemon]:
        """Restart from ``wal``; reference-host seconds until the digest."""
        clock = self.clock
        clock.start()
        daemon, _ = self.spawn(resume=True, wal=wal, trace_out=trace_out)
        client = LineClient(daemon.port)
        try:
            reply = client.call({"op": "digest"})
        finally:
            client.close()
        recovery = clock.stop_ref()
        self.result.check(
            reply.get("digest") == self.ref_digest,
            "after restart: daemon digest differs from the in-process build",
        )
        return recovery, daemon

    def account(self, figures: Dict[str, Any], health: Dict[str, Any]) -> None:
        """Queries and daemon incidents into attempted/failed."""
        querier: Querier = figures["querier"]
        self.result.attempted += querier.answered + querier.failed
        self.result.failed += querier.failed
        late = sum(1 for ms in querier.lateness_ms if ms > QUERY_LIMIT_MS)
        if late:
            # The generator fell behind its schedule by more than the
            # limit: the open-loop latencies are not clean.
            self.result.failed += late
            self.result.meta.setdefault("flags", []).append(f"loadgen_late:{late}")
        self.result.failed += sum(health.get(field, 0) for field in DAEMON_INCIDENTS)
        self.result.check(
            health.get("rows_ingested") == figures["unique_rows"],
            f"daemon ingested {health.get('rows_ingested')} rows, "
            f"{figures['unique_rows']} were sent",
        )

    # -- modes -----------------------------------------------------------------

    def restart(self, wal: Path) -> Tuple[float, float]:
        """One timed restart from ``wal``, checked; (seconds, peak RSS MiB)."""
        recovery, daemon = self.recover(wal, None)
        health = self.check_digest(daemon, "after restart")
        self.result.check(
            health.get("batches_replayed") == len(self.stream),
            f"restart replayed {health.get('batches_replayed')} of {len(self.stream)} batches",
        )
        rss = daemon.peak_rss_mb()
        daemon.shutdown()
        return recovery, rss

    def run_plain(self, seconds: float) -> None:
        """One stream, then restarts from its WAL for the rest of ``seconds``.

        At least :data:`RESTARTS` restarts run; another starts only when
        one more of the median length would still end within ``seconds``.
        """
        daemon, wal = self.setup()
        self.reference()
        start = time.perf_counter()
        figures = self.stream_once(daemon)
        health = self.check_digest(daemon, "after the stream")
        rss = daemon.peak_rss_mb()
        daemon.shutdown()
        self.account(figures, health)
        recoveries: List[float] = []
        lengths: List[float] = []
        while (len(recoveries) < RESTARTS
               or time.perf_counter() - start + common.median(lengths) <= seconds):
            restart_start = time.perf_counter()
            recovery, restart_rss = self.restart(wal)
            recoveries.append(recovery)
            rss = max(rss, restart_rss)
            lengths.append(time.perf_counter() - restart_start)
        acks = figures["acks_ms"]
        r = self.result
        r.put("setup_s", common.median(self.setup_times), "s")
        r.put("rows_per_s", figures["unique_rows"] / figures["window_s"], "rows/s")
        r.put("ack_p50_ms", common.percentile(acks, 50), "ms")
        r.put("recovery_s", common.median(recoveries), "s")
        r.put("peak_rss_mb", rss, "MiB")
        r.meta.update(self.query_meta([figures["querier"]]))
        # Only the stream has enough acks for a tail: ten or more beyond p95.
        r.meta["ack_p95_ms"] = common.percentile(acks, 95)
        r.meta["ack_samples"] = len(acks)
        r.meta["stream_s"] = figures["window_s"]
        r.meta["stream_wall_s"] = figures["wall_s"]
        r.meta["chunk_host_factors"] = figures["factors"]
        r.meta["recovery_samples_s"] = recoveries
        r.meta["recovery_wall_samples_s"] = self.clock.walls[-len(recoveries):]
        r.meta["recovery_host_factors"] = self.clock.factors[-len(recoveries):]
        r.meta["daemon_cpu_s"] = figures["cpu_s"]

    def query_meta(self, queriers: List[Querier]) -> Dict[str, Any]:
        lat = [ms for q in queriers for ms in q.latencies_ms] or [float("inf")]
        late = [ms for q in queriers for ms in q.lateness_ms]
        p90 = common.percentile(lat, 90)
        return {
            "query_p50_ms": common.percentile(lat, 50),
            "query_p90_ms": p90,
            "query_samples": sum(len(q.latencies_ms) for q in queriers),
            "query_not_found": sum(q.not_found for q in queriers),
            "query_limit_ms": QUERY_LIMIT_MS,
            "query_p90_within_limit": p90 <= QUERY_LIMIT_MS,
            "query_late_p90_ms": common.percentile(late or [0.0], 90),
            "query_late_max_ms": max(late, default=0.0),
        }

    def run_traced(self) -> None:
        """An untraced stream for the overhead, then a traced stream and restart."""
        daemon, _ = self.setup()
        self.reference()
        plain = self.stream_once(daemon)
        self.check_digest(daemon, "after the untraced stream")
        daemon.shutdown()
        stream_trace = self.workdir / "trace-stream.json"
        daemon, wal = self.spawn(trace_out=stream_trace)
        figures = self.stream_once(daemon)
        health = self.check_digest(daemon, "after the traced stream")
        daemon.shutdown()
        self.account(figures, health)
        recovery_trace = self.workdir / "trace-recovery.json"
        _, restarted = self.recover(wal, recovery_trace)
        self.check_digest(restarted, "after the traced restart")
        restarted.shutdown()
        stream = json.loads(stream_trace.read_text())
        recovered = json.loads(recovery_trace.read_text())
        merged = merge_stats(stream["stats"], recovered["stats"])
        values = self.layer_values(stream, recovered, merged, figures, plain, health)
        for name, unit in spans.PER_LAYER:
            self.result.put(name, values.get(name, 0.0), unit)
        missing = spans.missing_required("serve", merged)
        self.result.check(not missing, f"trace completeness: no calls recorded for {missing}")
        out = common.WORK / f"trace-serve-seed{self.seed}.json"
        out.write_text(json.dumps({"stream": stream, "recovery": recovered}))
        self.result.meta["trace_file"] = str(out.relative_to(common.ROOT))

    def layer_values(self, stream: Dict[str, Any], recovered: Dict[str, Any],
                     merged: Dict[str, Dict[str, Any]], figures: Dict[str, Any],
                     plain: Dict[str, Any], health: Dict[str, Any]) -> Dict[str, float]:
        """Per-layer values: span totals over the traced stream and restart."""
        values = spans.span_values(merged)
        labels = {k: stream["labels"][k] + recovered["labels"][k] for k in ("hits", "misses")}
        label_calls = labels["hits"] + labels["misses"]
        values["core.roaming.label_calls"] = label_calls
        values["core.roaming.label_hit_rate"] = labels["hits"] / label_calls if label_calls else 0.0
        waits_ms = [ns / 1e6 for ns in stream["queue_waits_ns"]]
        if waits_ms:
            values["service.queue_wait_p50_ms"] = common.percentile(waits_ms, 50)
            values["service.queue_wait_p95_ms"] = common.percentile(waits_ms, 95)
        values["service.queue_depth_max"] = stream["queue_depth_max"]
        values["service.rows_rejected"] = merged.get("service.rows_rejected", {}).get("units", 0)
        folded = stream["stats"].get("core.catalog.update", {}).get("units", 0)
        values["service.fold_amplification"] = folded / figures["unique_rows"]
        querier: Querier = figures["querier"]
        snapshots = stream["stats"].get("core.catalog.snapshot", {}).get("calls", 0)
        values["service.refresh_per_query"] = snapshots / max(querier.answered, 1)
        values["service.sheds"] = health.get("shed_batches", 0)
        values["service.retries"] = self.retries
        values["runtime.storage_retries"] = health.get("storage_faults", 0)
        meta = self.query_meta([querier])
        for key in ("query_p50_ms", "query_p90_ms", "query_samples",
                    "query_late_p90_ms", "query_late_max_ms"):
            values[f"loadgen.{key}"] = meta[key]
        values["proc.cpu_s"] = figures["cpu_s"]
        values["proc.cpu_util"] = figures["cpu_s"] / figures["wall_s"]
        wall = stream["window_ns"] / 1e9
        values["trace.unattributed_frac"] = max(0.0, wall - stream["attributed_ns"] / 1e9) / wall
        values["trace.overhead_frac"] = figures["window_s"] / plain["window_s"] - 1.0
        values["failed_frac"] = self.result.failed / max(self.result.attempted, 1)
        return values


def merge_stats(*dumps: Dict[str, Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    merged: Dict[str, Dict[str, Any]] = {}
    for stats in dumps:
        for name, stat in stats.items():
            into = merged.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "units": 0})
            for key in into:
                into[key] += stat[key]
    return merged


def run(seed: int, seconds: float, traced: bool, result: common.Result, env: Dict[str, str]) -> None:
    serve = ServeRun(seed, result, env)
    try:
        if traced:
            serve.run_traced()
        else:
            serve.run_plain(seconds)
        result.meta.update(
            devices=serve.dataset.n_devices, input_rows=serve.rows,
            batches=len(serve.stream), resent=len(serve.resend),
            batch_rows=BATCH_ROWS, setup_samples_s=serve.setup_times,
        )
    finally:
        serve.close()
