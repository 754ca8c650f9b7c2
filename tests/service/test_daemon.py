"""CatalogDaemon end-to-end: socket API, durable acks, restart recovery.

Each test drives a real daemon over a real loopback socket inside one
``asyncio.run`` — the daemon's own event loop — so daemon internals
(health gauges, queue counters) stay readable without cross-thread
games.  The external, blocking :class:`CatalogClient` gets its own
coverage in the chaos suite where the daemon lives in a subprocess.
"""

import asyncio
import json
import random
from collections import Counter

import pytest

from repro.core.catalog import CatalogBuilder
from repro.core.roaming import RoamingLabeler
from repro.service import CatalogDaemon, ServiceConfig, catalog_digest

from tests.service.test_protocol import GOOD_RADIO, GOOD_SERVICE

FAST_CONFIG = dict(snapshot_interval_s=0.1)


def reference_digest(eco, dataset):
    labeler = RoamingLabeler(eco.operators, eco.uk_mno)
    builder = CatalogBuilder(eco.tac_db, eco.uk_sectors, labeler)
    records, summaries = builder.build(
        dataset.radio_events, dataset.service_records
    )
    return catalog_digest(records, summaries)


async def request(port, payload):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(json.dumps(payload).encode("utf-8") + b"\n")
        await writer.drain()
        line = await reader.readline()
    finally:
        writer.close()
    return json.loads(line.decode("utf-8"))


async def ingest(port, batch_id, rows):
    return await request(
        port, {"op": "ingest", "batch_id": batch_id, "rows": rows}
    )


def test_ingest_matches_uninterrupted_build(tmp_path, svc_eco, svc_dataset, svc_batches):
    async def scenario():
        daemon = CatalogDaemon(
            svc_eco, str(tmp_path / "wal"), ServiceConfig(**FAST_CONFIG)
        )
        await daemon.start()
        try:
            total_rows = 0
            for batch_id, rows in svc_batches:
                response = await ingest(daemon.port, batch_id, rows)
                assert response["status"] == "ok", response
                assert response["ingest"]["n_quarantined"] == 0
                total_rows += len(rows)
            answer = await request(daemon.port, {"op": "digest"})
            assert daemon.health.batches_acked == len(svc_batches)
            assert daemon.health.rows_ingested == total_rows
            return answer["digest"]
        finally:
            await daemon.stop()

    digest = asyncio.run(scenario())
    assert digest == reference_digest(svc_eco, svc_dataset)


def test_duplicate_batch_acks_without_reapplying(tmp_path, svc_eco, svc_batches):
    async def scenario():
        daemon = CatalogDaemon(
            svc_eco, str(tmp_path / "wal"), ServiceConfig(**FAST_CONFIG)
        )
        await daemon.start()
        try:
            batch_id, rows = svc_batches[0]
            first = await ingest(daemon.port, batch_id, rows)
            again = await ingest(daemon.port, batch_id, rows)
            assert first["status"] == "ok" and "duplicate" not in first
            assert again == {"status": "ok", "duplicate": True}
            assert daemon.health.batches_acked == 1
            assert daemon.wal.next_seq == 1
        finally:
            await daemon.stop()

    asyncio.run(scenario())


def test_hostile_batch_quarantines_and_acks(tmp_path, svc_eco):
    async def scenario():
        daemon = CatalogDaemon(
            svc_eco, str(tmp_path / "wal"), ServiceConfig(**FAST_CONFIG)
        )
        await daemon.start()
        try:
            rows = [
                GOOD_RADIO,
                "garbage",
                dict(GOOD_RADIO, iface="9G"),
                dict(GOOD_SERVICE, duration_s=-1.0),
            ]
            response = await ingest(daemon.port, "b-hostile", rows)
            assert response["status"] == "ok"
            quarantine = response["ingest"]
            assert quarantine["n_rows"] == 4 and quarantine["n_ok"] == 1
            assert quarantine["counts_by_kind"] == {
                "parse": 1, "schema": 1, "semantic": 1,
            }
            # The daemon is still alive and serving.
            health = await request(daemon.port, {"op": "healthz"})
            assert health["healthz"]["batches_acked"] == 1
        finally:
            await daemon.stop()

    asyncio.run(scenario())


def test_malformed_requests_get_typed_errors(tmp_path, svc_eco):
    async def scenario():
        daemon = CatalogDaemon(
            svc_eco, str(tmp_path / "wal"), ServiceConfig(**FAST_CONFIG)
        )
        await daemon.start()
        try:
            port = daemon.port
            cases = [
                ({"op": "nope"}, "unknown op"),
                ({"op": "ingest", "rows": []}, "batch_id"),
                ({"op": "ingest", "batch_id": "b", "rows": "x"}, "rows list"),
                ({"op": "query"}, "device_id"),
                ({"op": "footprint"}, "sim_plmn"),
                ({"rows": []}, "unknown op"),
            ]
            for payload, needle in cases:
                response = await request(port, payload)
                assert response["status"] == "error"
                assert needle in response["error"]
            # Non-JSON and non-object lines answer too, then the
            # connection stays usable for well-formed requests.
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(b"this is not json\n")
            await writer.drain()
            bad = json.loads((await reader.readline()).decode("utf-8"))
            assert bad["status"] == "error"
            writer.write(b"[1, 2, 3]\n")
            await writer.drain()
            not_object = json.loads((await reader.readline()).decode("utf-8"))
            assert not_object["status"] == "error"
            writer.write(json.dumps({"op": "readyz"}).encode("utf-8") + b"\n")
            await writer.drain()
            ready = json.loads((await reader.readline()).decode("utf-8"))
            assert ready["readyz"]["ready"] is True
            writer.close()
        finally:
            await daemon.stop()

    asyncio.run(scenario())


def test_oversized_request_is_rejected_not_fatal(tmp_path, svc_eco):
    async def scenario():
        config = ServiceConfig(max_request_bytes=4096, **FAST_CONFIG)
        daemon = CatalogDaemon(svc_eco, str(tmp_path / "wal"), config)
        await daemon.start()
        try:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", daemon.port
            )
            writer.write(b"x" * 10_000 + b"\n")
            await writer.drain()
            response = json.loads((await reader.readline()).decode("utf-8"))
            assert response["status"] == "rejected"
            assert "4096" in response["error"]
            writer.close()
            # The daemon survived and serves fresh connections.
            ready = await request(daemon.port, {"op": "readyz"})
            assert ready["readyz"]["ready"] is True
        finally:
            await daemon.stop()

    asyncio.run(scenario())


def test_oversized_batch_rejected_by_row_count(tmp_path, svc_eco):
    async def scenario():
        config = ServiceConfig(max_batch_rows=3, **FAST_CONFIG)
        daemon = CatalogDaemon(svc_eco, str(tmp_path / "wal"), config)
        await daemon.start()
        try:
            response = await ingest(daemon.port, "b-big", [GOOD_RADIO] * 4)
            assert response["status"] == "rejected"
            assert "limit is 3" in response["error"]
        finally:
            await daemon.stop()

    asyncio.run(scenario())


def test_http_probe_shim(tmp_path, svc_eco):
    async def scenario():
        daemon = CatalogDaemon(
            svc_eco, str(tmp_path / "wal"), ServiceConfig(**FAST_CONFIG)
        )
        await daemon.start()
        try:
            async def http_get(path):
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", daemon.port
                )
                writer.write(f"GET {path} HTTP/1.0\r\n\r\n".encode("latin-1"))
                await writer.drain()
                raw = await reader.read()
                writer.close()
                head, _, body = raw.partition(b"\r\n\r\n")
                status = int(head.split()[1])
                return status, json.loads(body.decode("utf-8"))

            status, body = await http_get("/healthz")
            assert status == 200 and body["status"] == "ok"
            status, body = await http_get("/readyz")
            assert status == 200 and body["ready"] is True
            status, body = await http_get("/metrics")
            assert status == 404
            # Readiness drops during shutdown.
            daemon.health.shutting_down = True
            status, body = await http_get("/readyz")
            assert status == 503 and body["ready"] is False
            daemon.health.shutting_down = False
        finally:
            await daemon.stop()

    asyncio.run(scenario())


def test_backpressure_sheds_with_retry_guidance(tmp_path, svc_eco, svc_batches):
    """With no drain consumer, the queue saturates and ingest sheds."""

    async def scenario():
        config = ServiceConfig(
            queue_high_watermark=2,
            queue_low_watermark=1,
            batch_deadline_s=0.05,
            shed_retry_after_s=0.25,
            **FAST_CONFIG,
        )
        daemon = CatalogDaemon(svc_eco, str(tmp_path / "wal"), config)
        # Open the WAL but never start the drain loop: every accepted
        # batch stays queued, as if the consumer stalled mid-storm.
        from repro.service.wal import BatchLog

        daemon.wal = BatchLog(str(tmp_path / "wal"))
        try:
            accepted = []
            for index in range(2):
                response = await daemon._op_ingest(
                    {"batch_id": f"b-{index}", "rows": [GOOD_RADIO]}
                )
                assert response["status"] == "retry"  # queued, deadline hit
                accepted.append(response["batch_id"])
            shed = await daemon._op_ingest(
                {"batch_id": "b-over", "rows": [GOOD_RADIO]}
            )
            assert shed["status"] == "shed"
            assert shed["retry_after_s"] == 0.25
            assert shed["queue_depth"] == 2
            health = daemon.health.healthz()
            assert health["status"] == "degraded"
            assert health["queue_saturations"] == 1
            assert health["shed_batches"] == 1
            # A second over-limit batch sheds again but the episode is
            # counted once.
            await daemon._op_ingest({"batch_id": "b-over2", "rows": []})
            assert daemon.health.healthz()["queue_saturations"] == 1
            assert daemon.health.healthz()["shed_batches"] == 2
            # An in-flight duplicate re-send awaits the same pending ack
            # instead of re-queueing.
            again = await daemon._op_ingest(
                {"batch_id": "b-0", "rows": [GOOD_RADIO]}
            )
            assert again["status"] == "retry"
            assert daemon.queue.depth == 2
        finally:
            daemon.wal.close()

    asyncio.run(scenario())


def test_restart_replays_to_identical_catalog(tmp_path, svc_eco, svc_dataset, svc_batches):
    """Stop mid-stream, restart with resume, catalog state is identical."""

    wal_dir = str(tmp_path / "wal")
    half = len(svc_batches) // 2 or 1

    async def first_life():
        daemon = CatalogDaemon(svc_eco, wal_dir, ServiceConfig(**FAST_CONFIG))
        await daemon.start()
        try:
            for batch_id, rows in svc_batches[:half]:
                response = await ingest(daemon.port, batch_id, rows)
                assert response["status"] == "ok"
            answer = await request(daemon.port, {"op": "digest"})
            return answer["digest"]
        finally:
            await daemon.stop()

    async def second_life():
        daemon = CatalogDaemon(
            svc_eco, wal_dir, ServiceConfig(**FAST_CONFIG), resume=True
        )
        await daemon.start()
        try:
            assert daemon.health.batches_replayed == half
            replayed = await request(daemon.port, {"op": "digest"})
            # Acked batches re-sent after restart dedupe durably.
            dup = await ingest(daemon.port, *svc_batches[0])
            assert dup == {"status": "ok", "duplicate": True}
            # The rest of the stream ingests normally.
            for batch_id, rows in svc_batches[half:]:
                response = await ingest(daemon.port, batch_id, rows)
                assert response["status"] == "ok"
            final = await request(daemon.port, {"op": "digest"})
            return replayed["digest"], final["digest"]
        finally:
            await daemon.stop()

    digest_before = asyncio.run(first_life())
    digest_replayed, digest_final = asyncio.run(second_life())
    assert digest_replayed == digest_before
    assert digest_final == reference_digest(svc_eco, svc_dataset)


def test_query_and_footprint_answers(tmp_path, svc_eco, svc_dataset, svc_batches):
    async def scenario():
        daemon = CatalogDaemon(
            svc_eco, str(tmp_path / "wal"), ServiceConfig(**FAST_CONFIG)
        )
        await daemon.start()
        try:
            for batch_id, rows in svc_batches:
                await ingest(daemon.port, batch_id, rows)
            device_id = svc_dataset.radio_events[0].device_id
            answer = await request(
                daemon.port, {"op": "query", "device_id": device_id}
            )
            assert answer["status"] == "ok"
            assert answer["device_id"] == device_id
            assert ":" in answer["label"]  # "<X:Y>" roaming label
            assert answer["class"]
            assert answer["active_days"] >= 1
            missing = await request(
                daemon.port, {"op": "query", "device_id": "no-such-device"}
            )
            assert missing["status"] == "not_found"

            sim_plmn = answer["sim_plmn"]
            footprint = await request(
                daemon.port, {"op": "footprint", "sim_plmn": sim_plmn}
            )
            assert footprint["status"] == "ok"
            assert footprint["n_devices"] >= 1
            assert sum(footprint["labels"].values()) == footprint["n_devices"]
            assert sum(footprint["classes"].values()) == footprint["n_devices"]
            empty = await request(
                daemon.port, {"op": "footprint", "sim_plmn": "00000"}
            )
            assert empty["n_devices"] == 0
        finally:
            await daemon.stop()

    asyncio.run(scenario())


def test_shutdown_op_stops_the_daemon(tmp_path, svc_eco):
    async def scenario():
        daemon = CatalogDaemon(
            svc_eco, str(tmp_path / "wal"), ServiceConfig(**FAST_CONFIG)
        )
        await daemon.start()
        port = daemon.port
        response = await request(port, {"op": "shutdown"})
        assert response == {"status": "ok", "op": "shutdown"}
        await asyncio.wait_for(daemon.serve_until_stopped(), timeout=5.0)
        assert daemon.health.shutting_down
        assert not daemon.health.readyz()["ready"]
        with pytest.raises(OSError):
            await request(port, {"op": "readyz"})

    asyncio.run(scenario())


def test_supervisor_failure_drops_readiness(tmp_path, svc_eco):
    """A drain loop that dies permanently surfaces through serve_until_stopped."""

    async def scenario():
        config = ServiceConfig(
            restart_max_attempts=1,
            restart_base_delay_s=0.001,
            restart_max_delay_s=0.01,
            **FAST_CONFIG,
        )
        # on_batch seam raising models a poisoned WAL append path.
        daemon = CatalogDaemon(
            svc_eco,
            str(tmp_path / "wal"),
            config,
            on_batch=lambda batch_id, seq: (_ for _ in ()).throw(
                RuntimeError("wal device gone")
            ),
        )
        await daemon.start()
        serve = asyncio.get_running_loop().create_task(
            daemon.serve_until_stopped()
        )
        try:
            # First crash consumes the restart budget; the second is
            # terminal (each poisoned batch kills the drain loop once).
            for index in range(2):
                response = await ingest(daemon.port, f"b-{index}", [GOOD_RADIO])
                assert response["status"] in ("error", "retry")
            with pytest.raises(RuntimeError, match="drain"):
                await asyncio.wait_for(serve, timeout=5.0)
            assert daemon.health.run_health.task_restarts >= 1
            assert not daemon.health.readyz()["ready"]
        finally:
            serve.cancel()
            await daemon.stop()

    asyncio.run(scenario())


def test_snapshot_loop_advances_watermark(tmp_path, svc_eco, svc_batches):
    async def scenario():
        daemon = CatalogDaemon(
            svc_eco, str(tmp_path / "wal"), ServiceConfig(**FAST_CONFIG)
        )
        await daemon.start()
        try:
            await ingest(daemon.port, *svc_batches[0])
            for _ in range(100):
                if daemon.health.snapshots_completed > 0:
                    break
                await asyncio.sleep(0.05)
            assert daemon.health.snapshots_completed > 0
            assert daemon.health.last_snapshot_seq == 0  # one batch: seq 0
        finally:
            await daemon.stop()

    asyncio.run(scenario())


def split_batches(batches, parts=3):
    """Each day's batch dealt round-robin into ``parts`` smaller batches.

    Dealing (not slicing) mixes radio and service rows in every part,
    so each day is written by several batches, as a collector's
    micro-batches would write it.
    """
    return [
        (f"{batch_id}-{part}", rows[part::parts])
        for batch_id, rows in batches
        for part in range(parts)
        if rows[part::parts]
    ]


def count_updates(daemon):
    """Wrap the daemon builder's ``update``; returns the live call list."""
    calls = []
    real_update = daemon._builder.update

    def counting_update(day, radio_events, service_records):
        calls.append(day)
        return real_update(day, radio_events, service_records)

    daemon._builder.update = counting_update
    return calls


@pytest.mark.parametrize("read_after_each_ack", [False, True])
def test_lazy_fold_matches_build_and_reads_see_acked_writes(
    tmp_path, svc_eco, svc_dataset, svc_batches, read_after_each_ack
):
    """Shuffled micro-batches with re-sends fold to the batch catalog.

    With a query after every ack, each answer must already count the
    acked batch's radio rows for the queried device (read-your-writes).
    """
    rng = random.Random(1234)
    stream = split_batches(svc_batches)
    rng.shuffle(stream)
    resends = rng.sample(range(len(stream)), 4)
    for index in sorted(resends, reverse=True):
        later = rng.randint(index + 1, len(stream))
        stream.insert(later, stream[index])
    n_unique = len({batch_id for batch_id, _ in stream})
    assert n_unique == len(stream) - len(resends)

    async def scenario():
        daemon = CatalogDaemon(
            svc_eco, str(tmp_path / "wal"), ServiceConfig(**FAST_CONFIG)
        )
        await daemon.start()
        try:
            seen = set()
            radio_counts = Counter()
            for batch_id, rows in stream:
                response = await ingest(daemon.port, batch_id, rows)
                assert response["status"] == "ok", response
                if batch_id in seen:
                    assert response == {"status": "ok", "duplicate": True}
                    continue
                seen.add(batch_id)
                radio = [row for row in rows if row["kind"] == "radio"]
                radio_counts.update(row["device_id"] for row in radio)
                if read_after_each_ack and radio:
                    device_id = radio[0]["device_id"]
                    answer = await request(
                        daemon.port, {"op": "query", "device_id": device_id}
                    )
                    assert answer["status"] == "ok", answer
                    assert answer["n_events"] == radio_counts[device_id]
            assert daemon.health.batches_acked == n_unique
            answer = await request(daemon.port, {"op": "digest"})
            assert not daemon._dirty_days
            return answer["digest"]
        finally:
            await daemon.stop()

    digest = asyncio.run(scenario())
    assert digest == reference_digest(svc_eco, svc_dataset)


def test_failed_read_fold_is_typed_and_retried(
    tmp_path, svc_eco, svc_dataset, svc_batches
):
    """A fold that raises answers a typed error and keeps its day dirty."""

    async def scenario():
        daemon = CatalogDaemon(
            svc_eco, str(tmp_path / "wal"), ServiceConfig(**FAST_CONFIG)
        )
        await daemon.start()
        real_update = daemon._builder.update
        failures = []

        def flaky_update(day, radio_events, service_records):
            if not failures:
                failures.append(day)
                raise RuntimeError("fold poisoned once")
            return real_update(day, radio_events, service_records)

        daemon._builder.update = flaky_update
        try:
            for batch_id, rows in svc_batches:
                response = await ingest(daemon.port, batch_id, rows)
                assert response["status"] == "ok", response
            n_days = len(daemon._dirty_days)
            # One connection for every read: the failed fold must not
            # drop it.
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", daemon.port
            )

            async def call(payload):
                writer.write(json.dumps(payload).encode("utf-8") + b"\n")
                await writer.drain()
                return json.loads((await reader.readline()).decode("utf-8"))

            device_id = svc_dataset.radio_events[0].device_id
            failed = await call({"op": "query", "device_id": device_id})
            assert failed["status"] == "error"
            assert "fold poisoned once" in failed["error"]
            # The failing day is the first in fold order and stays
            # dirty with every day after it.
            assert failures == [min(daemon._dirty_days)]
            assert len(daemon._dirty_days) == n_days
            answer = await call({"op": "digest"})
            assert answer["status"] == "ok"
            assert not daemon._dirty_days
            writer.close()
            return answer["digest"]
        finally:
            await daemon.stop()

    digest = asyncio.run(scenario())
    assert digest == reference_digest(svc_eco, svc_dataset)


def test_replay_folds_each_day_once(tmp_path, svc_eco, svc_dataset, svc_batches):
    """Restart folds each replayed day exactly once, before ready."""

    wal_dir = str(tmp_path / "wal")
    stream = split_batches(svc_batches)
    n_days = len(svc_batches)
    assert len(stream) > n_days

    async def first_life():
        daemon = CatalogDaemon(svc_eco, wal_dir, ServiceConfig(**FAST_CONFIG))
        await daemon.start()
        calls = count_updates(daemon)
        try:
            for batch_id, rows in stream:
                response = await ingest(daemon.port, batch_id, rows)
                assert response["status"] == "ok", response
            # Acks never fold; the days wait for a read.
            assert calls == []
            assert len(daemon._dirty_days) == n_days
        finally:
            await daemon.stop()

    async def second_life():
        daemon = CatalogDaemon(
            svc_eco, wal_dir, ServiceConfig(**FAST_CONFIG), resume=True
        )
        calls = count_updates(daemon)
        await daemon.start()
        try:
            assert daemon.health.batches_replayed == len(stream)
            assert daemon.health.ready
            assert calls == sorted(set(calls)) and len(calls) == n_days
            answer = await request(daemon.port, {"op": "digest"})
            assert len(calls) == n_days  # ready already meant folded
            return answer["digest"]
        finally:
            await daemon.stop()

    asyncio.run(first_life())
    digest = asyncio.run(second_life())
    assert digest == reference_digest(svc_eco, svc_dataset)
