"""Deterministic shard-by-device assignment for the pipeline fan-out.

Sharding must be a pure function of the device ID — never of Python's
salted ``hash()``, worker count, or arrival order — so that a dataset
shards identically in every process and on every run.  ``shard_of``
hashes the device ID with CRC-32 (stable across platforms and
interpreter invocations) and reduces modulo the shard count.

Because all of a device's records land in one shard, per-shard
accumulators never see partial devices: each shard's catalog rows,
summaries and classifications are exactly the whole-population results
restricted to the shard's devices, which is what makes the
order-independent merge in :mod:`repro.parallel.executor` byte-identical
to a serial run.
"""

from __future__ import annotations

import zlib
from typing import Callable, Iterable, List, Optional, Tuple, TypeVar

from repro.columnar.store import ColumnarRadioEvents, ColumnarServiceRecords
from repro.signaling.cdr import ServiceRecord
from repro.signaling.events import RadioEvent

T = TypeVar("T")


def shard_of(device_id: str, n_shards: int) -> int:
    """Deterministic shard index in ``[0, n_shards)`` for a device ID.

    CRC-32 of the UTF-8 bytes, modulo ``n_shards`` — stable across
    processes, platforms and ``PYTHONHASHSEED`` values, and independent
    of how many workers will consume the shards.
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    return zlib.crc32(device_id.encode("utf-8")) % n_shards


def shard_items(
    items: Iterable[T],
    n_shards: int,
    device_id_of: Optional[Callable[[T], str]] = None,
) -> List[List[T]]:
    """Partition ``items`` into ``n_shards`` lists by hashed device ID.

    ``device_id_of`` extracts the device ID from an item (defaults to
    the ``device_id`` attribute).  Relative order of items within a
    shard is the input order, so per-shard processing sees the same
    record sequence a serial pass would for those devices.
    """
    key = device_id_of if device_id_of is not None else _device_id_attr
    shards: List[List[T]] = [[] for _ in range(n_shards)]
    for item in items:
        shards[shard_of(key(item), n_shards)].append(item)
    return shards


def _device_id_attr(item: T) -> str:
    """Default device-ID extractor: the item's ``device_id`` attribute."""
    return item.device_id  # type: ignore[attr-defined]


def shard_mno_records(
    radio_events: Iterable[RadioEvent],
    service_records: Iterable[ServiceRecord],
    n_shards: int,
) -> List[Tuple[List[RadioEvent], List[ServiceRecord]]]:
    """Shard both MNO record streams by device in one pass each.

    Returns one ``(radio_events, service_records)`` pair per shard; both
    streams of a device always land in the same shard.  One shard is
    both streams whole, in stream order, with no hashing pass.
    """
    if n_shards == 1:
        return [(list(radio_events), list(service_records))]
    radio_shards = shard_items(radio_events, n_shards)
    service_shards = shard_items(service_records, n_shards)
    return list(zip(radio_shards, service_shards))


def shard_columnar_records(
    radio_events: ColumnarRadioEvents,
    service_records: ColumnarServiceRecords,
    n_shards: int,
) -> List[Tuple[ColumnarRadioEvents, ColumnarServiceRecords]]:
    """Shard columnar stores by device, exchanging column blocks.

    The shard function is the same CRC-32-of-device-ID as
    :func:`shard_items` — a device lands in the same shard whichever
    plane is in use — but it is evaluated once per *pool entry* (the
    device vocabulary) rather than once per row, and each shard is a
    ``select`` sharing the parent pools, so what crosses the process
    boundary is interned column blocks, never row lists.
    """
    if radio_events.pools is not service_records.pools:
        raise ValueError("columnar streams must share one ColumnPools")
    shard_by_pool_id = [
        shard_of(device_id, n_shards)
        for device_id in radio_events.pools.devices.strings
    ]
    radio_indices: List[List[int]] = [[] for _ in range(n_shards)]
    for i, dev in enumerate(radio_events.device_ids):
        radio_indices[shard_by_pool_id[dev]].append(i)
    service_indices: List[List[int]] = [[] for _ in range(n_shards)]
    for i, dev in enumerate(service_records.device_ids):
        service_indices[shard_by_pool_id[dev]].append(i)
    return [
        (radio_events.select(radio_idx), service_records.select(service_idx))
        for radio_idx, service_idx in zip(radio_indices, service_indices)
    ]
