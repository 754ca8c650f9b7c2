"""The daily devices-catalog: the paper's central data product (§4.1).

"We combine the three data sources to create a daily list of active
devices and associated properties and traffic characteristics …  Each
record in the generated catalog reports a device ID, total number of
events, calls, bytes seen, SIM MCC/MNC, list of visited MCC-MNC, list of
APN strings, device manufacturer, device model, device OS", radio-flags
and mobility metrics.

:class:`CatalogBuilder` streams radio events and CDR/xDR records into
per-(device, day) accumulators, joins the TAC catalog for device
properties and the sector catalog for mobility, and emits
:class:`DeviceDayRecord` rows plus whole-window :class:`DeviceSummary`
aggregates (the unit most of the paper's figures are computed over).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple, Union

from repro.cellular.rats import RadioFlags
from repro.cellular.sectors import SectorCatalog
from repro.cellular.tac_db import DeviceModel, TACDatabase
from repro.columnar.store import (
    NULL_ID,
    ColumnPools,
    ColumnarRadioEvents,
    ColumnarServiceRecords,
)
from repro.core.mobility import MobilityMetrics, daily_mobility, daily_mobility_from_pairs
from repro.core.roaming import RoamingLabel, RoamingLabeler
from repro.signaling.cdr import SERVICE_TYPES, ServiceRecord, ServiceType
from repro.signaling.events import RADIO_INTERFACES, RadioEvent
from repro.signaling.procedures import RESULT_CODES

#: Columnar scan tables, indexed by the canonical enum orders the stores
#: encode against: per-result success bit, per-interface voice bit and
#: RAT mask.  Tuple indexing replaces per-row property chains and enum
#: dict lookups in the hot kernel.
_RESULT_IS_SUCCESS: Tuple[bool, ...] = tuple(code.is_success for code in RESULT_CODES)
_INTERFACE_IS_VOICE: Tuple[bool, ...] = tuple(
    interface.is_voice for interface in RADIO_INTERFACES
)
_INTERFACE_RAT_BIT: Tuple[int, ...] = tuple(
    RadioFlags.from_rats((interface.rat,)).mask for interface in RADIO_INTERFACES
)
_SERVICE_IS_VOICE: Tuple[bool, ...] = tuple(
    service is ServiceType.VOICE for service in SERVICE_TYPES
)


@dataclass(frozen=True)
class DeviceDayRecord:
    """One devices-catalog row: one device on one day."""

    device_id: str
    day: int
    sim_plmn: str
    visited_plmns: FrozenSet[str]
    n_events: int
    n_failed_events: int
    n_calls: int
    voice_minutes: float
    n_data_sessions: int
    bytes_total: int
    apns: FrozenSet[str]
    radio_flags: RadioFlags
    voice_flags: RadioFlags
    data_flags: RadioFlags
    mobility: Optional[MobilityMetrics]
    on_home_network: bool

    @property
    def has_activity(self) -> bool:
        return bool(self.n_events or self.n_calls or self.n_data_sessions)


@dataclass
class DeviceSummary:
    """Whole-window aggregate for one device.

    ``voice_flags``/``data_flags`` split radio activity per plane — the
    inputs to Fig. 9's three panels.  ``label`` is the device's roaming
    label; ``model`` its GSMA-catalog join (None when the TAC is unknown
    or the device was only seen in CDR/xDRs).
    """

    device_id: str
    sim_plmn: str
    label: RoamingLabel
    active_days: int
    n_events: int = 0
    n_failed_events: int = 0
    n_calls: int = 0
    voice_minutes: float = 0.0
    n_data_sessions: int = 0
    bytes_total: int = 0
    apns: FrozenSet[str] = frozenset()
    visited_plmns: FrozenSet[str] = frozenset()
    radio_flags: RadioFlags = RadioFlags()
    voice_flags: RadioFlags = RadioFlags()
    data_flags: RadioFlags = RadioFlags()
    tac: Optional[int] = None
    model: Optional[DeviceModel] = None
    mean_gyration_km: Optional[float] = None

    @property
    def manufacturer(self) -> Optional[str]:
        return self.model.manufacturer if self.model else None

    @property
    def has_voice(self) -> bool:
        return self.n_calls > 0 or not self.voice_flags.is_empty

    @property
    def has_data(self) -> bool:
        return self.n_data_sessions > 0 or not self.data_flags.is_empty

    @property
    def property_key(self) -> Optional[Tuple[str, str]]:
        """(manufacturer, model) key for classifier propagation."""
        return self.model.property_key if self.model else None

    def signaling_per_day(self) -> float:
        return self.n_events / self.active_days if self.active_days else 0.0


@dataclass(frozen=True)
class _DayCell:
    """Immutable, pool-independent (device, day) state for the
    incremental engine.

    A cell captures everything :class:`DeviceDayRecord` needs *except*
    the resolved SIM identity (which depends on other days), plus the
    per-day identity candidates used to re-resolve it.  Cells compare by
    value, which is what lets :meth:`CatalogBuilder.update` skip devices
    whose day slice re-accumulated to the same state.
    """

    n_events: int
    n_failed_events: int
    radio_mask: int
    voice_mask: int
    data_mask: int
    n_calls: int
    voice_minutes: float
    n_data_sessions: int
    bytes_total: int
    apns: FrozenSet[str]
    visited_plmns: FrozenSet[str]
    on_home_network: bool
    mobility: Optional[MobilityMetrics]
    #: SIM/TAC of this day's first radio event (None: no radio this day).
    sim_radio: Optional[str]
    tac: Optional[int]
    #: SIM of this day's first service record (identity fallback for
    #: devices that never touch the home radio network).
    sim_service: Optional[str]


@dataclass(frozen=True)
class CatalogUpdate:
    """What one :meth:`CatalogBuilder.update` call actually changed."""

    day: int
    changed_devices: Tuple[str, ...]
    n_devices: int

    @property
    def n_changed(self) -> int:
        return len(self.changed_devices)


class _SummaryFold:
    """Left fold of one device's day records into its summary aggregates.

    :meth:`CatalogBuilder.summarize` folds all of a device's records in
    ascending-day order.  The incremental engine keeps one fold over all
    but a device's latest day and adds the latest record to a copy, so
    the floats are summed in the same order and the two summaries are
    byte-identical.
    """

    __slots__ = (
        "ever_home",
        "active_days",
        "n_events",
        "n_failed_events",
        "n_calls",
        "voice_minutes",
        "n_data_sessions",
        "bytes_total",
        "gyration_sum",
        "gyration_n",
        "apns",
        "visited",
        "radio_mask",
        "voice_mask",
        "data_mask",
    )

    def __init__(self) -> None:
        self.ever_home = False
        self.active_days = 0
        self.n_events = 0
        self.n_failed_events = 0
        self.n_calls = 0
        self.voice_minutes = 0.0
        self.n_data_sessions = 0
        self.bytes_total = 0
        self.gyration_sum = 0.0
        self.gyration_n = 0
        self.apns: Set[str] = set()
        self.visited: Set[str] = set()
        self.radio_mask = 0
        self.voice_mask = 0
        self.data_mask = 0

    def copy(self) -> "_SummaryFold":
        other = _SummaryFold()
        other.ever_home = self.ever_home
        other.active_days = self.active_days
        other.n_events = self.n_events
        other.n_failed_events = self.n_failed_events
        other.n_calls = self.n_calls
        other.voice_minutes = self.voice_minutes
        other.n_data_sessions = self.n_data_sessions
        other.bytes_total = self.bytes_total
        other.gyration_sum = self.gyration_sum
        other.gyration_n = self.gyration_n
        other.apns = set(self.apns)
        other.visited = set(self.visited)
        other.radio_mask = self.radio_mask
        other.voice_mask = self.voice_mask
        other.data_mask = self.data_mask
        return other

    def extend(self, records: Iterable[DeviceDayRecord]) -> "_SummaryFold":
        """Fold ``records`` (ascending by day) in; returns ``self``."""
        # Locals for the loop, stored back once: the fold runs over
        # every device-day of a one-shot build.
        ever_home = self.ever_home
        active_days = self.active_days
        n_events = self.n_events
        n_failed_events = self.n_failed_events
        n_calls = self.n_calls
        voice_minutes = self.voice_minutes
        n_data_sessions = self.n_data_sessions
        bytes_total = self.bytes_total
        gyration_sum = self.gyration_sum
        gyration_n = self.gyration_n
        radio_mask = self.radio_mask
        voice_mask = self.voice_mask
        data_mask = self.data_mask
        apns = self.apns
        visited = self.visited
        for r in records:
            ever_home = ever_home or r.on_home_network
            if r.has_activity:
                active_days += 1
            n_events += r.n_events
            n_failed_events += r.n_failed_events
            n_calls += r.n_calls
            voice_minutes += r.voice_minutes
            n_data_sessions += r.n_data_sessions
            bytes_total += r.bytes_total
            if r.mobility is not None:
                gyration_sum += r.mobility.gyration_km
                gyration_n += 1
            apns.update(r.apns)
            visited.update(r.visited_plmns)
            radio_mask |= r.radio_flags.mask
            voice_mask |= r.voice_flags.mask
            data_mask |= r.data_flags.mask
        self.ever_home = ever_home
        self.active_days = active_days
        self.n_events = n_events
        self.n_failed_events = n_failed_events
        self.n_calls = n_calls
        self.voice_minutes = voice_minutes
        self.n_data_sessions = n_data_sessions
        self.bytes_total = bytes_total
        self.gyration_sum = gyration_sum
        self.gyration_n = gyration_n
        self.radio_mask = radio_mask
        self.voice_mask = voice_mask
        self.data_mask = data_mask
        return self


#: A device's identity candidates folded over days in ascending order,
#: first one wins: (SIM and TAC of the first radio day, SIM of the
#: first service record).  See :func:`_resolve_identity`.
_Identity = Tuple[Optional[str], Optional[int], Optional[str]]

_NO_IDENTITY: _Identity = (None, None, None)


def _fold_identity(identity: _Identity, cell: _DayCell) -> _Identity:
    """Fold one later day's identity candidates into ``identity``."""
    sim_radio, tac, sim_service = identity
    if sim_radio is None and cell.sim_radio is not None:
        sim_radio, tac = cell.sim_radio, cell.tac
    if sim_service is None:
        sim_service = cell.sim_service
    return sim_radio, tac, sim_service


def _resolve_identity(device_id: str, identity: _Identity) -> Tuple[str, Optional[int]]:
    """Resolve (SIM, TAC) from candidates folded over all of a device's days.

    The first day with radio activity wins — with days fed in ascending
    order this is exactly the row path's "first radio event in the
    stream".  A device with no radio on any day falls back to its
    earliest service SIM (and no TAC), again matching ``_accumulate``'s
    setdefault semantics.
    """
    sim_radio, tac, sim_service = identity
    if sim_radio is not None:
        return sim_radio, tac
    if sim_service is None:  # unreachable: every cell has >= 1 record
        raise RuntimeError(f"device {device_id!r} has cells but no SIM")
    return sim_service, None


class _DeviceFold:
    """Incremental-engine state of one device (see :meth:`CatalogBuilder.update`).

    ``base`` folds every day record but the latest, and ``base_identity``
    every day's identity candidates but the latest's; ``first`` is the
    record the roaming label reads, and ``sim_plmn``/``tac`` the
    identity resolved over all days.
    """

    __slots__ = ("base", "base_identity", "first", "latest", "sim_plmn", "tac")

    def __init__(
        self,
        base: _SummaryFold,
        base_identity: _Identity,
        first: DeviceDayRecord,
        latest: DeviceDayRecord,
        sim_plmn: str,
        tac: Optional[int],
    ) -> None:
        self.base = base
        self.base_identity = base_identity
        self.first = first
        self.latest = latest
        self.sim_plmn = sim_plmn
        self.tac = tac


class _DayAccumulator:
    """Mutable per-(device, day) aggregation state."""

    __slots__ = (
        "radio_events",
        "n_calls",
        "voice_minutes",
        "n_data_sessions",
        "bytes_total",
        "apns",
        "visited_plmns",
        "on_home_network",
    )

    def __init__(self) -> None:
        self.radio_events: List[RadioEvent] = []
        self.n_calls = 0
        self.voice_minutes = 0.0
        self.n_data_sessions = 0
        self.bytes_total = 0
        self.apns: Set[str] = set()
        self.visited_plmns: Set[str] = set()
        self.on_home_network = False


class _ColAcc:
    """Mutable per-(device, day) state for the columnar kernel.

    Unlike :class:`_DayAccumulator` it never buffers event objects:
    radio flags fold into plain int masks during the scan (one
    :class:`RadioFlags` is constructed per cell at finalization, not per
    event), strings stay interned ids, and mobility keeps only the
    ``(timestamp, sector_id)`` pairs the dwell estimator needs.
    """

    __slots__ = (
        "n_events",
        "n_failed",
        "radio_mask",
        "voice_mask",
        "data_mask",
        "pairs",
        "n_calls",
        "voice_minutes",
        "n_data_sessions",
        "bytes_total",
        "apn_ids",
        "visited_ids",
        "on_home",
        "sim_radio_id",
        "tac",
        "sim_service_id",
    )

    def __init__(self) -> None:
        self.n_events = 0
        self.n_failed = 0
        self.radio_mask = 0
        self.voice_mask = 0
        self.data_mask = 0
        self.pairs: List[Tuple[float, int]] = []
        self.n_calls = 0
        self.voice_minutes = 0.0
        self.n_data_sessions = 0
        self.bytes_total = 0
        self.apn_ids: Set[int] = set()
        self.visited_ids: Set[int] = set()
        self.on_home = False
        # -1 = unset; SIM pool ids are always >= 0 when present.
        self.sim_radio_id = -1
        self.tac = -1
        self.sim_service_id = -1


class CatalogBuilder:
    """Joins the three data sources into the devices-catalog."""

    def __init__(
        self,
        tac_db: TACDatabase,
        sector_catalog: SectorCatalog,
        labeler: RoamingLabeler,
        compute_mobility: bool = True,
    ) -> None:
        self._tac_db = tac_db
        self._sectors = sector_catalog
        self._labeler = labeler
        self._compute_mobility = compute_mobility
        self._observer_plmn = str(labeler.observer.plmn)
        # TAC-join memo: the catalog has far fewer models than the
        # population has devices, so each TAC is resolved once and the
        # (possibly None) result reused across devices and `summarize`
        # calls.  Lookup is deterministic; the memo cannot change a join.
        self._model_cache: Dict[int, Optional[DeviceModel]] = {}
        # Incremental-engine state (see `update`/`snapshot`): per-day
        # cell maps, the day set each device was seen on, the cached
        # records/summaries, and each device's fold over its earlier days.
        self._inc_pools: Optional[ColumnPools] = None
        self._inc_cells: Dict[int, Dict[str, _DayCell]] = {}
        self._inc_device_days: Dict[str, Set[int]] = {}
        self._inc_records: Dict[Tuple[str, int], DeviceDayRecord] = {}
        self._inc_summaries: Dict[str, DeviceSummary] = {}
        self._inc_folds: Dict[str, _DeviceFold] = {}
        # Devices whose summary is finished from their fold at the next
        # `snapshot`: a replay of N days finishes it once, not N times.
        self._inc_unfinished: Set[str] = set()

    # -- streaming ingestion ------------------------------------------------

    def _accumulate(
        self,
        radio_events: Iterable[RadioEvent],
        service_records: Iterable[ServiceRecord],
    ) -> Tuple[Dict[Tuple[str, int], _DayAccumulator], Dict[str, str], Dict[str, int]]:
        days: Dict[Tuple[str, int], _DayAccumulator] = defaultdict(_DayAccumulator)
        sim_plmn_of: Dict[str, str] = {}
        tac_of: Dict[str, int] = {}
        observer_plmn = self._observer_plmn

        for event in radio_events:
            device_id = event.device_id
            acc = days[(device_id, event.day)]
            if not acc.radio_events:
                # First radio event of this (device, day): every radio
                # event is by definition on the observer's network, so
                # the home flag and the observer PLMN are set once here
                # rather than per record.
                acc.on_home_network = True
                acc.visited_plmns.add(observer_plmn)
            acc.radio_events.append(event)
            if device_id not in sim_plmn_of:
                sim_plmn_of[device_id] = event.sim_plmn
                tac_of[device_id] = event.tac

        for record in service_records:
            acc = days[(record.device_id, record.day)]
            acc.visited_plmns.add(record.visited_plmn)
            if record.visited_plmn == self._observer_plmn:
                acc.on_home_network = True
            if record.is_voice:
                acc.n_calls += 1
                acc.voice_minutes += record.duration_s / 60.0
            else:
                acc.n_data_sessions += 1
                acc.bytes_total += record.bytes_total
                if record.apn:
                    acc.apns.add(record.apn)
            sim_plmn_of.setdefault(record.device_id, record.sim_plmn)

        return days, sim_plmn_of, tac_of

    def _day_record(
        self, device_id: str, day: int, sim_plmn: str, acc: _DayAccumulator
    ) -> DeviceDayRecord:
        flags = RadioFlags()
        voice_flags = RadioFlags()
        data_flags = RadioFlags()
        n_failed = 0
        for event in acc.radio_events:
            if event.is_success:
                flags = flags.with_rat(event.rat)
                if event.interface.is_voice:
                    voice_flags = voice_flags.with_rat(event.rat)
                else:
                    data_flags = data_flags.with_rat(event.rat)
            else:
                n_failed += 1
        mobility = (
            daily_mobility(acc.radio_events, self._sectors)
            if self._compute_mobility and acc.radio_events
            else None
        )
        return DeviceDayRecord(
            device_id=device_id,
            day=day,
            sim_plmn=sim_plmn,
            visited_plmns=frozenset(acc.visited_plmns),
            n_events=len(acc.radio_events),
            n_failed_events=n_failed,
            n_calls=acc.n_calls,
            voice_minutes=acc.voice_minutes,
            n_data_sessions=acc.n_data_sessions,
            bytes_total=acc.bytes_total,
            apns=frozenset(acc.apns),
            radio_flags=flags,
            voice_flags=voice_flags,
            data_flags=data_flags,
            mobility=mobility,
            on_home_network=acc.on_home_network,
        )

    # -- public API ----------------------------------------------------------

    def build_day_records(
        self,
        radio_events: Iterable[RadioEvent],
        service_records: Iterable[ServiceRecord],
    ) -> List[DeviceDayRecord]:
        """Emit the daily devices-catalog, sorted by (device, day)."""
        days, sim_plmn_of, _ = self._accumulate(radio_events, service_records)
        records = [
            self._day_record(device_id, day, sim_plmn_of[device_id], acc)
            for (device_id, day), acc in days.items()
        ]
        records.sort(key=lambda r: (r.device_id, r.day))
        return records

    def summarize(
        self, day_records: Iterable[DeviceDayRecord], tac_of: Dict[str, int]
    ) -> Dict[str, DeviceSummary]:
        """Roll daily records up into whole-window device summaries."""
        by_device: Dict[str, List[DeviceDayRecord]] = defaultdict(list)
        for record in day_records:
            by_device[record.device_id].append(record)

        return {
            device_id: self._summary_from_fold(
                device_id,
                _SummaryFold().extend(records),
                records[0],
                tac_of.get(device_id),
            )
            for device_id, records in by_device.items()
        }

    def _summary_from_fold(
        self,
        device_id: str,
        fold: _SummaryFold,
        first: DeviceDayRecord,
        tac: Optional[int],
    ) -> DeviceSummary:
        """Finish a device's folded aggregates into its summary."""
        # A device never seen on the home network was only observed
        # through CDR/xDRs from partner networks: an outbound roamer.
        # min() (not next(iter(...))) keeps the pick independent of
        # frozenset iteration order, i.e. of PYTHONHASHSEED.
        any_visited = min(first.visited_plmns, default=self._observer_plmn)
        label = self._labeler.label(
            first.sim_plmn,
            self._observer_plmn if fold.ever_home else any_visited,
        )
        model_cache = self._model_cache
        if tac is None:
            model = None
        elif tac in model_cache:
            model = model_cache[tac]
        else:
            model = self._tac_db.lookup(tac)
            model_cache[tac] = model
        return DeviceSummary(
            device_id=device_id,
            sim_plmn=first.sim_plmn,
            label=label,
            active_days=fold.active_days,
            n_events=fold.n_events,
            n_failed_events=fold.n_failed_events,
            n_calls=fold.n_calls,
            voice_minutes=fold.voice_minutes,
            n_data_sessions=fold.n_data_sessions,
            bytes_total=fold.bytes_total,
            apns=frozenset(fold.apns),
            visited_plmns=frozenset(fold.visited),
            radio_flags=RadioFlags(fold.radio_mask),
            voice_flags=RadioFlags(fold.voice_mask),
            data_flags=RadioFlags(fold.data_mask),
            tac=tac,
            model=model,
            mean_gyration_km=(
                fold.gyration_sum / fold.gyration_n if fold.gyration_n else None
            ),
        )

    def build(
        self,
        radio_events: Iterable[RadioEvent],
        service_records: Iterable[ServiceRecord],
    ) -> Tuple[List[DeviceDayRecord], Dict[str, DeviceSummary]]:
        """One-shot: daily records plus per-device summaries."""
        days, sim_plmn_of, tac_of = self._accumulate(radio_events, service_records)
        records = [
            self._day_record(device_id, day, sim_plmn_of[device_id], acc)
            for (device_id, day), acc in days.items()
        ]
        records.sort(key=lambda r: (r.device_id, r.day))
        return records, self.summarize(records, tac_of)

    # -- columnar kernel ------------------------------------------------------

    def _accumulate_columns(
        self,
        radio_events: ColumnarRadioEvents,
        service_records: ColumnarServiceRecords,
    ) -> Tuple[Dict[int, _ColAcc], Dict[int, int], Dict[int, int]]:
        """Single-pass scan over interned int columns.

        Returns accumulators keyed ``(day << 32) | device_id`` (pool ids
        are dense and far below 2**32, so the packed int replaces the row
        path's (str, int) tuple key) plus, per device id, the row index
        of its first radio event and first service record — the same
        stream-order identity resolution ``_accumulate`` performs.
        """
        accs: Dict[int, _ColAcc] = {}
        first_radio: Dict[int, int] = {}
        first_service: Dict[int, int] = {}
        get = accs.get
        success_of = _RESULT_IS_SUCCESS
        voice_of = _INTERFACE_IS_VOICE
        rat_bit_of = _INTERFACE_RAT_BIT
        pools = radio_events.pools
        observer_id = pools.plmns.intern(self._observer_plmn)
        track_pairs = self._compute_mobility

        timestamps = radio_events.timestamps
        sectors = radio_events.sector_ids
        sims = radio_events.sim_plmns
        tacs = radio_events.tacs
        rows = zip(
            radio_events.device_ids,
            radio_events.days,
            radio_events.results,
            radio_events.interfaces,
        )
        for i, (dev, day, result, interface) in enumerate(rows):
            key = (day << 32) | dev
            acc = get(key)
            if acc is None:
                acc = accs[key] = _ColAcc()
                # First radio event of this (device, day) — mirrors the
                # row path: home flag + observer PLMN set once, and the
                # per-day identity candidates captured here.  The radio
                # scan runs first, so a cell that exists here was
                # created by a radio event.
                acc.on_home = True
                acc.visited_ids.add(observer_id)
                acc.sim_radio_id = sims[i]
                acc.tac = tacs[i]
                if dev not in first_radio:
                    first_radio[dev] = i
            if success_of[result]:
                bit = rat_bit_of[interface]
                acc.radio_mask |= bit
                if voice_of[interface]:
                    acc.voice_mask |= bit
                else:
                    acc.data_mask |= bit
            else:
                acc.n_failed += 1
            acc.n_events += 1
            if track_pairs:
                acc.pairs.append((timestamps[i], sectors[i]))

        svc_voice_of = _SERVICE_IS_VOICE
        durations = service_records.durations
        byte_counts = service_records.bytes_totals
        apn_ids = service_records.apns
        svc_sims = service_records.sim_plmns
        svc_rows = zip(
            service_records.device_ids,
            service_records.days,
            service_records.services,
            service_records.visited_plmns,
        )
        for i, (dev, day, service, visited) in enumerate(svc_rows):
            key = (day << 32) | dev
            acc = get(key)
            if acc is None:
                acc = accs[key] = _ColAcc()
            acc.visited_ids.add(visited)
            if visited == observer_id:
                acc.on_home = True
            if svc_voice_of[service]:
                acc.n_calls += 1
                acc.voice_minutes += durations[i] / 60.0
            else:
                acc.n_data_sessions += 1
                acc.bytes_total += byte_counts[i]
                apn = apn_ids[i]
                if apn != NULL_ID:
                    acc.apn_ids.add(apn)
            if acc.sim_service_id < 0:
                acc.sim_service_id = svc_sims[i]
            if dev not in first_service:
                first_service[dev] = i

        return accs, first_radio, first_service

    def _record_from_acc(
        self,
        device_id: str,
        day: int,
        sim_plmn: str,
        acc: _ColAcc,
        pools: ColumnPools,
    ) -> DeviceDayRecord:
        """Finalize one columnar accumulator into a catalog row."""
        plmn_lookup = pools.plmns.lookup
        apn_lookup = pools.apns.lookup
        mobility = (
            daily_mobility_from_pairs(acc.pairs, self._sectors) if acc.pairs else None
        )
        return DeviceDayRecord(
            device_id=device_id,
            day=day,
            sim_plmn=sim_plmn,
            visited_plmns=frozenset(plmn_lookup(v) for v in acc.visited_ids),
            n_events=acc.n_events,
            n_failed_events=acc.n_failed,
            n_calls=acc.n_calls,
            voice_minutes=acc.voice_minutes,
            n_data_sessions=acc.n_data_sessions,
            bytes_total=acc.bytes_total,
            apns=frozenset(apn_lookup(a) for a in acc.apn_ids),
            radio_flags=RadioFlags(acc.radio_mask),
            voice_flags=RadioFlags(acc.voice_mask),
            data_flags=RadioFlags(acc.data_mask),
            mobility=mobility,
            on_home_network=acc.on_home,
        )

    def build_from_columns(
        self,
        radio_events: ColumnarRadioEvents,
        service_records: ColumnarServiceRecords,
    ) -> Tuple[List[DeviceDayRecord], Dict[str, DeviceSummary]]:
        """Columnar twin of :meth:`build`: byte-identical output.

        Scans interned int columns instead of dataclass rows — no
        per-event property calls, no (str, int) key hashing, and one
        :class:`RadioFlags` per (device, day) cell instead of one per
        successful event.  Both stores must share one
        :class:`ColumnPools` so device/PLMN ids agree across streams.
        """
        if radio_events.pools is not service_records.pools:
            raise ValueError("columnar streams must share one ColumnPools")
        accs, first_radio, first_service = self._accumulate_columns(
            radio_events, service_records
        )
        pools = radio_events.pools
        device_lookup = pools.devices.lookup
        plmn_lookup = pools.plmns.lookup

        sim_plmn_of: Dict[str, str] = {}
        tac_of: Dict[str, int] = {}
        for dev, i in first_radio.items():
            device_id = device_lookup(dev)
            sim_plmn_of[device_id] = plmn_lookup(radio_events.sim_plmns[i])
            tac_of[device_id] = radio_events.tacs[i]
        for dev, i in first_service.items():
            device_id = device_lookup(dev)
            if device_id not in sim_plmn_of:
                sim_plmn_of[device_id] = plmn_lookup(service_records.sim_plmns[i])

        records: List[DeviceDayRecord] = []
        record_from_acc = self._record_from_acc
        for key, acc in accs.items():
            device_id = device_lookup(key & 0xFFFFFFFF)
            records.append(
                record_from_acc(device_id, key >> 32, sim_plmn_of[device_id], acc, pools)
            )
        records.sort(key=lambda r: (r.device_id, r.day))
        return records, self.summarize(records, tac_of)

    # -- incremental engine ---------------------------------------------------

    def _cell_from_acc(self, acc: _ColAcc, pools: ColumnPools) -> _DayCell:
        """Freeze a columnar accumulator into pool-independent state."""
        plmn_lookup = pools.plmns.lookup
        apn_lookup = pools.apns.lookup
        return _DayCell(
            n_events=acc.n_events,
            n_failed_events=acc.n_failed,
            radio_mask=acc.radio_mask,
            voice_mask=acc.voice_mask,
            data_mask=acc.data_mask,
            n_calls=acc.n_calls,
            voice_minutes=acc.voice_minutes,
            n_data_sessions=acc.n_data_sessions,
            bytes_total=acc.bytes_total,
            apns=frozenset(apn_lookup(a) for a in acc.apn_ids),
            visited_plmns=frozenset(plmn_lookup(v) for v in acc.visited_ids),
            on_home_network=acc.on_home,
            mobility=(
                daily_mobility_from_pairs(acc.pairs, self._sectors)
                if acc.pairs
                else None
            ),
            sim_radio=(
                plmn_lookup(acc.sim_radio_id) if acc.sim_radio_id >= 0 else None
            ),
            tac=acc.tac if acc.sim_radio_id >= 0 else None,
            sim_service=(
                plmn_lookup(acc.sim_service_id) if acc.sim_service_id >= 0 else None
            ),
        )

    def _record_from_cell(
        self, device_id: str, day: int, sim_plmn: str, cell: _DayCell
    ) -> DeviceDayRecord:
        return DeviceDayRecord(
            device_id=device_id,
            day=day,
            sim_plmn=sim_plmn,
            visited_plmns=cell.visited_plmns,
            n_events=cell.n_events,
            n_failed_events=cell.n_failed_events,
            n_calls=cell.n_calls,
            voice_minutes=cell.voice_minutes,
            n_data_sessions=cell.n_data_sessions,
            bytes_total=cell.bytes_total,
            apns=cell.apns,
            radio_flags=RadioFlags(cell.radio_mask),
            voice_flags=RadioFlags(cell.voice_mask),
            data_flags=RadioFlags(cell.data_mask),
            mobility=cell.mobility,
            on_home_network=cell.on_home_network,
        )

    def update(
        self,
        day: int,
        radio_events: Union[ColumnarRadioEvents, Iterable[RadioEvent]],
        service_records: Union[ColumnarServiceRecords, Iterable[ServiceRecord]],
    ) -> CatalogUpdate:
        """Fold one day's record slice into the incremental catalog.

        Re-accumulates only the given day, diffs the resulting
        (device, day) cells against the previous state, and recomputes
        records/summaries for *changed devices only* — unchanged devices
        keep their cached rows untouched.  Feeding day partitions in
        ascending day order makes :meth:`snapshot` equal to
        :meth:`build` over the concatenated streams (identity resolution
        depends on day order; see :func:`_resolve_identity`).

        The work is in proportion to the day's changed cells, not to the
        days already folded: a known device whose identity does not move
        gets ``day`` added on top of a fold of its earlier days (see
        ``_fold_latest``), and its summary is finished once, at the next
        :meth:`snapshot`; every other changed device is re-summarized
        over all its days (see ``_refold``).

        Re-sending a day replaces that day's slice (idempotent for an
        identical slice: zero devices change).  Rows for any other day
        in the slice raise ``ValueError``.
        """
        if isinstance(radio_events, ColumnarRadioEvents):
            if not isinstance(service_records, ColumnarServiceRecords):
                raise TypeError("mixed columnar/row update inputs")
            if radio_events.pools is not service_records.pools:
                raise ValueError("columnar streams must share one ColumnPools")
            events_c, records_c = radio_events, service_records
        else:
            if isinstance(service_records, ColumnarServiceRecords):
                raise TypeError("mixed columnar/row update inputs")
            if self._inc_pools is None:
                self._inc_pools = ColumnPools()
            events_c = ColumnarRadioEvents.from_rows(radio_events, self._inc_pools)
            records_c = ColumnarServiceRecords.from_rows(
                service_records, self._inc_pools
            )
        for store_days in (events_c.days, records_c.days):
            if len(store_days) and (
                min(store_days) != day or max(store_days) != day
            ):
                raise ValueError(f"update({day}) received rows for other days")

        accs, _, _ = self._accumulate_columns(events_c, records_c)
        pools = events_c.pools
        device_lookup = pools.devices.lookup
        new_cells = {
            device_lookup(key & 0xFFFFFFFF): self._cell_from_acc(acc, pools)
            for key, acc in accs.items()
        }

        old_cells = self._inc_cells.get(day, {})
        changed = sorted(
            device_id
            for device_id in set(old_cells) | set(new_cells)
            if old_cells.get(device_id) != new_cells.get(device_id)
        )
        if new_cells:
            self._inc_cells[day] = new_cells
        else:
            self._inc_cells.pop(day, None)
        if not changed:
            return CatalogUpdate(
                day=day, changed_devices=(), n_devices=len(self._inc_device_days)
            )

        slow = [
            device_id
            for device_id in changed
            if not self._fold_latest(device_id, day, new_cells.get(device_id))
        ]
        if slow:
            self._refold(day, slow, new_cells)
        return CatalogUpdate(
            day=day,
            changed_devices=tuple(changed),
            n_devices=len(self._inc_device_days),
        )

    def _fold_latest(
        self, device_id: str, day: int, cell: Optional[_DayCell]
    ) -> bool:
        """Fast path of :meth:`update`: add one day on top of a device's fold.

        Applies when the device is known, ``day`` is at or after its
        latest day and still has a cell, and the device's resolved
        identity does not move.  A later day first folds the old latest
        record into the base; the latest day itself (the daemon re-reading
        the day it is still writing) just replaces it; :meth:`snapshot`
        finishes the summary from the fold.  Returns False, having
        changed nothing, when the slow path must run instead.
        """
        fold = self._inc_folds.get(device_id)
        if cell is None or fold is None:
            return False
        latest = fold.latest
        if day < latest.day:
            return False
        base_identity = fold.base_identity
        if day > latest.day:
            base_identity = _fold_identity(
                base_identity, self._inc_cells[latest.day][device_id]
            )
        identity = _resolve_identity(device_id, _fold_identity(base_identity, cell))
        if identity != (fold.sim_plmn, fold.tac):
            return False
        record = self._record_from_cell(device_id, day, fold.sim_plmn, cell)
        if day > latest.day:
            fold.base.extend((latest,))
            fold.base_identity = base_identity
            self._inc_device_days[device_id].add(day)
        elif fold.first.day == day:
            # The device's only day: its latest record is its first too.
            fold.first = record
        fold.latest = record
        self._inc_records[(device_id, day)] = record
        self._inc_unfinished.add(device_id)
        return True

    def _refold(
        self, day: int, device_ids: List[str], new_cells: Dict[str, _DayCell]
    ) -> None:
        """Slow path of :meth:`update`: re-summarize devices over all their days.

        Runs for a device seen for the first time, a rewrite of an
        earlier day, a day removed by an empty slice, and a move of the
        resolved SIM or TAC; each device's fold state is rebuilt after.
        """
        refold: List[DeviceDayRecord] = []
        tac_of: Dict[str, int] = {}
        for device_id in device_ids:
            self._inc_unfinished.discard(device_id)
            device_days = self._inc_device_days.setdefault(device_id, set())
            if device_id in new_cells:
                device_days.add(day)
            else:
                device_days.discard(day)
                self._inc_records.pop((device_id, day), None)
                if not device_days:
                    del self._inc_device_days[device_id]
                    self._inc_summaries.pop(device_id, None)
                    self._inc_folds.pop(device_id, None)
                    continue
            days = sorted(device_days)
            cells = [self._inc_cells[d][device_id] for d in days]
            base_identity = _NO_IDENTITY
            for cell in cells[:-1]:
                base_identity = _fold_identity(base_identity, cell)
            sim_plmn, tac = _resolve_identity(
                device_id, _fold_identity(base_identity, cells[-1])
            )
            if tac is not None:
                tac_of[device_id] = tac
            records: List[DeviceDayRecord] = []
            for d, cell in zip(days, cells):
                cache_key = (device_id, d)
                cached = self._inc_records.get(cache_key)
                # Rebuild the updated day's row, any missing row, and —
                # when the resolved SIM moved (e.g. the first radio day
                # was replaced) — every row carrying the stale SIM.
                if d == day or cached is None or cached.sim_plmn != sim_plmn:
                    cached = self._record_from_cell(device_id, d, sim_plmn, cell)
                    self._inc_records[cache_key] = cached
                records.append(cached)
            refold.extend(records)
            self._inc_folds[device_id] = _DeviceFold(
                _SummaryFold().extend(records[:-1]),
                base_identity,
                records[0],
                records[-1],
                sim_plmn,
                tac,
            )
        if refold:
            self._inc_summaries.update(self.summarize(refold, tac_of))

    def snapshot(self) -> Tuple[List[DeviceDayRecord], Dict[str, DeviceSummary]]:
        """The incremental catalog as of the last :meth:`update` —
        records sorted by (device, day), summaries in sorted device
        order, exactly as :meth:`build` emits them."""
        for device_id in sorted(self._inc_unfinished):
            fold = self._inc_folds[device_id]
            self._inc_summaries[device_id] = self._summary_from_fold(
                device_id,
                fold.base.copy().extend((fold.latest,)),
                fold.first,
                fold.tac,
            )
        self._inc_unfinished.clear()
        records = sorted(
            self._inc_records.values(), key=lambda r: (r.device_id, r.day)
        )
        summaries = {
            device_id: self._inc_summaries[device_id]
            for device_id in sorted(self._inc_summaries)
        }
        return records, summaries
