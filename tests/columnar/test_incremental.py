"""Incremental day-update engine: converges to the full rebuild exactly."""

from collections import defaultdict
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnar import from_record_streams
from repro.core.catalog import CatalogBuilder, CatalogUpdate
from repro.core.roaming import RoamingLabeler
from repro.ecosystem import EcosystemConfig, build_default_ecosystem
from repro.mno import MNOConfig, simulate_mno_dataset
from repro.signaling.cdr import ServiceRecord, ServiceType
from repro.signaling.events import RadioEvent, RadioInterface
from repro.signaling.procedures import MessageType, ResultCode


@pytest.fixture(scope="module")
def small_eco():
    return build_default_ecosystem(EcosystemConfig(uk_sites=30, seed=11))


@pytest.fixture(scope="module")
def small_dataset(small_eco):
    return simulate_mno_dataset(small_eco, MNOConfig(n_devices=120, seed=5))


@pytest.fixture(scope="module")
def by_day(small_dataset):
    events = defaultdict(list)
    records = defaultdict(list)
    for event in small_dataset.radio_events:
        events[event.day].append(event)
    for record in small_dataset.service_records:
        records[record.day].append(record)
    days = sorted(set(events) | set(records))
    return days, events, records


def make_builder(small_eco, small_dataset, compute_mobility=True):
    return CatalogBuilder(
        small_dataset.tac_db,
        small_dataset.sector_catalog,
        RoamingLabeler(small_eco.operators, small_dataset.observer),
        compute_mobility=compute_mobility,
    )


@pytest.fixture(scope="module")
def full_build(small_eco, small_dataset):
    return make_builder(small_eco, small_dataset).build(
        small_dataset.radio_events, small_dataset.service_records
    )


def test_ascending_replay_converges_to_full_build(
    small_eco, small_dataset, by_day, full_build
):
    days, events, records = by_day
    builder = make_builder(small_eco, small_dataset)
    for day in days:
        update = builder.update(day, events[day], records[day])
        assert isinstance(update, CatalogUpdate)
        assert update.day == day
        assert update.n_changed == len(update.changed_devices)
    day_records, summaries = builder.snapshot()
    assert day_records == full_build[0]
    assert list(summaries) == list(full_build[1])
    assert summaries == full_build[1]


def test_resending_identical_day_changes_nothing(
    small_eco, small_dataset, by_day, full_build
):
    days, events, records = by_day
    builder = make_builder(small_eco, small_dataset)
    for day in days:
        builder.update(day, events[day], records[day])
    last = days[-1]
    update = builder.update(last, events[last], records[last])
    assert update.n_changed == 0
    assert update.changed_devices == ()
    assert builder.snapshot()[0] == full_build[0]


def test_modified_day_recomputes_only_changed_devices(
    small_eco, small_dataset, by_day
):
    days, events, records = by_day
    builder = make_builder(small_eco, small_dataset)
    for day in days:
        builder.update(day, events[day], records[day])
    last = days[-1]
    mutated = [e for i, e in enumerate(events[last]) if i % 7]
    touched = {e.device_id for e in events[last]} | {
        e.device_id for e in mutated
    }
    update = builder.update(last, mutated, records[last])
    assert 0 < update.n_changed <= len(touched)
    assert set(update.changed_devices) <= touched

    # The incremental state now matches a from-scratch build of the
    # mutated streams, records and summaries alike.
    full_events = [e for d in days for e in (mutated if d == last else events[d])]
    full_records = [r for d in days for r in records[d]]
    expected = make_builder(small_eco, small_dataset).build(
        full_events, full_records
    )
    day_records, summaries = builder.snapshot()
    assert day_records == expected[0]
    assert summaries == expected[1]


def test_update_accepts_columnar_day_slices(
    small_eco, small_dataset, by_day, full_build
):
    days, events, records = by_day
    builder = make_builder(small_eco, small_dataset)
    for day in days:
        events_c, records_c = from_record_streams(events[day], records[day])
        builder.update(day, events_c, records_c)
    day_records, summaries = builder.snapshot()
    assert day_records == full_build[0]
    assert summaries == full_build[1]


def test_update_rejects_rows_from_another_day(small_eco, small_dataset, by_day):
    days, events, records = by_day
    builder = make_builder(small_eco, small_dataset)
    with pytest.raises(ValueError):
        builder.update(days[0] + 1, events[days[0]], records[days[0]])


def test_update_rejects_mixed_row_and_columnar_input(
    small_eco, small_dataset, by_day
):
    days, events, records = by_day
    day = days[0]
    events_c, _ = from_record_streams(events[day], records[day])
    builder = make_builder(small_eco, small_dataset)
    with pytest.raises(TypeError):
        builder.update(day, events_c, records[day])


def test_update_rejects_columnar_slices_with_split_pools(
    small_eco, small_dataset, by_day
):
    days, events, records = by_day
    day = days[0]
    events_c, _ = from_record_streams(events[day], [])
    _, records_c = from_record_streams([], records[day])
    builder = make_builder(small_eco, small_dataset)
    with pytest.raises(ValueError):
        builder.update(day, events_c, records_c)


def test_empty_day_update_removes_devices(small_eco, small_dataset, by_day):
    """Re-sending a day as empty retracts that day's contribution."""
    days, events, records = by_day
    builder = make_builder(small_eco, small_dataset)
    for day in days:
        builder.update(day, events[day], records[day])
    last = days[-1]
    update = builder.update(last, [], [])
    assert update.n_changed > 0
    expected = make_builder(small_eco, small_dataset).build(
        [e for d in days[:-1] for e in events[d]],
        [r for d in days[:-1] for r in records[d]],
    )
    day_records, summaries = builder.snapshot()
    assert day_records == expected[0]
    assert summaries == expected[1]


def test_ascending_replay_summarizes_only_new_or_moved_devices(
    small_eco, small_dataset, by_day, full_build, monkeypatch
):
    """Appending a day adds it to each device's fold; only a device seen
    for the first time, or whose resolved SIM moves, is re-summarized."""
    days, events, records = by_day
    builder = make_builder(small_eco, small_dataset)
    summarized = []
    summarize = CatalogBuilder.summarize

    def counting(self, day_records, tac_of):
        result = summarize(self, day_records, tac_of)
        summarized.extend(result)
        return result

    monkeypatch.setattr(CatalogBuilder, "summarize", counting)
    # A device re-summarizes when first seen, and once more if it was
    # first seen without radio and later gains a radio day (its SIM
    # resolves to the radio SIM from then on).
    first_seen = {}
    first_radio = {}
    for day in days:
        for event in events[day]:
            first_radio.setdefault(event.device_id, day)
            first_seen.setdefault(event.device_id, day)
        for record in records[day]:
            first_seen.setdefault(record.device_id, day)
    moved = {d for d, day in first_radio.items() if day > first_seen[d]}
    for day in days:
        builder.update(day, events[day], records[day])
    assert sorted(summarized) == sorted(list(first_seen) + list(moved))
    assert builder.snapshot() == full_build

    # Replacing the latest day again and again re-summarizes no device
    # whose SIM stays put.
    summarized.clear()
    last = days[-1]
    builder.update(last, [e for i, e in enumerate(events[last]) if i % 5], records[last])
    builder.update(last, events[last], records[last])
    assert summarized == []
    assert builder.snapshot() == full_build


# -- both fold paths against a full re-summarize ---------------------------

_PROP_ECO = build_default_ecosystem(EcosystemConfig(uk_sites=5, seed=1))
_PROP_OBSERVER = str(_PROP_ECO.uk_mno.plmn)
_PROP_SIMS = (_PROP_OBSERVER, "21410", "26210")
_PROP_SECTORS = {
    interface: [s.sector_id for s in _PROP_ECO.uk_sectors if s.rat is interface.rat]
    for interface in RadioInterface
}
_PROP_MVNO = next(
    str(o.plmn)
    for o in _PROP_ECO.operators
    if o.is_mvno and o.host_plmn == _PROP_ECO.uk_mno.plmn
)
_PROP_DEVICES = ("d1", "d2", "d3")
_PROP_KINDS = ("append", "replace_latest", "rewrite_earlier", "empty", "sim_move")


def _prop_builder():
    return CatalogBuilder(
        _PROP_ECO.tac_db,
        _PROP_ECO.uk_sectors,
        RoamingLabeler(_PROP_ECO.operators, _PROP_ECO.uk_mno),
    )


@st.composite
def _radio_event(draw, day):
    interface = draw(st.sampled_from(list(RadioInterface)))
    return RadioEvent(
        device_id=draw(st.sampled_from(_PROP_DEVICES)),
        timestamp=day * 86400.0 + draw(st.floats(0.0, 86399.0)),
        sim_plmn=draw(st.sampled_from(_PROP_SIMS)),
        tac=draw(st.sampled_from([35000001, 35000002])),
        sector_id=draw(st.sampled_from(_PROP_SECTORS[interface])),
        interface=interface,
        event_type=MessageType.ATTACH,
        result=draw(st.sampled_from([ResultCode.OK, ResultCode.SYSTEM_FAILURE])),
    )


@st.composite
def _service_record(draw, day):
    is_voice = draw(st.booleans())
    # Only the observer's own SIMs are seen on other networks (outbound
    # roamers).  A device never on the observer's network is labelled
    # by its first day's visited PLMNs: the hosted MVNO reads as home.
    visited = draw(st.sampled_from([_PROP_OBSERVER, "21410", _PROP_MVNO]))
    return ServiceRecord(
        device_id=draw(st.sampled_from(_PROP_DEVICES)),
        timestamp=day * 86400.0 + draw(st.floats(0.0, 86399.0)),
        sim_plmn=(
            draw(st.sampled_from(_PROP_SIMS)) if visited == _PROP_OBSERVER
            else _PROP_OBSERVER
        ),
        visited_plmn=visited,
        service=ServiceType.VOICE if is_voice else ServiceType.DATA,
        duration_s=draw(st.floats(0.0, 600.0)) if is_voice else 0.0,
        bytes_total=0 if is_voice else draw(st.integers(0, 10**6)),
        apn=None if is_voice else draw(st.sampled_from([None, "a.b", "c.d"])),
    )


@st.composite
def _day_slice(draw, day):
    events = draw(st.lists(_radio_event(day), max_size=6))
    records = draw(st.lists(_service_record(day), min_size=0 if events else 1, max_size=4))
    return events, records


@st.composite
def _update_steps(draw):
    """A short sequence of ``(kind, day, events, records, read)`` updates.

    Kinds: append the next day, replace the latest day (as the daemon
    re-reads the day it is still writing), rewrite an earlier day, send
    an empty slice for a day, and replace the first radio day with its
    radio SIMs changed so the resolved SIM moves.  ``read`` says whether
    a snapshot follows the update; the last update is always read.
    """
    slices = {}
    steps = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(_PROP_KINDS))
        sent = sorted(slices)
        if kind == "append" or not sent:
            kind = "append"
            day = sent[-1] + 1 if sent else 0
            events, records = draw(_day_slice(day))
        elif kind == "replace_latest":
            day = sent[-1]
            events, records = draw(_day_slice(day))
        elif kind == "rewrite_earlier" and len(sent) > 1:
            day = draw(st.sampled_from(sent[:-1]))
            events, records = draw(_day_slice(day))
        elif kind == "empty":
            day = draw(st.sampled_from(sent))
            events, records = [], []
        else:
            radio_days = [d for d in sent if slices[d][0]]
            if not radio_days:
                continue
            kind, day = "sim_move", radio_days[0]
            old_events, records = slices[day]
            events = [
                replace(e, sim_plmn=_PROP_SIMS[(_PROP_SIMS.index(e.sim_plmn) + 1) % 3])
                for e in old_events
            ]
        if events or records:
            slices[day] = (events, records)
        else:
            slices.pop(day, None)
        steps.append((kind, day, events, records, draw(st.booleans())))
    steps[-1] = steps[-1][:4] + (True,)
    return steps


def _summary_key(summaries):
    """Summaries as comparable tuples: floats by ``repr``, sets sorted."""
    return [
        (
            s.device_id, s.sim_plmn, str(s.label), s.active_days, s.n_events,
            s.n_failed_events, s.n_calls, repr(s.voice_minutes),
            s.n_data_sessions, s.bytes_total, sorted(s.apns),
            sorted(s.visited_plmns), s.radio_flags.mask, s.voice_flags.mask,
            s.data_flags.mask, s.tac, s.model, repr(s.mean_gyration_km),
        )
        for s in summaries.values()
    ]


@given(steps=_update_steps())
@settings(max_examples=150, deadline=None)
def test_fold_paths_match_full_resummarize(steps):
    builder = _prop_builder()
    slices = {}
    for _kind, day, events, records, read in steps:
        builder.update(day, events, records)
        if events or records:
            slices[day] = (events, records)
        else:
            slices.pop(day, None)
        if not read:
            continue

        day_records, summaries = builder.snapshot()
        tac_of = {d: s.tac for d, s in summaries.items() if s.tac is not None}
        resummarized = _prop_builder().summarize(day_records, tac_of)
        assert _summary_key(summaries) == _summary_key(resummarized)

        # Identity resolves by ascending day, so the snapshot equals a
        # one-shot build over the current slices in day order, however
        # the updates arrived.
        expected_records, expected_summaries = _prop_builder().build(
            [e for d in sorted(slices) for e in slices[d][0]],
            [r for d in sorted(slices) for r in slices[d][1]],
        )
        assert day_records == expected_records
        assert [repr(r.voice_minutes) for r in day_records] == [
            repr(r.voice_minutes) for r in expected_records
        ]
        assert _summary_key(summaries) == _summary_key(expected_summaries)
