"""Device mobility metrics from radio events (§4.1, Fig. 8).

"From radio logs, we compute the time spent on each individual sector to
which a device connected.  Then, we use it to compute a weighted centroid
and gyration, using sector coordinates provided by the MNO sectors
catalog.  We compute daily metrics, and present averages across days."

Dwell time per sector is estimated from the event stream: each event's
dwell is the gap to the device's next event that day, capped at
``max_gap_s`` (a device silent for hours has detached, not dwelt), with
a floor of ``min_dwell_s`` so isolated events still count.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cellular.geo import GeoPoint, gyration_about_km, weighted_centroid
from repro.cellular.sectors import SectorCatalog
from repro.signaling.events import RadioEvent


@dataclass(frozen=True)
class MobilityMetrics:
    """One device-day's mobility summary."""

    centroid: GeoPoint
    gyration_km: float
    n_sectors: int

    def __post_init__(self) -> None:
        if self.gyration_km < 0:
            raise ValueError("gyration must be non-negative")
        if self.n_sectors < 1:
            raise ValueError("mobility needs at least one sector")


def sector_dwell_weights_from_pairs(
    pairs: Sequence[Tuple[float, int]],
    max_gap_s: float = 3600.0,
    min_dwell_s: float = 60.0,
) -> Dict[int, float]:
    """Estimate per-sector dwell seconds from ``(timestamp, sector_id)``
    pairs — the columnar pipeline's entry point, which never materializes
    :class:`RadioEvent` objects.  The sort is stable, so ties keep their
    input (stream) order exactly as the row path does."""
    if not pairs:
        return {}
    ordered = sorted(pairs, key=lambda pair: pair[0])
    dwell: Dict[int, float] = defaultdict(float)
    for (timestamp, sector_id), (next_timestamp, _) in zip(ordered, ordered[1:]):
        gap = max(min_dwell_s, min(max_gap_s, next_timestamp - timestamp))
        dwell[sector_id] += gap
    dwell[ordered[-1][1]] += min_dwell_s
    return dict(dwell)


def sector_dwell_weights(
    events: Sequence[RadioEvent],
    max_gap_s: float = 3600.0,
    min_dwell_s: float = 60.0,
) -> Dict[int, float]:
    """Estimate per-sector dwell seconds from one device-day's events."""
    return sector_dwell_weights_from_pairs(
        [(event.timestamp, event.sector_id) for event in events],
        max_gap_s=max_gap_s,
        min_dwell_s=min_dwell_s,
    )


def daily_mobility_from_pairs(
    pairs: Sequence[Tuple[float, int]],
    catalog: SectorCatalog,
    max_gap_s: float = 3600.0,
    min_dwell_s: float = 60.0,
) -> Optional[MobilityMetrics]:
    """Columnar twin of :func:`daily_mobility` over ``(timestamp,
    sector_id)`` pairs; bitwise-identical metrics for the same stream."""
    dwell = sector_dwell_weights_from_pairs(
        pairs, max_gap_s=max_gap_s, min_dwell_s=min_dwell_s
    )
    points: List[GeoPoint] = []
    weights: List[float] = []
    for sector_id, seconds in dwell.items():
        try:
            position = catalog.position_of(sector_id)
        except KeyError:
            continue
        points.append(position)
        weights.append(seconds)
    if not points:
        return None
    centroid = weighted_centroid(points, weights)
    return MobilityMetrics(
        centroid=centroid,
        gyration_km=gyration_about_km(points, weights, centroid),
        n_sectors=len(points),
    )


def daily_mobility(
    events: Sequence[RadioEvent],
    catalog: SectorCatalog,
    max_gap_s: float = 3600.0,
    min_dwell_s: float = 60.0,
) -> Optional[MobilityMetrics]:
    """Compute one device-day's mobility metrics, or None without events.

    Events pointing at sectors unknown to the catalog are skipped (real
    pipelines see these too — sector churn outpaces catalog refreshes).
    """
    return daily_mobility_from_pairs(
        [(event.timestamp, event.sector_id) for event in events],
        catalog,
        max_gap_s=max_gap_s,
        min_dwell_s=min_dwell_s,
    )


def average_gyration(metrics: Sequence[MobilityMetrics]) -> Optional[float]:
    """Across-days average gyration, as presented in Fig. 8."""
    if not metrics:
        return None
    return sum(m.gyration_km for m in metrics) / len(metrics)
