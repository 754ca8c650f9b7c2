"""Shared pieces of the benchmark: environment, world set-up, statistics.

The benchmark drives the program only through its public API and CLI.
Inputs are generated from the workload seed; the program sees only the
generated ecosystem, dataset and wire batches.
"""

from __future__ import annotations

import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Sequence, Set, Tuple

#: Root of the checkout the benchmark runs in; the program is built
#: (imported) from ``src`` there.
ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
#: Everything a run writes lives here (checkpoint stores, WALs, traces).
WORK = ROOT / ".perfbench_out"

#: Flags that switch program code paths; unset for every run so an
#: inherited environment cannot change what is measured.
PINNED_UNSET = (
    "REPRO_COLUMNAR",
    "REPRO_TRANSPORT",
    "REPRO_SPILL_NO_MMAP",
    "REPRO_FSFAULT_PLAN",
)

#: World shared by every workload: the CLI's default ecosystem seed at
#: 120 UK sites, as the daemon is started (``--uk-sites 120``).
UK_SITES = 120
ECO_SEED = 11

#: Simulated devices per wanted input row: a device yields about 290
#: rows over 22 days, so this leaves spare devices to choose from.
ROWS_PER_DEVICE = 250

#: Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 3

#: The host is shared: its speed drifts by a third and more over tens of
#: seconds, and every timed span slows with it.  So each span is
#: bracketed by a fixed pure-Python probe and its wall time is scaled by
#: ``PROBE_REF_S`` over the mean probe time around it: the time the span
#: would take on a host where one probe takes ``PROBE_REF_S`` (about
#: this box's uncontended speed).  Raw wall times stay in the metadata.
PROBE_REF_S = 0.020
#: A probe is the fastest of this many runs of the probe work.
PROBE_REPEATS = 3


def pin_environment() -> Dict[str, str]:
    """Unset the code-path flags here; returns the child environment."""
    for name in PINNED_UNSET:
        os.environ.pop(name, None)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def program_available() -> bool:
    return (SRC / "repro" / "__init__.py").is_file()


def import_program() -> None:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def pick_devices(rows_of: Dict[str, int], devices: int, target_rows: int) -> Set[str]:
    """``devices`` device ids whose rows sum as close to ``target_rows`` as
    single swaps get them.

    Start from the first ``devices`` ids in id order; while swapping one
    kept device for one spare device brings the total closer, make the
    best such swap.  One or two swaps usually land within a few rows.
    """
    ids = sorted(rows_of)
    kept, spare = ids[:devices], ids[devices:]
    gap = sum(rows_of[d] for d in kept) - target_rows
    while gap:
        best = (abs(gap), -1, -1)
        for i, k in enumerate(kept):
            for j, s in enumerate(spare):
                closer = abs(gap - rows_of[k] + rows_of[s])
                if closer < best[0]:
                    best = (closer, i, j)
        _, i, j = best
        if i < 0:
            break
        gap += rows_of[spare[j]] - rows_of[kept[i]]
        kept[i], spare[j] = spare[j], kept[i]
    return set(kept)


def build_world(seed: int, target_rows: int, devices: int) -> Tuple[Any, Any]:
    """Ecosystem plus a simulated dataset of ``devices`` devices and about
    ``target_rows`` rows.

    Run time follows both the device count and the row count, and both
    swing by about 10% between seeds at a fixed simulated size.  So
    ``target_rows`` / :data:`ROWS_PER_DEVICE` devices are simulated, and
    :func:`pick_devices` keeps ``devices`` of them, whole, with about
    ``target_rows`` rows.  Stream order is kept.  This is part of the
    timed set-up.
    """
    from repro.datasets.containers import MNODataset
    from repro.ecosystem import EcosystemConfig, build_default_ecosystem
    from repro.mno import MNOConfig, simulate_mno_dataset

    eco = build_default_ecosystem(EcosystemConfig(uk_sites=UK_SITES, seed=ECO_SEED))
    full = simulate_mno_dataset(eco, MNOConfig(n_devices=target_rows // ROWS_PER_DEVICE, seed=seed))
    rows_of: Dict[str, int] = {}
    for row in full.radio_events:
        rows_of[row.device_id] = rows_of.get(row.device_id, 0) + 1
    for row in full.service_records:
        rows_of[row.device_id] = rows_of.get(row.device_id, 0) + 1
    kept = pick_devices(rows_of, devices, target_rows)
    dataset = MNODataset(
        observer=full.observer,
        radio_events=[e for e in full.radio_events if e.device_id in kept],
        service_records=[r for r in full.service_records if r.device_id in kept],
        tac_db=full.tac_db,
        sector_catalog=full.sector_catalog,
        window_days=full.window_days,
        ground_truth={k: v for k, v in full.ground_truth.items() if k in kept},
    )
    return eco, dataset


def timed_setup(seed: int, target_rows: int, devices: int) -> Tuple[Any, Any, List[float]]:
    """Build the world :data:`SETUP_REPEATS` times; keep the last one.

    Returns the set-up times in reference-host seconds.
    """
    times: List[float] = []
    world: Tuple[Any, Any] = (None, None)
    clock = HostClock()
    for _ in range(SETUP_REPEATS):
        clock.start()
        world = build_world(seed, target_rows, devices)
        times.append(clock.stop_ref())
    return world[0], world[1], times


def _probe_work() -> int:
    """Fixed work shaped like the program's: keyed dicts of tuples, sorted."""
    rng = random.Random(5)
    groups: Dict[str, List[Tuple[int, float]]] = {}
    for i in range(20_000):
        key = f"dev{rng.randrange(4000):05d}"
        group = groups.get(key)
        if group is None:
            groups[key] = group = []
        group.append((i % 22, rng.random()))
    return sum(len(group) for _, group in sorted(groups.items()))


def probe_s() -> float:
    """Seconds the probe work takes on the host right now."""
    best = math.inf
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        _probe_work()
        best = min(best, time.perf_counter() - start)
    return best


class HostClock:
    """Times spans of work and scales them to the reference host speed.

    ``start()`` probes the host, then starts the span; ``stop()`` ends the
    span, probes again and returns its wall seconds and the factor that
    turns them into reference-host seconds; ``lap()`` does the same and
    starts the next span at once, so the probe between them serves both.
    Every span is logged.
    """

    def __init__(self) -> None:
        self.before = 0.0
        self.started = 0.0
        self.walls: List[float] = []
        self.factors: List[float] = []

    def start(self) -> None:
        self.before = probe_s()
        self.started = time.perf_counter()

    def stop(self) -> Tuple[float, float]:
        wall = time.perf_counter() - self.started
        after = probe_s()
        factor = 2.0 * PROBE_REF_S / (self.before + after)
        self.walls.append(wall)
        self.factors.append(factor)
        self.before = after
        return wall, factor

    def lap(self) -> Tuple[float, float]:
        out = self.stop()
        self.started = time.perf_counter()
        return out

    def stop_ref(self) -> float:
        """End the span; its length in reference-host seconds."""
        wall, factor = self.stop()
        return wall * factor


def n_rows(dataset: Any) -> int:
    return len(dataset.radio_events) + len(dataset.service_records)


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile; ``inf`` entries sort last."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    pos = (len(ordered) - 1) * q / 100.0
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    if ordered[high] == float("inf"):
        return ordered[high] if pos > low else ordered[low]
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def peak_rss_mb_self() -> float:
    """Peak RSS of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def fresh_dir(name: str) -> Path:
    path = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def classification_map(result: Any) -> Dict[str, Tuple[str, str]]:
    return {
        device_id: (c.label.value, c.step.value)
        for device_id, c in result.classifications.items()
    }


def result_digest(result: Any) -> str:
    from repro.service.daemon import catalog_digest

    return catalog_digest(result.day_records, result.summaries)


def git_commit() -> str:
    """Commit of the checkout when it is a git work tree, else unknown."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10, check=False,
        )
    except OSError:
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def run_metadata(seed: int, confirm_seed: int, **extra: Any) -> Dict[str, Any]:
    from repro.pipeline import resolve_workers

    rows = extra.get("input_rows")
    meta: Dict[str, Any] = {
        "seed": seed,
        "confirm_seed": confirm_seed,
        "cpu_count": os.cpu_count(),
        "n_workers": resolve_workers("auto", rows),
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "pinned_env": {name: "unset" for name in PINNED_UNSET},
        "uk_sites": UK_SITES,
        "eco_seed": ECO_SEED,
    }
    meta.update(extra)
    return meta


def metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


class Result:
    """What one workload run reports: correctness, counts, metrics."""

    def __init__(self) -> None:
        self.correct = True
        self.errors: List[str] = []
        self.attempted = 0
        self.failed = 0
        self.metrics: Dict[str, Dict[str, Any]] = {}
        self.meta: Dict[str, Any] = {}

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.correct = False
            self.errors.append(message)

    def put(self, name: str, value: float, unit: str) -> None:
        value = float(value)
        if not math.isfinite(value):
            # A latency "beyond any limit" (failed requests) as valid JSON.
            value = sys.float_info.max
        self.metrics[name] = metric(value, unit)
