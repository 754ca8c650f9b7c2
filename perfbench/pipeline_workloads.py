"""The ``batch`` and ``durable`` workloads: ``run_pipeline`` in-process.

``batch`` is the analyst's call, ``run_pipeline(dataset, eco)`` with the
library defaults, repeated over one dataset.  ``durable`` is ``repro
run`` with a checkpoint store: a fresh durable run into a new directory,
then ``resume=True`` over the completed store.  Both compare every
result with a plain serial reference run made during set-up.
"""

from __future__ import annotations

import shutil
import time
from typing import Any, Callable, List, NamedTuple, Tuple

import common
import spans

#: Input rows and devices of the dataset (22 days).
TARGET_ROWS = 85_000
TARGET_DEVICES = 290
#: Fewest timed passes (batch) or fresh/resume cycles (durable) a run
#: reports, whatever ``--seconds`` says.
MIN_PASSES = {"batch": 6, "durable": 3}


class Pass(NamedTuple):
    """One pass: write and recovery seconds, wall and reference-host."""

    write_s: float
    recovery_s: float
    write_ref_s: float
    recovery_ref_s: float


class PipelineWorkload:
    """One run of ``batch`` or ``durable`` over a seeded dataset."""

    def __init__(self, name: str, seed: int, seconds: float, result: common.Result) -> None:
        self.name = name
        self.seed = seed
        self.seconds = seconds
        self.result = result
        self.workdir = common.fresh_dir(name)
        self.n_dirs = 0

    # -- set-up and correctness --------------------------------------------

    def setup(self) -> None:
        from repro.pipeline import run_pipeline

        self.eco, self.dataset, self.setup_times = common.timed_setup(
            self.seed, TARGET_ROWS, TARGET_DEVICES
        )
        self.rows = common.n_rows(self.dataset)
        reference = run_pipeline(self.dataset, self.eco, n_workers=1)
        self.ref_digest = common.result_digest(reference)
        self.ref_classes = common.classification_map(reference)

    def verify(self, result: Any, what: str) -> None:
        """Gate: digest and classification map equal the reference."""
        self.result.check(
            common.result_digest(result) == self.ref_digest,
            f"{what}: catalog digest differs from the serial reference",
        )
        self.result.check(
            common.classification_map(result) == self.ref_classes,
            f"{what}: classifications differ from the serial reference",
        )
        health = result.health
        self.result.attempted += 1
        if health is not None and (health.incidents or health.storage_incidents):
            self.result.failed += 1

    # -- one pass ------------------------------------------------------------

    def timed(self, **kwargs: Any) -> Tuple[Any, float, float]:
        """One ``run_pipeline`` call: (result, wall s, reference-host s).

        The clock must be started; the call ends with a lap, so a call
        right after it shares the probe between them.
        """
        from repro.pipeline import run_pipeline

        cpu = spans.process_cpu_s()
        out = run_pipeline(self.dataset, self.eco, **kwargs)
        self.cpu_s += spans.process_cpu_s() - cpu
        wall, factor = self.clock.lap()
        return out, wall, wall * factor

    def one_pass(self) -> Pass:
        """Run the workload's unit once, then check its results.

        ``batch`` has no store to recover from, so its recovery is a full
        recomputation: the pass itself.
        """
        self.clock.start()
        if self.name == "batch":
            out, wall, ref = self.timed()
            self.verify(out, "batch pass")
            return Pass(wall, wall, ref, ref)
        self.n_dirs += 1
        store = self.workdir / f"ckpt-{self.n_dirs}"
        fresh_out, fresh, fresh_ref = self.timed(checkpoint_dir=store)
        resume_out, resume, resume_ref = self.timed(checkpoint_dir=store, resume=True)
        self.verify(fresh_out, "durable fresh run")
        self.note_storage(fresh_out)
        self.verify(resume_out, "durable resume")
        self.note_storage(resume_out)
        shutil.rmtree(store, ignore_errors=True)
        return Pass(fresh, resume, fresh_ref, resume_ref)

    def wall(self, sample: Pass) -> float:
        """Wall seconds of a pass: batch's one call is both its figures."""
        return sample.write_s if self.name == "batch" else sample.write_s + sample.recovery_s

    def note_storage(self, out: Any) -> None:
        from repro.parallel.health import STORAGE_FAULT

        self.storage_retries += sum(
            1 for incident in out.health.storage_incidents if incident.kind == STORAGE_FAULT
        )

    def passes(self, run: Callable[[], Pass]) -> List[Pass]:
        """Repeat ``run`` for ``--seconds`` and at least ``MIN_PASSES``."""
        samples: List[Pass] = []
        deadline = time.perf_counter() + self.seconds
        while len(samples) < MIN_PASSES[self.name] or time.perf_counter() < deadline:
            samples.append(run())
        return samples

    # -- the two modes -------------------------------------------------------

    def run(self, traced: bool) -> None:
        self.storage_retries = 0
        self.cpu_s = 0.0
        self.clock = common.HostClock()
        try:
            self.setup()
            self.one_pass()  # warm pass: lazy imports and caches settle
            if traced:
                self.run_traced()
            else:
                self.run_plain()
        finally:
            shutil.rmtree(self.workdir, ignore_errors=True)
        self.result.meta.update(
            devices=self.dataset.n_devices, input_rows=self.rows, batches=0,
            setup_samples_s=self.setup_times,
        )

    def run_plain(self) -> None:
        samples = self.passes(self.one_pass)
        writes = [s.write_ref_s for s in samples]
        recoveries = [s.recovery_ref_s for s in samples]
        r = self.result
        r.put("setup_s", common.median(self.setup_times), "s")
        r.put("rows_per_s", self.rows / common.median(writes), "rows/s")
        r.put("ack_p50_ms", common.percentile(writes, 50) * 1e3, "ms")
        r.put("recovery_s", common.median(recoveries), "s")
        r.put("peak_rss_mb", common.peak_rss_mb_self(), "MiB")
        r.meta["passes"] = len(samples)
        r.meta["write_samples_s"] = writes
        r.meta["recovery_samples_s"] = recoveries
        r.meta["write_wall_samples_s"] = [s.write_s for s in samples]
        r.meta["recovery_wall_samples_s"] = [s.recovery_s for s in samples]
        r.meta["host_factors"] = self.clock.factors
        if self.name == "durable":
            r.meta["resume_rows_per_s"] = self.rows / common.median(recoveries)

    def run_traced(self) -> None:
        """Alternate untraced and traced passes; layers from the traced."""
        recorder = spans.Recorder()
        plain: List[float] = []
        traced: List[float] = []
        cpu = 0.0

        def pair() -> Pass:
            nonlocal cpu
            plain.append(self.wall(self.one_pass()))
            installation = spans.install(recorder)
            cpu_before = self.cpu_s
            try:
                sample = self.one_pass()
            finally:
                installation.restore()
            cpu += self.cpu_s - cpu_before
            traced.append(self.wall(sample))
            return sample

        self.passes(pair)
        stats = spans.stats_dict(recorder)
        n = len(traced)
        wall = sum(traced)
        values = spans.span_values(stats, per=n)
        labels = spans.label_stats(recorder)
        label_calls = labels["hits"] + labels["misses"]
        values["core.roaming.label_calls"] = label_calls / n
        values["core.roaming.label_hit_rate"] = labels["hits"] / label_calls if label_calls else 0.0
        values["runtime.storage_retries"] = self.storage_retries
        values["proc.cpu_s"] = cpu / n
        values["proc.cpu_util"] = cpu / wall
        attributed = recorder.attributed_ns() / 1e9
        values["trace.unattributed_frac"] = max(0.0, wall - attributed) / wall
        values["trace.overhead_frac"] = common.median(traced) / common.median(plain) - 1.0
        values["failed_frac"] = self.result.failed / max(self.result.attempted, 1)
        for name, unit in spans.PER_LAYER:
            self.result.put(name, values.get(name, 0.0), unit)
        missing = spans.missing_required(self.name, stats)
        if self.name == "batch" and not label_calls:
            missing.append("core.roaming.label")
        self.result.check(not missing, f"trace completeness: no calls recorded for {missing}")
        trace_path = common.WORK / f"trace-{self.name}-seed{self.seed}.json"
        recorder.dump(str(trace_path), workload=self.name, traced_passes=n)
        self.result.meta["trace_file"] = str(trace_path.relative_to(common.ROOT))
        self.result.meta["traced_passes"] = n


def run(name: str, seed: int, seconds: float, traced: bool, result: common.Result) -> None:
    PipelineWorkload(name, seed, seconds, result).run(traced)
