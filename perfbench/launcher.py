"""Start the catalog daemon traced: the benchmark's wrappers, then ``repro serve``.

Usage::

    python3 perfbench/launcher.py --trace-out FILE [repro CLI arguments]

Installs the span wrappers of :mod:`spans` in this process, then enters
the program through its CLI, whose ``serve`` command calls
``repro.service.daemon.run_daemon`` -- so the daemon runs with exactly
the configuration ``python -m repro ... serve`` gives it.  When the
daemon shuts down, the spans are written to ``FILE`` together with the
window from readiness to shutdown and the part of it layers account for.
"""

from __future__ import annotations

import functools
import sys
import time
from pathlib import Path
from typing import Any, List

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import spans  # noqa: E402


def main(argv: List[str]) -> int:
    if len(argv) < 2 or argv[0] != "--trace-out":
        print(__doc__, file=sys.stderr)
        return 2
    trace_out, cli_args = argv[1], argv[2:]
    recorder = spans.Recorder()
    installation = spans.install(recorder)

    import repro.service.daemon as daemon_module
    from repro.cli import main as cli_main

    run_daemon = daemon_module.run_daemon
    marks = {"ready_ns": 0}

    @functools.wraps(run_daemon)
    def marked_run_daemon(*args: Any, ready_callback: Any = None, **kwargs: Any) -> Any:
        def ready(port: int) -> None:
            marks["ready_ns"] = time.perf_counter_ns()
            marks["attributed_at_ready_ns"] = recorder.attributed_ns()
            if ready_callback is not None:
                ready_callback(port)

        return run_daemon(*args, ready_callback=ready, **kwargs)

    installation.patch(daemon_module, "run_daemon", marked_run_daemon)
    try:
        code = cli_main(cli_args)
    finally:
        end_ns = time.perf_counter_ns()
        installation.restore()
        attributed = recorder.attributed_ns() - marks.get("attributed_at_ready_ns", 0)
        recorder.dump(
            trace_out,
            window_ns=end_ns - marks["ready_ns"] if marks["ready_ns"] else 0,
            attributed_ns=attributed,
        )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
