"""One benchmark operation: a fresh interpreter running ``epichaos.cli.main``.

Usage: child.py SPAWN_TIME STATS_JSON TRACE_JSON|- -- <epichaos arguments>

SPAWN_TIME is the parent's ``perf_counter`` just before it started this
process (CLOCK_MONOTONIC on Linux, shared by all processes).  Set-up ends
when ``parse_config`` returns; wall time and CPU run from there to the end
of ``main``.  CPU and peak memory include the pool workers, which the
executor has joined by then.  The run's own peak is VmHWM, since
``ru_maxrss`` of a fresh interpreter still holds the peak of the process
that started it.  With a trace path, spans are recorded and
written there after ``main`` returns.
"""

import json
import resource
import sys
import time
from pathlib import Path


def own_peak_kib():
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(argv):
    spawn, stats_path, trace_path = float(argv[0]), Path(argv[1]), argv[2]
    cli_args = argv[argv.index("--") + 1:]
    src = Path(__file__).resolve().parent.parent / "src"
    sys.path.insert(0, str(src))
    tracer = None
    if trace_path != "-":
        from tracer import Tracer
        tracer = Tracer().install()
    import epichaos.cli as cli
    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"epichaos imported from {cli.__file__}, not from {src}")

    mark = {}
    parse = cli.parse_config

    def parse_and_mark(*args, **kwargs):
        cfg = parse(*args, **kwargs)
        mark["time"] = time.perf_counter()
        mark["usage"] = resource.getrusage(resource.RUSAGE_SELF)
        return cfg

    cli.parse_config = parse_and_mark
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    try:
        status = cli.main(cli_args)
    finally:
        cli.parse_config = parse
        if tracer is not None:
            tracer.uninstall()
    end = time.perf_counter()
    own = resource.getrusage(resource.RUSAGE_SELF)
    workers = resource.getrusage(resource.RUSAGE_CHILDREN)
    before = mark["usage"]
    # a worker is a fork of this process, so its ru_maxrss is its own peak
    worker_peak = workers.ru_maxrss if workers.ru_utime > reaped.ru_utime else 0
    stats = {
        "status": status,
        "setup_s": mark["time"] - spawn,
        "wall_s": end - mark["time"],
        "cpu_s": (own.ru_utime - before.ru_utime + own.ru_stime - before.ru_stime
                  + workers.ru_utime - reaped.ru_utime + workers.ru_stime - reaped.ru_stime),
        # KiB; the worker figure is the largest worker's peak
        "peak_rss_mb": (own_peak_kib() + worker_peak) / 1024.0,
    }
    stats_path.write_text(json.dumps(stats))
    if tracer is not None:
        Path(trace_path).write_text(json.dumps({"spans": tracer.spans}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
