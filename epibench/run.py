"""Benchmark of the ``epichaos`` command line; see README.md in this directory.

    python3 epibench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs whole rounds of the workload's experiments for S seconds, each
experiment in a fresh interpreter with a fresh output directory, checks
every output, and prints one JSON line: end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``.  A traced round runs
each experiment untraced and then traced, so the two wall times give the
tracing overhead.  Progress and check failures go to stderr.
"""

import argparse
import contextlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import checks
import metrics
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / "runs"
OP_TIMEOUT_S = 120  # a run must end within 180 s


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_experiment(exp, opdir: Path, trace: bool):
    """Run one experiment in a child interpreter and check its outputs.

    Returns (stats or None, spans or None, failure messages).
    """
    opdir.mkdir(parents=True)
    config = opdir / "experiment.ini"
    config.write_text(exp.config_text())
    stats_path = opdir / "stats.json"
    trace_path = opdir / "trace.json"
    out = opdir / "out"
    spawn = time.perf_counter()
    cmd = [sys.executable, str(HERE / "child.py"), repr(spawn), str(stats_path),
           str(trace_path) if trace else "-", "--",
           exp.kind, "--config", str(config), "--out", str(out)]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True)
    try:
        _, err = proc.communicate(timeout=OP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stragglers = descendants(proc.pid)  # pool workers outlive a killed parent
        proc.kill()
        for pid in stragglers:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
        proc.communicate()
        return None, None, [f"{exp.kind} did not finish in {OP_TIMEOUT_S} s"]
    if proc.returncode != 0 or not stats_path.exists():
        return None, None, [f"{exp.kind} exited {proc.returncode}: {err.strip()[-2000:]}"]
    stats = json.loads(stats_path.read_text())
    if stats["status"] != 0:
        return None, None, [f"epichaos {exp.kind} returned {stats['status']}"]
    spans = json.loads(trace_path.read_text())["spans"] if trace else None
    return stats, spans, checks.run_check(exp.check, exp.sections, out)


def descendants(pid):
    """Every process below ``pid``, from /proc (Linux)."""
    try:
        kids = Path(f"/proc/{pid}/task/{pid}/children").read_text().split()
    except OSError:
        return []
    return [p for kid in map(int, kids) for p in (kid, *descendants(kid))]


def warm_up():
    """Compile and cache epichaos' bytecode before any timed start."""
    subprocess.run([sys.executable, "-c",
                    f"import sys; sys.path.insert(0, {str(SRC)!r}); import epichaos.cli"],
                   check=True, cwd=ROOT)


def _own_ids(spans, op):
    """Span ids restart in each child; make them unique within the run."""
    return [((op, s[0]), s[1], s[2], s[3], None if s[4] is None else (op, s[4]),
             s[5], s[6]) for s in spans]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "epichaos" / "cli.py").is_file():
        log(f"error: no epichaos sources under {SRC}")
        return 2
    workload = WORKLOADS[args.workload]
    trace = bool(args.trace)
    workdir = RUNS / f"{workload.name}-seed{args.seed}-pid{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    warm_up()

    plain_rounds, traced_rounds, traced_ops = [], [], 0
    attempted = failed = wrong = 0
    start = time.perf_counter()
    index = 0
    try:
        while index == 0 or time.perf_counter() - start < args.seconds:
            experiments = workload.round(args.seed, index)
            for traced in ((False, True) if trace else (False,)):
                stats_round, spans_round = [], []
                for k, exp in enumerate(experiments):
                    opdir = workdir / f"r{index}-{k}{'-traced' if traced else ''}"
                    stats, spans, fails = run_experiment(exp, opdir, traced)
                    shutil.rmtree(opdir, ignore_errors=True)
                    attempted += 1
                    if fails:
                        failed += 1
                        wrong += stats is not None
                        log(f"FAILED round {index} {exp.kind}: " + "; ".join(fails))
                    if stats is not None:
                        stats_round.append(stats)
                    if spans is not None:
                        spans_round += _own_ids(spans, (index, k))
                        traced_ops += 1
                if len(stats_round) == len(experiments):
                    (traced_rounds if traced else plain_rounds).append(
                        (stats_round, spans_round))
            log(f"round {index} done at {time.perf_counter() - start:.1f} s")
            index += 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    plain = [stats for stats, _ in plain_rounds]
    if trace:
        traced_walls = metrics.end_to_end([stats for stats, _ in traced_rounds])["wall_s"]
        overhead = traced_walls - metrics.end_to_end(plain)["wall_s"]
        values = metrics.layer_metrics([spans for _, spans in traced_rounds],
                                       traced_ops, overhead)
        units = {name: unit for name, unit, _ in metrics.PER_LAYER}
        if traced_rounds:  # keep the spans of the last traced round
            RUNS.mkdir(exist_ok=True)
            (RUNS / f"trace-{workload.name}-seed{args.seed}.json").write_text(json.dumps(
                {"workload": workload.name, "seed": args.seed,
                 "spans": traced_rounds[-1][1]}))
    else:
        values = metrics.end_to_end(plain)
        units = {name: unit for name, unit, _ in metrics.END_TO_END}
    result = {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
