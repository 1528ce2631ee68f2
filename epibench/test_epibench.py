"""Tests of the benchmark itself: its output checks, metric names and tracer.

Each check runs on small real epichaos outputs, first as written (it must
pass) and then after one deliberate corruption (it must fail with the
matching message).
"""

import json
import shutil
import struct
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import metrics  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import ACCEPTANCE_INITIAL, ACCEPTANCE_MODEL, WORKLOADS, Experiment  # noqa: E402

SMALL = {
    "study": Experiment("study", {
        "model": {"n": 20, **ACCEPTANCE_MODEL},
        "grid": {"m": 16, "k": 4, "dt": 1e-2},
        "initial": dict(ACCEPTANCE_INITIAL),
        "run": {"t": 1.0, "sample_times": [0.0, 0.5, 1.0], "replicas": 6,
                "seed": 13, "n_values": [40, 80]},  # seed with a positive mean each time
    }, "study"),
    "kinetic": Experiment("kinetic", {
        "model": {"n": 20, **ACCEPTANCE_MODEL},
        "grid": {"m": 16, "k": 4, "dt": 1e-2},
        "initial": {**ACCEPTANCE_INITIAL,
                    "weights": (1.0 + np.arange(16)).reshape(4, 4).tolist()},
        "run": {"t": 0.1, "snapshot_times": [0.0, 0.05, 0.1], "seed": 5},
    }, "kinetic"),
    "chain": Experiment("particle", {
        "model": {"n": 3, "d": 1.0, "r0": 0.75, "lambda": 1.0, "gamma": 1.0},
        "grid": {"m": 4, "k": 4, "dt": 1e-2},
        "initial": {"s": 0.5, "i": 0.4, "r": 0.1},
        "run": {"t": 1.0, "sample_times": [0.0, 0.5, 1.0], "replicas": 400, "seed": 5},
    }, "chain"),
    "particle_ode": Experiment("particle", {
        "model": {"n": 2000, **ACCEPTANCE_MODEL},
        "grid": {"m": 8, "k": 4, "dt": 1e-2},
        "initial": dict(ACCEPTANCE_INITIAL),
        "run": {"t": 0.5, "sample_times": [0.0, 0.25, 0.5], "replicas": 2,
                "seed": 5, "cell_counts": "true"},
    }, "particle_ode"),
}
SMALL["meanfield_ode"] = Experiment("meanfield", SMALL["chain"].sections, "meanfield_ode")


def run_cli(exp, out: Path):
    from epichaos.cli import main
    out.mkdir(parents=True)
    config = out / "experiment.ini"
    config.write_text(exp.config_text())
    assert main([exp.kind, "--config", str(config), "--out", str(out / "out")]) == 0
    return out / "out"


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    base = tmp_path_factory.mktemp("epibench")
    return {name: run_cli(exp, base / name) for name, exp in SMALL.items()}


@pytest.fixture
def copy_of(outputs, tmp_path):
    def copy(name):
        dst = tmp_path / name
        shutil.copytree(outputs[name], dst)
        return dst
    return copy


def edit_csv(path: Path, fn):
    """Apply fn to the numeric rows of a CSV (all columns float)."""
    header, rows = checks.read_table(path)
    table = np.array(rows, dtype=float)
    fn(table)
    lines = [",".join(header)] + [",".join(repr(float(v)) if not float(v).is_integer()
                                           else str(int(v)) for v in row) for row in table]
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("name", sorted(SMALL))
def test_checks_pass_on_real_outputs(outputs, name):
    assert checks.run_check(SMALL[name].check, SMALL[name].sections, outputs[name]) == []


def _last_time_like_middle(t):
    # every replica's final row becomes its middle row: all count rules hold
    t[2::3, 2:] = t[1::3, 2:]


def _everyone_recovered(t):
    t[2::3, 2:] = [0, 0, 3]


def _unbalance_row(t):
    t[1, 4] += 1


CORRUPTIONS = {
    "chain": [
        ("observations.csv", _last_time_like_middle, "count law off the exact chain"),
        ("observations.csv", _unbalance_row, "does not sum"),
    ],
    "meanfield_ode": [
        ("observations.csv", _everyone_recovered, "vs ODE"),
        ("observations.csv", _unbalance_row, "does not sum"),
    ],
    "particle_ode": [
        ("observations.csv", lambda t: t.__setitem__((2, slice(2, 4)), t[2, 2:4] + [-60, 60]),
         "infections"),
        ("observations.csv", lambda t: t.__setitem__((1, 4), t[1, 4] - 1), "does not sum"),
        ("observations.csv", lambda t: t.__setitem__((slice(1, 3), slice(2, 5)),
                                                     t[1:3, 2:5][::-1]), "R falls"),
        ("cells.csv", lambda t: t.__setitem__((5, 4), t[5, 4] + 1), "cell counts"),
    ],
    "study": [
        ("observations.csv", lambda t: t.__setitem__((0, 3), 0.25), "not 0 at t=0"),
        ("observations.csv", lambda t: t.__setitem__((slice(2, None, 3), slice(7, 10)),
                                                     t[2::3, 7:10] + [-8, 0, 8]),
         "half the label-count L1"),
        ("observations.csv", lambda t: t.__setitem__((slice(2, None, 3), 3), 0.5),
         "above the envelope"),
        ("summary.csv", lambda t: t.__setitem__((2, 4), t[2, 4] * 1.5), "summary.csv"),
        ("slope.csv", lambda t: t.__setitem__((0, 1), t[0, 1] + 0.1), "slope.csv"),
    ],
    "kinetic": [
        ("masses.csv", lambda t: t.__setitem__((3, 2), t[3, 2] * 1.01), "total mass"),
        ("masses.csv", lambda t: t.__setitem__((4, slice(1, 4)),
                                               t[4, 1:4] + [1e-3, 0, -1e-3]), "S mass rises"),
        ("masses.csv", lambda t: t.__setitem__((4, slice(1, 4)),
                                               t[4, 1:4] + [-1e-3, 0, 1e-3]), "R mass falls"),
    ],
}


@pytest.mark.parametrize("name,index", [(name, k) for name, cases in CORRUPTIONS.items()
                                        for k in range(len(cases))])
def test_checks_reject_corrupted_tables(copy_of, name, index):
    filename, corrupt, message = CORRUPTIONS[name][index]
    out = copy_of(name)
    edit_csv(out / filename, corrupt)
    fails = checks.run_check(SMALL[name].check, SMALL[name].sections, out)
    assert any(message in f for f in fails), fails


def _first_field(out: Path):
    return sorted(out.glob("field_*.bin"))[-1]


def _flip_magic(data):
    return b"XPKF" + data[4:]


def _negative_value(data):
    return data[:40] + struct.pack("<d", -1.0) + data[48:]


def _scaled_payload(data):
    values = np.frombuffer(data[32:], dtype="<f8") * 1.01
    return data[:32] + values.tobytes()


def _wrong_time(data):
    magic, version, m, k, side, t = struct.unpack("<4sIIIdd", data[:32])
    return struct.pack("<4sIIIdd", magic, version, m, k, side, t + 1.0) + data[32:]


@pytest.mark.parametrize("corrupt,message", [
    (_flip_magic, "bad magic"),
    (lambda d: d[:-8], "payload"),
    (_negative_value, "negative"),
    (_scaled_payload, "label masses"),
    (_wrong_time, "header"),
])
def test_field_reader_rejects_corrupted_snapshots(copy_of, corrupt, message):
    out = copy_of("kinetic")
    path = _first_field(out)
    path.write_bytes(corrupt(path.read_bytes()))
    fails = checks.run_check("kinetic", SMALL["kinetic"].sections, out)
    assert any(message in f for f in fails), fails


def test_missing_output_fails(copy_of):
    out = copy_of("study")
    (out / "summary.csv").unlink()
    assert checks.run_check("study", SMALL["study"].sections, out)


# --- metric names -------------------------------------------------------------

def benchmark_json():
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_metric_names_match_benchmark_json():
    spec = benchmark_json()
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == \
        list(metrics.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        list(metrics.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_printed_metrics_are_declared(tmp_path):
    stats = {"setup_s": 0.2, "wall_s": 1.0, "cpu_s": 1.0, "peak_rss_mb": 50.0}
    assert set(metrics.end_to_end([[stats], [stats]])) == \
        {m["name"] for m in benchmark_json()["end_to_end"]}
    with tracing.Tracer() as tr:
        run_cli(SMALL["study"], tmp_path / "study")
    spans = [((0, s[0]),) + tuple(s[1:4]) + ((0, s[4]) if s[4] else None,) + tuple(s[5:])
             for s in tr.spans]
    layer = metrics.layer_metrics([spans], 1, 0.0)
    assert set(layer) == {m["name"] for m in benchmark_json()["per_layer"]}
    assert layer["cli.solve_oracle.cache_hits"] == 0
    assert layer["kinetic.convolution.calls_per_step"] > 4


# --- tracer -------------------------------------------------------------------

def _bindings():
    import epichaos.cli  # noqa: F401
    seen = {}
    for name, mod in list(sys.modules.items()):
        if name == "epichaos" or name.startswith("epichaos."):
            for key, value in vars(mod).items():
                seen[(name, key)] = value
                if isinstance(value, type) and value.__module__.startswith("epichaos"):
                    for attr, member in vars(value).items():
                        seen[(name, key, attr)] = member
    return seen


def test_tracer_restores_every_binding_and_collects_worker_spans(tmp_path):
    import os
    before = _bindings()
    exp = Experiment("particle", {
        **SMALL["chain"].sections,
        "run": {**SMALL["chain"].sections["run"], "replicas": 16, "threads": 2},
    }, "chain")
    with tracing.Tracer() as tr:
        patched = _bindings()
        assert patched[("epichaos.cli", "run")] is not before[("epichaos.cli", "run")]
        assert patched[("epichaos.particle", "run")] is not before[("epichaos.particle", "run")]
        run_cli(exp, tmp_path / "pool")
    after = _bindings()
    assert [k for k in after.keys() - before.keys() if not k[-1].startswith("__")] == []
    assert [k for k in before if after.get(k) is not before[k]] == []
    assert tracing._ACTIVE is None
    names = {s[1] for s in tr.spans}
    assert {"cli.pool_map", "cli.pool_task", "particle.run", "core.block_draws"} <= names
    worker_runs = [s for s in tr.spans if s[1] == "particle.run" and s[5] != os.getpid()]
    assert len(worker_runs) == 16
    pool = next(s for s in tr.spans if s[1] == "cli.pool_map")
    tasks = [s for s in tr.spans if s[1] == "cli.pool_task"]
    assert all(s[4] == pool[0] for s in tasks)
    assert all(s[6]["proposals"] >= s[6]["infections"] for s in worker_runs)
