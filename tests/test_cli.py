import concurrent.futures
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import epichaos
from epichaos import (ConfigError, DiscKernel, SeedSpec, field_from_initial, load_field,
                      run_ensemble, solve)
from epichaos import meanfield
from epichaos.cli import _rows, _solve_oracle, _write_csv, fit_loglog_slope, main, parse_config

MINIMAL = """
[model]
n = 100
d = 1.0
r0 = 0.1
lambda = 1.0
gamma = 0.5

[run]
t = 1.0
"""

FULL = """
[model]
n = 60
d = 1.0
r0 = 0.1
lambda = 1.0
gamma = 0.5

[grid]
m = 8
k = 4
dt = 1e-2

[initial]
s = 0.9
i = 0.1
r = 0.0

[run]
t = 0.5
sample_times = 0.0 0.25 0.5
replicas = 3
seed = 42
"""


def test_parse_minimal_config():
    cfg = parse_config(MINIMAL, "particle")
    assert cfg.model.n == 100
    assert cfg.model.radius == 0.1
    assert cfg.t_max == 1.0
    assert cfg.sample_times == [0.0, 1.0]
    assert cfg.initial.label_masses().tolist() == [1.0, 0.0, 0.0]


def test_parse_rejects_negative_radius():
    bad = MINIMAL.replace("r0 = 0.1", "r0 = -0.1")
    with pytest.raises(ConfigError) as err:
        parse_config(bad, "particle")
    assert "model.r0" in str(err.value)


def test_parse_rejects_late_sample_time():
    bad = MINIMAL + "sample_times = 0.0 2.0\n"
    with pytest.raises(ConfigError) as err:
        parse_config(bad, "particle")
    assert "run.sample_times" in str(err.value)


def test_parse_rejects_unknown_and_missing_keys():
    with pytest.raises(ConfigError) as err:
        parse_config(MINIMAL + "bogus = 1\n", "particle")
    assert "run.bogus" in str(err.value)
    with pytest.raises(ConfigError) as err:
        parse_config(MINIMAL.replace("gamma = 0.5\n", ""), "particle")
    assert "model.gamma" in str(err.value)


def test_nf_stride_is_not_a_config_key(tmp_path, capsys):
    # the CLI records the field at solve()'s default stride
    cfg_path = tmp_path / "c.ini"
    cfg_path.write_text(FULL + "nf_stride = 10\n")
    assert main(["meanfield", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    assert "run.nf_stride: unknown key" in capsys.readouterr().err


def test_parse_collects_every_violation():
    bad = MINIMAL.replace("r0 = 0.1", "r0 = -1") + "sample_times = 0.0 5.0\n"
    with pytest.raises(ConfigError) as err:
        parse_config(bad, "particle")
    msg = str(err.value)
    assert "model.r0" in msg and "run.sample_times" in msg


def test_study_requires_agent_counts():
    with pytest.raises(ConfigError) as err:
        parse_config(FULL, "study")
    assert "n_values" in str(err.value)


def test_particle_experiment_reproducible(tmp_path):
    cfg_path = tmp_path / "c.ini"
    cfg_path.write_text(FULL)
    for out in ("a", "b"):
        assert main(["particle", "--config", str(cfg_path),
                     "--out", str(tmp_path / out)]) == 0
    obs_a = (tmp_path / "a" / "observations.csv").read_bytes()
    obs_b = (tmp_path / "b" / "observations.csv").read_bytes()
    assert obs_a == obs_b
    summary = (tmp_path / "a" / "summary.csv").read_text().splitlines()
    assert summary[0] == "time,s_mean,s_ci,i_mean,i_ci,r_mean,r_ci"
    assert len(summary) == 4


WEIGHTED = FULL.replace("[initial]", "[initial]\nweights = 1 2; 3 4").replace(
    "n = 60", "n = 5").replace("replicas = 3", "replicas = 30")


def test_thread_pool_does_not_change_output(tmp_path):
    # the jobs are chunks of 30 replicas, 7 at one thread and 2 at three
    thirty = FULL.replace("replicas = 3", "replicas = 30")
    for kind, text in (("particle", thirty + "cell_counts = true\n"), ("meanfield", WEIGHTED),
                       ("couple", thirty)):
        cfg_path = tmp_path / f"{kind}.ini"
        cfg_path.write_text(text)
        listed = []
        for threads in ("1", "3"):
            out = tmp_path / kind / threads
            assert main([kind, "--config", str(cfg_path), "--out", str(out),
                         "--threads", threads]) == 0
            listed.append(json.loads((out / "manifest.json").read_text())["files"])
        assert listed[0] == listed[1]
        assert "summary.csv" in listed[0] and ("cells.csv" in listed[0]) == (kind == "particle")
        for name in listed[0]:
            assert (tmp_path / kind / "1" / name).read_bytes() == \
                (tmp_path / kind / "3" / name).read_bytes(), (kind, name)


@pytest.mark.parametrize("text", [FULL.replace("replicas = 3", "replicas = 30"), WEIGHTED],
                         ids=["uniform", "weights"])
def test_meanfield_replicas_equal_one_run_per_seed(tmp_path, monkeypatch, text):
    # jobs of 7 replicas (30 // 4) run in passes of 3: replica r is still
    # run_ensemble with its own seed
    cfg = parse_config(text, "meanfield")
    monkeypatch.setattr(meanfield, "CHUNK_AGENTS", 3 * cfg.model.n)
    cfg_path = tmp_path / "c.ini"
    cfg_path.write_text(text)
    assert main(["meanfield", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 0
    rows = np.loadtxt(tmp_path / "o" / "observations.csv", delimiter=",", skiprows=1)
    oracle, _ = _solve_oracle(cfg)
    want = [[rid, t, *c] for rid in range(cfg.replicas)
            for t, c in zip(cfg.sample_times,
                            run_ensemble(cfg.model.n, cfg.initial, oracle, cfg.model, cfg.t_max,
                                         cfg.sample_times,
                                         SeedSpec(cfg.seed).child(rid)).counts.tolist())]
    assert rows.tolist() == want


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records its size, runs inline."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs, chunksize=1):
        return map(fn, jobs)


def _pool_sizes(tmp_path, monkeypatch, kind, replicas, threads, cpus):
    """The sizes of the pools a run asks for on a machine of that many CPUs.
    The pools are only recorded, so no worker process starts at any size."""
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    cfg_path = tmp_path / "c.ini"
    cfg_path.write_text(FULL)
    assert main([kind, "--config", str(cfg_path), "--out", str(tmp_path / "o"),
                 "--replicas", str(replicas), "--threads", str(threads)]) == 0
    return _RecordingPool.sizes


@pytest.mark.parametrize("kind,replicas,threads,workers", [
    ("particle", 2, 64, [2]), ("meanfield", 5, 64, [5]), ("particle", 3, 2, [2]),
    ("meanfield", 1, 8, []), ("couple", 2, 16, [2])])
def test_pool_starts_no_more_workers_than_jobs(tmp_path, monkeypatch, kind, replicas, threads,
                                               workers):
    assert _pool_sizes(tmp_path, monkeypatch, kind, replicas, threads, 64) == workers


@pytest.mark.parametrize("kind,replicas,threads,cpus,workers", [
    ("meanfield", 5, 64, 2, [2]), ("meanfield", 8, 5000, 2, [2]), ("couple", 2, 16, 2, [2]),
    ("particle", 3, 5000, 1, []), ("meanfield", 5, 64, None, [])])
def test_pool_starts_no_more_workers_than_cpus(tmp_path, monkeypatch, kind, replicas, threads,
                                               cpus, workers):
    # threads is not bounded, so a config runs on any machine, on at most
    # its CPUs; os.cpu_count() is None where it cannot tell
    assert _pool_sizes(tmp_path, monkeypatch, kind, replicas, threads, cpus) == workers


@pytest.mark.parametrize("value,parsed", [
    ("true", True), ("TRUE", True), ("Yes", True), ("1", True),
    ("false", False), ("No", False), ("0", False), ("FaLsE", False),
    ("ture", None), ("on", None), ("2", None), ("", None)])
def test_cell_counts_accepts_only_booleans(tmp_path, capsys, value, parsed):
    text = FULL + f"cell_counts = {value}\n"
    if parsed is not None:
        assert parse_config(text, "particle").cell_counts is parsed
        return
    with pytest.raises(ConfigError, match="run.cell_counts"):
        parse_config(text, "particle")
    cfg_path = tmp_path / "c.ini"
    cfg_path.write_text(text)
    assert main(["particle", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    assert "run.cell_counts" in capsys.readouterr().err


@pytest.mark.parametrize("grid,missing", [("", "grid.m"), ("[grid]\nm = 4\n", "grid.k")])
def test_cell_counts_need_the_grid(tmp_path, capsys, grid, missing):
    text = MINIMAL.replace("[run]", grid + "[run]") + "cell_counts = true\n"
    with pytest.raises(ConfigError, match=f"{missing}: missing required key"):
        parse_config(text, "particle")
    cfg_path = tmp_path / "c.ini"
    cfg_path.write_text(text)
    out = tmp_path / "o"
    assert main(["particle", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert f"{missing}: missing required key" in capsys.readouterr().err
    assert not out.exists()


def test_cell_counts_bin_on_the_grid(tmp_path):
    cfg_path = tmp_path / "c.ini"
    cfg_path.write_text(FULL.replace("m = 8", "m = 4") + "cell_counts = true\n")
    out = tmp_path / "o"
    assert main(["particle", "--config", str(cfg_path), "--out", str(out)]) == 0
    rows = [line.split(",") for line in (out / "cells.csv").read_text().splitlines()[1:]]
    assert len(rows) == 3 * 3 * 4 * 4
    assert {(row[2], row[3]) for row in rows} == {(str(i), str(j)) for i in range(4)
                                                   for j in range(4)}


#: A large one-replica ``particle`` run with cell counts at five times.
LARGE_CELLS = (FULL.replace("n = 60", "n = 20000").replace("replicas = 3", "replicas = 1")
               .replace("t = 0.5\nsample_times = 0.0 0.25 0.5",
                        "t = 1.0\nsample_times = 0.0 0.25 0.5 0.75 1.0")
               + "cell_counts = true\n")


def test_large_particle_run_keeps_its_pinned_bytes(tmp_path):
    # the sha256 of each output pins the path build, every state_at lookup
    # and the CSV writer at once
    cfg_path = tmp_path / "c.ini"
    cfg_path.write_text(LARGE_CELLS)
    out = tmp_path / "o"
    assert main(["particle", "--config", str(cfg_path), "--out", str(out)]) == 0
    pinned = {"cells.csv": "12ac55e29c78634ce8510add092d883dd14d2304502dd313cdd819804446645b",
              "observations.csv":
                  "d4f518dce44a453466ddd3b50198c0da3dca2abcf94934f616eb6669bbc5b95c"}
    for name, digest in pinned.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


def test_write_csv_writes_str_of_every_field(tmp_path):
    header = ["i", "x", "name"]
    rows = [(1, 0.1, "a"), (-2, 1e-05, "b c"), (10**20, 1e16, ""), (0, -0.0, "d"),
            [3, math.inf, "e"], (True, math.nan, "f"), *_rows([4, 5], [2.5, 1 / 3], ["g", "h"])]
    _write_csv(tmp_path / "t.csv", header, rows)
    want = "".join(",".join(map(str, row)) + "\n" for row in [header, *rows])
    assert (tmp_path / "t.csv").read_text() == want
    for ragged in ([(1, 2)], [(1, 2, 3, 4)]):
        with pytest.raises(TypeError):
            _write_csv(tmp_path / "r.csv", header, ragged)


def test_couple_experiment_emits_expected_files(tmp_path):
    cfg_path = tmp_path / "c.ini"
    cfg_path.write_text(FULL)
    assert main(["couple", "--config", str(cfg_path),
                 "--out", str(tmp_path / "o")]) == 0
    out = tmp_path / "o"
    manifest = json.loads((out / "manifest.json").read_text())
    for name in manifest["files"]:
        assert (out / name).exists(), name
    header = (out / "observations.csv").read_text().splitlines()[0]
    assert header == "n,replica,time,mismatch,s_a,i_a,r_a,s_b,i_b,r_b"
    # a second run into another directory reproduces the CSVs
    assert main(["couple", "--config", str(cfg_path),
                 "--out", str(tmp_path / "o2")]) == 0
    first = (out / "observations.csv").read_bytes()
    again = (tmp_path / "o2" / "observations.csv").read_bytes()
    assert first == again


def test_couple_writes_an_inf_bound_at_a_large_rate_times_time(tmp_path):
    # 2 * lambda * t = 800: exp overflows a float, so the bound is inf
    cfg_path = tmp_path / "c.ini"
    cfg_path.write_text(FULL.replace("n = 60", "n = 20").replace("lambda = 1.0", "lambda = 400.0")
                        .replace("t = 0.5\nsample_times = 0.0 0.25 0.5", "t = 1.0")
                        .replace("replicas = 3", "replicas = 2"))
    out = tmp_path / "o"
    assert main(["couple", "--config", str(cfg_path), "--out", str(out)]) == 0
    rows = [line.split(",") for line in (out / "summary.csv").read_text().splitlines()]
    assert rows[0][-1] == "bound"
    assert [row[1] for row in rows[1:]] == ["0.0", "1.0"]
    assert rows[1][-1] == "0.0" and rows[2][-1] == "inf"


def test_kinetic_experiment_writes_snapshots(tmp_path):
    cfg_path = tmp_path / "c.ini"
    cfg_path.write_text(FULL + "snapshot_times = 0.0 0.5\n")
    assert main(["kinetic", "--config", str(cfg_path),
                 "--out", str(tmp_path / "o")]) == 0
    out = tmp_path / "o"
    assert (out / "masses.csv").exists()
    snap_lines = (out / "snapshots.csv").read_text().splitlines()
    assert len(snap_lines) == 3
    for line in snap_lines[1:]:
        assert (out / line.split(",")[1]).exists()


@pytest.mark.parametrize("times", ["0.1 0.1 0.2", "0.1 0.1000000000001 0.2"])
def test_kinetic_rejects_two_snapshot_times_on_one_step(tmp_path, capsys, times):
    cfg_path = tmp_path / "c.ini"
    cfg_path.write_text(FULL.replace("dt = 1e-2", "dt = 0.05")
                        + f"snapshot_times = {times}\n")
    out = tmp_path / "o"
    assert main(["kinetic", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert "distinct steps" in capsys.readouterr().err
    assert not out.exists()


def test_kinetic_snapshot_files_of_close_times_keep_their_own_names(tmp_path):
    # at six decimals both times would be named field_0.000000.bin
    cfg_path = tmp_path / "c.ini"
    cfg_path.write_text(FULL.replace("dt = 1e-2", "dt = 1e-7")
                        .replace("t = 0.5\nsample_times = 0.0 0.25 0.5", "t = 1e-7")
                        + "snapshot_times = 0.0 1e-7\n")
    out = tmp_path / "o"
    assert main(["kinetic", "--config", str(cfg_path), "--out", str(out)]) == 0
    names = ["field_0.0.bin", "field_1e-07.bin"]
    assert sorted(p.name for p in out.glob("field_*.bin")) == names
    assert [load_field(out / name).t for name in names] == [0.0, 1e-7]
    files = json.loads((out / "manifest.json").read_text())["files"]
    assert files == sorted(names + ["masses.csv", "snapshots.csv"])
    rows = (out / "snapshots.csv").read_text().splitlines()[1:]
    assert [row.split(",")[:2] for row in rows] == [["0.0", names[0]], ["1e-07", names[1]]]


def test_study_experiment_fits_slope(tmp_path):
    cfg_path = tmp_path / "c.ini"
    # lambda = 4 and r0 = 0.2: a replica at n = 30 has a mismatch by t = 0.25
    # with probability about 0.35, so both times get a mean above 0
    cfg_path.write_text(FULL.replace("replicas = 3", "replicas = 40")
                        .replace("lambda = 1.0", "lambda = 4.0").replace("r0 = 0.1", "r0 = 0.2")
                        + "n_values = 30 60\n")
    assert main(["study", "--config", str(cfg_path),
                 "--out", str(tmp_path / "o")]) == 0
    lines = (tmp_path / "o" / "slope.csv").read_text().splitlines()
    assert lines[0] == "time,slope,stderr,ci95_lo,ci95_hi"
    assert [line.split(",")[0] for line in lines[1:]] == ["0.25", "0.5"]
    assert (tmp_path / "o" / "plot.gp").exists()


def test_study_of_one_replica_writes_no_plot(tmp_path):
    # plot.gp plots summary.csv, which one replica does not make
    cfg_path = tmp_path / "c.ini"
    cfg_path.write_text(FULL.replace("replicas = 3", "replicas = 1")
                        .replace("lambda = 1.0", "lambda = 5.0").replace("r0 = 0.1", "r0 = 0.4")
                        + "n_values = 20 40\n")
    out = tmp_path / "o"
    assert main(["study", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert len((out / "slope.csv").read_text().splitlines()) > 1
    files = json.loads((out / "manifest.json").read_text())["files"]
    assert files == ["observations.csv", "slope.csv"]
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json", *files]


def test_study_names_the_sample_times_it_cannot_fit(tmp_path, capsys):
    # without infections the mismatch is 0 everywhere: no time can be fitted
    cfg_path = tmp_path / "c.ini"
    cfg_path.write_text(FULL.replace("lambda = 1.0", "lambda = 0.0") + "n_values = 1 2\n")
    out = tmp_path / "o"
    assert main(["study", "--config", str(cfg_path), "--out", str(out)]) == 0
    notes = capsys.readouterr().err.splitlines()
    assert notes == [f"note: slope.csv skips t={t}: mean mismatch is 0 for n = 1, 2"
                     for t in ("0.0", "0.25", "0.5")]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["slope_skipped_times"] == [0.0, 0.25, 0.5]
    assert (out / "slope.csv").read_text() == "time,slope,stderr,ci95_lo,ci95_hi\n"


def test_kinetic_manifest_reports_solver_clamps_and_mass_drift(tmp_path):
    cfg_path = tmp_path / "c.ini"
    cfg_path.write_text(FULL)
    out = tmp_path / "o"
    assert main(["kinetic", "--config", str(cfg_path), "--out", str(out)]) == 0
    solver = json.loads((out / "manifest.json").read_text())["solver"]
    cfg = parse_config(FULL, "kinetic")
    traj = solve(field_from_initial(cfg.initial, cfg.grid), cfg.model, cfg.grid, cfg.t_max)
    assert solver["clamp_count"] == traj.clamp_count == 0
    drift = np.abs(np.diff(traj.masses.sum(axis=1))).max()
    assert solver["max_step_mass_drift"] == drift < 1e-12


@pytest.mark.parametrize("kind", ["meanfield", "couple", "study"])
def test_field_solve_reports_solver_stats_on_miss_and_hit(kind, tmp_path):
    text = FULL + "n_values = 20 40\n" if kind == "study" else FULL
    cfg_path = tmp_path / "c.ini"
    cfg_path.write_text(text)
    cfg = parse_config(text, kind)
    traj = solve(field_from_initial(cfg.initial, cfg.grid), cfg.model, cfg.grid, cfg.t_max)
    disc = DiscKernel(cfg.grid.m, cfg.grid.side, cfg.model.radius).mask.sum()
    want = {"clamp_count": traj.clamp_count,
            "max_step_mass_drift": float(np.abs(np.diff(traj.masses.sum(axis=1))).max()),
            "lattice_disc_area_ratio": pytest.approx(
                disc * (cfg.grid.side / cfg.grid.m) ** 2 / (math.pi * cfg.model.radius ** 2),
                rel=1e-14)}
    out = tmp_path / "o"
    assert main([kind, "--config", str(cfg_path), "--out", str(out)]) == 0
    assert json.loads((out / "manifest.json").read_text())["solver"] == want


def test_rerun_into_the_same_directory_solves_again_and_writes_only_listed_files(
        tmp_path, monkeypatch):
    import epichaos.cli as cli

    calls = []
    real_solve = cli.solve

    def counted_solve(*args, **kwargs):
        calls.append(args[3])
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(cli, "solve", counted_solve)
    cfg_path = tmp_path / "c.ini"
    cfg_path.write_text(FULL)
    out = tmp_path / "o"
    argv = ["meanfield", "--config", str(cfg_path), "--out", str(out)]
    assert main(argv) == 0
    first = (out / "observations.csv").read_bytes()
    assert main(argv) == 0
    assert calls == [0.5, 0.5]
    assert (out / "observations.csv").read_bytes() == first
    assert not (out / "cache").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    written = {str(p.relative_to(out)) for p in out.rglob("*") if p.is_file()}
    assert set(manifest["files"]) | {"manifest.json"} == written


@pytest.mark.parametrize("kind", ["meanfield", "couple", "study"])
def test_manifest_reports_lattice_disc_area_ratio(kind, tmp_path):
    # the acceptance grid: 37 cells of area 1/1024 against pi r0^2 = 0.01 pi
    text = FULL.replace("m = 8", "m = 32") + ("n_values = 20 40\n" if kind == "study" else "")
    cfg_path = tmp_path / "c.ini"
    cfg_path.write_text(text)
    out = tmp_path / "o"
    assert main([kind, "--config", str(cfg_path), "--out", str(out)]) == 0
    ratio = json.loads((out / "manifest.json").read_text())["solver"]["lattice_disc_area_ratio"]
    assert ratio == pytest.approx(37 / 1024 / (0.01 * math.pi), rel=1e-12)
    assert round(ratio, 4) == 1.1501
    for csv in out.glob("*.csv"):
        assert "lattice" not in csv.read_text()


def test_couple_manifest_reports_b_channel_counts(tmp_path):
    cfg_path = tmp_path / "c.ini"
    cfg_path.write_text(FULL.replace("r0 = 0.1", "r0 = 0.3"))
    out = tmp_path / "o"
    assert main(["couple", "--config", str(cfg_path), "--out", str(out)]) == 0
    channels = json.loads((out / "manifest.json").read_text())["coupling_channels"]
    assert list(channels) == ["60"]
    ch = channels["60"]
    assert set(ch) == {"b_proposals", "probes", "scans", "partner_fires",
                       "residual_fires", "thinned"}
    assert ch["scans"] <= ch["probes"] <= ch["b_proposals"]
    assert ch["residual_fires"] + ch["partner_fires"] <= ch["b_proposals"]
    assert ch["residual_fires"] + ch["thinned"] <= ch["scans"]
    assert ch["partner_fires"] > 0
    # the b infections of the observations are the fires of the two channels
    rows = np.loadtxt(out / "observations.csv", delimiter=",", skiprows=1)
    s_b = rows[:, 7].reshape(3, -1)
    assert (s_b[:, 0] - s_b[:, -1]).sum() == ch["partner_fires"] + ch["residual_fires"]


def test_seed_override_changes_output(tmp_path):
    cfg_path = tmp_path / "c.ini"
    cfg_path.write_text(FULL)
    main(["particle", "--config", str(cfg_path), "--out", str(tmp_path / "a")])
    main(["particle", "--config", str(cfg_path), "--out", str(tmp_path / "b"),
          "--seed", "777"])
    assert (tmp_path / "a" / "observations.csv").read_bytes() != \
        (tmp_path / "b" / "observations.csv").read_bytes()


def test_fit_loglog_slope_recovers_power_law():
    ns = [100, 200, 400, 800]
    means = [10.0 / n for n in ns]
    slope, se = fit_loglog_slope(ns, means)
    assert slope == pytest.approx(-1.0, abs=1e-12)
    assert se == pytest.approx(0.0, abs=1e-12)


def test_main_reports_config_errors(tmp_path, capsys):
    cfg_path = tmp_path / "c.ini"
    cfg_path.write_text(MINIMAL.replace("r0 = 0.1", "r0 = -1"))
    assert main(["particle", "--config", str(cfg_path),
                 "--out", str(tmp_path / "o")]) == 2
    assert "model.r0" in capsys.readouterr().err


@pytest.mark.parametrize("velocity", ["delta abc", "delta", "sideways"])
def test_main_reports_bad_velocity(tmp_path, capsys, velocity):
    cfg_path = tmp_path / "c.ini"
    cfg_path.write_text(MINIMAL + f"\n[initial]\nvelocity = {velocity}\n")
    assert main(["particle", "--config", str(cfg_path),
                 "--out", str(tmp_path / "o")]) == 2
    assert "initial.velocity" in capsys.readouterr().err


def test_parse_rejects_nonpositive_agent_count(tmp_path, capsys):
    bad = FULL + "n_values = 0 100\n"
    with pytest.raises(ConfigError) as err:
        parse_config(bad, "study")
    assert "run.n_values" in str(err.value)
    cfg_path = tmp_path / "c.ini"
    cfg_path.write_text(bad)
    assert main(["study", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    assert "error: " in capsys.readouterr().err


@pytest.mark.parametrize("counts", ["30", "30 30", "30 60 30"])
def test_study_needs_two_distinct_agent_counts(tmp_path, capsys, counts):
    # one count leaves no slope to fit; a repeated count reruns the same seeds
    bad = FULL + f"n_values = {counts}\n"
    with pytest.raises(ConfigError) as err:
        parse_config(bad, "study")
    assert "run.n_values" in str(err.value)
    cfg_path = tmp_path / "c.ini"
    cfg_path.write_text(bad)
    out = tmp_path / "o"
    assert main(["study", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert "run.n_values" in capsys.readouterr().err
    assert not (out / "slope.csv").exists()


@pytest.mark.parametrize("kind,flag", [("particle", "--replicas"), ("couple", "--replicas"),
                                       ("study", "--replicas"), ("particle", "--threads"),
                                       ("particle", "--seed")])
def test_count_overrides_are_validated(tmp_path, capsys, kind, flag):
    bad = {"--replicas": "0", "--threads": "0", "--seed": "-1"}[flag]
    cfg_path = tmp_path / "c.ini"
    cfg_path.write_text(FULL + "n_values = 30 60\n")
    out = tmp_path / "o"
    assert main([kind, "--config", str(cfg_path), "--out", str(out), flag, bad]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"run.{flag[2:]}" in err
    assert not out.exists()


@pytest.mark.parametrize("kind", ["couple", "study"])
def test_paired_runs_reject_the_pair_interaction(tmp_path, capsys, kind):
    # a paired run always runs the per-agent form; its manifest would claim pair
    text = FULL + "n_values = 30 60\n"
    parse_config(text + "interaction = per_agent\n", kind)
    with pytest.raises(ConfigError) as err:
        parse_config(text + "interaction = pair\n", kind)
    assert "run.interaction" in str(err.value)
    cfg_path = tmp_path / "c.ini"
    cfg_path.write_text(text + "interaction = pair\n")
    out = tmp_path / "o"
    assert main([kind, "--config", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "run.interaction" in err
    assert not out.exists()


def test_run_out_of_memory_exits_2(tmp_path, capsys, monkeypatch):
    # a huge rate asks BlockDraws for a huge block of draws
    import epichaos.cli as cli

    def too_big(cfg):
        raise MemoryError("Unable to allocate 149. GiB for an array")
    monkeypatch.setitem(cli._RUNS, "particle", too_big)
    cfg_path = tmp_path / "c.ini"
    cfg_path.write_text(FULL)
    out = tmp_path / "o"
    assert main(["particle", "--config", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "149. GiB" in err
    assert not out.exists()


@pytest.mark.parametrize("weights", ["1 2; 3", "1 2; 3 4;", "1; 2 3"])
def test_ragged_weights_exit_2(tmp_path, capsys, weights):
    cfg_path = tmp_path / "c.ini"
    cfg_path.write_text(FULL.replace("[initial]", f"[initial]\nweights = {weights}"))
    out = tmp_path / "o"
    assert main(["meanfield", "--config", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "initial.weights: cannot parse" in err
    assert not out.exists()


def test_config_that_is_not_utf8_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "c.ini"
    cfg_path.write_bytes(FULL.encode() + b"# \xff\n")
    out = tmp_path / "o"
    assert main(["particle", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


LABELS_3x3 = "\n".join(["0.9,0.1,0.0"] * 8 + ["0.5,0.5,0.0"]) + "\n"


def test_labels_csv_needs_square_row_count(tmp_path, capsys):
    (tmp_path / "cells.csv").write_text("0.9,0.1,0.0\n" * 3)
    cfg_path = tmp_path / "c.ini"
    cfg_path.write_text(FULL.replace("[initial]", "[initial]\nlabels_csv = cells.csv"))
    with pytest.raises(ConfigError) as err:
        parse_config(cfg_path.read_text(), "particle", base_dir=tmp_path)
    assert "initial.labels_csv" in str(err.value)
    assert main(["particle", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    assert "initial.labels_csv" in capsys.readouterr().err


def test_labels_csv_is_relative_to_the_config_file(tmp_path, monkeypatch):
    conf_dir = tmp_path / "conf"
    conf_dir.mkdir()
    (conf_dir / "cells.csv").write_text(LABELS_3x3)
    cfg_path = conf_dir / "c.ini"
    cfg_path.write_text(FULL.replace("[initial]", "[initial]\nlabels_csv = cells.csv"))
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    monkeypatch.chdir(elsewhere)
    assert main(["particle", "--config", str(cfg_path), "--out", "o"]) == 0
    manifest = json.loads((elsewhere / "o" / "manifest.json").read_text())
    fractions = np.asarray(manifest["fingerprint"]["initial"]["fractions"])
    assert fractions.shape == (3, 3, 3)
    assert fractions[2, 2].tolist() == [0.5, 0.5, 0.0]


@pytest.mark.parametrize("source", ["weights", "labels_csv"])
@pytest.mark.parametrize("kind", ["kinetic", "meanfield", "couple", "study"])
def test_grid_must_refine_the_initial_grid(tmp_path, capsys, kind, source):
    # a 4x4 initial grid does not project onto m = 6 cells
    (tmp_path / "cells.csv").write_text("0.9,0.1,0.0\n" * 16)
    initial = {"weights": "weights = " + "; ".join(["1 2 3 4"] * 4),
               "labels_csv": "labels_csv = cells.csv"}[source]
    text = FULL.replace("m = 8", "m = 6").replace("[initial]", f"[initial]\n{initial}")
    cfg_path = tmp_path / "c.ini"
    cfg_path.write_text(text + "n_values = 30 60\n")
    with pytest.raises(ConfigError) as err:
        parse_config(cfg_path.read_text(), kind, base_dir=tmp_path)
    assert "grid.m" in str(err.value)
    out = tmp_path / "o"
    assert main([kind, "--config", str(cfg_path), "--out", str(out)]) == 2
    assert "grid.m: " in capsys.readouterr().err
    assert not out.exists()
    # the same initial grid refines m = 8
    parse_config(text.replace("m = 6", "m = 8") + "n_values = 30 60\n", kind,
                 base_dir=tmp_path)


#: Every float key of a config, as (section, key, value template).
FLOAT_KEYS = [("model", "d", "{}"), ("model", "r0", "{}"), ("model", "lambda", "{}"),
              ("model", "gamma", "{}"), ("grid", "dt", "{}"), ("initial", "s", "{}"),
              ("initial", "i", "{}"), ("initial", "r", "{}"),
              ("initial", "velocity", "delta {}"), ("initial", "weights", "1 {}; 1 1"),
              ("run", "t", "{}"), ("run", "sample_times", "0 {}"),
              ("run", "snapshot_times", "{}")]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("section,key,template", FLOAT_KEYS)
def test_non_finite_values_exit_2(tmp_path, section, key, template, value):
    # in a fresh process with a timeout: a non-finite horizon once hung the
    # event loops
    text = FULL.replace("[initial]", "[initial]\nweights = 1 1; 1 1")
    lines = [line for line in text.splitlines() if not line.startswith(f"{key} =")]
    at = lines.index(f"[{section}]") + 1
    lines.insert(at, f"{key} = {template.format(value)}")
    cfg_path = tmp_path / "c.ini"
    cfg_path.write_text("\n".join(lines) + "\n")
    src = Path(epichaos.__file__).parents[1]
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-m", "epichaos.cli", "meanfield",
                           "--config", str(cfg_path), "--out", str(tmp_path / "o")],
                          capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and f"{section}.{key}:" in proc.stderr
