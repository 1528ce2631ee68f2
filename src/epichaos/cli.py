"""Experiment front end: config parsing, orchestration, and file emission.

One plain-text config file (flat INI sections: [model], [grid], [initial],
[run]) drives every experiment kind:

  particle   event-driven interacting runs, replicated
  kinetic    one deterministic solve with snapshots
  meanfield  independent-copies runs driven by the solved field
  couple     paired runs measuring the label mismatch
  study      couple repeated over several agent counts + slope fit
  validate   quick self-checks against the bundled references

Every run writes a manifest listing the full configuration, the seed and
every emitted file; rerunning with the same config and seed reproduces all
CSVs byte for byte.  Replicas draw their own child streams, so worker
parallelism changes wall time only.
"""

import argparse
import concurrent.futures
import configparser
import functools
import json
import math
import os
import sys
from dataclasses import astuple, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import __version__, oracles
from .core import Label, ModelParams, SeedSpec, TWO_PI, torus_distance
from .initial import InitialCondition, InitialConditionError
from .kinetic import (DiscKernel, GridError, GridSpec, KineticField, field_from_initial,
                      save_field, solve)
from .meanfield import FieldOracle, constant_oracle, ensemble_counts, run_ensemble
from .coupling import Channels, mismatch_bound, run_coupled
from .observables import empirical_marginal, ensemble_aggregate
from .particle import ConfigError, check_sample_times, run, sample_initial

KINDS = ("particle", "kinetic", "meanfield", "couple", "study", "validate")

_MODEL_KEYS = {"n", "d", "r0", "lambda", "gamma"}
_GRID_KEYS = {"m", "k", "dt"}
_INITIAL_KEYS = {"s", "i", "r", "velocity", "weights", "labels_csv"}
_RUN_KEYS = {"t", "sample_times", "replicas", "seed", "n_values",
             "snapshot_times", "interaction", "cell_counts", "threads"}


@dataclass
class RunConfig:
    """Validated experiment description."""

    kind: str
    model: ModelParams
    initial: InitialCondition
    grid: GridSpec | None
    t_max: float
    sample_times: list
    replicas: int
    seed: int
    n_values: list
    snapshot_times: list
    interaction: str
    cell_counts: bool
    threads: int
    raw: dict = field(default_factory=dict)


def _finite(text) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{value} is not finite")
    return value


def _parse_floats(text):
    return [_finite(tok) for tok in text.split()]


def _parse_matrix(text):
    rows = [_parse_floats(row) for row in text.split(";")]
    if len({len(row) for row in rows}) > 1:
        raise ValueError("rows must have equal length")
    return rows


_BOOLEANS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def _parse_bool(text):
    try:
        return _BOOLEANS[text.lower()]
    except KeyError:
        raise ValueError("expected true/false, yes/no or 1/0") from None


def _parse_velocity(text):
    parts = text.split()
    if parts == ["uniform"]:
        return "uniform"
    if len(parts) == 2 and parts[0] == "delta":
        return _finite(parts[1])
    raise ValueError("expected 'uniform' or 'delta <angle>'")


def parse_config(text: str, kind: str = "particle", base_dir=None,
                 overrides=None) -> RunConfig:
    """Parse and validate a config file; collects every violation.

    ``base_dir`` is the directory a relative ``labels_csv`` is read from
    (default: the working directory).  ``overrides`` maps ``[run]`` keys to
    values that replace the file's, and are validated like them.  Raises
    ConfigError whose message lists each offending key as
    ``section.key: reason``.
    """
    if kind not in KINDS:
        raise ConfigError(f"unknown experiment kind {kind!r}")
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config syntax: {exc}") from exc
    if overrides:
        if not cp.has_section("run"):
            cp.add_section("run")
        for key, value in overrides.items():
            cp["run"][key] = str(value)

    errors = []

    def fail(key, reason):
        errors.append(f"{key}: {reason}")

    for section in cp.sections():
        if section not in ("model", "grid", "initial", "run"):
            fail(section, "unknown section")
    known = {"model": _MODEL_KEYS, "grid": _GRID_KEYS,
             "initial": _INITIAL_KEYS, "run": _RUN_KEYS}
    for section, keys in known.items():
        if cp.has_section(section):
            for key in cp[section]:
                if key not in keys:
                    fail(f"{section}.{key}", "unknown key")

    def get(section, key, cast, default=None, required=False):
        if not cp.has_section(section) or key not in cp[section]:
            if required:
                fail(f"{section}.{key}", "missing required key")
            return default
        rawval = cp[section][key]
        try:
            return cast(rawval)
        except (ValueError, TypeError) as exc:
            fail(f"{section}.{key}", f"cannot parse {rawval!r}: {exc}")
            return default

    n = get("model", "n", int, required=True)
    d = get("model", "d", _finite, required=True)
    r0 = get("model", "r0", _finite, required=True)
    lam = get("model", "lambda", _finite, required=True)
    gamma = get("model", "gamma", _finite, required=True)
    model = None
    if not errors:
        try:
            model = ModelParams(n=n, side=d, radius=r0,
                                infection_rate=lam, recovery_rate=gamma)
        except ValueError as exc:
            for part in str(exc).split("; "):
                name = part.split(" ", 1)[0]
                keymap = {"n": "n", "side": "d", "radius": "r0",
                          "infection_rate": "lambda", "recovery_rate": "gamma"}
                fail(f"model.{keymap.get(name, name)}", part)

    grid = None
    solves = kind in ("kinetic", "meanfield", "couple", "study")
    cell_counts = get("run", "cell_counts", _parse_bool, default=False)
    # particle bins its cell counts on [grid] m
    needs_grid = solves or (kind == "particle" and bool(cell_counts))
    if cp.has_section("grid") or needs_grid:
        gm = get("grid", "m", int, required=needs_grid)
        gk = get("grid", "k", int, required=needs_grid)
        gdt = get("grid", "dt", _finite, required=needs_grid)
        if gm is not None and gk is not None and gdt is not None and d is not None:
            try:
                grid = GridSpec(m=gm, k=gk, dt=gdt, side=d)
            except GridError as exc:
                fail("grid", str(exc))

    s_frac = get("initial", "s", _finite, default=1.0)
    i_frac = get("initial", "i", _finite, default=0.0)
    r_frac = get("initial", "r", _finite, default=0.0)
    velocity = get("initial", "velocity", _parse_velocity, default="uniform")
    weights = get("initial", "weights", _parse_matrix)
    labels_csv = get("initial", "labels_csv", str)
    initial = None
    if not errors:
        fractions = (s_frac, i_frac, r_frac)
        if labels_csv is not None:
            try:
                table = np.loadtxt(Path(base_dir or "") / labels_csv, delimiter=",",
                                   ndmin=2)
            except (OSError, ValueError) as exc:
                fail("initial.labels_csv", str(exc))
            else:
                m0 = math.isqrt(table.shape[0])
                if not np.all(np.isfinite(table)):
                    fail("initial.labels_csv", "values must be finite")
                elif m0 * m0 == table.shape[0] and table.shape[1] == 3:
                    fractions = table.reshape(m0, m0, 3)
                else:
                    fail("initial.labels_csv", f"needs m0*m0 rows of s,i,r, got "
                         f"{table.shape[0]} rows of {table.shape[1]} values")
        if not errors:
            try:
                initial = InitialCondition(side=d, fractions=fractions,
                                           weights=weights, velocity=velocity)
            except InitialConditionError as exc:
                fail("initial", str(exc))
    # the solver projects the initial grid onto its own, which must refine it
    if solves and grid is not None and initial is not None and grid.m % initial.m0:
        fail("grid.m", f"must be a multiple of the initial grid's m0 = {initial.m0}, "
             f"got {grid.m}")

    t_max = get("run", "t", _finite, required=True)
    sample_times = get("run", "sample_times", _parse_floats)
    replicas = get("run", "replicas", int, default=1)
    seed = get("run", "seed", int, default=0)
    n_values = get("run", "n_values", lambda s: [int(tok) for tok in s.split()],
                   required=(kind == "study"))
    snapshot_times = get("run", "snapshot_times", _parse_floats, default=None)
    interaction = get("run", "interaction", str, default="per_agent")
    threads = get("run", "threads", int, default=1)

    if t_max is not None and t_max < 0:
        fail("run.t", f"must be >= 0, got {t_max}")
    if sample_times is None and t_max is not None:
        sample_times = [0.0, t_max]
    if sample_times is not None and t_max is not None and t_max >= 0:
        try:
            check_sample_times(sample_times, t_max)
        except ConfigError as exc:
            fail("run.sample_times", str(exc))
    if snapshot_times is None and t_max is not None:
        snapshot_times = [t_max]
    if seed is not None and seed < 0:
        fail("run.seed", f"must be >= 0, got {seed}")
    if replicas is not None and replicas < 1:
        fail("run.replicas", f"must be >= 1, got {replicas}")
    if n_values and min(n_values) < 1:
        fail("run.n_values", f"agent counts must be >= 1, got {min(n_values)}")
    if interaction not in ("per_agent", "pair"):
        fail("run.interaction", f"must be per_agent or pair, got {interaction!r}")
    elif interaction == "pair" and kind in ("couple", "study"):
        fail("run.interaction", f"{kind} runs the per_agent form only, got 'pair'")
    if threads is not None and threads < 1:
        fail("run.threads", f"must be >= 1, got {threads}")
    # a slope needs two counts; a repeated count reruns the same seeds
    if kind == "study" and n_values is not None and (
            len(n_values) < 2 or len(set(n_values)) < len(n_values)):
        fail("run.n_values", f"study needs at least two distinct agent counts, got {n_values}")

    if errors:
        raise ConfigError("invalid config:\n  " + "\n  ".join(errors))

    raw = {sec: dict(cp[sec]) for sec in cp.sections()}
    return RunConfig(kind=kind, model=model, initial=initial, grid=grid,
                     t_max=t_max, sample_times=sample_times, replicas=replicas,
                     seed=seed, n_values=n_values or [], snapshot_times=snapshot_times,
                     interaction=interaction, cell_counts=cell_counts, threads=threads,
                     raw=raw)


def _write_csv(path: Path, header, rows) -> None:
    """The header and rows as CSV lines, each field formatted by ``%s``,
    which is ``str``: that of a Python float is its shortest round-trip
    ``repr``.  A row whose length differs from the header's raises
    TypeError.  The lines go through the file's buffer one by one, so a
    large table is never held as one text."""
    line = ",".join(["%s"] * len(header)) + "\n"
    with open(path, "w", newline="") as fh:
        fh.writelines(line % tuple(row) for row in [header, *rows])


def _config_fingerprint(cfg: RunConfig) -> dict:
    return {
        "model": {"n": cfg.model.n, "d": cfg.model.side, "r0": cfg.model.radius,
                  "lambda": cfg.model.infection_rate, "gamma": cfg.model.recovery_rate},
        "grid": None if cfg.grid is None else
                {"m": cfg.grid.m, "k": cfg.grid.k, "dt": cfg.grid.dt},
        "initial": {
            "side": cfg.initial.side,
            "fractions": np.asarray(cfg.initial.fractions, dtype=float).tolist(),
            "weights": None if cfg.initial.weights is None
                       else np.asarray(cfg.initial.weights, dtype=float).tolist(),
            "velocity": cfg.initial.velocity if cfg.initial.velocity == "uniform"
                        else float(cfg.initial.velocity),
        },
        "t": cfg.t_max,
    }


def _solver_stats(traj) -> dict:
    """The solver's manifest entry: negative densities clamped and the
    largest one-step change of the total mass."""
    drift = np.abs(np.diff(traj.masses.sum(axis=1))).max(initial=0.0)
    return {"clamp_count": int(traj.clamp_count), "max_step_mass_drift": float(drift)}


def _solve_oracle(cfg: RunConfig):
    """The field's oracle and the solver's manifest entry."""
    traj = solve(field_from_initial(cfg.initial, cfg.grid), cfg.model, cfg.grid, cfg.t_max)
    # the field's contact rate runs over the lattice disc, not the true one
    kernel = DiscKernel(cfg.grid.m, cfg.grid.side, cfg.model.radius)
    solver = {**_solver_stats(traj),
              "lattice_disc_area_ratio": kernel.disc_area / (math.pi * cfg.model.radius ** 2)}
    return FieldOracle.from_trajectory(traj), solver


def _rows(*columns):
    """Table rows from equal-shape columns, each read in C order.  ``tolist``
    gives Python ints and floats, which ``_write_csv`` writes as it writes
    numbers computed in Python."""
    return list(zip(*(np.asarray(c).ravel().tolist() for c in columns)))


def _particle_chunk(cfg: RunConfig, rids):
    """The counts of the replicas ``rids``, shape (len(rids), times, 3), and
    with ``cell_counts`` their label counts per cell, (len(rids), times, 3,
    m, m) on ``[grid] m``; one ``run`` per replica."""
    counts, cells = [], []
    for rid in rids:
        seed = SeedSpec(cfg.seed).child(rid)
        state = sample_initial(cfg.initial, cfg.model.n, seed.child(0).rng())
        traj = run(state, cfg.model, cfg.t_max, cfg.sample_times, seed.child(1),
                   interaction=cfg.interaction)
        counts.append(traj.counts)
        if cfg.cell_counts:
            cells.append([empirical_marginal(traj.state_at(t), cfg.grid.m, 1, cfg.model.side)
                          .counts.sum(axis=3) for t in traj.times])
    return np.array(counts), np.array(cells)


def _meanfield_chunk(cfg: RunConfig, oracle: FieldOracle, rids):
    """The counts of the replicas ``rids``, shape (len(rids), times, 3), as
    the one array of a chunk's results."""
    seeds = [SeedSpec(cfg.seed).child(rid) for rid in rids]
    return (ensemble_counts(cfg.model.n, cfg.initial, oracle, cfg.model,
                            cfg.t_max, cfg.sample_times, seeds),)


def _couple_chunk(cfg: RunConfig, oracle: FieldOracle, n: int, rids):
    """The mismatch (len(rids), times), the a and b counts (len(rids), times,
    3) and the b channel counts (len(rids), channels) of the paired runs
    ``rids`` at n agents; one ``run_coupled`` per replica."""
    results = []
    for rid in rids:
        seed = SeedSpec(cfg.seed).child(n, rid)
        state = sample_initial(cfg.initial, n, seed.child(0).rng())
        traj = run_coupled(state, cfg.model.with_n(n), oracle, cfg.t_max,
                           cfg.sample_times, seed.child(1))
        results.append((traj.mismatch, traj.counts_a, traj.counts_b,
                        astuple(traj.channels)))
    return [np.array(part) for part in zip(*results)]


def _pool_map(task, jobs, threads):
    """``task`` over ``jobs`` in order, on at most one worker per job and
    per CPU: ``threads`` is not bounded, so a config that asks for more
    workers than the machine has runs on every CPU.  A pool pickles the task
    with each job, so the jobs are ranges of replica ids and the task holds
    the config and the oracle."""
    workers = min(threads, len(jobs), os.cpu_count() or 1)
    if workers <= 1:
        return [task(j) for j in jobs]
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(task, jobs))


def _replica_chunks(cfg: RunConfig):
    """Ranges of replica ids, about replicas / (4 threads) in each: the
    pool's jobs."""
    size = max(1, cfg.replicas // (4 * cfg.threads))
    return [range(lo, min(lo + size, cfg.replicas)) for lo in range(0, cfg.replicas, size)]


def _replicated(cfg: RunConfig, task):
    """``task`` over every chunk of replicas; each array it returns, joined
    over the chunks in replica order."""
    chunks = _pool_map(task, _replica_chunks(cfg), cfg.threads)
    return [np.concatenate(part) for part in zip(*chunks)]


def _replica_outputs(cfg: RunConfig, counts, cells=None) -> dict:
    """Observations, cell counts if given and, from two replicas on, the
    summary of replicated particle or field-driven runs: ``counts`` of
    shape (replicas, times, 3) and ``cells`` of shape (replicas, times, 3,
    m, m)."""
    times = check_sample_times(cfg.sample_times, cfg.t_max)
    rid, j = np.indices(counts.shape[:2])
    outputs = {"observations.csv": (["replica", "time", "s", "i", "r"],
                                    _rows(rid, times[j], *np.moveaxis(counts, -1, 0)))}
    if cells is not None:
        rid, j, ix, iy = np.indices(cells.shape[:2] + cells.shape[3:])
        outputs["cells.csv"] = (["replica", "time", "ix", "iy", "s", "i", "r"],
                                _rows(rid, times[j], ix, iy, *np.moveaxis(cells, 2, 0)))
    if cfg.replicas >= 2:
        stack = counts.astype(float)
        srows = []
        for j, t in enumerate(times.tolist()):
            row = [t]
            for c in range(3):
                mean, half, _ = ensemble_aggregate(stack[:, j, c])
                row += [float(mean[0]), float(half[0])]
            srows.append(tuple(row))
        outputs["summary.csv"] = (["time", "s_mean", "s_ci", "i_mean", "i_ci",
                                   "r_mean", "r_ci"], srows)
    return outputs


def _run_particle(cfg: RunConfig):
    counts, cells = _replicated(cfg, functools.partial(_particle_chunk, cfg))
    return _replica_outputs(cfg, counts, cells if cfg.cell_counts else None), {}


def _run_meanfield(cfg: RunConfig):
    oracle, solver = _solve_oracle(cfg)
    counts, = _replicated(cfg, functools.partial(_meanfield_chunk, cfg, oracle))
    return _replica_outputs(cfg, counts), {"solver": solver}


def _run_kinetic(cfg: RunConfig):
    """Masses and snapshots, and the solver's manifest entry."""
    f0 = field_from_initial(cfg.initial, cfg.grid)
    traj = solve(f0, cfg.model, cfg.grid, cfg.t_max, snapshot_times=cfg.snapshot_times)
    outputs = {"masses.csv": (["time", "s_mass", "i_mass", "r_mass"],
                              _rows(traj.mass_times, *traj.masses.T))}
    snap_rows = []
    for t, fld in zip(traj.snapshot_times.tolist(), traj.snapshots):
        # repr keeps distinct times apart, however close
        name = f"field_{t!r}.bin"
        outputs[name] = fld
        snap_rows.append((t, name, *fld.label_masses().tolist()))
    outputs["snapshots.csv"] = (["time", "file", "s_mass", "i_mass", "r_mass"], snap_rows)
    return outputs, {"solver": _solver_stats(traj)}


def _paired_runs(cfg: RunConfig, n_values):
    """Paired runs per agent count: the outputs and manifest entry of
    ``couple`` (solver stats and the b-attempt channel counts summed over
    the replicas of each n), and the mismatch (replicas, times) per n."""
    oracle, solver = _solve_oracle(cfg)
    times = check_sample_times(cfg.sample_times, cfg.t_max)
    rows, srows, mismatch, channels = [], [], {}, {}
    for n in n_values:
        mism, ca, cb, ch = _replicated(cfg, functools.partial(_couple_chunk, cfg, oracle, n))
        rid, j = np.indices(mism.shape)
        rows += _rows(np.full(mism.shape, n), rid, times[j], mism,
                      *np.moveaxis(ca, -1, 0), *np.moveaxis(cb, -1, 0))
        mismatch[n] = mism
        channels[str(n)] = dict(zip((f.name for f in fields(Channels)),
                                    ch.sum(axis=0).tolist()))
        if cfg.replicas >= 2:
            mean, half, _ = ensemble_aggregate(mism)
            srows += [(n, t, m, h, mismatch_bound(t, cfg.model.infection_rate, n))
                      for t, m, h in zip(times.tolist(), mean.tolist(), half.tolist())]
    outputs = {"observations.csv": (["n", "replica", "time", "mismatch",
                                     "s_a", "i_a", "r_a", "s_b", "i_b", "r_b"], rows)}
    if srows:
        outputs["summary.csv"] = (["n", "time", "mismatch_mean", "mismatch_ci", "bound"],
                                  srows)
    return outputs, {"solver": solver, "coupling_channels": channels}, mismatch


def _run_couple(cfg: RunConfig):
    return _paired_runs(cfg, [cfg.model.n])[:2]


_GNUPLOT_TEMPLATE = """# mismatch scaling, log-log
set logscale xy
set xlabel 'agents n'
set ylabel 'mean mismatch'
set datafile separator ','
plot 'summary.csv' using 1:($2=={time} ? $3 : 1/0) with linespoints title 'measured', \\
     'summary.csv' using 1:($2=={time} ? $5 : 1/0) with lines title 'bound'
"""


def fit_loglog_slope(n_values, means):
    """OLS slope of log(mean) on log(n) with its standard error."""
    xs = np.log(np.asarray(n_values, dtype=float))
    ys = np.log(np.asarray(means, dtype=float))
    xbar, ybar = xs.mean(), ys.mean()
    sxx = ((xs - xbar) ** 2).sum()
    slope = ((xs - xbar) * (ys - ybar)).sum() / sxx
    icept = ybar - slope * xbar
    resid = ys - (icept + slope * xs)
    dof = max(1, xs.size - 2)
    se = math.sqrt((resid ** 2).sum() / dof / sxx)
    return slope, se


def _run_study(cfg: RunConfig):
    """Paired runs over the agent counts and a log-log slope per sample
    time.  A time at which some count has zero mean mismatch cannot be
    fitted; it is named on stderr and in the manifest entry."""
    outputs, extra, mismatch = _paired_runs(cfg, cfg.n_values)
    slope_rows = []
    skipped = []
    for t_idx, t in enumerate(check_sample_times(cfg.sample_times, cfg.t_max).tolist()):
        means = [mismatch[n][:, t_idx].mean() for n in cfg.n_values]
        if min(means) <= 0:
            zero = ", ".join(str(n) for n, m in zip(cfg.n_values, means) if m <= 0)
            print(f"note: slope.csv skips t={t}: mean mismatch is 0 "
                  f"for n = {zero}", file=sys.stderr)
            skipped.append(t)
            continue
        slope, se = fit_loglog_slope(cfg.n_values, means)
        slope_rows.append((t, float(slope), float(se),
                           float(slope - 1.96 * se), float(slope + 1.96 * se)))
    outputs["slope.csv"] = (["time", "slope", "stderr", "ci95_lo", "ci95_hi"], slope_rows)
    # the plot reads summary.csv, which needs two replicas
    if slope_rows and "summary.csv" in outputs:
        outputs["plot.gp"] = _GNUPLOT_TEMPLATE.format(time=slope_rows[-1][0])
    return outputs, {**extra, "slope_skipped_times": skipped}


def _validate_checks(cfg: RunConfig):
    """Quick oracle suite: yields (name, passed, detail)."""
    seed = SeedSpec(cfg.seed)

    rng = seed.child(0).rng()
    pts = rng.random((200, 3, 2))
    sym = triangle = True
    for p in pts:
        d01 = torus_distance(p[0], p[1], 1.0)
        d10 = torus_distance(p[1], p[0], 1.0)
        d02 = torus_distance(p[0], p[2], 1.0)
        d12 = torus_distance(p[1], p[2], 1.0)
        sym &= d01 == d10
        triangle &= d02 <= d01 + d12 + 1e-12
    yield "torus_metric", bool(sym and triangle), "symmetry and triangle inequality"

    draws = seed.child(1).rng().random(100_000) * TWO_PI
    hist = np.bincount((draws / (TWO_PI / 36)).astype(int), minlength=36)
    expected = draws.size / 36
    chi2 = float(((hist - expected) ** 2 / expected).sum())
    from scipy import stats
    p = float(stats.chi2.sf(chi2, 35))
    yield "velocity_uniformity", p > 1e-3, f"chi-square p={p:.4f}"

    params = ModelParams(n=2, side=1.0, radius=1.0, infection_rate=1.0, recovery_rate=0.0)
    reps = 20_000
    hits = 0
    for r in range(reps):
        st = sample_initial(InitialCondition(side=1.0, fractions=(0.0, 1.0, 0.0)),
                            2, seed.child(2, r, 0).rng())
        st.labels[0] = Label.S
        traj = run(st, params, 1.0, [1.0], seed.child(2, r, 1))
        hits += int(traj.counts[-1][1] == 2)
    p_hat = hits / reps
    p_exact = 1.0 - math.exp(-0.5)
    tol = 4.0 * math.sqrt(p_exact * (1 - p_exact) / reps)
    yield ("pair_infection_law", abs(p_hat - p_exact) < tol,
           f"P(both infected)={p_hat:.4f} vs {p_exact:.4f} (tol {tol:.4f})")

    params = ModelParams(n=16, side=1.0, radius=0.1, infection_rate=1.0, recovery_rate=0.5)
    grid = GridSpec(m=16, k=8, dt=2e-3, side=1.0)
    ic = InitialCondition(side=1.0, fractions=(0.9, 0.1, 0.0))
    traj = solve(field_from_initial(ic, grid), params, grid, 1.0)
    kern = DiscKernel(16, 1.0, 0.1)
    beta = params.infection_rate * kern.disc_area
    _, ode = oracles.sir_ode_solve(beta, 0.5, (0.9, 0.1, 0.0), 1.0, 2e-3)
    err = float(np.abs(traj.masses - ode).max())
    yield "solver_homogeneous", err < 1e-4, f"sup mass error {err:.2e}"

    rng = seed.child(3).rng()
    kern = DiscKernel(32, 1.0, 0.12)
    ok = True
    worst = 0.0
    for _ in range(5):
        rho = rng.random((32, 32))
        ref = oracles.direct_convolution(rho, 0.12, 1.0)
        for backend in (kern.direct, kern.spectral):
            diff = float(np.abs(backend(rho) - ref).max())
            worst = max(worst, diff)
            ok &= diff < 1e-10
    yield "convolution_backends", ok, f"max abs deviation {worst:.2e}"

    orc = constant_oracle(1.0, 0.5, 2.0)
    params = ModelParams(n=20_000, side=1.0, radius=0.1, infection_rate=1.0,
                         recovery_rate=0.0)
    traj = run_ensemble(params.n, InitialCondition(side=1.0, fractions=(1.0, 0.0, 0.0)),
                        orc, params, 2.0, [2.0], seed.child(4))
    frac_s = traj.counts[-1][0] / params.n
    p_exact = math.exp(-0.5 * 2.0)
    tol = 4.0 * math.sqrt(p_exact * (1 - p_exact) / params.n)
    yield ("thinning_law", abs(frac_s - p_exact) < tol,
           f"P(still S)={frac_s:.4f} vs {p_exact:.4f} (tol {tol:.4f})")


def _run_validate(cfg: RunConfig):
    rows = []
    for name, passed, detail in _validate_checks(cfg):
        status = "PASS" if passed else "FAIL"
        print(f"{status} {name}: {detail}")
        rows.append((name, status, detail))
    return {"validate.csv": (["check", "status", "detail"], rows)}, {}


#: Each kind's run: config -> (outputs by file name, manifest entries).  An
#: output is a CSV's (header, rows), a ``KineticField`` or a text file.
_RUNS = {"particle": _run_particle, "kinetic": _run_kinetic, "meanfield": _run_meanfield,
         "couple": _run_couple, "study": _run_study, "validate": _run_validate}


def run_experiment(cfg: RunConfig, out_dir) -> int:
    """Execute one experiment kind, then write its outputs and the manifest
    into ``out_dir``.  Nothing is written before every output is computed,
    so an error on the way leaves no directory behind.  Returns a process
    exit status: 1 if a ``validate`` check failed, else 0."""
    outputs, extra = _RUNS[cfg.kind](cfg)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, content in outputs.items():
        if isinstance(content, KineticField):
            save_field(out / name, content)
        elif isinstance(content, str):
            (out / name).write_text(content)
        else:
            _write_csv(out / name, *content)
    manifest = {
        "kind": cfg.kind,
        "version": __version__,
        "seed": cfg.seed,
        "replicas": cfg.replicas,
        "config": cfg.raw,
        "fingerprint": _config_fingerprint(cfg),
        "files": sorted(outputs),
        **extra,
    }
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    return int(cfg.kind == "validate"
               and any(row[1] == "FAIL" for row in outputs["validate.csv"][1]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="epichaos",
        description="agent, field and paired-run experiments for the spatial "
                    "SIR model on a periodic square")
    parser.add_argument("kind", choices=KINDS)
    parser.add_argument("--config", required=True, help="path to the INI config file")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override [run] seed")
    parser.add_argument("--replicas", type=int, default=None, help="override [run] replicas")
    parser.add_argument("--threads", type=int, default=None, help="override [run] threads")
    args = parser.parse_args(argv)

    overrides = {key: getattr(args, key) for key in ("seed", "replicas", "threads")
                 if getattr(args, key) is not None}
    try:
        text = Path(args.config).read_text(encoding="utf-8")
        cfg = parse_config(text, args.kind, base_dir=Path(args.config).parent,
                           overrides=overrides)
    except (OSError, UnicodeDecodeError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return run_experiment(cfg, args.out)
    except (ConfigError, GridError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # a huge rate asks for a huge block of draws
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
