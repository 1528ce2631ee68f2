"""Output checks, computed apart from epichaos.

Each check reads one experiment's output directory and returns a list of
failure messages; an empty list means the outputs are correct.  References
are built here from the config alone: the exact label chain of a few agents
(scipy ``expm``), the homogeneous SIR ODE (scipy ``solve_ivp``), the
a priori mismatch envelope, and a reader for the binary field snapshots
written from the documented header layout.

Statistical comparisons use six standard deviations, so a correct program
fails one of them with probability of order 1e-9 per comparison.
"""

import csv
import math
import struct
from pathlib import Path

import numpy as np
from scipy import stats
from scipy.integrate import solve_ivp
from scipy.linalg import expm

Z = 6.0
#: Relative slack of the per-replica infection counts against the
#: homogeneous ODE, which ignores spatial correlation between agents.
ODE_REL_SLACK = 0.1
FIELD_HEADER = "<4sIIIdd"  # magic, version, m, k, side, t: 32 bytes
FIELD_MAGIC = b"EPKF"
FIELD_VERSION = 1


class CheckError(Exception):
    """An output so malformed that the remaining checks cannot run."""


def read_table(path: Path):
    """(header, rows as lists of strings) of one CSV file."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, list(reader)


def numeric(path: Path, expected_header):
    header, rows = read_table(path)
    if header != expected_header:
        raise CheckError(f"{path.name}: header {header} != {expected_header}")
    return np.array(rows, dtype=float).reshape(-1, len(header))


def _grid_by_replica(table, replicas, times):
    """Reshape long-format rows into (replica, time, column); checks the layout."""
    want = len(replicas) * len(times)
    if table.shape[0] != want:
        raise CheckError(f"{table.shape[0]} rows, expected {want}")
    grid = table.reshape(len(replicas), len(times), -1)
    if not (np.all(grid[:, :, 0] == np.asarray(replicas)[:, None])
            and np.all(grid[:, :, 1] == np.asarray(times)[None, :])):
        raise CheckError("rows are not one per (replica, sample time) in order")
    return grid[:, :, 2:]


def count_rules(counts, n, label):
    """Every row sums to n, S never rises and R never falls, per replica."""
    fails = []
    if np.any(counts.sum(axis=-1) != n):
        fails.append(f"{label}: a count row does not sum to n={n}")
    if np.any(counts < 0):
        fails.append(f"{label}: a negative count")
    if np.any(np.diff(counts[..., 0], axis=-1) > 0):
        fails.append(f"{label}: S rises")
    if np.any(np.diff(counts[..., 2], axis=-1) < 0):
        fails.append(f"{label}: R falls")
    return fails


def sir_ode(beta, gamma, start, times):
    """Fractions (s, i, r) of the homogeneous SIR ODE at ``times``."""
    def rhs(_, y):
        s, i, _r = y
        return [-beta * s * i, beta * s * i - gamma * i, gamma * i]
    sol = solve_ivp(rhs, (0.0, float(times[-1])), list(start), t_eval=list(times),
                    method="DOP853", rtol=1e-10, atol=1e-12)
    return sol.y.T


def lattice_disc_area(m, side, r0):
    """Area of the cell-centre disc the solver convolves with (own count)."""
    h = side / m
    w = np.minimum(np.arange(m), m - np.arange(m)) * h
    return float(((w[:, None] ** 2 + w[None, :] ** 2) < r0 * r0).sum() * h * h)


def _infection_slack(pred):
    return Z * math.sqrt(pred + 1.0) + 3.0 + ODE_REL_SLACK * pred


def infections_vs_ode(counts, times, n, beta, gamma, label):
    """Per replica, S(0) - S(t) against the ODE started from its own t=0 counts."""
    fails = []
    for rep, series in enumerate(counts):
        pred_s = sir_ode(beta, gamma, series[0] / n, times)[:, 0] * n
        pred = series[0, 0] - pred_s
        seen = series[0, 0] - series[:, 0]
        worst = max(abs(s - p) - _infection_slack(p) for s, p in zip(seen, pred))
        if worst > 0:
            fails.append(f"{label} replica {rep}: infections {seen.tolist()} vs ODE "
                         f"{np.round(pred, 2).tolist()}")
    return fails


def field_infections(counts, times, n, beta, gamma, start, label):
    """Field-driven labels: each S agent is infected at rate beta * i_field(t)."""
    ode = sir_ode(beta, gamma, start, times)
    # exp(-beta * integral of i) is s(t)/s(0) of the field's own ODE
    survive = ode[:, 0] / ode[0, 0]
    fails = []
    for rep, series in enumerate(counts):
        pred = series[0, 0] * (1.0 - survive)
        seen = series[0, 0] - series[:, 0]
        worst = max(abs(s - p) - _infection_slack(p) for s, p in zip(seen, pred))
        if worst > 0:
            fails.append(f"{label} replica {rep}: infections {seen.tolist()} vs field "
                         f"{np.round(pred, 2).tolist()}")
    return fails


def _run_times(sections):
    run = sections["run"]
    return [float(t) for t in run.get("sample_times", [0.0, run["t"]])]


def _model(sections):
    m = sections["model"]
    return m["n"], m["d"], m["r0"], m["lambda"], m["gamma"]


# --- replicas-small-n --------------------------------------------------------

def count_chain_law(n, lam, gamma, fractions, times):
    """Law of (S, I) counts of n agents, all pairs in range, at ``times``.

    Each S agent is infected at rate lam * I / n (its partner is drawn among
    all n agents, itself included); each I agent recovers at rate gamma.  The
    start is the multinomial law of n i.i.d. labels with ``fractions``.
    """
    states = [(s, i) for s in range(n + 1) for i in range(n + 1 - s)]
    index = {st: k for k, st in enumerate(states)}
    q = np.zeros((len(states), len(states)))
    for (s, i), k in index.items():
        if s and i:
            q[k, index[(s - 1, i + 1)]] += lam * s * i / n
        if i:
            q[k, index[(s, i - 1)]] += gamma * i
        q[k, k] = -q[k].sum()
    p0 = np.array([stats.multinomial.pmf([s, i, n - s - i], n, fractions)
                   for s, i in states])
    return states, [p0 @ expm(q * t) for t in times]


def _pooled_chi2_pvalue(observed, expected, min_expected=5.0):
    """Chi-square p-value with the rarest states pooled to >= min_expected."""
    order = np.argsort(expected)
    pool_o = pool_e = 0.0
    obs, exp = [], []
    for k in order:
        if pool_e < min_expected:
            pool_o += observed[k]
            pool_e += expected[k]
        else:
            obs.append(observed[k])
            exp.append(expected[k])
    obs.append(pool_o)
    exp.append(pool_e)
    obs, exp = np.array(obs), np.array(exp)
    if len(obs) < 2:
        return 1.0
    chi2 = float(((obs - exp) ** 2 / np.maximum(exp, 1e-300)).sum())
    return float(stats.chi2.sf(chi2, len(obs) - 1))


def check_chain(sections, out: Path):
    """Particle runs with every pair in range against the exact count chain."""
    n, _, _, lam, gamma = _model(sections)
    init = sections["initial"]
    times = _run_times(sections)
    replicas = range(sections["run"]["replicas"])
    counts = _grid_by_replica(numeric(out / "observations.csv",
                                      ["replica", "time", "s", "i", "r"]),
                              replicas, times)
    fails = count_rules(counts, n, "particle")
    states, laws = count_chain_law(n, lam, gamma, (init["s"], init["i"], init["r"]), times)
    index = {st: k for k, st in enumerate(states)}
    for j, t in enumerate(times):
        observed = np.zeros(len(states))
        for s, i, _r in counts[:, j].astype(int):
            if (s, i) in index:
                observed[index[(s, i)]] += 1
        p = _pooled_chi2_pvalue(observed, laws[j] * len(replicas))
        if p < 1e-9:
            fails.append(f"particle t={t}: count law off the exact chain (p={p:.2e})")
    return fails


def check_meanfield_ode(sections, out: Path):
    """Field-driven S/I fractions against the SIR ODE with contact rate lambda.

    With r0 > side/sqrt(2) the disc covers the whole torus, so the field
    intensity is the I mass and each copy sees lambda * i(t) exactly.
    """
    n, _, _, lam, gamma = _model(sections)
    init = sections["initial"]
    times = _run_times(sections)
    reps = sections["run"]["replicas"]
    counts = _grid_by_replica(numeric(out / "observations.csv",
                                      ["replica", "time", "s", "i", "r"]),
                              range(reps), times)
    fails = count_rules(counts, n, "meanfield")
    ode = sir_ode(lam, gamma, (init["s"], init["i"], init["r"]), times)
    pooled = counts.sum(axis=0) / (n * reps)
    for j, t in enumerate(times):
        for c, name in ((0, "S"), (1, "I")):
            p = ode[j, c]
            tol = Z * math.sqrt(p * (1.0 - p) / (n * reps)) + 2e-3
            if abs(pooled[j, c] - p) > tol:
                fails.append(f"meanfield t={t}: {name} fraction {pooled[j, c]:.4f} "
                             f"vs ODE {p:.4f} (tol {tol:.4f})")
    return fails


# --- particle-large-n --------------------------------------------------------

def check_particle_ode(sections, out: Path):
    n, side, r0, lam, gamma = _model(sections)
    times = _run_times(sections)
    replicas = range(sections["run"]["replicas"])
    counts = _grid_by_replica(numeric(out / "observations.csv",
                                      ["replica", "time", "s", "i", "r"]),
                              replicas, times)
    fails = count_rules(counts, n, "particle")
    fails += infections_vs_ode(counts, times, n, lam * math.pi * r0 ** 2 / side ** 2,
                               gamma, "particle")
    m = sections["grid"]["m"]
    cells = numeric(out / "cells.csv", ["replica", "time", "ix", "iy", "s", "i", "r"])
    if cells.shape[0] != len(replicas) * len(times) * m * m:
        return fails + [f"cells.csv has {cells.shape[0]} rows, expected "
                        f"{len(replicas) * len(times) * m * m}"]
    cells = cells.reshape(len(replicas), len(times), m * m, 7)
    if not (np.all(cells[..., 0] == np.asarray(replicas)[:, None, None])
            and np.all(cells[..., 1] == np.asarray(times)[None, :, None])):
        fails.append("cells.csv rows are not grouped by (replica, sample time)")
    if np.any(cells[..., 4:] < 0):
        fails.append("cells.csv holds a negative count")
    if np.any(cells[..., 4:].sum(axis=2) != counts):
        fails.append("cell counts do not sum to the observation row")
    return fails


# --- study-coupled -----------------------------------------------------------

def check_study(sections, out: Path):
    _, side, r0, lam, gamma = _model(sections)
    init = sections["initial"]
    times = _run_times(sections)
    run = sections["run"]
    reps = run["replicas"]
    n_values = run["n_values"]
    table = numeric(out / "observations.csv",
                    ["n", "replica", "time", "mismatch",
                     "s_a", "i_a", "r_a", "s_b", "i_b", "r_b"])
    if table.shape[0] != len(n_values) * reps * len(times):
        raise CheckError(f"observations.csv has {table.shape[0]} rows")
    per_n = table.reshape(len(n_values), reps * len(times), -1)
    beta_a = lam * math.pi * r0 ** 2 / side ** 2
    beta_b = lam * lattice_disc_area(sections["grid"]["m"], side, r0) / side ** 2
    fails = []
    means = {}
    for block, n in zip(per_n, n_values):
        if np.any(block[:, 0] != n):
            raise CheckError("observations.csv rows are not grouped by n")
        data = _grid_by_replica(block[:, 1:], range(reps), times)
        mism, ca, cb = data[..., 0], data[..., 1:4], data[..., 4:7]
        fails += count_rules(ca, n, f"n={n} a")
        fails += count_rules(cb, n, f"n={n} b")
        if np.any(mism[:, 0] != 0.0):
            fails.append(f"n={n}: mismatch is not 0 at t=0")
        l1 = np.abs(ca - cb).sum(axis=-1) / n
        if np.any(mism < 0.5 * l1 - 1e-12):
            fails.append(f"n={n}: mismatch below half the label-count L1 distance")
        fails += infections_vs_ode(ca, times, n, beta_a, gamma, f"n={n} a")
        fails += field_infections(cb, times, n, beta_b, gamma,
                                  (init["s"], init["i"], init["r"]), f"n={n} b")
        t = times[-1]
        mean = float(mism[:, -1].mean())
        half = 1.96 * float(mism[:, -1].std(ddof=1)) / math.sqrt(reps)
        envelope = t * lam / n * math.exp(2.0 * lam * t)
        if mean + half > envelope:
            fails.append(f"n={n} t={t}: mismatch {mean:.2e}+{half:.1e} above the "
                         f"envelope {envelope:.2e}")
        means[n] = mism.mean(axis=0)
    summary = numeric(out / "summary.csv",
                      ["n", "time", "mismatch_mean", "mismatch_ci", "bound"])
    for n_, t, mean, _ci, bound in summary:
        j = times.index(t)
        if not math.isclose(mean, means[int(n_)][j], rel_tol=1e-9, abs_tol=1e-15) or \
                not math.isclose(bound, t * lam / n_ * math.exp(2.0 * lam * t),
                                 rel_tol=1e-12):
            fails.append(f"summary.csv row n={int(n_)} t={t} disagrees with observations")
    # a log-log fit for every sample time at which every mean is positive
    slope = numeric(out / "slope.csv", ["time", "slope", "stderr", "ci95_lo", "ci95_hi"])
    fitted = []
    for j, t in enumerate(times):
        ys = [means[n][j] for n in n_values]
        if min(ys) > 0:
            fitted.append((t, float(np.polyfit(np.log(n_values), np.log(ys), 1)[0])))
    if [t for t, _ in fitted] != slope[:, 0].tolist() or not all(
            math.isclose(s, row[1], rel_tol=1e-9, abs_tol=1e-9)
            for (_, s), row in zip(fitted, slope)):
        fails.append(f"slope.csv {slope[:, :2].tolist()} != own fit {fitted}")
    return fails


# --- kinetic-fine ------------------------------------------------------------

def read_field(path: Path):
    """(m, k, side, t, values) of a binary snapshot, from the documented layout."""
    data = path.read_bytes()
    size = struct.calcsize(FIELD_HEADER)
    magic, version, m, k, side, t = struct.unpack(FIELD_HEADER, data[:size])
    if magic != FIELD_MAGIC or version != FIELD_VERSION:
        raise CheckError(f"{path.name}: bad magic {magic!r} or version {version}")
    payload = data[size:]
    if len(payload) != 3 * m * m * k * 8:
        raise CheckError(f"{path.name}: payload of {len(payload)} bytes for m={m} k={k}")
    values = np.frombuffer(payload, dtype="<f8").reshape(3, m, m, k)
    return m, k, side, t, values


def check_kinetic(sections, out: Path):
    grid = sections["grid"]
    side = sections["model"]["d"]
    run = sections["run"]
    masses = numeric(out / "masses.csv", ["time", "s_mass", "i_mass", "r_mass"])
    fails = []
    steps = round(run["t"] / grid["dt"])
    if masses.shape[0] != steps + 1:
        fails.append(f"masses.csv has {masses.shape[0]} rows, expected {steps + 1}")
    total = masses[:, 1:].sum(axis=1)
    if np.abs(total - 1.0).max() > 1e-10:
        fails.append(f"total mass drifts by {np.abs(total - 1.0).max():.2e}")
    if np.any(np.diff(masses[:, 1]) > 1e-13):
        fails.append("S mass rises")
    if np.any(np.diff(masses[:, 3]) < -1e-13):
        fails.append("R mass falls")
    header, rows = read_table(out / "snapshots.csv")
    if header != ["time", "file", "s_mass", "i_mass", "r_mass"]:
        raise CheckError(f"snapshots.csv header {header}")
    want_times = [float(t) for t in run["snapshot_times"]]
    if [float(r[0]) for r in rows] != want_times:
        fails.append(f"snapshot times {[r[0] for r in rows]} != {want_times}")
    for row in rows:
        t, name = float(row[0]), row[1]
        m, k, fside, ft, values = read_field(out / name)
        if (m, k, fside, ft) != (grid["m"], grid["k"], side, t):
            fails.append(f"{name}: header (m={m}, k={k}, side={fside}, t={ft})")
            continue
        if np.any(values < 0) or not np.all(np.isfinite(values)):
            fails.append(f"{name}: a negative or non-finite density")
        label_masses = values.sum(axis=(1, 2, 3)) * (side / m) ** 2 * (2 * math.pi / k)
        if not np.allclose(label_masses, [float(v) for v in row[2:]],
                           rtol=1e-12, atol=1e-15):
            fails.append(f"{name}: label masses {label_masses} != snapshots.csv row")
    return fails


CHECKS = {
    "chain": check_chain,
    "meanfield_ode": check_meanfield_ode,
    "particle_ode": check_particle_ode,
    "study": check_study,
    "kinetic": check_kinetic,
}


def run_check(name, sections, out: Path):
    """Failure messages of one experiment's outputs; malformed files fail too."""
    try:
        return CHECKS[name](sections, Path(out))
    except (CheckError, OSError, ValueError, KeyError, IndexError) as exc:
        return [f"{type(exc).__name__}: {exc}"]
