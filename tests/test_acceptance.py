"""Acceptance suite: one test per headline criterion, at the stated sizes
and tolerances.  Each test prints a single PASS/FAIL line (run pytest with
-s to see them stream) carrying the measured numbers.

Shared scale: unit square, interaction radius 0.1, infection rate 1,
recovery rate 0.5, uniform isotropic initial data with label fractions
(0.9, 0.1, 0).
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

import epichaos as ec
from epichaos.cli import fit_loglog_slope, main
from epichaos.oracles import (direct_convolution, master_equation_solve,
                              sir_ode_solve, state_index)

SIDE = 1.0
IC = ec.uniform_sir(SIDE, 0.9, 0.1, 0.0)
BASE = ec.ModelParams(n=100, side=SIDE, radius=0.1,
                      infection_rate=1.0, recovery_rate=0.5)


def verdict(tag, ok, detail):
    print(f"\nACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{tag}: {detail}"


@pytest.fixture(scope="module")
def coarse_oracle():
    """Field solve driving the coupled and field-driven runs to t = 1."""
    grid = ec.GridSpec(m=32, k=8, dt=5e-3, side=SIDE)
    traj = ec.solve(ec.field_from_initial(IC, grid), BASE, grid, 1.0, nf_stride=2)
    return ec.FieldOracle.from_trajectory(traj)


@pytest.fixture(scope="module")
def fine_solution():
    """Reference solve on the fine grid with a snapshot at t = 1."""
    grid = ec.GridSpec(m=64, k=16, dt=1e-3, side=SIDE)
    return ec.solve(ec.field_from_initial(IC, grid), BASE, grid, 1.0,
                    snapshot_times=[1.0], nf_stride=10)


def coupled_means(oracle, n, reps, times, seed_tag):
    """The mismatch (reps, times) of the paired runs of seeds
    ``SeedSpec(20_001).child(seed_tag, n, r)``."""
    seeds = [ec.SeedSpec(20_001).child(seed_tag, n, r) for r in range(reps)]
    return ec.coupled_counts(n, IC, oracle, BASE.with_n(n), times[-1], times, seeds)[0]


def test_c01_mismatch_bound(coarse_oracle):
    times = [0.5, 1.0]
    reps = 240
    details = []
    ok = True
    for n in (400, 800):
        rows = coupled_means(coarse_oracle, n, reps, times, seed_tag=1)
        for j, t in enumerate(times):
            mean = rows[:, j].mean()
            half = 1.96 * rows[:, j].std(ddof=1) / math.sqrt(reps)
            bound = ec.mismatch_bound(t, BASE.infection_rate, n)
            ok &= mean + half <= bound
            details.append(f"n={n} t={t}: {mean:.2e}+{half:.1e} vs {bound:.2e}")
    verdict("01 mismatch-bound", ok, "; ".join(details))


def test_c02_mismatch_scaling_in_n(coarse_oracle):
    """Log-log slope of the mean mismatch at t = 1 against the agent count.

    The realizable pairing must give each label system its exact marginal
    intensity, so every proposal pays the gap between the empirical
    interaction intensity and the field intensity; that gap is a mean of n
    indicator variables and fluctuates at the 1/sqrt(n) scale.  The
    measured slope therefore sits near -1/2, while the target interval
    below asserts the 1/n rate of the formal channel decomposition, whose
    negative-rate channel no simulation can realize.  Expected to fail;
    kept at the stated tolerance as the honest record of that gap.
    """
    n_values = (100, 200, 400, 800)
    reps = 400
    means = [coupled_means(coarse_oracle, n, reps, [1.0], seed_tag=2)[:, 0].mean()
             for n in n_values]
    slope, se = fit_loglog_slope(n_values, means)
    ok = -1.15 <= slope <= -0.85
    verdict("02 mismatch-scaling", ok,
            f"slope {slope:.3f} +- {se:.3f}, means " +
            " ".join(f"{m:.2e}" for m in means))


def test_c03_exactness_vs_master_equation():
    n, lam, gamma = 3, 1.0, 1.0
    params = ec.ModelParams(n=n, side=SIDE, radius=SIDE,  # radius = side: all pairs in range
                            infection_rate=lam, recovery_rate=gamma)
    reps = 100_000
    t_obs = [0.5, 1.0]
    counts = {t: np.zeros(27) for t in t_obs}
    seeds = [ec.SeedSpec(30_001).child(r) for r in range(reps)]
    init = np.array([0, 0, 1], dtype=np.int8)

    def start(rng):
        return ec.EnsembleState(rng.random((n, 2)), rng.random(n) * 2 * math.pi, init.copy())
    # replica r starts from seeds[r].child(0) and runs on seeds[r].child(1),
    # in stacked passes; its label vector at t is one row of labels.at(t)
    digits = 3 ** np.arange(n - 1, -1, -1)  # state_index of each row
    for _, chunk in ec.replica_passes(n, seeds, ec.PASS_AGENTS):
        labels = ec.run(ec.sample_replicas(start, chunk), params, t_obs[-1], (),
                        *(s.child(1) for s in chunk)).labels
        for t in t_obs:
            counts[t] += np.bincount(labels.at(t).reshape(-1, n) @ digits, minlength=27)
    p0 = np.zeros(27)
    p0[state_index(init)] = 1.0
    boot_rng = np.random.default_rng(5)
    details = []
    ok = True
    for t in t_obs:
        exact = master_equation_solve(n, lam, gamma, p0, t)
        tv = 0.5 * np.abs(counts[t] / reps - exact).sum()
        # parametric bootstrap of the TV statistic under the exact law
        boot = 0.5 * np.abs(boot_rng.multinomial(reps, exact, size=300) / reps
                            - exact).sum(axis=1)
        limit = boot.mean() + 3.0 * boot.std(ddof=1)
        ok &= tv <= limit
        details.append(f"t={t}: TV={tv:.5f} <= {limit:.5f}")
    verdict("03 master-equation", ok, "; ".join(details))


def test_c04_homogeneous_sir_reduction():
    grid = ec.GridSpec(m=64, k=16, dt=1e-3, side=SIDE)
    traj = ec.solve(ec.field_from_initial(IC, grid), BASE, grid, 5.0)
    beta = BASE.infection_rate * math.pi * BASE.radius ** 2 / SIDE ** 2
    _, ode = sir_ode_solve(beta, BASE.recovery_rate, (0.9, 0.1, 0.0), 5.0, grid.dt)
    err = np.abs(traj.masses - ode).max()
    verdict("04 homogeneous-reduction", err <= 1e-3, f"sup error {err:.2e}")


def _smooth_initial(m, k):
    xc = (np.arange(m) + 0.5) / m
    X, Y = np.meshgrid(xc, xc, indexing="ij")
    vals = np.empty((3, m, m, k))
    vals[0] = (0.9 * (1.0 + 0.4 * np.sin(2 * np.pi * X) * np.cos(2 * np.pi * Y)))[..., None]
    vals[1] = (0.1 * (1.0 + 0.4 * np.cos(2 * np.pi * X)))[..., None]
    vals[2] = 0.0
    vals /= vals.sum() * (SIDE / m) ** 2 * (2 * np.pi / k)
    return ec.KineticField(vals, SIDE, 0.0)


def test_c05_label_sum_random_flight_identity():
    m, k, dt = 32, 8, 2e-3
    grid = ec.GridSpec(m=m, k=k, dt=dt, side=SIDE)
    params = BASE
    fld = _smooth_initial(m, k)
    full = ec.solve(fld, params, grid, 2.0, snapshot_times=[2.0])
    # without infection and recovery the reaction steps are identities
    free = ec.solve(fld, replace(params, infection_rate=0.0, recovery_rate=0.0), grid, 2.0,
                    snapshot_times=[2.0])
    diff = np.abs(full.snapshots[0].values.sum(axis=0)
                  - free.snapshots[0].values.sum(axis=0)).sum() * fld.cell_measure
    verdict("05 label-sum-identity", diff <= 1e-10, f"L1 difference {diff:.2e}")


def test_c06_conservation_and_positivity():
    grid = ec.GridSpec(m=64, k=16, dt=1e-3, side=SIDE)
    fld = _smooth_initial(64, 16)
    traj = ec.solve(fld, BASE, grid, 10.0)
    drift = np.abs(traj.masses.sum(axis=1) - 1.0).max()
    ok = drift <= 1e-8 and traj.clamp_count == 0
    verdict("06 conservation-positivity",
            ok, f"mass drift {drift:.2e}, clamps {traj.clamp_count}")


def test_c07_coupled_marginal_consistency(coarse_oracle):
    n, reps = 500, 10_000
    params = BASE.with_n(n)
    base = ec.SeedSpec(70_001)
    # each of the three systems in stacked passes: replica r is the run of
    # seed base.child(system, r) alone, count for count
    _, counts_a, counts_b, _ = ec.coupled_counts(n, IC, coarse_oracle, params, 1.0, [1.0],
                                                 [base.child(0, r) for r in range(reps)])
    i_a, i_b = counts_a[:, -1, 1], counts_b[:, -1, 1]
    i_p = np.empty(reps, dtype=np.int64)
    for rows, chunk in ec.replica_passes(n, [base.child(1, r) for r in range(reps)],
                                         ec.PASS_AGENTS):
        st = ec.sample_replicas(lambda rng: ec.sample_initial(IC, n, rng), chunk)
        labels = ec.run(st, params, 1.0, (), *(s.child(1) for s in chunk)).labels
        i_p[rows] = ec.replica_counts(labels, [1.0], len(chunk))[:, -1, 1]
    i_m = ec.ensemble_counts(n, IC, coarse_oracle, params, 1.0, [1.0],
                             [base.child(2, r) for r in range(reps)])[:, -1, 1]
    ks_a = stats.ks_2samp(i_a, i_p)
    ks_b = stats.ks_2samp(i_b, i_m)
    ok = ks_a.pvalue > 0.01 and ks_b.pvalue > 0.01
    verdict("07 marginal-consistency", ok,
            f"KS interacting p={ks_a.pvalue:.3f}, field-driven p={ks_b.pvalue:.3f}")


def test_c08_marginal_convergence(fine_solution, coarse_oracle):
    coarse = fine_solution.snapshots[0].coarsen(8, 4)
    base = ec.SeedSpec(80_001)
    dists = []
    for n in (1000, 10_000, 100_000):
        seed = base.child(n)
        state = ec.sample_initial(IC, n, seed.child(0).rng())
        traj = ec.run(state, BASE.with_n(n), 1.0, [1.0], seed.child(1))
        marg = ec.empirical_marginal(traj.final, 8, 4, SIDE)
        dists.append(ec.l1_distance(marg, coarse))
    decreasing = dists[0] > dists[1] > dists[2]

    # on every coupled snapshot the recorded mismatch upper-bounds (here:
    # equals) the discrete-metric transport cost of the empirical pair
    snap_labels = []
    st = ec.sample_initial(IC, 500, base.child(0, 0).rng())
    traj = ec.run_coupled(st, BASE.with_n(500), coarse_oracle, 1.0,
                          np.linspace(0.0, 1.0, 11), base.child(0, 1))
    bounds = traj.mismatch
    pairs = [traj.state_at(t) for t in traj.times]
    exact = all(
        b >= ec.mismatch_fraction(pair.a, pair.b) and
        b == ec.mismatch_fraction(pair.a, pair.b)
        for b, pair in zip(bounds, pairs))
    verdict("08 marginal-convergence", decreasing and exact,
            "L1 " + " > ".join(f"{d:.3f}" for d in dists)
            + f"; transport identity on {len(bounds)} snapshots")


def test_c09_convolution_backends():
    m, r0 = 64, 0.1
    kern = ec.DiscKernel(m, SIDE, r0)
    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(20):
        rho = rng.random((m, m))
        ref = direct_convolution(rho, r0, SIDE)
        worst = max(worst, np.abs(kern.spectral(rho) - ref).max(),
                    np.abs(kern.direct(rho) - ref).max())
    verdict("09 convolution-backends", worst <= 1e-10, f"max abs diff {worst:.2e}")


CONFIG = """
[model]
n = 80
d = 1.0
r0 = 0.1
lambda = 1.0
gamma = 0.5

[grid]
m = 16
k = 4
dt = 5e-3

[initial]
s = 0.9
i = 0.1
r = 0.0

[run]
t = 0.5
sample_times = 0.0 0.25 0.5
replicas = 5
seed = 31415
"""


def test_c10_deterministic_outputs(tmp_path):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(CONFIG)
    ok = True
    details = []
    for kind in ("particle", "couple", "kinetic"):
        outs = []
        for tag in ("x", "y"):
            out = tmp_path / f"{kind}_{tag}"
            assert main([kind, "--config", str(cfg), "--out", str(out)]) == 0
            outs.append(out)
        csvs = sorted(p.name for p in outs[0].glob("*.csv"))
        same = all((outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
                   for name in csvs)
        ok &= same and bool(csvs)
        details.append(f"{kind}: {len(csvs)} csvs identical={same}")
    verdict("10 determinism", ok, "; ".join(details))
