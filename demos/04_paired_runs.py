#!/usr/bin/env python3
"""Pair the interacting system with the field-driven one on shared
trajectories and measure how often their labels disagree.

Both label systems see the same motion, the same recovery clocks and the
same infection proposals; attempts are overlapped as much as the marginal
rates allow.  The mean disagreement fraction stays far below the a priori
envelope (t*lambda/n)*exp(2*lambda*t) and shrinks as the agent count grows;
the log-log fit prints the measured decay exponent.
"""

import numpy as np

import epichaos as ec
from epichaos.cli import fit_loglog_slope


def main():
    base = ec.ModelParams(n=100, side=1.0, radius=0.1,
                          infection_rate=1.0, recovery_rate=0.5)
    grid = ec.GridSpec(m=32, k=8, dt=5e-3, side=1.0)
    ic = ec.uniform_sir(1.0, 0.9, 0.1, 0.0)
    ftraj = ec.solve(ec.field_from_initial(ic, grid), base, grid, 1.0, nf_stride=2)
    oracle = ec.FieldOracle.from_trajectory(ftraj)
    seed = ec.SeedSpec(41)

    n_values = (100, 200, 400, 800)
    replicas = 160
    print(f"mean mismatch over {replicas} replicas")
    print("   n     t=0.5                 t=1.0                envelope(t=1)")
    means = []
    for n in n_values:
        rows = np.empty((replicas, 2))
        for r in range(replicas):
            s = seed.child(n, r)
            st = ec.sample_initial(ic, n, s.child(0).rng())
            rows[r] = ec.run_coupled(st, base.with_n(n), oracle, 1.0,
                                     [0.5, 1.0], s.child(1)).mismatch
        m, half, _ = ec.ensemble_aggregate(rows)
        means.append(m[1])
        print(f"{n:5d}   {m[0]:.2e} +- {half[0]:.1e}   "
              f"{m[1]:.2e} +- {half[1]:.1e}   {ec.mismatch_bound(1.0, 1.0, n):.2e}")

    slope, se = fit_loglog_slope(n_values, means)
    print(f"\nlog-log decay exponent of the t=1 mismatch: {slope:.2f} +- {se:.2f}")
    print("(each proposal pays the fluctuation of the empirical intensity")
    print(" around the field intensity, a 1/sqrt(n) effect, so the exponent")
    print(" sits near -0.5 while the envelope above decays like 1/n)")


if __name__ == "__main__":
    main()
