import math

import numpy as np
import pytest

from epichaos import (FieldOracle, GridSpec, Label, ModelParams, OracleSpanError,
                      SeedSpec, constant_oracle, field_from_initial, run_ensemble,
                      solve, uniform_sir)

SIDE = 1.0


def make_params(lam=1.0, gamma=0.5, n=10):
    return ModelParams(n=n, side=SIDE, radius=0.1,
                       infection_rate=lam, recovery_rate=gamma)


def test_oracle_validates_input():
    with pytest.raises(ValueError):
        FieldOracle(np.array([0.0, 0.0]), np.zeros((2, 4, 4)), SIDE)
    with pytest.raises(ValueError):
        FieldOracle(np.array([0.0, 1.0]), np.full((2, 4, 4), 1.5), SIDE)


def test_nf_at_constant_field():
    orc = constant_oracle(SIDE, 0.25, 2.0)
    rng = np.random.default_rng(0)
    pts = rng.random((50, 2))
    ts = rng.random(50) * 2.0
    assert np.allclose(orc.nf_at(pts, ts), 0.25, atol=1e-15)
    assert float(orc.nf_at((0.3, 0.4), 1.0)) == pytest.approx(0.25)


def test_nf_at_zero_field():
    orc = constant_oracle(SIDE, 0.0, 1.0)
    assert float(orc.nf_at((0.2, 0.9), 0.5)) == 0.0


def test_nf_at_node_values_are_exact():
    # exact binary grid: queries at centers and record times return stored values
    m = 8
    rng = np.random.default_rng(1)
    grids = rng.random((3, m, m)) * 0.5
    orc = FieldOracle(np.array([0.0, 0.5, 1.0]), grids, SIDE)
    h = SIDE / m
    for k, t in enumerate((0.0, 0.5, 1.0)):
        for (i, j) in [(0, 0), (3, 5), (7, 7)]:
            x = ((i + 0.5) * h, (j + 0.5) * h)
            assert float(orc.nf_at(x, t)) == grids[k, i, j]


def test_nf_at_interpolates_linearly_in_time():
    grids = np.stack([np.full((4, 4), 0.2), np.full((4, 4), 0.6)])
    orc = FieldOracle(np.array([0.0, 1.0]), grids, SIDE)
    assert float(orc.nf_at((0.5, 0.5), 0.25)) == pytest.approx(0.3, abs=1e-14)


def test_nf_at_rejects_out_of_span():
    orc = constant_oracle(SIDE, 0.1, 1.0)
    with pytest.raises(OracleSpanError):
        orc.nf_at((0.5, 0.5), 1.5)
    with pytest.raises(OracleSpanError):
        orc.nf_at((0.5, 0.5), -0.5)


def bilinear_reference(orc, x, y, t):
    """Bilinear in space on the periodic cell-centre lattice, linear in time
    between the bracketing records (the first record alone if there is one),
    clamped to [0, 1]."""
    n_t, m = orc.times.size, orc.grids.shape[1]
    k = min(max(int(np.searchsorted(orc.times, t, side="right")) - 1, 0), max(n_t - 2, 0))
    w = 0.0 if n_t == 1 else min(max(
        (t - orc.times[k]) / (orc.times[k + 1] - orc.times[k]), 0.0), 1.0)
    h = orc.side / m
    gx, gy = x / h - 0.5, y / h - 0.5
    i, j = math.floor(gx), math.floor(gy)
    wx, wy = gx - i, gy - j
    g0, g1 = orc.grids[k], orc.grids[min(k + 1, n_t - 1)]
    corners = [((1 - wx) * (1 - wy), i, j), (wx * (1 - wy), i + 1, j),
               ((1 - wx) * wy, i, j + 1), (wx * wy, i + 1, j + 1)]
    v0 = v1 = 0.0
    for c, a, b in corners:
        v0 += c * g0[a % m, b % m]
        v1 += c * g1[a % m, b % m]
    return min(max((1.0 - w) * v0 + w * v1, 0.0), 1.0)


@pytest.mark.parametrize("n_records", [5, 1])
def test_scalar_probe_matches_bilinear_reference(n_records):
    rng = np.random.default_rng(2)
    m = 8
    times = np.array([0.0, 0.3, 0.7, 1.1, 2.0])[:n_records]
    orc = FieldOracle(times, rng.random((n_records, m, m)), SIDE)
    probe = orc.scalar_probe()
    # random points, some off the unit square, at random times in the span
    pts = rng.random((500, 2)) * 3.0 - 1.0
    ts = rng.random(500) * times[-1]
    # every cell centre at every record time
    centres = (np.arange(m) + 0.5) * (SIDE / m)
    grid_pts = np.array([(cx, cy) for cx in centres for cy in centres] * n_records)
    grid_ts = np.repeat(times, m * m)
    for xs, tt in ((pts, ts), (grid_pts, grid_ts)):
        ref = np.array([bilinear_reference(orc, px, py, t) for (px, py), t in zip(xs, tt)])
        scal = np.array([probe(px, py, t) for (px, py), t in zip(xs, tt)])
        assert np.array_equal(scal, ref)
        assert np.array_equal(orc.nf_at(xs, tt), ref)
    # a centre at a record time reads the stored value
    assert np.array_equal(orc.nf_at(grid_pts, grid_ts), orc.grids.ravel())


def test_nf_at_shapes():
    orc = constant_oracle(SIDE, 0.25, 1.0)
    assert orc.nf_at((0.3, 0.4), 0.5).shape == ()
    assert orc.nf_at(np.zeros((3, 2)), 0.5).shape == (3,)
    assert orc.nf_at(np.zeros((2, 3, 2)), np.full((2, 3), 0.5)).shape == (2, 3)
    assert orc.nf_at(np.zeros((0, 2)), np.zeros(0)).shape == (0,)


def test_ensemble_never_infects_on_zero_field():
    orc = constant_oracle(SIDE, 0.0, 5.0)
    params = make_params(lam=2.0, gamma=0.0, n=200)
    traj = run_ensemble(200, uniform_sir(SIDE, 1.0, 0.0, 0.0), orc, params, 5.0, [5.0],
                        SeedSpec(3))
    assert traj.final.counters.infection_proposals > 0
    assert traj.final.counters.infections == 0
    assert np.all(traj.final.labels == Label.S)


def test_ensemble_keeps_recovered_frozen():
    orc = constant_oracle(SIDE, 1.0, 5.0)
    params = make_params(lam=5.0, gamma=2.0, n=200)
    traj = run_ensemble(200, uniform_sir(SIDE, 0.0, 0.0, 1.0), orc, params, 5.0, [5.0],
                        SeedSpec(4))
    assert traj.final.counters.infection_proposals > 0
    assert np.all(traj.final.labels == Label.R)


def test_exponential_infection_law_under_constant_intensity():
    c, lam, t_end = 0.4, 1.5, 1.0
    orc = constant_oracle(SIDE, c, t_end)
    n = 100_000
    params = make_params(lam=lam, gamma=0.0, n=n)
    traj = run_ensemble(n, uniform_sir(SIDE, 1.0, 0.0, 0.0), orc, params,
                        t_end, [t_end], SeedSpec(5))
    p = math.exp(-lam * c * t_end)
    frac_s = traj.counts[-1][0] / n
    assert abs(frac_s - p) < 3 * math.sqrt(p * (1 - p) / n)


def test_ensemble_agents_are_uncorrelated():
    orc = constant_oracle(SIDE, 0.5, 1.0)
    params = make_params(lam=2.0, gamma=1.0)
    n = 20_000  # adjacent pairs act as independent two-agent replicas
    traj = run_ensemble(n, uniform_sir(SIDE, 0.8, 0.2, 0.0), orc, params,
                        1.0, [1.0], SeedSpec(7))
    labels = traj.state_at(1.0).labels
    a = (labels[0::2] == Label.I).astype(float)
    b = (labels[1::2] == Label.I).astype(float)
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) < 3.0 / math.sqrt(a.size)


def test_ensemble_tracks_solver_masses():
    params = make_params(lam=1.0, gamma=0.5)
    grid = GridSpec(m=32, k=8, dt=5e-3, side=SIDE)
    ic = uniform_sir(SIDE, 0.9, 0.1, 0.0)
    ftraj = solve(field_from_initial(ic, grid), params, grid, 1.0, nf_stride=2)
    orc = FieldOracle.from_trajectory(ftraj)
    n = 100_000
    traj = run_ensemble(n, ic, orc, params, 1.0, [0.5, 1.0], SeedSpec(8))
    for row, t in zip(traj.counts, traj.times):
        k = np.searchsorted(ftraj.mass_times, t)
        for lab in range(3):
            p = ftraj.masses[k][lab]
            tol = 3 * math.sqrt(max(p * (1 - p), 1e-8) / n)
            assert abs(row[lab] / n - p) < tol + 1e-4


def test_ensemble_is_deterministic():
    orc = constant_oracle(SIDE, 0.3, 1.0)
    params = make_params()
    ic = uniform_sir(SIDE, 0.7, 0.3, 0.0)
    a = run_ensemble(500, ic, orc, params, 1.0, [0.5, 1.0], SeedSpec(9))
    b = run_ensemble(500, ic, orc, params, 1.0, [0.5, 1.0], SeedSpec(9))
    assert np.array_equal(a.counts, b.counts)
    assert np.array_equal(a.final.x, b.final.x)


def test_ensemble_requires_covering_oracle():
    orc = constant_oracle(SIDE, 0.3, 0.5)
    with pytest.raises(OracleSpanError):
        run_ensemble(10, uniform_sir(SIDE, 1.0, 0.0, 0.0), orc,
                     make_params(), 1.0, [1.0], SeedSpec(10))
