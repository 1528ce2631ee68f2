import math
from dataclasses import astuple

import numpy as np
import pytest

from epichaos import (Counters, FieldOracle, GridSpec, InitialCondition, Label, ModelParams,
                      OracleSpanError, SeedSpec, constant_oracle, ensemble_counts,
                      field_from_initial, run_ensemble, solve, uniform_sir)
from epichaos import meanfield

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


def _varied_oracle():
    rng = np.random.default_rng(14)
    return FieldOracle(np.array([0.0, 0.6, 1.5]), rng.random((3, 4, 4)) * 0.8, SIDE)


WEIGHTED = InitialCondition(side=SIDE, fractions=(0.6, 0.3, 0.1), weights=[[1, 2], [3, 4]])

# run_ensemble's outputs at two seeds, as the one-replica-per-call code
# computed them (numpy 2.4, x86-64)
PINNED = {
    3: ([[1, 4, 1], [0, 2, 4], [0, 2, 4]],
        [(0.5662294959692462, 0.45083891611637195), (0.11474590691537626, 0.6478196324619889),
         (0.5522033882054559, 0.026792798098850434), (0.3433754334072206, 0.6554859859712245),
         (0.5476077932205551, 0.02079046357395481), (0.8387107317171564, 0.9371757590794634)],
        [1, 2, 1, 2, 2, 2], Counters(11, 3, 30, 1)),
    4: ([[2, 2, 2], [1, 3, 2], [1, 2, 3]],
        [(0.09255320746927698, 0.7705703133224335), (0.9896711803396627, 0.3563816155184907),
         (0.06798030158771451, 0.7512473105607329), (0.1690559356056177, 0.8615455496548017),
         (0.7523326597221416, 0.9670395939498974), (0.9692658703387779, 0.9925829897050816)],
        [2, 0, 1, 2, 1, 2], Counters(10, 1, 26, 1)),
}


@pytest.mark.parametrize("seed", sorted(PINNED))
def test_run_ensemble_keeps_its_pinned_outputs(seed):
    counts, x, labels, counters = PINNED[seed]
    params = make_params(lam=3.0, gamma=1.0, n=6)
    traj = run_ensemble(6, WEIGHTED, _varied_oracle(), params, 1.5, [0.0, 0.75, 1.5],
                        SeedSpec(seed))
    assert traj.counts.tolist() == counts
    assert traj.final.x.tolist() == [list(p) for p in x]
    assert traj.final.labels.tolist() == labels
    assert traj.final.counters == counters


@pytest.mark.parametrize("ic", [uniform_sir(SIDE, 0.5, 0.4, 0.1), WEIGHTED],
                         ids=["uniform", "weights"])
@pytest.mark.parametrize("per_pass", [1, 7, 40])
def test_ensemble_counts_equal_one_run_per_seed(monkeypatch, ic, per_pass):
    n, reps = 5, 40
    monkeypatch.setattr(meanfield, "CHUNK_AGENTS", per_pass * n)
    orc = _varied_oracle()
    params = make_params(lam=3.0, gamma=1.0, n=n)
    seeds = [SeedSpec(21).child(r) for r in range(reps)]
    counts = ensemble_counts(n, ic, orc, params, 1.5, [0.0, 0.75, 1.5], seeds)
    assert counts.shape == (reps, 3, 3) and counts.dtype == np.int64
    for r, seed in enumerate(seeds):
        one = run_ensemble(n, ic, orc, params, 1.5, [0.0, 0.75, 1.5], seed).counts
        assert np.array_equal(counts[r], one)
    # the chunk's agents met the field: some were infected during the run
    assert counts[:, -1, 0].sum() < counts[:, 0, 0].sum()


def test_run_ensemble_stacks_its_seeds_replica_by_replica():
    n, t_max = 5, 1.5
    orc = _varied_oracle()
    params = make_params(lam=3.0, gamma=1.0, n=n)
    seeds = SeedSpec(31), SeedSpec(32)
    both = run_ensemble(n, WEIGHTED, orc, params, t_max, [0.0, 0.75, t_max], *seeds)
    ones = [run_ensemble(n, WEIGHTED, orc, params, t_max, [0.0, 0.75, t_max], s)
            for s in seeds]
    for name in ("inf", "rec"):
        assert getattr(both.labels, name).tobytes() == \
            np.concatenate([getattr(one.labels, name) for one in ones]).tobytes()
    for s in (0.75, t_max):
        state, parts = both.state_at(s), [one.state_at(s) for one in ones]
        for name in ("x", "theta", "labels"):
            assert getattr(state, name).tobytes() == \
                np.concatenate([getattr(part, name) for part in parts]).tobytes()
        # the event counts of the two replicas add up, within the run too
        assert astuple(state.counters) == tuple(
            map(sum, zip(*(astuple(part.counters) for part in parts))))
    assert np.array_equal(both.counts, ones[0].counts + ones[1].counts)


def test_run_ensemble_names_a_missing_seed():
    orc = constant_oracle(SIDE, 0.3, 1.0)
    with pytest.raises(TypeError, match="at least one seed"):
        run_ensemble(10, uniform_sir(SIDE, 1.0, 0.0, 0.0), orc, make_params(), 1.0, [1.0])


def test_ensemble_counts_run_one_ensemble_per_chunk(monkeypatch):
    # a tracer that wraps run_ensemble times each pass over a chunk
    n, reps = 5, 8
    monkeypatch.setattr(meanfield, "CHUNK_AGENTS", 3 * n)
    passes = []
    run_one = meanfield.run_ensemble

    def recorded(*args):
        passes.append(args[6:])
        return run_one(*args)
    monkeypatch.setattr(meanfield, "run_ensemble", recorded)
    seeds = [SeedSpec(22).child(r) for r in range(reps)]
    counts = ensemble_counts(n, WEIGHTED, _varied_oracle(), make_params(n=n), 1.5,
                             [0.0, 1.5], seeds)
    assert counts.shape == (reps, 2, 3)
    assert passes == [tuple(seeds[0:3]), tuple(seeds[3:6]), tuple(seeds[6:8])]


def test_ensemble_counts_check_their_inputs():
    orc = constant_oracle(SIDE, 0.3, 0.5)
    with pytest.raises(OracleSpanError):
        ensemble_counts(10, uniform_sir(SIDE, 1.0, 0.0, 0.0), orc, make_params(), 1.0, [1.0],
                        [SeedSpec(10)])
    assert ensemble_counts(10, uniform_sir(SIDE, 1.0, 0.0, 0.0), orc, make_params(), 0.5,
                           [0.5], []).shape == (0, 1, 3)
