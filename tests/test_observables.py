import math

import numpy as np
import pytest

from epichaos import (CoupledEnsemble, EnsembleState, GridError, GridSpec,
                      KineticField, Label, ModelParams, SeedSpec, constant_oracle,
                      empirical_marginal, ensemble_aggregate, field_from_initial,
                      l1_distance, mismatch_fraction, pair_factorization_gap,
                      run_coupled, sample_initial,
                      uniform_sir)
from epichaos.core import TWO_PI

SIDE = 1.0


def test_marginal_single_cell_mass():
    x = np.full((50, 2), 0.1)
    state = EnsembleState(x, np.full(50, 0.2), np.full(50, Label.I, dtype=np.int8))
    marg = empirical_marginal(state, 4, 4, SIDE)
    assert marg.mass() == pytest.approx(1.0)
    assert marg.counts[1, 0, 0, 0] == 50
    assert marg.counts.sum() == 50


def test_marginal_uniform_sample_is_uniform():
    n = 1_000_000
    state = sample_initial(uniform_sir(SIDE, 1.0, 0.0, 0.0), n, SeedSpec(1).rng())
    marg = empirical_marginal(state, 4, 4, SIDE)
    counts = marg.counts[0]
    p = 1.0 / counts.size
    sd = math.sqrt(n * p * (1 - p))
    assert np.abs(counts - n * p).max() < 5 * sd


@pytest.mark.parametrize("copies", [1, 64])
def test_marginal_heading_bins_keep_np_mod_bits(copies):
    # headings in [-2 pi, 4 pi) around the ends of [0, 2 pi), in a small
    # array (np.mod) and a large one (arithmetic); a heading just below 0
    # rounds up to 2 pi and bins to k - 1, not 0; one bin (k = 1) holds all
    edge = np.array([-0.0, 0.0, -1e-18, -5e-324, -TWO_PI, np.nextafter(-TWO_PI, 0.0),
                     np.nextafter(TWO_PI, 0.0), TWO_PI, np.nextafter(TWO_PI, 7.0), 1.5 * TWO_PI,
                     np.nextafter(2 * TWO_PI, 0.0), 11.0])
    theta = np.tile(edge, copies)
    n = theta.size
    state = EnsembleState(np.full((n, 2), 0.3), theta, np.zeros(n, dtype=np.int8))
    for k in (8, 1):
        got = empirical_marginal(state, 4, k, SIDE).counts[0, 1, 1]
        bins = np.minimum((np.mod(theta, TWO_PI) / (TWO_PI / k)).astype(np.int64), k - 1)
        assert np.array_equal(got, np.bincount(bins, minlength=k))
        assert bins[2] == k - 1


def test_marginal_density_sums_to_one():
    state = sample_initial(uniform_sir(SIDE, 0.5, 0.3, 0.2), 5000, SeedSpec(2).rng())
    marg = empirical_marginal(state, 8, 4, SIDE)
    total = marg.values.sum() * marg.cell_measure
    assert total == pytest.approx(1.0, abs=1e-12)


def test_marginal_is_the_kinetic_field_of_its_counts():
    state = sample_initial(uniform_sir(SIDE, 0.6, 0.3, 0.1), 3000, SeedSpec(14).rng())
    marg = empirical_marginal(state, 8, 4, SIDE)
    assert isinstance(marg, KineticField)
    assert (marg.m, marg.k, marg.side, marg.n) == (8, 4, SIDE, 3000)
    assert marg.counts.dtype == np.int64 and marg.counts.shape == (3, 8, 8, 4)
    assert np.array_equal(marg.values, marg.counts / (marg.n * marg.cell_measure))
    assert marg.mass() == pytest.approx(1.0, abs=1e-12)


def test_coarsened_marginal_is_the_marginal_on_the_coarse_grid():
    # averaging the density over 2 x 2 x 2 fine bins is binning on the
    # coarse grid, up to rounding
    state = sample_initial(uniform_sir(SIDE, 0.6, 0.3, 0.1), 3000, SeedSpec(15).rng())
    coarse = empirical_marginal(state, 8, 4, SIDE).coarsen(4, 2)
    assert l1_distance(coarse, coarse) == 0.0
    assert l1_distance(empirical_marginal(state, 4, 2, SIDE), coarse) \
        == pytest.approx(0.0, abs=1e-12)


def test_l1_distance_basic_properties():
    state = sample_initial(uniform_sir(SIDE, 0.6, 0.4, 0.0), 2000, SeedSpec(3).rng())
    m1 = empirical_marginal(state, 4, 4, SIDE)
    assert l1_distance(m1, m1) == 0.0

    # disjointly supported unit masses
    a = np.zeros((3, 4, 4, 4))
    b = np.zeros((3, 4, 4, 4))
    measure = (SIDE / 4) ** 2 * (TWO_PI / 4)
    a[0, 0, 0, 0] = 1.0 / measure
    b[1, 2, 2, 1] = 1.0 / measure
    fa = KineticField(a, SIDE, 0.0)
    fb = KineticField(b, SIDE, 0.0)
    assert l1_distance(fa, fb) == pytest.approx(2.0)
    assert l1_distance(fa, fb) == l1_distance(fb, fa)


def test_l1_distance_rejects_grid_mismatch():
    state = sample_initial(uniform_sir(SIDE, 1.0, 0.0, 0.0), 100, SeedSpec(4).rng())
    m1 = empirical_marginal(state, 4, 4, SIDE)
    m2 = empirical_marginal(state, 8, 4, SIDE)
    with pytest.raises(GridError):
        l1_distance(m1, m2)


def test_l1_marginal_vs_field_shrinks_with_n():
    ic = uniform_sir(SIDE, 0.7, 0.3, 0.0)
    grid = GridSpec(m=8, k=4, dt=1e-2, side=SIDE)
    fld = field_from_initial(ic, grid)
    dists = []
    for n in (1000, 10_000, 100_000):
        state = sample_initial(ic, n, SeedSpec(5, (n,)).rng())
        marg = empirical_marginal(state, 8, 4, SIDE)
        dists.append(l1_distance(marg, fld))
    assert dists[0] > dists[1] > dists[2]


def test_transport_cost_equals_mismatch():
    # the coupled pair shares positions and headings, so the discrete-metric
    # transport cost of the pair measure is the label mismatch fraction
    rng = np.random.default_rng(6)
    a = rng.integers(0, 3, 500).astype(np.int8)
    b = rng.integers(0, 3, 500).astype(np.int8)
    x, theta = rng.random((500, 2)), rng.random(500) * TWO_PI
    pair = CoupledEnsemble(x, theta, a, b=b)
    assert mismatch_fraction(pair.a, pair.b) == pytest.approx(np.mean(a != b))
    assert mismatch_fraction(a, a) == 0.0


def test_wasserstein_upper_bound_sequence():
    params = ModelParams(n=40, side=SIDE, radius=0.1, infection_rate=0.0,
                         recovery_rate=0.5)
    orc = constant_oracle(SIDE, 0.0, 1.0)
    state = sample_initial(uniform_sir(SIDE, 0.5, 0.5, 0.0), 40, SeedSpec(7).rng())
    traj = run_coupled(state, params, orc, 1.0, [0.0, 0.5, 1.0], SeedSpec(8))
    bounds = traj.mismatch
    assert bounds[0] == 0.0
    assert np.all((bounds >= 0) & (bounds <= 1))
    assert np.all(bounds == 0.0)  # no infection channel, shared recoveries
    # the recorded sequence is exactly the transport cost of the coupled pair
    assert bounds[-1] == mismatch_fraction(traj.final.a, traj.final.b)


def test_pair_gap_iid_matches_control():
    rng = SeedSpec(9).rng()
    ic = uniform_sir(SIDE, 0.6, 0.4, 0.0)
    n, reps = 400, 30

    def gap_of(sample_rng):
        batches = []
        for _ in range(reps):
            x, _, labels = ic.sample(n, sample_rng)
            batches.append((x, labels))
        return pair_factorization_gap(batches, SIDE)

    measured = gap_of(rng)
    controls = np.array([gap_of(SeedSpec(10, (c,)).rng()) for c in range(20)])
    assert measured < controls.mean() + 3 * controls.std(ddof=1) + 1e-12


def test_pair_gap_detects_shared_label():
    rng = SeedSpec(11).rng()
    batches = []
    for _ in range(40):
        x = rng.random((200, 2))
        shared = rng.integers(0, 2)  # one common label per replica
        labels = np.full(200, shared, dtype=np.int8)
        batches.append((x, labels))
    gap = pair_factorization_gap(batches, SIDE)
    assert gap > 0.3


def test_pair_gap_shrinks_with_population():
    from epichaos import run
    params = ModelParams(n=200, side=SIDE, radius=0.1, infection_rate=2.0,
                         recovery_rate=0.5)
    ic = uniform_sir(SIDE, 0.8, 0.2, 0.0)
    gaps = []
    for n in (200, 800):
        batches = []
        for r in range(30):
            seed = SeedSpec(13, (n, r))
            state = sample_initial(ic, n, seed.child(0).rng())
            traj = run(state, ModelParams(n=n, side=SIDE, radius=0.1,
                                          infection_rate=2.0, recovery_rate=0.5),
                       1.0, [1.0], seed.child(1))
            batches.append((traj.final.x, traj.final.labels))
        gaps.append(pair_factorization_gap(batches, SIDE))
    assert gaps[1] < gaps[0]


def test_pair_gap_keeps_its_pinned_values():
    # points on cell edges, at side - ulp and in all three labels; the
    # pins were made with a (label, ix, iy) binning written out by hand
    top = np.nextafter(1.0, 0.0)
    edges = np.array([0.0, 0.25, 0.5, 0.75, top, np.nextafter(0.25, 0.0),
                      np.nextafter(0.5, 1.0)])
    x1 = np.array([[a, b] for a in edges for b in edges[::-1]])
    l1 = (np.arange(x1.shape[0]) % 3).astype(np.int8)
    rng = np.random.default_rng(2024)
    x2 = rng.random((30, 2))
    l2 = rng.integers(0, 3, 30)
    x3 = np.array([[top, top], [0.0, 0.0], [0.25, top], [top, 0.75]])
    l3 = np.array([2, 2, 1, 0])
    batches = [(x1, l1), (x2, l2), (x3, l3)]
    for cells, side, pinned in ((4, 1.0, "0x1.69b45e2f07ddbp-2"),
                                (3, 1.0, "0x1.83940d7f10252p-3"),
                                (4, 2.0, "0x1.69b45e2f07ddbp-2")):
        gap = pair_factorization_gap([(x * side, lab) for x, lab in batches], side, cells)
        assert gap.hex() == pinned


@pytest.mark.parametrize("point", [(-0.5, 0.1), (1.7, 0.1), (math.nan, 0.1)])
def test_positions_outside_the_square_are_refused(point):
    # below 0, from side on, and NaN: no cell holds such a point
    x = np.array([point, (0.3, 0.3)])
    labels = np.array([Label.I, Label.S], dtype=np.int8)
    with pytest.raises(ValueError):
        empirical_marginal(EnsembleState(x, np.zeros(2), labels), 4, 1, SIDE)
    with pytest.raises(ValueError):
        pair_factorization_gap([(x, labels)], SIDE, 4)


def test_pair_gap_needs_two_agents():
    with pytest.raises(ValueError):
        pair_factorization_gap([(np.zeros((1, 2)), np.zeros(1, dtype=np.int8))], SIDE)


def test_ensemble_aggregate_basics():
    mean, half, r = ensemble_aggregate(np.array([[0.0], [1.0]]))
    assert mean[0] == 0.5 and r == 2
    mean, half, _ = ensemble_aggregate(np.array([[2.0, 3.0]] * 5))
    assert np.all(mean == [2.0, 3.0])
    assert np.all(half == 0.0)
    with pytest.raises(ValueError):
        ensemble_aggregate(np.array([[1.0]]))


def test_ensemble_aggregate_ci_shrinks_like_sqrt_replicas():
    rng = SeedSpec(12).rng()
    noise = rng.standard_normal(6400)
    _, half_small, _ = ensemble_aggregate(noise[:100])
    _, half_big, _ = ensemble_aggregate(noise)
    ratio = half_small[0] / half_big[0]
    assert 0.6 * 8 < ratio < 1.4 * 8
