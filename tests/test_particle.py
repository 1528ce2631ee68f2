import hashlib
import math
from dataclasses import astuple

import numpy as np
import pytest
from scipy import stats

from epichaos import (PASS_AGENTS, ConfigError, Counters, EnsembleState, GridError, GridSpec,
                      Label, ModelParams, SeedSpec, replica_counts, replica_passes, run,
                      sample_initial, sample_replicas, uniform_sir)
from epichaos.core import TWO_PI
from epichaos.particle import check_sample_times
from epichaos.oracles import master_equation_solve, state_index


def make_params(n, lam=1.0, gamma=0.5, radius=0.1, side=1.0):
    return ModelParams(n=n, side=side, radius=radius,
                       infection_rate=lam, recovery_rate=gamma)


def make_state(labels, seed=0, side=1.0):
    labels = np.asarray(labels, dtype=np.int8)
    rng = SeedSpec(seed).rng()
    n = labels.shape[0]
    return EnsembleState(rng.random((n, 2)) * side, rng.random(n) * TWO_PI, labels)


def poisson_close(count, mean):
    return abs(count - mean) < 4 * math.sqrt(mean)


def test_sample_event_category_probabilities():
    # each clock is a Poisson process: velocity jumps at rate n, proposals
    # at lam*(n-1)/2 (pair form) or lam*n (per-agent form)
    n, lam, t_max = 10, 1.5, 100.0
    params = make_params(n, lam=lam, gamma=1.0)
    for interaction, proposal_rate in (("pair", lam * (n - 1) / 2), ("per_agent", lam * n)):
        traj = run(make_state([0] * 5 + [1] * 5), params, t_max, [t_max], SeedSpec(1),
                   interaction=interaction)
        cnt = traj.final.counters
        assert poisson_close(cnt.velocity_jumps, n * t_max)
        assert poisson_close(cnt.infection_proposals, proposal_rate * t_max)


def test_sample_event_no_pairs_for_single_agent():
    params = make_params(1, lam=5.0, gamma=1.0)
    traj = run(make_state([1]), params, 200.0, [200.0], SeedSpec(2), interaction="pair")
    assert traj.final.counters.velocity_jumps > 0
    assert traj.final.counters.infection_proposals == 0


def test_apply_recovery_rules():
    params = make_params(30, lam=0.0, gamma=1.0)
    state = make_state([0] * 10 + [1] * 10 + [2] * 10)
    traj = run(state, params, 1.0, [0.0, 1.0], SeedSpec(3))
    final = traj.final.labels
    assert traj.final.counters.recoveries == traj.counts[0][1] - traj.counts[-1][1] > 0
    assert np.all(final[:10] == Label.S)
    assert np.all(np.isin(final[10:20], [Label.I, Label.R]))
    assert np.all(final[20:] == Label.R)


def test_apply_pair_infection_rules():
    # radius beyond the diameter: every proposal is in range
    params = make_params(2, lam=10.0, gamma=0.0, radius=2.0)
    for before, after in [((0, 1), (1, 1)), ((1, 0), (1, 1)), ((0, 0), (0, 0)),
                          ((1, 1), (1, 1)), ((2, 1), (2, 1)), ((0, 2), (0, 2))]:
        traj = run(make_state(before), params, 5.0, [5.0], SeedSpec(4), interaction="pair")
        assert traj.final.counters.infection_proposals > 0
        assert tuple(traj.final.labels) == after

    # one proposal on an in-range (S, I) pair infects, whichever member is drawn
    single = 0
    for r in range(40):
        for before in ((0, 1), (1, 0)):
            traj = run(make_state(before), params, 0.1, [0.1], SeedSpec(4, (r,)),
                       interaction="pair")
            if traj.final.counters.infection_proposals == 1:
                single += 1
                assert tuple(traj.final.labels) == (1, 1)
    assert single >= 10

    # a tiny radius keeps the pair out of range
    traj = run(make_state([0, 1]), make_params(2, lam=10.0, gamma=0.0, radius=1e-9),
               5.0, [5.0], SeedSpec(4), interaction="pair")
    assert traj.final.counters.infection_proposals > 0
    assert traj.final.counters.infections == 0
    assert tuple(traj.final.labels) == (0, 1)


def test_apply_directed_infection_only_flips_target():
    # a lone S agent can only draw itself as partner
    traj = run(make_state([0]), make_params(1, lam=10.0, gamma=0.0), 5.0, [5.0],
               SeedSpec(5))
    assert traj.final.counters.infection_proposals > 0
    assert traj.final.counters.infections == 0
    params = make_params(2, lam=10.0, gamma=0.0, radius=2.0)
    traj = run(make_state([1, 0]), params, 5.0, [5.0], SeedSpec(5))
    assert tuple(traj.final.labels) == (1, 1)
    assert traj.final.counters.infections == 1


def test_step_freezes_labels_without_reactions():
    params = make_params(30, lam=0.0, gamma=0.0)
    state = sample_initial(uniform_sir(1.0, 0.5, 0.3, 0.2), 30, SeedSpec(3).rng())
    traj = run(state, params, 5.0, [5.0], SeedSpec(4))
    assert np.array_equal(traj.final.labels, state.labels)
    assert traj.final.counters.velocity_jumps > 0


def test_step_keeps_all_recovered_frozen():
    params = make_params(20, lam=2.0, gamma=2.0, radius=2.0)
    traj = run(make_state([2] * 20), params, 5.0, [5.0], SeedSpec(5))
    assert traj.final.counters.infection_proposals > 0
    assert np.all(traj.final.labels == Label.R)


def test_run_sample_time_contract():
    params = make_params(5)
    state = make_state([0, 0, 1, 1, 2])
    traj = run(state, params, 0.0, [0.0], SeedSpec(6))
    assert traj.times.tolist() == [0.0]
    assert traj.counts.tolist() == [[2, 2, 1]]

    traj = run(state, params, 1.0, [0.0, 0.5, 1.0], SeedSpec(6))
    assert traj.times.tolist() == [0.0, 0.5, 1.0]
    assert traj.counts.shape == (3, 3)
    assert np.all(traj.counts.sum(axis=1) == 5)

    with pytest.raises(ConfigError):
        run(state, params, 1.0, [-0.1], SeedSpec(6))
    with pytest.raises(ConfigError):
        run(state, params, 1.0, [0.0, 2.0], SeedSpec(6))
    with pytest.raises(ConfigError):
        run(state, params, 1.0, [1.0], SeedSpec(6), interaction="pairs")


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_direct_calls_reject_non_finite_values(value):
    # a non-finite horizon once made the label-free pass draw windows forever
    for key in ("side", "radius", "infection_rate", "recovery_rate"):
        with pytest.raises(ValueError):
            ModelParams(**{"n": 5, "side": 1.0, "radius": 0.1, "infection_rate": 1.0,
                           "recovery_rate": 0.5, key: value})
    for key in ("dt", "side"):
        with pytest.raises(GridError):
            GridSpec(**{"m": 8, "k": 4, "dt": 1e-2, "side": 1.0, key: value})
    # checked without a run, which would never end where the check is missing
    with pytest.raises(ConfigError):
        check_sample_times([], value)
    with pytest.raises(ConfigError):
        check_sample_times([0.0, value], 1.0)


def test_run_recovery_decay_matches_exponential():
    n = 20_000
    params = make_params(n, lam=0.0, gamma=0.8)
    state = sample_initial(uniform_sir(1.0, 0.0, 1.0, 0.0), n, SeedSpec(7).rng())
    traj = run(state, params, 1.5, [0.5, 1.0, 1.5], SeedSpec(8))
    for t, row in zip(traj.times, traj.counts):
        p = math.exp(-0.8 * t)
        assert abs(row[1] / n - p) < 3 * math.sqrt(p * (1 - p) / n)


def test_run_counts_match_monotonicity():
    params = make_params(300, lam=2.0, gamma=1.0)
    state = sample_initial(uniform_sir(1.0, 0.7, 0.3, 0.0), 300, SeedSpec(9).rng())
    traj = run(state, params, 2.0, np.linspace(0, 2, 21), SeedSpec(10))
    # the counts agree with the labels at every sample time
    labels = [np.bincount(traj.state_at(s).labels, minlength=3) for s in traj.times]
    assert len(labels) == 21
    assert np.array_equal(np.array(labels), traj.counts)
    s, r = traj.counts[:, 0], traj.counts[:, 2]
    assert np.all(np.diff(s) <= 0)
    assert np.all(np.diff(r) >= 0)
    assert np.all(traj.counts.sum(axis=1) == 300)


def test_run_velocity_distribution_uniform():
    n = 100_000
    params = make_params(n, lam=0.0, gamma=0.0)
    state = sample_initial(
        uniform_sir(1.0, 1.0, 0.0, 0.0), n, SeedSpec(11).rng())
    state.theta[:] = 0.25  # start concentrated; jumps must re-randomize
    traj = run(state, params, 5.0, [5.0], SeedSpec(12))
    th = np.mod(traj.final.theta, TWO_PI)
    hist = np.bincount((th / (TWO_PI / 36)).astype(int), minlength=36)
    # a few agents have never jumped; their heading is still 0.25
    hist[int(0.25 / (TWO_PI / 36))] -= int(round(n * math.exp(-5.0)))
    chi2 = ((hist - n / 36) ** 2 / (n / 36)).sum()
    assert stats.chi2.sf(chi2, 35) > 0.001


def test_run_is_deterministic():
    params = make_params(50)
    state = sample_initial(uniform_sir(1.0, 0.9, 0.1, 0.0), 50, SeedSpec(13).rng())
    a = run(state, params, 1.0, [0.25, 0.5, 1.0], SeedSpec(14))
    b = run(state, params, 1.0, [0.25, 0.5, 1.0], SeedSpec(14))
    assert np.array_equal(a.counts, b.counts)
    assert np.array_equal(a.final.x, b.final.x)
    assert np.array_equal(a.final.theta, b.final.theta)
    assert np.array_equal(a.final.labels, b.final.labels)


#: (interaction, seed): counts at t = 0, 2.5, 5, the sha256 of the final
#: x, theta and labels bytes, and the final counters of a run of 2000 agents
PINNED_RUNS = {
    ("per_agent", 5): ([[1792, 208, 0], [1787, 77, 136], [1784, 30, 186]],
        "ee6719193b147a1f6a30783f17606f60fc259510f9f8bbfcd4902f5137708925",
        Counters(velocity_jumps=9932, recoveries=186, infection_proposals=9788, infections=8)),
    ("per_agent", 6): ([[1802, 198, 0], [1794, 58, 148], [1793, 17, 190]],
        "909bb53821656cf6591bfdd1461c6c52b84eabf3523f236d673bbac665ee6a71",
        Counters(velocity_jumps=10056, recoveries=190, infection_proposals=9988, infections=9)),
    ("pair", 5): ([[1792, 208, 0], [1778, 68, 154], [1777, 16, 207]],
        "d476280948089664483abfa313990b4d645f52dbc023c52398e49d2e3623fe46",
        Counters(velocity_jumps=10005, recoveries=207, infection_proposals=5017, infections=15)),
    ("pair", 6): ([[1802, 198, 0], [1795, 73, 132], [1793, 17, 190]],
        "426f2f919b2cb6d409dcd49bbc5d165b64d75c3e28179ee84efe2cb2961f761d",
        Counters(velocity_jumps=10072, recoveries=190, infection_proposals=5005, infections=9)),
}


@pytest.mark.parametrize("interaction,seed", list(PINNED_RUNS))
def test_run_keeps_its_pinned_outputs(interaction, seed):
    counts, digest, counters = PINNED_RUNS[interaction, seed]
    state = sample_initial(uniform_sir(1.0, 0.9, 0.1, 0.0), 2000, SeedSpec(seed).rng())
    traj = run(state, make_params(2000), 5.0, [0.0, 2.5, 5.0], SeedSpec(seed).child(1),
               interaction=interaction)
    final = traj.final
    assert traj.counts.tolist() == counts
    assert final.x.dtype == final.theta.dtype == np.float64 and final.labels.dtype == np.int8
    sha = hashlib.sha256()
    for arr in (final.x, final.theta, final.labels):
        sha.update(np.ascontiguousarray(arr).tobytes())
    assert sha.hexdigest() == digest
    assert final.counters == counters


@pytest.mark.parametrize("interaction", ["per_agent", "pair"])
@pytest.mark.parametrize("per_pass", [1, 2, 7, 9])
def test_stacked_run_is_one_run_per_seed(interaction, per_pass):
    # replicas share no agent, so each is the run of its seed alone in
    # passes of any size, and the label counts of a pass split per replica
    n, times = 30, [0.0, 0.5, 1.0]
    params = make_params(n, lam=3.0, radius=0.3)
    ic = uniform_sir(1.0, 0.8, 0.2, 0.0)
    seeds = [SeedSpec(18).child(r) for r in range(9)]
    ones = [run(sample_initial(ic, n, s.child(0).rng()), params, 1.0, times, s.child(1),
                interaction=interaction) for s in seeds]
    for rows, chunk in replica_passes(n, seeds, per_pass * n):
        start = sample_replicas(lambda rng: sample_initial(ic, n, rng), chunk)
        both = run(start, params, 1.0, times, *(s.child(1) for s in chunk),
                   interaction=interaction)
        for name in ("inf", "rec"):
            assert getattr(both.labels, name).tobytes() == np.concatenate(
                [getattr(one.labels, name) for one in ones[rows]]).tobytes()
        per_replica = replica_counts(both.labels, times, len(chunk))
        assert np.array_equal(per_replica, [one.counts for one in ones[rows]])
        assert np.array_equal(both.counts, per_replica.sum(axis=0))
        assert both.final.counters == Counters(*map(sum, zip(
            *(astuple(one.final.counters) for one in ones[rows]))))
    assert sum(one.final.counters.infections for one in ones) > 0


def test_small_system_matches_master_equation():
    # all pairs always in range; labels then form an exact finite chain
    n, lam, gamma = 3, 1.0, 1.0
    params = make_params(n, lam=lam, gamma=gamma, radius=1.0)
    reps = 20_000
    t_obs = [0.7]
    counts = np.zeros(27)
    seeds = [SeedSpec(15).child(r) for r in range(reps)]
    # replica r starts from make_state's seed 1000 + r and runs on seeds[r],
    # in stacked passes; its label vector at t is one row of labels.at(t)
    digits = 3 ** np.arange(n - 1, -1, -1)  # state_index of each row
    for rows, chunk in replica_passes(n, seeds, PASS_AGENTS):
        states = [make_state([0, 0, 1], seed=1000 + r) for r in range(reps)[rows]]
        stacked = EnsembleState(*(np.concatenate([getattr(st, key) for st in states])
                                  for key in ("x", "theta", "labels")))
        labels = run(stacked, params, t_obs[-1], t_obs, *chunk).labels
        counts += np.bincount(labels.at(t_obs[0]).reshape(-1, n) @ digits, minlength=27)
    p0 = np.zeros(27)
    p0[state_index([0, 0, 1])] = 1.0
    exact = master_equation_solve(n, lam, gamma, p0, t_obs[0])
    tv = 0.5 * np.abs(counts / reps - exact).sum()
    noise = 0.5 * np.sqrt(exact * (1 - exact) / reps).sum()
    assert tv < 3.0 * noise


def test_pair_and_per_agent_schemes_agree():
    n, reps = 40, 4000
    params = make_params(n, lam=2.0, gamma=0.5, radius=0.3)
    ic = uniform_sir(1.0, 0.8, 0.2, 0.0)
    base = SeedSpec(16)
    counts = {"pair": [], "per_agent": []}
    for scheme_idx, scheme in enumerate(("pair", "per_agent")):
        # replica r starts from seed.child(0) and runs on seed.child(1), in
        # stacked passes
        seeds = [base.child(scheme_idx, r) for r in range(reps)]
        for _, chunk in replica_passes(n, seeds, PASS_AGENTS):
            initial = sample_replicas(lambda rng: sample_initial(ic, n, rng), chunk)
            traj = run(initial, params, 1.0, [1.0], *(s.child(1) for s in chunk),
                       interaction=scheme)
            counts[scheme].extend(replica_counts(traj.labels, [1.0], len(chunk))[:, -1, 1])
    ks = stats.ks_2samp(counts["pair"], counts["per_agent"])
    assert ks.pvalue > 0.01


def test_sample_initial_fractions_and_reproducibility():
    ic = uniform_sir(1.0, 0.9, 0.1, 0.0)
    n = 100_000
    state = sample_initial(ic, n, SeedSpec(17).rng())
    assert state.n == n
    frac_i = np.bincount(state.labels, minlength=3)[1] / n
    assert abs(frac_i - 0.1) < 3 * math.sqrt(0.1 * 0.9 / n)
    again = sample_initial(ic, n, SeedSpec(17).rng())
    assert np.array_equal(state.x, again.x)
    assert np.array_equal(state.labels, again.labels)
