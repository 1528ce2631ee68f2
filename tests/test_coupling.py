import copy
import dataclasses
import math

import numpy as np
import pytest
from scipy import stats

from epichaos import (ConfigError, CoupledEnsemble, EnsembleState, Label, ModelParams,
                      OracleSpanError, SeedSpec, b_attempt,
                      constant_oracle, coupled_counts, in_range, mismatch_bound,
                      mismatch_fraction, run, run_coupled, run_ensemble,
                      sample_initial, uniform_sir, wrap,
                      FieldOracle, GridSpec, field_from_initial, solve)
from epichaos.core import TWO_PI, BlockDraws, torus_distance
from epichaos import coupling
from epichaos.coupling import b_shortcut

SIDE = 1.0


def make_params(n, lam=1.0, gamma=0.5, radius=0.1):
    return ModelParams(n=n, side=SIDE, radius=radius,
                       infection_rate=lam, recovery_rate=gamma)


def make_coupled(a_labels, b_labels, seed=0, side=SIDE):
    a = np.asarray(a_labels, dtype=np.int8)
    b = np.asarray(b_labels, dtype=np.int8)
    rng = SeedSpec(seed).rng()
    n = a.shape[0]
    return CoupledEnsemble(rng.random((n, 2)) * side, rng.random(n) * TWO_PI, a, b=b)


# Scalar forms of the two coupled jump rules, acting on a CoupledEnsemble
# whose positions are current.  They are the reference that run_coupled's
# inlined loop is checked against.

def event_copy(state):
    """A copy of ``state`` with its own labels and counters, the parts one
    event changes."""
    return dataclasses.replace(state, labels=state.a.copy(), b=state.b.copy(),
                               counters=dataclasses.replace(state.counters))


def coupled_recovery(state, i):
    """One shared recovery tick: both labels apply I -> R simultaneously."""
    flipped = False
    if state.a[i] == Label.I:
        state.a[i] = Label.R
        flipped = True
    if state.b[i] == Label.I:
        state.b[i] = Label.R
        flipped = True
    if flipped:
        state.counters.recoveries += 1
    return state


def coupled_infection_event(state, params, oracle, i, partner, u):
    """Resolve one infection proposal for agent i on both label systems.

    The a-attempt fires iff the partner is a-infected and in range; the
    b-attempt reuses the partner check and the uniform u through
    ``b_attempt``.  Attempts flip S to I on their own label only.  Returns
    (partner check, b fired) where agent i was b-susceptible, else None.
    """
    state.counters.infection_proposals += 1
    within = in_range(state.x, state.x[i], params.radius, params.side)
    b_in = within & (state.b == Label.I)
    partner_b = bool(b_in[partner])
    b_in[i] = False
    p = int(np.sum(b_in)) / state.n
    q = float(oracle.nf_at(state.x[i], state.t))

    if (partner != i and within[partner] and state.a[partner] == Label.I
            and state.a[i] == Label.S):
        state.a[i] = Label.I
        state.counters.infections += 1
    if state.b[i] != Label.S:
        return None
    fired = b_attempt(p, q, partner_b, u)
    if fired:
        state.b[i] = Label.I
    return partner_b, fired


def test_coupled_recovery_cases():
    state = make_coupled([1, 1, 0], [1, 2, 0])
    coupled_recovery(state, 0)
    assert (state.a[0], state.b[0]) == (Label.R, Label.R)
    before = mismatch_fraction(state.a, state.b)
    coupled_recovery(state, 1)  # (I, R) -> (R, R): mismatch drops
    assert (state.a[1], state.b[1]) == (Label.R, Label.R)
    assert mismatch_fraction(state.a, state.b) < before
    coupled_recovery(state, 2)  # (S, S) unchanged
    assert (state.a[2], state.b[2]) == (Label.S, Label.S)


def test_coupled_recovery_never_increases_mismatch():
    rng = np.random.default_rng(4)
    for _ in range(200):
        state = make_coupled(rng.integers(0, 3, 8), rng.integers(0, 3, 8))
        before = mismatch_fraction(state.a, state.b)
        coupled_recovery(state, int(rng.integers(8)))
        assert mismatch_fraction(state.a, state.b) <= before + 1e-15


def exact_event_probabilities(state, params, orc, i):
    """Attempt probabilities of one proposal for agent i: the a-side
    empirical intensity, the field intensity q (which the b-attempt must
    match in any configuration) and the b-side empirical intensity p."""
    within = in_range(state.x, state.x[i], params.radius, params.side)
    within[i] = False
    p_a = int(np.sum(within & (state.a == Label.I))) / state.n
    p = int(np.sum(within & (state.b == Label.I))) / state.n
    q = float(orc.nf_at(state.x[i], state.t))
    return p_a, q, p


@pytest.mark.parametrize("seed,a_labels,b_labels,nf", [
    (5, [0, 1, 1, 0, 2, 1], [0, 1, 0, 0, 2, 1], 0.4),   # residual positive
    (6, [0, 1, 1, 1, 1, 1], [0, 1, 1, 1, 1, 1], 0.001),  # residual negative
    (7, [0, 0, 0, 0, 0, 0], [0, 1, 1, 1, 0, 0], 0.2),
    (8, [0, 1, 2, 1, 0, 2], [0, 2, 1, 1, 0, 1], 0.0),    # zero field intensity
])
def test_coupled_infection_event_matches_marginal_laws(seed, a_labels, b_labels, nf):
    params = make_params(6, radius=0.35)
    state = make_coupled(a_labels, b_labels, seed=seed)
    orc = constant_oracle(SIDE, nf, 1.0)
    p_a, q, _ = exact_event_probabilities(state, params, orc, 0)
    rng = SeedSpec(seed + 100).rng()
    trials = 40_000
    a_flips = b_flips = 0
    for _ in range(trials):
        trial = event_copy(state)
        partner = int(rng.integers(6))
        u = float(rng.random())
        coupled_infection_event(trial, params, orc, 0, partner, u)
        a_flips += trial.a[0] != state.a[0]
        b_flips += trial.b[0] != state.b[0]
    # agent 0 is susceptible on both sides in every fixture, so flip
    # probabilities equal the attempt intensities exactly
    for observed, expected in ((a_flips, p_a), (b_flips, q)):
        rate = observed / trials
        tol = 4 * math.sqrt(max(expected * (1 - expected), 1e-4) / trials)
        assert abs(rate - expected) < tol, (rate, expected)


def test_coupled_infection_event_shared_channel_is_simultaneous():
    # both labels infected on the partner and in range, intensity above the
    # empirical rate: the two attempts must coincide
    params = make_params(2, radius=0.3)
    state = make_coupled([0, 1], [0, 1], seed=9)
    state.x = np.array([[0.5, 0.5], [0.6, 0.5]])
    orc = constant_oracle(SIDE, 0.9, 1.0)
    rng = SeedSpec(10).rng()
    for _ in range(500):
        trial = event_copy(state)
        coupled_infection_event(trial, params, orc, 0, 1, float(rng.random()))
        # partner check fires for both: either both flip (partner drawn in
        # range) or the residual fires b alone; a flips only with b
        if trial.a[0] == Label.I:
            assert trial.b[0] == Label.I


def test_coupled_infection_event_identical_acceptance_at_matched_rates():
    # labels equal and field intensity exactly the empirical rate: the two
    # attempts use the same partner check, so no proposal can split an
    # (S, S) agent
    params = make_params(5, radius=0.35)
    labels = np.array([0, 1, 1, 0, 2], dtype=np.int8)
    state = make_coupled(labels, labels.copy(), seed=20)
    _, _, p = exact_event_probabilities(state, params, constant_oracle(SIDE, 0.5, 1.0), 0)
    orc = constant_oracle(SIDE, p, 1.0)
    rng = SeedSpec(21).rng()
    for _ in range(2000):
        trial = event_copy(state)
        coupled_infection_event(trial, params, orc, 0, int(rng.integers(5)),
                                float(rng.random()))
        assert trial.a[0] == trial.b[0]


def test_mismatch_fraction_examples():
    state = make_coupled([0, 1, 2], [0, 0, 2])
    assert mismatch_fraction(state.a, state.b) == pytest.approx(1 / 3)
    state = make_coupled([0, 1], [1, 0])
    assert mismatch_fraction(state.a, state.b) == 1.0
    state = make_coupled([0, 1, 2], [0, 1, 2])
    assert mismatch_fraction(state.a, state.b) == 0.0
    # label rows of replicas give one fraction each, each that of its row
    rows = mismatch_fraction([[0, 1, 2], [0, 1, 2]], [[0, 0, 2], [0, 1, 2]])
    assert rows.tolist() == [mismatch_fraction([0, 1, 2], [0, 0, 2]), 0.0]


def test_mismatch_bound_value():
    assert mismatch_bound(1.0, 1.0, 1000) == pytest.approx(math.exp(2.0) / 1000)


def test_mismatch_bound_is_inf_where_the_exponential_overflows():
    # exp(2 * 400 * 1) is beyond the largest float
    assert mismatch_bound(1.0, 400.0, 20) == math.inf
    assert math.isfinite(mismatch_bound(0.5, 400.0, 20))


def test_run_coupled_no_infection_channel_keeps_labels_equal():
    params = make_params(50, lam=0.0, gamma=1.0)
    orc = constant_oracle(SIDE, 0.0, 2.0)
    state = sample_initial(uniform_sir(SIDE, 0.5, 0.5, 0.0), 50, SeedSpec(11).rng())
    traj = run_coupled(state, params, orc, 2.0, [0.0, 1.0, 2.0], SeedSpec(12))
    assert np.all(traj.mismatch == 0.0)
    assert np.array_equal(traj.counts_a, traj.counts_b)


def test_run_coupled_starts_matched_and_stays_bounded():
    params = make_params(100)
    orc = constant_oracle(SIDE, 0.01, 1.0)
    state = sample_initial(uniform_sir(SIDE, 0.9, 0.1, 0.0), 100, SeedSpec(13).rng())
    traj = run_coupled(state, params, orc, 1.0, [0.0, 0.5, 1.0], SeedSpec(14))
    assert traj.mismatch[0] == 0.0
    assert np.all((traj.mismatch >= 0.0) & (traj.mismatch <= 1.0))
    assert np.all(traj.counts_a.sum(axis=1) == 100)
    assert np.all(traj.counts_b.sum(axis=1) == 100)


def test_run_coupled_is_deterministic():
    params = make_params(60)
    orc = constant_oracle(SIDE, 0.05, 1.0)
    state = sample_initial(uniform_sir(SIDE, 0.8, 0.2, 0.0), 60, SeedSpec(15).rng())
    a = run_coupled(state, params, orc, 1.0, [0.5, 1.0], SeedSpec(16))
    b = run_coupled(state, params, orc, 1.0, [0.5, 1.0], SeedSpec(16))
    assert np.array_equal(a.mismatch, b.mismatch)
    assert np.array_equal(a.counts_a, b.counts_a)
    assert np.array_equal(a.counts_b, b.counts_b)
    assert np.array_equal(a.final.x, b.final.x)
    assert np.array_equal(a.final.a, b.final.a)
    assert np.array_equal(a.final.b, b.final.b)
    assert a.final.counters == b.final.counters


def run_loop(loop, t_max, times):
    """One of the four loops on a fixed start and seed (n = 60), with a
    field spanning [0, 2]."""
    n = 60
    params = make_params(n, lam=3.0, radius=0.3)
    ic = uniform_sir(SIDE, 0.8, 0.2, 0.0)
    orc = constant_oracle(SIDE, 0.2, 2.0)
    if loop == "ensemble":
        return run_ensemble(n, ic, orc, params, t_max, times, SeedSpec(45))
    if loop == "coupled":
        state = sample_initial(ic, n, SeedSpec(46).rng())
        return run_coupled(state, params, orc, t_max, times, SeedSpec(47))
    state = sample_initial(ic, n, SeedSpec(46).rng())
    return run(state, params, t_max, times, SeedSpec(47), interaction=loop)


@pytest.mark.parametrize("loop", ["per_agent", "pair", "ensemble", "coupled"])
def test_loops_reject_a_negative_horizon(loop):
    with pytest.raises(ConfigError):
        run_loop(loop, -1.0, [])


@pytest.mark.parametrize("loop", ["ensemble", "coupled"])
def test_field_loops_need_an_oracle_covering_the_horizon(loop):
    with pytest.raises(OracleSpanError):
        run_loop(loop, 2.5, [])
    run_loop(loop, 2.0 + 1e-10, [])  # within the span's rounding slack


@pytest.mark.parametrize("loop", ["per_agent", "pair", "ensemble", "coupled"])
def test_state_at_rejects_times_outside_the_run(loop):
    # the path has no events after t_max, so a later state would be wrong
    traj = run_loop(loop, 1.0, [1.0])
    assert traj.state_at(0.0).t == 0.0 and traj.state_at(1.0).t == 1.0
    for s in (-1e-9, 1.0 + 1e-9, math.nan):
        with pytest.raises(ValueError):
            traj.state_at(s)


def same_state(s, u):
    labels = ("a", "b") if hasattr(s, "a") else ("labels",)
    return (s.t == u.t and s.counters == u.counters and np.array_equal(s.x, u.x)
            and np.array_equal(s.theta, u.theta)
            and all(np.array_equal(getattr(s, k), getattr(u, k)) for k in labels))


@pytest.mark.parametrize("loop", ["per_agent", "pair", "coupled", "ensemble"])
def test_path_does_not_depend_on_the_horizon(loop):
    short = run_loop(loop, 1.0, [0.5, 1.0])
    long = run_loop(loop, 2.0, [0.5, 1.0, 2.0])
    assert long.final.counters.infections > short.final.counters.infections > 0
    assert short.final.counters.recoveries > 0
    assert same_state(short.final, long.state_at(1.0))
    count_rows = ("counts_a", "counts_b", "mismatch") if loop == "coupled" else ("counts",)
    for rows in count_rows:
        assert np.array_equal(getattr(short, rows), getattr(long, rows)[:2]), rows


@pytest.mark.parametrize("loop", ["per_agent", "pair", "coupled", "ensemble"])
def test_observations_consume_no_variates(loop):
    # the sample times only choose where the path is read
    one = run_loop(loop, 1.0, [1.0])
    many = run_loop(loop, 1.0, np.linspace(0.0, 1.0, 11))
    assert one.final.counters.infections > 0 and one.final.counters.recoveries > 0
    assert same_state(one.final, many.final)


def test_coupled_a_labels_are_those_of_run():
    # run_coupled draws the per-agent form's variates and resolves its
    # a-labels by run's rule
    n = 100
    params = make_params(n, lam=2.0, radius=0.15)
    ic = uniform_sir(SIDE, 0.8, 0.2, 0.0)
    orc = constant_oracle(SIDE, 0.1, 1.0)
    infections = 0
    for s in range(20):
        state = sample_initial(ic, n, SeedSpec(48, (s,)).rng())
        paired = run_coupled(state, params, orc, 1.0, [0.5, 1.0], SeedSpec(49, (s,)))
        alone = run(state, params, 1.0, [0.5, 1.0], SeedSpec(49, (s,)))
        assert np.array_equal(paired.final.a, alone.final.labels), s
        assert np.array_equal(paired.counts_a, alone.counts), s
        assert np.array_equal(paired.final.x, alone.final.x), s
        infections += alone.final.counters.infections
    assert infections > 0
    # a paired state is run's state with the b labels added
    assert isinstance(paired.final, EnsembleState) and paired.final.a is paired.final.labels


@pytest.mark.parametrize("loop", ["per_agent", "pair", "coupled"])
def test_loops_leave_their_start_state_unchanged(loop):
    # run and run_coupled take one state and may share it, so neither may
    # write into it; a mid-run state has events in its counters
    n = 60
    params = make_params(n, lam=3.0, radius=0.3)
    start = run(sample_initial(uniform_sir(SIDE, 0.8, 0.2, 0.0), n, SeedSpec(46).rng()),
                params, 0.5, [], SeedSpec(47)).final
    assert start.counters.infections > 0
    before = copy.deepcopy(start)
    if loop == "coupled":
        traj = run_coupled(start, params, constant_oracle(SIDE, 0.2, 2.0), 1.5, [1.5],
                           SeedSpec(48))
    else:
        traj = run(start, params, 1.5, [1.5], SeedSpec(48), interaction=loop)
    assert traj.final.counters.infections > 0
    assert start.t == 0.5 and same_state(start, before)


def test_duplicate_sample_times_give_one_row_each():
    n, times = 20, [0.0, 0.5, 0.5, 1.0]
    params = make_params(n)
    ic = uniform_sir(SIDE, 0.8, 0.2, 0.0)
    orc = constant_oracle(SIDE, 0.3, 1.0)
    ens = run_ensemble(n, ic, orc, params, 1.0, times, SeedSpec(42))
    agents = run(sample_initial(ic, n, SeedSpec(43).rng()), params, 1.0, times,
                 SeedSpec(44))
    paired = run_coupled(sample_initial(ic, n, SeedSpec(43).rng()), params, orc,
                         1.0, times, SeedSpec(44))
    for traj_times, counts in ((ens.times, ens.counts), (agents.times, agents.counts),
                               (paired.times, paired.counts_a)):
        assert np.array_equal(traj_times, times)
        assert counts.shape == (4, 3)
        assert np.array_equal(counts[1], counts[2])


def synchronous_reference(initial, params, oracle, t_max, seed):
    """The paired process the plain way: every position moves on every
    event, and jumps go through the scalar rules.  Consumes the same
    windowed ``BlockDraws`` as ``run_coupled``, merged in time order.
    Returns the final state and the b-attempt channel counts."""
    state = CoupledEnsemble(initial.x.copy(), initial.theta.copy(), initial.labels.copy(),
                            b=initial.labels.copy())
    tally = dict.fromkeys(("b_proposals", "partner_fires", "residual_fires",
                           "thinned"), 0)
    d = BlockDraws(seed.rng(), state.n, params, 0.0, t_max)
    events = sorted([(t, "jump", i, th) for t, i, th in
                     zip(d.jump_t.tolist(), d.jump_agent.tolist(), d.jump_theta.tolist())]
                    + [(t, "tick", i, None) for t, i in
                       zip(d.tick_t.tolist(), d.tick_agent.tolist())]
                    + [(t, "proposal", i, (j, u)) for t, i, j, u in
                       zip(d.prop_t.tolist(), d.prop_agent.tolist(),
                           d.prop_partner.tolist(), d.prop_u.tolist())],
                    key=lambda event: event[0])

    def move(t_to):
        v = np.column_stack((np.cos(state.theta), np.sin(state.theta)))
        state.x = wrap(state.x + v * (t_to - state.t), params.side)
        state.t = t_to

    for t, kind, i, extra in events:
        move(t)
        if kind == "jump":
            state.theta[i] = extra
            state.counters.velocity_jumps += 1
        elif kind == "tick":
            coupled_recovery(state, i)
        else:
            partner, u = extra
            b_side = coupled_infection_event(state, params, oracle, i, partner, u)
            if b_side is not None:
                partner_b, fired = b_side
                tally["b_proposals"] += 1
                if fired:
                    tally["partner_fires" if partner_b else "residual_fires"] += 1
                elif partner_b:
                    tally["thinned"] += 1
    move(t_max)
    return state, tally


@pytest.fixture(scope="module")
def solved_oracle():
    params = make_params(100, radius=0.2)
    grid = GridSpec(m=8, k=4, dt=2e-2, side=SIDE)
    ic = uniform_sir(SIDE, 0.7, 0.3, 0.0)
    return FieldOracle.from_trajectory(
        solve(field_from_initial(ic, grid), params, grid, 1.5, nf_stride=1))


@pytest.mark.parametrize("n", [60, 200])
def test_run_coupled_matches_synchronous_reference(n, solved_oracle):
    # the label-free pass and the b-infected subset scan change only the
    # order of floating-point work, so labels and counters must agree exactly
    params = make_params(n, radius=0.2)
    ic = uniform_sir(SIDE, 0.7, 0.3, 0.0)
    for s in range(20):
        seed = SeedSpec(31).child(n, s)
        state = sample_initial(ic, n, seed.child(0).rng())
        fast = run_coupled(state, params, solved_oracle, 1.5, [0.0, 1.5],
                           seed.child(1)).final
        ref, _ = synchronous_reference(state, params, solved_oracle, 1.5, seed.child(1))
        assert np.array_equal(fast.a, ref.a), s
        assert np.array_equal(fast.b, ref.b), s
        assert fast.counters == ref.counters, s
        assert fast.t == ref.t == 1.5
        assert torus_distance(fast.x, ref.x, SIDE).max() < 1e-9, s


def test_b_attempt_branch_values():
    # p = 0: no partner check can pass, the residual fires with probability q
    assert b_attempt(0.0, 0.3, False, 0.2999)
    assert not b_attempt(0.0, 0.3, False, 0.3)
    assert not b_attempt(0.0, 0.0, False, 0.0)
    for u in (0.0, 0.5, 0.999):
        # p = q: exactly the partner check
        assert b_attempt(0.4, 0.4, True, u)
        assert not b_attempt(0.4, 0.4, False, u)
        # q = 0: never
        assert not b_attempt(0.5, 0.0, True, u)
        assert not b_attempt(0.5, 0.0, False, u)
        # p = 1 = q: the partner check, with no 0/0 residual
        assert b_attempt(1.0, 1.0, True, u)
        assert not b_attempt(1.0, 1.0, False, u)
    # residual branch, q > p: (0.6 - 0.2) / (1 - 0.2) = 0.5
    assert b_attempt(0.2, 0.6, True, 0.999)
    assert b_attempt(0.2, 0.6, False, 0.4999)
    assert not b_attempt(0.2, 0.6, False, 0.5)
    # thinning branch, q < p: 0.25 / 0.5 = 0.5, also at p = 1
    assert b_attempt(0.5, 0.25, True, 0.4999)
    assert not b_attempt(0.5, 0.25, True, 0.5)
    assert not b_attempt(0.5, 0.25, False, 0.0)
    assert b_attempt(1.0, 0.5, True, 0.4999)
    assert not b_attempt(1.0, 0.5, True, 0.5)


@pytest.mark.parametrize("p,q", [(0.0, 0.0), (0.0, 0.7), (0.3, 0.3), (0.3, 0.8),
                                 (0.6, 0.1), (0.6, 0.0), (1.0, 1.0), (1.0, 0.4)])
def test_b_attempt_is_a_maximal_coupling(p, q):
    # partner check ~ Bernoulli(p), u uniform: integrate over a midpoint grid
    u = (np.arange(10_000) + 0.5) / 10_000
    fire_on = np.mean([b_attempt(p, q, True, v) for v in u])
    fire_off = np.mean([b_attempt(p, q, False, v) for v in u])
    assert p * fire_on + (1.0 - p) * fire_off == pytest.approx(q, abs=1e-4)
    # the attempt agrees with the partner check as often as possible
    assert p * fire_on == pytest.approx(min(p, q), abs=1e-4)


def settle(p, q, partner_b, u, q_cap):
    """The b decision as ``run_coupled`` takes it: the cap, the shortcut,
    then ``b_attempt``."""
    if not partner_b and u >= q_cap:
        return False
    fire = b_shortcut(partner_b, u, q)
    return b_attempt(p, q, partner_b, u) if fire is None else fire


@pytest.mark.parametrize("q", [0.0, 5e-324, 1e-3, 0.2, 0.5, 0.999, 1.0])
def test_b_shortcut_agrees_with_b_attempt(q):
    for q_cap in (q * (1.0 + 1e-9), 1.0 + 1e-9):
        edges = [q, q * (1.0 + 1e-12), q_cap]
        us = {u for e in edges
              for u in (np.nextafter(e, 0.0), e, np.nextafter(e, 2.0))
              if 0.0 <= u < 1.0}
        for p in (0.0, q, 1.0):
            for partner_b in (False, True):
                for u in us:
                    assert settle(p, q, partner_b, u, q_cap) == \
                        b_attempt(p, q, partner_b, u), (p, partner_b, u, q_cap)


def test_b_shortcut_agrees_with_b_attempt_on_random_draws():
    rng = np.random.default_rng(11)
    for p, q, u in rng.random((20_000, 3)).tolist():
        for partner_b in (False, True):
            assert settle(p, q, partner_b, u, 1.0) == b_attempt(p, q, partner_b, u)


def test_probe_cap_bounds_the_probe(solved_oracle):
    rng = np.random.default_rng(12)
    xs = rng.random((10_000, 2)) * SIDE
    # on the constant oracle (records of one value everywhere) the weights'
    # rounding is all that can exceed the records; each oracle is probed over
    # its own span
    for orc in (solved_oracle, constant_oracle(SIDE, 0.3, 1.0)):
        lo, hi = orc.span
        ts = lo + rng.random(10_000) * (hi - lo)
        assert orc.nf_at(xs, ts).max() <= orc.probe_cap


def test_run_coupled_counts_each_b_channel(solved_oracle):
    # the reference settles every b-attempt with p and q in hand, so it
    # tells the channels apart on its own
    n = 200
    params = make_params(n, radius=0.2)
    ic = uniform_sir(SIDE, 0.7, 0.3, 0.0)
    totals = np.zeros(6, dtype=np.int64)
    for s in range(5):
        seed = SeedSpec(33).child(s)
        state = sample_initial(ic, n, seed.child(0).rng())
        ch = run_coupled(state, params, solved_oracle, 1.5, [0.0, 1.5],
                         seed.child(1)).channels
        _, tally = synchronous_reference(state, params, solved_oracle, 1.5, seed.child(1))
        assert tally == {"b_proposals": ch.b_proposals, "partner_fires": ch.partner_fires,
                         "residual_fires": ch.residual_fires, "thinned": ch.thinned}
        assert ch.residual_fires + ch.thinned <= ch.scans <= ch.probes <= ch.b_proposals
        totals += [ch.b_proposals, ch.probes, ch.scans, ch.partner_fires,
                   ch.residual_fires, ch.thinned]
    # the field and the agents differ enough here for every channel to occur
    assert np.all(totals > 0), totals


def _paired_seeds(reps):
    """A config of the solved oracle on which p is scanned, and seeds."""
    n = 40
    return (n, make_params(n, radius=0.2), uniform_sir(SIDE, 0.7, 0.3, 0.0),
            [SeedSpec(34).child(r) for r in range(reps)])


def test_run_coupled_stacks_its_seeds_replica_by_replica(solved_oracle):
    n, params, ic, seeds = _paired_seeds(5)
    times = [0.0, 0.75, 1.5]
    starts = [sample_initial(ic, n, s.child(0).rng()) for s in seeds]
    stacked = EnsembleState(*(np.concatenate([getattr(st, k) for st in starts])
                              for k in ("x", "theta", "labels")))
    both = run_coupled(stacked, params, solved_oracle, 1.5, times, *seeds)
    ones = [run_coupled(st, params, solved_oracle, 1.5, times, s)
            for st, s in zip(starts, seeds)]
    for system in ("labels", "b"):
        for name in ("inf", "rec"):
            assert getattr(getattr(both, system), name).tobytes() == np.concatenate(
                [getattr(getattr(one, system), name) for one in ones]).tobytes(), system
    assert np.array_equal(both.counts_b, sum(one.counts_b for one in ones))
    assert dataclasses.astuple(both.channels) == tuple(
        map(sum, zip(*(dataclasses.astuple(one.channels) for one in ones))))
    assert both.channels.scans > 0


@pytest.mark.parametrize("per_pass", [1, 2, 7, 9])
def test_coupled_counts_equal_one_run_per_seed(monkeypatch, solved_oracle, per_pass):
    # passes of 1, 2, 7 and all 9 replicas; p is counted over each agent's
    # own replica, so every row is that of its seed's run alone
    n, params, ic, seeds = _paired_seeds(9)
    monkeypatch.setattr(coupling, "PASS_AGENTS", per_pass * n)
    times = [0.0, 0.75, 1.5]
    mismatch, counts_a, counts_b, channels = coupled_counts(
        n, ic, solved_oracle, params, 1.5, times, seeds)
    assert mismatch.shape == (9, 3) and counts_a.shape == counts_b.shape == (9, 3, 3)
    total = np.zeros(6, dtype=np.int64)
    for r, seed in enumerate(seeds):
        one = run_coupled(sample_initial(ic, n, seed.child(0).rng()), params, solved_oracle,
                          1.5, times, seed.child(1))
        assert mismatch[r].tobytes() == one.mismatch.tobytes(), r
        assert np.array_equal(counts_a[r], one.counts_a), r
        assert np.array_equal(counts_b[r], one.counts_b), r
        total += dataclasses.astuple(one.channels)
    assert dataclasses.astuple(channels) == tuple(total.tolist())
    assert channels.scans > 0 and mismatch[:, -1].max() > 0


def test_stacked_loops_need_seeds_that_split_their_agents(solved_oracle):
    n, params, ic, seeds = _paired_seeds(2)
    state = sample_initial(ic, 2 * n + 1, seeds[0].rng())
    for call in (lambda *s: run_coupled(state, params, solved_oracle, 1.0, [1.0], *s),
                 lambda *s: run(state, params, 1.0, [1.0], *s)):
        with pytest.raises(TypeError, match="at least one seed"):
            call()
        with pytest.raises(ValueError, match="do not split"):
            call(*seeds)


def test_marginal_consistency_reduced():
    # reduced-size version of the acceptance check: the a-projection matches
    # standalone interacting runs, the b-projection standalone field-driven
    # ensembles (two-sample KS on infected counts at t = 1)
    n, reps = 100, 1200
    params = make_params(n)
    grid = GridSpec(m=16, k=4, dt=1e-2, side=SIDE)
    ic = uniform_sir(SIDE, 0.9, 0.1, 0.0)
    ftraj = solve(field_from_initial(ic, grid), params, grid, 1.0, nf_stride=2)
    orc = FieldOracle.from_trajectory(ftraj)
    base = SeedSpec(17)
    i_a, i_p, i_b, i_m = [], [], [], []
    for r in range(reps):
        seed = base.child(0, r)
        st = sample_initial(ic, n, seed.child(0).rng())
        tr = run_coupled(st, params, orc, 1.0, [1.0], seed.child(1))
        i_a.append(tr.counts_a[-1][1])
        i_b.append(tr.counts_b[-1][1])
        seed = base.child(1, r)
        st = sample_initial(ic, n, seed.child(0).rng())
        i_p.append(run(st, params, 1.0, [1.0], seed.child(1)).counts[-1][1])
        i_m.append(run_ensemble(n, ic, orc, params, 1.0, [1.0],
                                base.child(2, r)).counts[-1][1])
    assert stats.ks_2samp(i_a, i_p).pvalue > 0.01
    assert stats.ks_2samp(i_b, i_m).pvalue > 0.01
