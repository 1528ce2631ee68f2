import math

import numpy as np
import pytest
from scipy import stats

from epichaos import EnsembleState, ModelParams, SeedSpec, in_range, run, wrap
from epichaos.core import (REMAINDER_MIN_SIZE, WINDOW, BlockDraws, Path, TWO_PI, _layout,
                           label_free_pass, remainder, torus_distance)

SIDE = 1.0


def test_geometry_helpers_stay_in_core():
    import epichaos

    for name in ("torus_distance", "VELOCITY_JUMP_RATE"):
        assert not hasattr(epichaos, name)


def test_torus_distance_examples():
    assert torus_distance((0.1, 0.1), (0.9, 0.1), SIDE) == pytest.approx(0.2, abs=1e-15)
    assert torus_distance((0.3, 0.7), (0.3, 0.7), SIDE) == 0.0
    assert torus_distance((0.0, 0.0), (0.5, 0.5), SIDE) == pytest.approx(math.sqrt(0.5))


def test_torus_distance_symmetry_and_triangle():
    rng = np.random.default_rng(0)
    pts = rng.random((500, 3, 2))
    for x, y, z in pts:
        assert torus_distance(x, y, SIDE) == torus_distance(y, x, SIDE)
        assert torus_distance(x, z, SIDE) <= \
            torus_distance(x, y, SIDE) + torus_distance(y, z, SIDE) + 1e-12


def test_torus_distance_max_value():
    rng = np.random.default_rng(1)
    d = torus_distance(rng.random((1000, 2)), rng.random((1000, 2)), SIDE)
    assert np.all(d <= 1.0 / math.sqrt(2) + 1e-15)


def test_in_range_strictness():
    # exact binary values so 'just at the radius' really is equality
    assert in_range((0.125, 0.5), (0.875, 0.5), 0.2500000001, SIDE)
    assert not in_range((0.125, 0.5), (0.875, 0.5), 0.25, SIDE)
    assert in_range((0.1, 0.1), (0.9, 0.1), 0.25, SIDE)


def test_in_range_radius_beyond_diameter_hits_everything():
    rng = np.random.default_rng(2)
    a = rng.random((300, 2))
    b = rng.random((300, 2))
    assert np.all(in_range(a, b, 0.8, SIDE))


def in_range_by_sum(x1, x2, r0, side):
    d = np.abs(np.asarray(x1, dtype=float) - np.asarray(x2, dtype=float))
    d = np.minimum(d, side - d)
    return (d * d).sum(axis=-1) < r0 * r0


@pytest.mark.parametrize("side", [1.0, 0.3, 7.0])
def test_in_range_keeps_the_sum_rule(side):
    rng = np.random.default_rng(12)
    r0 = 0.2 * side
    a, b = rng.random((4000, 2)) * side, rng.random((4000, 2)) * side
    # partners at distance r0 up to rounding, many across the seam
    phi = rng.random(4000) * TWO_PI
    c = wrap(a + r0 * np.column_stack((np.cos(phi), np.sin(phi))), side)
    seam = np.array([[side - r0 / 2, 0.5 * side], [side - r0 / 4, side - r0 / 4]])
    across = wrap(seam + np.array([[r0, 0.0], [r0 / 2, r0 / 2]]), side)
    for x1, x2 in ((a, b), (a, c), (seam, across), (a[0], b), (a[1], c)):
        got = in_range(x1, x2, r0, side)
        assert np.array_equal(got, in_range_by_sum(x1, x2, r0, side))
    got = in_range(a, c, r0, side)
    assert got.any() and not got.all()


def flight_params(n):
    return ModelParams(n=n, side=1.0, radius=0.1, infection_rate=0.0, recovery_rate=0.0)


def test_advance_free_examples():
    # with no reactions and no velocity jump, a run is straight unit-speed
    # flight wrapped onto the torus
    state = EnsembleState(np.array([[0.5, 0.5], [0.9, 0.5]]), np.zeros(2),
                          np.zeros(2, dtype=np.int8))
    # the first seed whose run has no velocity jump (each does with p = 0.67)
    traj = next(tr for tr in (run(state, flight_params(2), 0.2, [0.2], SeedSpec(0, (r,)))
                              for r in range(50))
                if tr.final.counters.velocity_jumps == 0)
    assert traj.final.x == pytest.approx(np.array([[0.7, 0.5], [0.1, 0.5]]))
    still = run(state, flight_params(2), 0.0, [0.0], SeedSpec(0)).final
    assert np.array_equal(still.x, state.x) and np.array_equal(still.theta, state.theta)


def test_advance_free_composes():
    # observing at s and then at s + t matches one flight of length s + t
    rng = np.random.default_rng(3)
    checked = 0
    for r in range(80):
        x, theta = rng.random((1, 2)), rng.random(1) * TWO_PI
        s, t = rng.random() * 1.5, rng.random() * 1.5
        state = EnsembleState(x, theta, np.zeros(1, dtype=np.int8))
        traj = run(state, flight_params(1), s + t, [s, s + t], SeedSpec(3, (r,)))
        if traj.final.counters.velocity_jumps:
            continue
        checked += 1
        v = np.column_stack((np.cos(theta), np.sin(theta)))
        at_s = wrap(x + v * s, 1.0)
        at_end = wrap(x + v * (s + t), 1.0)
        assert torus_distance(traj.state_at(s).x, at_s, SIDE).max() < 1e-12
        assert torus_distance(traj.state_at(s + t).x, at_end, SIDE).max() < 1e-12
        assert torus_distance(traj.final.x, at_end, SIDE).max() < 1e-12
    assert checked >= 10


def test_wrap_idempotent_and_edge():
    xs = np.array([0.0, 0.25, 0.999999, -1e-18, 1.0, -0.5, 17.25])
    w1 = wrap(xs, 1.0)
    w2 = wrap(w1, 1.0)
    assert np.array_equal(w1, w2)
    assert np.all(w1 >= 0.0) and np.all(w1 < 1.0)
    # scalar path, including the negative-tiny rounding edge
    assert wrap(-1e-18, 1.0) == 0.0
    assert wrap(0.3, 1.0) == 0.3


def mod_values(side):
    """Values on which ``np.mod`` is easy to get wrong, inside [-side,
    2 side) and outside it."""
    inside = [-0.0, 0.0, -side, np.nextafter(-side, 0.0), -1e-18 * side, -5e-324,
              np.nextafter(side, 0.0), side, np.nextafter(side, np.inf), 1.25 * side,
              1.5 * side, np.nextafter(2 * side, 0.0), 0.5 * side]
    outside = [2 * side, -5 * side, 9 * side, np.nextafter(-side, -np.inf), np.nan,
               np.inf, -np.inf]
    return np.array(inside), np.array(outside)


@pytest.mark.parametrize("side", [1.0, 0.3, 7.0])
def test_wrap_and_remainder_keep_np_mod_bits(side, monkeypatch):
    inside, outside = mod_values(side)
    rng = np.random.default_rng(13)
    tiled = np.tile(inside, REMAINDER_MIN_SIZE // inside.size + 1)
    spread = rng.uniform(-side, 2 * side, (REMAINDER_MIN_SIZE, 2))
    arrays = [inside, outside, np.concatenate([tiled, outside]), tiled, spread]
    with np.errstate(invalid="ignore"):
        want = [np.mod(x, side) for x in arrays]
        scalars = [np.mod(v, side) for v in np.concatenate([inside, outside]).tolist()]
    assert want[0][4] == side  # the tiny negative rounds up to side

    def same(got, mod):
        return (np.asarray(got, dtype=float).tobytes()
                == np.where(mod >= side, 0.0, mod).tobytes())

    with np.errstate(invalid="ignore"):
        for x, mod in zip(arrays, want):
            assert remainder(x, side).tobytes() == mod.tobytes()
            assert same(wrap(x, side), mod)
        for v, mod in zip(np.concatenate([inside, outside]).tolist(), scalars):
            assert np.float64(remainder(v, side)).tobytes() == mod.tobytes()
            assert same(wrap(v, side), mod)
    # large arrays within [-side, 2 side) take the arithmetic, not np.mod
    monkeypatch.setattr(np, "mod", None)
    for x, mod in zip(arrays[3:], want[3:]):
        assert remainder(x, side).tobytes() == mod.tobytes()
        assert same(wrap(x, side), mod)


def headings(seed, n):
    # new headings are the heading column of the velocity jumps
    params = ModelParams(n=n, side=1.0, radius=0.1, infection_rate=0.0, recovery_rate=0.0)
    return BlockDraws(SeedSpec(seed).rng(), n, params, 0.0, WINDOW).jump_theta


def test_sample_velocity_symmetry():
    th = headings(5, 200_000)
    assert np.all(th >= 0) and np.all(th < TWO_PI)
    assert abs(np.mean(np.cos(th))) < 4 / math.sqrt(th.size)
    assert abs(np.mean(np.sin(th))) < 4 / math.sqrt(th.size)


def test_sample_velocity_chi_square():
    th = headings(6, 500_000)
    hist = np.bincount((th / (TWO_PI / 36)).astype(int), minlength=36)
    chi2 = ((hist - th.size / 36) ** 2 / (th.size / 36)).sum()
    assert stats.chi2.sf(chi2, 35) > 0.001


def test_seedspec_reproducible_and_independent():
    a = SeedSpec(123, (4,)).rng().random(32)
    b = SeedSpec(123, (4,)).rng().random(32)
    c = SeedSpec(123, (5,)).rng().random(32)
    d = SeedSpec(124, (4,)).rng().random(32)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)
    assert SeedSpec(123).child(4, 7).key == (4, 7)


def draw_params(n, lam=2.0, gamma=0.5):
    return ModelParams(n=n, side=1.0, radius=0.1, infection_rate=lam, recovery_rate=gamma)


def test_block_draws_matches_generator_order():
    # one window, t0 = 0.5; per kind: a Poisson count, sorted uniform times,
    # then the other columns in draw order
    n, lam, gamma, t0 = 10, 2.0, 0.5, 0.5
    spec = SeedSpec(9, (1,))
    for pair in (False, True):
        draws = BlockDraws(spec.rng(), n, draw_params(n, lam, gamma), t0, t0 + WINDOW, pair)
        rng = spec.rng()

        def times(rate):
            return np.sort(rng.random(rng.poisson(rate * WINDOW)))

        t = times(n)
        jump = (t, rng.integers(0, n, t.size), rng.random(t.size) * TWO_PI)
        t = times(n * gamma)
        tick = (t, rng.integers(0, n, t.size))
        t = times(lam * ((n - 1) / 2 if pair else n))
        agent = rng.integers(0, n, t.size)
        partner = rng.integers(0, n - 1 if pair else n, t.size)
        if pair:
            partner += partner >= agent
        prop = (t, agent, partner, rng.random(t.size))
        got = ((draws.jump_t, draws.jump_agent, draws.jump_theta),
               (draws.tick_t, draws.tick_agent),
               (draws.prop_t, draws.prop_agent, draws.prop_partner, draws.prop_u))
        for want, have in zip((jump, tick, prop), got):
            assert want[0].size > 0
            assert np.array_equal(have[0], t0 + WINDOW * want[0])
            for w, h in zip(want[1:], have[1:]):
                assert np.array_equal(h, w)
        if pair:
            assert np.all(draws.prop_partner != draws.prop_agent)


def test_block_draws_windows_do_not_depend_on_the_horizon():
    n, t0 = 20, 0.25
    params = draw_params(n)
    full = BlockDraws(SeedSpec(9, (2,)).rng(), n, params, t0, t0 + 3 * WINDOW)
    columns = ("jump_t", "jump_agent", "jump_theta", "tick_t", "tick_agent",
               "prop_t", "prop_agent", "prop_partner", "prop_u")
    for t_max in (t0 + 0.4 * WINDOW, t0 + WINDOW, t0 + 2.5 * WINDOW):
        cut = BlockDraws(SeedSpec(9, (2,)).rng(), n, params, t0, t_max)
        for kind in ("jump", "tick", "prop"):
            times = getattr(cut, kind + "_t")
            assert times.size and np.all((times >= t0) & (times < t_max))
            # every event lies in its window, in time order
            assert np.all(np.diff(times) >= 0)
        for name in columns:
            # the events before t_max are those of the longer run
            kept = getattr(full, name.split("_")[0] + "_t") < t_max
            assert np.array_equal(getattr(cut, name), getattr(full, name)[kept]), name
    # window k holds about rate * WINDOW events of each kind
    assert np.all(np.diff(np.floor((full.jump_t - t0) / WINDOW)) >= 0)
    assert abs(full.jump_t.size - 3 * n * WINDOW) < 5 * math.sqrt(3 * n * WINDOW)


def test_label_free_pass_stacks_replicas_as_drawn():
    # three replicas of n agents in one pass: each is the pass of its own
    # generator alone, with its agents numbered from r * n on
    n, reps, t0, t_max = 6, 3, 0.25, 2.6
    params = draw_params(n, lam=3.0, gamma=1.0)
    rng = np.random.default_rng(4)
    x, theta = rng.random((reps * n, 2)), rng.random(reps * n) * TWO_PI
    specs = [SeedSpec(9, (r,)) for r in range(reps)]
    path, props = label_free_pass(x, theta, t0, t_max, params, [s.rng() for s in specs])
    assert path.n == reps * n
    start = jumps = 0
    for r, spec in enumerate(specs):
        one = slice(r * n, (r + 1) * n)
        alone, alone_props = label_free_pass(x[one], theta[one], t0, t_max, params,
                                             [spec.rng()])
        mine = slice(start, start + alone_props[0].size)
        start = mine.stop
        assert np.array_equal(props[0][mine], alone_props[0])
        assert np.array_equal(props[1][mine], alone_props[1] + r * n)
        assert np.array_equal(props[2][mine], alone_props[2] + r * n)
        assert np.array_equal(props[3][mine], alone_props[3])
        for s in (t0, 1.0, 1.7, t_max):
            got_x, got_theta = path.state_at(s)
            want_x, want_theta = alone.state_at(s)
            assert np.array_equal(got_x[one], want_x)
            assert np.array_equal(got_theta[one], want_theta)
            agents = np.arange(n)
            assert np.array_equal(path.recovery_after(agents + r * n, s),
                                  alone.recovery_after(agents, s))
        jumps += alone.jumps_before(1.7)
    assert start == props[0].size
    # the stacked jump times are in time order within each replica only
    assert path.jumps_before(1.7) == jumps


@pytest.mark.parametrize("reps", [1, 3])
def test_jumps_before_counts_the_drawn_jumps(reps):
    n, t0, t_max = 5, 0.25, 2.6
    params = draw_params(n)
    draws = [BlockDraws(SeedSpec(14, (r,)).rng(), n, params, t0, t_max) for r in range(reps)]
    draws = BlockDraws.stack(draws, n) if reps > 1 else draws[0]
    rng = np.random.default_rng(14)
    path = Path(rng.random((reps * n, 2)), rng.random(reps * n) * TWO_PI, t0, SIDE, draws)
    assert not hasattr(path, "jump_t")
    for s in (t0, draws.jump_t[0], draws.jump_t[-1], draws.jump_t[draws.jump_t.size // 2],
              0.5 * (t0 + t_max), t_max):
        assert path.jumps_before(s) == np.count_nonzero(draws.jump_t < s)


def test_state_before_the_path_starts_is_refused():
    n, t0 = 4, 1.0
    draws = BlockDraws(SeedSpec(15).rng(), n, draw_params(n), t0, 3.0)
    path = Path(np.full((n, 2), 0.5), np.arange(n) * 0.5, t0, SIDE, draws)
    with pytest.raises(ValueError):
        path.state_at(0.5)
    # and at a time not finite: at +inf no segment starts by s and ends after
    for s in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            path.state_at(s)
    x, theta = path.state_at(t0)
    assert np.array_equal(x, np.full((n, 2), 0.5)) and np.array_equal(theta, np.arange(n) * 0.5)


def stable_layout(agent, n):
    """``_layout`` with numpy's stable sort of the agent ids, the reference."""
    by_agent = np.argsort(agent, kind="stable")
    count = np.bincount(agent, minlength=n) + 1
    return count, np.cumsum(count) - count, by_agent, np.arange(agent.size) + agent[by_agent]


def layout_cases():
    rng = np.random.default_rng(25)
    params = draw_params(4)
    stacked = BlockDraws.stack([BlockDraws(SeedSpec(25, (r,)).rng(), 4, params, 0.0, 3.0)
                                for r in range(5)], 4)
    return {
        "empty": (np.zeros(0, np.int64), 3),
        "one agent": (np.full(5000, 2), 4),
        "random": (rng.integers(0, 1000, 10**5), 1000),
        "stacked": (stacked.jump_agent, 20),
        # agent * size overflows int32 here
        "int32": (rng.integers(0, 50_000, 10**5).astype(np.int32), 50_000),
    }


@pytest.mark.parametrize("case", ["empty", "one agent", "random", "stacked", "int32"])
def test_layout_orders_events_as_a_stable_sort(case):
    agent, n = layout_cases()[case]
    got, want = _layout(agent, n), stable_layout(agent, n)
    for name, g, w in zip(("count", "head", "by_agent", "slot"), got, want):
        assert np.array_equal(g, w), name


class BruteLookups:
    """Each agent's segment, heading, position and next tick, found from the
    draws one agent at a time: the last segment starting by t (segments in
    (agent, time) order, agent a's first at its initial state) and the
    first tick after t."""

    def __init__(self, x, theta, t0, draws):
        self.x, self.theta, self.t0 = x, theta, t0
        n = theta.size
        self.jump_t = [draws.jump_t[draws.jump_agent == a] for a in range(n)]
        self.jump_theta = [draws.jump_theta[draws.jump_agent == a] for a in range(n)]
        self.tick_t = [draws.tick_t[draws.tick_agent == a] for a in range(n)]
        self.first = np.cumsum([0] + [j.size + 1 for j in self.jump_t])[:-1]

    def jumps_by(self, a, t):
        return int(np.count_nonzero(self.jump_t[a] <= t))

    def segment(self, a, t):
        return self.first[a] + self.jumps_by(a, t)

    def heading(self, a, t):
        k = self.jumps_by(a, t)
        return self.jump_theta[a][k - 1] if k else self.theta[a]

    def position(self, a, t):
        x, s, th = self.x[a], self.t0, self.theta[a]
        for tj, thj in zip(self.jump_t[a], self.jump_theta[a]):
            if tj > t:
                break
            x, s, th = wrap(x + (tj - s) * np.array([np.cos(th), np.sin(th)]), SIDE), tj, thj
        return wrap(x + (t - s) * np.array([np.cos(th), np.sin(th)]), SIDE)

    def recovery_after(self, a, t):
        later = self.tick_t[a][self.tick_t[a] > t]
        return later[0] if later.size else np.inf


@pytest.mark.parametrize("t_max", [1.0, 5.0, 10.0])
def test_path_lookups_match_a_per_agent_reference(t_max):
    n, reps, t0 = 5, 3, 0.25
    params = draw_params(n, gamma=0.3)
    rng = np.random.default_rng(int(t_max))
    x, theta = rng.random((reps * n, 2)), rng.random(reps * n) * TWO_PI
    draws = BlockDraws.stack([BlockDraws(SeedSpec(11, (r,)).rng(), n, params, t0, t_max)
                              for r in range(reps)], n)
    path, ref = Path(x, theta, t0, SIDE, draws), BruteLookups(x, theta, t0, draws)
    agents = np.arange(reps * n)
    if t_max == 1.0:
        # agents with no jump and agents with no tick
        assert min(j.size for j in ref.jump_t) == 0 and min(t.size for t in ref.tick_t) == 0
    # exactly at every jump and tick, where the tie rules decide, and between
    times = np.concatenate([[t0, t_max], draws.jump_t, draws.tick_t,
                            t0 + (t_max - t0) * rng.random(20)])
    a, t = np.meshgrid(agents, times)
    want_seg = np.vectorize(ref.segment)(a, t)
    want_tick = np.vectorize(ref.recovery_after)(a, t)
    want_theta = np.vectorize(ref.heading)(a, t)
    assert np.array_equal(path.segment(a, t), want_seg)
    assert np.array_equal(path.theta[path.segment(a, t)], want_theta)
    assert np.array_equal(path.recovery_after(a, t), want_tick)
    pos = path.positions(a, t)
    want_pos = np.array([[ref.position(i, s) for i in agents] for s in times])
    assert torus_distance(pos, want_pos, SIDE).max() < 1e-12
    # agents and partners stacked as in ``near``: array agents, times per column
    pairs = np.stack([a.ravel(), a.ravel()[::-1]])
    assert np.array_equal(path.positions(pairs, t.ravel()),
                          np.stack([pos.reshape(-1, 2), path.positions(pairs[1], t.ravel())]))
    for k, s in enumerate(times.tolist()):
        # a scalar time with array agents (the p scan of ``run_coupled``)
        assert np.array_equal(path.segment(agents, s), want_seg[k])
        assert np.array_equal(path.positions(agents, s), pos[k])
        assert np.array_equal(path.recovery_after(agents, s), want_tick[k])
        got_x, got_theta = path.state_at(s)
        assert np.array_equal(got_x, pos[k])
        assert np.array_equal(got_theta, want_theta[k])
    for i, s in zip(a.ravel()[::7].tolist(), t.ravel()[::7].tolist()):
        # a scalar agent at a scalar time (``infect``)
        assert path.segment(i, s) == ref.segment(i, s)
        assert path.recovery_after(i, s) == ref.recovery_after(i, s)


def test_model_params_validation():
    with pytest.raises(ValueError):
        ModelParams(n=0, side=1.0, radius=0.1, infection_rate=1.0, recovery_rate=0.5)
    with pytest.raises(ValueError):
        ModelParams(n=5, side=1.0, radius=-0.1, infection_rate=1.0, recovery_rate=0.5)
    with pytest.raises(ValueError):
        ModelParams(n=5, side=1.0, radius=0.1, infection_rate=-1.0, recovery_rate=0.5)
