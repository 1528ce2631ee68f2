"""Geometry, health labels, model parameters, the seeded-stream contract and
the label-free motion pass.

Shared foundation for every simulator in the package: the flat periodic
square, unit-speed agents whose velocity is stored as an angle, the
three-state health label with absorbing R, and a (master seed, stream key)
scheme that hands out reproducible, statistically independent generators.
Flights, recovery clocks and infection proposals never read a label, so
``label_free_pass`` draws them up front for the three event loops, which
then only resolve labels (``LabelTimes``).  ``Path`` keeps the flights and
clocks agent by agent and finds an agent's segment or next tick by
counting forward from its first one.
"""

import math
from dataclasses import dataclass, replace
from enum import IntEnum

import numpy as np

TWO_PI = 2.0 * math.pi

#: Rate of the velocity-randomizing clock carried by every agent.
VELOCITY_JUMP_RATE = 1.0


class Label(IntEnum):
    """Agent health state; allowed moves are S->I and I->R only."""

    S = 0
    I = 1
    R = 2


#: The size from which ``remainder`` computes with arithmetic instead of
#: ``np.mod``.  Both give the same bits; below this the arithmetic's eight
#: numpy calls cost more than ``np.mod``'s libm ``fmod`` on every value.
REMAINDER_MIN_SIZE = 512


def remainder(x, side, fold: bool = False):
    """``np.mod(x, side)`` bit for bit; with ``fold``, a result that rounds
    up to exactly ``side`` becomes 0.

    A float64 array of at least ``REMAINDER_MIN_SIZE`` values, all within
    [-side, 2 side), takes plain arithmetic: x + side below 0, rounded as
    ``np.mod`` rounds it; x - side from side on, which is exact (Sterbenz);
    x itself between, with -0.0 made +0.0.  Anything else (a scalar, a
    small array, another dtype, a value outside that interval, nan or inf)
    goes through ``np.mod``.
    """
    if (isinstance(x, np.ndarray) and x.dtype == np.float64 and x.size >= REMAINDER_MIN_SIZE
            and -side <= x.min() and x.max() < 2 * side):
        r = x + (x < 0) * side
        r -= ((r if fold else x) >= side) * side
        return r
    r = np.mod(x, side)
    if not fold:
        return r
    return np.where(r >= side, 0.0, r) if isinstance(r, np.ndarray) else (0.0 if r >= side else r)


def wrap(x, side):
    """Canonicalize coordinates into [0, side): ``np.mod``'s bits, computed
    by ``remainder``'s arithmetic where the input allows it.

    Plain modulo can round a tiny negative input up to exactly ``side``;
    that value is folded back to 0 so downstream cell indexing stays valid.
    Idempotent bit-for-bit on already-canonical input.
    """
    return remainder(x, side, fold=True)


def torus_distance(x1, x2, side: float) -> float:
    """Shortest Euclidean distance between periodic images on the square of
    the given side.

    Accepts single positions (shape ``(2,)``) or batches (``(..., 2)``);
    the result is bounded by side/sqrt(2).
    """
    d = np.abs(np.asarray(x1, dtype=float) - np.asarray(x2, dtype=float))
    d = np.minimum(d, side - d)
    return np.sqrt((d * d).sum(axis=-1))


def in_range(x1, x2, r0: float, side: float):
    """True iff the wrapped distance is strictly below r0."""
    d = np.abs(np.asarray(x1, dtype=float) - np.asarray(x2, dtype=float))
    np.minimum(d, side - d, out=d)
    d *= d
    # the two squares added in the order sum(axis=-1) adds them
    return d[..., 0] + d[..., 1] < r0 * r0


@dataclass(frozen=True)
class ModelParams:
    """All rate and geometry parameters of the agent model.

    Velocity jumps run at the fixed rate ``VELOCITY_JUMP_RATE`` per agent;
    ``infection_rate`` and ``recovery_rate`` are the pair-interaction and
    decay rates, ``radius`` the interaction range on a torus of the given
    side.
    """

    n: int
    side: float
    radius: float
    infection_rate: float
    recovery_rate: float

    def __post_init__(self):
        problems = []
        if self.n < 1:
            problems.append(f"n must be >= 1, got {self.n}")
        # each comparison is false for nan, so nan fails each check
        if not 0 < self.side < math.inf:
            problems.append(f"side must be finite and > 0, got {self.side}")
        if not 0 < self.radius < math.inf:
            problems.append(f"radius must be finite and > 0, got {self.radius}")
        if not 0 <= self.infection_rate < math.inf:
            problems.append(f"infection_rate must be finite and >= 0, got {self.infection_rate}")
        if not 0 <= self.recovery_rate < math.inf:
            problems.append(f"recovery_rate must be finite and >= 0, got {self.recovery_rate}")
        if problems:
            raise ValueError("; ".join(problems))

    def with_n(self, n: int) -> "ModelParams":
        return replace(self, n=n)


@dataclass(frozen=True)
class SeedSpec:
    """Master seed plus a stream key.

    Equal (master, key) pairs produce bit-identical generators; distinct
    pairs produce statistically independent streams.  ``child`` extends the
    key, so one master seed fans out into per-replica and per-purpose
    streams without any shared mutable state.
    """

    master: int
    key: tuple = ()

    def child(self, *ids: int) -> "SeedSpec":
        return SeedSpec(self.master, self.key + tuple(int(i) for i in ids))

    def rng(self) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence(self.master, spawn_key=self.key))


#: Length of the time windows the label-free variates are drawn in.
WINDOW = 1.0

#: Proposals tested for range at once, which bounds the memory of the test.
NEAR_CHUNK = 8192


class BlockDraws:
    """The label-free variates of a run of n agents on [t0, t_max), window
    by window, at the rates of ``params``.

    Window k covers [t0 + k WINDOW, t0 + (k + 1) WINDOW) and is drawn from
    the generator in a fixed call order, kind by kind: the velocity jumps
    (time, agent, heading) at ``VELOCITY_JUMP_RATE`` per agent, the
    recovery ticks (time, agent) at ``recovery_rate`` per agent, and the
    infection proposals (time, agent, partner, uniform u).  A kind is a
    Poisson count, sorted uniform times, then its other columns.  Proposals
    come at ``infection_rate * n`` with the partner drawn from all n agents,
    or in the pair form at ``infection_rate * (n - 1) / 2`` with the partner
    drawn among the other n - 1.  Events at or after t_max are dropped.
    Windows are drawn in order, so no variate depends on t_max.
    """

    def __init__(self, rng: np.random.Generator, n: int, params: ModelParams, t0: float,
                 t_max: float, pair: bool = False):
        rates = (n * VELOCITY_JUMP_RATE, n * params.recovery_rate,
                 params.infection_rate * ((n - 1) / 2.0 if pair else n))
        jumps, ticks, props = [], [], []
        k = 0
        while True:
            start = t0 + k * WINDOW
            # the other columns are i.i.d. and apart from the times, so
            # sorting the times alone keeps the law
            t = self._times(rng, start, rates[0])
            jumps.append((t, rng.integers(0, n, t.size), rng.random(t.size) * TWO_PI))
            t = self._times(rng, start, rates[1])
            ticks.append((t, rng.integers(0, n, t.size)))
            t = self._times(rng, start, rates[2])
            agent = rng.integers(0, n, t.size)
            partner = rng.integers(0, n - 1 if pair else n, t.size)
            if pair:
                partner += partner >= agent
            props.append((t, agent, partner, rng.random(t.size)))
            k += 1
            if t0 + k * WINDOW >= t_max:
                break
        self.jump_t, self.jump_agent, self.jump_theta = _join(jumps, t_max)
        self.tick_t, self.tick_agent = _join(ticks, t_max)
        self.prop_t, self.prop_agent, self.prop_partner, self.prop_u = _join(props, t_max)

    @staticmethod
    def _times(rng, start, rate):
        """The sorted times of a Poisson process of the given rate on one window.

        A mean too large for numpy to draw a count (above about 9.2e18
        events) raises ``MemoryError``, as a count it could draw but not
        hold does.
        """
        try:
            count = rng.poisson(rate * WINDOW)
        except ValueError as exc:
            raise MemoryError(f"cannot draw {rate * WINDOW:.3g} events in one window: "
                              f"{exc}") from exc
        return start + WINDOW * np.sort(rng.random(count))

    #: The columns that hold agent ids.
    _AGENT_IDS = ("jump_agent", "tick_agent", "prop_agent", "prop_partner")

    @classmethod
    def stack(cls, draws, n: int) -> "BlockDraws":
        """The draws of replicas of n agents each as those of one run of
        len(draws) * n agents: each column joined replica by replica, with
        replica r's agent and partner ids offset by r * n.  The times are
        then in time order within each replica only."""
        out = cls.__new__(cls)
        for name in vars(draws[0]):
            cols = [getattr(d, name) for d in draws]
            if name in cls._AGENT_IDS:
                cols = [c + r * n for r, c in enumerate(cols)]
            setattr(out, name, np.concatenate(cols))
        return out


def concat(parts):
    """The arrays joined end to end; a lone array is returned as it is."""
    return np.concatenate(parts) if len(parts) > 1 else parts[0]


def _join(windows, t_max):
    """The windows of one kind in one set of arrays, cut before t_max."""
    cols = [concat(c) for c in zip(*windows)]
    if cols[0].size and cols[0][-1] >= t_max:
        end = int(cols[0].searchsorted(t_max))
        cols = [c[:end] for c in cols]
    return cols


class Path:
    """Every agent's piecewise-linear flight and recovery clock on
    [t0, t_max), built from the velocity jumps and recovery ticks of
    ``draws``.

    Segments are sorted by (agent, time): agent a's run from ``head[a]``.
    A segment stores its ``start`` time, ``t_next`` (the start of the same
    agent's next segment, or +inf after its last), its start position
    ``x``, its heading ``theta`` and its unit velocity ``v`` = (cos theta,
    sin theta), computed once, so a position is v (t - start) + x, wrapped,
    with no trigonometry per query.  Agent a's segments start with its
    initial position and heading; each later start position is the previous
    one advanced with the ``wrap`` arithmetic.  Ticks are laid out
    the same way from ``tick_head[a]``, in time order, with one +inf after
    each agent's ticks.  A lookup counts forward from the agent's head, one
    pass per later segment or tick, so its cost grows with the jump count of
    the busiest agent queried, not with log of the total.  Lookups take
    arrays of agents and times, or scalars.  ``state_at``, which asks for
    every agent at one time, takes instead the one segment of each agent
    with start <= s < t_next in a single mask over all segments.
    """

    def __init__(self, x, theta, t0: float, side: float, draws: BlockDraws):
        n = theta.shape[0]
        self.n, self.t0, self.side = n, t0, side
        count, self.head, by_agent, slot = _layout(draws.jump_agent, n)
        # slot head[a] holds agent a's initial segment, its k-th jump head[a] + k + 1
        seg = slot + 1
        size = seg.size + n
        self.start = np.full(size, float(t0))
        self.start[seg] = draws.jump_t[by_agent]
        self.t_next = np.empty(size)
        self.t_next[:-1] = self.start[1:]
        self.t_next[self.head + count - 1] = np.inf
        self.theta = np.empty(size)
        self.theta[seg] = draws.jump_theta[by_agent]
        self.theta[self.head] = theta
        self.v = np.empty((size, 2))
        np.cos(self.theta, out=self.v[:, 0])
        np.sin(self.theta, out=self.v[:, 1])
        self.x = np.empty((size, 2))
        self.x[self.head] = x
        for k in range(1, int(count.max())):
            cur = self.head[count > k] + k
            self.x[cur] = self._advance(cur - 1, self.start[cur])
        # agent a's ticks fill slots tick_head[a] on, and its spare slot,
        # the last, stays +inf
        _, self.tick_head, by_agent, slot = _layout(draws.tick_agent, n)
        self.tick_t = np.full(slot.size + n, np.inf)
        self.tick_t[slot] = draws.tick_t[by_agent]

    def _advance(self, s, t):
        """Positions at times t on segments s."""
        dx = self.v.take(s, axis=0)
        dx *= (t - self.start.take(s))[..., None]
        dx += self.x.take(s, axis=0)
        return wrap(dx, self.side)

    def segment(self, agents, t):
        """Each agent's segment at time t: the last one starting by t."""
        return _count_forward(self.t_next, self.head[agents], t)

    def positions(self, agents, t):
        """Positions of the agents at times t, shape (..., 2)."""
        return self._advance(self.segment(agents, t), t)

    def state_at(self, s: float):
        """Positions and headings of all agents at time s; ValueError before
        t0, where no agent has a segment yet, and at a time not finite."""
        if not self.t0 <= s < math.inf:
            raise ValueError(f"time {s} not in the path's [{self.t0}, inf)")
        seg = np.flatnonzero((self.start <= s) & (self.t_next > s))
        return self._advance(seg, s), self.theta[seg]

    def jumps_before(self, s: float) -> int:
        # every segment but the n initial ones starts at a jump, and those
        # start at t0
        return int(np.count_nonzero(self.start < s)) - (self.n if s > self.t0 else 0)

    def near(self, agent, partner, t, radius: float):
        """Per proposal: the partner is another agent, in range at time t."""
        out = agent != partner
        for s in range(0, t.size, NEAR_CHUNK):
            k = slice(s, s + NEAR_CHUNK)
            xi, xj = self.positions(np.stack([agent[k], partner[k]]), t[k])
            out[k] &= in_range(xi, xj, radius, self.side)
        return out

    def recovery_after(self, agents, t):
        """Each agent's first recovery tick after time t, or inf."""
        return self.tick_t[_count_forward(self.tick_t, self.tick_head[agents], t)]


def _layout(agent, n: int):
    """Events of n agents laid out by (agent, time) with one spare slot per
    agent: each agent's slot count (its events + 1) and first slot, the
    order that sorts the events by agent, and each sorted event's slot, the
    k-th event of agent a at first[a] + k.  Events of one agent must come in
    time order."""
    # the keys agent * size + index are distinct and sort as (agent, index),
    # so their sorted quotients and remainders are the agents and the order
    # of a stable sort by agent; sorting values is faster than an argsort
    size = agent.size
    keys = np.sort(agent.astype(np.int64, copy=False) * size + np.arange(size))
    sorted_agent, by_agent = np.divmod(keys, size)
    count = np.bincount(agent, minlength=n) + 1
    return count, np.cumsum(count) - count, by_agent, np.arange(size) + sorted_agent


def _count_forward(ahead, i, t):
    """From slots i, step each to the next slot while ``ahead`` of it is by
    t.  Every agent's last ``ahead`` is +inf, so no query steps past its own
    agent's slots."""
    while True:
        step = ahead[i] <= t
        if not step.any():
            return i
        i = i + step


def label_free_pass(x, theta, t0: float, t_max: float, params: ModelParams,
                    rngs, pair: bool = False):
    """Draw the label-free variates of one or more replicas and build their
    paths.

    ``rngs`` holds one generator per replica; ``x`` and ``theta`` hold the
    replicas' agents, n each, replica by replica.  Replica r draws its own
    ``BlockDraws`` from ``rngs[r]``, so it is the run of that generator
    alone, and its agents and partners are numbered from r * n on
    (``BlockDraws.stack``).  Returns the one ``Path`` of all agents and the
    proposals (time, agent, partner, u), in time order within each replica.
    A single replica's arrays are used as drawn.  The jump arrays are
    dropped once the paths hold them.  Raises TypeError without a generator
    and ValueError unless the agents split evenly into the replicas.
    """
    if not rngs:
        raise TypeError("a run needs at least one seed")
    n, rest = divmod(theta.shape[0], len(rngs))
    if rest:
        raise ValueError(f"{theta.shape[0]} agents do not split into {len(rngs)} replicas")
    draws = [BlockDraws(rng, n, params, t0, t_max, pair) for rng in rngs]
    draws = BlockDraws.stack(draws, n) if len(draws) > 1 else draws[0]
    return (Path(x, theta, t0, params.side, draws),
            (draws.prop_t, draws.prop_agent, draws.prop_partner, draws.prop_u))


class LabelTimes:
    """One label system as two times per agent: infection and recovery.

    An initially S agent has both at +inf until ``infect``; an initially I
    agent was infected at -inf and recovers at its first tick; an initially
    R agent has both at -inf.  An agent infected at t recovers at its first
    recovery tick after t, so every label system on one ``Path`` shares its
    recovery clocks.  The label at time s is that after every event before s.
    """

    def __init__(self, labels, path: Path):
        self.path = path
        susceptible = labels == Label.S.value
        self.inf = np.where(susceptible, np.inf, -np.inf)
        self.rec = np.where(labels == Label.R.value, -np.inf, np.inf)
        ill = np.flatnonzero(labels == Label.I.value)
        self.rec[ill] = path.recovery_after(ill, path.t0)
        self.ill0 = self.inf.size - int(np.count_nonzero(susceptible))
        self.gone0 = self.ill0 - ill.size

    def infect(self, agents, t) -> None:
        self.inf[agents] = t
        self.rec[agents] = self.path.recovery_after(agents, t)

    def at(self, s: float) -> np.ndarray:
        # S, I, R = 0, 1, 2 is the number of the two events before s
        return (self.inf < s).view(np.int8) + (self.rec < s).view(np.int8)

    def infected_before(self, s: float) -> int:
        return int(np.count_nonzero(self.inf < s)) - self.ill0

    def recovered_before(self, s: float) -> int:
        return int(np.count_nonzero(self.rec < s)) - self.gone0
