"""Exact event-driven simulation of the interacting N-agent process.

Agents fly in straight lines at unit speed between events.  Three constant
clocks drive the jumps: velocity randomization at rate 1 per agent,
recovery at rate ``recovery_rate`` per agent, and infection proposals.
Conditions (label pair, interaction range) are checked at the jump, so the
constant-rate scheme with no-op thinning samples the process law exactly.

Two equivalent interaction formulations are provided: ``"pair"`` draws an
unordered pair at overall rate lam*(n-1)/2 and infects the susceptible
member of an in-range (S, I) pair; ``"per_agent"`` proposes at rate lam per
agent against a uniformly drawn partner and infects the proposing agent
only.  Both induce the same generator; runs default to per-agent, which is
also the form the coupled simulator builds on.
"""

from dataclasses import dataclass, field

import numpy as np

from .core import EventClock, Label, ModelParams, SeedSpec, wrap
from .initial import InitialCondition


class ConfigError(ValueError):
    """Raised for invalid run configuration (sample grids, schemes, ...)."""


@dataclass
class Counters:
    velocity_jumps: int = 0
    recoveries: int = 0
    infection_proposals: int = 0
    infections: int = 0

    def copy(self) -> "Counters":
        return Counters(self.velocity_jumps, self.recoveries,
                        self.infection_proposals, self.infections)


@dataclass
class EnsembleState:
    """Positions, headings and labels of all agents at a common time."""

    x: np.ndarray
    theta: np.ndarray
    labels: np.ndarray
    t: float = 0.0
    counters: Counters = field(default_factory=Counters)

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.theta = np.asarray(self.theta, dtype=float)
        self.labels = np.asarray(self.labels, dtype=np.int8)

    @property
    def n(self) -> int:
        return self.labels.shape[0]

    def counts(self):
        """(#S, #I, #R), always summing to n."""
        c = np.bincount(self.labels, minlength=3)
        return int(c[0]), int(c[1]), int(c[2])

    def copy(self) -> "EnsembleState":
        return EnsembleState(self.x.copy(), self.theta.copy(), self.labels.copy(),
                             self.t, self.counters.copy())


def total_event_rate(params: ModelParams, interaction: str = "pair") -> float:
    """Total constant jump rate of the event-driven scheme.

    Pair form: n + n*recovery_rate + infection_rate*(n-1)/2.
    Per-agent form: n * (1 + recovery_rate + infection_rate).
    """
    n = params.n
    base = n * 1.0 + n * params.recovery_rate
    if interaction == "pair":
        return base + params.infection_rate * (n - 1) / 2.0
    if interaction == "per_agent":
        return base + params.infection_rate * n
    raise ConfigError(f"unknown interaction scheme {interaction!r}")


def sample_initial(ic: InitialCondition, n: int, rng: np.random.Generator) -> EnsembleState:
    """n i.i.d. agents drawn from the initial one-particle density."""
    x, theta, labels = ic.sample(n, rng)
    return EnsembleState(wrap(x, ic.side), theta, labels)


@dataclass
class Trajectory:
    """Observations of one run: times, (S, I, R) counts, observer extras."""

    times: np.ndarray
    counts: np.ndarray
    extras: list
    final: EnsembleState

    def fractions(self) -> np.ndarray:
        return self.counts / self.counts.sum(axis=1, keepdims=True)


def check_sample_times(sample_times, t_max: float) -> np.ndarray:
    st = np.asarray(sample_times, dtype=float)
    if st.ndim != 1:
        raise ConfigError("sample times must be a 1-d sequence")
    if np.any(st < 0) or np.any(st > t_max):
        raise ConfigError(f"sample times must lie in [0, {t_max}]")
    if np.any(np.diff(st) < 0):
        raise ConfigError("sample times must be sorted")
    return st


def run(initial: EnsembleState, params: ModelParams, t_max: float, sample_times,
        seed: SeedSpec | np.random.Generator, interaction: str = "per_agent",
        observer=None) -> Trajectory:
    """Event-driven run to time t_max with observations at the sample times.

    Motion, velocity jumps and observations are the shared ``EventClock``;
    this loop resolves recoveries and infection proposals.  Identical
    initial state, parameters and seed give a bit-identical trajectory.
    """
    if t_max < 0:
        raise ConfigError("t_max must be nonnegative")
    st = check_sample_times(sample_times, t_max)
    rng = seed.rng() if isinstance(seed, SeedSpec) else seed
    state = initial.copy()
    n = state.n
    side = params.side
    r2 = params.radius * params.radius
    rate = total_event_rate(params, interaction)
    per_agent = interaction == "per_agent"
    clock = EventClock(state, side, rate, t_max, rng)
    x0, x1, cs, sn, mark = clock.x0, clock.x1, clock.cs, clock.sn, clock.mark
    labels = state.labels
    cnt = state.counters
    n_s, n_i, n_r = state.counts()
    thr_rec = n * 1.0 + n * params.recovery_rate

    times, rows, extras = [], [], []

    def record(t_s):
        times.append(t_s)
        rows.append((n_s, n_i, n_r))
        if observer is not None:
            extras.append(observer(state))

    for t, u, i, j, acc in clock.events(st, record):
        if u < thr_rec:
            if labels[i] == Label.I:
                labels[i] = Label.R
                cnt.recoveries += 1
                n_i -= 1
                n_r += 1
        else:
            cnt.infection_proposals += 1
            if per_agent:
                tgt, src = i, j
            else:
                j = int(acc * (n - 1))
                if j >= i:
                    j += 1
                # symmetric rule: orient the pair so tgt is the S member
                if labels[i] == Label.I and labels[j] == Label.S:
                    tgt, src = j, i
                else:
                    tgt, src = i, j
            if tgt != src and labels[tgt] == Label.S and labels[src] == Label.I:
                dxa = abs((x0[tgt] + cs[tgt] * (t - mark[tgt]))
                          - (x0[src] + cs[src] * (t - mark[src]))) % side
                dya = abs((x1[tgt] + sn[tgt] * (t - mark[tgt]))
                          - (x1[src] + sn[src] * (t - mark[src]))) % side
                dxa = min(dxa, side - dxa)
                dya = min(dya, side - dya)
                if dxa * dxa + dya * dya < r2:
                    labels[tgt] = Label.I
                    cnt.infections += 1
                    n_s -= 1
                    n_i += 1

    return Trajectory(np.asarray(times), np.asarray(rows, dtype=np.int64).reshape(-1, 3),
                      extras, state)
