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

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .core import LabelTimes, ModelParams, Path, SeedSpec, label_free_pass, wrap
from .initial import InitialCondition


class ConfigError(ValueError):
    """Raised for invalid run configuration (sample grids, schemes, ...)."""


@dataclass
class Counters:
    velocity_jumps: int = 0
    recoveries: int = 0
    infection_proposals: int = 0
    infections: int = 0


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


def sample_initial(ic: InitialCondition, n: int, rng: np.random.Generator) -> EnsembleState:
    """n i.i.d. agents drawn from the initial one-particle density."""
    x, theta, labels = ic.sample(n, rng)
    return EnsembleState(wrap(x, ic.side), theta, labels)


def check_sample_times(sample_times, t_max: float) -> np.ndarray:
    """The sample times as an array; ConfigError unless t_max is finite and
    >= 0 and they are a sorted 1-d sequence of finite times in [0, t_max]."""
    if not 0 <= t_max < math.inf:
        raise ConfigError(f"t_max must be finite and nonnegative, got {t_max}")
    st = np.asarray(sample_times, dtype=float)
    if st.ndim != 1:
        raise ConfigError("sample times must be a 1-d sequence")
    if not np.all(np.isfinite(st)):
        raise ConfigError("sample times must be finite")
    if np.any(np.diff(st) < 0):
        raise ConfigError("sample times must be sorted")
    if st.size and (st[0] < 0 or st[-1] > t_max):
        raise ConfigError(f"sample times must lie in [0, {t_max}]")
    return st


def label_counts(labels: LabelTimes, times) -> np.ndarray:
    """The (S, I, R) counts of one label system at each of the times."""
    rows = [np.bincount(labels.at(s), minlength=3) for s in times]
    return np.asarray(rows, dtype=np.int64).reshape(-1, 3)


@dataclass
class Trajectory:
    """The solution of one run on [t0, t_max]: its ``Path``, its labels as
    ``LabelTimes`` and its proposal times (in time order within each
    replica), with the (S, I, R) counts at the sample ``times``.  Any other
    state is a ``state_at`` query."""

    times: np.ndarray
    path: Path
    labels: LabelTimes
    prop_t: np.ndarray
    t_max: float
    counts: np.ndarray = field(init=False)

    def __post_init__(self):
        self.counts = label_counts(self.labels, self.times)

    def state_at(self, s: float) -> EnsembleState:
        """Positions, headings, labels and event counts at time s; ValueError
        unless s lies in the run's span [t0, t_max]: its path has no events
        after t_max."""
        path, lab = self.path, self.labels
        if not path.t0 <= s <= self.t_max:
            raise ValueError(f"time {s} outside the run's span [{path.t0}, {self.t_max}]")
        proposals = int(np.count_nonzero(self.prop_t < s))
        return EnsembleState(*path.state_at(s), lab.at(s), s,
                             Counters(path.jumps_before(s), lab.recovered_before(s),
                                      proposals, lab.infected_before(s)))

    @cached_property
    def final(self) -> EnsembleState:
        return self.state_at(self.t_max)


def resolve_infections(labels: LabelTimes, times, agents, partners,
                       pair: bool = False) -> None:
    """Resolve in-range proposals, given in time order, on one label system:
    a susceptible agent is infected by an infected partner."""
    inf, rec = labels.inf, labels.rec
    for t, i, j in zip(times.tolist(), agents.tolist(), partners.tolist()):
        # the pair form orients the pair so i is the S member
        if pair and inf[i] < t <= rec[i] and inf[j] >= t:
            i, j = j, i
        if inf[i] >= t and inf[j] < t <= rec[j]:
            labels.infect(i, t)


def run(initial: EnsembleState, params: ModelParams, t_max: float, sample_times,
        seed: SeedSpec, interaction: str = "per_agent") -> Trajectory:
    """Event-driven run to time t_max with counts at the sample times.

    Flight, recovery clocks and proposals are the label-free pass; one loop
    resolves, in time order, only the proposals whose partner is another
    agent in range.  Identical initial state, parameters and seed give a
    bit-identical trajectory, and the path on [0, s] is the same for every
    t_max >= s.
    """
    if interaction not in ("pair", "per_agent"):
        raise ConfigError(f"unknown interaction scheme {interaction!r}")
    st = check_sample_times(sample_times, t_max)
    pair = interaction == "pair"
    path, (pt, pa, pp, _) = label_free_pass(initial.x, initial.theta, initial.t, t_max,
                                            params, [seed.rng()], pair)
    lab = LabelTimes(initial.labels, path)
    near = path.near(pa, pp, pt, params.radius)
    resolve_infections(lab, pt[near], pa[near], pp[near], pair)
    return Trajectory(st.copy(), path, lab, pt, t_max)
