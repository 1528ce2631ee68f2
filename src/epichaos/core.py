"""Geometry, health labels, model parameters, and the seeded-stream contract.

Shared foundation for every simulator in the package: the flat periodic
square, unit-speed agents whose velocity is stored as an angle, the
three-state health label with absorbing R, and a (master seed, stream key)
scheme that hands out reproducible, statistically independent generators.
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


LABEL_NAMES = ("S", "I", "R")


def wrap(x, side):
    """Canonicalize coordinates into [0, side).

    Plain modulo can round a tiny negative input up to exactly ``side``;
    that value is folded back to 0 so downstream cell indexing stays valid.
    Idempotent bit-for-bit on already-canonical input.
    """
    r = np.mod(x, side)
    return np.where(r >= side, 0.0, r) if isinstance(r, np.ndarray) else (0.0 if r >= side else r)


@dataclass(frozen=True)
class TorusGeometry:
    """Flat 2-torus [0, side) x [0, side)."""

    side: float

    def __post_init__(self):
        if self.side <= 0:
            raise ValueError(f"torus side must be positive, got {self.side}")

    def wrap(self, x):
        return wrap(x, self.side)


def torus_distance(x1, x2, geom: TorusGeometry) -> float:
    """Shortest Euclidean distance between periodic images.

    Accepts single positions (shape ``(2,)``) or batches (``(..., 2)``);
    the result is bounded by side/sqrt(2).
    """
    d = np.abs(np.asarray(x1, dtype=float) - np.asarray(x2, dtype=float))
    d = np.minimum(d, geom.side - d)
    return np.sqrt((d * d).sum(axis=-1))


def in_range(x1, x2, r0: float, geom: TorusGeometry):
    """True iff the wrapped distance is strictly below r0."""
    d = np.abs(np.asarray(x1, dtype=float) - np.asarray(x2, dtype=float))
    d = np.minimum(d, geom.side - d)
    return (d * d).sum(axis=-1) < r0 * r0


def unit_vector(theta):
    """Heading angle -> unit velocity vector, stacked on the last axis."""
    t = np.asarray(theta, dtype=float)
    return np.stack([np.cos(t), np.sin(t)], axis=-1)


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
        if self.side <= 0:
            problems.append(f"side must be > 0, got {self.side}")
        if self.radius <= 0:
            problems.append(f"radius must be > 0, got {self.radius}")
        if self.infection_rate < 0:
            problems.append(f"infection_rate must be >= 0, got {self.infection_rate}")
        if self.recovery_rate < 0:
            problems.append(f"recovery_rate must be >= 0, got {self.recovery_rate}")
        if problems:
            raise ValueError("; ".join(problems))

    @property
    def geometry(self) -> TorusGeometry:
        return TorusGeometry(self.side)

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


class BlockDraws:
    """Pre-drawn random variates for an event loop, one block at a time.

    Each event consumes one slot from every array: a standard exponential
    (holding time), a uniform (event category), two integers in [0, n)
    (agent and partner), and two more uniforms (acceptance and new heading).
    Drawing in blocks keeps the per-event cost small.  The variates are a
    pure function of (generator, n, block): each refill draws a whole block
    of exponentials before the uniforms, so the same generator read with a
    different block size hands different values to the same event.
    ``event_draws`` sizes the block from ``rate * t_max``, so one seed run
    to a different horizon gives a different path, even on the shared
    interval.
    """

    SLICE = 2048

    def __init__(self, rng: np.random.Generator, n: int, block: int = 4096):
        self.rng = rng
        self.n = int(n)
        self.block = max(64, int(block))
        self._refill()

    def _refill(self):
        b = self.block
        self.expo = self.rng.standard_exponential(b)
        self.cat = self.rng.random(b)
        self.agent = self.rng.integers(0, self.n, size=b)
        self.partner = self.rng.integers(0, self.n, size=b)
        self.accept = self.rng.random(b)
        self.angle = self.rng.random(b) * TWO_PI

    def __iter__(self):
        """Yield ``(expo, cat, agent, partner, accept, angle)`` slot by slot
        as Python scalars, refilling after the last slot of each block.
        The arrays are converted ``SLICE`` slots at a time: a scalar costs
        less per event than a numpy element, and a slice costs less memory
        than a whole block of Python objects."""
        while True:
            for s in range(0, self.block, self.SLICE):
                k = slice(s, s + self.SLICE)
                yield from zip(self.expo[k].tolist(), self.cat[k].tolist(),
                               self.agent[k].tolist(), self.partner[k].tolist(),
                               self.accept[k].tolist(), self.angle[k].tolist())
            self._refill()


def event_draws(rng: np.random.Generator, n: int, rate: float, duration: float) -> BlockDraws:
    """The draws of one event-loop run: a block holding the expected number
    of events, ``rate * duration``, plus six standard deviations and 64."""
    expected = rate * max(duration, 0.0)
    return BlockDraws(rng, n, block=int(expected + 6.0 * math.sqrt(expected + 1.0)) + 64)


class EventClock:
    """The event clock and the lazy free flight shared by the exact
    simulators.

    Events come at the constant total ``rate``, each with one slot of
    ``event_draws``.  The first ``n * VELOCITY_JUMP_RATE`` of ``rate`` on
    the scaled category uniform are velocity jumps, which the clock applies
    itself.  Flight is lazy: ``x0``, ``x1`` hold each agent's position at
    its own ``mark`` time and ``cs``, ``sn`` its heading, so an event costs
    O(1).  ``flush`` brings every agent forward and writes the positions
    and the time into the state, which is any state with ``x``, ``theta``,
    ``t`` and ``counters``.  Observations consume no variates, so the
    sample times never change the path.
    """

    def __init__(self, state, side: float, rate: float, t_max: float,
                 rng: np.random.Generator):
        self.state, self.side, self.rate, self.t_max = state, side, rate, t_max
        self.x0, self.x1 = state.x[:, 0].copy(), state.x[:, 1].copy()
        self.cs, self.sn = np.cos(state.theta), np.sin(state.theta)
        self.mark = np.full(state.theta.shape[0], state.t)
        self.draws = event_draws(rng, state.theta.shape[0], rate, t_max - state.t)

    def flush(self, t: float) -> None:
        dt = t - self.mark
        self.x0[:] = wrap(self.x0 + self.cs * dt, self.side)
        self.x1[:] = wrap(self.x1 + self.sn * dt, self.side)
        self.mark[:] = t
        self.state.x[:, 0] = self.x0
        self.state.x[:, 1] = self.x1
        self.state.t = t

    def events(self, sample_times, record):
        """Run to ``t_max``, yielding every event that is not a velocity
        jump as ``(t, u, i, j, acc)``: its time, the category uniform
        scaled by ``rate``, the agent, the partner and the acceptance
        uniform.  Before the first event past each sample time the clock
        flushes to that time and calls ``record(t)``; at the end it flushes
        to ``t_max``."""
        x0, x1, cs, sn, mark = self.x0, self.x1, self.cs, self.sn, self.mark
        theta, cnt, side = self.state.theta, self.state.counters, self.side
        rate, t_max = self.rate, self.t_max
        thr_vel = mark.shape[0] * VELOCITY_JUMP_RATE
        k = 0
        t = self.state.t
        for e, cat, i, j, acc, ang in self.draws:
            t_next = t + e / rate
            while k < len(sample_times) and sample_times[k] <= min(t_next, t_max):
                self.flush(sample_times[k])
                record(sample_times[k])
                k += 1
            if t_next >= t_max:
                break
            t = t_next
            u = cat * rate
            if u < thr_vel:
                # the scalar form of ``wrap``
                dt = t - mark[i]
                v = (x0[i] + cs[i] * dt) % side
                x0[i] = 0.0 if v >= side else v
                v = (x1[i] + sn[i] * dt) % side
                x1[i] = 0.0 if v >= side else v
                mark[i] = t
                theta[i] = ang
                cs[i] = math.cos(ang)
                sn[i] = math.sin(ang)
                cnt.velocity_jumps += 1
            else:
                yield t, u, i, j, acc
        self.flush(t_max)
