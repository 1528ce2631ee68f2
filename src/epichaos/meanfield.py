"""The one-particle process driven by the solved field, and independent
copies of it.

Each agent performs the same random flight and recovery as in the
interacting model, but infection proposals are accepted against the
interaction intensity of the grid solver's field instead of against other
agents.  Proposals fire at the constant majorant rate (the intensity never
exceeds 1), so acceptance with probability nf is exact thinning.  Agents
never read each other's state; an ensemble is just n independent copies
sharing one clock.
"""

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .core import (Label, LabelTimes, ModelParams, SeedSpec, concat, label_free_pass,
                   wrap)
from .initial import InitialCondition
from .kinetic import FieldTrajectory
from .particle import Trajectory, check_sample_times


class OracleSpanError(ValueError):
    """A field lookup outside the time span covered by the snapshots."""


@dataclass
class FieldOracle:
    """Time-indexed intensity record with (bi)linear interpolation.

    ``times`` strictly increasing, ``grids`` of shape (len(times), m, m)
    holding the intensity on cell centers.  Lookups are bilinear in space,
    linear in time between bracketing records, and clamped to [0, 1].
    """

    times: np.ndarray
    grids: np.ndarray
    side: float

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.grids = np.asarray(self.grids, dtype=float)
        if self.times.ndim != 1 or self.grids.ndim != 3 or \
                self.grids.shape[0] != self.times.shape[0]:
            raise ValueError("need one (m, m) grid per record time")
        if self.times.size == 0:
            raise ValueError("oracle needs at least one record")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("record times must be strictly increasing")
        if self.grids.min() < -1e-9 or self.grids.max() > 1.0 + 1e-9:
            raise ValueError("intensity records must lie in [0, 1]")
        np.clip(self.grids, 0.0, 1.0, out=self.grids)

    @classmethod
    def from_trajectory(cls, traj: FieldTrajectory) -> "FieldOracle":
        return cls(traj.nf_times, traj.nf_values, traj.grid.side)

    @property
    def span(self):
        return float(self.times[0]), float(self.times[-1])

    @property
    def probe_cap(self) -> float:
        """A bound on every ``scalar_probe`` value: the largest record,
        with room for the rounding of the interpolation weights."""
        return float(self.grids.max()) * (1.0 + 1e-9)

    def check_span(self, t_lo: float, t_hi: float) -> None:
        """Raise OracleSpanError unless [t_lo, t_hi] lies in the recorded
        span, up to rounding slack of 1e-9."""
        lo, hi = self.span
        if t_lo < lo - 1e-9 or t_hi > hi + 1e-9:
            raise OracleSpanError(
                f"times [{t_lo}, {t_hi}] outside the oracle span [{lo}, {hi}]")

    def nf_at(self, x, t):
        """Intensity at position(s) x and time(s) t, in [0, 1].

        ``x`` has shape (..., 2); ``t`` is a scalar or matching batch.
        Raises OracleSpanError outside the recorded span.  Each point is
        one ``scalar_probe`` lookup.
        """
        x = np.asarray(x, dtype=float)
        t = np.broadcast_to(np.asarray(t, dtype=float), x.shape[:-1])
        if t.size:
            self.check_span(t.min(), t.max())
        probe = self.scalar_probe()
        return np.array([probe(px, py, s) for (px, py), s
                         in zip(x.reshape(-1, 2).tolist(), t.ravel().tolist())],
                        dtype=float).reshape(t.shape)

    def scalar_probe(self):
        """Closure for scalar lookups: probe(x, y, t) -> float.

        The one interpolation rule of the oracle; span checking is the
        caller's job (``check_span``).
        """
        times = self.times
        grids = self.grids
        m = grids.shape[1]
        h = self.side / m
        n_t = times.size
        t_list = times.tolist()

        def probe(px: float, py: float, t: float) -> float:
            if n_t == 1:
                k0, w = 0, 0.0
            else:
                k0 = bisect.bisect_right(t_list, t) - 1
                k0 = 0 if k0 < 0 else (n_t - 2 if k0 > n_t - 2 else k0)
                w = (t - t_list[k0]) / (t_list[k0 + 1] - t_list[k0])
                w = 0.0 if w < 0.0 else (1.0 if w > 1.0 else w)
            gx = px / h - 0.5
            gy = py / h - 0.5
            fx = math.floor(gx)
            fy = math.floor(gy)
            wx = gx - fx
            wy = gy - fy
            ix0 = fx % m
            iy0 = fy % m
            ix1 = ix0 + 1 - m if ix0 + 1 >= m else ix0 + 1
            iy1 = iy0 + 1 - m if iy0 + 1 >= m else iy0 + 1

            def at(k):
                g = grids[k]
                return ((1 - wx) * (1 - wy) * g[ix0, iy0] + wx * (1 - wy) * g[ix1, iy0]
                        + (1 - wx) * wy * g[ix0, iy1] + wx * wy * g[ix1, iy1])

            v = (1.0 - w) * at(k0) + w * at(k0 + 1) if w > 0.0 else at(k0)
            return 0.0 if v < 0.0 else (1.0 if v > 1.0 else float(v))

        return probe


def constant_oracle(side: float, value: float, t_max: float, m: int = 4) -> FieldOracle:
    """Spatially and temporally constant intensity, handy for law tests."""
    grids = np.full((2, m, m), float(value))
    return FieldOracle(np.array([0.0, t_max]), grids, side)


#: Agents simulated in one pass of ``ensemble_counts``, which bounds its
#: memory; a replica larger than this runs alone.
CHUNK_AGENTS = 1 << 16


def run_ensemble(n: int, ic: InitialCondition, oracle: FieldOracle, params: ModelParams,
                 t_max: float, sample_times, *seeds: SeedSpec) -> Trajectory:
    """n independent copies of the one-particle process per seed, in one
    pass.  The ``Trajectory`` holds the replicas' agents in the order of
    ``seeds``; replica r is sampled from ``seeds[r].child(0)`` and draws the
    per-agent form's label-free pass (partners unread) from
    ``seeds[r].child(1)``, so it is the run of its seed alone.

    A proposal to an initially susceptible agent is accepted when its u is
    below the field intensity at the agent's position, looked up in one
    batch for every u below ``oracle.probe_cap``; an agent's infection time
    is its first accepted proposal.
    """
    if not seeds:
        raise TypeError("run_ensemble needs at least one seed")
    st = check_sample_times(sample_times, t_max)
    oracle.check_span(0.0, t_max)
    x, theta, labels = map(concat, zip(*[ic.sample(n, s.child(0).rng()) for s in seeds]))
    path, (pt, pa, _, pu) = label_free_pass(wrap(x, params.side), theta, 0.0, t_max, params,
                                            [s.child(1).rng() for s in seeds])
    lab = LabelTimes(labels, path)
    k = np.flatnonzero((pu < oracle.probe_cap) & (labels[pa] == Label.S))
    k = k[pu[k] < oracle.nf_at(path.positions(pa[k], pt[k]), pt[k])]
    # proposals are in time order within a replica, so the first index of an
    # agent is its first
    agents, first = np.unique(pa[k], return_index=True)
    lab.infect(agents, pt[k[first]])
    return Trajectory(st.copy(), path, lab, pt, t_max)


def ensemble_counts(n: int, ic: InitialCondition, oracle: FieldOracle, params: ModelParams,
                    t_max: float, sample_times, seeds) -> np.ndarray:
    """The (S, I, R) counts at the sample times of ``run_ensemble`` with each
    of ``seeds``, shape (len(seeds), len(sample_times), 3).

    Each chunk of up to ``CHUNK_AGENTS // n`` seeds (at least one) is one
    ``run_ensemble`` call, and every replica's labels count in one
    ``bincount`` per sample time.  Replicas never interact, so the counts
    are those of one ``run_ensemble`` per seed, byte for byte, whatever the
    chunking.
    """
    st = check_sample_times(sample_times, t_max)
    counts = np.empty((len(seeds), st.size, 3), dtype=np.int64)
    per = max(1, CHUNK_AGENTS // n)
    for lo in range(0, len(seeds), per):
        chunk = seeds[lo:lo + per]
        # counted per replica below, so the pass samples no times
        lab = run_ensemble(n, ic, oracle, params, t_max, (), *chunk).labels
        # replica r's labels count in bins 3r, 3r + 1, 3r + 2
        offset = np.repeat(np.arange(0, 3 * len(chunk), 3), n)
        for j, s in enumerate(st):
            counts[lo:lo + len(chunk), j] = np.bincount(
                offset + lab.at(s), minlength=3 * len(chunk)).reshape(-1, 3)
    return counts
