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

from dataclasses import dataclass, field

import numpy as np

from .core import (Label, LabelTimes, ModelParams, SeedSpec, concat, label_free_pass,
                   wrap)
from .initial import InitialCondition
from .kinetic import FieldTrajectory
from .particle import Trajectory, check_sample_times, replica_counts, replica_passes


class OracleSpanError(ValueError):
    """A field lookup outside the time span covered by the snapshots."""


@dataclass
class FieldOracle:
    """Time-indexed intensity record with (bi)linear interpolation.

    ``times`` strictly increasing, ``grids`` of shape (len(times), m, m)
    holding the intensity on cell centers.  Lookups are bilinear in space,
    linear in time between bracketing records, and clamped to [0, 1].
    ``probe_cap`` bounds every lookup: the largest record, with room for the
    rounding of the interpolation weights.
    """

    times: np.ndarray
    grids: np.ndarray
    side: float
    probe_cap: float = field(init=False)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.grids = np.asarray(self.grids, dtype=float)
        if self.times.ndim != 1 or self.grids.ndim != 3 or \
                self.grids.shape[0] != self.times.shape[0]:
            raise ValueError("need one (m, m) grid per record time")
        if self.times.size == 0:
            raise ValueError("oracle needs at least one record")
        # the order checks below are false on NaN, so NaN is refused here
        if not np.isfinite(self.times).all():
            raise ValueError("record times must be finite")
        if not np.isfinite(self.grids).all():
            raise ValueError("intensity records must be finite")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("record times must be strictly increasing")
        if self.grids.min() < -1e-9 or self.grids.max() > 1.0 + 1e-9:
            raise ValueError("intensity records must lie in [0, 1]")
        np.clip(self.grids, 0.0, 1.0, out=self.grids)
        self.probe_cap = float(self.grids.max()) * (1.0 + 1e-9)

    @classmethod
    def from_trajectory(cls, traj: FieldTrajectory) -> "FieldOracle":
        return cls(traj.nf_times, traj.nf_values, traj.grid.side)

    @property
    def span(self):
        return float(self.times[0]), float(self.times[-1])

    def check_span(self, t_lo: float, t_hi: float) -> None:
        """Raise OracleSpanError unless [t_lo, t_hi] lies in the recorded
        span, up to rounding slack of 1e-9."""
        lo, hi = self.span
        # written so that NaN fails the test too
        if not (t_lo >= lo - 1e-9 and t_hi <= hi + 1e-9):
            raise OracleSpanError(
                f"times [{t_lo}, {t_hi}] outside the oracle span [{lo}, {hi}]")

    def nf_at(self, x, t):
        """Intensity at position(s) x and time(s) t, in [0, 1]: the oracle's
        one interpolation rule.

        ``x`` has shape (..., 2); ``t`` is a scalar or matching batch.
        Bilinear in space on the periodic lattice of cell centres, linear in
        time between the bracketing records (the first record alone on a
        one-record oracle), then clamped to [0, 1].  Each point's value
        depends on that point alone, so a batch reads the bits of one lookup
        per point.  Raises OracleSpanError for a time outside the recorded
        span (NaN included) and ValueError for a position that is not
        finite.
        """
        x = np.asarray(x, dtype=float)
        t = np.broadcast_to(np.asarray(t, dtype=float), x.shape[:-1])
        if t.size:
            self.check_span(t.min(), t.max())
        if not np.isfinite(x).all():
            raise ValueError("positions must be finite")
        times, grids = self.times, self.grids
        n_t, m = grids.shape[:2]
        g = x.reshape(-1, 2) / (self.side / m) - 0.5
        f = np.floor(g)
        wx, wy = (g - f).T
        ux, uy = 1 - wx, 1 - wy
        # floor-mod of the float floor is exact, whatever its size
        i0 = np.mod(f, m).astype(np.intp)
        (ix0, iy0), (ix1, iy1) = i0.T, ((i0 + 1) % m).T
        ts = t.ravel()
        k0 = np.maximum(np.minimum(np.searchsorted(times, ts, "right") - 1, n_t - 2), 0)
        # the records at k0 and k0 + 1 (k0 again on a one-record oracle)
        k = np.minimum(k0 + [[0], [1]], n_t - 1)
        w = (np.zeros(ts.shape) if n_t == 1 else np.minimum(np.maximum(
            (ts - times[k[0]]) / (times[k[1]] - times[k[0]]), 0.0), 1.0))
        v = (ux * uy * grids[k, ix0, iy0] + wx * uy * grids[k, ix1, iy0]
             + ux * wy * grids[k, ix0, iy1] + wx * wy * grids[k, ix1, iy1])
        v = np.where(w > 0.0, (1.0 - w) * v[0] + w * v[1], v[0])
        return np.minimum(np.maximum(v, 0.0), 1.0).reshape(t.shape)

    def scalar_probe(self):
        """probe(x, y, t) -> float, one ``nf_at`` lookup.  Nothing in the
        package calls it: it stays because the benchmark's tracer
        (``epibench/tracer.py``) patches it by name."""
        return lambda x, y, t: float(self.nf_at((x, y), t))


def constant_oracle(side: float, value: float, t_max: float, m: int = 4) -> FieldOracle:
    """Spatially and temporally constant intensity, handy for law tests."""
    grids = np.full((2, m, m), float(value))
    return FieldOracle(np.array([0.0, t_max]), grids, side)


#: Agents simulated in one pass of ``ensemble_counts``, which bounds its
#: memory; a replica larger than this runs alone.  Its passes hold no
#: per-proposal loop, so they are larger than a paired run's.
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

    Each pass of ``replica_passes`` (up to ``CHUNK_AGENTS`` agents) is one
    ``run_ensemble`` call, and its replicas' labels count in one
    ``bincount`` per sample time, so the counts are those of one
    ``run_ensemble`` per seed, byte for byte, whatever the pass size.
    """
    st = check_sample_times(sample_times, t_max)
    counts = np.empty((len(seeds), st.size, 3), dtype=np.int64)
    for rows, chunk in replica_passes(n, seeds, CHUNK_AGENTS):
        # counted per replica here, so the pass samples no times
        lab = run_ensemble(n, ic, oracle, params, t_max, (), *chunk).labels
        counts[rows] = replica_counts(lab, st, len(chunk))
    return counts
