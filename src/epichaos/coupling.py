"""Paired simulation of the interacting system and the field-driven system
on one probability space.

Every agent carries one position and heading but two labels: the a-label
evolves under the empirical pair interaction, the b-label under the solved
field's intensity.  Motion and recovery clocks are shared outright.  Each
infection proposal draws one partner and one uniform and resolves both
label systems from them through a marginal-preserving maximal coupling:
the a-attempt fires exactly when the partner is a-infected and in range,
and the b-attempt is arranged to fire with total probability equal to the
field intensity while overlapping the a-attempt as much as the marginals
allow.  Projecting on either label keeps the exact law of the respective
standalone process; the mismatch fraction between the two label vectors is
the quantity the bound and scaling experiments measure.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .core import LabelTimes, ModelParams, SeedSpec, in_range, label_free_pass
from .meanfield import FieldOracle
from .particle import (EnsembleState, Trajectory, check_sample_times, label_counts,
                       resolve_infections)


@dataclass
class CoupledEnsemble(EnsembleState):
    """An ``EnsembleState`` whose ``labels`` are the a system, with the b
    labels of the same agents."""

    b: np.ndarray = field(kw_only=True)

    @property
    def a(self) -> np.ndarray:
        return self.labels


def b_attempt(p: float, q: float, partner_b: bool, u: float) -> bool:
    """Maximal-coupling decision of the b-attempt of one proposal.

    p is the share of agents b-infected and in range, q the field
    intensity, ``partner_b`` the partner check (b-infected and in range,
    probability p) and u the proposal's uniform.  For q >= p the attempt
    fires on the partner check or else with the residual probability
    (q - p)/(1 - p); for q < p the partner check is thinned by q/p.  It
    fires with probability exactly q, on the partner check as often as
    the intensities allow.
    """
    if q < p:
        return partner_b and u < q / p
    return partner_b or (q > p and u < (q - p) / (1.0 - p))


def b_shortcut(partner_b: bool, u: float, q: float):
    """``b_attempt(p, q, partner_b, u)`` where it does not depend on p,
    else None.  On the partner check u < q fires, since q/p >= q; without
    it u >= q does not, since (q - p)/(1 - p) <= q, with a margin of 1e-12
    against the rounding of the residual."""
    if partner_b:
        return True if u < q else None
    return False if u >= q * (1.0 + 1e-12) else None


def mismatch_fraction(a, b) -> float:
    """Fraction of agents whose two labels, a and b, disagree."""
    return float(np.mean(a != b))


def mismatch_bound(t: float, infection_rate: float, n: int) -> float:
    """A priori bound (t * rate / n) * exp(2 * rate * t) on the expected
    mismatch fraction at time t for large n; inf where the exponential
    overflows a float."""
    try:
        growth = math.exp(2.0 * infection_rate * t)
    except OverflowError:
        growth = math.inf
    return t * infection_rate / n * growth


@dataclass
class Channels:
    """How the b-attempts of one run were settled.

    ``b_proposals`` reached a b-susceptible agent; ``probes`` of them read
    the field intensity q and ``scans`` counted the in-range share p.  A
    b fire comes on the partner check (``partner_fires``) or on the
    residual (q - p)/(1 - p) (``residual_fires``); ``thinned`` partner
    checks passed but were thinned away by q/p.
    """

    b_proposals: int = 0
    probes: int = 0
    scans: int = 0
    partner_fires: int = 0
    residual_fires: int = 0
    thinned: int = 0


@dataclass
class CoupledTrajectory(Trajectory):
    """The solution of one paired run: a ``Trajectory`` whose ``labels`` are
    the a system, with the b system, the b-attempt channel counts, and the
    mismatch fraction and b's (S, I, R) counts at the sample ``times``."""

    b: LabelTimes
    channels: Channels
    mismatch: np.ndarray = field(init=False)
    counts_b: np.ndarray = field(init=False)

    def __post_init__(self):
        super().__post_init__()
        self.counts_b = label_counts(self.b, self.times)
        self.mismatch = np.asarray([mismatch_fraction(self.labels.at(s), self.b.at(s))
                                    for s in self.times])

    @property
    def counts_a(self) -> np.ndarray:
        return self.counts

    def state_at(self, s: float) -> CoupledEnsemble:
        """The a system's state at time s with the b labels; a recovery tick
        at which both labels recovered counts once."""
        state, a, b = super().state_at(s), self.labels, self.b
        state.counters.recoveries += b.recovered_before(s) - int(np.count_nonzero(
            (a.rec == b.rec) & (a.rec >= self.path.t0) & (a.rec < s)))
        return CoupledEnsemble(**vars(state), b=b.at(s))


def run_coupled(initial: EnsembleState, params: ModelParams, oracle: FieldOracle,
                t_max: float, sample_times, seed: SeedSpec) -> CoupledTrajectory:
    """Event-driven run of the paired process from the state ``run`` takes:
    both label systems start from ``initial.labels``.

    Flight, recovery clocks and proposals are the label-free pass of the
    per-agent form, and ``resolve_infections`` gives the a-labels of ``run``
    on the same seed.  The labels never read each other, so this loop decides
    only b.  It visits, in time order, only the proposals whose partner is
    in range or whose u is below ``oracle.probe_cap``: no other proposal can
    flip a b label.  The b-attempt looks up q only where the partner check
    and u do not settle it against the largest record value, and counts p
    over the b-infected agents only where q does not settle it either.
    """
    st = check_sample_times(sample_times, t_max)
    oracle.check_span(0.0, t_max)
    n = initial.n
    path, (pt, pa, pp, pu) = label_free_pass(initial.x, initial.theta, initial.t, t_max,
                                             params, [seed.rng()])
    a, b = LabelTimes(initial.labels, path), LabelTimes(initial.labels, path)
    near = path.near(pa, pp, pt, params.radius)
    resolve_infections(a, pt[near], pa[near], pp[near])
    q_cap = oracle.probe_cap
    visit = np.flatnonzero(near | (pu < q_cap))
    xi = path.positions(pa[visit], pt[visit])
    probe = oracle.scalar_probe()
    n_probe = n_scan = partner_fires = residual_fires = thinned = 0

    for t, i, j, u, close, x, y in zip(pt[visit].tolist(), pa[visit].tolist(),
                                      pp[visit].tolist(), pu[visit].tolist(),
                                      near[visit].tolist(), xi[:, 0].tolist(),
                                      xi[:, 1].tolist()):
        if b.inf[i] < t:
            continue
        # without the partner check, u >= q_cap settles the b-attempt before
        # q is looked up; b_shortcut settles most of the rest before p is
        # counted
        pb = close and b.inf[j] < t <= b.rec[j]
        if not pb and u >= q_cap:
            continue
        q = probe(x, y, t)
        n_probe += 1
        fire = b_shortcut(pb, u, q)
        if fire is None:
            n_scan += 1
            ill = np.flatnonzero((b.inf < t) & (t <= b.rec))
            p = np.count_nonzero(in_range(path.positions(ill, t), (x, y),
                                          params.radius, params.side)) / n
            fire = b_attempt(p, q, pb, u)
        if not fire:
            if pb:
                thinned += 1
            continue
        if pb:
            partner_fires += 1
        else:
            residual_fires += 1
        b.infect(i, t)

    # a proposal reached a b-susceptible agent up to and at its b infection
    b_prop = int(np.count_nonzero(b.inf[pa] >= pt))
    return CoupledTrajectory(st.copy(), path, a, pt, t_max, b,
                             Channels(b_prop, n_probe, n_scan, partner_fires,
                                      residual_fires, thinned))
