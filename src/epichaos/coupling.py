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

from .core import EventClock, Label, ModelParams, SeedSpec, wrap
from .initial import InitialCondition
from .meanfield import FieldOracle, OracleSpanError
from .particle import ConfigError, Counters, check_sample_times


@dataclass
class CoupledEnsemble:
    """Shared positions and headings with the two label vectors."""

    x: np.ndarray
    theta: np.ndarray
    a: np.ndarray
    b: np.ndarray
    t: float = 0.0
    counters: Counters = field(default_factory=Counters)

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.theta = np.asarray(self.theta, dtype=float)
        self.a = np.asarray(self.a, dtype=np.int8)
        self.b = np.asarray(self.b, dtype=np.int8)

    @property
    def n(self) -> int:
        return self.a.shape[0]

    def counts_a(self):
        c = np.bincount(self.a, minlength=3)
        return int(c[0]), int(c[1]), int(c[2])

    def counts_b(self):
        c = np.bincount(self.b, minlength=3)
        return int(c[0]), int(c[1]), int(c[2])

    def copy(self) -> "CoupledEnsemble":
        return CoupledEnsemble(self.x.copy(), self.theta.copy(), self.a.copy(),
                               self.b.copy(), self.t, self.counters.copy())


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


def mismatch_fraction(state: CoupledEnsemble) -> float:
    """Fraction of agents whose two labels disagree."""
    return float(np.mean(state.a != state.b))


def mismatch_bound(t: float, infection_rate: float, n: int) -> float:
    """A priori bound (t * rate / n) * exp(2 * rate * t) on the expected
    mismatch fraction at time t for large n."""
    return t * infection_rate / n * math.exp(2.0 * infection_rate * t)


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
class CoupledTrajectory:
    """Sampled mismatch fractions, both systems' label counts and the
    b-attempt channel counts of the run."""

    times: np.ndarray
    mismatch: np.ndarray
    counts_a: np.ndarray
    counts_b: np.ndarray
    extras: list
    final: CoupledEnsemble
    channels: Channels


def sample_coupled_initial(ic: InitialCondition, n: int,
                           rng: np.random.Generator) -> CoupledEnsemble:
    """i.i.d. draws from the initial density with equal label vectors."""
    x, theta, labels = ic.sample(n, rng)
    return CoupledEnsemble(wrap(x, ic.side), theta, labels, labels.copy())


def run_coupled(initial: CoupledEnsemble, params: ModelParams, oracle: FieldOracle,
                t_max: float, sample_times, seed: SeedSpec | np.random.Generator,
                observer=None) -> CoupledTrajectory:
    """Event-driven run of the paired process.

    Motion, velocity jumps and observations are the shared ``EventClock``.
    Recoveries are shared too, and infection proposals arrive at the
    majorant rate per agent for the maximal-coupling resolution.  A
    proposal reads a label system only where agent i is susceptible.  The
    b-attempt looks up q only where the partner check and u do not settle
    it against the largest record value, and counts p, scanning the
    b-infected agents only, where q does not settle it either.
    """
    if t_max < 0:
        raise ConfigError("t_max must be nonnegative")
    st = check_sample_times(sample_times, t_max)
    lo, hi = oracle.span
    if lo > 1e-9 or hi < t_max - 1e-9:
        raise OracleSpanError(f"oracle span [{lo}, {hi}] does not cover [0, {t_max}]")
    rng = seed.rng() if isinstance(seed, SeedSpec) else seed
    state = initial.copy()
    n = state.n
    side = params.side
    r2 = params.radius * params.radius
    rate = n * (1.0 + params.recovery_rate + params.infection_rate)
    thr_rec = n * 1.0 + n * params.recovery_rate
    clock = EventClock(state, side, rate, t_max, rng)
    x0, x1, cs, sn, mark = clock.x0, clock.x1, clock.cs, clock.sn, clock.mark

    a, b = state.a, state.b
    cnt = state.counters
    lab_s, lab_i = int(Label.S), int(Label.I)
    probe = oracle.scalar_probe()
    q_cap = oracle.probe_cap
    b_prop = n_probe = n_scan = partner_fires = residual_fires = thinned = 0

    # b-infected agents: binf[:nb] in any order, slot[j] = position of j
    binf = np.empty(n, dtype=np.intp)
    slot = np.empty(n, dtype=np.intp)
    nb = int(np.count_nonzero(b == lab_i))
    binf[:nb] = np.flatnonzero(b == lab_i)
    slot[binf[:nb]] = np.arange(nb)

    times, mism, rows_a, rows_b, extras = [], [], [], [], []

    def record(t_s):
        times.append(t_s)
        mism.append(mismatch_fraction(state))
        rows_a.append(state.counts_a())
        rows_b.append(state.counts_b())
        if observer is not None:
            extras.append(observer(state))

    for t, u, i, partner, acc in clock.events(st, record):
        if u < thr_rec:
            ai_inf = a[i] == lab_i
            bi_inf = b[i] == lab_i
            if ai_inf:
                a[i] = Label.R
            if bi_inf:
                b[i] = Label.R
                nb -= 1
                last = binf[nb]
                binf[slot[i]] = last
                slot[last] = slot[i]
            if ai_inf or bi_inf:
                cnt.recoveries += 1
        else:
            cnt.infection_proposals += 1
            a_s = a[i] == lab_s
            b_s = b[i] == lab_s
            if not (a_s or b_s):
                continue
            dt = t - mark[i]
            xi0 = (x0[i] + cs[i] * dt) % side
            xi1 = (x1[i] + sn[i] * dt) % side
            a_src = a_s and a[partner] == lab_i
            b_src = b_s and b[partner] == lab_i
            near = False
            if partner != i and (a_src or b_src):
                dt = t - mark[partner]
                dx = abs(x0[partner] + cs[partner] * dt - xi0) % side
                dy = abs(x1[partner] + sn[partner] * dt - xi1) % side
                dx = min(dx, side - dx)
                dy = min(dy, side - dy)
                near = dx * dx + dy * dy < r2
            if a_src and near:
                a[i] = Label.I
                cnt.infections += 1
            if not b_s:
                continue
            # without the partner check, u >= q_cap settles the b-attempt
            # before q is looked up; b_shortcut settles most of the rest
            # before p is counted
            b_prop += 1
            pb = b_src and near
            if not pb and acc >= q_cap:
                continue
            q = probe(xi0, xi1, t)
            n_probe += 1
            fire = b_shortcut(pb, acc, q)
            if fire is None:
                n_scan += 1
                j = binf[:nb]
                dt = t - mark[j]
                dx = np.abs(x0[j] + cs[j] * dt - xi0)
                np.mod(dx, side, out=dx)
                np.minimum(dx, side - dx, out=dx)
                dy = np.abs(x1[j] + sn[j] * dt - xi1)
                np.mod(dy, side, out=dy)
                np.minimum(dy, side - dy, out=dy)
                dx *= dx
                dy *= dy
                dx += dy
                fire = b_attempt(np.count_nonzero(dx < r2) / n, q, pb, acc)
            if not fire:
                if pb:
                    thinned += 1
                continue
            if pb:
                partner_fires += 1
            else:
                residual_fires += 1
            b[i] = Label.I
            binf[nb] = i
            slot[i] = nb
            nb += 1

    return CoupledTrajectory(np.asarray(times), np.asarray(mism),
                             np.asarray(rows_a, dtype=np.int64).reshape(-1, 3),
                             np.asarray(rows_b, dtype=np.int64).reshape(-1, 3),
                             extras, state,
                             Channels(b_prop, n_probe, n_scan, partner_fires,
                                      residual_fires, thinned))
