"""Empirical statistics bridging agent ensembles and solver fields:
histograms of the one-agent state, L1 distances, the two-agent
factorization gap, and replica aggregation.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .core import TWO_PI, remainder
from .kinetic import GridError, KineticField
from .particle import EnsembleState


@dataclass
class EmpiricalMarginal(KineticField):
    """The empirical density of one ensemble, a ``KineticField`` on the
    (m, m, k) grid: ``counts`` is its (3, m, m, k) occupation histogram of
    ``n`` agents and ``values`` are counts / (n * cell_measure)."""

    counts: np.ndarray = field(kw_only=True)
    n: int = field(kw_only=True)


def empirical_marginal(state, m: int, k: int, side: float) -> EmpiricalMarginal:
    """Bin an ensemble state into an (m, m, k) x label histogram and its
    density.

    Cells are half-open boxes [left, right) in every coordinate, so the
    binning is deterministic on boundary points.  Positions must lie in
    [0, side), or ValueError: a position outside (or NaN) has no cell.
    """
    x = state.x
    # written so that NaN fails the test too
    if not (x.min() >= 0 and x.max() < side):
        raise ValueError(f"positions outside [0, {side}): from {x.min()} to {x.max()}")
    labels = state.labels
    n = labels.shape[0]
    h = side / m
    ix = np.minimum((x[:, 0] / h).astype(np.int64), m - 1)
    iy = np.minimum((x[:, 1] / h).astype(np.int64), m - 1)
    # np.mod's bits without wrap's fold: a heading that rounds up to 2 pi
    # bins to k - 1, so with one heading bin every agent is in bin 0
    iv = 0 if k == 1 else np.minimum(
        (remainder(state.theta, TWO_PI) / (TWO_PI / k)).astype(np.int64), k - 1)
    code = ((labels.astype(np.int64) * m + ix) * m + iy) * k + iv
    counts = np.bincount(code, minlength=3 * m * m * k).reshape(3, m, m, k)
    return EmpiricalMarginal(counts / (n * (h * h * TWO_PI / k)), side, state.t,
                             counts=counts, n=n)


def l1_distance(f1: KineticField, f2: KineticField) -> float:
    """L1 distance between two densities on one grid (solver fields or
    empirical marginals).

    Zero iff identical, symmetric, and equal to 2 for disjointly
    supported probability densities.
    """
    if f1.values.shape != f2.values.shape or f1.side != f2.side:
        raise GridError(f"grid mismatch: {f1.values.shape} on side {f1.side} "
                        f"vs {f2.values.shape} on side {f2.side}")
    return float(np.abs(f1.values - f2.values).sum() * f1.cell_measure)


def pair_factorization_gap(samples, side: float, cells: int = 4) -> float:
    """L1 gap between the two-agent histogram and the product of one-agent
    histograms, on labels x (cells x cells) spatial boxes.

    ``samples`` is an iterable of (positions, labels) replicas; counts are
    pooled so the estimate targets the ensemble-averaged marginals.  The
    two-agent histogram runs over ordered pairs of distinct agents.
    """
    nbins = 3 * cells * cells
    singles = np.zeros(nbins)
    pairs = np.zeros((nbins, nbins))
    n_pairs = 0.0
    n_single = 0.0
    for x, labels in samples:
        state = EnsembleState(x, np.zeros(len(labels)), labels)
        n = state.n
        if n < 2:
            raise ValueError("need at least two agents per replica")
        # one heading bin: the (label, ix, iy) histogram, flattened
        c = empirical_marginal(state, cells, 1, side).counts.ravel().astype(float)
        singles += c
        pairs += np.outer(c, c) - np.diag(c)
        n_single += n
        n_pairs += n * (n - 1)
    p1 = singles / n_single
    p2 = pairs / n_pairs
    return float(np.abs(p2 - np.outer(p1, p1)).sum())


def ensemble_aggregate(values: np.ndarray):
    """Deterministic mean and 95% normal confidence half-width per column.

    ``values`` has one row per replica; rows must share the sample grid.
    Returns (mean, half_width, n_replicas).
    """
    values = np.asarray(values, dtype=float)
    if values.ndim == 1:
        values = values[:, None]
    r = values.shape[0]
    if r < 2:
        raise ValueError("need at least two replicas to aggregate")
    mean = values.mean(axis=0)
    sd = values.std(axis=0, ddof=1)
    half = 1.96 * sd / math.sqrt(r)
    return mean, half, r
