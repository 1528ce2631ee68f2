"""Empirical statistics bridging agent ensembles and solver fields:
histograms of the one-agent state, L1 distances, the two-agent
factorization gap, and replica aggregation.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import TWO_PI, remainder
from .kinetic import KineticField


class GridMismatchError(ValueError):
    pass


@dataclass
class EmpiricalMarginal:
    """Histogram of (cell, heading, label) occupation for one ensemble.

    Counts have shape (3, m, m, k) in the same layout as a solver field;
    ``density`` divides by n and the cell measure so the two are directly
    comparable.
    """

    counts: np.ndarray
    n: int
    side: float
    t: float

    @property
    def m(self) -> int:
        return self.counts.shape[1]

    @property
    def k(self) -> int:
        return self.counts.shape[3]

    @property
    def cell_measure(self) -> float:
        h = self.side / self.m
        return h * h * TWO_PI / self.k

    def density(self) -> np.ndarray:
        return self.counts / (self.n * self.cell_measure)

    def mass(self) -> float:
        return float(self.counts.sum() / self.n)


def empirical_marginal(state, m: int, k: int, side: float) -> EmpiricalMarginal:
    """Bin an ensemble state into an (m, m, k) x label histogram.

    Cells are half-open boxes [left, right) in every coordinate, so the
    binning is deterministic on boundary points.
    """
    x = state.x
    # np.mod's bits without wrap's fold: a heading that rounds up to 2 pi
    # bins to k - 1
    theta = remainder(state.theta, TWO_PI)
    labels = state.labels
    n = labels.shape[0]
    h = side / m
    ix = np.minimum((x[:, 0] / h).astype(np.int64), m - 1)
    iy = np.minimum((x[:, 1] / h).astype(np.int64), m - 1)
    iv = np.minimum((theta / (TWO_PI / k)).astype(np.int64), k - 1)
    code = ((labels.astype(np.int64) * m + ix) * m + iy) * k + iv
    counts = np.bincount(code, minlength=3 * m * m * k).reshape(3, m, m, k)
    return EmpiricalMarginal(counts, n, side, state.t)


def _density_and_measure(obj):
    if isinstance(obj, KineticField):
        return obj.values, obj.cell_measure, obj.side
    if isinstance(obj, EmpiricalMarginal):
        return obj.density(), obj.cell_measure, obj.side
    raise TypeError(f"cannot interpret {type(obj).__name__} as a density on a grid")


def l1_distance(m1, m2) -> float:
    """L1 distance between two gridded densities (fields or marginals).

    Zero iff identical, symmetric, and equal to 2 for disjointly
    supported probability densities.
    """
    d1, w1, s1 = _density_and_measure(m1)
    d2, w2, s2 = _density_and_measure(m2)
    if d1.shape != d2.shape or s1 != s2:
        raise GridMismatchError(
            f"grid mismatch: {d1.shape} on side {s1} vs {d2.shape} on side {s2}")
    return float(np.abs(d1 - d2).sum() * w1)


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
        x = np.asarray(x, dtype=float)
        labels = np.asarray(labels)
        n = labels.shape[0]
        if n < 2:
            raise ValueError("need at least two agents per replica")
        h = side / cells
        ix = np.minimum((x[:, 0] / h).astype(np.int64), cells - 1)
        iy = np.minimum((x[:, 1] / h).astype(np.int64), cells - 1)
        code = (labels.astype(np.int64) * cells + ix) * cells + iy
        c = np.bincount(code, minlength=nbins).astype(float)
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
