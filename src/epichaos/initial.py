"""Initial one-particle densities: piecewise-constant in space, uniform or
delta in angle, label fractions global or per cell.

The same object seeds the particle simulators (i.i.d. agent draws) and the
grid solver (exact cell-average projection), so both start from the same
distribution by construction.
"""

from dataclasses import dataclass

import numpy as np

from .core import TWO_PI

NORMALIZATION_TOL = 1e-9


class InitialConditionError(ValueError):
    pass


@dataclass(frozen=True)
class InitialCondition:
    """Product-form density on (position, angle, label).

    ``weights``: nonnegative (m0, m0) array of relative spatial densities,
    piecewise constant on an m0 x m0 grid over the square (None = uniform).
    ``fractions``: label probabilities, either a global triple or an
    (m0, m0, 3) per-cell array; each cell's triple must sum to 1.
    ``velocity``: "uniform" for an isotropic angle, or a float angle for a
    common fixed heading.
    """

    side: float
    fractions: object = (1.0, 0.0, 0.0)
    weights: object = None
    velocity: object = "uniform"

    def __post_init__(self):
        if not 0 < self.side < np.inf:
            raise InitialConditionError(f"side must be finite and positive, got {self.side}")
        w = self._weights()
        if w is not None:
            if not np.all(np.isfinite(w)):
                raise InitialConditionError("weights must be finite")
            if w.ndim != 2 or w.shape[0] != w.shape[1]:
                raise InitialConditionError("weights must be a square matrix")
            if np.any(w < 0):
                raise InitialConditionError("weights must be nonnegative")
            if w.sum() <= 0:
                raise InitialConditionError("weights must have positive total mass")
        fr = np.asarray(self.fractions, dtype=float)
        if fr.shape == (3,):
            pass
        elif fr.ndim == 3 and fr.shape[2] == 3:
            if w is not None and fr.shape[:2] != w.shape:
                raise InitialConditionError("per-cell fractions must match the weights grid")
        else:
            raise InitialConditionError("fractions must be a triple or an (m, m, 3) array")
        if not np.all(np.isfinite(fr)):
            raise InitialConditionError("label fractions must be finite")
        if np.any(fr < 0):
            raise InitialConditionError("label fractions must be nonnegative")
        s = fr.sum(axis=-1)
        if np.any(np.abs(s - 1.0) > NORMALIZATION_TOL):
            raise InitialConditionError(
                f"label fractions must sum to 1 within {NORMALIZATION_TOL}")
        if not (self.velocity == "uniform" or np.isscalar(self.velocity)):
            raise InitialConditionError("velocity must be 'uniform' or an angle")
        # the sampling tables, built once: each cell's probability, and its
        # label thresholds S and S + I
        fr = self.cell_fractions().reshape(-1, 3)
        object.__setattr__(self, "_cell_p", self.cell_probabilities().ravel())
        object.__setattr__(self, "_thresholds", np.stack([fr[:, 0], fr[:, 0] + fr[:, 1]], axis=1))

    def _weights(self):
        return None if self.weights is None else np.asarray(self.weights, dtype=float)

    @property
    def m0(self) -> int:
        w = self._weights()
        if w is not None:
            return w.shape[0]
        fr = np.asarray(self.fractions, dtype=float)
        return fr.shape[0] if fr.ndim == 3 else 1

    def cell_probabilities(self) -> np.ndarray:
        """Probability of each spatial cell on the m0 x m0 grid."""
        m0 = self.m0
        w = self._weights()
        if w is None:
            return np.full((m0, m0), 1.0 / (m0 * m0))
        return w / w.sum()

    def cell_fractions(self) -> np.ndarray:
        """(m0, m0, 3) label fractions, broadcast if globally specified."""
        fr = np.asarray(self.fractions, dtype=float)
        m0 = self.m0
        if fr.shape == (3,):
            return np.broadcast_to(fr, (m0, m0, 3))
        return fr

    def label_masses(self) -> np.ndarray:
        """Overall (S, I, R) masses implied by cells and fractions."""
        p = self.cell_probabilities()
        return np.einsum("ij,ijk->k", p, self.cell_fractions())

    def sample(self, n: int, rng: np.random.Generator):
        """Draw n i.i.d. agents; returns (positions (n,2), angles (n,), labels (n,))."""
        m0 = self.m0
        h = self.side / m0
        cells = (rng.choice(m0 * m0, size=n, p=self._cell_p) if m0 > 1
                 else np.zeros(n, dtype=np.int64))
        cx, cy = np.divmod(cells, m0)
        x = np.empty((n, 2))
        x[:, 0] = (cx + rng.random(n)) * h
        x[:, 1] = (cy + rng.random(n)) * h
        if self.velocity == "uniform":
            theta = rng.random(n) * TWO_PI
        else:
            theta = np.full(n, float(self.velocity) % TWO_PI)
        th = self._thresholds if m0 == 1 else self._thresholds[cells]
        u = rng.random(n)
        # S, I, R = 0, 1, 2 counts the thresholds u is not below
        labels = 2 - (u < th[:, 0]).view(np.int8) - (u < th[:, 1]).view(np.int8)
        return x, theta, labels

    def field_values(self, m: int, k: int) -> np.ndarray:
        """Project onto a solver grid: (3, m, m, k) density per (area x angle).

        The solver grid must refine the weights grid (m0 divides m) so the
        projection is exact for the piecewise-constant density.
        """
        m0 = self.m0
        if m % m0 != 0:
            raise InitialConditionError(
                f"solver grid m={m} must be a multiple of the initial grid m0={m0}")
        rep = m // m0
        p = self.cell_probabilities() / (self.side / m0) ** 2  # density per area
        spatial = np.repeat(np.repeat(p, rep, axis=0), rep, axis=1)
        fr = self.cell_fractions()
        fr = np.repeat(np.repeat(fr, rep, axis=0), rep, axis=1)
        f = np.zeros((3, m, m, k))
        if self.velocity == "uniform":
            for a in range(3):
                f[a] = spatial[:, :, None] * fr[:, :, a][:, :, None] / TWO_PI
        else:
            kv = int(float(self.velocity) % TWO_PI / (TWO_PI / k)) % k
            for a in range(3):
                f[a, :, :, kv] = spatial * fr[:, :, a] * (k / TWO_PI)
        return f


def uniform_sir(side: float, s: float, i: float, r: float) -> InitialCondition:
    """Spatially uniform, isotropic initial data with global label fractions."""
    return InitialCondition(side=side, fractions=(s, i, r))
