import numpy as np
import pytest

from epichaos import (GridError, GridSpec, InitialCondition, InitialConditionError, Label,
                      SeedSpec, field_from_initial, uniform_sir)
from epichaos.core import TWO_PI


def test_rejects_bad_fractions():
    with pytest.raises(InitialConditionError):
        InitialCondition(side=1.0, fractions=(0.9, 0.2, 0.0))
    with pytest.raises(InitialConditionError):
        InitialCondition(side=1.0, fractions=(0.9, -0.1, 0.2))
    # just inside the normalization tolerance is fine
    InitialCondition(side=1.0, fractions=(0.9, 0.1 + 5e-10, 0.0))


def test_rejects_bad_weights():
    with pytest.raises(InitialConditionError):
        InitialCondition(side=1.0, weights=[[1.0, -1.0], [1.0, 1.0]])
    with pytest.raises(InitialConditionError):
        InitialCondition(side=1.0, weights=[[0.0, 0.0], [0.0, 0.0]])



def _with_side(bad):
    return InitialCondition(side=bad)


def _with_fractions(bad):
    return InitialCondition(side=1.0, fractions=(1.0 - 0.1, 0.1, bad))


def _with_cell_fractions(bad):
    fr = np.tile([0.5, 0.5, 0.0], (2, 2, 1))
    fr[1, 0, 2] = bad
    return InitialCondition(side=1.0, fractions=fr)


def _with_weights(bad):
    return InitialCondition(side=1.0, weights=[[1.0, bad], [1.0, 1.0]])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("build", [_with_side, _with_fractions, _with_cell_fractions,
                                   _with_weights],
                         ids=["side", "fractions", "cell_fractions", "weights"])
def test_rejects_non_finite_values(build, bad):
    with pytest.raises(InitialConditionError):
        build(bad)


def test_field_needs_the_grid_side():
    ic = uniform_sir(1.0, 0.9, 0.1, 0.0)
    with pytest.raises(GridError):
        field_from_initial(ic, GridSpec(m=8, k=4, dt=1e-2, side=2.0))

def test_label_fraction_sampling():
    ic = uniform_sir(1.0, 0.9, 0.1, 0.0)
    n = 1_000_000
    _, _, labels = ic.sample(n, SeedSpec(3).rng())
    frac_i = np.mean(labels == 1)
    assert abs(frac_i - 0.1) < 3 * np.sqrt(0.1 * 0.9 / n)
    assert not np.any(labels == 2)


def test_concentrated_cell():
    w = np.zeros((4, 4))
    w[2, 1] = 1.0
    ic = InitialCondition(side=2.0, fractions=(0.0, 1.0, 0.0), weights=w)
    x, theta, labels = ic.sample(5000, SeedSpec(4).rng())
    h = 2.0 / 4
    assert np.all((x[:, 0] >= 2 * h) & (x[:, 0] < 3 * h))
    assert np.all((x[:, 1] >= 1 * h) & (x[:, 1] < 2 * h))
    assert np.all(labels == 1)


def test_delta_velocity():
    ic = InitialCondition(side=1.0, fractions=(1.0, 0.0, 0.0), velocity=0.75)
    _, theta, _ = ic.sample(100, SeedSpec(5).rng())
    assert np.all(theta == 0.75)


def test_field_projection_masses_match():
    w = np.array([[1.0, 2.0], [3.0, 4.0]])
    ic = InitialCondition(side=1.0, fractions=(0.6, 0.4, 0.0), weights=w)
    vals = ic.field_values(8, 4)
    measure = (1.0 / 8) ** 2 * (2 * np.pi / 4)
    masses = vals.sum(axis=(1, 2, 3)) * measure
    assert np.allclose(masses, ic.label_masses(), atol=1e-12)
    assert np.allclose(masses, (0.6, 0.4, 0.0), atol=1e-12)
    assert vals.sum() * measure == pytest.approx(1.0, abs=1e-12)


def test_field_projection_requires_divisible_grid():
    ic = InitialCondition(side=1.0, weights=np.ones((3, 3)))
    with pytest.raises(InitialConditionError):
        ic.field_values(8, 4)


def test_per_cell_fractions():
    fr = np.zeros((2, 2, 3))
    fr[:, :, 0] = 1.0
    fr[0, 0] = (0.0, 1.0, 0.0)
    ic = InitialCondition(side=1.0, fractions=fr)
    x, _, labels = ic.sample(20000, SeedSpec(6).rng())
    in_cell = (x[:, 0] < 0.5) & (x[:, 1] < 0.5)
    assert np.all(labels[in_cell] == 1)
    assert np.all(labels[~in_cell] == 0)


def test_independent_streams_give_uncorrelated_ensembles():
    ic = uniform_sir(1.0, 0.5, 0.5, 0.0)
    pairs = 800
    n = 50
    counts = np.empty((pairs, 2))
    for r in range(pairs):
        _, _, la = ic.sample(n, SeedSpec(7, (r, 0)).rng())
        _, _, lb = ic.sample(n, SeedSpec(7, (r, 1)).rng())
        counts[r] = [(la == 1).sum(), (lb == 1).sum()]
    corr = np.corrcoef(counts[:, 0], counts[:, 1])[0, 1]
    assert abs(corr) < 3.0 / np.sqrt(pairs)


_CELL_FRACTIONS = np.stack([np.tile([0.2, 0.5, 0.3], (3, 1)),
                            np.tile([0.5, 0.0, 0.5], (3, 1)),
                            np.tile([0.0, 1.0, 0.0], (3, 1))])


@pytest.mark.parametrize("ic", [
    uniform_sir(1.0, 0.5, 0.4, 0.1),
    InitialCondition(side=2.0, fractions=(0.6, 0.3, 0.1), weights=[[1, 2], [3, 4]],
                     velocity=1.3),
    InitialCondition(side=1.5, fractions=_CELL_FRACTIONS, weights=np.arange(9.0).reshape(3, 3)),
], ids=["uniform", "weights", "cell-fractions"])
def test_sample_follows_its_draw_order_and_label_rule(ic):
    # cells (no draw for a single cell), x, y, heading, then one uniform u
    # per agent: S if u < s, I if u < s + i, else R, with the fractions of
    # the agent's cell
    n = 2000
    x, theta, labels = ic.sample(n, SeedSpec(8).rng())
    rng = SeedSpec(8).rng()
    m0, h = ic.m0, ic.side / ic.m0
    cells = (rng.choice(m0 * m0, size=n, p=ic.cell_probabilities().ravel()) if m0 > 1
             else np.zeros(n, dtype=np.int64))
    cx, cy = np.divmod(cells, m0)
    assert np.array_equal(x[:, 0], (cx + rng.random(n)) * h)
    assert np.array_equal(x[:, 1], (cy + rng.random(n)) * h)
    if ic.velocity == "uniform":
        assert np.array_equal(theta, rng.random(n) * TWO_PI)
    else:
        assert np.all(theta == ic.velocity)
    fr = ic.cell_fractions().reshape(-1, 3)[cells]
    u = rng.random(n)
    want = np.where(u < fr[:, 0], Label.S, np.where(u < fr[:, 0] + fr[:, 1], Label.I, Label.R))
    assert labels.dtype == np.int8
    assert np.array_equal(labels, want)
    assert set(labels.tolist()) == {0, 1, 2}
