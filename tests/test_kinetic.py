import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from epichaos import (DiscKernel, GridError, GridSpec, KineticField, ModelParams,
                      field_from_initial, infection_intensity, load_field, save_field,
                      solve, uniform_sir)
from epichaos import kinetic
from epichaos.core import TWO_PI
from epichaos.kinetic import (_from_working, _rolled_product, _to_working, reaction_step,
                              scattering_step, transport_step)
from epichaos.oracles import direct_convolution, sir_ode_solve

SIDE = 1.0


def make_params(lam=1.0, gamma=0.5, radius=0.1):
    return ModelParams(n=10, side=SIDE, radius=radius,
                       infection_rate=lam, recovery_rate=gamma)


def random_field(m, k, seed=0):
    rng = np.random.default_rng(seed)
    vals = rng.random((3, m, m, k)) + 0.05
    vals /= vals.sum() * (SIDE / m) ** 2 * (TWO_PI / k)
    return KineticField(vals, SIDE, 0.0)


def smooth_field(m, k):
    xc = (np.arange(m) + 0.5) * (SIDE / m)
    X, Y = np.meshgrid(xc, xc, indexing="ij")
    ang = 1.0 + 0.25 * np.cos(TWO_PI * np.arange(k) / k)
    vals = np.empty((3, m, m, k))
    vals[0] = (0.6 * (1.0 + 0.5 * np.sin(TWO_PI * X) * np.sin(TWO_PI * Y)))[:, :, None] * ang
    vals[1] = (0.4 * (1.0 + 0.5 * np.cos(TWO_PI * X)))[:, :, None] * ang
    vals[2] = 0.1
    vals /= vals.sum() * (SIDE / m) ** 2 * (TWO_PI / k)
    return KineticField(vals, SIDE, 0.0)


# The sub-steps run on heading-first (k, 3, m, m) arrays; these apply one
# to (3, m, m, k) field values and return values in that layout.

def transported(values, dt):
    work = _to_working(values)
    out = np.empty_like(work)
    transport_step(work, out, dt, SIDE / values.shape[1])
    return _from_working(out)


def scattered(values, dt):
    work = _to_working(values)
    scattering_step(work, dt)
    return _from_working(work)


def reacted(values, nf, params, dt, adjoint=False):
    work = _to_working(values)
    out = np.empty_like(work)
    reaction_step(work, out, nf, params, dt, adjoint)
    return _from_working(out)


def test_transport_leaves_constant_field():
    out = transported(np.full((3, 8, 8, 4), 0.7), 0.173)
    assert np.abs(out - 0.7).max() < 1e-14


def test_transport_integer_shift_is_exact_roll():
    m, k = 8, 4
    fld = random_field(m, k, seed=1)
    dt = 3.0 / m  # three cells along the theta = 0 slice
    out = transported(fld.values, dt)
    expected = np.roll(fld.values[:, :, :, 0], 3, axis=1)
    assert np.array_equal(out[:, :, :, 0], expected)



def test_transport_fractional_shift_interpolates_linearly():
    m, k = 8, 4
    fld = random_field(m, k, seed=12)
    dt = 2.25 / m  # 2.25 cells along theta = 0, -2.25 along theta = pi
    out = transported(fld.values, dt)
    for kv, s, w in ((0, 2, 0.25), (2, -3, 0.75)):
        v = fld.values[:, :, :, kv]
        expected = (1.0 - w) * np.roll(v, s, axis=1) + w * np.roll(v, s + 1, axis=1)
        assert np.abs(out[:, :, :, kv] - expected).max() < 1e-15


def roll_transport(values, dt, side):
    """Two-pass np.roll reference of transport_step on (3, m, m, k) values:
    per heading, the x pass then the y pass, each (1 - w) a + w b."""
    m, k = values.shape[1], values.shape[3]
    h = side / m
    out = np.empty_like(values)
    for kv in range(k):
        theta = TWO_PI * kv / k
        v = values[:, :, :, kv]
        for axis, shift in ((1, math.cos(theta) * dt / h), (2, math.sin(theta) * dt / h)):
            s = math.floor(shift)
            w = shift - s
            v = (1.0 - w) * np.roll(v, s, axis=axis) + w * np.roll(v, s + 1, axis=axis)
        out[:, :, :, kv] = v
    return out


@pytest.mark.parametrize("m,k,cells", [
    (8, 4, 3.0),      # integer shifts along both axes, both signs
    (8, 4, 2.25),     # fractional
    (8, 8, 0.4),      # sub-cell, diagonal headings
    (16, 8, 13.7),    # past m/2: rolls the short way round
    (8, 4, 20.3),     # wraps the axis more than once
    (17, 12, 4.8),    # odd m, multi-cell, every direction
    (17, 12, 0.001),  # near-zero shift
])
def test_transport_matches_two_pass_roll_reference(m, k, cells):
    fld = random_field(m, k, seed=m + k)
    dt = cells * SIDE / m
    out = transported(fld.values, dt)
    assert np.array_equal(out, roll_transport(fld.values, dt, SIDE))


@pytest.mark.parametrize("view", [np.s_[:, :, :8], np.s_[:, :, ::2]])
def test_rolled_product_refuses_a_non_contiguous_slab(view):
    # a flat copy of ``out`` would take the products and drop them
    slab = np.ones((3, 8, 8))
    strided = np.empty((3, 8, 16))[view]
    with pytest.raises(ValueError, match="C-contiguous"):
        _rolled_product(slab, 1, 0.5, 2, strided)
    with pytest.raises(ValueError, match="C-contiguous"):
        _rolled_product(strided, 1, 0.5, 1, slab)


@pytest.mark.parametrize("m", [8, 17, 32, 64])
def test_spectral_matches_rfft2_bit_for_bit(m):
    kernel = DiscKernel(m, SIDE, 0.17)
    rho = np.random.default_rng(m).random((m, m))
    expected = np.fft.irfft2(np.fft.rfft2(rho) * kernel.fft, s=rho.shape) * kernel.area
    assert np.array_equal(kernel.spectral(rho), expected)


def test_transport_preserves_mass():
    fld = random_field(16, 8, seed=2)
    out = KineticField(transported(fld.values, 0.0137), SIDE)
    assert abs(out.mass() - fld.mass()) < 1e-12 * fld.mass()
    assert out.values.min() >= 0.0


def test_scattering_fixed_point_and_limit():
    m, k = 8, 8
    vals = np.random.default_rng(3).random((3, m, m, 1)) * np.ones((3, m, m, k))
    out = scattered(vals, 0.9)
    assert np.abs(out - vals).max() < 1e-15

    spike = np.zeros((3, m, m, k))
    spike[:, :, :, 2] = 1.0
    out = scattered(spike, 50.0)
    fbar = out.mean(axis=3, keepdims=True)
    assert np.abs(out - fbar).max() < 1e-19


def test_scattering_relaxes_exactly():
    fld = random_field(8, 8, seed=4)
    dt = 1.0
    fbar = fld.values.mean(axis=3, keepdims=True)
    dev0 = fld.values - fbar
    out = scattered(fld.values, dt)
    dev1 = out - fbar
    # deviations contract by exactly exp(-dt); their variance by exp(-2 dt)
    assert np.abs(dev1 - math.exp(-dt) * dev0).max() < 1e-14
    assert np.var(dev1, axis=3).sum() == pytest.approx(
        math.exp(-2 * dt) * np.var(dev0, axis=3).sum(), rel=1e-12)


def test_infection_intensity_uniform_value():
    m, k = 64, 4
    ic = uniform_sir(SIDE, 0.9, 0.1, 0.0)
    fld = field_from_initial(ic, GridSpec(m=m, k=k, dt=1e-3, side=SIDE))
    nf = infection_intensity(fld, 0.1)
    expected = 0.1 * math.pi * 0.1 ** 2 / SIDE ** 2
    assert np.abs(nf - expected).max() < 0.02 * expected
    assert np.all(nf >= 0.0) and np.all(nf <= 1.0)


def test_infection_intensity_zero_without_infected():
    fld = field_from_initial(uniform_sir(SIDE, 1.0, 0.0, 0.0),
                             GridSpec(m=16, k=4, dt=1e-3, side=SIDE))
    assert np.abs(infection_intensity(fld, 0.2)).max() == 0.0


def test_intensity_backends_agree():
    fld = random_field(32, 4, seed=5)
    rho = fld.values[1].sum(axis=2) * (TWO_PI / 4)
    a = np.clip(DiscKernel(32, SIDE, 0.17).direct(rho), 0.0, 1.0)
    b = infection_intensity(fld, 0.17)
    assert np.abs(a - b).max() < 1e-10
    ref = direct_convolution(rho, 0.17, SIDE)
    assert np.abs(a - np.clip(ref, 0, 1)).max() < 1e-10


def test_reaction_identity_without_intensity_and_decay():
    fld = random_field(8, 4, seed=6)
    out = reacted(fld.values, np.zeros((8, 8)), make_params(gamma=0.0), 0.3)
    assert np.array_equal(out, fld.values)


def test_reaction_pure_recovery_is_exact_exponential():
    fld = random_field(8, 4, seed=7)
    params = make_params(lam=0.0, gamma=0.9)
    nf = np.zeros((8, 8))
    cur = fld.values
    for _ in range(10):
        cur = reacted(cur, nf, params, 0.05)
    expected = fld.values[1] * math.exp(-0.9 * 0.5)
    assert np.allclose(cur[1], expected, rtol=1e-12)
    assert np.array_equal(cur[0], fld.values[0])


def test_reaction_conserves_per_cell_label_sum():
    fld = random_field(16, 4, seed=8)
    nf = np.random.default_rng(9).random((16, 16))
    for adjoint in (False, True):
        out = reacted(fld.values, nf, make_params(lam=3.0, gamma=1.0), 0.2,
                      adjoint=adjoint)
        before = fld.values.sum(axis=0)
        after = out.sum(axis=0)
        assert np.allclose(after, before, rtol=1e-14, atol=1e-18)


def test_solve_homogeneous_matches_sir_ode():
    m, k, dt = 16, 4, 2e-3
    params = make_params()
    grid = GridSpec(m=m, k=k, dt=dt, side=SIDE)
    fld = field_from_initial(uniform_sir(SIDE, 0.9, 0.1, 0.0), grid)
    traj = solve(fld, params, grid, 1.0)
    kern = DiscKernel(m, SIDE, params.radius)
    beta = params.infection_rate * kern.mask.sum() * (SIDE / m) ** 2 / SIDE ** 2
    _, ode = sir_ode_solve(beta, params.recovery_rate, (0.9, 0.1, 0.0), 1.0, dt)
    assert np.abs(traj.masses - ode).max() < 1e-8


def test_solve_label_sum_satisfies_transport_only_flow():
    m, k, dt = 16, 4, 5e-3
    params = make_params(lam=2.0, gamma=1.0, radius=0.15)
    grid = GridSpec(m=m, k=k, dt=dt, side=SIDE)
    fld = smooth_field(m, k)
    full = solve(fld, params, grid, 0.5, snapshot_times=[0.5])
    # without infection and recovery the reaction steps are identities
    free = solve(fld, replace(params, infection_rate=0.0, recovery_rate=0.0), grid, 0.5,
                 snapshot_times=[0.5])
    summed = full.snapshots[0].values.sum(axis=0)
    summed_free = free.snapshots[0].values.sum(axis=0)
    l1 = np.abs(summed - summed_free).sum() * fld.cell_measure
    assert l1 < 1e-10


def test_solve_conserves_mass_and_counts_no_clamps():
    grid = GridSpec(m=16, k=4, dt=5e-3, side=SIDE)
    fld = smooth_field(16, 4)
    traj = solve(fld, make_params(lam=2.0, gamma=1.0, radius=0.15), grid, 1.0)
    masses = traj.masses.sum(axis=1)
    assert np.abs(masses - 1.0).max() < 1e-10
    assert traj.clamp_count == 0
    assert np.all(np.diff(traj.masses[:, 0]) <= 1e-12)
    assert np.all(np.diff(traj.masses[:, 2]) >= -1e-12)


def test_solve_convolves_each_field_state_once(monkeypatch):
    # per step: the intensities of its middle and final states and two
    # predictors; plus the initial state's intensity
    calls = []
    spectral = DiscKernel.spectral
    monkeypatch.setattr(DiscKernel, "spectral",
                        lambda self, rho: calls.append(1) or spectral(self, rho))
    grid = GridSpec(m=16, k=4, dt=5e-3, side=SIDE)
    params = make_params(lam=2.0, gamma=1.0, radius=0.15)
    n_steps, stride = 40, 3
    times = [s * grid.dt for s in range(0, n_steps, stride)] + [n_steps * grid.dt]
    traj = solve(smooth_field(16, 4), params, grid, n_steps * grid.dt,
                 snapshot_times=times, nf_stride=stride)
    assert len(calls) == 4 * n_steps + 1
    # every intensity record is that of the field state recorded with it
    assert np.array_equal(traj.nf_times, traj.snapshot_times)
    for fld, nf in zip(traj.snapshots, traj.nf_values):
        assert np.array_equal(nf, infection_intensity(fld, params.radius))



def test_snapshots_do_not_perturb_the_solve():
    grid = GridSpec(m=16, k=4, dt=5e-3, side=SIDE)
    params = make_params(lam=2.0, gamma=1.0, radius=0.15)
    n_steps, stride = 30, 4
    t_max = n_steps * grid.dt
    plain = solve(smooth_field(16, 4), params, grid, t_max, nf_stride=stride)
    times = [s * grid.dt for s in range(0, n_steps + 1, stride)]
    snapped = solve(smooth_field(16, 4), params, grid, t_max, snapshot_times=times,
                    nf_stride=stride)
    assert len(snapped.snapshots) == len(times)
    for name in ("masses", "nf_times", "nf_values", "clamp_count"):
        assert np.array_equal(getattr(plain, name), getattr(snapped, name)), name
    # each snapshot is its own copy, not a view of the solver's buffers
    assert len({id(f.values) for f in snapped.snapshots}) == len(times)
    assert not np.array_equal(snapped.snapshots[0].values, snapped.snapshots[-1].values)


def test_solve_step_is_the_public_strang_composition():
    m, k = 16, 4
    grid = GridSpec(m=m, k=k, dt=5e-3, side=SIDE)
    params = make_params(lam=3.0, gamma=1.0, radius=0.15)
    kernel = DiscKernel(m, SIDE, params.radius)
    half = 0.5 * grid.dt

    def half_reaction(values, adjoint):
        # trapezoidal intensity: the start value and a predicted end value
        nf0 = infection_intensity(KineticField(values, SIDE), params.radius)
        rho_s, rho_i = values[:2].sum(axis=3) * grid.dtheta
        ds = np.exp(-params.infection_rate * half * nf0)
        di = math.exp(-params.recovery_rate * half)
        if adjoint:
            pred = rho_i * di + rho_s * (1.0 - ds)
        else:
            pred = (rho_i + rho_s * (1.0 - ds)) * di
        nf1 = np.clip(kernel.spectral(pred), 0.0, 1.0)
        return reacted(values, 0.5 * (nf0 + nf1), params, half, adjoint=adjoint)

    values = smooth_field(m, k).values
    values = half_reaction(values, adjoint=False)
    values = scattered(values, half)
    values = transported(values, grid.dt)
    values = scattered(values, half)
    values = half_reaction(values, adjoint=True)
    traj = solve(smooth_field(m, k), params, grid, grid.dt, snapshot_times=[grid.dt])
    assert traj.clamp_count == 0
    assert np.abs(traj.snapshots[0].values - values).max() < 1e-14
    nf = infection_intensity(KineticField(values, SIDE), params.radius)
    assert np.abs(traj.nf_values[-1] - nf).max() < 1e-14


def test_solve_calls_each_sub_step_by_its_module_name(monkeypatch):
    # a tracer that wraps the module's names sees every sub-step solve runs:
    # per step one transport, two half scatterings and two half reactions
    calls = Counter()
    for name in ("transport_step", "scattering_step", "reaction_step"):
        def counted(*args, _name=name, _step=getattr(kinetic, name), **kwargs):
            calls[_name] += 1
            return _step(*args, **kwargs)
        monkeypatch.setattr(kinetic, name, counted)
    grid = GridSpec(m=8, k=4, dt=1e-2, side=SIDE)
    steps = 7
    solve(smooth_field(8, 4), make_params(), grid, steps * grid.dt)
    assert calls == {"transport_step": steps, "scattering_step": 2 * steps,
                     "reaction_step": 2 * steps}


def test_solve_rejects_off_grid_snapshots():
    grid = GridSpec(m=8, k=4, dt=1e-2, side=SIDE)
    fld = smooth_field(8, 4)
    with pytest.raises(GridError):
        solve(fld, make_params(), grid, 1.0, snapshot_times=[0.1234])
    with pytest.raises(GridError):
        solve(fld, make_params(), grid, 1.0, snapshot_times=[2.0])


@pytest.mark.parametrize("times", [[0.1, 0.1, 0.2], [0.1, 0.1000000000001, 0.2]])
def test_solve_rejects_two_snapshots_on_one_step(times):
    # one step holds one snapshot, so a second time on it would have none
    grid = GridSpec(m=8, k=4, dt=5e-2, side=SIDE)
    with pytest.raises(GridError, match="distinct steps"):
        solve(smooth_field(8, 4), make_params(), grid, 0.2, snapshot_times=times)


def test_splitting_is_second_order_in_dt():
    # axis headings and dt multiples of the cell size: transport reduces to
    # exact rolls, so the dt sweep isolates the splitting error
    m, k = 32, 4
    h = SIDE / m
    params = make_params(lam=2.0, gamma=0.8, radius=0.15)
    fld = smooth_field(m, k)

    def final(dt):
        grid = GridSpec(m=m, k=k, dt=dt, side=SIDE)
        traj = solve(fld, params, grid, 0.5, snapshot_times=[0.5], nf_stride=1000)
        return traj.snapshots[0].values

    ref = final(h)
    err_coarse = np.abs(final(8 * h) - ref).max()
    err_fine = np.abs(final(4 * h) - ref).max()
    assert 3.0 < err_coarse / err_fine < 5.0


def test_field_io_roundtrip(tmp_path):
    fld = random_field(8, 4, seed=10)
    fld.t = 0.75
    path = tmp_path / "snap.bin"
    save_field(path, fld)
    back = load_field(path)
    assert np.array_equal(back.values, fld.values)
    assert back.side == fld.side and back.t == fld.t


def test_coarsen_preserves_mass():
    fld = random_field(16, 8, seed=11)
    coarse = fld.coarsen(4, 4)
    assert coarse.mass() == pytest.approx(fld.mass(), rel=1e-12)
    with pytest.raises(GridError):
        fld.coarsen(5, 4)
