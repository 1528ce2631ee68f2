"""Deterministic solver for the limiting transport-scattering-reaction system.

The unknown is a density f(x, v, a, t) over the periodic square, a discrete
set of headings on the circle, and the three labels.  One Strang step
composes: half reaction, half scattering, full transport, half scattering,
half reaction.  Transport is semi-Lagrangian (per heading the displacement
is constant, so the interpolation reduces to at most four rolled copies of
the slice), scattering relaxes each cell exactly toward its angular mean,
and the reaction uses exact exponential updates with the interaction
intensity frozen per sub-step, refreshed by a trapezoidal
predictor-corrector so the splitting stays second order.

All sub-steps map nonnegative fields to nonnegative fields and conserve the
per-cell label sum (reaction) or per-label mass (transport, scattering), so
total mass is conserved to rounding.
"""

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .core import TWO_PI, ModelParams
from .initial import InitialCondition

FIELD_MAGIC = b"EPKF"
FIELD_VERSION = 1
#: Names the numerical scheme of ``solve``; change it whenever a change to
#: the solver can change its output, so that cached solves are recomputed.
SCHEME = "strang-semilagrangian-1"


class GridError(ValueError):
    pass


@dataclass(frozen=True)
class GridSpec:
    """Discretization: m x m cells in space, k headings, splitting step dt."""

    m: int
    k: int
    dt: float
    side: float

    def __post_init__(self):
        problems = []
        if self.m < 4:
            problems.append(f"m must be >= 4, got {self.m}")
        if self.k < 4:
            problems.append(f"k must be >= 4, got {self.k}")
        if not 0 < self.dt < math.inf:
            problems.append(f"dt must be finite and > 0, got {self.dt}")
        if not 0 < self.side < math.inf:
            problems.append(f"side must be finite and > 0, got {self.side}")
        if problems:
            raise GridError("; ".join(problems))

    @property
    def h(self) -> float:
        return self.side / self.m

    @property
    def dtheta(self) -> float:
        return TWO_PI / self.k

    @property
    def cell_measure(self) -> float:
        return self.h * self.h * self.dtheta

    def angles(self) -> np.ndarray:
        return TWO_PI * np.arange(self.k) / self.k


@dataclass
class KineticField:
    """Density values, shape (3, m, m, k), label axis ordered S, I, R."""

    values: np.ndarray
    side: float
    t: float = 0.0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 4 or self.values.shape[0] != 3 \
                or self.values.shape[1] != self.values.shape[2]:
            raise GridError("field values must have shape (3, m, m, k)")

    @property
    def m(self) -> int:
        return self.values.shape[1]

    @property
    def k(self) -> int:
        return self.values.shape[3]

    @property
    def cell_measure(self) -> float:
        h = self.side / self.m
        return h * h * TWO_PI / self.k

    def mass(self) -> float:
        return float(self.values.sum() * self.cell_measure)

    def label_masses(self) -> np.ndarray:
        return self.values.sum(axis=(1, 2, 3)) * self.cell_measure

    def copy(self) -> "KineticField":
        return KineticField(self.values.copy(), self.side, self.t)

    def coarsen(self, m2: int, k2: int) -> "KineticField":
        """Average down to an (m2, k2) grid; both factors must divide."""
        m, k = self.m, self.k
        if m % m2 != 0 or k % k2 != 0:
            raise GridError(f"coarse grid ({m2}, {k2}) must divide ({m}, {k})")
        v = self.values.reshape(3, m2, m // m2, m2, m // m2, k2, k // k2)
        return KineticField(v.mean(axis=(2, 4, 6)), self.side, self.t)


def field_from_initial(ic: InitialCondition, grid: GridSpec) -> KineticField:
    if abs(ic.side - grid.side) > 0:
        raise GridError("initial condition and grid disagree on the domain side")
    return KineticField(ic.field_values(grid.m, grid.k), grid.side, 0.0)


class DiscKernel:
    """Disc indicator on the periodic cell-center lattice.

    A cell belongs to the stencil iff its center lies strictly within r0 of
    the target center.  ``direct`` sums rolled copies over the stencil;
    ``spectral`` multiplies in Fourier space.  Both include the cell-area
    quadrature weight and agree to rounding.  ``disc_area`` is the area
    the stencil covers, the lattice stand-in for pi * r0**2.
    """

    def __init__(self, m: int, side: float, r0: float):
        h = side / m
        idx = np.arange(m)
        w = np.minimum(idx, m - idx) * h
        d2 = w[:, None] ** 2 + w[None, :] ** 2
        self.mask = d2 < r0 * r0
        self.area = h * h
        self.disc_area = float(self.mask.sum() * self.area)
        self.offsets = np.argwhere(self.mask)
        self.fft = np.fft.rfft2(self.mask.astype(float))

    def direct(self, density: np.ndarray) -> np.ndarray:
        out = np.zeros_like(density)
        for di, dj in self.offsets:
            out += np.roll(density, (di, dj), axis=(0, 1))
        return out * self.area

    def spectral(self, density: np.ndarray) -> np.ndarray:
        conv = np.fft.irfft2(np.fft.rfft2(density) * self.fft, s=density.shape)
        return conv * self.area


def _linear_shift(values: np.ndarray, shift: float, axis: int) -> np.ndarray:
    """Shift a periodic axis by a (possibly fractional) number of cells.

    Equivalent to semi-Lagrangian advection with linear interpolation at
    the departure points; integer shifts reduce to an exact roll.
    """
    s = math.floor(shift)
    w = shift - s
    m = values.shape[axis]

    def rolled(shift_cells):
        return values if shift_cells % m == 0 else np.roll(values, shift_cells, axis=axis)

    if w == 0.0:
        return rolled(s)
    out = (1.0 - w) * rolled(s)
    out += w * rolled(s + 1)
    return out


def transport_step(fld: KineticField, dt: float) -> KineticField:
    """Advect each heading slice by its own constant displacement."""
    m, k = fld.m, fld.k
    h = fld.side / m
    out = np.empty_like(fld.values)
    for kv in range(k):
        theta = TWO_PI * kv / k
        sx = math.cos(theta) * dt / h
        sy = math.sin(theta) * dt / h
        slab = _linear_shift(fld.values[:, :, :, kv], sx, axis=1)
        out[:, :, :, kv] = _linear_shift(slab, sy, axis=2)
    return KineticField(out, fld.side, fld.t + dt)


def scattering_step(fld: KineticField, dt: float) -> KineticField:
    """Exact relaxation of every cell toward its angular mean."""
    decay = math.exp(-dt)
    fbar = fld.values.mean(axis=3, keepdims=True)
    out = decay * fld.values
    out += (1.0 - decay) * fbar
    return KineticField(out, fld.side, fld.t)


def infection_intensity(fld: KineticField, r0: float,
                        kernel: DiscKernel | None = None) -> np.ndarray:
    """Dimensionless interaction intensity grid in [0, 1].

    Spectral convolution of the angle-integrated infected density with the
    disc indicator of radius r0.
    """
    if kernel is None:
        kernel = DiscKernel(fld.m, fld.side, r0)
    return _density_and_intensity(fld, kernel)[1]


def _density_and_intensity(fld: KineticField, kernel: DiscKernel):
    """The angle-integrated infected density of ``fld`` and its intensity;
    the half reaction's predictor reuses the density."""
    rho_i = fld.values[1].sum(axis=2) * (TWO_PI / fld.k)
    return rho_i, np.clip(kernel.spectral(rho_i), 0.0, 1.0)


def reaction_step(fld: KineticField, nf: np.ndarray, params: ModelParams, dt: float,
                  adjoint: bool = False) -> KineticField:
    """Local label exchange with the intensity frozen over dt.

    S decays into I at rate infection_rate * nf, then I decays into R at
    rate recovery_rate, both as exact exponential updates; ``adjoint``
    applies the two exchanges in the opposite order, which the solver uses
    on the trailing half-step to keep the full splitting symmetric.  The
    per-cell label sum is conserved.
    """
    v = fld.values
    out = np.empty_like(v)
    fs, fi, fr = v[0], v[1], v[2]
    ds = np.exp(-params.infection_rate * dt * nf)[:, :, None]
    di = math.exp(-params.recovery_rate * dt)

    def s_to_i(fs, fi):
        s_new = fs * ds
        return s_new, fi + (fs - s_new)

    def i_to_r(fi, fr):
        i_new = fi * di
        return i_new, fr + (fi - i_new)

    if adjoint:
        fi, fr = i_to_r(fi, fr)
        fs, fi = s_to_i(fs, fi)
    else:
        fs, fi = s_to_i(fs, fi)
        fi, fr = i_to_r(fi, fr)
    out[0], out[1], out[2] = fs, fi, fr
    return KineticField(out, fld.side, fld.t)


@dataclass
class FieldTrajectory:
    """Solver output: requested snapshots plus the intensity record.

    ``snapshots`` hold full fields at the requested times;
    ``nf_times``/``nf_values`` sample the intensity densely enough for
    interpolation by downstream consumers; the mass series tracks
    per-label masses every step.
    """

    grid: GridSpec
    snapshot_times: np.ndarray
    snapshots: list
    nf_times: np.ndarray
    nf_values: np.ndarray
    mass_times: np.ndarray
    masses: np.ndarray
    clamp_count: int


def _on_step_grid(t: float, dt: float) -> int:
    steps = t / dt
    k = round(steps)
    if abs(steps - k) > 1e-9 * max(1.0, abs(steps)):
        raise GridError(f"time {t} does not sit on the dt={dt} step grid")
    return int(k)


def _reaction_half(fld: KineticField, rho_i: np.ndarray, nf0: np.ndarray,
                   params: ModelParams, kernel: DiscKernel, dt_half: float,
                   adjoint: bool) -> KineticField:
    """Half reaction with trapezoidal refresh of the frozen intensity.

    ``rho_i`` and ``nf0`` are the infected density and the intensity of
    ``fld`` (``_density_and_intensity``).  A predictor with ``nf0`` provides
    the endpoint intensity; the corrector applies the exponential update with
    the average.  The predictor only needs the angle-integrated densities:
    the update factors are heading-independent, so the predicted infected
    density follows from the S and I densities alone.  Keeps the reaction
    sub-flow locally third-order accurate, preserving overall second order
    of the splitting.
    """
    if params.infection_rate == 0.0:
        return reaction_step(fld, nf0, params, dt_half, adjoint)
    rho_s = fld.values[0].sum(axis=2) * (TWO_PI / fld.k)
    ds = np.exp(-params.infection_rate * dt_half * nf0)
    di = math.exp(-params.recovery_rate * dt_half)
    if adjoint:
        rho_i_pred = rho_i * di + rho_s * (1.0 - ds)
    else:
        rho_i_pred = (rho_i + rho_s * (1.0 - ds)) * di
    nf1 = np.clip(kernel.spectral(rho_i_pred), 0.0, 1.0)
    return reaction_step(fld, 0.5 * (nf0 + nf1), params, dt_half, adjoint)


def solve(initial: KineticField, params: ModelParams, grid: GridSpec, t_max: float,
          snapshot_times=(), nf_stride: int = 10) -> FieldTrajectory:
    """Integrate to t_max with Strang splitting on the grid's dt.

    Snapshot times must sit on the step grid.  ``nf_stride`` controls how
    densely the intensity record is sampled (every that many steps).  With
    zero infection and recovery rates the reaction steps are exact
    identities, so the solve is the pure transport-scattering flow.
    """
    if initial.m != grid.m or initial.k != grid.k or initial.side != grid.side:
        raise GridError("initial field does not match the grid spec")
    n_steps = _on_step_grid(t_max, grid.dt)
    snap_times = np.asarray(sorted(snapshot_times), dtype=float)
    if snap_times.size and (snap_times[0] < 0 or snap_times[-1] > t_max):
        raise GridError(f"snapshot times must lie in [0, {t_max}]")
    snap_steps = {_on_step_grid(t, grid.dt): t for t in snap_times}

    kernel = DiscKernel(grid.m, grid.side, params.radius)
    fld = initial.copy()
    dt = grid.dt
    half = 0.5 * dt

    snapshots = []
    nf_times, nf_values = [], []
    mass_times, masses = [], []
    clamps = 0

    def record(step_idx):
        """Clamp and record the step's field; returns its infected density
        and intensity, which the next step's leading half reaction starts
        from."""
        nonlocal clamps
        if fld.values.min() < 0.0:
            clamps += int((fld.values < 0).sum())
            np.clip(fld.values, 0.0, None, out=fld.values)
        rho_nf = _density_and_intensity(fld, kernel)
        mass_times.append(fld.t)
        masses.append(fld.label_masses())
        if step_idx % nf_stride == 0 or step_idx == n_steps:
            nf_times.append(fld.t)
            nf_values.append(rho_nf[1])
        if step_idx in snap_steps:
            snapshots.append(fld.copy())
        return rho_nf

    rho_nf = record(0)
    for s in range(1, n_steps + 1):
        fld = _reaction_half(fld, *rho_nf, params, kernel, half, adjoint=False)
        del rho_nf  # kept to the end of the step, it cost 30 % more page faults
        fld = scattering_step(fld, half)
        fld = transport_step(fld, dt)
        fld = scattering_step(fld, half)
        fld = _reaction_half(fld, *_density_and_intensity(fld, kernel), params, kernel,
                             half, adjoint=True)
        fld.t = initial.t + s * dt
        rho_nf = record(s)

    return FieldTrajectory(grid, snap_times, snapshots,
                           np.asarray(nf_times), np.asarray(nf_values),
                           np.asarray(mass_times), np.asarray(masses), clamps)


def save_field(path, fld: KineticField) -> None:
    """Write the binary snapshot format: a fixed header then raw float64.

    Header: magic "EPKF", version, m, k (uint32 little-endian), side, t
    (float64); payload: values in C order with the label axis first
    (S, I, R), then x, y, heading.
    """
    header = struct.pack("<4sIII dd", FIELD_MAGIC, FIELD_VERSION,
                         fld.m, fld.k, fld.side, fld.t)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(fld.values, dtype="<f8").tobytes())


def load_field(path) -> KineticField:
    with open(path, "rb") as fh:
        header = fh.read(struct.calcsize("<4sIII dd"))
        magic, version, m, k, side, t = struct.unpack("<4sIII dd", header)
        if magic != FIELD_MAGIC:
            raise GridError(f"{path} is not a field snapshot")
        if version != FIELD_VERSION:
            raise GridError(f"unsupported field snapshot version {version}")
        data = np.frombuffer(fh.read(), dtype="<f8").reshape(3, m, m, k)
    return KineticField(data.copy(), side, t)
