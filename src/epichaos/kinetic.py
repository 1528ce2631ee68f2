"""Deterministic solver for the limiting transport-scattering-reaction system.

The unknown is a density f(x, v, a, t) over the periodic square, a discrete
set of headings on the circle, and the three labels.  One Strang step
composes: half reaction, half scattering, full transport, half scattering,
half reaction.  Transport is semi-Lagrangian (per heading the displacement
is constant, so the interpolation reduces to an x pass then a y pass, each
the sum of two rolled and scaled copies of the slice), scattering relaxes
each cell exactly toward its angular mean, and the reaction uses exact
exponential updates with the interaction intensity frozen per sub-step,
refreshed by a trapezoidal predictor-corrector so the splitting stays
second order.

All sub-steps map nonnegative fields to nonnegative fields and conserve the
per-cell label sum (reaction) or per-label mass (transport, scattering), so
total mass is conserved to rounding.

``KineticField`` and the snapshot file keep the (3, m, m, k) layout, label
first.  The sub-steps themselves run on a heading-first (k, 3, m, m)
working array, where each heading's slab is contiguous and the angular
sums run over the outer axis.  ``solve`` holds two such buffers for the
whole run: scattering works in place, and reaction and transport write
into the other buffer, so a step allocates nothing of full size.
``transport_step``, ``scattering_step`` and ``reaction_step`` are those
sub-steps, on heading-first arrays; transport runs a plan of ufunc calls on
views of the two buffers, built once per solve (``transport_plans``).
Every intensity, recorded or returned by ``infection_intensity``, is
computed from the densities of one heading-first array (``_densities``), so
the two agree bit for bit.
"""

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .core import TWO_PI, ModelParams
from .initial import InitialCondition

FIELD_MAGIC = b"EPKF"
FIELD_VERSION = 1


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

    def coarsen(self, m2: int, k2: int) -> "KineticField":
        """Average down to an (m2, k2) grid; both factors must divide."""
        m, k = self.m, self.k
        if m % m2 != 0 or k % k2 != 0:
            raise GridError(f"coarse grid ({m2}, {k2}) must divide ({m}, {k})")
        v = self.values.reshape(3, m2, m // m2, m2, m // m2, k2, k // k2)
        return KineticField(v.mean(axis=(2, 4, 6)), self.side, self.t)


def field_from_initial(ic: InitialCondition, grid: GridSpec) -> KineticField:
    if ic.side != grid.side:
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
        # rfft2 then irfft2 as their one-axis transforms, in the order they
        # run them: the same bits without numpy's n-d argument handling
        spec = np.fft.fft(np.fft.rfft(density), axis=0)
        spec *= self.fft
        conv = np.fft.irfft(np.fft.ifft(spec, axis=0), n=density.shape[1])
        conv *= self.area
        return conv


def _to_working(values: np.ndarray) -> np.ndarray:
    """Heading-first (k, 3, m, m) contiguous copy of (3, m, m, k) values."""
    return np.ascontiguousarray(np.moveaxis(values, 3, 0))


def _from_working(work: np.ndarray) -> np.ndarray:
    """(3, m, m, k) contiguous copy of heading-first values."""
    return np.ascontiguousarray(np.moveaxis(work, 0, 3))


def _rolled_product(src: np.ndarray, shift: int, factor: float, axis: int,
                    out: np.ndarray) -> list:
    """The ufunc calls that write into ``out`` the slab ``src`` rolled by
    ``shift`` cells along a periodic axis, times ``factor``, as
    (ufunc, x, y, out) tuples.

    One contiguous product over the flattened slab at the roll's flat
    offset puts every cell that does not wrap in place; the cells that
    wrapped are then overwritten.  Rolling the shorter way round keeps
    them few: a roll by -1 fixes one column, not m - 1.  Both slabs must be
    C-contiguous, as a flattened copy of ``out`` would drop the products.
    """
    if not (src.flags.c_contiguous and out.flags.c_contiguous):
        raise ValueError("rolled products need C-contiguous slabs")
    m = src.shape[axis]
    c = shift % m
    if 2 * c > m:
        c -= m
    flat_src, flat_out = src.ravel(), out.ravel()
    if c == 0:  # nothing wraps, and the slices below would be empty
        return [(np.multiply, flat_src, factor, flat_out)]
    offset = c * math.prod(src.shape[axis + 1:])
    lead = (slice(None),) * axis
    if c > 0:
        return [(np.multiply, flat_src[:-offset], factor, flat_out[offset:]),
                (np.multiply, src[lead + (slice(m - c, None),)], factor,
                 out[lead + (slice(None, c),)])]
    return [(np.multiply, flat_src[-offset:], factor, flat_out[:offset]),
            (np.multiply, src[lead + (slice(None, -c),)], factor,
             out[lead + (slice(m + c, None),)])]


def _linear_shift(values: np.ndarray, shift: float, axis: int, out: np.ndarray,
                  scratch: np.ndarray) -> list:
    """The ufunc calls that write into ``out`` a periodic axis of ``values``
    shifted by a (possibly fractional) number of cells; ``scratch`` has the
    shape of ``values``.

    Equivalent to semi-Lagrangian advection with linear interpolation at
    the departure points: every cell is (1 - w) * a + w * b of its two
    departure neighbours a and b.  Integer shifts reduce to an exact roll.
    """
    s = math.floor(shift)
    w = shift - s
    calls = _rolled_product(values, s, 1.0 - w, axis, out)
    if w != 0.0:
        calls += _rolled_product(values, s + 1, w, axis, scratch)
        calls.append((np.add, out, scratch, out))
    return calls


def transport_plans(a: np.ndarray, b: np.ndarray, dt: float, h: float) -> tuple:
    """The transport of heading-first ``a`` into ``b``, and of ``b`` into
    ``a``, as two plans for ``transport_step``.

    A plan is the tuple of (ufunc, x, y, out) calls that advect each
    heading slab by its own constant displacement: an x pass into a mid
    slab, then a y pass into the output, on views of the two buffers and of
    one mid and one scratch slab that both plans share.  Building it once
    per solve leaves a step only the ufunc calls themselves.
    """
    mid, scratch = np.empty_like(a[0]), np.empty_like(a[0])

    def plan(src, out):
        k = src.shape[0]
        calls = []
        for kv in range(k):
            theta = TWO_PI * kv / k
            calls += _linear_shift(src[kv], math.cos(theta) * dt / h, 1, mid, scratch)
            calls += _linear_shift(mid, math.sin(theta) * dt / h, 2, out[kv], scratch)
        return tuple(calls)

    return plan(a, b), plan(b, a)


def transport_step(plan: tuple) -> None:
    """Run a transport plan (``transport_plans``): advect each heading slab
    of its source by its own constant displacement into its output."""
    for ufunc, x, y, out in plan:
        ufunc(x, y, out=out)


def scattering_step(work: np.ndarray, dt: float) -> None:
    """Relax every cell of ``work`` exactly toward its angular mean, in place."""
    decay = math.exp(-dt)
    fbar = np.add.reduce(work, axis=0)  # work.mean(axis=0), bit for bit
    fbar /= work.shape[0]
    fbar *= 1.0 - decay
    work *= decay
    work += fbar


def _exchange(a, b, factor, a_out, b_out) -> None:
    """Label a decays by ``factor`` into label b: ``a_out = a * factor`` and
    ``b_out = b + (a - a_out)``; overwrites ``a``."""
    np.multiply(a, factor, out=a_out)
    np.subtract(a, a_out, out=a)
    np.add(b, a, out=b_out)


def reaction_step(work: np.ndarray, out: np.ndarray, nf: np.ndarray, params: ModelParams,
                  dt: float, adjoint: bool) -> None:
    """Label exchange of ``work`` into ``out`` with the intensity ``nf``
    frozen over dt; overwrites ``work``.

    S decays into I at rate infection_rate * nf, then I decays into R at
    rate recovery_rate, both as exact exponential updates; ``adjoint``
    applies the two exchanges in the opposite order, which ``solve`` uses on
    the trailing half-step to keep the splitting symmetric.  The per-cell
    label sum is conserved.
    """
    ds = np.multiply(nf, -params.infection_rate * dt)
    np.exp(ds, out=ds)
    di = math.exp(-params.recovery_rate * dt)
    s, i, r = work[:, 0], work[:, 1], work[:, 2]
    s_out, i_out, r_out = out[:, 0], out[:, 1], out[:, 2]
    if adjoint:
        _exchange(i, r, di, i_out, r_out)
        _exchange(s, i_out, ds, s_out, i_out)
    else:
        _exchange(s, i, ds, s_out, i)
        _exchange(i, r, di, i_out, r_out)


def _densities(work: np.ndarray, dtheta: float) -> np.ndarray:
    """Angle-integrated (S, I, R) densities, shape (3, m, m), of heading-first
    values: the one rule every intensity is computed from."""
    rho = np.add.reduce(work, axis=0)
    rho *= dtheta
    return rho


def _intensity(kernel: DiscKernel, rho_i: np.ndarray) -> np.ndarray:
    # np.clip keeps the sign of a zero, where np.maximum would not
    conv = kernel.spectral(rho_i)
    return np.clip(conv, 0.0, 1.0, out=conv)


def _corrected_intensity(rho: np.ndarray, nf0: np.ndarray, params: ModelParams,
                         kernel: DiscKernel, dt: float, adjoint: bool) -> np.ndarray:
    """The intensity a reaction over dt freezes: the trapezoidal average of
    the start intensity ``nf0`` and a predicted end intensity.

    ``rho`` holds the start state's densities (``_densities``).  The update
    factors are heading-independent, so the predicted infected density
    follows from the S and I densities alone.  Keeps the reaction sub-flow
    locally third-order accurate, preserving overall second order of the
    splitting.
    """
    if params.infection_rate == 0.0:
        return nf0
    # gain = rho_s * (1 - ds), the density the S to I exchange moves
    gain = np.multiply(nf0, -params.infection_rate * dt)
    np.exp(gain, out=gain)
    np.subtract(1.0, gain, out=gain)
    gain *= rho[0]
    di = math.exp(-params.recovery_rate * dt)
    if adjoint:  # rho_i * di + gain
        rho_i_pred = np.multiply(rho[1], di)
        rho_i_pred += gain
    else:  # (rho_i + gain) * di
        rho_i_pred = np.add(rho[1], gain, out=gain)
        rho_i_pred *= di
    nf = _intensity(kernel, rho_i_pred)
    nf += nf0
    nf *= 0.5
    return nf


def infection_intensity(fld: KineticField, r0: float) -> np.ndarray:
    """Dimensionless interaction intensity grid in [0, 1].

    Spectral convolution of the angle-integrated infected density with the
    disc indicator of radius r0; bit-identical to the intensity ``solve``
    records for the same field.
    """
    kernel = DiscKernel(fld.m, fld.side, r0)
    return _intensity(kernel, _densities(_to_working(fld.values), TWO_PI / fld.k)[1])


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


def solve(initial: KineticField, params: ModelParams, grid: GridSpec, t_max: float,
          snapshot_times=(), nf_stride: int = 10) -> FieldTrajectory:
    """Integrate to t_max with Strang splitting on the grid's dt.

    Snapshot times must sit on distinct grid steps.  ``nf_stride`` controls how
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
    snap_steps = {_on_step_grid(t, grid.dt) for t in snap_times}
    if len(snap_steps) < snap_times.size:
        raise GridError("snapshot times must fall on distinct steps")

    kernel = DiscKernel(grid.m, grid.side, params.radius)
    dt, half, h, dtheta = grid.dt, 0.5 * grid.dt, grid.h, grid.dtheta
    # the state lives in ``work``; reaction and transport write into
    # ``spare``, and each transport plan swaps with the buffers it reads
    work = _to_working(initial.values)
    spare = np.empty_like(work)
    plan, back = transport_plans(spare, work, dt, h)

    snapshots = []
    nf_times, nf_values = [], []
    mass_times, masses = [], []
    clamps = 0

    def record(work, step_idx):
        """Clamp and record the step's state; returns its densities and
        intensity, which the next step's leading half reaction starts
        from."""
        nonlocal clamps
        if work.min() < 0.0:
            clamps += int((work < 0).sum())
            np.clip(work, 0.0, None, out=work)
        rho = _densities(work, dtheta)
        nf = _intensity(kernel, rho[1])
        t = initial.t + step_idx * dt
        mass_times.append(t)
        mass = np.add.reduce(rho, axis=(1, 2))
        mass *= h * h
        masses.append(mass)
        if step_idx % nf_stride == 0 or step_idx == n_steps:
            nf_times.append(t)
            nf_values.append(nf)
        if step_idx in snap_steps:
            snapshots.append(KineticField(_from_working(work), grid.side, t))
        return rho, nf

    rho, nf = record(work, 0)
    for s in range(1, n_steps + 1):
        reaction_step(work, spare, _corrected_intensity(rho, nf, params, kernel, half, False),
                      params, half, adjoint=False)
        scattering_step(spare, half)
        transport_step(plan)
        scattering_step(work, half)
        rho = _densities(work, dtheta)
        nf = _corrected_intensity(rho, _intensity(kernel, rho[1]), params, kernel, half,
                                  True)
        reaction_step(work, spare, nf, params, half, adjoint=True)
        work, spare, plan, back = spare, work, back, plan
        rho, nf = record(work, s)

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
