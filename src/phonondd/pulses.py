"""Trap modulation pulse that imprints a pi phase shift on a local mode.

The trap frequency of the target ion is modulated so that the mode evolves
as a time dependent oscillator whose scale factor returns to one while the
accumulated phase, relative to a mode left at the bare frequency, reaches
pi.  The scale factor is shaped by a smooth dip

    b(t) = 1 - (k/2) * (erf(u1) - erf(u2))

with ramp coordinates u1 = (t/T_u - 1/2) s and
u2 = ((t - (T_P - T_d))/T_d - 1/2) s, so the dip depth k is the single
free parameter once the durations and sharpness s are fixed.  The required
drive follows from the scale factor equation

    b'' + w(t)^2 b = w0^2 / b^3

which pins w(t)^2 = (w0^2 / b^3 - b'') / b, realized in hardware by
modulating either the dc endcap voltage or the rf amplitude of the trap:
:class:`TrapParams` writes their Mathieu relation once, and
:func:`waveform_table` checks stability on its (a, q), then scales to volts.
Because b and its derivatives return to their initial values at both ends,
every Fock state |n> picks up exactly exp(-i phi (n + 1/2)) with
phi = w0 * integral dt / b^2, and the design solves for the depth k that
makes the phase excess over free evolution equal to pi.

One :class:`ShapedPulse` holds the gate, T_P, T_u, T_d, s, k and w0, and
every function here reads w0 from it: :func:`design_pulse` solves k on the
shape at depth zero and returns that shape at depth k, whose peak excursion
reads the 1 ns grid of :func:`sample_pulse`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .model import (DEFAULT_ION_MASS, DEFAULT_SECULAR_FREQUENCY, ELEMENTARY_CHARGE,
                    check_positive, check_real)

# The 48-point Gauss-Legendre rule on [-1, 1], numpy's leggauss(48) to the
# bit: its nodes and weights are exactly symmetric, so the 24 positive
# nodes and their weights are written out and mirrored.  The literals keep
# numpy.polynomial, and its import, off the run path.
_NODES = [
    0.03238017096286937, 0.0970046992094627, 0.1612223560688917,
    0.22476379039468905, 0.28736248735545555, 0.3487558862921607,
    0.4086864819907167, 0.4669029047509584, 0.523160974722233, 0.5772247260839727,
    0.6288673967765136, 0.6778723796326639, 0.7240341309238146, 0.7671590325157404,
    0.8070662040294426, 0.8435882616243935, 0.8765720202742479, 0.9058791367155696,
    0.9313866907065543, 0.9529877031604308, 0.9705915925462473, 0.9841245837228269,
    0.9935301722663508, 0.9987710072524261]
_WEIGHTS = [
    0.06473769681268365, 0.06446616443594982, 0.06392423858464787,
    0.06311419228625373, 0.06203942315989242, 0.0607044391658936,
    0.059114839698395344, 0.057277292100402916, 0.05519950369998403,
    0.05289018948519344, 0.0503590355538542, 0.04761665849249024,
    0.04467456085669423, 0.04154508294346455, 0.0382413510658305,
    0.034777222564770394, 0.031167227832798097, 0.027426509708357034,
    0.023570760839324047, 0.019616160457356056, 0.015579315722943226,
    0.011477234579234614, 0.007327553901276135, 0.0031533460523098414]
GAUSS_NODES = np.array([-x for x in reversed(_NODES)] + _NODES)
GAUSS_WEIGHTS = np.array(_WEIGHTS[::-1] + _WEIGHTS)
PANELS = 16
NEWTON_STEPS = 100  # the catalog pulses take 30-36 from the deep end
DEFAULT_SHARPNESS = 6.0
DEFAULT_TARGET_PHASE = math.pi
# The default pulse grid, and the largest grid sample_pulse builds: a sample
# peaks at 88 bytes there (its arrays and the floats erf passes through) and
# about 310 in waveform_table's text.  The catalog pulses take 4,001 at most.
SAMPLE_INTERVAL = 1e-9
MAX_PULSE_SAMPLES = 2 ** 20
TABLE_BLOCK_ROWS = 1024  # waveform_table formats this many rows at a time


def erf(x):
    """math.erf of every element of ``x``, an array of its shape."""
    x = np.asarray(x, dtype=float)
    return np.fromiter(map(math.erf, x.ravel().tolist()), float, x.size).reshape(x.shape)


class PulseDesignError(Exception):
    """Base class for pulse design failures."""


class PulseInvalidError(PulseDesignError):
    """The scale factor or the drive it implies is unphysical."""


class PulseInfeasibleError(PulseDesignError):
    """No dip depth below one reaches the requested phase."""


class TrapStabilityError(PulseDesignError):
    """The voltage waveform leaves the stable operating region."""


@dataclass(frozen=True)
class ShapedPulse:
    """A modulation pulse: the scale factor dip and the bare frequency w0.

    Parameters
    ----------
    duration:
        Pulse length T_P in seconds.
    ramp_up, ramp_down:
        Durations T_u and T_d of the entry and exit ramps.  They may
        overlap (their sum may exceed the duration); the dip is then
        shallower than the nominal depth.
    sharpness:
        Dimensionless steepness s of the erf ramps.
    depth:
        Dip depth k in [0, 1), so the scale factor stays positive.
    secular_frequency:
        Bare angular frequency w0 of the mode, rad/s.
    """

    duration: float
    ramp_up: float
    ramp_down: float
    sharpness: float = DEFAULT_SHARPNESS
    depth: float = 0.0
    secular_frequency: float = DEFAULT_SECULAR_FREQUENCY

    def __post_init__(self) -> None:
        check_positive(duration=self.duration, ramp_up=self.ramp_up,
                       ramp_down=self.ramp_down, sharpness=self.sharpness,
                       secular_frequency=self.secular_frequency)
        check_real(depth=self.depth)
        if not 0.0 <= self.depth < 1.0:
            raise ValueError(f"depth must lie in [0, 1), not {self.depth!r}")

    def drive(self, t):
        """Squared frequency excess at time ``t`` from the pulse start."""
        return omega_squared(t, self) - self.secular_frequency ** 2

    def peak_excursion(self) -> float:
        """Largest angular frequency shift from w0 (rad/s) on the sample_pulse grid."""
        return float(np.max(np.abs(sample_pulse(self).omega - self.secular_frequency)))


def _ramp_coords(t, pulse: ShapedPulse):
    s = pulse.sharpness
    u1 = (t / pulse.ramp_up - 0.5) * s
    u2 = ((t - (pulse.duration - pulse.ramp_down)) / pulse.ramp_down - 0.5) * s
    return u1, u2


def scale_factor_derivatives(t, pulse: ShapedPulse):
    """Return (b, b', b'') evaluated analytically."""
    t = np.asarray(t, dtype=float)
    s = pulse.sharpness
    r1 = s / pulse.ramp_up
    r2 = s / pulse.ramp_down
    u1, u2 = _ramp_coords(t, pulse)
    g1 = np.exp(-u1 * u1)
    g2 = np.exp(-u2 * u2)
    b = 1.0 - 0.5 * pulse.depth * (erf(u1) - erf(u2))
    c = pulse.depth / math.sqrt(math.pi)
    bd = -c * (r1 * g1 - r2 * g2)
    bdd = 2.0 * c * (u1 * r1 * r1 * g1 - u2 * r2 * r2 * g2)
    return b, bd, bdd


def omega_squared(t, pulse: ShapedPulse):
    """Instantaneous squared trap frequency that realizes the scale factor."""
    b, _, bdd = scale_factor_derivatives(t, pulse)
    return _frequency_squared(b, bdd, pulse.secular_frequency)


def _frequency_squared(b, bdd, secular_frequency: float):
    """w^2 = (w0^2 / b^3 - b'') / b from the scale factor and its curvature."""
    return (secular_frequency ** 2 / b ** 3 - bdd) / b


def _dip_on_nodes(pulse: ShapedPulse):
    """The unit-depth dip g (b = 1 - k g) and the weights on the phase nodes.

    The rule is composite Gauss-Legendre: PANELS panels of 48 nodes on each
    smooth piece between the ramp break points, which sums the phase
    integrand to roundoff.
    """
    tp = pulse.duration
    cuts = sorted(set(np.clip([0.0, pulse.ramp_up, tp - pulse.ramp_down, 0.5 * tp, tp],
                              0.0, tp).tolist()))
    edges = np.array(sorted({x for a, b in zip(cuts, cuts[1:])
                             for x in np.linspace(a, b, PANELS + 1).tolist()}))
    half = 0.5 * np.diff(edges)[:, None]
    u1, u2 = _ramp_coords((edges[:-1, None] + half * (1.0 + GAUSS_NODES)).ravel(), pulse)
    return 0.5 * (erf(u1) - erf(u2)), (half * GAUSS_WEIGHTS).ravel()


def phase_excess(pulse: ShapedPulse) -> float:
    """Accumulated phase beyond free evolution, w0 * int (1/b^2 - 1) dt."""
    g, w = _dip_on_nodes(pulse)
    return pulse.secular_frequency * float(w @ (1.0 / (1.0 - pulse.depth * g) ** 2 - 1.0))


def solve_strength(shape: ShapedPulse,
                   target_phase: float = DEFAULT_TARGET_PHASE) -> float:
    """The dip depth of ``shape`` (its own depth unread) whose phase excess
    equals ``target_phase``.

    On the phase nodes the excess is w0 sum w (1/(1 - k g)^2 - 1), convex
    and growing in k (a deeper dip means a faster rotating mode), so Newton
    from the deep end of the bracket falls onto the unique root.  Raises
    :class:`PulseInfeasibleError` when even a depth of one is not enough.
    """
    check_positive(target_phase=target_phase)
    g, w = _dip_on_nodes(shape)
    w = shape.secular_frequency * w

    def f(k: float) -> float:
        return float(w @ (1.0 / (1.0 - k * g) ** 2 - 1.0)) - target_phase

    lo, hi = 1e-6, 0.999999
    if f(hi) < 0:
        raise PulseInfeasibleError(
            "requested phase unreachable with scale factor dip below one")
    if f(lo) > 0:
        raise PulseInvalidError("phase excess already above target at zero depth")
    k = hi
    for _ in range(NEWTON_STEPS):
        new = k - f(k) / float(w @ (2.0 * g / (1.0 - k * g) ** 3))
        if new >= k:  # roundoff stops the descent: k is the root
            return k
        k = new
    raise PulseDesignError(f"dip depth not converged in {NEWTON_STEPS} Newton steps")


def design_pulse(total_duration: float,
                 ramp_up: float | None = None,
                 ramp_down: float | None = None,
                 sharpness: float = DEFAULT_SHARPNESS,
                 secular_frequency: float = DEFAULT_SECULAR_FREQUENCY,
                 target_phase: float = DEFAULT_TARGET_PHASE) -> ShapedPulse:
    """Solve for the dip depth and return the finished pulse.

    Ramp durations default to half the total duration each, which makes
    the dip a single symmetric well.  The waveform is sampled on a
    nanosecond grid and rejected if the scale factor or the squared
    frequency ever leaves the physical region.
    """
    half = 0.5 * total_duration
    shape = ShapedPulse(total_duration, half if ramp_up is None else ramp_up,
                        half if ramp_down is None else ramp_down, sharpness,
                        secular_frequency=secular_frequency)
    pulse = replace(shape, depth=solve_strength(shape, target_phase))
    sample_pulse(pulse)
    return pulse


@dataclass(frozen=True)
class PulseWaveform:
    """Sampled pulse: times, scale factor, frequency, drive strength."""

    times: np.ndarray
    scale: np.ndarray
    omega: np.ndarray
    omega_sq_excess: np.ndarray


def sample_count(duration: float, sample_interval: float = SAMPLE_INTERVAL) -> int:
    """Points of the grid that samples a ``duration`` long pulse, checked
    against MAX_PULSE_SAMPLES before any array is built."""
    check_positive(sample_interval=sample_interval)
    count = duration / sample_interval  # inf for a subnormal interval
    if not count < MAX_PULSE_SAMPLES - 0.5:  # so round(count) + 1 <= the cap
        raise ValueError(f"sample_interval {sample_interval!r} s gives {count + 1:.6g}"
                         f" samples over {duration!r} s, above the limit"
                         f" {MAX_PULSE_SAMPLES:,}")
    return max(2, int(round(count)) + 1)


def sample_pulse(pulse: ShapedPulse,
                 sample_interval: float = SAMPLE_INTERVAL) -> PulseWaveform:
    """Sample the pulse and check it is physical everywhere.

    Raises
    ------
    PulseInvalidError
        If the scale factor drops to zero or below, or the squared trap
        frequency goes negative anywhere on the grid.
    """
    t = np.linspace(0.0, pulse.duration, sample_count(pulse.duration, sample_interval))
    b, _, bdd = scale_factor_derivatives(t, pulse)
    if not np.all(b > 0.0):  # NaN fails too
        raise PulseInvalidError("scale factor is not positive over the pulse")
    wsq = _frequency_squared(b, bdd, pulse.secular_frequency)
    if not np.all(wsq >= 0.0):
        raise PulseInvalidError("squared trap frequency goes negative")
    return PulseWaveform(times=t, scale=b, omega=np.sqrt(wsq),
                         omega_sq_excess=wsq - pulse.secular_frequency ** 2)


# trap electrode model: radial confinement from an rf quadrupole with a dc
# offset, axial confinement from endcaps.  Stability parameters follow the
# standard quadrupole conventions
#   a = 4 e U0 / (m W^2 r0^2),  q = 2 e V0 / (m W^2 r0^2)
# and the radial secular frequency w obeys
#   a + q^2 / 2 = 4 (w^2 + wz^2 / 2) / W^2.

STABILITY_WARN_A = 0.05
STABILITY_WARN_Q = 0.5
STABILITY_MAX_A = 0.1
STABILITY_MAX_Q = 0.9


@dataclass(frozen=True)
class TrapParams:
    """Electrode geometry and operating point of the trap."""

    ion_mass: float = DEFAULT_ION_MASS
    drive_frequency: float = 2.0 * math.pi * 30e6
    electrode_radius: float = 5e-4
    axial_frequency: float = 2.0 * math.pi * 0.3e6
    dc_parameter: float = 0.002

    def __post_init__(self) -> None:
        check_positive(ion_mass=self.ion_mass, drive_frequency=self.drive_frequency,
                       electrode_radius=self.electrode_radius)
        check_real(axial_frequency=self.axial_frequency, dc_parameter=self.dc_parameter)
        if not 0 <= self.axial_frequency < math.inf:
            raise ValueError("axial_frequency must be non-negative and finite,"
                             f" not {self.axial_frequency!r}")
        if not math.isfinite(self.dc_parameter):
            raise ValueError(f"dc_parameter must be finite, not {self.dc_parameter!r}")

    # voltage scale m W^2 r0^2 / e shared by both stability parameters
    @property
    def _voltage_scale(self) -> float:
        return (self.ion_mass * self.drive_frequency ** 2
                * self.electrode_radius ** 2 / ELEMENTARY_CHARGE)

    def _mathieu_sum(self, omega_sq):
        """a + q^2 / 2 at each squared frequency of ``omega_sq``."""
        return (4.0 * (np.asarray(omega_sq, dtype=float) + 0.5 * self.axial_frequency ** 2)
                / self.drive_frequency ** 2)

    def dc_route(self, omega_sq, secular_frequency: float = DEFAULT_SECULAR_FREQUENCY):
        """a realizing each w^2 of ``omega_sq`` at the q of ``secular_frequency``."""
        q = self.rf_parameter(secular_frequency)
        return self._mathieu_sum(omega_sq) - 0.5 * q * q

    def rf_route(self, omega_sq):
        """q realizing each w^2 of ``omega_sq`` at the static dc point."""
        arg = self._mathieu_sum(omega_sq) - self.dc_parameter
        if np.any(arg <= 0):
            raise PulseInvalidError("secular frequency unreachable at this dc point")
        return np.sqrt(2.0 * arg)

    def rf_parameter(self, secular_frequency: float = DEFAULT_SECULAR_FREQUENCY) -> float:
        """q that yields the given radial secular frequency at this dc point."""
        return float(self.rf_route(secular_frequency ** 2))


def check_stability(a, q) -> None:
    """Warn outside the comfortable region, raise outside the stable one,
    and on a non-finite a or q."""
    amax = float(np.max(np.abs(a)))
    qmax = float(np.max(np.abs(q)))
    if not (amax <= STABILITY_MAX_A and qmax <= STABILITY_MAX_Q):  # NaN fails too
        raise TrapStabilityError(
            f"waveform unstable: |a| up to {amax:.4f}, |q| up to {qmax:.4f}")
    if amax > STABILITY_WARN_A or qmax > STABILITY_WARN_Q:
        warnings.warn(
            f"waveform close to instability: |a| up to {amax:.4f},"
            f" |q| up to {qmax:.4f}", stacklevel=2)


def dc_waveform(omega_sq, trap: TrapParams,
                secular_frequency: float = DEFAULT_SECULAR_FREQUENCY):
    """Endcap voltage U0(t) realizing w(t)^2 with the rf amplitude held fixed."""
    return trap.dc_route(omega_sq, secular_frequency) * trap._voltage_scale / 4.0


def rf_waveform(omega_sq, trap: TrapParams):
    """Rf amplitude V0(t) realizing w(t)^2 with the dc point held fixed."""
    return trap.rf_route(omega_sq) * trap._voltage_scale / 2.0


def waveform_table(pulse: ShapedPulse, trap: TrapParams | None = None,
                   sample_interval: float = SAMPLE_INTERVAL) -> str:
    """CSV text with the sampled pulse and both voltage waveforms.

    Columns: t_s, b, omega_rad_s, omega_sq_excess, U0_V, V0_V.  The dc
    column modulates the endcaps at fixed rf amplitude, the rf column
    modulates the amplitude at the fixed dc point; either alone realizes
    the pulse.  Stability of both is checked before anything is written.
    """
    if trap is None:
        trap = TrapParams()
    wf = sample_pulse(pulse, sample_interval)
    wsq, w0 = wf.omega ** 2, pulse.secular_frequency
    check_stability(trap.dc_route(wsq, w0), trap.rf_parameter(w0))
    check_stability(trap.dc_parameter, trap.rf_route(wsq))
    u0, v0 = dc_waveform(wsq, trap, w0), rf_waveform(wsq, trap)
    # one text per block of rows: the separators repeat on every row, and
    # the repr of each column is written into its places with one slice
    columns = (wf.times, wf.scale, wf.omega, wf.omega_sq_excess, u0, v0)
    row = ["", ","] * len(columns)
    row[-1] = "\n"
    parts = ["t_s,b,omega_rad_s,omega_sq_excess,U0_V,V0_V\n"]
    for start in range(0, wf.times.size, TABLE_BLOCK_ROWS):
        rows = slice(start, start + TABLE_BLOCK_ROWS)
        block = row * wf.times[rows].size
        for j, column in enumerate(columns):
            block[2 * j::len(row)] = map(repr, column[rows].tolist())
        parts.append("".join(block))
    return "".join(parts)
