"""Checks of a designed pulse against the shape it is meant to realize."""

import math

import numpy as np

from phonondd.pulses import BFunctionParams, ShapedPulse, omega_squared

erf = np.vectorize(math.erf, otypes=[float])


def scale_factor(t, params: BFunctionParams):
    """The dip b(t) = 1 - (k/2) (erf(u1) - erf(u2)); accepts scalars or arrays.

    u1 = (t/T_u - 1/2) s and u2 = ((t - (T_P - T_d))/T_d - 1/2) s, as in the
    module docstring of ``phonondd.pulses``.
    """
    t = np.asarray(t, dtype=float)
    s = params.sharpness
    u1 = (t / params.ramp_up - 0.5) * s
    u2 = ((t - (params.total_duration - params.ramp_down)) / params.ramp_down - 0.5) * s
    return 1.0 - 0.5 * params.depth * (erf(u1) - erf(u2))


def plateau_excursion(pulse: ShapedPulse, samples: int = 2001) -> float:
    """Frequency shift at the bottom of the dip (rad/s).

    Slightly below the sampled peak, which overshoots during the ramps.
    """
    t = np.linspace(0.0, pulse.duration, samples)
    b = scale_factor(t, pulse.params)
    bottom = t[int(np.argmin(b))]
    w = math.sqrt(float(omega_squared(bottom, pulse.params,
                                      pulse.secular_frequency)))
    return w - pulse.secular_frequency


def ermakov_residual(pulse: ShapedPulse, samples: int = 2001) -> float:
    """Worst relative violation of b'' + w^2 b = w0^2 / b^3 on a grid.

    The second derivative is recomputed numerically from the sampled scale
    factor (fourth order five point stencil, accurate enough in double
    precision even for the sharp short pulse), so this checks the drive
    against the shape it is supposed to realize rather than restating the
    construction.
    """
    t = np.linspace(0.0, pulse.duration, samples)
    h = t[1] - t[0]
    b = np.asarray(scale_factor(t, pulse.params))
    wsq = omega_squared(t, pulse.params, pulse.secular_frequency)
    w0sq = pulse.secular_frequency ** 2
    bdd = (-b[:-4] + 16.0 * b[1:-3] - 30.0 * b[2:-2] + 16.0 * b[3:-1]
           - b[4:]) / (12.0 * h * h)
    mid = slice(2, -2)
    resid = bdd + wsq[mid] * b[mid] - w0sq / b[mid] ** 3
    return float(np.max(np.abs(resid)) / w0sq)
