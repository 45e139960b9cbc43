"""Voltages back to the squared trap frequency, for round-trip checks.

``phonondd.pulses`` maps a squared radial frequency to electrode voltages
by either drive route; these map the voltages back at the same operating
point.
"""

import numpy as np

from phonondd.model import DEFAULT_SECULAR_FREQUENCY


def dc_to_omega_sq(dc_voltage, trap, secular_frequency=DEFAULT_SECULAR_FREQUENCY):
    """Inverse of :func:`phonondd.pulses.dc_waveform`."""
    q = trap.rf_parameter(secular_frequency)
    a = 4.0 * np.asarray(dc_voltage, dtype=float) / trap._voltage_scale
    return ((a + 0.5 * q * q) * trap.drive_frequency ** 2 / 4.0
            - 0.5 * trap.axial_frequency ** 2)


def rf_to_omega_sq(rf_voltage, trap):
    """Inverse of :func:`phonondd.pulses.rf_waveform`."""
    q = 2.0 * np.asarray(rf_voltage, dtype=float) / trap._voltage_scale
    return ((trap.dc_parameter + 0.5 * q * q) * trap.drive_frequency ** 2 / 4.0
            - 0.5 * trap.axial_frequency ** 2)


def static_voltages(trap, secular_frequency=DEFAULT_SECULAR_FREQUENCY):
    """(U0, V0) in volts that realize the secular frequency."""
    u0 = trap.dc_parameter * trap._voltage_scale / 4.0
    v0 = trap.rf_parameter(secular_frequency) * trap._voltage_scale / 2.0
    return u0, v0
