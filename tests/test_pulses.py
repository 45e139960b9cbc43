"""Trap modulation pulse: dip shape, phase root, waveforms, stability."""

import io
import math
import re
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import erf

from phonondd import pulses
from phonondd.model import DEFAULT_SECULAR_FREQUENCY
from phonondd.pulses import (
    MAX_PULSE_SAMPLES,
    PulseInfeasibleError,
    PulseInvalidError,
    ShapedPulse,
    TrapParams,
    TrapStabilityError,
    check_stability,
    dc_waveform,
    design_pulse,
    omega_squared,
    phase_excess,
    rf_waveform,
    sample_count,
    sample_pulse,
    scale_factor_derivatives,
    solve_strength,
    stability_parameters,
    waveform_table,
)

from pulse_checks import ermakov_residual, plateau_excursion, scale_factor
from trap_inverse import dc_to_omega_sq, rf_to_omega_sq, static_voltages

T0 = 1.0 / 2.2e6  # one secular period


@pytest.fixture(scope="module")
def long_pulse():
    return design_pulse(8.8 * T0, ramp_up=4.4 * T0, ramp_down=4.4 * T0)


@pytest.fixture(scope="module")
def short_pulse():
    return design_pulse(2.2 * T0, ramp_up=1.0 * T0, ramp_down=1.0 * T0)


@pytest.mark.parametrize("x", [0.3, np.linspace(-4.0, 4.0, 2400),
                               np.linspace(-3.0, 3.0, 12).reshape(3, 4), np.zeros(0)],
                         ids=["0-d", "1-d", "2-d", "empty"])
def test_erf_is_math_erf_per_element(x):
    expected = np.vectorize(math.erf, otypes=[float])(x)
    got = pulses.erf(x)
    assert got.shape == expected.shape and got.dtype == expected.dtype
    assert got.tobytes() == expected.tobytes()


class TestScaleFactor:
    def test_endpoints_near_unity(self, long_pulse, short_pulse):
        for p in (long_pulse, short_pulse):
            for t in (0.0, p.duration):
                assert scale_factor(t, p) == pytest.approx(1.0, abs=1e-4)

    def test_plateau_depth(self, long_pulse):
        # flat bottom of the dip sits at 1 - k up to the erf tails
        p = long_pulse
        mid = scale_factor(p.duration / 2, p)
        assert mid == pytest.approx(1.0 - p.depth, abs=1e-4)

    def test_scale_stays_positive(self, short_pulse):
        p = short_pulse
        t = np.linspace(0, p.duration, 4001)
        assert np.all(scale_factor(t, p) > 0)

    @pytest.mark.parametrize("which", ["long", "short"])
    def test_analytic_derivatives_match_finite_differences(
            self, which, long_pulse, short_pulse):
        p = long_pulse if which == "long" else short_pulse
        t = np.linspace(0.05 * p.duration, 0.95 * p.duration, 101)
        b, db, ddb = scale_factor_derivatives(t, p)
        h = 1e-4 * p.ramp_up  # balances truncation against roundoff
        fd1 = (scale_factor(t + h, p) - scale_factor(t - h, p)) / (2 * h)
        fd2 = (scale_factor(t + h, p) - 2 * b + scale_factor(t - h, p)) / h ** 2
        assert np.max(np.abs(db - fd1)) / np.max(np.abs(db)) < 1e-6
        assert np.max(np.abs(ddb - fd2)) / np.max(np.abs(ddb)) < 1e-6

    def test_params_validation(self):
        with pytest.raises(ValueError):
            ShapedPulse(0.0, 1e-6, 1e-6)
        with pytest.raises(ValueError):
            ShapedPulse(4e-6, -1e-6, 1e-6)
        with pytest.raises(ValueError):
            ShapedPulse(4e-6, 1e-6, 1e-6, depth=1.0)
        with pytest.raises(ValueError):
            ShapedPulse(4e-6, 1e-6, 1e-6, sharpness=0.0)

    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
    @pytest.mark.parametrize("field", ["duration", "ramp_up", "ramp_down", "sharpness",
                                       "secular_frequency"])
    def test_pulse_rejects_a_bad_positive_field(self, field, value):
        fields = dict(duration=4e-6, ramp_up=2e-6, ramp_down=2e-6, sharpness=6.0)
        fields[field] = value
        with pytest.raises(ValueError,
                           match=f"^{field} must be positive and finite, not {value!r}$"):
            ShapedPulse(**fields)

    @pytest.mark.parametrize("depth", [-0.1, -1e-300, 1.0, 1.5, math.nan, math.inf])
    def test_pulse_rejects_a_depth_outside_the_unit_interval(self, depth):
        message = f"depth must lie in [0, 1), not {depth!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ShapedPulse(4e-6, 2e-6, 2e-6, depth=depth)

    def test_sampling_rejects_a_nan_frequency(self, long_pulse):
        # every comparison with NaN is false, so the checks ask for the
        # physical region rather than test for leaving it.  A pulse rejects
        # a NaN frequency when built, so it is set past that check here
        pulse = replace(long_pulse)
        object.__setattr__(pulse, "secular_frequency", math.nan)
        with pytest.raises(PulseInvalidError, match="squared trap frequency"):
            sample_pulse(pulse)


class TestPhaseRoot:
    def test_phase_strictly_increasing_in_depth(self):
        ks = np.linspace(0.02, 0.9, 23)
        phis = [phase_excess(ShapedPulse(8.8 * T0, 4.4 * T0, 4.4 * T0, depth=k,
                                         secular_frequency=DEFAULT_SECULAR_FREQUENCY))
                for k in ks]
        assert all(b > a for a, b in zip(phis, phis[1:]))

    def test_frozen_roots(self):
        k_long = solve_strength(ShapedPulse(8.8 * T0, 4.4 * T0, 4.4 * T0))
        k_half = solve_strength(ShapedPulse(2.2 * T0, 1.0 * T0, 1.0 * T0))
        assert k_long == pytest.approx(0.052922561665665786, rel=1e-9)
        assert k_half == pytest.approx(0.16358236219036065, rel=1e-9)

    def test_achieved_phase_hits_target(self, long_pulse, short_pulse):
        for pulse in (long_pulse, short_pulse):
            assert phase_excess(pulse) == pytest.approx(math.pi, abs=1e-9)

    def test_custom_target_phase(self):
        pulse = design_pulse(8.8 * T0, target_phase=math.pi / 2)
        assert phase_excess(pulse) == pytest.approx(math.pi / 2, abs=1e-9)
        assert pulse.depth < 0.0529  # shallower dip for half the phase

    def test_infeasible_when_dip_too_weak(self):
        # soft, very short window cannot accumulate a pi of extra phase
        with pytest.raises(PulseInfeasibleError):
            solve_strength(ShapedPulse(0.5 * T0, 0.25 * T0, 0.25 * T0, sharpness=0.5))

    def test_rejects_nonpositive_target(self):
        with pytest.raises(ValueError):
            solve_strength(ShapedPulse(8.8 * T0, 4.4 * T0, 4.4 * T0), target_phase=0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["target_phase", "secular_frequency"])
    def test_rejects_non_finite_phase_and_frequency(self, field, value):
        phase = value if field == "target_phase" else math.pi
        frequency = value if field == "secular_frequency" else DEFAULT_SECULAR_FREQUENCY
        with pytest.raises(ValueError, match=f"{field} must be positive and finite"):
            solve_strength(ShapedPulse(8.8 * T0, 4.4 * T0, 4.4 * T0,
                                       secular_frequency=frequency), phase)


def quad_phase(tp, tu, td, depth, sharpness=6.0):
    """Phase excess by adaptive quadrature on SciPy's erf.

    epsabs and epsrel keep the result accurate to ~1e-11 rad without
    pushing the quadrature into roundoff territory.
    """
    def integrand(t):
        u1 = (t / tu - 0.5) * sharpness
        u2 = ((t - (tp - td)) / td - 0.5) * sharpness
        b = 1.0 - 0.5 * depth * (erf(u1) - erf(u2))
        return 1.0 / (b * b) - 1.0

    pts = sorted({p for p in (tu, tp - td, 0.5 * tp) if 0.0 < p < tp})
    val, _ = quad(integrand, 0.0, tp, points=pts, limit=300,
                  epsabs=1e-18, epsrel=1e-12)
    return DEFAULT_SECULAR_FREQUENCY * val


def test_gauss_rule_is_leggauss_to_the_bit():
    """The written-out 48-point rule is numpy's leggauss(48), bit for bit."""
    nodes, weights = np.polynomial.legendre.leggauss(48)
    assert pulses.GAUSS_NODES.tobytes() == nodes.tobytes()
    assert pulses.GAUSS_WEIGHTS.tobytes() == weights.tobytes()


@pytest.mark.parametrize("tp,tu,td", [
    (8.8, 4.4, 4.4), (2.2, 1.0, 1.0), (1.1, 0.5, 0.5),
    (4.0, 1.5, 2.5),  # unequal ramps
    (2.0, 1.4, 1.2),  # overlapping ramps, T_u + T_d > T_P
])
def test_fixed_rule_matches_adaptive_quadrature(tp, tu, td):
    """The Gauss-Legendre phase and its Newton depth against quad and brentq."""
    tp, tu, td = tp * T0, tu * T0, td * T0
    depth = brentq(lambda k: quad_phase(tp, tu, td, k) - math.pi,
                   1e-6, 0.999999, xtol=1e-15, rtol=8.9e-16, maxiter=200)
    assert abs(solve_strength(ShapedPulse(tp, tu, td)) - depth) <= 1e-12 * depth
    for k in (0.5 * depth, depth, 0.9):
        pulse = ShapedPulse(tp, tu, td, depth=k)
        assert abs(phase_excess(pulse) - quad_phase(tp, tu, td, k)) <= 1e-11


class TestDesignedPulse:
    def test_default_ramps_split_evenly(self):
        pulse = design_pulse(8.8 * T0)
        assert pulse.ramp_up == pytest.approx(4.4 * T0)
        assert pulse.ramp_down == pytest.approx(4.4 * T0)

    def test_plateau_excursion_long(self, long_pulse):
        excursion = plateau_excursion(long_pulse)
        assert excursion == pytest.approx(1587967.1566977762, rel=1e-6)
        assert 2 * math.pi * 245e3 < excursion < 2 * math.pi * 255e3

    def test_drive_vanishes_at_edges(self, long_pulse):
        # drive is the quadratic coefficient seen by the propagator
        assert abs(long_pulse.drive(0.0)) < 1e-4 * abs(
            long_pulse.drive(long_pulse.duration / 2))

    def test_omega_squared_consistent_with_drive(self, long_pulse):
        t = np.linspace(0, long_pulse.duration, 101)
        w0 = DEFAULT_SECULAR_FREQUENCY
        wsq = omega_squared(t, long_pulse)
        np.testing.assert_allclose(long_pulse.drive(t), wsq - w0 ** 2,
                                   rtol=1e-12, atol=1e-3)

    @pytest.mark.parametrize("which", ["long", "short"])
    def test_ermakov_residual_small(self, which, long_pulse, short_pulse):
        pulse = long_pulse if which == "long" else short_pulse
        assert ermakov_residual(pulse) <= 1e-9


class TestWaveforms:
    def test_sampling_grid(self, long_pulse):
        wf = sample_pulse(long_pulse, sample_interval=1e-9)
        assert wf.times[0] == 0.0
        assert wf.times[-1] == pytest.approx(long_pulse.duration)
        assert np.all(np.diff(wf.times) > 0)
        assert np.all(wf.scale > 0)
        assert np.all(wf.omega > 0)

    @pytest.mark.parametrize("which", ["long", "short"])
    def test_sampled_drive_is_omega_squared_bit_for_bit(self, which, long_pulse,
                                                        short_pulse):
        # sample_pulse forms w^2 from the (b, b'') of its positivity check
        pulse = long_pulse if which == "long" else short_pulse
        wf = sample_pulse(pulse)
        w0 = pulse.secular_frequency
        assert np.array_equal(wf.omega_sq_excess,
                              omega_squared(wf.times, pulse) - w0 ** 2)

    def test_voltage_round_trips(self, long_pulse):
        trap = TrapParams()
        wf = sample_pulse(long_pulse, sample_interval=2e-9)
        wsq = wf.omega ** 2
        u0 = dc_waveform(wsq, trap)
        v0 = rf_waveform(wsq, trap)
        back_dc = dc_to_omega_sq(u0, trap)
        back_rf = rf_to_omega_sq(v0, trap)
        scale = np.max(np.abs(wsq))
        assert np.max(np.abs(back_dc - wsq)) / scale <= 1e-10
        assert np.max(np.abs(back_rf - wsq)) / scale <= 1e-10

    def test_static_voltages_frozen(self):
        trap = TrapParams()
        u0, v0 = static_voltages(trap)
        assert u0 == pytest.approx(1.841242344807103, rel=1e-9)
        assert v0 == pytest.approx(365.57922267970207, rel=1e-9)
        assert trap.rf_parameter() == pytest.approx(0.19855030149113906, rel=1e-9)

    def test_table_format(self, long_pulse):
        text = waveform_table(long_pulse, TrapParams(), sample_interval=4e-9)
        lines = text.strip().splitlines()
        assert lines[0] == "t_s,b,omega_rad_s,omega_sq_excess,U0_V,V0_V"
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) == pytest.approx(1.0, abs=1e-4)
        # parseable and rectangular
        data = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1)
        assert data.shape[1] == 6

    def test_stability_zones(self):
        check_stability(0.01, 0.2)  # quiet
        with pytest.warns(UserWarning):
            check_stability(0.06, 0.2)
        with pytest.raises(TrapStabilityError):
            check_stability(0.2, 0.2)
        with pytest.raises(TrapStabilityError):
            check_stability(0.01, 0.95)

    def test_pulse_waveforms_stay_stable(self, long_pulse, short_pulse):
        trap = TrapParams()
        for pulse in (long_pulse, short_pulse):
            wf = sample_pulse(pulse, sample_interval=2e-9)
            a, q = stability_parameters(trap, dc_waveform(wf.omega ** 2, trap),
                                        static_voltages(trap)[1])
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                check_stability(a, q)

    def test_trap_params_validation(self):
        with pytest.raises(ValueError):
            TrapParams(drive_frequency=0.0)
        with pytest.raises(ValueError):
            TrapParams(axial_frequency=-1.0)

    @pytest.mark.parametrize("field,value,message", [
        ("ion_mass", math.nan, "ion_mass must be positive and finite"),
        ("ion_mass", math.inf, "ion_mass must be positive and finite"),
        ("drive_frequency", math.nan, "drive_frequency must be positive and finite"),
        ("drive_frequency", math.inf, "drive_frequency must be positive and finite"),
        ("electrode_radius", math.nan, "electrode_radius must be positive and finite"),
        ("electrode_radius", 0.0, "electrode_radius must be positive and finite"),
        ("axial_frequency", math.nan, "axial_frequency must be non-negative and finite"),
        ("axial_frequency", math.inf, "axial_frequency must be non-negative and finite"),
        ("dc_parameter", math.nan, "dc_parameter must be finite"),
        ("dc_parameter", -math.inf, "dc_parameter must be finite"),
    ])
    def test_trap_params_reject_non_finite_values(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{message}, not {value!r}$"):
            TrapParams(**{field: value})

    @pytest.mark.parametrize("interval", [math.nan, math.inf, 0.0, -1e-9])
    def test_sample_interval_must_be_positive_and_finite(self, long_pulse, interval):
        with pytest.raises(ValueError, match="sample_interval must be positive and finite"):
            sample_pulse(long_pulse, interval)

    @pytest.mark.parametrize("interval,count", [(5e-324, "inf"), (1e-300, "4e+294")])
    def test_oversized_grid_rejected_before_any_array(self, long_pulse, interval, count):
        message = (f"sample_interval {interval!r} s gives {count} samples over"
                   f" {long_pulse.duration!r} s, above the limit {MAX_PULSE_SAMPLES:,}")
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                sample_pulse(long_pulse, interval)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    def test_grid_cap_admits_exactly_the_cap(self):
        assert sample_count(MAX_PULSE_SAMPLES - 1.0, 1.0) == MAX_PULSE_SAMPLES
        assert sample_count(MAX_PULSE_SAMPLES - 1.5, 1.0) == MAX_PULSE_SAMPLES - 1
        with pytest.raises(ValueError, match="above the limit"):
            sample_count(MAX_PULSE_SAMPLES - 0.5, 1.0)

    @pytest.mark.parametrize("a,q", [(math.nan, 0.2), (0.01, math.nan),
                                     (math.inf, 0.2), (0.01, -math.inf),
                                     (np.array([0.01, math.nan]), 0.2)])
    def test_stability_rejects_non_finite_parameters(self, a, q):
        with pytest.raises(TrapStabilityError, match="waveform unstable"):
            check_stability(a, q)
