"""Acceptance criteria, one test per promised number at its stated tolerance.

One criterion, ``test_two_mode_shaped_wide_spacing`` (fig2), is marked
``known_shortfall``: the computed error is converged and agrees between
two engines, yet it sits far above the quoted value, and the cause is not
settled.  Its tolerance is kept as stated instead of being widened; the
assertion message records what has been measured.
"""

import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, reject, strategies as st

from phonondd.model import (
    DEFAULT_ION_MASS,
    DEFAULT_SECULAR_FREQUENCY,
    FockSpace,
    IonChainConfig,
    basis_state,
    build_coupling_matrix,
    coupling_rate,
)
from phonondd.propagation import ModeMaps, SchedulePropagator
from phonondd.pulses import (
    TrapParams,
    dc_waveform,
    design_pulse,
    rf_waveform,
    sample_pulse,
    solve_strength,
)
from phonondd.scenarios import get_scenario, scenario_catalog, sweep
from phonondd.sequences import (
    DDSpec,
    decoupling_failures,
    feasibility_bounds,
    synthesize,
)

from dense_oracle import evolve_shaped, hopping_hamiltonian, modulation_hamiltonian
from convergence import convergence_check
from fock_labels import occupations
from pulse_checks import ermakov_residual, plateau_excursion
from schedule_text import schedule_from_text, schedule_to_text
from trap_inverse import dc_to_omega_sq, rf_to_omega_sq

W0 = DEFAULT_SECULAR_FREQUENCY
T0 = 1.0 / 2.2e6

NARROW = 27.6e-6
WIDE = 43.8e-6

known_shortfall = pytest.mark.known_shortfall


def hop_window(spacing):
    return math.pi / (2 * coupling_rate(spacing, DEFAULT_ION_MASS, W0))


def within_factor(value, reference, factor):
    return reference / factor <= value <= reference * factor


# --- hopping rates ---------------------------------------------------------

def test_hopping_rate_narrow_spacing():
    got = coupling_rate(NARROW, DEFAULT_ION_MASS, W0) / (2 * math.pi)
    assert abs(got - 1.9e3) / 1.9e3 <= 0.01, f"kappa/2pi = {got:.4f} Hz"


def test_hopping_rate_wide_spacing():
    # "0.47 kHz at 43.8 um": each figure is good to half a step of its last
    # digit, and kappa ~ d^-3 carries the spacing step into the rate.
    quote, quote_half_step = 470.0, 5.0
    spacing_half_step = 0.05e-6
    band = quote_half_step + quote * 3 * spacing_half_step / WIDE
    got = coupling_rate(WIDE, DEFAULT_ION_MASS, W0) / (2 * math.pi)
    assert abs(got - quote) <= band, (
        f"kappa/2pi = {got:.4f} Hz is {abs(got - quote):.3f} Hz from the "
        f"0.47 kHz quote; the band of {band:.3f} Hz is the quote's half-step "
        f"({quote_half_step:.0f} Hz) plus the {spacing_half_step * 1e6:.2f} um "
        "spacing half-step carried through kappa ~ d^-3.")


# --- pulse design ----------------------------------------------------------

def catalog_strength(name):
    """Dip depth and (T_P, T_u, T_d) in periods of the pulse ``name`` runs."""
    cfg = get_scenario(name)
    k = solve_strength(cfg.pulse_duration, cfg.pulse_ramp_up,
                       cfg.pulse_ramp_down, cfg.pulse_sharpness,
                       W0, cfg.target_phase)
    geometry = ", ".join(f"{t / T0:.2f}" for t in (
        cfg.pulse_duration, cfg.pulse_ramp_up, cfg.pulse_ramp_down))
    return k, f"({geometry}) T0"


def test_pulse_strength_long_window():
    k, geometry = catalog_strength("fig1a")
    assert abs(k - 0.0529) / 0.0529 <= 0.02, (
        f"k = {k:.6f} on the fig1a pulse, (T_P, T_u, T_d) = {geometry}")


def test_pulse_strength_short_window():
    # The quoted 2.0 T0 ramp time is the pair's total, one period per ramp
    # as in fig1b; two 2.0 T0 ramps would overlap inside the 2.2 T0 window.
    k, geometry = catalog_strength("fig1b")
    assert abs(k - 0.1636) / 0.1636 <= 0.05, (
        f"k = {k:.6f} on the fig1b pulse, (T_P, T_u, T_d) = {geometry}")


def test_pulse_plateau_excursion():
    pulse = design_pulse(8.8 * T0, ramp_up=4.4 * T0, ramp_down=4.4 * T0)
    excursion = plateau_excursion(pulse) / (2 * math.pi * 1e3)
    assert 245.0 <= excursion <= 255.0, f"{excursion:.3f} kHz"


# --- ideal schedules -------------------------------------------------------

def test_two_mode_ideal_cancellation_exact():
    space = FockSpace(2, 8)
    cm = build_coupling_matrix(IonChainConfig.equidistant(2, WIDE))
    schedule = synthesize(DDSpec(2, hop_window(WIDE)))
    res = SchedulePropagator(space, ModeMaps(cm)).run(schedule,
                                                  basis_state(space, (2, 1)))
    assert res.error_E < 1e-12, f"error = {res.error_E:.3e}"


def _converged_error(name):
    out = convergence_check(get_scenario(name), step=2, limit=0.05)
    assert out["converged"], (
        f"{name}: raising the cutoff by 2 moves the error by "
        f"{out['relative_change']:.2%}")
    return float(out["error"])


def test_three_mode_ideal_uniform_roles():
    err = _converged_error("fig3")
    assert within_factor(err, 6.4e-3, 2.0), f"error = {err:.4e}"


def test_three_mode_ideal_alternating_roles():
    err = _converged_error("fig4a")
    assert within_factor(err, 4.4e-5, 2.0), f"error = {err:.4e}"


def test_three_mode_ideal_five_repetitions():
    err = _converged_error("fig5a")
    assert within_factor(err, 1.9e-6, 2.0), f"error = {err:.4e}"


def test_repetition_scaling_slope():
    records = sweep(get_scenario("fig4a"), "n_r", [1, 2, 4, 8])
    errors = [r.error_E for r in records]
    slope = np.polyfit(np.log([1, 2, 4, 8]), np.log(errors), 1)[0]
    assert abs(slope - (-2.0)) <= 0.3, f"slope = {slope:.4f}"


# --- shaped (trap modulation) schedules ------------------------------------

def test_two_mode_shaped_narrow_long_pulse(scenario_cache):
    err = scenario_cache.record("fig1a").error_E
    assert within_factor(err, 1.0e-5, 2.0), f"error = {err:.4e}"


def test_two_mode_shaped_narrow_short_pulse(scenario_cache):
    err = scenario_cache.record("fig1b").error_E
    assert within_factor(err, 2.2e-6, 2.0), f"error = {err:.4e}"


@known_shortfall
def test_two_mode_shaped_wide_spacing(scenario_cache):
    err = scenario_cache.record("fig2").error_E
    assert within_factor(err, 2.2e-8, 10.0), (
        f"error = {err:.4e}, {err / 2.2e-8:.0f}x the 2.2e-8 quote; cause "
        "undetermined. Measured on this schedule and carve placement: the "
        "window-map engine and the dense oracle, its windows run at a "
        "cutoff of 24 that agrees with 20 to 1.1e-12, give final states "
        "1.2e-12 apart up to a global phase; n_max = 12, 14, 16 and 20 "
        "give the same error to all printed digits; the error grows about "
        "as (kappa T_P)^2 (d = 27.6 / 34.8 / 43.8 / 55.2 um gives 1.68e-5 / "
        "4.52e-6 / 1.18e-6 / 3.00e-7, T_P = 4.4 / 8.8 / 17.6 T0 gives "
        "3.00e-7 / 1.18e-6 / 4.57e-6); full window coupling gives 1.07e-6. "
        "The quotes fit no single law in kappa T_P: fig1b's 4x shorter "
        "pulse lowers fig1a's 1.0e-5 by 4.5x, while fig2's 4x weaker kappa "
        "lowers it by 455x.")


def test_three_mode_shaped_single_repetition(scenario_cache):
    err = scenario_cache.record("fig4b").error_E
    assert within_factor(err, 4.4e-5, 2.0), f"error = {err:.4e}"


def test_three_mode_shaped_five_repetitions(scenario_cache):
    err = scenario_cache.record("fig5b").error_E
    assert within_factor(err, 2.6e-6, 2.0), f"error = {err:.4e}"


# --- beam splitter under decoupling ----------------------------------------

def test_beam_splitter_ideal_single_repetition(scenario_cache):
    err = scenario_cache.record("fig6a").error_EB
    assert abs(err - 4.6e-2) <= 0.2 * 4.6e-2, f"error = {err:.4e}"


def test_beam_splitter_shaped_single_repetition(scenario_cache):
    err = scenario_cache.record("fig6b").error_EB
    assert abs(err - 4.5e-2) <= 0.2 * 4.5e-2, f"error = {err:.4e}"


def test_beam_splitter_ideal_five_repetitions(scenario_cache):
    err = scenario_cache.record("fig7a").error_EB
    assert abs(err - 1.8e-3) <= 0.2 * 1.8e-3, f"error = {err:.4e}"


def test_beam_splitter_shaped_five_repetitions(scenario_cache):
    err = scenario_cache.record("fig7b").error_EB
    assert abs(err - 1.6e-3) <= 0.2 * 1.6e-3, f"error = {err:.4e}"


def test_beam_splitter_hong_ou_mandel_populations(scenario_cache):
    for name in ("fig6a", "fig6b", "fig7a", "fig7b"):
        result = scenario_cache.result(name)
        pops = np.abs(result.final_state.amplitudes) ** 2
        space = result.space
        for bunch in ((1, 2, 0), (1, 0, 2)):
            p = pops[space.index(bunch)]
            assert abs(p - 0.5) <= 0.2 * 0.5, (name, bunch, p)


# --- property suite --------------------------------------------------------

def test_property_signed_dwell_cancellation():
    for modes in range(2, 9):
        for n_r in (1, 3):
            failures = decoupling_failures(
                synthesize(DDSpec(modes, 1.0, repetitions=n_r)))
            assert not failures, (modes, n_r, failures)
    for prot in ({0}, {1}, {0, 1}, {2}):
        spec = DDSpec(3, 1.0, protected_set=frozenset(prot))
        failures = decoupling_failures(synthesize(spec), protected_set=prot)
        assert not failures, (prot, failures)
    for modes, eta in ((4, 1), (8, 2), (8, 4)):
        spec = DDSpec(modes, 1.0, truncation_distance=eta)
        cm = build_coupling_matrix(
            IonChainConfig.equidistant(modes, WIDE, truncation_distance=eta))
        failures = decoupling_failures(synthesize(spec), couplings=cm)
        assert not failures, (modes, eta, failures)


@st.composite
def schedule_specs(draw):
    """DDSpec over M <= 8 with random protected set or reach, roles and n_r."""
    modes = draw(st.integers(1, 8))
    protected = draw(st.frozensets(st.integers(0, modes - 1)))
    reach = None if protected else draw(st.none() | st.integers(1, 8))
    roles = draw(st.none() | st.lists(st.booleans(), min_size=1, max_size=3)
                 .map(tuple))
    return DDSpec(modes, draw(st.floats(1e-6, 1e-2)),
                  repetitions=draw(st.integers(1, 5)), protected_set=protected,
                  truncation_distance=reach, level_role_swap=roles)


@given(spec=schedule_specs())
@example(spec=DDSpec(1, hop_window(NARROW)))
@example(spec=DDSpec(3, 1.0, protected_set=frozenset({0, 1, 2})))
def test_property_schedule_serialization_round_trip(spec):
    try:
        schedule = synthesize(spec)
    except ValueError:
        reject()
    assert schedule_from_text(schedule_to_text(schedule)) == schedule


def test_property_fock_index_bijection():
    for modes, cutoff in ((3, 10), (2, 14)):
        space = FockSpace(modes, cutoff)
        for i in range(space.dimension):
            assert space.index(occupations(space, i)) == i


def test_property_hamiltonian_hermiticity():
    space = FockSpace(3, 6)
    cm = build_coupling_matrix(IonChainConfig.equidistant(3, WIDE))
    h = hopping_hamiltonian(space, cm)
    assert abs(h - h.conj().T).max() == 0.0
    drive = modulation_hamiltonian(space, 1, (2 * math.pi * 250e3) ** 2, W0)
    assert abs(drive - drive.conj().T).max() == 0.0


def test_property_unitarity_drift(scenario_cache):
    for name in ("fig3", "fig4b"):
        drift = scenario_cache.record(name).norm_drift
        assert drift <= 1e-10, (name, drift)


def test_property_number_conservation():
    space = FockSpace(3, 5)
    cm = build_coupling_matrix(IonChainConfig.equidistant(3, WIDE))
    h = hopping_hamiltonian(space, cm)
    total = sum(np.asarray(space.mode_occupations(m)) for m in range(3))
    n_op = sp.diags(total.astype(float))
    assert abs((h @ n_op - n_op @ h)).max() == 0.0


def test_property_phase_gate_eigenphase():
    space = FockSpace(1, 14)
    for total, ramp in ((8.8 * T0, 4.4 * T0), (2.2 * T0, 1.0 * T0)):
        pulse = design_pulse(total, ramp_up=ramp, ramp_down=ramp)
        for n in range(5):
            out = evolve_shaped(basis_state(space, (n,)), pulse, {0})
            amp = out.amplitudes[space.index((n,))]
            target = np.exp(-1j * math.pi * (n + 0.5))
            assert abs(amp / target - 1.0) < 1e-3, (total, n)


def test_property_ermakov_residual():
    for total, ramp in ((8.8 * T0, 4.4 * T0), (2.2 * T0, 1.0 * T0)):
        pulse = design_pulse(total, ramp_up=ramp, ramp_down=ramp)
        assert ermakov_residual(pulse) <= 1e-9


def test_property_waveform_round_trips():
    pulse = design_pulse(8.8 * T0, ramp_up=4.4 * T0, ramp_down=4.4 * T0)
    trap = TrapParams()
    wsq = sample_pulse(pulse, sample_interval=2e-9).omega ** 2
    scale = np.max(np.abs(wsq))
    assert np.max(np.abs(dc_to_omega_sq(dc_waveform(wsq, trap), trap) - wsq)) \
        / scale <= 1e-10
    assert np.max(np.abs(rf_to_omega_sq(rf_waveform(wsq, trap), trap) - wsq)) \
        / scale <= 1e-10


def test_property_feasibility_bounds():
    total = hop_window(NARROW)
    single = feasibility_bounds(DDSpec(3, total), 1e-6)
    assert single.repetition_bound == 33
    assert single.mode_bound == 128
    assert single.eta_bound == 64
    five = feasibility_bounds(DDSpec(3, total, repetitions=5), 1e-6)
    assert five.mode_bound == 16
    assert five.eta_bound == 8


# --- desk scale ------------------------------------------------------------

def test_desk_scale_catalog(scenario_cache):
    for cfg in scenario_catalog():
        assert cfg.mode_count <= 3
        dim = (cfg.per_mode_cutoff + 1) ** cfg.mode_count
        assert dim <= 1331, (cfg.name, dim)
        record = scenario_cache.record(cfg.name)
        assert record.wall_time < 120.0, (cfg.name, record.wall_time)
        assert record.failure is None
