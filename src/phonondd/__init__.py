"""Phonon hopping decoupling toolkit for trapped ion chains.

Simulates Coulomb mediated hopping between the local radial modes of an
ion chain, synthesizes dynamical decoupling schedules that cancel it,
designs the trap modulation pulse realizing the pi phase shift those
schedules need, and propagates Fock states through full schedules to
quantify the cancellation.
"""

from .model import (
    CONSTANTS,
    DEFAULT_ION_MASS,
    DEFAULT_SECULAR_FREQUENCY,
    CouplingMatrix,
    FockSpace,
    IonChainConfig,
    PhononState,
    PhysicalConstants,
    basis_state,
    build_coupling_matrix,
    compute_bare_frequencies,
    coupling_rate,
    hopping_hamiltonian,
    ladder_operator,
    modulation_hamiltonian,
)
from .sequences import (
    DDSpec,
    Evolve,
    FeasibilityBounds,
    PhaseShift,
    PulseSchedule,
    SignedDwellReport,
    SignTrace,
    build_sign_trace,
    default_role_swap,
    feasibility_bounds,
    repeat_schedule,
    schedule_from_text,
    schedule_to_text,
    signed_dwell_check,
    synthesize,
    synthesize_concatenated,
    synthesize_protected,
    synthesize_truncated,
)
from .pulses import (
    BFunctionParams,
    PulseDesignError,
    PulseInfeasibleError,
    PulseInvalidError,
    PulseWaveform,
    ShapedPulse,
    TrapParams,
    TrapStabilityError,
    check_stability,
    design_pulse,
    ermakov_residual,
    omega_squared,
    phase_excess,
    sample_pulse,
    scale_factor,
    scale_factor_derivatives,
    solve_strength,
    stability_parameters,
    waveform_table,
)
from .propagation import (
    PropagationError,
    PropagatorConfig,
    SchedulePropagator,
    SimulationResult,
    apply_ideal_phase,
    beam_splitter_reference,
    error_beam_splitter,
    error_overlap,
    number_expectation,
    run_schedule,
)
from .scenarios import (
    ResultRecord,
    ScenarioConfig,
    ScenarioError,
    build_scenario,
    convergence_check,
    emit_report,
    execute_scenario,
    get_scenario,
    load_reference_values,
    parse_config_file,
    parse_config_text,
    populations_csv,
    records_csv,
    run_scenario,
    scenario_catalog,
    sweep,
)

__version__ = "0.1.0"
