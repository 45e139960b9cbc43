"""Phonon hopping decoupling toolkit for trapped ion chains.

Simulates Coulomb mediated hopping between the local radial modes of an
ion chain, synthesizes dynamical decoupling schedules that cancel it,
designs the trap modulation pulse realizing the pi phase shift those
schedules need, and propagates Fock states through full schedules to
quantify the cancellation.

The package namespace holds the scenario layer; the physics lives in
``phonondd.model``, ``phonondd.sequences``, ``phonondd.pulses`` and
``phonondd.propagation``.
"""

from .scenarios import (
    ScenarioError,
    emit_report,
    execute_scenario,
    get_scenario,
    load_reference_values,
    output_directory,
    parse_config_file,
    populations_csv,
    records_csv,
    scenario_catalog,
    sweep,
)

__version__ = "0.1.0"
