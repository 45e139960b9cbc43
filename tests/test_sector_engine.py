"""Sector engine against the full-dimension oracle on random small chains.

Initial states are superpositions that span several total phonon number
sectors and both parities of N, so the skipped empty sectors, the per
parity window integration and the scatter back into the full vector all
take part.
"""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from phonondd import (
    DDSpec,
    FockSpace,
    IonChainConfig,
    PhaseShift,
    PhononState,
    PropagatorConfig,
    SchedulePropagator,
    beam_splitter_reference,
    build_coupling_matrix,
    design_pulse,
    ladder_operator,
    synthesize,
)

from dense_oracle import dense_run

T0 = 1.0 / 2.2e6
PULSE = design_pulse(1.1 * T0, ramp_up=0.55 * T0, ramp_down=0.55 * T0)
AGREEMENT = 1e-9


@st.composite
def superpositions(draw, space):
    """Normalized state on a few basis states, both parities of N included."""
    total = sum(space.mode_occupations(q) for q in range(space.mode_count))
    even = st.sampled_from(np.flatnonzero(total % 2 == 0).tolist())
    odd = st.sampled_from(np.flatnonzero(total % 2 == 1).tolist())
    picks = {draw(even), draw(odd)}
    picks.update(draw(st.lists(st.integers(0, space.dimension - 1), max_size=2)))
    amps = np.zeros(space.dimension, dtype=complex)
    for i in picks:
        amps[i] = draw(st.floats(0.2, 1.0)) * np.exp(1j * draw(st.floats(0.0, 6.3)))
    return PhononState(space, amps / np.linalg.norm(amps))


@st.composite
def chains(draw):
    """(space, couplings, state) for a random chain with M <= 3, n_max <= 5."""
    modes = draw(st.integers(2, 3))
    gaps = draw(st.lists(st.floats(25e-6, 60e-6), min_size=modes - 1,
                         max_size=modes - 1))
    positions = tuple(np.concatenate([[0.0], np.cumsum(gaps)]).tolist())
    couplings = build_coupling_matrix(IonChainConfig(modes, positions))
    space = FockSpace(modes, draw(st.integers(2, 5)))
    return space, couplings, draw(superpositions(space))


@pytest.mark.parametrize("pulse_model,placement,coupling", [
    ("ideal", "carve", "rwa"),
    ("shaped", "carve", "rwa"),
    ("shaped", "carve", "full"),
    ("shaped", "insert", "rwa"),
    ("shaped", "insert", "full"),
])
@settings(max_examples=2, deadline=None)
@given(chain=chains(), total_us=st.floats(20.0, 100.0), samples=st.sampled_from([None, 7]))
def test_sector_engine_matches_dense_oracle(pulse_model, placement, coupling,
                                            chain, total_us, samples):
    space, couplings, initial = chain
    total = total_us * 1e-6
    shaped = pulse_model == "shaped"
    schedule = synthesize(DDSpec(space.mode_count, total, pulse_model=pulse_model,
                                 shaped_pulse=PULSE if shaped else None))
    windows = sum(isinstance(ev, PhaseShift) for ev in schedule.events)
    wall = total + (windows * PULSE.duration
                    if shaped and placement == "insert" else 0.0)
    config = PropagatorConfig(
        record_stride=None if samples is None else wall / samples,
        window_placement=placement, window_coupling=coupling)
    result = SchedulePropagator(space, couplings, config).run(schedule, initial)
    expected = dense_run(schedule, initial, couplings, config)
    assert np.linalg.norm(result.final_state.amplitudes
                          - expected.amplitudes) <= AGREEMENT
    # every recorded row, in windows too, carries both parity classes
    np.testing.assert_allclose(result.populations.sum(axis=1), 1.0, atol=AGREEMENT)


@settings(max_examples=10, deadline=None)
@given(chain=chains(), data=st.data(), angle=st.floats(-3.2, 3.2))
def test_beam_splitter_reference_matches_dense_expm(chain, data, angle):
    space, _, state = chain
    j, k = data.draw(st.permutations(range(space.mode_count)))[:2]
    aj, ak = ladder_operator(space, j), ladder_operator(space, k)
    mixer = (aj.conj().T @ ak + ak.conj().T @ aj).toarray()
    expected = scipy.linalg.expm(-1j * angle * mixer) @ state.amplitudes
    got = beam_splitter_reference(state, (j, k), angle).amplitudes
    assert np.linalg.norm(got - expected) <= AGREEMENT
