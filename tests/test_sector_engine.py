"""Sector engine against the full-dimension oracle on random small chains.

Initial states are superpositions that span several total phonon number
sectors and both parities of N, so the skipped empty sectors and the
window maps on both parities all take part.  The engine applies each
shaped window as the exact projection P U P onto its cutoff, up to a
global phase; the oracle runs each window at a raised cutoff, checks that
raising it further no longer moves the result, and projects back.  Under
the 1.1 T0 test pulse the squeezing inside a window peaks at r = 0.34, so
the oracle converges to 1e-10 only some 35 quanta above n_max: under 2,000
states at two modes, but about 80,000 at three.  Three-mode chains
therefore run an 8.8 T0 pulse (r = 0.05) on n_max <= 3, where 12 quanta
suffice (at most 4,096 states).
"""

import itertools
import re

import numpy as np
import pytest
import scipy.linalg
from hypothesis import Phase, given, settings, strategies as st

from phonondd.model import (
    HBAR,
    FockSpace,
    IonChainConfig,
    PhononState,
    basis_state,
    build_coupling_matrix,
)
from phonondd.propagation import (
    WINDOW_COUPLINGS,
    ModeMaps,
    SchedulePropagator,
    beam_splitter_reference,
)
from phonondd.pulses import design_pulse
from phonondd.sequences import DDSpec, Evolve, synthesize

from dense_oracle import dense_run, hopping_hamiltonian, ladder_operator, phase_distance
from population_record import dense_populations, record

T0 = 1.0 / 2.2e6
PULSE = design_pulse(1.1 * T0, ramp_up=0.55 * T0, ramp_down=0.55 * T0)
LONG_PULSE = design_pulse(8.8 * T0, ramp_up=4.4 * T0, ramp_down=4.4 * T0)
AGREEMENT = 1e-9
# per mode count of a shaped case: the test pulse, the largest n_max, and
# the oracle window cutoffs above n_max for the result and its convergence
# check
SHAPED = {2: (PULSE, 5, 38, 34), 3: (LONG_PULSE, 3, 12, 10)}


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
def chains(draw, shaped=False):
    """(space, couplings, state) for a random chain with M <= 3, n_max <= 5.

    Shaped three-mode chains keep n_max <= 3, see ``SHAPED``.
    """
    modes = draw(st.integers(2, 3))
    gaps = draw(st.lists(st.floats(25e-6, 60e-6), min_size=modes - 1,
                         max_size=modes - 1))
    positions = tuple(np.concatenate([[0.0], np.cumsum(gaps)]).tolist())
    couplings = build_coupling_matrix(IonChainConfig(modes, positions))
    space = FockSpace(modes, draw(st.integers(2, SHAPED[modes][1] if shaped else 5)))
    return space, couplings, draw(superpositions(space))


def window_spans(schedule):
    """(start, end) of each shaped window on the clock of the run."""
    spans, t = [], 0.0
    duration = schedule.shaped_pulse.duration
    for ev in schedule.events:
        if isinstance(ev, Evolve):
            t += ev.duration
        else:
            spans.append((t - duration, t))
    return spans


@pytest.mark.parametrize("pulse_model,coupling", [
    ("ideal", "rwa"),
    ("shaped", "rwa"),
    ("shaped", "full"),
])
# no shrink phase: each shrink step reruns 0.2-0.6 s oracle windows, so a
# failing example is reported as first found rather than minimized; the
# examples are derandomized, so each run draws the same ones and takes the
# same time
@settings(max_examples=2, deadline=None, derandomize=True,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(data=st.data(), total_us=st.floats(20.0, 100.0),
       samples=st.sampled_from([None, 7]))
def test_sector_engine_matches_dense_oracle(pulse_model, coupling, data, total_us,
                                            samples):
    shaped = pulse_model == "shaped"
    space, couplings, initial = data.draw(chains(shaped))
    pulse, _, raised, raised_check = SHAPED[space.mode_count]
    total = total_us * 1e-6
    schedule = synthesize(DDSpec(space.mode_count, total,
                                 shaped_pulse=pulse if shaped else None))
    maps = ModeMaps(couplings, window_coupling=coupling)
    result = SchedulePropagator(space, maps).run(
        schedule, initial, record_samples=2 if samples is None else samples + 1)
    spans = window_spans(schedule) if shaped else []
    if shaped:
        n_max = space.per_mode_cutoff
        expected = dense_run(schedule, initial, couplings, coupling,
                             window_cutoff=n_max + raised).amplitudes
        check = dense_run(schedule, initial, couplings, coupling,
                          window_cutoff=n_max + raised_check).amplitudes
        assert np.linalg.norm(expected - check) <= 0.5 * AGREEMENT
    else:
        expected = dense_run(schedule, initial, couplings, coupling).amplitudes
    assert phase_distance(result.final_state.amplitudes, expected) <= AGREEMENT
    # free evolution keeps the norm and each window drops the population it
    # pushes past the cutoff, so rows sum to 1 up to the first window, never
    # grow between windows, and end at the squared norm of the oracle state;
    # inside a window the population past the cutoff can return by the
    # window's end, so those rows are bounded by the last row before it
    times, sums = result.times, record(result).sum(axis=1)
    inside = np.zeros(times.size, dtype=bool)
    for lo, hi in spans:
        inside |= (lo < times) & (times < hi)
    first = spans[0][0] if spans else total
    np.testing.assert_allclose(sums[times <= first], 1.0, rtol=0, atol=AGREEMENT)
    assert np.all(np.diff(sums[~inside]) <= AGREEMENT)
    before = np.maximum.accumulate(np.where(inside, 0, np.arange(times.size)))
    assert np.all(sums <= sums[before] + AGREEMENT)
    kept = np.vdot(expected, expected).real
    assert sums[-1] == pytest.approx(kept, abs=AGREEMENT)


@pytest.mark.parametrize("coupling", WINDOW_COUPLINGS)
def test_shaped_record_keeps_one_parity_and_matches_the_oracle(coupling):
    """A shaped run from odd sectors records the odd sectors alone.

    Scattered into the cube, its last row is within AGREEMENT of the
    oracle's final populations, and the engine's final state is exactly
    zero off the record.
    """
    space = FockSpace(2, 4)
    couplings = build_coupling_matrix(IonChainConfig.equidistant(2, 43.8e-6))
    amps = np.zeros(space.dimension, dtype=complex)
    amps[space.index((2, 1))] = 0.8
    amps[space.index((0, 1))] = 0.6j
    initial = PhononState(space, amps)
    schedule = synthesize(DDSpec(2, 40e-6, shaped_pulse=PULSE))
    result = SchedulePropagator(space, ModeMaps(couplings, window_coupling=coupling)
                                ).run(schedule, initial, record_samples=9)
    odd = sum(space.mode_occupations(q) for q in range(2)) % 2 == 1
    np.testing.assert_array_equal(np.sort(result.columns), np.flatnonzero(odd))
    assert not result.final_state.amplitudes[~odd].any()
    expected = dense_run(schedule, initial, couplings, coupling,
                         window_cutoff=space.per_mode_cutoff + SHAPED[2][2]).amplitudes
    np.testing.assert_allclose(dense_populations(result)[-1], np.abs(expected) ** 2,
                               rtol=0, atol=AGREEMENT)


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


@pytest.mark.parametrize("modes,cutoff", [(1, 3), (2, 5), (3, 4)])
def test_sector_hopping_blocks_match_the_kron_build(modes, cutoff):
    space = FockSpace(modes, cutoff)
    couplings = build_coupling_matrix(IonChainConfig.equidistant(modes, 43.8e-6))
    full = hopping_hamiltonian(space, couplings).toarray() / HBAR
    engine = SchedulePropagator(space, ModeMaps(couplings))
    stored = 0
    for n in range(engine._offsets.size - 1):
        idx = engine._fock[engine._rows(n)]
        block = engine._hopping_block(n)
        np.testing.assert_allclose(block, full[np.ix_(idx, idx)], rtol=1e-14, atol=0)
        stored += np.count_nonzero(block)
    # the sector blocks hold every hopping element of the full space
    assert stored == np.count_nonzero(full)


def fock_shift_pairs(engine):
    """The pair gather tables built from shifts of the Fock index."""
    space = engine.space
    m, cutoff = space.mode_count, space.per_mode_cutoff
    occ = engine._numbers
    pairs = list(itertools.combinations_with_replacement(range(m), 2))
    flat = np.array([i * m + j for i, j in pairs])
    tables = []
    for raising in (False, True):
        sources, weights = [], []
        for i, j in pairs:
            same = float(i == j)
            shift = (cutoff + 1) ** i + (cutoff + 1) ** j
            if raising:
                weight = occ[i] * (occ[j] - same)
                inside, source = weight > 0, engine._fock - shift
            else:
                weight = (occ[i] + 1) * (occ[j] + 1 + same)
                inside = (occ[i] + 1 + same <= cutoff) & (occ[j] < cutoff)
                source = engine._fock + shift
            sources.append(engine._position[np.where(inside, source, 0)])
            weights.append(np.where(inside, (1.0 - 0.5 * same) * np.sqrt(weight), 0.0))
        tables.append((flat, np.array(sources), np.array(weights)))
    return tables


def fock_shift_levels(engine):
    """The raising levels of Gamma(Y) built from shifts of the Fock index."""
    space = engine.space
    m, base = space.mode_count, space.per_mode_cutoff + 1
    off = engine._offsets
    pos = (np.arange(space.dimension) - off[engine._total])[engine._position]
    levels = []
    for n in range(1, off.size - 1):
        occ = engine._numbers[:, engine._rows(n)]
        upper = engine._fock[engine._rows(n)]
        first = np.argmax(occ > 0, axis=0)
        parent = pos[upper - base ** first]
        rows = np.array([np.where(occ[j] > 0, pos[upper - base ** j], 0)
                         for j in range(m)])
        flat = rows[:, :, None] * (off[n] - off[n - 1]) + parent[None, None, :]
        levels.append((first, 1.0 / np.sqrt(occ[first, np.arange(upper.size)]),
                       np.sqrt(occ), flat))
    return levels


@pytest.mark.parametrize("modes,cutoff", [(1, 3), (2, 5), (3, 4), (3, 10)])
def test_ladder_moves_one_quantum(modes, cutoff):
    space = FockSpace(modes, cutoff)
    couplings = build_coupling_matrix(IonChainConfig.equidistant(modes, 43.8e-6))
    engine = SchedulePropagator(space, ModeMaps(couplings))
    down, up = engine._down, engine._up
    digits = np.array([space.mode_occupations(q) for q in range(modes)])[:, engine._fock]
    assert down.shape == up.shape == (modes, space.dimension)
    for j in range(modes):
        has, room = down[j] >= 0, up[j] >= 0
        # -1 exactly where the state is off the cube
        np.testing.assert_array_equal(has, digits[j] > 0)
        np.testing.assert_array_equal(room, digits[j] < cutoff)
        # up and down invert each other
        np.testing.assert_array_equal(up[j, down[j, has]], np.flatnonzero(has))
        np.testing.assert_array_equal(down[j, up[j, room]], np.flatnonzero(room))
        lowered = digits[:, has].copy()
        lowered[j] -= 1
        np.testing.assert_array_equal(digits[:, down[j, has]], lowered)
    np.testing.assert_array_equal(engine._boundary, (digits == cutoff).any(axis=0))
    # the tables read from the ladder equal the Fock shift construction,
    # with the levels built to every sector at once and in two steps
    top = engine._offsets.size - 2
    levels = fock_shift_levels(engine)
    stepped = SchedulePropagator(space, ModeMaps(couplings))
    low = list(stepped._levels(top // 2))
    for got, expected in [(engine._pairs(), fock_shift_pairs(engine)),
                          (engine._levels(top), levels),
                          (low, levels[:top // 2]),
                          (stepped._levels(top), levels)]:
        assert len(got) == len(expected)
        for a, b in zip(itertools.chain(*got), itertools.chain(*expected)):
            np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("pair", [(0, 0), (0, 5), (-1, 0), (0, 1, 2)])
def test_beam_splitter_reference_rejects_a_bad_pair(pair):
    state = basis_state(FockSpace(3, 2), (0, 1, 1))
    with pytest.raises(ValueError, match=re.escape(
            f"beam_splitter_pair must name two distinct modes in 0..2, not {pair}")):
        beam_splitter_reference(state, pair)


def test_engine_rejects_couplings_of_another_mode_count():
    couplings = build_coupling_matrix(IonChainConfig.equidistant(3, 43.8e-6))
    with pytest.raises(ValueError, match="coupling matrix does not match the Fock space"):
        SchedulePropagator(FockSpace(2, 3), ModeMaps(couplings))
