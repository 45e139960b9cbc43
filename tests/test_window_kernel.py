"""The shaped window kernel: Heisenberg maps and their exact Fock action.

A window is the Gaussian unitary U with U^dag a U = A a + B a^dag.  The
engine integrates (A, B) once per pulsed-mode set and pulse and applies
P U P to Fock vectors.  These tests check the map against the symplectic
conditions and a direct integration from a later start, and the Fock
action against three independent constructions: the closed form single
mode squeeze, the permanent formula for passive maps, and the dense
exponential of a random quadratic generator at a raised, converged cutoff.
"""

import cmath
import itertools
import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp

from phonondd import (
    DDSpec,
    FockSpace,
    IonChainConfig,
    PhononState,
    PropagatorConfig,
    SchedulePropagator,
    basis_state,
    build_coupling_matrix,
    design_pulse,
    ladder_operator,
    synthesize,
)
from phonondd.model import CouplingMatrix
from phonondd.propagation import HeisenbergMap

from dense_oracle import embed, phase_distance, project

T0 = 1.0 / 2.2e6
PULSE = design_pulse(1.1 * T0, ramp_up=0.55 * T0, ramp_down=0.55 * T0)
TIGHT = 1e-10


@st.composite
def engines(draw):
    """(engine, pulsed modes) on a random chain with M <= 3."""
    modes = draw(st.integers(1, 3))
    gaps = draw(st.lists(st.floats(25e-6, 60e-6), min_size=modes - 1,
                         max_size=modes - 1))
    positions = tuple(np.concatenate([[0.0], np.cumsum(gaps)]).tolist())
    couplings = build_coupling_matrix(IonChainConfig(modes, positions))
    coupling = draw(st.sampled_from(["rwa", "full"]))
    engine = SchedulePropagator(FockSpace(modes, 2), couplings,
                                PropagatorConfig(window_coupling=coupling))
    pulsed = draw(st.sets(st.integers(0, modes - 1), min_size=1))
    return engine, frozenset(pulsed)


def symplectic_residuals(a, b):
    eye = np.eye(a.shape[0])
    return (np.linalg.norm(a @ a.conj().T - b @ b.conj().T - eye),
            np.linalg.norm(a @ b.T - b @ a.T))


@settings(max_examples=6, deadline=None)
@given(case=engines(), fractions=st.lists(st.floats(0.0, 1.0), min_size=3,
                                          max_size=3))
def test_map_stays_symplectic(case, fractions):
    engine, pulsed = case
    heis = engine._map(pulsed, PULSE)
    for tau in [PULSE.duration] + [f * PULSE.duration for f in fractions]:
        a, b, _ = heis.at(tau)
        assert max(symplectic_residuals(a, b)) <= TIGHT


def direct_map(engine, pulsed, start):
    """(A, B) integrated from absolute time ``start`` with absolute phases."""
    m, w0 = engine.space.mode_count, engine.secular_frequency
    kappa = engine.couplings.kappa / 2.0
    mask = np.array([q in pulsed for q in range(m)], dtype=float)
    full = engine.config.window_coupling == "full"

    def rhs(t, y):
        a, b = y[:m * m].reshape(m, m), y[m * m:].reshape(m, m)
        g = PULSE.drive(t - start) / (4.0 * w0)
        h = kappa + np.diag(2.0 * g * mask)
        pair = np.exp(2j * w0 * t) * (np.diag(2.0 * g * mask) + (kappa if full else 0.0))
        return -1j * np.concatenate([(h @ a + pair @ b.conj()).ravel(),
                                     (h @ b + pair @ a.conj()).ravel()])

    y0 = np.concatenate([np.eye(m).ravel(), np.zeros(m * m)]).astype(complex)
    sol = solve_ivp(rhs, (start, start + PULSE.duration), y0, method="DOP853",
                    rtol=1e-12, atol=1e-14, max_step=engine.config.step_cap(w0))
    end = sol.y[:, -1]
    return end[:m * m].reshape(m, m), end[m * m:].reshape(m, m)


@settings(max_examples=4, deadline=None)
@given(case=engines(), start_us=st.floats(0.0, 100.0))
def test_gauge_identity_against_direct_integration(case, start_us):
    engine, pulsed = case
    start = start_us * 1e-6
    a, b, _ = engine._map(pulsed, PULSE).at(PULSE.duration)
    a_direct, b_direct = direct_map(engine, pulsed, start)
    gauge = cmath.exp(2j * engine.secular_frequency * start)
    assert np.linalg.norm(a - a_direct) <= TIGHT
    assert np.linalg.norm(b * gauge - b_direct) <= TIGHT


def fock_matrix(engine, heis):
    """Columns P U P |n> for every basis state n of the engine's space."""
    dim = engine.space.dimension
    return np.column_stack([engine._apply(np.eye(dim, dtype=complex)[:, n], heis, 1.0)
                            for n in range(dim)])


def squeeze_element(m, n, r, theta):
    """<m| exp((xi^* a^2 - xi a^dag^2)/2) |n> for xi = r e^{i theta}."""
    t = math.tanh(r)
    total = 0.0
    for k in range(min(m, n) + 1):
        if (m - k) % 2 or (n - k) % 2:
            continue
        up, down = (m - k) // 2, (n - k) // 2
        total += ((-0.5 * cmath.exp(1j * theta) * t) ** up
                  * (0.5 * cmath.exp(-1j * theta) * t) ** down
                  / (math.factorial(k) * math.factorial(up) * math.factorial(down)
                     * math.cosh(r) ** k))
    return math.sqrt(math.factorial(m) * math.factorial(n) / math.cosh(r)) * total


@pytest.mark.parametrize("r,theta", [(0.34, 0.0), (0.8, 1.3), (1.5, -2.0)])
def test_single_mode_squeeze_matches_closed_form(r, theta):
    engine = SchedulePropagator(FockSpace(1, 12), CouplingMatrix(np.zeros((1, 1))))
    a = np.array([[math.cosh(r)]], dtype=complex)
    b = np.array([[-cmath.exp(1j * theta) * math.sinh(r)]])
    got = fock_matrix(engine, (a, b, 1.0 / math.sqrt(math.cosh(r))))
    expected = np.array([[squeeze_element(m, n, r, theta) for n in range(13)]
                         for m in range(13)])
    assert np.abs(got - expected).max() <= 1e-12


def permanent(matrix):
    n = matrix.shape[0]
    return sum(math.prod(matrix[i, p[i]] for i in range(n))
               for p in itertools.permutations(range(n)))


@settings(max_examples=5, deadline=None)
@given(modes=st.integers(2, 3), seed=st.integers(0, 2 ** 32 - 1))
def test_passive_map_matches_permanents(modes, seed):
    rng = np.random.default_rng(seed)
    k = rng.normal(size=(modes, modes)) + 1j * rng.normal(size=(modes, modes))
    a = scipy.linalg.expm(-1j * (k + k.conj().T))
    space = FockSpace(modes, 2)
    engine = SchedulePropagator(space, CouplingMatrix(np.zeros((modes, modes))))
    norm = 1.0 / cmath.sqrt(np.linalg.det(a.conj()))
    got = fock_matrix(engine, (a, np.zeros_like(a), norm))
    for col, row in itertools.product(range(space.dimension), repeat=2):
        n = space.occupations(col)[::-1]  # mode order
        m = space.occupations(row)[::-1]
        if sum(m) != sum(n):
            assert got[row, col] == 0.0
            continue
        # a_i^dag -> sum_j A_ji a_j^dag: rows are output modes, columns inputs
        outs = [j for j in range(modes) for _ in range(m[j])]
        ins = [i for i in range(modes) for _ in range(n[i])]
        scale = math.sqrt(math.prod(map(math.factorial, m + n)))
        expected = norm * permanent(a[np.ix_(outs, ins)]) / scale if outs else norm
        assert abs(got[row, col] - expected) <= 1e-12


def quadratic_generator(space, h, pair):
    """a^dag h a + (a^dag G a^dag + a G^* a)/2 + tr(h)/2 as a dense matrix."""
    lower = [ladder_operator(space, q) for q in range(space.mode_count)]
    out = 0.5 * np.trace(h).real * sp.identity(space.dimension, dtype=complex)
    for i, j in itertools.product(range(space.mode_count), repeat=2):
        raise_pair = lower[i].conj().T @ lower[j].conj().T
        out = out + (h[i, j] * lower[i].conj().T @ lower[j]
                     + 0.5 * (pair[i, j] * raise_pair
                              + np.conj(pair[i, j]) * raise_pair.conj().T))
    return out.toarray()


# squeezing strength, n_max and (lower, upper) raised cutoffs per mode
# count: the three-mode reference has to converge within 10^3 states
RAISED = {1: (0.1, 2, (16, 20)), 2: (0.1, 2, (18, 22)), 3: (0.01, 1, (7, 9))}


@settings(max_examples=6, deadline=None)
@given(modes=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1))
def test_random_generator_matches_dense_expm_at_raised_cutoff(modes, seed):
    rng = np.random.default_rng(seed)
    strength, n_max, cutoffs = RAISED[modes]
    h = rng.normal(size=(modes, modes)) + 1j * rng.normal(size=(modes, modes))
    h = 0.5 * (h + h.conj().T)
    pair = strength * (rng.normal(size=(modes, modes))
                       + 1j * rng.normal(size=(modes, modes)))
    pair = 0.5 * (pair + pair.T)
    kernel = np.block([[h, pair], [-pair.conj(), -h.conj()]])

    def rows(tau):
        return scipy.linalg.expm(-1j * tau * kernel)[:modes].ravel()

    heis = HeisenbergMap(modes, rows)

    space = FockSpace(modes, n_max)
    engine = SchedulePropagator(space, CouplingMatrix(np.zeros((modes, modes))))
    amps = rng.normal(size=space.dimension) + 1j * rng.normal(size=space.dimension)
    state = PhononState(space, amps / np.linalg.norm(amps))
    got = engine._apply(state.amplitudes, heis.at(1.0), 1.0)

    def reference(cutoff):
        wide = FockSpace(modes, cutoff)
        evolved = scipy.linalg.expm(-1j * quadratic_generator(wide, h, pair)) \
            @ embed(state, wide).amplitudes
        return project(PhononState(wide, evolved), space).amplitudes

    lower, upper = (reference(c) for c in cutoffs)
    assert np.linalg.norm(upper - lower) <= TIGHT
    assert phase_distance(got, upper) <= TIGHT


def test_each_pulse_gets_its_own_map():
    space = FockSpace(2, 6)
    couplings = build_coupling_matrix(IonChainConfig.equidistant(2, 30e-6))
    initial = basis_state(space, (2, 1))
    other = design_pulse(2.2 * T0, ramp_up=1.0 * T0, ramp_down=1.0 * T0)
    engine = SchedulePropagator(space, couplings)
    runs = []
    for pulse in (PULSE, other):
        schedule = synthesize(DDSpec(2, 50e-6, pulse_model="shaped", shaped_pulse=pulse))
        shared = engine.run(schedule, initial).final_state.amplitudes
        fresh = SchedulePropagator(space, couplings).run(schedule, initial)
        np.testing.assert_array_equal(shared, fresh.final_state.amplitudes)
        runs.append(shared)
    assert {pulse for _, pulse in engine._maps} == {PULSE, other}
    assert np.linalg.norm(runs[0] - runs[1]) > 1e-6
