"""The shaped window kernel: Heisenberg maps and their exact Fock action.

A window is the Gaussian unitary U with U^dag a U = A a + B a^dag.  The
engine finds (A, B) once per pulsed-mode set and pulse by doubling
sixth-order Magnus steps and applies P U P to Fock vectors.  These tests
check the map against the symplectic conditions, a direct integration from
a later start and the closed form Lewis-Riesenfeld map of a lone mode;
its order, step doubling certificate, failure at the step ceiling and
drive reads; the real quadrature generators and the commutator basis
Magnus step against the complex lab frame blocks and the nested
commutator form; the accepted step count of every catalog map; the map
of a 32-mode chain, built with no Fock space; and the Fock action against
four independent constructions: the closed form single mode squeeze, the
permanent formula for passive maps, the dense exponential of a random
quadratic generator at a raised, converged cutoff, and the Miatto-Quesada
recurrence for its matrix elements in extended precision.  Whole shaped
runs of two and three modes, under both window couplings, match an oracle
of the direct integration, that recurrence and dense exponentials of the
hopping between the windows.  Each pair
series, run to its end, matches the dense exponential of its pair
operator.  A window's maps applied as one batch match each map applied
alone, bit for bit, on a catalog window whose rows stop at different
terms and on a batch wider than one row chunk.  The trim of sub-round-off sectors at each window end and the
early stop of the raising series are checked against the bounds they rest
on: the apply is a contraction, a trim drops at most eps of the norm, a
stop leaves out at most its tail bound, and a run moves by at most eps per
window end through the trims and 3 eps through the stops.  A run builds
the Gamma(Y) levels only up to the top sector of its window inputs, with
the result of a run that built them all, and its traced peak shows it.
"""

import cmath
import itertools
import logging
import math
import tracemalloc
from dataclasses import dataclass, field, fields, replace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad, solve_ivp

from phonondd import propagation
from phonondd.model import (
    DEFAULT_SECULAR_FREQUENCY,
    CouplingMatrix,
    FockSpace,
    IonChainConfig,
    PhononState,
    basis_state,
    build_coupling_matrix,
)
from phonondd.propagation import (
    FIRST_STEPS,
    MAP_TOLERANCE,
    MAX_STEPS,
    ModeMaps,
    SLICE_BYTES,
    PropagationError,
    SchedulePropagator,
    _columns,
    _expm,
)
from phonondd.pulses import (
    ShapedPulse,
    design_pulse,
    scale_factor_derivatives,
)
from phonondd.scenarios import (
    build_scenario,
    execute_scenario,
    get_scenario,
    populations_csv,
    scenario_catalog,
)
from phonondd.sequences import DDSpec, Evolve, PhaseShift, synthesize

from dense_oracle import (HBAR, embed, hopping_hamiltonian, ladder_operator,
                          phase_distance, project)
from fock_labels import occupations
from population_record import record
from pulse_checks import scale_factor

W0 = DEFAULT_SECULAR_FREQUENCY
T0 = 1.0 / 2.2e6
PULSE = design_pulse(1.1 * T0, ramp_up=0.55 * T0, ramp_down=0.55 * T0)
# a pulse of 1.1 of its own periods designed at 2 pi x 2.0 MHz, off the
# model's w0: its drive runs in a trap it was not designed for
SLOW_PULSE = design_pulse(0.55e-6, 0.275e-6, 0.275e-6,
                          secular_frequency=2.0 * math.pi * 2.0e6)
TIGHT = 1e-10
# DOP853 settings of the direct integration: absolute tolerance, and a
# step cap of one twentieth of the half period of the secular rotation
ATOL = 1e-14
STEP_CAP = (math.pi / PULSE.secular_frequency) / 20.0


@st.composite
def engines(draw):
    """(mode maps, pulsed modes) on a random chain with M <= 3."""
    modes = draw(st.integers(1, 3))
    gaps = draw(st.lists(st.floats(25e-6, 60e-6), min_size=modes - 1,
                         max_size=modes - 1))
    positions = tuple(np.concatenate([[0.0], np.cumsum(gaps)]).tolist())
    couplings = build_coupling_matrix(IonChainConfig(modes, positions))
    coupling = draw(st.sampled_from(["rwa", "full"]))
    maps = ModeMaps(couplings, window_coupling=coupling)
    pulsed = draw(st.sets(st.integers(0, modes - 1), min_size=1))
    return maps, frozenset(pulsed)


def symplectic_residuals(a, b):
    eye = np.eye(a.shape[0])
    return (np.linalg.norm(a @ a.conj().T - b @ b.conj().T - eye),
            np.linalg.norm(a @ b.T - b @ a.T))


@settings(max_examples=6, deadline=None)
@given(case=engines(), fractions=st.lists(st.floats(0.0, 1.0), min_size=3,
                                          max_size=3))
def test_map_stays_symplectic(case, fractions):
    maps, pulsed = case
    heis = maps.window_map(pulsed, PULSE)
    a_s, b_s, _ = heis.at([f * PULSE.duration for f in fractions])
    for a, b in zip(a_s, b_s):
        assert max(symplectic_residuals(a, b)) <= TIGHT


def direct_map(maps, pulse, pulsed, start):
    """(A, B) of a window of ``pulse`` on the modes ``pulsed``, integrated
    from absolute time ``start`` with absolute phases, in the frame of the
    model's w0, whatever w0 the pulse was designed at."""
    m, w0 = maps.couplings.mode_count, W0
    kappa = maps.couplings.kappa / 2.0
    mask = np.array([q in pulsed for q in range(m)], dtype=float)
    full = maps.window_coupling == "full"

    def rhs(t, y):
        a, b = y[:m * m].reshape(m, m), y[m * m:].reshape(m, m)
        g = pulse.drive(t - start) / (4.0 * w0)
        h = kappa + np.diag(2.0 * g * mask)
        pair = np.exp(2j * w0 * t) * (np.diag(2.0 * g * mask) + (kappa if full else 0.0))
        return -1j * np.concatenate([(h @ a + pair @ b.conj()).ravel(),
                                     (h @ b + pair @ a.conj()).ravel()])

    y0 = np.concatenate([np.eye(m).ravel(), np.zeros(m * m)]).astype(complex)
    sol = solve_ivp(rhs, (start, start + pulse.duration), y0, method="DOP853",
                    rtol=1e-12, atol=ATOL, max_step=STEP_CAP)
    end = sol.y[:, -1]
    return end[:m * m].reshape(m, m), end[m * m:].reshape(m, m)


@pytest.mark.parametrize("pulse", [PULSE, SLOW_PULSE], ids=["2.2MHz", "2.0MHz"])
@settings(max_examples=4, deadline=None)
@given(case=engines(), start_us=st.floats(0.0, 100.0))
def test_gauge_identity_against_direct_integration(pulse, case, start_us):
    maps, pulsed = case
    start = start_us * 1e-6
    a, b = (x[0] for x in maps.window_map(pulsed, pulse).at(())[:2])
    a_direct, b_direct = direct_map(maps, pulse, pulsed, start)
    gauge = cmath.exp(2j * W0 * start)
    assert np.linalg.norm(a - a_direct) <= TIGHT
    assert np.linalg.norm(b * gauge - b_direct) <= TIGHT


def closed_form_map(pulse, tau):
    """(A, B) of a lone mode (kappa = 0) at ``tau``, by Lewis-Riesenfeld.

    With P = p / (m w0), x(t) = b (alpha cos theta + beta sin theta),
    alpha = x0 / b(0), beta = b(0) P0 - b'(0) x0 / w0 and
    theta = w0 int dt / b^2; P = x' / w0.  The erf tails leave b(0) a
    little below one, so b(0) and b'(0) are taken as they are.
    """
    w0 = pulse.secular_frequency
    b0, bd0, _ = scale_factor_derivatives(0.0, pulse)
    b, bd, _ = scale_factor_derivatives(tau, pulse)
    excess, _ = quad(lambda t: 1.0 / float(scale_factor(t, pulse)) ** 2 - 1.0,
                     0.0, tau, limit=400, epsabs=1e-20, epsrel=1e-13)
    theta = w0 * (tau + excess)
    # coefficients of x0 and P0 in alpha and beta
    alpha = np.array([1.0 / b0, 0.0])
    beta = np.array([-bd0 / w0, b0])
    swing = alpha * math.cos(theta) + beta * math.sin(theta)
    xx, xp = b * swing
    px, pp = (bd / w0) * swing + (beta * math.cos(theta) - alpha * math.sin(theta)) / b
    # a = (x + i P) / sqrt 2 in units of the ground state width, and the
    # interaction picture turns the lab frame map by e^{i w0 tau}
    phase = cmath.exp(1j * w0 * tau)
    return (phase * 0.5 * (xx + pp + 1j * (px - xp)),
            phase * 0.5 * (xx - pp + 1j * (px + xp)))


@pytest.mark.parametrize("pulse", [design_pulse(8.8 * T0),
                                   design_pulse(2.2 * T0, 1.0 * T0, 1.0 * T0)],
                         ids=["8.8T0", "2.2T0"])
def test_lone_mode_map_matches_lewis_riesenfeld(pulse):
    maps = ModeMaps(CouplingMatrix(np.zeros((1, 1))))
    heis = maps.window_map(frozenset({0}), pulse)
    taus = [f * pulse.duration for f in (0.13, 0.5, 0.71, 0.94)]
    for tau, a, b in zip(taus + [pulse.duration], *heis.at(taus)[:2]):
        a_exact, b_exact = closed_form_map(pulse, tau)
        assert abs(a[0, 0] - a_exact) <= 1e-11
        assert abs(b[0, 0] - b_exact) <= 1e-11


@pytest.mark.parametrize("mhz", [2.0, 1.5])
def test_a_pulse_designed_off_the_trap_w0_misses_its_phase(mhz):
    # a pi pulse of 8.8 of its own periods, designed at w0 = 2 pi x mhz:
    # the chain stays at the model's w0 and takes only the pulse's drive,
    # so the lone-mode map is the direct integration's and misses A = -1,
    # which the same design at the model's w0 hits within 1e-6
    pulse = design_pulse(8.8e-6 / mhz, secular_frequency=2.0 * math.pi * mhz * 1e6)
    maps = ModeMaps(CouplingMatrix(np.zeros((1, 1))))
    a, b = (x[0] for x in maps.window_map(frozenset({0}), pulse).at(())[:2])
    a_direct, b_direct = direct_map(maps, pulse, {0}, 0.0)
    assert np.linalg.norm(a - a_direct) <= TIGHT
    assert np.linalg.norm(b - b_direct) <= TIGHT
    assert abs(a[0, 0] + 1.0) > 0.1


def stack(heis):
    """The map (A, B, |det A|^{-1/2}) as stacks of one."""
    return tuple(np.array([x]) for x in heis)


def apply_fock(engine, amps, heis):
    """``engine._apply`` of one map on a Fock-ordered vector, returned in Fock
    order: the engine holds a state in sector order."""
    return engine._apply(amps[engine._fock], stack(heis))[0][0][engine._position]


def fock_matrix(engine, heis):
    """Columns P U P |n> for every basis state n of the engine's space."""
    dim = engine.space.dimension
    return np.column_stack([apply_fock(engine, np.eye(dim, dtype=complex)[:, n], heis)
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
    engine = SchedulePropagator(FockSpace(1, 12),
                                ModeMaps(CouplingMatrix(np.zeros((1, 1)))))
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
    engine = SchedulePropagator(space, ModeMaps(CouplingMatrix(np.zeros((modes, modes)))))
    norm = 1.0 / cmath.sqrt(np.linalg.det(a.conj()))
    got = fock_matrix(engine, (a, np.zeros_like(a), norm))
    for col, row in itertools.product(range(space.dimension), repeat=2):
        n = occupations(space, col)[::-1]  # mode order
        m = occupations(space, row)[::-1]
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
# count: the three-mode reference has to converge within 10^3 states.  At
# one mode, cutoffs (16, 20) leave a gap of 4.9e-10 on seed 40391; at
# (24, 28) it is 2.2e-15
RAISED = {1: (0.1, 2, (24, 28)), 2: (0.1, 2, (18, 22)), 3: (0.01, 1, (7, 9))}


def random_quadratic(rng, modes, strength):
    """(h, G, (A, B, |det A|^{-1/2})) of a random quadratic generator and its map."""
    h = rng.normal(size=(modes, modes)) + 1j * rng.normal(size=(modes, modes))
    h = 0.5 * (h + h.conj().T)
    pair = strength * (rng.normal(size=(modes, modes))
                       + 1j * rng.normal(size=(modes, modes)))
    pair = 0.5 * (pair + pair.T)
    kernel = np.block([[h, pair], [-pair.conj(), -h.conj()]])
    rows = scipy.linalg.expm(-1j * kernel)[:modes]
    a, b = rows[:, :modes], rows[:, modes:]
    return h, pair, (a, b, 1.0 / math.sqrt(abs(np.linalg.det(a))))


@settings(max_examples=6, deadline=None)
@given(modes=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1))
@example(modes=1, seed=40391)
def test_random_generator_matches_dense_expm_at_raised_cutoff(modes, seed):
    rng = np.random.default_rng(seed)
    strength, n_max, cutoffs = RAISED[modes]
    h, pair, heis = random_quadratic(rng, modes, strength)

    space = FockSpace(modes, n_max)
    engine = SchedulePropagator(space, ModeMaps(CouplingMatrix(np.zeros((modes, modes)))))
    amps = rng.normal(size=space.dimension) + 1j * rng.normal(size=space.dimension)
    state = PhononState(space, amps / np.linalg.norm(amps))
    got = apply_fock(engine, state.amplitudes, heis)

    def reference(cutoff):
        wide = FockSpace(modes, cutoff)
        evolved = scipy.linalg.expm(-1j * quadratic_generator(wide, h, pair)) \
            @ embed(state, wide).amplitudes
        return project(PhononState(wide, evolved), space).amplitudes

    lower, upper = (reference(c) for c in cutoffs)
    assert np.linalg.norm(upper - lower) <= TIGHT
    assert phase_distance(got, upper) <= TIGHT


def hermite_grid(r, c, shape):
    """G[k] over the box ``shape`` of 2M indices, in extended precision, by
    G[k + 1_0] = sum_j R_0j sqrt(k_j) G[k - 1_j] / sqrt(k_0 + 1); the slice
    k_0 = 0 is the same grid of the other indices, from G[0] = c."""
    if not shape:
        return np.array(c, dtype=np.clongdouble)
    rest = hermite_grid(r[1:, 1:], c, shape[1:])
    grid = np.zeros(shape, dtype=np.clongdouble)
    grid[0] = rest
    for k in range(shape[0] - 1):
        acc = r[0, 0] * np.sqrt(np.longdouble(k)) * grid[k - 1] if k else 0.0
        for j, size in enumerate(shape[1:]):
            # sqrt(k_j) G[k, k_rest - 1_j]: the slice shifted one up along axis j
            lowered = np.zeros_like(rest)
            lowered[(slice(None),) * j + (slice(1, None),)] = \
                grid[k][(slice(None),) * j + (slice(None, -1),)]
            root = np.sqrt(np.arange(size, dtype=np.longdouble))
            acc = acc + r[0, j + 1] * root.reshape((-1,) + (1,) * (len(shape) - 2 - j)) \
                * lowered
        grid[k + 1] = acc / np.sqrt(np.longdouble(k + 1))
    return grid


def recurrence_columns(heis, space, top):
    """(Fock index n, column <m|U|n> over the cube) for every n of the sectors
    up to ``top``, by the recurrence of Miatto & Quesada (Quantum 4, 366,
    2020).  With z = (conj alpha, beta), <alpha|U|beta> is, up to the
    coherent state norms, c exp(z^T R z / 2) with R = [[X, Y], [Y^T, Z]]; the
    coefficients G[m, n] = <m|U|n> of its Taylor series obey the recurrence
    of ``hermite_grid``.  It shares only (X, Y, Z) and c with the engine."""
    a, b, c = heis
    m, size = space.mode_count, space.per_mode_cutoff + 1
    y = np.linalg.inv(a.conj().T)
    x, z = y @ b.T, -b.conj().T @ y
    r = np.block([[0.5 * (x + x.T), y], [y.T, 0.5 * (z + z.T)]]).astype(np.clongdouble)
    edge = min(top, space.per_mode_cutoff) + 1
    grid = hermite_grid(r, c, (size,) * m + (edge,) * m)  # axes m_0.., n_0..
    for n in itertools.product(range(edge), repeat=m):
        if sum(n) <= top:
            column = grid[(Ellipsis,) + n].transpose(tuple(reversed(range(m))))
            yield space.index(n[::-1]), column.ravel()


# bound on |_apply(psi) - P U P psi| / |psi| against the recurrence, fixed
# before any run: eps for the raising stop, the rest summation round-off
ORACLE_TOL = 8 * np.finfo(float).eps


def check_against_recurrence(engine, heis, top=3):
    """Every column of the sectors up to ``top``, the sectors the catalog
    runs start in, within ORACLE_TOL."""
    checked = 0
    for n, expected in recurrence_columns(heis, engine.space, top):
        got = apply_fock(engine, np.eye(engine.space.dimension, dtype=complex)[n], heis)
        assert float(np.sqrt(np.sum(np.abs(got - expected) ** 2))) <= ORACLE_TOL, n
        checked += 1
    assert checked == math.comb(top + engine.space.mode_count, top)


@pytest.mark.parametrize("strength", [0.01, 0.1, 1.0])
@pytest.mark.parametrize("modes,n_max", [(3, 6), (2, 10)])
def test_apply_matches_the_fock_recurrence(modes, n_max, strength):
    rng = np.random.default_rng(1000 * modes + n_max + int(100 * strength))
    engine = SchedulePropagator(FockSpace(modes, n_max),
                                ModeMaps(CouplingMatrix(np.zeros((modes, modes)))))
    check_against_recurrence(engine, random_quadratic(rng, modes, strength)[2])


# bound on the distance, up to a global phase, between a shaped run and its
# mode-map oracle, fixed before any run
AGREEMENT = 1e-9


@pytest.mark.parametrize("modes,n_max,coupling,pulses", [
    (3, 3, "rwa", (PULSE,)), (3, 2, "full", (PULSE,)), (2, 4, "rwa", (PULSE,)),
    (2, 4, "rwa", (PULSE, design_pulse(2.2 * T0))), (2, 4, "full", (SLOW_PULSE,))],
    ids=["3-3-rwa", "3-2-full", "2-4-rwa", "2-4-rwa-two-pulses", "2-4-full-2.0MHz"])
def test_shaped_run_matches_the_mode_map_oracle(modes, n_max, coupling, pulses):
    """A whole shaped run against an oracle that shares no kernel with the
    engine: each window is ``direct_map`` of its own pulse at its start
    (DOP853 on the M x M equations), made the cube matrix <m|U|n> by the
    recurrence with c = |det A|^{-1/2}, and each free step a dense
    exponential of the kron-built hopping Hamiltonian.  The windows take
    ``pulses`` in turn.  The start is a random state over the whole
    cube."""
    couplings = build_coupling_matrix(IonChainConfig.equidistant(modes, 40e-6))
    engine = SchedulePropagator(FockSpace(modes, n_max),
                                ModeMaps(couplings, window_coupling=coupling))
    space, maps = engine.space, engine.maps
    turns = itertools.cycle(pulses)
    schedule = synthesize(DDSpec(modes, 200e-6))
    schedule = replace(schedule, events=tuple(
        replace(ev, pulse=next(turns)) if isinstance(ev, PhaseShift) else ev
        for ev in schedule.events))
    rng = np.random.default_rng(100 * modes + n_max)
    amps = rng.normal(size=(space.dimension, 2)) @ np.array([1.0, 1j])
    initial = PhononState(space, amps / np.linalg.norm(amps))
    hopping = hopping_hamiltonian(space, couplings).toarray() / HBAR
    steps = list(schedule.steps())
    assert {kind for kind, _, _ in steps} == {"free", "window"}
    assert {shift.pulse for kind, _, shift in steps if kind == "window"} == set(pulses)
    state, t = initial.amplitudes, 0.0
    for kind, duration, shift in steps:
        if kind == "free":
            state = scipy.linalg.expm(-1j * duration * hopping) @ state
        else:
            a, b = direct_map(maps, shift.pulse, shift.modes, t)
            window = np.zeros((space.dimension,) * 2, dtype=complex)
            for n, column in recurrence_columns(
                    (a, b, 1.0 / np.sqrt(abs(np.linalg.det(a)))), space, modes * n_max):
                window[:, n] = column
            state = window @ state
        t += duration
    got = engine.run(schedule, initial).final_state.amplitudes
    assert phase_distance(got, state) <= AGREEMENT


def test_apply_matches_the_fock_recurrence_on_a_catalog_window_end():
    schedule, _, engine = build_scenario(get_scenario("fig5b"))
    steps = list(schedule.steps())
    first = next(i for i, (kind, _, _) in enumerate(steps) if kind == "window")
    start = sum(duration for _, duration, _ in steps[:first])
    shift = steps[first][2]
    # a window with no sample inside is a batch of one
    (a,), (b,), (norm,) = engine.maps.window(start, shift.modes, shift.pulse)
    check_against_recurrence(engine, (a, b, norm))


def pair_generator(space, coeffs, raising):
    """(a^dag C a^dag) / 2 or (a C a) / 2 on the cube, as a dense matrix."""
    lower = [ladder_operator(space, q).toarray() for q in range(space.mode_count)]
    ops = [op.conj().T for op in lower] if raising else lower
    return 0.5 * sum(coeffs[i, j] * ops[i] @ ops[j]
                     for i, j in itertools.product(range(space.mode_count), repeat=2))


@pytest.mark.parametrize("raising", [False, True])
@pytest.mark.parametrize("modes,n_max", [(3, 4), (2, 8)])
def test_unstopped_pair_series_match_dense_exponentials(modes, n_max, raising):
    """Each series gathers only the sectors its term can reach; with a floor
    of 0 it runs until the band leaves the cube and is the exact exponential
    of the nilpotent pair operator."""
    rng = np.random.default_rng(10 * modes + n_max + raising)
    space = FockSpace(modes, n_max)
    engine = SchedulePropagator(space, ModeMaps(CouplingMatrix(np.zeros((modes, modes)))))
    coeffs = 0.3 * (rng.normal(size=(modes, modes)) + 1j * rng.normal(size=(modes, modes)))
    amps = rng.normal(size=space.dimension) + 1j * rng.normal(size=space.dimension)
    expected = scipy.linalg.expm(pair_generator(space, coeffs, raising)) @ amps
    got = engine._pair_series(amps[engine._fock][None], coeffs[None], raising,
                              np.zeros(1))[0][0]
    assert np.linalg.norm(got[engine._position] - expected) \
        <= 1e-12 * np.linalg.norm(expected)


def test_reused_pair_operators_match_a_fresh_engine():
    """One engine keeps its pair gather tables and raising levels across
    calls.  Window applications with different maps and gauges, interleaved
    with lone lowering and raising series in both orders, must each give bit
    for bit what the same call gives on a fresh engine: no call may see any
    state an earlier call left behind."""
    rng = np.random.default_rng(20)
    modes = 3
    space = FockSpace(modes, 3)
    couplings = CouplingMatrix(np.zeros((modes, modes)))
    engine = SchedulePropagator(space, ModeMaps(couplings))
    amps = rng.normal(size=space.dimension) + 1j * rng.normal(size=space.dimension)
    amps /= np.linalg.norm(amps)

    def coeffs():
        return 0.3 * (rng.normal(size=(modes, modes))
                      + 1j * rng.normal(size=(modes, modes)))

    calls = []
    for raising_first in (True, False, True):
        gauge = cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        a, b, norm = random_quadratic(rng, modes, 0.3)[2]
        calls.append(("_apply", (amps, stack((a, b * gauge, norm)))))
        calls.append(("_pair_series", (amps[None], coeffs()[None], raising_first,
                                       np.array([EPS]))))
        calls.append(("_pair_series", (amps[None], coeffs()[None], not raising_first,
                                       np.zeros(1))))
    for name, args in calls:
        got = getattr(engine, name)(*args)[0][0]
        fresh = getattr(SchedulePropagator(space, ModeMaps(couplings)), name)(*args)[0][0]
        assert np.abs(got - amps).max() > 1e-3  # the call did something
        np.testing.assert_array_equal(got, fresh)


# a window apply may exceed the norm of its input by this relative
# round-off at most, fixed before any run
CONTRACTION_SLACK = 1e-12
EPS = np.finfo(float).eps


@pytest.mark.parametrize("strength", [0.0, 0.1, 1.0])
@pytest.mark.parametrize("modes,n_max", [(3, 6), (2, 10)])
def test_window_apply_is_a_contraction(modes, n_max, strength):
    """P U P never grows a norm: U is unitary and P an orthogonal projector.
    The trim at each window end rests on this, since no later window can
    then enlarge the norm a trim drops."""
    rng = np.random.default_rng(100 * modes + n_max + int(10 * strength))
    space = FockSpace(modes, n_max)
    engine = SchedulePropagator(space, ModeMaps(CouplingMatrix(np.zeros((modes, modes)))))
    for _ in range(5):
        heis = random_quadratic(rng, modes, strength)[2]
        vec = rng.normal(size=space.dimension) + 1j * rng.normal(size=space.dimension)
        out = np.linalg.norm(engine._apply(vec, stack(heis))[0][0])
        assert out <= np.linalg.norm(vec) * (1.0 + CONTRACTION_SLACK)


def assert_rows_are_single_applies(engine, amps, maps):
    """Apply the stacks ``maps`` to ``amps`` at once and each map alone, as a
    batch of one.  Every gather, product and sum of a row reads that row
    only, and a row leaves the raising after its own stopping term, so the
    bound is equality: each row, its raising terms and its tail bound bit
    for bit.  Returns the raising terms of the rows."""
    outs, terms, tails = engine._apply(amps, maps)
    assert outs.shape == (len(maps[2]), amps.size)
    for row in range(len(maps[2])):
        (out,), (term,), (tail,) = engine._apply(amps, tuple(x[row:row + 1] for x in maps))
        np.testing.assert_array_equal(outs[row], out)
        assert (terms[row], tails[row]) == (term, tail)
    return terms


def first_sampled_window(monkeypatch, name):
    """(engine, state, map stacks) at the first window of the catalog run
    ``name`` that records samples inside it."""
    cfg = get_scenario(name)
    schedule, initial, engine = build_scenario(cfg)
    calls = []
    apply = SchedulePropagator._apply

    def record(self, amps, maps):
        calls.append((amps, maps))
        return apply(self, amps, maps)

    monkeypatch.setattr(SchedulePropagator, "_apply", record)
    engine.run(schedule, initial, record_samples=cfg.record_samples)
    monkeypatch.undo()
    amps, maps = next(call for call in calls if len(call[1][2]) > 1)
    return engine, amps, maps


def test_catalog_window_rows_match_their_single_applies(monkeypatch):
    """A fig5b window: its samples inside and its end, on the state that
    enters it.  The end map stops its raising after fewer terms than the
    samples in mid-window, so rows leave the batch at different terms."""
    engine, amps, maps = first_sampled_window(monkeypatch, "fig5b")
    terms = assert_rows_are_single_applies(engine, amps, maps)
    assert len(set(terms.tolist())) > 1
    assert terms[-1] < terms.max()


def test_batch_wider_than_a_chunk_matches_its_single_applies():
    """60 random maps of strengths 0.01 to 1 on a dense two-mode state at
    n_max = 10.  A chunk of the top Gamma(Y) level, sector 10 of 11 states,
    holds SLICE_BYTES // (16 * 2 * 11^2) = 25 rows, and one of the first
    raising term, 118 positions of 3 pairs, 17 rows; the batch spans several
    of each."""
    rng = np.random.default_rng(30)
    space = FockSpace(2, 10)
    engine = SchedulePropagator(space, ModeMaps(CouplingMatrix(np.zeros((2, 2)))))
    maps = [random_quadratic(rng, 2, strength)[2]
            for strength in np.geomspace(0.01, 1.0, 60)]
    stacks = tuple(np.array(column) for column in zip(*maps))
    assert len(maps) > 2 * (SLICE_BYTES // (16 * 2 * 11 ** 2))
    vec = rng.normal(size=space.dimension) + 1j * rng.normal(size=space.dimension)
    terms = assert_rows_are_single_applies(engine, vec / np.linalg.norm(vec), stacks)
    assert len(set(terms.tolist())) > 1


def sector_totals(space):
    return sum(space.mode_occupations(q) for q in range(space.mode_count))


def test_trim_drops_exactly_the_tail_below_round_off():
    space = FockSpace(3, 8)
    engine = SchedulePropagator(space, ModeMaps(CouplingMatrix(np.zeros((3, 3)))))
    rng = np.random.default_rng(21)
    total = sector_totals(space)
    amps = np.zeros(space.dimension, dtype=complex)
    for n, weight in {3: 1.0, 11: 1e-20, 21: 1e-40}.items():
        idx = np.flatnonzero(total == n)
        block = rng.normal(size=idx.size) + 1j * rng.normal(size=idx.size)
        amps[idx] = math.sqrt(weight) * block / np.linalg.norm(block)
    # the sectors from 12 up hold 1e-40 <= eps^2 |amps|^2 = 4.9e-32, those
    # from 11 up 1e-20 more
    trimmed, top, dropped = engine._trim(amps[engine._fock])
    trimmed = trimmed[engine._position]
    assert top == 11
    assert not trimmed[total > 11].any()
    np.testing.assert_array_equal(trimmed[total <= 11], amps[total <= 11])
    assert np.linalg.norm(amps - trimmed) <= EPS * np.linalg.norm(amps)
    assert dropped == pytest.approx(1e-40)


def test_trim_keeps_a_state_without_a_sub_round_off_tail():
    space = FockSpace(3, 4)
    engine = SchedulePropagator(space, ModeMaps(CouplingMatrix(np.zeros((3, 3)))))
    rng = np.random.default_rng(22)
    dense = rng.normal(size=space.dimension) + 1j * rng.normal(size=space.dimension)
    for amps, top in ((basis_state(space, (2, 1, 0)).amplitudes, 3), (dense, 12)):
        trimmed, kept, dropped = engine._trim(amps[engine._fock])
        trimmed = trimmed[engine._position]
        np.testing.assert_array_equal(trimmed, amps)
        assert (kept, dropped) == (top, 0.0)


def shaped_run():
    """(engine, schedule, initial state, window count) of a two-mode run
    whose windows raise sub-round-off tails up to the top of the cube."""
    space = FockSpace(2, 10)
    couplings = build_coupling_matrix(IonChainConfig.equidistant(2, 30e-6))
    schedule = synthesize(DDSpec(2, 50e-6, repetitions=2, shaped_pulse=PULSE))
    engine = SchedulePropagator(space, ModeMaps(couplings))
    windows = sum(kind == "window" for kind, _, _ in schedule.steps())
    return engine, schedule, basis_state(space, (2, 1)), windows


def test_trim_moves_a_run_by_at_most_eps_per_window_end(monkeypatch):
    """Each trim drops a norm of at most eps |psi| <= eps, and every later
    step is unitary or a contraction, so after K window ends the state is
    within K eps of the untrimmed run."""
    engine, schedule, initial, windows = shaped_run()
    trimmed = engine.run(schedule, initial).final_state.amplitudes
    monkeypatch.setattr(SchedulePropagator, "_trim",
                        lambda self, amps: (amps, self._band(amps[None])[1], 0.0))
    full = engine.run(schedule, initial).final_state.amplitudes
    total = sector_totals(initial.space)
    assert full[total > 12].any() and not trimmed[total > 12].any()
    assert np.linalg.norm(trimmed - full) <= windows * EPS


@pytest.mark.parametrize("floor", [1e-8, EPS])
@pytest.mark.parametrize("modes,n_max,sector", [(3, 10, 3), (3, 10, 7), (2, 10, 3)])
def test_raising_stop_leaves_out_at_most_its_bound(modes, n_max, sector, floor):
    """The raising series stopped at ``floor`` against the same call run to
    the top of the cube.  The input fills one sector, so the terms left out
    land in sectors the stopped sum never wrote, and the difference is their
    computed sum: within the tail bound, which is below the floor, up to a
    relative round-off of 1e-12 on the bound."""
    rng = np.random.default_rng(100 * modes + n_max + sector)
    space = FockSpace(modes, n_max)
    engine = SchedulePropagator(space, ModeMaps(CouplingMatrix(np.zeros((modes, modes)))))
    rows = engine._rows(sector)
    for strength in (1e-4, 1e-3):  # the first fig5b window end has |X_ij| <= 1.4e-6
        amps = np.zeros(space.dimension, dtype=complex)
        block = rng.normal(size=rows.stop - rows.start) \
            + 1j * rng.normal(size=rows.stop - rows.start)
        amps[rows] = block / np.linalg.norm(block)
        coeffs = strength * (rng.normal(size=(modes, modes))
                             + 1j * rng.normal(size=(modes, modes)))
        (stopped,), (terms,), (tail,) = engine._pair_series(
            amps[None], coeffs[None], True, np.array([floor]))
        (full,), (all_terms,), _ = engine._pair_series(amps[None], coeffs[None], True,
                                                       np.zeros(1))
        assert terms < all_terms and 0.0 < tail < floor
        assert np.linalg.norm(full - stopped) <= tail * (1.0 + 1e-12)


def unstopped(monkeypatch):
    """Run every raising series to the top of the cube."""
    series = SchedulePropagator._pair_series
    monkeypatch.setattr(SchedulePropagator, "_pair_series",
                        lambda self, amps, coeffs, raising, floors:
                        series(self, amps, coeffs, raising, np.zeros_like(floors)))


def test_raising_stop_moves_a_run_by_at_most_three_eps_per_window_end(monkeypatch):
    """The stop moves each window apply by at most eps |psi| <= eps, and
    each of the two trims that follow drops at most eps more; every later
    step is unitary or a contraction, so after K window ends the state is
    within 3 K eps of the run whose raising series go to the top of the
    cube."""
    engine, schedule, initial, windows = shaped_run()
    stopped = engine.run(schedule, initial).final_state.amplitudes
    unstopped(monkeypatch)
    full = engine.run(schedule, initial).final_state.amplitudes
    assert np.linalg.norm(stopped - full) <= 3 * windows * EPS


def run_fields(caplog, engine, schedule, initial, record_samples=2):
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="phonondd"):
        engine.run(schedule, initial, record_samples=record_samples)
    [line] = [r.getMessage() for r in caplog.records
              if r.getMessage().startswith("run ")]
    return dict(item.split("=") for item in line.split()[1:])


def test_run_logs_its_window_applies_and_trims(caplog, monkeypatch):
    engine, schedule, initial, windows = shaped_run()
    fields = run_fields(caplog, engine, schedule, initial)
    assert int(fields["window_applies"]) == windows  # no sample inside a window
    assert 3 <= int(fields["top_kept_sector"]) <= 12
    assert 0.0 < float(fields["trimmed_weight"]) <= windows * EPS ** 2
    assert 0.0 < float(fields["raise_bound"]) <= windows * EPS
    unstopped(monkeypatch)
    full = run_fields(caplog, engine, schedule, initial)
    assert float(full["raise_bound"]) == 0.0
    assert int(fields["raise_terms"]) < int(full["raise_terms"])


def test_run_counts_each_map_of_a_window_as_an_apply(caplog):
    """A window applies its end map and one map per sample recorded strictly
    inside it, all in one batch; the log counts every map."""
    engine, schedule, initial, windows = shaped_run()
    samples = 101
    inside = np.linspace(0.0, schedule.total_evolve_time, samples)[:-1]
    t, within = 0.0, 0
    for kind, duration, _ in schedule.steps():
        if kind == "window":
            within += int(np.sum((inside > t) & (inside < t + duration)))
        t += duration
    assert within > 0
    fields = run_fields(caplog, engine, schedule, initial, samples)
    assert int(fields["window_applies"]) == windows + within


def test_each_pulse_gets_its_own_map():
    space = FockSpace(2, 6)
    couplings = build_coupling_matrix(IonChainConfig.equidistant(2, 30e-6))
    initial = basis_state(space, (2, 1))
    other = design_pulse(2.2 * T0, ramp_up=1.0 * T0, ramp_down=1.0 * T0)
    maps = ModeMaps(couplings)
    engine = SchedulePropagator(space, maps)
    runs = []
    for pulse in (PULSE, other):
        schedule = synthesize(DDSpec(2, 50e-6, shaped_pulse=pulse))
        shared = engine.run(schedule, initial).final_state.amplitudes
        fresh = SchedulePropagator(space, ModeMaps(couplings)).run(schedule, initial)
        np.testing.assert_array_equal(shared, fresh.final_state.amplitudes)
        runs.append(shared)
    assert {pulse for _, pulse in maps._cache} == {PULSE, other}
    assert np.linalg.norm(runs[0] - runs[1]) > 1e-6


@dataclass(frozen=True)
class CountingPulse(ShapedPulse):
    """The pulse, recording the size of each ``drive`` call."""

    calls: list = field(default_factory=list, compare=False, repr=False)

    def drive(self, t):
        self.calls.append(np.size(t))
        return super().drive(t)


def test_map_reads_the_drive_once_per_level_and_window():
    pulse = CountingPulse(**{f.name: getattr(PULSE, f.name) for f in fields(PULSE)})
    maps = ModeMaps(build_coupling_matrix(IonChainConfig.equidistant(2, 30e-6)))
    heis = maps.window_map(frozenset({0}), pulse)
    levels = round(math.log2(heis.steps / FIRST_STEPS)) + 1
    assert heis.steps == FIRST_STEPS * 2 ** (levels - 1)
    assert len(pulse.calls) <= levels
    for inner in ([], [0.1 * PULSE.duration], np.linspace(0.05, 0.95, 7) * PULSE.duration):
        before = len(pulse.calls)
        maps.window(3e-6, frozenset({0}), pulse, [3e-6 + t for t in inner])
        assert len(pulse.calls) - before <= min(len(inner), 1)


def test_map_records_its_certificate(caplog):
    maps = ModeMaps(CouplingMatrix(np.zeros((1, 1))))
    with caplog.at_level(logging.DEBUG, logger="phonondd"):
        heis = maps.window_map(frozenset({0}), PULSE)
    assert FIRST_STEPS < heis.steps <= MAX_STEPS
    assert 0.0 < heis.delta <= 63.0 * MAP_TOLERANCE
    [line] = [r.getMessage() for r in caplog.records if "window map" in r.getMessage()]
    assert f"steps={heis.steps}" in line and "modes=[0]" in line


@pytest.mark.parametrize("scale", [0.0, 0.01, 0.5, 3.0, 40.0])
def test_batched_exponential_matches_scipy(scale):
    rng = np.random.default_rng(7)
    x = scale * (rng.normal(size=(50, 6, 6)) + 1j * rng.normal(size=(50, 6, 6))) / 6
    expected = np.array([scipy.linalg.expm(m) for m in x])
    assert np.abs(_expm(x) - expected).max() <= 1e-13 * np.abs(expected).max()


def sequential_nodes(generator, steps):
    """S at every node by one product per step, on the exponentials of the
    whole level at once: the loop that the blocked scan replaces."""
    h = generator.pulse.duration / steps
    props = generator.propagators(h * np.arange(steps), np.full(steps, h))
    nodes, bound = [np.eye(len(props[0]))], [np.eye(len(props[0]))]
    for prop in props:
        nodes.append(prop @ nodes[-1])
        bound.append(np.abs(prop) @ bound[-1])
    return np.array(nodes), np.array(bound)


def assert_nodes_match_sequential(generator, steps):
    """Node k is a product of k step propagators of size n.  Either order
    of the products rounds it by at most k n eps |P_k|...|P_1| entrywise,
    and the exponentials of a slice and of the whole level differ by a few
    eps each, so the two agree within 4 k n eps max |P_k|...|P_1|."""
    got = generator.nodes(steps)
    expected, absolute = sequential_nodes(generator, steps)
    k = np.arange(steps + 1)
    n = got.shape[-1]
    allowed = 4.0 * k * n * np.finfo(float).eps * absolute.max(axis=(1, 2))
    assert np.all(np.abs(got - expected).max(axis=(1, 2)) <= allowed)


def unique_catalog_maps():
    """Every distinct catalog window map, once."""
    return list({id(heis): heis for *_, heis in catalog_maps()}.values())


def test_blocked_nodes_match_the_sequential_product_on_catalog_levels():
    levels = set()
    for heis in unique_catalog_maps():
        level = FIRST_STEPS
        while level <= heis.steps:
            assert_nodes_match_sequential(heis.generator, level)
            levels.add(level)
            level *= 2
    assert levels == {200, 400, 800}


@pytest.mark.parametrize("steps", [1, 2, 997])
def test_blocked_nodes_match_the_sequential_product_off_the_block_size(steps):
    """997 steps of a three-mode map: two full slices of 341 and one of 315,
    whose blocks of 18 leave the last one 9 short."""
    maps = ModeMaps(build_coupling_matrix(IonChainConfig.equidistant(3, 30e-6)))
    generator = maps.window_map(frozenset({1, 2}), PULSE).generator
    assert generator.basis.shape[-1] == 6
    assert_nodes_match_sequential(generator, steps)


def test_exponential_matches_scipy_on_catalog_levels(monkeypatch):
    """The Taylor exponential of every stack a catalog map builds, against
    scipy.linalg.expm matrix by matrix: within 16 eps of the largest entry
    of each exponential."""
    stacks = []

    def recorded(x):
        stacks.append(x.copy())
        return _expm(x)

    monkeypatch.setattr("phonondd.propagation._expm", recorded)
    maps = unique_catalog_maps()
    assert {heis.steps for heis in maps} == {400, 800}
    # every step of every level: 200 + ... + steps
    assert sum(map(len, stacks)) == sum(2 * heis.steps - FIRST_STEPS for heis in maps)
    eps = np.finfo(float).eps
    for x in stacks:
        expected = np.array([scipy.linalg.expm(m) for m in x])
        error = np.abs(_expm(x) - expected).max(axis=(1, 2))
        assert np.all(error <= 16.0 * eps * np.abs(expected).max(axis=(1, 2)))


@pytest.mark.parametrize("norm", [0.25, 0.9, 3.0])
def test_exponential_matches_closed_forms_around_the_scaling_norm(norm):
    """A rotation and a diagonal generator of 1-norm ``norm``, against cos,
    sin and exp: within 16 eps of the largest entry.  Unscaled, the
    degree-12 polynomial would leave out 0.9^13 / 13! = 4e-11 at 0.9."""
    c, s = math.cos(norm), math.sin(norm)
    x = norm * np.array([[[0.0, 1.0], [-1.0, 0.0]], [[1.0, 0.0], [0.0, -1.0]]])
    expected = np.array([[[c, s], [-s, c]], np.diag([math.exp(norm), math.exp(-norm)])])
    error = np.abs(_expm(x) - expected).max(axis=(1, 2))
    assert np.all(error <= 16.0 * np.finfo(float).eps * np.abs(expected).max(axis=(1, 2)))


def test_magnus_step_is_sixth_order():
    maps = ModeMaps(build_coupling_matrix(IonChainConfig.equidistant(2, 30e-6)))
    generator = maps.window_map(frozenset({0}), design_pulse(8.8 * T0)).generator
    ends = [_columns(generator.nodes(FIRST_STEPS * 2 ** k)[-1]) for k in range(3)]
    coarse, fine = (np.abs(x - y).max() for x, y in zip(ends, ends[1:]))
    assert fine * 2 ** 5 < coarse < fine * 2 ** 7


def test_unreachable_tolerance_fails_at_the_step_ceiling(monkeypatch):
    monkeypatch.setattr(propagation, "MAP_TOLERANCE", 1e-17)
    maps = ModeMaps(CouplingMatrix(np.zeros((1, 1))))
    with pytest.raises(PropagationError,
                       match=f"map tolerance 1.0e-17.*at {MAX_STEPS} steps"):
        maps.window_map(frozenset({0}), PULSE)
    assert not maps._cache


def nested_omega(l0, l1, lengths, f):
    """The sixth-order Magnus Omega by its nested commutators (Blanes, Casas &
    Ros, Phys. Rep. 470, 151, 2009): the form the commutator basis expands."""
    h = lengths[:, None, None]
    f = f[:, :, None, None]
    a1 = h * (l0 + f[:, 1] * l1)
    a2 = (math.sqrt(15.0) / 3.0) * h * (f[:, 2] - f[:, 0]) * l1
    a3 = (10.0 / 3.0) * h * (f[:, 2] - 2.0 * f[:, 1] + f[:, 0]) * l1

    def commutator(x, y):
        return x @ y - y @ x

    c1 = commutator(a1, a2)
    c2 = commutator(a1, 2.0 * a3 + c1) / -60.0
    return a1 + a3 / 12.0 + commutator(c1 - 20.0 * a1 - a3, a2 + c2) / 240.0


def complex_blocks(maps, pulsed):
    """The lab frame generators of [A; conj B]: -i [[W, K], [-K, -W]] and
    -i [[P, P], [-P, -P]], with W = w0 + kappa/2 and K = kappa/2 under full
    coupling, else 0."""
    m = maps.couplings.mode_count
    hop = maps.couplings.kappa / 2.0
    cross = hop if maps.window_coupling == "full" else np.zeros((m, m))
    diagonal = W0 * np.eye(m) + hop
    p = np.diag([float(q in pulsed) for q in range(m)])
    return (-1j * np.block([[diagonal, cross], [-cross, -diagonal]]),
            -1j * np.block([[p, p], [-p, -p]]))


@settings(max_examples=10, deadline=None)
@given(case=engines())
def test_real_generators_are_the_turned_complex_blocks(case):
    maps, pulsed = case
    basis = maps.window_map(pulsed, PULSE).generator.basis
    m = maps.couplings.mode_count
    eye = np.eye(m)
    turn = np.block([[eye, -1j * eye], [-1j * eye, eye]]) / math.sqrt(2.0)
    for real, block in zip(basis[:2], complex_blocks(maps, pulsed)):
        assert real.dtype == float
        expected = turn @ block @ turn.conj().T
        assert np.abs(real - expected).max() <= 1e-15 * np.abs(expected).max()


@pytest.mark.parametrize("coupling", ["rwa", "full"])
@pytest.mark.parametrize("modes", [1, 2, 3])
def test_basis_omega_matches_nested_commutators(modes, coupling):
    rng = np.random.default_rng(100 * modes + len(coupling))
    couplings = build_coupling_matrix(IonChainConfig.equidistant(modes, 30e-6))
    maps = ModeMaps(couplings, window_coupling=coupling)
    generator = maps.window_map(frozenset({modes - 1}), PULSE).generator
    # step lengths up to twice the first level's; f = drive / (2 w0) of
    # either sign, up to six times the largest catalog value (0.52 w0, fig1b)
    lengths = rng.uniform(0.0, 2.0, 40) * PULSE.duration / FIRST_STEPS
    f = rng.uniform(-3.0, 3.0, (40, 3)) * PULSE.secular_frequency
    got = generator.omega(lengths, f)
    expected = nested_omega(generator.basis[0], generator.basis[1], lengths, f)
    scale = np.abs(expected).max(axis=(1, 2))
    assert np.all(np.abs(got - expected).max(axis=(1, 2)) <= 1e-15 * scale)


def catalog_maps():
    """(scenario, pulse duration in T0, map) of every catalog window map,
    one per pulsed-mode set."""
    for cfg in scenario_catalog():
        if cfg.pulse_model != "shaped":
            continue
        schedule, _, engine = build_scenario(cfg)
        for ev in schedule.events:
            if not isinstance(ev, Evolve):
                heis = engine.maps.window_map(ev.modes, ev.pulse)
                yield cfg.name, round(cfg.pulse_duration / T0, 1), heis


def test_catalog_maps_accept_their_pinned_step_counts():
    pinned = {8.8: 800, 2.2: 400}
    seen = {}
    for name, duration, heis in catalog_maps():
        assert heis.steps == pinned[duration], (name, duration)
        seen.setdefault(duration, set()).add(name)
    assert seen == {8.8: {"fig1a", "fig2", "fig4b", "fig5b", "fig6b", "fig7b"},
                    2.2: {"fig1b"}}


def test_catalog_final_states_keep_no_sub_round_off_tail(scenario_cache):
    """The highest number sector each shaped catalog run ends in.  Without
    the trim at window ends the raising series fills sectors up to 23-29,
    and every later window builds Gamma(Y) on all of them."""
    pinned = {"fig1b": 9}
    for cfg in scenario_catalog():
        if cfg.pulse_model != "shaped":
            continue
        final = scenario_cache.result(cfg.name).final_state
        top = sector_totals(final.space)[np.flatnonzero(final.amplitudes)].max()
        assert top <= pinned.get(cfg.name, 7), cfg.name


def test_levels_are_built_up_to_the_top_window_input():
    """A fig4b run builds the Gamma(Y) levels of the sectors up to the
    highest one that any window's input holds, 7 of its 30, and gives
    bit for bit the result of an engine that built all 30 before it."""
    cfg = get_scenario("fig4b")
    schedule, initial, lazy = build_scenario(cfg)
    tops = []
    apply = lazy._apply

    def traced(amps, maps):
        tops.append(int(lazy._total[np.flatnonzero(amps)].max()))
        return apply(amps, maps)

    lazy._apply = traced
    got = lazy.run(schedule, initial, None, cfg.record_samples)
    assert len(lazy._raise_levels) == max(tops) == 7
    eager = SchedulePropagator(lazy.space, lazy.maps)
    top = eager._offsets.size - 2
    assert len(eager._levels(top)) == top == 30
    expected = eager.run(schedule, initial, None, cfg.record_samples)
    assert np.array_equal(record(got), record(expected))
    assert np.array_equal(got.final_state.amplitudes, expected.final_state.amplitudes)
    for name in ("error_E", "norm_drift", "boundary_leakage"):
        assert getattr(got, name).hex() == getattr(expected, name).hex(), name


def test_fig4b_run_traces_no_level_tables_past_its_windows():
    """One fig4b run and its filtered CSV, after a first pair that loads
    numpy's lazy modules, trace a peak of at most 2.3 MB: 1.89 MB measured
    with the Gamma(Y) levels built up to the top window input and the
    record held as sector bands, 36,028 values.  Building all 30 levels
    adds 2.19 MB, and a dense 512 x 665 record 2.72 MB (4.47 MB measured
    with it)."""
    bound = 2.3e6
    cfg = get_scenario("fig4b")
    populations_csv(execute_scenario(cfg)[1], cfg)
    tracemalloc.start()
    try:
        _, result = execute_scenario(cfg)
        populations_csv(result, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= bound


def test_fig4b_run_logs_its_banded_record(caplog):
    """The run's debug line counts the record values its bands store
    against the dense record: on fig4b, 36,028 of 512 x 665 = 340,480."""
    cfg = get_scenario("fig4b")
    schedule, initial, engine = build_scenario(cfg)
    fields = run_fields(caplog, engine, schedule, initial, cfg.record_samples)
    assert fields["record_values"] == "36028/340480"


def test_long_chain_map_needs_no_fock_space():
    """The map of the mid-chain mode of a 32-mode chain comes from the
    couplings alone.  The Fock cube at n_max = 1 has 2^32 states, 32 GiB
    for one real vector.  The map's traced peak is set by the nodes of the
    accepted level, an (801, 64, 64) stack of 26 MB: the level below is
    dropped before it is built, all but its last node, and the step
    propagators are built in slices of at most 96 KiB (27.4 MB measured)."""
    couplings = build_coupling_matrix(IonChainConfig.equidistant(32, 43.8e-6))
    tracemalloc.start()
    try:
        heis = ModeMaps(couplings).window_map(frozenset({16}), design_pulse(8.8 * T0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert heis.steps == 800
    assert peak < 32e6
    (a,), (b,), _ = heis.at(())
    assert max(symplectic_residuals(a, b)) <= TIGHT
