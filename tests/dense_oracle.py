"""Full-dimension reference propagation for the tests.

Ladder operators and the hopping Hamiltonian as Kronecker products of
single-mode matrices, independent of the engine's digit arithmetic on
number sectors; dense eigendecompositions over the whole Fock space, the
ideal pulse as its own parity phase, and the Fock space window ODE: the
shaped window right hand side applied to every basis state at once.  The
engine of ``phonondd.propagation``, which applies windows as Gaussian
maps, is checked against these; windows can run at a raised cutoff and
be projected back.  The lab frame helpers and the quadratic drive
operator cross check the interaction picture window itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Union

import numpy as np
import scipy.sparse as sp
from scipy.integrate import solve_ivp
from scipy.linalg import eigh

from phonondd.model import (
    DEFAULT_SECULAR_FREQUENCY,
    HBAR,
    CouplingMatrix,
    FockSpace,
    PhononState,
)
from phonondd.propagation import PropagationError
from phonondd.sequences import Evolve, PhaseShift, PulseSchedule

#: Matrices act on a :class:`FockSpace`; sparse and dense are both accepted.
OperatorMatrix = Union[np.ndarray, sp.spmatrix]

# DOP853 settings of the window ODE: relative and absolute tolerance, and
# the step cap as a fraction of the half period of the secular rotation,
# the fastest scale of the window dynamics
RTOL = 1e-12
ATOL = 1e-14
STEP_CAP_FRACTION = 1.0 / 20.0


def ladder_operator(space: FockSpace, mode: int) -> sp.csr_matrix:
    """Annihilation operator on one mode, identity elsewhere."""
    if not 0 <= mode < space.mode_count:
        raise ValueError("mode out of range")
    n = space.per_mode_cutoff
    single = sp.diags(np.sqrt(np.arange(1.0, n + 1)), 1, format="csr")
    eye = sp.identity(n + 1, format="csr")
    # mode 0 is the least significant kron factor
    op = single if mode == space.mode_count - 1 else eye
    for j in range(space.mode_count - 2, -1, -1):
        op = sp.kron(op, single if j == mode else eye, format="csr")
    return op.astype(complex)


def hopping_hamiltonian(space: FockSpace,
                        couplings: CouplingMatrix) -> sp.csr_matrix:
    """Coulomb-mediated hopping between modes, in energy units (J).

    Keeps the number-conserving exchange terms
    (hbar kappa_jk / 2)(a_j^dag a_k + a_j a_k^dag); Hermitian exactly, not
    up to roundoff.
    """
    if couplings.mode_count != space.mode_count:
        raise ValueError("couplings and space disagree on mode count")
    dim = space.dimension
    h = sp.csr_matrix((dim, dim), dtype=complex)
    lowering = [ladder_operator(space, j) for j in range(space.mode_count)]
    for j in range(space.mode_count):
        for k in range(j):
            rate = couplings.kappa[j, k]
            if rate == 0.0:
                continue
            cross = lowering[j].conj().T @ lowering[k]
            h = h + (0.5 * HBAR * rate) * (cross + cross.conj().T)
    return h.tocsr()


def evolve_constant(state: PhononState, hamiltonian: OperatorMatrix,
                    duration: float) -> PhononState:
    """exp(-i duration H / hbar) applied through an eigendecomposition."""
    if duration < 0:
        raise ValueError("duration must be non-negative")
    h = hamiltonian.toarray() if sp.issparse(hamiltonian) else np.asarray(hamiltonian)
    if h.shape != (state.space.dimension, state.space.dimension):
        raise ValueError("Hamiltonian dimension does not match the state")
    vals, vecs = eigh(h)
    phases = np.exp(-1j * vals * duration / HBAR)
    amps = vecs @ (phases * (vecs.conj().T @ state.amplitudes))
    return PhononState(state.space, amps)


def apply_ideal_phase(state: PhononState, modes: Iterable[int]) -> PhononState:
    """Instantaneous pi phase shift: amplitudes pick up exp(-i pi sum n_j)."""
    modes = set(modes)
    if any(not 0 <= q < state.space.mode_count for q in modes):
        raise ValueError("mode index out of range")
    total = np.zeros(state.space.dimension)
    for q in modes:
        total = total + state.space.mode_occupations(q)
    return PhononState(state.space, state.amplitudes * np.exp(-1j * math.pi * total))


@dataclass(frozen=True)
class StaircaseDrive:
    """Piecewise constant squared frequency excess, for cross checks."""

    levels: tuple[tuple[float, float], ...]

    @property
    def duration(self) -> float:
        return sum(d for d, _ in self.levels)

    @property
    def breakpoints(self) -> tuple[float, ...]:
        acc, out = 0.0, []
        for d, _ in self.levels[:-1]:
            acc += d
            out.append(acc)
        return tuple(out)

    def drive(self, tau):
        edges = np.cumsum([d for d, _ in self.levels])
        vals = np.array([v for _, v in self.levels])
        idx = np.minimum(np.searchsorted(edges, np.asarray(tau, dtype=float),
                                         side="right"), len(vals) - 1)
        return vals[idx]


def evolve_shaped(state: PhononState, pulse, target_modes: Iterable[int],
                  background: OperatorMatrix | None = None,
                  secular_frequency: float | None = None,
                  start_time: float = 0.0,
                  pair_creation: OperatorMatrix | None = None) -> PhononState:
    """Propagate one shaped window over the full Fock space.

    ``pulse`` needs a ``duration`` and a ``drive(tau)`` giving the squared
    frequency excess ``tau`` seconds into the window; both the designed
    pulse and :class:`StaircaseDrive` qualify.  ``background`` is a bare
    Hamiltonian in joules, defaulting to no coupling at all.
    ``pair_creation`` is the counter rotating hopping part that creates
    two quanta, in joules; it rotates at e^{+2 i w0 t} and its adjoint at
    e^{-2 i w0 t}.
    """
    space = state.space
    if secular_frequency is None:
        secular_frequency = getattr(pulse, "secular_frequency",
                                    DEFAULT_SECULAR_FREQUENCY)
    w0 = secular_frequency
    modes = frozenset(target_modes)
    if any(not 0 <= q < space.mode_count for q in modes):
        raise ValueError("target mode out of range")
    if background is None:
        hop = sp.csr_matrix((space.dimension, space.dimension), dtype=complex)
    else:
        hop = sp.csr_matrix(background, dtype=complex) / HBAR
    cr = None
    if pair_creation is not None:
        cr = sp.csr_matrix(pair_creation, dtype=complex) / HBAR
        cr = (cr, cr.conj().T.tocsr())
    lower_sq = raise_sq = None
    diag = np.zeros(space.dimension)
    for q in modes:
        a = ladder_operator(space, q)
        asq = sp.csr_matrix((a @ a).astype(complex))
        lower_sq = asq if lower_sq is None else lower_sq + asq
        raise_sq = asq.conj().T if raise_sq is None else raise_sq + asq.conj().T
        diag = diag + 2.0 * space.mode_occupations(q) + 1.0

    def rhs(t, y):
        g = pulse.drive(t - start_time) / (4.0 * w0)
        ph = np.exp(2j * w0 * t)
        out = hop.dot(y)
        if modes:
            out = out + g * (ph * raise_sq.dot(y) + np.conj(ph) * lower_sq.dot(y)
                             + diag * y)
        if cr is not None:
            out = out + ph * cr[0].dot(y) + np.conj(ph) * cr[1].dot(y)
        return -1j * out

    stops = [start_time]
    for bp in getattr(pulse, "breakpoints", ()):
        if 0.0 < bp < pulse.duration:
            stops.append(start_time + bp)
    stops.append(start_time + pulse.duration)
    amps = state.amplitudes.copy()
    for lo, hi in zip(stops[:-1], stops[1:]):
        sol = solve_ivp(rhs, (lo, hi), amps, method="DOP853",
                        rtol=RTOL, atol=ATOL,
                        max_step=(math.pi / w0) * STEP_CAP_FRACTION)
        if not sol.success:
            raise PropagationError(f"window integration failed: {sol.message}")
        amps = sol.y[:, -1]
    return PhononState(space, amps)


def modulation_hamiltonian(space: FockSpace, mode: int, omega_sq_excess: float,
                           secular_frequency: float) -> sp.csr_matrix:
    """Quadratic trap-modulation drive on one mode, in energy units (J).

    For a frequency excursion Omega^2 = omega(t)^2 - omega0^2 the drive is
    (hbar Omega^2 / 4 omega0) (a^dag + a)^2.
    """
    a = ladder_operator(space, mode)
    x = a.conj().T + a
    return (HBAR * omega_sq_excess / (4.0 * secular_frequency) * (x @ x)).tocsr()


def lab_frame_oscillator(space: FockSpace, mode: int, omega_sq_excess: float,
                         secular_frequency: float = DEFAULT_SECULAR_FREQUENCY
                         ) -> np.ndarray:
    """Lab picture Hamiltonian of one mode under a constant drive (joules).

    hbar w0 (n + 1/2) plus the quadratic drive; used to cross check the
    interaction picture window against plain constant evolution.
    """
    a = ladder_operator(space, mode).toarray()
    n = a.conj().T @ a
    x = a + a.conj().T
    g = omega_sq_excess / (4.0 * secular_frequency)
    return HBAR * (secular_frequency * (n + 0.5 * np.eye(space.dimension))
                   + g * (x @ x))


def frame_rotation(space: FockSpace, duration: float,
                   secular_frequency: float = DEFAULT_SECULAR_FREQUENCY) -> np.ndarray:
    """Diagonal that maps a lab picture state into the rotating frame."""
    total = np.zeros(space.dimension)
    for q in range(space.mode_count):
        total = total + space.mode_occupations(q) + 0.5
    return np.exp(1j * secular_frequency * duration * total)


def pair_creation_hamiltonian(space: FockSpace, couplings: CouplingMatrix
                              ) -> sp.csr_matrix:
    """sum_{j>k} (hbar kappa_jk / 2) a_j^dag a_k^dag, in joules."""
    raises = [ladder_operator(space, q).conj().T for q in range(space.mode_count)]
    out = sp.csr_matrix((space.dimension, space.dimension), dtype=complex)
    for j in range(space.mode_count):
        for k in range(j):
            out = out + 0.5 * HBAR * couplings.kappa[j, k] * (raises[j] @ raises[k])
    return out.tocsr()


def embed(state: PhononState, space: FockSpace) -> PhononState:
    """The same amplitudes in a space with the same modes and a higher cutoff."""
    base = space.per_mode_cutoff + 1
    index = sum(state.space.mode_occupations(q) * base ** q
                for q in range(space.mode_count))
    amps = np.zeros(space.dimension, dtype=complex)
    amps[index] = state.amplitudes
    return PhononState(space, amps)


def project(state: PhononState, space: FockSpace) -> PhononState:
    """Orthogonal projection onto a space with a lower cutoff."""
    base = state.space.per_mode_cutoff + 1
    index = sum(space.mode_occupations(q) * base ** q
                for q in range(space.mode_count))
    return PhononState(space, state.amplitudes[index])


def phase_distance(got: np.ndarray, expected: np.ndarray) -> float:
    """min over phi of |e^{i phi} got - expected|.

    The engine drops the global phase of each window, so its states are
    compared with the oracle's up to one phase.
    """
    overlap = np.vdot(got, expected)
    phase = overlap / abs(overlap) if overlap else 1.0
    return float(np.linalg.norm(phase * got - expected))


def dense_run(schedule: PulseSchedule, initial: PhononState,
              couplings: CouplingMatrix, window_coupling: str = "rwa",
              secular_frequency: float = DEFAULT_SECULAR_FREQUENCY,
              window_cutoff: int | None = None) -> PhononState:
    """Final state of a schedule, propagated over the full Fock space.

    Free segments go through :func:`evolve_constant`, ideal pulses through
    :func:`apply_ideal_phase` and shaped windows through
    :func:`evolve_shaped`, each window carved from the tail of the
    segment before it.
    With ``window_cutoff`` each window runs in a space of that cutoff and
    is projected back, so it approaches P U P as the cutoff grows.
    """
    space = initial.space
    wide = FockSpace(space.mode_count, window_cutoff or space.per_mode_cutoff)
    hop = hopping_hamiltonian(space, couplings)
    wide_hop = hopping_hamiltonian(wide, couplings)
    pairs = (pair_creation_hamiltonian(wide, couplings)
             if window_coupling == "full" else None)
    pulse = schedule.shaped_pulse
    shaped = pulse is not None
    events = schedule.events
    state, t = initial, 0.0
    for i, ev in enumerate(events):
        if isinstance(ev, Evolve):
            duration = ev.duration
            if (shaped and i + 1 < len(events)
                    and isinstance(events[i + 1], PhaseShift)):
                duration = max(duration - pulse.duration, 0.0)
            state = evolve_constant(state, hop, duration)
            t += duration
        elif shaped:
            state = project(evolve_shaped(embed(state, wide), pulse, ev.modes,
                                          background=wide_hop,
                                          secular_frequency=secular_frequency,
                                          start_time=t, pair_creation=pairs), space)
            t += pulse.duration
        else:
            state = apply_ideal_phase(state, ev.modes)
    return state
