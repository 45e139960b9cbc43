"""Executes pulse schedules on phonon states in the interaction picture.

Every operator here changes the total phonon number N by zero or two, so
the engine works in sectors of the Fock basis.  Free segments evolve under
the number conserving hopping Hamiltonian, which is constant in the frame
rotating at the secular frequency; each N sector evolves through the
eigendecomposition of its own block, computed the first time a state
occupies that sector.  A sector holding no amplitude stays exactly zero
and is skipped.  Ideal pulses are instantaneous parity phases.  Shaped
pulses open a window in which the trap drive of the pulsed modes acts
without the rotating wave reduction,

    H_I(t)/hbar = H_hop/hbar
        + sum_j g_j(t) (a_j^2 e^{-2 i w0 t} + a_j^dag^2 e^{+2 i w0 t} + 2 n_j + 1)

with g_j(t) the squared frequency excess over 4 w0.  The drive moves N by
two, so a window conserves the parity of N: each parity class holding
amplitude is handed on its own to an adaptive high order integrator with
certified local error.  By default a window replaces the trailing portion
of its preceding free segment, so the wall clock of the schedule is
unchanged; the alternative placement inserts the window and stretches the
timeline.  The counter rotating part of the Coulomb coupling, which also
moves N by two, can optionally be kept during windows.
"""

from __future__ import annotations

import cmath
import math
import time
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.integrate import solve_ivp
from scipy.linalg import eigh

from .model import (
    CONSTANTS,
    DEFAULT_SECULAR_FREQUENCY,
    CouplingMatrix,
    FockSpace,
    PhononState,
    hopping_hamiltonian,
    ladder_operator,
)
from .pulses import ShapedPulse
from .sequences import Evolve, PhaseShift, PulseSchedule


class PropagationError(Exception):
    """Raised when a schedule cannot be executed as specified."""


@dataclass(frozen=True)
class PropagatorConfig:
    """Numerical knobs for schedule execution.

    ``max_step`` is capped at one twentieth of the half period of the
    secular rotation, the fastest scale in the window dynamics; ``None``
    means exactly that cap.  ``record_stride`` requests population samples
    on a uniform grid; ``None`` records endpoints only.
    """

    local_error_tolerance: float = 1e-12
    absolute_tolerance: float = 1e-14
    max_step: float | None = None
    record_stride: float | None = None
    window_placement: str = "carve"
    window_coupling: str = "rwa"

    def __post_init__(self) -> None:
        if self.local_error_tolerance <= 0 or self.absolute_tolerance <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_step is not None and self.max_step <= 0:
            raise ValueError("max_step must be positive")
        if self.record_stride is not None and self.record_stride <= 0:
            raise ValueError("record_stride must be positive")
        if self.window_placement not in ("carve", "insert"):
            raise ValueError("window_placement must be 'carve' or 'insert'")
        if self.window_coupling not in ("rwa", "full"):
            raise ValueError("window_coupling must be 'rwa' or 'full'")

    def step_cap(self, frame_frequency: float) -> float:
        cap = (math.pi / frame_frequency) / 20.0
        if self.max_step is None:
            return cap
        return min(self.max_step, cap)


@dataclass
class SimulationResult:
    """Timeline record of one schedule execution."""

    times: np.ndarray
    populations: np.ndarray
    space: FockSpace
    final_state: PhononState
    norm_drift: float
    boundary_leakage: float
    wall_time: float
    error_E: float | None = None
    error_EB: float | None = None

    def populations_map(self, index: int) -> dict[str, float]:
        row = self.populations[index]
        return {self.space.label(i): float(p) for i, p in enumerate(row)}


def apply_ideal_phase(state: PhononState, modes: Iterable[int]) -> PhononState:
    """Instantaneous pi phase shift: amplitudes pick up exp(-i pi sum n_j)."""
    modes = set(modes)
    if any(not 0 <= q < state.space.mode_count for q in modes):
        raise ValueError("mode index out of range")
    total = np.zeros(state.space.dimension)
    for q in modes:
        total = total + state.space.mode_occupations(q)
    return PhononState(state.space, state.amplitudes * np.exp(-1j * math.pi * total))


def _total_number(space: FockSpace) -> np.ndarray:
    return sum(space.mode_occupations(q) for q in range(space.mode_count))


def _number_sectors(space: FockSpace) -> list[np.ndarray]:
    """Basis indices grouped by total phonon number; entry N holds sector N."""
    total = _total_number(space)
    return [np.flatnonzero(total == n)
            for n in range(space.mode_count * space.per_mode_cutoff + 1)]


class SchedulePropagator:
    """Engine bound to one Fock space and coupling matrix.

    Splits the basis into sectors of fixed total phonon number and caches,
    for each sector a state reaches, the eigensystem of its hopping block,
    and for each pulsed-mode set and parity of N, the stacked window
    operator; then replays any schedule on that chain.
    """

    def __init__(self, space: FockSpace, couplings: CouplingMatrix,
                 config: PropagatorConfig | None = None,
                 secular_frequency: float = DEFAULT_SECULAR_FREQUENCY):
        if couplings.mode_count != space.mode_count:
            raise ValueError("coupling matrix does not match the Fock space")
        self.space = space
        self.couplings = couplings
        self.config = config or PropagatorConfig()
        self.secular_frequency = secular_frequency
        self._hop = hopping_hamiltonian(space, couplings, form="rwa") / CONSTANTS.hbar
        self._numbers = [space.mode_occupations(q).astype(float)
                         for q in range(space.mode_count)]
        self._lowers = [ladder_operator(space, q) for q in range(space.mode_count)]
        self._sectors = _number_sectors(space)
        total = _total_number(space)
        self._parity_classes = [np.flatnonzero(total % 2 == p) for p in (0, 1)]
        self._boundary = space.boundary_mask()
        self._eigensystems: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._window_ops: dict[tuple[frozenset[int], int], sp.csr_matrix] = {}

    def _occupied(self, amps: np.ndarray):
        """(indices, amplitudes, eigenvalues, eigenvectors) of each nonzero sector."""
        for n, idx in enumerate(self._sectors):
            block = amps[idx]
            if not block.any():
                continue
            if n not in self._eigensystems:
                self._eigensystems[n] = eigh(self._hop[idx][:, idx].toarray())
            yield idx, block, *self._eigensystems[n]

    # free evolution through the sector eigensystems, sampled at offsets dts
    def _free_states(self, amps: np.ndarray, dts: np.ndarray) -> np.ndarray:
        out = np.zeros((amps.size, dts.size), dtype=complex)
        for idx, block, vals, vecs in self._occupied(amps):
            coeff = vecs.conj().T @ block
            out[idx] = vecs @ (np.exp(-1j * np.outer(vals, dts)) * coeff[:, None])
        return out

    def _free(self, amps: np.ndarray, duration: float) -> np.ndarray:
        return self._free_states(amps, np.array([duration]))[:, 0]

    def _parity(self, modes: frozenset[int]) -> np.ndarray:
        total = sum(self._numbers[q] for q in modes)
        return np.exp(-1j * math.pi * total)

    def _window_op(self, modes: frozenset[int], parity: int) -> sp.csr_matrix:
        """-i times the window terms on one parity class, stacked row-wise.

        The blocks are the hopping, the raising and lowering squeezes of
        the pulsed modes, their number term and, with full coupling, the
        counter rotating pair creation and annihilation.  The right hand
        side weighs them with 1, g e^{2iw0t}, g e^{-2iw0t}, g, e^{2iw0t}
        and e^{-2iw0t}.
        """
        key = (modes, parity)
        if key not in self._window_ops:
            dim = self.space.dimension
            zero = sp.csr_matrix((dim, dim), dtype=complex)
            lower_sq = sum((self._lowers[q] @ self._lowers[q] for q in modes), zero)
            diag = sum((2.0 * self._numbers[q] + 1.0 for q in modes), np.zeros(dim))
            terms = [self._hop, lower_sq.conj().T, lower_sq, sp.diags(diag)]
            if self.config.window_coupling == "full":
                cr = zero
                for j in range(self.space.mode_count):
                    for k in range(j):
                        rate = self.couplings.rate(j, k)
                        if rate:
                            cr = cr + 0.5 * rate * (self._lowers[j].conj().T
                                                    @ self._lowers[k].conj().T)
                terms += [cr, cr.conj().T]
            idx = self._parity_classes[parity]
            self._window_ops[key] = -1j * sp.vstack(
                [sp.csr_matrix(term)[idx][:, idx] for term in terms], format="csr")
        return self._window_ops[key]

    def _window(self, amps: np.ndarray, start: float, modes: frozenset[int],
                pulse: ShapedPulse, t_eval: Sequence[float] = ()) -> tuple[np.ndarray, np.ndarray]:
        """Integrate one shaped window starting at absolute time ``start``.

        Returns the final amplitudes and the states at ``t_eval``, which
        must lie strictly inside the window.
        """
        w0 = self.secular_frequency
        stop = start + pulse.duration
        eval_pts = sorted(set(t_eval))
        final = np.zeros_like(amps)
        states = np.zeros((len(eval_pts), amps.size), dtype=complex)
        for parity, idx in enumerate(self._parity_classes):
            y0 = amps[idx]
            if not y0.any():
                continue
            op = self._window_op(modes, parity)
            blocks = op.shape[0] // idx.size

            def rhs(t, y, op=op, blocks=blocks):
                g = pulse.drive(t - start) / (4.0 * w0)
                ph = cmath.exp(2j * w0 * t)
                weights = np.array((1.0, g * ph, g * ph.conjugate(), g,
                                    ph, ph.conjugate())[:blocks])
                return weights @ op.dot(y).reshape(blocks, -1)

            sol = solve_ivp(rhs, (start, stop), y0, method="DOP853",
                            rtol=self.config.local_error_tolerance,
                            atol=self.config.absolute_tolerance,
                            max_step=self.config.step_cap(w0),
                            t_eval=eval_pts + [stop] if eval_pts else None,
                            dense_output=False)
            if not sol.success:
                raise PropagationError(f"window integration failed: {sol.message}")
            final[idx] = sol.y[:, -1]
            if eval_pts:
                states[:, idx] = sol.y[:, :-1].T
        return final, states

    def run(self, schedule: PulseSchedule, initial: PhononState,
            reference: PhononState | None = None) -> SimulationResult:
        """Execute the schedule and collect the error metrics.

        ``error_E`` is one minus the overlap magnitude with the initial
        state; ``error_EB`` the same against ``reference`` when given.
        Norm drift and cutoff leakage are checked at the end of every
        segment and window and at every sample recorded inside a window.
        """
        if initial.space != self.space:
            raise ValueError("initial state lives in a different Fock space")
        shaped = schedule.pulse_model == "shaped"
        pulse = schedule.shaped_pulse
        if shaped and pulse is None:
            raise PropagationError("shaped schedule carries no pulse")
        carve = self.config.window_placement == "carve"
        started = time.perf_counter()

        wall = schedule.total_evolve_time
        if shaped and not carve:
            windows = sum(isinstance(ev, PhaseShift) for ev in schedule.events)
            wall += windows * pulse.duration

        if self.config.record_stride is not None:
            grid = list(np.arange(0.0, wall, self.config.record_stride))
            if not grid or grid[-1] < wall:
                grid.append(wall)
        else:
            grid = [0.0, wall]
        grid = sorted(set(grid))

        amps = initial.amplitudes.copy()
        records: list[tuple[float, np.ndarray]] = [(0.0, amps.copy())]
        norm_drift = abs(np.linalg.norm(amps) - 1.0)
        leakage = float(np.sum(np.abs(amps[self._boundary]) ** 2))
        t = 0.0

        def note(vec: np.ndarray) -> None:
            nonlocal norm_drift, leakage
            norm_drift = max(norm_drift, abs(np.linalg.norm(vec) - 1.0))
            leakage = max(leakage, float(np.sum(np.abs(vec[self._boundary]) ** 2)))

        def free(duration: float) -> None:
            nonlocal amps, t
            inner = [s for s in grid if t < s < t + duration]
            if inner:
                cols = self._free_states(amps, np.asarray(inner) - t)
                records.extend(zip(inner, cols.T))
            amps = self._free(amps, duration)
            t += duration

        def window(modes: frozenset[int]) -> None:
            nonlocal amps, t
            inner = [s for s in grid if t < s < t + pulse.duration]
            amps, sampled = self._window(amps, t, modes, pulse, inner)
            for t_s, col in zip(inner, sampled):
                records.append((t_s, col))
                note(col)
            t += pulse.duration
            note(amps)

        events = schedule.events
        i = 0
        while i < len(events):
            ev = events[i]
            if isinstance(ev, Evolve):
                next_pulse = (i + 1 < len(events)
                              and isinstance(events[i + 1], PhaseShift)
                              and shaped)
                if next_pulse and carve:
                    lead = ev.duration - pulse.duration
                    if lead < -1e-12 * ev.duration:
                        raise PropagationError(
                            "pulse window does not fit inside its segment")
                    free(max(lead, 0.0))
                    window(events[i + 1].modes)
                    i += 2
                else:
                    free(ev.duration)
                    note(amps)
                    i += 1
            else:
                if shaped:
                    if carve:
                        raise PropagationError(
                            "pulse event has no preceding segment to carve")
                    window(ev.modes)
                else:
                    amps = amps * self._parity(ev.modes)
                i += 1

        records.append((t, amps.copy()))
        seen: dict[float, np.ndarray] = {}
        for t_s, vec in records:
            seen[t_s] = vec
        times = np.array(sorted(seen))
        pops = np.array([np.abs(seen[t_s]) ** 2 for t_s in times])
        final = PhononState(self.space, amps)
        err = error_overlap(initial, final)
        err_b = error_overlap(reference, final) if reference is not None else None
        return SimulationResult(times=times, populations=pops, space=self.space,
                                final_state=final, norm_drift=norm_drift,
                                boundary_leakage=leakage,
                                wall_time=time.perf_counter() - started,
                                error_E=err, error_EB=err_b)


def run_schedule(initial: PhononState, schedule: PulseSchedule,
                 couplings: CouplingMatrix,
                 config: PropagatorConfig | None = None,
                 secular_frequency: float = DEFAULT_SECULAR_FREQUENCY,
                 reference: PhononState | None = None) -> SimulationResult:
    """One-shot convenience wrapper around :class:`SchedulePropagator`."""
    engine = SchedulePropagator(initial.space, couplings, config, secular_frequency)
    return engine.run(schedule, initial, reference)


def error_overlap(initial: PhononState, final: PhononState) -> float:
    """1 - |<initial|final>|, insensitive to global phase."""
    if initial.space.dimension != final.space.dimension:
        raise ValueError("states live in different spaces")
    return 1.0 - abs(np.vdot(initial.amplitudes, final.amplitudes))


def beam_splitter_reference(state: PhononState, pair: tuple[int, int],
                            angle: float = math.pi / 4.0) -> PhononState:
    """Exact 50:50 target: exp(-i angle (a_j^dag a_k + a_k^dag a_j)) |state>.

    The mixer conserves the total phonon number, so it is diagonalized one
    sector at a time, over the sectors the state occupies.
    """
    j, k = pair
    if j == k:
        raise ValueError("pair must name two distinct modes")
    aj = ladder_operator(state.space, j)
    ak = ladder_operator(state.space, k)
    mixer = (aj.conj().T @ ak + ak.conj().T @ aj).tocsr()
    amps = np.zeros_like(state.amplitudes)
    for idx in _number_sectors(state.space):
        block = state.amplitudes[idx]
        if block.any():
            vals, vecs = eigh(mixer[idx][:, idx].toarray())
            amps[idx] = vecs @ (np.exp(-1j * angle * vals) * (vecs.conj().T @ block))
    return PhononState(state.space, amps)


def error_beam_splitter(initial: PhononState, final: PhononState,
                        pair: tuple[int, int],
                        angle: float = math.pi / 4.0) -> float:
    """1 - |<target|final>| against the exact pair beam splitter output."""
    return error_overlap(beam_splitter_reference(initial, pair, angle), final)


def number_expectation(state: PhononState) -> float:
    """Total phonon number expectation of the state."""
    pops = np.abs(state.amplitudes) ** 2
    return float(np.dot(_total_number(state.space), pops))
