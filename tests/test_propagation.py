"""Propagator physics: free flight, ideal pulses, shaped windows."""

import ast
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from phonondd.model import (
    DEFAULT_ION_MASS,
    DEFAULT_SECULAR_FREQUENCY,
    HBAR,
    CouplingMatrix,
    FockSpace,
    IonChainConfig,
    PhononState,
    basis_state,
    build_coupling_matrix,
    coupling_rate,
)
from phonondd.propagation import (
    ModeMaps,
    PropagationError,
    SchedulePropagator,
    beam_splitter_reference,
    error_overlap,
)
from phonondd.pulses import design_pulse
from phonondd.scenarios import build_scenario, get_scenario
from phonondd.sequences import DDSpec, Evolve, PhaseShift, PulseSchedule, synthesize

from dense_oracle import (
    StaircaseDrive,
    apply_ideal_phase,
    evolve_constant,
    evolve_shaped,
    frame_rotation,
    hopping_hamiltonian,
    lab_frame_oscillator,
)
from population_record import dense_populations, record

W0 = DEFAULT_SECULAR_FREQUENCY
T0 = 1.0 / 2.2e6
SPACING = 43.8e-6
KAPPA = coupling_rate(SPACING, DEFAULT_ION_MASS, W0)
HOP_TIME = math.pi / (2 * KAPPA)


def two_mode_setup(cutoff=6):
    space = FockSpace(2, cutoff)
    cm = build_coupling_matrix(IonChainConfig.equidistant(2, SPACING))
    return space, cm


def number_expectation(state):
    """Total phonon number expectation of the state."""
    total = sum(state.space.mode_occupations(q)
                for q in range(state.space.mode_count))
    return float(np.dot(total, np.abs(state.amplitudes) ** 2))


class TestFreeEvolution:
    def test_matches_dense_expm(self):
        space, cm = two_mode_setup(4)
        h = hopping_hamiltonian(space, cm)
        state = basis_state(space, (2, 1))
        got = evolve_constant(state, h, 3.7e-4).amplitudes
        hbar = 1.054571817e-34
        u = scipy.linalg.expm(-1j * 3.7e-4 / hbar * h.toarray())
        np.testing.assert_allclose(got, u @ state.amplitudes, atol=1e-12)

    def test_unitary(self):
        space, cm = two_mode_setup()
        h = hopping_hamiltonian(space, cm)
        state = basis_state(space, (3, 2))
        out = evolve_constant(state, h, 12 * HOP_TIME)
        assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-12

    def test_single_quantum_rabi_flop(self):
        # one phonon hops between two modes as cos^2(kappa t / 2); the
        # half makes the 50:50 window land exactly at pi / (2 kappa)
        space, cm = two_mode_setup(3)
        h = hopping_hamiltonian(space, cm)
        state = basis_state(space, (0, 1))
        for frac in (0.3, 0.5, 1.2):
            t = frac * HOP_TIME
            out = evolve_constant(state, h, t)
            stay = abs(out.amplitudes[space.index((0, 1))]) ** 2
            assert stay == pytest.approx(math.cos(KAPPA * t / 2) ** 2,
                                         abs=1e-12)

    def test_fifty_fifty_window_is_hong_ou_mandel(self):
        space, cm = two_mode_setup(4)
        h = hopping_hamiltonian(space, cm)
        out = evolve_constant(basis_state(space, (1, 1)), h, HOP_TIME)
        pops = np.abs(out.amplitudes) ** 2
        assert pops[space.index((1, 1))] < 1e-10
        assert pops[space.index((2, 0))] == pytest.approx(0.5, abs=1e-10)
        assert pops[space.index((0, 2))] == pytest.approx(0.5, abs=1e-10)

    def test_rejects_negative_duration(self):
        space, cm = two_mode_setup(3)
        h = hopping_hamiltonian(space, cm)
        with pytest.raises(ValueError):
            evolve_constant(basis_state(space, (0, 1)), h, -1.0)


class TestIdealPhase:
    def test_parity_signs(self):
        space, cm = two_mode_setup(3)
        state = basis_state(space, (2, 1))
        i = space.index((2, 1))
        for modes, sign in (({0}, -1.0), ({1}, 1.0)):
            # mode 0 holds one quantum, mode 1 two, so only mode 0 flips
            schedule = PulseSchedule(events=(PhaseShift(frozenset(modes)),),
                                     mode_count=2)
            res = SchedulePropagator(space, ModeMaps(cm)).run(schedule, state)
            # an exact real sign: no imaginary residue, no last-bit shift
            assert res.final_state.amplitudes[i] == sign

    def test_zero_duration_schedule_records_state_after_pulse(self):
        # a lone pulse takes no time, so the initial state and the final
        # state share t = 0; the one row there holds the state after it
        space, cm = two_mode_setup(5)
        rng = np.random.default_rng(3)
        amps = rng.normal(size=space.dimension) + 1j * rng.normal(size=space.dimension)
        state = PhononState(space, amps / np.linalg.norm(amps))
        schedule = PulseSchedule(events=(PhaseShift(frozenset({0})),),
                                 mode_count=2)
        res = SchedulePropagator(space, ModeMaps(cm)).run(schedule, state)
        after = np.abs(res.final_state.amplitudes) ** 2
        # the pulse is the exact sign (-1)^n_0, so the populations stay
        # as they were to the last bit
        flipped = state.amplitudes * (-1.0) ** space.mode_occupations(0)
        assert np.array_equal(res.final_state.amplitudes, flipped)
        assert np.array_equal(np.abs(state.amplitudes) ** 2, after)
        assert res.times.tolist() == [0.0]
        assert np.array_equal(dense_populations(res), after[None, :])

    def test_conjugation_flips_coupling_sign(self):
        # P exp(-i H t) P = exp(-i H' t) with hopping terms through the
        # pulsed mode negated; propagating both sides must agree
        space, cm = two_mode_setup(4)
        state = basis_state(space, (2, 1))
        t = 0.37 * HOP_TIME
        pulse = PhaseShift(frozenset({1}))
        schedule = PulseSchedule(events=(pulse, Evolve(t), pulse),
                                 mode_count=2)
        left = SchedulePropagator(space, ModeMaps(cm)).run(schedule, state).final_state
        h_neg = hopping_hamiltonian(space, CouplingMatrix(-cm.kappa))
        right = evolve_constant(state, h_neg, t)
        assert np.max(np.abs(left.amplitudes - right.amplitudes)) < 1e-12

    def test_mode_out_of_range(self):
        with pytest.raises(ValueError):
            PulseSchedule(events=(PhaseShift(frozenset({5})),), mode_count=2)


class TestShapedWindow:
    @pytest.mark.parametrize("total,ramp,tol", [
        (8.8 * T0, 4.4 * T0, 1e-5),
        (2.2 * T0, 1.0 * T0, 1e-3),
    ])
    def test_phase_gate_eigenphases(self, total, ramp, tol):
        pulse = design_pulse(total, ramp_up=ramp, ramp_down=ramp)
        space = FockSpace(1, 14)
        for n in range(5):
            out = evolve_shaped(basis_state(space, (n,)), pulse, {0})
            amp = out.amplitudes[space.index((n,))]
            target = np.exp(-1j * math.pi * (n + 0.5))
            assert abs(amp / target - 1.0) < tol, (total, n)

    def test_staircase_matches_lab_frame_product(self):
        # two-level staircase integrated in the rotating frame against the
        # same drive evolved as constant lab Hamiltonians plus the frame map
        space = FockSpace(1, 12)
        exc = (2 * math.pi * 250e3) ** 2
        drive = StaircaseDrive(levels=((0.4e-6, 0.7 * exc), (0.3e-6, -exc)))
        state = basis_state(space, (2,))
        got = evolve_shaped(state, drive, {0}, secular_frequency=W0)
        lab = state
        for dur, level in drive.levels:
            lab = evolve_constant(lab, lab_frame_oscillator(space, 0, level, W0),
                                  dur)
        expected = lab.amplitudes * frame_rotation(space, drive.duration, W0)
        assert np.linalg.norm(got.amplitudes - expected) <= 1e-8

    def test_staircase_breakpoints(self):
        drive = StaircaseDrive(levels=((1e-6, 2.0), (2e-6, -3.0)))
        assert drive.duration == pytest.approx(3e-6)
        assert drive.drive(0.5e-6) == 2.0
        assert drive.drive(1.5e-6) == -3.0

    def test_window_norm_preserved(self):
        pulse = design_pulse(8.8 * T0)
        space = FockSpace(1, 10)
        out = evolve_shaped(basis_state(space, (3,)), pulse, {0})
        assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-10


class TestScheduleRuns:
    def test_two_mode_ideal_cancellation_exact(self):
        space, cm = two_mode_setup(8)
        schedule = synthesize(DDSpec(2, HOP_TIME))
        res = SchedulePropagator(space, ModeMaps(cm)).run(schedule,
                                                          basis_state(space, (2, 1)))
        assert res.error_E < 1e-12
        assert res.norm_drift <= 1e-10

    def test_population_rows_normalized(self):
        space, cm = two_mode_setup(6)
        schedule = synthesize(DDSpec(2, HOP_TIME))
        res = SchedulePropagator(space, ModeMaps(cm)).run(
            schedule, basis_state(space, (2, 1)), record_samples=65)
        sums = record(res).sum(axis=1)
        np.testing.assert_allclose(sums, 1.0, atol=1e-12)
        assert np.all(np.diff(res.times) > 0)
        assert res.times[0] == 0.0
        assert res.times[-1] == pytest.approx(HOP_TIME)

    def test_error_metrics_and_reference(self):
        space, cm = two_mode_setup(6)
        schedule = synthesize(DDSpec(2, HOP_TIME))
        initial = basis_state(space, (2, 1))
        res = SchedulePropagator(space, ModeMaps(cm)).run(schedule, initial, initial)
        assert res.error_E == pytest.approx(res.error_EB, abs=1e-15)

    def test_ideal_run_records_only_the_occupied_sector(self):
        # fig3 starts in |2,1,0> and its parity phases keep N = 3: free
        # steps write the ten columns of that sector, every other column
        # stays exactly zero, and each row matches the full-space oracle
        cfg = replace(get_scenario("fig3"), record_samples=64)
        schedule, initial, engine = build_scenario(cfg)
        space = engine.space
        res = engine.run(schedule, initial, record_samples=cfg.record_samples)
        total = sum(space.mode_occupations(q) for q in range(space.mode_count))
        assert np.count_nonzero(total == 3) == 10
        np.testing.assert_array_equal(np.sort(res.columns), np.flatnonzero(total == 3))
        assert not res.final_state.amplitudes[total != 3].any()
        dense = dense_populations(res)
        assert np.all(dense[:, total != 3] == 0.0)
        hamiltonian = hopping_hamiltonian(space, engine.maps.couplings)
        vals, vecs = np.linalg.eigh(hamiltonian.toarray() / HBAR)

        def oracle(t_end):
            state, t = initial, 0.0
            for ev in schedule.events:
                if isinstance(ev, PhaseShift):
                    state = apply_ideal_phase(state, ev.modes)
                    continue
                dt = min(ev.duration, t_end - t)
                state = PhononState(space, vecs @ (np.exp(-1j * vals * dt)
                                                   * (vecs.conj().T @ state.amplitudes)))
                if t + ev.duration > t_end:
                    break
                t += ev.duration
            return np.abs(state.amplitudes) ** 2

        expected = np.array([oracle(t) for t in res.times])
        np.testing.assert_allclose(dense, expected, rtol=0, atol=1e-12)

    def test_two_samples_record_both_endpoints(self):
        # two grid points leave no free step an inner sample; the rows
        # still hold the initial and the final state
        cfg = replace(get_scenario("fig3"), record_samples=2)
        schedule, initial, engine = build_scenario(cfg)
        space = engine.space
        res = engine.run(schedule, initial, record_samples=cfg.record_samples)
        assert res.times[0] == 0.0
        assert res.times[1] == pytest.approx(schedule.total_evolve_time, rel=1e-12)
        dense = dense_populations(res)
        assert np.array_equal(dense[0], np.abs(initial.amplitudes) ** 2)
        assert np.array_equal(dense[1], np.abs(res.final_state.amplitudes) ** 2)
        assert dense[1].max() < 1.0  # the state has moved

    def test_rejects_too_few_samples_and_foreign_states(self):
        space, cm = two_mode_setup(4)
        engine = SchedulePropagator(space, ModeMaps(cm))
        schedule = synthesize(DDSpec(2, HOP_TIME))
        initial = basis_state(space, (1, 0))
        # FockSpace(2, 4) and FockSpace(1, 24) both have 25 states
        foreign = basis_state(FockSpace(1, 24), (1,))
        with pytest.raises(ValueError, match="record_samples must be at least 2"):
            engine.run(schedule, initial, record_samples=1)
        with pytest.raises(ValueError, match="record_samples must be an integer, not 3.5"):
            engine.run(schedule, initial, record_samples=3.5)
        with pytest.raises(ValueError, match="initial state"):
            engine.run(schedule, foreign)
        with pytest.raises(ValueError, match="different spaces"):
            engine.run(schedule, initial, foreign)

    @pytest.mark.parametrize("option,message", [
        (dict(window_coupling="none"), "window_coupling must be one of"),
    ])
    def test_mode_maps_reject_bad_values(self, option, message):
        _, cm = two_mode_setup(4)
        with pytest.raises(ValueError, match=message):
            ModeMaps(cm, **option)

    def test_shaped_carve_needs_room(self):
        # pulses are carved out of the preceding segment, which must fit
        space, cm = two_mode_setup(4)
        pulse = design_pulse(8.8 * T0)
        schedule = synthesize(DDSpec(2, 2 * T0, shaped_pulse=pulse))
        with pytest.raises(PropagationError):
            SchedulePropagator(space, ModeMaps(cm)).run(schedule,
                                                        basis_state(space, (1, 0)))

    def test_leading_pulse_rejected_on_carve(self):
        space, cm = two_mode_setup(4)
        pulse = design_pulse(8.8 * T0)
        bad = PulseSchedule(events=(PhaseShift(frozenset({1})), Evolve(HOP_TIME)),
                            mode_count=2, shaped_pulse=pulse)
        with pytest.raises(PropagationError):
            SchedulePropagator(space, ModeMaps(cm)).run(bad,
                                                        basis_state(space, (1, 0)))

    def test_full_window_coupling_close_to_rwa(self):
        space, cm = two_mode_setup(8)
        pulse = design_pulse(8.8 * T0)
        schedule = synthesize(DDSpec(2, HOP_TIME, shaped_pulse=pulse))
        initial = basis_state(space, (2, 1))
        rwa = SchedulePropagator(space, ModeMaps(
            cm, window_coupling="rwa")).run(schedule, initial)
        full = SchedulePropagator(space, ModeMaps(
            cm, window_coupling="full")).run(schedule, initial)
        assert full.error_E == pytest.approx(rwa.error_E, rel=1.0)
        assert full.error_E != rwa.error_E


class TestRecord:
    """The record holds the number sectors a run can reach: those of the
    initial state, and with windows every sector of their parity (fig3's
    one sector is checked in ``TestScheduleRuns``).  Column sets are
    compared exactly, and a recorded row against the final state bit for
    bit."""

    @staticmethod
    def totals(space):
        return sum(space.mode_occupations(q) for q in range(space.mode_count))

    def assert_sector_order(self, result):
        """Record columns by total phonon number, Fock index ascending
        within a sector."""
        total = self.totals(result.space)[result.columns]
        assert np.all(np.diff(total) >= 0)
        assert np.all(np.diff(result.columns)[np.diff(total) == 0] > 0)

    @pytest.mark.parametrize("name", ["fig3", "fig5b"])
    def test_columns_are_in_sector_order(self, scenario_cache, name):
        self.assert_sector_order(scenario_cache.result(name))

    def test_shaped_run_records_the_initial_parity(self, scenario_cache):
        # fig5b starts in |2,1,0>, N = 3: the odd sectors of the 1,331 states
        result = scenario_cache.result("fig5b")
        total = self.totals(result.space)
        assert result.columns.size == 665
        np.testing.assert_array_equal(np.sort(result.columns),
                                      np.flatnonzero(total % 2 == 1))
        assert not result.final_state.amplitudes[total % 2 == 0].any()

    def test_mixed_parity_state_through_a_window_records_every_state(self):
        cfg = replace(get_scenario("fig4b"), record_samples=2)
        schedule, _, engine = build_scenario(cfg)
        space = engine.space
        rng = np.random.default_rng(11)
        amps = rng.normal(size=space.dimension) + 1j * rng.normal(size=space.dimension)
        initial = PhononState(space, amps / np.linalg.norm(amps))
        res = engine.run(schedule, initial, record_samples=2)
        assert space.dimension == 1331
        np.testing.assert_array_equal(np.sort(res.columns), np.arange(space.dimension))
        self.assert_sector_order(res)
        assert np.array_equal(dense_populations(res)[-1],
                              np.abs(res.final_state.amplitudes) ** 2)

    def test_ideal_run_from_two_sectors_records_both(self):
        cfg = replace(get_scenario("fig3"), record_samples=16)
        schedule, _, engine = build_scenario(cfg)
        space = engine.space
        amps = np.zeros(space.dimension, dtype=complex)
        amps[space.index((2, 1, 0))] = 0.8
        amps[space.index((0, 1, 0))] = 0.6j
        # hopping keeps each sector's weight: 0.36 in sector 1 to 1e-12
        res = engine.run(schedule, PhononState(space, amps), record_samples=16)
        total = self.totals(space)
        # sector 1 holds 3 states and sector 3 holds 10
        np.testing.assert_array_equal(np.sort(res.columns),
                                      np.flatnonzero((total == 1) | (total == 3)))
        assert res.columns.size == 13
        dense = dense_populations(res)
        assert np.array_equal(dense[-1], np.abs(res.final_state.amplitudes) ** 2)
        np.testing.assert_allclose(dense[:, total == 1].sum(axis=1), 0.36,
                                   rtol=0, atol=1e-12)


class TestReferences:
    def test_beam_splitter_reference_is_hong_ou_mandel(self):
        space = FockSpace(2, 4)
        ref = beam_splitter_reference(basis_state(space, (1, 1)), (0, 1))
        pops = np.abs(ref.amplitudes) ** 2
        assert pops[space.index((1, 1))] < 1e-12
        assert pops[space.index((2, 0))] == pytest.approx(0.5, abs=1e-12)
        assert pops[space.index((0, 2))] == pytest.approx(0.5, abs=1e-12)
        assert np.linalg.norm(ref.amplitudes) == pytest.approx(1.0)

    def test_free_hop_window_realizes_the_splitter(self):
        # free hopping for the full window equals the 50:50 reference
        space, cm = two_mode_setup(5)
        h = hopping_hamiltonian(space, cm)
        initial = basis_state(space, (1, 1))
        evolved = evolve_constant(initial, h, HOP_TIME)
        target = beam_splitter_reference(initial, (0, 1))
        assert error_overlap(target, evolved) < 1e-10

    def test_error_overlap_bounds(self):
        space = FockSpace(1, 3)
        a = basis_state(space, (0,))
        b = basis_state(space, (1,))
        assert error_overlap(a, a) == pytest.approx(0.0, abs=1e-15)
        assert error_overlap(a, b) == pytest.approx(1.0)

    def test_error_overlap_rejects_states_of_another_space(self):
        # both spaces hold 81 states; the same index is another Fock state
        a = basis_state(FockSpace(2, 8), (0, 0))
        b = basis_state(FockSpace(4, 2), (0, 0, 0, 0))
        with pytest.raises(ValueError, match="different spaces"):
            error_overlap(a, b)

    def test_number_expectation_total(self):
        space = FockSpace(2, 4)
        assert number_expectation(basis_state(space, (3, 1))) == pytest.approx(4.0)
        mixed = evolve_constant(
            basis_state(space, (3, 1)),
            hopping_hamiltonian(space,
                                build_coupling_matrix(
                                    IonChainConfig.equidistant(2, SPACING))),
            0.3 * HOP_TIME)
        assert number_expectation(mixed) == pytest.approx(4.0, abs=1e-12)


def test_package_never_imports_scipy_linalg():
    """The engine runs on one BLAS: numpy's OpenBLAS and LAPACK.

    SciPy links a second OpenBLAS with its own thread pool.  While the
    sector eigensystems came from ``scipy.linalg.eigh``, that pool's worker
    threads slowed the numpy BLAS calls after them on a 2-core box: free
    evolution took 0.28-1.12 s per pass of the single-cycle shaped catalog
    scenarios, against 0.07-0.08 s with ``numpy.linalg.eigh`` and
    0.08-0.09 s with one OpenBLAS thread.

    Nor does it import ``scipy.sparse``: every operator the engine applies
    is built by digit arithmetic on the occupation numbers of a number
    sector, so the package keeps one layout of the Fock basis.  Nor any
    other part of SciPy: importing ``scipy.integrate`` alone took 0.44 s of
    every cold start.  The tests' own oracles may still use SciPy.
    """
    package = Path(__file__).resolve().parents[1] / "src" / "phonondd"
    modules = sorted(package.rglob("*.py"))
    assert len(modules) > 1
    offenders = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                names = [node.module] + [f"{node.module}.{alias.name}"
                                         for alias in node.names]
            else:
                continue
            if any(n == "scipy" or n.startswith("scipy.") for n in names):
                offenders.append(f"{path.name}:{node.lineno}")
    assert not offenders


def test_cli_import_loads_no_scipy():
    """Catches SciPy pulled in through any module, not only a direct import."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run(
        [sys.executable, "-c", "import sys, phonondd.cli;"
         " print(sorted(m for m in sys.modules if m.startswith('scipy')))"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_runs_and_reports_load_no_numpy_ma(tmp_path):
    """``np.unique`` imports ``numpy.ma`` on its first call, and
    ``numpy.polynomial`` loads on first use; no run path may use either, so
    a run, its CSVs and its report leave both unloaded."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    script = (
        "import sys\n"
        "from phonondd.scenarios import (emit_report, execute_scenario, get_scenario,\n"
        "                                populations_csv, records_csv)\n"
        "records = []\n"
        "for name in ('fig3', 'fig1b'):\n"
        "    cfg = get_scenario(name)\n"
        "    record, result = execute_scenario(cfg)\n"
        "    open(name + '_populations.csv', 'w').write(populations_csv(result, cfg))\n"
        "    open(name + '_result.csv', 'w').write(records_csv([record]))\n"
        "    records.append(record)\n"
        "emit_report(records)\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.split('.')[:2] in (['numpy', 'ma'], ['numpy', 'polynomial'])))\n")
    out = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
    assert {p.name for p in tmp_path.iterdir()} == {
        f"{name}_{kind}.csv" for name in ("fig3", "fig1b")
        for kind in ("populations", "result")}
