"""Schedule synthesis, sign matrices and their exact check, serialization,
feasibility."""

import math
from collections import Counter
from dataclasses import replace
from typing import Sequence

import numpy as np
import pytest
from hypothesis import example, given, reject, strategies as st

from phonondd.model import DEFAULT_SECULAR_FREQUENCY, IonChainConfig, build_coupling_matrix
from phonondd.pulses import design_pulse
from phonondd.scenarios import scenario_catalog
from phonondd.sequences import (
    DDSpec,
    Evolve,
    PhaseShift,
    PulseSchedule,
    ScheduleEvent,
    decoupling_failures,
    feasibility_bounds,
    repeat_schedule,
    sign_matrix,
    synthesize,
    toggling_frame,
    walsh_indices,
)

from schedule_text import schedule_from_text, schedule_to_text

T = 1.0
PULSE = design_pulse(8.8 * 2.0 * math.pi / DEFAULT_SECULAR_FREQUENCY)


def compact(schedule):
    """Render events as E/P tokens for comparison against worked examples."""
    out = []
    for ev in schedule.events:
        if isinstance(ev, Evolve):
            out.append(f"E{ev.duration / schedule.total_evolve_time:g}")
        else:
            out.append("P" + "".join(str(m) for m in sorted(ev.modes)))
    return out


def pulse_counts(schedule):
    """Pulses per mode, counted from the events."""
    return Counter(q for ev in schedule.events if isinstance(ev, PhaseShift)
                   for q in ev.modes)


def target_sets(spec):
    """Pulsed mode set per level of the plan of ``spec``: level l pulses
    the modes whose Walsh index has bit d - l."""
    indices, depth = walsh_indices(spec)
    return [frozenset(q for q, w in enumerate(indices) if w >> (depth - level) & 1)
            for level in range(1, depth + 1)]


class TestEventValidation:
    def test_evolve_needs_positive_duration(self):
        with pytest.raises(ValueError):
            Evolve(0.0)
        with pytest.raises(ValueError):
            Evolve(-1e-6)
        for duration in (math.inf, math.nan):
            with pytest.raises(ValueError, match="duration must be positive and finite"):
                Evolve(duration)

    def test_phase_shift_needs_modes(self):
        with pytest.raises(ValueError):
            PhaseShift(frozenset())

    @pytest.mark.parametrize("build,message", [
        (lambda: DDSpec(3, T, protected_set={0.5}), "protected_set indices out of range"),
        (lambda: DDSpec(3, T, protected_set={3}), "protected_set indices out of range"),
        (lambda: PulseSchedule((Evolve(T), PhaseShift({0.0})), 2),
         r"pulse on modes \[0.0\] of a 2-mode schedule"),
        (lambda: PulseSchedule((Evolve(T), PhaseShift({2})), 2),
         r"pulse on modes \[2\] of a 2-mode schedule"),
    ])
    def test_mode_indices_must_be_integers_in_range(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()


class TestConcatenated:
    def test_two_modes(self):
        s = synthesize(DDSpec(2, T))
        assert compact(s) == ["E0.5", "P1", "E0.5", "P1"]

    def test_three_modes_default_roles(self):
        s = synthesize(DDSpec(3, T))
        assert compact(s) == ["E0.25", "P1", "E0.25", "P12",
                              "E0.25", "P1", "E0.25", "P12"]

    def test_three_modes_uniform_roles(self):
        s = synthesize(DDSpec(3, T, level_role_swap=(False, False)))
        assert compact(s) == ["E0.25", "P2", "E0.25", "P12",
                              "E0.25", "P2", "E0.25", "P12"]

    def test_four_modes(self):
        s = synthesize(DDSpec(4, T))
        assert compact(s) == ["E0.25", "P13", "E0.25", "P23",
                              "E0.25", "P13", "E0.25", "P23"]

    def test_single_mode_degenerates_to_free_evolution(self):
        s = synthesize(DDSpec(1, T))
        assert compact(s) == ["E1"]

    def test_default_role_swap_widths(self):
        for width, roles in ((3, (False, True)), (2, (False,)), (4, (False, False)),
                             (8, (False, False, False))):
            assert target_sets(DDSpec(width, T)) == \
                target_sets(DDSpec(width, T, level_role_swap=roles)), width

    @pytest.mark.parametrize("modes", range(2, 9))
    def test_pulse_counts_even(self, modes):
        s = synthesize(DDSpec(modes, T))
        for mode, count in pulse_counts(s).items():
            assert count % 2 == 0, (modes, mode, count)

    def test_total_evolve_time_matches_request(self):
        for modes in range(1, 9):
            s = synthesize(DDSpec(modes, T))
            assert s.total_evolve_time == pytest.approx(T, rel=1e-15)


class TestProtected:
    def test_two_protected_of_three(self):
        s = synthesize(DDSpec(3, T, protected_set=frozenset({0, 1})))
        assert compact(s) == ["E0.5", "P2", "E0.5", "P2"]

    def test_one_protected_of_three(self):
        s = synthesize(DDSpec(3, T, protected_set=frozenset({1})))
        assert compact(s) == ["E0.25", "P0", "E0.25", "P02",
                              "E0.25", "P0", "E0.25", "P02"]

    def test_all_protected_is_free_evolution(self):
        s = synthesize(DDSpec(2, T, protected_set=frozenset({0, 1})))
        assert compact(s) == ["E1"]

    def test_protected_modes_never_pulsed(self):
        for prot in ({0}, {2}, {0, 2}, {1, 2}):
            s = synthesize(DDSpec(3, T, protected_set=frozenset(prot)))
            counts = pulse_counts(s)
            for mode in prot:
                assert counts.get(mode, 0) == 0

    def test_role_swap_hitting_protected_block_rejected(self):
        with pytest.raises(ValueError):
            synthesize(DDSpec(3, T, protected_set=frozenset({0, 1}),
                              level_role_swap=(True,)))


class TestTruncated:
    def test_reach_one_of_four(self):
        s = synthesize(DDSpec(4, T, truncation_distance=1))
        assert compact(s) == ["E0.5", "P13", "E0.5", "P13"]

    def test_reach_two_of_eight(self):
        s = synthesize(DDSpec(8, T, truncation_distance=2))
        assert compact(s) == ["E0.25", "P1357", "E0.25", "P2367",
                              "E0.25", "P1357", "E0.25", "P2367"]

    def test_wide_reach_delegates_to_plain_concatenation(self):
        full = synthesize(DDSpec(4, T))
        for eta in (3, 4, 7):
            s = synthesize(DDSpec(4, T, truncation_distance=eta))
            assert compact(s) == compact(full)


class TestSpecValidation:
    def test_protected_with_truncation_unsupported(self):
        with pytest.raises(ValueError):
            synthesize(DDSpec(4, T, protected_set=frozenset({0}),
                              truncation_distance=1))

    @pytest.mark.parametrize("eta", [0, -1])
    def test_reach_below_one_rejected(self, eta):
        with pytest.raises(ValueError, match="truncation_distance"):
            DDSpec(4, T, truncation_distance=eta)

    @pytest.mark.parametrize("total", [math.inf, math.nan, 0.0])
    def test_total_time_must_be_finite_and_positive(self, total):
        with pytest.raises(ValueError, match="total_time must be positive and finite"):
            DDSpec(2, total)

    @pytest.mark.parametrize("field,value", [
        ("mode_count", 2.5), ("repetitions", 2.5), ("truncation_distance", 1.5),
        ("mode_count", True)])
    def test_integer_fields_reject_other_numbers(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer, not {value}"):
            DDSpec(**{"mode_count": 4, "total_time": T, field: value})

    @pytest.mark.parametrize("roles", [("no", "yes"), (0, 2), (np.True_, False)])
    def test_role_flags_must_be_bools(self, roles):
        with pytest.raises(ValueError, match="level_role_swap flags must be bools"):
            DDSpec(3, T, level_role_swap=roles)

    def test_role_flags_on_a_plan_without_levels_rejected(self):
        for spec, count in ((DDSpec(1, T, level_role_swap=(True,)), 1),
                            (DDSpec(2, T, protected_set=frozenset({0, 1}),
                                    level_role_swap=(True, False, True)), 3)):
            with pytest.raises(ValueError, match=f"needs 0 flags, got {count}"):
                walsh_indices(spec)

    def test_the_pulse_alone_makes_a_schedule_shaped(self):
        shaped = synthesize(DDSpec(2, T, shaped_pulse=PULSE))
        ideal = synthesize(DDSpec(2, T))
        assert shaped.shaped_pulse is PULSE and shaped.pulse_model == "shaped"
        assert ideal.shaped_pulse is None and ideal.pulse_model == "ideal"
        assert shaped.events == ideal.events
        with pytest.raises(AttributeError):
            ideal.pulse_model = "shaped"
        with pytest.raises(TypeError):
            PulseSchedule(events=(Evolve(T),), mode_count=2, pulse_model="shaped")


class TestRepetition:
    def test_divides_and_repeats(self):
        s = synthesize(DDSpec(2, T, repetitions=2))
        assert compact(s) == ["E0.25", "P1", "E0.25", "P1",
                              "E0.25", "P1", "E0.25", "P1"]

    @pytest.mark.parametrize("n_r", [1, 2, 5, 8])
    def test_total_evolve_time_invariant(self, n_r):
        # repeating subdivides the same wall-clock window, never extends it
        s = synthesize(DDSpec(3, T, repetitions=n_r))
        assert s.total_evolve_time == pytest.approx(T, rel=1e-12)

    def test_explicit_repeat_matches_spec_field(self):
        base = synthesize(DDSpec(3, T))
        again = repeat_schedule(base, 5)
        via_spec = synthesize(DDSpec(3, T, repetitions=5))
        assert compact(again) == compact(via_spec)

    @pytest.mark.parametrize("n_r,message", [
        (2.5, "repetitions must be an integer, not 2.5"),
        (0, "repetitions must be at least 1, not 0"),
    ])
    def test_repeat_count_is_checked(self, n_r, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            repeat_schedule(synthesize(DDSpec(3, T)), n_r)


class TestSignedDwell:
    @pytest.mark.parametrize("modes", range(2, 9))
    def test_concatenated_cancels_every_pair(self, modes):
        s = synthesize(DDSpec(modes, T))
        assert decoupling_failures(s) == ()
        signs, _ = toggling_frame(s)
        gram = signs @ signs.T
        assert (gram == np.diag(np.diag(gram))).all()

    @pytest.mark.parametrize("modes,n_r", [(3, 2), (3, 5), (8, 3)])
    def test_repeated_schedules_cancel(self, modes, n_r):
        failures = decoupling_failures(synthesize(DDSpec(modes, T, repetitions=n_r)))
        assert not failures, failures

    @pytest.mark.parametrize("prot", [{0}, {1}, {0, 1}, {0, 2}])
    def test_protected_schedules(self, prot):
        spec = DDSpec(3, T, protected_set=frozenset(prot))
        failures = decoupling_failures(synthesize(spec), protected_set=prot)
        assert not failures, failures

    @pytest.mark.parametrize("modes,eta", [(4, 1), (8, 2), (8, 1)])
    def test_truncated_schedules_cancel_within_reach(self, modes, eta):
        spec = DDSpec(modes, T, truncation_distance=eta)
        cm = build_coupling_matrix(
            IonChainConfig.equidistant(modes, 43.8e-6, truncation_distance=eta))
        failures = decoupling_failures(synthesize(spec), couplings=cm)
        assert not failures, failures

    @pytest.mark.parametrize("cfg", scenario_catalog(), ids=lambda cfg: cfg.name)
    def test_catalog_windows_balance_their_kicks(self, cfg):
        schedule = synthesize(cfg.spec(PULSE))
        assert decoupling_failures(schedule, protected_set=cfg.protected_set) == ()

    def test_paper_plan_from_four_modes_leaves_window_kicks(self):
        def kicks(*pairs):
            return tuple(f"pair {pair} has window kick imbalance of {n}" for pair, n in pairs)
        four = DDSpec(4, T, shaped_pulse=PULSE)
        assert decoupling_failures(synthesize(four)) == kicks(((2, 1), 4))
        # each repetition adds the cycle's imbalance again
        assert decoupling_failures(synthesize(replace(four, repetitions=3))) == \
            kicks(((2, 1), 12))
        assert decoupling_failures(synthesize(DDSpec(8, T, shaped_pulse=PULSE))) == kicks(
            ((4, 2), 4), ((4, 3), 4), ((5, 2), -4), ((5, 3), 4), ((6, 1), 8))
        # ideal pulses open no window, so there is no kick to balance
        assert decoupling_failures(synthesize(replace(four, shaped_pulse=None))) == ()

    def test_unbalanced_schedule_flagged(self):
        bad = PulseSchedule(events=(Evolve(0.75), PhaseShift(frozenset({1})),
                                    Evolve(0.25), PhaseShift(frozenset({1}))),
                            mode_count=2)
        assert decoupling_failures(bad)

    def test_uncancelled_pair_odd_count_and_flipped_protected_mode_flagged(self):
        bad = PulseSchedule(events=(Evolve(0.5), PhaseShift(frozenset({0})),
                                    Evolve(0.5)), mode_count=3)
        assert decoupling_failures(bad, protected_set={0}) == (
            "pair (2, 1) has signed dwell of 2 segments",
            "protected mode 0 changed sign",
            "mode 0 has an odd pulse count",
        )

    def test_pair_sign_is_the_product_of_its_rows(self):
        # pair (2, 1): pulses on 1 alone flip it, pulses on {1,2} leave it,
        # so the two central quarters are negative: merged, the runs are
        # +0.25, -0.5, +0.25
        signs = sign_matrix(DDSpec(3, T))
        assert (signs[2] * signs[1]).tolist() == [1, -1, -1, 1]


def _assemble(level_sets: Sequence[frozenset[int]],
              total_time: float) -> tuple[ScheduleEvent, ...]:
    """Lay out one cycle: 2^depth equal segments, pulses at the boundaries.

    The boundary at m * T / 2^depth belongs to level depth - v where v is
    the 2-adic valuation of m.  Level l contributes 2^(l-1) pulses per
    member, so only level 1 decides the parity: the closing boundary
    compensates its set, which makes every count even.  Coincident sets
    merge by symmetric difference (a mode pulsed twice at one instant is
    not pulsed).
    """
    depth = len(level_sets)
    nbp = 2 ** depth
    seg = total_time / nbp
    events: list[ScheduleEvent] = []
    for m in range(1, nbp + 1):
        events.append(Evolve(seg))
        v = (m & -m).bit_length() - 1
        level = depth - v
        pulsed = level_sets[level - 1] if level >= 1 else frozenset()
        if m == nbp:
            pulsed = pulsed ^ level_sets[0]
        if pulsed:
            events.append(PhaseShift(pulsed))
    return tuple(events)


@st.composite
def plans(draw):
    """DDSpec over M <= 16: a protected set or a reach, role swaps of the
    plan's depth, and n_r."""
    modes = draw(st.integers(1, 16))
    protected = draw(st.frozensets(st.integers(0, modes - 1)))
    reach = None if protected else draw(st.none() | st.integers(1, 16))
    spec = DDSpec(modes, draw(st.floats(1e-6, 1e-2)),
                  repetitions=draw(st.integers(1, 5)), protected_set=protected,
                  truncation_distance=reach)
    _, depth = walsh_indices(spec)
    roles = draw(st.none() | st.tuples(*[st.booleans()] * depth))
    return replace(spec, level_role_swap=roles)


@pytest.mark.parametrize("spec,indices,depth", [
    (DDSpec(3, T), (0, 3, 2), 2),
    (DDSpec(3, T, level_role_swap=(False, False)), (0, 2, 3), 2),
    (DDSpec(3, T, protected_set=frozenset({0, 1})), (0, 0, 1), 1),
    (DDSpec(4, T, protected_set=frozenset({1, 3})), (3, 0, 2, 0), 2),
    (DDSpec(5, T), (0, 2, 4, 6, 7), 3),
    (DDSpec(6, T, truncation_distance=2), (0, 1, 2, 3, 0, 1), 2),
    (DDSpec(8, T, truncation_distance=2), (0, 1, 2, 3) * 2, 2),
    (DDSpec(16, T, truncation_distance=3), (0, 2, 3, 4, 6, 7) * 2 + (0, 2, 3, 4), 3),
], ids=["M3", "M3-uniform-roles", "M3-protected-01", "M4-protected-13", "M5",
        "M6-reach2", "M8-reach2", "M16-reach3"])
def test_walsh_indices_of_pinned_plans(spec, indices, depth):
    assert walsh_indices(spec) == (indices, depth)


def catalog_examples(test):
    for cfg in scenario_catalog():
        test = example(spec=cfg.spec())(test)
    return test


@given(spec=plans())
@catalog_examples
def test_layout_of_the_sign_matrix_matches_the_valuation_layout(spec):
    """The schedule laid out from S is the one placed by 2-adic valuations,
    and S read back from it is S tiled once per repetition."""
    try:
        schedule = synthesize(spec)
    except ValueError:
        reject()
    sets = target_sets(spec)
    cycle = _assemble(sets, spec.total_time) if sets else (Evolve(spec.total_time),)
    reference = repeat_schedule(PulseSchedule(cycle, spec.mode_count), spec.repetitions)
    assert schedule.events == reference.events
    signs, end = toggling_frame(schedule)
    assert (signs == np.tile(sign_matrix(spec), spec.repetitions)).all()
    assert (end == 1).all()


@pytest.mark.parametrize("cfg", scenario_catalog(), ids=lambda cfg: cfg.name)
def test_catalog_plan_is_the_assignment_its_target_sets_name(cfg):
    """L = 2^d columns, starting all +; the rows that flip after column t
    are the set of level d - v, v the 2-adic valuation of t + 1, and the
    cycle closes on the level-1 set."""
    spec = cfg.spec()
    sets = target_sets(spec)
    signs = sign_matrix(spec)
    depth, length = len(sets), signs.shape[1]
    assert signs.shape == (cfg.mode_count, 2 ** depth)
    assert (signs[:, 0] == 1).all()
    for t in range(length - 1):
        level = depth - ((t + 1) & -(t + 1)).bit_length() + 1
        flipped = frozenset(np.flatnonzero(signs[:, t] != signs[:, t + 1]).tolist())
        assert flipped == sets[level - 1], (t, level)
    closing = frozenset(np.flatnonzero(signs[:, -1] != signs[:, 0]).tolist())
    assert closing == (sets[0] if sets else frozenset())


class TestSerialization:
    @pytest.mark.parametrize("spec", [
        DDSpec(2, T),
        DDSpec(3, 525.2809525658624e-6, repetitions=5),
        DDSpec(3, T, protected_set=frozenset({0, 1})),
        DDSpec(8, T, truncation_distance=2),
    ])
    def test_round_trip(self, spec):
        s = synthesize(spec)
        text = schedule_to_text(s)
        back = schedule_from_text(text)
        assert back == s
        assert schedule_to_text(back) == text

    def test_round_trip_of_a_shaped_schedule_drops_the_pulse(self):
        s = synthesize(DDSpec(3, T, repetitions=2, shaped_pulse=PULSE))
        assert schedule_from_text(schedule_to_text(s)) == replace(s, shaped_pulse=None)

    def test_durations_survive_exactly(self):
        s = synthesize(DDSpec(3, math.pi * 1.7e-4, repetitions=3))
        back = schedule_from_text(schedule_to_text(s))
        for a, b in zip(s.events, back.events):
            if isinstance(a, Evolve):
                assert a.duration == b.duration  # repr round trip, bit exact

    def test_header_carries_metadata(self):
        s = synthesize(DDSpec(3, T, repetitions=2))
        head = schedule_to_text(s).splitlines()[0]
        assert head.startswith("# schedule ")
        assert "modes=3" in head

    def test_rejects_malformed_text(self):
        with pytest.raises(ValueError):
            schedule_from_text("EVOLVE 0.5\n")
        with pytest.raises(ValueError):
            schedule_from_text("# schedule modes=2\nWAIT 1\n")


class TestFeasibility:
    def test_nothing_fits(self):
        fb = feasibility_bounds(DDSpec(4, 1e-6), 2e-6)
        assert (fb.mode_bound, fb.eta_bound, fb.repetition_bound) == (0, 0, 0)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            feasibility_bounds(DDSpec(3, 0.0), 1e-6)
        with pytest.raises(ValueError):
            feasibility_bounds(DDSpec(3, 1e-3), -1e-6)
        with pytest.raises(ValueError):
            feasibility_bounds(DDSpec(3, 1e-3, repetitions=0), 1e-6)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="total_time must be positive and finite"):
                feasibility_bounds(DDSpec(3, bad), 1e-6)
            with pytest.raises(ValueError,
                               match="pulse_duration must be positive and finite"):
                feasibility_bounds(DDSpec(3, 1e-3), bad)
