"""Decoupling schedule synthesis for phonon hopping.

A pi phase shift on one mode flips the sign of every hopping term touching
that mode.  Interleaving free evolution with such shifts makes the signed
dwell time of a mode pair (the time integral of its coupling sign) vanish,
canceling the hop to first order.

A plan is one Walsh index per mode, :func:`walsh_indices`.  Recursive
halving of the chain gives each mode a code, one bit per split: pulse one
half at the midpoint, recurse into each half at the quarter points, and
close the cycle with a compensation pulse so every mode sees an even pulse
count.  A protected subset is one slot, the one the default roles never
pulse.  An interaction truncated at index distance eta needs only enough
levels to cancel pairs up to that distance: blocks of eta, each code
prefixed with its block parity, used when that plan is shallower.  With
depth d the cycle is 2^d equal segments, and :func:`sign_matrix` gives the
sign of each mode in each: row q is the Walsh function of w_q, so a pair
cancels exactly when its indices differ.  :func:`synthesize` lays the
schedule out from those signs, and :func:`decoupling_failures` reads the
signs back off any schedule's events and checks them exactly, without the
propagator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Union

import numpy as np

from .model import CouplingMatrix, check_count, check_positive, is_integer
from .pulses import ShapedPulse


@dataclass(frozen=True)
class Evolve:
    """Free evolution for a fixed duration (s)."""

    duration: float

    def __post_init__(self) -> None:
        check_positive(duration=self.duration)


@dataclass(frozen=True)
class PhaseShift:
    """Simultaneous pi phase shift on a set of modes: a window of ``pulse``, else ideal."""

    modes: frozenset[int]
    pulse: ShapedPulse | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "modes", frozenset(self.modes))
        if not self.modes:
            raise ValueError("PhaseShift mode set must be non-empty")


ScheduleEvent = Union[Evolve, PhaseShift]


@dataclass(frozen=True)
class DDSpec:
    """What to decouple: mode count, cycle time, and scheme options.

    ``level_role_swap`` holds one bool per level of the plan, d of them
    (:func:`walsh_indices`): whether the level pulses the first half of
    each split (True) or the second (False, the default role).  ``None``
    selects the built-in default: for three slots the swapped second
    level, which cancels markedly better, and the plain roles otherwise.
    ``total_time`` is the full evolve time of the schedule; with
    ``repetitions`` = n_r the cycle is compressed n_r-fold and repeated,
    keeping the total unchanged.  With ``shaped_pulse`` every phase shift
    is a window of that pulse, else ideal.  The counts and the reach are
    integers and the role flags bools, checked when the spec is built.
    """

    mode_count: int
    total_time: float
    repetitions: int = 1
    protected_set: frozenset[int] = frozenset()
    truncation_distance: int | None = None
    level_role_swap: tuple[bool, ...] | None = None
    shaped_pulse: ShapedPulse | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "protected_set", frozenset(self.protected_set))
        eta = self.truncation_distance
        check_count(mode_count=self.mode_count, repetitions=self.repetitions,
                    truncation_distance=1 if eta is None else eta)
        check_positive(total_time=self.total_time)
        if any(not (is_integer(q) and 0 <= q < self.mode_count) for q in self.protected_set):
            raise ValueError("protected_set indices out of range")
        if self.level_role_swap is not None and not all(
                isinstance(flag, bool) for flag in self.level_role_swap):
            raise ValueError("level_role_swap flags must be bools,"
                             f" not {self.level_role_swap!r}")
        if self.protected_set and self.truncation_distance is not None:
            raise ValueError("truncation_distance and protected_set cannot be combined")


@dataclass(frozen=True)
class PulseSchedule:
    """Ordered event timeline produced by the synthesizer.

    A window, a phase shift with a pulse, is carved from the free segment
    right before it and must fit in it, to within 1e-12 of it; with no
    free segment right before it, a window fits in 0 s.
    """

    events: tuple[ScheduleEvent, ...]
    mode_count: int

    def __post_init__(self) -> None:
        for before, ev in zip((None, *self.events), self.events):
            if isinstance(ev, Evolve):
                continue
            if not all(is_integer(q) and 0 <= q < self.mode_count for q in ev.modes):
                raise ValueError(f"pulse on modes {sorted(ev.modes)} of a"
                                 f" {self.mode_count}-mode schedule")
            segment = before.duration if isinstance(before, Evolve) else 0.0
            if ev.pulse is not None and segment - ev.pulse.duration < -1e-12 * segment:
                raise ValueError(f"a {ev.pulse.duration:g} s pulse window does not"
                                 f" fit in the {segment:g} s free segment before it")

    @property
    def pulse_model(self) -> str:
        """The pulse model: "shaped" when any phase shift has a pulse, else "ideal"."""
        return "shaped" if any(kind == "window" for kind, _, _ in self.steps()) else "ideal"

    @property
    def total_evolve_time(self) -> float:
        return sum(ev.duration for ev in self.events if isinstance(ev, Evolve))

    def steps(self) -> Iterator[tuple[str, float, PhaseShift | None]]:
        """The (kind, duration, phase shift) steps: "free" (with no phase
        shift), "parity" (an ideal pulse) or "window".  A window takes the
        tail of the segment before it, so the steps last the evolve time."""
        for ev, following in zip(self.events, (*self.events[1:], None)):
            if isinstance(ev, Evolve):
                carved = following.pulse if isinstance(following, PhaseShift) else None
                lead = ev.duration - (0.0 if carved is None else carved.duration)
                if lead > 0:
                    yield "free", lead, None
            elif ev.pulse is None:
                yield "parity", 0.0, ev
            else:
                yield "window", ev.pulse.duration, ev


def _halving_codes(width: int) -> list[tuple[int, ...]]:
    """The code of each of ``width`` slots under recursive halving: bit l
    is 0 for the first (smaller) half of the slot's split at level l + 1,
    else 1.  A slot has one bit per split it takes part in."""
    if width == 1:
        return [()]
    half = width // 2
    return ([(0, *code) for code in _halving_codes(half)]
            + [(1, *code) for code in _halving_codes(width - half)])


def walsh_indices(spec: DDSpec) -> tuple[tuple[int, ...], int]:
    """The plan of ``spec``: the Walsh index w_q of each mode, and depth d.

    The plain plan halves the slots recursively, a non-empty protected set
    being one slot that comes first: its bits are all 0, so the default
    roles never pulse it, its inner couplings stay on, and every pair with
    an unprotected member cancels.  A reach eta groups the modes into
    blocks of eta and prefixes the block parity to the codes inside each
    block, so the first level cancels every pair across a block boundary;
    that plan is used when it is shallower.  Level l + 1 pulses a
    mode whose bit l differs from its role flag, so w_q sums
    (bit XOR swap_l) << (d - 1 - l) over the mode's bits.  The default
    roles are all False, except (False, True) for three slots.  Raises
    ValueError when ``spec.level_role_swap`` has the wrong length or would
    pulse the protected set.
    """
    protected, m, eta = spec.protected_set, spec.mode_count, spec.truncation_distance
    slots = ([sorted(protected)] if protected else []) + \
        [[q] for q in range(m) if q not in protected]
    codes: list[tuple[int, ...]] = [()] * m
    for slot, code in zip(slots, _halving_codes(len(slots))):
        for q in slot:
            codes[q] = code
    default = (False, True) if len(slots) == 3 else ()
    if eta is not None:
        blocks = [_halving_codes(min(eta, m - first)) for first in range(0, m, eta)]
        blocked = [((q // eta) % 2, *blocks[q // eta][q % eta]) for q in range(m)]
        if max(map(len, blocked)) < max(map(len, codes)):
            codes, default = blocked, ()
    depth = max(map(len, codes))
    roles = spec.level_role_swap
    if roles is None:
        roles = default or (False,) * depth
    if len(roles) != depth:
        raise ValueError(f"level_role_swap needs {depth} flags, got {len(roles)}")
    indices = tuple(sum((bit ^ swap) << (depth - 1 - level)
                        for level, (bit, swap) in enumerate(zip(code, roles)))
                    for code in codes)
    if any(indices[q] for q in protected):
        raise ValueError("role swap pattern would pulse the protected set")
    return indices, depth


def sign_matrix(spec: DDSpec) -> np.ndarray:
    """The plan of ``spec`` as toggling-frame signs, shape (M, L).

    With the Walsh indices w and depth d of :func:`walsh_indices` the cycle
    is L = 2^d equal segments, and S[q, t], the sign of mode q in segment
    t, is (-1)^popcount(w_q & g(t)), g(t) the Gray code of t.  Each row is
    a Walsh function, so two rows are orthogonal, and their pair cancels,
    exactly when their w differ.  Without levels, L = 1 and S is all +.
    """
    indices, depth = walsh_indices(spec)
    gray = [t ^ (t >> 1) for t in range(2 ** depth)]
    return np.array([[1 - 2 * ((w & g).bit_count() & 1) for g in gray] for w in indices])


def repeat_schedule(base: PulseSchedule, repetitions: int) -> PulseSchedule:
    """Compress the cycle ``repetitions``-fold and chain that many copies.

    Total evolve time is unchanged.  With ideal pulses, or shaped windows
    whose kicks balance (see :func:`decoupling_failures`), the residual
    error falls roughly as n_r^-2; an unbalanced shaped cycle adds its
    kick again on every copy, and its error grows as n_r^2.
    """
    check_count(repetitions=repetitions)
    cycle = tuple(Evolve(ev.duration / repetitions) if isinstance(ev, Evolve) else ev
                  for ev in base.events)
    return replace(base, events=cycle * repetitions)


def synthesize(spec: DDSpec) -> PulseSchedule:
    """The decoupling schedule of ``spec``, repeated ``spec.repetitions`` times.

    One cycle lays out the :func:`sign_matrix` S of ``spec``: one free
    segment per column, each followed by a pulse on the modes whose sign
    changes to the next column, cyclically, so the last pulse brings every
    mode back to +.  Consecutive Gray codes differ in one bit, so each
    pulse is the set of modes whose Walsh index has that bit; with nothing
    to decouple (a single mode, or every mode protected) the schedule is
    one free segment.
    """
    columns = sign_matrix(spec).T
    segment = Evolve(spec.total_time / len(columns))
    events: list[ScheduleEvent] = []
    for now, following in zip(columns, np.roll(columns, -1, axis=0)):
        events.append(segment)
        flipped = frozenset(np.flatnonzero(now != following).tolist())
        if flipped:
            events.append(PhaseShift(flipped, spec.shaped_pulse))
    return repeat_schedule(PulseSchedule(tuple(events), spec.mode_count), spec.repetitions)


def toggling_frame(schedule: PulseSchedule) -> tuple[np.ndarray, np.ndarray]:
    """The signs of any schedule, read off its events: (S, end).

    S has one column per free segment, each mode's sign during it; ``end``
    is each mode's sign after the last event, + for an even pulse count.
    """
    sign = np.ones(schedule.mode_count, dtype=int)
    columns = []
    for ev in schedule.events:
        if isinstance(ev, Evolve):
            columns.append(sign.copy())
        else:
            sign[list(ev.modes)] *= -1
    return np.array(columns, dtype=int).reshape(-1, schedule.mode_count).T, sign


def decoupling_failures(schedule: PulseSchedule,
                        couplings: CouplingMatrix | None = None,
                        protected_set: Iterable[int] = ()) -> tuple[str, ...]:
    """Why ``schedule`` fails to cancel the hopping; empty when it does.

    Exact, on the integer signs of :func:`toggling_frame`.  The free
    segments must share one duration, so a pair's signed dwell is that
    duration times its entry of S S^T, which must be zero for every pair
    with a non-protected member (and a nonzero rate, when ``couplings``
    are given).  A window on the pulsed set x adds a kick
    s_j s_k (x_j - x_k) to pair (j, k), s the signs after it, and an ideal
    pulse flips the signs but adds none; on the same pairs the kicks must
    sum to zero, or the kick grows with every repetition.
    Protected modes must stay +, and every mode end at +.
    """
    signs, end = toggling_frame(schedule)
    failures: list[str] = []
    durations = {ev.duration for ev in schedule.events if isinstance(ev, Evolve)}
    if len(durations) > 1:
        failures.append(f"free segments have {len(durations)} durations, not one")
    protected = frozenset(protected_set)
    m = schedule.mode_count
    gram = signs @ signs.T
    shifts = [ev for ev in schedule.events if isinstance(ev, PhaseShift)]
    pulsed = np.array([[q in ev.modes for q in range(m)] for ev in shifts],
                      dtype=int).reshape(-1, m)
    after = np.cumprod(1 - 2 * pulsed, axis=0)
    windows = np.array([ev.pulse is not None for ev in shifts], dtype=int)
    kicked = after * pulsed * windows[:, None]
    kicks = kicked.T @ after - after.T @ kicked
    for j in range(m):
        for k in range(j):
            coupled = couplings is None or couplings.kappa[j, k] != 0.0
            if not coupled or {j, k} <= protected:
                continue
            if gram[j, k]:
                failures.append(f"pair {(j, k)} has signed dwell of"
                                f" {gram[j, k]} segments")
            if kicks[j, k]:
                failures.append(f"pair {(j, k)} has window kick imbalance"
                                f" of {kicks[j, k]}")
    failures += [f"protected mode {q} changed sign" for q in sorted(protected)
                 if (signs[q] < 0).any()]
    failures += [f"mode {q} has an odd pulse count"
                 for q in np.flatnonzero(end < 0).tolist()]
    return tuple(failures)


@dataclass(frozen=True)
class FeasibilityBounds:
    """Limits set by finite pulse duration.

    ``mode_bound`` is the largest chain size whose schedule still fits and
    ``eta_bound`` the largest usable truncation distance (both powers of
    two, reached inclusively); ``repetition_bound`` is the first repetition
    count that no longer fits, so valid counts stay strictly below it.  A
    zero bound means nothing fits, and a repetition bound of None that the
    plan has no levels, so its schedule has no pulse.
    """

    mode_bound: int
    eta_bound: int
    repetition_bound: int | None


def feasibility_bounds(spec: DDSpec, pulse_duration: float) -> FeasibilityBounds:
    """How large a schedule fits when each pulse burns ``pulse_duration``.

    The shortest segment of an L-segment cycle at n_r repetitions is
    T / (L n_r) and must exceed the pulse, so L < T / (T_P n_r), with
    L = 2^d at d grouping levels; the bounds below restate that for the
    mode count, the truncation distance and the repetition count of
    ``spec``.  The repetition bound takes d from the plan of ``spec``,
    :func:`walsh_indices`, and admits a segment that the pulse fills
    exactly, as :class:`PulseSchedule` admits a window that fills its
    segment.
    """
    check_positive(pulse_duration=pulse_duration)
    length = 2 ** walsh_indices(spec)[1]
    rep_bound: int | None = None
    if length > 1:
        limit = spec.total_time / (length * pulse_duration)
        rep_bound = math.floor(limit) + 1 if limit >= 1.0 else 0
    ratio = spec.total_time / (pulse_duration * spec.repetitions)
    if ratio <= 1.0:
        return FeasibilityBounds(0, 0, rep_bound)
    exponent = math.floor(math.log2(ratio))
    mode_bound = 2 ** exponent
    eta_bound = 2 ** (exponent - 1) if exponent >= 1 else 0
    return FeasibilityBounds(mode_bound, eta_bound, rep_bound)
