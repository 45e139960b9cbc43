"""Decoupling schedule synthesis for phonon hopping.

A pi phase shift on one mode flips the sign of every hopping term touching
that mode.  Interleaving free evolution with such shifts makes the signed
dwell time of a mode pair (the time integral of its coupling sign) vanish,
canceling the hop to first order.  A plan of grouping levels picks the
pulsed modes: split the modes in half, pulse one half at the midpoint,
recurse into each half at the quarter points, and close the cycle with a
compensation pulse so every mode sees an even pulse count.

A protected subset is left untouched: the plan folds it into one slot, the
one the default roles never pulse.  An interaction truncated at index
distance eta needs only enough levels to cancel pairs up to that distance;
that plan is used when it is shorter than the plain grouping.  Every plan
takes one form, :func:`sign_matrix`: the sign of each mode in each of the
cycle's equal segments, whose rows are Walsh functions.
:func:`synthesize` lays the schedule out from it, and
:func:`decoupling_failures` reads the signs back off any schedule's events
and checks them exactly, without the propagator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Sequence, Union

import numpy as np

from .model import CouplingMatrix, check_positive
from .pulses import ShapedPulse


@dataclass(frozen=True)
class Evolve:
    """Free evolution for a fixed duration (s)."""

    duration: float

    def __post_init__(self) -> None:
        check_positive(duration=self.duration)


@dataclass(frozen=True)
class PhaseShift:
    """Simultaneous pi phase shift on a set of modes."""

    modes: frozenset[int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "modes", frozenset(self.modes))
        if not self.modes:
            raise ValueError("PhaseShift mode set must be non-empty")


ScheduleEvent = Union[Evolve, PhaseShift]


@dataclass(frozen=True)
class DDSpec:
    """What to decouple: mode count, cycle time, and scheme options.

    ``level_role_swap`` picks, per grouping level, whether the pulses land
    on the second half of each split (False, the default role) or the first
    half (True).  ``None`` selects the built-in default: for three modes the
    swapped-second-level ordering, which cancels markedly better, and the
    plain roles otherwise.  ``total_time`` is the full evolve time of the
    schedule; with ``repetitions`` = n_r the cycle is compressed n_r-fold
    and repeated, keeping the total unchanged.  The schedule is shaped,
    each phase shift a window of ``shaped_pulse``, exactly when a pulse is
    given; without one every phase shift is ideal.
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
        if self.mode_count < 1:
            raise ValueError("mode_count must be >= 1")
        check_positive(total_time=self.total_time)
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if any(not 0 <= q < self.mode_count for q in self.protected_set):
            raise ValueError("protected_set indices out of range")
        if self.truncation_distance is not None and self.truncation_distance < 1:
            raise ValueError("truncation_distance must be at least 1,"
                             f" not {self.truncation_distance}")
        if self.protected_set and self.truncation_distance is not None:
            raise ValueError("truncation_distance and protected_set cannot be combined")


@dataclass(frozen=True)
class PulseSchedule:
    """Ordered event timeline produced by the synthesizer.

    Each phase shift is a window of ``shaped_pulse`` when the schedule
    carries one, and ideal otherwise.
    """

    events: tuple[ScheduleEvent, ...]
    mode_count: int
    shaped_pulse: ShapedPulse | None = None

    def __post_init__(self) -> None:
        for ev in self.events:
            if (isinstance(ev, PhaseShift)
                    and not ev.modes <= set(range(self.mode_count))):
                raise ValueError(f"pulse on modes {sorted(ev.modes)} of a"
                                 f" {self.mode_count}-mode schedule")

    @property
    def pulse_model(self) -> str:
        """The pulse model: "shaped" when there is a pulse, else "ideal"."""
        return "ideal" if self.shaped_pulse is None else "shaped"

    @property
    def total_evolve_time(self) -> float:
        return sum(ev.duration for ev in self.events if isinstance(ev, Evolve))


def _split_levels(modes: Sequence) -> list[dict]:
    """Binary grouping levels.  Level l maps each element that splits at
    that level to its bit: 0 for the first (smaller) half, 1 for the rest."""
    levels: list[dict] = []
    groups: list[list] = [list(modes)]
    while any(len(g) > 1 for g in groups):
        bits: dict = {}
        nxt: list[list] = []
        for g in groups:
            if len(g) == 1:
                nxt.append(g)
                continue
            half = len(g) // 2
            lo, hi = g[:half], g[half:]
            for q in lo:
                bits[q] = 0
            for q in hi:
                bits[q] = 1
            nxt.extend((lo, hi))
        levels.append(bits)
        groups = nxt
    return levels


def default_role_swap(width: int) -> tuple[bool, ...]:
    """Built-in role-swap pattern for a grouping of ``width`` modes."""
    depth = max(1, math.ceil(math.log2(width))) if width > 1 else 0
    if width == 3:
        return (False, True)
    return (False,) * depth


def _grouping_plan(spec: DDSpec) -> tuple[list[dict[int, int]], tuple[bool, ...]]:
    """Binary grouping levels over the chain and their default roles.

    A non-empty protected set is one slot, slot 0: the slot the default
    roles never pulse, so couplings inside the set stay fully on while
    every pair with an unprotected member cancels.
    """
    protected = spec.protected_set
    slots = ([tuple(sorted(protected))] if protected else []) + \
        [(q,) for q in range(spec.mode_count) if q not in protected]
    levels = [{q: b for slot, b in bits.items() for q in slot}
              for bits in _split_levels(slots)]
    return levels, default_role_swap(len(slots))


def _truncated_plan(spec: DDSpec) -> tuple[list[dict[int, int]], tuple[bool, ...]] | None:
    """Levels for couplings truncated at index distance eta, or None.

    Modes are grouped into consecutive blocks of eta (the last block may be
    short).  Pulsing the odd blocks at the midpoint cancels every pair that
    straddles a block boundary; the levels below run the plain grouping
    inside each block simultaneously.  Depth is min(ceil(log2 eta) + 1,
    ceil(log2 M)); when that equals the full depth the plain grouping is
    as short, and None says to use it.
    """
    eta, m = spec.truncation_distance, spec.mode_count
    if eta is None:
        return None
    full_depth = math.ceil(math.log2(m))
    depth = min(math.ceil(math.log2(eta)) + 1 if eta > 1 else 1, full_depth)
    if eta >= m or depth >= full_depth:
        return None
    inner = [_split_levels(range(i, min(i + eta, m))) for i in range(0, m, eta)]
    levels = [{q: (q // eta) % 2 for q in range(m)}]
    for level in range(2, depth + 1):
        levels.append({q: b for block in inner if level - 1 <= len(block)
                       for q, b in block[level - 2].items()})
    return levels, (False,) * depth


def repeat_schedule(base: PulseSchedule, repetitions: int) -> PulseSchedule:
    """Compress the cycle ``repetitions``-fold and chain that many copies.

    Total evolve time is unchanged; residual error falls roughly with the
    square of the repetition count.
    """
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    if repetitions == 1:
        return base
    cycle = tuple(Evolve(ev.duration / repetitions) if isinstance(ev, Evolve) else ev
                  for ev in base.events)
    return replace(base, events=cycle * repetitions)


def target_sets(spec: DDSpec) -> list[frozenset[int]]:
    """Pulsed mode set per level of the plan of ``spec``; none if no levels.

    A level pulses the modes whose bit is its role.  Uses the
    truncated-reach levels when they are shorter than the plain grouping.
    Raises ValueError when ``spec.level_role_swap`` has the wrong length
    or would pulse the protected set.
    """
    levels, roles = _truncated_plan(spec) or _grouping_plan(spec)
    if not levels:
        return []
    roles = spec.level_role_swap if spec.level_role_swap is not None else roles
    if len(roles) != len(levels):
        raise ValueError(f"level_role_swap needs {len(levels)} flags, got {len(roles)}")
    sets = [frozenset(q for q, b in bits.items() if b == (0 if swap else 1))
            for swap, bits in zip(roles, levels)]
    if any(s & spec.protected_set for s in sets):
        raise ValueError("role swap pattern would pulse the protected set")
    return sets


def sign_matrix(spec: DDSpec) -> np.ndarray:
    """The plan of ``spec`` as toggling-frame signs, shape (M, L).

    With d levels from :func:`target_sets` the cycle is L = 2^d equal
    segments, and S[q, t], the sign of mode q in segment t, is
    (-1)^popcount(w_q & g(t)): g(t) = t ^ (t >> 1) is the Gray code of t
    and w_q holds bit d - l for each level l that pulses q.  Each row is
    a Walsh function, so two rows are orthogonal, and their pair cancels,
    exactly when their w differ.  Without levels, L = 1 and S is all +.
    """
    sets = target_sets(spec)
    depth = len(sets)
    weights = [sum(1 << (depth - level) for level, pulsed in enumerate(sets, 1)
                   if q in pulsed) for q in range(spec.mode_count)]
    gray = [t ^ (t >> 1) for t in range(2 ** depth)]
    return np.array([[1 - 2 * ((w & g).bit_count() & 1) for g in gray]
                     for w in weights])


def synthesize(spec: DDSpec) -> PulseSchedule:
    """The decoupling schedule of ``spec``, repeated ``spec.repetitions`` times.

    One cycle lays out the :func:`sign_matrix` S of ``spec``: one free
    segment per column, each followed by a pulse on the modes whose sign
    changes to the next column, cyclically, so the last pulse brings every
    mode back to +.  Consecutive Gray codes differ in one bit, so each
    pulse is one level's target set; with nothing to decouple (a single
    mode, or every mode protected) the schedule is one free segment.
    """
    signs = sign_matrix(spec)
    length = signs.shape[1]
    segment = Evolve(spec.total_time / length)
    events: list[ScheduleEvent] = []
    for t in range(length):
        events.append(segment)
        flipped = np.flatnonzero(signs[:, t] != signs[:, (t + 1) % length])
        if flipped.size:
            events.append(PhaseShift(frozenset(flipped.tolist())))
    base = PulseSchedule(events=tuple(events), mode_count=spec.mode_count,
                         shaped_pulse=spec.shaped_pulse)
    return repeat_schedule(base, spec.repetitions)


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
    are given).  Protected modes must stay +, and every mode end at +.
    """
    signs, end = toggling_frame(schedule)
    failures: list[str] = []
    durations = {ev.duration for ev in schedule.events if isinstance(ev, Evolve)}
    if len(durations) > 1:
        failures.append(f"free segments have {len(durations)} durations, not one")
    protected = frozenset(protected_set)
    gram = signs @ signs.T
    for j in range(schedule.mode_count):
        for k in range(j):
            coupled = couplings is None or couplings.kappa[j, k] != 0.0
            if coupled and not {j, k} <= protected and gram[j, k]:
                failures.append(f"pair {(j, k)} has signed dwell of"
                                f" {gram[j, k]} segments")
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
    ``spec``.  The repetition bound takes L from the plan of ``spec``,
    :func:`sign_matrix`, and admits a segment
    that the pulse fills exactly, as a carved window may.
    """
    check_positive(pulse_duration=pulse_duration)
    length = sign_matrix(spec).shape[1]
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
