"""Decoupling schedule synthesis for phonon hopping.

A pi phase shift on one mode flips the sign of every hopping term touching
that mode.  Interleaving free evolution with such shifts makes the signed
dwell time of a mode pair (the time integral of its coupling sign) vanish,
canceling the hop to first order.  One synthesizer, :func:`synthesize`,
builds every schedule from a plan of grouping levels: split the modes in
half, pulse one half at the midpoint, recurse into each half at the quarter
points, and close the cycle with a compensation pulse so every mode sees an
even pulse count.

A protected subset is left untouched: the plan folds it into one slot, the
one the default roles never pulse.  An interaction truncated at index
distance eta needs only enough levels to cancel pairs up to that distance;
that plan is used when it is shorter than the plain grouping.  All
schedules are verifiable algebraically with `signed_dwell_check`, which
never touches the propagator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Mapping, Sequence, Union

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

    def pulse_counts(self) -> dict[int, int]:
        counts: dict[int, int] = {q: 0 for q in range(self.mode_count)}
        for ev in self.events:
            if isinstance(ev, PhaseShift):
                for q in ev.modes:
                    counts[q] += 1
        return counts


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


def _target_sets(levels: Sequence[dict[int, int]],
                 role_swap: Sequence[bool]) -> list[frozenset[int]]:
    """Pulsed mode set per level: the modes whose bit is the level's role."""
    if len(role_swap) != len(levels):
        raise ValueError(f"level_role_swap needs {len(levels)} flags, got {len(role_swap)}")
    return [frozenset(q for q, b in bits.items() if b == (0 if swap else 1))
            for swap, bits in zip(role_swap, levels)]


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

    Uses the truncated-reach levels when they are shorter than the plain
    grouping.  Raises ValueError when ``spec.level_role_swap`` has the
    wrong length or would pulse the protected set.
    """
    levels, roles = _truncated_plan(spec) or _grouping_plan(spec)
    if not levels:
        return []
    sets = _target_sets(levels, spec.level_role_swap
                        if spec.level_role_swap is not None else roles)
    if any(s & spec.protected_set for s in sets):
        raise ValueError("role swap pattern would pulse the protected set")
    return sets


def synthesize(spec: DDSpec) -> PulseSchedule:
    """The decoupling schedule of ``spec``, repeated ``spec.repetitions`` times.

    Pulses the :func:`target_sets` of ``spec``; with nothing to decouple
    (a single mode, or every mode protected) the schedule is one free
    segment.
    """
    sets = target_sets(spec)
    events = _assemble(sets, spec.total_time) if sets else (Evolve(spec.total_time),)
    base = PulseSchedule(events=events, mode_count=spec.mode_count,
                         shaped_pulse=spec.shaped_pulse)
    return repeat_schedule(base, spec.repetitions)


def build_sign_trace(schedule: PulseSchedule
                     ) -> dict[tuple[int, int], tuple[tuple[float, int], ...]]:
    """Piecewise-constant coupling sign per mode pair across a schedule.

    Maps each pair (j, k) with j > k to a tuple of (duration, sign) runs
    covering the whole evolve timeline in order.
    """
    m = schedule.mode_count
    pairs = [(j, k) for j in range(m) for k in range(j)]
    sign = {p: 1 for p in pairs}
    runs: dict[tuple[int, int], list[tuple[float, int]]] = {p: [] for p in pairs}
    for ev in schedule.events:
        if isinstance(ev, Evolve):
            for p in pairs:
                if runs[p] and runs[p][-1][1] == sign[p]:
                    d, s = runs[p][-1]
                    runs[p][-1] = (d + ev.duration, s)
                else:
                    runs[p].append((ev.duration, sign[p]))
        else:
            for j, k in pairs:
                # both modes pulsed at once leaves the pair sign alone
                if (j in ev.modes) != (k in ev.modes):
                    sign[(j, k)] = -sign[(j, k)]
    return {p: tuple(r) for p, r in runs.items()}


@dataclass(frozen=True)
class SignedDwellReport:
    """Algebraic verification of a schedule, no propagation involved."""

    integrals: Mapping[tuple[int, int], float]
    pulse_counts: Mapping[int, int]
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def signed_dwell_check(schedule: PulseSchedule,
                       couplings: CouplingMatrix | None = None,
                       protected_set: Iterable[int] = ()) -> SignedDwellReport:
    """Check that every coupled pair cancels and protected pairs never flip.

    A pair must integrate to zero signed dwell unless both members are
    protected (then the sign must stay +1 throughout) or its coupling rate
    is zero.  Pulse counts must be even on every mode so the cycle closes.
    """
    protected = frozenset(protected_set)
    trace = build_sign_trace(schedule)
    total = schedule.total_evolve_time
    tol = 1e-12 * total
    integrals: dict[tuple[int, int], float] = {}
    failures: list[str] = []
    for pair, runs in trace.items():
        integrals[pair] = math.fsum(d * s for d, s in runs)
        j, k = pair
        coupled = couplings is None or couplings.kappa[j, k] != 0.0
        if j in protected and k in protected:
            if any(s != 1 for _, s in runs):
                failures.append(f"protected pair {pair} saw a sign flip")
        elif coupled and abs(integrals[pair]) > tol:
            failures.append(f"pair {pair} has signed dwell {integrals[pair]:.3e}")
    counts = schedule.pulse_counts()
    for q, c in counts.items():
        if c % 2:
            failures.append(f"mode {q} has odd pulse count {c}")
        if q in protected and c:
            failures.append(f"protected mode {q} was pulsed {c} times")
    return SignedDwellReport(integrals=integrals, pulse_counts=counts,
                             failures=tuple(failures))


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

    The shortest segment of a depth-d cycle at n_r repetitions is
    T / (2^d n_r) and must exceed the pulse, so 2^d < T / (T_P n_r); the
    bounds below restate that for the mode count, the truncation distance
    and the repetition count of ``spec``.  The repetition bound takes d
    from the plan of ``spec``, :func:`target_sets`, and admits a segment
    that the pulse fills exactly, as a carved window may.
    """
    check_positive(pulse_duration=pulse_duration)
    depth = len(target_sets(spec))
    rep_bound: int | None = None
    if depth:
        limit = spec.total_time / (2 ** depth * pulse_duration)
        rep_bound = math.floor(limit) + 1 if limit >= 1.0 else 0
    ratio = spec.total_time / (pulse_duration * spec.repetitions)
    if ratio <= 1.0:
        return FeasibilityBounds(0, 0, rep_bound)
    exponent = math.floor(math.log2(ratio))
    mode_bound = 2 ** exponent
    eta_bound = 2 ** (exponent - 1) if exponent >= 1 else 0
    return FeasibilityBounds(mode_bound, eta_bound, rep_bound)
