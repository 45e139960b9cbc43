"""Decoupling schedule synthesis for phonon hopping.

A pi phase shift on one mode flips the sign of every hopping term touching
that mode.  Interleaving free evolution with such shifts makes the signed
dwell time of a mode pair (the time integral of its coupling sign) vanish,
canceling the hop to first order.  The synthesizer builds schedules by
recursive binary grouping: split the modes in half, pulse one half at the
midpoint, recurse into each half at the quarter points, and close the cycle
with a compensation pulse so every mode sees an even pulse count.

Variants: a protected subset is left untouched by folding it into a single
virtual mode; an interaction truncated at index distance eta needs only
enough levels to cancel pairs up to that distance, shortening the schedule.
All schedules are verifiable algebraically with `signed_dwell_check`, which
never touches the propagator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Mapping, Sequence, Union

from .model import CouplingMatrix
from .pulses import ShapedPulse


@dataclass(frozen=True)
class Evolve:
    """Free evolution for a fixed duration (s)."""

    duration: float

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ValueError("Evolve duration must be positive")


@dataclass(frozen=True)
class PhaseShift:
    """Simultaneous pi phase shift on a set of modes."""

    modes: frozenset[int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "modes", frozenset(self.modes))
        if not self.modes:
            raise ValueError("PhaseShift mode set must be non-empty")


ScheduleEvent = Union[Evolve, PhaseShift]


PULSE_MODELS = ("ideal", "shaped")


@dataclass(frozen=True)
class DDSpec:
    """What to decouple: mode count, cycle time, and scheme options.

    ``level_role_swap`` picks, per grouping level, whether the pulses land
    on the second half of each split (False, the default role) or the first
    half (True).  ``None`` selects the built-in default: for three modes the
    swapped-second-level ordering, which cancels markedly better, and the
    plain roles otherwise.  ``total_time`` is the full evolve time of the
    schedule; with ``repetitions`` = n_r the cycle is compressed n_r-fold
    and repeated, keeping the total unchanged.
    """

    mode_count: int
    total_time: float
    repetitions: int = 1
    protected_set: frozenset[int] = frozenset()
    truncation_distance: int | None = None
    level_role_swap: tuple[bool, ...] | None = None
    pulse_model: str = "ideal"
    shaped_pulse: ShapedPulse | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "protected_set", frozenset(self.protected_set))
        if self.mode_count < 1:
            raise ValueError("mode_count must be >= 1")
        if self.total_time <= 0:
            raise ValueError("total_time must be positive")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if any(not 0 <= q < self.mode_count for q in self.protected_set):
            raise ValueError("protected_set indices out of range")
        if self.pulse_model not in PULSE_MODELS:
            raise ValueError(f"pulse_model must be one of {', '.join(PULSE_MODELS)}")
        if self.pulse_model == "shaped" and self.shaped_pulse is None:
            raise ValueError("shaped pulse_model needs a shaped_pulse")


@dataclass(frozen=True)
class PulseSchedule:
    """Ordered event timeline produced by the synthesizer."""

    events: tuple[ScheduleEvent, ...]
    mode_count: int
    total_time: float
    repetitions: int = 1
    pulse_model: str = "ideal"
    shaped_pulse: ShapedPulse | None = None
    warning: str | None = None

    def __post_init__(self) -> None:
        for ev in self.events:
            if (isinstance(ev, PhaseShift)
                    and not ev.modes <= set(range(self.mode_count))):
                raise ValueError(f"pulse on modes {sorted(ev.modes)} of a"
                                 f" {self.mode_count}-mode schedule")

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


def _split_levels(modes: Sequence[int]) -> list[dict[int, int]]:
    """Binary grouping levels.  Level l maps each mode that splits at that
    level to its bit: 0 for the first (smaller) half, 1 for the rest."""
    levels: list[dict[int, int]] = []
    groups: list[list[int]] = [list(modes)]
    while any(len(g) > 1 for g in groups):
        bits: dict[int, int] = {}
        nxt: list[list[int]] = []
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


def _level_target_sets(modes: Sequence[int],
                       role_swap: Sequence[bool]) -> tuple[list[frozenset[int]], frozenset[int]]:
    """Pulsed mode set per level plus the end-of-cycle compensation set."""
    levels = _split_levels(modes)
    if len(role_swap) != len(levels):
        raise ValueError(f"level_role_swap needs {len(levels)} flags, got {len(role_swap)}")
    sets = []
    for swap, bits in zip(role_swap, levels):
        target = 0 if swap else 1
        sets.append(frozenset(q for q, b in bits.items() if b == target))
    # level l contributes 2^(l-1) pulses per member, so only level 1 decides
    # the parity; compensating its set at t = T makes every count even
    compensation = sets[0] if sets else frozenset()
    return sets, compensation


def _assemble(level_sets: Sequence[frozenset[int]], compensation: frozenset[int],
              total_time: float) -> tuple[ScheduleEvent, ...]:
    """Lay out one cycle: 2^depth equal segments, pulses at the boundaries.

    The boundary at m * T / 2^depth belongs to level depth - v where v is
    the 2-adic valuation of m; the closing boundary carries only the
    compensation.  Coincident sets merge by symmetric difference (a mode
    pulsed twice at one instant is not pulsed).
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
            pulsed = pulsed ^ compensation
        if pulsed:
            events.append(PhaseShift(pulsed))
    return tuple(events)


def _resolve_role_swap(spec_swap: tuple[bool, ...] | None, width: int) -> tuple[bool, ...]:
    if spec_swap is None:
        return default_role_swap(width)
    return tuple(spec_swap)


def synthesize_concatenated(spec: DDSpec) -> PulseSchedule:
    """One decoupling cycle over all mode pairs of the chain."""
    if spec.protected_set:
        raise ValueError("use synthesize_protected for a non-empty protected set")
    if spec.mode_count < 2:
        return PulseSchedule(events=(Evolve(spec.total_time),),
                             mode_count=spec.mode_count,
                             total_time=spec.total_time,
                             pulse_model=spec.pulse_model,
                             shaped_pulse=spec.shaped_pulse,
                             warning="single mode, nothing to decouple")
    role_swap = _resolve_role_swap(spec.level_role_swap, spec.mode_count)
    sets, comp = _level_target_sets(range(spec.mode_count), role_swap)
    return PulseSchedule(events=_assemble(sets, comp, spec.total_time),
                         mode_count=spec.mode_count,
                         total_time=spec.total_time,
                         pulse_model=spec.pulse_model,
                         shaped_pulse=spec.shaped_pulse)


def synthesize_protected(spec: DDSpec) -> PulseSchedule:
    """Decoupling that never pulses the protected modes.

    The protected set acts as one virtual mode placed in the never-pulsed
    slot of the grouping; couplings inside the set stay fully on while every
    pair with an unprotected member cancels.
    """
    protected = spec.protected_set
    if not protected:
        raise ValueError("protected_set is empty; use synthesize_concatenated")
    outside = sorted(set(range(spec.mode_count)) - protected)
    if not outside:
        return PulseSchedule(events=(Evolve(spec.total_time),),
                             mode_count=spec.mode_count,
                             total_time=spec.total_time,
                             pulse_model=spec.pulse_model,
                             shaped_pulse=spec.shaped_pulse,
                             warning="every mode protected, nothing to cancel")
    # virtual index 0 stands for the whole protected set; the first slot is
    # the one the default roles never pulse
    width = len(outside) + 1
    role_swap = _resolve_role_swap(spec.level_role_swap, width)
    sets, comp = _level_target_sets(range(width), role_swap)
    if any(0 in s for s in sets) or 0 in comp:
        raise ValueError("role swap pattern would pulse the protected set")
    real = {v + 1: q for v, q in enumerate(outside)}
    mapped = [frozenset(real[v] for v in s) for s in sets]
    mapped_comp = frozenset(real[v] for v in comp)
    return PulseSchedule(events=_assemble(mapped, mapped_comp, spec.total_time),
                         mode_count=spec.mode_count,
                         total_time=spec.total_time,
                         pulse_model=spec.pulse_model,
                         shaped_pulse=spec.shaped_pulse)


def synthesize_truncated(spec: DDSpec) -> PulseSchedule:
    """Decoupling for couplings truncated at index distance eta.

    Modes are grouped into consecutive blocks of eta (the last block may be
    short).  Pulsing the odd blocks at the midpoint cancels every pair that
    straddles a block boundary; the levels below run the plain grouping
    inside each block simultaneously.  Depth is min(ceil(log2 eta) + 1,
    ceil(log2 M)); when that equals the full depth the plain schedule is
    already optimal and is returned instead.
    """
    eta = spec.truncation_distance
    if eta is None:
        raise ValueError("truncation_distance is not set")
    m = spec.mode_count
    if m < 2:
        return synthesize_concatenated(replace(spec, truncation_distance=None))
    full_depth = math.ceil(math.log2(m))
    depth = min(math.ceil(math.log2(eta)) + 1 if eta > 1 else 1, full_depth)
    if eta >= m or depth >= full_depth:
        return synthesize_concatenated(replace(spec, truncation_distance=None))
    role_swap = spec.level_role_swap if spec.level_role_swap is not None \
        else (False,) * depth
    if len(role_swap) != depth:
        raise ValueError(f"level_role_swap needs {depth} flags, got {len(role_swap)}")
    blocks = [list(range(i, min(i + eta, m))) for i in range(0, m, eta)]
    level_sets: list[frozenset[int]] = []
    odd_union = frozenset(q for i, b in enumerate(blocks) if i % 2 == 1 for q in b)
    level_sets.append(odd_union if not role_swap[0]
                      else frozenset(range(m)) - odd_union)
    inner = [_split_levels(b) for b in blocks]
    for level in range(2, depth + 1):
        target = 0 if role_swap[level - 1] else 1
        pulsed = set()
        for levels in inner:
            if level - 1 <= len(levels):
                bits = levels[level - 2]
                pulsed.update(q for q, b in bits.items() if b == target)
        level_sets.append(frozenset(pulsed))
    comp = level_sets[0]
    return PulseSchedule(events=_assemble(level_sets, comp, spec.total_time),
                         mode_count=m,
                         total_time=spec.total_time,
                         pulse_model=spec.pulse_model,
                         shaped_pulse=spec.shaped_pulse)


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
    return replace(base, events=cycle * repetitions,
                   repetitions=base.repetitions * repetitions)


def synthesize(spec: DDSpec) -> PulseSchedule:
    """Dispatch on the spec options and apply the requested repetition."""
    if spec.protected_set and spec.truncation_distance is not None:
        raise ValueError("protected_set and truncation_distance cannot be combined")
    if spec.protected_set:
        base = synthesize_protected(spec)
    elif spec.truncation_distance is not None:
        base = synthesize_truncated(spec)
    else:
        base = synthesize_concatenated(spec)
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
        coupled = couplings is None or couplings.rate(j, k) != 0.0
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
    zero bound means nothing fits.
    """

    mode_bound: int
    eta_bound: int
    repetition_bound: int | None = None


def feasibility_bounds(total_time: float, pulse_duration: float,
                       repetitions: int = 1,
                       mode_count: int | None = None) -> FeasibilityBounds:
    """How large a schedule fits when each pulse burns ``pulse_duration``.

    The shortest segment of a depth-d cycle at n_r repetitions is
    T / (2^d n_r) and must exceed the pulse, so 2^d < T / (T_P n_r); the
    bounds below restate that for the mode count, the truncation distance,
    and (given a mode count) the repetition count.
    """
    if total_time <= 0 or pulse_duration <= 0:
        raise ValueError("times must be positive")
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    ratio = total_time / (pulse_duration * repetitions)
    if ratio <= 1.0:
        return FeasibilityBounds(0, 0, 0 if mode_count is not None else None)
    exponent = math.floor(math.log2(ratio))
    mode_bound = 2 ** exponent
    eta_bound = 2 ** (exponent - 1) if exponent >= 1 else 0
    rep_bound: int | None = None
    if mode_count is not None:
        nbp = 2 ** math.ceil(math.log2(mode_count)) if mode_count > 1 else 1
        limit = total_time / (nbp * pulse_duration)
        rep_bound = math.ceil(limit) if limit > 1.0 else 0
    return FeasibilityBounds(mode_bound, eta_bound, rep_bound)


def schedule_to_text(schedule: PulseSchedule) -> str:
    """Line-oriented serialization; floats use repr so parsing is exact."""
    lines = [f"# schedule modes={schedule.mode_count}"
             f" total_time={schedule.total_time!r}"
             f" repetitions={schedule.repetitions}"
             f" model={schedule.pulse_model}"]
    if schedule.warning is not None:
        lines.append(f"# warning {schedule.warning}")
    for ev in schedule.events:
        if isinstance(ev, Evolve):
            lines.append(f"EVOLVE {ev.duration!r}")
        else:
            lines.append("PULSE " + ",".join(str(q) for q in sorted(ev.modes)))
    return "\n".join(lines) + "\n"


def schedule_from_text(text: str) -> PulseSchedule:
    """Inverse of :func:`schedule_to_text` (shaped pulses reattach separately)."""
    header: dict[str, str] = {}
    warning = None
    events: list[ScheduleEvent] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line.lstrip("#").strip()
            if body.startswith("schedule"):
                for item in body.split()[1:]:
                    key, _, value = item.partition("=")
                    header[key] = value
            elif body.startswith("warning "):
                warning = body[len("warning "):]
            continue
        keyword, _, rest = line.partition(" ")
        if keyword == "EVOLVE":
            events.append(Evolve(float(rest)))
        elif keyword == "PULSE":
            events.append(PhaseShift(frozenset(int(q) for q in rest.split(","))))
        else:
            raise ValueError(f"unknown schedule line: {line!r}")
    if not {"modes", "total_time", "repetitions", "model"} <= header.keys():
        raise ValueError("schedule text is missing its header line")
    return PulseSchedule(events=tuple(events),
                         mode_count=int(header["modes"]),
                         total_time=float(header["total_time"]),
                         repetitions=int(header["repetitions"]),
                         pulse_model=header["model"],
                         warning=warning)
