"""Line-oriented text form of a pulse schedule, for round-trip checks.

Floats are written with repr, so parsing gives back the same events; a
shaped schedule's pulse is not part of the text, so the parsed schedule
is ideal.
"""

from phonondd.sequences import Evolve, PhaseShift, PulseSchedule, ScheduleEvent


def schedule_to_text(schedule: PulseSchedule) -> str:
    """Line-oriented serialization; floats use repr so parsing is exact."""
    lines = [f"# schedule modes={schedule.mode_count}"]
    for ev in schedule.events:
        if isinstance(ev, Evolve):
            lines.append(f"EVOLVE {ev.duration!r}")
        else:
            lines.append("PULSE " + ",".join(str(q) for q in sorted(ev.modes)))
    return "\n".join(lines) + "\n"


def schedule_from_text(text: str) -> PulseSchedule:
    """Inverse of :func:`schedule_to_text` (shaped pulses reattach separately)."""
    header: dict[str, str] = {}
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
            continue
        keyword, _, rest = line.partition(" ")
        if keyword == "EVOLVE":
            events.append(Evolve(float(rest)))
        elif keyword == "PULSE":
            events.append(PhaseShift(frozenset(int(q) for q in rest.split(","))))
        else:
            raise ValueError(f"unknown schedule line: {line!r}")
    if "modes" not in header:
        raise ValueError("schedule text is missing its header line")
    return PulseSchedule(events=tuple(events), mode_count=int(header["modes"]))
