"""Named experiment scenarios, sweeps, and report generation.

Each scenario bundles a chain geometry, an initial Fock state, a schedule
recipe, and propagator settings; running one synthesizes the schedule,
designs the modulation pulse when the schedule is shaped, propagates, and
returns a deterministic result record plus an optional populations CSV.
The built-in catalog pins the reference configurations used for regression
against stored expected values; reports compare computed errors with those
references and attach a pass or fail verdict per stored tolerance.
"""

from __future__ import annotations

import functools
import io
import json
import math
import os
from dataclasses import dataclass, replace
from decimal import Decimal, InvalidOperation
from importlib import resources
from pathlib import Path

import numpy as np

from .model import (
    DEFAULT_ION_MASS,
    DEFAULT_SECULAR_FREQUENCY,
    FockSpace,
    IonChainConfig,
    basis_state,
    build_coupling_matrix,
    check_positive,
    coupling_rate,
    is_integer,
)
from .propagation import (
    ModeMaps,
    SchedulePropagator,
    SimulationResult,
    beam_splitter_reference,
    check_beam_splitter_pair,
    check_record_samples,
)
from .pulses import (DEFAULT_SHARPNESS, DEFAULT_TARGET_PHASE, ShapedPulse, design_pulse,
                     sample_count)
from .sequences import (
    DDSpec,
    feasibility_bounds,
    synthesize,
    walsh_indices,
)

POPULATION_COLUMN_THRESHOLD = 1e-4
LEAKAGE_LIMIT = 1e-6
DEFAULT_RECORD_SAMPLES = 512

# The largest run a config may ask for, checked at parse so that it does
# not exhaust memory in the engine: the engine's tables peak at about
# 60 M + 55 bytes per Fock state of M modes (234 B measured at M = 3).  A
# run stores its record as sector bands, but the full CSV writes one cell
# per basis state and sample, so the record bound guards that dump.  The
# catalog needs at most 1,331 states and 681,472 record values.
MAX_FOCK_DIMENSION = 2 ** 20
MAX_RECORD_VALUES = 2 ** 26

# cycle time of one bare secular oscillation, the natural pulse length unit
SECULAR_PERIOD = 2.0 * math.pi / DEFAULT_SECULAR_FREQUENCY

# the pulse settings a shaped config takes when it does not set them
PULSE_DEFAULTS = {"pulse_sharpness": DEFAULT_SHARPNESS,
                  "target_phase": DEFAULT_TARGET_PHASE, "window_coupling": "rwa"}


class ScenarioError(Exception):
    """A scenario could not be built or executed."""


@dataclass(frozen=True)
class ScenarioConfig:
    """Complete, immutable description of one experiment run.

    The chain is 40Ca+ at the default secular frequency of
    :mod:`phonondd.model`.  A run is shaped exactly when it sets a pulse
    duration; the other pulse fields, and the window coupling, are set on
    a shaped run only.
    """

    name: str
    mode_count: int
    spacing: float
    per_mode_cutoff: int
    initial_occupations: tuple[int, ...]
    repetitions: int = 1
    protected_set: frozenset[int] = frozenset()
    level_role_swap: tuple[bool, ...] | None = None
    truncation_distance: int | None = None
    total_time: float | None = None
    pulse_duration: float | None = None
    pulse_ramp_up: float | None = None
    pulse_ramp_down: float | None = None
    pulse_sharpness: float | None = None
    target_phase: float | None = None
    window_coupling: str | None = None
    record_samples: int = DEFAULT_RECORD_SAMPLES
    beam_splitter_pair: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "protected_set", frozenset(self.protected_set))
        object.__setattr__(self, "initial_occupations",
                           tuple(self.initial_occupations))
        if self.pulse_duration is not None:
            for key, value in PULSE_DEFAULTS.items():
                if getattr(self, key) is None:
                    object.__setattr__(self, key, value)
        try:  # the checks of the run, on the objects the run builds
            check_positive(**{key: getattr(self, key) for key in (
                "pulse_duration", "pulse_ramp_up", "pulse_ramp_down", "pulse_sharpness",
                "target_phase") if getattr(self, key) is not None})
            space = FockSpace(self.mode_count, self.per_mode_cutoff)
            check_record_samples(self.record_samples)
            if len(self.initial_occupations) != self.mode_count:
                raise ValueError(f"initial state names {len(self.initial_occupations)}"
                                 f" modes, chain has {self.mode_count}")
            if any(not (is_integer(n) and 0 <= n <= self.per_mode_cutoff)
                   for n in self.initial_occupations):
                raise ValueError("initial_occupations must lie in"
                                 f" 0..{self.per_mode_cutoff} (the cutoff)")
            for key, size, limit, what in (
                    ("per_mode_cutoff", space.dimension, MAX_FOCK_DIMENSION,
                     "Fock dimension of {:,}"),
                    ("record_samples", self.record_samples * space.dimension,
                     MAX_RECORD_VALUES, "record of {:,} values")):
                if size > limit:
                    raise ValueError(f"{key} {getattr(self, key)} on {self.mode_count}"
                                     f" modes gives a {what.format(size)}, above the"
                                     f" limit {limit:,}")
            if self.beam_splitter_pair is not None:
                check_beam_splitter_pair(self.beam_splitter_pair, self.mode_count)
            spec = self.spec()
            if self.pulse_duration is None:
                walsh_indices(spec)
            else:
                sample_count(self.pulse_duration)  # the design grid
                bound = feasibility_bounds(spec, self.pulse_duration).repetition_bound
            _mode_maps(self)
            if self.pulse_duration is None:
                for key in ("pulse_ramp_up", "pulse_ramp_down", *PULSE_DEFAULTS):
                    if getattr(self, key) is not None:
                        raise ValueError(f"{key} is set, but an ideal"
                                         " pulse_model has no pulse")
            elif bound is not None and self.repetitions >= bound:
                raise ValueError(f"{self.repetitions} repetitions reach the repetition bound"
                                 f" {bound}: a carved pulse window no longer fits in the"
                                 " shortest segment of the schedule")
        except ValueError as exc:
            raise ScenarioError(f"{self.name}: {exc}") from exc

    def spec(self, pulse: ShapedPulse | None = None) -> DDSpec:
        """The decoupling plan of this run, shaped by ``pulse`` when given.

        The cycle is ``total_time``, or the hop time when that is unset.
        """
        cycle = self.total_time
        if cycle is None:
            cycle = self.hop_time()
            if cycle == math.inf:
                raise ValueError(f"spacing {self.spacing!r} m gives a hop"
                                 " time of inf s")
        return DDSpec(self.mode_count, cycle, self.repetitions, self.protected_set,
                      self.truncation_distance, self.level_role_swap, pulse)

    @property
    def pulse_model(self) -> str:
        """The pulse model: "shaped" when a pulse duration is set, else "ideal"."""
        return "ideal" if self.pulse_duration is None else "shaped"

    def hop_time(self) -> float:
        """Nearest neighbor 50:50 exchange time, the default cycle length."""
        kappa = coupling_rate(self.spacing, DEFAULT_ION_MASS, DEFAULT_SECULAR_FREQUENCY)
        return math.pi / (2.0 * kappa)


@dataclass(frozen=True, slots=True)
class ResultRecord:
    """Summary of one run, CSV friendly.

    Everything but ``wall_time`` is deterministic, and :func:`records_csv`
    writes everything but ``wall_time``.  ``source`` is the config the
    record ran, or, for a sweep value that failed, its one
    ``(axis, value)`` pair: a record keeps a reference to its config, not
    a formatted copy of it.
    """

    scenario: str
    source: ScenarioConfig | tuple[tuple[str, str], ...]
    error_E: float | None
    error_EB: float | None
    norm_drift: float | None
    boundary_leakage: float | None
    wall_time: float | None
    failure: str | None = None

    @property
    def parameters(self) -> tuple[tuple[str, str], ...]:
        """The run's settings as (key, text) pairs, formatted on each read."""
        cfg = self.source
        if not isinstance(cfg, ScenarioConfig):
            return cfg
        return (
            ("modes", str(cfg.mode_count)),
            ("spacing_um", to_micro(cfg.spacing)),
            ("n_max", str(cfg.per_mode_cutoff)),
            ("repetitions", str(cfg.repetitions)),
            ("model", cfg.pulse_model),
            ("coupling", cfg.window_coupling or ""),
            ("total_time_us", to_micro(cfg.spec().total_time)),
            ("pulse_us", to_micro(cfg.pulse_duration)
             if cfg.pulse_duration is not None else ""),
            ("initial", "".join(str(n) for n in cfg.initial_occupations)),
        )

    @property
    def error(self) -> float | None:
        """The reported error: error_EB when it is set, else error_E."""
        return self.error_EB if self.error_EB is not None else self.error_E


def _mode_maps(cfg: ScenarioConfig) -> ModeMaps:
    """The chain's couplings and window maps.  An ideal run opens no
    window, so the default coupling serves it."""
    chain = IonChainConfig.equidistant(cfg.mode_count, cfg.spacing,
                                       truncation_distance=cfg.truncation_distance)
    return ModeMaps(build_coupling_matrix(chain), window_coupling=(
        cfg.window_coupling or PULSE_DEFAULTS["window_coupling"]))


def build_scenario(cfg: ScenarioConfig):
    """Materialize (schedule, initial state, engine); the engine holds the
    Fock space, ``engine.space``, and the couplings, ``engine.maps.couplings``."""
    maps = _mode_maps(cfg)
    space = FockSpace(cfg.mode_count, cfg.per_mode_cutoff)
    initial = basis_state(space, cfg.initial_occupations)
    pulse = (design_pulse(cfg.pulse_duration, cfg.pulse_ramp_up, cfg.pulse_ramp_down,
                          cfg.pulse_sharpness, target_phase=cfg.target_phase)
             if cfg.pulse_duration is not None else None)
    return synthesize(cfg.spec(pulse)), initial, SchedulePropagator(space, maps)


def execute_scenario(cfg: ScenarioConfig) -> tuple[ResultRecord, SimulationResult]:
    """Run one scenario and return both the record and the full timeline."""
    try:
        schedule, initial, engine = build_scenario(cfg)
        reference = None
        if cfg.beam_splitter_pair is not None:
            reference = beam_splitter_reference(initial, cfg.beam_splitter_pair)
        result = engine.run(schedule, initial, reference, cfg.record_samples)
    except ScenarioError:
        raise
    except Exception as exc:
        raise ScenarioError(f"{cfg.name}: {exc}") from exc
    if result.boundary_leakage > LEAKAGE_LIMIT:
        raise ScenarioError(
            f"{cfg.name}: population leaked to the Fock cutoff boundary"
            f" ({result.boundary_leakage:.3e} > {LEAKAGE_LIMIT:.0e});"
            " raise per_mode_cutoff")
    record = ResultRecord(scenario=cfg.name, source=cfg,
                          error_E=float(result.error_E),
                          error_EB=(None if result.error_EB is None
                                    else float(result.error_EB)),
                          norm_drift=float(result.norm_drift),
                          boundary_leakage=float(result.boundary_leakage),
                          wall_time=float(result.wall_time))
    return record, result


def _hom_outputs(cfg: ScenarioConfig, space: FockSpace) -> list[int]:
    """Beam splitter output states reached by moving one quantum in the pair."""
    if cfg.beam_splitter_pair is None:
        return []
    j, k = cfg.beam_splitter_pair
    occ = list(reversed(cfg.initial_occupations))  # label order -> mode order
    outputs = []
    for src, dst in ((j, k), (k, j)):
        moved = occ.copy()
        if moved[src] == 0:
            continue
        moved[src] -= 1
        moved[dst] += 1
        if max(moved) <= space.per_mode_cutoff:
            outputs.append(space.index(tuple(reversed(moved))))
    return outputs


def populations_csv(result: SimulationResult, cfg: ScenarioConfig,
                    full: bool = False) -> str:
    """Serialize the recorded populations.

    By default only states whose population ever exceeds the plotting
    threshold are kept as columns, together with the initial state and the
    beam splitter outputs; everything dropped is accumulated in a trailing
    ``residual`` column so each row still sums to the squared state norm.
    A state off the record, ``result.columns``, is zero on every row.
    """
    space = result.space
    chosen = np.full(space.dimension, full)
    if not full:
        chosen[result.columns] = result.column_maxima() > POPULATION_COLUMN_THRESHOLD
        chosen[[space.index(cfg.initial_occupations), *_hom_outputs(cfg, space)]] = True
    keep = np.flatnonzero(chosen)
    recorded = np.isin(keep, result.columns)
    # the kept states on the record and the dropped states, a state off the
    # record reading 0.0, from one pass over the record in row chunks of at
    # most SLICE_BYTES.  Each residual is the sum of one row's dropped
    # populations over axis 1, the same terms in the same order as that
    # row's sum alone; a full dump drops nothing and writes no residual
    picked = keep[recorded]
    parts, residual = [], []
    for chunk in result.row_chunks(np.append(picked, np.flatnonzero(~chosen))):
        parts.append(chunk[:, :picked.size].copy())
        residual.append(chunk[:, picked.size:].sum(axis=1))
    kept = np.concatenate(parts)
    labels = space.labels()
    header = ["t_us"] + [labels[i] for i in keep]
    # a recorded state's column equal on every row (mostly one in an empty
    # number sector) is formatted once into the row text; "%r" marks a live
    # cell, and a state off the record is written as 0.0 through recorded
    const = kept.min(axis=0) == kept.max(axis=0)
    fixed = iter([repr(v) if c else "%r"
                  for v, c in zip(kept[0].tolist(), const.tolist())])
    cells = ["%r"] + [next(fixed) if r else repr(0.0) for r in recorded.tolist()]
    live = [result.times * 1e6] + [kept[:, j] for j in np.flatnonzero(~const)]
    if not full:
        header.append("residual")
        cells.append("%r")
        live.append(np.concatenate(residual))
    # one text of all rows: the literal text between live cells repeats
    # on every row, and the repr of each live column is written into its
    # places with one slice, so no format string is parsed per row
    chunks = (",".join(cells) + "\n").split("%r")
    width = 2 * len(chunks) - 1
    row = [""] * width
    row[::2] = chunks
    parts = [",".join(header) + "\n"] + row * len(result.times)
    for j, values in enumerate(live):
        parts[2 + 2 * j::width] = map(repr, values.tolist())
    return "".join(parts)


def scenario_catalog() -> list[ScenarioConfig]:
    """Built-in reference scenarios.

    Names are the catalog keys used by the stored reference values: the
    two-mode shaped runs (fig1a, fig1b, fig2), the three-mode schedules
    under both grouping orderings (fig3, fig4a/b, fig5a/b), and the
    protected-pair beam splitter runs (fig6a/b, fig7a/b).
    """
    t0 = SECULAR_PERIOD
    near, far = 27.6e-6, 43.8e-6
    long_pulse = dict(pulse_duration=8.8 * t0, pulse_ramp_up=4.4 * t0,
                      pulse_ramp_down=4.4 * t0)
    short_pulse = dict(pulse_duration=2.2 * t0, pulse_ramp_up=1.0 * t0,
                       pulse_ramp_down=1.0 * t0)
    plain = dict(level_role_swap=(False, False))
    two = (2, 1)
    three = (2, 1, 0)
    ones = (1, 1, 1)
    bs = dict(protected_set=frozenset({0, 1}), beam_splitter_pair=(0, 1))
    return [
        ScenarioConfig("fig1a", 2, near, 12, two, **long_pulse),
        ScenarioConfig("fig1b", 2, near, 14, two, **short_pulse),
        ScenarioConfig("fig2", 2, far, 12, two, **long_pulse),
        ScenarioConfig("fig3", 3, far, 8, three, **plain),
        ScenarioConfig("fig4a", 3, far, 8, three),
        ScenarioConfig("fig4b", 3, far, 10, three, **long_pulse),
        ScenarioConfig("fig5a", 3, far, 8, three, repetitions=5),
        ScenarioConfig("fig5b", 3, far, 10, three, repetitions=5, **long_pulse),
        ScenarioConfig("fig6a", 3, far, 10, ones, **bs),
        ScenarioConfig("fig6b", 3, far, 10, ones, **bs, **long_pulse),
        ScenarioConfig("fig7a", 3, far, 10, ones, repetitions=5, **bs),
        ScenarioConfig("fig7b", 3, far, 10, ones, repetitions=5, **bs, **long_pulse),
    ]


@functools.cache
def _catalog_by_name() -> dict[str, ScenarioConfig]:
    """The catalog by name, built once per process: the configs are frozen,
    so every caller shares them."""
    return {cfg.name: cfg for cfg in scenario_catalog()}


def get_scenario(name: str) -> ScenarioConfig:
    try:
        return _catalog_by_name()[name]
    except KeyError:
        raise ScenarioError(f"unknown scenario {name!r}") from None


# sweep axis -> the config key whose converter reads its values
SWEEP_AXES = {"n_r": "schedule.repetitions", "d": "chain.spacing_um",
              "T_P": "pulse.total_us", "n_max": "propagator.n_max"}


def _apply_axis(cfg: ScenarioConfig, axis: str, value) -> ScenarioConfig:
    """``cfg`` with ``value`` on the field of ``axis``, passed as given, so
    the config checks it as it would any field it is built with."""
    changes = {CONFIG_KEYS[SWEEP_AXES[axis]][0]: value}
    if axis == "T_P":  # the ramps scale with the pulse, once the config takes it
        factor = replace(cfg, **changes).pulse_duration / cfg.pulse_duration
        for key in ("pulse_ramp_up", "pulse_ramp_down"):
            ramp = getattr(cfg, key)
            changes[key] = None if ramp is None else ramp * factor
    return replace(cfg, **changes)


def sweep(base: ScenarioConfig, axis: str, values) -> list[ResultRecord]:
    """Run the base scenario once per axis value, collecting failures.

    A value the scenario rejects, when its variant is built or run, gives
    a failed record next to the others.
    """
    if not values:
        raise ScenarioError("sweep needs at least one value")
    if axis not in SWEEP_AXES:
        raise ScenarioError(f"unknown sweep axis {axis!r}; choose from {tuple(SWEEP_AXES)}")
    if axis == "T_P" and base.pulse_duration is None:
        raise ScenarioError("T_P sweep needs a shaped scenario")
    records = []
    for value in sorted(values):
        name = f"{base.name}_{axis}={value}"
        try:
            record, _ = execute_scenario(_apply_axis(replace(base, name=name),
                                                     axis, value))
        except ScenarioError as exc:
            record = ResultRecord(scenario=name, source=((axis, str(value)),),
                                  error_E=None, error_EB=None, norm_drift=None,
                                  boundary_leakage=None, wall_time=None,
                                  failure=str(exc))
        records.append(record)
    return records


def _csv_cell(text: str) -> str:
    """``text`` as one CSV cell, quoted RFC 4180 style when it holds a
    comma, a quote or a line break."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def records_csv(records) -> str:
    """Stable CSV for a set of result records (wall time omitted)."""
    out = io.StringIO()
    out.write("scenario,error_E,error_EB,norm_drift,boundary_leakage,"
              "failure,parameters\n")
    for rec in records:
        params = ";".join(f"{k}={v}" for k, v in rec.parameters)
        cells = [_csv_cell(rec.scenario),
                 "" if rec.error_E is None else repr(rec.error_E),
                 "" if rec.error_EB is None else repr(rec.error_EB),
                 "" if rec.norm_drift is None else repr(rec.norm_drift),
                 "" if rec.boundary_leakage is None else repr(rec.boundary_leakage),
                 _csv_cell(rec.failure or ""),
                 _csv_cell(params)]
        out.write(",".join(cells) + "\n")
    return out.getvalue()


def load_reference_values() -> dict:
    """Stored expected errors and tolerances, shipped as versioned data."""
    text = resources.files("phonondd").joinpath("data/reference_values.json") \
        .read_text()
    return json.loads(text)


def _within(value: float, reference: float, tolerance: dict) -> bool:
    kind = tolerance["kind"]
    bound = tolerance["value"]
    if kind == "factor":
        return reference / bound <= value <= reference * bound
    if kind == "fraction":
        return abs(value - reference) <= bound * reference
    if kind == "order_of_magnitude":
        return reference / 10.0 ** bound <= value <= reference * 10.0 ** bound
    raise ScenarioError(f"unknown tolerance kind {kind!r}")


def emit_report(records, references: dict | None = None) -> tuple[str, bool]:
    """Compare records against stored reference values.

    Returns the report text and an overall pass flag.  Scenarios without a
    stored reference get empty comparison columns and do not affect the
    flag; a record that lacks the metric its reference names gets an error
    row and fails it.
    """
    if references is None:
        references = load_reference_values()
    table = references["metrics"]
    lines = ["scenario,metric,computed,reference,ratio,verdict"]
    all_ok = True
    for rec in sorted(records, key=lambda r: r.scenario):
        entry = table.get(rec.scenario)
        scenario = _csv_cell(rec.scenario)
        if rec.failure is not None:
            lines.append(f"{scenario},,,,,error")
            all_ok = False
            continue
        if entry is None:
            lines.append(f"{scenario},error,{rec.error!r},,,")
            continue
        value = rec.error_EB if entry["metric"] == "error_EB" else rec.error_E
        if value is None:
            lines.append(f"{scenario},{entry['metric']},,{entry['value']!r},,error")
            all_ok = False
            continue
        ok = _within(value, entry["value"], entry["tolerance"])
        all_ok = all_ok and ok
        ratio = value / entry["value"]
        lines.append(f"{scenario},{entry['metric']},{value!r},"
                     f"{entry['value']!r},{ratio:.3f},"
                     f"{'pass' if ok else 'FAIL'}")
    return "\n".join(lines) + "\n", all_ok


def parse_config_text(text: str, name: str = "custom") -> ScenarioConfig:
    """Parse the flat ``section.key = value`` scenario format.

    The keys are those of :data:`CONFIG_KEYS`, one per settable field;
    state.occupations is comma separated, highest mode first, matching the
    basis labels.
    """
    entries: dict[str, str] = {}
    lines: dict[str, int] = {}
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ScenarioError(f"bad config line: {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in lines:
            raise ScenarioError(f"config key {key!r} is set on line {lines[key]}"
                                f" and again on line {number}")
        lines[key] = number
        entries[key] = value
    for key in ("chain.modes", "chain.spacing_um", "state.occupations"):
        if key not in entries:
            raise ScenarioError(f"config is missing required key {key!r}")
    kwargs: dict = {"name": name, "per_mode_cutoff": 10}
    for key, value in entries.items():
        if key not in CONFIG_KEYS:
            raise ScenarioError(f"unknown config key {key!r}")
        target, conv = CONFIG_KEYS[key]
        try:
            kwargs[target] = conv(value)
        except ValueError as exc:
            raise ScenarioError(f"bad value for {key}: {value!r}") from exc
    return ScenarioConfig(**kwargs)


def from_micro(text: str, exponent: int = -6) -> float:
    """A value written in micrometres or microseconds, in metres or seconds.

    The decimal text is scaled by 10^exponent (6 for MHz) exactly and rounded
    once, so ``43.8`` gives the float of ``43.8e-6``; ``float(text) * 1e-6``
    rounds twice and gives 4.3799999999999994e-05.
    """
    try:
        return float(Decimal(text).scaleb(exponent))
    except InvalidOperation as exc:
        raise ValueError(f"not a number: {text!r}") from exc


def to_micro(value: float) -> str:
    """The exact inverse of :func:`from_micro`: the float's repr scaled by
    10^6 as a decimal, so 43.8e-6 prints as ``43.8``, not 43.800000000000004."""
    return format(Decimal(repr(value)).scaleb(6), "f")


def _flag(word: str) -> bool:
    """``true`` or ``false`` in any case; any other word is a ValueError."""
    word = word.strip().lower()
    if word not in ("true", "false"):
        raise ValueError(word)
    return word == "true"


# config key -> (ScenarioConfig field, converter from the value text)
CONFIG_KEYS = {
    "scenario.name": ("name", str),
    "chain.modes": ("mode_count", int),
    "chain.spacing_um": ("spacing", from_micro),
    "state.occupations": ("initial_occupations", lambda v: tuple(
        int(x) for x in v.split(","))),
    "propagator.n_max": ("per_mode_cutoff", int),
    "chain.truncation": ("truncation_distance", int),
    "schedule.repetitions": ("repetitions", int),
    "schedule.protected": ("protected_set", lambda v: frozenset(
        int(x) for x in v.split(",") if x != "")),
    "schedule.role_swap": ("level_role_swap", lambda v: tuple(
        _flag(x) for x in v.split(","))),
    "schedule.total_time_us": ("total_time", from_micro),
    "pulse.total_us": ("pulse_duration", from_micro),
    "pulse.ramp_up_us": ("pulse_ramp_up", from_micro),
    "pulse.ramp_down_us": ("pulse_ramp_down", from_micro),
    "pulse.sharpness": ("pulse_sharpness", float),
    "pulse.target_phase": ("target_phase", float),
    "propagator.coupling": ("window_coupling", str),
    "output.samples": ("record_samples", int),
    "output.beam_splitter_pair": ("beam_splitter_pair", lambda v: tuple(
        int(x) for x in v.split(","))),
}


def parse_config_file(path: str | Path) -> ScenarioConfig:
    p = Path(path)
    return parse_config_text(p.read_text(), name=p.stem)


def output_directory(explicit: str | None = None) -> Path:
    """Resolve the output directory: flag, PHONONDD_OUT, or cwd."""
    if explicit:
        return Path(explicit)
    return Path(os.environ.get("PHONONDD_OUT", "."))
