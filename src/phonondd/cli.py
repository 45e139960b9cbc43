"""Command line harness: scenario runs, sweeps, reports, pulse export.

Exit codes: 0 when everything passed, 1 when a stored tolerance failed,
2 on configuration, propagation or output errors.  Output lands in --out, the
PHONONDD_OUT environment variable, or the working directory.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path
from typing import NoReturn

import click

from .pulses import (
    DEFAULT_SHARPNESS,
    DEFAULT_TARGET_PHASE,
    PulseDesignError,
    TrapParams,
    design_pulse,
    phase_excess,
    waveform_table,
)
from .scenarios import (
    CONFIG_KEYS,
    SWEEP_AXES,
    ScenarioError,
    emit_report,
    execute_scenario,
    from_micro,
    get_scenario,
    load_reference_values,
    output_directory,
    parse_config_file,
    populations_csv,
    records_csv,
    scenario_catalog,
    sweep as run_sweep,
)


@click.group()
def main() -> None:
    """Phonon hopping decoupling toolkit."""


def _fail(error: object) -> NoReturn:
    """Report a configuration or output error and exit with code 2."""
    click.echo(f"error: {error}", err=True)
    sys.exit(2)


def _resolve(token: str):
    path = Path(token)
    if path.suffix and path.exists():
        return parse_config_file(path)
    return get_scenario(token)


@main.command()
@click.argument("scenario")
@click.option("--out", default=None, help="Output directory for CSV files.")
@click.option("--full-populations", is_flag=True,
              help="Dump every basis state column instead of the filtered set.")
def run(scenario: str, out: str | None, full_populations: bool) -> None:
    """Run a catalog scenario or a key=value config file."""
    try:
        cfg = _resolve(scenario)
        out_dir = output_directory(out)
        out_dir.mkdir(parents=True, exist_ok=True)
        record, result = execute_scenario(cfg)
        (out_dir / f"{cfg.name}_populations.csv").write_text(
            populations_csv(result, cfg, full=full_populations))
        (out_dir / f"{cfg.name}_result.csv").write_text(records_csv([record]))
    except (ScenarioError, OSError) as exc:
        _fail(exc)
    click.echo(f"{cfg.name}: error={record.error:.6e} norm_drift={record.norm_drift:.2e}"
               f" leakage={record.boundary_leakage:.2e}"
               f" wall={record.wall_time:.1f}s")
    references = load_reference_values()["metrics"]
    if cfg.name in references and cfg == get_scenario(cfg.name):
        text, ok = emit_report([record])
        click.echo(text.splitlines()[1])
        sys.exit(0 if ok else 1)


@main.command()
@click.argument("scenario")
@click.option("--axis", required=True,
              type=click.Choice(tuple(SWEEP_AXES)))
@click.option("--values", required=True,
              help="Comma separated values; d in um, T_P in us.")
@click.option("--out", default=None)
def sweep(scenario: str, axis: str, values: str, out: str | None) -> None:
    """Re-run a scenario along one axis and tabulate the errors."""
    try:
        cfg = _resolve(scenario)
        convert = CONFIG_KEYS[SWEEP_AXES[axis]][1]  # as the axis's config key reads
        parsed = [convert(v.strip()) for v in values.split(",") if v.strip()]
        out_dir = output_directory(out)
        out_dir.mkdir(parents=True, exist_ok=True)
        records = run_sweep(cfg, axis, parsed)
        text = records_csv(records)
        (out_dir / f"{cfg.name}_sweep_{axis}.csv").write_text(text)
    except (ScenarioError, ValueError, OSError) as exc:
        _fail(exc)
    click.echo(text, nl=False)
    if any(rec.failure for rec in records):
        sys.exit(2)


@main.command()
def catalog() -> None:
    """List the built-in scenarios."""
    click.echo("name     modes  spacing_um  n_max  n_r  model   schedule")
    for cfg in scenario_catalog():
        kind = "protected" if cfg.protected_set else "concatenated"
        click.echo(f"{cfg.name:<8} {cfg.mode_count:>5}  {cfg.spacing * 1e6:>10.1f}"
                   f"  {cfg.per_mode_cutoff:>5}  {cfg.repetitions:>3}"
                   f"  {cfg.pulse_model:<6}  {kind}")


@main.command()
@click.option("--scenarios", default=None,
              help="Comma separated subset; default is the whole catalog.")
@click.option("--out", default=None)
def report(scenarios: str | None, out: str | None) -> None:
    """Run scenarios and compare against the stored reference values."""
    names = ([s.strip() for s in scenarios.split(",") if s.strip()]
             if scenarios is not None else [cfg.name for cfg in scenario_catalog()])
    if not names:
        _fail("no scenarios selected")
    records = []
    try:
        out_dir = output_directory(out)
        out_dir.mkdir(parents=True, exist_ok=True)
        for name in names:
            record, _ = execute_scenario(get_scenario(name))
            click.echo(f"ran {name}: {record.error:.6e}")
            records.append(record)
        text, ok = emit_report(records)
        (out_dir / "report.csv").write_text(text)
    except (ScenarioError, OSError) as exc:
        _fail(exc)
    click.echo(text, nl=False)
    sys.exit(0 if ok else 1)


@main.group()
def pulse() -> None:
    """Trap modulation pulse design."""


@pulse.command("design")
@click.option("--tp-us", required=True, help="Pulse duration in us.")
@click.option("--tud-us", default=None,
              help="Ramp duration in us (both ramps); default half the pulse.")
@click.option("--sigma", default=DEFAULT_SHARPNESS, type=float, help="Ramp sharpness.")
@click.option("--omega0-mhz", default="2.2",
              help="Secular frequency over 2 pi, in MHz.")
@click.option("--target-phase", default=DEFAULT_TARGET_PHASE, type=float,
              help="Phase excess to imprint, radians.")
@click.option("--export", default=None, type=click.Path(),
              help="Write the sampled waveform (with voltages) to this CSV.")
def pulse_design(tp_us: str, tud_us: str | None, sigma: float,
                 omega0_mhz: str, target_phase: float,
                 export: str | None) -> None:
    """Solve the modulation depth for a pi phase shift pulse."""
    try:
        w0 = 2.0 * math.pi * from_micro(omega0_mhz, exponent=6)
        ramp = from_micro(tud_us) if tud_us is not None else None
        shaped = design_pulse(from_micro(tp_us), ramp, ramp, sigma, w0, target_phase)
    except (PulseDesignError, ValueError) as exc:
        _fail(exc)
    click.echo(f"depth k = {shaped.depth:.6f}")
    click.echo(f"achieved phase = {phase_excess(shaped):.9f} rad"
               f" (target {target_phase:.9f})")
    click.echo(f"peak excursion = {shaped.peak_excursion() / (2e3 * math.pi):.3f} kHz")
    if export:
        try:
            text = waveform_table(shaped, TrapParams())
            Path(export).parent.mkdir(parents=True, exist_ok=True)
            Path(export).write_text(text)
        except (PulseDesignError, OSError) as exc:
            _fail(exc)
        click.echo(f"waveform written to {export}")


if __name__ == "__main__":
    main()
