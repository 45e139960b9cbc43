"""Command line surface, exercised through the click test runner."""

import csv
import io
import math

import pytest
from click.testing import CliRunner

from phonondd import cli
from phonondd.cli import main
from phonondd.model import DEFAULT_SECULAR_FREQUENCY
from phonondd.pulses import design_pulse
from phonondd.scenarios import build_scenario, parse_config_text

from pulse_checks import window_pulse

CHEAP_CFG = """
scenario.name = demo
chain.modes = 2
chain.spacing_um = 43.8
state.occupations = 1,0
propagator.n_max = 4
output.samples = 32
"""


@pytest.fixture()
def runner():
    return CliRunner()


class TestCatalog:
    def test_lists_all_scenarios(self, runner):
        res = runner.invoke(main, ["catalog"])
        assert res.exit_code == 0
        for name in ("fig1a", "fig2", "fig5b", "fig7b"):
            assert name in res.output


class TestRun:
    def test_catalog_scenario(self, runner, tmp_path):
        res = runner.invoke(main, ["run", "fig3", "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        assert "fig3" in res.output
        assert (tmp_path / "fig3_populations.csv").exists()
        assert (tmp_path / "fig3_result.csv").exists()
        assert "pass" in res.output

    def test_config_file(self, runner, tmp_path):
        cfg = tmp_path / "demo.cfg"
        cfg.write_text(CHEAP_CFG)
        res = runner.invoke(main, ["run", str(cfg), "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        assert (tmp_path / "demo_populations.csv").exists()

    def test_config_named_after_a_catalog_scenario(self, runner, tmp_path):
        # fig6b's reference is a shaped beam splitter error_EB; this ideal
        # config without a pair is another experiment, so it runs ungraded
        cfg = tmp_path / "fig6b.cfg"
        cfg.write_text("chain.modes = 3\nchain.spacing_um = 43.8\n"
                       "state.occupations = 1,1,1\npropagator.n_max = 6\n")
        res = runner.invoke(main, ["run", str(cfg), "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        [line] = res.output.splitlines()
        assert line.startswith("fig6b: error=")
        assert (tmp_path / "fig6b_result.csv").exists()

    def test_config_equal_to_its_catalog_entry_is_graded(self, runner, tmp_path):
        cfg = tmp_path / "fig3.cfg"
        cfg.write_text("chain.modes = 3\nchain.spacing_um = 43.8\n"
                       "state.occupations = 2,1,0\npropagator.n_max = 8\n"
                       "schedule.role_swap = false,false\n")
        from_file = runner.invoke(main, ["run", str(cfg), "--out", str(tmp_path)])
        assert from_file.exit_code == 0, from_file.output
        catalog = runner.invoke(main, ["run", "fig3", "--out", str(tmp_path)])
        graded = catalog.output.splitlines()[-1]
        assert graded.startswith("fig3,error_E,") and graded.endswith(",pass")
        assert from_file.output.splitlines()[-1] == graded

    def test_unknown_scenario_exits_with_error(self, runner):
        res = runner.invoke(main, ["run", "fig99"])
        assert res.exit_code == 2
        assert "fig99" in res.output

    @pytest.mark.parametrize("line,bad", [
        ("state.occupations = 1,0", "state.occupations = 2,x"),
        ("chain.modes = 2", "chain.modes = two"),
        ("chain.spacing_um = 43.8", "chain.spacing_um = 43.8um"),
    ])
    def test_malformed_number_exits_with_error(self, runner, tmp_path, line, bad):
        cfg = tmp_path / "demo.cfg"
        cfg.write_text(CHEAP_CFG.replace(line, bad))
        res = runner.invoke(main, ["run", str(cfg), "--out", str(tmp_path)])
        assert res.exit_code == 2, res.output
        assert f"error: bad value for {bad.split(' = ')[0]}" in res.output

    def test_repetitions_past_the_bound_exit_with_error(self, runner, tmp_path):
        # 4 us windows carved from a two-segment cycle of 525 us fit below
        # 66 repetitions; the config is rejected before any pulse design
        cfg = tmp_path / "demo.cfg"
        cfg.write_text(CHEAP_CFG + "pulse.total_us = 4.0\n"
                       "schedule.repetitions = 200\n")
        res = runner.invoke(main, ["run", str(cfg), "--out", str(tmp_path)])
        assert res.exit_code == 2, res.output
        assert "200 repetitions reach the repetition bound 66" in res.output
        assert not (tmp_path / "demo_populations.csv").exists()

    @pytest.mark.parametrize("extra,message", [
        ("chain.truncation = 0", "truncation_distance must be at least 1"),
        ("chain.truncation = 1\nschedule.protected = 0",
         "truncation_distance and protected_set cannot be combined"),
    ])
    def test_bad_truncation_exits_with_error(self, runner, tmp_path, extra, message):
        cfg = tmp_path / "demo.cfg"
        cfg.write_text(CHEAP_CFG + extra + "\n")
        res = runner.invoke(main, ["run", str(cfg), "--out", str(tmp_path)])
        assert res.exit_code == 2, res.output
        assert message in res.output
        assert not (tmp_path / "demo_populations.csv").exists()

    @pytest.mark.parametrize("edits,message", [
        ([("spacing_um = 43.8", "spacing_um = 1e-300")],
         "spacing 1e-306 m gives no finite positive hopping rate"),
        ([("modes = 2", "modes = 3"),
          ("occupations = 1,0", "occupations = 1,0,0\nschedule.role_swap = true")],
         "level_role_swap needs 2 flags, got 1"),
        ([("samples = 32", "samples = 0")], "record_samples must be at least 2"),
    ])
    def test_config_rejected_at_parse_exits_with_error(self, runner, tmp_path,
                                                       monkeypatch, edits, message):
        def unreachable(cfg):
            raise AssertionError("a rejected config reached execute_scenario")

        monkeypatch.setattr(cli, "execute_scenario", unreachable)
        text = CHEAP_CFG
        for old, new in edits:
            text = text.replace(old, new)
        cfg = tmp_path / "demo.cfg"
        cfg.write_text(text)
        res = runner.invoke(main, ["run", str(cfg), "--out", str(tmp_path)])
        assert res.exit_code == 2, res.output
        assert f"error: demo: {message}" in res.output

    def test_out_path_that_is_a_file_exits_before_running(self, runner, tmp_path):
        taken = tmp_path / "taken"
        taken.write_text("")
        res = runner.invoke(main, ["run", "fig3", "--out", str(taken)])
        assert res.exit_code == 2, res.output
        assert res.output.startswith("error: ") and "taken" in res.output
        assert "fig3: error=" not in res.output

    def test_full_populations_flag(self, runner, tmp_path):
        cfg = tmp_path / "demo.cfg"
        cfg.write_text(CHEAP_CFG)
        res = runner.invoke(main, ["run", str(cfg), "--out", str(tmp_path),
                                   "--full-populations"])
        assert res.exit_code == 0, res.output
        header = (tmp_path / "demo_populations.csv").read_text().splitlines()[0]
        assert len(header.split(",")) == 1 + 25  # t_us plus every basis label


class TestSweep:
    def test_repetitions(self, runner, tmp_path):
        cfg = tmp_path / "demo.cfg"
        cfg.write_text(CHEAP_CFG)
        res = runner.invoke(main, ["sweep", str(cfg), "--axis", "n_r",
                                   "--values", "1,2", "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        table = (tmp_path / "demo_sweep_n_r.csv").read_text()
        assert "demo_n_r=1" in table
        assert "demo_n_r=2" in table

    def test_failure_exits_nonzero(self, runner, tmp_path):
        res = runner.invoke(main, ["sweep", "fig3", "--axis", "n_max",
                                   "--values", "3", "--out", str(tmp_path)])
        assert res.exit_code == 2

    def test_rejected_value_keeps_the_other_rows(self, runner, tmp_path):
        res = runner.invoke(main, ["sweep", "fig3", "--axis", "n_max",
                                   "--values", "1,8", "--out", str(tmp_path)])
        assert res.exit_code == 2
        rows = (tmp_path / "fig3_sweep_n_max.csv").read_text().splitlines()[1:]
        cells = [row.split(",") for row in rows]
        assert [c[0] for c in cells] == ["fig3_n_max=1", "fig3_n_max=8"]
        assert "the cutoff" in cells[0][5] and cells[0][1] == ""
        assert cells[1][5] == "" and float(cells[1][1]) > 0.0
        # values that are not finite and positive fail when the variant is built
        for scenario, axis, values, bad, message in [
                ("fig3", "n_max", "0,8", "0", "per_mode_cutoff must be at least 1, not 0"),
                ("fig3", "d", "inf,43.8", "inf", "spacing must be positive"),
                ("fig1b", "d", "inf", "inf", "spacing must be positive"),
                # finite spacings whose hop rate is 0 or not a float
                ("fig1b", "d", "1e-300,43.8", "1e-306", "spacing 1e-306 m gives no"),
                ("fig3", "d", "1e-300,43.8", "1e-306", "spacing 1e-306 m gives no"),
                ("fig3", "d", "1e300,43.8", "1e+294", "spacing 1e+294 m gives no"),
                ("fig3", "d", "1e106,43.8", "1e+100", "a hop time of inf")]:
            res = runner.invoke(main, ["sweep", scenario, "--axis", axis,
                                       "--values", values, "--out", str(tmp_path)])
            assert res.exit_code == 2, res.output
            rows = (tmp_path / f"{scenario}_sweep_{axis}.csv").read_text()
            # a failure holding a comma is one quoted cell
            cells = {c[0]: c for c in list(csv.reader(io.StringIO(rows)))[1:]}
            rejected = cells.pop(f"{scenario}_{axis}={bad}")
            assert message in rejected[5] and rejected[1] == ""
            assert len(cells) == values.count(",")
            assert all(c[5] == "" and float(c[1]) > 0.0 for c in cells.values())


class TestReport:
    def test_subset_passes(self, runner, tmp_path):
        res = runner.invoke(main, ["report", "--scenarios", "fig3,fig4a",
                                   "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        table = (tmp_path / "report.csv").read_text()
        assert "fig3" in table and "fig4a" in table
        assert "FAIL" not in table

    @pytest.mark.parametrize("selection", [",", " , ", ""])
    def test_empty_selection_runs_nothing_and_fails(self, runner, tmp_path, selection):
        res = runner.invoke(main, ["report", "--scenarios", selection,
                                   "--out", str(tmp_path)])
        assert res.exit_code == 2
        assert "no scenarios selected" in res.output
        assert not (tmp_path / "report.csv").exists()

    def test_out_path_that_is_a_file_exits_before_running(self, runner, tmp_path):
        taken = tmp_path / "taken"
        taken.write_text("")
        res = runner.invoke(main, ["report", "--scenarios", "fig3",
                                   "--out", str(taken)])
        assert res.exit_code == 2, res.output
        assert res.output.startswith("error: ") and "taken" in res.output
        assert "ran fig3" not in res.output


class TestPulseDesign:
    def test_prints_strength_and_phase(self, runner):
        res = runner.invoke(main, ["pulse", "design", "--tp-us", "4",
                                   "--tud-us", "2"])
        assert res.exit_code == 0, res.output
        assert "0.052923" in res.output
        assert "252.73" in res.output

    def test_export_waveform(self, runner, tmp_path):
        out = tmp_path / "wave.csv"
        res = runner.invoke(main, ["pulse", "design", "--tp-us", "4",
                                   "--tud-us", "2", "--export", str(out)])
        assert res.exit_code == 0, res.output
        text = out.read_text()
        assert text.startswith("t_s,b,omega_rad_s,omega_sq_excess,U0_V,V0_V")

    def test_export_creates_its_directory(self, runner, tmp_path):
        out = tmp_path / "new" / "wave.csv"
        res = runner.invoke(main, ["pulse", "design", "--tp-us", "4",
                                   "--export", str(out)])
        assert res.exit_code == 0, res.output
        assert out.read_text().startswith("t_s,")

    def test_export_to_a_directory_exits_with_error(self, runner, tmp_path):
        res = runner.invoke(main, ["pulse", "design", "--tp-us", "4",
                                   "--export", str(tmp_path)])
        assert res.exit_code == 2, res.output
        assert "error: " in res.output

    def test_infeasible_exits_cleanly(self, runner):
        res = runner.invoke(main, ["pulse", "design", "--tp-us", "0.2",
                                   "--sigma", "0.5"])
        assert res.exit_code == 2

    @pytest.mark.parametrize("flag,value,message", [
        ("--tp-us", "-1", "duration must be positive"),
        ("--tud-us", "0", "ramp_up must be positive"),
        ("--sigma", "-2", "sharpness must be positive"),
        ("--target-phase", "0", "target_phase must be positive"),
        # non-finite values fail on the field, not in the Newton solve
        ("--sigma", "inf", "sharpness must be positive and finite"),
        ("--sigma", "nan", "sharpness must be positive and finite"),
        ("--target-phase", "nan", "target_phase must be positive and finite"),
        ("--tud-us", "nan", "ramp_up must be positive and finite, not nan"),
        ("--tp-us", "nan", "duration must be positive and finite"),
        ("--omega0-mhz", "nan", "secular_frequency must be positive and finite"),
    ])
    def test_bad_value_exits_with_error(self, runner, flag, value, message):
        options = {"--tp-us": "4", flag: value}
        res = runner.invoke(main, ["pulse", "design",
                                   *(word for pair in options.items() for word in pair)])
        assert res.exit_code == 2, res.output
        assert f"error: {message}" in res.output

    def test_defaults_agree_across_config_design_and_cli(self, runner, monkeypatch):
        # a config that sets only the pulse length, design_pulse and the CLI
        # take their sharpness, target phase, ramps and w0 from one place
        cfg = parse_config_text("chain.modes = 2\nchain.spacing_um = 27.6\n"
                                "state.occupations = 1,0\npulse.total_us = 4\n")
        configured = window_pulse(build_scenario(cfg)[0])
        designed = []

        def spy(*args):
            designed.append(design(*args))
            return designed[-1]

        design = cli.design_pulse
        monkeypatch.setattr(cli, "design_pulse", spy)
        res = runner.invoke(main, ["pulse", "design", "--tp-us", "4"])
        assert res.exit_code == 0, res.output
        assert configured == design_pulse(4e-6) == designed[0]
        assert res.output.splitlines()[0] == f"depth k = {configured.depth:.6f}"

    def test_units_scale_exactly(self, runner, monkeypatch):
        calls = []

        def spy(*args):
            calls.append(args)
            return design(*args)

        design = cli.design_pulse
        monkeypatch.setattr(cli, "design_pulse", spy)
        res = runner.invoke(main, ["pulse", "design", "--tp-us", "3.3",
                                   "--tud-us", "1.5"])
        assert res.exit_code == 0, res.output
        assert calls == [(3.3e-6, 1.5e-6, 1.5e-6, 6.0, DEFAULT_SECULAR_FREQUENCY,
                          math.pi)]

    def test_omega0_sets_the_design_frequency(self, runner, monkeypatch):
        calls = []

        def spy(*args):
            calls.append(args)
            return design(*args)

        design = cli.design_pulse
        monkeypatch.setattr(cli, "design_pulse", spy)
        res = runner.invoke(main, ["pulse", "design", "--tp-us", "4",
                                   "--omega0-mhz", "2.0"])
        assert res.exit_code == 0, res.output
        assert calls[0][4] == 2.0 * math.pi * 2.0e6
