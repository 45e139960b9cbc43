"""Scenario catalog, CSV emission, sweeps, report comparisons, config files."""

import csv
import gc
import io
import math
import re
import tracemalloc
from dataclasses import fields, replace
from decimal import Decimal
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings, strategies as st

from phonondd import propagation
from phonondd.model import FockSpace
from phonondd.pulses import MAX_PULSE_SAMPLES, sample_pulse
from phonondd.scenarios import (
    CONFIG_KEYS,
    MAX_FOCK_DIMENSION,
    POPULATION_COLUMN_THRESHOLD,
    ResultRecord,
    ScenarioConfig,
    ScenarioError,
    _hom_outputs,
    build_scenario,
    emit_report,
    execute_scenario,
    from_micro,
    get_scenario,
    load_reference_values,
    output_directory,
    parse_config_file,
    parse_config_text,
    populations_csv,
    records_csv,
    scenario_catalog,
    sweep,
)
from phonondd.sequences import feasibility_bounds, synthesize

from convergence import convergence_check
from fock_labels import label
from population_record import banded_result, dense_populations, record
from pulse_checks import window_pulse

CHEAP = """
chain.modes = 2
chain.spacing_um = 43.8
state.occupations = 1,0
propagator.n_max = 4
output.samples = 48
"""


def cheap_config(name="cheap", extra=""):
    return parse_config_text(CHEAP + extra, name=name)


class TestCatalog:
    def test_names_frozen(self):
        names = [cfg.name for cfg in scenario_catalog()]
        assert names == ["fig1a", "fig1b", "fig2", "fig3", "fig4a", "fig4b",
                         "fig5a", "fig5b", "fig6a", "fig6b", "fig7a", "fig7b"]

    def test_get_scenario_unknown(self):
        with pytest.raises(ScenarioError):
            get_scenario("fig99")

    def test_get_scenario_builds_the_catalog_once(self, monkeypatch):
        get_scenario("fig1a")
        built = []
        post_init = ScenarioConfig.__post_init__

        def counted(cfg):
            built.append(cfg.name)
            post_init(cfg)

        monkeypatch.setattr(ScenarioConfig, "__post_init__", counted)
        assert get_scenario("fig4b") is get_scenario("fig4b")
        assert get_scenario("fig4b").name == "fig4b"
        with pytest.raises(ScenarioError, match="unknown scenario 'fig99'"):
            get_scenario("fig99")
        assert built == []
        # the counter sees every build, and the catalog list is new per call
        assert scenario_catalog() is not scenario_catalog()
        assert len(built) == 24

    def test_catalog_shapes(self):
        cat = {cfg.name: cfg for cfg in scenario_catalog()}
        assert cat["fig1a"].mode_count == 2
        assert cat["fig1a"].spacing == pytest.approx(27.6e-6, rel=1e-12)
        assert cat["fig1a"].pulse_model == "shaped"
        assert cat["fig1b"].pulse_duration == pytest.approx(1e-6, rel=1e-12)
        assert cat["fig2"].spacing == pytest.approx(43.8e-6, rel=1e-12)
        assert cat["fig3"].level_role_swap == (False, False)
        assert cat["fig4a"].level_role_swap is None
        assert cat["fig5a"].repetitions == 5
        for name in ("fig6a", "fig6b", "fig7a", "fig7b"):
            assert cat[name].protected_set == frozenset({0, 1})
            assert cat[name].beam_splitter_pair == (0, 1)
            assert cat[name].initial_occupations == (1, 1, 1)
        assert cat["fig7b"].repetitions == 5

    def test_hop_time_values(self):
        assert get_scenario("fig1a").hop_time() * 1e6 == pytest.approx(
            131.43062333767108, rel=1e-9)
        assert get_scenario("fig3").hop_time() * 1e6 == pytest.approx(
            525.2809525658624, rel=1e-9)

    def test_every_reference_metric_has_a_scenario(self):
        refs = load_reference_values()
        names = {cfg.name for cfg in scenario_catalog()}
        assert set(refs["metrics"]) <= names


class TestExecution:
    def test_cheap_run_record(self):
        record, result = execute_scenario(cheap_config())
        assert record.scenario == "cheap"
        assert record.failure is None
        assert record.error_E < 1e-12  # two-mode ideal cancellation is exact
        assert record.error_EB is None
        assert isinstance(record.error_E, float)
        params = dict(record.parameters)
        assert params["modes"] == "2"
        assert params["n_max"] == "4"
        assert params["model"] == "ideal"
        assert params["coupling"] == ""  # an ideal run has no window
        assert dense_populations(result).shape == (48, 25)

    def test_record_parameters_are_exact_micro_units(self, scenario_cache):
        # each is the shortest decimal of the float, scaled exactly by 10^6
        params = dict(scenario_cache.record("fig3").parameters)
        assert params["spacing_um"] == "43.8"
        assert from_micro(params["total_time_us"]) == get_scenario("fig3").hop_time()
        assert params["pulse_us"] == ""
        cfg = cheap_config(extra="schedule.total_time_us = 100.1\n"
                                 "pulse.total_us = 4.4\n")
        params = dict(execute_scenario(cfg)[0].parameters)
        assert [params[key] for key in ("spacing_um", "total_time_us", "pulse_us")] \
            == ["43.8", "100.1", "4.4"]

    def test_records_keep_their_config(self):
        cfg = get_scenario("fig3")
        first, _ = execute_scenario(cfg)
        second, _ = execute_scenario(cfg)
        assert first.source is second.source is cfg
        assert first.parameters == second.parameters
        moved = replace(cfg, spacing=50e-6)
        record, _ = execute_scenario(moved)
        assert record.source is moved
        assert dict(record.parameters)["spacing_um"] == "50"
        assert dict(first.parameters)["spacing_um"] == "43.8"

    def test_kept_sweep_records_hold_no_formatted_parameters(self):
        # a fig3 sweep record that keeps its config holds about 600 B; one
        # that formats its own nine (key, text) pairs holds about 1,350 B
        bound, count = 1024, 200
        cfg = get_scenario("fig3")
        values = [cfg.spacing + 1e-8 * (i + 1) for i in range(count)]
        sweep(cfg, "d", values[:2])  # lazy set-up
        tracemalloc.start()
        try:
            gc.collect()
            before, _ = tracemalloc.get_traced_memory()
            kept = sweep(cfg, "d", values)
            gc.collect()
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(kept) == count and all(r.failure is None for r in kept)
        assert (after - before) / count <= bound

    def test_beam_splitter_pair_engages_reference(self):
        extra = "schedule.protected = 0,1\noutput.beam_splitter_pair = 0,1\n"
        cfg = parse_config_text(
            "chain.modes = 2\nchain.spacing_um = 43.8\n"
            "state.occupations = 1,1\npropagator.n_max = 5\n" + extra,
            name="bs")
        record, result = execute_scenario(cfg)
        # protecting both modes leaves plain hopping, the 50:50 splitter
        assert record.error_EB is not None
        assert record.error_EB < 1e-10

    def test_cutoff_leak_raises(self):
        cfg = replace(get_scenario("fig3"), name="leaky", per_mode_cutoff=3,
                      record_samples=16)
        with pytest.raises(ScenarioError, match="per_mode_cutoff"):
            execute_scenario(cfg)

    def test_build_scenario_exposes_engine(self):
        schedule, initial, engine = build_scenario(cheap_config())
        assert engine.space.dimension == 25
        assert schedule.total_evolve_time == pytest.approx(
            cheap_config().hop_time(), rel=1e-12)
        assert engine.maps.couplings.mode_count == 2
        assert abs(np.linalg.norm(initial.amplitudes) - 1.0) < 1e-15

    @pytest.mark.parametrize("name,samples", [
        (name, samples) for name in ("fig3", "fig1a")
        for samples in (3, 5, 9, 17, 33)] + [("fig5a", 1086)])
    def test_one_row_per_sample(self, name, samples):
        # fig3 (ideal) and fig1a (shaped, carve) put grid points exactly on
        # segment and window boundaries at these sample counts; on fig5a a
        # stride of wall / 1085 overshoots the grid end by one point
        cfg = replace(get_scenario(name), record_samples=samples)
        _, result = execute_scenario(cfg)
        assert len(result.times) == samples
        assert record(result).shape == (samples, result.columns.size)
        assert dense_populations(result).shape == (samples, result.space.dimension)
        assert np.all(np.diff(result.times) > 0)

    def test_convergence_check_cheap(self):
        out = convergence_check(cheap_config(), step=2)
        assert out["converged"]
        assert out["relative_change"] < 0.05


def cell_by_cell_populations_csv(result, cfg, full):
    """Reference formatter: one repr(float(...)) call per cell of the
    record scattered into the cube."""
    space = result.space
    populations = dense_populations(result)
    labels = [label(space, i) for i in range(space.dimension)]
    if full:
        keep = list(range(space.dimension))
        drop = []
    else:
        forced = {space.index(cfg.initial_occupations)}
        forced.update(_hom_outputs(cfg, space))
        peaks = populations.max(axis=0)
        keep = [i for i in range(space.dimension)
                if peaks[i] > POPULATION_COLUMN_THRESHOLD or i in forced]
        drop = [i for i in range(space.dimension) if i not in set(keep)]
    header = ["t_us"] + [labels[i] for i in keep] + ([] if full else ["residual"])
    lines = [",".join(header)]
    for row_i, t in enumerate(result.times):
        row = populations[row_i]
        cells = [repr(float(t * 1e6))] + [repr(float(row[i])) for i in keep]
        if not full:
            cells.append(repr(float(row[drop].sum()) if drop else 0.0))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


class TestPopulationsCsv:
    def test_row_sums_and_determinism(self, scenario_cache):
        cfg = get_scenario("fig3")
        _, result = scenario_cache("fig3")
        text = populations_csv(result, cfg)
        lines = text.strip().splitlines()
        header = lines[0].split(",")
        assert header[0] == "t_us"
        assert header[-1] == "residual"
        assert "210" in header  # initial state always kept
        for line in lines[1:]:
            vals = [float(x) for x in line.split(",")[1:]]
            assert abs(sum(vals) - 1.0) < 1e-12
        # a second run serializes bit identically
        _, again = execute_scenario(cfg)
        assert populations_csv(again, cfg) == text

    def test_hong_ou_mandel_columns_present(self, scenario_cache):
        cfg = get_scenario("fig7a")
        _, result = scenario_cache("fig7a")
        header = populations_csv(result, cfg).splitlines()[0].split(",")
        assert "1-2-0" in header
        assert "1-0-2" in header
        assert "1-1-1" in header

    def test_full_dump_has_every_label(self, scenario_cache):
        cfg = get_scenario("fig3")
        _, result = scenario_cache("fig3")
        header = populations_csv(result, cfg, full=True).splitlines()[0]
        cols = header.split(",")
        assert len(cols) == 1 + result.space.dimension
        assert "residual" not in cols

    def test_filtered_columns_are_the_full_dump_columns(self, scenario_cache):
        """On fig5b, whose record is held in 42 bands, every column of the
        filtered CSV but the residual is, byte for byte, the same column of
        the full CSV: both dumps read the record through one pass."""
        cfg = get_scenario("fig5b")
        result = scenario_cache.result("fig5b")
        assert len(result.bands) == 42

        def by_label(text):
            rows = [line.split(",") for line in text.splitlines()]
            return dict(zip(rows[0], zip(*rows[1:])))

        filtered = by_label(populations_csv(result, cfg))
        full = by_label(populations_csv(result, cfg, full=True))
        assert "residual" in filtered and "residual" not in full
        del filtered["residual"]
        assert 1 < len(filtered) < len(full)
        for name, cells in filtered.items():
            assert cells == full[name], name

    @pytest.mark.parametrize("name", ["fig1a", "fig4b"])
    def test_residual_column_matches_the_row_loop(self, scenario_cache, name):
        """The residual column, one sum over axis 1, bit for bit against the
        sum of each row's dropped populations taken alone, on a two-mode and
        a three-mode run."""
        cfg = get_scenario(name)
        _, result = scenario_cache(name)
        lines = populations_csv(result, cfg).splitlines()
        header = set(lines[0].split(","))
        drop = [i for i, label in enumerate(result.space.labels())
                if label not in header]
        assert drop
        expected = [repr(float(row[drop].sum())) for row in dense_populations(result)]
        assert [line.rsplit(",", 1)[1] for line in lines[1:]] == expected

    @pytest.mark.parametrize("name,full", [("fig1b", False), ("fig7a", True),
                                           ("fig6b", True), ("fig5b", False),
                                           ("fig3", False), ("fig3", True),
                                           ("fig4b", False), ("fig4b", True)])
    def test_rows_match_cell_by_cell_formatting(self, scenario_cache, name, full):
        cfg = get_scenario(name)
        _, result = scenario_cache(name)
        assert populations_csv(result, cfg, full=full) == \
            cell_by_cell_populations_csv(result, cfg, full)


# cell values whose repr takes exponent form, the threshold and its
# neighbours, and plain fractions
CELL_VALUES = [0.0, 1e-05, 5e-324, 1e+16, 1e-4, 2e-4, 0.25, 1.0 / 3.0]


@st.composite
def synthetic_results(draw):
    """(result, cfg) with columns that are zero, constant or varying, on a
    record of every basis state or of a drawn subset, in a drawn column
    order, held as bands of drawn rows and widths."""
    modes = draw(st.integers(1, 3))
    cutoff = draw(st.integers(1, 3))
    space = FockSpace(modes, cutoff)
    rows = draw(st.integers(2, 40))
    # values at or below the threshold fill the residual of filtered rows
    cell = (st.sampled_from(CELL_VALUES) | st.floats(0.0, 1.0)
            | st.floats(0.0, POPULATION_COLUMN_THRESHOLD))
    kinds = draw(st.just(["const", "live"] * space.dimension)
                 | st.lists(st.sampled_from(["zero", "const", "live"]),
                            min_size=space.dimension, max_size=space.dimension))
    columns = []
    for kind in kinds[:space.dimension]:
        if kind == "zero":
            columns.append([0.0] * rows)
        elif kind == "const":
            columns.append([draw(cell)] * rows)
        else:
            columns.append(draw(st.lists(cell, min_size=rows, max_size=rows)))
    times = sorted(draw(st.lists(st.floats(0.0, 1e-2), min_size=rows,
                                 max_size=rows, unique=True)))
    occupations = tuple(draw(st.lists(st.integers(0, cutoff), min_size=modes,
                                      max_size=modes)))
    pair = (0, 1) if modes > 1 and draw(st.booleans()) else None
    cfg = ScenarioConfig("synthetic", modes, 43.8e-6, cutoff, occupations,
                         beam_splitter_pair=pair)
    states = draw(st.just(list(range(space.dimension)))
                  | st.lists(st.integers(0, space.dimension - 1),
                             unique=True).map(sorted))
    populations, states, splits = draw(
        banding(np.column_stack(columns)[:, states], states))
    return banded_result(space, times, populations, states, occupations,
                         splits), cfg


@st.composite
def banding(draw, populations, states):
    """(populations, states, splits): the record on the basis states
    ``states`` with its columns in a drawn order, bands cut before the
    drawn rows ``splits`` (a repeated cut gives a band of no rows), and the
    record zeroed past a drawn width of each band."""
    rows, count = populations.shape
    order = np.array(draw(st.permutations(range(count))), dtype=int)
    splits = sorted(draw(st.lists(st.integers(0, rows), max_size=4)))
    populations = populations[:, order]
    for band in np.split(np.arange(rows), splits):
        populations[band, draw(st.integers(0, count)):] = 0.0
    return populations, np.asarray(states, dtype=int)[order], splits


def fixed_bands():
    """(result, cfg) on a record of 20 of 27 states in a mixed column
    order, held in five bands of widths 20, 0, 3, 12 and 7, the first two
    one row long."""
    space = FockSpace(3, 2)
    states = np.array([i for i in range(space.dimension) if i % 4])
    order = [(7 * j) % len(states) for j in range(len(states))]
    rows = np.arange(1, 12)[:, None] / (1.0 + np.arange(len(states)))
    widths = [(0, 1, len(states)), (1, 2, 0), (2, 5, 3), (5, 9, 12), (9, 11, 7)]
    populations = np.zeros_like(rows)
    for lo, hi, width in widths:
        populations[lo:hi, :width] = rows[lo:hi, order[:width]]
    cfg = ScenarioConfig("fixed", 3, 43.8e-6, 2, (1, 1, 0))
    return banded_result(space, np.linspace(0.0, 1e-4, 11), populations,
                         states[order], (1, 1, 0), [1, 2, 5, 9]), cfg


# no shrink phase: minimizing thousands of drawn cells takes minutes, so
# a failing example is reported as first found
@settings(max_examples=100, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(case=synthetic_results(), full=st.booleans(),
       slice_bytes=st.just(propagation.SLICE_BYTES) | st.integers(1, 4096))
@example(case=fixed_bands(), full=False, slice_bytes=200)
@example(case=fixed_bands(), full=True, slice_bytes=200)
def test_populations_csv_matches_cell_by_cell(case, full, slice_bytes):
    """The CSV against the cell by cell formatter, with the band reader's
    row chunks at their own size or drawn down to one row."""
    result, cfg = case
    with mock.patch.object(propagation, "SLICE_BYTES", slice_bytes):
        text = populations_csv(result, cfg, full=full)
    assert text == cell_by_cell_populations_csv(result, cfg, full)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_band_reader_returns_the_dense_record(data):
    """Every reader of a banded record gives the dense record it was cut
    from: the whole of it, its column maxima, and the populations of any
    basis states, zero off the record, in row chunks of any size."""
    space = FockSpace(2, 3)
    columns = data.draw(st.lists(st.integers(0, space.dimension - 1),
                                 unique=True).map(sorted))
    rows = data.draw(st.integers(1, 30))
    cells = st.lists(st.sampled_from(CELL_VALUES), min_size=len(columns),
                     max_size=len(columns))
    dense = np.array(data.draw(st.lists(cells, min_size=rows, max_size=rows)),
                     dtype=float).reshape(rows, len(columns))
    dense, columns, splits = data.draw(banding(dense, columns))
    result = banded_result(space, np.arange(rows) * 1e-6, dense, columns, (0, 0),
                           splits)
    assert np.array_equal(record(result), dense)
    assert np.array_equal(result.column_maxima(), dense.max(axis=0))
    states = np.array(data.draw(st.lists(st.integers(0, space.dimension - 1))),
                      dtype=int)
    # chunks of at most ``size`` rows at the width the reader gathers at
    size = data.draw(st.integers(1, rows))
    slice_bytes = 8 * max(len(states), len(columns) + 1) * size
    with mock.patch.object(propagation, "SLICE_BYTES", slice_bytes):
        chunks = list(result.row_chunks(states))
    assert max(len(chunk) for chunk in chunks) <= size
    assert np.array_equal(np.concatenate(chunks), dense_populations(result)[:, states])


def table_result(columns, cutoff=2, modes=2, occupations=(1, 0), pair=None):
    """(result, cfg) whose populations are ``columns``, one per basis state,
    all on the record."""
    space = FockSpace(modes, cutoff)
    populations = np.array(columns, dtype=float).T
    cfg = ScenarioConfig("table", modes, 43.8e-6, cutoff, occupations,
                         beam_splitter_pair=pair)
    times = np.linspace(0.0, 1e-4, populations.shape[0])
    return banded_result(space, times, populations, np.arange(space.dimension),
                         occupations), cfg


def ramp(rows, scale=1.0):
    return (scale * np.linspace(0.0, 1.0, rows) ** 2).tolist()


class TestChunkWriterEdges:
    """Rows the chunk writer builds from literal text alone or around it."""

    @pytest.mark.parametrize("full", [True, False])
    def test_every_data_column_constant(self, full):
        columns = [[v] * 6 for v in (0.25, 0.0, 1e-05, 0.5, 0.0, 0.25, 0.0, 0.0, 0.0)]
        result, cfg = table_result(columns)
        text = populations_csv(result, cfg, full=full)
        assert text == cell_by_cell_populations_csv(result, cfg, full)
        # only t_us (and the residual of a filtered table) is live
        assert len(set(line.split(",", 1)[1]
                       for line in text.splitlines()[1:])) == 1

    @pytest.mark.parametrize("full", [True, False])
    def test_first_and_last_data_column_live(self, full):
        columns = [[0.0] * 5 for _ in range(9)]
        columns[0], columns[8] = ramp(5, 0.5), ramp(5, 1.0 / 3.0)
        columns[4] = [0.25] * 5
        result, cfg = table_result(columns)
        assert populations_csv(result, cfg, full=full) == \
            cell_by_cell_populations_csv(result, cfg, full)

    @pytest.mark.parametrize("full", [True, False])
    def test_single_row(self, full):
        columns = [[v] for v in (0.5, 0.0, 1e-05, 0.25, 0.0, 0.0, 0.2, 0.0, 0.04999)]
        result, cfg = table_result(columns)
        text = populations_csv(result, cfg, full=full)
        assert text == cell_by_cell_populations_csv(result, cfg, full)
        assert text.count("\n") == 2

    @pytest.mark.parametrize("full", [True, False])
    def test_dash_joined_labels(self, full):
        space = FockSpace(3, 10)
        columns = [[0.0] * 7 for _ in range(space.dimension)]
        columns[space.index((1, 1, 1))] = ramp(7)[::-1]
        columns[space.index((1, 2, 0))] = ramp(7, 0.5)
        columns[space.index((3, 0, 0))] = [2e-5] * 7
        result, cfg = table_result(columns, cutoff=10, modes=3,
                                   occupations=(1, 1, 1), pair=(0, 1))
        text = populations_csv(result, cfg, full=full)
        assert text == cell_by_cell_populations_csv(result, cfg, full)
        header = text.splitlines()[0].split(",")
        assert {"1-1-1", "1-2-0", "1-0-2"} <= set(header)
        assert ("3-0-0" in header) == full


class TestRepetitionBound:
    def test_a_plan_without_levels_has_no_bound(self):
        # one mode has nothing to decouple, so its schedule has no window
        cfg = replace(get_scenario("fig1a"), mode_count=1, initial_occupations=(1,),
                      repetitions=50)
        assert feasibility_bounds(cfg.spec(), cfg.pulse_duration).repetition_bound is None
        assert build_scenario(cfg)[0].pulse_model == "ideal"

    @pytest.mark.parametrize("name,segment_pulses", [
        ("fig1a", None), ("fig4b", None), ("fig6b", None), ("fig4b", 3)])
    def test_parse_rejects_what_the_carved_steps_reject(self, name, segment_pulses):
        # fig6b's protected pair is one grouping slot, so its three modes
        # run a two-segment cycle; with segments of exactly 3 pulses, the
        # window fills each segment of the third repetition exactly
        cfg = get_scenario(name)
        if segment_pulses is not None:
            cfg = replace(cfg, total_time=4 * segment_pulses * cfg.pulse_duration)
        bound = feasibility_bounds(cfg.spec(), cfg.pulse_duration).repetition_bound
        spec = cfg.spec(window_pulse(build_scenario(cfg)[0]))
        fits = []
        for n in range(1, bound + 3):
            try:
                synthesize(replace(spec, repetitions=n))
                fits.append(True)
            except ValueError as exc:
                assert "does not fit" in str(exc)
                fits.append(False)
            try:
                replace(cfg, repetitions=n)
                parsed = True
            except ScenarioError as exc:
                assert f"repetition bound {bound}" in str(exc)
                parsed = False
            assert parsed == fits[-1], n
        assert fits == [True] * (bound - 1) + [False] * 3

    def test_message_names_the_bound(self):
        with pytest.raises(ScenarioError,
                           match="fig4b: 200 repetitions reach the repetition bound 33"):
            replace(get_scenario("fig4b"), repetitions=200)


class TestSweep:
    def test_repetition_axis(self):
        records = sweep(cheap_config(), "n_r", [2, 1])
        assert [r.scenario for r in records] == ["cheap_n_r=1", "cheap_n_r=2"]
        assert all(r.failure is None for r in records)

    def test_axis_values_transform(self):
        base = cheap_config()
        records = sweep(base, "d", [43.8e-6, 87.6e-6])  # meters
        assert all(r.failure is None for r in records)
        spacings = [dict(r.parameters)["spacing_um"] for r in records]
        assert float(spacings[0]) == pytest.approx(43.8)
        assert float(spacings[1]) == pytest.approx(87.6)

    def test_cutoff_axis_failure_captured(self):
        records = sweep(replace(get_scenario("fig3"), record_samples=16),
                        "n_max", [3])
        assert records[0].failure is not None
        assert "per_mode_cutoff" in records[0].failure

    def test_rejected_value_fails_alone(self):
        # fig3 starts in |2,1,0>, which n_max = 1 cannot hold
        records = sweep(get_scenario("fig3"), "n_max", [8, 1])
        assert [r.scenario for r in records] == ["fig3_n_max=1", "fig3_n_max=8"]
        low, high = records
        assert "0..1 (the cutoff)" in low.failure and low.error_E is None
        assert high.failure is None and high.error_E is not None

    @pytest.mark.parametrize("axis,good,bad,message", [
        ("n_r", 1, 2.5, "repetitions must be an integer, not 2.5"),
        ("n_max", 4, 7.9, "per_mode_cutoff must be an integer, not 7.9"),
    ])
    def test_non_integer_count_fails_alone(self, axis, good, bad, message):
        # the value reaches the config as given, not truncated to an integer
        records = sweep(cheap_config(), axis, [bad, good])
        assert [r.scenario for r in records] == [f"cheap_{axis}={good}",
                                                 f"cheap_{axis}={bad}"]
        ran, failed = records
        assert ran.failure is None and ran.error_E is not None
        assert failed.failure == f"cheap_{axis}={bad}: {message}"
        assert failed.error_E is None
        assert failed.parameters == ((axis, str(bad)),)

    def test_non_real_pulse_duration_fails_alone(self):
        # the config rejects the value before the ramps scale with it
        (failed,) = sweep(get_scenario("fig1b"), "T_P", ["1e-6"])
        assert failed.failure == ("fig1b_T_P=1e-6: pulse_duration must be a real"
                                  " number, not '1e-6'")
        assert failed.error_E is None

    def test_unknown_axis(self):
        with pytest.raises(ScenarioError):
            sweep(cheap_config(), "voltage", [1.0])
        with pytest.raises(ScenarioError, match="needs a shaped scenario"):
            sweep(cheap_config(), "T_P", [1e-6])

    def test_records_csv_covers_failures(self):
        records = sweep(replace(get_scenario("fig3"), record_samples=16),
                        "n_max", [3])
        text = records_csv(records)
        lines = text.strip().splitlines()
        assert lines[0].startswith("scenario,error_E")
        assert "wall_time" not in lines[0]  # timings are not reproducible
        assert lines[1].split(",")[1] == ""  # no error value for a failure

    def test_cells_with_commas_are_quoted(self):
        records = sweep(get_scenario("fig4a"), "d", [-3e-6])
        failure = records[0].failure
        assert failure == ("fig4a_d=-3e-06: spacing must be positive and"
                           " finite, not -3e-06")
        renamed = replace(records[0], scenario="fig4a, d=-3e-06")
        rows = list(csv.reader(io.StringIO(records_csv(records + [renamed]))))
        assert [len(row) for row in rows] == [7, 7, 7]
        assert [row[5] for row in rows[1:]] == [failure, failure]
        assert rows[2][0] == "fig4a, d=-3e-06"
        report, _ = emit_report([renamed], load_reference_values())
        assert list(csv.reader(io.StringIO(report)))[1] == [
            "fig4a, d=-3e-06", "", "", "", "", "error"]

    def test_oversized_cutoff_gives_a_failure_row(self):
        records = sweep(replace(get_scenario("fig3"), record_samples=16),
                        "n_max", [8, 101])
        assert records[0].failure is None
        assert records[1].failure == (
            "fig3_n_max=101: per_mode_cutoff 101 on 3 modes gives a Fock"
            f" dimension of 1,061,208, above the limit {MAX_FOCK_DIMENSION:,}")


class TestReport:
    def test_reported_error_is_error_EB_when_set(self):
        rec = ResultRecord("x", (), error_E=1.0, error_EB=None, norm_drift=None,
                           boundary_leakage=None, wall_time=None)
        assert rec.error == 1.0
        assert replace(rec, error_EB=2.0).error == 2.0
        assert replace(rec, error_EB=0.0).error == 0.0
        assert replace(rec, error_E=None).error is None

    def test_verdict_modes(self, scenario_cache):
        record, _ = scenario_cache("fig3")
        text, ok = emit_report([record], load_reference_values())
        lines = text.strip().splitlines()
        assert lines[0] == "scenario,metric,computed,reference,ratio,verdict"
        row = lines[1].split(",")
        assert row[0] == "fig3"
        assert row[5] == "pass"
        assert ok

    def test_out_of_band_value_fails(self, scenario_cache):
        record, _ = scenario_cache("fig3")
        doctored = replace(record, error_E=record.error_E * 10)
        text, ok = emit_report([doctored], load_reference_values())
        assert not ok
        assert text.strip().splitlines()[1].split(",")[5] == "FAIL"

    def test_record_without_the_referenced_metric_fails(self):
        # named after a catalog scenario whose reference is error_EB, but
        # without the beam splitter pair that gives a record one
        record, _ = execute_scenario(cheap_config(name="fig6b"))
        assert record.error_EB is None
        references = load_reference_values()
        text, ok = emit_report([record], references)
        reference = references["metrics"]["fig6b"]["value"]
        assert text.strip().splitlines()[1] == f"fig6b,error_EB,,{reference!r},,error"
        assert not ok

    def test_unreferenced_scenario_reports_blank(self):
        record, _ = execute_scenario(cheap_config())
        text, ok = emit_report([record], load_reference_values())
        row = text.strip().splitlines()[1].split(",")
        assert row[0] == "cheap"
        assert row[3] == ""  # nothing to compare against
        assert ok


class TestConfigParsing:
    def test_full_round_trip(self):
        cfg = parse_config_text("""
# comment and blank lines ignored

scenario.name = demo
chain.modes = 3
chain.spacing_um = 43.8
chain.truncation = 1
state.occupations = 2,1,0
schedule.repetitions = 2
schedule.total_time_us = 100.0
pulse.total_us = 4.0
pulse.ramp_up_us = 2.0
pulse.ramp_down_us = 2.0
pulse.sharpness = 5.0
pulse.target_phase = 3.141592653589793
propagator.n_max = 6
propagator.coupling = full
output.samples = 64
""")
        assert cfg.name == "demo"
        assert cfg.mode_count == 3
        assert cfg.truncation_distance == 1
        assert cfg.initial_occupations == (2, 1, 0)
        assert cfg.repetitions == 2
        assert cfg.total_time == pytest.approx(100e-6, rel=1e-12)
        assert cfg.pulse_model == "shaped"
        assert cfg.pulse_duration == pytest.approx(4e-6, rel=1e-12)
        assert cfg.pulse_sharpness == 5.0
        assert cfg.per_mode_cutoff == 6
        assert cfg.window_coupling == "full"
        assert cfg.record_samples == 64

    def test_defaults(self):
        cfg = cheap_config()
        assert cfg.per_mode_cutoff == 4  # explicit in the cheap block
        bare = parse_config_text("chain.modes = 2\nchain.spacing_um = 27.6\n"
                                 "state.occupations = 0,1\n")
        assert bare.per_mode_cutoff == 10
        assert bare.pulse_model == "ideal"
        assert (bare.pulse_sharpness, bare.target_phase, bare.window_coupling) \
            == (None, None, None)

    def test_pulse_duration_alone_makes_a_config_shaped(self):
        cfg = cheap_config(extra="pulse.total_us = 4.4\n")
        assert cfg.pulse_model == "shaped"
        assert (cfg.pulse_sharpness, cfg.target_phase, cfg.window_coupling) \
            == (6.0, math.pi, "rwa")
        assert replace(cfg, target_phase=3.0).target_phase == 3.0
        with pytest.raises(ScenarioError, match="pulse_ramp_up is set"):
            replace(cfg, pulse_duration=None, pulse_ramp_up=2.2e-6)

    def test_protected_and_roles(self):
        # three modes, one protected: three grouping slots, so two levels
        cfg = parse_config_text("chain.modes = 3\nchain.spacing_um = 43.8\n"
                                "state.occupations = 1,0,0\n"
                                "schedule.protected = 0\n"
                                "schedule.role_swap = false,true\n")
        assert cfg.protected_set == frozenset({0})
        assert cfg.level_role_swap == (False, True)

    @pytest.mark.parametrize("extra,message", [
        ("schedule.role_swap = true\n", "level_role_swap needs 2 flags, got 1"),
        ("schedule.protected = 0\nschedule.role_swap = true,false\n",
         "role swap pattern would pulse the protected set"),
    ])
    def test_bad_role_swap_rejected_at_parse(self, extra, message):
        with pytest.raises(ScenarioError, match=f"demo: {message}"):
            parse_config_text("chain.modes = 3\nchain.spacing_um = 43.8\n"
                              "state.occupations = 1,0,0\n" + extra, name="demo")

    def test_role_flags_on_a_plan_without_levels_rejected(self, tmp_path):
        with pytest.raises(ScenarioError, match="one: level_role_swap needs 0 flags, got 1"):
            ScenarioConfig("one", 1, 43.8e-6, 4, (1,), level_role_swap=(True,),
                           total_time=1e-4)
        path = tmp_path / "single.cfg"
        path.write_text("chain.modes = 1\nchain.spacing_um = 43.8\n"
                        "state.occupations = 1\nschedule.role_swap = true,false\n")
        with pytest.raises(ScenarioError,
                           match="single: level_role_swap needs 0 flags, got 2"):
            parse_config_file(path)

    def test_role_swap_rejects_other_words(self):
        cfg = parse_config_text(CHEAP + "schedule.role_swap = TRUE\n")
        assert cfg.level_role_swap == (True,)
        with pytest.raises(ScenarioError, match="schedule.role_swap"):
            parse_config_text(CHEAP + "schedule.role_swap = maybe\n")

    @pytest.mark.parametrize("field,value", [
        ("beam_splitter_pair", (0,)),
        ("beam_splitter_pair", (0, 1, 1)),
        ("beam_splitter_pair", (1, 1)),
        ("beam_splitter_pair", (0, 2)),
        ("initial_occupations", (-1, 0)),
        ("protected_set", frozenset({2})),
        ("repetitions", 0),
        ("spacing", 0.0),
        ("spacing", -43.8e-6),
        ("total_time", 0.0),
        ("pulse_duration", float("nan")),
        ("spacing", float("inf")),
        ("total_time", float("inf")),
        ("per_mode_cutoff", 0),
        # finite positive spacings with no float hop rate, or a hop time of inf
        ("spacing", 1e-306),
        ("spacing", 1e294),
        ("spacing", 1e100),
        # not integers, or not bools
        ("repetitions", 2.5),
        ("truncation_distance", 1.5),
        ("level_role_swap", ("no", "yes")),
        ("per_mode_cutoff", 2.5),
        ("per_mode_cutoff", 1e300),
        ("record_samples", 2.5),
        ("initial_occupations", (1.5, 0)),
        ("beam_splitter_pair", (0.0, 1)),
        # not real numbers: strings and a bool from the Python API
        ("record_samples", "48"),
        ("pulse_duration", "4e-6"),
        ("spacing", "4e-5"),
        ("total_time", "1e-3"),
        ("pulse_duration", True),
    ])
    def test_bad_field_rejected_at_parse(self, field, value):
        with pytest.raises(ScenarioError, match=field):
            replace(cheap_config(), **{field: value})

    @pytest.mark.parametrize("modes,spacing_um,distance", [
        (2, "1e-300", 1e-306),
        # the neighbour rate is finite, the rate of modes 0 and 2 is not
        (3, "3.1e108", 6.2e102),
    ])
    def test_spacing_without_a_hop_rate_rejected_with_a_set_cycle(self, modes, spacing_um,
                                                                  distance):
        """A set total_time needs no hop time, but the couplings of the run
        still need a finite positive rate for every coupled pair."""
        text = (CHEAP.replace("43.8", spacing_um)
                .replace("modes = 2", f"modes = {modes}")
                .replace("1,0", ",".join(["1"] + ["0"] * (modes - 1)))
                + "schedule.total_time_us = 100\n")
        with pytest.raises(ScenarioError,
                           match=re.escape(f"spacing {distance!r} m gives no finite")):
            parse_config_text(text)

    @pytest.mark.parametrize("line,field", [
        ("pulse.sharpness = 0", "pulse_sharpness"),
        ("pulse.ramp_up_us = 0", "pulse_ramp_up"),
        ("pulse.ramp_down_us = -1", "pulse_ramp_down"),
        ("pulse.target_phase = -1", "target_phase"),
        ("pulse.sharpness = inf", "pulse_sharpness"),
        ("schedule.total_time_us = inf", "total_time"),
    ])
    def test_non_positive_pulse_and_tolerance_rejected_at_parse(self, line, field):
        with pytest.raises(ScenarioError, match=f"{field} must be positive"):
            parse_config_text(CHEAP + "pulse.total_us = 4.0\n" + line + "\n")

    @pytest.mark.parametrize("extra,message", [
        ("chain.truncation = 0\n", "truncation_distance must be at least 1, not 0"),
        ("chain.truncation = -2\n", "truncation_distance must be at least 1, not -2"),
        ("chain.truncation = 1\nschedule.protected = 0\n",
         "truncation_distance and protected_set cannot be combined"),
    ])
    def test_bad_truncation_rejected_at_parse(self, extra, message):
        with pytest.raises(ScenarioError, match=message):
            parse_config_text(CHEAP + extra)

    @pytest.mark.parametrize("cfg", scenario_catalog(), ids=lambda c: c.name)
    def test_micro_units_round_trip_the_catalog_bit_for_bit(self, cfg):
        # each value written as the exact decimal of its repr, in um or us
        total = cfg.spec().total_time
        values = {"chain.spacing_um": ("spacing", cfg.spacing),
                  "schedule.total_time_us": ("total_time", total),
                  "pulse.total_us": ("pulse_duration", cfg.pulse_duration),
                  "pulse.ramp_up_us": ("pulse_ramp_up", cfg.pulse_ramp_up),
                  "pulse.ramp_down_us": ("pulse_ramp_down", cfg.pulse_ramp_down)}
        text = (f"chain.modes = {cfg.mode_count}\n"
                f"state.occupations = {','.join('0' * cfg.mode_count)}\n")
        text += "".join(f"{key} = {Decimal(repr(value)).scaleb(6)}\n"
                        for key, (_, value) in values.items() if value is not None)
        parsed = parse_config_text(text)
        for field, value in values.values():
            if value is not None:
                assert getattr(parsed, field).hex() == value.hex(), field

    @pytest.mark.parametrize("line,field", [
        ("pulse.ramp_up_us = 2.2", "pulse_ramp_up"),
        ("pulse.ramp_down_us = 2.2", "pulse_ramp_down"),
        ("pulse.sharpness = 6.0", "pulse_sharpness"),
        ("pulse.target_phase = 3.141592653589793", "target_phase"),
        ("propagator.coupling = rwa", "window_coupling"),
    ])
    def test_pulse_setting_on_an_ideal_config_rejected_at_parse(self, line, field):
        with pytest.raises(ScenarioError,
                           match=f"demo: {field} is set, but an ideal pulse_model"):
            parse_config_text(CHEAP + line + "\n", name="demo")

    def test_every_field_has_exactly_one_config_key(self):
        # a field that no config can set would only ever hold its default
        targets = sorted(target for target, _ in CONFIG_KEYS.values())
        assert targets == sorted(f.name for f in fields(ScenarioConfig))

    def test_unknown_key_rejected(self):
        for line in ("chain.temperature = 300", "propagator.placement = carve",
                     "pulse.model = shaped", "propagator.tolerance = 1e-10"):
            with pytest.raises(ScenarioError, match="unknown config key"):
                parse_config_text(CHEAP + line + "\n")

    @pytest.mark.parametrize("text,message", [
        ("chain.modes = 8\nchain.spacing_um = 43.8\n"
         "state.occupations = 1,0,0,0,0,0,0,0\n",
         "per_mode_cutoff 10 on 8 modes gives a Fock dimension of 214,358,881"),
        (CHEAP.replace("samples = 48", "samples = 100000000000"),
         "record_samples 100000000000 on 2 modes gives a record of"
         " 2,500,000,000,000 values, above the limit 67,108,864"),
    ])
    def test_oversized_run_rejected_at_parse(self, text, message):
        tracemalloc.start()
        try:
            with pytest.raises(ScenarioError, match=message):
                parse_config_text(text)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    def test_oversized_pulse_grid_rejected_at_parse(self):
        # the 1 ns design grid of a 1 s pulse would take 1e9 samples per array
        message = ("big: sample_interval 1e-09 s gives 1e+09 samples over 1.0 s,"
                   f" above the limit {MAX_PULSE_SAMPLES:,}")
        tracemalloc.start()
        try:
            with pytest.raises(ScenarioError, match=f"^{re.escape(message)}$"):
                ScenarioConfig("big", 2, 27.6e-6, 4, (1, 0), total_time=100.0,
                               pulse_duration=1.0, pulse_ramp_up=0.5, pulse_ramp_down=0.5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    @pytest.mark.parametrize("name", ["fig1a", "fig1b"])  # the long and the short pulse
    def test_catalog_pulses_sample_at_the_default_interval(self, name):
        cfg = get_scenario(name)
        pulse = window_pulse(build_scenario(cfg)[0])
        assert len(sample_pulse(pulse).times) == round(cfg.pulse_duration / 1e-9) + 1
        assert round(cfg.pulse_duration / 1e-9) + 1 <= MAX_PULSE_SAMPLES

    def test_missing_required_key(self):
        with pytest.raises(ScenarioError):
            parse_config_text("chain.modes = 2\n")

    def test_repeated_key_names_both_lines(self):
        with pytest.raises(ScenarioError, match="line 5 and again on line 8"):
            parse_config_text(CHEAP + "# again\npropagator.n_max = 6\n")

    @pytest.mark.parametrize("key,field,allowed", [
        ("propagator.coupling", "window_coupling", "rwa, full"),
    ])
    def test_unknown_model_choice_rejected_at_parse(self, key, field, allowed):
        with pytest.raises(ScenarioError,
                           match=f"{field} must be one of {allowed}, not 'shapd'"):
            parse_config_text(CHEAP + f"{key} = shapd\n")


class TestOutputDirectory:
    def test_explicit_wins(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PHONONDD_OUT", "/nonexistent")
        assert str(output_directory(tmp_path)) == str(tmp_path)

    def test_env_fallback(self, monkeypatch, tmp_path):
        monkeypatch.setenv("PHONONDD_OUT", str(tmp_path))
        assert str(output_directory(None)) == str(tmp_path)

    def test_default_cwd(self, monkeypatch):
        monkeypatch.delenv("PHONONDD_OUT", raising=False)
        assert str(output_directory(None)) == "."
