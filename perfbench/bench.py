"""Catalog benchmark for phonondd.

Runs the built-in catalog scenarios through the same public path that
``phonondd run`` and ``phonondd report`` use (``execute_scenario`` ->
``populations_csv`` / ``records_csv`` -> ``emit_report``), checks every
result against the values recorded when the benchmark was introduced, and
prints each metric by name with its unit.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

    python3 perfbench/bench.py --workload ideal --seed 1 --seconds 20 --trace 0
    python3 perfbench/bench.py --workload all       # every workload in turn

With ``--trace 0`` the run times whole passes over the workload and reports
the end-to-end metrics.  With ``--trace 1`` it makes a traced pass between
two untraced ones; during the traced pass only, the names that
``phonondd.scenarios`` calls into are wrapped from the outside to record
spans and counts, and the per-layer metrics come from those.  The spans are
written to ``perfbench/out/``.  See README.md in this directory for why
each workload exists and which layer metric should move which end-to-end
metric.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

# Import the program from this checkout's sources, never an installed copy.
sys.path.insert(0, str(SRC))
import numpy  # noqa: E402
import scipy  # noqa: E402

import phonondd  # noqa: E402
from phonondd import scenarios  # noqa: E402
from phonondd.pulses import ShapedPulse  # noqa: E402
from phonondd.sequences import PhaseShift  # noqa: E402

if Path(phonondd.__file__).resolve().parent != SRC / "phonondd":
    raise ImportError(f"phonondd was imported from {phonondd.__file__},"
                      f" not from {SRC}")


@dataclass(frozen=True)
class Workload:
    scenarios: tuple[str, ...]
    full_populations: bool


# Together the three workloads are the whole catalog.  Each likely
# optimisation works mostly in one of them and little or not at all in
# another: `ideal` has no pulse windows (eigensystems and the full CSV dump),
# `shaped` has single-cycle windows of which half repeat, `shaped_repeated`
# has n_r = 5 windows of which 90% repeat.
WORKLOADS = {
    "ideal": Workload(("fig3", "fig4a", "fig5a", "fig6a", "fig7a"), True),
    "shaped": Workload(("fig1a", "fig1b", "fig2", "fig4b", "fig6b"), False),
    "shaped_repeated": Workload(("fig5b", "fig7b"), False),
}

# emit_report verdict and error metric (error_EB where the scenario has a
# beam-splitter reference, else error_E) of every catalog scenario, as
# computed when this benchmark was introduced.
SEED = {
    "fig1a": ("pass", 1.6843256865572975e-05),
    "fig1b": ("pass", 1.4057811321688263e-06),
    "fig2": ("FAIL", 1.1802166581809104e-06),
    "fig3": ("pass", 0.006403474919104313),
    "fig4a": ("pass", 4.4278705070621704e-05),
    "fig4b": ("pass", 3.901795209770853e-05),
    "fig5a": ("pass", 1.8543749209509741e-06),
    "fig5b": ("pass", 1.6533863300693952e-06),
    "fig6a": ("pass", 0.04594398787748455),
    "fig6b": ("pass", 0.04455250435033775),
    "fig7a": ("pass", 0.0018350988399059576),
    "fig7b": ("pass", 0.001566774634731427),
}
# fig2 misses its reference band by design (the `known_shortfall` criterion
# test_two_mode_shaped_wide_spacing); its FAIL verdict is the expected one.
KNOWN_SHORTFALL = frozenset({"fig2"})
# Relative change of an error metric that still counts as the same physics.
# It admits the 0.33% shift of fig1b when its cutoff converges (1.40578e-6
# at n_max = 14 against 1.40116e-6 converged) and 4-digit agreement of
# another engine, and rejects any real change of a decoupling error.
ERROR_RTOL = 0.01

# Fresh interpreter: import the package and its CLI, then one small shaped
# run that triggers SciPy's lazy set-up (eigh, solve_ivp, brentq).
SETUP_CHILD = """
import phonondd, phonondd.cli
from dataclasses import replace
from phonondd.scenarios import execute_scenario, get_scenario
execute_scenario(replace(get_scenario("fig1b"), per_mode_cutoff=6,
                         record_samples=2))
"""
SETUP_REPEATS = 3

try:
    _LIBC = ctypes.CDLL("libc.so.6")
    _LIBC.mallopt, _LIBC.malloc_trim
except (OSError, AttributeError):
    _LIBC = None
M_MMAP_THRESHOLD = -3


@dataclass
class Outcome:
    """One scenario of one pass: its record, or why it failed."""

    scenario: str
    record: scenarios.ResultRecord | None = None
    verdict: str | None = None
    failure: str | None = None


def error_metric(record) -> float:
    return record.error_EB if record.error_EB is not None else record.error_E


def steady_heap() -> None:
    """Fix glibc's mmap threshold at its initial 128 KiB.

    glibc raises the threshold whenever a large block is freed, so the
    scenario that ran before decides whether the next one's big arrays are
    mapped or carved from the heap.  That moved peak_rss_mb by up to 30 MB
    with the scenario order the seed picks.  With the threshold fixed,
    every array of 128 KiB or more is returned to the OS when freed.
    """
    if _LIBC is not None:
        _LIBC.mallopt(M_MMAP_THRESHOLD, 128 * 1024)


def release_heap() -> None:
    """Hand the free top of the heap back to the OS after each scenario."""
    if _LIBC is not None:
        _LIBC.malloc_trim(0)


def run_pass(configs, full_populations: bool) -> tuple[float, list[Outcome]]:
    """One pass over the configs along the CLI path; returns wall time.

    Every call goes through the ``scenarios`` module attributes, so a traced
    pass sees the wrappers and an untraced pass the original functions.
    """
    started = time.perf_counter()
    outcomes = []
    for cfg in configs:
        outcome = Outcome(cfg.name)
        outcomes.append(outcome)
        try:
            record, result = scenarios.execute_scenario(cfg)
            table = scenarios.populations_csv(result, cfg, full=full_populations)
            row = scenarios.records_csv([record])
        except Exception as exc:  # a raising scenario is a counted failure
            outcome.failure = f"raised {type(exc).__name__}: {exc}"
            continue
        outcome.record = record
        if (table.count("\n") != len(result.times) + 1
                or not table.startswith("t_us,") or row.count("\n") != 2):
            outcome.failure = "malformed CSV output"
        del result, table
        release_heap()
    records = [o.record for o in outcomes if o.record is not None]
    text, _ = scenarios.emit_report(records)
    verdicts = {line.split(",")[0]: line.split(",")[-1]
                for line in text.splitlines()[1:]}
    for outcome in outcomes:
        if outcome.record is not None:
            outcome.verdict = verdicts.get(outcome.scenario)
    return time.perf_counter() - started, outcomes


def check(outcome: Outcome) -> str | None:
    """Why the outcome differs from the seed, or None when it is correct."""
    if outcome.failure is not None:
        return outcome.failure
    record = outcome.record
    seed_verdict, seed_error = SEED[outcome.scenario]
    if outcome.verdict != seed_verdict:
        return f"verdict {outcome.verdict}, seed {seed_verdict}"
    if max(record.norm_drift, record.boundary_leakage) > scenarios.LEAKAGE_LIMIT:
        return (f"norm drift {record.norm_drift:.3e} or leakage"
                f" {record.boundary_leakage:.3e} above {scenarios.LEAKAGE_LIMIT:.0e}")
    shift = abs(error_metric(record) - seed_error) / seed_error
    if shift > ERROR_RTOL:
        return f"error {error_metric(record)!r} moved {shift:.2%} from seed {seed_error!r}"
    return None


@dataclass(frozen=True)
class CountingPulse(ShapedPulse):
    """The designed pulse, counting and timing each ``drive`` call."""

    tracer: Tracer | None = field(default=None, compare=False, repr=False)

    def drive(self, t):
        started = time.perf_counter()
        value = super().drive(t)
        self.tracer.counts["pulses.drive_calls"] += 1
        self.tracer.counts["pulses.drive_s"] += time.perf_counter() - started
        return value


# (name in phonondd.scenarios, span name); the span prefix is the layer.
TRACED_NAMES = (
    ("build_coupling_matrix", "model.build_coupling_matrix"),
    ("FockSpace", "model.FockSpace"),
    ("basis_state", "model.basis_state"),
    ("design_pulse", "pulses.design_pulse"),
    ("synthesize", "sequences.synthesize"),
    ("SchedulePropagator", "propagation.SchedulePropagator"),
    ("beam_splitter_reference", "propagation.beam_splitter_reference"),
    ("execute_scenario", "scenarios.execute_scenario"),
    ("populations_csv", "scenarios.populations_csv"),
    ("records_csv", "scenarios.records_csv"),
    ("emit_report", "scenarios.emit_report"),
)


class Tracer:
    """Spans and counts recorded around the calls into each layer.

    Spans are kept in memory as dicts with name, start, end, parent span id
    and scenario id; counts are totals over the traced pass.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[str, float] = {
            "model.fock_dim": 0, "sequences.events": 0, "sequences.windows": 0,
            "sequences.window_sets": 0, "pulses.drive_calls": 0,
            "pulses.drive_s": 0.0, "propagation.samples": 0,
            "scenarios.csv_bytes": 0}
        self._stack: list[dict] = []

    @contextlib.contextmanager
    def span(self, name: str, scenario: str | None = None):
        parent = self._stack[-1] if self._stack else None
        if scenario is None and parent is not None:
            scenario = parent["scenario"]
        span = {"id": len(self.spans), "name": name,
                "parent": None if parent is None else parent["id"],
                "scenario": scenario, "start": time.perf_counter(), "end": None}
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn, scenario_of=None, after=None):
        def wrapper(*args, **kwargs):
            scenario = scenario_of(*args) if scenario_of else None
            with self.span(name, scenario):
                value = fn(*args, **kwargs)
            return after(value) if after else value
        return wrapper

    def _after(self, attr: str):
        counts = self.counts

        def fock_space(space):
            counts["model.fock_dim"] += space.dimension
            return space

        def pulse(shaped):
            return CountingPulse(**{f.name: getattr(shaped, f.name)
                                    for f in fields(shaped)}, tracer=self)

        def schedule(sched):
            windows = ([ev.modes for ev in sched.events if isinstance(ev, PhaseShift)]
                       if sched.pulse_model == "shaped" else [])
            counts["sequences.events"] += len(sched.events)
            counts["sequences.windows"] += len(windows)
            counts["sequences.window_sets"] += len(set(windows))
            return sched

        def samples(result):
            counts["propagation.samples"] += len(result.times)
            return result

        def engine(prop):
            prop.run = self._wrap("propagation.run", prop.run, after=samples)
            return prop

        def csv_bytes(text):
            counts["scenarios.csv_bytes"] += len(text.encode())
            return text

        return {"FockSpace": fock_space, "design_pulse": pulse,
                "synthesize": schedule, "SchedulePropagator": engine,
                "populations_csv": csv_bytes, "records_csv": csv_bytes}.get(attr)

    @contextlib.contextmanager
    def patched(self):
        """Wrap the traced names in ``phonondd.scenarios``; restore on exit."""
        scenario_of = {
            "execute_scenario": lambda cfg: cfg.name,
            "populations_csv": lambda result, cfg, *rest: cfg.name,
            "records_csv": lambda records: ",".join(r.scenario for r in records)}
        originals = {attr: getattr(scenarios, attr) for attr, _ in TRACED_NAMES}
        try:
            for attr, name in TRACED_NAMES:
                setattr(scenarios, attr,
                        self._wrap(name, originals[attr], scenario_of.get(attr),
                                   self._after(attr)))
            yield self
        finally:
            for attr, fn in originals.items():
                setattr(scenarios, attr, fn)

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the time its children cover."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None:
                child_time[span["parent"]] += span["end"] - span["start"]
        out: dict[str, float] = {}
        for span in self.spans:
            own = span["end"] - span["start"] - child_time[span["id"]]
            out[span["name"]] = out.get(span["name"], 0.0) + own
        return out

    def totals(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for span in self.spans:
            out[span["name"]] = out.get(span["name"], 0.0) + span["end"] - span["start"]
        return out

    def layer_metrics(self, outcomes: list[Outcome]) -> dict[str, tuple[float, str]]:
        total = self.totals()
        c = self.counts
        records = [o.record for o in outcomes if o.record is not None]
        shifts = [abs(error_metric(r) - SEED[r.scenario][1]) / SEED[r.scenario][1]
                  for r in records]
        run_s = total.get("propagation.run", 0.0)
        return {
            "model.build_s": (sum(total.get(n, 0.0) for n in (
                "model.build_coupling_matrix", "model.FockSpace",
                "model.basis_state")), "s"),
            "model.fock_dim": (c["model.fock_dim"], "count"),
            "sequences.synthesize_s": (total.get("sequences.synthesize", 0.0), "s"),
            "sequences.events": (c["sequences.events"], "count"),
            "sequences.windows": (c["sequences.windows"], "count"),
            "sequences.window_sets": (c["sequences.window_sets"], "count"),
            "pulses.design_s": (total.get("pulses.design_pulse", 0.0), "s"),
            "pulses.drive_calls": (c["pulses.drive_calls"], "count"),
            "pulses.drive_s": (c["pulses.drive_s"], "s"),
            "propagation.init_s": (total.get("propagation.SchedulePropagator", 0.0), "s"),
            "propagation.reference_s": (
                total.get("propagation.beam_splitter_reference", 0.0), "s"),
            "propagation.run_s": (run_s, "s"),
            "propagation.run_self_s": (run_s - c["pulses.drive_s"], "s"),
            "propagation.samples": (c["propagation.samples"], "count"),
            "scenarios.execute_self_s": (
                self.self_times().get("scenarios.execute_scenario", 0.0), "s"),
            "scenarios.csv_s": (total.get("scenarios.populations_csv", 0.0)
                                + total.get("scenarios.records_csv", 0.0), "s"),
            "scenarios.csv_bytes": (c["scenarios.csv_bytes"], "B"),
            "scenarios.report_s": (total.get("scenarios.emit_report", 0.0), "s"),
            "scenarios.worst_norm_drift": (
                max((r.norm_drift for r in records), default=0.0), "ratio"),
            "scenarios.worst_leakage": (
                max((r.boundary_leakage for r in records), default=0.0), "ratio"),
            "scenarios.err_max_rel_shift": (max(shifts, default=0.0), "ratio"),
        }


def measure_setup() -> float:
    """Median wall time of fresh interpreters doing the set-up every run pays."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    times = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CHILD], cwd=ROOT, env=env,
                       check=True, timeout=120, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def warm_up() -> None:
    """Let lazy set-up finish in this process before anything is timed."""
    exec(compile(SETUP_CHILD, "<warm-up>", "exec"), {})


def _openblas() -> list[dict]:
    found = []
    for module, suffix in ((numpy, "64_"), (scipy, "")):
        libs = Path(module.__file__).parent.parent / f"{module.__name__}.libs"
        for path in sorted(glob.glob(str(libs / "libscipy_openblas*.so"))):
            try:
                lib = ctypes.CDLL(path)
                threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
                config = getattr(lib, f"scipy_openblas_get_config{suffix}")
            except (OSError, AttributeError):
                continue
            threads.restype = ctypes.c_int
            config.restype = ctypes.c_char_p
            found.append({"user": module.__name__, "config": config().decode(),
                          "threads": threads()})
    return found


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else ref
    return ref


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas(),
        "blas_env": {k: os.environ[k] for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ},
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _commit(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    workload = WORKLOADS[name]
    catalog = {cfg.name: cfg for cfg in scenarios.scenario_catalog()}
    rng = random.Random(seed)

    def next_pass(tracer: Tracer | None = None) -> tuple[float, list[Outcome]]:
        order = rng.sample(workload.scenarios, len(workload.scenarios))
        configs = [catalog[n] for n in order]
        if tracer is None:
            return run_pass(configs, workload.full_populations)
        with tracer.patched():
            return run_pass(configs, workload.full_populations)

    env = environment()
    print(f"workload {name}: seed {seed}, scenarios {' '.join(workload.scenarios)},"
          f" full populations {workload.full_populations}")
    print("environment " + json.dumps(env, sort_keys=True))
    setup_s = None if trace else measure_setup()
    steady_heap()
    warm_up()

    passes: list[tuple[float, list[Outcome]]] = []
    tracer = None
    if trace:
        # untraced, traced, untraced: the bracket cancels a linear drift
        # when the overhead is taken against the mean of the outer passes
        tracer = Tracer()
        passes = [next_pass(), next_pass(tracer), next_pass()]
    else:
        # At least two passes, then more while the next one is expected to
        # end within the run's time.
        deadline = time.perf_counter() + seconds
        while len(passes) < 2 or time.perf_counter() + passes[-1][0] <= deadline:
            passes.append(next_pass())

    outcomes = [o for _, pass_outcomes in passes for o in pass_outcomes]
    failures = [(o.scenario, check(o)) for o in outcomes]
    failures = [(s, why) for s, why in failures if why is not None]
    for outcome in passes[-1][1]:
        if outcome.record is not None:
            tag = (" (expected miss: known_shortfall)"
                   if outcome.scenario in KNOWN_SHORTFALL else "")
            print(f"  {outcome.scenario}: error {error_metric(outcome.record)!r}"
                  f" verdict {outcome.verdict}{tag}")
    for scenario, why in failures:
        print(f"  FAILED {scenario}: {why}")
    print(f"passes {len(passes)}: " + " ".join(f"{w:.3f}" for w, _ in passes) + " s")

    if trace:
        untraced_s = (passes[0][0] + passes[2][0]) / 2.0
        traced_s = passes[1][0]
        metrics = tracer.layer_metrics(passes[1][1])
        metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
        OUT.mkdir(exist_ok=True)
        dump = OUT / f"trace-{name}-seed{seed}.json"
        dump.write_text(json.dumps({
            "workload": name, "seed": seed, "environment": env,
            "wall_s": {"untraced": untraced_s, "traced": traced_s},
            "errors": {o.scenario: error_metric(o.record)
                       for o in passes[1][1] if o.record is not None},
            "self_s": tracer.self_times(), "total_s": tracer.totals(),
            "counts": tracer.counts, "spans": tracer.spans}, indent=1))
        print(f"trace written to {dump.relative_to(ROOT)}")
    else:
        metrics = {
            "wall_s": (statistics.median(w for w, _ in passes), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "MB"),
        }
    failed_frac = len(failures) / len(outcomes)
    for metric, (value, unit) in list(metrics.items()) + [
            ("failed_frac", (failed_frac, "ratio"))]:
        print(f"{metric} = {value!r} {unit}")
    print(json.dumps({
        "correct": not failures, "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0 if not failures else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0,
                        help="Sets the scenario order in every pass.")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="Time whole passes (at least two) within this many"
                             " seconds.")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload != "all":
        return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    # Each workload in its own process, so peak_rss_mb is its own.
    status = 0
    for name in WORKLOADS:
        status |= subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)]).returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
