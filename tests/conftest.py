"""Shared fixtures: memoized scenario runs and the acceptance summary."""

import pytest

import phonondd


class ScenarioCache:
    """Run each catalog scenario at most once per session."""

    def __init__(self):
        self._runs = {}

    def __call__(self, name):
        if name not in self._runs:
            cfg = phonondd.get_scenario(name)
            self._runs[name] = phonondd.execute_scenario(cfg)
        return self._runs[name]

    def record(self, name):
        return self(name)[0]

    def result(self, name):
        return self(name)[1]


@pytest.fixture(scope="session")
def scenario_cache():
    return ScenarioCache()


_ACCEPTANCE_FILE = "test_acceptance.py"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion."""
    rows = []
    for outcome in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(outcome, []):
            if rep.when != "call" and outcome != "error":
                continue
            path, lineno, name = rep.location
            if _ACCEPTANCE_FILE not in path:
                continue
            rows.append((lineno, outcome.upper().replace("ERROR", "FAIL"),
                         name))
    if not rows:
        return
    terminalreporter.section("acceptance criteria")
    for _, verdict, name in sorted(rows):
        terminalreporter.write_line(f"{verdict:4s}  {name}")
