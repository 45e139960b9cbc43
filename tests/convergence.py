"""Cutoff convergence of a scenario's reported error."""

from dataclasses import replace

from phonondd.scenarios import ScenarioConfig, execute_scenario


def convergence_check(cfg: ScenarioConfig, step: int = 2,
                      limit: float = 0.05) -> dict:
    """Accept a cutoff only if raising it barely moves the reported error.

    Runs the scenario at its cutoff and again ``step`` higher; the result
    is converged when the tracked error metric changes by less than
    ``limit`` relative.
    """
    rec_lo, _ = execute_scenario(cfg)
    rec_hi, _ = execute_scenario(replace(
        cfg, per_mode_cutoff=cfg.per_mode_cutoff + step,
        initial_occupations=cfg.initial_occupations))
    lo, hi = rec_lo.error, rec_hi.error
    change = abs(hi - lo) / abs(hi) if hi else 0.0
    return {"error": lo, "error_raised_cutoff": hi, "relative_change": change,
            "converged": change < limit}
