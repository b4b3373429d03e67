"""Fast, simulation-free energy estimation and oracle-backed validation.

Estimation applies a model's granularity transform to a trace and combines
the resulting counts with the fitted constants and reducers; it is a single
pass over the trace's records with no per-event simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .modelfit import EnergyModel
from .refsim import OracleParams, run_program
from .statetrace import Trace, component_class, weighted_keys
from .sysconfig import SystemConfig, fold_sum

MIN_TRUTH_PJ = 1.0  # benchmarks below this are numerical noise; excluded


@dataclass
class EnergyEstimate:
    """Model-predicted energy with per-component and per-key attribution.

    coverage is the fraction of mapped (non-discarded) events whose key had
    a constant or reducer, a record counting one event per cycle; uncovered
    events contribute nothing.
    """

    total_pj: float
    breakdown: dict[str, float]
    contributions: dict[str, tuple[int, float]]
    coverage: float
    missing_keys: list[str] = field(default_factory=list)


@dataclass
class ErrorReport:
    """Relative estimation errors of a benchmark set against the oracle."""

    rows: list[tuple[str, float, float, float]]  # name, truth, estimate, rel
    mean_rel_error: float
    max_rel_error: float
    excluded: list[str] = field(default_factory=list)

    def to_csv(self) -> str:
        lines = ["benchmark,truth_pj,estimate_pj,rel_error"]
        for name, truth, est, rel in self.rows:
            lines.append(f"{name},{truth!r},{est!r},{rel!r}")
        return "\n".join(lines) + "\n"

    def summary(self) -> dict:
        return {
            "benchmarks": len(self.rows),
            "mean_rel_error": self.mean_rel_error,
            "max_rel_error": self.max_rel_error,
            "excluded": list(self.excluded),
        }


def estimate(trace: Trace, model: EnergyModel) -> EnergyEstimate:
    """Evaluate a model over a trace.

    E = sum_k count_k * c_k + reducer terms + duration * static.  Events
    whose key has no constant are reported, not fatal.  A record adds
    c_k * length once; counts and coverage count cycles.
    """
    breakdown: dict[str, float] = {}
    contributions: dict[str, tuple[int, float]] = {}
    missing: dict[str, None] = {}
    mapped = 0
    covered = 0
    pj_of = model.energy_of_key
    for component, key, cycles in weighted_keys(trace, model.function):
        if key is None:
            continue
        mapped += cycles
        pj = pj_of(key)
        if pj is None:
            missing[key] = None
            continue
        covered += cycles
        pj *= cycles
        bucket = component_class(component)
        breakdown[bucket] = breakdown.get(bucket, 0.0) + pj
        count, total = contributions.get(key, (0, 0.0))
        contributions[key] = (count + cycles, total + pj)
    static = model.static_pj_per_cycle * trace.duration
    if static:
        breakdown["static"] = breakdown.get("static", 0.0) + static
    total = fold_sum(breakdown.values())
    coverage = covered / mapped if mapped else 1.0
    return EnergyEstimate(total_pj=total, breakdown=breakdown,
                          contributions=contributions, coverage=coverage,
                          missing_keys=sorted(missing))


def validate(model: EnergyModel, benchmarks, config: SystemConfig,
             params: OracleParams) -> ErrorReport:
    """Run each (name, program) pair through the oracle and the model;
    report the per-benchmark relative error |estimate - truth| / truth.

    Benchmarks whose ground truth falls below MIN_TRUTH_PJ are excluded
    and flagged rather than dividing by noise.
    """
    rows: list[tuple[str, float, float, float]] = []
    excluded: list[str] = []
    for name, program in benchmarks:
        trace, ledger = run_program(config, params, program)
        truth = ledger.total_pj
        if truth < MIN_TRUTH_PJ:
            excluded.append(name)
            continue
        est = estimate(trace, model).total_pj
        rows.append((name, truth, est, abs(est - truth) / truth))
    rels = [r[3] for r in rows]
    mean_rel = fold_sum(rels) / len(rels) if rels else 0.0
    max_rel = max(rels) if rels else 0.0
    return ErrorReport(rows=rows, mean_rel_error=mean_rel,
                       max_rel_error=max_rel, excluded=excluded)
