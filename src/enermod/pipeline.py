"""Campaign orchestration: run benchmark sets against the oracle, turn the
results into observations, and assemble the standard fitted models.

Campaign runs are independent, so they fan out across worker processes;
aggregation is order-stable, making results identical for any worker count.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Iterable, Iterator
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import TypeVar

from .benchgen import (
    Microbenchmark,
    comm_campaign,
    gen_comm_benchmarks,
    instruction_campaign,
)
from .estimator import ErrorReport, validate
from .modelfit import (
    EnergyModel,
    FitReport,
    REDUCER_STAIRCASE,
    fit_constants,
    fit_packet_reducers,
)
from .refsim import EnergyLedger, OracleParams, Program, run_program
from .statetrace import (
    ModelFunction,
    StateCountVector,
    Trace,
    abstract_trace,
    instruction_model_function,
    is_comm_key,
    noc_hop_function,
)
from .sysconfig import ApiDescription, Coord, SystemConfig, manhattan

DEFAULT_COMM_SIZES = [8, 16, 32, 64, 128, 256, 512, 1024]

R = TypeVar("R")


@dataclass
class CampaignRun:
    benchmark: Microbenchmark
    trace: Trace
    ledger: EnergyLedger


def iter_campaign(benchmarks: list[Microbenchmark], config: SystemConfig,
                  params: OracleParams,
                  run: Callable[[SystemConfig, OracleParams, Program], R],
                  workers: int = 1) -> Iterator[tuple[Microbenchmark, R]]:
    """Yield (benchmark, run(config, params, benchmark.program)) in input
    order, whatever the worker count.  With workers > 1, run is called in a
    worker process, so it must be a module-level callable, and its result is
    all that is sent back: a run that keeps less than its whole trace sends
    less.  A worker process that dies raises BrokenProcessPool, unless it
    dies part-way through sending a result: the executor then waits for the
    rest of that message, however small the message is."""
    if workers <= 1 or len(benchmarks) < 2:
        for bench in benchmarks:
            yield bench, run(config, params, bench.program)
        return
    with ProcessPoolExecutor(workers) as pool:
        # Two runs per worker in flight: no worker waits for work, and
        # finished runs cannot pile up behind a slower consumer.
        pending: deque = deque()
        for bench in benchmarks:
            pending.append((bench, pool.submit(run, config, params, bench.program)))
            if len(pending) == 2 * workers:
                oldest, future = pending.popleft()
                yield oldest, future.result()
        for bench, future in pending:
            yield bench, future.result()


def run_campaign(benchmarks: list[Microbenchmark], config: SystemConfig,
                 params: OracleParams, workers: int = 1) -> list[CampaignRun]:
    """The trace and ledger of every benchmark, in input order."""
    return [CampaignRun(bench, *result) for bench, result
            in iter_campaign(benchmarks, config, params, run_program, workers)]


def observations(measured: Iterable[tuple[Trace, float]],
                 function: ModelFunction) -> list[tuple[StateCountVector, float]]:
    """The fit rows of (trace, total_pj) pairs, in order, whether the runs
    are in memory or read from trace and ledger files."""
    return [(abstract_trace(trace, function), total) for trace, total in measured]


def fit_campaign(runs: list[CampaignRun],
                 function: ModelFunction) -> tuple[EnergyModel, FitReport]:
    return fit_constants(observations(((run.trace, run.ledger.total_pj)
                                       for run in runs), function), function)


def cluster_at_distance(config: SystemConfig, hops: int) -> Coord | None:
    """First cluster (in index order) at a given hop distance from (0, 0)."""
    for cluster in config.all_clusters():
        if manhattan((0, 0), cluster) == hops:
            return cluster
    return None


def max_hops(config: SystemConfig) -> int:
    return (config.mesh_cols - 1) + (config.mesh_rows - 1)


def comm_benchmarks_per_hop(api: ApiDescription, config: SystemConfig,
                            isa) -> list[Microbenchmark]:
    """The comm_campaign of DEFAULT_COMM_SIZES packet sweeps covering every
    hop distance the mesh offers, plus the cluster-local bus route."""
    sweeps: list[Microbenchmark] = []
    # hop count 0 is the crossbar route, which needs two CPUs per cluster
    first_hops = 0 if config.cpus_per_cluster >= 2 else 1
    for hops in range(first_hops, max_hops(config) + 1):
        dst = cluster_at_distance(config, hops)
        if dst is not None:
            sweeps.extend(gen_comm_benchmarks(config, (0, 0), dst, DEFAULT_COMM_SIZES))
    return comm_campaign(isa, config, sweeps)


def merge_models(instruction_model: EnergyModel,
                 comm_model: EnergyModel) -> EnergyModel:
    """Combine the instruction fit with the communication fit.

    Instruction constants win on overlap except for communication keys
    (is_comm_key), which come from the communication campaign; the static
    term comes from the instruction fit (same platform, same truth).
    """
    constants = {k: v for k, v in comm_model.constants.items() if is_comm_key(k)}
    constants.update((k, v) for k, v in instruction_model.constants.items()
                     if not is_comm_key(k))
    provenance = dict(instruction_model.provenance)
    provenance["merged_with"] = comm_model.function.name
    return EnergyModel(function=instruction_model.function,
                       constants=constants,
                       reducers=list(comm_model.reducers),
                       static_pj_per_cycle=instruction_model.static_pj_per_cycle,
                       provenance=provenance)


def build_simplified_model(config: SystemConfig, isa, api: ApiDescription,
                           params: OracleParams, reps: int = 64,
                           workers: int = 1
                           ) -> tuple[EnergyModel, dict[str, FitReport]]:
    """The shipped default model: per-(group, pattern) instruction constants
    that include the bundle's data-memory access (no instruction-position
    term), a sync constant, staircase packet reducers per hop count, and a
    static term.
    """
    instr_runs = run_campaign(instruction_campaign(isa, config, reps=reps),
                              config, params, workers)
    instr_model, instr_report = fit_campaign(instr_runs,
                                             instruction_model_function())

    comm_runs = run_campaign(comm_benchmarks_per_hop(api, config, isa),
                             config, params, workers)
    comm_model, comm_report = fit_campaign(comm_runs, noc_hop_function())
    comm_model = fit_packet_reducers(comm_model, REDUCER_STAIRCASE,
                                     config.flit_payload_bytes)

    model = merge_models(instr_model, comm_model)
    model.provenance["clock_hz"] = config.clock_hz
    return model, {"instruction": instr_report, "communication": comm_report}


def validate_applications(model: EnergyModel, config: SystemConfig, isa,
                          params: OracleParams, seed: int = 0) -> ErrorReport:
    """Held-out validation of a model on the five synthetic applications."""
    from .workloads import synthetic_applications

    apps = synthetic_applications(config, isa, seed=seed)
    return validate(model, apps, config, params)
