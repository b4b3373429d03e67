"""Energy-model construction and design space exploration for configurable
many-core systems.

The toolkit correlates a detailed reference simulator's energy ledgers with
system-state transition counts, generates the microbenchmarks that isolate
each state dimension, fits and reduces models across abstraction levels,
validates the fast estimates against the oracle, and drives an annealing
task mapper with the result.
"""

from importlib import resources

from .sysconfig import (
    ApiDescription,
    ConfigError,
    InstructionDef,
    InstructionGroup,
    IsaError,
    SystemConfig,
    enumerate_instruction_groups,
    manhattan,
    parse_api,
    parse_config,
    parse_isa,
)
from .statetrace import (
    ModelFunction,
    StateCountVector,
    StateEvent,
    Trace,
    abstract_trace,
    compose,
)
from .refsim import (
    EnergyLedger,
    OracleParams,
    Program,
    fetch_position_energy,
    run_program,
)
from .benchgen import (
    Microbenchmark,
    gen_comm_benchmarks,
    gen_instruction_benchmarks,
    gen_position_benchmarks,
)
from .modelfit import (
    EnergyModel,
    FitReport,
    fit_constants,
    fit_reducer,
    reduce_noc_model,
)
from .estimator import EnergyEstimate, ErrorReport, estimate, validate
from .dse import DataflowGraph, Partition, PartitionScore, anneal, evaluate_partition

__version__ = "0.1.0"


def data_path(name: str) -> str:
    """Absolute path of a shipped data file (config, ISA, API, params)."""
    return str(resources.files("enermod").joinpath("data", name))
