"""Command-line orchestration of the full pipeline.

Subcommands: gen-bench, oracle, fit, reduce, estimate, validate, sweep-noc,
sweep-imem, explore, report.  Artifacts land in
<outdir>/{benchmarks,traces,ledgers,models,reports}/ with manifest-driven
names; reruns with identical inputs and seed reproduce byte-identical
artifacts (timestamps are confined to provenance fields and only appear
when ENERMOD_BUILD_DATE is set).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures.process import BrokenProcessPool

from . import data_path
from .benchgen import (
    DEFAULT_REPS,
    Microbenchmark,
    all_nop_group,
    benchmark_filename,
    center_window,
    check_position_range,
    comm_campaign,
    comm_endpoints,
    gen_comm_benchmarks,
    instruction_campaign,
    manifest_csv,
    parse_manifest_csv,
    position_campaign,
)
from .dse import (
    AnnealSchedule,
    GraphError,
    InfeasibleError,
    anneal_restarts,
    load_graph,
    partition_to_json,
)
from .estimator import estimate
from .modelfit import (
    FitError,
    REDUCER_LINEAR,
    REDUCER_STAIRCASE,
    fit_constants,
    fit_packet_reducers,
    load_model,
    model_to_json,
    reduce_noc_model,
)
from .pipeline import (
    build_simplified_model,
    iter_campaign,
    observations,
    validate_applications,
)
from .refsim import (
    BundleOp,
    CsvError,
    OracleParams,
    ParamError,
    Program,
    ProgramError,
    SendOp,
    bundle_energy,
    ledger_from_csv,
    load_oracle_params,
    packet_energy,
    program_from_json,
    program_to_json,
    row_popcount,
    run_program,
)
from .statetrace import (
    ModelFunctionError,
    TraceError,
    builtin_function,
    is_digits,
    load_function,
    read_int,
    trace_from_lines,
)
from .sysconfig import (
    ConfigError,
    EMPTY,
    InstructionGroup,
    IsaError,
    SystemConfig,
    group_by_label,
    json_document,
    load_api,
    load_config,
    load_isa,
    n_flits,
    parse_coord,
)

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2
EXIT_MISSING_FILE = 3
EXIT_INVARIANT = 4
EXIT_DATA = 5

_EPILOG = """\
exit codes:
  0  success
  2  usage error (unknown flag or subcommand, bad option value, empty size range)
  3  input file missing, a directory or unreadable
  4  configuration or invariant violation
  5  malformed data file
  1  internal error
environment:
  ENERMOD_OUTDIR      default for --out
  ENERMOD_BUILD_DATE  stamped into model provenance when set
"""


class CliError(Exception):
    def __init__(self, code: int, message: str) -> None:
        super().__init__(message)
        self.code = code


# The exit code of each error class a subcommand raises.
_EXIT_CODES = {BrokenProcessPool: EXIT_INTERNAL,
               **dict.fromkeys((ConfigError, IsaError, ProgramError, ParamError,
                                GraphError, InfeasibleError), EXIT_INVARIANT),
               **dict.fromkeys((TraceError, ModelFunctionError, FitError, CsvError),
                               EXIT_DATA)}


def _read(path: str, load, code: int):
    """load(path) of an input file whose format exits with code.  A format
    error, or a byte that is not UTF-8 text wherever the load meets it,
    exits with that code, and a directory or unreadable path exits 3, on one
    line that names the file first; a missing file reaches main's
    FileNotFoundError."""
    try:
        return load(path)
    except FileNotFoundError:
        raise
    except OSError as exc:
        raise CliError(EXIT_MISSING_FILE, f"{path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise CliError(code, f"{path}: not UTF-8 text: {exc.reason}") from None
    except tuple(_EXIT_CODES) as exc:
        raise CliError(_EXIT_CODES[type(exc)], f"{path}: {exc}") from None


def _text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_trace(path: str):
    """A trace file, parsed line by line as it is read."""
    with open(path, "r", encoding="utf-8") as fh:
        return trace_from_lines(fh)


def _outdir(args) -> str:
    out = args.out or os.environ.get("ENERMOD_OUTDIR") or "enermod-out"
    os.makedirs(out, exist_ok=True)
    return out


def _subdir(out: str, name: str) -> str:
    path = os.path.join(out, name)
    os.makedirs(path, exist_ok=True)
    return path


def _load_inputs(args):
    return (_read(args.config, load_config, EXIT_INVARIANT),
            _read(args.isa, load_isa, EXIT_INVARIANT))


def _sizes(lo: int, hi: int, step: int) -> list[int]:
    """Packet sizes lo, lo + step, ... up to hi, for gen-bench and
    sweep-noc; an empty range is a usage error."""
    sizes = list(range(lo, hi + 1, step))
    if not sizes:
        raise CliError(EXIT_USAGE, f"empty size range: --min {lo} > --max {hi}")
    return sizes


def _manifest_rows(bench_dir: str) -> list[tuple[str, str]]:
    return _read(os.path.join(bench_dir, "manifest.csv"),
                 lambda path: parse_manifest_csv(_text(path)), EXIT_DATA)


def _check_finite(model_path: str, doc, where: str = "") -> None:
    """Exit 5, naming the model file and the field (reducers[0].a), where a
    number in doc is not finite: JSON cannot spell it, and finite constants
    can add up past a float's range.  A subcommand checks every document it
    will write before writing any."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            _check_finite(model_path, value, f"{where}.{key}" if where else key)
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            _check_finite(model_path, value, f"{where}[{i}]")
    elif isinstance(doc, float) and not math.isfinite(doc):
        raise CliError(EXIT_DATA, f"{model_path}: {where} {doc!r} is not a finite number")


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _write_json(path: str, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_gen_bench(args) -> int:
    """Every kind reads the ISA; each campaign's calibration runs start
    with its NOP prologue.  The comm sweep is windowed before comm_campaign
    puts them in front, and each size option left out falls back to the
    API's send range."""
    config, isa = _load_inputs(args)
    if args.kind == "instr":
        benchmarks = instruction_campaign(isa, config, reps=args.reps)
    elif args.kind == "imem":
        group = group_by_label(isa, config.vliw_slots, args.group)
        benchmarks = position_campaign(isa, config, group, args.lo, args.hi,
                                       args.reps)
    else:
        send = _read(args.api, load_api, EXIT_INVARIANT).operation("send")
        sizes = _sizes(send.size_min if args.min is None else args.min,
                       send.size_max if args.max is None else args.max,
                       send.size_step if args.step is None else args.step)
        sweep = gen_comm_benchmarks(config, args.src, args.dst, sizes, reps=args.reps)
        if args.center_window:
            sweep = center_window(sweep, args.center_window)
        benchmarks = comm_campaign(isa, config, sweep)
    bench_dir = _subdir(_outdir(args), "benchmarks")
    for bench in benchmarks:
        _write_json(os.path.join(bench_dir, benchmark_filename(bench.name)),
                    program_to_json(bench.program))
    _write(os.path.join(bench_dir, "manifest.csv"), manifest_csv(benchmarks))
    print(f"wrote {len(benchmarks)} benchmarks to {bench_dir}")
    return EXIT_OK


def _oracle_files(config: SystemConfig, params: OracleParams,
                  program: Program) -> tuple[str, str, float, int]:
    """One oracle run as (trace file text, ledger CSV, total_pj, duration):
    spelled where the run happens, so a worker sends back text, not the
    trace's objects."""
    trace, ledger = run_program(config, params, program)
    return ("\n".join(trace.to_lines()) + "\n", ledger.to_csv(),
            ledger.total_pj, trace.duration)


def cmd_oracle(args) -> int:
    config, isa = _load_inputs(args)
    params = _read(args.params, load_oracle_params, EXIT_INVARIANT)
    out = _outdir(args)
    bench_dir = os.path.join(out, "benchmarks")
    benches = []
    for name, filename in _manifest_rows(bench_dir):
        program = _read(os.path.join(bench_dir, filename),
                        lambda path: program_from_json(
                            json_document(_text(path), ProgramError), isa),
                        EXIT_INVARIANT)
        benches.append(Microbenchmark(name=name, program=program, swept=()))

    trace_dir = _subdir(out, "traces")
    ledger_dir = _subdir(out, "ledgers")
    results = []
    for bench, (trace_text, ledger_csv, total_pj, duration) in iter_campaign(
            benches, config, params, _oracle_files, workers=args.workers):
        stem = benchmark_filename(bench.name).rsplit(".", 1)[0]
        _write(os.path.join(trace_dir, stem + ".tsv"), trace_text)
        _write(os.path.join(ledger_dir, stem + ".csv"), ledger_csv)
        results.append((bench.name, total_pj, duration))
    results.sort(key=lambda r: r[0])
    summary = ["name,total_pj,duration_cycles"]
    summary.extend(f"{name},{total!r},{duration}" for name, total, duration in results)
    _write(os.path.join(ledger_dir, "results.csv"), "\n".join(summary) + "\n")
    print(f"ran {len(results)} benchmarks; traces in {trace_dir}")
    return EXIT_OK


def _measured_from_files(out: str, rows: list[tuple[str, str]]):
    """(trace, total_pj) of each manifest row, read from its trace and
    ledger files."""
    for _name, filename in rows:
        stem = filename.rsplit(".", 1)[0]
        trace = _read(os.path.join(out, "traces", stem + ".tsv"), _load_trace,
                      EXIT_DATA)
        yield trace, _read(os.path.join(out, "ledgers", stem + ".csv"),
                           lambda path: ledger_from_csv(_text(path)), EXIT_DATA)["total"]


def cmd_fit(args) -> int:
    config = _read(args.config, load_config, EXIT_INVARIANT)
    out = _outdir(args)
    rows = _manifest_rows(os.path.join(out, "benchmarks"))
    if args.function_file:
        function = _read(args.function_file, load_function, EXIT_DATA)
    else:
        function = builtin_function(args.function)
    model, report = fit_constants(
        observations(_measured_from_files(out, rows), function), function)
    model.provenance["clock_hz"] = config.clock_hz
    model_path = os.path.join(out, "models", args.name + ".json")
    doc, summary = model_to_json(model), report.summary()
    _check_finite(model_path, doc)
    _check_finite(model_path, dict(summary, residuals=report.residuals))
    _subdir(out, "models")
    _write_json(model_path, doc)
    report_dir = _subdir(out, "reports")
    residuals = ["observation,residual_pj"]
    residuals.extend(f"{rows[i][0]},{r!r}" for i, r in enumerate(report.residuals))
    _write(os.path.join(report_dir, f"fit_{args.name}_residuals.csv"),
           "\n".join(residuals) + "\n")
    _write_json(os.path.join(report_dir, f"fit_{args.name}.json"), summary)
    print(f"fitted {len(model.constants)} constants "
          f"(rank {report.rank}/{report.n_unknowns}) -> {args.name}.json")
    return EXIT_OK


def cmd_reduce(args) -> int:
    model = _read(args.model, load_model, EXIT_DATA)
    config = _read(args.config, load_config, EXIT_INVARIANT)
    if args.kind == "hops":
        model = reduce_noc_model(model)
    elif args.kind == "staircase":
        model = fit_packet_reducers(model, REDUCER_STAIRCASE,
                                    config.flit_payload_bytes)
    else:
        model = fit_packet_reducers(model, REDUCER_LINEAR, None)
    model.provenance["clock_hz"] = config.clock_hz
    doc = model_to_json(model)
    _check_finite(args.model, doc)
    _write_json(args.output, doc)
    print(f"reduced model written to {args.output}")
    return EXIT_OK


def cmd_estimate(args) -> int:
    model = _read(args.model, load_model, EXIT_DATA)
    result = estimate(_read(args.trace, _load_trace, EXIT_DATA), model)
    doc = {
        "total_pj": result.total_pj,
        "breakdown": result.breakdown,
        "coverage": result.coverage,
        "missing_keys": result.missing_keys,
        "contributions": {k: {"count": c, "energy_pj": e}
                          for k, (c, e) in sorted(result.contributions.items())},
    }
    _check_finite(args.model, doc)
    if args.output:
        _write_json(args.output, doc)
    print(json.dumps({"total_pj": result.total_pj, "coverage": result.coverage}))
    return EXIT_OK


def cmd_validate(args) -> int:
    config, isa = _load_inputs(args)
    api = _read(args.api, load_api, EXIT_INVARIANT)
    params = _read(args.params, load_oracle_params, EXIT_INVARIANT)
    out = _outdir(args)
    model_path = args.model or os.path.join(out, "models", "simplified.json")
    if args.model:
        model = _read(model_path, load_model, EXIT_DATA)
    else:
        model, _reports = build_simplified_model(config, isa, api, params,
                                                 workers=args.workers)
        doc = model_to_json(model)
        _check_finite(model_path, doc)
    report = validate_applications(model, config, isa, params, seed=args.seed)
    summary = report.summary()
    # a row's estimate or error that is not finite makes the mean so
    _check_finite(model_path, summary)
    if not args.model:
        _subdir(out, "models")
        _write_json(model_path, doc)
    report_dir = _subdir(out, "reports")
    _write(os.path.join(report_dir, "validation.csv"), report.to_csv())
    _write_json(os.path.join(report_dir, "validation_summary.json"), summary)
    print(json.dumps(summary))
    return EXIT_OK


def cmd_sweep_noc(args) -> int:
    config = _read(args.config, load_config, EXIT_INVARIANT)
    params = _read(args.params, load_oracle_params, EXIT_INVARIANT)
    sizes = _sizes(args.min, args.max, args.step)
    out = _outdir(args)
    src_cpu, dst_cpu = comm_endpoints(config, args.src, args.dst)
    lines = ["size_bytes,flits,total_pj,dynamic_packet_pj,sync_pj,ni_pj,"
             "router_pj,unclassified_pj,bus_pj,static_pj"]
    for size in sizes:
        program = Program.from_dict(
            {src_cpu: [SendOp(dst_cpu=dst_cpu, size_bytes=size)]})
        _trace, ledger = run_program(config, params, program)
        b = ledger.breakdown_dict()
        dynamic = packet_energy(params, config, args.src, args.dst, size)
        lines.append(
            f"{size},{n_flits(size, config.flit_payload_bytes)},"
            f"{ledger.total_pj!r},{dynamic!r},{b['sync']!r},{b['ni']!r},"
            f"{b['router']!r},{b['unclassified']!r},{b['bus']!r},{b['static']!r}")
    path = os.path.join(_subdir(out, "reports"), "sweep_noc.csv")
    _write(path, "\n".join(lines) + "\n")
    print(f"wrote {len(sizes)} sweep points to {path}")
    return EXIT_OK


def cmd_sweep_imem(args) -> int:
    config, isa = _load_inputs(args)
    params = _read(args.params, load_oracle_params, EXIT_INVARIANT)
    out = _outdir(args)

    full = all_nop_group(isa, config.vliw_slots)
    if full is None:
        raise CliError(EXIT_INVARIANT, "sweep-imem needs a NOP instruction")
    check_position_range(config, full, args.lo, args.hi)
    single = InstructionGroup(slots=full.slots[:1] + (EMPTY,) * (config.vliw_slots - 1))
    lines = ["address,popcount,compressed_pj,uncompressed_pj"]
    for addr in range(args.lo, args.hi + 1):
        row = [str(addr), str(row_popcount(config, addr, compressed=True))]
        for group in (single, full):
            op = BundleOp(group=group, addr=addr, pattern="zeros")
            row.append(repr(bundle_energy(params, config, op)))
        lines.append(",".join(row))
    path = os.path.join(_subdir(out, "reports"), "sweep_imem.csv")
    _write(path, "\n".join(lines) + "\n")
    print(f"wrote {args.hi - args.lo + 1} sweep points to {path}")
    return EXIT_OK


def cmd_explore(args) -> int:
    config = _read(args.config, load_config, EXIT_INVARIANT)
    model = _read(args.model, load_model, EXIT_DATA)
    graph = _read(args.graph, load_graph, EXIT_INVARIANT)
    out = _outdir(args)
    schedules = [AnnealSchedule(initial_temp=args.temp, cooling=args.cooling,
                                steps=args.steps, seed=args.seed + i)
                 for i in range(args.chains)]
    result = anneal_restarts(graph, config, model, schedules,
                             w_energy=args.w_energy,
                             w_throughput=args.w_throughput)
    summary = {"best_cost": result.best_score.cost(args.w_energy, args.w_throughput),
               "energy_pj": result.best_score.energy_pj,
               "feasible": result.best_score.feasible}
    partition = partition_to_json(result.best_partition, result.best_score)
    _check_finite(args.model, {**summary, **partition})
    _write_json(os.path.join(_subdir(out, "models"), "partition.json"), partition)
    _write(os.path.join(_subdir(out, "reports"), "explore_history.csv"),
           result.history_csv())
    print(json.dumps(summary))
    return EXIT_OK


def cmd_report(args) -> int:
    out = _outdir(args)
    summary: dict = {"reports": {}}
    report_dir = os.path.join(out, "reports")
    if os.path.isdir(report_dir):
        for name in sorted(os.listdir(report_dir)):
            if name.endswith(".json"):
                # a report is a data file: a syntax error in it exits 5
                summary["reports"][name] = _read(
                    os.path.join(report_dir, name),
                    lambda path: json_document(_text(path), FitError), EXIT_DATA)
    model_dir = os.path.join(out, "models")
    if os.path.isdir(model_dir):
        summary["models"] = sorted(os.listdir(model_dir))
    _write_json(os.path.join(out, "summary.json"), summary)
    print(json.dumps(summary, indent=2, sort_keys=True))
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

_INPUT_FILES = {"isa": "isa.json", "api": "api.json",
                "params": "oracle_params.json"}


def _add_common(parser: argparse.ArgumentParser, *inputs: str) -> None:
    """--config, --out, and an option per named input file of the
    subcommand, each defaulting to the shipped data file."""
    parser.add_argument("--config", default=data_path("default_config.json"))
    for name in inputs:
        parser.add_argument(f"--{name}", default=data_path(_INPUT_FILES[name]))
    parser.add_argument("--out", default=None,
                        help="output directory (default $ENERMOD_OUTDIR)")


def _int(text: str) -> int:
    """argparse type of an integer option, read in its one spelling,
    -?[0-9]+ in ASCII digits, as a trace's integers are; ` 8`, `+8`, `1_6`
    and other digits than ASCII are usage errors."""
    if not is_digits(text.removeprefix("-")):
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer in ASCII digits")
    return read_int(text, "integer", argparse.ArgumentTypeError)


def _positive_int(text: str) -> int:
    """argparse type of a count or step that must be at least 1; a value
    below 1 is a usage error."""
    value = _int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text!r}")
    return value


def _finite(text: str) -> float:
    """argparse type of a float option that must be finite; nan, inf and
    -inf are usage errors."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _cooling(text: str) -> float:
    """argparse type of an annealing cooling factor, which must lie in
    (0, 1]; any other value is a usage error."""
    value = float(text)
    if not 0.0 < value <= 1.0:
        raise argparse.ArgumentTypeError(f"must be in (0, 1], got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="enermod",
        description="Energy-model toolkit for configurable many-core systems",
        epilog=_EPILOG, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-bench", help="generate microbenchmark programs")
    _add_common(p, "isa", "api")
    p.add_argument("--kind", choices=["instr", "imem", "comm"], default="instr")
    p.add_argument("--reps", type=_positive_int, default=DEFAULT_REPS)
    p.add_argument("--group", default="nop+nop", help="imem sweep group label")
    p.add_argument("--lo", type=_int, default=0)
    p.add_argument("--hi", type=_int, default=799)
    p.add_argument("--min", type=_int, default=None, help="comm size minimum")
    p.add_argument("--max", type=_int, default=None, help="comm size maximum")
    p.add_argument("--step", type=_positive_int, default=None,
                   help="comm size step")
    p.add_argument("--src", type=parse_coord, default="0,0")
    p.add_argument("--dst", type=parse_coord, default="1,1")
    p.add_argument("--center-window", type=_positive_int, default=None,
                   help="keep only the N sweep points around the center")
    p.set_defaults(func=cmd_gen_bench)

    p = sub.add_parser("oracle", help="run a benchmark campaign on the oracle")
    _add_common(p, "isa", "params")
    p.add_argument("--workers", type=_positive_int, default=1)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("fit", help="fit model constants from a campaign")
    _add_common(p)
    p.add_argument("--function", default="instruction-fine",
                   help="builtin model function name")
    p.add_argument("--function-file", default=None,
                   help="JSON rule file overriding --function")
    p.add_argument("--name", default="model")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("reduce", help="apply hop/linear/staircase reducers")
    p.add_argument("--model", required=True)
    p.add_argument("--config", default=data_path("default_config.json"))
    p.add_argument("--kind", choices=["hops", "staircase", "linear"],
                   default="staircase")
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("estimate", help="estimate a trace with a model")
    p.add_argument("--model", required=True)
    p.add_argument("--trace", required=True)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("validate",
                       help="validate a model against the oracle on the "
                            "held-out applications")
    _add_common(p, "isa", "api", "params")
    p.add_argument("--model", default=None,
                   help="model file (default: fit the simplified model)")
    p.add_argument("--seed", type=_int, default=0)
    p.add_argument("--workers", type=_positive_int, default=1)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("sweep-noc", help="packet-size sweep CSV")
    _add_common(p, "params")
    p.add_argument("--src", type=parse_coord, default="0,0")
    p.add_argument("--dst", type=parse_coord, default="1,1")
    p.add_argument("--min", type=_int, default=4)
    p.add_argument("--max", type=_int, default=1024)
    p.add_argument("--step", type=_positive_int, default=4)
    p.set_defaults(func=cmd_sweep_noc)

    p = sub.add_parser("sweep-imem", help="instruction-position sweep CSV")
    _add_common(p, "isa", "params")
    p.add_argument("--lo", type=_int, default=0)
    p.add_argument("--hi", type=_int, default=799)
    p.set_defaults(func=cmd_sweep_imem)

    p = sub.add_parser("explore", help="annealing-based task mapping")
    p.add_argument("--graph", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--config", default=data_path("default_config.json"))
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=_int, default=0)
    p.add_argument("--chains", type=_positive_int, default=4)
    p.add_argument("--steps", type=_positive_int, default=AnnealSchedule.steps)
    p.add_argument("--temp", type=_finite, default=AnnealSchedule.initial_temp)
    p.add_argument("--cooling", type=_cooling, default=AnnealSchedule.cooling)
    p.add_argument("--w-energy", type=_finite, default=1.0)
    p.add_argument("--w-throughput", type=_finite, default=0.0)
    p.set_defaults(func=cmd_explore)

    p = sub.add_parser("report", help="aggregate summaries in an outdir")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        code, message = exc.code, str(exc)
    except FileNotFoundError as exc:
        code, message = EXIT_MISSING_FILE, f"missing file: {exc.filename}"
    except tuple(_EXIT_CODES) as exc:
        code, message = _EXIT_CODES[type(exc)], str(exc)
    print(f"error:{code}:{message}", file=sys.stderr)
    return code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
