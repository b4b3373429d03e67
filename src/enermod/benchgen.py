"""Automatic microbenchmark generation.

Every benchmark carries a setup prologue that brings the CPU into a defined
state, followed by a body that repeats the measured unit.  Within one sweep
only the swept variable changes.  This module alone decides which
calibration runs a campaign ships: instruction_campaign, position_campaign
and comm_campaign start with an idle-only run and a prologue-only baseline
(comm_campaign adds a standalone-sync run), so static power, prologue and
sync cost get their own equations and the least-squares system is
identifiable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .refsim import (
    BundleOp,
    CsvError,
    DATA_PATTERNS,
    Program,
    ProgramError,
    RecvOp,
    SendOp,
    SyncOp,
    program_to_json,
)
from .sysconfig import (
    Coord,
    InstructionDef,
    InstructionGroup,
    IsaError,
    SystemConfig,
    enumerate_instruction_groups,
    format_coord,
    manhattan,
)

PROLOGUE_LEN = 8
BODY_ADDR = 0          # fixed body position; popcount(0) = 0, no position term
SETUP_PATTERN = "zeros"  # prologue data; also the body's unless the pattern is swept
BENCH_CPU = 0          # every single-CPU benchmark, so baselines run where sweeps run
DEFAULT_REPS = 64
COMM_REPS = 8
IDLE_CYCLES = 64


@dataclass(frozen=True)
class Microbenchmark:
    """A named program isolating one state dimension.

    swept records which variable this benchmark pins (kind plus value).
    """

    name: str
    program: Program
    swept: tuple[tuple[str, object], ...]

    def swept_dict(self) -> dict[str, object]:
        return dict(self.swept)


def _swept(**kv: object) -> tuple[tuple[str, object], ...]:
    return tuple(sorted(kv.items()))


def all_nop_group(isa: list[InstructionDef], vliw_slots: int) -> InstructionGroup | None:
    """The bundle of the ISA's first NOP (by mnemonic) on every slot, or
    None when the ISA has no NOP."""
    nops = [i for i in isa if i.iclass == "NOP"]
    if not nops:
        return None
    return InstructionGroup(slots=(min(nops, key=lambda i: i.mnemonic),) * vliw_slots)


def prologue_group(isa: list[InstructionDef], vliw_slots: int) -> InstructionGroup:
    """Setup bundle: the all-NOP group when the ISA has a NOP, otherwise the
    first enumerated group.  Held constant across every sweep."""
    group = all_nop_group(isa, vliw_slots)
    if group is not None:
        return group
    groups = enumerate_instruction_groups(isa, vliw_slots)
    if not groups:
        raise IsaError("cannot build a prologue from an empty ISA")
    return groups[0]


def _prologue_ops(group: InstructionGroup) -> list[BundleOp]:
    """The setup bundles.  A program repeats one frozen op object rather
    than building equal copies, here as in every sweep body."""
    return [BundleOp(group=group, addr=BODY_ADDR, pattern=SETUP_PATTERN)] * PROLOGUE_LEN


def make_baseline(isa: list[InstructionDef], config: SystemConfig) -> Microbenchmark:
    """Prologue-only benchmark; its measurement is subtracted from sweeps."""
    program = Program.from_dict(
        {BENCH_CPU: _prologue_ops(prologue_group(isa, config.vliw_slots))})
    return Microbenchmark(name="cal/baseline", program=program,
                          swept=_swept(kind="baseline"))


def make_idle_benchmark(config: SystemConfig) -> Microbenchmark:
    """All CPUs idle for a fixed window; pins the static-power term."""
    program = Program.from_dict({}, min_cycles=IDLE_CYCLES)
    return Microbenchmark(name="cal/idle", program=program,
                          swept=_swept(kind="idle", cycles=IDLE_CYCLES))


def make_sync_benchmark(isa: list[InstructionDef],
                        config: SystemConfig) -> Microbenchmark:
    """Standalone channel synchronizations; pins the sync cost."""
    ops: list = _prologue_ops(prologue_group(isa, config.vliw_slots))
    ops += [SyncOp()] * DEFAULT_REPS
    program = Program.from_dict({BENCH_CPU: ops})
    return Microbenchmark(name="cal/sync", program=program,
                          swept=_swept(kind="sync"))


def gen_instruction_benchmarks(isa: list[InstructionDef], config: SystemConfig,
                               reps: int = DEFAULT_REPS) -> list[Microbenchmark]:
    """One benchmark per (instruction group, data pattern).

    The body places the group at a fixed address and repeats it; registers
    and memory content are pinned to the pattern by the setup code.
    """
    prologue = _prologue_ops(prologue_group(isa, config.vliw_slots))
    benchmarks = []
    for group in enumerate_instruction_groups(isa, config.vliw_slots):
        for pattern in DATA_PATTERNS:
            ops = prologue + [BundleOp(group=group, addr=BODY_ADDR, pattern=pattern)] * reps
            program = Program.from_dict({BENCH_CPU: ops})
            benchmarks.append(Microbenchmark(
                name=f"instr/{group.label}/{pattern}",
                program=program,
                swept=_swept(kind="instruction-group", group=group.label,
                             pattern=pattern)))
    return benchmarks


def check_position_range(config: SystemConfig, group: InstructionGroup,
                         addr_lo: int, addr_hi: int) -> None:
    """Refuse an address range that is empty or where a bundle of group
    would not fit in instruction memory."""
    if addr_lo > addr_hi:
        raise ProgramError(f"addr_lo {addr_lo} > addr_hi {addr_hi}")
    if addr_lo < 0 or addr_hi > config.last_bundle_addr(group):
        raise ProgramError(
            f"address range [{addr_lo}, {addr_hi}] outside instruction memory")


def gen_position_benchmarks(config: SystemConfig, group: InstructionGroup,
                            addr_lo: int, addr_hi: int,
                            reps: int = DEFAULT_REPS) -> list[Microbenchmark]:
    """One benchmark per instruction-memory address, same group everywhere."""
    check_position_range(config, group, addr_lo, addr_hi)
    benchmarks = []
    for addr in range(addr_lo, addr_hi + 1):
        ops = _prologue_ops(group) + [
            BundleOp(group=group, addr=addr, pattern=SETUP_PATTERN)] * reps
        program = Program.from_dict({BENCH_CPU: ops})
        benchmarks.append(Microbenchmark(
            name=f"imem/{group.fmt}/{addr}",
            program=program,
            swept=_swept(kind="imem-position", addr=addr, fmt=group.fmt)))
    return benchmarks


def comm_endpoints(config: SystemConfig, src: Coord, dst: Coord) -> tuple[int, int]:
    """Sender and receiver CPU of a sweep between two clusters: CPU 0 of
    each, or CPUs 0 and 1 of one cluster, whose crossbar then carries it."""
    if src == dst and config.cpus_per_cluster < 2:
        raise ProgramError("cluster-local transfers need at least two CPUs")
    return config.cpu_id(src, 0), config.cpu_id(dst, 1 if src == dst else 0)


def gen_comm_benchmarks(config: SystemConfig, src: Coord, dst: Coord,
                        sizes: list[int],
                        reps: int = COMM_REPS) -> list[Microbenchmark]:
    """One benchmark per packet size between two cluster coordinates.

    Sender and receiver are the comm_endpoints of the two clusters.  The
    prologue synchronizes the channel into a defined state.
    """
    src_cpu, dst_cpu = comm_endpoints(config, src, dst)
    benchmarks = []
    hops = manhattan(src, dst)
    for size in sizes:
        sender: list = [SyncOp()] * PROLOGUE_LEN
        sender += [SendOp(dst_cpu=dst_cpu, size_bytes=size)] * reps
        receiver = [RecvOp(src_cpu=src_cpu, size_bytes=size)] * reps
        program = Program.from_dict({src_cpu: sender, dst_cpu: receiver})
        benchmarks.append(Microbenchmark(
            name=f"comm/h{hops}/{size}",
            program=program,
            swept=_swept(kind="packet-size", size=size, hops=hops,
                         src=format_coord(src), dst=format_coord(dst))))
    return benchmarks


def gen_transition_benchmarks(states: list[InstructionGroup],
                              config: SystemConfig,
                              reps: int = DEFAULT_REPS) -> list[Microbenchmark]:
    """n_states x n_states benchmarks covering every ordered state pair.

    The pair (a, b) runs a self-warmup prologue of a followed by an
    alternating a,b body, so the only off-diagonal transition counts are
    a->b (reps) and b->a (reps - 1); the resulting system is full rank.
    """
    benchmarks = []
    for a in states:
        for b in states:
            ops = _prologue_ops(a) + [
                BundleOp(group=a, addr=BODY_ADDR, pattern=SETUP_PATTERN),
                BundleOp(group=b, addr=BODY_ADDR, pattern=SETUP_PATTERN)] * reps
            program = Program.from_dict({BENCH_CPU: ops})
            benchmarks.append(Microbenchmark(
                name=f"trans/{a.label}>{b.label}",
                program=program,
                swept=_swept(kind="transition", src=a.label, dst=b.label)))
    return benchmarks


def _calibration(isa: list[InstructionDef],
                 config: SystemConfig) -> list[Microbenchmark]:
    """The idle and prologue-only runs that open every campaign."""
    return [make_idle_benchmark(config), make_baseline(isa, config)]


def instruction_campaign(isa: list[InstructionDef], config: SystemConfig,
                         reps: int = DEFAULT_REPS) -> list[Microbenchmark]:
    """Full instruction campaign plus the calibration benchmarks."""
    return _calibration(isa, config) + gen_instruction_benchmarks(isa, config,
                                                                  reps=reps)


def position_campaign(isa: list[InstructionDef], config: SystemConfig,
                      group: InstructionGroup, addr_lo: int, addr_hi: int,
                      reps: int) -> list[Microbenchmark]:
    """An instruction-memory position sweep plus the calibration benchmarks."""
    return _calibration(isa, config) + gen_position_benchmarks(
        config, group, addr_lo, addr_hi, reps=reps)


def comm_campaign(isa: list[InstructionDef], config: SystemConfig,
                  sweeps: list[Microbenchmark]) -> list[Microbenchmark]:
    """Packet sweeps behind the idle, baseline and sync calibration runs,
    which give static power, prologue and sync cost their own equations."""
    return _calibration(isa, config) + [make_sync_benchmark(isa, config), *sweeps]


def center_window(benchmarks: list[Microbenchmark], k: int = 16) -> list[Microbenchmark]:
    """The k benchmarks around the center of a packet sweep, by size."""
    swept = sorted((b for b in benchmarks if "size" in b.swept_dict()),
                   key=lambda b: b.swept_dict()["size"])
    if k >= len(swept):
        return swept
    lo = (len(swept) - k) // 2
    return swept[lo:lo + k]


def structural_diff(a: Program, b: Program) -> list[str]:
    """Paths where two programs differ; used to assert sweep isolation."""
    da, db = program_to_json(a), program_to_json(b)
    diffs: list[str] = []
    _diff("", da, db, diffs)
    return diffs


def _diff(path: str, a, b, out: list[str]) -> None:
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            if key not in a or key not in b:
                out.append(f"{path}/{key}")
            else:
                _diff(f"{path}/{key}", a[key], b[key], out)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            out.append(f"{path}/#len")
        for i, (xa, xb) in enumerate(zip(a, b)):
            _diff(f"{path}/{i}", xa, xb, out)
    elif a != b:
        out.append(path)


# ---------------------------------------------------------------------------
# Campaign manifests
# ---------------------------------------------------------------------------

def benchmark_filename(name: str) -> str:
    return name.replace("/", "__") + ".json"


def manifest_csv(benchmarks: list[Microbenchmark]) -> str:
    lines = ["name,swept,program_file"]
    for b in benchmarks:
        swept = json.dumps(b.swept_dict(), sort_keys=True).replace('"', "'")
        lines.append(f'{b.name},"{swept}",{benchmark_filename(b.name)}')
    return "\n".join(lines) + "\n"


def parse_manifest_csv(text: str) -> list[tuple[str, str]]:
    """(name, program_file) rows of a campaign manifest."""
    header, *lines = text.rstrip().splitlines() or [""]
    if header != "name,swept,program_file":
        raise CsvError(f"line 1: expected the header name,swept,program_file, "
                       f"got {header!r}")
    rows = []
    for lineno, line in enumerate(lines, start=2):
        if "," not in line:
            raise CsvError(f"line {lineno}: expected name,swept,program_file, "
                           f"got {line!r}")
        rows.append((line.split(",", 1)[0], line.rsplit(",", 1)[1]))
    return rows
