"""Deterministic cycle-level reference simulator with a detailed energy model.

This oracle plays the role of the detailed low-level flow: it executes a
program bundle by bundle, expands communication into flit sequences routed
XY over the mesh, and accounts energy per component.  It is the ground
truth that models are fitted against and validated with.  Runs are bitwise
deterministic for identical inputs.

Fixed conventions (the fit absorbs them, but they must not drift):
  * One bundle per cycle per CPU, no stalls, no contention.
  * A packet of n flits traverses manhattan+1 routers, each traversal
    charged one router and one link energy quantum.
  * Same-cluster transfers move over the cluster crossbar in
    flit_payload_bytes beats and never touch NI or routers.
  * Instruction fetch decodes one memory row per bundle: compressed
    bundles occupy one word, uncompressed bundles vliw_slots words, so the
    uncompressed row space (and with it the position-dependent decoder
    depth range) is vliw_slots times smaller.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass
from operator import itemgetter

from .statetrace import (
    EVENT_BUNDLE,
    EVENT_FLIT,
    EVENT_IDLE,
    EVENT_NI,
    EVENT_SYNC,
    StateEvent,
    Trace,
    is_digits,
    make_event,
    read_int,
)
from .sysconfig import (
    Coord,
    FieldError,
    ICLASSES,
    InstructionGroup,
    SystemConfig,
    fold_sum,
    format_coord,
    json_document,
    json_field,
    manhattan,
    n_flits,
)

DATA_PATTERNS = ("zeros", "ones", "alt")

LEDGER_COMPONENTS = ("core", "imem", "dmem", "bus", "router", "ni", "sync",
                     "static", "unclassified")

# A ledger value's spelling, which covers the repr of every finite float.
_NUMBER_RE = re.compile(r"-?[0-9]+(\.[0-9]+)?([eE][-+]?[0-9]+)?")


class ParamError(ValueError):
    """Oracle parameters are malformed or violate an invariant."""


class CsvError(ValueError):
    """A ledger or manifest line that does not hold its header's fields."""


class ProgramError(ValueError):
    """A program is invalid against its system configuration."""


# ---------------------------------------------------------------------------
# Oracle parameters
# ---------------------------------------------------------------------------

# Every name an oracle-params document holds: the scalars, then the
# core.<iclass>.<pattern> and dmem.<pattern> tables.
_PARAM_NAMES = frozenset((
    "empty_slot", "imem_base.compressed", "imem_base.uncompressed",
    "imem_spatial_coeff", "bus_beat", "router_flit", "link_flit", "ni_in_flit",
    "ni_out_flit", "packet_header", "sync", "static.cpu", "static.router",
    "static.ni",
    *(f"core.{iclass}.{pattern}" for iclass in ICLASSES for pattern in DATA_PATTERNS),
    *(f"dmem.{pattern}" for pattern in DATA_PATTERNS)))


@dataclass(frozen=True)
class OracleParams:
    """Synthetic per-event energies (pJ) and static powers (pW), read by
    the names of the oracle-params document: params["router_flit"],
    params["core.SIMD.ones"].

    values holds the document's (name, value) pairs in name order; the
    lookup dict is kept outside the dataclass fields, so it stays out of eq
    and repr.  Every error names the document's key.  The shipped values
    are data/oracle_params.json, read with load_oracle_params.
    """

    values: tuple[tuple[str, float], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(sorted(self.values)))
        by_name = dict(self.values)
        missing = sorted(_PARAM_NAMES - by_name.keys())
        unknown = sorted(by_name.keys() - _PARAM_NAMES)
        if missing or unknown:
            raise ParamError("; ".join(
                f"{what} parameter(s): {', '.join(map(repr, names))}"
                for what, names in (("missing", missing), ("unknown", unknown))
                if names))
        for name, value in self.values:
            if not value >= 0:      # NaN too
                raise ParamError(f"parameter {name!r} must be >= 0, got {value!r}")
        for pattern in DATA_PATTERNS:
            if by_name[f"core.NOP.{pattern}"] >= by_name[f"core.SIMD.{pattern}"]:
                raise ParamError(f"'core.NOP.{pattern}' must stay below "
                                 f"'core.SIMD.{pattern}'")
        object.__setattr__(self, "_by_name", by_name)

    def __getitem__(self, name: str) -> float:
        return self._by_name[name]

    def static_pj(self, config: SystemConfig, cycles: int) -> float:
        """Static energy of a run of the given length: every CPU, router and
        NI leaks for all of its cycles."""
        return ((self["static.cpu"] * config.n_cpus
                 + self["static.router"] * config.n_clusters
                 + self["static.ni"] * config.n_clusters)
                * cycles / config.clock_hz)


def params_from_json(doc: dict[str, float]) -> OracleParams:
    if not isinstance(doc, dict):
        raise ParamError(f"an oracle-params document must be an object, got {doc!r}")
    for key, value in doc.items():
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ParamError(f"parameter {key!r} must be a number")
        if abs(value) > sys.float_info.max:     # an integer float() cannot hold
            raise ParamError(f"parameter {key!r} is past a float's range")
    return OracleParams(values=tuple((key, float(value)) for key, value in doc.items()))


def load_oracle_params(path: str) -> OracleParams:
    with open(path, "r", encoding="utf-8") as fh:
        return params_from_json(json_document(fh.read(), ParamError))


# ---------------------------------------------------------------------------
# Programs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BundleOp:
    """Issue one VLIW bundle from an instruction-memory address.

    pattern is the data pattern of the bundle's registers and of its
    data-memory access, if it has one.
    """

    group: InstructionGroup
    addr: int
    pattern: str


@dataclass(frozen=True)
class SendOp:
    dst_cpu: int
    size_bytes: int


@dataclass(frozen=True)
class RecvOp:
    src_cpu: int
    size_bytes: int


@dataclass(frozen=True)
class SyncOp:
    """Standalone channel synchronization (software cost only)."""


ProgramOp = BundleOp | SendOp | RecvOp | SyncOp


@dataclass(frozen=True)
class Program:
    """Per-CPU operation lists; min_cycles pads the run with idle cycles."""

    ops: tuple[tuple[int, tuple[ProgramOp, ...]], ...]
    min_cycles: int = 0

    @staticmethod
    def from_dict(ops: dict[int, list[ProgramOp]], min_cycles: int = 0) -> "Program":
        return Program(
            ops=tuple((cpu, tuple(lst)) for cpu, lst in sorted(ops.items())),
            min_cycles=min_cycles,
        )


def _check_bundle(config: SystemConfig, op: BundleOp) -> None:
    """Reject a bundle whose slot count, address or pattern does not fit
    the configuration."""
    if len(op.group.slots) != config.vliw_slots:
        raise ProgramError(
            f"group {op.group.label} has {len(op.group.slots)} slots, "
            f"config has {config.vliw_slots}")
    if not 0 <= op.addr <= config.last_bundle_addr(op.group):
        raise ProgramError(
            f"imem address {op.addr} out of range for "
            f"{'compressed' if op.group.compressed else 'uncompressed'} bundle")
    if op.pattern not in DATA_PATTERNS:
        raise ProgramError(f"unknown data pattern {op.pattern!r}")


def _check_transfer(config: SystemConfig, peer: int, size_bytes: int) -> None:
    """Reject a send or recv whose peer is off the mesh or whose size does
    not fit data memory."""
    if not 0 <= peer < config.n_cpus:
        raise ProgramError(f"peer cpu {peer} off mesh")
    if size_bytes < 1:
        raise ProgramError("transfer size must be >= 1 byte")
    if size_bytes > config.dmem_bytes:
        raise ProgramError(
            f"transfer of {size_bytes} B exceeds dmem {config.dmem_bytes} B")


# ---------------------------------------------------------------------------
# Energy ledger
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EnergyLedger:
    """Per-component energy record of one oracle run (the 'measurement')."""

    total_pj: float
    breakdown: tuple[tuple[str, float], ...]

    def breakdown_dict(self) -> dict[str, float]:
        return dict(self.breakdown)

    def to_csv(self) -> str:
        lines = ["component,energy_pj"]
        lines.extend(f"{name},{value!r}" for name, value in self.breakdown)
        lines.append(f"total,{self.total_pj!r}")
        return "\n".join(lines) + "\n"


def ledger_from_csv(text: str) -> dict[str, float]:
    """A ledger's values by name.  A value is a finite number in ASCII
    (-?digits, an optional .digits and exponent), as to_csv writes it."""
    values: dict[str, float] = {}
    for lineno, line in enumerate(text.rstrip().splitlines()[1:], start=2):
        name, _comma, value = line.partition(",")
        if not (_NUMBER_RE.fullmatch(value) and math.isfinite(float(value))):
            raise CsvError(f"line {lineno}: expected component,energy_pj with "
                           f"a finite number, got {line!r}")
        values[name] = float(value)
    if "total" not in values:
        raise CsvError("no total row")
    return values


class _Accumulator:
    """Energy bookings per ledger category, summed in a deterministic order.

    book maps each category to its (cycle, pj) bookings, which run_program
    appends directly; a zero booking may be left out, as it adds nothing.
    Every booking lies at the cycle of an event, except crossbar beats:
    beat_end is the cycle after the last beat booked.
    """

    def __init__(self) -> None:
        self.book: dict[str, list[tuple[int, float]]] = {
            name: [] for name in LEDGER_COMPONENTS}
        self.beat_end = 0

    def add_beats(self, first: int, beats: int, pj: float) -> None:
        """Book pj of bus energy at each of beats consecutive cycles from first."""
        if pj != 0.0 and beats > 0:
            self.book["bus"].extend((first + beat, pj) for beat in range(beats))
            self.beat_end = max(self.beat_end, first + beats)

    def ledger(self) -> EnergyLedger:
        """Each category sums its bookings in (cycle, pj) order; the total
        folds the categories left to right in LEDGER_COMPONENTS order."""
        breakdown = tuple(
            (name, fold_sum(map(itemgetter(1), sorted(self.book[name]))))
            for name in LEDGER_COMPONENTS)
        return EnergyLedger(total_pj=fold_sum(pj for _name, pj in breakdown),
                            breakdown=breakdown)


# ---------------------------------------------------------------------------
# Geometry helpers
# ---------------------------------------------------------------------------

def xy_route(src: Coord, dst: Coord) -> list[Coord]:
    """Routers traversed under XY routing, endpoints included.

    Length is always manhattan(src, dst) + 1.
    """
    path = [src]
    x, y = src
    step = 1 if dst[0] > x else -1
    while x != dst[0]:
        x += step
        path.append((x, y))
    step = 1 if dst[1] > y else -1
    while y != dst[1]:
        y += step
        path.append((x, y))
    return path


def row_popcount(config: SystemConfig, address: int, compressed: bool) -> int:
    """Popcount of the bank-local row index one fetch decodes.  Uncompressed
    bundles decode a row of vliw_slots words, shrinking the row index space
    by that factor."""
    if compressed:
        row = address
        rows_per_bank = config.bank_words
    else:
        row = address // config.vliw_slots
        rows_per_bank = max(1, config.bank_words // config.vliw_slots)
    return bin(row % rows_per_bank).count("1")


def fetch_position_energy(params: OracleParams, config: SystemConfig,
                          address: int, compressed: bool) -> float:
    """Position term of one fetch: coeff x row_popcount, a deterministic
    proxy for address-decoder-tree switching."""
    return params["imem_spatial_coeff"] * row_popcount(config, address, compressed)


def bundle_energy_parts(params: OracleParams, config: SystemConfig,
                        op: BundleOp) -> tuple[float, float, float]:
    """Dynamic energy of one bundle issue as its (core, imem, dmem) ledger
    parts; dmem is 0.0 for a bundle without a memory access."""
    core = 0.0
    for ins in op.group.slots:
        core += params["empty_slot" if ins is None
                       else f"core.{ins.iclass}.{op.pattern}"]
    compressed = op.group.compressed
    imem = params["imem_base.compressed" if compressed else "imem_base.uncompressed"
                  ] + fetch_position_energy(params, config, op.addr, compressed)
    dmem = params[f"dmem.{op.pattern}"] if op.group.accesses_dmem else 0.0
    return core, imem, dmem


def bundle_energy(params: OracleParams, config: SystemConfig, op: BundleOp) -> float:
    """Closed-form dynamic energy of one bundle issue (core + imem + dmem)."""
    core, imem, dmem = bundle_energy_parts(params, config, op)
    return core + imem + dmem


def packet_energy(params: OracleParams, config: SystemConfig,
                  src: Coord, dst: Coord, size_bytes: int) -> float:
    """Closed-form dynamic energy of one packet between clusters.

    Remote: sync + header + n_flits * (ni_in + ni_out + (hops+1) * (router
    + link)).  Local (src == dst cluster): sync + crossbar beats.
    """
    flits = n_flits(size_bytes, config.flit_payload_bytes)
    if src == dst:
        return params["sync"] + flits * params["bus_beat"]
    hops = manhattan(src, dst)
    per_flit = (params["ni_in_flit"] + params["ni_out_flit"]
                + (hops + 1) * (params["router_flit"] + params["link_flit"]))
    return params["sync"] + params["packet_header"] + flits * per_flit


# ---------------------------------------------------------------------------
# The simulator
# ---------------------------------------------------------------------------

def run_program(config: SystemConfig, params: OracleParams,
                program: Program) -> tuple[Trace, EnergyLedger]:
    """Execute a program and return its state trace and energy ledger.

    One bundle per cycle per CPU; a send occupies the sender for one sync
    cycle plus one injection cycle per flit; a recv occupies one cycle and
    costs nothing (channel synchronization is charged once, at the sender).
    A bundle's data-memory access is booked as dmem but has no event of its
    own.  A CPU cycle without an event is idle (the cycles a blocked sender
    spends feeding the NI count as idle too).

    The trace holds runs: an op equal to the op before it extends that
    op's record, a packet's hops at one router are one record of its flits,
    and each idle gap of a CPU is one record; the ledger books every cycle.
    Each distinct op object is checked against the configuration, and its
    event attributes and energy parts worked out, once per run.  An invalid
    program raises ProgramError at its first invalid op, in program order.
    """
    if program.min_cycles < 0:
        raise ProgramError("min_cycles must be >= 0")
    cpus = [cpu for cpu, _ops in program.ops]
    if len(set(cpus)) != len(cpus):
        raise ProgramError("a cpu id is listed twice")
    events: list[StateEvent] = []
    busy: dict[str, list[tuple[int, int]]] = {}     # per CPU, ascending [start, end)
    acc = _Accumulator()
    core_book = acc.book["core"].append
    imem_book = acc.book["imem"].append
    dmem_book = acc.book["dmem"].append
    sync_book = acc.book["sync"].append
    sync_pj = params["sync"]
    bundles: dict[int, tuple] = {}    # id(op) -> (attrs, core, imem, dmem)

    for cpu, ops in program.ops:
        if not 0 <= cpu < config.n_cpus:
            raise ProgramError(f"cpu id {cpu} out of range (n_cpus={config.n_cpus})")
        cluster = config.cpu_cluster(cpu)
        comp = f"cpu{cpu}"
        runs = busy[comp] = []
        t, start, state = 0, 0, None    # state: (kind, attrs) of the open record
        for op in ops:
            if isinstance(op, BundleOp):
                key = id(op)
                if key not in bundles:
                    _check_bundle(config, op)
                    bundles[key] = (make_event(
                        t, comp, EVENT_BUNDLE,
                        group=op.group.label, pattern=op.pattern, addr=op.addr,
                        fmt=op.group.fmt).attrs,
                        *bundle_energy_parts(params, config, op))
                attrs, core, imem, dmem = bundles[key]
                core_book((t, core))
                imem_book((t, imem))
                if dmem:
                    dmem_book((t, dmem))
                now = (EVENT_BUNDLE, attrs)
            elif isinstance(op, SyncOp):
                sync_book((t, sync_pj))
                now = (EVENT_SYNC, ())
            else:
                now = None
            if now != state:    # an op unequal to the one before closes its record
                if state is not None:
                    events.append(StateEvent(start, comp, *state, t - start))
                    runs.append((start, t))
                start, state = t, now
            if now is not None:
                t += 1
            elif isinstance(op, SendOp):
                _check_transfer(config, op.dst_cpu, op.size_bytes)
                runs.append((t, t + 1))
                t = _emit_packet(config, params, events, acc, cpu, cluster, op, t)
            else:
                _check_transfer(config, op.src_cpu, op.size_bytes)
                # Receive completion is free; the cycle shows up as idle.
                t += 1
        if state is not None:
            events.append(StateEvent(start, comp, *state, t - start))
            runs.append((start, t))

    # Only crossbar beats are booked past the events.
    duration = max(program.min_cycles, acc.beat_end,
                   *(e.cycle + e.length for e in events))

    # Idle records are the gaps between a CPU's busy runs, which ascend.
    for comp in sorted(f"cpu{cpu}" for cpu in range(config.n_cpus)):
        start = 0
        for begin, end in busy.get(comp, []) + [(duration, duration)]:
            if begin > start:
                events.append(StateEvent(start, comp, EVENT_IDLE, (), begin - start))
            start = end

    if duration > 0:
        acc.book["static"].append((duration - 1, params.static_pj(config, duration)))

    return Trace(events=events), acc.ledger()


def _emit_packet(config: SystemConfig, params: OracleParams,
                 events: list[StateEvent], acc: _Accumulator, cpu: int,
                 src_cluster: Coord, op: SendOp, t: int) -> int:
    comp = f"cpu{cpu}"
    dst_cluster = config.cpu_cluster(op.dst_cpu)
    flits = n_flits(op.size_bytes, config.flit_payload_bytes)

    book = acc.book
    events.append(make_event(t, comp, EVENT_SYNC))
    book["sync"].append((t, params["sync"]))

    src_label = format_coord(src_cluster)
    dst_label = format_coord(dst_cluster)
    src_index = config.cluster_index(src_cluster)

    if src_cluster == dst_cluster:
        # Cluster-local transfer over the crossbar, one beat per flit quantum.
        events.append(make_event(
            t + 1, f"bus{src_index}", EVENT_NI,
            src=src_label, dst=dst_label, size=op.size_bytes, flits=flits))
        acc.add_beats(t + 1, flits, params["bus_beat"])
        return t + 1 + flits

    events.append(make_event(
        t + 1, f"ni{src_index}", EVENT_NI,
        src=src_label, dst=dst_label, size=op.size_bytes, flits=flits))
    book["ni"].append((t + 1, params["packet_header"]))
    ni_pj = params["ni_in_flit"] + params["ni_out_flit"]
    router_pj, link_pj = params["router_flit"], params["link_flit"]
    book["ni"].extend([(t + 1 + flit, ni_pj) for flit in range(flits)])
    # Flit f, injected at cycle t + 1 + f, reaches hop h one cycle per hop
    # later: router h sees the packet's flits on flits consecutive cycles.
    for hop, cluster in enumerate(xy_route(src_cluster, dst_cluster)):
        first = t + 1 + hop
        events.append(make_event(
            first, f"router{config.cluster_index(cluster)}", EVENT_FLIT,
            src=src_label, dst=dst_label, size=op.size_bytes, hop=hop)._replace(
                length=flits))
        book["router"].extend([(first + flit, router_pj) for flit in range(flits)])
        book["unclassified"].extend([(first + flit, link_pj) for flit in range(flits)])
    return t + 1 + flits


# ---------------------------------------------------------------------------
# Program serialization
# ---------------------------------------------------------------------------

def program_to_json(program: Program) -> dict:
    doc_ops: dict[str, list[dict]] = {}
    for cpu, ops in program.ops:
        lst = []
        for op in ops:
            if isinstance(op, BundleOp):
                entry: dict = {"bundle": {"slots": op.group.mnemonics(),
                                          "addr": op.addr, "pattern": op.pattern}}
            elif isinstance(op, SendOp):
                entry = {"send": {"dst": op.dst_cpu, "size": op.size_bytes}}
            elif isinstance(op, RecvOp):
                entry = {"recv": {"src": op.src_cpu, "size": op.size_bytes}}
            else:
                entry = {"sync": {}}
            lst.append(entry)
        doc_ops[str(cpu)] = lst
    return {"min_cycles": program.min_cycles, "cpus": doc_ops}


def _slot_instruction(by_name: dict, name: str | None):
    """The ISA entry of one slot's mnemonic; None is an empty slot."""
    if name is None:
        return None
    if name not in by_name:
        raise ProgramError(f"unknown mnemonic {name!r}")
    return by_name[name]


def program_from_json(doc, isa: list) -> Program:
    """A program from its JSON document.  Equal bundle entries load as one
    BundleOp and equal slot lists as one InstructionGroup, so the oracle's
    per-bundle memo and checks, keyed by op identity, hold across
    repetitions.  A field of the wrong type raises ProgramError naming the
    field."""
    try:
        return _program_from_json(doc, {i.mnemonic: i for i in isa})
    except FieldError as exc:
        raise ProgramError(str(exc)) from None


def _program_from_json(doc, by_name: dict) -> Program:
    if not isinstance(doc, dict):
        raise FieldError(f"a program must be an object, got {doc!r}")
    groups: dict[tuple, InstructionGroup] = {}
    bundles: dict[tuple, BundleOp] = {}
    ops: dict[int, list[ProgramOp]] = {}
    cpus = json_field("", doc, "cpus", "an object", {})
    for cpu_str in cpus:
        if not is_digits(cpu_str):
            raise ProgramError(f"cpu key {cpu_str!r} is not an integer >= 0")
        cpu = read_int(cpu_str, f"cpu key {cpu_str!r}", ProgramError)
        lst: list[ProgramOp] = []
        for i, entry in enumerate(json_field("cpus.", cpus, cpu_str, "a list")):
            at = f"cpus.{cpu_str}[{i}]."
            if not isinstance(entry, dict):
                raise FieldError(f"{at[:-1]} must be an object, got {entry!r}")
            if "bundle" in entry:
                b = json_field(at, entry, "bundle", "an object")
                unknown = sorted(set(b) - {"slots", "addr", "pattern"})
                if unknown:
                    raise ProgramError(f"unknown bundle field(s) {', '.join(unknown)}")
                at += "bundle."
                names = tuple(json_field(at, b, "slots", "a list"))
                if not all(n is None or isinstance(n, str) for n in names):
                    raise FieldError(f"{at}slots must list mnemonics or nulls, "
                                     f"got {list(names)!r}")
                if names not in groups:
                    groups[names] = InstructionGroup(
                        slots=tuple(_slot_instruction(by_name, n) for n in names))
                addr = json_field(at, b, "addr", "an integer")
                pattern = json_field(at, b, "pattern", "a string")
                key = (names, addr, pattern)
                if key not in bundles:
                    bundles[key] = BundleOp(group=groups[names], addr=addr,
                                            pattern=pattern)
                lst.append(bundles[key])
            elif "send" in entry:
                lst.append(SendOp(*_transfer(at, entry, "send", "dst")))
            elif "recv" in entry:
                lst.append(RecvOp(*_transfer(at, entry, "recv", "src")))
            elif "sync" in entry:
                json_field(at, entry, "sync", "an object")
                lst.append(SyncOp())
            else:
                raise ProgramError(f"unknown op entry {sorted(entry)}")
        ops[cpu] = lst
    return Program.from_dict(ops, min_cycles=json_field("", doc, "min_cycles",
                                                        "an integer", 0))


def _transfer(at: str, entry: dict, op: str, peer: str) -> tuple[int, int]:
    """(peer cpu, size) of a send or recv entry."""
    doc = json_field(at, entry, op, "an object")
    return (json_field(f"{at}{op}.", doc, peer, "an integer"),
            json_field(f"{at}{op}.", doc, "size", "an integer"))
