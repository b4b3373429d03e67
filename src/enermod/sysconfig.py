"""Target platform description.

Everything downstream (benchmark generation, the reference oracle, model
fitting) is derived from three documents: a system configuration, an
instruction-set description, and a communication-API description.  This
module parses and validates all three and provides the instruction-group
enumeration that defines the per-cycle issue state space of a VLIW CPU.
"""

from __future__ import annotations

import json
import math
import re
import sys
from collections.abc import Iterable
from dataclasses import dataclass, fields
from functools import cached_property, reduce
from itertools import product
from operator import add

ICLASSES = ("NOP", "ALU", "SIMD", "MULDIV", "LOAD", "STORE", "BRANCH")

API_OP_NAMES = ("channel_open", "send", "recv", "sync")

_MNEMONIC_RE = re.compile(r"^[A-Za-z][A-Za-z0-9_.\-]*$")
_COORD_RE = re.compile(r"([0-9]+),([0-9]+)")

Coord = tuple[int, int]


class ConfigError(ValueError):
    """A configuration document is malformed or violates an invariant."""


class IsaError(ValueError):
    """An instruction-set or API description is malformed."""


def manhattan(a: Coord, b: Coord) -> int:
    """Manhattan distance between two cluster coordinates."""
    return abs(a[0] - b[0]) + abs(a[1] - b[1])


def n_flits(size_bytes: float, flit_payload_bytes: int) -> int:
    """Flits needed to carry size_bytes of payload: ceil(size / payload)."""
    return math.ceil(size_bytes / flit_payload_bytes)


def fold_sum(values: Iterable[float]) -> float:
    """Sum floats one by one, left to right, from 0.0.

    Every float sum whose result reaches a file goes through this, so the
    artifacts do not depend on the interpreter: from Python 3.12 on the
    builtin sum adds floats with compensation and rounds differently."""
    return reduce(add, values, 0.0)


class FieldError(ValueError):
    """A field of a JSON document is missing or of the wrong type; each
    reader turns it into its own format's error."""


_REQUIRED = object()
_JSON_KINDS = {"a string": str, "a number": (int, float), "an integer": int,
               "a boolean": bool, "a list": list, "an object": dict}


def json_field(where: str, doc: dict, name: str, kind: str, default=_REQUIRED):
    """doc[name] when it is of the named JSON kind (a key of _JSON_KINDS;
    true and false are booleans only, not numbers or integers), or default
    when the field is absent (or null, where the default is None).  Anything
    else raises FieldError, naming the field as where + name."""
    value = doc.get(name, default)
    if value is _REQUIRED:
        raise FieldError(f"{where}{name} is missing")
    if value is not default and (isinstance(value, bool) != (kind == "a boolean")
                                 or not isinstance(value, _JSON_KINDS[kind])):
        raise FieldError(f"{where}{name} must be {kind}, got {value!r}")
    return value


def json_document(text: str, error: type[ValueError]):
    """The JSON document text holds; a syntax error raises the format's own
    error class, naming its line and column, and so does a number that is
    not finite: NaN, Infinity, -Infinity, or one past a float's range
    (1e999), and an integer of more digits than int() reads."""
    def refuse(spelling: str):
        raise error(f"number {spelling} is not finite")

    def finite(spelling: str) -> float:
        value = float(spelling)
        if not math.isfinite(value):
            refuse(spelling)
        return value

    try:
        return json.loads(text, parse_float=finite, parse_constant=refuse)
    except json.JSONDecodeError as exc:
        raise error(f"syntax error at line {exc.lineno} column {exc.colno}: "
                    f"{exc.msg}") from None
    except error:
        raise
    except ValueError:      # from int(), on a literal of too many digits
        raise error("an integer has more digits than an integer may have") from None


def format_coord(c: Coord) -> str:
    return f"{c[0]},{c[1]}"


def parse_coord(text: str) -> Coord:
    """A mesh coordinate from its one spelling, x,y in ASCII digits."""
    match = _COORD_RE.fullmatch(text)
    if match is None:
        raise ValueError(f"coordinate {text!r} is not x,y in digits")
    return int(match[1]), int(match[2])


# ---------------------------------------------------------------------------
# System configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SystemConfig:
    """Full parameterization of the simulated MPSoC.

    Defaults describe the validation platform: a 2x2 mesh of clusters with
    four 2-slot VLIW CPUs each, 16 kB instruction/data memories in 2k-word
    x 32-bit banks, 64 kB shared memory per cluster, 64-bit flits and a
    128-channel network interface at 700 MHz.
    """

    mesh_cols: int = 2
    mesh_rows: int = 2
    cpus_per_cluster: int = 4      # at most 32 per cluster
    vliw_slots: int = 2
    imem_bytes: int = 16384
    dmem_bytes: int = 16384
    shared_mem_bytes: int = 65536
    bank_words: int = 2048         # words per memory bank
    word_bytes: int = 4
    flit_payload_bytes: int = 8    # 64-bit flit payload
    ni_channels: int = 128
    clock_hz: float = 7.0e8

    def __post_init__(self) -> None:
        for name in ("mesh_cols", "mesh_rows", "cpus_per_cluster", "vliw_slots",
                     "imem_bytes", "dmem_bytes", "shared_mem_bytes",
                     "bank_words", "word_bytes", "flit_payload_bytes",
                     "ni_channels"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise ConfigError(f"{name} must be a positive integer, got {value!r}")
        if self.cpus_per_cluster > 32:
            raise ConfigError(
                f"cpus_per_cluster must be <= 32, got {self.cpus_per_cluster}")
        clock = self.clock_hz   # a float must hold it: static energy divides by it
        if (isinstance(clock, bool) or not isinstance(clock, (int, float))
                or not 0 < clock <= sys.float_info.max):
            raise ConfigError(f"clock_hz must be a positive number, got {clock!r}")
        bank_bytes = self.bank_words * self.word_bytes
        if self.imem_bytes % bank_bytes != 0:
            raise ConfigError(
                f"imem_bytes not bank multiple ({self.imem_bytes} % {bank_bytes} != 0)")
        if self.dmem_bytes % bank_bytes != 0:
            raise ConfigError(
                f"dmem_bytes not bank multiple ({self.dmem_bytes} % {bank_bytes} != 0)")
        if self.flit_payload_bytes & (self.flit_payload_bytes - 1) != 0:
            raise ConfigError(
                f"flit_payload_bytes must be a power of two, got {self.flit_payload_bytes}")

    # -- derived geometry ---------------------------------------------------

    @property
    def n_clusters(self) -> int:
        return self.mesh_cols * self.mesh_rows

    @property
    def n_cpus(self) -> int:
        return self.n_clusters * self.cpus_per_cluster

    @property
    def imem_words(self) -> int:
        return self.imem_bytes // self.word_bytes

    def last_bundle_addr(self, group: InstructionGroup) -> int:
        """The highest instruction-memory address a bundle of group fits at."""
        return self.imem_words - group.imem_footprint

    def cluster_index(self, coord: Coord) -> int:
        x, y = coord
        if not (0 <= x < self.mesh_cols and 0 <= y < self.mesh_rows):
            raise ConfigError(f"cluster {coord} outside {self.mesh_cols}x{self.mesh_rows} mesh")
        return y * self.mesh_cols + x

    def cluster_xy(self, index: int) -> Coord:
        if not 0 <= index < self.n_clusters:
            raise ConfigError(f"cluster index {index} out of range")
        return index % self.mesh_cols, index // self.mesh_cols

    def cpu_id(self, coord: Coord, cpu: int) -> int:
        """Linear CPU id: ((y * mesh_cols) + x) * cpus_per_cluster + cpu."""
        if not 0 <= cpu < self.cpus_per_cluster:
            raise ConfigError(f"cpu index {cpu} out of range")
        return self.cluster_index(coord) * self.cpus_per_cluster + cpu

    def cpu_cluster(self, cpu_id: int) -> Coord:
        if not 0 <= cpu_id < self.n_cpus:
            raise ConfigError(f"cpu id {cpu_id} out of range")
        return self.cluster_xy(cpu_id // self.cpus_per_cluster)

    def all_clusters(self) -> list[Coord]:
        return [self.cluster_xy(i) for i in range(self.n_clusters)]

    @cached_property
    def cpu_hops(self) -> tuple[tuple[int, ...], ...]:
        """Mesh hops between the clusters of two CPUs, as [src_cpu][dst_cpu]."""
        clusters = [self.cpu_cluster(cpu) for cpu in range(self.n_cpus)]
        return tuple(tuple(manhattan(a, b) for b in clusters) for a in clusters)


def parse_config(text: str) -> SystemConfig:
    """Parse a JSON configuration document into a SystemConfig.

    Absent fields take their defaults; unknown top-level keys are an error.
    An empty document yields the all-defaults configuration.
    """
    doc = json_document(text, ConfigError) if text.strip() else {}
    if not isinstance(doc, dict):
        raise ConfigError("configuration document must be a JSON object")
    known = {f.name for f in fields(SystemConfig)}
    unknown = sorted(set(doc) - known)
    if unknown:
        raise ConfigError(f"unknown key(s): {', '.join(unknown)}")
    return SystemConfig(**doc)


def load_config(path: str) -> SystemConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


# ---------------------------------------------------------------------------
# Instruction set
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InstructionDef:
    """One instruction of the synthetic VLIW ISA."""

    mnemonic: str
    iclass: str
    allowed_slots: frozenset[int]
    reads_dmem: bool = False
    writes_dmem: bool = False

    def __post_init__(self) -> None:
        if not _MNEMONIC_RE.match(self.mnemonic):
            raise IsaError(f"invalid mnemonic {self.mnemonic!r}")
        if self.iclass not in ICLASSES:
            raise IsaError(f"{self.mnemonic}: unknown iclass {self.iclass!r}")
        if not self.allowed_slots:
            raise IsaError(f"{self.mnemonic}: allowed_slots must be nonempty")
        if any(s < 0 for s in self.allowed_slots):
            raise IsaError(f"{self.mnemonic}: negative slot index")
        if (self.reads_dmem or self.writes_dmem) and self.iclass not in ("LOAD", "STORE"):
            raise IsaError(
                f"{self.mnemonic}: dmem access flags are only valid for LOAD/STORE")

    @property
    def accesses_dmem(self) -> bool:
        return self.reads_dmem or self.writes_dmem


EMPTY = None  # distinguished empty-slot pseudo-instruction
EMPTY_LABEL = "EMPTY"


@dataclass(frozen=True)
class InstructionGroup:
    """A concrete per-slot assignment for one VLIW bundle.

    Each slot holds an InstructionDef or EMPTY (None).  The all-EMPTY group
    is the idle bundle.  A group with exactly one occupied slot is encoded
    in the compressed instruction format (fmt "c"): its imem_footprint is
    one instruction-memory word, an uncompressed group's (fmt "u") one word
    per slot.  The derived attributes are computed once, on first use, and
    kept outside the dataclass fields, so they stay out of eq, repr and hash.
    """

    slots: tuple[InstructionDef | None, ...]

    def __post_init__(self) -> None:
        for i, ins in enumerate(self.slots):
            if ins is not None and i not in ins.allowed_slots:
                raise IsaError(f"{ins.mnemonic} not allowed on slot {i}")

    @cached_property
    def compressed(self) -> bool:
        return sum(1 for s in self.slots if s is not None) == 1

    @cached_property
    def imem_footprint(self) -> int:
        return 1 if self.compressed else len(self.slots)

    @cached_property
    def fmt(self) -> str:
        return "c" if self.compressed else "u"

    @cached_property
    def label(self) -> str:
        return "+".join(s.mnemonic if s is not None else EMPTY_LABEL for s in self.slots)

    @cached_property
    def accesses_dmem(self) -> bool:
        return any(s is not None and s.accesses_dmem for s in self.slots)

    def mnemonics(self) -> list[str | None]:
        return [s.mnemonic if s is not None else None for s in self.slots]


def validate_isa(isa: list[InstructionDef], vliw_slots: int) -> None:
    """Check ISA-level invariants against a slot count."""
    seen: set[str] = set()
    for ins in isa:
        if ins.mnemonic in seen:
            raise IsaError(f"duplicate mnemonic {ins.mnemonic!r}")
        seen.add(ins.mnemonic)
        if any(s >= vliw_slots for s in ins.allowed_slots):
            raise IsaError(f"{ins.mnemonic}: slot index beyond {vliw_slots} slots")
        if ins.iclass == "NOP" and ins.allowed_slots != frozenset(range(vliw_slots)):
            raise IsaError(f"{ins.mnemonic}: NOP must be allowed on every slot")


def enumerate_instruction_groups(isa: list[InstructionDef],
                                 vliw_slots: int) -> list[InstructionGroup]:
    """Enumerate every distinct instruction group for the given ISA.

    Per slot the choices are the instructions allowed there plus EMPTY; the
    all-EMPTY group is excluded.  Order is deterministic: instructions sorted
    by mnemonic, EMPTY last, slot 0 varying slowest.
    """
    validate_isa(isa, vliw_slots)
    per_slot: list[list[InstructionDef | None]] = []
    for slot in range(vliw_slots):
        choices = sorted((i for i in isa if slot in i.allowed_slots),
                         key=lambda i: i.mnemonic)
        per_slot.append(list(choices) + [EMPTY])
    groups = []
    for combo in product(*per_slot):
        if all(s is None for s in combo):
            continue
        groups.append(InstructionGroup(slots=tuple(combo)))
    return groups


def group_count_formula(isa: list[InstructionDef], vliw_slots: int) -> int:
    """prod(n_i + 1) - 1 with n_i = instructions allowed on slot i.

    Valid whenever placement constraints are per-slot only, which is the
    only constraint form the description format can express.
    """
    count = 1
    for slot in range(vliw_slots):
        count *= 1 + sum(1 for i in isa if slot in i.allowed_slots)
    return count - 1


def group_by_label(isa: list[InstructionDef], vliw_slots: int,
                   label: str) -> InstructionGroup:
    """Build a group from its slot-mnemonic label, e.g. "add+EMPTY"."""
    parts = label.split("+")
    if len(parts) != vliw_slots:
        raise IsaError(f"label {label!r} does not match {vliw_slots} slots")
    by_name = {i.mnemonic: i for i in isa}
    slots: list[InstructionDef | None] = []
    for part in parts:
        if part == EMPTY_LABEL:
            slots.append(None)
        elif part in by_name:
            slots.append(by_name[part])
        else:
            raise IsaError(f"unknown mnemonic {part!r} in label {label!r}")
    return InstructionGroup(slots=tuple(slots))


def parse_isa(text: str) -> list[InstructionDef]:
    """Parse the JSON instruction-set description."""
    doc = json_document(text, IsaError)
    if not isinstance(doc, list):
        raise IsaError("ISA document must be a JSON list")
    try:
        return [_instruction_from_json(f"isa[{i}].", entry) for i, entry in enumerate(doc)]
    except FieldError as exc:
        raise IsaError(str(exc)) from None


def _instruction_from_json(at: str, entry) -> InstructionDef:
    if not isinstance(entry, dict):
        raise FieldError(f"{at[:-1]} must be an object, got {entry!r}")
    extra = set(entry) - {"mnemonic", "iclass", "allowed_slots",
                          "reads_dmem", "writes_dmem"}
    if extra:
        raise IsaError(f"unknown ISA field(s): {sorted(extra)}")
    slots = json_field(at, entry, "allowed_slots", "a list")
    if not all(isinstance(s, int) and not isinstance(s, bool) for s in slots):
        raise FieldError(f"{at}allowed_slots must list integers, got {slots!r}")
    return InstructionDef(
        mnemonic=json_field(at, entry, "mnemonic", "a string"),
        iclass=json_field(at, entry, "iclass", "a string"),
        allowed_slots=frozenset(slots),
        reads_dmem=json_field(at, entry, "reads_dmem", "a boolean", False),
        writes_dmem=json_field(at, entry, "writes_dmem", "a boolean", False),
    )


def serialize_isa(isa: list[InstructionDef]) -> str:
    doc = [{
        "mnemonic": i.mnemonic,
        "iclass": i.iclass,
        "allowed_slots": sorted(i.allowed_slots),
        "reads_dmem": i.reads_dmem,
        "writes_dmem": i.writes_dmem,
    } for i in isa]
    return json.dumps(doc, indent=2) + "\n"


def load_isa(path: str) -> list[InstructionDef]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_isa(fh.read())


# ---------------------------------------------------------------------------
# Communication API description
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ApiOperation:
    """A communication operation with its parameter sweep range (bytes)."""

    name: str
    size_min: int
    size_max: int
    size_step: int

    def __post_init__(self) -> None:
        if self.name not in API_OP_NAMES:
            raise IsaError(f"unknown API operation {self.name!r}")
        if self.size_step < 1:
            raise IsaError(f"{self.name}: size step must be >= 1")
        if self.size_max < self.size_min:
            raise IsaError(f"{self.name}: size max < min")
        if (self.size_max - self.size_min) % self.size_step != 0:
            raise IsaError(f"{self.name}: step does not divide (max - min)")


@dataclass(frozen=True)
class ApiDescription:
    operations: tuple[ApiOperation, ...]

    def operation(self, name: str) -> ApiOperation:
        for op in self.operations:
            if op.name == name:
                return op
        raise IsaError(f"API has no operation {name!r}")


def parse_api(text: str) -> ApiDescription:
    doc = json_document(text, IsaError)
    if not isinstance(doc, list):
        raise IsaError("API document must be a JSON list")
    try:
        return ApiDescription(operations=tuple(
            _operation_from_json(f"api[{i}].", entry) for i, entry in enumerate(doc)))
    except FieldError as exc:
        raise IsaError(str(exc)) from None


def _operation_from_json(at: str, entry) -> ApiOperation:
    if not isinstance(entry, dict):
        raise FieldError(f"{at[:-1]} must be an object, got {entry!r}")
    name = json_field(at, entry, "name", "a string")
    params = json_field(at, entry, "params", "an object")
    return ApiOperation(name=name,
                        size_min=json_field(at + "params.", params, "min", "an integer"),
                        size_max=json_field(at + "params.", params, "max", "an integer"),
                        size_step=json_field(at + "params.", params, "step", "an integer"))


def load_api(path: str) -> ApiDescription:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_api(fh.read())
