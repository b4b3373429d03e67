"""Configuration parsing, ISA validation, and instruction-group enumeration."""

import itertools
import pickle
import random

import pytest

from enermod.sysconfig import (
    ConfigError,
    InstructionDef,
    InstructionGroup,
    IsaError,
    SystemConfig,
    enumerate_instruction_groups,
    group_by_label,
    group_count_formula,
    manhattan,
    parse_api,
    parse_config,
    parse_isa,
    serialize_isa,
    validate_isa,
)


def _ins(mnemonic, iclass="ALU", slots=(0, 1), **kw):
    return InstructionDef(mnemonic=mnemonic, iclass=iclass,
                          allowed_slots=frozenset(slots), **kw)


# ---------------------------------------------------------------------------
# parse_config
# ---------------------------------------------------------------------------

def test_parse_validation_platform():
    cfg = parse_config('{"mesh_cols": 2, "mesh_rows": 2, "cpus_per_cluster": 4,'
                       ' "vliw_slots": 2, "imem_bytes": 16384, "dmem_bytes": 16384}')
    assert cfg.n_clusters == 4
    assert cfg.n_cpus == 16
    assert cfg.vliw_slots == 2
    assert cfg.imem_words == 4096
    assert cfg.imem_words // cfg.bank_words == 2


def test_parse_empty_document_gives_defaults():
    cfg = parse_config("")
    assert cfg == SystemConfig()
    assert cfg.flit_payload_bytes == 8
    assert cfg.ni_channels == 128
    assert cfg.shared_mem_bytes == 65536
    assert cfg.clock_hz == 7.0e8


def test_parse_rejects_non_bank_multiple():
    with pytest.raises(ConfigError, match="imem_bytes not bank multiple"):
        parse_config('{"imem_bytes": 1000}')


def test_parse_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config('{"mesh_colz": 2}')


def test_parse_reports_syntax_position():
    with pytest.raises(ConfigError, match=r"line 1 column"):
        parse_config('{"mesh_cols": }')


def test_parse_rejects_bad_values():
    with pytest.raises(ConfigError, match="cpus_per_cluster"):
        parse_config('{"cpus_per_cluster": 33}')
    with pytest.raises(ConfigError, match="mesh_cols"):
        parse_config('{"mesh_cols": 0}')
    with pytest.raises(ConfigError, match="flit_payload_bytes"):
        parse_config('{"flit_payload_bytes": 12}')


def test_cpu_id_scheme():
    cfg = parse_config('{"mesh_cols": 3, "mesh_rows": 2, "cpus_per_cluster": 4}')
    # linear id = ((y * mesh_cols) + x) * cpus_per_cluster + cpu
    assert cfg.cpu_id((0, 0), 0) == 0
    assert cfg.cpu_id((2, 1), 3) == ((1 * 3) + 2) * 4 + 3
    for cpu_id in range(cfg.n_cpus):
        coord = cfg.cpu_cluster(cpu_id)
        local = cpu_id % cfg.cpus_per_cluster
        assert cfg.cpu_id(coord, local) == cpu_id


def test_manhattan():
    assert manhattan((0, 0), (0, 0)) == 0
    assert manhattan((0, 0), (2, 1)) == 3
    assert manhattan((2, 1), (0, 0)) == 3


# ---------------------------------------------------------------------------
# Instruction definitions and groups
# ---------------------------------------------------------------------------

def test_instruction_def_invariants():
    with pytest.raises(IsaError):
        _ins("bad", slots=())
    with pytest.raises(IsaError):
        _ins("ld", iclass="ALU", slots=(0,), reads_dmem=True)
    ld = _ins("ld", iclass="LOAD", slots=(0,), reads_dmem=True)
    assert ld.accesses_dmem


def test_nop_must_cover_all_slots():
    nop = _ins("nop", iclass="NOP", slots=(0,))
    with pytest.raises(IsaError, match="NOP"):
        validate_isa([nop], vliw_slots=2)


def test_group_slot_placement_checked():
    a = _ins("a", slots=(0,))
    with pytest.raises(IsaError, match="not allowed on slot 1"):
        InstructionGroup(slots=(None, a))


def test_group_compression_flag():
    a = _ins("a")
    assert InstructionGroup(slots=(a, None)).compressed
    assert not InstructionGroup(slots=(a, a)).compressed
    assert not InstructionGroup(slots=(None, None)).compressed


def test_group_derived_attributes_are_cached_outside_eq_repr_and_hash():
    ld = _ins("ld", iclass="LOAD", reads_dmem=True)
    used = InstructionGroup(slots=(ld, None))
    fresh = InstructionGroup(slots=(ld, None))
    assert (used.compressed, used.label, used.accesses_dmem) == (True, "ld+EMPTY", True)
    assert {"compressed", "label", "accesses_dmem"} <= set(vars(used))
    assert set(vars(fresh)) == {"slots"}
    assert used == fresh and hash(used) == hash(fresh) and repr(used) == repr(fresh)
    copy = pickle.loads(pickle.dumps(used))
    assert copy == used and copy.label == "ld+EMPTY"


def test_enumerate_single_nop():
    nop = _ins("nop", iclass="NOP")
    groups = enumerate_instruction_groups([nop], 2)
    assert [g.label for g in groups] == ["nop+nop", "nop+EMPTY", "EMPTY+nop"]


def test_enumerate_slot_constrained_pair():
    # A on slot 0 only, B on both slots.  Independent brute force over the
    # per-slot choice sets, all-EMPTY removed.
    a = _ins("A", slots=(0,))
    b = _ins("B", slots=(0, 1))
    slot0 = ["A", "B", None]
    slot1 = ["B", None]
    expected = {combo for combo in itertools.product(slot0, slot1)
                if any(x is not None for x in combo)}
    groups = enumerate_instruction_groups([a, b], 2)
    got = {tuple(g.mnemonics()) for g in groups}
    assert got == expected
    assert len(groups) == len(expected) == 5
    assert len(groups) == group_count_formula([a, b], 2)


def _random_isa(rng, n, slots):
    isa = []
    for i in range(n):
        iclass = rng.choice(["ALU", "SIMD", "MULDIV", "BRANCH"])
        k = rng.randint(1, slots)
        allowed = frozenset(rng.sample(range(slots), k))
        isa.append(InstructionDef(mnemonic=f"i{i:02d}", iclass=iclass,
                                  allowed_slots=allowed))
    return isa


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_enumeration_matches_brute_force(seed):
    rng = random.Random(seed)
    slots = rng.choice([2, 3])
    isa = _random_isa(rng, 20, slots)
    groups = enumerate_instruction_groups(isa, slots)
    # independent brute-force enumerator over the cartesian product
    per_slot = [[i.mnemonic for i in isa if s in i.allowed_slots] + [None]
                for s in range(slots)]
    brute = {c for c in itertools.product(*per_slot)
             if any(x is not None for x in c)}
    assert {tuple(g.mnemonics()) for g in groups} == brute
    assert len(groups) == group_count_formula(isa, slots)
    # deterministic ordering and uniqueness
    rerun = enumerate_instruction_groups(isa, slots)
    assert [g.label for g in rerun] == [g.label for g in groups]
    assert len({g.label for g in groups}) == len(groups)


def test_empty_isa_enumerates_nothing():
    assert enumerate_instruction_groups([], 2) == []


def test_shipped_isa_counts(isa, config):
    groups = enumerate_instruction_groups(isa, config.vliw_slots)
    assert len(groups) == group_count_formula(isa, config.vliw_slots)
    # slot 0 admits 17 instructions, slot 1 admits 14: (17+1)*(14+1)-1
    assert len(groups) == 18 * 15 - 1 == 269


def test_group_by_label_round_trip(isa, config):
    groups = enumerate_instruction_groups(isa, config.vliw_slots)
    for g in groups[::17]:
        assert group_by_label(isa, config.vliw_slots, g.label) == g


def test_isa_serialization_round_trip(isa):
    assert parse_isa(serialize_isa(isa)) == isa


# ---------------------------------------------------------------------------
# API description
# ---------------------------------------------------------------------------

def test_api_default_sweep(send_sizes):
    assert send_sizes[0] == 4 and send_sizes[-1] == 1024 and len(send_sizes) == 256


def test_api_step_must_divide():
    with pytest.raises(IsaError, match="step"):
        parse_api('[{"name": "send", "params": {"min": 4, "max": 10, "step": 4}}]')


def test_api_unknown_operation():
    with pytest.raises(IsaError, match="unknown API operation"):
        parse_api('[{"name": "scatter", "params": {"min": 4, "max": 4, "step": 1}}]')
