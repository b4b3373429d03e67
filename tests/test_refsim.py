"""Reference oracle: accounting formulas, determinism, conservation."""

import copy
import hashlib
import json
import math
import pickle
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enermod import data_path, refsim
from enermod.benchgen import (
    DEFAULT_REPS,
    PROLOGUE_LEN,
    gen_comm_benchmarks,
    instruction_campaign,
)
from enermod.pipeline import comm_benchmarks_per_hop
from enermod.refsim import (
    DATA_PATTERNS,
    LEDGER_COMPONENTS,
    BundleOp,
    EnergyLedger,
    ParamError,
    Program,
    ProgramError,
    RecvOp,
    SendOp,
    SyncOp,
    bundle_energy,
    bundle_energy_parts,
    fetch_position_energy,
    ledger_from_csv,
    packet_energy,
    params_from_json,
    program_from_json,
    program_to_json,
    run_program,
    xy_route,
    _Accumulator,
)
from enermod.sysconfig import (
    InstructionGroup,
    enumerate_instruction_groups,
    manhattan,
    n_flits,
)
from enermod.workloads import synthetic_applications

from conftest import expand


def _group(isa, label):
    from enermod.sysconfig import group_by_label
    return group_by_label(isa, 2, label)


def _popcount(x):
    return bin(x).count("1")


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------

@pytest.fixture
def params_doc():
    """A fresh copy of the shipped oracle parameter document."""
    with open(data_path("oracle_params.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_params_round_trip(params, params_doc):
    # key order is irrelevant, and the params hold the document, name for name
    assert params_from_json(dict(reversed(params_doc.items()))) == params
    assert dict(params.values) == params_doc


def test_params_lookup_tables_stay_out_of_eq_repr_and_json(params, params_doc):
    assert "_by_name" not in repr(params)
    copy = pickle.loads(pickle.dumps(params))
    assert copy == params and hash(copy) == hash(params)
    assert copy["core.SIMD.ones"] == params_doc["core.SIMD.ones"]
    assert copy["dmem.alt"] == params_doc["dmem.alt"]
    params_doc["dmem.alt"] += 1.0
    changed = params_from_json(params_doc)
    assert changed != params and changed["dmem.alt"] == params["dmem.alt"] + 1.0


def test_params_reject_nop_above_simd(params_doc):
    params_doc["core.NOP.zeros"] = params_doc["core.SIMD.zeros"] + 1
    with pytest.raises(ParamError, match="NOP"):
        params_from_json(params_doc)


def test_params_reject_negative(params_doc):
    params_doc["sync"] = -1.0
    with pytest.raises(ParamError):
        params_from_json(params_doc)


def test_params_reject_unknown_key(params_doc):
    params_doc["warp_scheduler"] = 1.0
    with pytest.raises(ParamError, match="unknown parameter"):
        params_from_json(params_doc)


# The names the scalar parameters had in code beside their file names
# (imem_spatial_coeff had one name).
_OLD_FIELD_NAMES = {
    "empty_slot": "empty_slot_energy",
    "imem_base.compressed": "imem_base_compressed",
    "imem_base.uncompressed": "imem_base_uncompressed",
    "bus_beat": "bus_beat_energy", "router_flit": "router_flit_energy",
    "link_flit": "link_flit_energy", "ni_in_flit": "ni_in_flit_energy",
    "ni_out_flit": "ni_out_flit_energy", "packet_header": "packet_header_energy",
    "sync": "sync_energy", "static.cpu": "static_cpu_pw",
    "static.router": "static_router_pw", "static.ni": "static_ni_pw",
}


@settings(max_examples=200, deadline=None)
@given(edit=st.sampled_from(["drop", "negate", "nan", "rename", "add"]),
       data=st.data())
def test_an_edit_to_one_parameter_is_refused_naming_its_document_key(edit, data):
    # the shipped document loads name for name; dropping, negating or
    # NaN-ing one key, renaming a scalar to its old field name, or adding an
    # unknown core.* or dmem.* key is refused, naming the key as the
    # document spells it
    with open(data_path("oracle_params.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    params = params_from_json(doc)
    assert all(params[name] == float(value) for name, value in doc.items())
    if edit == "rename":
        key = data.draw(st.sampled_from(sorted(_OLD_FIELD_NAMES)))
        doc[_OLD_FIELD_NAMES[key]] = doc.pop(key)
    elif edit == "add":
        key = data.draw(st.from_regex(r"(core|dmem)(\.[A-Za-z_]{0,8}){0,3}",
                                      fullmatch=True).filter(lambda k: k not in doc))
        doc[key] = 1.0
    elif edit == "drop":
        key = data.draw(st.sampled_from(sorted(doc)))
        del doc[key]
    else:
        key = data.draw(st.sampled_from(sorted(doc)))
        doc[key] = -doc[key] if edit == "negate" else math.nan
    with pytest.raises(ParamError) as err:
        params_from_json(doc)
    assert repr(key) in str(err.value)


# ---------------------------------------------------------------------------
# single-bundle accounting
# ---------------------------------------------------------------------------

def test_single_nop_bundle_accounting(tiny_config, isa, params):
    group = _group(isa, "nop+nop")
    program = Program.from_dict(
        {0: [BundleOp(group=group, addr=0, pattern="zeros")]})
    trace, ledger = run_program(tiny_config, params, program)
    bundles = [e for e in trace.events if e.kind == "bundle-issue"]
    assert len(bundles) == 1
    expected = (2 * params["core.NOP.zeros"]
                + params["imem_base.uncompressed"]
                + fetch_position_energy(params, tiny_config, 0, False)
                + params.static_pj(tiny_config, 1))
    assert ledger.total_pj == pytest.approx(expected, rel=1e-12)
    b = ledger.breakdown_dict()
    assert b["core"] == pytest.approx(2 * params["core.NOP.zeros"])
    assert b["dmem"] == 0.0


@pytest.mark.parametrize("pattern", ["zeros", "ones", "alt"])
def test_load_books_dmem_without_an_event_of_its_own(tiny_config, isa, params,
                                                      pattern):
    group = _group(isa, "ldw+add")
    program = Program.from_dict(
        {0: [BundleOp(group=group, addr=0, pattern=pattern)]}, min_cycles=3)
    trace, ledger = run_program(tiny_config, params, program)
    assert ledger.breakdown_dict()["dmem"] == params[f"dmem.{pattern}"]
    assert [e.kind for e in expand(trace)] == ["bundle-issue", "idle", "idle"]


def test_bundle_energy_closed_form(tiny_config, isa, params):
    for label, pattern in [("nop+nop", "zeros"), ("vadd+vmul", "ones"),
                           ("ldw+mul", "alt"), ("add+EMPTY", "zeros")]:
        group = _group(isa, label)
        op = BundleOp(group=group, addr=37, pattern=pattern)
        program = Program.from_dict({0: [op]})
        _, ledger = run_program(tiny_config, params, program)
        dynamic = ledger.total_pj - params.static_pj(tiny_config, 1)
        assert dynamic == pytest.approx(bundle_energy(params, tiny_config, op),
                                        rel=1e-12)
        # the simulator books exactly the closed form's three ledger parts
        b = ledger.breakdown_dict()
        assert ((b["core"], b["imem"], b["dmem"])
                == bundle_energy_parts(params, tiny_config, op))


def test_ordering_simd_above_nop(tiny_config, isa, params):
    simd = BundleOp(group=_group(isa, "vadd+vadd"), addr=0, pattern="zeros")
    nop = BundleOp(group=_group(isa, "nop+nop"), addr=0, pattern="zeros")
    for pattern in ("zeros", "ones", "alt"):
        s = bundle_energy(params, tiny_config, BundleOp(simd.group, 0, pattern))
        n = bundle_energy(params, tiny_config, BundleOp(nop.group, 0, pattern))
        assert s > n


def test_compressed_fetch_cheaper(tiny_config, isa, params):
    single = BundleOp(group=_group(isa, "nop+EMPTY"), addr=0, pattern="zeros")
    full = BundleOp(group=_group(isa, "nop+nop"), addr=0, pattern="zeros")
    # single slot costs one core NOP + one empty slot and a compressed fetch
    diff = (bundle_energy(params, tiny_config, full)
            - bundle_energy(params, tiny_config, single))
    expected = (params["core.NOP.zeros"] - params["empty_slot"]
                + params["imem_base.uncompressed"] - params["imem_base.compressed"])
    assert diff == pytest.approx(expected)


# ---------------------------------------------------------------------------
# imem position term
# ---------------------------------------------------------------------------

def test_imem_spatial_examples(tiny_config, isa, params):
    assert fetch_position_energy(params, tiny_config, 0, True) == 0.0
    assert fetch_position_energy(params, tiny_config, 7, True) == pytest.approx(
        3 * params["imem_spatial_coeff"])
    op = BundleOp(group=_group(isa, "nop+EMPTY"), addr=tiny_config.imem_words,
                  pattern="zeros")
    with pytest.raises(ProgramError):
        run_program(tiny_config, params, Program.from_dict({0: [op]}))


def test_imem_spatial_spread_over_first_800(tiny_config, params):
    # exhaustive sweep oracle: spread equals coeff x max popcount in range
    energies = [fetch_position_energy(params, tiny_config, a, True)
                for a in range(800)]
    max_pop = max(_popcount(a % tiny_config.bank_words) for a in range(800))
    assert max(energies) - min(energies) == pytest.approx(
        params["imem_spatial_coeff"] * max_pop)


def test_single_slot_range_at_least_two_slot(tiny_config, isa, params):
    # compression doubles the decoded row space, widening the range
    comp = [fetch_position_energy(params, tiny_config, a, True)
            for a in range(800)]
    unc = [fetch_position_energy(params, tiny_config, a, False)
           for a in range(800)]
    assert max(comp) - min(comp) >= max(unc) - min(unc)
    assert max(comp) - min(comp) > 0


# ---------------------------------------------------------------------------
# geometry
# ---------------------------------------------------------------------------

def test_manhattan_examples():
    assert manhattan((0, 0), (0, 0)) == 0
    assert manhattan((0, 0), (2, 1)) == 3


def test_route_length_matches_manhattan(mesh3_config):
    clusters = mesh3_config.all_clusters()
    for src in clusters:
        for dst in clusters:
            route = xy_route(src, dst)
            assert len(route) == manhattan(src, dst) + 1
            assert route[0] == src and route[-1] == dst
            for a, b in zip(route, route[1:]):
                assert manhattan(a, b) == 1


# ---------------------------------------------------------------------------
# packets
# ---------------------------------------------------------------------------

def _send_total(config, params, src, dst, size):
    src_cpu = config.cpu_id(src, 0)
    dst_cpu = config.cpu_id(dst, 0) if src != dst else config.cpu_id(dst, 1)
    program = Program.from_dict(
        {src_cpu: [SendOp(dst_cpu=dst_cpu, size_bytes=size)]})
    return run_program(config, params, program)


def test_one_flit_sizes_cost_the_same(config, params):
    _, l4 = _send_total(config, params, (0, 0), (1, 1), 4)
    _, l8 = _send_total(config, params, (0, 0), (1, 1), 8)
    assert l4.total_pj == l8.total_pj


def test_staircase_steps_at_flit_boundaries(config, params):
    totals = {}
    for size in range(374, 447, 2):
        _, ledger = _send_total(config, params, (0, 0), (1, 1), size)
        totals[size] = ledger.total_pj
    sizes = sorted(totals)
    for s1, s2 in zip(sizes, sizes[1:]):
        f1 = n_flits(s1, config.flit_payload_bytes)
        f2 = n_flits(s2, config.flit_payload_bytes)
        if f1 == f2:
            assert totals[s2] == totals[s1]
        else:
            assert totals[s2] > totals[s1]
            # a jump happens right after a multiple of 8
            assert (s2 - 2) % 8 == 0


def test_packet_monotone_nondecreasing(config, params):
    prev = None
    for size in range(4, 257, 4):
        _, ledger = _send_total(config, params, (0, 0), (1, 0), size)
        if prev is not None:
            assert ledger.total_pj >= prev
        prev = ledger.total_pj


def test_path_additivity_all_pairs(mesh3_config, params):
    # dynamic packet energy matches the closed form for every ordered pair
    size = 40
    flits = n_flits(size, mesh3_config.flit_payload_bytes)
    clusters = mesh3_config.all_clusters()
    for src in clusters:
        for dst in clusters:
            if src == dst:
                continue
            trace, ledger = _send_total(mesh3_config, params, src, dst, size)
            dynamic = ledger.total_pj - params.static_pj(mesh3_config, trace.duration)
            hops = manhattan(src, dst)
            expected = (params["sync"] + params["packet_header"]
                        + flits * (params["ni_in_flit"]
                                   + params["ni_out_flit"]
                                   + (hops + 1) * (params["router_flit"]
                                                   + params["link_flit"])))
            assert dynamic == pytest.approx(expected, rel=1e-12)
            assert dynamic == pytest.approx(
                packet_energy(params, mesh3_config, src, dst, size), rel=1e-12)
            # flit events visit exactly hops+1 routers per flit
            flit_events = [e for e in expand(trace) if e.kind == "flit-hop"]
            assert len(flit_events) == flits * (hops + 1)


def test_local_transfer_uses_bus(config, params):
    trace, ledger = _send_total(config, params, (0, 0), (0, 0), 64)
    b = ledger.breakdown_dict()
    assert b["router"] == 0.0 and b["ni"] == 0.0
    assert b["bus"] == pytest.approx(8 * params["bus_beat"])
    assert b["sync"] == pytest.approx(params["sync"])
    assert any(e.component.startswith("bus") for e in trace.events)


def test_a_run_lasts_until_its_last_crossbar_beat(config, params):
    # the transfer is one event a cycle after the sync; its beats, one per
    # flit, follow it, and only beats that cost energy are booked
    flits = n_flits(100, config.flit_payload_bytes)
    trace, ledger = _send_total(config, params, (0, 0), (0, 0), 100)
    assert trace.events[-1].cycle == 1
    assert trace.duration == 1 + flits
    free = params_from_json({**dict(params.values), "bus_beat": 0.0})
    trace, free_ledger = _send_total(config, free, (0, 0), (0, 0), 100)
    assert trace.duration == 2
    assert ledger.total_pj - free_ledger.total_pj == pytest.approx(
        flits * params["bus_beat"] + params.static_pj(config, flits - 1))


# ---------------------------------------------------------------------------
# ledger invariants, determinism
# ---------------------------------------------------------------------------

def _mixed_program(config, isa):
    groups = enumerate_instruction_groups(isa, config.vliw_slots)
    ops0 = [BundleOp(group=groups[i % 40], addr=i % 100,
                     pattern=("zeros", "ones", "alt")[i % 3])
            for i in range(30)]
    ops0.append(SendOp(dst_cpu=config.n_cpus - 1, size_bytes=100))
    ops0.append(SyncOp())
    ops1 = [BundleOp(group=groups[5], addr=3, pattern="ones")] * 10
    return Program.from_dict({0: ops0, 1: ops1})


def test_determinism(config, isa, params):
    program = _mixed_program(config, isa)
    t1, l1 = run_program(config, params, program)
    t2, l2 = run_program(config, params, program)
    assert t1 == t2
    assert l1 == l2


def test_conservation(config, isa, params):
    program = _mixed_program(config, isa)
    _, ledger = run_program(config, params, program)
    total = sum(v for _, v in ledger.breakdown)
    assert abs(total - ledger.total_pj) <= 1e-9 * max(1.0, abs(ledger.total_pj))
    assert all(v >= 0 for _, v in ledger.breakdown)


def test_every_cpu_cycle_is_an_event_or_in_one_idle_span(config, isa, params):
    program = _mixed_program(config, isa)
    trace, _ = run_program(config, params, program)
    assert f"cpu{config.n_cpus - 1}" in {e.component for e in trace.events
                                          if e.kind == "idle"}
    for cpu in range(config.n_cpus):
        comp = f"cpu{cpu}"
        cycles = [cycle for e in trace.events if e.component == comp
                  for cycle in range(e.cycle, e.cycle + e.length)]
        assert sorted(cycles) == list(range(trace.duration)), comp


def test_a_cpu_listed_twice_is_rejected(config, isa, params):
    bundle = BundleOp(group=_group(isa, "nop+nop"), addr=0, pattern="zeros")
    with pytest.raises(ProgramError, match="listed twice"):
        run_program(config, params, Program(ops=((0, (bundle,)), (0, (bundle,)))))


def _trace_text(trace):
    """The trace as its per-cycle events (conftest.expand, each as a plain
    (cycle, component, kind, attrs) tuple) and its duration: spelled
    independently of how a trace holds runs of cycles and of the file format."""
    return repr(([event[:4] for event in expand(trace)], trace.duration))


# SHA-256 of the traces of three programs, taken on the per-cycle form, which
# trace files spelled line for line before idle spans; a change to how a
# trace holds its cycles must not change a trace.
_TRACE_SHA256 = {
    "mixed": "2362df9546c7e78334eb715721a9c287729e6ff1aa346564fe4c1865ee511d75",
    "crossbar": "8db9832677ee1270bc8b414c3fa2809e7224c7e45f49f8cee5a61bdb15c154e0",
    "2hop": "f9c5b4cbc1cac324a47452c836008b09a6e77788499d94549d50b553f4f5dd6d",
}


def test_trace_files_are_pinned(config, isa, params):
    programs = {
        "mixed": _mixed_program(config, isa),
        "crossbar": gen_comm_benchmarks(config, (0, 0), (0, 0), [100])[0].program,
        "2hop": gen_comm_benchmarks(config, (0, 0), (1, 1), [100])[0].program,
    }
    for name, program in programs.items():
        trace, _ = run_program(config, params, program)
        assert hashlib.sha256(_trace_text(trace).encode()).hexdigest() == _TRACE_SHA256[name], name


# SHA-256 over every run's trace (as _trace_text spells it) and ledger CSV,
# per program set, taken on the traces and ledgers recorded before the oracle
# memoized its bundles: the memo must not change either.  The applications
# vary each bundle's address.
_CAMPAIGN_SHA256 = {
    "instruction": "f4231115ac337757d32b0337c1036d59fb42148b171c8599c6ff11ed919f43cc",
    "comm": "7cfa105f03f651b0b7a8fe7cbf03b75de3352b04cb390d1f0fa7acf73b2e359a",
    "applications": "68087a43f4ffa03475e32331ae6814584ac9cd9d2706898885aa8d9c205fea95",
}


def _campaign_digest(config, params, programs):
    digest = hashlib.sha256()
    for program in programs:
        trace, ledger = run_program(config, params, program)
        digest.update(_trace_text(trace).encode())
        digest.update(ledger.to_csv().encode())
    return digest.hexdigest()


def test_campaign_traces_and_ledgers_are_pinned(config, isa, api, params):
    sets = {
        "instruction": [b.program for b in instruction_campaign(isa, config)],
        "comm": [b.program for b in comm_benchmarks_per_hop(api, config, isa)],
        "applications": [p for _name, p in synthetic_applications(config, isa, seed=0)],
    }
    for name, programs in sets.items():
        assert _campaign_digest(config, params, programs) == _CAMPAIGN_SHA256[name], name


def test_loaded_programs_share_their_bundles_and_keep_the_pin(config, isa, params):
    loaded = {b.name: program_from_json(json.loads(json.dumps(program_to_json(b.program))),
                                        isa)
              for b in instruction_campaign(isa, config)}
    # the nop+nop prologue at zeros, then the body's nop+nop at alt
    ops = dict(loaded["instr/nop+nop/alt"].ops)[0]
    assert len(ops) == PROLOGUE_LEN + DEFAULT_REPS
    assert len({id(op) for op in ops}) == 2
    assert len({id(op.group) for op in ops}) == 1
    digest = _campaign_digest(config, params, loaded.values())
    assert digest == _CAMPAIGN_SHA256["instruction"]


# Bookings over every ledger category, in no particular order, with ties in
# cycle and in energy; the energies mix magnitudes so that the order of
# addition shows in the last bits.
_bookings = st.lists(st.tuples(
    st.integers(0, 12),
    st.sampled_from(LEDGER_COMPONENTS),
    st.one_of(st.just(0.0), st.sampled_from([0.1, 0.2, 0.3, 1e16]),
              st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False))),
    max_size=60)


@settings(max_examples=200, deadline=None)
@given(bookings=_bookings)
def test_ledger_sums_like_one_sorted_list_of_bookings(bookings):
    acc = _Accumulator()
    for cycle, component, pj in bookings:
        acc.book[component].append((cycle, pj))
    # reference: every booking in (cycle, component, pj) order, one running
    # sum per category, then the categories left to right
    breakdown = dict.fromkeys(LEDGER_COMPONENTS, 0.0)
    for _cycle, component, pj in sorted(bookings):
        breakdown[component] += pj
    total = 0.0
    for pj in breakdown.values():
        total += pj
    ledger = acc.ledger()
    assert [(name, pj.hex()) for name, pj in ledger.breakdown] == \
        [(name, pj.hex()) for name, pj in breakdown.items()]
    assert ledger.total_pj.hex() == total.hex()


def test_min_cycles_pads_with_idle(tiny_config, params):
    program = Program.from_dict({}, min_cycles=32)
    trace, ledger = run_program(tiny_config, params, program)
    assert trace.duration == 32
    assert all(e.kind == "idle" for e in expand(trace))
    assert ledger.total_pj == pytest.approx(
        params.static_pj(tiny_config, 32))


def test_invalid_programs_rejected(config, isa, params):
    group = _group(isa, "nop+nop")
    bad_addr = Program.from_dict(
        {0: [BundleOp(group=group, addr=config.imem_words, pattern="zeros")]})
    with pytest.raises(ProgramError, match="address"):
        run_program(config, params, bad_addr)
    bad_cpu = Program.from_dict(
        {0: [SendOp(dst_cpu=config.n_cpus, size_bytes=8)]})
    with pytest.raises(ProgramError, match="off mesh"):
        run_program(config, params, bad_cpu)
    bad_pattern = Program.from_dict(
        {0: [BundleOp(group=group, addr=0, pattern="noise")]})
    with pytest.raises(ProgramError, match="pattern"):
        run_program(config, params, bad_pattern)


def test_a_program_fails_at_its_first_fault_in_program_order(config, isa, params):
    nop = _group(isa, "nop+nop")
    ok = BundleOp(group=nop, addr=0, pattern="zeros")
    noise = BundleOp(group=nop, addr=0, pattern="noise")
    one_slot = InstructionGroup(slots=nop.slots[:1])
    too_big = config.dmem_bytes + 1
    cases = [
        ({0: [ok]}, -1, "min_cycles must be >= 0"),
        ({config.n_cpus: [ok]}, 0,
         f"cpu id {config.n_cpus} out of range (n_cpus={config.n_cpus})"),
        ({0: [BundleOp(group=one_slot, addr=0, pattern="zeros")]}, 0,
         f"group {one_slot.label} has 1 slots, config has {config.vliw_slots}"),
        ({0: [ok, RecvOp(src_cpu=-1, size_bytes=8)]}, 0, "peer cpu -1 off mesh"),
        ({0: [SendOp(dst_cpu=1, size_bytes=0)]}, 0, "transfer size must be >= 1 byte"),
        ({0: [RecvOp(src_cpu=1, size_bytes=too_big)]}, 0,
         f"transfer of {too_big} B exceeds dmem {config.dmem_bytes} B"),
        # CPUs in order, each CPU's ops in order
        ({0: [RecvOp(src_cpu=99, size_bytes=8)], 1: [noise]}, 0, "peer cpu 99 off mesh"),
        ({1: [SendOp(dst_cpu=0, size_bytes=0), noise]}, 0,
         "transfer size must be >= 1 byte"),
        ({0: [noise], config.n_cpus: [ok]}, 0, "unknown data pattern 'noise'"),
    ]
    for ops, min_cycles, message in cases:
        with pytest.raises(ProgramError, match=re.escape(message)):
            run_program(config, params, Program.from_dict(ops, min_cycles=min_cycles))


def test_a_reused_group_is_validated_at_each_address_and_pattern(config, isa, params):
    # one group object, first valid, then out of range or with a bad pattern
    group = _group(isa, "nop+nop")
    good = BundleOp(group=group, addr=0, pattern="zeros")
    bad_addr = BundleOp(group=group, addr=config.imem_words, pattern="zeros")
    with pytest.raises(ProgramError, match=re.escape(
            f"imem address {config.imem_words} out of range for uncompressed bundle")):
        run_program(config, params, Program.from_dict({0: [good, good, bad_addr]}))
    bad_pattern = BundleOp(group=group, addr=0, pattern="noise")
    with pytest.raises(ProgramError, match=re.escape("unknown data pattern 'noise'")):
        run_program(config, params, Program.from_dict({0: [good], 1: [good, bad_pattern]}))


def test_a_run_checks_each_distinct_bundle_op_once(config, isa, params, monkeypatch):
    program = next(b.program for b in instruction_campaign(isa, config)
                   if b.name == "instr/ldw+add/ones")
    ops = dict(program.ops)[0]
    checked = []
    check = refsim._check_bundle

    def spy(config, op):
        checked.append(op)
        check(config, op)

    monkeypatch.setattr(refsim, "_check_bundle", spy)
    run_program(config, params, program)
    # the prologue's op, then the body's, each repeated
    assert len(ops) == PROLOGUE_LEN + DEFAULT_REPS
    assert checked == [ops[0], ops[-1]]
    assert [id(op) for op in checked] == list(dict.fromkeys(map(id, ops)))


def _each_op_its_own_object(program):
    """An equal program in which no two ops, groups or instructions are
    one object."""
    return Program(ops=tuple((cpu, tuple(copy.deepcopy(op) for op in ops))
                             for cpu, ops in program.ops),
                   min_cycles=program.min_cycles)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_separate_op_objects_run_like_repeated_ones(config, isa, params, data):
    """The oracle's per-op memo and checks are keyed by op identity; a
    program whose equal ops are separate objects runs to the same bytes."""
    cpus = st.integers(0, config.n_cpus - 1)
    sizes = st.integers(1, 300)
    groups = enumerate_instruction_groups(isa, config.vliw_slots)
    pool = data.draw(st.lists(st.one_of(
        st.builds(BundleOp, group=st.sampled_from(groups), addr=st.integers(0, 64),
                  pattern=st.sampled_from(DATA_PATTERNS)),
        st.builds(SendOp, dst_cpu=cpus, size_bytes=sizes),
        st.builds(RecvOp, src_cpu=cpus, size_bytes=sizes),
        st.just(SyncOp())), min_size=1, max_size=6))
    ops = data.draw(st.dictionaries(cpus, st.lists(st.sampled_from(pool), max_size=30),
                                    max_size=3))
    program = Program.from_dict(ops, min_cycles=data.draw(st.integers(0, 50)))
    separate = _each_op_its_own_object(program)
    assert separate == program
    trace, ledger = run_program(config, params, program)
    separate_trace, separate_ledger = run_program(config, params, separate)
    assert separate_trace.to_lines() == trace.to_lines()
    assert separate_ledger.to_csv() == ledger.to_csv()


def test_a_two_address_ledger_is_the_sum_of_its_closed_forms(tiny_config, isa, params):
    group = _group(isa, "ldw+add")
    ops = [BundleOp(group=group, addr=addr, pattern="alt") for addr in (0, 6) * 5]
    trace, ledger = run_program(tiny_config, params, Program.from_dict({0: ops}))
    assert [dict(e.attrs)["addr"] for e in trace.events] == [op.addr for op in ops]
    parts = [bundle_energy_parts(params, tiny_config, op) for op in ops]
    assert parts[0] != parts[1]
    expected = [0.0, 0.0, 0.0]
    for part in parts:
        expected = [total + pj for total, pj in zip(expected, part)]
    b = ledger.breakdown_dict()
    assert [b["core"], b["imem"], b["dmem"]] == expected


def test_uncompressed_needs_room_for_its_slots(config, isa, params):
    group = _group(isa, "nop+nop")
    last_ok = config.imem_words - config.vliw_slots
    program = Program.from_dict(
        {0: [BundleOp(group=group, addr=last_ok, pattern="zeros")]})
    run_program(config, params, program)
    with pytest.raises(ProgramError):
        run_program(config, params, Program.from_dict(
            {0: [BundleOp(group=group, addr=last_ok + 1, pattern="zeros")]}))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_program_json_round_trip(config, isa):
    program = _mixed_program(config, isa)
    doc = program_to_json(program)
    assert program_from_json(doc, isa) == program


@given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False),
                       min_size=len(LEDGER_COMPONENTS) + 1,
                       max_size=len(LEDGER_COMPONENTS) + 1))
def test_ledger_csv_returns_every_finite_value_bit_for_bit(values):
    ledger = EnergyLedger(total_pj=values[-1],
                          breakdown=tuple(zip(LEDGER_COMPONENTS, values)))
    read = ledger_from_csv(ledger.to_csv())
    assert [read[name].hex() for name in (*LEDGER_COMPONENTS, "total")] == [
        value.hex() for value in values]


def test_ledger_csv_round_trip(config, isa, params):
    _, ledger = run_program(config, params, _mixed_program(config, isa))
    values = ledger_from_csv(ledger.to_csv())
    assert values["total"] == ledger.total_pj
    for name, pj in ledger.breakdown:
        assert values[name] == pj
