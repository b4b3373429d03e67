"""Benchmark generation: counts, isolation, determinism."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enermod.benchgen import (
    DEFAULT_REPS,
    PROLOGUE_LEN,
    center_window,
    comm_campaign,
    gen_comm_benchmarks,
    gen_instruction_benchmarks,
    gen_position_benchmarks,
    gen_transition_benchmarks,
    instruction_campaign,
    make_baseline,
    make_idle_benchmark,
    make_sync_benchmark,
    manifest_csv,
    parse_manifest_csv,
    structural_diff,
)
from enermod.refsim import BundleOp, ProgramError, packet_energy, run_program
from enermod.sysconfig import (
    InstructionDef,
    enumerate_instruction_groups,
    group_by_label,
    manhattan,
    parse_config,
)


def _toy_isa():
    nop = InstructionDef(mnemonic="n", iclass="NOP", allowed_slots=frozenset((0, 1)))
    return [nop]


# ---------------------------------------------------------------------------
# instruction benchmarks
# ---------------------------------------------------------------------------

def test_toy_product_count(config):
    # 3 groups x 3 patterns
    benches = gen_instruction_benchmarks(_toy_isa(), config)
    assert len(benches) == 3 * 3


def test_shipped_isa_count_matches_enumerator(isa, config):
    benches = gen_instruction_benchmarks(isa, config)
    groups = enumerate_instruction_groups(isa, config.vliw_slots)
    assert len(benches) == len(groups) * 3
    # the paper-scale analog: a 155-instruction ISA yielding 20,093 groups
    # would produce 20,093 x 3 = 60,279 tests with the same machinery
    assert 20_093 * 3 == 60_279


def test_bodies_have_prologue_and_reps(isa, config):
    benches = gen_instruction_benchmarks(isa, config, reps=16)
    for bench in benches[:5]:
        ops = dict(bench.program.ops)[0]
        assert len(ops) == PROLOGUE_LEN + 16
        body = ops[PROLOGUE_LEN:]
        assert all(isinstance(op, BundleOp) for op in body)
        assert len({op.group.label for op in body}) == 1


def test_sweep_isolation(isa, config):
    # any two benchmarks of one sweep differ only in the swept variable
    benches = [b for b in gen_instruction_benchmarks(isa, config)
               if b.swept_dict()["pattern"] == "zeros"]
    a, b = benches[0], benches[1]
    diffs = structural_diff(a.program, b.program)
    assert diffs
    # diff paths look like /cpus/0/<op index>/bundle/...
    for path in diffs:
        assert "/bundle/" in path and int(path.split("/")[3]) >= PROLOGUE_LEN


def test_generation_is_deterministic(isa, config):
    first = gen_instruction_benchmarks(isa, config)
    second = gen_instruction_benchmarks(isa, config)
    assert [b.name for b in first] == [b.name for b in second]
    assert all(x.program == y.program for x, y in zip(first, second))


# ---------------------------------------------------------------------------
# position benchmarks
# ---------------------------------------------------------------------------

def test_position_sweep_800(isa, config):
    group = group_by_label(isa, 2, "nop+nop")
    benches = gen_position_benchmarks(config, group, 0, 799)
    assert len(benches) == 800
    addrs = [b.swept_dict()["addr"] for b in benches]
    assert addrs == list(range(800))


def test_position_single_address(isa, config):
    group = group_by_label(isa, 2, "nop+EMPTY")
    assert len(gen_position_benchmarks(config, group, 5, 5)) == 1


def test_position_sweep_reproduces_popcount_spread(isa, config, params):
    # oracle energies across the sweep differ exactly by the position term
    from enermod.refsim import fetch_position_energy

    group = group_by_label(isa, 2, "nop+EMPTY")
    benches = gen_position_benchmarks(config, group, 0, 63, reps=4)
    totals = {}
    for bench in benches:
        _, ledger = run_program(config, params, bench.program)
        totals[bench.swept_dict()["addr"]] = ledger.total_pj
    for addr in range(64):
        expected = 4 * (fetch_position_energy(params, config, addr, True)
                        - fetch_position_energy(params, config, 0, True))
        assert totals[addr] - totals[0] == pytest.approx(expected, abs=1e-9)


def test_position_range_checked(isa, config):
    group = group_by_label(isa, 2, "nop+nop")
    with pytest.raises(ProgramError):
        gen_position_benchmarks(config, group, 10, 9)
    with pytest.raises(ProgramError):
        gen_position_benchmarks(config, group, 0, config.imem_words)


# ---------------------------------------------------------------------------
# communication benchmarks
# ---------------------------------------------------------------------------

def test_default_sweep_has_256_points(send_sizes, config):
    benches = gen_comm_benchmarks(config, (0, 0), (1, 1), send_sizes)
    assert len(benches) == 256
    sizes = [b.swept_dict()["size"] for b in benches]
    assert sizes[0] == 4 and sizes[-1] == 1024


def test_single_size(config):
    benches = gen_comm_benchmarks(config, (0, 0), (1, 1), [8])
    assert len(benches) == 1


def test_center_window_16(send_sizes, config):
    benches = gen_comm_benchmarks(config, (0, 0), (1, 1), send_sizes)
    window = center_window(benches, 16)
    assert len(window) == 16
    sizes = [b.swept_dict()["size"] for b in window]
    assert sizes == list(range(484, 545, 4))


def test_off_mesh_rejected(config):
    with pytest.raises(Exception):
        gen_comm_benchmarks(config, (0, 0), (5, 5), [8])


MESHES = {"default": "", "mesh3": '{"mesh_cols": 3, "mesh_rows": 3}'}


@pytest.mark.parametrize("mesh", sorted(MESHES))
@settings(max_examples=3, deadline=None)
@given(data=st.data())
def test_comm_sweep_energy_is_prologue_plus_packets(params, mesh, data):
    # every ordered cluster pair, the crossbar route (src == dst) included:
    # the oracle's dynamic energy is the prologue's syncs plus reps packets
    config = parse_config(MESHES[mesh])
    clusters = config.all_clusters()
    for src in clusters:
        for dst in clusters:
            size = data.draw(st.integers(1, 1024), label="size")
            reps = data.draw(st.integers(1, 3), label="reps")
            [bench] = gen_comm_benchmarks(config, src, dst, [size], reps=reps)
            assert bench.name == f"comm/h{manhattan(src, dst)}/{size}"
            dst_cpu = config.cpu_id(dst, 1 if src == dst else 0)
            assert sorted(dict(bench.program.ops)) == sorted(
                [config.cpu_id(src, 0), dst_cpu])
            trace, ledger = run_program(config, params, bench.program)
            dynamic = ledger.total_pj - params.static_pj(config, trace.duration)
            expected = (PROLOGUE_LEN * params["sync"]
                        + reps * packet_energy(params, config, src, dst, size))
            assert dynamic == pytest.approx(expected, rel=1e-12)


def test_crossbar_sweep_needs_two_cpus(tiny_config):
    with pytest.raises(ProgramError, match="two CPUs"):
        gen_comm_benchmarks(tiny_config, (0, 0), (0, 0), [8])


# ---------------------------------------------------------------------------
# calibration and campaign assembly
# ---------------------------------------------------------------------------

def test_campaign_includes_calibration(isa, config):
    campaign = instruction_campaign(isa, config)
    names = [b.name for b in campaign]
    assert names[0] == "cal/idle" and names[1] == "cal/baseline"
    groups = enumerate_instruction_groups(isa, config.vliw_slots)
    assert len(campaign) == 2 + len(groups) * 3


def test_comm_campaign_puts_the_instruction_calibration_and_sync_first(
        isa, config):
    sweep = gen_comm_benchmarks(config, (0, 0), (1, 1), [8, 16])
    campaign = comm_campaign(isa, config, sweep)
    assert [b.name for b in campaign] == [
        "cal/idle", "cal/baseline", "cal/sync", "comm/h2/8", "comm/h2/16"]
    assert campaign[:2] == instruction_campaign(isa, config)[:2]
    assert campaign[3:] == sweep


def test_baseline_is_prologue_only(isa, config):
    base = make_baseline(isa, config)
    ops = dict(base.program.ops)[0]
    assert len(ops) == PROLOGUE_LEN


def test_idle_benchmark_has_no_ops(config):
    idle = make_idle_benchmark(config)
    assert dict(idle.program.ops) == {}
    assert idle.program.min_cycles > 0


def test_sync_benchmark_reps(isa, config):
    bench = make_sync_benchmark(isa, config)
    ops = dict(bench.program.ops)[0]
    assert len(ops) == PROLOGUE_LEN + DEFAULT_REPS


def test_transition_benchmarks_cover_all_pairs(isa, config):
    groups = enumerate_instruction_groups(isa, config.vliw_slots)
    states = groups[:4]
    benches = gen_transition_benchmarks(states, config, reps=8)
    assert len(benches) == 16
    # warmup brings the component into the pair's source state
    for bench in benches:
        ops = dict(bench.program.ops)[0]
        src = bench.swept_dict()["src"]
        assert all(op.group.label == src for op in ops[:PROLOGUE_LEN])
        assert len(ops) == PROLOGUE_LEN + 2 * 8


def test_manifest_round_trip(isa, config):
    campaign = instruction_campaign(isa, config)[:10]
    rows = parse_manifest_csv(manifest_csv(campaign))
    assert [name for name, _ in rows] == [b.name for b in campaign]
    assert all(f.endswith(".json") for _, f in rows)


def test_degenerate_descriptor_yields_one_benchmark(tmp_path):
    # gen-bench --kind comm takes the sizes it is not given from the API
    from enermod import data_path
    from enermod.cli import main

    api = tmp_path / "api.json"
    api.write_text('[{"name": "send", "params": {"min": 8, "max": 8, "step": 1}}]')
    assert main(["gen-bench", "--kind", "comm", "--api", str(api),
                 "--config", data_path("default_config.json"),
                 "--isa", data_path("isa.json"), "--out", str(tmp_path)]) == 0
    rows = parse_manifest_csv((tmp_path / "benchmarks" / "manifest.csv").read_text())
    assert [name for name, _ in rows if name.startswith("comm/")] == ["comm/h2/8"]
