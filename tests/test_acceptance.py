"""Acceptance criteria for the toolkit, one test per criterion.

Each test prints a PASS/FAIL line; run with `pytest tests/test_acceptance.py -v -s`.
The oracle is synthetic ground truth, so every check is structural or
relative: exact recovery, error orderings, sweep shapes, reductions, and
determinism at the stated tolerances.
"""

import filecmp
import itertools
import os
import time
import warnings

import pytest

from enermod import data_path
from enermod.benchgen import (
    BODY_ADDR,
    comm_campaign,
    gen_comm_benchmarks,
    gen_transition_benchmarks,
    instruction_campaign,
    make_idle_benchmark,
)
from enermod.dse import (
    Actor,
    AnnealSchedule,
    Channel,
    DataflowGraph,
    Partition,
    anneal_restarts,
    evaluate_partition,
)
from enermod.estimator import estimate
from enermod.modelfit import (
    REDUCER_LINEAR,
    REDUCER_STAIRCASE,
    fit_packet_reducers,
    fit_reducer,
    reduce_noc_model,
)
from enermod.pipeline import (
    comm_benchmarks_per_hop,
    fit_campaign,
    merge_models,
    run_campaign,
)
from enermod.refsim import (
    DATA_PATTERNS,
    BundleOp,
    Program,
    SendOp,
    bundle_energy,
    fetch_position_energy,
    run_program,
)
from enermod.statetrace import (
    active_idle_function,
    binary_usage_function,
    instruction_model_function,
    noc_hop_function,
    noc_pair_function,
    transition_function,
)
from enermod.sysconfig import (
    enumerate_instruction_groups,
    n_flits,
    parse_config,
)
from enermod.workloads import synthetic_applications


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {criterion}: {status}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# shared artifacts (built once)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def instr_campaign_runs(config, isa, params):
    start = time.perf_counter()
    runs = run_campaign(instruction_campaign(isa, config, reps=64),
                        config, params)
    return runs, time.perf_counter() - start


@pytest.fixture(scope="module")
def comm_runs(config, isa, api, params):
    return run_campaign(comm_benchmarks_per_hop(api, config, isa),
                        config, params)


@pytest.fixture(scope="module")
def fine_model(instr_campaign_runs):
    runs, _ = instr_campaign_runs
    model, report = fit_campaign(runs, instruction_model_function())
    return model, report


@pytest.fixture(scope="module")
def simplified_model(fine_model, comm_runs, config):
    comm_model, _ = fit_campaign(comm_runs, noc_hop_function())
    comm_model = fit_packet_reducers(comm_model, REDUCER_STAIRCASE,
                                     config.flit_payload_bytes)
    return merge_models(fine_model[0], comm_model)


@pytest.fixture(scope="module")
def app_runs(config, isa, params):
    return [(name, run_program(config, params, program))
            for name, program in synthetic_applications(config, isa)]


def _app_errors(model, app_runs):
    rels = []
    for _name, (trace, ledger) in app_runs:
        est = estimate(trace, model).total_pj
        rels.append(abs(est - ledger.total_pj) / ledger.total_pj)
    return sum(rels) / len(rels), max(rels)


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_1_exact_recovery(instr_campaign_runs, fine_model):
    runs, campaign_s = instr_campaign_runs
    model, report = fine_model
    start = time.perf_counter()
    worst = 0.0
    for run in runs:
        truth = run.ledger.total_pj
        if truth == 0.0:
            continue
        est = estimate(run.trace, model).total_pj
        worst = max(worst, abs(est - truth) / truth)
    elapsed = campaign_s + (time.perf_counter() - start)
    _report("1 exact-recovery",
            worst <= 1e-6 and elapsed < 120.0,
            f"{len(runs)} benchmarks, worst rel err {worst:.2e}, "
            f"{elapsed:.1f}s")


def test_criterion_2_held_out_validation(simplified_model, app_runs):
    mean, worst = _app_errors(simplified_model, app_runs)
    _report("2 held-out-validation",
            mean <= 0.05 and worst <= 0.10,
            f"mean {mean * 100:.2f}% (<=5%), max {worst * 100:.2f}% (<=10%)")


def test_shipped_instruction_fit_is_identifiable(fine_model, config, isa, params):
    """The campaign determines every key of the fine fit, and each group
    constant is the oracle's bundle energy, data-memory access included."""
    model, report = fine_model
    assert report.rank == report.n_unknowns
    assert report.negative_keys == []
    expected = {}
    for group in enumerate_instruction_groups(isa, config.vliw_slots):
        for pattern in DATA_PATTERNS:
            op = BundleOp(group=group, addr=BODY_ADDR, pattern=pattern)
            expected[f"group:{group.label}/pat:{pattern}"] = bundle_energy(
                params, config, op)
    fitted = {k: v for k, v in model.constants.items() if k.startswith("group:")}
    assert sorted(fitted) == sorted(expected)
    for key, value in expected.items():
        assert fitted[key] == pytest.approx(value, rel=1e-6), key


def test_criterion_3_staircase_dominance(config, params):
    src_cpu = config.cpu_id((0, 0), 0)
    dst_cpu = config.cpu_id((1, 1), 0)
    points = []
    for size in range(4, 1025, 4):
        program = Program.from_dict(
            {src_cpu: [SendOp(dst_cpu=dst_cpu, size_bytes=size)]})
        _, ledger = run_program(config, params, program)
        points.append((size, ledger.total_pj))
    lo = (len(points) - 16) // 2
    window = points[lo:lo + 16]

    def max_abs_error(reducer):
        """Over all 256 sizes, at the price the model runs."""
        return max(abs(reducer.evaluate_key(f"noc/hops:2/size:{s}") - e) for s, e in points)

    linear = max_abs_error(fit_reducer(REDUCER_LINEAR, "noc/hops:2", window, None))
    stair = max_abs_error(fit_reducer(REDUCER_STAIRCASE, "noc/hops:2", window,
                                      config.flit_payload_bytes))
    # steps sit exactly at flit boundaries: energy changes iff ceil changes
    shape_ok = True
    for (s1, e1), (s2, e2) in zip(points, points[1:]):
        changed = n_flits(s2, 8) != n_flits(s1, 8)
        shape_ok &= (e2 > e1) if changed else (e2 == e1)
        if changed:
            shape_ok &= s1 % 8 == 0
    _report("3 staircase-dominance",
            stair <= linear and stair <= 1e-9 and shape_ok,
            f"staircase {stair:.2e} pJ <= linear {linear:.2f} pJ, steps at 8-byte bounds")


def test_criterion_4_hop_reduction(isa, params):
    config = parse_config('{"mesh_cols": 3, "mesh_rows": 3}')
    sizes = [16, 64]
    clusters = config.all_clusters()
    pairs = [(s, d) for s in clusters for d in clusters if s != d]
    benches = comm_campaign(isa, config, [
        bench for src, dst in pairs
        for bench in gen_comm_benchmarks(config, src, dst, sizes, reps=4)])
    runs = run_campaign(benches, config, params)
    full, _ = fit_campaign(runs, noc_pair_function())
    pair_keys = sum(1 for k in full.constants if k.startswith("noc/src"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # 1e-9 agreement, no averaging
        reduced = reduce_noc_model(full)
    hop_keys = [k for k in reduced.constants if k.startswith("noc/hops")]
    worst = 0.0
    for run in runs:
        est = estimate(run.trace, reduced).total_pj
        worst = max(worst, abs(est - run.ledger.total_pj))
    _report("4 hop-reduction",
            len(pairs) == 72 and pair_keys == 72 * len(sizes)
            and len(hop_keys) <= 5 * len(sizes) and worst <= 1e-9,
            f"{pair_keys} pair keys -> {len(hop_keys)} hop keys, "
            f"worst abs err {worst:.2e} pJ (<= 1e-9)")


def test_criterion_5_comprehensive_solvability(config, isa, params):
    groups = enumerate_instruction_groups(isa, config.vliw_slots)
    by_label = {g.label: g for g in groups}
    states = [by_label[l] for l in ("nop+nop", "add+add", "vadd+vadd",
                                    "add+mul")]
    benches = gen_transition_benchmarks(states, config, reps=16)
    n_meas = len(benches)
    benches.append(make_idle_benchmark(config))
    runs = run_campaign(benches, config, params)
    model, report = fit_campaign(runs, transition_function())
    _report("5 comprehensive-solvability",
            n_meas == 16 and not report.rank_deficient
            and len(model.constants) == 16
            and report.max_abs_error_pj <= 1e-9,
            f"n_meas = 4x4, rank {report.rank}/{report.n_unknowns}, "
            f"max |resid| {report.max_abs_error_pj:.2e} pJ")


def test_criterion_6_imem_spatial_sweep(tmp_path, config, params):
    from enermod.cli import main

    rc = main(["sweep-imem", "--lo", "0", "--hi", "799",
               "--config", data_path("default_config.json"),
               "--isa", data_path("isa.json"),
               "--params", data_path("oracle_params.json"),
               "--out", str(tmp_path)])
    assert rc == 0
    rows = (tmp_path / "reports" / "sweep_imem.csv").read_text().splitlines()[1:]
    comp, unc = {}, {}
    for row in rows:
        addr, _pop, c, u = row.split(",")
        comp[int(addr)] = float(c)
        unc[int(addr)] = float(u)
    # popcount structure holds exactly at every address
    exact = all(
        comp[a] - comp[0] == pytest.approx(
            fetch_position_energy(params, config, a, True), abs=1e-12)
        and unc[a] - unc[0] == pytest.approx(
            fetch_position_energy(params, config, a, False), abs=1e-12)
        for a in range(800))
    comp_range = max(comp.values()) - min(comp.values())
    unc_range = max(unc.values()) - min(unc.values())
    _report("6 imem-spatial-sweep",
            exact and comp_range >= unc_range and comp_range > 0,
            f"1-slot range {comp_range:.2f} pJ >= 2-slot range "
            f"{unc_range:.2f} pJ, popcount spread exact")


def test_criterion_7_abstraction_monotonicity(instr_campaign_runs, comm_runs,
                                              fine_model, simplified_model,
                                              app_runs):
    instr_runs, _ = instr_campaign_runs
    runs = instr_runs + comm_runs
    ai_model, _ = fit_campaign(runs, active_idle_function())
    bin_model, _ = fit_campaign(runs, binary_usage_function())
    mean_fine, _ = _app_errors(simplified_model, app_runs)
    mean_ai, _ = _app_errors(ai_model, app_runs)
    mean_bin, _ = _app_errors(bin_model, app_runs)
    _report("7 abstraction-monotonicity",
            mean_fine <= mean_ai <= mean_bin,
            f"fine {mean_fine * 100:.2f}% <= active/idle {mean_ai * 100:.2f}% "
            f"<= binary {mean_bin * 100:.2f}%")


def test_criterion_8_dse_optimality(config, simplified_model):
    model = simplified_model
    graph = DataflowGraph(
        actors=(
            Actor("src", (("group:add+add/pat:zeros", 40),
                          ("group:ldw+mul/pat:zeros", 10))),
            Actor("f1", (("group:vadd+vmul/pat:zeros", 60),)),
            Actor("f2", (("group:add+mac/pat:zeros", 50),)),
            Actor("sink", (("group:xor+nop/pat:zeros", 30),)),
        ),
        channels=(Channel("src", "f1", 256), Channel("f1", "f2", 512),
                  Channel("f2", "sink", 128)),
    )
    start = time.perf_counter()
    ids = [a.id for a in graph.actors]
    clones = tuple(sorted((a, 1) for a in ids))
    best = None
    for g in (1, 2, 4):
        for cpus in itertools.product(range(config.n_cpus), repeat=len(ids)):
            p = Partition(assignment=tuple(sorted(zip(ids, cpus))),
                          clones=clones, granularity=g)
            score = evaluate_partition(graph, p, config, model)
            if score.feasible:
                cost = score.cost()
                best = cost if best is None else min(best, cost)
    result = anneal_restarts(graph, config, model,
                             [AnnealSchedule(seed=seed) for seed in range(8)],
                             g_max=4, clone_max=1)
    elapsed = time.perf_counter() - start
    annealed = result.best_score.cost()
    _report("8 dse-optimality",
            abs(annealed - best) <= 1e-9 * best and elapsed < 60.0,
            f"annealed {annealed:.2f} == brute force {best:.2f}, "
            f"{elapsed:.1f}s")


def test_criterion_9_determinism_and_conservation(tmp_path, config, isa,
                                                  params, app_runs,
                                                  simplified_model):
    from enermod.cli import main

    def pipeline(out, workers):
        base = ["--config", data_path("default_config.json"), "--out", str(out)]
        assert main(["gen-bench", "--kind", "comm", "--min", "8", "--max",
                     "64", "--step", "8", "--api", data_path("api.json")]
                    + base) == 0
        assert main(["oracle", "--params", data_path("oracle_params.json"),
                     "--isa", data_path("isa.json"),
                     "--workers", str(workers)] + base) == 0
        assert main(["fit", "--function", "noc-hop", "--name", "noc"] + base) == 0

    outs = [tmp_path / "r1", tmp_path / "r2", tmp_path / "r4"]
    for out, workers in zip(outs, (1, 1, 4)):
        pipeline(out, workers)
    identical = True
    reference = outs[0]
    for other in outs[1:]:
        for dirpath, _dirs, files in os.walk(reference):
            rel = os.path.relpath(dirpath, reference)
            for name in files:
                a = os.path.join(dirpath, name)
                b = os.path.join(other, rel, name)
                identical &= filecmp.cmp(a, b, shallow=False)

    conserved = True
    for _name, (trace, ledger) in app_runs:
        total = sum(v for _, v in ledger.breakdown)
        conserved &= abs(total - ledger.total_pj) <= 1e-9 * max(1.0, ledger.total_pj)
        est = estimate(trace, simplified_model)
        conserved &= abs(sum(est.breakdown.values()) - est.total_pj) \
            <= 1e-9 * max(1.0, abs(est.total_pj))
    _report("9 determinism-conservation",
            identical and conserved,
            "byte-identical artifacts across reruns and worker counts; "
            "ledger and estimate breakdowns sum to totals")
