"""Estimation, coverage, additivity, and oracle-backed validation."""

import gc
import hashlib
import json
import time
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enermod.estimator import estimate, validate
from enermod.modelfit import (
    REDUCER_STAIRCASE,
    EnergyModel,
    fit_packet_reducers,
    load_model,
    model_to_json,
)
from enermod.pipeline import (
    build_simplified_model,
    comm_benchmarks_per_hop,
    fit_campaign,
    run_campaign,
)
from enermod.benchgen import instruction_campaign
from enermod.refsim import Program, SendOp, run_program
from enermod.statetrace import (
    Trace,
    active_idle_function,
    builtin_function,
    component_class,
    identity_function,
    instruction_model_function,
    noc_hop_function,
    transition_function,
)
from enermod.workloads import synthetic_applications
from enermod.sysconfig import n_flits

from conftest import expand


@pytest.fixture(scope="module")
def instr_runs(config, isa, params):
    return run_campaign(instruction_campaign(isa, config, reps=16),
                        config, params)


@pytest.fixture(scope="module")
def fine_model(instr_runs):
    model, report = fit_campaign(instr_runs, instruction_model_function())
    assert report.max_abs_error_pj < 1e-6
    return model


def test_training_set_reestimated_exactly(instr_runs, fine_model):
    for run in instr_runs:
        est = estimate(run.trace, fine_model)
        truth = run.ledger.total_pj
        if truth == 0.0:
            continue
        assert abs(est.total_pj - truth) / truth < 1e-6
        assert est.coverage == 1.0


def test_empty_trace_static_only(fine_model):
    est = estimate(Trace(events=()), fine_model)
    assert est.total_pj == 0.0
    assert est.coverage == 1.0
    assert est.missing_keys == []


def test_breakdown_sums_to_total(instr_runs, fine_model):
    for run in instr_runs[:10]:
        est = estimate(run.trace, fine_model)
        assert sum(est.breakdown.values()) == pytest.approx(est.total_pj,
                                                            rel=1e-9)


def test_missing_keys_lower_coverage(fine_model, config, isa, params):
    # a packet event has no constant in the instruction-only model
    program = Program.from_dict(
        {0: [SendOp(dst_cpu=config.n_cpus - 1, size_bytes=64)]})
    trace, _ = run_program(config, params, program)
    est = estimate(trace, fine_model)
    assert est.coverage < 1.0
    assert any(k.startswith("noc/") for k in est.missing_keys)


def test_estimate_additive_over_concat(config, isa, params, fine_model):
    from enermod.benchgen import gen_instruction_benchmarks

    benches = gen_instruction_benchmarks(isa, config, reps=4)[:6]
    traces = [run_program(config, params, b.program)[0] for b in benches]
    t12 = traces[0].concat(traces[1])
    e1 = estimate(traces[0], fine_model)
    e2 = estimate(traces[1], fine_model)
    e12 = estimate(t12, fine_model)
    # durations add under concat, so totals add exactly
    assert e12.total_pj == pytest.approx(e1.total_pj + e2.total_pj, rel=1e-9)


def _fresh(model):
    """A copy of a model with its own, empty key memos."""
    return replace(model, function=replace(model.function))


@settings(max_examples=8, deadline=None)
@given(seeds=st.lists(st.integers(0, 10**6), min_size=2, max_size=3))
def test_one_model_estimates_like_a_fresh_model_per_trace(config, isa, params,
                                                          fine_model, seeds):
    """A model's function keeps its keys across traces: estimating the
    traces one by one with one model gives each trace's estimate by a
    fresh copy of the model."""
    traces = [run_program(config, params, program)[0] for seed in seeds
              for _name, program in synthetic_applications(config, isa, seed=seed)]
    others = [EnergyModel(fn, {"cpu/active": 2.0, "cpu/idle": 0.5, "router/active": 1.0},
                          static_pj_per_cycle=0.25)
              for fn in (active_idle_function(), identity_function(), transition_function())]
    for model in (fine_model, *others):
        shared = _fresh(model)
        assert ([estimate(trace, shared) for trace in traces]
                == [estimate(trace, _fresh(model)) for trace in traces])


def _per_cycle_estimate(trace, model):
    """The estimate as one addition per event of the per-cycle trace, in
    canonical order."""
    breakdown = {}
    for event in expand(trace):
        key = model.function.key_for_event(event)
        pj = None if key is None else model.energy_of_key(key)
        if pj is not None:
            bucket = component_class(event.component)
            breakdown[bucket] = breakdown.get(bucket, 0.0) + pj
    static = model.static_pj_per_cycle * trace.duration
    if static:
        breakdown["static"] = breakdown.get("static", 0.0) + static
    return sum(breakdown.values())


@pytest.mark.parametrize("name", ["instruction-fine", "noc-pair", "noc-hop",
                                  "identity", "active-idle", "binary-usage"])
def test_estimate_equals_the_per_cycle_sum(config, isa, api, params, name):
    runs = run_campaign(comm_benchmarks_per_hop(api, config, isa),
                        config, params)
    model, _ = fit_campaign(runs, builtin_function(name))
    traces = [run.trace for run in runs]
    traces += [run_program(config, params, program)[0]
               for _name, program in synthetic_applications(config, isa)]
    for trace in traces:
        got = estimate(trace, model).total_pj
        if all(e.length == 1 for e in trace.events
               if model.function.key_for_event(e) is not None):
            # every kept record is one cycle, so the additions and their
            # order are unchanged
            assert got == _per_cycle_estimate(trace, model)
        else:
            # a record adds pj * length where the per-cycle sum adds pj
            # length times, and in another order
            assert got == pytest.approx(_per_cycle_estimate(trace, model), rel=1e-12, abs=0)


# SHA-256 of the total and the breakdown of each held-out application of
# seeds 1000-1003 under build_simplified_model's model: a change to how a
# trace holds its cycles must not move an estimate of these traces.
_HELDOUT_ESTIMATES_SHA256 = "98a5a5af35ffe961525303f4a57862879b9ea8b93b22c90907bccd22bb0903df"


def test_heldout_estimates_are_pinned(config, isa, api, params):
    model, _ = build_simplified_model(config, isa, api, params)
    digest = hashlib.sha256()
    for seed in range(1000, 1004):
        for name, program in synthetic_applications(config, isa, seed=seed):
            est = estimate(run_program(config, params, program)[0], model)
            digest.update(repr((name, est.total_pj, est.breakdown)).encode())
    assert digest.hexdigest() == _HELDOUT_ESTIMATES_SHA256


def test_a_model_file_holding_group_means_estimates_bit_equal(
        fine_model, config, isa, params, tmp_path):
    """Model files once carried provenance.group_means, per-group averages
    of their own constants.  A fit no longer writes them, and the loader
    takes the provenance whole, so a file that holds them still loads and
    estimates bit for bit as the file without them."""
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model_to_json(fine_model)), encoding="utf-8")
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert "group_means" not in doc["provenance"]
    doc["provenance"]["group_means"] = {"add+add": 1.5, "nop+nop": 0.25}
    legacy_path = tmp_path / "legacy.json"
    legacy_path.write_text(json.dumps(doc), encoding="utf-8")
    model, legacy = load_model(str(path)), load_model(str(legacy_path))
    assert legacy.provenance["group_means"] == {"add+add": 1.5, "nop+nop": 0.25}
    for _name, program in synthetic_applications(config, isa, seed=1000):
        trace = run_program(config, params, program)[0]
        got, want = estimate(trace, legacy), estimate(trace, model)
        assert repr((got.total_pj, got.breakdown, got.contributions)) == repr(
            (want.total_pj, want.breakdown, want.contributions))


def test_staircase_model_closed_form(config, isa, api, params):
    runs = run_campaign(comm_benchmarks_per_hop(api, config, isa),
                        config, params)
    model, _ = fit_campaign(runs, noc_hop_function())
    model = fit_packet_reducers(model, REDUCER_STAIRCASE,
                                config.flit_payload_bytes)
    # estimate a fresh packet trace; per packet: sync + a + b*ceil(size/flit)
    src = config.cpu_id((0, 0), 0)
    dst = config.cpu_id((1, 1), 0)
    for size in (20, 100, 1000):
        program = Program.from_dict(
            {src: [SendOp(dst_cpu=dst, size_bytes=size)]})
        trace, ledger = run_program(config, params, program)
        est = estimate(trace, model)
        reducer = model.reducer_for("noc/hops:2/size:0")
        expected = (model.constants["sync"]
                    + reducer.a + reducer.b * n_flits(size, 8)
                    + model.static_pj_per_cycle * trace.duration)
        assert est.total_pj == pytest.approx(expected, rel=1e-9)
        assert est.total_pj == pytest.approx(ledger.total_pj, rel=1e-9)


def test_validation_training_recall(config, isa, params, instr_runs, fine_model):
    report = validate(fine_model, [(r.benchmark.name, r.benchmark.program)
                                  for r in instr_runs[:40]],
                      config, params)
    assert report.mean_rel_error <= 1e-6
    assert report.mean_rel_error <= report.max_rel_error


def test_low_energy_benchmarks_excluded(config, isa, params, fine_model):
    # an empty program runs no cycle, so its 0 pJ fall below the 1 pJ floor
    report = validate(fine_model, [("empty", Program.from_dict({}))], config,
                      params)
    assert report.excluded == ["empty"]
    assert report.rows == []


def test_estimation_faster_than_oracle(config, isa, api, params):
    model, _ = build_simplified_model(config, isa, api, params)
    from enermod.workloads import synthetic_applications

    apps = synthetic_applications(config, isa)
    # A full collection of the whole suite's heap takes tens of
    # milliseconds, as long as either window; keep it out of both.
    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        runs = [(name, run_program(config, params, p)) for name, p in apps]
        t_oracle = time.perf_counter() - t0
        t0 = time.perf_counter()
        for _name, (trace, _ledger) in runs:
            estimate(trace, model)
        t_estimate = time.perf_counter() - t0
    finally:
        gc.enable()
    assert t_estimate < t_oracle


def test_zero_truth_benchmark_excluded(config, fine_model, params):
    # an empty program measures nothing at all
    report = validate(fine_model, [("empty", Program.from_dict({}))],
                      config, params)
    assert report.excluded == ["empty"]
    assert report.rows == []


def test_transition_model_estimates_exactly(config, isa, params):
    from enermod.benchgen import gen_transition_benchmarks, make_idle_benchmark
    from enermod.sysconfig import enumerate_instruction_groups

    groups = enumerate_instruction_groups(isa, config.vliw_slots)[:3]
    benches = gen_transition_benchmarks(groups, config, reps=8)
    benches.append(make_idle_benchmark(config))
    runs = run_campaign(benches, config, params)
    model, _ = fit_campaign(runs, transition_function())
    for run in runs:
        if run.ledger.total_pj == 0.0:
            continue
        est = estimate(run.trace, model)
        assert est.total_pj == pytest.approx(run.ledger.total_pj, rel=1e-9)
        assert est.coverage == 1.0
