"""Constant fitting, packet-size regressions, and NoC reduction."""

import json
import warnings
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enermod.modelfit import (
    EnergyModel,
    FitError,
    REDUCER_LINEAR,
    REDUCER_STAIRCASE,
    Reducer,
    fit_constants,
    fit_linear,
    fit_packet_reducers,
    fit_staircase,
    load_model,
    model_from_json,
    model_to_json,
    reduce_noc_model,
    save_model,
)
from enermod.pipeline import fit_campaign, run_campaign
from enermod.refsim import BundleOp, Program, bundle_energy, run_program
from enermod.statetrace import (
    StateCountVector,
    abstract_trace,
    instruction_model_function,
    noc_pair_function,
    transition_function,
)
from enermod.sysconfig import enumerate_instruction_groups


def _vec(counts, duration=0):
    return StateCountVector(counts=counts, duration=duration)


# ---------------------------------------------------------------------------
# fit_constants
# ---------------------------------------------------------------------------

def test_single_observation_exact():
    model, report = fit_constants([(_vec({"A": 1}), 5.0)],
                                  instruction_model_function())
    assert model.constants["A"] == pytest.approx(5.0)
    assert report.max_abs_error_pj == pytest.approx(0.0, abs=1e-12)


def test_fit_requires_observations():
    with pytest.raises(FitError):
        fit_constants([], instruction_model_function())


def test_fit_is_deterministic():
    obs = [(_vec({"A": 2, "B": 1}, 10), 30.0), (_vec({"B": 3}, 12), 21.0),
           (_vec({"A": 1}, 5), 11.0)]
    m1, r1 = fit_constants(obs, instruction_model_function())
    m2, r2 = fit_constants(obs, instruction_model_function())
    assert m1.constants == m2.constants
    assert r1.residuals == r2.residuals


def test_rank_deficiency_flagged_min_norm():
    # A and B always co-occur: one degree of freedom is free
    obs = [(_vec({"A": 1, "B": 1}), 10.0), (_vec({"A": 2, "B": 2}), 20.0)]
    model, report = fit_constants(obs, instruction_model_function())
    assert report.rank_deficient
    # minimum-norm solution still reproduces the training data
    assert report.max_abs_error_pj < 1e-9
    assert model.constants["A"] == pytest.approx(model.constants["B"])


def test_negative_constants_flagged():
    obs = [(_vec({"A": 1}), -2.0)]
    model, report = fit_constants(obs, instruction_model_function())
    assert report.negative_keys == ["A"]
    assert model.provenance["signed_constants"]


def test_recovers_oracle_group_energies(tiny_config, isa, params):
    """Observations from single-bundle programs plus an idle calibration run
    recover the per-group constants implied by the oracle parameters, the
    data-memory access of a memory group included."""
    fn = instruction_model_function()
    groups = enumerate_instruction_groups(isa, 2)[::6]
    assert {g.accesses_dmem for g in groups} == {False, True}
    observations = []
    idle = Program.from_dict({}, min_cycles=16)
    trace, ledger = run_program(tiny_config, params, idle)
    observations.append((abstract_trace(trace, fn), ledger.total_pj))
    expected = {}
    for group in groups:
        for pattern in ("zeros", "ones", "alt"):
            op = BundleOp(group=group, addr=0, pattern=pattern)
            program = Program.from_dict({0: [op]})
            trace, ledger = run_program(tiny_config, params, program)
            observations.append((abstract_trace(trace, fn), ledger.total_pj))
            expected[f"group:{group.label}/pat:{pattern}"] = \
                bundle_energy(params, tiny_config, op)
    model, report = fit_constants(observations, fn)
    assert not report.rank_deficient
    assert model.static_pj_per_cycle == pytest.approx(
        params.static_pj(tiny_config, 1), rel=1e-9)
    for key, value in expected.items():
        assert model.constants[key] == pytest.approx(value, rel=1e-6)


def test_comprehensive_transition_model_full_rank(config, isa, params):
    """n_states x n_states pair benchmarks determine all transition
    constants: full rank, zero residual."""
    from enermod.benchgen import gen_transition_benchmarks, make_idle_benchmark

    groups = enumerate_instruction_groups(isa, config.vliw_slots)
    by_label = {g.label: g for g in groups}
    states = [by_label[l] for l in ("nop+nop", "add+add", "vadd+vadd", "add+mul")]
    benches = gen_transition_benchmarks(states, config, reps=16)
    assert len(benches) == 4 * 4
    benches.append(make_idle_benchmark(config))
    runs = run_campaign(benches, config, params)
    fn = transition_function()
    model, report = fit_campaign(runs, fn)
    assert not report.rank_deficient
    assert report.rank == 17  # 16 transitions + static
    assert len(model.constants) == 16
    assert report.max_abs_error_pj < 1e-8


# ---------------------------------------------------------------------------
# fit_linear / fit_staircase
# ---------------------------------------------------------------------------

def test_linear_exact_line():
    a, b, report = fit_linear([(0, 1), (8, 3), (16, 5)])
    assert a == pytest.approx(1.0)
    assert b == pytest.approx(0.25)
    assert report.max_abs_error_pj == pytest.approx(0.0, abs=1e-12)


def test_linear_underdetermined():
    with pytest.raises(FitError, match="all sizes equal"):
        fit_linear([(8, 3), (8, 5)])


def test_staircase_two_step_exact():
    a, b, report = fit_staircase([(4, 10), (8, 10), (12, 14)], 8)
    assert a == pytest.approx(6.0)
    assert b == pytest.approx(4.0)
    assert report.max_abs_error_pj == pytest.approx(0.0, abs=1e-12)


def test_staircase_single_flit_count_underdetermined():
    with pytest.raises(FitError, match="single flit count"):
        fit_staircase([(4, 10), (6, 10)], 8)


def test_window_fit_reports_over_all_points():
    points = [(s, 2.0 + 0.5 * s) for s in range(0, 100, 4)]
    points.append((200, 300.0))  # far outlier outside the window
    a, b, report = fit_linear(points, window=points[:10])
    assert a == pytest.approx(2.0)
    assert b == pytest.approx(0.5)
    assert report.max_abs_error_pj == pytest.approx(300.0 - (2.0 + 0.5 * 200))


def _oracle_sweep(config, params, sizes):
    from enermod.refsim import SendOp

    src_cpu = config.cpu_id((0, 0), 0)
    dst_cpu = config.cpu_id((1, 1), 0)
    points = []
    for size in sizes:
        program = Program.from_dict(
            {src_cpu: [SendOp(dst_cpu=dst_cpu, size_bytes=size)]})
        _, ledger = run_program(config, params, program)
        points.append((size, ledger.total_pj))
    return points


def test_staircase_dominates_linear_on_oracle_sweep(config, params):
    points = _oracle_sweep(config, params, range(4, 1025, 4))
    lo = (len(points) - 16) // 2
    window = points[lo:lo + 16]
    a_l, b_l, rep_l = fit_linear(points, window=window)
    a_s, b_s, rep_s = fit_staircase(points, config.flit_payload_bytes,
                                    window=window)
    assert rep_s.max_abs_error_pj <= rep_l.max_abs_error_pj
    assert rep_s.max_abs_error_pj < 1e-9
    assert rep_l.max_abs_error_pj > 0
    # the linear fit errs by less than one staircase step amplitude
    assert rep_l.max_abs_error_pj <= b_s


# ---------------------------------------------------------------------------
# NoC reduction
# ---------------------------------------------------------------------------

def _pair_model_2x2(config, isa, params):
    from enermod.benchgen import comm_campaign, gen_comm_benchmarks

    clusters = config.all_clusters()
    benches = comm_campaign(isa, config, [
        bench for src in clusters for dst in clusters if src != dst
        for bench in gen_comm_benchmarks(config, src, dst, [16], reps=4)])
    runs = run_campaign(benches, config, params)
    model, report = fit_campaign(runs, noc_pair_function())
    return model, report, runs


def test_reduce_2x2_pairs_to_two_hop_keys(config, isa, params):
    model, report, _ = _pair_model_2x2(config, isa, params)
    assert not report.rank_deficient
    pair_keys = [k for k in model.constants if k.startswith("noc/src")]
    assert len(pair_keys) == 12  # ordered distinct cluster pairs on 2x2
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # agreement must hold, no averaging
        reduced = reduce_noc_model(model)
    hop_keys = sorted(k for k in reduced.constants if k.startswith("noc/hops"))
    assert hop_keys == ["noc/hops:1/size:16", "noc/hops:2/size:16"]


def test_reduced_model_reproduces_pair_energies(config, isa, params):
    from enermod.estimator import estimate

    model, _, runs = _pair_model_2x2(config, isa, params)
    reduced = reduce_noc_model(model)
    for run in runs:
        truth = run.ledger.total_pj
        full = estimate(run.trace, model).total_pj
        red = estimate(run.trace, reduced).total_pj
        assert abs(full - truth) <= 1e-9 * max(1.0, truth)
        assert abs(red - full) <= 1e-9 * max(1.0, truth)


def test_reduce_single_cluster_mesh_is_empty(isa, params):
    from enermod.sysconfig import parse_config

    cfg = parse_config('{"mesh_cols": 1, "mesh_rows": 1}')
    # no remote pairs exist, so a pair-keyed model has no NoC keys at all
    model, _ = fit_constants(
        [(_vec({"group:nop+nop/pat:zeros": 1}, 1), 6.0)], noc_pair_function())
    reduced = reduce_noc_model(model)
    assert not any(k.startswith("noc/") for k in reduced.constants)


def test_disagreeing_pairs_warn_and_average():
    model, _ = fit_constants(
        [(_vec({"noc/src:0,0/dst:1,0/size:8": 1}), 10.0),
         (_vec({"noc/src:1,0/dst:0,0/size:8": 1}), 12.0)],
        noc_pair_function())
    with pytest.warns(UserWarning, match="disagree"):
        reduced = reduce_noc_model(model)
    assert reduced.constants["noc/hops:1/size:8"] == pytest.approx(11.0)


def test_fit_packet_reducers_replaces_constants(config):
    constants = {}
    for size in (8, 16, 24, 32):
        constants[f"noc/hops:1/size:{size}"] = 6.0 + 8.6 * (size // 8)
        constants[f"noc/hops:2/size:{size}"] = 6.0 + 11.4 * (size // 8)
    constants["sync"] = 25.0
    model, _ = fit_constants([(_vec({"sync": 1}), 25.0)],
                             noc_pair_function())
    model.constants = constants
    reduced = fit_packet_reducers(model, REDUCER_STAIRCASE,
                                  config.flit_payload_bytes)
    assert not any(k.startswith("noc/") for k in reduced.constants)
    assert len(reduced.reducers) == 2
    r1 = reduced.reducer_for("noc/hops:1/size:48")
    assert r1.evaluate_key("noc/hops:1/size:48") == pytest.approx(6.0 + 8.6 * 6)


def test_reducer_requires_variable():
    reducer = Reducer(kind=REDUCER_LINEAR, family="noc/hops:1", a=1.0, b=2.0)
    with pytest.raises(FitError, match="variable"):
        reducer.evaluate_key("noc/hops:1/other:3")


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_model_json_round_trip(tmp_path, config):
    model, _ = fit_constants([(_vec({"A": 2}, 4), 9.0)],
                             instruction_model_function())
    model = replace(model, reducers=[Reducer(kind=REDUCER_STAIRCASE,
                                             family="noc/hops:1", a=6.0, b=8.6,
                                             flit_payload_bytes=8)])
    model.provenance["clock_hz"] = config.clock_hz
    path = tmp_path / "model.json"
    save_model(model, str(path))
    loaded = load_model(str(path))
    assert loaded.constants == model.constants
    assert loaded.reducers == model.reducers
    assert loaded.static_pj_per_cycle == model.static_pj_per_cycle
    assert loaded.function == model.function
    doc = model_to_json(model)
    assert doc["static_power_pw"] == pytest.approx(
        model.static_pj_per_cycle * config.clock_hz)


_FLOATS = st.floats(allow_nan=False, allow_infinity=False)


def _bits(model):
    """A model's function, constants, reducers and static term, with every
    float spelled by float.hex."""
    return (model.function,
            sorted((k, v.hex()) for k, v in model.constants.items()),
            [(r.kind, r.family, r.a.hex(), r.b.hex(), r.variable, r.flit_payload_bytes)
             for r in model.reducers],
            model.static_pj_per_cycle.hex())


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_model_json_round_trip_any_model(model_functions, data):
    reducers = st.builds(Reducer, kind=st.sampled_from([REDUCER_LINEAR, REDUCER_STAIRCASE]),
                         family=st.text(max_size=8), a=_FLOATS, b=_FLOATS,
                         variable=st.text(max_size=6),
                         flit_payload_bytes=st.integers(1, 64))
    model = EnergyModel(
        function=data.draw(model_functions),
        constants=data.draw(st.dictionaries(st.text(max_size=12), _FLOATS, max_size=5)),
        reducers=data.draw(st.lists(reducers, max_size=3)),
        static_pj_per_cycle=data.draw(_FLOATS),
        provenance=data.draw(st.one_of(
            st.just({}), st.fixed_dictionaries({"clock_hz": st.floats(1.0, 1e10)}))))
    doc = json.loads(json.dumps(model_to_json(model)))
    assert _bits(model_from_json(doc)) == _bits(model)


def test_staircase_coefficients_match_oracle_closed_form(config, params):
    # single-send programs: dynamic per-flit cost plus the per-flit cycle of
    # static power form the step height; sync + header + the fixed tail
    # cycles form the intercept
    points = _oracle_sweep(config, params, range(4, 257, 4))
    a, b, report = fit_staircase(points, config.flit_payload_bytes)
    assert report.max_abs_error_pj < 1e-9
    hops = 2  # (0,0) -> (1,1)
    static = params.static_pj(config, 1)
    per_flit = (params["ni_in_flit"] + params["ni_out_flit"]
                + (hops + 1) * (params["router_flit"]
                                + params["link_flit"]))
    assert b == pytest.approx(per_flit + static, rel=1e-9)
    # duration of a single send is flits + hops + 1 cycles, so the fixed
    # part of the staircase carries 1 + hops cycles of static power
    assert a == pytest.approx(params["sync"] + params["packet_header"]
                              + static * (1 + hops), rel=1e-9)
