"""Partition scoring, mutations, and annealing."""

import itertools
import random

import pytest

from enermod.dse import (
    Actor,
    AnnealSchedule,
    Channel,
    DataflowGraph,
    GraphError,
    InfeasibleError,
    Partition,
    anneal,
    anneal_restarts,
    evaluate_partition,
    graph_from_json,
    initial_partition,
    mutate,
    partition_to_json,
)


@pytest.fixture(scope="module")
def model(config, isa, api, params):
    from enermod.pipeline import build_simplified_model

    model, _ = build_simplified_model(config, isa, api, params)
    return model


def _graph(n_actors=2, channel_bytes=256, state_bytes=0, stateless=True):
    actors = tuple(
        Actor(f"a{i}", (("group:add+add/pat:zeros", 20 + 5 * i),),
              state_bytes=state_bytes, stateless=stateless)
        for i in range(n_actors))
    channels = tuple(Channel(f"a{i}", f"a{i+1}", channel_bytes)
                     for i in range(n_actors - 1))
    return DataflowGraph(actors=actors, channels=channels)


# ---------------------------------------------------------------------------
# graph and partition validation
# ---------------------------------------------------------------------------

def test_graph_rejects_unknown_endpoint():
    with pytest.raises(GraphError, match="unknown actor"):
        DataflowGraph(actors=(Actor("a", ()),),
                      channels=(Channel("a", "b", 8),))


def test_graph_rejects_cycle():
    with pytest.raises(GraphError, match="cycle"):
        DataflowGraph(
            actors=(Actor("a", ()), Actor("b", ())),
            channels=(Channel("a", "b", 8), Channel("b", "a", 8)))


def test_unmapped_actor_rejected(config, model):
    graph = _graph(2)
    bad = Partition(assignment=(("a0", 0),), clones=(("a0", 1), ("a1", 1)))
    with pytest.raises(GraphError, match="unmapped"):
        evaluate_partition(graph, bad, config, model)


# ---------------------------------------------------------------------------
# evaluate_partition
# ---------------------------------------------------------------------------

def test_single_actor_energy_is_work_plus_static(config, model):
    graph = DataflowGraph(
        actors=(Actor("a", (("group:add+add/pat:zeros", 10),)),), channels=())
    score = evaluate_partition(graph, initial_partition(graph), config, model)
    expected = (10 * model.constants["group:add+add/pat:zeros"]
                + model.static_pj_per_cycle * score.throughput_cycles)
    assert score.energy_pj == pytest.approx(expected)
    assert score.feasible


def test_same_cpu_has_no_comm_energy(config, model):
    graph = _graph(2, channel_bytes=256)
    together = Partition(assignment=(("a0", 0), ("a1", 0)),
                         clones=(("a0", 1), ("a1", 1)))
    cross = Partition(assignment=(("a0", 0), ("a1", config.n_cpus - 1)),
                      clones=(("a0", 1), ("a1", 1)))
    s_together = evaluate_partition(graph, together, config, model)
    s_cross = evaluate_partition(graph, cross, config, model)
    # crossing clusters (0,0)->(1,1) adds sync plus the 2-hop staircase cost
    reducer = model.reducer_for("noc/hops:2/size:256")
    packet = model.constants["sync"] + reducer.evaluate_size(256)
    work = s_together.energy_pj - model.static_pj_per_cycle * s_together.throughput_cycles
    cross_work = s_cross.energy_pj - model.static_pj_per_cycle * s_cross.throughput_cycles
    assert cross_work == pytest.approx(work + packet)


def test_granularity_amortizes_packet_overhead(config, model):
    graph = _graph(2, channel_bytes=64)
    base = Partition(assignment=(("a0", 0), ("a1", 4)),
                     clones=(("a0", 1), ("a1", 1)), granularity=1)
    fused = Partition(assignment=(("a0", 0), ("a1", 4)),
                      clones=(("a0", 1), ("a1", 1)), granularity=8)
    e1 = evaluate_partition(graph, base, config, model).energy_pj
    e8 = evaluate_partition(graph, fused, config, model).energy_pj
    assert e8 < e1  # sync and header amortized over 8 fused iterations


def test_memory_limit_marks_infeasible(config, model):
    graph = _graph(2, channel_bytes=config.dmem_bytes)
    partition = Partition(assignment=(("a0", 0), ("a1", 1)),
                          clones=(("a0", 1), ("a1", 1)), granularity=2)
    score = evaluate_partition(graph, partition, config, model)
    assert not score.feasible
    assert max(score.memory_bytes.values()) > config.dmem_bytes


def test_score_is_pure(config, model):
    graph = _graph(3)
    p = initial_partition(graph)
    s1 = evaluate_partition(graph, p, config, model)
    s2 = evaluate_partition(graph, p, config, model)
    assert s1 == s2


# ---------------------------------------------------------------------------
# mutations
# ---------------------------------------------------------------------------

def test_move_on_two_cpu_platform(isa, model):
    # stateful actor and g_max=1 leave MOVE as the only applicable mutation
    from enermod.sysconfig import parse_config

    cfg = parse_config('{"mesh_cols": 1, "mesh_rows": 1, "cpus_per_cluster": 2}')
    graph = _graph(1, stateless=False)
    p = initial_partition(graph)
    moved = mutate(p, graph, cfg, random.Random(0), g_max=1)
    assert moved.cpu_of("a0") == 1


def test_stateful_actor_never_cloned(config):
    graph = DataflowGraph(
        actors=(Actor("a", (("group:add+add/pat:zeros", 5),),
                      state_bytes=64, stateless=False),),
        channels=())
    rng = random.Random(1)
    p = initial_partition(graph)
    for _ in range(200):
        p = mutate(p, graph, config, rng)
        assert p.clones_of("a") == 1


def test_mutation_distribution_uniform(config):
    # with all three mutations applicable each is drawn 1/3 +- 0.02
    graph = _graph(2)
    rng = random.Random(0)
    p = Partition(assignment=(("a0", 0), ("a1", 1)),
                  clones=(("a0", 2), ("a1", 2)), granularity=4)
    counts = {"MOVE": 0, "CLONE": 0, "GRANULARITY": 0}
    for _ in range(10_000):
        q = mutate(p, graph, config, rng)
        if q.assignment != p.assignment:
            counts["MOVE"] += 1
        elif q.clones != p.clones:
            counts["CLONE"] += 1
        else:
            assert q.granularity != p.granularity
            counts["GRANULARITY"] += 1
    for kind, n in counts.items():
        assert abs(n / 10_000 - 1 / 3) <= 0.02, (kind, n)


def test_mutation_result_valid(config, model):
    from enermod.dse import validate_partition

    graph = _graph(4)
    rng = random.Random(2)
    p = initial_partition(graph)
    for _ in range(500):
        p = mutate(p, graph, config, rng)
        validate_partition(graph, p, config)


# ---------------------------------------------------------------------------
# annealing
# ---------------------------------------------------------------------------

def test_single_actor_cost_seed_invariant(config, model):
    # without channels or clones every mapping scores the same, so the
    # best cost cannot depend on the seed
    graph = DataflowGraph(
        actors=(Actor("a", (("group:add+add/pat:zeros", 10),),
                      stateless=False),),
        channels=())
    costs = set()
    for seed in range(4):
        result = anneal(graph, config, model,
                        AnnealSchedule(steps=200, seed=seed))
        costs.add(round(result.best_score.cost(), 9))
    assert len(costs) == 1


def test_anneal_never_returns_infeasible(config, model):
    graph = _graph(3, channel_bytes=2048)
    result = anneal(graph, config, model, AnnealSchedule(steps=2000, seed=1))
    assert result.best_score.feasible


def test_best_cost_history_nonincreasing(config, model):
    graph = _graph(3)
    result = anneal(graph, config, model, AnnealSchedule(steps=2000, seed=0))
    best = [row[3] for row in result.history]
    assert all(b2 <= b1 for b1, b2 in zip(best, best[1:]))


def test_zero_temperature_is_greedy_descent(config, model):
    graph = _graph(3)
    result = anneal(graph, config, model,
                    AnnealSchedule(initial_temp=0.0, steps=2000, seed=0))
    current = [row[2] for row in result.history]
    assert all(c2 <= c1 for c1, c2 in zip(current, current[1:]))


def test_infeasible_start_raises(config, model):
    graph = DataflowGraph(
        actors=(Actor("a", (), state_bytes=config.dmem_bytes + 1,
                      stateless=False),),
        channels=())
    with pytest.raises(InfeasibleError):
        anneal(graph, config, model, AnnealSchedule(steps=10, seed=0))


def test_anneal_matches_brute_force_small(isa, model):
    from enermod.sysconfig import parse_config

    cfg = parse_config('{"mesh_cols": 2, "mesh_rows": 1, "cpus_per_cluster": 2}')
    graph = _graph(2, channel_bytes=512)
    ids = [a.id for a in graph.actors]
    clones = tuple(sorted((a, 1) for a in ids))
    best = None
    for g in (1, 2):
        for cpus in itertools.product(range(cfg.n_cpus), repeat=len(ids)):
            p = Partition(assignment=tuple(sorted(zip(ids, cpus))),
                          clones=clones, granularity=g)
            score = evaluate_partition(graph, p, cfg, model)
            if score.feasible:
                cost = score.cost()
                best = cost if best is None else min(best, cost)
    result = anneal_restarts(graph, cfg, model, seeds=range(4), steps=2000,
                             g_max=2, clone_max=1)
    assert result.best_score.cost() == pytest.approx(best, rel=1e-12)


def test_energy_objective_avoids_max_hop_placement(isa, model):
    # heavy channel: the best energy placement keeps endpoints within
    # one hop whenever such a placement is feasible
    from enermod.sysconfig import manhattan, parse_config

    cfg = parse_config('{"mesh_cols": 2, "mesh_rows": 2, "cpus_per_cluster": 2}')
    graph = _graph(2, channel_bytes=1024)
    ids = [a.id for a in graph.actors]
    clones = tuple(sorted((a, 1) for a in ids))
    best_cost, best_p = None, None
    for cpus in itertools.product(range(cfg.n_cpus), repeat=2):
        p = Partition(assignment=tuple(sorted(zip(ids, cpus))),
                      clones=clones, granularity=1)
        score = evaluate_partition(graph, p, cfg, model)
        if score.feasible:
            cost = score.cost()
            if best_cost is None or cost < best_cost:
                best_cost, best_p = cost, p
    hops = manhattan(cfg.cpu_cluster(best_p.cpu_of("a0")),
                     cfg.cpu_cluster(best_p.cpu_of("a1")))
    assert hops <= 1


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_graph_json(config):
    doc = {"actors": [
        {"id": "a", "work": {"group:add+add/pat:zeros": 4}, "state_bytes": 8,
         "stateless": False},
        {"id": "b", "work": {"group:nop+nop/pat:zeros": 2}}],
        "channels": [{"src": "a", "dst": "b", "bytes": 32}]}
    graph = graph_from_json(doc)
    a, b = graph.actors
    assert (a.id, a.state_bytes, a.stateless) == ("a", 8, False)
    assert (b.id, b.stateless) == ("b", True)
    assert graph.channels[0].bytes_per_iter == 32


def test_partition_json(config, model):
    graph = _graph(2)
    p = initial_partition(graph)
    score = evaluate_partition(graph, p, config, model)
    doc = partition_to_json(p, score)
    assert doc["assignment"] == {"a0": 0, "a1": 0}
    assert doc["score"]["feasible"]
