"""Partition scoring, mutations, and annealing."""

import hashlib
import itertools
import json
import random
import re
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enermod.dse import (
    G_MAX,
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
    validate_partition,
)
from enermod.modelfit import (
    REDUCER_LINEAR,
    REDUCER_STAIRCASE,
    EnergyModel,
    Reducer,
)
from enermod.statetrace import noc_hop_function
from enermod.sysconfig import parse_config


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
    packet = model.constants["sync"] + model.energy_of_key("noc/hops:2/size:256")
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


def test_missing_hop_family_is_a_graph_error(config):
    model = _synthetic_model()
    model.reducers = [r for r in model.reducers if r.family != "noc/hops:2"]
    graph = _graph(2)
    clones = (("a0", 1), ("a1", 1))
    one_hop = Partition(assignment=(("a0", 0), ("a1", 4)), clones=clones)
    two_hops = Partition(assignment=(("a0", 0), ("a1", config.n_cpus - 1)),
                         clones=clones)
    assert evaluate_partition(graph, one_hop, config, model).feasible
    for _ in range(2):  # the second lookup is answered from packet_pj's memo
        with pytest.raises(GraphError, match="hop count 2"):
            evaluate_partition(graph, two_hops, config, model)


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
    assert dict(moved.assignment)["a0"] == 1


def test_stateful_actor_never_cloned(config):
    graph = DataflowGraph(
        actors=(Actor("a", (("group:add+add/pat:zeros", 5),),
                      state_bytes=64, stateless=False),),
        channels=())
    rng = random.Random(1)
    p = initial_partition(graph)
    for _ in range(200):
        p = mutate(p, graph, config, rng)
        assert dict(p.clones).get("a", 1) == 1


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
    result = anneal_restarts(graph, cfg, model,
                             [AnnealSchedule(steps=2000, seed=seed) for seed in range(4)],
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
    cpus = dict(best_p.assignment)
    hops = manhattan(cfg.cpu_cluster(cpus["a0"]), cfg.cpu_cluster(cpus["a1"]))
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


@st.composite
def _graph_docs(draw):
    """An acyclic graph document: each channel runs from an actor drawn
    earlier to one drawn later, and the actors are then listed in any order.
    Optional fields are left out at random."""
    ids = draw(st.lists(st.text(min_size=1, max_size=5), min_size=1, max_size=6,
                        unique=True))
    actors = []
    for actor_id in ids:
        actor = {"id": actor_id}
        for field, values in (("work", st.dictionaries(st.text(max_size=8),
                                                        st.integers(0, 10**6), max_size=4)),
                              ("state_bytes", st.integers(0, 10**6)),
                              ("stateless", st.booleans())):
            if draw(st.booleans()):
                actor[field] = draw(values)
        actors.append(actor)
    pairs = [(a, b) for i, a in enumerate(ids) for b in ids[i + 1:]]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=8)) if pairs else []
    return {"actors": draw(st.permutations(actors)),
            "channels": [{"src": a, "dst": b, "bytes": draw(st.integers(1, 10**6))}
                         for a, b in edges]}


@settings(max_examples=200, deadline=None)
@given(doc=_graph_docs())
def test_a_graph_holds_exactly_what_its_document_lists(doc):
    graph = graph_from_json(json.loads(json.dumps(doc)))
    assert [(a.id, a.work, a.state_bytes, a.stateless) for a in graph.actors] == [
        (a["id"], tuple(sorted(a.get("work", {}).items())), a.get("state_bytes", 0),
         a.get("stateless", True)) for a in doc["actors"]]
    assert [(c.src, c.dst, c.bytes_per_iter) for c in graph.channels] == [
        (c["src"], c["dst"], c["bytes"]) for c in doc["channels"]]


@pytest.mark.parametrize("mutate,message", [
    (lambda d: d["channels"][0].update(bytes="x"), "channel a->b: bytes"),
    (lambda d: d["actors"][0].update(work=[1]), "actor 'a': work"),
    (lambda d: d["actors"][0].update(state_bytes="big"), "actor 'a': state_bytes"),
    (lambda d: d["actors"][1]["work"].update({"group:nop+nop/pat:zeros": "2"}),
     "actor 'b': work 'group:nop+nop/pat:zeros'"),
    (lambda d: d["actors"][1].update(stateless="no"), "actor 'b': stateless"),
    (lambda d: d["actors"].clear(), "at least one actor"),
])
def test_graph_field_of_the_wrong_type_names_its_owner(mutate, message):
    doc = {"actors": [{"id": "a", "work": {"group:add+add/pat:zeros": 4}},
                      {"id": "b", "work": {"group:nop+nop/pat:zeros": 2}}],
           "channels": [{"src": "a", "dst": "b", "bytes": 32}]}
    mutate(doc)
    with pytest.raises(GraphError, match=re.escape(message)):
        graph_from_json(doc)
    with pytest.raises(GraphError, match="JSON object"):
        graph_from_json([doc])


def test_partition_json(config, model):
    graph = _graph(2)
    p = initial_partition(graph)
    score = evaluate_partition(graph, p, config, model)
    doc = partition_to_json(p, score)
    assert doc["assignment"] == {"a0": 0, "a1": 0}
    assert doc["score"]["feasible"]


# ---------------------------------------------------------------------------
# properties that let annealing skip per-step validation and reuse terms
# ---------------------------------------------------------------------------

_GROUPS = ("add+add", "ldw+mul", "vadd+vmul", "add+mac", "xor+nop", "nop+nop")
_WORK_KEYS = tuple(f"group:{g}/pat:{p}" for g in _GROUPS
                   for p in ("zeros", "random"))


def _synthetic_model():
    """A fixed model that no fit produced: group constants, a sync constant,
    staircase reducers for hops 0 and 1 and a linear one for hop 2, so its
    numbers do not depend on a least-squares solver."""
    function = noc_hop_function()
    constants = {key: 1.1 + 0.37 * i for i, key in enumerate(_WORK_KEYS)}
    constants["sync"] = 24.7
    reducers = [Reducer(kind=REDUCER_STAIRCASE, family=f"noc/hops:{hops}",
                        a=5.9 + 1.3 * hops, b=8.6 + 2.85 * hops,
                        flit_payload_bytes=8) for hops in (0, 1)]
    reducers.append(Reducer(kind=REDUCER_LINEAR, family="noc/hops:2",
                            a=9.1, b=1.45))
    return EnergyModel(function=function,
                       constants=constants, reducers=reducers,
                       static_pj_per_cycle=0.0421)


def _random_graph(rng, n_actors):
    """A chain of actors plus skip channels; about a third stateful, and
    some work keys the model has no constant for."""
    keys = _WORK_KEYS + ("group:mystery/pat:zeros",)
    stateful = set(rng.sample(range(n_actors), n_actors // 3))
    actors = tuple(
        Actor(f"a{i}", tuple(sorted(
                  (k, rng.randint(1, 64))
                  for k in rng.sample(keys, rng.randint(0, 3)))),
              state_bytes=rng.choice((0, 64, 512)) if i in stateful else 0,
              stateless=i not in stateful)
        for i in range(n_actors))
    edges = {(i, i + 1) for i in range(n_actors - 1)}
    for _ in range(n_actors // 2):
        a = rng.randrange(n_actors)
        b = rng.randrange(n_actors)
        if a < b:
            edges.add((a, b))
    channels = tuple(Channel(f"a{a}", f"a{b}", rng.randint(1, 300))
                     for a, b in sorted(edges))
    return DataflowGraph(actors=actors, channels=channels)


_configs = st.builds(
    lambda cols, rows, cpus: parse_config(json.dumps(
        {"mesh_cols": cols, "mesh_rows": rows, "cpus_per_cluster": cpus})),
    st.integers(1, 3), st.integers(1, 3), st.integers(1, 4))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_actors=st.integers(1, 8),
       config=_configs, g_max=st.integers(1, G_MAX),
       clone_max=st.none() | st.integers(1, 8))
def test_mutation_chains_stay_valid(seed, n_actors, config, g_max, clone_max):
    rng = random.Random(seed)
    graph = _random_graph(rng, n_actors)
    partition = initial_partition(graph)
    for _ in range(150):
        partition = mutate(partition, graph, config, rng, g_max=g_max,
                           clone_max=clone_max)
        validate_partition(graph, partition, config)
        assert partition.granularity <= g_max


_noc_keys = st.builds(lambda hops, size: f"noc/hops:{hops}/size:{size}",
                      st.integers(0, 4), st.integers(0, 5000))


@settings(max_examples=200, deadline=None)
@given(key=_noc_keys | st.sampled_from(_WORK_KEYS) | st.text(max_size=20))
def test_energy_of_key_memo_equals_a_fresh_model(model, key):
    for m in (model, _synthetic_model()):
        want = replace(m).energy_of_key(key)
        assert m.energy_of_key(key) == want
        assert m.energy_of_key(key) == want  # a memo hit


def test_energy_of_key_holds_every_model_key(model):
    for key, value in model.constants.items():
        assert model.energy_of_key(key) == value
    assert model.energy_of_key("no/such:key") is None


@settings(max_examples=100, deadline=None)
@given(hops=st.integers(0, 4), size=st.integers(1, 5000))
def test_packet_pj_is_sync_plus_the_hop_key(model, hops, size):
    for m in (model, _synthetic_model()):
        pj = replace(m).energy_of_key(f"noc/hops:{hops}/size:{size}")
        want = None if pj is None else m.constants.get("sync", 0.0) + pj
        assert m.packet_pj(hops, size) == want
        assert m.packet_pj(hops, size) == want  # a memo hit


def test_anneal_is_bit_identical_to_the_recorded_run(config):
    # Recorded before the key memo and the precomputed scoring terms
    # existed; any change to the order of float additions, to the Metropolis
    # draws or to the mutation sequence changes the digest.
    model = _synthetic_model()
    graph = _random_graph(random.Random(2024), 8)
    digest = hashlib.sha256()
    for w_throughput in (0.0, 0.5):
        result = anneal(graph, config, model,
                        AnnealSchedule(steps=2000, seed=11),
                        w_throughput=w_throughput)
        digest.update(result.history_csv().encode())
        digest.update(json.dumps(partition_to_json(
            result.best_partition, result.best_score), sort_keys=True).encode())
    assert digest.hexdigest() == (
        "3f39b1b47921718945daa93110f57b0e0ceceb5de4f7a6549f80425e85c717d7")
