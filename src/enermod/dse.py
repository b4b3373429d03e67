"""Energy-aware design space exploration.

Maps streaming dataflow graphs onto the configured MPSoC with simulated
annealing.  Partitions are scored with the fitted energy model plus a
simple analytic cycle and memory estimate; partitions exceeding a CPU's
data memory are infeasible and never selected.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cached_property

from .modelfit import EnergyModel
from .sysconfig import SystemConfig, json_document, n_flits

G_MAX = 64  # granularity multiplier bound

MUTATIONS = ("MOVE", "CLONE", "GRANULARITY")


class GraphError(ValueError):
    """A dataflow graph or partition is malformed."""


class InfeasibleError(ValueError):
    """No feasible partition exists for the graph on this configuration."""


@dataclass(frozen=True)
class Actor:
    """One dataflow actor; work is a per-iteration count-vector template."""

    id: str
    work: tuple[tuple[str, int], ...]
    state_bytes: int = 0
    stateless: bool = True

    @property
    def work_cycles(self) -> int:
        return sum(c for _, c in self.work)


@dataclass(frozen=True)
class Channel:
    src: str
    dst: str
    bytes_per_iter: int


@dataclass(frozen=True)
class DataflowGraph:
    actors: tuple[Actor, ...]
    channels: tuple[Channel, ...]

    @cached_property
    def actor_ids(self) -> tuple[str, ...]:
        return tuple(a.id for a in self.actors)

    @cached_property
    def stateless_ids(self) -> tuple[str, ...]:
        return tuple(a.id for a in self.actors if a.stateless)

    def __post_init__(self) -> None:
        ids = [a.id for a in self.actors]
        if not ids:
            raise GraphError("a graph needs at least one actor")
        if len(set(ids)) != len(ids):
            raise GraphError("duplicate actor ids")
        known = set(ids)
        for ch in self.channels:
            if ch.src not in known or ch.dst not in known:
                raise GraphError(f"channel {ch.src}->{ch.dst} references unknown actor")
            if ch.bytes_per_iter < 1:
                raise GraphError("channel payload must be >= 1 byte")
        _check_acyclic(self)


def _check_acyclic(graph: "DataflowGraph") -> None:
    out: dict[str, list[str]] = {a.id: [] for a in graph.actors}
    indeg = {a.id: 0 for a in graph.actors}
    for ch in graph.channels:
        out[ch.src].append(ch.dst)
        indeg[ch.dst] += 1
    queue = sorted(a for a, d in indeg.items() if d == 0)
    seen = 0
    while queue:
        node = queue.pop()
        seen += 1
        for succ in out[node]:
            indeg[succ] -= 1
            if indeg[succ] == 0:
                queue.append(succ)
    if seen != len(graph.actors):
        raise GraphError("dataflow graph has a cycle")


@dataclass(frozen=True)
class Partition:
    """Actor placement with clone factors and a granularity multiplier g."""

    assignment: tuple[tuple[str, int], ...]   # actor -> CPU id
    clones: tuple[tuple[str, int], ...]       # actor -> clone factor (>= 1)
    granularity: int = 1                      # iterations fused per firing


def initial_partition(graph: DataflowGraph) -> Partition:
    return Partition(
        assignment=tuple(sorted((a.id, 0) for a in graph.actors)),
        clones=tuple(sorted((a.id, 1) for a in graph.actors)),
        granularity=1,
    )


def validate_partition(graph: DataflowGraph, partition: Partition,
                       config: SystemConfig) -> None:
    mapped = dict(partition.assignment)
    clones = dict(partition.clones)
    n_cpus = config.n_cpus
    for actor in graph.actors:
        if actor.id not in mapped:
            raise GraphError(f"actor {actor.id!r} is unmapped")
        if not 0 <= mapped[actor.id] < n_cpus:
            raise GraphError(f"actor {actor.id!r} mapped off the platform")
        factor = clones.get(actor.id, 1)
        if factor < 1:
            raise GraphError(f"actor {actor.id!r} has clone factor < 1")
        if factor > 1 and not actor.stateless:
            raise GraphError(f"stateful actor {actor.id!r} cannot be cloned")
    if partition.granularity < 1:
        raise GraphError("granularity must be >= 1")


@dataclass
class PartitionScore:
    """Per-iteration energy, a throughput proxy, and memory feasibility."""

    energy_pj: float
    throughput_cycles: float   # max per-CPU cycles per iteration
    memory_bytes: dict[int, int]
    feasible: bool

    def cost(self, w_energy: float = 1.0, w_throughput: float = 0.0) -> float:
        return w_energy * self.energy_pj + w_throughput * self.throughput_cycles


class _Scorer:
    """Scores partitions of one graph on one platform with one model.

    The terms no partition changes are computed once: the actor work energy
    (summed from 0.0 in actor order, as the score's first additions), each
    actor's work cycles and state, and the channel endpoints.  Hop counts
    come from the config's CPU table and packet costs from the model's
    packet_pj.  Every score adds its floats in the same order.
    """

    def __init__(self, graph: DataflowGraph, config: SystemConfig,
                 model: EnergyModel) -> None:
        work_pj = 0.0
        for actor in graph.actors:
            for key, count in actor.work:
                work_pj += (model.energy_of_key(key) or 0.0) * count
        self.work_pj = work_pj
        self.actors = [(a.id, a.work_cycles, a.state_bytes) for a in graph.actors]
        self.channels = [(ch.src, ch.dst, ch.bytes_per_iter)
                         for ch in graph.channels]
        self.n_cpus = config.n_cpus
        self.hops = config.cpu_hops
        self.flit_payload_bytes = config.flit_payload_bytes
        self.dmem_bytes = config.dmem_bytes
        self.packet_pj = model.packet_pj
        self.static_pj_per_cycle = model.static_pj_per_cycle

    def score(self, partition: Partition) -> PartitionScore:
        """Score a valid partition; see evaluate_partition."""
        n_cpus = self.n_cpus
        g = partition.granularity
        mapped = dict(partition.assignment)
        clone_factors = dict(partition.clones)

        cycles = [0.0] * n_cpus
        memory = [0.0] * n_cpus
        places: dict[str, list[int]] = {}
        # clone k of an actor runs on (mapped cpu + k) mod n_cpus
        for actor_id, work_cycles, state_bytes in self.actors:
            clones = clone_factors.get(actor_id, 1)
            base = mapped[actor_id]
            cpus = places[actor_id] = [(base + k) % n_cpus for k in range(clones)]
            share = work_cycles / clones
            for cpu in cpus:
                cycles[cpu] += share
                memory[cpu] += state_bytes

        energy = self.work_pj
        hops = self.hops
        packet_pj = self.packet_pj
        for src, dst, bytes_per_iter in self.channels:
            src_places = places[src]
            dst_places = places[dst]
            pair_bytes = bytes_per_iter * g / (len(src_places) * len(dst_places))
            size = max(1, math.ceil(pair_bytes))
            buf = 2 * size
            src_cycles = (1 + n_flits(size, self.flit_payload_bytes)) / g
            dst_cycles = 1 / g
            for s_cpu in src_places:
                hops_from = hops[s_cpu]
                for d_cpu in dst_places:
                    memory[s_cpu] += buf
                    memory[d_cpu] += buf
                    if s_cpu == d_cpu:
                        continue
                    packet = packet_pj(hops_from[d_cpu], size)
                    if packet is None:
                        raise GraphError("model has no constant or reducer for "
                                         f"hop count {hops_from[d_cpu]}")
                    energy += packet / g
                    cycles[s_cpu] += src_cycles
                    cycles[d_cpu] += dst_cycles

        # only CPUs that hold a clone carry cycles or memory
        used = sorted({cpu for cpus in places.values() for cpu in cpus})
        period = max((cycles[cpu] for cpu in used), default=0.0)
        energy += self.static_pj_per_cycle * period
        memory_int = {cpu: int(math.ceil(memory[cpu])) for cpu in used}
        feasible = all(v <= self.dmem_bytes for v in memory_int.values())
        return PartitionScore(energy_pj=energy, throughput_cycles=period,
                              memory_bytes=memory_int, feasible=feasible)


def evaluate_partition(graph: DataflowGraph, partition: Partition,
                       config: SystemConfig, model: EnergyModel) -> PartitionScore:
    """Score one partition; a pure function of its inputs.

    Energy per iteration: actor work evaluated against the model, plus per
    channel the packet cost (sync plus the hop family's key; hop 0 is the
    cluster-local bus route) of size bytes*g amortized over g iterations,
    plus static power over the steady-state period.  Channels between
    co-located clones are free.  Memory per CPU: actor state plus double
    buffers of 2*bytes*g per channel endpoint, split across clones.
    """
    validate_partition(graph, partition, config)
    return _Scorer(graph, config, model).score(partition)


# ---------------------------------------------------------------------------
# Mutations and annealing
# ---------------------------------------------------------------------------

def mutate(partition: Partition, graph: DataflowGraph, config: SystemConfig,
           rng: random.Random, g_max: int = G_MAX,
           clone_max: int | None = None) -> Partition:
    """Apply exactly one mutation, chosen uniformly; inapplicable draws are
    resampled.  MOVE reassigns one actor, CLONE adjusts a stateless actor's
    clone factor, GRANULARITY doubles or halves g within bounds."""
    actors, stateless = graph.actor_ids, graph.stateless_ids
    n_cpus = config.n_cpus
    clone_cap = min(clone_max or n_cpus, n_cpus)
    for _ in range(64):
        kind = MUTATIONS[rng.randrange(3)]
        if kind == "MOVE":
            if n_cpus < 2:
                continue
            actor = rng.choice(actors)
            cpus = dict(partition.assignment)
            new_cpu = rng.randrange(n_cpus - 1)
            if new_cpu >= cpus[actor]:
                new_cpu += 1
            cpus[actor] = new_cpu
            return Partition(tuple(sorted(cpus.items())), partition.clones,
                             partition.granularity)
        if kind == "CLONE":
            if not stateless or clone_cap < 2:
                continue
            actor = rng.choice(stateless)
            delta = rng.choice((1, -1))
            clones = dict(partition.clones)
            new = clones.get(actor, 1) + delta
            if not 1 <= new <= clone_cap:
                continue
            clones[actor] = new
            return Partition(partition.assignment, tuple(sorted(clones.items())),
                             partition.granularity)
        # GRANULARITY
        double = rng.choice((True, False))
        new_g = partition.granularity * 2 if double else partition.granularity // 2
        if not 1 <= new_g <= g_max:
            continue
        return Partition(partition.assignment, partition.clones, new_g)
    return partition


@dataclass(frozen=True)
class AnnealSchedule:
    initial_temp: float = 500.0
    cooling: float = 0.999
    steps: int = 10_000
    seed: int = 0


@dataclass
class AnnealResult:
    best_partition: Partition
    best_score: PartitionScore
    history: list[tuple[int, float, float, float]]  # step, temp, current, best

    def history_csv(self) -> str:
        lines = ["step,temperature,current_cost,best_cost"]
        lines.extend(f"{s},{t!r},{c!r},{b!r}" for s, t, c, b in self.history)
        return "\n".join(lines) + "\n"


def anneal(graph: DataflowGraph, config: SystemConfig, model: EnergyModel,
           schedule: AnnealSchedule = AnnealSchedule(),
           w_energy: float = 1.0, w_throughput: float = 0.0,
           g_max: int = G_MAX, clone_max: int | None = None) -> AnnealResult:
    """Metropolis annealing over partitions with geometric cooling.

    Infeasible candidates are always rejected; the best-ever feasible
    partition is returned.  Deterministic for a fixed seed.  At zero
    temperature the acceptance rule degenerates to greedy descent.
    g_max and clone_max bound the mutation space.
    """
    rng = random.Random(schedule.seed)
    scorer = _Scorer(graph, config, model)
    current = initial_partition(graph)
    # mutate builds only valid partitions, so the start is the one to check
    validate_partition(graph, current, config)
    current_score = scorer.score(current)
    if not current_score.feasible:
        raise InfeasibleError("the all-on-CPU-0 partition exceeds data memory")
    current_cost = current_score.cost(w_energy, w_throughput)
    best, best_score, best_cost = current, current_score, current_cost

    temp = schedule.initial_temp
    history: list[tuple[int, float, float, float]] = []
    for step in range(schedule.steps):
        candidate = mutate(current, graph, config, rng, g_max=g_max,
                           clone_max=clone_max)
        score = scorer.score(candidate)
        if score.feasible:
            cost = score.cost(w_energy, w_throughput)
            delta = cost - current_cost
            if delta <= 0 or (temp > 0 and rng.random() < math.exp(-delta / temp)):
                current, current_cost = candidate, cost
                if cost < best_cost:
                    best, best_score, best_cost = candidate, score, cost
        history.append((step, temp, current_cost, best_cost))
        temp *= schedule.cooling
    return AnnealResult(best_partition=best, best_score=best_score,
                        history=history)


def anneal_restarts(graph: DataflowGraph, config: SystemConfig,
                    model: EnergyModel, schedules: list[AnnealSchedule],
                    w_energy: float = 1.0, w_throughput: float = 0.0,
                    g_max: int = G_MAX,
                    clone_max: int | None = None) -> AnnealResult:
    """Independent chains, one per schedule; the best feasible result wins
    (the earliest chain on a tie)."""
    best: AnnealResult | None = None
    for schedule in schedules:
        result = anneal(graph, config, model, schedule, w_energy, w_throughput,
                        g_max=g_max, clone_max=clone_max)
        if best is None or (result.best_score.cost(w_energy, w_throughput)
                            < best.best_score.cost(w_energy, w_throughput)):
            best = result
    assert best is not None
    return best


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _count(value, where: str, field: str) -> int:
    """A graph field that must be a non-negative integer."""
    if type(value) is not int or value < 0:
        raise GraphError(f"{where}: {field} must be an integer >= 0, got {value!r}")
    return value


def _entries(doc: dict, name: str, fields: tuple[str, ...]) -> list[dict]:
    """The objects listed under doc[name], each holding its string fields."""
    entries = doc.get(name, [])
    if not isinstance(entries, list):
        raise GraphError(f"{name} must be a list")
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict) or not all(
                isinstance(entry.get(field), str) for field in fields):
            raise GraphError(f"{name}[{i}] must be an object with string "
                             f"{' and '.join(fields)}")
    return entries


def graph_from_json(doc: dict) -> DataflowGraph:
    """A graph from its JSON document.  A field of the wrong type raises
    GraphError naming its actor or channel and the field."""
    if not isinstance(doc, dict):
        raise GraphError("a graph is a JSON object")
    actors = []
    for a in _entries(doc, "actors", ("id",)):
        where = f"actor {a['id']!r}"
        work = a.get("work", {})
        if not isinstance(work, dict):
            raise GraphError(f"{where}: work must be an object of key counts")
        stateless = a.get("stateless", True)
        if not isinstance(stateless, bool):
            raise GraphError(f"{where}: stateless must be true or false")
        actors.append(Actor(
            id=a["id"],
            work=tuple(sorted((key, _count(n, where, f"work {key!r}"))
                              for key, n in work.items())),
            state_bytes=_count(a.get("state_bytes", 0), where, "state_bytes"),
            stateless=stateless))
    channels = []
    for c in _entries(doc, "channels", ("src", "dst")):
        where = f"channel {c['src']}->{c['dst']}"
        channels.append(Channel(src=c["src"], dst=c["dst"],
                                bytes_per_iter=_count(c.get("bytes"), where, "bytes")))
    return DataflowGraph(actors=tuple(actors), channels=tuple(channels))


def load_graph(path: str) -> DataflowGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return graph_from_json(json_document(fh.read(), GraphError))


def partition_to_json(partition: Partition, score: PartitionScore) -> dict:
    return {
        "assignment": dict(partition.assignment),
        "clones": dict(partition.clones),
        "granularity": partition.granularity,
        "score": {
            "energy_pj": score.energy_pj,
            "throughput_cycles": score.throughput_cycles,
            "memory_bytes": {str(k): v for k, v in score.memory_bytes.items()},
            "feasible": score.feasible,
        },
    }
