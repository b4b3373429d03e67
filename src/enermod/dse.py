"""Energy-aware design space exploration.

Maps streaming dataflow graphs onto the configured MPSoC with simulated
annealing.  Partitions are scored with the fitted energy model plus a
simple analytic cycle and memory estimate; partitions exceeding a CPU's
data memory are infeasible and never selected.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, replace

from .modelfit import EnergyModel
from .sysconfig import SystemConfig, manhattan, n_flits

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

    def __post_init__(self) -> None:
        ids = [a.id for a in self.actors]
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

    def cpu_of(self, actor_id: str) -> int:
        return dict(self.assignment)[actor_id]

    def clones_of(self, actor_id: str) -> int:
        return dict(self.clones).get(actor_id, 1)

    def placements(self, actor_id: str, n_cpus: int) -> list[int]:
        """Clone k of an actor runs on (mapped cpu + k) mod n_cpus."""
        base = self.cpu_of(actor_id)
        return [(base + k) % n_cpus for k in range(self.clones_of(actor_id))]


def initial_partition(graph: DataflowGraph) -> Partition:
    return Partition(
        assignment=tuple(sorted((a.id, 0) for a in graph.actors)),
        clones=tuple(sorted((a.id, 1) for a in graph.actors)),
        granularity=1,
    )


def validate_partition(graph: DataflowGraph, partition: Partition,
                       config: SystemConfig) -> None:
    mapped = dict(partition.assignment)
    for actor in graph.actors:
        if actor.id not in mapped:
            raise GraphError(f"actor {actor.id!r} is unmapped")
        if not 0 <= mapped[actor.id] < config.n_cpus:
            raise GraphError(f"actor {actor.id!r} mapped off the platform")
        if partition.clones_of(actor.id) < 1:
            raise GraphError(f"actor {actor.id!r} has clone factor < 1")
        if partition.clones_of(actor.id) > 1 and not actor.stateless:
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


def _packet_cost(model: EnergyModel, hops: int, size_bytes: int) -> float:
    """Channel-synchronized packet cost from the model: the sync constant
    plus the hop family's reducer (hop 0 is the cluster-local bus route)."""
    sync = model.constants.get("sync", 0.0)
    key = f"noc/hops:{hops}/size:{size_bytes}"
    pj = model.energy_of_key(key)
    if pj is None:
        raise GraphError(
            f"model has no constant or reducer for hop count {hops}")
    return sync + pj


def evaluate_partition(graph: DataflowGraph, partition: Partition,
                       config: SystemConfig, model: EnergyModel) -> PartitionScore:
    """Score one partition; a pure function of its inputs.

    Energy per iteration: actor work evaluated against the model, plus per
    channel the packet cost of size bytes*g amortized over g iterations,
    plus static power over the steady-state period.  Channels between
    co-located clones are free.  Memory per CPU: actor state plus double
    buffers of 2*bytes*g per channel endpoint, split across clones.
    """
    validate_partition(graph, partition, config)
    n_cpus = config.n_cpus
    g = partition.granularity

    cycles: dict[int, float] = {}
    memory: dict[int, float] = {}
    energy = 0.0

    for actor in graph.actors:
        clones = partition.clones_of(actor.id)
        for cpu in partition.placements(actor.id, n_cpus):
            cycles[cpu] = cycles.get(cpu, 0.0) + actor.work_cycles / clones
            memory[cpu] = memory.get(cpu, 0.0) + actor.state_bytes
        for key, count in actor.work:
            pj = model.energy_of_key(key)
            energy += (pj or 0.0) * count

    for ch in graph.channels:
        src_places = partition.placements(ch.src, n_cpus)
        dst_places = partition.placements(ch.dst, n_cpus)
        pair_bytes = ch.bytes_per_iter * g / (len(src_places) * len(dst_places))
        size = max(1, math.ceil(pair_bytes))
        for s_cpu in src_places:
            for d_cpu in dst_places:
                buf = 2 * size
                memory[s_cpu] = memory.get(s_cpu, 0.0) + buf
                memory[d_cpu] = memory.get(d_cpu, 0.0) + buf
                if s_cpu == d_cpu:
                    continue
                hops = manhattan(config.cpu_cluster(s_cpu), config.cpu_cluster(d_cpu))
                energy += _packet_cost(model, hops, size) / g
                flits = n_flits(size, config.flit_payload_bytes)
                cycles[s_cpu] = cycles.get(s_cpu, 0.0) + (1 + flits) / g
                cycles[d_cpu] = cycles.get(d_cpu, 0.0) + 1 / g

    period = max(cycles.values(), default=0.0)
    energy += model.static_pj_per_cycle * period
    memory_int = {cpu: int(math.ceil(v)) for cpu, v in sorted(memory.items())}
    feasible = all(v <= config.dmem_bytes for v in memory_int.values())
    return PartitionScore(energy_pj=energy, throughput_cycles=period,
                          memory_bytes=memory_int, feasible=feasible)


# ---------------------------------------------------------------------------
# Mutations and annealing
# ---------------------------------------------------------------------------

def mutate(partition: Partition, graph: DataflowGraph, config: SystemConfig,
           rng: random.Random, g_max: int = G_MAX,
           clone_max: int | None = None) -> Partition:
    """Apply exactly one mutation, chosen uniformly; inapplicable draws are
    resampled.  MOVE reassigns one actor, CLONE adjusts a stateless actor's
    clone factor, GRANULARITY doubles or halves g within bounds."""
    actors = [a.id for a in graph.actors]
    stateless = [a.id for a in graph.actors if a.stateless]
    clone_cap = min(clone_max or config.n_cpus, config.n_cpus)
    for _ in range(64):
        kind = MUTATIONS[rng.randrange(3)]
        if kind == "MOVE":
            if config.n_cpus < 2:
                continue
            actor = rng.choice(actors)
            current = partition.cpu_of(actor)
            new_cpu = rng.randrange(config.n_cpus - 1)
            if new_cpu >= current:
                new_cpu += 1
            assignment = tuple(sorted(
                (a, new_cpu if a == actor else c) for a, c in partition.assignment))
            return replace(partition, assignment=assignment)
        if kind == "CLONE":
            if not stateless or clone_cap < 2:
                continue
            actor = rng.choice(stateless)
            delta = rng.choice((1, -1))
            new = partition.clones_of(actor) + delta
            if not 1 <= new <= clone_cap:
                continue
            clones = tuple(sorted(
                (a, new if a == actor else c) for a, c in partition.clones))
            return replace(partition, clones=clones)
        # GRANULARITY
        double = rng.choice((True, False))
        new_g = partition.granularity * 2 if double else partition.granularity // 2
        if not 1 <= new_g <= g_max:
            continue
        return replace(partition, granularity=new_g)
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
    current = initial_partition(graph)
    current_score = evaluate_partition(graph, current, config, model)
    if not current_score.feasible:
        raise InfeasibleError("the all-on-CPU-0 partition exceeds data memory")
    current_cost = current_score.cost(w_energy, w_throughput)
    best, best_score, best_cost = current, current_score, current_cost

    temp = schedule.initial_temp
    history: list[tuple[int, float, float, float]] = []
    for step in range(schedule.steps):
        candidate = mutate(current, graph, config, rng, g_max=g_max,
                           clone_max=clone_max)
        score = evaluate_partition(graph, candidate, config, model)
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
                    model: EnergyModel, seeds, steps: int = 10_000,
                    initial_temp: float = 500.0, cooling: float = 0.999,
                    w_energy: float = 1.0, w_throughput: float = 0.0,
                    g_max: int = G_MAX,
                    clone_max: int | None = None) -> AnnealResult:
    """Independent chains, one per seed; the best feasible result wins."""
    best: AnnealResult | None = None
    for seed in seeds:
        result = anneal(graph, config, model,
                        AnnealSchedule(initial_temp=initial_temp,
                                       cooling=cooling, steps=steps, seed=seed),
                        w_energy, w_throughput, g_max=g_max,
                        clone_max=clone_max)
        if best is None or (result.best_score.cost(w_energy, w_throughput)
                            < best.best_score.cost(w_energy, w_throughput)):
            best = result
    assert best is not None
    return best


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def graph_from_json(doc: dict) -> DataflowGraph:
    actors = tuple(Actor(
        id=a["id"],
        work=tuple(sorted(a.get("work", {}).items())),
        state_bytes=a.get("state_bytes", 0),
        stateless=a.get("stateless", True),
    ) for a in doc["actors"])
    channels = tuple(Channel(src=c["src"], dst=c["dst"], bytes_per_iter=c["bytes"])
                     for c in doc.get("channels", []))
    return DataflowGraph(actors=actors, channels=channels)


def load_graph(path: str) -> DataflowGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return graph_from_json(json.load(fh))


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
