"""The benchmark's two workloads, their output checks and the run loop.

`pipeline` runs the paper's flow in-process: build the simplified model
from the instruction and communication campaigns, validate it on held-out
applications, then map a seeded dataflow graph with annealing.  `cli-noc`
drives the README's packet-size flow through `enermod.cli.main`.  Both are
closed loops: one iteration starts when the previous one has ended.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import sys
from dataclasses import dataclass, field
from time import perf_counter

from .tracing import Tracer, layer_self_times, totals

ENERMOD_MODULES = ("sysconfig", "refsim", "statetrace", "benchgen", "modelfit",
                   "estimator", "pipeline", "workloads", "dse", "cli")

# Payloads of the explore graph's channels: one of each, so every hop
# reducer is priced at small and large sizes, and large granularities
# overflow data memory.
SPAN_SIZES = (8, 16, 32, 64, 128, 256, 512, 1024)

# Time of one `reference_pass` at the speed the end-to-end times are
# scaled to.  The value only fixes the scale; it is near the pass's time
# on the baseline machine.
REFERENCE_S = 0.04


@dataclass(frozen=True)
class Scale:
    """Input sizes.  The defaults are what the benchmark measures; tests
    shrink them, and may swap in a smaller platform or ISA subset."""

    instr_reps: int = 64
    app_seeds: int = 4
    chains: int = 4
    anneal_steps: int = 500
    probe_steps: int = 500
    graph_actors: int = 10
    cli_sizes: tuple[int, int, int] = (4, 1024, 36)   # min, max, step bytes
    cli_reps: int = 8
    setup_repeats: int = 2      # set-ups before each iteration and after the last
    config_json: str | None = None
    isa_keep: tuple[str, ...] | None = None


FULL = Scale()


class Checks:
    """Output checks; each failed check counts as one failed operation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


@dataclass
class Iteration:
    total_s: float
    build_s: float
    digest: str
    stats: dict[str, float] = field(default_factory=dict)
    traced: bool = False


def load_enermod(reimport: bool):
    """Import every enermod module; with reimport, drop them first so the
    import is paid again (numpy stays loaded)."""
    if reimport:
        for name in [m for m in sys.modules
                     if m == "enermod" or m.startswith("enermod.")]:
            del sys.modules[name]
    package = importlib.import_module("enermod")
    for name in ENERMOD_MODULES:
        importlib.import_module(f"enermod.{name}")
    return package


def _rel(estimate: float, truth: float) -> float:
    return abs(estimate - truth) / abs(truth)


def _digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(json.dumps(part, sort_keys=True).encode())
        h.update(b"\n")
    return h.hexdigest()


def model_parts(model) -> list:
    """The fitted numbers of a model: constants, reducers, static term."""
    return [sorted(model.constants.items()),
            [[r.kind, r.family, r.a, r.b, r.variable, r.flit_payload_bytes]
             for r in model.reducers],
            model.static_pj_per_cycle]


def make_graph(dse, seed: int, model, n_actors: int):
    """A seeded dataflow graph: a chain of actors plus two skip channels,
    work drawn from the model's instruction-group keys, three stateful
    actors.  Everything on CPU 0 fits data memory, so annealing can start."""
    rng = random.Random(seed)
    keys = sorted(k for k in model.constants if k.startswith("group:"))
    stateful = set(rng.sample(range(n_actors), 3))
    actors = []
    for i in range(n_actors):
        work = {k: rng.randint(8, 64) for k in rng.sample(keys, rng.randint(1, 3))}
        actors.append(dse.Actor(
            id=f"a{i}", work=tuple(sorted(work.items())),
            state_bytes=rng.choice((256, 512, 1024)) if i in stateful else 0,
            stateless=i not in stateful))
    edges = [(i, i + 1) for i in range(n_actors - 1)]
    while len(edges) < n_actors + 1:
        a = rng.randrange(n_actors - 2)
        b = rng.randrange(a + 2, n_actors)
        if (a, b) not in edges:
            edges.append((a, b))
    sizes = list(SPAN_SIZES) + [rng.randint(8, 64)
                                for _ in range(len(edges) - len(SPAN_SIZES))]
    rng.shuffle(sizes)
    channels = tuple(dse.Channel(src=f"a{a}", dst=f"a{b}", bytes_per_iter=size)
                     for (a, b), size in zip(edges, sizes))
    return dse.DataflowGraph(actors=tuple(actors), channels=channels)


class Clock:
    """Wall time less the reference passes taken inside timed sections.

    The workloads call `sample` between their calls into enermod, so the
    reference passes spread over the whole run.  In a traced iteration it
    does nothing, so the spans hold enermod's time only."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.reference: list[float] = []
        self._paused = 0.0

    def now(self) -> float:
        return perf_counter() - self._paused

    def sample(self) -> None:
        if not self.tracer.enabled:
            start = perf_counter()
            self.reference.append(reference_pass())
            self._paused += perf_counter() - start


class Workload:
    name = ""

    def __init__(self, seed: int, scale: Scale, tracer: Tracer,
                 work_dir: str) -> None:
        self.seed = seed
        self.scale = scale
        self.tracer = tracer
        self.clock = Clock(tracer)
        self.work_dir = work_dir

    def _load_config(self, em):
        with self.tracer.span("sysconfig.load_config"):
            if self.scale.config_json is not None:
                return em.sysconfig.parse_config(self.scale.config_json)
            return em.sysconfig.load_config(em.data_path("default_config.json"))


class PipelineWorkload(Workload):
    """The paper's flow in-process with one worker."""

    name = "pipeline"
    workers = 0

    def setup(self, reimport: bool) -> None:
        tr = self.tracer
        self.em = em = load_enermod(reimport)
        self.config = self._load_config(em)
        with tr.span("sysconfig.load_isa"):
            isa = em.sysconfig.load_isa(em.data_path("isa.json"))
        if self.scale.isa_keep is not None:
            isa = [i for i in isa if i.mnemonic in self.scale.isa_keep]
        self.isa = isa
        with tr.span("sysconfig.load_api"):
            self.api = em.sysconfig.load_api(em.data_path("api.json"))
        with tr.span("refsim.load_oracle_params"):
            self.params = em.refsim.load_oracle_params(
                em.data_path("oracle_params.json"))
        self.apps = {}
        for app_seed in range(self.seed * 1000, self.seed * 1000 + self.scale.app_seeds):
            with tr.span("workloads.synthetic_applications"):
                self.apps[app_seed] = em.workloads.synthetic_applications(
                    self.config, self.isa, seed=app_seed)

    def build(self):
        """Campaign generation through the merged model, step by step as
        pipeline.build_simplified_model does it."""
        em, tr, config = self.em, self.tracer, self.config
        n_cpus = config.n_cpus
        with tr.span("benchgen.instruction_campaign") as s:
            instr = em.benchgen.instruction_campaign(self.isa, config,
                                                     reps=self.scale.instr_reps)
            s.count(benchmarks=len(instr))
        with tr.span("pipeline.comm_benchmarks_per_hop") as s:
            comm = em.pipeline.comm_benchmarks_per_hop(self.api, config, self.isa)
            s.count(benchmarks=len(comm))
        all_runs, all_obs, models = [], [], []
        for benches, function in (
                (instr, em.statetrace.instruction_model_function()),
                (comm, em.statetrace.noc_hop_function())):
            # Counts are taken after each span closes, so that counting
            # shows as tracing overhead and not as time of the layer.
            with tr.span("pipeline.run_campaign") as s:
                runs = em.pipeline.run_campaign(benches, config, self.params,
                                                workers=1)
            if tr.enabled:
                s.count(programs=len(runs),
                        events=sum(len(r.trace.events) for r in runs),
                        cpu_cycles=n_cpus * sum(r.trace.duration for r in runs))
            self.clock.sample()
            obs = []
            for run in runs:
                with tr.span("statetrace.abstract_trace") as s:
                    vec = em.statetrace.abstract_trace(run.trace, function)
                s.count(keys=len(vec.counts), cpu_cycles=n_cpus * vec.duration)
                obs.append((vec, run.ledger.total_pj))
            self.clock.sample()
            with tr.span("modelfit.fit_constants") as s:
                model, report = em.modelfit.fit_constants(obs, function)
            if tr.enabled:
                s.count(rows=len(obs), unknowns=report.n_unknowns, rank=report.rank,
                        nnz=sum(len(v.counts) + (v.duration > 0) for v, _ in obs))
            all_runs.extend(runs)
            all_obs.extend(obs)
            models.append(model)
        instr_model, comm_model = models
        with tr.span("modelfit.fit_packet_reducers"):
            comm_model = em.modelfit.fit_packet_reducers(
                comm_model, em.modelfit.REDUCER_STAIRCASE, config.flit_payload_bytes)
        with tr.span("pipeline.merge_models"):
            model = em.pipeline.merge_models(instr_model, comm_model)
        model.provenance["clock_hz"] = config.clock_hz
        return model, all_runs, all_obs

    def _heldout(self, model):
        em, tr, config = self.em, self.tracer, self.config
        per_seed, coverage, missing, truths = [], [], set(), []
        for app_seed, apps in self.apps.items():
            rels = []
            for _name, program in apps:
                with tr.span("refsim.run_program") as s:
                    trace, ledger = em.refsim.run_program(config, self.params, program)
                if tr.enabled:
                    s.count(programs=1, events=len(trace.events),
                            cpu_cycles=config.n_cpus * trace.duration)
                with tr.span("estimator.estimate") as s:
                    est = em.estimator.estimate(trace, model)
                s.count(events=len(trace.events))
                rels.append(_rel(est.total_pj, ledger.total_pj))
                coverage.append(est.coverage)
                missing.update(est.missing_keys)
                truths.append(ledger.total_pj)
            per_seed.append((app_seed, sum(rels) / len(rels), max(rels)))
            self.clock.sample()
        return per_seed, min(coverage), len(missing), truths

    def _explore(self, model):
        em, tr, config, scale = self.em, self.tracer, self.config, self.scale
        with tr.span("bench.make_graph"):
            graph = make_graph(em.dse, self.seed, model, scale.graph_actors)
        results = []
        for chain in range(scale.chains):
            with tr.span("dse.anneal") as s:
                results.append(em.dse.anneal(
                    graph, config, model,
                    em.dse.AnnealSchedule(steps=scale.anneal_steps, seed=chain)))
                s.count(steps=scale.anneal_steps)
            self.clock.sample()
        # A seeded mutation chain scored call by call: the per-call cost of
        # the two functions every annealing step makes.
        rng = random.Random(self.seed)
        partition = em.dse.initial_partition(graph)
        chain = []
        with tr.span("dse.mutate") as s:
            for _ in range(scale.probe_steps):
                partition = em.dse.mutate(partition, graph, config, rng)
                chain.append(partition)
            s.count(calls=len(chain))
        with tr.span("dse.evaluate_partition") as s:
            scores = [em.dse.evaluate_partition(graph, p, config, model)
                      for p in chain]
            s.count(calls=len(scores))
        return results, scores

    def iteration(self, index: int, checks: Checks) -> Iteration:
        tr, clock = self.tracer, self.clock
        start = clock.now()
        with tr.span("bench.build"):
            model, runs, obs = self.build()
        built = clock.now()
        with tr.span("bench.heldout"):
            per_seed, coverage_min, n_missing, truths = self._heldout(model)
        with tr.span("bench.explore"):
            results, scores = self._explore(model)
        end = clock.now()

        if index == 0:
            for run in runs:
                truth = run.ledger.total_pj
                if truth != 0.0:
                    est = self.em.estimator.estimate(run.trace, model).total_pj
                    checks.check(_rel(est, truth) <= 1e-6,
                                 f"training trace {run.benchmark.name} not recovered")
        for app_seed, mean, worst in per_seed:
            checks.check(mean <= 0.05 and worst <= 0.10,
                         f"held-out error at app seed {app_seed}: "
                         f"mean {mean:.4f}, max {worst:.4f}")
        for chain, result in enumerate(results):
            checks.check(result.best_score.feasible,
                         f"chain {chain}: best partition infeasible")
        best = min(results, key=lambda r: r.best_score.cost())

        accepted = sum(sum(1 for a, b in zip(r.history, r.history[1:]) if a[2] != b[2])
                       for r in results)
        steps = sum(max(len(r.history) - 1, 1) for r in results)
        stats = {
            "heldout_mean_rel_err": statistics.fmean(m for _, m, _ in per_seed),
            "heldout_max_rel_err": max(w for _, _, w in per_seed),
            "coverage_min": coverage_min,
            "missing_keys": n_missing,
            "accept_ratio": accepted / steps,
            "feasible_ratio": sum(s.feasible for s in scores) / len(scores),
            "best_mapping_pj": best.best_score.energy_pj,
        }
        digest = _digest([
            [[sorted(v.counts.items()), v.duration, total] for v, total in obs],
            model_parts(model),
            truths,
            [r.history_csv() for r in results],
            self.em.dse.partition_to_json(best.best_partition, best.best_score),
        ])
        return Iteration(total_s=end - start, build_s=built - start,
                         digest=digest, stats=stats)


class CliNocWorkload(Workload):
    """The README's packet-size flow through enermod.cli.main."""

    name = "cli-noc"
    workers = 2     # oracle --workers

    def setup(self, reimport: bool) -> None:
        self.em = em = load_enermod(reimport)
        config = self._load_config(em)
        self.n_cpus = config.n_cpus
        rng = random.Random(self.seed)
        clusters = config.all_clusters()
        routes = [(a, b) for a in clusters for b in clusters
                  if em.sysconfig.manhattan(a, b) == 2]
        self.src, self.dst = (em.sysconfig.format_coord(c) for c in rng.choice(routes))
        self.pick = rng.randrange(4)   # estimate one of the four largest sizes
        os.makedirs(self.work_dir, exist_ok=True)
        self.config_args = []
        if self.scale.config_json is not None:
            path = os.path.join(self.work_dir, "config.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(self.scale.config_json)
            self.config_args = ["--config", path]

    def _cli(self, checks: Checks, command: str, *args):
        argv = [command, *(str(a) for a in args)]
        if command != "estimate":   # the one subcommand without --config
            argv += self.config_args
        with self.tracer.span("cli.main", label=command) as span, \
                contextlib.redirect_stdout(io.StringIO()):
            rc = self.em.cli.main(argv)
        checks.check(rc == 0, f"enermod {command} exited with {rc}")
        self.clock.sample()
        return span

    def iteration(self, index: int, checks: Checks) -> Iteration:
        tr, scale = self.tracer, self.scale
        out = os.path.join(self.work_dir, f"cli-noc-{index}")
        shutil.rmtree(out, ignore_errors=True)
        models = os.path.join(out, "models")
        lo, hi, step = scale.cli_sizes
        start = self.clock.now()
        with tr.span("bench.build"):
            span = self._cli(checks, "gen-bench", "--kind", "comm",
                             "--src", self.src, "--dst", self.dst,
                             "--min", lo, "--max", hi, "--step", step,
                             "--reps", scale.cli_reps, "--out", out)
            if tr.enabled:
                span.count(benchmark_bytes=_dir_bytes(os.path.join(out, "benchmarks")))
            oracle = self._cli(checks, "oracle", "--workers", self.workers,
                               "--out", out)
            fit = self._cli(checks, "fit", "--function", "noc-hop", "--name", "noc",
                            "--out", out)
            for kind in ("staircase", "linear"):
                self._cli(checks, "reduce", "--model", os.path.join(models, "noc.json"),
                          "--kind", kind,
                          "--output", os.path.join(models, f"noc_{kind}.json"))
        built = self.clock.now()
        with open(os.path.join(out, "benchmarks", "manifest.csv"), encoding="utf-8") as fh:
            rows = self.em.benchgen.parse_manifest_csv(fh.read())
        stem = rows[-1 - self.pick][1].rsplit(".", 1)[0]
        estimate = self._cli(checks, "estimate",
                             "--model", os.path.join(models, "noc_staircase.json"),
                             "--trace", os.path.join(out, "traces", stem + ".tsv"),
                             "--output", os.path.join(out, "reports", "estimate.json"))
        end = self.clock.now()

        stats = {}
        if tr.enabled:
            stats = self._count_outputs(out, stem, oracle, fit, estimate)
        digest = self._check_outputs(checks, out, stem)
        shutil.rmtree(out, ignore_errors=True)
        return Iteration(total_s=end - start, build_s=built - start,
                         digest=digest, stats=stats)

    def _count_outputs(self, out: str, stem: str, oracle, fit, estimate) -> dict:
        """Counts of the work done inside the subcommands, read from the
        files they wrote, after the timed section."""
        with open(os.path.join(out, "ledgers", "results.csv"), encoding="utf-8") as fh:
            rows = fh.read().splitlines()[1:]
        traces = os.path.join(out, "traces")
        oracle.count(programs=len(rows),
                     cpu_cycles=self.n_cpus * sum(int(r.rsplit(",", 1)[1]) for r in rows),
                     events=sum(_event_lines(os.path.join(traces, f))
                                for f in os.listdir(traces)),
                     trace_bytes=_dir_bytes(traces))
        with open(os.path.join(out, "reports", "fit_noc.json"), encoding="utf-8") as fh:
            report = json.load(fh)
        fit.count(rows=report["observations"], unknowns=report["n_unknowns"],
                  rank=report["rank"])
        estimate.count(events=_event_lines(os.path.join(traces, stem + ".tsv")))
        with open(os.path.join(out, "reports", "estimate.json"), encoding="utf-8") as fh:
            result = json.load(fh)
        return {"coverage_min": result["coverage"],
                "missing_keys": len(result["missing_keys"])}

    def _check_outputs(self, checks: Checks, out: str, stem: str) -> str:
        em = self.em
        models = os.path.join(out, "models")
        full = em.modelfit.load_model(os.path.join(models, "noc.json"))
        points = {k: v for k, v in full.constants.items() if k.startswith("noc/")}
        residual = {}
        for kind in ("staircase", "linear"):
            reduced = em.modelfit.load_model(os.path.join(models, f"noc_{kind}.json"))
            residual[kind] = max(abs(reduced.energy_of_key(k) - v)
                                 for k, v in points.items())
        checks.check(residual["staircase"] <= residual["linear"],
                     f"staircase residual {residual['staircase']!r} pJ exceeds "
                     f"linear residual {residual['linear']!r} pJ")
        with open(os.path.join(out, "reports", "estimate.json"), encoding="utf-8") as fh:
            estimated = json.load(fh)["total_pj"]
        with open(os.path.join(out, "ledgers", stem + ".csv"), encoding="utf-8") as fh:
            truth = em.refsim.ledger_from_csv(fh.read())["total"]
        checks.check(_rel(estimated, truth) <= 1e-6,
                     f"estimate of {stem} is {estimated!r} pJ, ledger {truth!r} pJ")
        # Representation-independent artifacts only: no traces/ bytes.
        files = [os.path.join("ledgers", "results.csv")]
        for sub in ("models", "reports"):
            files.extend(os.path.join(sub, f) for f in sorted(os.listdir(os.path.join(out, sub))))
        parts = []
        for rel in files:
            with open(os.path.join(out, rel), encoding="utf-8") as fh:
                parts.append([rel, fh.read()])
        return _digest(parts)


def _dir_bytes(path: str) -> int:
    return sum(e.stat().st_size for e in os.scandir(path) if e.is_file())


def _event_lines(path: str) -> int:
    with open(path, encoding="utf-8") as fh:
        return sum(1 for line in fh if line.strip())


WORKLOADS = {w.name: w for w in (PipelineWorkload, CliNocWorkload)}


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def _per(numerator: float, denominator: float, scale: float = 1.0) -> float:
    return numerator * scale / denominator if denominator else 0.0


def _with_cli(spans, names: tuple[str, ...], command: str
              ) -> tuple[float, float, dict[str, float]]:
    """Self time and counts of the in-process spans with these names, the
    time of the `enermod <command>` spans, and the counts of both.  On
    cli-noc a layer's work runs inside a subcommand: its counts come from
    the files that subcommand wrote, and only the subcommand is timed."""
    s, c = totals(spans, names)
    cli_s, cli_c = totals(spans, ("cli.main",), label=command)
    counts = dict(c)
    for key, value in cli_c.items():
        counts[key] = counts.get(key, 0) + value
    return s, cli_s, counts


def iteration_layers(spans, it: Iteration) -> dict[str, float]:
    """Per-layer numbers of one traced iteration."""
    m: dict[str, float] = {}
    s, cli_s, c = _with_cli(spans, ("pipeline.run_campaign", "refsim.run_program"),
                            "oracle")
    m["refsim.s"] = s
    m["refsim.programs"] = c.get("programs", 0)
    m["refsim.events"] = c.get("events", 0)
    m["refsim.cpu_cycles"] = c.get("cpu_cycles", 0)
    m["refsim.us_per_cpu_cycle"] = _per(s + cli_s, c.get("cpu_cycles", 0), 1e6)
    s, c = totals(spans, ("statetrace.abstract_trace",))
    m["statetrace.s"] = s
    m["statetrace.us_per_cpu_cycle"] = _per(s, c.get("cpu_cycles", 0), 1e6)
    m["statetrace.keys"] = c.get("keys", 0)
    s, _, c = _with_cli(spans, ("modelfit.fit_constants",), "fit")
    m["modelfit.fit_s"] = s
    for key in ("rows", "unknowns", "rank", "nnz"):
        m[f"modelfit.{key}"] = c.get(key, 0)
    m["modelfit.reduce_s"] = totals(
        spans, ("modelfit.fit_packet_reducers", "pipeline.merge_models"))[0]
    s, c = totals(spans, ("benchgen.instruction_campaign",
                          "pipeline.comm_benchmarks_per_hop"))
    m["benchgen.s"] = s
    m["benchgen.benchmarks"] = c.get("benchmarks", 0)
    s, cli_s, c = _with_cli(spans, ("estimator.estimate",), "estimate")
    m["estimator.s"] = s
    m["estimator.events"] = c.get("events", 0)
    m["estimator.us_per_event"] = _per(s + cli_s, c.get("events", 0), 1e6)
    for key in ("coverage_min", "missing_keys", "heldout_mean_rel_err",
                "heldout_max_rel_err"):
        m[f"estimator.{key}"] = it.stats.get(key, 0)
    s, c = totals(spans, ("dse.anneal",))
    m["dse.anneal_s"] = s
    m["dse.steps"] = c.get("steps", 0)
    m["dse.steps_per_s"] = _per(c.get("steps", 0), s)
    for key in ("accept_ratio", "feasible_ratio", "best_mapping_pj"):
        m[f"dse.{key}"] = it.stats.get(key, 0)
    for name, key in (("dse.evaluate_partition", "evaluate"), ("dse.mutate", "mutate")):
        s, c = totals(spans, (name,))
        m[f"dse.{key}_us_per_call"] = _per(s, c.get("calls", 0), 1e6)
    for command in ("gen-bench", "oracle", "fit", "reduce", "estimate"):
        m[f"cli.{command.replace('-', '_')}_s"] = totals(
            spans, ("cli.main",), label=command)[0]
    c = totals(spans, ("cli.main",))[1]
    m["cli.benchmark_bytes"] = c.get("benchmark_bytes", 0)
    m["cli.trace_bytes"] = c.get("trace_bytes", 0)
    m["bench.self_s"] = layer_self_times(spans).get("bench", 0.0)
    m["trace.spans"] = len(spans)
    return m


def _median_dicts(dicts: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]}


def peak_rss_mb(workers: int) -> float:
    """An upper bound on the peak resident set of this process and its
    worker processes: its own peak plus, per worker, the peak of the
    largest reaped child.  The peaks need not coincide, and a forked child
    counts the pages it shares with this process.  ru_maxrss is in KiB on
    Linux."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * child) / 1024.0


def reference_pass() -> float:
    """Wall time of fixed pure-Python work: integer and dict arithmetic,
    then string formatting and splitting.  It allocates no containers, so
    the size of the heap and the garbage collector do not move it, and it
    belongs to the benchmark, so no change to enermod moves it."""
    start = perf_counter()
    counts = dict.fromkeys(range(997), 0)
    total = 0
    for i in range(120_000):
        key = i % 997
        counts[key] += i & 7
        total += key ^ i
    for i in range(20_000):
        total += len(f"{i}:{i * 7}".split(":")[0])
    return perf_counter() - start


@dataclass
class RunResult:
    checks: Checks
    metrics: dict[str, float]
    digest: str


def measure(workload: str, seed: int, seconds: float, trace: bool,
            work_dir: str, scale: Scale = FULL, reimport: bool = False,
            spans_path: str | None = None) -> RunResult:
    """Run iterations until the next one would end past `seconds`.

    The workload is set up `scale.setup_repeats` times before each
    iteration and after the last, so the set-up times sample the whole run
    as the iteration times do.  Iteration 0 warms up: it pays lazy
    initialisation (numpy's first least-squares call costs about a second
    more than the next ones), so its outputs are checked but its times are
    not reported.  A traced run alternates traced and untraced iterations
    after it, so it also yields the tracing overhead.

    `reference_pass` runs before every set-up, after every batch of
    set-ups, and at the workload's `Clock.sample` points between its calls
    into enermod, where its time is left out of the iteration's.  The
    reported end-to-end times are medians of wall times multiplied by
    REFERENCE_S over the run's mean reference time.  On a shared machine
    whose speed drifts by a third and more over minutes, the scaling takes
    most of that drift out of the comparison of one run with another.  The
    mean, not the median: the speed jumps between a fast and a slow level,
    and an iteration's time adds up both as the mean does.

    `peak_rss_mb` is read after iteration 0: the peak of one set-up and
    one pass of the workload.  Later iterations raise it a little each
    (the heap fragments, and later oracle workers fork from a larger
    process), so a reading at the end would depend on how many iterations
    the machine's speed allows."""
    tracer = Tracer()
    tracer.enabled = trace
    wl = WORKLOADS[workload](seed, scale, tracer, work_dir)
    setup_s: list[float] = []
    reference = wl.clock.reference

    def set_up() -> None:
        tracer.enabled = trace
        for _ in range(scale.setup_repeats):
            reference.append(reference_pass())
            tracer.run = f"setup{len(setup_s)}"
            start = perf_counter()
            wl.setup(reimport)
            setup_s.append(perf_counter() - start)
        reference.append(reference_pass())

    set_up()
    checks = Checks()
    iterations: list[Iteration] = []
    cycles: list[float] = []
    start = perf_counter()
    while True:
        index = len(iterations)
        tracer.enabled = trace and index % 2 == 1
        tracer.run = f"iter{index}"
        t = perf_counter()
        it = wl.iteration(index, checks)
        it.traced = tracer.enabled
        iterations.append(it)
        checks.check(it.digest == iterations[0].digest,
                     f"iteration {index} digest differs from iteration 0")
        if index == 0:
            rss_mb = peak_rss_mb(wl.workers)
        set_up()
        cycles.append(perf_counter() - t)
        elapsed = perf_counter() - start
        if (len(iterations) >= (3 if trace else 2)
                and elapsed + statistics.median(cycles) > seconds):
            break
    tracer.enabled = False
    shutil.rmtree(work_dir, ignore_errors=True)
    if spans_path is not None:
        tracer.dump(spans_path)

    speed = REFERENCE_S / statistics.fmean(reference)
    measured = iterations[1:]
    if not trace:
        metrics = {
            "setup_s": speed * statistics.median(setup_s),
            "total_s": speed * statistics.median(i.total_s for i in measured),
            "build_s": speed * statistics.median(i.build_s for i in measured),
            "peak_rss_mb": rss_mb,
        }
    else:
        traced = [i for i in measured if i.traced]
        untraced = [i for i in measured if not i.traced]
        metrics = _median_dicts([
            iteration_layers(tracer.of_run(f"iter{index}"), it)
            for index, it in enumerate(iterations) if it.traced])
        setups = [layer_self_times(tracer.of_run(f"setup{k}"))
                  for k in range(len(setup_s))]
        metrics["sysconfig.load_s"] = statistics.median(s.get("sysconfig", 0.0) for s in setups)
        metrics["workloads.s"] = statistics.median(s.get("workloads", 0.0) for s in setups)
        traced_total = statistics.median(i.total_s for i in traced)
        untraced_total = statistics.median(i.total_s for i in untraced)
        metrics["trace.total_s"] = traced_total
        metrics["trace.untraced_total_s"] = untraced_total
        metrics["trace.overhead_pct"] = 100.0 * (traced_total / untraced_total - 1.0)
        metrics["bench.reference_ms"] = 1e3 * statistics.fmean(reference)
    return RunResult(checks=checks, metrics=metrics, digest=iterations[0].digest)
