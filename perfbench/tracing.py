"""In-memory spans around the benchmark's own calls into enermod.

A span records a `<module>.<function>` name, its parent span, the run it
belongs to (one set-up or one iteration), start and end times and counts
taken at the same boundary.  Spans stay in memory and are written out once,
when the benchmark ends.  With tracing off, `span` hands out a shared no-op
object and records nothing.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

# Spans whose work belongs to another layer than their module: run_campaign
# is the oracle loop, comm_benchmarks_per_hop generates benchmarks, and
# merge_models finishes the reduction of the fitted models.
LAYER_OF = {
    "pipeline.run_campaign": "refsim",
    "pipeline.comm_benchmarks_per_hop": "benchgen",
    "pipeline.merge_models": "modelfit",
    "refsim.load_oracle_params": "sysconfig",
}


def layer_of(name: str) -> str:
    return LAYER_OF.get(name, name.split(".", 1)[0])


@dataclass
class Span:
    id: int
    parent: int | None
    run: str
    name: str
    label: str
    start: float
    end: float = 0.0
    counts: dict[str, float] = field(default_factory=dict)

    def count(self, **values: float) -> None:
        for key, value in values.items():
            self.counts[key] = self.counts.get(key, 0) + value

    @property
    def duration(self) -> float:
        return self.end - self.start


class _NoSpan:
    def count(self, **values: float) -> None:
        pass


_NO_SPAN = _NoSpan()


class Tracer:
    """Collects spans while `enabled`; `run` tags the spans that follow."""

    def __init__(self) -> None:
        self.enabled = False
        self.run = "setup"
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    @contextmanager
    def span(self, name: str, label: str = ""):
        if not self.enabled:
            yield _NO_SPAN
            return
        parent = self._stack[-1].id if self._stack else None
        span = Span(id=len(self.spans), parent=parent, run=self.run,
                    name=name, label=label, start=perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end = perf_counter()
            self._stack.pop()

    def of_run(self, run: str) -> list[Span]:
        return [s for s in self.spans if s.run == run]

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.id, "parent": s.parent, "run": s.run,
                    "name": s.name, "label": s.label, "start": s.start,
                    "end": s.end, "counts": s.counts}, sort_keys=True) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover.

    The benchmark is single-threaded, so children never overlap."""
    own = {s.id: s.duration for s in spans}
    for s in spans:
        if s.parent is not None and s.parent in own:
            own[s.parent] -= s.duration
    return own


def layer_self_times(spans: list[Span]) -> dict[str, float]:
    own = self_times(spans)
    layers: dict[str, float] = {}
    for s in spans:
        layer = layer_of(s.name)
        layers[layer] = layers.get(layer, 0.0) + own[s.id]
    return layers


def totals(spans: list[Span], names: tuple[str, ...], label: str | None = None
           ) -> tuple[float, dict[str, float]]:
    """Summed self time and counts of the spans with one of these names
    (and this label, when given)."""
    own = self_times(spans)
    seconds = 0.0
    counts: dict[str, float] = {}
    for s in spans:
        if s.name not in names or (label is not None and s.label != label):
            continue
        seconds += own[s.id]
        for key, value in s.counts.items():
            counts[key] = counts.get(key, 0) + value
    return seconds, counts
