"""System-state events and the model functions that change their granularity.

A trace is a sequence of state-transition events at the simulator's native
granularity; idle time is held as per-component spans, in memory and in
trace files alike.  A model function maps each event (or each
already-produced model-state key) to the coarser state space a model's
constants live in; aggregating the mapped keys yields the count vector that
multiplies those constants.
"""

from __future__ import annotations

import json
import re
from collections.abc import Iterable
from dataclasses import dataclass, replace
from enum import IntEnum
from functools import cached_property
from string import Formatter
from typing import NamedTuple

from .sysconfig import FieldError, json_field, manhattan, parse_coord

EVENT_BUNDLE = "bundle-issue"
EVENT_FLIT = "flit-hop"
EVENT_NI = "ni-transfer"
EVENT_SYNC = "sync"
EVENT_IDLE = "idle"

EVENT_KINDS = (EVENT_BUNDLE, EVENT_FLIT, EVENT_NI, EVENT_SYNC, EVENT_IDLE)

DISCARD = "discard"

_INT_RE = re.compile(r"^-?\d+$")

# Model-state keys of a channel synchronization and of a packet by hop count
# (0 is the cluster-local crossbar route) and size; fill with str.format.
SYNC_KEY = "sync"
HOP_FAMILY = "noc/hops:{hops}"
HOP_KEY = HOP_FAMILY + "/size:{size}"


def is_comm_key(key: str) -> bool:
    """Whether a key is the communication campaign's: sync or a noc/ key."""
    return key == SYNC_KEY or key.startswith("noc/")


class TraceError(ValueError):
    """A trace document or event is malformed."""


class ModelFunctionError(ValueError):
    """A model function is not total over its input or is used outside its domain."""


class AbstractionLevel(IntEnum):
    """Granularity of the state description; higher is finer."""

    BINARY_USAGE = 1
    ACTIVE_IDLE = 2
    FINE_GRAINED = 3


# ---------------------------------------------------------------------------
# Events and traces
# ---------------------------------------------------------------------------

class StateEvent(NamedTuple):
    """One state transition: a component did something at a cycle.

    The field order is the canonical trace order: events sort as tuples.
    """

    cycle: int
    component: str
    kind: str
    attrs: tuple[tuple[str, object], ...] = ()


def make_event(cycle: int, component: str, kind: str, /, **attrs: object) -> StateEvent:
    if kind not in EVENT_KINDS:
        raise TraceError(f"unknown event kind {kind!r}")
    return StateEvent(cycle, component, kind, tuple(sorted(attrs.items())))


class IdleSpan(NamedTuple):
    """A component idle for length consecutive cycles from start."""

    component: str
    start: int
    length: int


@dataclass(frozen=True)
class Trace:
    """An immutable trace: the non-idle events in canonical order (see
    sort_events) and the idle time as maximal per-component spans sorted
    by (component, start).

    Build traces from flat event lists with Trace.from_events, which folds
    bare idle events into spans, so every trace has one canonical form.
    """

    events: tuple[StateEvent, ...]
    idle: tuple[IdleSpan, ...] = ()

    def __post_init__(self) -> None:
        if any(e.kind == EVENT_IDLE for e in self.events):
            raise TraceError("idle time belongs in spans; use Trace.from_events")

    @classmethod
    def from_events(cls, events) -> "Trace":
        """Fold bare idle events into spans and sort the rest.

        An idle event with attributes, or a second idle event of one
        component at one cycle, cannot be a span and is refused.
        """
        busy: list[StateEvent] = []
        idle: dict[str, list[int]] = {}
        for e in events:
            if e.kind != EVENT_IDLE:
                busy.append(e)
            elif e.attrs:
                raise TraceError(
                    f"idle event of {e.component} at cycle {e.cycle} has attributes")
            else:
                idle.setdefault(e.component, []).append(e.cycle)
        return cls(events=sort_events(busy), idle=_fold_idle(idle))

    @property
    def duration(self) -> int:
        """Last covered cycle + 1: in canonical order the last event is the
        latest event, and spans end at start + length."""
        last = self.events[-1].cycle + 1 if self.events else 0
        return max([last, *(s.start + s.length for s in self.idle)])

    def concat(self, other: "Trace") -> "Trace":
        """Append another trace, shifting its cycles past this trace's end."""
        offset = self.duration
        shifted = tuple(e._replace(cycle=e.cycle + offset) for e in other.events)
        ends = {s.component: i for i, s in enumerate(self.idle)
                if s.start + s.length == offset}
        spans = list(self.idle)
        for s in other.idle:
            if s.start == 0 and s.component in ends:
                i = ends[s.component]
                spans[i] = spans[i]._replace(length=spans[i].length + s.length)
            else:
                spans.append(s._replace(start=s.start + offset))
        return Trace(events=self.events + shifted, idle=tuple(sorted(spans)))

    def to_lines(self) -> list[str]:
        """The file lines: each event as 'cycle<TAB>component<TAB>kind<TAB>payload'
        in canonical order, then each idle span as
        'start<TAB>component<TAB>idle<TAB>length=N' in (component, start) order.

        Event tails (all but the cycle) recur, as trace_from_lines notes, so
        each distinct tail is spelled once."""
        tails: dict[tuple, str] = {}
        lines = []
        for cycle, component, kind, attrs in self.events:
            key = (component, kind, attrs)
            tail = tails.get(key)
            if tail is None:
                payload = " ".join(f"{k}={v}" for k, v in attrs)
                tail = tails[key] = f"\t{component}\t{kind}\t{payload}"
            lines.append(f"{cycle}{tail}")
        lines += [f"{start}\t{component}\t{EVENT_IDLE}\tlength={length}"
                  for component, start, length in self.idle]
        return lines


def _fold_idle(idle: dict[str, Iterable[int]]) -> tuple[IdleSpan, ...]:
    """Maximal spans, sorted by (component, start), of each component's
    idle cycles; a cycle listed twice is refused."""
    spans: list[IdleSpan] = []
    for component in sorted(idle):
        cycles = sorted(idle[component])
        start = prev = cycles[0]
        for cycle in cycles[1:]:
            if cycle == prev:
                raise TraceError(f"two idle events of {component} at cycle {cycle}")
            if cycle != prev + 1:
                spans.append(IdleSpan(component, start, prev + 1 - start))
                start = cycle
            prev = cycle
        spans.append(IdleSpan(component, start, prev + 1 - start))
    return tuple(spans)


def sort_events(events: list[StateEvent]) -> tuple[StateEvent, ...]:
    """Canonical (cycle, component, kind, attrs) order."""
    return tuple(sorted(events))


def trace_from_lines(lines) -> Trace:
    """Parse a trace file whose lines may come in any order; blank lines are
    skipped.

    Everything after a line's cycle (its tail) recurs: a packet sweep
    repeats its flit hops.  So a tail is parsed and checked once, and a line
    costs its cycle's int() and one lookup of its tail.  Spans of one
    component must not overlap or touch, so a trace has one spelling; a
    clash is reported at the later of its two lines.
    """
    events: list[StateEvent] = []
    spans: list[tuple[str, int, int, int]] = []     # (component, start, length, line)
    parsed: dict[str, tuple] = {}
    for lineno, line in enumerate(lines, start=1):
        text, _, tail = line.partition("\t")
        entry = parsed.get(tail)
        if entry is None:
            if not line.rstrip("\n"):
                continue
            entry = parsed[tail] = _parse_tail(lineno, text, tail)
        try:
            cycle = int(text)
        except ValueError:
            raise TraceError(f"line {lineno}: cycle {text!r} is not an integer") from None
        component, kind, rest = entry
        if kind == EVENT_IDLE:
            spans.append((component, cycle, rest, lineno))
        else:
            events.append(StateEvent(cycle, component, kind, rest))
    spans.sort()
    for (component, start, length, line), nxt in zip(spans, spans[1:]):
        if nxt[0] == component and start + length >= nxt[1]:
            clash = ("repeats" if nxt[1:3] == (start, length)
                     else "adjoins" if start + length == nxt[1] else "overlaps")
            raise TraceError(f"line {max(line, nxt[3])}: idle span of {component} "
                             f"{clash} the one at line {min(line, nxt[3])}")
    return Trace(events=sort_events(events),
                 idle=tuple(IdleSpan(*span[:3]) for span in spans))


def _parse_tail(lineno: int, text: str, tail: str) -> tuple:
    """Check a line whose tail is new, in the order its faults are
    reported, and return (component, kind, attrs) of an event or
    (component, EVENT_IDLE, length) of an idle span."""
    fields = tail.rstrip("\n").split("\t")
    if len(fields) != 3:
        raise TraceError(f"line {lineno}: expected 4 tab-separated fields")
    try:
        int(text)
    except ValueError:
        raise TraceError(f"line {lineno}: cycle {text!r} is not an integer") from None
    component, kind, payload = fields
    attrs: dict[str, object] = {}
    if payload:
        for item in payload.split(" "):
            k, sep, v = item.partition("=")
            if not sep:
                raise TraceError(f"line {lineno}: attribute {item!r} is not name=value")
            attrs[k] = int(v) if _INT_RE.match(v) else v
    if kind == EVENT_IDLE:
        length = attrs.pop("length", None)
        if attrs:
            raise TraceError(f"line {lineno}: idle span has attribute {min(attrs)!r}")
        if not isinstance(length, int) or length < 1:
            raise TraceError(f"line {lineno}: idle span needs length=N with N >= 1")
        return component, EVENT_IDLE, length
    if kind not in EVENT_KINDS:
        raise TraceError(f"line {lineno}: unknown event kind {kind!r}")
    return component, kind, tuple(sorted(attrs.items()))


def component_class(component: str) -> str:
    """Strip the instance index: cpu12 -> cpu, router3 -> router."""
    stripped = component.rstrip("0123456789")
    return stripped if stripped else component


class _EventRecord(dict):
    """Flat field view of an event for rule matching and key templates.

    Derived fields are materialized lazily: the component class, the hop
    count recomputed from endpoint coordinates, and the identity key.
    """

    def __init__(self, event: StateEvent) -> None:
        super().__init__(event.attrs)
        self["kind"] = event.kind
        self["component"] = event.component
        self._event = event

    def __missing__(self, name: str):
        if name == "comp_class":
            value = component_class(self._event.component)
        elif name == "hops" and "src" in self and "dst" in self:
            value = manhattan(parse_coord(str(self["src"])),
                              parse_coord(str(self["dst"])))
        elif name == "__identity__":
            value = _identity_key(self._event)
        else:
            raise KeyError(name)
        self[name] = value
        return value

    def __contains__(self, name) -> bool:
        if super().__contains__(name):
            return True
        try:
            self[name]
        except KeyError:
            return False
        return True


def _identity_key(event: StateEvent) -> str:
    parts = [event.kind, event.component]
    parts.extend(f"{k}:{v}" for k, v in sorted(event.attrs))
    return "/".join(parts)


def parse_key(key: str) -> dict[str, object]:
    """Parse a model-state key back into fields for key-level rules.

    Segments are '/'-separated; 'name:value' segments become fields, the
    first bare segment is the component and any later bare segment a tag.
    """
    rec: dict[str, object] = {"key": key}
    for seg in key.split("/"):
        if ":" in seg:
            name, value = seg.split(":", 1)
            rec[name] = value
        elif "component" not in rec:
            rec["component"] = seg
            rec["comp_class"] = component_class(seg)
        else:
            rec["tag"] = seg
    return rec


# ---------------------------------------------------------------------------
# Model functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Rule:
    """First-match mapping rule: field predicates -> key template or discard."""

    match: tuple[tuple[str, object], ...]
    emit: str

    def matches(self, rec: dict[str, object]) -> bool:
        for name, want in self.match:
            if name not in rec:
                return False
            have = rec[name]
            if isinstance(want, tuple):
                if have not in want and str(have) not in [str(w) for w in want]:
                    return False
            elif have != want and str(have) != str(want):
                return False
        return True


def rule(match: dict[str, object], emit: str) -> Rule:
    """A Rule whose list or tuple match values are stored as tuples, so a
    rule read back from JSON equals the original and hashes."""
    return Rule(match=tuple(sorted(
        (name, tuple(want) if isinstance(want, (list, tuple)) else want)
        for name, want in match.items())), emit=emit)


@dataclass(frozen=True)
class ModelFunction:
    """Granularity transform from events (or keys) to model-state keys.

    domain "event" functions map raw StateEvents; domain "key" functions
    rewrite already-produced keys and can be composed onto any function.
    A pairwise function keys consecutive values of one attribute per
    component (transition models); the first event of a component counts
    as a self-transition.  Idle cannot be a paired kind: an idle event has
    no attribute to pair.

    An unpaired event's key is a function of its projection: its kind and
    its values of event_fields, the fields the rules match on and their
    templates read.  weighted_keys runs the rules once per distinct
    projection.
    """

    level: AbstractionLevel
    rules: tuple[Rule, ...]
    domain: str = "event"
    name: str = ""
    pair_attr: str | None = None
    pair_template: str = ""
    pair_kinds: tuple[str, ...] = ()
    then: "ModelFunction | None" = None

    def __post_init__(self) -> None:
        if self.domain not in ("event", "key"):
            raise ModelFunctionError(f"unknown domain {self.domain!r}")
        if EVENT_IDLE in self.pair_kinds:
            raise ModelFunctionError("idle cannot be a paired kind: it has no attributes")

    @cached_property
    def event_fields(self) -> frozenset[str] | None:
        """The fields the rules match on and their templates read, with each
        derived field widened to what it is derived from: "component" for
        comp_class, "src" and "dst" for hops.  None when a rule reads the
        whole event (__identity__) or a template cannot be parsed."""
        fields: set[str] = set()
        for r in self.rules:
            fields.update(name for name, _want in r.match)
            if r.emit != DISCARD:
                try:
                    fields.update(_template_fields(r.emit))
                except ValueError:      # _fill refuses it if the rule fires
                    return None
        if "__identity__" in fields:
            return None
        if "comp_class" in fields:
            fields.add("component")
        if "hops" in fields:
            fields.update(("src", "dst"))
        return frozenset(fields)

    # -- application ---------------------------------------------------------

    def _emit(self, rec: dict[str, object], what: str) -> str | None:
        for r in self.rules:
            if r.matches(rec):
                if r.emit == DISCARD:
                    return None
                return _fill(r.emit, rec, what)
        raise ModelFunctionError(f"no rule or discard directive for {what}")

    def _chain(self, key: str | None) -> str | None:
        if key is None or self.then is None:
            return key
        return self.then.rekey(key)

    def key_for_event(self, event: StateEvent) -> str | None:
        """Map one event to its model-state key, or None when discarded."""
        if self.domain != "event":
            raise ModelFunctionError("key-domain function applied to an event")
        if event.kind in self.pair_kinds:
            raise ModelFunctionError(
                "pairwise functions require stream context; use weighted_keys")
        rec = _EventRecord(event)
        return self._chain(self._emit(rec, f"event kind {event.kind!r}"))

    def rekey(self, key: str) -> str | None:
        if self.domain != "key":
            raise ModelFunctionError("event-domain function applied to a key")
        rec = parse_key(key)
        return self._chain(self._emit(rec, f"key {key!r}"))


def _template_fields(template: str) -> set[str]:
    """The record fields a key template reads: each replacement field's
    name before any attribute or index access, nested format specs too.
    Raises ValueError where str.format cannot parse the template."""
    fields: set[str] = set()
    for _text, name, spec, conversion in Formatter().parse(template):
        if conversion not in (None, "r", "s", "a"):
            raise ValueError(f"unknown conversion specifier {conversion}")
        if name is not None:
            fields.add(re.match(r"[^.\[]*", name).group())
            fields.update(_template_fields(spec or ""))
    return fields


def _fill(template: str, rec: dict[str, object], what: str) -> str:
    try:
        return template.format_map(rec)
    except KeyError as exc:
        raise ModelFunctionError(
            f"template {template!r} needs field {exc.args[0]!r} absent from {what}") from exc
    except (AttributeError, TypeError, IndexError, ValueError) as exc:
        raise ModelFunctionError(
            f"template {template!r} cannot be filled from {what}: {exc}") from exc


def compose(f: ModelFunction, g: ModelFunction) -> ModelFunction:
    """Composition applying g first, then f to g's output keys.

    abstract_trace(t, compose(f, g)) equals applying the two stages
    separately for every trace.
    """
    if f.domain != "key":
        raise ModelFunctionError(
            "domain mismatch: outer function of a composition must be key-domain")
    then = f if g.then is None else compose(f, g.then)
    return replace(g, then=then, level=f.level,
                   name=f"{f.name or 'f'}*{g.name or 'g'}")


_UNSEEN = object()     # memo default: a memoized key may be None (discarded)


def weighted_keys(trace: Trace, fn: ModelFunction):
    """Yield (component, key-or-None, cycles) under fn: one triple per
    non-idle event (cycles 1), then one per idle span (its length).

    An unpaired event's key depends only on its projection onto
    fn.event_fields: the component if the rules read it, the kind and the
    attributes the rules read.  So the rules run once per distinct
    projection: bundles that differ only in addr, or idle spans that differ
    only in component, share one key when no rule reads that field.  A memo
    on the whole (component, kind, attrs) answers an event's repeats before
    it is projected.  Both memos live for one call.  A paired event's key
    depends on its component's previous paired value, so it is never
    memoized; canonical order restricted to one component is that
    component's stream order.
    """
    if fn.domain != "event":
        raise ModelFunctionError("traces can only be abstracted by event-domain functions")
    fields = fn.event_fields
    reads_component = fields is None or "component" in fields
    projected: dict[tuple, str | None] = {}

    def project(event: StateEvent) -> str | None:
        component, kind, attrs = event[1:]
        proj = (component if reads_component else None, kind,
                attrs if fields is None
                else tuple([item for item in attrs if item[0] in fields]))
        key = projected.get(proj, _UNSEEN)
        if key is _UNSEEN:
            key = projected[proj] = fn.key_for_event(event)
        return key

    memo: dict[tuple, str | None] = {}
    last: dict[str, object] = {}
    for event in trace.events:
        ident = event[1:]       # (component, kind, attrs)
        key = memo.get(ident, _UNSEEN)
        if key is _UNSEEN and event.kind in fn.pair_kinds:
            rec = _EventRecord(event)
            if fn.pair_attr not in rec:
                raise ModelFunctionError(
                    f"pairwise attribute {fn.pair_attr!r} absent from {event.kind} event")
            cur = rec[fn.pair_attr]
            prev = last.get(event.component, cur)
            last[event.component] = cur
            key = fn._chain(_fill(fn.pair_template, {"prev": prev, "cur": cur},
                                  f"{event.kind} event pair"))
        elif key is _UNSEEN:
            key = memo[ident] = project(event)
        yield event.component, key, 1
    for component, start, length in trace.idle:
        ident = (component, EVENT_IDLE, ())
        key = memo.get(ident, _UNSEEN)
        if key is _UNSEEN:
            key = memo[ident] = project(StateEvent(start, *ident))
        yield component, key, length


# ---------------------------------------------------------------------------
# Count vectors
# ---------------------------------------------------------------------------

@dataclass
class StateCountVector:
    """Occurrence counts per model-state key over an observation window."""

    counts: dict[str, int]
    duration: int

    def __post_init__(self) -> None:
        for key, count in self.counts.items():
            if count < 0:
                raise TraceError(f"negative count for key {key!r}")
        if self.duration < 0:
            raise TraceError("negative duration")


def abstract_trace(trace: Trace, fn: ModelFunction) -> StateCountVector:
    """Aggregate a trace into per-key counts under a model function.

    Linear by construction: counts of a concatenation are the per-key sums.
    An idle span counts one per cycle.  Duration is last covered cycle + 1.
    """
    counts: dict[str, int] = {}
    for _component, key, cycles in weighted_keys(trace, fn):
        if key is not None:
            counts[key] = counts.get(key, 0) + cycles
    return StateCountVector(counts=counts, duration=trace.duration)


def rekey_vector(vector: StateCountVector, fn: ModelFunction) -> StateCountVector:
    """Apply a key-domain function to an already-aggregated vector."""
    counts: dict[str, int] = {}
    for key, count in vector.counts.items():
        new = fn.rekey(key)
        if new is not None:
            counts[new] = counts.get(new, 0) + count
    return StateCountVector(counts=counts, duration=vector.duration)


# ---------------------------------------------------------------------------
# Shipped model functions
# ---------------------------------------------------------------------------

def identity_function() -> ModelFunction:
    """Fine-grained identity: one key per distinct (kind, component, attributes)."""
    return ModelFunction(
        level=AbstractionLevel.FINE_GRAINED,
        rules=(rule({}, "{__identity__}"),),
        name="identity",
    )


def _fine_function(name: str, ni_key: str) -> ModelFunction:
    """The one fine-grained rule list; only the NI transfer's key differs."""
    return ModelFunction(
        level=AbstractionLevel.FINE_GRAINED,
        rules=(
            rule({"kind": EVENT_BUNDLE}, "group:{group}/pat:{pattern}"),
            rule({"kind": EVENT_SYNC}, SYNC_KEY),
            rule({"kind": EVENT_NI}, ni_key),
            rule({"kind": EVENT_FLIT}, DISCARD),
            rule({"kind": EVENT_IDLE}, DISCARD),
        ),
        name=name,
    )


def instruction_model_function() -> ModelFunction:
    """Fine-grained modeling keys: per (group, pattern) bundles, a single
    sync key and hop/size communication keys.

    A bundle's key carries its whole issue energy, data-memory access
    included.  The instruction-memory position is deliberately not part of
    the key; component ids are dropped so constants transfer across CPUs.
    """
    return _fine_function("instruction-fine", HOP_KEY)


def noc_pair_function() -> ModelFunction:
    """Fine NoC keys over all (source, destination, size) permutations."""
    return _fine_function("noc-pair", "noc/src:{src}/dst:{dst}/size:{size}")


def noc_hop_function() -> ModelFunction:
    """Reduced NoC keys: endpoint coordinates collapsed to the hop count."""
    return _fine_function("noc-hop", HOP_KEY)


def active_idle_function() -> ModelFunction:
    """Per-component-class active/idle keys.

    Shared components without idle events (routers, NIs, the bus)
    contribute active keys only.
    """
    return ModelFunction(
        level=AbstractionLevel.ACTIVE_IDLE,
        rules=(
            rule({"kind": EVENT_IDLE}, "{comp_class}/idle"),
            rule({}, "{comp_class}/active"),
        ),
        name="active-idle",
    )


def binary_usage_function() -> ModelFunction:
    """Coarsest keys: a component class is merely used, the active/idle
    split is gone.  Strictly coarser than active_idle_function (active and
    idle keys merge into one), so refining the level can never hurt the fit."""
    return ModelFunction(
        level=AbstractionLevel.BINARY_USAGE,
        rules=(rule({}, "{comp_class}/used"),),
        name="binary-usage",
    )


def transition_function(attr: str = "group",
                        kinds: tuple[str, ...] = (EVENT_BUNDLE,)) -> ModelFunction:
    """Comprehensive pairwise keys trans:<prev>><cur> over one attribute.

    Everything outside the paired kinds is discarded; a component's first
    event pairs with itself.
    """
    return ModelFunction(
        level=AbstractionLevel.FINE_GRAINED,
        rules=(rule({}, DISCARD),),
        pair_attr=attr,
        pair_template="trans:{prev}>{cur}",
        pair_kinds=kinds,
        name=f"transition-{attr}",
    )


_BUILTINS = {
    "identity": identity_function,
    "instruction-fine": instruction_model_function,
    "noc-pair": noc_pair_function,
    "noc-hop": noc_hop_function,
    "active-idle": active_idle_function,
    "binary-usage": binary_usage_function,
}


def builtin_function(name: str) -> ModelFunction:
    if name not in _BUILTINS:
        raise ModelFunctionError(
            f"unknown function {name!r}; available: {sorted(_BUILTINS)}")
    return _BUILTINS[name]()


# ---------------------------------------------------------------------------
# Model-function serialization (rule files)
# ---------------------------------------------------------------------------

def function_to_json(fn: ModelFunction) -> dict:
    doc: dict = {
        "level": fn.level.name,
        "domain": fn.domain,
        "name": fn.name,
        "rules": [{"match": dict(r.match), "emit": r.emit} for r in fn.rules],
    }
    if fn.pair_attr is not None:
        doc["pair"] = {"attr": fn.pair_attr, "template": fn.pair_template,
                       "kinds": list(fn.pair_kinds)}
    if fn.then is not None:
        doc["then"] = function_to_json(fn.then)
    return doc


def function_from_json(doc) -> ModelFunction:
    """A model function from its rule-file document.  A field of the wrong
    type raises ModelFunctionError naming the field."""
    try:
        return _function_from_json(doc, "")
    except FieldError as exc:
        raise ModelFunctionError(str(exc)) from None


def _function_from_json(doc, where: str) -> ModelFunction:
    if isinstance(doc, list):
        # bare rule list: a fine-grained event-domain function
        doc = {"level": "FINE_GRAINED", "rules": doc}
    if not isinstance(doc, dict):
        raise FieldError(f"{where.rstrip('.') or 'a rule file'} must be an "
                         f"object or a list of rules, got {doc!r}")
    level = json_field(where, doc, "level", "a string")
    if level not in AbstractionLevel.__members__:
        raise FieldError(f"{where}level {level!r} is not a level")
    rules = []
    for i, r in enumerate(json_field(where, doc, "rules", "a list")):
        at = f"{where}rules[{i}]"
        if not isinstance(r, dict):
            raise FieldError(f"{at} must be an object, got {r!r}")
        rules.append(rule(json_field(at + ".", r, "match", "an object"),
                          _template_field(at + ".", r, "emit")))
    pair = json_field(where, doc, "pair", "an object", None)
    attr, template, kinds = None, "", ()
    if pair is not None:
        at = where + "pair."
        attr = json_field(at, pair, "attr", "a string")
        template = _template_field(at, pair, "template")
        kinds = tuple(json_field(at, pair, "kinds", "a list"))
        if not all(isinstance(kind, str) for kind in kinds):
            raise FieldError(f"{at}kinds must list strings, got {list(kinds)!r}")
    then = doc.get("then")
    return ModelFunction(
        level=AbstractionLevel[level],
        domain=json_field(where, doc, "domain", "a string", "event"),
        rules=tuple(rules),
        name=json_field(where, doc, "name", "a string", ""),
        pair_attr=attr,
        pair_template=template,
        pair_kinds=kinds,
        then=None if then is None else _function_from_json(then, where + "then."),
    )


def _template_field(where: str, doc: dict, name: str) -> str:
    """A string field that str.format can parse as a key template."""
    template = json_field(where, doc, name, "a string")
    try:
        _template_fields(template)
    except ValueError as exc:
        raise FieldError(f"{where}{name} {template!r} is not a key template: {exc}") from None
    return template


def load_function(path: str) -> ModelFunction:
    with open(path, "r", encoding="utf-8") as fh:
        return function_from_json(json.load(fh))
