"""System-state events and the model functions that change their granularity.

A trace is a sequence of records at the simulator's native granularity,
each a component in one state for a run of cycles; idle time is a run of
the idle state.  A model function maps each event (or each already-produced
model-state key) to the coarser state space a model's constants live in;
aggregating the mapped keys yields the count vector that multiplies those
constants.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from functools import cached_property
from string import Formatter
from typing import NamedTuple

from .sysconfig import FieldError, json_document, json_field, manhattan, parse_coord

EVENT_BUNDLE = "bundle-issue"
EVENT_FLIT = "flit-hop"
EVENT_NI = "ni-transfer"
EVENT_SYNC = "sync"
EVENT_IDLE = "idle"

EVENT_KINDS = (EVENT_BUNDLE, EVENT_FLIT, EVENT_NI, EVENT_SYNC, EVENT_IDLE)

DISCARD = "discard"

_INT_RE = re.compile(r"-?[0-9]+")     # an integer attribute value, in full
_UNSEEN = object()     # memo default: a memoized key may be None (discarded)

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
    """A model function is not total over its input or cannot be applied to it."""


# ---------------------------------------------------------------------------
# Events and traces
# ---------------------------------------------------------------------------

class StateEvent(NamedTuple):
    """One trace record: a component did one (kind, attrs) for length
    consecutive cycles from cycle.  An idle record has no attributes.

    The field order is the canonical trace order: records sort as tuples.
    """

    cycle: int
    component: str
    kind: str
    attrs: tuple[tuple[str, object], ...] = ()
    length: int = 1


def make_event(cycle: int, component: str, kind: str, /, **attrs: object) -> StateEvent:
    if kind not in EVENT_KINDS:
        raise TraceError(f"unknown event kind {kind!r}")
    return StateEvent(cycle, component, kind, tuple(sorted(attrs.items())))


@dataclass(frozen=True)
class Trace:
    """An immutable trace, its records sorted into canonical order.

    The idle records of one component neither overlap nor adjoin, so a
    component's idle time has one spelling; other records may repeat or
    overlap one another, as when CPUs of one cluster make equal transfers
    in one cycle, and need not be maximal runs.
    """

    events: tuple[StateEvent, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(sorted(self.events)))

    @property
    def duration(self) -> int:
        """Last covered cycle + 1."""
        return max((e.cycle + e.length for e in self.events), default=0)

    def concat(self, other: "Trace") -> "Trace":
        """Append another trace, shifting its cycles past this trace's end;
        an idle record that ends there absorbs its component's idle record
        at the other trace's cycle 0."""
        offset = self.duration
        ends = {e.component: i for i, e in enumerate(self.events)
                if e.kind == EVENT_IDLE and e.cycle + e.length == offset}
        events = list(self.events)
        for e in other.events:
            i = ends.get(e.component) if e.kind == EVENT_IDLE and e.cycle == 0 else None
            if i is None:
                events.append(e._replace(cycle=e.cycle + offset))
            else:
                events[i] = events[i]._replace(length=events[i].length + e.length)
        return Trace(events=events)

    def to_lines(self) -> list[str]:
        """The file lines: each record as
        'cycle<TAB>length<TAB>component<TAB>kind<TAB>payload' in canonical
        order.

        Record tails (all but the cycle) recur, as trace_from_lines notes,
        so each distinct tail is spelled once."""
        tails: dict[tuple, str] = {}
        lines = []
        for event in self.events:
            tail = tails.get(event[1:])
            if tail is None:
                _cycle, component, kind, attrs, length = event
                payload = " ".join(f"{k}={v}" for k, v in attrs)
                tail = tails[event[1:]] = f"\t{length}\t{component}\t{kind}\t{payload}"
            lines.append(f"{event.cycle}{tail}")
        return lines


def trace_from_lines(lines) -> Trace:
    """Parse a trace file whose lines may come in any order; blank lines are
    skipped.

    Everything after a line's cycle (its tail) recurs: a packet sweep
    repeats its flit hops.  So a tail is parsed and checked once, and a line
    costs its cycle's check and int() and one lookup of its tail.  Idle records of one
    component must not overlap or touch, so idle time has one spelling; a
    clash is reported at the later of its two lines.
    """
    events: list[StateEvent] = []
    idle: list[tuple[str, int, int, int]] = []     # (component, start, length, line)
    parsed: dict[str, tuple] = {}
    for lineno, line in enumerate(lines, start=1):
        text, _, tail = line.partition("\t")
        entry = parsed.get(tail)
        if entry is None:
            if not line.rstrip("\n"):
                continue
            entry = parsed[tail] = _parse_tail(lineno, text, tail)
        event = StateEvent(_cycle(lineno, text), *entry)
        events.append(event)
        if event.kind == EVENT_IDLE:
            idle.append((event.component, event.cycle, event.length, lineno))
    idle.sort()
    for (component, start, length, line), nxt in zip(idle, idle[1:]):
        if nxt[0] == component and start + length >= nxt[1]:
            clash = ("repeats" if nxt[1:3] == (start, length)
                     else "adjoins" if start + length == nxt[1] else "overlaps")
            raise TraceError(f"line {max(line, nxt[3])}: idle record of {component} "
                             f"{clash} the one at line {min(line, nxt[3])}")
    return Trace(events=events)


def is_digits(text: str) -> bool:
    """Whether text is [0-9]+, the one spelling of a cycle, a length and a
    program's cpu id."""
    return text.isascii() and text.isdigit()


def read_int(text: str, where: str, error: type[Exception] = TraceError) -> int:
    """int() of a text that is -?[0-9]+ in full.  A text of more digits
    than int() converts (sys.get_int_max_str_digits, a process-wide limit
    left as it is) raises error, naming where."""
    try:
        return int(text)
    except ValueError:
        raise error(f"{where}: {len(text)} digits are more than an integer "
                    "may have") from None


def _cycle(lineno: int, text: str) -> int:
    """A line's start cycle, checked on every line: an integer >= 0."""
    if not is_digits(text):
        raise TraceError(f"line {lineno}: cycle {text!r} is not an integer >= 0")
    return read_int(text, f"line {lineno}: cycle")


def _parse_tail(lineno: int, text: str, tail: str) -> tuple:
    """Check a line whose tail is new, in the order its faults are
    reported, and return its record's (component, kind, attrs, length)."""
    fields = tail.rstrip("\n").split("\t")
    if len(fields) != 4:
        raise TraceError(f"line {lineno}: expected 5 tab-separated fields")
    _cycle(lineno, text)
    length, component, kind, payload = fields
    if not is_digits(length) or read_int(length, f"line {lineno}: length") < 1:
        raise TraceError(f"line {lineno}: length {length!r} is not an integer >= 1")
    attrs: dict[str, object] = {}
    if payload:
        for item in payload.split(" "):
            k, sep, v = item.partition("=")
            if not sep:
                raise TraceError(f"line {lineno}: attribute {item!r} is not name=value")
            attrs[k] = _value(v, f"line {lineno}: {k}")
    if kind == EVENT_IDLE and attrs:
        raise TraceError(f"line {lineno}: idle record has attribute {min(attrs)!r}")
    if kind not in EVENT_KINDS:
        raise TraceError(f"line {lineno}: unknown event kind {kind!r}")
    return component, kind, tuple(sorted(attrs.items())), int(length)


def component_class(component: str) -> str:
    """Strip the instance index: cpu12 -> cpu, router3 -> router."""
    stripped = component.rstrip("0123456789")
    return stripped if stripped else component


def _value(text: str, where: str, error: type[ValueError] = TraceError) -> object:
    """A field value as a rule reads it: an int where text is -?[0-9]+ in
    full (see read_int), else the text."""
    return read_int(text, where, error) if _INT_RE.fullmatch(text) else text


def _derive(rec: dict[str, object]) -> dict[str, object]:
    """Add the derived fields to a record: comp_class from component and,
    where src and dst both parse as mesh coordinates, hops.  A field named
    like a derived field wins over it."""
    if "component" in rec:
        rec.setdefault("comp_class", component_class(str(rec["component"])))
    if "hops" not in rec and "src" in rec and "dst" in rec:
        try:
            rec["hops"] = manhattan(parse_coord(str(rec["src"])),
                                    parse_coord(str(rec["dst"])))
        except ValueError:      # not coordinates: the record has no hops
            pass
    return rec


def _event_record(event: StateEvent) -> dict[str, object]:
    """The fields a top-stage rule reads: the event's attributes, its kind
    and component, __identity__ and the _derive fields."""
    rec: dict[str, object] = dict(event.attrs, kind=event.kind, component=event.component)
    rec.setdefault("__identity__", _identity_key(event))
    return _derive(rec)


def _identity_key(event: StateEvent) -> str:
    parts = [event.kind, event.component]
    parts.extend(f"{k}:{v}" for k, v in sorted(event.attrs))
    return "/".join(parts)


def parse_key(key: str) -> dict[str, object]:
    """Parse a model-state key back into fields for key-level rules.

    Segments are '/'-separated; 'name:value' segments become fields, read
    by _value as trace attributes are, the first bare segment is the
    component and any later bare segment a tag; then the _derive fields.
    """
    rec: dict[str, object] = {"key": key}
    where = f"key {key!r}"
    for seg in key.split("/"):
        name, sep, value = seg.partition(":")
        if sep:
            rec[name] = _value(value, where, ModelFunctionError)
        elif "component" not in rec:
            rec["component"] = seg
        else:
            rec["tag"] = seg
    return _derive(rec)


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
    """Granularity transform from events to model-state keys.

    The top stage's rules read each event's record (see _event_record); a
    then stage's rules read the parse_key record of the key the stage before
    produced, so any function can be composed onto any function.  A pairwise
    function keys consecutive values of one attribute per component
    (transition models); the first event of a component counts as a
    self-transition.  Idle cannot be a paired kind: an idle event has no
    attribute to pair.
    """

    rules: tuple[Rule, ...]
    name: str = ""
    pair_attr: str | None = None
    pair_template: str = ""
    pair_kinds: tuple[str, ...] = ()
    then: "ModelFunction | None" = None

    def __post_init__(self) -> None:
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

    @cached_property
    def _keys(self) -> tuple[dict[tuple, str | None], dict[tuple, str | None]]:
        """key_for_event's memo for the function's whole life: the key of
        each whole (component, kind, attrs) and of each projection."""
        return {}, {}

    def key_for_event(self, event: StateEvent) -> str | None:
        """Map one unpaired event to its model-state key, or None when
        discarded.

        The key is a function of the event's projection onto event_fields:
        the component if the rules read it, the kind and the attributes the
        rules read.  So the rules run once per distinct projection over the
        function's life: bundles that differ only in addr, or idle events
        that differ only in component, share one key when no rule reads that
        field.  A memo on the whole (component, kind, attrs) answers repeats
        before projecting; a raised ModelFunctionError is not memoized.
        """
        if event.kind in self.pair_kinds:
            raise ModelFunctionError(
                "pairwise functions require stream context; use weighted_keys")
        whole, projected = self._keys
        component, kind, attrs = ident = event[1:4]
        key = whole.get(ident, _UNSEEN)
        if key is _UNSEEN:
            fields = self.event_fields
            proj = (component if fields is None or "component" in fields else None,
                    kind, attrs if fields is None
                    else tuple([item for item in attrs if item[0] in fields]))
            key = projected.get(proj, _UNSEEN)
            if key is _UNSEEN:
                key = projected[proj] = self._chain(
                    self._emit(_event_record(event), f"event kind {kind!r}"))
            whole[ident] = key
        return key

    def rekey(self, key: str) -> str | None:
        """Map a key, as a then stage does, through this function's stages."""
        return self._chain(self._emit(parse_key(key), f"key {key!r}"))


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
    """Composition applying g first, then f's rules to g's output keys.

    abstract_trace(t, compose(f, g)) equals applying the two stages
    separately for every trace.
    """
    then = f if g.then is None else compose(f, g.then)
    return replace(g, then=then, name=f"{f.name or 'f'}*{g.name or 'g'}")


def weighted_keys(trace: Trace, fn: ModelFunction):
    """Yield (component, key-or-None, cycles) under fn, one triple per
    record (cycles its length) in canonical order, and two for a paired
    record longer than one cycle.

    Unpaired records take fn.key_for_event's key; its memo answers a repeat
    in one lookup.  A paired record's key depends on its component's
    previous paired value, so it is never memoized: it pairs with that
    value once and with itself for the rest of its cycles.  Canonical order
    restricted to one component is that component's stream order, as long
    as its paired records do not partly overlap.
    """
    memo = fn._keys[0]
    last: dict[str, object] = {}

    def pair(kind: str, prev: object, cur: object) -> str | None:
        return fn._chain(_fill(fn.pair_template, {"prev": prev, "cur": cur},
                               f"{kind} event pair"))

    for event in trace.events:
        cycles = event.length
        key = memo.get(event[1:4], _UNSEEN)
        if key is _UNSEEN and event.kind in fn.pair_kinds:
            rec = _event_record(event)
            if fn.pair_attr not in rec:
                raise ModelFunctionError(
                    f"pairwise attribute {fn.pair_attr!r} absent from {event.kind} event")
            cur = rec[fn.pair_attr]
            key = pair(event.kind, last.get(event.component, cur), cur)
            last[event.component] = cur
            if cycles > 1:
                yield event.component, key, 1
                key, cycles = pair(event.kind, cur, cur), cycles - 1
        elif key is _UNSEEN:
            key = fn.key_for_event(event)
        yield event.component, key, cycles


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
    A record counts one per cycle.  Duration is last covered cycle + 1.
    """
    counts: dict[str, int] = {}
    for _component, key, cycles in weighted_keys(trace, fn):
        if key is not None:
            counts[key] = counts.get(key, 0) + cycles
    return StateCountVector(counts=counts, duration=trace.duration)


def rekey_vector(vector: StateCountVector, fn: ModelFunction) -> StateCountVector:
    """Apply a function to the keys of an already-aggregated vector, as a
    then stage."""
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
        rules=(rule({}, "{__identity__}"),),
        name="identity",
    )


def _fine_function(name: str, ni_key: str) -> ModelFunction:
    """The one fine-grained rule list; only the NI transfer's key differs."""
    return ModelFunction(
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
        rules=(
            rule({"kind": EVENT_IDLE}, "{comp_class}/idle"),
            rule({}, "{comp_class}/active"),
        ),
        name="active-idle",
    )


def binary_usage_function() -> ModelFunction:
    """Coarsest keys: a component class is merely used, the active/idle
    split is gone.  Strictly coarser than active_idle_function (active and
    idle keys merge into one), so refining it to active_idle_function can
    never hurt the fit."""
    return ModelFunction(
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
        doc = {"rules": doc}
    if not isinstance(doc, dict):
        raise FieldError(f"{where.rstrip('.') or 'a rule file'} must be an "
                         f"object or a list of rules, got {doc!r}")
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
        return function_from_json(json_document(fh.read(), ModelFunctionError))
