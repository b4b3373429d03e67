"""Trace abstraction, model functions, and composition."""

import contextlib
import io
import json
import random
import re
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enermod import data_path
from enermod.benchgen import parse_manifest_csv
from enermod.cli import main
from enermod.refsim import (
    DATA_PATTERNS,
    BundleOp,
    Program,
    RecvOp,
    SendOp,
    SyncOp,
    program_from_json,
    run_program,
    xy_route,
)
from enermod.statetrace import (
    _BUILTINS,
    _event_record,
    DISCARD,
    EVENT_BUNDLE,
    EVENT_FLIT,
    EVENT_IDLE,
    EVENT_KINDS,
    EVENT_NI,
    EVENT_SYNC,
    ModelFunction,
    ModelFunctionError,
    StateEvent,
    Trace,
    TraceError,
    abstract_trace,
    active_idle_function,
    binary_usage_function,
    builtin_function,
    component_class,
    compose,
    function_from_json,
    function_to_json,
    identity_function,
    instruction_model_function,
    make_event,
    noc_hop_function,
    noc_pair_function,
    parse_key,
    rekey_vector,
    rule,
    trace_from_lines,
    transition_function,
    weighted_keys,
)
from enermod.sysconfig import (
    enumerate_instruction_groups,
    format_coord,
    load_isa,
    manhattan,
    n_flits,
)

from conftest import expand, idle_records


def _trace(events):
    """A trace of events whose idle events, which may repeat, overlap or
    adjoin, merge into maximal idle records."""
    idle = {}
    for e in events:
        if e.kind == EVENT_IDLE:
            idle.setdefault(e.component, set()).update(range(e.cycle, e.cycle + e.length))
    return Trace(events=[*(e for e in events if e.kind != EVENT_IDLE), *idle_records(idle)])


_NON_IDLE = [k for k in EVENT_KINDS if k != EVENT_IDLE]


@st.composite
def _record_traces(draw, records, components):
    """Records drawn from records, each 1-4 cycles long, some repeated and
    some overlapping, plus per-component idle cycles that are a union of
    overlapping and adjacent runs, as maximal idle records, so idle records
    share cycles with records of their own component."""
    drawn = draw(st.lists(st.builds(lambda e, length: e._replace(length=length),
                                    records, st.integers(1, 4)), max_size=25))
    if drawn:
        drawn += draw(st.lists(st.sampled_from(drawn), max_size=3))
    runs = draw(st.dictionaries(components, st.lists(
        st.tuples(st.integers(0, 30), st.integers(1, 6)), max_size=4), max_size=4))
    return _trace([*drawn, *(StateEvent(start, component, EVENT_IDLE, (), length)
                             for component, spans in runs.items() for start, length in spans)])


# Oracle vocabulary: each attribute name has one value type, as in the
# simulator's events.  Strings hold no whitespace, no "=" and no integer form,
# so every value survives the trace line format.
_INT_ATTRS = ("addr", "flits", "hop", "size")
_STR_ATTRS = ("dst", "fmt", "group", "pattern", "src")
_words = st.text("abcxyz,+-_0123456789", min_size=1, max_size=6).filter(
    lambda v: not v.lstrip("-").isdigit())
_attrs = st.fixed_dictionaries({}, optional={
    **{name: st.integers(-5, 1024) for name in _INT_ATTRS},
    **{name: _words for name in _STR_ATTRS}})
_components = st.builds("{}{}".format, st.sampled_from(["cpu", "router", "ni", "bus"]),
                        st.integers(0, 3))
_traces = _record_traces(st.builds(
    lambda cycle, component, kind, attrs: make_event(cycle, component, kind, **attrs),
    st.integers(0, 40), _components, st.sampled_from(_NON_IDLE), _attrs), _components)


def _active_idle_per_component():
    """active-idle keyed by component instance, as a rule file can spell it."""
    return ModelFunction(rules=(rule({"kind": EVENT_IDLE}, "{component}/idle"),
                                rule({}, "{component}/active")),
                         name="active-idle-per-component")


def _bundle(cycle, cpu=0, group="add+add", pattern="zeros", addr=0):
    return make_event(cycle, f"cpu{cpu}", "bundle-issue",
                      group=group, pattern=pattern, addr=addr, fmt="u")


# ---------------------------------------------------------------------------
# abstract_trace
# ---------------------------------------------------------------------------

def test_identity_counts_distinct_events():
    t = _trace([_bundle(0), _bundle(1), _bundle(2, group="sub+sub"),
                make_event(3, "cpu0", "idle")])
    vec = abstract_trace(t, identity_function())
    assert vec.duration == 4
    assert sum(vec.counts.values()) == 4
    by_key = {k: c for k, c in vec.counts.items()}
    assert sum(c for k, c in by_key.items() if "add+add" in k) == 2
    assert sum(c for k, c in by_key.items() if "sub+sub" in k) == 1


def test_active_idle_sixty_forty():
    # 100-cycle single-CPU trace with 60 bundles and 40 materialized idles
    events = [_bundle(c) for c in range(60)]
    events += [make_event(c, "cpu0", "idle") for c in range(60, 100)]
    vec = abstract_trace(_trace(events), active_idle_function())
    assert vec.counts == {"cpu/active": 60, "cpu/idle": 40}
    assert vec.duration == 100


def test_missing_rule_is_an_error():
    fn = ModelFunction(rules=(rule({"kind": "idle"}, DISCARD),))
    with pytest.raises(ModelFunctionError, match="no rule"):
        abstract_trace(_trace([_bundle(0)]), fn)


def test_hop_reduction_keys_on_all_pairs(mesh3_config):
    # one ni-transfer per ordered cluster pair; expected counts brute-forced
    clusters = mesh3_config.all_clusters()
    events = []
    cycle = 0
    for src in clusters:
        for dst in clusters:
            if src == dst:
                continue
            events.append(make_event(cycle, "ni0", "ni-transfer",
                                     src=f"{src[0]},{src[1]}",
                                     dst=f"{dst[0]},{dst[1]}",
                                     size=64, flits=8))
            cycle += 1
    vec = abstract_trace(_trace(events), noc_hop_function())
    expected = {}
    for src in clusters:
        for dst in clusters:
            if src == dst:
                continue
            key = f"noc/hops:{manhattan(src, dst)}/size:64"
            expected[key] = expected.get(key, 0) + 1
    assert vec.counts == expected
    assert set(expected) == {f"noc/hops:{h}/size:64" for h in (1, 2, 3, 4)}


def test_abstraction_is_linear_under_concat():
    rng = random.Random(7)
    parts = []
    for _ in range(3):
        events = [_bundle(c, group=rng.choice(["add+add", "sub+sub", "nop+nop"]))
                  for c in range(rng.randint(1, 20))]
        parts.append(_trace(events))
    whole = parts[0].concat(parts[1]).concat(parts[2])
    fn = instruction_model_function()
    vectors = [abstract_trace(part, fn) for part in parts]
    got = abstract_trace(whole, fn)
    assert got.counts == sum((Counter(v.counts) for v in vectors), Counter())
    assert got.duration == sum(v.duration for v in vectors)


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------

def _random_trace(seed):
    """One to three CPUs, each busy with bundle records of 1-4 cycles or idle
    until its end."""
    rng = random.Random(seed)
    events = []
    for cpu in range(rng.randint(1, 3)):
        cycle, end = 0, rng.randint(5, 40)
        while cycle < end:
            length = min(rng.randint(1, 4), end - cycle)
            if rng.random() < 0.6:
                events.append(_bundle(cycle, cpu=cpu, group=rng.choice(["add+add", "nop+nop"]),
                                      pattern=rng.choice(["zeros", "ones"]))._replace(
                                          length=length))
            else:
                events.append(StateEvent(cycle, f"cpu{cpu}", EVENT_IDLE, (), length))
            cycle += length
    return _trace(events)


def test_compose_with_key_identity_is_f():
    t = _random_trace(1)
    f = instruction_model_function()
    key_identity = ModelFunction(rules=(rule({}, "{key}"),), name="key-identity")
    composed = compose(key_identity, f)
    assert abstract_trace(t, composed).counts == abstract_trace(t, f).counts


@pytest.mark.parametrize("seed", range(5))
def test_two_stage_composition_equals_direct(seed):
    # FINE -> ACTIVE_IDLE -> BINARY equals FINE -> BINARY, and equals
    # applying the stages separately.
    t = _random_trace(seed)
    ai = active_idle_function()
    to_bin = ModelFunction(rules=(rule({"tag": "idle"}, "{component}/used"),
                                  rule({"tag": "active"}, "{component}/used")),
                           name="ai-to-binary")
    composed = compose(to_bin, ai)
    direct = abstract_trace(t, binary_usage_function())
    via_compose = abstract_trace(t, composed)
    staged = rekey_vector(abstract_trace(t, ai), to_bin)
    assert via_compose.counts == direct.counts
    assert via_compose.counts == staged.counts


def test_compose_with_discard_all_empties():
    t = _random_trace(2)
    discard_all = ModelFunction(rules=(rule({}, DISCARD),), name="discard-all")
    composed = compose(discard_all, instruction_model_function())
    assert abstract_trace(t, composed).counts == {}


# ---------------------------------------------------------------------------
# coarsening refinement
# ---------------------------------------------------------------------------

def test_binary_recoverable_and_totals_match():
    t = _random_trace(3)
    fine = abstract_trace(t, identity_function())
    ai = abstract_trace(t, active_idle_function())
    binary = abstract_trace(t, binary_usage_function())
    classes = {component_class(e.component) for e in expand(t)}
    # a component class's used count merges its active and idle counts
    assert binary.counts == {
        f"{cls}/used": sum(c for k, c in ai.counts.items()
                           if k.startswith(cls + "/"))
        for cls in classes}
    # per-class active+idle totals equal summed fine-grained counts
    # (identity keys are kind/component/attrs...)
    for cls in classes:
        ai_total = sum(c for k, c in ai.counts.items() if k.startswith(cls + "/"))
        fine_total = sum(c for k, c in fine.counts.items()
                         if component_class(k.split("/")[1]) == cls)
        assert ai_total == fine_total
    for key in binary.counts:
        assert key.endswith("/used")


# ---------------------------------------------------------------------------
# transition functions
# ---------------------------------------------------------------------------

def test_transition_counts_alternating_body():
    fn = transition_function()
    events = []
    seq = ["a+a", "b+b"] * 4  # a,b alternating; first event self-pairs
    for cycle, g in enumerate(seq):
        events.append(_bundle(cycle, group=g))
    vec = abstract_trace(_trace(events), fn)
    assert vec.counts == {"trans:a+a>a+a": 1, "trans:a+a>b+b": 4,
                          "trans:b+b>a+a": 3}


def test_transition_tracks_components_separately():
    fn = transition_function()
    events = [_bundle(0, cpu=0, group="a+a"), _bundle(1, cpu=0, group="b+b"),
              _bundle(0, cpu=1, group="b+b"), _bundle(1, cpu=1, group="b+b")]
    vec = abstract_trace(_trace(events), fn)
    assert vec.counts == {"trans:a+a>a+a": 1, "trans:a+a>b+b": 1,
                          "trans:b+b>b+b": 2}


def test_idle_cannot_be_a_paired_kind():
    with pytest.raises(ModelFunctionError, match="idle cannot be a paired kind"):
        transition_function(kinds=("bundle-issue", EVENT_IDLE))


def _pair_trace(rows):
    """Several CPUs with bundle records of one or more cycles, duplicated
    records, syncs and idle spans.  A CPU may issue two one-cycle bundles
    in one cycle, which canonical order still ranks by attributes; a longer
    bundle record shares no cycle with another bundle record of its CPU
    but its duplicates, as in the simulator's streams."""
    records, bundles = [], {}
    for cycle, cpu, what, pattern, length, copies in rows:
        if what == EVENT_IDLE:
            records.append(StateEvent(cycle, f"cpu{cpu}", EVENT_IDLE, (), length))
            continue
        event = (StateEvent(cycle, f"cpu{cpu}", EVENT_SYNC) if what == "sync"
                 else _bundle(cycle, cpu=cpu, group=what, pattern=pattern))._replace(
                     length=length)
        if what != "sync":
            kept = bundles.setdefault(cpu, [])
            if not all(k == event or k.length == event.length == 1
                       or k.cycle + k.length <= cycle or cycle + length <= k.cycle
                       for k in kept):
                continue
            kept.append(event)
        records += [event] * copies
    return _trace(records)


_pair_traces = st.lists(
    st.tuples(st.integers(0, 30), st.integers(0, 3),
              st.sampled_from(["a+a", "b+b", "c+c", "sync", EVENT_IDLE]),
              st.sampled_from(["zeros", "ones"]), st.integers(1, 4), st.integers(1, 2)),
    max_size=60).map(_pair_trace)


def _pairwise_reference(t, fn):
    """Per-cycle pairwise counts: every event in (component, cycle, kind,
    attrs) order, each paired kind keyed by its component's previous value."""
    counts, last = {}, {}
    for e in sorted(expand(t),
                    key=lambda e: (e.component, e.cycle, e.kind, e.attrs)):
        if e.kind in fn.pair_kinds:
            cur = dict(e.attrs)[fn.pair_attr]
            key = fn.pair_template.format(prev=last.get(e.component, cur), cur=cur)
            last[e.component] = cur
        else:
            key = fn.key_for_event(e)
        if key is not None:
            counts[key] = counts.get(key, 0) + 1
    return counts


@settings(max_examples=80, deadline=None)
@given(t=_pair_traces)
def test_pairwise_walk_equals_per_cycle_reference(t):
    """A paired record pairs with its component's previous value once and
    with itself for the rest of its cycles."""
    # the second function also keys idle records and syncs
    for fn in (transition_function(),
               replace(transition_function("pattern"),
                       rules=(rule({"kind": EVENT_IDLE}, "{component}/idle"),
                              rule({}, "{kind}")))):
        assert abstract_trace(t, fn).counts == _pairwise_reference(t, fn)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_trace_line_round_trip():
    # an attribute value of non-ASCII digits stays text
    t = _trace([_bundle(0), make_event(1, "ni0", "ni-transfer",
                                       src="0,0", dst="1,1", size=64, flits=8, tag="٣"),
                make_event(2, "cpu0", "idle")])
    assert trace_from_lines(t.to_lines()) == t


def test_function_json_round_trip():
    for fn in (identity_function(), instruction_model_function(),
               active_idle_function(), transition_function(),
               compose(ModelFunction(rules=(rule({}, "{component}/used"),),
                                     name="to-binary"),
                       _active_idle_per_component())):
        doc = function_to_json(fn)
        assert function_from_json(doc) == fn


def test_a_rule_file_with_the_old_level_field_loads():
    fn = compose(ModelFunction(rules=(rule({}, "{comp_class}/used"),)),
                 active_idle_function())
    doc = function_to_json(fn)
    doc["level"] = doc["then"]["level"] = "NO_SUCH_LEVEL"
    assert function_from_json(doc) == fn


def test_a_rule_file_with_the_old_domain_field_loads():
    """A stage's place sets what its rules read, so a domain is ignored."""
    fn = compose(ModelFunction(rules=(rule({}, "{comp_class}/used"),)),
                 active_idle_function())
    doc = function_to_json(fn)
    assert "domain" not in doc
    for top, then in (("event", "key"), ("key", "event"), ("NO_SUCH", "DOMAIN")):
        doc["domain"], doc["then"]["domain"] = top, then
        assert function_from_json(doc) == fn


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_function_json_round_trip_any_function(model_functions, data):
    fn = data.draw(model_functions)
    back = function_from_json(json.loads(json.dumps(function_to_json(fn))))
    assert back == fn
    assert hash(back) == hash(fn)


def test_parse_key_fields():
    rec = parse_key("cpu3/group:add+add/pat:zeros")
    assert rec["component"] == "cpu3"
    assert rec["comp_class"] == "cpu"
    assert rec["group"] == "add+add"
    rec = parse_key("cpu0/active")
    assert rec["tag"] == "active"


def test_bare_rule_list_loads_as_event_function():
    doc = [{"match": {"kind": "bundle-issue"}, "emit": "group:{group}"},
           {"match": {}, "emit": "discard"}]
    fn = function_from_json(doc)
    t = _trace([_bundle(0), make_event(1, "cpu0", "idle")])
    assert abstract_trace(t, fn).counts == {"group:add+add": 1}


# ---------------------------------------------------------------------------
# properties over random oracle-vocabulary traces
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(t=_traces)
def test_trace_lines_round_trip_any_trace(t):
    assert trace_from_lines(t.to_lines()) == t
    # a file in any line order loads into canonical order
    assert trace_from_lines(t.to_lines()[::-1]) == t


@settings(max_examples=60, deadline=None)
@given(t=_traces, data=st.data())
def test_a_trace_keeps_its_records_in_the_explicit_canonical_order(t, data):
    """Whatever order a trace's records come in, as a list or a tuple."""
    canonical = tuple(
        sorted(t.events, key=lambda e: (e.cycle, e.component, e.kind, e.attrs, e.length)))
    p = data.draw(st.permutations(t.events))
    assert Trace(events=p).events == canonical
    assert Trace(events=tuple(p)).events == canonical


@settings(max_examples=60, deadline=None)
@given(t=_traces)
def test_duration_is_last_cycle_plus_one(t):
    assert t.duration == max((e.cycle + 1 for e in expand(t)), default=0)


@settings(max_examples=60, deadline=None)
@given(first=_traces, second=_traces)
def test_abstract_counts_add_under_concat(first, second):
    whole = first.concat(second)
    _assert_canonical(whole)
    shifted = [e._replace(cycle=e.cycle + first.duration) for e in expand(second)]
    assert expand(whole) == sorted([*expand(first), *shifted])
    for fn in (identity_function(), _active_idle_per_component(),
               binary_usage_function()):
        got = abstract_trace(whole, fn)
        a, b = abstract_trace(first, fn), abstract_trace(second, fn)
        assert got.counts == Counter(a.counts) + Counter(b.counts)
        assert got.duration == a.duration + b.duration


def _reference_lines(trace):
    """Each record as 'cycle<TAB>length<TAB>component<TAB>kind<TAB>payload',
    in (cycle, component, kind, attrs, length) order."""
    return [f"{e.cycle}\t{e.length}\t{e.component}\t{e.kind}\t"
            + " ".join(f"{k}={v}" for k, v in sorted(e.attrs))
            for e in sorted(trace.events,
                            key=lambda e: (e.cycle, e.component, e.kind, e.attrs, e.length))]


def _oracle_files_spell_the_reference(out, isa_path, config, params):
    isa = load_isa(isa_path)
    assert main(["oracle", "--workers", "2", "--config", data_path("default_config.json"),
                 "--isa", isa_path, "--params", data_path("oracle_params.json"),
                 "--out", str(out)]) == 0
    rows = parse_manifest_csv((out / "benchmarks" / "manifest.csv").read_text())
    for _name, filename in rows:
        doc = json.loads((out / "benchmarks" / filename).read_text())
        trace, _ = run_program(config, params, program_from_json(doc, isa))
        stem = filename.rsplit(".", 1)[0]
        written = (out / "traces" / (stem + ".tsv")).read_text()
        assert written == "\n".join(_reference_lines(trace)) + "\n", filename
    return len(rows)


def test_oracle_trace_files_spell_the_reference(tmp_path, config, params):
    """enermod oracle writes each trace as the reference spelling: a packet
    sweep (idle stretches, repeated packets) and an instruction
    campaign (dense bundles, each at its own address)."""
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["gen-bench", "--kind", "comm", "--min", "4", "--max", "1024",
                     "--step", "36", "--reps", "8", "--api", data_path("api.json"),
                     "--config", data_path("default_config.json"),
                     "--out", str(tmp_path / "noc")]) == 0
        assert _oracle_files_spell_the_reference(
            tmp_path / "noc", data_path("isa.json"), config, params) == 3 + 29
        isa_path = tmp_path / "tiny_isa.json"
        isa_path.write_text(json.dumps([
            {"mnemonic": "nop", "iclass": "NOP", "allowed_slots": [0, 1],
             "reads_dmem": False, "writes_dmem": False},
            {"mnemonic": "ldw", "iclass": "LOAD", "allowed_slots": [0, 1],
             "reads_dmem": True, "writes_dmem": False}]))
        assert main(["gen-bench", "--kind", "instr", "--reps", "8",
                     "--api", data_path("api.json"), "--isa", str(isa_path),
                     "--config", data_path("default_config.json"),
                     "--out", str(tmp_path / "instr")]) == 0
        assert _oracle_files_spell_the_reference(
            tmp_path / "instr", str(isa_path), config, params) == 2 + 8 * 3


def _per_cycle_counts(events, fn):
    counts = {}
    for e in events:
        key = fn.key_for_event(e)
        if key is not None:
            counts[key] = counts.get(key, 0) + 1
    return counts


def _assert_canonical(t):
    """Records in canonical order, each at least one cycle long; idle
    records bare and, per component, a gap of at least one cycle apart."""
    assert t.events == tuple(sorted(t.events))
    assert all(e.length > 0 for e in t.events)
    idle = sorted((e.component, e.cycle, e.length, e.attrs)
                  for e in t.events if e.kind == EVENT_IDLE)
    assert all(attrs == () for *_rest, attrs in idle)
    for a, b in zip(idle, idle[1:]):
        if a[0] == b[0]:
            assert a[1] + a[2] < b[1]


_TOTAL_FUNCTIONS = (identity_function(), active_idle_function(),
                    _active_idle_per_component(), binary_usage_function())


@settings(max_examples=60, deadline=None)
@given(t=_traces)
def test_trace_spells_its_events_cycle_by_cycle(t):
    _assert_canonical(t)
    assert t.to_lines() == _reference_lines(t)
    for fn in _TOTAL_FUNCTIONS:
        assert abstract_trace(t, fn).counts == _per_cycle_counts(expand(t), fn)


_SYNC = "0\t1\tcpu0\tsync\t"


@pytest.mark.parametrize("lines,error", [
    ([_SYNC, "0\t\tcpu0\tidle\t"], "line 2: length '' is not an integer >= 1"),
    (["0\tx\tcpu0\tidle\t"], "line 1: length 'x' is not an integer >= 1"),
    (["0\t1.5\tcpu0\tidle\t"], "line 1: length '1.5' is not an integer >= 1"),
    ([_SYNC, "0\t0\tcpu0\tsync\t"], "line 2: length '0' is not an integer >= 1"),
    (["0\t-2\tcpu0\tidle\t"], "line 1: length '-2' is not an integer >= 1"),
    (["0\t2\tcpu0\tidle\twhy=stall"], "line 1: idle record has attribute 'why'"),
    (["0\t2\tcpu0\tidle\tlength=2"], "line 1: idle record has attribute 'length'"),
    (["0\t2\tcpu0\tidle\t", "0\t2\tcpu1\tidle\t", "0\t2\tcpu0\tidle\t"],
     "line 3: idle record of cpu0 repeats the one at line 1"),
    (["3\t2\tcpu0\tidle\t", "0\t4\tcpu0\tidle\t"],
     "line 2: idle record of cpu0 overlaps the one at line 1"),
    (["0\t9\tcpu0\tidle\t", _SYNC, "5\t1\tcpu0\tidle\t"],
     "line 3: idle record of cpu0 overlaps the one at line 1"),
    (["2\t1\tcpu0\tidle\t", "0\t2\tcpu0\tidle\t"],
     "line 2: idle record of cpu0 adjoins the one at line 1"),
    (["0\t٣\tcpu0\tidle\t"], "line 1: length '٣' is not an integer >= 1"),
])
def test_a_span_line_that_is_not_a_maximal_span_is_refused_at_its_line(lines, error):
    """A record's length is an integer of at least 1, and the idle records
    of one component neither overlap nor touch, so idle time has one
    spelling; a clash is reported at its later line."""
    with pytest.raises(TraceError, match=f"^{re.escape(error)}"):
        trace_from_lines(lines)


def test_adjacent_idle_spans_merge_under_concat():
    first = _trace([_bundle(0), make_event(1, "cpu0", "idle"), make_event(1, "cpu1", "idle")])
    second = _trace([make_event(0, "cpu0", "idle"), _bundle(0, cpu=1)])
    assert [e for e in first.concat(second).events if e.kind == EVENT_IDLE] == [
        StateEvent(1, "cpu0", EVENT_IDLE, (), 2), StateEvent(1, "cpu1", EVENT_IDLE, (), 1)]


# Any text the line format carries: names hold no space, tab, newline or
# "=", string values no space, tab, newline or "=" and no integer form.
# Braces and the separators str.splitlines would split on (but "\n" does
# not) are in.  An "i" name holds integers and an "s" name text, so events
# of one component, kind and cycle sort; "kind" and "cycle" name
# attributes as well.
_text = st.text(st.characters(blacklist_characters=" \t\n\r=",
                              blacklist_categories=("Cs",))
                | st.sampled_from("{}\v\f\x1c\u2028"), max_size=5)
_any_attrs = st.builds(
    lambda ints, texts: {**ints, **texts},
    st.dictionaries(st.builds("i{}".format, _text), st.integers(-10**6, 10**6),
                    max_size=3),
    st.dictionaries(st.builds("s{}".format, _text) | st.sampled_from(["kind", "cycle"]),
                    _text.filter(lambda v: not re.fullmatch(r"-?\d+", v)),
                    max_size=3))
_COMPONENTS = ("cpu0", "cpu1", "cpu{2}", "router0")


# Records of every non-idle kind (two sort before idle, two after) with any
# attributes.
_file_traces = _record_traces(st.builds(
    lambda cycle, component, kind, attrs: make_event(cycle, component, kind, **attrs),
    st.integers(0, 30), st.sampled_from(_COMPONENTS), st.sampled_from(_NON_IDLE),
    _any_attrs), st.sampled_from(_COMPONENTS))


@settings(max_examples=150, deadline=None)
@given(t=_file_traces, data=st.data())
def test_trace_files_spell_and_read_back_any_trace(t, data):
    lines = t.to_lines()
    assert lines == _reference_lines(t)
    _assert_canonical(t)
    shuffled = data.draw(st.permutations(lines))
    for at in data.draw(st.lists(st.integers(0, len(lines)), max_size=3)):
        shuffled.insert(at, "")
    assert trace_from_lines(shuffled) == t
    # a file handle yields every line with its "\n"
    assert trace_from_lines(io.StringIO("\n".join(lines) + "\n")) == t
    assert trace_from_lines([line + "\n" for line in shuffled]) == t


# ---------------------------------------------------------------------------
# the projection memo of weighted_keys
# ---------------------------------------------------------------------------

def test_event_fields_widen_derived_fields():
    assert instruction_model_function().event_fields == {
        "kind", "group", "pattern", "hops", "src", "dst", "size"}
    assert active_idle_function().event_fields == {"kind", "comp_class", "component"}
    assert _active_idle_per_component().event_fields == {"kind", "component"}
    assert binary_usage_function().event_fields == {"comp_class", "component"}
    assert identity_function().event_fields is None
    # format specs, attribute access and nested fields name what they read
    fn = ModelFunction(rules=(rule({"addr": 3}, "{group.upper}/{size:>{width}}"),))
    assert fn.event_fields == {"addr", "group", "size", "width"}
    broken = ModelFunction(rules=(rule({}, "{x"),))
    assert broken.event_fields is None


@pytest.mark.parametrize("src", ["x", "1,2,3", 3, "+1,0"])
def test_hops_is_derived_only_between_coordinates(src):
    """A record has hops only where src and dst both parse as mesh
    coordinates; otherwise a rule matching on hops falls through and a
    template reading it names the absent field."""
    event = make_event(0, "ni0", EVENT_NI, src=src, dst="1,1", size=8)
    match = ModelFunction(rules=(rule({"hops": 2}, "two"), rule({}, DISCARD)))
    template = ModelFunction(rules=(rule({}, "hops:{hops}"),))
    assert match.key_for_event(event) is None
    with pytest.raises(ModelFunctionError, match="needs field 'hops'"):
        template.key_for_event(event)


def test_an_attribute_wins_over_the_derived_field_of_its_name():
    event = make_event(0, "ni0", EVENT_NI, src="0,0", dst="1,1", hops=7,
                       comp_class="link", __identity__="me")
    fn = ModelFunction(rules=(rule({}, "{hops}/{comp_class}/{__identity__}"),))
    assert fn.key_for_event(event) == "7/link/me"
    plain = make_event(0, "ni0", EVENT_NI, src="0,0", dst="1,1")
    assert fn.key_for_event(plain) == "2/ni/ni-transfer/ni0/dst:1,1/src:0,0"


_endpoints = st.one_of(st.builds("{},{}".format, st.integers(0, 9), st.integers(0, 9)),
                       st.sampled_from(["x", "+1,0", "1,2,3", "1_0,0", "-1", "7"]))


@settings(max_examples=200, deadline=None)
@given(src=_endpoints, dst=_endpoints,
       size=st.one_of(st.integers(-8, 2048).map(str), st.text("0123456789-+_x٣", min_size=1)))
def test_a_transfer_and_its_pair_key_read_the_same_fields(src, dst, size):
    """A top stage reads a transfer's trace record, a then stage its pair
    key: both derive hops only between coordinates and read size as an int
    only where it is -?[0-9]+, so a rule on hops fires in both or neither."""
    [event] = trace_from_lines([f"0\t1\tni0\t{EVENT_NI}\tdst={dst} size={size} src={src}"]).events
    top, key = _event_record(event), parse_key(f"noc/src:{src}/dst:{dst}/size:{size}")
    assert ("hops" in top, top.get("hops")) == ("hops" in key, key.get("hops"))
    assert (type(top["size"]), top["size"]) == (type(key["size"]), key["size"])
    two = ModelFunction(rules=(rule({"hops": 2}, "two"), rule({}, DISCARD)))
    assert two.key_for_event(event) == compose(two, noc_pair_function()).key_for_event(event)


_coords = st.sampled_from(["0,0", "1,0", "0,1", "1,1", "2,1"])
_cpus = st.builds("cpu{}".format, st.integers(0, 15))
# The simulator's records with its attributes: bundles at varied addresses
# on many CPUs, packets with endpoints and sizes and bare syncs, with idle
# records on those CPUs.
_oracle_traces = _record_traces(st.one_of(
    st.builds(lambda cycle, cpu, group, pattern, addr, fmt: make_event(
        cycle, cpu, EVENT_BUNDLE, group=group, pattern=pattern, addr=addr, fmt=fmt),
        st.integers(0, 40), _cpus, st.sampled_from(["add+add", "ldw+EMPTY", "nop+nop"]),
        st.sampled_from(DATA_PATTERNS), st.integers(0, 12), st.sampled_from("cu")),
    st.builds(lambda cycle, comp, src, dst, size: make_event(
        cycle, comp, EVENT_NI, src=src, dst=dst, size=size, flits=-(-size // 8)),
        st.integers(0, 40), st.sampled_from(["ni0", "ni3", "bus1"]), _coords, _coords,
        st.sampled_from([8, 64, 100])),
    st.builds(lambda cycle, router, src, dst, size, hop: make_event(
        cycle, f"router{router}", EVENT_FLIT, src=src, dst=dst, size=size, hop=hop),
        st.integers(0, 40), st.integers(0, 3), _coords, _coords,
        st.sampled_from([8, 64, 100]), st.integers(0, 3)),
    st.builds(lambda cycle, cpu: make_event(cycle, cpu, EVENT_SYNC),
              st.integers(0, 40), _cpus)), _cpus)

# Functions whose rules read the fields the projection must keep: the
# component, its class, the derived hop count, the whole event, and the
# address no shipped rule reads.
_PROJECTION_FUNCTIONS = (
    ModelFunction((rule({"kind": EVENT_IDLE}, "{component}/idle"),
                   rule({}, "{kind}/{component}"))),
    ModelFunction((rule({"comp_class": "cpu"}, "{comp_class}/{kind}"),
                   rule({}, "other"))),
    ModelFunction((rule({"hops": 1}, "one-hop/{size}"),
                   rule({"kind": [EVENT_NI, EVENT_FLIT]}, "{hops}/{kind}"),
                   rule({}, DISCARD))),
    ModelFunction((rule({"kind": EVENT_SYNC}, "{__identity__}"),
                   rule({}, "{kind}"))),
    ModelFunction((rule({"kind": EVENT_BUNDLE, "addr": [0, 1, 2]}, "low/{group}"),
                   rule({"kind": EVENT_BUNDLE}, "high/{pattern}/{fmt}"),
                   rule({"kind": EVENT_IDLE}, DISCARD),
                   rule({}, "{kind}"))),
    replace(transition_function(), rules=(rule({}, "{kind}/{comp_class}"),)),
)


@settings(max_examples=80, deadline=None)
@given(t=_oracle_traces)
def test_projection_memo_yields_the_per_event_keys(t):
    for fn in (*(builtin_function(name) for name in sorted(_BUILTINS)),
               *_PROJECTION_FUNCTIONS):
        got = iter(weighted_keys(t, fn))
        for event in t.events:
            if event.kind in fn.pair_kinds:
                pieces = [next(got) for _ in range(1 if event.length == 1 else 2)]
                assert [(c, n) for c, _key, n in pieces] == (
                    [(event.component, 1)] if event.length == 1
                    else [(event.component, 1), (event.component, event.length - 1)])
            else:
                assert next(got) == (event.component, replace(fn).key_for_event(event),
                                     event.length), event
        assert next(got, None) is None


def test_rules_run_once_per_projection_over_the_function_s_life(monkeypatch):
    """A second trace of known projections runs no rule; an event whose key
    template cannot be filled runs the rules, and raises, every time."""
    runs = []
    emit = ModelFunction._emit
    monkeypatch.setattr(ModelFunction, "_emit",
                        lambda self, rec, what: runs.append(what) or emit(self, rec, what))
    fn = instruction_model_function()

    def bundles(*cpu_addrs):
        return _trace([make_event(cycle, cpu, EVENT_BUNDLE, group="add+add",
                                  pattern="ones", addr=addr, fmt="u")
                       for cycle, (cpu, addr) in enumerate(cpu_addrs)]
                      + [make_event(len(cpu_addrs), "cpu0", EVENT_IDLE)])

    first = abstract_trace(bundles(("cpu0", 1), ("cpu1", 2)), fn)
    assert len(runs) == 2       # one bundle projection, one idle projection
    again = abstract_trace(bundles(("cpu2", 7), ("cpu0", 9), ("cpu3", 1)), fn)
    assert len(runs) == 2
    assert (first.counts, again.counts) == ({"group:add+add/pat:ones": 2},
                                            {"group:add+add/pat:ones": 3})
    no_group = make_event(0, "cpu0", EVENT_BUNDLE, pattern="ones", addr=1, fmt="u")
    for tries in (3, 4):
        with pytest.raises(ModelFunctionError, match="needs field 'group'"):
            fn.key_for_event(no_group)
        assert len(runs) == tries


# ---------------------------------------------------------------------------
# properties over random oracle programs
# ---------------------------------------------------------------------------

def _programs(config, isa):
    cpus = st.integers(0, config.n_cpus - 1)
    sizes = st.integers(1, 40)
    ops = st.one_of(
        st.builds(BundleOp, st.sampled_from(enumerate_instruction_groups(isa, config.vliw_slots)),
                  st.integers(0, 64), st.sampled_from(DATA_PATTERNS)),
        st.builds(SendOp, cpus, sizes),
        st.builds(RecvOp, cpus, sizes),
        st.just(SyncOp()))
    return st.builds(Program.from_dict,
                     st.dictionaries(cpus, st.lists(ops, max_size=10), max_size=4),
                     st.integers(0, 40))


def _per_cycle_oracle_events(config, program):
    """The per-cycle events of a program worked out op by op, as the oracle
    spelled them before it held runs: one event per bundle, sync, transfer
    and flit hop, and one idle event per CPU cycle without one."""
    events, end = [], program.min_cycles
    for cpu, ops in program.ops:
        t, src = 0, config.cpu_cluster(cpu)
        for op in ops:
            if isinstance(op, BundleOp):
                events.append(make_event(t, f"cpu{cpu}", EVENT_BUNDLE, group=op.group.label,
                                         pattern=op.pattern, addr=op.addr, fmt=op.group.fmt))
            elif not isinstance(op, RecvOp):
                events.append(make_event(t, f"cpu{cpu}", EVENT_SYNC))
            if isinstance(op, SendOp):
                dst = config.cpu_cluster(op.dst_cpu)
                flits = n_flits(op.size_bytes, config.flit_payload_bytes)
                packet = dict(src=format_coord(src), dst=format_coord(dst), size=op.size_bytes)
                component = f"{'bus' if src == dst else 'ni'}{config.cluster_index(src)}"
                events.append(make_event(t + 1, component, EVENT_NI, flits=flits, **packet))
                end = max(end, t + 1 + flits)       # the last crossbar beat
                for flit in range(flits if src != dst else 0):
                    for hop, cluster in enumerate(xy_route(src, dst)):
                        events.append(make_event(t + 1 + flit + hop,
                                                 f"router{config.cluster_index(cluster)}",
                                                 EVENT_FLIT, hop=hop, **packet))
                t += flits
            t += 1
    end = max([end, *(e.cycle + 1 for e in events)])
    busy = {(e.component, e.cycle) for e in events}
    events += [make_event(cycle, f"cpu{cpu}", EVENT_IDLE) for cpu in range(config.n_cpus)
               for cycle in range(end) if (f"cpu{cpu}", cycle) not in busy]
    return sorted(events)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_oracle_traces_spell_their_per_cycle_expansion(config, isa, params, data):
    program = data.draw(_programs(config, isa))
    trace, _ = run_program(config, params, program)
    _assert_canonical(trace)
    expanded = expand(trace)
    assert expanded == _per_cycle_oracle_events(config, program)
    for cpu in range(config.n_cpus):
        cycles = sorted(e.cycle for e in expanded if e.component == f"cpu{cpu}")
        assert cycles == list(range(trace.duration))
    assert trace.to_lines() == _reference_lines(trace)
    assert trace_from_lines(trace.to_lines()) == trace
    assert trace_from_lines(trace.to_lines()[::-1]) == trace
    for fn in (*_TOTAL_FUNCTIONS, instruction_model_function()):
        assert abstract_trace(trace, fn).counts == _per_cycle_counts(expanded, fn)
