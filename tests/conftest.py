from itertools import groupby
from string import Formatter

import pytest
from hypothesis import strategies as st

from enermod import data_path
from enermod.refsim import load_oracle_params
from enermod.statetrace import (
    DISCARD,
    EVENT_IDLE,
    EVENT_KINDS,
    ModelFunction,
    StateEvent,
    rule,
)
from enermod.sysconfig import load_api, load_isa, parse_config


def expand(trace):
    """The per-cycle reference form of a trace: each record as one record
    of length 1 per cycle it covers, all in canonical order."""
    return sorted(event._replace(cycle=cycle, length=1) for event in trace.events
                  for cycle in range(event.cycle, event.cycle + event.length))


def idle_records(cycles):
    """The maximal idle records of a component -> idle cycles mapping: each
    run of consecutive cycles is one record, so no two of a component's
    records overlap or adjoin."""
    records = []
    for component, idle in cycles.items():
        # the cycles of one run lie a constant distance from their rank
        for _, run in groupby(enumerate(sorted(idle)), lambda pair: pair[1] - pair[0]):
            run = [cycle for _rank, cycle in run]
            records.append(StateEvent(run[0], component, EVENT_IDLE, (), len(run)))
    return records


@pytest.fixture(scope="session")
def config():
    return parse_config("")


@pytest.fixture(scope="session")
def tiny_config():
    """One cluster, one CPU; keeps single-event accounting readable."""
    return parse_config('{"mesh_cols": 1, "mesh_rows": 1, "cpus_per_cluster": 1}')


@pytest.fixture(scope="session")
def mesh3_config():
    return parse_config('{"mesh_cols": 3, "mesh_rows": 3}')


@pytest.fixture(scope="session")
def isa():
    return load_isa(data_path("isa.json"))


@pytest.fixture(scope="session")
def api():
    return load_api(data_path("api.json"))


@pytest.fixture(scope="session")
def send_sizes(api):
    """The packet sizes of the shipped API's send range."""
    send = api.operation("send")
    return list(range(send.size_min, send.size_max + 1, send.size_step))


@pytest.fixture(scope="session")
def params():
    return load_oracle_params(data_path("oracle_params.json"))


def _parses(template):
    """Whether str.format can parse template, nested format specs too."""
    try:
        return all(conv in (None, "r", "s", "a") and _parses(spec or "")
                   for _text, _name, spec, conv in Formatter().parse(template))
    except ValueError:
        return False


# Rule files refuse a key template str.format cannot parse.
_TEMPLATES = st.text(max_size=12).filter(_parses)
_NAMES = st.text(alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=6)
_VALUES = st.one_of(st.text(max_size=6), st.integers(-5, 1000), st.booleans())
_RULES = st.builds(
    rule,
    st.dictionaries(_NAMES, st.one_of(_VALUES, st.lists(_VALUES, max_size=3)),
                    max_size=3),
    st.one_of(st.just(DISCARD), _TEMPLATES))
_PAIRS = st.one_of(st.none(), st.tuples(
    _NAMES, _TEMPLATES,
    st.lists(st.sampled_from([k for k in EVENT_KINDS if k != EVENT_IDLE]),
             max_size=3).map(tuple)))


def _functions(then):
    def build(rules, name, pair, then):
        attr, template, kinds = pair or (None, "", ())
        return ModelFunction(rules=tuple(rules), name=name, pair_attr=attr,
                             pair_template=template, pair_kinds=kinds, then=then)
    return st.builds(build, st.lists(_RULES, max_size=4), st.text(max_size=8), _PAIRS,
                     then)


@pytest.fixture(scope="session")
def model_functions():
    """Hypothesis strategy over model functions: list-valued matches,
    pair settings and then chains."""
    return st.recursive(_functions(st.none()), _functions, max_leaves=3)
