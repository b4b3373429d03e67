"""Source hygiene: no module-level import goes unused, no library code
serves only the tests, every defaulted parameter is set by some call,
calibration runs are built in benchgen alone, JSON is parsed in one place,
float sums that reach files fold left to right, and every field a model file
holds is read back."""

import ast
import glob
import os

from enermod.modelfit import (REDUCER_STAIRCASE, EnergyModel, Reducer, model_from_json,
                              model_to_json)
from enermod.statetrace import ModelFunction, compose, rule, transition_function

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _parse(path):
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read(), filename=path)


def _unused_imports(path):
    tree = _parse(path)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    rel = os.path.relpath(path, ROOT)
    return [f"{rel}:{line}: {name}" for name, line in sorted(imported.items())
            if name not in used]


def test_no_unused_module_level_imports():
    paths = glob.glob(os.path.join(ROOT, "src", "enermod", "*.py"))
    paths += glob.glob(os.path.join(ROOT, "tests", "*.py"))
    unused = [hit for path in sorted(paths)
              if os.path.basename(path) != "__init__.py"
              for hit in _unused_imports(path)]
    assert paths and not unused, "\n".join(unused)


# Library names only the tests call, each kept for the documented property it
# backs.  Every other function, method or property in src/enermod must be
# referenced from src/enermod or perfbench.
_TEST_ONLY_ALLOWED = {
    "rekey_vector": "the two-stage reference behind compose's property",
    "Trace.concat": "abstraction is linear under trace concatenation",
    "structural_diff": "benchmarks of one sweep differ only in what it sweeps",
    "serialize_isa": "ISA documents round-trip",
    "group_count_formula": "the group count is prod(n_slot + 1) - 1 (README)",
    "gen_transition_benchmarks": "acceptance criterion 5's transition campaign",
    "transition_function": "acceptance criterion 5's pairwise model",
}


def _definitions(tree):
    """(qualified name, name, node, class name or None) per module-level
    function and per method or property of a module-level class; dunders
    are implicit."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node.name, node, None
        elif isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("__"):
                    yield f"{node.name}.{sub.name}", sub.name, sub, node.name


def _is_record(node):
    """A dataclass or a NamedTuple: its annotated names are fields."""
    marks = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
    marks += node.bases
    return any((m.id if isinstance(m, ast.Name) else getattr(m, "attr", None))
               in ("dataclass", "NamedTuple") for m in marks)


def _fields(tree):
    """(class name, field name) per field of a module-level record class."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and _is_record(node):
            for sub in node.body:
                if isinstance(sub, ast.AnnAssign) and isinstance(sub.target, ast.Name):
                    yield node.name, sub.target.id


def _scopes(tree):
    """(owner, class name or None, node) per module-level function and per
    method of a module-level class; "<module>" owns the rest."""
    rest = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, None, node
        elif isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef):
                    yield f"{node.name}.{sub.name}", node.name, sub
                else:
                    rest.append(sub)
        else:
            rest.append(node)
    yield "<module>", None, ast.Module(body=rest, type_ignores=[])


def _typed_locals(node, cls, classes):
    """Local names whose class the AST shows: a method's first parameter,
    a parameter annotated with a class, a name assigned from a class call."""
    typed = {}
    if isinstance(node, ast.FunctionDef):
        args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
        static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                     for d in node.decorator_list)
        if cls and args and not static:
            typed[args[0].arg] = cls
        for arg in args:
            ann = arg.annotation
            name = (ann.id if isinstance(ann, ast.Name)
                    else ann.value if isinstance(ann, ast.Constant) else None)
            if name in classes:
                typed[arg.arg] = name
    for sub in ast.walk(node):
        if (isinstance(sub, ast.Assign) and isinstance(sub.value, ast.Call)
                and isinstance(sub.value.func, ast.Name)
                and sub.value.func.id in classes):
            for target in sub.targets:
                if isinstance(target, ast.Name):
                    typed[target.id] = sub.value.func.id
    return typed


def _references(tree, classes):
    """(owner, reference) per name loaded and per attribute read, owner being
    the function or method it appears in.  A reference is "name", ".attr",
    or "Class.attr" when the AST shows the receiver's class: the class
    itself or a typed local.  Imports are not references, so re-exports do
    not count as use."""
    for owner, cls, scope in _scopes(tree):
        typed = _typed_locals(scope, cls, classes)
        for node in ast.walk(scope):
            if isinstance(node, ast.Name):
                yield owner, node.id
            elif isinstance(node, ast.Attribute):
                yield owner, "." + node.attr
                recv = node.value
                if isinstance(recv, ast.Name):
                    known = recv.id if recv.id in classes else typed.get(recv.id)
                    if known:
                        yield owner, f"{known}.{node.attr}"


def test_no_library_code_serves_only_the_tests():
    """A method shares its name with a field of another record class
    (OracleParams.static_pj_per_cycle with EnergyModel.static_pj_per_cycle,
    say) counts as used only where the AST shows the receiver is its class;
    any other method or function counts as used wherever its name is read."""
    src = [_parse(path) for path in
           sorted(glob.glob(os.path.join(ROOT, "src", "enermod", "*.py")))]
    users = src + [_parse(path) for path in
                   sorted(glob.glob(os.path.join(ROOT, "perfbench", "*.py")))]
    classes = {node.name for tree in src for node in tree.body
               if isinstance(node, ast.ClassDef)}
    field_owners = {}
    for tree in src:
        for cls, name in _fields(tree):
            field_owners.setdefault(name, set()).add(cls)
    refs = [ref for tree in users for ref in _references(tree, classes)]
    unused, defined = [], set()
    for tree in src:
        for qualname, name, _node, cls in _definitions(tree):
            defined.add(qualname)
            if cls is None:
                wanted = {name, "." + name}
            elif field_owners.get(name, set()) - {cls}:
                wanted = {qualname}
            else:
                wanted = {"." + name}
            # a recursive call is not a use
            uses = sum(1 for owner, ref in refs if ref in wanted and owner != qualname)
            if uses == 0 and qualname not in _TEST_ONLY_ALLOWED:
                unused.append(qualname)
            elif uses and qualname in _TEST_ONLY_ALLOWED:
                unused.append(f"{qualname} is used; drop it from the allowlist")
    stale = sorted(set(_TEST_ONLY_ALLOWED) - defined)
    assert not unused and not stale, "\n".join(unused + stale)


# Defaulted parameters only the tests set, each kept for the documented
# property it backs.  Every other defaulted parameter of a function or method
# in src/enermod must be passed by some call in src/enermod or perfbench; a
# default that only tests override is a constant, not a setting.  Functions
# in _TEST_ONLY_ALLOWED are exempt: only tests call them.
_UNSET_ALLOWED = {
    "dse.anneal_restarts(g_max)":
        "criterion 8's brute force covers granularities up to 4 only",
    "dse.anneal_restarts(clone_max)":
        "criterion 8's brute force covers partitions without clones only",
    "modelfit.fit_linear(window)":
        "criterion 3 fits the 16 center sizes and scores all 256",
    "modelfit.fit_staircase(window)":
        "criterion 3 fits the 16 center sizes and scores all 256",
}


def _defaulted(node, method):
    """(parameter, positional index or None, default node) per parameter
    of a function definition that has a default."""
    args = node.args
    positional = args.posonlyargs + args.args
    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                 for d in node.decorator_list)
    skip = 1 if method and not static else 0
    first = len(positional) - len(args.defaults)
    for i, (arg, default) in enumerate(zip(positional[first:], args.defaults)):
        yield arg.arg, first + i - skip, default
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None, default


_NOT_LITERAL = object()


def _literal(node):
    try:
        value = ast.literal_eval(node)
    except ValueError:
        return _NOT_LITERAL
    return type(value), value


def _passes(call, name, index, default):
    """Whether a call sets a parameter to something other than a literal
    equal to its default."""
    value = None
    for i, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            return True
        if i == index:
            value = arg
    for kw in call.keywords:
        if kw.arg is None:
            return True
        if kw.arg == name:
            value = kw.value
    if value is None:
        return False
    literal = _literal(value)
    return literal is _NOT_LITERAL or literal != _literal(default)


def test_every_defaulted_parameter_is_passed():
    callers = [path for rel in (("src", "enermod"), ("perfbench",))
               for path in sorted(glob.glob(os.path.join(ROOT, *rel, "*.py")))]
    calls = {}
    for path in callers:
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Call):
                func = node.func
                callee = (func.id if isinstance(func, ast.Name)
                          else getattr(func, "attr", None))
                calls.setdefault(callee, []).append(node)
    unset, seen = [], set()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "enermod", "*.py"))):
        module = os.path.basename(path)[:-3]
        for qualname, name, node, cls in _definitions(_parse(path)):
            if qualname in _TEST_ONLY_ALLOWED:
                continue
            for param, index, default in _defaulted(node, cls is not None):
                where = f"{module}.{qualname}({param})"
                seen.add(where)
                passed = any(_passes(call, param, index, default)
                             for call in calls.get(name, ()))
                if not passed and where not in _UNSET_ALLOWED:
                    unset.append(where)
                elif passed and where in _UNSET_ALLOWED:
                    unset.append(f"{where} is passed; drop it from the allowlist")
    stale = sorted(set(_UNSET_ALLOWED) - seen)
    assert not unset and not stale, "\n".join(unset + stale)


_CALIBRATION_BUILDERS = ("make_idle_benchmark", "make_baseline", "make_sync_benchmark")


def test_calibration_runs_are_built_in_benchgen_alone():
    """A campaign's calibration runs come from benchgen's campaign
    functions, so the CLI and the pipeline cannot ship different ones."""
    outside = []
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "enermod", "*.py"))):
        if os.path.basename(path) == "benchgen.py":
            continue
        for node in ast.walk(_parse(path)):
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute) else None)
            if name in _CALIBRATION_BUILDERS:
                outside.append(f"{os.path.relpath(path, ROOT)}:{node.lineno}: {name}")
    assert not outside, "\n".join(outside)


def test_json_is_parsed_in_json_document_alone():
    """Every JSON document is read through sysconfig.json_document, which
    refuses non-finite numbers with the format's error class: src/enermod
    calls json.loads and json.load nowhere else."""
    outside = []
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "enermod", "*.py"))):
        tree = _parse(path)
        allowed = {id(node) for func in ast.walk(tree)
                   if isinstance(func, ast.FunctionDef) and func.name == "json_document"
                   for node in ast.walk(func)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "json":
                outside.append(f"{os.path.relpath(path, ROOT)}:{node.lineno}: from json")
            elif (isinstance(node, ast.Attribute) and node.attr in ("load", "loads")
                  and isinstance(node.value, ast.Name) and node.value.id == "json"
                  and id(node) not in allowed):
                outside.append(f"{os.path.relpath(path, ROOT)}:{node.lineno}: json.{node.attr}")
    assert not outside, "\n".join(outside)


# From Python 3.12 on the builtin sum adds floats with compensation, so a
# float sum that reaches a file would round differently per interpreter;
# such sums go through sysconfig.fold_sum.  The builtin stays for integer
# counts: a sum of an integer literal per item, or a function named here.
_INTEGER_SUMS = {
    "Actor.work_cycles": "Actor.work holds integer counts",
}


def _counts_literal(call):
    """sum(<int literal> for ...): a count whatever the items are."""
    return (len(call.args) == 1 and not call.keywords
            and isinstance(call.args[0], (ast.GeneratorExp, ast.ListComp))
            and isinstance(call.args[0].elt, ast.Constant)
            and type(call.args[0].elt.value) is int)


def test_builtin_sum_only_adds_integer_counts():
    offending, summing = [], set()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "enermod", "*.py"))):
        for qualname, _cls, node in _scopes(_parse(path)):
            counting = {id(call.func) for call in ast.walk(node)
                        if isinstance(call, ast.Call) and _counts_literal(call)
                        and isinstance(call.func, ast.Name) and call.func.id == "sum"}
            for name in ast.walk(node):
                if not (isinstance(name, ast.Name) and name.id == "sum"):
                    continue
                if qualname in _INTEGER_SUMS:
                    summing.add(qualname)
                elif id(name) not in counting:
                    offending.append(
                        f"{os.path.relpath(path, ROOT)}:{name.lineno}: "
                        f"builtin sum in {qualname}; use fold_sum for floats")
    stale = sorted(set(_INTEGER_SUMS) - summing)
    assert not offending and not stale, "\n".join(offending + stale)


# Fields model_to_json or function_to_json write that their loaders do not
# read, each kept for a reader of the file.
_WRITE_ONLY_ALLOWED = {
    "static_power_pw": "the static term in pW at provenance.clock_hz, for a reader",
}


class _Reads(dict):
    """A JSON object that notes each field a loader looks up by name."""

    def __init__(self, doc, path, objects):
        super().__init__((k, _recording(v, f"{path}{k}", objects)) for k, v in doc.items())
        self.path, self.looked_up = path, set()
        objects.append(self)

    def get(self, key, default=None):
        self.looked_up.add(key)
        return super().get(key, default)

    def __getitem__(self, key):
        self.looked_up.add(key)
        return super().__getitem__(key)


def _recording(value, path, objects):
    if isinstance(value, dict):
        return _Reads(value, path and path + ".", objects)
    if isinstance(value, list):
        return [_recording(item, path + "[]", objects) for item in value]
    return value


def test_every_written_model_field_is_read_back():
    """An object none of whose fields the loader looks up by name (the
    provenance, a rule's match) is taken whole, as data."""
    to_key = ModelFunction(rules=(rule({}, "{key}"),), name="keys")
    model = EnergyModel(
        function=compose(to_key, transition_function()),
        constants={"trans:a>b": 1.5},
        reducers=[Reducer(kind=REDUCER_STAIRCASE, family="noc/hops:1", a=6.0, b=8.6,
                          flit_payload_bytes=8)],
        static_pj_per_cycle=0.5, provenance={"clock_hz": 7e8})
    objects = []
    loaded = model_from_json(_recording(model_to_json(model), "", objects))
    assert loaded == model
    unread = {obj.path + key for obj in objects if obj.looked_up
              for key in obj if key not in obj.looked_up}
    stale = set(_WRITE_ONLY_ALLOWED) - unread
    assert unread == set(_WRITE_ONLY_ALLOWED), (
        f"written, never read: {sorted(unread - set(_WRITE_ONLY_ALLOWED))}; "
        f"read or not written, drop from the allowlist: {sorted(stale)}")
