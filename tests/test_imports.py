"""Source hygiene: no module-level import goes unused, and no library code
serves only the tests."""

import ast
import glob
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _unused_imports(path):
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
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
    "compose": "abstract_trace(t, compose(f, g)) equals applying g, then f",
    "rekey_vector": "the two-stage reference behind compose's property",
    "Trace.concat": "abstraction is linear under trace concatenation",
    "Trace.per_cycle_events": "the per-cycle form that trace files spell",
    "Trace.from_events": "folds a per-cycle event list into the span form",
    "structural_diff": "benchmarks of one sweep differ only in what it sweeps",
    "serialize_isa": "ISA documents round-trip",
    "serialize_config": "config documents round-trip",
    "group_count_formula": "the group count is prod(n_slot + 1) - 1 (README)",
    "gen_transition_benchmarks": "acceptance criterion 5's transition campaign",
    "transition_function": "acceptance criterion 5's pairwise model",
}


def _definitions(path):
    """(qualified name, name, node, is_method) per module-level function and
    per method or property of a module-level class; dunders are implicit."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node.name, node, False
        elif isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("__"):
                    yield f"{node.name}.{sub.name}", sub.name, sub, True


def _references(tree):
    """Counts of names loaded (Name) and of attributes read (Attribute).
    Imports are not references, so re-exports do not count as use.  Matching
    is by name, so a method that shares its name with a used attribute
    counts as used."""
    names, attrs = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] = names.get(node.id, 0) + 1
        elif isinstance(node, ast.Attribute):
            attrs[node.attr] = attrs.get(node.attr, 0) + 1
    return names, attrs


def test_no_library_code_serves_only_the_tests():
    src = sorted(glob.glob(os.path.join(ROOT, "src", "enermod", "*.py")))
    users = src + sorted(glob.glob(os.path.join(ROOT, "perfbench", "*.py")))
    names, attrs = {}, {}
    for path in users:
        with open(path, encoding="utf-8") as fh:
            n, a = _references(ast.parse(fh.read(), filename=path))
        for key, count in n.items():
            names[key] = names.get(key, 0) + count
        for key, count in a.items():
            attrs[key] = attrs.get(key, 0) + count
    unused, defined = [], set()
    for path in src:
        for qualname, name, node, is_method in _definitions(path):
            defined.add(qualname)
            # a recursive call is not a use
            own_names, own_attrs = _references(node)
            uses = attrs.get(name, 0) - own_attrs.get(name, 0)
            if not is_method:
                uses += names.get(name, 0) - own_names.get(name, 0)
            if uses == 0 and qualname not in _TEST_ONLY_ALLOWED:
                unused.append(f"{os.path.relpath(path, ROOT)}: {qualname}")
            elif uses and qualname in _TEST_ONLY_ALLOWED:
                unused.append(f"{qualname} is used; drop it from the allowlist")
    stale = sorted(set(_TEST_ONLY_ALLOWED) - defined)
    assert not unused and not stale, "\n".join(unused + stale)


# From Python 3.12 on the builtin sum adds floats with compensation, so a
# float sum that reaches a file would round differently per interpreter;
# such sums go through sysconfig.fold_sum.  The builtin stays for integer
# counts: a sum of an integer literal per item, or a function named here.
_INTEGER_SUMS = {
    "Actor.work_cycles": "Actor.work holds integer counts",
}


def _functions(tree):
    """(qualified name, node) per module-level function and per method of
    a module-level class; "<module>" stands for the rest of the module."""
    rest = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef):
                    yield f"{node.name}.{sub.name}", sub
                else:
                    rest.append(sub)
        else:
            rest.append(node)
    yield "<module>", ast.Module(body=rest, type_ignores=[])


def _counts_literal(call):
    """sum(<int literal> for ...): a count whatever the items are."""
    return (len(call.args) == 1 and not call.keywords
            and isinstance(call.args[0], (ast.GeneratorExp, ast.ListComp))
            and isinstance(call.args[0].elt, ast.Constant)
            and type(call.args[0].elt.value) is int)


def test_builtin_sum_only_adds_integer_counts():
    offending, summing = [], set()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "enermod", "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        for qualname, node in _functions(tree):
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
