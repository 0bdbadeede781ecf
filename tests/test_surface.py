"""Static checks of the package surface, read from the source with `ast`.

Every public function, class and method in `src/bgkit` must have a caller:
a subcommand's code in `src`, an acceptance criterion or the benchmark
harness in `perfbench/`.  Unit tests alone do not keep a name alive.  And
every module-level import must be read somewhere in its module.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "bgkit").glob("*.py"))
CALLERS = SRC + [ROOT / "tests" / "test_acceptance.py"] + sorted(
    (ROOT / "perfbench").glob("*.py"))

# public names kept without a caller in CALLERS, each with its reason
LIBRARY_API = {
    "DistanceProfile.distances":
        "tests read a profile's breakpoint distances as Fractions",
    "DistanceProfile.cumulative":
        "tests read a profile's cumulative masses as Fractions",
}


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _public_surface():
    """(module path, dotted name) of each public top-level function or
    class in `src/bgkit` and of each public method of those classes."""
    out = []
    for path in SRC:
        for node in _tree(path).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_"):
                continue
            out.append((path, node.name))
            if isinstance(node, ast.ClassDef):
                out.extend((path, f"{node.name}.{item.name}")
                           for item in node.body
                           if isinstance(item, ast.FunctionDef)
                           and not item.name.startswith("_"))
    return out


def _references():
    """(attributes, module attributes, imported names, bare loads per file)
    over CALLERS.

    A method is reached only as an attribute; `perfbench/trace.py` names
    the attributes it wraps as strings, so an identifier string there
    counts as an attribute.  A top-level name is reached as an attribute of
    its own module (`spaces.check_ball`, or `bgkit.spaces.check_ball`), by
    a `from ... import`, or by a bare load in its own module: an attribute
    of the same name on anything else (`space.distance`) does not count.
    """
    attributes, qualified, imported, loads = set(), set(), set(), {}
    for path in CALLERS:
        bare = loads.setdefault(path, set())
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Attribute):
                attributes.add(node.attr)
                owner = node.value
                if isinstance(owner, ast.Attribute):
                    qualified.add((owner.attr, node.attr))
                elif isinstance(owner, ast.Name):
                    qualified.add((owner.id, node.attr))
            elif isinstance(node, ast.ImportFrom):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                bare.add(node.id)
            elif (path.parent.name == "perfbench"
                  and isinstance(node, ast.Constant)
                  and isinstance(node.value, str)
                  and node.value.isidentifier()):
                attributes.add(node.value)
    return attributes, qualified, imported, loads


def test_every_public_name_has_a_caller():
    attributes, qualified, imported, loads = _references()
    uncalled = []
    for path, name in _public_surface():
        owner, _, method = name.rpartition(".")
        if method and owner:
            used = method in attributes
        else:
            used = ((path.stem, name) in qualified or name in imported
                    or name in loads[path])
        if not used and name not in LIBRARY_API:
            uncalled.append(f"{path.stem}.{name}")
    assert uncalled == [], (
        "public names with no caller in src, the acceptance criteria or "
        "perfbench; delete them, make them private, or list them in "
        f"LIBRARY_API with a reason: {uncalled}")


def test_library_api_names_exist():
    surface = {name for _path, name in _public_surface()}
    assert set(LIBRARY_API) <= surface


def _module_imports(tree, lines):
    """Bound name -> line of each module-level import, without
    `from __future__` and lines marked `# noqa`."""
    out = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if "# noqa" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            out[bound] = node.lineno
    return out


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda,
           ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _scope_locals(scope):
    """Names bound in this function or comprehension scope itself: its
    parameters and its assignment targets, not those of nested scopes."""
    names = set()
    if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        args = scope.args
        names.update(a.arg for a in args.posonlyargs + args.args
                     + args.kwonlyargs)
        names.update(a.arg for a in (args.vararg, args.kwarg) if a)
        body = scope.body if isinstance(scope.body, list) else [scope.body]
    else:
        names.update(n.id for gen in scope.generators
                     for n in ast.walk(gen.target) if isinstance(n, ast.Name))
        body = []
    stack = list(body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(node.name)
            continue
        if isinstance(node, _SCOPES):
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        stack.extend(ast.iter_child_nodes(node))
    return names


def _global_loads(node, shadowed=frozenset()):
    """Bare names loaded where they refer to a module-level binding: a
    load inside a function that binds the same name reads the local."""
    if isinstance(node, _SCOPES):
        shadowed = shadowed | _scope_locals(node)
    found = set()
    if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            and node.id not in shadowed):
        found.add(node.id)
    for child in ast.iter_child_nodes(node):
        found |= _global_loads(child, shadowed)
    return found


def test_no_unused_module_imports():
    unused = []
    for path in SRC:
        text = path.read_text()
        tree = ast.parse(text, filename=str(path))
        loaded = _global_loads(tree)
        unused.extend(f"{path.stem}:{line} {name}"
                      for name, line in _module_imports(
                          tree, text.splitlines()).items()
                      if name not in loaded)
    assert unused == []


def test_unused_import_check_sees_through_shadowing():
    text = ("from math import exp, log\n"
            "def f(x):\n"
            "    exp = 2\n"
            "    return exp + x\n"
            "def g(y):\n"
            "    return [log for log in y]\n")
    tree = ast.parse(text)
    loaded = _global_loads(tree)
    assert set(_module_imports(tree, text.splitlines())) - loaded == {
        "exp", "log"}
    assert "exp" in _global_loads(ast.parse(
        "from math import exp\ndef f(exp2):\n    return exp(exp2)\n"))
