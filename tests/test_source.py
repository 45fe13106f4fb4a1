"""Checks on the package source itself."""

import ast
import builtins
import importlib
import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import folint

SOURCES = sorted(Path(folint.__file__).parent.glob("*.py"))
TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_sources_found():
    assert len(SOURCES) >= 10


def test_no_bare_asserts():
    # python -O strips assert statements, so checks must raise explicitly
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += ["%s:%d" % (path.name, node.lineno)
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def _float_uses(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            yield node, "float literal"
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            yield node, "float()"
        elif (isinstance(node, ast.Attribute) and node.attr == "sqrt"
              and isinstance(node.value, ast.Name)
              and node.value.id == "math"):
            yield node, "math.sqrt"
        elif (isinstance(node, ast.ImportFrom) and node.module == "math"
              and any(alias.name == "sqrt" for alias in node.names)):
            yield node, "math.sqrt"


def test_no_floats():
    # every decision is exact: no float literal, float() or math.sqrt
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += ["%s:%d %s" % (path.name, node.lineno, what)
                  for node, what in _float_uses(tree)]
    assert found == []


def test_float_check_sees_floats():
    snippet = ("x = 0.5\ny = float(x)\nz = math.sqrt(2)\n"
               "from math import sqrt\n")
    kinds = sorted(what for _, what in _float_uses(ast.parse(snippet)))
    assert kinds == ["float literal", "float()", "math.sqrt", "math.sqrt"]


def _reciprocals(tree, allowed=None):
    """Line numbers of the ``1 / <expr>`` in tree, outside the body of the
    function named ``allowed``.  For an int expr the quotient is a float."""
    inside = {id(inner) for node in ast.walk(tree)
              if isinstance(node, ast.FunctionDef) and node.name == allowed
              for inner in ast.walk(node)}
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.BinOp)
                  and isinstance(node.op, ast.Div)
                  and isinstance(node.left, ast.Constant)
                  and node.left.value == 1 and id(node) not in inside)


def test_one_reciprocal():
    # numfield.reciprocal is the one exact 1 / x: a Fraction for an int x
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        allowed = "reciprocal" if path.name == "numfield.py" else None
        found += ["%s:%d" % (path.name, line)
                  for line in _reciprocals(tree, allowed)]
    assert found == []


def test_reciprocal_check_sees_reciprocals():
    snippet = ("a = 1 / x\nb = 2 / x\nc = x / 1\n"
               "def reciprocal(x):\n    return 1 / x\n"
               "d = [1 / (x + 1)]\ne = one / x\n")
    tree = ast.parse(snippet)
    assert _reciprocals(tree) == [1, 5, 6]
    assert _reciprocals(tree, "reciprocal") == [1, 6]


def _denominator_images(tree, allowed=None):
    """Line numbers of ``<expr>.denominator % ...`` and
    ``pow(<expr>.denominator, -1, ...)`` in tree, outside the function
    whose qualified name is ``allowed``: a coordinate denominator taken mod
    a prime, which only the image of a Fraction coordinate needs."""
    inside = {id(inner) for name, node in _definitions(tree)
              if name == allowed for inner in ast.walk(node)}

    def is_denominator(node):
        return isinstance(node, ast.Attribute) and node.attr == "denominator"

    def is_minus_one(node):
        return (isinstance(node, ast.UnaryOp)
                and isinstance(node.op, ast.USub)
                and isinstance(node.operand, ast.Constant)
                and node.operand.value == 1)

    found = []
    for node in ast.walk(tree):
        if id(node) in inside:
            continue
        if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod)
                and is_denominator(node.left)):
            found.append(node.lineno)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "pow" and len(node.args) == 3
              and is_denominator(node.args[0])
              and is_minus_one(node.args[1])):
            found.append(node.lineno)
    return sorted(found)


def test_images_take_int_coordinates():
    # images mod P are taken of ints and of elements with int coordinates
    # only; the minimal polynomial, in NumberField.split_prime, is the one
    # exception
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += ["%s:%d" % (path.name, line) for line in
                  _denominator_images(tree, "NumberField.split_prime")]
    assert found == []


def test_denominator_image_check_sees_them():
    snippet = ("a = c.denominator % P\n"
               "b = pow(x.coeffs[0].denominator, -1, P)\n"
               "c = pow(x.denominator, 2, P)\n"
               "d = x.numerator % P + lcm(x.denominator, 2)\n"
               "class NumberField:\n"
               "    def split_prime(self, P):\n"
               "        return [c.denominator % P, pow(c.denominator, -1, P)]\n"
               "def split_prime(c, P):\n"
               "    return c.denominator % P\n")
    tree = ast.parse(snippet)
    assert _denominator_images(tree) == [1, 2, 7, 7, 9]
    assert _denominator_images(tree, "NumberField.split_prime") == [1, 2, 9]


def _definitions(tree, prefix=""):
    """(qualified name, node) of every function and method in tree."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            name = prefix + node.name
            if not isinstance(node, ast.ClassDef):
                yield name, node
            yield from _definitions(node, name + ".")
        else:
            yield from _definitions(node, prefix)


def _references(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node
        elif isinstance(node, ast.Attribute):
            yield node.attr, node


def _inherited(node):
    """The attribute names that a class inherits from bases named as
    module.Class, classes of other packages such as argparse's."""
    return {name for base in node.bases
            if isinstance(base, ast.Attribute)
            and isinstance(base.value, ast.Name)
            for name in dir(getattr(importlib.import_module(base.value.id),
                                    base.attr))}


def _functions_without_callers(trees, exempt=()):
    """The functions and methods of {module: tree}, public or not, that no
    code in these trees names outside their own body, other than the
    "module:qualname" entries of ``exempt``.  Dunders are called by the
    language, and a method that overrides one a class inherits from outside
    the package is called by that base, so both are left out."""
    named = {}
    for tree in trees.values():
        for ref, node in _references(tree):
            named.setdefault(ref, set()).add(node)
    overrides = {id(method) for tree in trees.values()
                 for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
                 for method in node.body
                 if isinstance(method, ast.FunctionDef)
                 and method.name in _inherited(node)}
    found = []
    for module, tree in trees.items():
        for qualname, node in _definitions(tree):
            if (node.name.startswith("__") and node.name.endswith("__")
                    or id(node) in overrides):
                continue
            own = {ref_node for ref, ref_node in _references(node)
                   if ref == node.name}
            if not named.get(node.name, set()) - own:
                found.append("%s:%s" % (module, qualname))
    return sorted(set(found) - set(exempt))


def test_no_functions_without_callers():
    # a function in src/ needs a caller in src/: one that only tests call
    # belongs in tests/helpers.py.  The layers that the benchmark's tracer
    # wraps by name are the one exemption
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in SOURCES}
    traced = ["%s.py:%s" % tuple(name.split(".", 1)) for name in
              _traced_names(ast.parse(TRACING.read_text(), str(TRACING)))]
    assert _functions_without_callers(trees, traced) == []


def test_caller_check_sees_unused_functions():
    used = ast.parse("def _used():\n    return 1\n\n"
                     "def _recursive(n):\n    return _recursive(n - 1)\n\n"
                     "def unused():\n    return _used()\n\n"
                     "def traced():\n    pass\n")
    caller = ast.parse("import m\nx = m._named_by_attribute\n")
    other = ast.parse("import argparse\n\n"
                      "def _named_by_attribute():\n    pass\n\n"
                      "def _kept():\n    pass\n\nclass C:\n"
                      "    def method(self):\n        return _kept()\n\n"
                      "    def __repr__(self):\n        return 'C'\n\n"
                      "    def called(self):\n"
                      "        def inner():\n            pass\n"
                      "        return inner\n\n"
                      "class P(argparse.ArgumentParser):\n"
                      "    def error(self, message):\n        pass\n\n"
                      "    def fail(self):\n        pass\n")
    test = ast.parse("def test_c():\n    return C().called()\n")
    sources = {"a.py": used, "b.py": caller, "c.py": other}
    found = _functions_without_callers(sources, ["a.py:traced"])
    assert found == ["a.py:_recursive", "a.py:unused", "c.py:C.called",
                     "c.py:C.method", "c.py:P.fail"]
    # C.called has one caller, in a test: only there is it named
    tested = {**sources, "test_c.py": test}
    assert "c.py:C.called" not in _functions_without_callers(tested)


def _lookup(name, namespace):
    """What a name means in a module: its global, else the builtin."""
    return namespace.get(name, getattr(builtins, name, None))


def _handled_classes(tree, namespace):
    """The exception classes that the except clauses of ``main`` in tree
    name."""
    handled = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.FunctionDef) and node.name == "main"):
            continue
        for handler in ast.walk(node):
            if isinstance(handler, ast.ExceptHandler) and handler.type:
                kinds = getattr(handler.type, "elts", [handler.type])
                handled += [_lookup(kind.id, namespace) for kind in kinds]
    return tuple(handled)


def _unhandled_raises(tree, namespace, handled):
    """Line numbers of the ``raise Name(...)`` in tree whose class is not
    a subclass of one of ``handled``."""
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                and isinstance(node.exc.func, ast.Name)):
            kind = _lookup(node.exc.func.id, namespace)
            if not (isinstance(kind, type) and issubclass(kind, handled)):
                found.append(node.lineno)
    return sorted(found)


def test_every_raise_has_an_exit_code():
    # an exception that cli.main does not catch ends in a traceback with
    # exit code 1, the code of a negative answer
    cli = importlib.import_module("folint.cli")
    handled = _handled_classes(ast.parse(Path(cli.__file__).read_text()),
                               vars(cli))
    found = []
    for path in SOURCES:
        name = "folint" if path.stem == "__init__" else "folint." + path.stem
        module = importlib.import_module(name)
        tree = ast.parse(path.read_text(), filename=str(path))
        found += ["%s:%d" % (path.name, line)
                  for line in _unhandled_raises(tree, vars(module), handled)]
    assert found == []


def test_exit_code_check_sees_unhandled_raises():
    snippet = ("class Bad(KeyError):\n    pass\n\n"
               "class Good(ValueError):\n    pass\n\n"
               "def main():\n    try:\n        run()\n"
               "    except (ValueError, Bad):\n        return 3\n"
               "    except RuntimeError as err:\n        return 4\n\n"
               "def run(err):\n    raise Good('a')\n    raise KeyError('b')\n"
               "    raise ZeroDivisionError\n    raise Bad('c')\n"
               "    raise Unknown('d')\n    raise err\n"
               "    raise RecursionError('e')\n    raise IndexError('f')\n")
    tree = ast.parse(snippet)
    namespace = {}
    exec(compile(tree, "<snippet>", "exec"), namespace)
    handled = _handled_classes(tree, namespace)
    assert handled == (ValueError, namespace["Bad"], RuntimeError)
    assert _unhandled_raises(tree, namespace, handled) == [17, 20, 23]


_MAX_LINE = 79


def _long_lines(text):
    """Numbers of the lines of text longer than ``_MAX_LINE`` characters."""
    return [number for number, line in enumerate(text.splitlines(), 1)
            if len(line) > _MAX_LINE]


def test_no_long_lines():
    # PEP 8's 79 characters hold in every module, code and docstrings alike
    found = []
    for path in SOURCES:
        found += ["%s:%d" % (path.name, line)
                  for line in _long_lines(path.read_text())]
    assert found == []


def test_line_check_sees_long_lines():
    snippet = "x = 1\n" + "#" * 79 + "\n" + "y" * 80 + "\n\n" + "z" * 100
    assert _long_lines(snippet) == [3, 5]


def _function_imports(tree):
    """Line numbers of the import statements inside function bodies."""
    return sorted({inner.lineno for node in ast.walk(tree)
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for inner in ast.walk(node)
                   if isinstance(inner, (ast.Import, ast.ImportFrom))})


def test_no_imports_in_functions():
    # a module declares everything it depends on at its top
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += ["%s:%d" % (path.name, line)
                  for line in _function_imports(tree)]
    assert found == []


def test_import_check_sees_function_imports():
    snippet = ("import os\n\ndef f():\n    import re\n    return re\n\n"
               "class C:\n    def m(self):\n        from math import comb\n"
               "        def inner():\n            import sys\n")
    assert _function_imports(ast.parse(snippet)) == [4, 9, 11]


# what each arithmetic layer may import of the package: only what lies
# below it
_BELOW = {"modp": set(), "textio": set(), "zpoly": {"modp"},
          "numfield": {"modp", "textio", "zpoly"}}


def _package_imports(tree):
    """The package modules that the ``from .x import ...`` and
    ``from . import x`` statements of tree name."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found |= ({node.module} if node.module
                      else {alias.name for alias in node.names})
    return found


def test_lower_layers_import_only_what_lies_below():
    # modp and textio import nothing of the package, zpoly only modp and
    # numfield only those three, so the kernels stay usable on their own
    found = {}
    for path in SOURCES:
        if path.stem in _BELOW:
            tree = ast.parse(path.read_text(), filename=str(path))
            extra = _package_imports(tree) - _BELOW[path.stem]
            if extra:
                found[path.stem] = sorted(extra)
    assert found == {}
    assert set(_BELOW) <= {path.stem for path in SOURCES}


def test_layer_check_sees_package_imports():
    snippet = ("from __future__ import annotations\nimport math\n"
               "from fractions import Fraction\nfrom . import modp, zpoly\n"
               "from .numfield import QQ\nfrom .textio import (\n"
               "    join_terms,\n)\n\ndef f():\n    from .cones import dual\n")
    assert _package_imports(ast.parse(snippet)) == {
        "cones", "modp", "numfield", "textio", "zpoly"}


_CONTAINERS = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp,
               ast.SetComp)
_CONTAINER_CALLS = {"dict", "list", "set", "defaultdict", "OrderedDict",
                    "Counter"}
_CACHE_DECORATORS = {"lru_cache", "cache"}


def _called_name(node):
    """The name a call or a decorator calls: f for f(...), f and m.f."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else None


def _module_caches(tree):
    """(line, what) of the module-level mutable containers (``__all__``
    aside) and of the memoising decorators anywhere in a module."""
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = getattr(node, "targets", None) or [node.target]
            if [getattr(t, "id", None) for t in targets] == ["__all__"]:
                continue
            value = node.value
            if isinstance(value, _CONTAINERS):
                yield node.lineno, "container literal"
            elif (isinstance(value, ast.Call)
                  and _called_name(value) in _CONTAINER_CALLS):
                yield node.lineno, "container call"
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for deco in node.decorator_list:
                if _called_name(deco) in _CACHE_DECORATORS:
                    yield deco.lineno, "cache decorator"


# the module-level objects of package classes that may hold a list, dict
# or set, each with the reason why what it keeps cannot change an answer
_KEPT_STATE = {
    "numfield.QQ": "its split primes depend only on its minimal polynomial "
                   "t, which is fixed",
}


def _module_state(modules):
    """{id: (module.name, object)} of the module-level instances of package
    classes whose attributes hold a list, dict or set, each once."""
    found = {}
    for module in modules:
        for name, obj in vars(module).items():
            cls = type(obj)
            if isinstance(obj, type) or not cls.__module__.startswith(
                    "folint."):
                continue
            values = list(getattr(obj, "__dict__", {}).values())
            values += [getattr(obj, slot, None) for klass in cls.__mro__
                       for slot in getattr(klass, "__slots__", ())]
            if any(isinstance(v, (list, dict, set)) for v in values):
                found.setdefault(id(obj), (
                    "%s.%s" % (module.__name__.split(".")[-1], name), obj))
    return found


def test_no_module_level_caches():
    # what a run keeps lives on the objects it belongs to, such as a
    # configuration's LinsysMemo (the last class's first elimination mod
    # a prime among it), and goes with them.  The source is read for
    # module-level containers and memoising decorators, and the imported
    # modules for objects that hold a container, such as QQ's split primes
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += ["%s:%d %s" % (path.name, line, what)
                  for line, what in _module_caches(tree)]
    assert found == []
    state = _module_state(importlib.import_module(
        "folint" if path.stem == "__init__" else "folint." + path.stem)
        for path in SOURCES)
    kept = {id(getattr(importlib.import_module("folint." + module), attr))
            for module, attr in (name.split(".") for name in _KEPT_STATE)}
    unlisted = sorted(name for key, (name, _) in state.items()
                      if key not in kept)
    assert unlisted == [] and kept <= set(state)


def test_state_check_sees_containers_in_objects():
    from folint.cluster import LinsysMemo
    from folint.numfield import NumberField
    module = SimpleNamespace(__name__="folint.sample", field=NumberField(
        (-2, 0, 1)), memo=LinsysMemo(), text="x", pair=(1, 2))
    assert sorted(name for name, _ in _module_state([module]).values()) == [
        "sample.field", "sample.memo"]


def test_cache_check_sees_caches():
    snippet = ("__all__ = ['f']\nA = {}\nB: list = []\nC = set()\n"
               "D = collections.defaultdict(list)\nE = {k: 1 for k in 'ab'}\n"
               "F = (1, 2)\nG = frozenset()\n"
               "@functools.lru_cache(maxsize=None)\ndef f():\n    x = {}\n"
               "    return x\n\nclass C:\n    @cache\n    def m(self):\n"
               "        pass\n")
    assert sorted(_module_caches(ast.parse(snippet))) == [
        (2, "container literal"), (3, "container literal"),
        (4, "container call"), (5, "container call"),
        (6, "container literal"), (9, "cache decorator"),
        (15, "cache decorator")]


def _traced_names(tree):
    """The dotted names that ``LAYERS`` and ``VPLUS`` of the benchmark's
    tracer give, read from its source without importing it."""
    names = []
    for node in tree.body:
        if not (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)):
            continue
        if node.targets[0].id == "LAYERS":
            names += ["%s.%s" % (entry.elts[0].value, entry.elts[1].value)
                      for entry in node.value.elts]
        elif node.targets[0].id == "VPLUS":
            names.append(node.value.value)
    return names


def test_traced_layers_exist():
    # the tracer wraps each layer by module and attribute name, so a layer
    # renamed or deleted in folint would make traced benchmark runs raise
    names = _traced_names(ast.parse(TRACING.read_text(), str(TRACING)))
    assert len(names) >= 20 and "numfield.poly_resultant" in names
    missing = []
    for name in names:
        module, *attrs = name.split(".")
        obj = importlib.import_module("folint." + module)
        for attr in attrs:
            obj = getattr(obj, attr, None)
        if not callable(obj):
            missing.append(name)
    assert missing == []


@pytest.mark.parametrize("name,outcome", [("family_a59", "no_integral"),
                                          ("fig3", "integral")])
def test_traced_pipeline_passes_the_counter_checks(name, outcome,
                                                   monkeypatch):
    # a traced benchmark run wraps the layers by name, checks these counter
    # relations on every instance and reads each dual's ray count, so a
    # change to what a layer means breaks it even when the name survives
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    mods = SimpleNamespace(**{
        m: importlib.import_module("folint." + m)
        for m in ("cli", "cones", "engine", "linalg", "linsys", "numfield",
                  "polyforms", "resolve")})
    fixtures = TRACING.parent.parent / "fixtures"
    with tracing.Tracer() as tracer:
        tracer.install(mods)
        tracer.instance = name
        omega, field = mods.cli.load_foliation(str(fixtures / (name + ".fol")))
        config = mods.cli.load_config_file(str(fixtures / (name + ".cfg")),
                                           field)
        verdict = mods.engine.pipeline(omega, config, mods.engine.Caps())
    assert verdict.outcome == outcome
    counts = tracer.counts(name)
    assert tracing.counter_problems(counts, "decide") == []
    assert counts[tracing.VPLUS] >= 1
    rays = [span[tracing.VALUE] for span in tracer.spans
            if span[tracing.NAME] == "cones.dual"]
    assert rays and all(isinstance(r, int) and r > 0 for r in rays)
