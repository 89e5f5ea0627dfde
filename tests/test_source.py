"""Source hygiene: every parameter of every afq function is read in its body,
every default some caller overrides, every private module-level name, every
public name and every config key is read somewhere, every error class is
raised somewhere,
``afq.__all__`` matches what the package imports, and the brute-force
oracle shares no code with what it checks."""

import ast
from pathlib import Path

import pytest

import afq
from afq.config import SCHEMA

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "afq").glob("*.py"))
# the code that may set a default: the package, its demos and its benchmark
CALLERS = SOURCES + sorted((ROOT / "demos").glob("*.py")) + sorted(
    (ROOT / "bench").glob("*.py"))


def _is_stub(fn):
    """A body of constants only, a docstring and ``...`` (a Protocol method)."""
    return all(isinstance(stmt, ast.Expr)
               and isinstance(stmt.value, ast.Constant) for stmt in fn.body)


def unread_parameters(tree):
    """(line, function, parameter) of each parameter its body never loads."""
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.Lambda)):
            continue
        if not isinstance(fn, ast.Lambda) and _is_stub(fn):
            continue
        a = fn.args
        params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs,
                                  a.vararg, a.kwarg) if p is not None]
        loaded = {node.id for node in ast.walk(fn)
                  if isinstance(node, ast.Name)
                  and isinstance(node.ctx, ast.Load)}
        name = getattr(fn, "name", "<lambda>")
        found += [(fn.lineno, name, p) for p in params
                  if p not in ("self", "cls") and p not in loaded]
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    assert unread_parameters(ast.parse(path.read_text(), str(path))) == []


def test_unread_parameter_is_found():
    tree = ast.parse("def f(a, b):\n    return a\n"
                     "class P:\n    def g(self, x):\n        ...\n")
    assert unread_parameters(tree) == [(1, "f", "b")]


def _name(node):
    """The name a callee or decorator ends in: ``f``, ``m.f`` or ``f(...)``."""
    node = node.func if isinstance(node, ast.Call) else node
    return getattr(node, "id", getattr(node, "attr", None))


def defaulted_parameters(tree):
    """(callee, parameter, position) of each defaulted parameter of a
    function or method and each defaulted ``@dataclass`` field, matched by
    its class's name. ``position`` is the positional slot a call fills,
    counted after ``self`` or ``cls`` for a method and in field order for
    a dataclass; it is None for a keyword-only parameter."""
    methods = {id(stmt) for cls in ast.walk(tree)
               if isinstance(cls, ast.ClassDef) for stmt in cls.body
               if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
               and "staticmethod" not in map(_name, stmt.decorator_list)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            slots = [*a.posonlyargs, *a.args][(id(node) in methods):]
            found += [(node.name, p.arg, slots.index(p))
                      for p in slots[len(slots) - len(a.defaults):]]
            found += [(node.name, p.arg, None)
                      for p, d in zip(a.kwonlyargs, a.kw_defaults)
                      if d is not None]
        elif isinstance(node, ast.ClassDef) and "dataclass" in map(
                _name, node.decorator_list):
            fields = [stmt for stmt in node.body
                      if isinstance(stmt, ast.AnnAssign)
                      and isinstance(stmt.target, ast.Name)]
            found += [(node.name, f.target.id, i)
                      for i, f in enumerate(fields) if f.value is not None]
    return found


def unset_defaults(definitions, callers):
    """(module, callee, parameter) of each default of ``definitions`` (module
    name -> AST) that no call in ``callers`` sets, by keyword or by
    position; a call with ``*args`` or ``**kwargs`` sets every one."""
    calls = {}
    for tree in callers:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                star = (any(isinstance(a, ast.Starred) for a in node.args)
                        or any(k.arg is None for k in node.keywords))
                calls.setdefault(_name(node), []).append(
                    (len(node.args), {k.arg for k in node.keywords}, star))
    return sorted(
        (module, callee, param)
        for module, tree in definitions.items()
        for callee, param, position in defaulted_parameters(tree)
        if not any(star or param in keywords
                   or (position is not None and count > position)
                   for count, keywords, star in calls.get(callee, ())))


def test_every_default_is_set_by_a_caller():
    definitions = {p.name: ast.parse(p.read_text(), str(p)) for p in SOURCES}
    callers = [ast.parse(p.read_text(), str(p)) for p in CALLERS]
    assert unset_defaults(definitions, callers) == []


def test_unset_default_is_found():
    definitions = {"m.py": ast.parse(
        "def f(a, b=1, /, c=2, *, d=3, e=4):\n    pass\n"
        "class K:\n"
        "    def m(self, x, y=0, z=0):\n        pass\n"
        "    @staticmethod\n    def s(x=0):\n        pass\n"
        "@dataclass(frozen=True)\nclass D:\n"
        "    p: int\n    q: int = 0\n    r: int = 1\n"
        "class N:\n    q: int = 0\n"
        "def g(a=1):\n    pass\n")}
    callers = [ast.parse("f(1, 2, e=3)\nobj.m(1, 2)\nK.s(x=1)\nD(1, r=2)\n"
                         "g(*args)\nN()\n")]
    assert unset_defaults(definitions, callers) == [
        ("m.py", "D", "q"), ("m.py", "f", "c"), ("m.py", "f", "d"),
        ("m.py", "m", "z")]


def unreferenced_private_names(trees):
    """(module, name) of each module-level ``_name`` function, class or
    assignment that no other top-level statement of any module loads;
    importing it does not count as a use."""
    loads = [(module, i, {node.id for node in ast.walk(stmt)
                          if isinstance(node, ast.Name)
                          and isinstance(node.ctx, ast.Load)})
             for module, tree in trees.items()
             for i, stmt in enumerate(tree.body)]
    found = []
    for module, tree in trees.items():
        for i, stmt in enumerate(tree.body):
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = getattr(stmt, "targets", None) or [stmt.target]
                names = [node.id for t in targets for node in ast.walk(t)
                         if isinstance(node, ast.Name)]
            else:
                continue
            found += [(module, name) for name in names
                      if name.startswith("_") and not name.startswith("__")
                      and not any(name in used for m, j, used in loads
                                  if (m, j) != (module, i))]
    return found


def test_every_private_helper_is_referenced():
    trees = {p.name: ast.parse(p.read_text(), str(p)) for p in SOURCES}
    assert unreferenced_private_names(trees) == []


def test_unreferenced_private_name_is_found():
    trees = {"a.py": ast.parse("def _used():\n    return 1\n"
                               "def _recursive():\n    return _recursive()\n"
                               "_TABLE = 1\n_SPARE, __all__ = _TABLE, []\n"
                               "def public():\n    return _used()\n"),
             "b.py": ast.parse("from .a import _imported_only\n"
                               "class _Local:\n    pass\n"
                               "x = _Local()\n"),
             "c.py": ast.parse("def _imported_only():\n    pass\n")}
    assert unreferenced_private_names(trees) == [
        ("a.py", "_recursive"), ("a.py", "_SPARE"), ("c.py", "_imported_only")]


def public_definitions(tree):
    """(qualified name, name) of each public module-level function, class
    and assignment, and each public method, property and field of a
    module-level class."""
    found = []
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            found.append((stmt.name, stmt.name))
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = getattr(stmt, "targets", None) or [stmt.target]
            found += [(node.id, node.id) for t in targets
                      for node in ast.walk(t) if isinstance(node, ast.Name)]
        if isinstance(stmt, ast.ClassDef):
            for member in stmt.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = member.name
                elif (isinstance(member, ast.AnnAssign)
                      and isinstance(member.target, ast.Name)):
                    name = member.target.id
                else:
                    continue
                found.append((f"{stmt.name}.{name}", name))
    return [(qualified, name) for qualified, name in found
            if not name.startswith("_")]


def unloaded_public_names(definitions, callers):
    """(module, qualified name) of each public definition of
    ``definitions`` (module name -> AST) whose name no AST of ``callers``
    loads, as a name or an attribute; importing it does not count."""
    loaded = set()
    for tree in callers:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)):
                loaded.add(node.attr)
    return [(module, qualified) for module, tree in definitions.items()
            for qualified, name in public_definitions(tree)
            if name not in loaded]


def test_every_public_name_is_loaded():
    # the __init__ re-exports and the tests are no callers
    definitions = {p.name: ast.parse(p.read_text(), str(p)) for p in SOURCES
                   if p.name != "__init__.py"}
    callers = [ast.parse(p.read_text(), str(p)) for p in CALLERS
               if p.name != "__init__.py"]
    assert unloaded_public_names(definitions, callers) == []


def test_unloaded_public_name_is_found():
    definitions = {"m.py": ast.parse(
        "LIMIT = 1\nSPARE = 2\n_PRIVATE = 3\n"
        "def used():\n    pass\ndef unused():\n    pass\n"
        "class Record:\n    kept: int\n    dropped: int = 0\n    _hidden: int\n"
        "    def method(self):\n        return self.kept\n"
        "    @property\n    def spare(self):\n        return 1\n"
        "    def __post_init__(self):\n        pass\n")}
    callers = [ast.parse("from m import unused, SPARE\n"
                         "r = Record()\nused(LIMIT)\nr.method()\n"
                         "r.dropped = 1\n")] + list(definitions.values())
    assert unloaded_public_names(definitions, callers) == [
        ("m.py", "SPARE"), ("m.py", "unused"), ("m.py", "Record.dropped"),
        ("m.py", "Record.spare")]


def imported_paths(tree):
    """Dotted paths an AST imports, at any depth: each module, and for
    ``from M import x`` also ``M.x``; relative imports resolve into afq."""
    paths = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            paths |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["afq" if node.level else None,
                                            node.module]))
            paths |= {module} | {f"{module}.{a.name}" for a in node.names}
    return paths


ORACLE_CLIENTS = {"cli.py", "validate.py", "__init__.py"}


@pytest.mark.parametrize("path", [p for p in SOURCES
                                  if p.name not in ORACLE_CLIENTS],
                         ids=lambda p: p.name)
def test_only_front_ends_import_the_oracle(path):
    assert "afq.oracle" not in imported_paths(ast.parse(path.read_text(),
                                                        str(path)))


@pytest.mark.parametrize("source", [
    "def f():\n    from .oracle import fock_eigensolve\n",
    "def g():\n    if True:\n        from . import oracle\n",
    "import afq.oracle\n",
    "from afq import oracle\n"])
def test_oracle_import_is_found(source):
    assert "afq.oracle" in imported_paths(ast.parse(source))


CLOSED_FORMS = ("afq.spectrum", "afq.cqad")


def closed_form_imports(tree):
    """Paths an AST imports from the closed-form modules the oracle checks."""
    return sorted(path for path in imported_paths(tree)
                  if any(path == m or path.startswith(m + ".")
                         for m in CLOSED_FORMS))


def test_oracle_imports_no_closed_form():
    path = ROOT / "src" / "afq" / "oracle.py"
    assert closed_form_imports(ast.parse(path.read_text(), str(path))) == []


@pytest.mark.parametrize("source, found", [
    ("def f():\n    from .cqad import bus_coupling\n",
     ["afq.cqad", "afq.cqad.bus_coupling"]),
    ("from . import spectrum\n", ["afq.spectrum"]),
    ("import afq.cqad\n", ["afq.cqad"]),
    ("from .cantilever import bias_state\nfrom .spectrums import x\n", [])])
def test_closed_form_import_is_found(source, found):
    assert closed_form_imports(ast.parse(source)) == found


def config_reads(tree):
    """String keys an AST reads as ``si[...]`` or ``display[...]``."""
    return {node.slice.value for node in ast.walk(tree)
            if isinstance(node, ast.Subscript)
            and isinstance(node.ctx, ast.Load)
            and isinstance(node.slice, ast.Constant)
            and isinstance(node.slice.value, str)
            and getattr(node.value, "attr",
                        getattr(node.value, "id", None)) in ("si", "display")}


def test_every_config_key_is_read():
    reads = set().union(*(config_reads(ast.parse(p.read_text(), str(p)))
                          for p in SOURCES))
    assert [key for key in SCHEMA if key not in reads] == []


def test_config_read_is_found():
    tree = ast.parse('a = cfg.si["x.a"]\nsi = self.si\nb = si["x.b"]\n'
                     'c = cfg.display["x.c"]\nd = other["x.d"]\n'
                     'si["x.e"] = 1\n')
    assert config_reads(tree) == {"x.a", "x.b", "x.c"}


def raised_names(tree):
    """Names an AST raises, as ``raise X``, ``raise X(...)`` or ``raise m.X``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            names.add(getattr(exc, "id", getattr(exc, "attr", None)))
    return names


def unraised_errors(errors_tree, trees):
    """Classes of ``errors_tree`` other than the base ``AfqError`` that no
    tree raises."""
    raised = set().union(*(raised_names(tree) for tree in trees))
    return [node.name for node in errors_tree.body
            if isinstance(node, ast.ClassDef) and node.name != "AfqError"
            and node.name not in raised]


def test_every_error_is_raised():
    trees = {p.name: ast.parse(p.read_text(), str(p)) for p in SOURCES}
    assert unraised_errors(trees["errors.py"], trees.values()) == []


def test_unraised_error_is_found():
    errors = ast.parse("class AfqError(Exception):\n    pass\n"
                       "class AError(AfqError):\n    pass\n"
                       "class BError(AfqError):\n    pass\n"
                       "class CError(AfqError):\n    pass\n"
                       "class DError(AfqError):\n    pass\n")
    user = ast.parse("def f():\n    raise AError('x')\n"
                     "def g(exc):\n    raise errors.CError from exc\n"
                     "def h():\n    try:\n        pass\n"
                     "    except BError:\n        raise\n"
                     "def k():\n    raise DError\n")
    assert unraised_errors(errors, [user]) == ["BError"]


def unlisted_imports(tree):
    """Public names a package ``__init__`` AST imports but leaves out of
    its ``__all__``."""
    imported, listed = [], set()
    for stmt in tree.body:
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            imported += [(a.asname or a.name).split(".")[0]
                         for a in stmt.names]
        elif isinstance(stmt, ast.Assign) and any(
                getattr(t, "id", None) == "__all__" for t in stmt.targets):
            listed = set(ast.literal_eval(stmt.value))
    return [name for name in imported
            if not name.startswith("_") and name not in listed]


def test_every_public_import_is_listed():
    init = next(p for p in SOURCES if p.name == "__init__.py")
    assert unlisted_imports(ast.parse(init.read_text(), str(init))) == []


def test_unlisted_import_is_found():
    tree = ast.parse("from .a import (x, _y, z as w)\nimport os.path\n"
                     "__all__ = ['x']\n")
    assert unlisted_imports(tree) == ["w", "os"]


def test_every_all_entry_resolves():
    assert [name for name in afq.__all__ if not hasattr(afq, name)] == []
