"""Every function, method and class in the package has a user.

A class or non-dunder function or method whose name occurs nowhere in
``src/plocal`` or ``tests`` except at its own definition is dead code. A
name exported from ``plocal/__init__.py`` occurs there, so it counts as
used.

Every parameter of a module-level function or of a non-dunder method,
``self`` and ``cls`` apart, is read in that function's body. Dunder
methods are exempt: protocol methods such as ``FusionSystem.__setattr__``
take arguments they ignore by design.

Every name a module imports is read in that module. ``__init__.py`` is
exempt, because its imports are the package's re-exports.

Every field of a class in the package, an attribute that its
``__init__`` or ``__new__`` sets, is read as an attribute (``obj.field``)
somewhere in ``src/plocal`` or ``tests``. The records are plain classes,
so the fields are read off ``__init__``, or off ``__new__`` for one that
gives one object per content (``AutGroup``, ``FusionSystem``): the check
must see all of them, and a planted unread field must be flagged in
either.
"""

import ast
import re
import shutil
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "plocal"


def _defined_names():
    """Name -> number of definitions, over every function and class in the
    package."""
    defs = Counter()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defs[node.name] += 1
    return defs


def _word_counts(names):
    files = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    text = "\n".join(path.read_text() for path in files)
    words = Counter(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", text))
    return {name: words[name] for name in names}


def test_every_function_is_referenced():
    defs = _defined_names()
    counts = _word_counts(defs)
    unused = sorted(name for name, n in defs.items() if counts[name] <= n)
    assert not unused, "defined but never referenced: %s" % ", ".join(unused)


def _functions(tree):
    """(name, def) for each module-level function, and for each non-dunder
    method as Class.method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for fn in node.body:
                if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    fn.name.startswith("__") and fn.name.endswith("__")
                ):
                    yield "%s.%s" % (node.name, fn.name), fn


def _unread_parameters(package=PACKAGE):
    """``module.function(param)`` for each parameter of a module-level
    function or a non-dunder method, ``self`` and ``cls`` apart, that the
    function's body never reads."""
    out = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for name, fn in _functions(tree):
            a = fn.args
            params = [x.arg for x in a.posonlyargs + a.args + a.kwonlyargs]
            params += [x.arg for x in (a.vararg, a.kwarg) if x is not None]
            read = {
                node.id
                for stmt in fn.body
                for node in ast.walk(stmt)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            }
            out += [
                "%s.%s(%s)" % (path.stem, name, p)
                for p in params
                if p not in read and p not in ("self", "cls")
            ]
    return out


def test_every_parameter_is_read():
    unread = _unread_parameters()
    assert not unread, "parameters never read: %s" % ", ".join(unread)


def test_a_planted_unread_method_parameter_is_flagged(tmp_path):
    """A method's unread parameter is flagged, its self is not."""
    copy = tmp_path / "plocal"
    shutil.copytree(PACKAGE, copy, ignore=shutil.ignore_patterns("__pycache__"))
    cli = copy / "cli.py"
    text = cli.read_text()
    anchor = "    def K_descriptors(self)"
    assert text.count(anchor) == 1
    cli.write_text(text.replace(anchor, "    def K_descriptors(self, never_read)"))
    assert _unread_parameters(copy) == ["cli.CorpusEntry.K_descriptors(never_read)"]


def _unused_imports():
    """``module: name`` for each imported name the module never reads."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = [
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        ]
        read = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        out += ["%s: %s" % (path.stem, name) for name in imported if name not in read]
    return out


def test_every_import_is_read():
    unused = _unused_imports()
    assert not unused, "imported but never read: %s" % ", ".join(unused)


# the package's plain record classes; each must be seen with its fields
RECORDS = {
    "groups.Subgroup",
    "groups.AutGroup",
    "report.VerificationReport",
    "verify.TheoremRecord",
    "verify.PreparedEntry",
    "cli.CorpusEntry",
    "cli.RunConfig",
}


def _init_fields(init):
    """The attributes an ``__init__`` or ``__new__`` sets: ``self.name =
    ...``, also as part of a tuple target, and ``object.__setattr__(obj,
    "name", ...)`` for any obj."""
    out = []
    for node in ast.walk(init):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            if isinstance(node.value, ast.Name) and node.value.id == "self":
                out.append(node.attr)
        elif isinstance(node, ast.Call) and ast.unparse(node.func) == "object.__setattr__":
            if len(node.args) > 1 and isinstance(node.args[1], ast.Constant):
                out.append(node.args[1].value)
    return out


def _fields(package):
    """``(module.Class, field)`` for each attribute that a class's
    ``__init__`` or ``__new__`` sets, over every class in the package."""
    out = []
    for path in sorted(package.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(cls, ast.ClassDef):
                continue
            for fn in cls.body:
                if isinstance(fn, ast.FunctionDef) and fn.name in ("__init__", "__new__"):
                    out += [("%s.%s" % (path.stem, cls.name), name) for name in _init_fields(fn)]
    return out


def _unread_fields(package):
    """``module.Class.field`` for each field never read as an attribute in
    the package or the tests."""
    read = set()
    for path in sorted(package.glob("*.py")) + sorted((ROOT / "tests").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return ["%s.%s" % f for f in _fields(package) if f[1] not in read]


def test_every_record_field_is_read():
    seen = {cls for cls, _ in _fields(PACKAGE)}
    assert RECORDS <= seen, "records with no field found: %s" % ", ".join(sorted(RECORDS - seen))
    unread = _unread_fields(PACKAGE)
    assert not unread, "record fields never read: %s" % ", ".join(unread)


def test_a_planted_unread_field_is_flagged(tmp_path):
    copy = tmp_path / "plocal"
    shutil.copytree(PACKAGE, copy, ignore=shutil.ignore_patterns("__pycache__"))
    report = copy / "report.py"
    text = report.read_text()
    anchor = "        self.statement, self.instance, self.outcome = statement, instance, outcome\n"
    assert anchor in text
    planted = anchor + "        self.never_read_field = outcome\n"
    planted += '        object.__setattr__(self, "never_read_either", outcome)\n'
    report.write_text(text.replace(anchor, planted))
    groups = copy / "groups.py"
    text = groups.read_text()
    anchor = '            object.__setattr__(out, "maps", maps)\n'
    assert text.count(anchor) == 1
    planted = anchor + '            object.__setattr__(out, "never_read_in_new", maps)\n'
    groups.write_text(text.replace(anchor, planted))
    assert _unread_fields(copy) == [
        "groups.AutGroup.never_read_in_new",
        "report.VerificationReport.never_read_field",
        "report.VerificationReport.never_read_either",
    ]
