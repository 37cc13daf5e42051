"""No module of the package keeps state.

A module-level dict, set or list is shared by every caller in the process
and grows for its life. The package has none: a subgroup lattice is kept
by the fusion system or locality that owns it, and element tables and
normalizers by the group they belong to, each under an explicit key. Any
module-level container assignment is refused, so a cache cannot slip in
unnoticed.
"""

import ast
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "plocal"
KNOWN_CACHES = set()
CONTAINER_CALLS = {"dict", "set", "list", "defaultdict", "OrderedDict", "Counter", "deque"}


def _is_container(node):
    if isinstance(node, (ast.Dict, ast.Set, ast.List, ast.DictComp, ast.SetComp, ast.ListComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        return name in CONTAINER_CALLS
    return False


def _module_level(body):
    """Statements run at import: the module body and the blocks of its
    top-level if/try/with statements, but not function or class bodies."""
    for stmt in body:
        yield stmt
        if isinstance(stmt, (ast.If, ast.With, ast.Try)):
            for block in ("body", "orelse", "finalbody"):
                yield from _module_level(getattr(stmt, block, []))
            for handler in getattr(stmt, "handlers", []):
                yield from _module_level(handler.body)


def _module_containers(package):
    """``module.name`` for each module-level name bound to a container."""
    out = set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for stmt in _module_level(tree.body):
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign):
                targets, value = [stmt.target], stmt.value
            else:
                continue
            if value is None or not _is_container(value):
                continue
            for target in targets:
                for node in ast.walk(target):
                    if isinstance(node, ast.Name):
                        out.add("%s.%s" % (path.stem, node.id))
    return out


def _unknown(found):
    return sorted(name for name in found if name.split(".", 1)[1] not in KNOWN_CACHES)


def test_only_the_known_caches_are_module_state():
    unknown = _unknown(_module_containers(PACKAGE))
    assert not unknown, "module-level containers: %s" % ", ".join(unknown)


def test_a_planted_cache_is_flagged(tmp_path):
    copy = tmp_path / "plocal"
    shutil.copytree(PACKAGE, copy, ignore=shutil.ignore_patterns("__pycache__"))
    fusion = copy / "fusion.py"
    fusion.write_text(fusion.read_text() + "\n_X_CACHE = {}\n")
    assert _unknown(_module_containers(copy)) == ["fusion._X_CACHE"]
