"""Only the memo helper reads or writes a place where results are kept.

A result is kept in one of three places: a fusion system's ``_cache``, a
locality's ``_memo`` and a home's ``_kept``, which holds the lattices and
the table of systems too. ``groups.memo`` decides a result on a miss and
keeps it. Outside that function no module of the package subscripts a
place, calls a method on it, tests membership in it or binds it to a
local name; it may only hand a place to the helper or create it empty. So
a second memo idiom cannot slip in unnoticed, and counting what the places
keep needs one wrapper around the helper.

The helper keeps a result of None or False, so a kept "saturated" or "not
subnormal" is decided once, and keeps no raise (the ``bN_K`` test of
``test_verify`` holds that a failed hypothesis raises on every call).
"""

import ast
import shutil
from pathlib import Path

import pytest

from plocal import fusion as fu
from plocal import groups as gp

from .conftest import perms

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "plocal"
PLACES = {"_cache", "_memo", "_kept"}
HELPERS = {"memo"}


def _is_place(node):
    """A place named as an attribute, or as the string of a getattr."""
    if isinstance(node, ast.Attribute):
        return node.attr in PLACES
    if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "getattr":
        return any(isinstance(a, ast.Constant) and a.value in PLACES for a in node.args[1:2])
    return False


def _is_reader(node):
    if isinstance(node, ast.Subscript):
        return _is_place(node.value)
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        return _is_place(node.func.value)
    if isinstance(node, ast.Compare):
        tested = [node.left] + node.comparators
        return any(isinstance(op, (ast.In, ast.NotIn)) for op in node.ops) and any(map(_is_place, tested))
    if isinstance(node, (ast.Assign, ast.AnnAssign, ast.NamedExpr)) and node.value is not None:
        # a local name bound to a place, also by unpacking a tuple
        names = list(getattr(node, "targets", [getattr(node, "target", None)]))
        names += [e for t in names if isinstance(t, ast.Tuple) for e in t.elts]
        values = node.value.elts if isinstance(node.value, ast.Tuple) else [node.value]
        return any(isinstance(t, ast.Name) for t in names) and any(map(_is_place, values))
    return False


def _readers(package):
    """(module, line) of each reader outside the helper of ``groups``."""
    out = set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        skip = set()
        if path.stem == "groups":
            for stmt in tree.body:
                if isinstance(stmt, ast.FunctionDef) and stmt.name in HELPERS:
                    skip.update(map(id, ast.walk(stmt)))
        for node in ast.walk(tree):
            if id(node) not in skip and _is_reader(node):
                out.add((path.stem, node.lineno))
    return out


def test_only_the_helpers_read_the_places():
    assert _readers(PACKAGE) == set()


def _planted(tmp_path, module, reader):
    """A copy of the package with the reader appended to the module."""
    copy = tmp_path / "plocal"
    shutil.copytree(PACKAGE, copy, ignore=shutil.ignore_patterns("__pycache__"))
    path = copy / (module + ".py")
    path.write_text(path.read_text() + "\n\ndef _peek(X):\n" + reader)
    return copy


@pytest.mark.parametrize(
    "module, reader",
    [
        ("fusion", '    return X._cache.get("sat")\n'),
        ("verify", '    return getattr(X, "_memo")["lattice"]\n'),
        ("locality", '    return ("S_f",) in X._memo\n'),
        ("groups", "    kept = X.home._kept\n    return kept\n"),
        ("groups", '    kept, key = X.home._kept, "aut"\n    return kept\n'),
        ("fusion", "    def memo(X):\n        return X._kept.setdefault(X, X)\n"),
    ],
    ids=["attribute", "string", "in-test", "alias", "unpacked-alias", "helper-named-elsewhere"],
)
def test_a_planted_reader_is_flagged(tmp_path, module, reader):
    copy = _planted(tmp_path, module, reader)
    assert {name for name, _ in _readers(copy)} == {module}


# -- what the helper keeps ----------------------------------------------------


def test_memo_keeps_none_and_false_but_no_raise():
    place, calls = {}, []

    def decide(value):
        calls.append(value)
        if isinstance(value, Exception):
            raise value
        return value

    for value in (None, False):
        assert gp.memo(place, value, decide, value) is value
        assert gp.memo(place, value, decide, value) is value
    for _ in range(2):
        with pytest.raises(ValueError):
            gp.memo(place, "raise", decide, ValueError("kept?"))
    assert calls[:2] == [None, False] and len(calls) == 4 and "raise" not in place


def test_a_kept_saturated_verdict_is_decided_once(monkeypatch):
    """saturation_failure keeps None for a saturated system: a second call
    decides nothing."""
    G = gp.generate_group(perms(4, "(0 1 2 3)", "(0 1)"))
    F = fu.fusion_of_group(G, gp.sylow_subgroup(G, 2), 2)
    runs = []
    real = fu._saturation_witness
    monkeypatch.setattr(fu, "_saturation_witness", lambda F: runs.append(F) or real(F))
    assert fu.saturation_failure(F) is None and fu.saturation_failure(F) is None
    assert runs == [F]


def test_a_kept_false_subnormal_verdict_is_decided_once(monkeypatch):
    """<(0 1)> is not subnormal in S4, whose normal closure of it is S4:
    the verdict False is kept on the home, so the chain is sought once."""
    G = gp.generate_group(perms(4, "(0 1 2 3)", "(0 1)"))
    H = G.generated_subgroup(perms(4, "(0 1)"))
    runs = []
    real = gp.subnormal_chain
    monkeypatch.setattr(gp, "subnormal_chain", lambda H, G: runs.append(H) or real(H, G))
    assert gp.is_subnormal(H, G) is False and gp.is_subnormal(H, G) is False
    assert runs == [H]


def test_realized_part_is_kept_per_maps(monkeypatch):
    """K, a group with the maps of Aut(X) for X = <(0 1), (2 3)> in S4 at
    p = 2, made as maps, is not inside Aut_F(X), of order 2: the
    intersection is kept per K, the one AutGroup of X's mask and K's maps,
    so K made again on an equal base is K and gets the kept intersection,
    built once. That intersection has Aut_F(X)'s maps, so it is Aut_F(X)
    itself, and no map is checked again. Aut(X) itself, from aut_group,
    gets Aut_F(X) with no map of it listed."""
    G = gp.generate_group(perms(4, "(0 1 2 3)", "(0 1)"))
    F = fu.fusion_of_group(G, gp.sylow_subgroup(G, 2), 2)
    X = G.generated_subgroup(perms(4, "(0 1)", "(2 3)"))
    Y = G.from_home_mask(X.home_mask)
    K = gp.AutGroup(X, gp.aut_group(gp.Subgroup(X.elems)).maps)
    assert gp.AutGroup(Y, K.maps) is K and not K.full and F.aut(X).order == 2
    built, checked = [], []
    real_check = gp.are_automorphisms
    monkeypatch.setattr(fu, "AutGroup", lambda base, maps: built.append(base) or gp.AutGroup(base, maps))
    monkeypatch.setattr(gp, "are_automorphisms", lambda X, maps: checked.append(maps) or real_check(X, maps))
    first = fu.realized_part(F, X, K)
    assert fu.realized_part(F, Y, gp.AutGroup(Y, K.maps)) is first is F.aut(X)
    assert len(built) == 1 and checked == []
    assert fu.realized_part(F, X, gp.aut_group(X)) is first and "maps" not in vars(gp.aut_group(X))