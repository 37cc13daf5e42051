"""Only the group layer reads a group's conjugation table and its element
index, and only it builds a group from Perms.

Where conjugation by g sends the elements of X is one fact, and
``groups.conj_positions`` owns it: N_G(X) and its action, the word rule of
a locality, and the germs of F_S(G) and of F_R(N) all read it there. Where
an element sits among a group's sorted elements is another, and
``Subgroup.element_index`` holds it: the other layers cross between
elements and positions through the group layer's masks (``mask``,
``home_mask``, ``home_mask_of``, ``from_home_mask``, ``elements``,
``positions``), so their own sets stay masks. A module other than
``groups`` that names either table is refused, so a second copy of that
expression cannot slip in unnoticed. A subgroup is its home and a mask
over it, so the other layers get their groups from the group layer's
constructions and ``from_home_mask``; a module other than ``groups`` that
calls ``Subgroup(...)``, which builds from a Perm set, is refused too.
"""

import ast
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "plocal"


def _names(node, table):
    if isinstance(node, ast.Attribute):
        return node.attr == table
    return isinstance(node, ast.Constant) and node.value == table


def _readers(package, table):
    """The modules that name the table, as an attribute or a string."""
    out = set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        if any(_names(node, table) for node in ast.walk(tree)):
            out.add(path.stem)
    return out


def test_only_the_group_layer_reads_the_conjugation_table():
    assert _readers(PACKAGE, "conj_table") == {"groups"}


def test_only_the_group_layer_reads_the_element_index():
    assert _readers(PACKAGE, "element_index") == {"groups"}


def _planted(tmp_path, module, reader):
    """A copy of the package with the reader appended to the module."""
    copy = tmp_path / "plocal"
    shutil.copytree(PACKAGE, copy, ignore=shutil.ignore_patterns("__pycache__"))
    path = copy / (module + ".py")
    path.write_text(path.read_text() + "\n\n" + reader)
    return copy


def test_a_planted_reader_is_flagged(tmp_path):
    copy = _planted(tmp_path, "locality", "def _rows(G):\n    return G.home.conj_table\n")
    assert _readers(copy, "conj_table") == {"groups", "locality"}


@pytest.mark.parametrize(
    "module, reader",
    [
        ("fusion", "def _at(S, x):\n    return S.element_index[x]\n"),
        ("verify", 'def _at(S, x):\n    return getattr(S, "element_index")[x]\n'),
    ],
    ids=["attribute", "string"],
)
def test_a_planted_element_index_reader_is_flagged(tmp_path, module, reader):
    copy = _planted(tmp_path, module, reader)
    assert _readers(copy, "element_index") == {"groups", module}


def _builders(package):
    """The modules that call ``Subgroup(...)``, by name or as an attribute."""
    out = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name == "Subgroup":
                    out.add(path.stem)
    return out


def test_only_the_group_layer_builds_a_subgroup_from_perms():
    assert _builders(PACKAGE) == {"groups"}


@pytest.mark.parametrize(
    "module, builder",
    [
        ("verify", "def _T(S, H, G):\n    return Subgroup(S.elems & H.elems)\n"),
        ("locality", "def _T(S, H, G):\n    return gp.Subgroup(S.elems & H.elems)\n"),
    ],
    ids=["name", "attribute"],
)
def test_a_planted_builder_is_flagged(tmp_path, module, builder):
    copy = _planted(tmp_path, module, builder)
    assert _builders(copy) == {"groups", module}
