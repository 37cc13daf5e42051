"""Only the group layer reads a group's conjugation table.

Where conjugation by g sends the elements of X is one fact, and
``groups.conj_positions`` owns it: N_G(X) and its action, the word rule of
a locality, and the germs of F_S(G) and of F_R(N) all read it there. A
module other than ``groups`` that reads ``conj_table`` is refused, so a
second copy of that expression cannot slip in unnoticed.
"""

import ast
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "plocal"


def _reads_conj_table(node):
    if isinstance(node, ast.Attribute):
        return node.attr == "conj_table"
    return isinstance(node, ast.Constant) and node.value == "conj_table"


def _readers(package):
    """The modules that name ``conj_table``, as an attribute or a string."""
    out = set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        if any(map(_reads_conj_table, ast.walk(tree))):
            out.add(path.stem)
    return out


def test_only_the_group_layer_reads_the_conjugation_table():
    assert _readers(PACKAGE) == {"groups"}


def test_a_planted_reader_is_flagged(tmp_path):
    copy = tmp_path / "plocal"
    shutil.copytree(PACKAGE, copy, ignore=shutil.ignore_patterns("__pycache__"))
    locality = copy / "locality.py"
    locality.write_text(locality.read_text() + "\n\ndef _rows(G):\n    return G.home.conj_table\n")
    assert _readers(copy) == {"groups", "locality"}
