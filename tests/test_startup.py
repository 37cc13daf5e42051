"""Importing the package loads only what a run uses.

Every run of ``plocal`` is a fresh interpreter, so what ``import plocal``
loads is paid on every run. The package's records are plain classes and
the default corpus is read as a file beside ``cli.py``, so importing
``plocal.cli`` and reading the default corpus load neither ``dataclasses``
(which brings ``inspect``, ``dis``, ``ast`` and ``tokenize``) nor
``importlib.resources`` (which brings ``zipfile``, ``tempfile`` and
``shutil``). ``pickle`` is imported only by a run that forks workers
(``verify.run_suite``), after parsing, and no run uses
``multiprocessing`` or ``concurrent.futures``, whose import and pool
start-up would cost more than the workers save. The child runs under
``python -S``: a ``.pth`` file in site-packages may import modules at
start-up, which would hide a module the package loads itself.
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "plocal"
UNWANTED = {"dataclasses", "inspect", "importlib.resources", "pickle", "multiprocessing", "concurrent.futures"}

# prints where plocal.cli came from, then each module the import and the
# corpus read loaded
CHILD = """
import sys
before = set(sys.modules)
sys.path.insert(0, sys.argv[1])
import plocal.cli
plocal.cli.default_corpus_text()
print(plocal.cli.__file__)
print("\\n".join(sorted(set(sys.modules) - before)))
"""


def _loaded(src):
    """The modules a fresh ``python -S`` loads to import plocal.cli from
    src and read the default corpus."""
    out = subprocess.run(
        [sys.executable, "-S", "-c", CHILD, str(src)],
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    ).stdout.splitlines()
    assert Path(out[0]).resolve() == (src / "plocal" / "cli.py").resolve()
    return set(out[1:])


def test_import_loads_neither_dataclasses_nor_resources():
    loaded = _loaded(ROOT / "src")
    assert {"plocal.cli", "plocal.groups", "plocal.verify"} <= loaded
    assert not loaded & UNWANTED, "loaded at start-up: %s" % sorted(loaded & UNWANTED)


@pytest.mark.parametrize(
    "module, line, unwanted",
    [
        ("groups", "import dataclasses", "dataclasses"),
        ("report", "import inspect", "inspect"),
        ("cli", "from importlib.resources import files", "importlib.resources"),
        ("verify", "import pickle", "pickle"),
    ],
    ids=["dataclasses", "inspect", "resources", "pickle"],
)
def test_a_planted_import_is_flagged(tmp_path, module, line, unwanted):
    copy = tmp_path / "plocal"
    shutil.copytree(PACKAGE, copy, ignore=shutil.ignore_patterns("__pycache__"))
    path = copy / (module + ".py")
    path.write_text(path.read_text() + "\n" + line + "\n")
    assert unwanted in _loaded(tmp_path)
