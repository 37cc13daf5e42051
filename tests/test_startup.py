"""Importing the package loads only what a run uses.

Every run of ``plocal`` is a fresh interpreter, so what ``import plocal``
loads is paid on every run. The package's records are plain classes and
the default corpus is read as a file beside ``cli.py``, so importing
``plocal.cli`` and reading the default corpus load neither ``dataclasses``
(which brings ``inspect``, ``dis``, ``ast`` and ``tokenize``) nor
``importlib.resources`` (which brings ``zipfile``, ``tempfile`` and
``shutil``). A run's workers send their reports back through
``marshal``, which every interpreter has loaded, so ``pickle`` is
imported only for a worker's share that holds a raised exception: a run
on two CPUs in which no entry raises, forked worker included, loads no
``pickle``. No run uses ``multiprocessing`` or ``concurrent.futures``,
whose import and pool start-up would cost more than the workers save.
The child runs under ``python -S``: a ``.pth`` file in site-packages may
import modules at start-up, which would hide a module the package loads
itself.
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


# a run of two entries on two usable CPUs, the second in a forked worker;
# with a planted name, that entry raises. Prints the exit status, the
# number of forks and whether pickle was loaded; the worker writes to
# stderr, as it ends, whether it loaded pickle
RUN_CHILD = """
import os, sys
sys.path.insert(0, sys.argv[1])
os.sched_getaffinity = lambda pid: {0, 1}
forks, real_fork, real_exit = [], os.fork, os._exit
def fork():
    forks.append(1)
    return real_fork()
def exit_(status):
    os.write(2, b"worker %s\\n" % str("pickle" in sys.modules).encode())
    real_exit(status)
os.fork, os._exit = fork, exit_
import plocal.cli, plocal.verify
prepare = plocal.verify.prepare_entry
def planted(entry):
    if entry.name == sys.argv[2]:
        raise plocal.errors.PLocalError("planted")
    return prepare(entry)
plocal.verify.prepare_entry = planted
status = plocal.cli.run(plocal.cli.RunConfig(), corpus_text=sys.argv[3])
print(status, len(forks), "pickle" in sys.modules)
"""

TWO_ENTRIES = """
group s3_a3 p=3 gens=(0 1 2);(0 1)
normal gens=(0 1 2)
group c2xc2 p=2 gens=(0 1);(2 3)
"""


@pytest.mark.parametrize("raising, loaded", [("none", False), ("c2xc2", True)])
def test_a_run_on_two_cpus_loads_pickle_only_for_a_raise(raising, loaded):
    """A two-CPU run (affinity set in the child) forks one worker for its
    second entry. When no entry raises, neither process loads pickle: the
    worker's answer is marshalled. When the worker's entry raises, both
    load it, for the exception comes back pickled, and the run exits 2."""
    out = subprocess.run(
        [sys.executable, "-S", "-c", RUN_CHILD, str(ROOT / "src"), raising, TWO_ENTRIES],
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert out.stdout.splitlines()[-1] == "%d 1 %s" % (2 if loaded else 0, loaded)
    assert out.stderr.splitlines() == ["worker %s" % loaded] + ["suite error: planted"] * loaded
