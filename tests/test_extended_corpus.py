"""The extended corpus, and which subgroup lattices a run builds.

The extended corpus holds PSL(2,7) at p = 2 (``l27``), the first entry
whose locality is a genuine partial group: the trivial subgroup is not an
object. Its canonical report is pinned by sha256. The run takes seconds,
so it is marked ``slow``; the default pytest run still includes it.

A run builds the subgroup lattice of a p-group or of the permutation image
of an automorphism group (``groups._sub_autgroups``), never of an ambient
group: the p-subgroups of G are the G-conjugates of the subgroups of S, the
groups between C_G(X) and N_G(X) are K-normalizers, and maximality grows a
p-subgroup inside its normalizer. Every lattice is read through
``groups.lattice``, which keeps it on the home per base, so a run builds
each once however many systems, localities and automorphism groups live
over that base. A spy on ``groups.all_subgroups`` in every module that
binds it holds the runs to that; an image is told by its home, recorded by
a spy on ``AutGroup.image``.
"""

import hashlib
import json
import sys
from contextlib import contextmanager
from functools import cached_property
from importlib.resources import files

import pytest

from plocal import cli
from plocal import groups as gp
from plocal import verify as vf
from plocal.perm import Perm
from . import oracles
from .conftest import one_cpu

L27_SHA256 = "d8c7946c67aeb2d1884b519abe05008206d233053cb93be3a6396f35ced67a42"


def _spy_cached(mp, cls, name, record):
    """Record each value on which the cached property cls.name is computed."""
    real = cls.__dict__[name].func

    def spy(self):
        record.append(self)
        return real(self)

    prop = cached_property(spy)
    prop.__set_name__(cls, name)
    mp.setattr(cls, name, prop)


@contextmanager
def _lattice_spy():
    """Record (calling function, group) for each all_subgroups call, and
    the homes of the permutation images of automorphism groups, by id, in
    a run that sees one usable CPU."""
    calls, autgroups, homes = [], [], set()
    real = gp.all_subgroups

    def spy(G, *args, **kwargs):
        calls.append((sys._getframe(1).f_code.co_name, G))
        return real(G, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        for name, mod in list(sys.modules.items()):
            if name.split(".")[0] == "plocal" and getattr(mod, "all_subgroups", None) is real:
                mp.setattr(mod, "all_subgroups", spy)
        _spy_cached(mp, gp.AutGroup, "image", autgroups)
        one_cpu(mp)
        yield calls, homes
    # each image, cached on its AutGroup, is read once the spy is gone
    homes.update(id(A.image) for A in autgroups)


def _prime_power(n):
    return n == 1 or oracles.is_p_power(n, min(d for d in range(2, n + 1) if n % d == 0))


def _on_images(calls, homes):
    """The calls made on the permutation image of an automorphism group."""
    return [(caller, G) for caller, G in calls if id(G.home) in homes]


def _ambient_lattices(calls, homes):
    """The calls made on a group that is not a p-group, other than those
    on the image of an automorphism group."""
    return [(caller, G.order) for caller, G in calls if id(G.home) not in homes and not _prime_power(G.order)]


def test_default_corpus_builds_no_ambient_lattice():
    with _lattice_spy() as (calls, homes):
        reports, _ = vf.run_suite(cli.parse_corpus(cli.default_corpus_text()))
    assert len(reports) == 742
    assert 0 < len(_on_images(calls, homes)) < len(calls)
    assert _ambient_lattices(calls, homes) == []


def test_default_corpus_builds_each_lattice_once():
    """Over a default run, every lattice is built by groups.lattice, and
    all_subgroups runs once per distinct (home, base): F, its locality, E,
    the restrictions and the product systems of an entry, and the
    K-normalizer subsystems over one base, all read one lattice, and so do
    all automorphism groups with one image home. The default corpus has 16
    bases that are no image, S and T among them, and 26 image homes."""
    entries = cli.parse_corpus(cli.default_corpus_text())
    with _lattice_spy() as (calls, homes):
        reports, _ = vf.run_suite(entries)
    assert len(reports) == 742
    bases = [(caller, id(G.home), G.home_mask) for caller, G in calls]
    assert {caller for caller, _, _ in bases} == {"_subgroups_by_mask"}
    assert len(bases) == len(set(bases)) == 42
    assert len(_on_images(calls, homes)) == len({id(G.home) for _, G in _on_images(calls, homes)}) == 26
    s4_a4 = next(e for e in entries if e.name == "s4_a4")
    S = gp.sylow_subgroup(s4_a4.G, 2)
    T = S.home_mask & s4_a4.H.home_mask
    assert {S.home_mask, T} <= {mask for _, home, mask in bases if home == id(S.home)}


def test_default_corpus_tables_and_perm_arithmetic():
    """Parsing and checking the default corpus builds product and
    conjugation tables only on a corpus group or on the permutation image of
    an automorphism group, each a home of its own. Checking the parsed
    corpus multiplies and conjugates no Perms."""
    built, images, conjugated = [], [], []

    def conj(self, g):
        conjugated.append((self, g))

    def mul(self, other):
        raise AssertionError("Perm product")

    with pytest.MonkeyPatch.context() as mp:
        for name in ("mul_table", "conj_table"):
            _spy_cached(mp, gp.Subgroup, name, built)
        _spy_cached(mp, gp.AutGroup, "image", images)
        entries = cli.parse_corpus(cli.default_corpus_text())
        mp.setattr(Perm, "conj", conj)
        mp.setattr(Perm, "__mul__", mul)
        one_cpu(mp)
        reports, _ = vf.run_suite(entries)
    assert len(reports) == 742
    corpus = {e.G.elems for e in entries}
    image_sets = [A.image for A in images]
    assert any(B.elems in corpus for B in built)
    assert all(B.ambient is None for B in built)
    assert all(B.elems in corpus or any(B is I for I in image_sets) for B in built)
    assert conjugated == []


@pytest.fixture(scope="module")
def l27_run(tmp_path_factory):
    """The extended corpus through cli.run, under the lattice spy: the exit
    status, the report bytes and the spy's record."""
    text = files("plocal").joinpath("data/extended_corpus.txt").read_text()
    report = tmp_path_factory.mktemp("extended") / "report.json"
    with _lattice_spy() as (calls, homes):
        status = cli.run(cli.RunConfig(report_path=report), corpus_text=text)
    return status, report.read_bytes(), calls, homes


@pytest.mark.slow
def test_l27_report_is_pinned(l27_run):
    status, body, _, _ = l27_run
    assert status == 0
    outcomes = [r["outcome"] for r in json.loads(body)]
    assert len(outcomes) == 772
    assert [outcomes.count(o) for o in ("pass", "skipped", "fail")] == [113, 659, 0]
    assert hashlib.sha256(body).hexdigest() == L27_SHA256


@pytest.mark.slow
def test_l27_builds_no_ambient_lattice(l27_run):
    _, _, calls, homes = l27_run
    assert any(G.order > 1 for _, G in _on_images(calls, homes))
    assert _ambient_lattices(calls, homes) == []
