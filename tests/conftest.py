import json
import os
from pathlib import Path

import pytest

from plocal import cli
from plocal import fusion as fu
from plocal import groups as gp
from plocal import locality as lo
from plocal.perm import perm_from_cycles


def perms(degree, *specs):
    return [perm_from_cycles(s, degree) for s in specs]


def default_and_a4xc2_entries():
    """The default corpus's entries and a4xc2_v4 of the benchmark corpora."""
    corpora = Path(__file__).resolve().parents[1] / "perfbench" / "corpora"
    text = (corpora / "a4xc2_theorem.txt").read_text()
    return cli.parse_corpus(cli.default_corpus_text()) + cli.parse_corpus(text)


def extended_corpus_text():
    """The extended corpus shipped beside the default one: PSL(2,7) at
    p = 2 (``l27``)."""
    return (Path(cli.__file__).parent / "data" / "extended_corpus.txt").read_text()


def one_cpu(mp):
    """Let a run see one usable CPU, so that run_suite checks every entry
    in this process: a spy records only the calls of its own process."""
    mp.setattr(os, "sched_getaffinity", lambda pid: {0})


def json_oracle(reports):
    """The canonical report document as json.dumps writes it: the report
    writer's oracle."""
    return json.dumps([r.to_json_obj() for r in reports], sort_keys=True, indent=2) + "\n"


def oracle_checked_writer(mp):
    """Let cli.run's report writer assert, on each document it writes,
    that its text is json_oracle's."""
    real = cli.render_report_doc

    def checked(reports):
        body = real(reports)
        assert body == json_oracle(reports)
        return body

    mp.setattr(cli, "render_report_doc", checked)


def germ(base, pairs):
    """The germ over base with these (element, image) pairs: the tuple of
    the positions of the images in base's sorted elements, -1 elsewhere."""
    position = {x: i for i, x in enumerate(base)}
    out = [-1] * base.order
    for x, y in pairs:
        out[position[x]] = position[y]
    return tuple(out)


@pytest.fixture(scope="session")
def s4():
    return gp.generate_group(perms(4, "(0 1 2 3)", "(0 1)"))


@pytest.fixture(scope="session")
def a4():
    return gp.generate_group(perms(4, "(0 1 2)", "(0 1)(2 3)"))


@pytest.fixture(scope="session")
def d8():
    return gp.generate_group(perms(4, "(0 1 2 3)", "(0 2)"))


@pytest.fixture(scope="session")
def s3():
    return gp.generate_group(perms(3, "(0 1 2)", "(0 1)"))


@pytest.fixture(scope="session")
def sl23():
    return gp.generate_group(perms(8, "(2 3 4)(5 7 6)", "(0 2 1 5)(3 4 7 6)"))


@pytest.fixture(scope="session")
def klein(s4):
    return gp.core_Op(s4, 2)


@pytest.fixture(scope="session")
def F_s4(s4):
    return fu.fusion_of_group(s4, gp.sylow_subgroup(s4, 2), 2)


@pytest.fixture(scope="session")
def F_s3(s3):
    return fu.fusion_of_group(s3, gp.sylow_subgroup(s3, 3), 3)


@pytest.fixture(scope="session")
def F_sl23(sl23):
    return fu.fusion_of_group(sl23, gp.sylow_subgroup(sl23, 2), 2)


@pytest.fixture(scope="session")
def L_s4(s4, F_s4):
    Delta = frozenset(F_s4.S.mask(P.elems) for P in fu.subcentric_set(F_s4))
    return lo.build_group_locality(s4, F_s4.S, Delta, 2)


@pytest.fixture(scope="session")
def E_s4(F_s4, a4):
    """F_T(A4) over T = S cap A4, in the frame of F_s4's S."""
    return fu.fusion_of_group(a4, F_s4.S, 2)


@pytest.fixture(scope="session")
def N_s4(L_s4, a4):
    return L_s4.ambient.mask(a4.elems) & L_s4.elems


@pytest.fixture(scope="session")
def s3xs3():
    return gp.generate_group(perms(6, "(0 1 2)", "(0 1)", "(3 4 5)", "(3 4)"))


@pytest.fixture(scope="session")
def L_s3xs3(s3xs3):
    """A locality with a genuinely partial product: Delta is the set of
    nontrivial subgroups of the Sylow 2-subgroup of S3 x S3."""
    S = gp.sylow_subgroup(s3xs3, 2)
    nt = frozenset(S.mask(H.elems) for H in gp.all_subgroups(S) if H.order > 1)
    return lo.build_group_locality(s3xs3, S, nt, 2)
