import pytest

from plocal import fusion as fu
from plocal import groups as gp
from plocal import locality as lo
from plocal.perm import perm_from_cycles


def perms(degree, *specs):
    return [perm_from_cycles(s, degree) for s in specs]


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
    Delta = frozenset(P.elems for P in fu.subcentric_set(F_s4))
    return lo.build_group_locality(s4, gp.sylow_subgroup(s4, 2), Delta, 2)


@pytest.fixture(scope="session")
def E_s4(s4, a4):
    S = gp.sylow_subgroup(s4, 2)
    T = gp.Subgroup(S.elems & a4.elements)
    return fu.fusion_of_group(a4, T, 2)


@pytest.fixture(scope="session")
def N_s4(L_s4, E_s4):
    return lo.find_normal_for(L_s4, E_s4)


@pytest.fixture(scope="session")
def s3xs3():
    return gp.generate_group(perms(6, "(0 1 2)", "(0 1)", "(3 4 5)", "(3 4)"))


@pytest.fixture(scope="session")
def L_s3xs3(s3xs3):
    """A locality with a genuinely partial product: Delta is the set of
    nontrivial subgroups of the Sylow 2-subgroup of S3 x S3."""
    S = gp.sylow_subgroup(s3xs3, 2)
    nt = frozenset(H.elems for H in gp.all_subgroups(S.group()) if H.order > 1)
    return lo.build_group_locality(s3xs3, S, nt, 2)
