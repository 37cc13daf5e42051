"""Group engine tests: frozen known values, oracle cross-checks, and
closure properties on random generator sets."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plocal import groups as gp
from plocal.errors import CapExceeded, DegreeMismatch
from plocal.perm import Perm, identity, perm_from_cycles

from .conftest import perms
from . import oracles


# -- generate_group ---------------------------------------------------------


def test_generate_group_orders():
    assert gp.generate_group(perms(2, "(0 1)")).order == 2
    assert gp.generate_group(perms(4, "(0 1 2 3)", "(0 2)")).order == 8
    assert gp.generate_group(perms(3, "(0 1 2)", "(0 1)")).order == 6


def test_generate_group_cap_and_mismatch():
    with pytest.raises(CapExceeded):
        gp.generate_group(perms(8, "(0 1 2 3 4 5 6 7)", "(0 1)"), cap=100)
    with pytest.raises(DegreeMismatch):
        gp.generate_group([perm_from_cycles("(0 1)", 2), perm_from_cycles("(0 1)", 3)])


@settings(max_examples=40, deadline=None)
@given(st.lists(st.permutations(range(4)), min_size=1, max_size=2))
def test_generated_group_is_closed(images):
    G = gp.generate_group([Perm(tuple(im)) for im in images])
    els = G.elements
    assert G.identity in els
    assert all(a * b in els for a in els for b in els)
    assert all(a.inv() in els for a in els)


# -- subgroup lattice -------------------------------------------------------


def test_all_subgroups_trivial():
    G = gp.generate_group([identity(1)])
    assert len(gp.all_subgroups(G)) == 1


def test_all_subgroups_counts(d8):
    assert len(gp.all_subgroups(d8)) == 10
    v4 = gp.generate_group(perms(4, "(0 1)(2 3)", "(0 2)(1 3)"))
    assert len(gp.all_subgroups(v4)) == 5


def test_all_subgroups_vs_powerset_oracle(d8):
    mine = {H.elems for H in gp.all_subgroups(d8)}
    assert mine == oracles.powerset_subgroups(d8)
    v4 = gp.generate_group(perms(4, "(0 1)(2 3)", "(0 2)(1 3)"))
    assert {H.elems for H in gp.all_subgroups(v4)} == oracles.powerset_subgroups(v4)


def test_all_subgroups_cap(s4):
    with pytest.raises(CapExceeded):
        gp.all_subgroups(gp.FiniteGroup(s4.elements), cap=10)


# -- Sylow / O_p / characteristic p ----------------------------------------


def test_sylow_examples(s4, s3):
    assert gp.sylow_subgroup(s4, 2).order == 8
    assert gp.sylow_subgroup(s3, 3).order == 3
    c2 = gp.generate_group(perms(2, "(0 1)"))
    assert gp.sylow_subgroup(c2, 3).order == 1


def test_core_examples(s4, s3, d8):
    assert gp.core_Op(d8, 2).elems == d8.elements
    v4 = gp.core_Op(s4, 2)
    assert v4.order == 4
    assert all(x.order() in (1, 2) for x in v4)
    assert v4.is_normal_in(s4.full_subgroup())
    assert gp.core_Op(s3, 2).order == 1


def test_characteristic_p(s4, s3):
    triv = gp.generate_group([identity(1)])
    assert gp.is_characteristic_p(triv, 2)
    assert gp.is_characteristic_p(s4, 2)
    c6 = gp.generate_group(perms(5, "(0 1 2)(3 4)"))
    assert not gp.is_characteristic_p(c6, 2)
    assert gp.is_characteristic_p(s3, 3)


# -- normalizer / centralizer ----------------------------------------------


def test_normalizer_centralizer_trivial_cases(s4):
    full = s4.full_subgroup()
    assert gp.normalizer(s4, full).elems == s4.elements
    assert gp.centralizer(s4, s4.trivial_subgroup()).elems == s4.elements


def test_centralizer_of_transposition(s4):
    X = s4.generated_subgroup(perms(4, "(0 1)"))
    assert gp.centralizer(s4, X).order == 4


# -- automorphism groups ----------------------------------------------------


def test_aut_orders(s4, klein):
    assert gp.aut_group(s4.generated_subgroup(perms(4, "(0 1)"))).order == 1
    assert gp.aut_group(klein).order == 6
    assert gp.aut_group(s4.generated_subgroup(perms(4, "(0 1 2 3)"))).order == 2


def test_aut_vs_bijection_oracle(s4, klein, d8, sl23):
    for X in [
        klein,
        s4.generated_subgroup(perms(4, "(0 1 2 3)")),
        d8.full_subgroup(),
        gp.sylow_subgroup(sl23, 2),
    ]:
        assert gp.aut_group(X).maps == oracles.bijection_automorphisms(X)


def test_aut_cap():
    big = gp.generate_group([Perm(tuple(list(range(1, 65)) + [0]))])
    with pytest.raises(CapExceeded):
        gp.aut_group(big.full_subgroup(), cap=64)


def test_inn_group(sl23, klein):
    q8 = gp.sylow_subgroup(sl23, 2)
    assert gp.inn_group(q8).order == 4  # Q8 / Z(Q8)
    assert gp.inn_group(klein).order == 1
    A = gp.aut_group(q8)
    assert gp.inn_group(q8).maps <= A.maps


def test_aut_perm_realization_roundtrip(klein):
    A = gp.aut_group(klein)
    for m in A.maps:
        assert A.from_perm(A.to_perm(m)) == m
    assert A.perm_group().order == A.order


# -- subnormality ------------------------------------------------------------


def test_subnormal_examples(s4):
    full = s4.full_subgroup()
    chain = gp.subnormal_chain(full, s4)
    assert chain is not None and len(chain) == 1  # zero proper steps
    H = s4.generated_subgroup(perms(4, "(0 1)(2 3)"))
    chain = gp.subnormal_chain(H, s4)
    assert chain is not None
    assert [c.order for c in chain] == [2, 4, 24]  # through the Klein four group
    assert not gp.is_subnormal(s4.generated_subgroup(perms(4, "(0 1)")), s4)


def test_subnormal_chain_links_are_normal(s4):
    H = s4.generated_subgroup(perms(4, "(0 1)(2 3)"))
    chain = gp.subnormal_chain(H, s4)
    for small, big in zip(chain, chain[1:]):
        assert small.elems <= big.elems
        assert all(x.conj(g) in small.elems for x in small.elems for g in big.elems)


# -- K-normalizers at the group level ----------------------------------------


def test_group_K_normalizer_named_cases(s4, klein):
    A = gp.aut_group(klein)
    assert gp.group_K_normalizer(s4, klein, A).elems == gp.normalizer(s4, klein).elems
    triv = gp.trivial_aut_group(klein)
    assert gp.group_K_normalizer(s4, klein, triv).elems == gp.centralizer(s4, klein).elems
    # Inn(V4) = {id}, and C_{S4}(V4) = V4
    inn = gp.inn_group(klein)
    NK = gp.group_K_normalizer(s4, klein, inn)
    assert NK.elems == klein.elems


def test_K_normalizer_contains_centralizer(s4, sl23):
    for G in (s4, sl23):
        S = gp.sylow_subgroup(G, 2)
        for X in gp.all_subgroups(S.group())[:6]:
            XG = gp.Subgroup(X.elems)
            A = gp.aut_group(XG)
            for K in A.sub_autgroups():
                NK = gp.group_K_normalizer(G, XG, K)
                assert gp.centralizer(G, XG).elems <= NK.elems


def test_lemma22_product_identity(s4, sl23):
    """N_G^{K Inn(X)}(X) = N_G^K(X) X, for every K <= Aut(X)."""
    for G in (s4, sl23):
        S = gp.sylow_subgroup(G, 2)
        for X in gp.all_subgroups(S.group()):
            XG = gp.Subgroup(X.elems)
            A = gp.aut_group(XG)
            if A.order > 24:
                continue
            inn = gp.inn_group(XG)
            for K in A.sub_autgroups():
                KInn = K.product(inn)
                lhs = gp.group_K_normalizer(G, XG, KInn).elems
                rhs = gp.set_product(G, gp.group_K_normalizer(G, XG, K).elems, XG.elems)
                assert lhs == rhs


# -- misc helpers -------------------------------------------------------------


def test_op_residual(s4, klein):
    A = gp.aut_group(klein)  # S3
    assert gp.op_residual(A, 2).order == 3
    assert gp.op_residual(A, 3).order == 6  # the involutions generate S3
    d8aut = gp.aut_group(gp.sylow_subgroup(s4, 2))
    assert gp.op_residual(d8aut, 2).order == 1  # Aut(D8) is a 2-group


def test_make_injection_validates(s4, klein):
    triv = s4.trivial_subgroup()
    gp.make_injection(triv, triv, {s4.identity: s4.identity})
    x = perm_from_cycles("(0 1)(2 3)", 4)
    y = perm_from_cycles("(0 2)(1 3)", 4)
    bad = {s4.identity: s4.identity, x: y, y: y.conj(x), x * y: s4.identity}
    with pytest.raises(ValueError):
        gp.make_injection(klein, klein, bad)
