"""Fusion system tests: construction, closure, saturation, K-normalizers,
distinguished subgroup sets and subsystem normality."""

import pytest

from plocal import fusion as fu
from plocal import groups as gp
from plocal.errors import NotSaturated, NotSylow
from plocal.perm import perm_from_cycles

from .conftest import perms


def sub(F, *specs):
    deg = F.Sgroup.degree
    gens = perms(deg, *specs)
    return gp.Subgroup(gp.mulclose(gens, cap=F.Sgroup.order)) if gens else None


# -- fusion_of_group ----------------------------------------------------------


def test_inner_fusion_of_p_group(d8):
    F = fu.fusion_of_group(d8, d8.full_subgroup(), 2)
    assert F == fu.close_generated(d8.full_subgroup(), 2)


def test_aut_F_values(F_s4, F_s3, klein):
    assert F_s4.aut(gp.Subgroup(klein.elems)).order == 6
    assert F_s3.aut(F_s3.S).order == 2


def test_not_sylow_rejected(s4):
    with pytest.raises(NotSylow):
        fu.fusion_of_group(s4, s4.generated_subgroup(perms(4, "(0 1)")), 2)


def test_homs_materialization(F_s4, klein):
    V = gp.Subgroup(klein.elems)
    homs = F_s4.homs(V, F_s4.S)
    assert len(homs) == 6
    assert all(h.tgt == F_s4.S.elems for h in homs)


# -- close_generated ----------------------------------------------------------


def test_close_generated_reproduces_group_fusion(F_s4):
    assert fu.close_generated(F_s4.S, 2, F_s4.all_germs()) == F_s4


def test_close_generated_restriction_property(d8):
    # an order-2 automorphism restricts to every subgroup it normalizes
    S = d8.full_subgroup()
    A = gp.aut_group(S)
    alpha = next(
        m for m in sorted(A.maps)
        if not m.is_identity_map() and m.then(m).is_identity_map()
    )
    F = fu.close_generated(S, 2, [alpha])
    for P in F.subgroups():
        img = frozenset(alpha(x) for x in P.elems)
        if img == P.elems:
            assert alpha.restrict(P.elems).as_germ() in F.germs_from(P)


def test_close_generated_rejects_non_hom(s4):
    # on C4 = <r>: fixing e and r but swapping r^2 and r^3 is an injective
    # bijection that is not a homomorphism
    r = perm_from_cycles("(0 1 2 3)", 4)
    C4 = s4.generated_subgroup([r])
    bad = gp.GroupInjection(
        ((s4.identity, s4.identity), (r, r), (r * r, r * r * r), (r * r * r, r * r)),
        C4.elems,
    )
    with pytest.raises(ValueError):
        fu.close_generated(C4, 2, [bad])


# -- saturation ---------------------------------------------------------------


def test_corpus_systems_saturated(F_s4, F_s3, F_sl23):
    for F in (F_s4, F_s3, F_sl23):
        assert fu.is_saturated(F)


def test_unsaturated_witness():
    v4 = gp.generate_group(perms(4, "(0 1)(2 3)", "(0 2)(1 3)"))
    A = gp.aut_group(v4.full_subgroup())
    alpha = next(
        m for m in sorted(A.maps)
        if not m.is_identity_map() and m.then(m).is_identity_map()
    )
    F = fu.close_generated(v4.full_subgroup(), 2, [alpha])
    w = fu.saturation_failure(F)
    assert w is not None and w["axiom"] == "fully-automized"


def test_odd_aut_on_klein_four_is_saturated():
    v4 = gp.generate_group(perms(4, "(0 1)(2 3)", "(0 2)(1 3)"))
    A = gp.aut_group(v4.full_subgroup())
    rho = next(m for m in sorted(A.maps) if not m.then(m).is_identity_map())
    F = fu.close_generated(v4.full_subgroup(), 2, [rho])  # = the A4 system
    assert fu.is_saturated(F)
    assert F.aut(F.S).order == 3


# -- fully K-normalized -------------------------------------------------------


def test_fully_normalized_cases(F_s4):
    assert fu.is_fully_normalized(F_s4, F_s4.S)
    Z = sub(F_s4, "(0 1)(2 3)")  # the center of S
    assert fu.is_fully_centralized(F_s4, Z)
    # the center's conjugate inside S has a smaller normalizer
    Y = sub(F_s4, "(0 2)(1 3)")
    assert not fu.is_fully_normalized(F_s4, Y)
    assert fu.is_fully_normalized(F_s4, Z)


def test_fully_K_normalized_with_arbitrary_K(F_s4, klein):
    """Full K-normalization transports K along automorphisms as well: the
    normal Klein four group is fully K-normalized exactly for the K that
    are either Aut_F(V4)-stable or contain the automorphisms induced by S."""
    V = gp.Subgroup(klein.elems)
    A = gp.aut_group(V)
    autS = F_s4.aut_S(V)  # the order-2 subgroup induced by conjugation from S
    verdicts = {}
    for K in A.sub_autgroups():
        verdicts[K.maps] = fu.is_fully_K_normalized(F_s4, V, K)
    # trivial, the odd-order subgroup, full Aut: all stable hence fully
    assert verdicts[gp.trivial_aut_group(V).maps]
    assert verdicts[A.maps]
    assert verdicts[gp.op_residual(A, 2).maps]
    # among the three order-2 subgroups only the one containing Aut_S(V4)
    order2 = [K for K in A.sub_autgroups() if K.order == 2]
    assert len(order2) == 3
    for K in order2:
        assert verdicts[K.maps] == (autS.maps <= K.maps)


# -- K-normalizer subsystems --------------------------------------------------


def test_K_normalizer_trivial_X(F_s4, s4):
    one = gp.Subgroup(frozenset([s4.identity]))
    assert fu.K_normalizer_subsystem(F_s4, one, gp.trivial_aut_group(one)) == F_s4


def test_normalizer_of_normal_subgroup_is_whole_system(F_s4, klein):
    V = gp.Subgroup(klein.elems)
    assert fu.normalizer_subsystem(F_s4, V) == F_s4


def test_centralizer_of_center_is_inner_sylow(F_s4, d8):
    Z = sub(F_s4, "(0 1)(2 3)")
    CF = fu.centralizer_subsystem(F_s4, Z)
    inner = fu.fusion_of_group(d8, d8.full_subgroup(), 2)
    # C_{S4}(Z(S)) is the Sylow itself; same element set, same category
    assert CF.Sgroup.elements == F_s4.Sgroup.elements
    assert len(CF.all_germs()) == len(inner.all_germs())
    assert CF == fu.fusion_of_group(CF.Sgroup, CF.S, 2)


def test_aut_K_equals_autF_K_normalizer(F_s4):
    """N_F^{Aut(X)}(X) = N_F^{Aut_F(X)}(X)."""
    for X in F_s4.subgroups():
        full = fu.K_normalizer_subsystem(F_s4, X, gp.aut_group(X))
        realized = fu.K_normalizer_subsystem(F_s4, X, F_s4.aut(X))
        assert full == realized


def test_K_normalizer_saturated_when_fully_K_normalized(F_s4, F_sl23):
    for F in (F_s4, F_sl23):
        for X in F.subgroups():
            A = gp.aut_group(X)
            for K in A.sub_autgroups():
                if A.order > 24:
                    continue
                if fu.is_fully_K_normalized(F, X, K):
                    assert fu.is_saturated(fu.K_normalizer_subsystem(F, X, K))


# -- strongly closed / centric / subcentric -----------------------------------


def test_strongly_closed(F_s4, klein):
    assert fu.is_strongly_closed(F_s4, F_s4.S)
    assert fu.is_strongly_closed(F_s4, gp.Subgroup(klein.elems))
    assert not fu.is_strongly_closed(F_s4, sub(F_s4, "(0 1)"))


def test_centric_set_s4(F_s4):
    cen = fu.centric_set(F_s4)
    assert F_s4.S in cen
    assert sorted(P.order for P in cen) == [4, 4, 4, 8]


def test_subcentric_s4_is_everything(F_s4):
    subc = fu.subcentric_set(F_s4)
    assert len(subc) == len(F_s4.subgroups())  # constrained system
    cen = fu.centric_set(F_s4)
    assert {P.elems for P in cen} <= {P.elems for P in subc}


def test_subcentric_requires_saturated():
    v4 = gp.generate_group(perms(4, "(0 1)(2 3)", "(0 2)(1 3)"))
    A = gp.aut_group(v4.full_subgroup())
    alpha = next(
        m for m in sorted(A.maps)
        if not m.is_identity_map() and m.then(m).is_identity_map()
    )
    F = fu.close_generated(v4.full_subgroup(), 2, [alpha])
    with pytest.raises(NotSaturated):
        fu.subcentric_set(F)


def test_fusion_core(F_s4, F_s3, klein):
    assert fu.fusion_core(F_s4).elems == klein.elems
    assert fu.fusion_core(F_s3).order == 3


# -- hyperfocal subgroup and p-power index ------------------------------------


def test_hyperfocal(F_s4, F_s3, klein, d8):
    assert fu.hyperfocal_subgroup(F_s4).elems == klein.elems
    inner = fu.fusion_of_group(d8, d8.full_subgroup(), 2)
    assert fu.hyperfocal_subgroup(inner).order == 1
    assert fu.hyperfocal_subgroup(F_s3).order == 3  # Aut_F(C3) has order 2


def test_p_power_index(F_s4, E_s4):
    assert fu.has_p_power_index(F_s4, F_s4)
    assert fu.has_p_power_index(E_s4, F_s4)  # the A4 system is O^2(F)V4
    inner = fu.close_generated(F_s4.S, 2)
    assert not fu.has_p_power_index(inner, F_s4)  # misses O^2(Aut_F(V4))


# -- weak normality and normality ---------------------------------------------


def test_normal_subsystem_cases(F_s4, E_s4):
    assert fu.is_normal_subsystem(F_s4, F_s4)
    assert fu.is_weakly_normal(E_s4, F_s4)
    assert fu.is_normal_subsystem(E_s4, F_s4)


def test_non_strongly_closed_base_is_not_normal(F_s4):
    T = sub(F_s4, "(0 1)")
    E = fu.fusion_of_group(T.group(), T.group().full_subgroup(), 2)
    assert not fu.is_weakly_normal(E, F_s4)
    assert not fu.is_normal_subsystem(E, F_s4)


def test_inner_sylow_subsystem_not_normal_in_s4_system(F_s4):
    # strongly closed base, but the Frattini factorization fails
    inner = fu.close_generated(F_s4.S, 2)
    assert not fu.is_weakly_normal(inner, F_s4)


def test_sl23_inner_q8_normal(F_sl23, sl23):
    q8 = gp.sylow_subgroup(sl23, 2)
    E = fu.fusion_of_group(q8.group(), q8.group().full_subgroup(), 2)
    assert fu.is_normal_subsystem(E, F_sl23)
