"""Partial group and locality tests: construction, axiom verification,
restriction, K-normalizers, partial normal subgroups and products."""

import pytest

from plocal import fusion as fu
from plocal import groups as gp
from plocal import locality as lo
from plocal.errors import (
    DeltaNotClosed,
    GammaNotClosed,
    NotFound,
    NotFullyKNormalized,
    Q1Violated,
)
from .conftest import perms


# -- construction -------------------------------------------------------------


def test_p_group_with_sylow_object_is_itself(d8):
    S = d8.full_subgroup()
    L = lo.build_group_locality(d8, S, frozenset([S.elems]), 2)
    assert L.elems == d8.elements
    assert lo.verify_locality(L).passed


def test_s4_all_subgroups_gives_whole_group(s4, F_s4, L_s4):
    # 1 is subcentric here (constrained system), so every element survives
    assert L_s4.elems == s4.elements
    assert lo.verify_subcentric_locality(L_s4, F_s4).passed


def test_sylow_only_object_set(s4):
    S = gp.sylow_subgroup(s4, 2)
    L = lo.build_group_locality(s4, S, frozenset([S.elems]), 2)
    assert L.elems == gp.normalizer(s4, S).elems  # = S, self-normalizing
    assert lo.verify_locality(L).passed


def test_delta_closure_rejected(s4):
    S = gp.sylow_subgroup(s4, 2)
    Z = gp.center(S.group())
    with pytest.raises(DeltaNotClosed):
        lo.build_group_locality(s4, S, frozenset([Z.elems]), 2)  # misses overgroups


def test_group_as_partial_passes_axioms(s3):
    P = lo.group_as_partial(s3)
    rep = lo.verify_partial_group(P)
    assert rep.passed
    assert rep.stats["domain_words"] == rep.stats["words_checked"]


# -- a genuinely partial locality ---------------------------------------------


def test_s3xs3_locality_is_partial(L_s3xs3):
    els = sorted(L_s3xs3.elems)
    assert len(els) == 20
    pairs = [(a, b) for a in els for b in els]
    defined = [w for w in pairs if L_s3xs3.in_domain(w)]
    assert len(defined) < len(pairs)
    rep = lo.verify_locality(L_s3xs3)
    assert rep.passed


def test_s3xs3_undefined_word_has_no_chain(L_s3xs3):
    els = sorted(L_s3xs3.elems)
    bad = next(
        (a, b) for a in els for b in els if not L_s3xs3.in_domain((a, b))
    )
    assert not lo._delta_chain_exists(L_s3xs3, bad)


def test_prod_raises_outside_domain(L_s3xs3):
    els = sorted(L_s3xs3.elems)
    bad = next(
        (a, b) for a in els for b in els if not L_s3xs3.in_domain((a, b))
    )
    with pytest.raises(ValueError):
        L_s3xs3.prod(bad)


# -- S_f and S_w ---------------------------------------------------------------


def test_S_f_trivial_cases(L_s4):
    for f in sorted(L_s4.S_elems):
        assert lo.S_f(L_s4, f).elems == L_s4.S_elems
    assert lo.S_f(L_s4, L_s4.unit).elems == L_s4.S_elems


def test_S_f_is_intersection_for_group_localities(L_s4, L_s3xs3):
    for L in (L_s4, L_s3xs3):
        for f in sorted(L.elems):
            walk = frozenset(x for x in L.S_elems if x.conj(f) in L.S_elems)
            assert lo.S_f(L, f).elems == walk


def test_S_w_matches_iterated_S_f(L_s3xs3):
    els = sorted(L_s3xs3.elems)[:8]
    for a in els:
        for b in els:
            got = lo.S_w(L_s3xs3, (a, b)).elems
            expected = frozenset(
                x
                for x in lo.S_f(L_s3xs3, a).elems
                if x.conj(a) in lo.S_f(L_s3xs3, b).elems
            )
            assert got == expected


# -- restriction ---------------------------------------------------------------


def test_restrict_identity_case(L_s4, s4):
    H = lo.PartialSubgroup(L_s4, L_s4.elems)
    one = gp.Subgroup(frozenset([s4.identity]))
    out = lo.restrict(H, L_s4.Delta, one)
    assert isinstance(out, lo.Locality)
    assert out.elems == L_s4.elems
    assert out.Delta == L_s4.Delta


def test_restrict_idempotent(L_s4, F_s4, s4):
    Z = gp.Subgroup(gp.center(gp.sylow_subgroup(s4, 2).group()).elems)
    CL = lo.K_normalizer_partial(L_s4, Z, gp.trivial_aut_group(Z))
    Gamma = frozenset(
        P.elems for P in fu.subcentric_set(fu.centralizer_subsystem(F_s4, Z))
    )
    once = lo.restrict(CL, Gamma, Z)
    H2 = lo.PartialSubgroup(once, once.elems)
    twice = lo.restrict(H2, Gamma, Z)
    assert once.elems == twice.elems
    assert once.rule == twice.rule


def test_restrict_gamma_closure_error(L_s4, s4):
    S = gp.sylow_subgroup(s4, 2)
    Z = gp.center(S.group())
    H = lo.PartialSubgroup(L_s4, L_s4.elems)
    with pytest.raises(GammaNotClosed):
        lo.restrict(H, frozenset([Z.elems]), gp.Subgroup(Z.elems))


def test_restrict_q1_error(s3xs3, L_s3xs3):
    # Gamma = all nontrivial subgroups of R is fine for X = 1 only if
    # every object is in Delta; forcing X = 1 with Gamma containing a
    # subgroup whose join with X is not an object must raise (Q1)
    S = gp.sylow_subgroup(s3xs3, 2)
    one = gp.Subgroup(frozenset([s3xs3.identity]))
    H = lo.PartialSubgroup(L_s3xs3, L_s3xs3.elems)
    all_subs = frozenset(K.elems for K in gp.all_subgroups(S.group()))
    with pytest.raises(Q1Violated):
        lo.restrict(H, all_subs, one)  # the trivial subgroup is not in Delta


def test_bC_of_center(L_s4, F_s4, s4):
    Z = gp.Subgroup(gp.center(gp.sylow_subgroup(s4, 2).group()).elems)
    bc = lo.bC(L_s4, F_s4, Z)
    CF = fu.centralizer_subsystem(F_s4, Z)
    assert bc.S_elems == CF.Sgroup.elements
    assert bc.elems == gp.centralizer(s4, Z).elems  # Gamma contains 1 here
    assert lo.verify_subcentric_locality(bc, CF).passed


def test_bN_requires_fully_K_normalized(L_s4, F_s4, s4):
    Y = gp.Subgroup(gp.mulclose(perms(4, "(0 2)(1 3)"), cap=24))
    with pytest.raises(NotFullyKNormalized):
        lo.bN(L_s4, F_s4, Y)  # conjugate center has a larger normalizer


# -- K-normalizer partial subgroups ---------------------------------------------


def test_K_normalizer_named_cases(L_s4, s4, klein):
    V = gp.Subgroup(klein.elems)
    NL = lo.K_normalizer_partial(L_s4, V, gp.aut_group(V))
    assert NL.elems == gp.normalizer(s4, V).elems
    CL = lo.K_normalizer_partial(L_s4, V, gp.trivial_aut_group(V))
    assert CL.elems == gp.centralizer(s4, V).elems


def test_K_normalizer_is_partial_subgroup(L_s3xs3, s3xs3):
    S = gp.sylow_subgroup(s3xs3, 2)
    X = gp.Subgroup(gp.mulclose(perms(6, "(1 2)"), cap=36))
    ps = lo.K_normalizer_partial(L_s3xs3, X, gp.aut_group(X))
    assert lo.partial_subgroup_violation(L_s3xs3, ps.elems) is None


# -- partial normal subgroups and the finder ------------------------------------


def test_partial_normal_cases(L_s4, N_s4, a4):
    assert N_s4.elems == a4.elements
    assert lo.is_partial_normal(N_s4, L_s4)
    assert lo.is_partial_normal(lo.PartialSubgroup(L_s4, L_s4.elems), L_s4)
    bad = lo.PartialSubgroup(L_s4, frozenset(perms(4, "()", "(0 1)")))
    viol = lo.partial_normal_violation(bad, L_s4)
    assert viol is not None and viol["kind"] == "conjugation"


def test_find_normal_full_system(L_s4, F_s4):
    N = lo.find_normal_for(L_s4, F_s4)
    assert N.elems == L_s4.elems


def test_closure_repair_generates_subgroups(L_s4, s4):
    # every word of this group locality is defined, so repairing a
    # generating set must reach the whole generated subgroup
    for H in gp.all_subgroups(s4):
        if H.order > 1:
            gens = frozenset(gp._generating_sequence(H.elems))
            assert lo._closure_repair(L_s4, gens) == H.elems


def test_find_normal_not_found(L_s4, F_s4, s4):
    # the inner Sylow system is not realized by any partial normal subgroup
    inner = fu.close_generated(F_s4.S, 2)
    with pytest.raises(NotFound):
        lo.find_normal_for(L_s4, inner)


def test_find_normal_not_found_names_the_searched_family(L_s4, s4):
    # F_S(S) over the whole Sylow subgroup: no H cap L with H normal in S4
    # realizes it, and the message says that only that family was searched
    S = gp.sylow_subgroup(s4, 2)
    E = fu.fusion_of_group(S.group(), S, 2)
    with pytest.raises(NotFound, match="H cap L for H normal in the ambient group"):
        lo.find_normal_for(L_s4, E)


# -- products --------------------------------------------------------------------


def test_product_with_trivial(L_s4, N_s4, s4):
    one = gp.Subgroup(frozenset([s4.identity]))
    NX = lo.product_partial(L_s4, N_s4, one)
    assert NX.elems == N_s4.elems


def test_product_with_sylow_is_whole_locality(L_s4, N_s4, s4):
    S = gp.sylow_subgroup(s4, 2)
    NS = lo.product_partial(L_s4, N_s4, gp.Subgroup(S.elems))
    assert NS.elems == L_s4.elems


def test_product_fusion_absorbed(L_s4, N_s4, E_s4, s4):
    Z = gp.Subgroup(gp.center(gp.sylow_subgroup(s4, 2).group()).elems)
    EX = lo.product_fusion(L_s4, N_s4, Z)  # Z <= T, so E X = E
    assert EX == E_s4


def test_product_fusion_with_outside_x(L_s4, N_s4, F_s4, s4):
    X = gp.Subgroup(gp.mulclose(perms(4, "(0 1)"), cap=24))
    EX = lo.product_fusion(L_s4, N_s4, X)
    assert EX == F_s4  # A4 <(0 1)> = S4 and T X = S


# -- fusion of partial subgroups --------------------------------------------------


def test_fusion_of_partial_sylow(L_s4, s4):
    S = gp.sylow_subgroup(s4, 2)
    NS = lo.PartialSubgroup(L_s4, S.elems)
    F = lo.fusion_of_partial(L_s4, NS)
    assert F == fu.close_generated(gp.Subgroup(S.elems), 2)


def test_fusion_of_whole_locality_is_F(L_s4, F_s4):
    got = lo.fusion_of_partial(L_s4, lo.PartialSubgroup(L_s4, L_s4.elems))
    assert got == F_s4


def test_fusion_of_partial_alternating(L_s4, N_s4, E_s4):
    assert lo.fusion_of_partial(L_s4, N_s4) == E_s4


# -- axiom verification on negatives ----------------------------------------------


def test_verify_locality_flags_missing_overgroup(s4):
    S = gp.sylow_subgroup(s4, 2)
    Delta_bad = frozenset(
        H.elems for H in gp.all_subgroups(S.group()) if H.order in (2, 8)
    )
    L = lo.Locality(s4, s4.elements, Delta_bad | {S.elems}, S.elems, 2)
    rep = lo.verify_locality(L)
    assert rep.failed
    assert rep.witness["axiom"].startswith("Delta")


def test_subcentric_rejects_wrong_delta(s4, F_s4):
    S = gp.sylow_subgroup(s4, 2)
    sub4 = frozenset(H.elems for H in gp.all_subgroups(S.group()) if H.order >= 4)
    L = lo.build_group_locality(s4, S, sub4, 2)
    assert lo.verify_locality(L).passed
    rep = lo.verify_subcentric_locality(L, F_s4)
    assert rep.failed and rep.witness["axiom"] == "Delta-is-subcentric-set"


def test_a5_naive_construction_rejected():
    """F_{V4}(A5) is the A4 system, so 1 is subcentric; the naive locality
    is then all of A5 and N_L(1) = A5 is not of characteristic 2."""
    A5 = gp.generate_group(perms(5, "(0 1 2 3 4)", "(0 1 2)"))
    S = gp.sylow_subgroup(A5, 2)
    F = fu.fusion_of_group(A5, S, 2)
    Delta = frozenset(P.elems for P in fu.subcentric_set(F))
    L = lo.build_group_locality(A5, S, Delta, 2)
    assert L.elems == A5.elements
    rep = lo.verify_subcentric_locality(L, F, word_len=2)
    assert rep.failed
    assert rep.witness["axiom"] == "N_L(P)-characteristic-p"
