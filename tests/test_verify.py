"""Checker tests: each statement checker on known instances, skip logic,
and the suite driver plumbing."""

import pytest

from plocal import fusion as fu
from plocal import groups as gp
from plocal import locality as lo
from plocal import verify as vf
from .conftest import perms


def S_of(G, p=2):
    return gp.sylow_subgroup(G, p)


# -- Lemma 2.2 -----------------------------------------------------------------


def test_lemma22a_p_group_case(d8):
    X = d8.generated_subgroup(perms(4, "(0 2)(1 3)"))
    H = gp.normalizer(d8, X)
    rep = vf.check_char_p_normalizer_subgroup(d8, 2, X, H, "t")
    assert rep.passed


def test_lemma22a_s4_transposition_pair(s4):
    X = s4.generated_subgroup(perms(4, "(0 2)(1 3)"))
    H = gp.centralizer(s4, X)
    rep = vf.check_char_p_normalizer_subgroup(s4, 2, X, H, "t")
    assert rep.passed


def test_lemma22a_skips(s4):
    X = s4.generated_subgroup(perms(4, "(0 1 2)"))
    rep = vf.check_char_p_normalizer_subgroup(s4, 2, X, X, "t")
    assert rep.outcome == "skipped" and rep.reason == "X-not-p-group"
    c6 = gp.generate_group(perms(5, "(0 1 2)(3 4)"))
    X2 = c6.generated_subgroup(perms(5, "(3 4)"))
    rep = vf.check_char_p_normalizer_subgroup(c6, 2, X2, c6.full_subgroup(), "t")
    assert rep.outcome == "skipped" and rep.reason == "G-not-characteristic-p"


def test_lemma22b_pass_and_identity(s4, klein):
    K = gp.trivial_aut_group(klein)
    rep = vf.check_char_p_normalizer_aut(s4, 2, klein, K, "t")
    assert rep.passed
    assert rep.stats["identity_checked"] == 1


def test_lemma22b_subnormal_skip(sl23):
    Q8 = S_of(sl23)
    A = gp.aut_group(Q8)
    # an order-3 subgroup of Aut(Q8) = S4 is not subnormal in C3 * V4 = A4
    C3 = next(K for K in A.sub_autgroups() if K.order == 3)
    rep = vf.check_char_p_normalizer_aut(sl23, 2, Q8, C3, "t")
    assert rep.outcome == "skipped"
    assert rep.reason == "K-not-subnormal-in-K*Inn(X)"


# -- Lemma 2.1 -----------------------------------------------------------------


def test_lemma21_center_id(L_s4, F_s4, s4):
    Z = gp.Subgroup(gp.center(S_of(s4).group()).elems)
    rep = vf.check_restricted_subcentric(L_s4, F_s4, Z, gp.trivial_aut_group(Z), "t")
    assert rep.passed


def test_lemma21_klein_autF(L_s4, F_s4, klein):
    V = gp.Subgroup(klein.elems)
    rep = vf.check_restricted_subcentric(L_s4, F_s4, V, F_s4.aut(V), "t")
    assert rep.passed


def test_lemma21_skip_on_not_fully_normalized(L_s4, F_s4, s4):
    Y = gp.Subgroup(gp.mulclose(perms(4, "(0 2)(1 3)"), cap=24))
    rep = vf.check_restricted_subcentric(L_s4, F_s4, Y, gp.aut_group(Y), "t")
    assert rep.outcome == "skipped" and rep.reason == "not-fully-K-normalized"


# -- Lemma 3.1 -----------------------------------------------------------------


def test_lemma31_central_case(L_s4, F_s4, N_s4, s4):
    Z = gp.Subgroup(gp.center(S_of(s4).group()).elems)
    rep = vf.check_fully_K_normalized_transfer(
        L_s4, F_s4, N_s4, Z, gp.aut_group(Z), "t"
    )
    assert rep.passed


def test_lemma31_fully_normalized_two_cycle(L_s4, F_s4, N_s4, s4):
    X = gp.Subgroup(gp.mulclose(perms(4, "(0 1)(2 3)"), cap=24))
    assert fu.is_fully_normalized(F_s4, X)
    rep = vf.check_fully_K_normalized_transfer(
        L_s4, F_s4, N_s4, X, gp.aut_group(X), "t"
    )
    assert rep.passed


def test_lemma31_nontrivial_K(L_s4, F_s4, N_s4, klein):
    """K = the odd-order automorphism subgroup of the Klein four group is
    neither Aut(X) nor trivial."""
    V = gp.Subgroup(klein.elems)
    K = gp.op_residual(gp.aut_group(V), 2)
    assert K.order == 3
    rep = vf.check_fully_K_normalized_transfer(L_s4, F_s4, N_s4, V, K, "t")
    assert rep.passed


# -- Theorem 3.2 ---------------------------------------------------------------


def test_main_theorem_central_id(L_s4, F_s4, E_s4, N_s4, s4):
    Z = gp.Subgroup(gp.center(S_of(s4).group()).elems)
    reps = vf.check_main_theorem(
        L_s4, F_s4, E_s4, N_s4, Z, gp.trivial_aut_group(Z), "t"
    )
    assert [r.statement for r in reps] == ["Theorem-3.2a", "Theorem-3.2b"]
    assert all(r.passed for r in reps)
    stats = reps[0].stats
    assert stats["v_routes_agree"] == 1
    # the expected E_0 = C_E(Z) lives over the Klein four group
    assert stats["ii_M_cap_S"] == 1


def test_main_theorem_trivial_X_collapses(L_s4, F_s4, E_s4, N_s4, s4):
    one = gp.Subgroup(frozenset([s4.identity]))
    reps = vf.check_main_theorem(
        L_s4, F_s4, E_s4, N_s4, one, gp.trivial_aut_group(one), "t"
    )
    assert all(r.passed for r in reps)


def test_main_theorem_skip_branches(L_s4, F_s4, E_s4, N_s4, s4, sl23):
    Y = gp.Subgroup(gp.mulclose(perms(4, "(0 2)(1 3)"), cap=24))
    reps = vf.check_main_theorem(L_s4, F_s4, E_s4, N_s4, Y, gp.aut_group(Y), "t")
    assert all(r.outcome == "skipped" for r in reps)
    assert all(r.reason == "not-fully-K-normalized" for r in reps)


def test_main_theorem_second_branch_exists(F_sl23, sl23):
    """For X = Q8 in SL(2,3) and K = S4 = Aut(X), branch 1 applies; look for
    any K where only the intersection branch holds, and check the branch
    logic is consistent either way."""
    Q8 = S_of(sl23)
    A = gp.aut_group(Q8)
    inn = gp.inn_group(Q8)
    seen = set()
    for K in A.sub_autgroups():
        b1 = K.is_subnormal_in(K.product(inn))
        K2 = gp.AutGroup(K.base, frozenset(K.maps & F_sl23.aut(gp.Subgroup(Q8.elems)).maps))
        b2 = K2.is_subnormal_in(K2.product(inn))
        branch, K_eff = vf._subnormal_branch(F_sl23, gp.Subgroup(Q8.elems), K)
        if b1:
            assert branch == 1 and K_eff.maps == K.maps
        elif b2:
            assert branch == 2 and K_eff.maps == K2.maps
        else:
            assert branch is None
        seen.add(branch)
    assert 1 in seen and None in seen


# -- Corollary 3.3 -------------------------------------------------------------


def test_corollary_on_sylow(L_s4, F_s4, E_s4, N_s4, s4):
    S = gp.Subgroup(S_of(s4).elems)
    reps = vf.check_corollary(L_s4, F_s4, E_s4, N_s4, S, "t")
    stmts = sorted({r.statement for r in reps})
    assert stmts == ["Corollary-3.3a", "Corollary-3.3b"]
    assert all(r.passed for r in reps if "normalizer" in r.instance)


def test_corollary_trivial_X_exact(L_s4, F_s4, E_s4, N_s4, s4):
    one = gp.Subgroup(frozenset([s4.identity]))
    reps = vf.check_corollary(L_s4, F_s4, E_s4, N_s4, one, "t")
    assert all(r.passed for r in reps)
    assert all(r.stats.get("trivial_case_exact") == 1 for r in reps)


# -- suite plumbing ------------------------------------------------------------


def test_run_suite_empty():
    reports, cov = vf.run_suite([])
    assert reports == []
    assert all(sum(c.values()) == 0 for c in cov.values())


def test_k_options_default_and_descriptors(s4, klein):
    V = gp.Subgroup(klein.elems)
    opts = vf.k_options(V)
    tags = [t for t, _ in opts]
    assert tags[:2] == ["aut", "id"]
    assert len(opts) == 6  # six subgroups of S3, named ones deduped in
    only = vf.k_options(V, descriptors=("id",))
    assert len(only) == 1 and only[0][0] == "id"
    explicit = vf.k_options(V, descriptors=("gens:(1 2 3)",))
    assert explicit[0][1].order == 3


def test_k_options_rejects_non_automorphism(s4):
    C4 = gp.Subgroup(gp.mulclose(perms(4, "(0 1 2 3)"), cap=24))
    from plocal.errors import CorpusParseError

    with pytest.raises(CorpusParseError):
        vf.k_options(C4, descriptors=("gens:(0 1)",))


def test_coverage_counts():
    from plocal.report import passed_report, skipped_report

    reports = [
        passed_report("Lemma-2.1", "e|X={(0 1)}|K=aut"),
        passed_report("Lemma-2.1", "e|X={1}|K=aut"),
        skipped_report("Lemma-2.1", "e|X={1}|K=inn", "why"),
    ]
    cov = vf.coverage_summary(reports)
    assert cov["Lemma-2.1"]["pass"] == 2
    assert cov["Lemma-2.1"]["nondegenerate_pass"] == 1
    assert cov["Lemma-2.1"]["skipped"] == 1
