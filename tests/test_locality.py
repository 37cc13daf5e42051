"""Partial group and locality tests: construction, axiom verification,
restriction, K-normalizers, partial normal subgroups and products."""

import itertools
import random
from collections import Counter

import pytest

from plocal import cli
from plocal import fusion as fu
from plocal import groups as gp
from plocal import locality as lo
from plocal import verify as vf
from plocal.errors import (
    GammaNotClosed,
    NotFullyKNormalized,
    NotSylow,
    Q1Violated,
    Q2Violated,
)
from plocal.perm import Perm
from . import oracles
from .conftest import one_cpu, perms


# -- construction -------------------------------------------------------------


def _locality(G, elems, objects, base, p=2):
    """A Locality from element sets: elems and base inside G, each object
    inside base."""
    S = G.generated_subgroup(base)
    return lo.Locality(G, G.mask(elems), [S.mask(o) for o in objects], G.mask(base), p)


def test_p_group_with_sylow_object_is_itself(d8):
    S = d8
    L = lo.build_group_locality(d8, S, frozenset([S.mask(S.elems)]), 2)
    assert L.elems == d8.home_mask
    assert lo.verify_locality(L).passed


def test_s4_all_subgroups_gives_whole_group(s4, F_s4, L_s4):
    # 1 is subcentric here (constrained system), so every element survives
    assert L_s4.elems == s4.home_mask
    assert lo.verify_subcentric_locality(L_s4, F_s4).passed


def test_sylow_only_object_set(s4):
    S = gp.sylow_subgroup(s4, 2)
    L = lo.build_group_locality(s4, S, frozenset([S.mask(S.elems)]), 2)
    assert L.elems == gp.normalizer(s4, S).home_mask  # = S, self-normalizing
    assert lo.verify_locality(L).passed


def test_group_locality_elements_match_definition(s4, s3xs3, L_s4, L_s3xs3):
    """L_Delta(G) = {g in G : S cap S^{g^-1} in Delta}, the definition the
    restriction of the group locality must reproduce."""
    S = gp.sylow_subgroup(s4, 2)
    sylow_only = lo.build_group_locality(s4, S, frozenset([S.mask(S.elems)]), 2)
    for G, L in ((s4, L_s4), (s3xs3, L_s3xs3), (s4, sylow_only)):
        S_g = {g: frozenset(x for x in L.S.elems if x.conj(g) in L.S.elems) for g in G.elems}
        assert oracles.elems_of(L, L.elems) == frozenset(
            g for g in G.elems if S_g[g] in oracles.objects_of(L)
        )


def _order_at_least_4_and_one_transposition(S):
    """The subgroups of S of order >= 4 and <t> for one transposition t in
    S, but not <t'> for its S-conjugate t'."""
    t = next(x for x in sorted(S.elems) if [len(c) for c in x.cycles()] == [2])
    conjugates = {t.conj(g) for g in S.elems}
    assert len(conjugates) == 2  # so <t'> with t' != t is left out
    return frozenset(H.elems for H in gp.all_subgroups(S) if H.order >= 4) | {
        frozenset([S.identity, t])
    }


@pytest.mark.parametrize(
    "make_delta, message",
    [
        pytest.param(lambda S: frozenset([gp.center(S).elems]), "overgroups", id="missing-overgroup"),
        pytest.param(_order_at_least_4_and_one_transposition, "conjugation", id="missing-conjugate"),
        pytest.param(
            lambda S: frozenset([S.elems, frozenset(perms(4, "()", "(0 3)"))]),
            "not a subgroup",
            id="object-outside-S",
        ),
    ],
)
def test_delta_closure_rejected(s4, make_delta, message):
    """An object outside S has mask -1 (S.mask), which is no subgroup."""
    S = gp.sylow_subgroup(s4, 2)
    with pytest.raises(GammaNotClosed, match=message):
        lo.build_group_locality(s4, S, frozenset(map(S.mask, make_delta(S))), 2)


def test_non_sylow_base_rejected(s4, klein):
    with pytest.raises(NotSylow):
        lo.build_group_locality(s4, klein, frozenset([klein.mask(klein.elems)]), 2)


def test_group_locality_passes_axioms(s3):
    """The partial-group check counts the words of length 1 and 2 over S3,
    6 + 36, every one of them in the domain."""
    P = lo.group_locality(s3, gp.sylow_subgroup(s3, 2), 2)
    rep = lo.verify_partial_group(P)
    assert rep.passed
    assert rep.stats == {"words_checked": 42, "domain_words": 42}


# -- a genuinely partial locality ---------------------------------------------


def test_s3xs3_locality_is_partial(L_s3xs3):
    els = L_s3xs3.sorted_elements()
    assert len(els) == 20
    pairs = [(a, b) for a in els for b in els]
    defined = [w for w in pairs if L_s3xs3.in_domain(w)]
    assert len(defined) < len(pairs)
    rep = lo.verify_locality(L_s3xs3)
    assert rep.passed


def test_s3xs3_undefined_word_has_no_chain(L_s3xs3):
    """The first pair of letters that word_ok refuses has no object chain
    by the chain search, and the pairs before it have one."""
    els = L_s3xs3.sorted_elements()
    pairs = list(itertools.product(els, repeat=2))
    first = next(
        i for i, w in enumerate(pairs) if not L_s3xs3.word_ok(L_s3xs3.ambient.indexes(w))
    )
    assert not oracles.delta_chain_exists(L_s3xs3, pairs[first])
    assert first > 0 and all(oracles.delta_chain_exists(L_s3xs3, w) for w in pairs[:first])


def test_prod_raises_outside_domain(L_s3xs3):
    els = L_s3xs3.sorted_elements()
    bad = next(
        (a, b) for a in els for b in els if not L_s3xs3.in_domain((a, b))
    )
    with pytest.raises(ValueError):
        L_s3xs3.prod(bad)


# -- S_f -----------------------------------------------------------------------


def test_S_f_trivial_cases(L_s4):
    for f in L_s4.S:
        assert lo.S_f(L_s4, f) == L_s4.S
    assert lo.S_f(L_s4, L_s4.ambient.identity) == L_s4.S


def test_S_f_is_intersection_for_group_localities(L_s4, L_s3xs3):
    for L in (L_s4, L_s3xs3):
        for f in L.sorted_elements():
            walk = frozenset(x for x in L.S.elems if x.conj(f) in L.S.elems)
            assert lo.S_f(L, f).elems == walk


# -- restriction ---------------------------------------------------------------


def test_restrict_identity_case(L_s4, s4):
    one = gp.Subgroup(frozenset([s4.identity]))
    out = lo.restrict(L_s4, L_s4.elems, L_s4.Delta, one)
    assert isinstance(out, lo.Locality)
    assert out.elems == L_s4.elems
    assert out.Delta == L_s4.Delta


def test_restrict_idempotent(L_s4, F_s4, s4):
    Z = gp.Subgroup(gp.center(gp.sylow_subgroup(s4, 2)).elems)
    CL = lo.K_normalizer_partial(L_s4, Z, gp.trivial_aut_group(Z))
    Gamma = frozenset(
        L_s4.S.mask(P.elems) for P in fu.subcentric_set(fu.centralizer_subsystem(F_s4, Z))
    )
    once = lo.restrict(L_s4, CL, Gamma, Z)
    assert once.S == L_s4.S  # Z is central in S, so Gamma's masks are over once's S too
    twice = lo.restrict(once, once.elems, Gamma, Z)
    assert once.elems == twice.elems
    assert once == twice


def test_restrict_gamma_closure_error(L_s4, s4):
    S = gp.sylow_subgroup(s4, 2)
    Z = gp.center(S)
    with pytest.raises(GammaNotClosed):
        lo.restrict(L_s4, L_s4.elems, frozenset([S.mask(Z.elems)]), gp.Subgroup(Z.elems))


def test_restrict_q1_error(s3xs3, L_s3xs3):
    # Gamma = all nontrivial subgroups of R is fine for X = 1 only if
    # every object is in Delta; forcing X = 1 with Gamma containing a
    # subgroup whose join with X is not an object must raise (Q1)
    S = gp.sylow_subgroup(s3xs3, 2)
    one = gp.Subgroup(frozenset([s3xs3.identity]))
    all_subs = frozenset(S.mask(K.elems) for K in gp.all_subgroups(S))
    with pytest.raises(Q1Violated):
        lo.restrict(L_s3xs3, L_s3xs3.elems, all_subs, one)  # the trivial subgroup is not in Delta


def test_restrict_q2_error(s4):
    """On S4's group locality, with Gamma every subgroup of S and X =
    <(0 1)>, an element that moves an object P1 onto P2 inside S does not
    move <P1, X> onto <P2, X>: (Q2) fails."""
    S = gp.sylow_subgroup(s4, 2)
    X = s4.generated_subgroup(perms(4, "(0 1)"))
    with pytest.raises(Q2Violated, match="transporter"):
        lo.restrict(lo.group_locality(s4, S, 2), s4.home_mask, gp.lattice(S), X)


def test_restrict_non_maximal_raises_not_sylow(L_s4, s4):
    # H, another Sylow D8, meets S in a four-group R; every word over H is
    # defined, so H|_Gamma is all of H and R < H is not a maximal p-subgroup
    S = gp.sylow_subgroup(s4, 2)
    g = next(g for g in sorted(s4.elems) if frozenset(x.conj(g) for x in S.elems) != S.elems)
    H = frozenset(x.conj(g) for x in S.elems)
    R = gp.Subgroup(S.elems & H)
    assert R.order == 4
    Gamma = frozenset(S.mask(K.elems) for K in gp.all_subgroups(R))
    with pytest.raises(NotSylow):
        lo.restrict(L_s4, s4.mask(H), Gamma, s4.trivial_subgroup())


@pytest.fixture(scope="module")
def L_l27():
    """The subcentric locality of PSL(2,7) at p = 2: 104 of the 168
    elements, 9 objects, and the trivial subgroup is not one of them."""
    G = gp.generate_group(perms(7, "(0 1 2 3 4 5 6)", "(0 1)(2 5)"))
    S = gp.sylow_subgroup(G, 2)
    F = fu.fusion_of_group(G, S, 2)
    return lo.build_group_locality(G, S, frozenset(S.mask(P.elems) for P in fu.subcentric_set(F)), 2)


@pytest.fixture(scope="module")
def L_sl23(sl23, F_sl23):
    """The subcentric locality of SL(2,3), whose Sylow Q8 is normal."""
    Delta = frozenset(F_sl23.S.mask(P.elems) for P in fu.subcentric_set(F_sl23))
    return lo.build_group_locality(sl23, F_sl23.S, Delta, 2)


@pytest.mark.parametrize("name", ["L_l27", "L_s3xs3", "L_s4", "L_sl23"])
def test_maximality_by_normalizer_growth_matches_definition(name, request):
    """The base R of a locality is a maximal p-subgroup, decided by growing R
    inside its normalizer, iff R lies in L with its words defined and no
    p-subgroup H > R of G lies in L with its words defined, words defined
    being decided from survivor sets by Perm conjugation. The H range over
    every p-subgroup of G, taken as the G-conjugates of the subgroups of S,
    not from G's subgroup lattice. Checked on the fixture, on each bN_L^K(X)
    for K in {Aut(X), 1} and X fully K-normalized, and, where S is not
    normal, on R = S cap S^g as the base of the elements of S^g, which is
    not maximal. In SL(2,3) the normalizer of S holds elements of order 3,
    which give no p-group. The trivial subgroup is not an object of
    L_s3xs3, so (Q1) fails at X = 1, whose Gamma holds it."""
    L = request.getfixturevalue(name)
    G, p = L.ambient, L.p
    pool = {frozenset(x.conj(g) for x in P.elems) for P in gp.all_subgroups(L.S) for g in G.elems}
    F = fu.fusion_of_group(G, L.S, p)
    structures = [L]
    for X in F.subgroups():
        for K in (gp.aut_group(X), gp.trivial_aut_group(X)):
            if fu.is_fully_K_normalized(F, X, K):
                try:
                    structures.append(lo.bN_K(L, F, X, K))
                except Q1Violated:
                    pass
    other = next((H for H in pool if len(H) == L.S.order and H != L.S.elems), None)
    if other is not None:
        R = L.S.elems & other
        Gamma = [K.elems for K in gp.all_subgroups(L.S) if K.elems <= R]
        structures.append(_locality(G, other, Gamma, R))

    def in_L(M, H):
        return H <= oracles.elems_of(M, M.elems) and oracles.group_words_defined(M, H)

    verdicts = Counter()
    for M in structures:
        R = M.S.elems
        expected = in_L(M, R) and not any(R < H and in_L(M, H) for H in pool)
        assert lo._is_max_p_subgroup(M) == expected
        verdicts[expected] += 1
    assert verdicts[True] == len(structures) - (other is not None) > 1
    assert verdicts[False] == (other is not None)


def test_restrict_conjugates_each_object_once(monkeypatch, L_l27):
    """The closure check and (Q2) share one P^f per object P and action
    class of the element f (lo._actions): _conj_mask runs once per object
    and class representative, on the index of the class's first member.
    Z(S) != 1 acts trivially on S, so PSL(2,7)'s group locality, and
    L_l27 inside it, have fewer classes than elements; the classes
    partition the elements, and members of one class conjugate every
    object alike."""
    G = L_l27.ambient
    whole = lo.group_locality(G, L_l27.S, 2)
    for L in (whole, L_l27):
        classes = lo._actions(L)
        assert len(classes) < L.elems.bit_count()
        assert sum(members for _, members in classes) == L.elems
        for a, members in classes:
            assert members >> a & 1 and not members & ((1 << a) - 1)
            for P in L.Delta:
                assert {lo._conj_mask(L, P, f) for f in gp.bits(members)} == {lo._conj_mask(L, P, a)}
    calls = []
    real = lo._conj_mask

    def spy(L, mask, a):
        calls.append((mask, a))
        return real(L, mask, a)

    monkeypatch.setattr(lo, "_conj_mask", spy)
    lo.restrict(whole, whole.elems, L_l27.Delta, G.trivial_subgroup())
    expected = Counter((P, a) for P in L_l27.Delta for a, _ in lo._actions(whole))
    assert Counter(calls) == expected


def _restrict_outcome(restrict, L, H, Gamma, X):
    """The content of a restriction, or the class and message it raised."""
    try:
        out = restrict(L, H, Gamma, X)
    except Exception as exc:
        return type(exc), str(exc)
    return out.ambient, out.elems, out.Delta, out.S_elems


def _assert_germs_match(L, N, R, frame):
    got = lo._partial_germs(L, N, R, frame)
    assert oracles.as_pairs(frame, got) == oracles.fusion_germs_by_perms(L, N, R)
    return got


@pytest.mark.parametrize("name", ["L_s4", "L_sl23", "L_s3xs3"])
def test_restrict_matches_perm_oracle_on_K_normalizers(name, request):
    """bN_L^K(X) by masks against the restriction on element sets, for
    every X <= S and K in {Aut(X), 1} with X fully K-normalized, Gamma the
    subcentric set of N_F^K(X): the same locality or the same exception
    and message. The germ search of fusion_of_partial matches the one on
    element sets on N_L^K(X) and on each restriction."""
    L = request.getfixturevalue(name)
    F = fu.fusion_of_group(L.ambient, L.S, L.p)
    outcomes = Counter()
    for X in gp.all_subgroups(L.S):
        for K in (gp.aut_group(X), gp.trivial_aut_group(X)):
            if not fu.is_fully_K_normalized(F, X, K):
                continue
            H = lo.K_normalizer_partial(L, X, K)
            NFK = fu.K_normalizer_subsystem(F, X, K)
            Gamma = frozenset(L.S.mask(P.elems) for P in fu.subcentric_set(NFK))
            got = _restrict_outcome(lo.restrict, L, H, Gamma, X)
            assert got == _restrict_outcome(oracles.restrict_by_perms, L, H, Gamma, X)
            outcomes[isinstance(got[0], gp.Subgroup)] += 1
            _assert_germs_match(L, H, L.ambient.from_home_mask(H & L.S_elems), L.S)
            if isinstance(got[0], gp.Subgroup):
                out = lo.restrict(L, H, Gamma, X)
                assert _assert_germs_match(out, out.elems, out.S, L.S)
    assert outcomes[True] > 0


def _other_sylow(s4):
    S = gp.sylow_subgroup(s4, 2)
    g = next(g for g in sorted(s4.elems) if frozenset(x.conj(g) for x in S.elems) != S.elems)
    return frozenset(x.conj(g) for x in S.elems)


def test_restrict_matches_perm_oracle_on_failures(L_s4, L_s3xs3, s4, s3xs3):
    """The failing restrictions of the three tests above, and one with X
    outside S, raise the same exception with the same message on masks as
    on element sets."""
    S, Z, other = L_s4.S, gp.center(L_s4.S), _other_sylow(s4)
    cases = [
        (L_s4, L_s4.elems, [S.mask(Z.elems)], Z, GammaNotClosed),
        (L_s3xs3, L_s3xs3.elems, [L_s3xs3.S.mask(K.elems) for K in gp.all_subgroups(L_s3xs3.S)],
         s3xs3.trivial_subgroup(), Q1Violated),
        (L_s4, s4.mask(other), [S.mask(K.elems) for K in gp.all_subgroups(gp.Subgroup(S.elems & other))],
         s4.trivial_subgroup(), NotSylow),
        (L_s4, L_s4.elems, L_s4.Delta, gp.generate_group(perms(4, "(0 1 2)")), Q1Violated),
    ]
    for L, H, Gamma, X, error in cases:
        got = _restrict_outcome(lo.restrict, L, H, Gamma, X)
        assert got[0] is error
        assert got == _restrict_outcome(oracles.restrict_by_perms, L, H, Gamma, X)


def test_restrict_makes_no_perm_products(monkeypatch, L_l27, L_s4, F_s4):
    """Once the ambient tables, the subgroup lattices of S on the home and
    the normalizers are built, restriction is mask and index work: L_l27's
    locality rebuilt from a fresh one and one bN restriction of a fresh
    copy of L_s4 multiply and conjugate no Perms and close nothing; the
    lattice of R is read off S's."""
    G, S = L_l27.ambient, L_s4.S
    # a transposition subgroup, fully normalized with N_S(Z) of order 4
    Z = next(
        X for X in gp.all_subgroups(S)
        if X.order == 2 and gp.normalizer(S, X) != S
        and fu.is_fully_K_normalized(F_s4, X, gp.aut_group(X))
    )
    K = gp.aut_group(Z)
    H = lo.K_normalizer_partial(L_s4, Z, K)
    Gamma = frozenset(S.mask(P.elems) for P in fu.subcentric_set(fu.K_normalizer_subsystem(F_s4, Z, K)))
    bn = lo.restrict(L_s4, H, Gamma, Z)  # warms the normalizer of R
    z = S.mask(Z.elems)
    assert bn.S.elems < S.elems and any(P != z and not z & ~P for P in Gamma)
    gp.normalizer(G, L_l27.S)
    fresh = [
        lo.Locality(M.ambient, M.elems, M.Delta, M.S_elems, 2) for M in (L_l27, L_s4)
    ]
    for M in fresh:
        gp.lattice(M.S)
    calls = []
    for name in ("__mul__", "conj"):
        real = getattr(Perm, name)

        def spy(self, other, real=real, name=name):
            calls.append(name)
            return real(self, other)

        monkeypatch.setattr(Perm, name, spy)
    real_close = gp.mulclose

    def close(*args, **kwargs):
        calls.append("mulclose")
        return real_close(*args, **kwargs)

    monkeypatch.setattr(gp, "mulclose", close)
    assert lo.restrict(fresh[0], fresh[0].elems, fresh[0].Delta, G.trivial_subgroup()) == L_l27
    assert lo.restrict(fresh[1], H, Gamma, Z) == bn
    assert calls == []


def test_l27_locality_is_partial(L_l27):
    assert L_l27.elems.bit_count() == 104 and len(L_l27.Delta) == 9
    assert 1 not in L_l27.Delta  # the mask of the trivial subgroup


def test_bC_of_center(L_s4, F_s4, s4):
    Z = gp.Subgroup(gp.center(gp.sylow_subgroup(s4, 2)).elems)
    bc = lo.bC(L_s4, F_s4, Z)
    CF = fu.centralizer_subsystem(F_s4, Z)
    assert bc.S == CF.S
    assert bc.elems == gp.centralizer(s4, Z).home_mask  # Gamma contains 1 here
    assert lo.verify_subcentric_locality(bc, CF).passed


def test_bN_requires_fully_K_normalized(L_s4, F_s4, s4):
    Y = gp.Subgroup(gp.mulclose(perms(4, "(0 2)(1 3)"), cap=24))
    with pytest.raises(NotFullyKNormalized):
        lo.bN(L_s4, F_s4, Y)  # conjugate center has a larger normalizer


def test_N_F_and_bN_search_no_automorphism_group(monkeypatch):
    """N_F(X), full normalization and bN_L(X) read K = Aut(X) only through
    K cap Aut_F(X) = Aut_F(X), so on a fresh home the subcentric set, which
    forms N_F(Q) for a fully normalized Q of each class, and bN_L(X) for
    every fully normalized X run no search of Aut(X)."""
    searched, real = [], gp._automorphisms
    monkeypatch.setattr(gp, "_automorphisms", lambda X: searched.append(X) or real(X))
    G = gp.generate_group(perms(4, "(0 1 2 3)", "(0 1)"))
    S = gp.sylow_subgroup(G, 2)
    F = fu.fusion_of_group(G, S, 2)
    L = lo.build_group_locality(G, S, [S.mask(P) for P in fu.subcentric_set(F)], 2)
    normalized = [X for X in F.subgroups() if fu.is_fully_normalized(F, X)]
    assert all(lo.bN(L, F, X).S == fu.normalizer_subsystem(F, X).S for X in normalized)
    assert len(normalized) > 1 and searched == []


# -- K-normalizer partial subgroups ---------------------------------------------


def test_K_normalizer_named_cases(L_s4, s4, klein):
    V = gp.Subgroup(klein.elems)
    NL = lo.K_normalizer_partial(L_s4, V, gp.aut_group(V))
    assert NL == gp.normalizer(s4, V).home_mask
    CL = lo.K_normalizer_partial(L_s4, V, gp.trivial_aut_group(V))
    assert CL == gp.centralizer(s4, V).home_mask


def test_K_normalizer_is_partial_subgroup(L_s3xs3, s3xs3):
    S = gp.sylow_subgroup(s3xs3, 2)
    X = gp.Subgroup(gp.mulclose(perms(6, "(1 2)"), cap=36))
    ps = lo.K_normalizer_partial(L_s3xs3, X, gp.aut_group(X))
    assert lo.partial_subgroup_violation(L_s3xs3, ps) is None


def test_K_normalizer_matches_definition(L_s3xs3, s3xs3):
    """N_L^K(X) = {f in L : X <= S_f, X^f = X, c_f|_X in K}, for every
    X <= S and K in {Aut(X), Inn(X), 1}, on a genuinely partial locality."""
    S = gp.sylow_subgroup(s3xs3, 2)
    for X in gp.all_subgroups(S):
        xe = X.elems
        for K in (gp.aut_group(X), gp.inn_group(X), gp.trivial_aut_group(X)):
            expected = s3xs3.mask(
                f
                for f in L_s3xs3.sorted_elements()
                if xe <= lo.S_f(L_s3xs3, f).elems
                and frozenset(x.conj(f) for x in xe) == xe
                and oracles.conj_map(xe, f) in oracles.as_pairs(X, K.maps)
            )
            assert lo.K_normalizer_partial(L_s3xs3, X, K) == expected


# -- partial normal subgroups ---------------------------------------------------


def test_partial_normal_cases(L_s4, N_s4, a4):
    assert N_s4 == L_s4.ambient.mask(a4.elems)
    assert lo.is_partial_normal(L_s4, N_s4)
    assert lo.is_partial_normal(L_s4, L_s4.elems)
    bad = L_s4.ambient.mask(perms(4, "()", "(0 1)"))
    viol = lo.partial_normal_violation(L_s4, bad)
    assert viol is not None and viol["kind"] == "conjugation"


@pytest.mark.parametrize("name", ["L_s4", "L_s3xs3"])
def test_ambient_normal_subgroup_meets_L_in_a_partial_normal_subgroup(name, request):
    # the fact a corpus entry's N = H cap L rests on, on the whole group
    # locality of S4 and on one of S3 x S3 that is not its ambient group
    L = request.getfixturevalue(name)
    normals = oracles.normal_subgroups_by_classes(L.ambient)
    lattice = {H.elems for H in gp.all_subgroups(L.ambient) if H.is_normal_in(L.ambient)}
    assert normals == lattice and len(normals) > 2
    for H in normals:
        assert lo.partial_normal_violation(L, L.ambient.mask(H) & L.elems) is None


# -- products --------------------------------------------------------------------


def test_product_with_trivial(L_s4, N_s4, s4):
    one = gp.Subgroup(frozenset([s4.identity]))
    NX = lo.product_partial(L_s4, N_s4, one)
    assert NX == N_s4


def test_product_with_sylow_is_whole_locality(L_s4, N_s4, s4):
    S = gp.sylow_subgroup(s4, 2)
    NS = lo.product_partial(L_s4, N_s4, gp.Subgroup(S.elems))
    assert NS == L_s4.elems


def test_product_fusion_absorbed(L_s4, N_s4, E_s4, s4):
    Z = gp.Subgroup(gp.center(gp.sylow_subgroup(s4, 2)).elems)
    EX = lo.product_fusion(L_s4, N_s4, Z)  # Z <= T, so E X = E
    assert EX == E_s4


def test_product_fusion_with_outside_x(L_s4, N_s4, F_s4, s4):
    X = gp.Subgroup(gp.mulclose(perms(4, "(0 1)"), cap=24))
    EX = lo.product_fusion(L_s4, N_s4, X)
    assert EX == F_s4  # A4 <(0 1)> = S4 and T X = S


# -- fusion of partial subgroups --------------------------------------------------


def test_fusion_of_partial_sylow(L_s4, s4):
    S = gp.sylow_subgroup(s4, 2)
    F = lo.fusion_of_partial(L_s4, S.home_mask)
    assert F == fu.close_generated(gp.Subgroup(S.elems), 2)


def test_fusion_of_whole_locality_is_F(L_s4, F_s4):
    got = lo.fusion_of_partial(L_s4, L_s4.elems)
    assert got == F_s4


def test_fusion_of_partial_alternating(L_s4, N_s4, E_s4):
    assert lo.fusion_of_partial(L_s4, N_s4) == E_s4


def test_fusion_of_partial_shared_by_restrictions(monkeypatch, F_s4, E_s4):
    """Localities over one home share the systems of their partial
    subgroups, kept on the home: two equal restrictions built apart get one
    F_S(L) from one closure, the home's F_S(G) itself, and another N gets
    another system. Localities built apart over the same home close nothing
    again; over a second home with equal elements, F_S(L) is closed once
    more, into that home's system. Both homes are new, so no other test has
    closed anything on them."""
    L, F = _s4_locality()
    s4, S = L.ambient, L.S
    N = s4.generated_subgroup(perms(4, "(0 1 2)", "(0 1)(2 3)")).home_mask & L.elems
    closed = []
    real = lo.close_generated

    def spy(R, *args, **kwargs):
        closed.append(R.elems)
        return real(R, *args, **kwargs)

    monkeypatch.setattr(lo, "close_generated", spy)
    one = s4.trivial_subgroup()
    first, second = (lo.restrict(L, L.elems, L.Delta, one) for _ in range(2))
    assert first is not second and first == second
    got = lo.fusion_of_partial(first, first.elems)
    assert lo.fusion_of_partial(second, second.elems) is got
    assert got is F and got == F_s4 and len(closed) == 1
    other = lo.fusion_of_partial(second, N)
    assert other == E_s4 and other != got and len(closed) == 2
    apart = [lo.group_locality(s4, S, 2) for _ in range(2)]
    assert apart[0] is not apart[1] and apart[0] == apart[1]
    assert all(lo.fusion_of_partial(A, A.elems) is got for A in apart) and len(closed) == 2
    L2, F2 = _s4_locality()
    assert L2.ambient is not s4 and L2.ambient == s4 and L2 == L
    F_L2 = lo.fusion_of_partial(L2, L2.elems)
    assert F_L2 == got and F_L2 is not got and F_L2 is F2 and len(closed) == 3


# -- element sets from the caller ------------------------------------------------


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda L, out, one: lo.restrict(L, out, L.Delta, one), id="restrict"),
        pytest.param(lambda L, out, one: lo.partial_subgroup_violation(L, out), id="partial_subgroup_violation"),
        pytest.param(lambda L, out, one: lo.partial_normal_violation(L, out), id="partial_normal_violation"),
        pytest.param(lambda L, out, one: lo.is_partial_normal(L, out), id="is_partial_normal"),
        pytest.param(lambda L, out, one: lo.fusion_of_partial(L, out), id="fusion_of_partial"),
        pytest.param(lambda L, out, one: lo.product_partial(L, out, one), id="product_partial"),
        pytest.param(lambda L, out, one: lo.product_fusion(L, out, one), id="product_fusion"),
    ],
)
def test_set_outside_locality_is_rejected(call, L_s3xs3, s3xs3):
    """A partial subgroup is its mask; one not inside L is refused."""
    assert s3xs3.home_mask & ~L_s3xs3.elems
    with pytest.raises(ValueError, match="not inside the partial group"):
        call(L_s3xs3, s3xs3.home_mask, s3xs3.trivial_subgroup())


# -- axiom verification on negatives ----------------------------------------------


def test_verify_locality_flags_missing_overgroup(s4):
    rep = lo.verify_locality(_missing_overgroup(s4))
    assert rep.failed
    assert rep.witness["axiom"].startswith("Delta")


def _clause_case(name, s3, s4, d8):
    """The structure that fails verify_locality first at the named clause,
    its sets given as sets of Perms: e, c3 and t are S3's (), (0 1 2) and
    (1 2)."""
    e, c3, t = s3.identity, *perms(3, "(0 1 2)", "(1 2)")
    C2 = {e, t}
    if name == "S-p-group":  # S = <(1 2)> at p = 3
        return _locality(s3, {e}, [C2], C2, p=3)
    if name == "S-outside-L":  # S_() = 1 is no object, and S is not in L
        return _locality(s3, {e}, [C2], C2)
    if name == "S-maximal":  # S = 1 at p = 3 in L = S3, which holds A3
        return _locality(s3, s3.elems, [{e}], {e}, p=3)
    if name == "length-one-domain":  # S = <(1 2)>, the one object, in L = S3
        return _locality(s3, s3.elems, [C2], C2)
    if name == "inversion-closure":  # (0 1 2) in L, its inverse not
        return _locality(s3, {e, c3, t}, [C2], C2)
    if name == "splice-domain":  # (1 2)(0 1), a 3-cycle, not in L
        return _splice_fault(s3)
    if name == "Delta-in-S":  # a 3-element mask that is no subgroup of S
        L = lo.group_locality(s4, gp.sylow_subgroup(s4, 2), 2)
        return lo.Locality(s4, L.elems, L.Delta | {0b111}, L.S_elems, 2)
    if name == "Delta-conjugation":  # (1 3) moves <(0 1)(2 3)> out of Delta
        V = gp.mulclose(perms(4, "(0 1)(2 3)", "(0 2)(1 3)"))
        return _locality(d8, d8.elems, [V, gp.mulclose(perms(4, "(0 1)(2 3)"))], V)
    if name == "Delta-overgroups":  # 1 an object, <(1 3)> not
        W = gp.mulclose(perms(4, "(1 3)", "(0 2)"))
        return _locality(d8, d8.elems, [W, {d8.identity}], W)
    raise KeyError(name)


CLAUSE_WITNESSES = {
    "S-p-group": {"axiom": "S-p-group"},
    "S-outside-L": {"axiom": "S-maximal"},
    "S-maximal": {"axiom": "S-maximal"},
    "Delta-in-S": {"axiom": "Delta-in-S", "object_order": 3},
    "Delta-conjugation": {"axiom": "Delta-conjugation", "f": "(1 3)"},
    "Delta-overgroups": {"axiom": "Delta-overgroups", "object_order": 1},
    "length-one-domain": {"axiom": "length-one-domain", "w": ["(0 1)"]},
    "inversion-closure": {
        "axiom": "partial-group", "inner": {"axiom": "inversion-closure", "x": "(0 1 2)"}
    },
    "splice-domain": {
        "axiom": "partial-group",
        "inner": {"axiom": "splice-domain", "w": ["(1 2)", "(0 1)"], "i": 0, "j": 2},
    },
}


@pytest.mark.parametrize("name", list(CLAUSE_WITNESSES))
def test_each_locality_clause_fails_first_on_its_witness(name, s3, s4, d8):
    """Each clause of verify_locality, and each of verify_partial_group's
    two, inversion closure and the pair product, is the first to fail on
    one small structure, so deleting that clause alone changes the verdict
    or its witness. S outside L, where S_f
    is no object, fails first at `S-maximal`, which no S_f clause
    precedes."""
    rep = lo.verify_locality(_clause_case(name, s3, s4, d8))
    assert rep.failed and rep.witness == CLAUSE_WITNESSES[name]


def test_subcentric_rejects_another_base(s3):
    """L over <(0 2)> against F_{<(1 2)>}(S3): the bases differ."""
    L = lo.build_group_locality(s3, s3.generated_subgroup(perms(3, "()", "(0 2)")), [1, 3], 2)
    F = fu.fusion_of_group(s3, s3.generated_subgroup(perms(3, "()", "(1 2)")), 2)
    assert lo.verify_subcentric_locality(L, F).witness == {"axiom": "same-S"}


def test_subcentric_rejects_another_fusion_system(s3):
    """S3's group locality at p = 3 has Delta = {A3, 1}, the subcentric set
    of A3's inner system too, but F_S(L) is F_{A3}(S3), not that system."""
    A3 = gp.sylow_subgroup(s3, 3)
    L = lo.build_group_locality(s3, A3, gp.lattice(A3), 3)
    rep = lo.verify_subcentric_locality(L, fu.close_generated(A3, 3))
    assert rep.witness == {"axiom": "F_S(L)-is-F"}


def test_subcentric_rejects_wrong_delta(s4, F_s4):
    S = gp.sylow_subgroup(s4, 2)
    sub4 = frozenset(S.mask(H.elems) for H in gp.all_subgroups(S) if H.order >= 4)
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
    Delta = frozenset(S.mask(P.elems) for P in fu.subcentric_set(F))
    L = lo.build_group_locality(A5, S, Delta, 2)
    assert L.elems == A5.home_mask
    rep = lo.verify_subcentric_locality(L, F)
    assert rep.failed
    assert rep.witness["axiom"] == "N_L(P)-characteristic-p"


# -- planted faults: one broken axiom each, with its first witness --------------


def _subword_fault(object_gens, elems=None):
    """Over the base <(0 1), (3 4), (6 7)>, the elements <(0 2), (3 5),
    (6 8)> or the given ones."""
    G = gp.generate_group(
        perms(9, "(0 1)", "(0 2)", "(3 4)", "(3 5)", "(6 7)", "(6 8)")
    )
    base = gp.generate_group(perms(9, "(0 1)", "(3 4)", "(6 7)")).elems
    objects = [base] + [gp.generate_group(perms(9, *gens)).elems for gens in object_gens]
    if elems is None:
        elems = gp.generate_group(perms(9, "(0 2)", "(3 5)", "(6 8)")).elems
    return _locality(G, elems, objects, base)


def _splice_fault(s3):
    elems = [s3.identity] + perms(3, "(0 1)", "(1 2)")
    one = frozenset([s3.identity])
    return _locality(s3, elems, [one], one)


def _splice_before_subword(s4, *elems):
    """S4 over the base Stab(0), with the objects the base and <(2 3)>, and
    the identity and the given elements."""
    base = gp.generate_group(perms(4, "(1 2 3)", "(1 2)")).elems
    C = gp.generate_group(perms(4, "(2 3)")).elems
    return _locality(s4, perms(4, "()", *elems), [base, C], base)


def _trivial_base(G):
    """All of G over the base 1, its one object: every word is in the
    domain."""
    one = {G.identity}
    return _locality(G, G.elems, [one], one)


def _l27_missing_conjugate(L_l27):
    dropped = L_l27.S.mask(perms(7, "()", "(2 4)(5 6)"))
    return lo.Locality(L_l27.ambient, L_l27.elems, L_l27.Delta - {dropped}, L_l27.S_elems, 2)


def _missing_overgroup(s4):
    S = gp.sylow_subgroup(s4, 2)
    Delta_bad = frozenset(H.elems for H in gp.all_subgroups(S) if H.order in (2, 8))
    return _locality(s4, s4.elems, Delta_bad | {S.elems}, S.elems)


def _trivial_object_only(s3xs3):
    """S3 x S3 with the objects S and 1 only, not closed under overgroups."""
    S = gp.sylow_subgroup(s3xs3, 2).elems
    return _locality(s3xs3, s3xs3.elems, [S, frozenset([s3xs3.identity])], S)


def _word(P, *letters):
    """The ambient indexes of a word of P's, given in cycle notation."""
    return P.ambient.indexes(perms(P.ambient.degree, *letters))


@pytest.mark.parametrize(
    "object_gens, i, j",
    [((("(0 1)",),), 0, 1), ((("(0 1)",), ("(0 1)", "(3 4)")), 1, 2)],
)
def test_planted_fault_subword(object_gens, i, j):
    """Objects not closed under overgroups: w = ((6 8), (3 5)) leaves the
    object <(0 1)>, so it lies in D, but its prefix ((6 8),) leaves
    <(0 1), (3 4)> and its suffix ((3 5),) leaves <(0 1), (6 7)>, so D is
    not closed under subwords: w[i:j] is outside it, the suffix alone once
    the prefix's survivor set is made an object too. The partial-group
    check reads pairs only and passes; verify_locality fails first at
    `Delta-overgroups`, which (2) of its proof reads for subword closure."""
    P = _subword_fault(object_gens)
    w = _word(P, "(6 8)", "(3 5)")
    assert P.word_ok(w) and not P.word_ok(w[i:j]) and P.word_ok(w[:i])
    assert lo.verify_partial_group(P).passed
    rep = lo.verify_locality(P)
    assert rep.witness == {"axiom": "Delta-overgroups", "object_order": 2}


def test_planted_fault_subword_prefix_only():
    """With the elements 1, (6 8) and (3 5)(6 8) only, the word
    ((6 8), (3 5)(6 8)) and its suffix leave the object <(0 1)>, but its
    prefix ((6 8),) leaves <(0 1), (3 4)>: the prefix alone is outside the
    domain. The word's product (3 5) is no element, so the pair check
    fails on it before `length-one-domain` sees the prefix; the check
    counts the 3 + 9 words of length 1 and 2, 8 of them in D."""
    P = _subword_fault((("(0 1)",),), perms(9, "()", "(6 8)", "(3 5)(6 8)"))
    w = _word(P, "(6 8)", "(3 5)(6 8)")
    assert P.word_ok(w) and P.word_ok(w[1:]) and not P.word_ok(w[:1])
    rep = lo.verify_locality(P)
    assert rep.witness == {
        "axiom": "partial-group",
        "inner": {"axiom": "splice-domain", "w": ["(6 8)", "(3 5)(6 8)"], "i": 0, "j": 2},
    }
    assert rep.stats == {"pg_words_checked": 12, "pg_domain_words": 8}


def test_planted_fault_trivial_object_only(s3xs3):
    """Objects S = <(1 2), (4 5)> and 1 of S3 x S3, not closed under
    overgroups. A word is in the domain iff R_w is an object, 1 being one
    or not: ((3 4), (0 1)) has R_w = 1, but its prefix ((3 4),) has R_w =
    <(1 2)>, which is not an object. Every element is in L, so the
    partial-group check passes, 1 060 of its 36 + 1 296 words in D, and
    verify_locality fails first at `Delta-overgroups` on the object 1."""
    P = _trivial_object_only(s3xs3)
    w = _word(P, "(3 4)", "(0 1)")
    assert P.word_ok(w) and not P.word_ok(w[:1])
    rep = lo.verify_locality(P)
    assert rep.witness == {"axiom": "Delta-overgroups", "object_order": 1}
    assert rep.stats == {"pg_words_checked": 1332, "pg_domain_words": 1060}


def test_planted_fault_splice_domain(s3):
    """Every word over two transpositions is accepted, but their product, a
    3-cycle, is not an element: splicing it in leaves the domain."""
    rep = lo.verify_partial_group(_splice_fault(s3))
    assert rep.failed
    assert rep.witness == {"axiom": "splice-domain", "w": ["(1 2)", "(0 1)"], "i": 0, "j": 2}


def test_planted_fault_lower_letter_fails_a_later_check(s4):
    """The letters in order are 1, (1 2), (1 3), (0 2). After (1 2), both
    (1 3) and (0 2) give a pair in the domain whose product, a 3-cycle, is
    no element, though ((0 2),) is outside the domain, R = <(1 3)> being no
    object. The pair check runs before `length-one-domain`, and the pairs
    go in the order of their letters, so the lower letter's pair is the
    witness; without (1 3), the higher one's is."""
    P = _splice_before_subword(s4, "(1 2)", "(1 3)", "(0 2)")
    assert not P.word_ok(_word(P, "(0 2)"))
    rep = lo.verify_locality(P)
    assert rep.witness == {
        "axiom": "partial-group",
        "inner": {"axiom": "splice-domain", "w": ["(1 2)", "(1 3)"], "i": 0, "j": 2},
    }
    assert rep.stats == {"pg_words_checked": 20, "pg_domain_words": 13}
    rep = lo.verify_locality(_splice_before_subword(s4, "(1 2)", "(0 2)"))
    assert rep.witness == {
        "axiom": "partial-group",
        "inner": {"axiom": "splice-domain", "w": ["(1 2)", "(0 2)"], "i": 0, "j": 2},
    }
    assert rep.stats == {"pg_words_checked": 12, "pg_domain_words": 7}


def test_planted_fault_inverse_word_domain(unclosed):
    """Objects not closed under conjugation: ((0 3 2 1),) leaves the object
    <(2 3)> of the base Stab(0), and its wbar w = ((0 1 2 3), (0 3 2 1))
    leaves the conjugate <(1 2)>, which is not one. The partial-group check
    reads only L = <(0 1 2 3)> and passes; verify_locality fails first at
    `S-p-group`, as Stab(0) is no 2-group."""
    w = _word(unclosed, "(0 3 2 1)")
    assert unclosed.word_ok(w) and not unclosed.word_ok(_word(unclosed, "(0 1 2 3)") + w)
    assert lo.verify_partial_group(unclosed).passed
    assert lo.verify_locality(unclosed).witness == {"axiom": "S-p-group"}


def _survivors(base, word):
    """R_w by definition: base elements whose prefix conjugates along the
    word all stay in the base."""
    out = set()
    for x in base:
        y = x
        for g in word:
            y = y.conj(g)
            if y not in base:
                break
        else:
            out.add(x)
    return frozenset(out)


def _mask(P, xs):
    """P's bitmask of the base elements xs."""
    return sum(1 << tuple(P.S).index(x) for x in xs)


@pytest.fixture(scope="module")
def unclosed(s4):
    """A structure whose objects are not closed under conjugation, so that
    R_{wbar w} differs from R_w: the cyclic group of order 4 in S4, over a
    base S3 with objects the base and one subgroup of order 2."""
    base = gp.generate_group(perms(4, "(1 2 3)", "(1 2)")).elems
    C = gp.generate_group(perms(4, "(2 3)")).elems
    elems = gp.generate_group(perms(4, "(0 1 2 3)")).elems
    return _locality(s4, elems, [base, C], base)


def test_walk_matches_whole_word_definitions(L_s3xs3, unclosed):
    """word_ok, one AND of survivor masks per letter along the prefix
    products, gives the whole-word definition's domain answer for every
    word w of length 0..3 over P's elements, and for its inverse word
    followed by it, wbar w: R_w, taken with Perm conjugation along the
    whole word, is an object."""
    for P in (L_s3xs3, unclosed):
        els, objects, verdicts = P.sorted_elements(), oracles.objects_of(P), Counter()
        for k in range(4):
            for w in itertools.product(els, repeat=k):
                wbar = tuple(g.inv() for g in reversed(w))
                for word in (w, wbar + w):
                    expected = _survivors(P.S, word) in objects
                    assert P.word_ok(P.ambient.indexes(word)) == expected
                    verdicts[expected] += 1
        assert verdicts[True] > 0 and verdicts[False] > 0


def _domain_against_chains(P, word_len) -> Counter:
    """Asserts, for every word over P of length 1..word_len, that word_ok
    accepts it exactly when the chain search finds an object chain along
    it; counts the verdicts."""
    els, verdicts = P.sorted_elements(), Counter()
    for k in range(1, word_len + 1):
        for w in itertools.product(els, repeat=k):
            has_chain = oracles.delta_chain_exists(P, w)
            assert P.word_ok(P.ambient.indexes(w)) == has_chain
            verdicts[has_chain] += 1
    return verdicts


@pytest.mark.parametrize("name, word_len", [("L_s3xs3", 3), ("L_l27", 2), ("L_s4", 2)])
def test_walked_domain_matches_chain_search(name, word_len, request):
    """Objectivity, checked by the independent chain search: the word rule
    accepts a word exactly when it has an object chain. L_s4 has the
    trivial subgroup as an object, so there every word has a chain."""
    P = request.getfixturevalue(name)
    verdicts = _domain_against_chains(P, word_len)
    assert verdicts[True] > 0
    assert (verdicts[False] > 0) == (1 not in P.Delta)  # 1: the trivial subgroup's mask


def test_walked_domain_matches_chain_search_on_random_structures(random_structures):
    """The same at length 2 once per distinct structure, by Locality
    equality, of the random ones that verify_locality passes: each is
    objective, as its docstring's theorem says, the genuinely partial ones
    among them too. The 119 that pass at seed 2107 hold 36 contents."""
    passed = {L for L, rep in random_structures if rep.passed}
    verdicts = sum((_domain_against_chains(L, 2) for L in passed), Counter())
    assert len(passed) >= 36 and verdicts[True] > 0 and verdicts[False] > 0


def test_planted_fault_l27_missing_conjugate(L_l27):
    """l27's L with one object of order 2 left out of Delta: the word rule
    follows the smaller Delta. For g = (0 1 2)(3 4 6), R_(g) =
    <(1 3)(4 5)> is still an object, but S cap S^g = R_(g^-1) = R_(g^-1, g)
    is the one left out, so g^-1 lies in L but not in D, and
    verify_locality fails first at `length-one-domain` on it."""
    dropped = L_l27.S.mask(perms(7, "()", "(2 4)(5 6)"))
    assert dropped in L_l27.Delta
    P = _l27_missing_conjugate(L_l27)
    g, gi = _word(P, "(0 1 2)(3 4 6)", "(0 2 1)(3 6 4)")
    assert P.word_ok([g]) and P.survivors[gi] == dropped and not P.word_ok([gi, g])
    assert lo.verify_partial_group(P).passed
    rep = lo.verify_locality(P)
    assert rep.witness == {"axiom": "length-one-domain", "w": ["(0 2 1)(3 6 4)"]}


def test_axiom_walk_makes_no_perm_products(monkeypatch, L_s3xs3):
    """The partial-group check is integer work only: with the ambient
    tables built, it makes no Perm product or conjugate. A fresh locality
    of L_s3xs3's content builds its conj_pos and survivor tables under the
    spy, so the word rule makes no Perm products either."""
    L_s3xs3.ambient.mul_table, L_s3xs3.ambient.inv_table
    calls = []
    for name in ("__mul__", "conj"):
        real = getattr(Perm, name)

        def spy(self, other, real=real, name=name):
            calls.append(name)
            return real(self, other)

        monkeypatch.setattr(Perm, name, spy)
    L = lo.Locality(L_s3xs3.ambient, L_s3xs3.elems, L_s3xs3.Delta, L_s3xs3.S_elems, 2)
    assert lo.verify_partial_group(L).passed
    assert calls == []
    assert len(L.survivors) == L.ambient.order


STRUCTURES = {
    "L_s3xs3": lambda request: request.getfixturevalue("L_s3xs3"),
    "L_l27": lambda request: request.getfixturevalue("L_l27"),
    "unclosed": lambda request: request.getfixturevalue("unclosed"),
    "group-s3": lambda request: lo.group_locality(
        request.getfixturevalue("s3"), gp.sylow_subgroup(request.getfixturevalue("s3"), 2), 2
    ),
    "subword-prefix": lambda request: _subword_fault((("(0 1)",),)),
    "subword-suffix": lambda request: _subword_fault((("(0 1)",), ("(0 1)", "(3 4)"))),
    "subword-prefix-only": lambda request: _subword_fault(
        (("(0 1)",),), perms(9, "()", "(6 8)", "(3 5)(6 8)")
    ),
    "splice": lambda request: _splice_fault(request.getfixturevalue("s3")),
    "splice-before-subword": lambda request: _splice_before_subword(
        request.getfixturevalue("s4"), "(1 2)", "(1 3)", "(0 2)"
    ),
    "trivial-base": lambda request: _trivial_base(request.getfixturevalue("s3xs3")),
    "missing-overgroup": lambda request: _missing_overgroup(request.getfixturevalue("s4")),
    "trivial-object-only": lambda request: _trivial_object_only(request.getfixturevalue("s3xs3")),
    "l27-trivial-base": lambda request: _trivial_base(request.getfixturevalue("L_l27").ambient),
    "length-one-domain": lambda request: _clause_case(
        "length-one-domain", *map(request.getfixturevalue, ("s3", "s4", "d8"))
    ),
    "l27-missing-conjugate": lambda request: _l27_missing_conjugate(
        request.getfixturevalue("L_l27")
    ),
}


# the STRUCTURES that verify_locality passes
PASSING = {"L_s3xs3", "L_l27", "group-s3"}


@pytest.mark.parametrize(
    "name, word_len",
    [(name, 2) for name in STRUCTURES]
    # at word_len 3 the whole-word check of l27's 104 and 168 elements and
    # of S3 x S3's 36 takes seconds each
    + [
        (name, 3)
        for name in STRUCTURES
        if name not in ("L_l27", "l27-trivial-base", "trivial-base")
    ],
)
def test_axiom_walk_matches_whole_word_oracle(name, word_len, request):
    """verify_locality's theorem against the whole-word check, which
    multiplies Perms and reads R_w off each word, on localities and on
    every planted-fault structure above: a structure that verify_locality
    passes passes the partial-group axioms on every word of length at most
    word_len, and one that fails them fails verify_locality. S3's group
    locality and the two named localities pass; every other structure
    fails verify_locality, and the whole-word check on some of them."""
    P = STRUCTURES[name](request)
    assert _theorem_against_oracle(P, lo.verify_locality(P), word_len)[0] == (name in PASSING)


def _theorem_against_oracle(P, rep, word_len):
    """(verify_locality's outcome, the whole-word check's at word_len),
    asserting the theorem's implication: a pass of verify_locality is a
    pass of the whole-word check, so an oracle failure is a failure of
    verify_locality. The outcomes are booleans, True for a pass."""
    outcome = oracles.partial_group_by_words(P, word_len)[0] == "pass"
    assert outcome or not rep.passed
    return rep.passed, outcome


def _closed_objects(G, S, Delta):
    """The smallest set of masks over S holding Delta that is closed under
    overgroups in S and under conjugation by G inside S."""
    lattice = sorted(gp.lattice(S))
    mask_of = {frozenset(gp.elements(S, m)): m for m in lattice}
    out = set(Delta)
    while True:
        grown = {m for d in out for m in lattice if not d & ~m}
        for d in list(grown):
            P = gp.elements(S, d)
            grown |= {mask_of[Q] for Q in (frozenset(x.conj(g) for x in P) for g in G) if Q in mask_of}
        if grown == out:
            return out
        out = grown


def _random_locality_args(rng, groups):
    """Locality arguments over a random one of groups and a prime p
    dividing its order, S its Sylow p-subgroup: objects S and a random set
    of subgroups of S, closed (see _closed_objects) half of the time, and
    the f with S cap S^(f^-1) an object, with one element toggled 30 % of
    the time and replaced by a random set, holding S or not, 15 %."""
    G = groups[rng.choice(sorted(groups))]
    p = rng.choice([q for q in (2, 3) if G.order % q == 0])
    S = gp.sylow_subgroup(G, p)
    lattice = sorted(gp.lattice(S))
    Delta = {(1 << S.order) - 1} | set(rng.sample(lattice, rng.randrange(len(lattice) + 1)))
    if rng.random() < 0.5:
        Delta = _closed_objects(G, S, Delta)
    elems, base = _objective_elems(G, S, Delta), frozenset(S)
    r = rng.random()
    if r < 0.3:
        elems ^= {rng.choice(list(G))}
    elif r < 0.45:
        elems = {f for f in G if rng.random() < 0.5} | (base if rng.random() < 0.5 else set())
    return G, G.mask(elems), frozenset(Delta), G.home_mask_of(S), p


def _objective_elems(G, S, Delta):
    """The f in G with S cap S^(f^-1) in Delta, masks over S."""
    base = frozenset(S)
    return {f for f in G if S.mask(x for x in base if x.conj(f) in base) in Delta}


def _partial_locality_args(rng, G):
    """Locality arguments over G at p = 2, S its Sylow 2-subgroup: objects
    the closure (see _closed_objects) of a random nonempty set of
    nontrivial subgroups of S, and the f with S cap S^(f^-1) an object.
    Over S3 x S3 such a locality passes, and is often genuinely partial."""
    S = gp.sylow_subgroup(G, 2)
    nontrivial = sorted(m for m in gp.lattice(S) if m != 1)  # 1: the trivial subgroup's mask
    Delta = _closed_objects(G, S, rng.sample(nontrivial, rng.randrange(1, len(nontrivial) + 1)))
    return G, G.mask(_objective_elems(G, S, Delta)), frozenset(Delta), G.home_mask_of(S), 2


@pytest.fixture(scope="module")
def random_structures(s3, a4, d8, s3xs3):
    """230 seeded random Localities, each with its verify_locality report:
    200 over S3, A4, D8, D12 and S3 x C2 (see _random_locality_args), then
    30 over S3 x S3 (see _partial_locality_args)."""
    groups = {
        "S3": s3, "A4": a4, "D8": d8,
        "D12": gp.generate_group(perms(6, "(0 1 2 3 4 5)", "(0 5)(1 4)(2 3)")),
        "S3xC2": gp.generate_group(perms(5, "(0 1 2)", "(0 1)", "(3 4)")),
    }
    rng = random.Random(2107)
    localities = [lo.Locality(*_random_locality_args(rng, groups)) for _ in range(200)]
    localities += [lo.Locality(*_partial_locality_args(rng, s3xs3)) for _ in range(30)]
    return [(L, lo.verify_locality(L)) for L in localities]


def test_random_structures_include_genuinely_partial_localities(random_structures):
    """At least 10 of the passing random structures have a word of two
    letters of L outside the domain, so the tests over them see
    localities that are not groups."""
    partial = 0
    for L, rep in random_structures:
        letters = gp.bits(L.elems)
        partial += rep.passed and not all(L.word_ok((a, b)) for a in letters for b in letters)
    assert partial >= 10


def test_theorem_matches_whole_word_oracle_on_random_structures(random_structures):
    """verify_locality's theorem against the whole-word check at length 3
    (see _theorem_against_oracle), once per distinct structure of the 230
    random ones, by Locality equality, that verify_locality passes: the
    implication holds whatever the oracle says on one that it fails, and
    the oracle's own failures are seen on STRUCTURES. On each passing one
    N_L(P), for every object P, is a subgroup with every pair in D: the
    conditions verify_subcentric_locality does not check."""
    passed = {L: rep for L, rep in random_structures if rep.passed}
    for L, rep in passed.items():
        assert _theorem_against_oracle(L, rep, 3) == (True, True)
        for P in map(L.S.from_mask, L.Delta):
            NP = lo.normalizer_partial(L, P)
            assert lo.partial_subgroup_violation(L, NP) is None
            assert len(list(lo._domain_pairs(L, NP, NP))) == NP.bit_count() ** 2
    outcomes = Counter(rep.outcome for _, rep in random_structures)
    assert outcomes["pass"] >= 50 and outcomes["fail"] >= 50 and len(passed) >= 30


@pytest.fixture(scope="module")
def default_run():
    """Each distinct structure whose partial-group axioms a run of the
    default corpus checks, and each distinct locality whose partial
    subgroups' germs it reads (_partial_germs), the run seeing one usable
    CPU."""
    checked, germ_sources = {}, {}
    real_check, real_germs = lo.verify_partial_group, lo._partial_germs

    def check(P):
        checked.setdefault(P, P)
        return real_check(P)

    def germs(L, N, R, frame):
        germ_sources.setdefault(L, L)
        return real_germs(L, N, R, frame)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lo, "verify_partial_group", check)
        mp.setattr(lo, "_partial_germs", germs)
        one_cpu(mp)
        reports, _ = vf.run_suite(cli.parse_corpus(cli.default_corpus_text()))
    assert not any(r.failed for r in reports)
    return list(checked), list(germ_sources)


@pytest.fixture(scope="module")
def default_structures(default_run):
    return default_run[0]


def test_S_f_is_S_cap_its_conjugate_in_localities(default_run, L_l27):
    """For f in a locality, S_f = S cap S^(f^-1), the x in S with x^f in
    S, taken here by Perm conjugation: the fact that lets _partial_germs
    read f's conj_pos row uncut. Checked for every f on each structure the
    default corpus verifies, on each locality whose germs it reads (20,
    restrictions among them, with 135 elements in all) and on l27's
    locality."""
    structures, germ_sources = default_run
    assert len(germ_sources) == 20
    localities = {*structures, *germ_sources, L_l27}
    for L in localities:
        masks, S = lo._S_f_masks(L), L.S.elems
        for a, f in enumerate(L.ambient):
            if L.elems >> a & 1:
                assert masks[a] == L.S.mask(x for x in S if x.conj(f) in S)
    assert sum(L.elems.bit_count() for L in germ_sources) == 135


def _s4_locality():
    """S4's subcentric locality, over a newly generated copy of S4."""
    G = gp.generate_group(perms(4, "(0 1 2 3)", "(0 1)"))
    S = gp.sylow_subgroup(G, 2)
    F = fu.fusion_of_group(G, S, 2)
    return lo.build_group_locality(G, S, frozenset(S.mask(P.elems) for P in fu.subcentric_set(F)), 2), F


def test_localities_over_equal_homes_are_one_content():
    """Two localities over separately generated ambient homes with equal
    elements have equal masks, so they compare and hash equal, and the
    keys each files in its memo, and each home in its kept results and its
    table of systems, are the other's. The memo holds S_f and one bN_K
    per (F, K cap Aut_F(X)): bC and bN of Z(S) are one, as Aut_F(Z(S)) is
    trivial, and those of S two."""
    (L1, F1), (L2, F2) = _s4_locality(), _s4_locality()
    assert L1.ambient is not L2.ambient and L1.ambient == L2.ambient
    assert L1 == L2 and hash(L1) == hash(L2)
    for L, F in ((L1, F1), (L2, F2)):
        Z = gp.center(L.S)
        lo.fusion_of_partial(L, L.elems)
        for X in (Z, L.S):
            lo.bC(L, F, X)
            lo.bN(L, F, X)
        lo.fusion_of_partial(L, lo.K_normalizer_partial(L, Z, gp.aut_group(Z)))
    assert len(L1._memo) > 3 and set(L1._memo) == set(L2._memo)
    kept = [set(L.ambient._kept) for L in (L1, L2)]
    assert kept[0] == kept[1]
    assert {"fusion_of_partial", "closure"} <= {key[0] for key in kept[0]}
    tables = [L.ambient._kept.get("systems") for L in (L1, L2)]
    assert len(tables[0]) > 3 and set(tables[0]) == set(tables[1])


@pytest.mark.parametrize(
    "case, message",
    [
        ("element-beyond-ambient", "elements not inside the ambient group"),
        ("negative-elements", "elements not inside the ambient group"),
        ("S-beyond-ambient", "elements not inside the ambient group"),
        ("object-beyond-S", "objects not inside S"),
        ("negative-object", "objects not inside S"),
        ("ambient-not-a-home", "must be a home"),
        ("base-not-an-object", "the base itself must be an object"),
    ],
)
def test_locality_refuses_sets_outside_its_groups(L_s4, case, message):
    """The constructor checks its masks: elements and S inside the ambient
    group, a home, each object inside S, and S among the objects."""
    G, S, top = L_s4.ambient, L_s4.S_elems, (1 << L_s4.S.order) - 1
    args = {
        "element-beyond-ambient": (G, L_s4.elems | 1 << G.order, [top], S),
        "negative-elements": (G, -1, [top], S),
        "S-beyond-ambient": (G, L_s4.elems, [top], S | 1 << G.order),
        "object-beyond-S": (G, L_s4.elems, [top, 1 << L_s4.S.order], S),
        "negative-object": (G, L_s4.elems, [top, -1], S),
        "ambient-not-a-home": (L_s4.S, 1, [top], 1),
        "base-not-an-object": (G, L_s4.elems, [1], S),
    }[case]
    with pytest.raises(ValueError, match=message):
        lo.Locality(*args, 2)


def test_a_locality_and_its_rule_refuse_assignment(L_s4):
    """A Locality's word rule, its conj_pos and survivors tables, is the
    one its constructor built, the hypothesis of verify_locality's
    theorem: assigning any field of a Locality, those two included, or a
    new one such as a rule, raises AttributeError and changes nothing."""
    L = lo.Locality(L_s4.ambient, L_s4.elems, L_s4.Delta, L_s4.S_elems, 2)
    fields = {name: getattr(L, name) for name in lo.Locality.__slots__}
    assert {"conj_pos", "survivors"} <= set(fields)
    for name in (*fields, "rule"):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(L, name, None)
    assert L == L_s4 and all(getattr(L, name) is value for name, value in fields.items())
    assert not hasattr(L, "rule")


def test_axiom_walk_matches_whole_word_oracle_on_default_structures(default_structures):
    """On each distinct structure the default corpus verifies, 20 by
    Locality equality (19 by element sets, objects and base: two share
    them over different ambient groups, so their masks differ),
    verify_locality passes, and so does the whole-word check at length 3
    (see _theorem_against_oracle)."""
    assert len(default_structures) == 20
    assert len({(P.elems, P.Delta, P.S_elems) for P in default_structures}) == 20
    contents = {
        (oracles.elems_of(P, P.elems), oracles.objects_of(P), P.S.elems) for P in default_structures
    }
    assert len(contents) == 19
    for P in default_structures:
        assert _theorem_against_oracle(P, lo.verify_locality(P), 3) == (True, True)


@pytest.mark.parametrize("name", ["L_l27", "L_s3xs3", "unclosed"])
def test_domain_pairs_match_in_domain(name, request):
    """The pair check on the integer tables yields exactly the pairs that
    in_domain accepts, in the order of its arguments, each with the index
    of its product; elements outside L give no pair."""
    P = request.getfixturevalue(name)
    els, ambient = P.sorted_elements(), tuple(P.ambient)
    index = {g: a for a, g in enumerate(ambient)}
    expected = [
        (index[a], index[b], index[a * b])
        for a in els
        for b in ambient
        if P.in_domain((a, b))
    ]
    assert 0 < len(expected) < len(els) * len(ambient)
    assert list(lo._domain_pairs(P, P.ambient.home_mask, P.ambient.home_mask)) == expected


@pytest.mark.parametrize("name", ["L_s3xs3", "L_l27", "unclosed", "trivial-base"])
def test_survivor_table_matches_conjugation(name, request):
    """The survivor table, read off the ambient product and inverse
    tables, holds for the a-th ambient element the mask of the base elements
    whose Perm conjugate by it lies in the base. The trivial-base
    structure has the base 1."""
    P = STRUCTURES[name](request)
    ambient = tuple(P.ambient)
    assert len(P.survivors) == len(ambient)
    for a, g in enumerate(ambient):
        assert P.survivors[a] == _mask(P, [x for x in P.S if x.conj(g) in P.S])


@pytest.mark.parametrize("name", ["L_s3xs3", "L_l27", "unclosed", "trivial-base"])
def test_conj_pos_matches_conjugation(name, request):
    """conj_pos[a][i], read off the ambient tables, is the base position of
    the Perm conjugate of the i-th base element by the a-th ambient element,
    -1 when it leaves the base; survivors[a] holds the positions that stay."""
    P = STRUCTURES[name](request)
    ambient, base = tuple(P.ambient), tuple(P.S)
    assert len(P.conj_pos) == len(ambient)
    for a, g in enumerate(ambient):
        expected = tuple(
            base.index(x.conj(g)) if x.conj(g) in P.S else -1 for x in base
        )
        assert P.conj_pos[a] == expected
        assert P.survivors[a] == sum(1 << i for i, j in enumerate(expected) if j >= 0)


@pytest.mark.parametrize("name", ["L_l27", "unclosed"])
def test_S_f_mask_matches_definition(name, request):
    """The S_f mask of every element f of the ambient group holds the x in S
    with (f^-1, x, f) in the domain and x^f in S; the public S_f is its
    subgroup, and raises for an f with none, such as one outside L."""
    P = request.getfixturevalue(name)
    masks, S = lo._S_f_masks(P), P.S.elems
    verdicts = Counter()
    for a, f in enumerate(P.ambient):
        fi = f.inv()
        expected = frozenset(x for x in S if P.in_domain((fi, x, f)) and x.conj(f) in S)
        assert masks[a] == P.S.mask(expected)
        verdicts[bool(expected)] += 1
        if expected:
            assert lo.S_f(P, f).elems == expected
        else:
            with pytest.raises(ValueError):
                lo.S_f(P, f)
    assert verdicts[True] > 0 and verdicts[False] > 0


@pytest.mark.parametrize("name", ["L_l27", "L_s3xs3", "L_s4", "L_sl23"])
def test_coset_join_matches_mulclose(name, request):
    """The coset join <gens>H is the closure of H and gens wherever gens
    normalize H or hold generators of H: for every p-subgroup R of the
    ambient group with each x normalizing it, as Sylow growth and the
    maximality of S join them; from H = 1 by the elements of each member H
    of S's lattice; and from each member H by a greedy generating tuple of
    H and one element of S, as the lattice's joins grow."""
    L = request.getfixturevalue(name)
    G = L.ambient
    mul = G.mul_table
    pool = {frozenset(x.conj(g) for x in P.elems) for P in gp.all_subgroups(L.S) for g in G.elems}
    grown = 0
    for R in pool:
        for x in gp.normalizer(G, G.generated_subgroup(R)).elems:
            got = frozenset(gp.elements(G, gp.coset_join(mul, G.mask(R), G.indexes([x]))))
            assert got == gp.mulclose(list(R) + [x], cap=G.order)
            grown += len(got) > len(R)
    assert grown > 0
    for H in gp.lattice(L.S).values():
        assert gp.elements(G, gp.coset_join(mul, 1, G.indexes(H))) == tuple(sorted(gp.mulclose(H)))
        gens = [G.indexes(H)[k] for k in gp._table_and_gens(H)[0]]
        for x in L.S:
            got = frozenset(gp.elements(G, gp.coset_join(mul, H.home_mask, gens + G.indexes([x]))))
            assert got == gp.mulclose(list(H) + [x], cap=G.order)


@pytest.mark.parametrize("name", ["L_s3xs3", "unclosed", "L_l27"])
def test_in_domain_matches_survivor_definition(name, request):
    """A word over the ambient group is in the domain iff its letters lie in
    L and R_w, taken by definition with Perm conjugation, is an object: for
    every word of length at most 2."""
    P = request.getfixturevalue(name)
    ambient = tuple(P.ambient)
    verdicts = Counter()
    for w in [()] + [(a,) for a in ambient] + [(a, b) for a in ambient for b in ambient]:
        expected = all(g in oracles.elems_of(P, P.elems) for g in w) and (
            _survivors(P.S, w) in oracles.objects_of(P)
        )
        assert P.in_domain(w) == expected
        verdicts[expected] += 1
    assert verdicts[True] > 0 and verdicts[False] > 0
