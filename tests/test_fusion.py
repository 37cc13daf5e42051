"""Fusion system tests: construction, closure, saturation, K-normalizers,
distinguished subgroup sets and subsystem normality."""

import pytest

from plocal import cli
from plocal import fusion as fu
from plocal import groups as gp
from plocal import verify as vf
from plocal.errors import NotSaturated, NotSylow
from plocal.perm import perm_from_cycles

from . import oracles
from .conftest import default_and_a4xc2_entries, germ, perms


def sub(F, *specs):
    deg = F.S.degree
    gens = perms(deg, *specs)
    return gp.Subgroup(gp.mulclose(gens, cap=F.S.order)) if gens else None


# -- fusion_of_group ----------------------------------------------------------


def test_inner_fusion_of_p_group(d8):
    F = fu.fusion_of_group(d8, d8, 2)
    assert F == fu.close_generated(d8, 2)


def test_aut_F_values(F_s4, F_s3, klein):
    assert F_s4.aut(gp.Subgroup(klein.elems)).order == 6
    assert F_s3.aut(F_s3.S).order == 2


def test_not_sylow_rejected(s4):
    with pytest.raises(NotSylow):
        fu.fusion_of_group(s4, s4.generated_subgroup(perms(4, "(0 1)")), 2)


def test_homs_materialization(F_s4, klein):
    """Hom_F(V, S) is every germ from V."""
    V = gp.Subgroup(klein.elems)
    homs = F_s4.germs_from(V)
    assert len(homs) == 6
    for h in oracles.as_pairs(F_s4.S, homs):
        assert {x for x, _ in h} == V.elems and {y for _, y in h} <= F_s4.S.elems


def _s4_or_l27(case, F_s4):
    """F_s4, or the fusion system of PSL(2,7) at p = 2."""
    if case == "s4":
        return F_s4
    G = gp.generate_group(perms(7, "(0 1 2 3 4 5 6)", "(0 1)(2 5)"))
    return fu.fusion_of_group(G, gp.sylow_subgroup(G, 2), 2)


@pytest.mark.parametrize("case", ["s4", "l27"])
def test_germ_operations_match_pair_maps(case, F_s4):
    """Restriction, composition, inversion and the move to a subgroup's
    positions, done on position tuples, agree with the same operations on
    (element, image) pairs, over every germ of F_s4 and of PSL(2,7) at
    p = 2 (and every restriction, and every composable pair). Each germ of
    N_F(X) and of C_F(X) is a germ of F, unconverted: they are in F's
    frame."""
    F = _s4_or_l27(case, F_s4)
    S, lattice = F.S, gp.lattice(F.S)
    assert F.frame == S
    pairs = {g: next(iter(oracles.as_pairs(S, [g]))) for g in F.all_germs()}
    composed = 0
    for g, a in pairs.items():
        assert pairs[fu._inverse(g)] == oracles.inverse(a)
        for mask, P in lattice.items():
            if not mask & ~fu._src(g):
                assert pairs[fu._restrict(g, mask)] == oracles.restrict(a, P.elems)
            if not (fu._src(g) | fu._img(g)) & ~mask:
                pos = gp.positions(S, P)
                local = fu._local(g, pos)
                assert oracles.as_pairs(P, [local]) == {a}
        for h in F.germs_by_src[fu._img(g)]:
            assert pairs[fu._then(g, h)] == oracles.compose(a, pairs[h])
            composed += 1
    assert composed > len(pairs)
    for X in F.subgroups():
        for sub in (fu.normalizer_subsystem(F, X), fu.centralizer_subsystem(F, X)):
            assert sub.frame == S and sub.all_germs() <= F.all_germs()


@pytest.mark.parametrize("case", ["s4", "l27"])
def test_pulled_back_is_psi_inverse_conjugation_psi(case, F_s4):
    """For every germ psi: Y -> Z of F_s4 and of PSL(2,7) at p = 2, the
    pulled-back action maps exactly the g in N_S(Y), by home index, to
    psi^-1 c_g psi on Z, all built as pair maps by Perm conjugation; it is
    kept per psi."""
    F = _s4_or_l27(case, F_s4)
    S, lattice, home = F.S, gp.lattice(F.S), tuple(F.S.home)
    moved = 0
    for psi in F.all_germs():
        Y, Z = lattice[fu._src(psi)], lattice[fu._img(psi)]
        (a,) = oracles.as_pairs(S, [psi])
        pulled = fu._pulled_back(F, psi)
        assert {home[g] for g in pulled} == {g for g in S if {y.conj(g) for y in Y} == Y.elems}
        for g, image in ((home[g], image) for g, image in pulled.items()):
            c_g = oracles.conj_map(Y.elems, g)
            want = oracles.compose(oracles.compose(oracles.inverse(a), c_g), a)
            assert oracles.as_pairs(Z, [image]) == {want}
            moved += want != oracles.conj_map(Z.elems, g)
        assert fu._pulled_back(F, psi) is pulled
    assert moved


# -- close_generated ----------------------------------------------------------


def test_close_generated_reproduces_group_fusion(F_s4):
    assert fu.close_generated(F_s4.S, 2, F_s4.all_germs()) == F_s4


def test_close_generated_restriction_property(d8):
    # an outer order-2 automorphism restricts to every subgroup, also to the
    # order-2 subgroups it swaps, which no inner map joins
    S = d8
    A, inner = gp.aut_group(S), gp.inn_group(S).maps
    alpha = next(m for m in sorted(A.maps) if m not in inner and (m * m).is_identity())
    F = fu.close_generated(S, 2, [alpha])  # an automorphism of S is a germ from S
    moved = 0
    for P in F.subgroups():
        restricted = fu._restrict(alpha, S.mask(P.elems))
        assert restricted in F.germs_from(P)
        moved += fu._img(restricted) != S.mask(P.elems)
    assert moved


def test_close_generated_rejects_non_hom(s4):
    # on C4 = <r>: fixing e and r but swapping r^2 and r^3 is an injective
    # bijection that is not a homomorphism
    r = perm_from_cycles("(0 1 2 3)", 4)
    C4 = s4.generated_subgroup([r])
    bad = germ(C4, [(s4.identity, s4.identity), (r, r), (r * r, r * r * r), (r * r * r, r * r)])
    with pytest.raises(ValueError, match="not a homomorphism"):
        fu.close_generated(C4, 2, [bad])


def test_close_generated_rejects_non_injective(s4):
    # on C4 = <r>: x |-> x^2 is a homomorphism with kernel <r^2>
    r = perm_from_cycles("(0 1 2 3)", 4)
    C4 = s4.generated_subgroup([r])
    square = germ(C4, [(x, x * x) for x in C4])
    with pytest.raises(ValueError, match="not injective"):
        fu.close_generated(C4, 2, [square])


def test_close_generated_rejects_a_germ_outside_S(s4):
    r = perm_from_cycles("(0 1 2 3)", 4)
    C4 = s4.generated_subgroup([r])
    for bad in ((0, 1, 2), (0, 1, 2, 4), (0, 1, 2, -2)):
        with pytest.raises(ValueError, match="inside S"):
            fu.close_generated(C4, 2, [bad])
        with pytest.raises(ValueError, match="inside S"):
            fu.FusionSystem(C4, 2, [bad])


# -- saturation ---------------------------------------------------------------


def test_corpus_systems_saturated(F_s4, F_s3, F_sl23):
    for F in (F_s4, F_s3, F_sl23):
        assert fu.is_saturated(F)


def test_unsaturated_witness():
    v4 = gp.generate_group(perms(4, "(0 1)(2 3)", "(0 2)(1 3)"))
    A = gp.aut_group(v4)
    alpha = next(m for m in sorted(A.maps) if not m.is_identity() and (m * m).is_identity())
    F = fu.close_generated(v4, 2, [alpha])
    w = fu.saturation_failure(F)
    assert w is not None and w["axiom"] == "fully-automized"


def test_germless_system_fails_saturation_loudly(d8):
    """A system with no germ from P onto P has |Aut_F(P)| = 0, which has no
    p-part: the saturation check raises on it rather than running on."""
    with pytest.raises(ValueError):
        fu.saturation_failure(fu.FusionSystem(d8, 2, []))


def test_unreceptive_witness():
    """On S = C4 x C2, the automorphism of V = {1, t, z, zt} (t = (4 5),
    z = (0 2)(1 3)) swapping z and zt generates 11 germs. {z} is fully
    normalized, but z t -> z does not extend to N_phi = S: receptivity
    fails, with this witness."""
    S = gp.generate_group(perms(6, "(0 1 2 3)", "(4 5)"))
    e, t, z, zt = S.identity, *perms(6, "(4 5)", "(0 2)(1 3)", "(0 2)(1 3)(4 5)")
    F = fu.close_generated(S, 2, [germ(S, [(e, e), (t, t), (z, zt), (zt, z)])])
    assert len(F.all_germs()) == 11
    assert fu.saturation_failure(F) == {
        "axiom": "receptive",
        "P": "{(0 2)(1 3)}",
        "Q": "{(0 2)(1 3)(4 5)}",
        "phi": "(0 2)(1 3)(4 5)->(0 2)(1 3)",
        "N_phi": "{(4 5),(0 1 2 3),(0 1 2 3)(4 5),(0 2)(1 3),(0 2)(1 3)(4 5),"
        "(0 3 2 1),(0 3 2 1)(4 5)}",
    }


def test_odd_aut_on_klein_four_is_saturated():
    v4 = gp.generate_group(perms(4, "(0 1)(2 3)", "(0 2)(1 3)"))
    A = gp.aut_group(v4)
    rho = next(m for m in sorted(A.maps) if not (m * m).is_identity())
    F = fu.close_generated(v4, 2, [rho])  # = the A4 system
    assert fu.is_saturated(F)
    assert F.aut(F.S).order == 3


def test_saturation_over_a_base_past_the_automorphism_search_cap():
    """Aut_F(P) and Aut_S(P) are built without searching Aut(P), so
    saturation runs over S = C81 in D162, past AUT_BASE_CAP."""
    n = 81
    rot = perm_from_cycles("(%s)" % " ".join(map(str, range(n))), n)
    ref = perm_from_cycles("".join("(%d %d)" % (i, n - i) for i in range(1, (n + 1) // 2)), n)
    G = gp.generate_group([rot, ref])
    S = gp.sylow_subgroup(G, 3)
    assert S.order == 81 > gp.AUT_BASE_CAP
    F = fu.fusion_of_group(G, S, 3)
    assert fu.is_saturated(F)
    assert F.aut(S).order == 2 and F.aut_S(S).order == 1


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


def _entry_fusion(name):
    """G, S and F_S(G) of a default-corpus entry, F built afresh."""
    (entry,) = [e for e in cli.parse_corpus(cli.default_corpus_text()) if e.name == name]
    G = entry.G
    S = gp.sylow_subgroup(G, entry.p)
    return G, S, fu.fusion_of_group(G, S, entry.p)


def test_fully_K_normalized_matches_conjugation_oracle():
    """Counting N_S^{K^phi}(X phi) in K's permutation image agrees with
    building K^phi as maps, for every (X, K) of the K sweep of three
    entries."""
    verdicts = []
    for name in ("s4_a4", "sl23_q8", "d8_d8"):
        G, S, F = _entry_fusion(name)
        for X in F.subgroups():
            for _, K in vf.k_options(X):
                got = fu.is_fully_K_normalized(F, X, K)
                assert got == oracles.fully_K_normalized_by_conjugation(G, S, X, K)
                verdicts.append(got)
    assert len(verdicts) == 98 and set(verdicts) == {True, False}


def test_group_K_normalizer_once_per_fully_K_key(monkeypatch):
    """The verdict is kept in F's cache per (X, K cap Aut_F(X)), and the
    conjugates phi(X) are counted without a group_K_normalizer call: one
    call per (X, K cap Aut_F(X)), 21 for the 30 (X, K) of s4_a4, each made
    on the intersection."""
    calls = []
    real = fu.group_K_normalizer

    def spy(G, X, K):
        calls.append((X.elems, K.maps))
        return real(G, X, K)

    monkeypatch.setattr(fu, "group_K_normalizer", spy)
    _, _, F = _entry_fusion("s4_a4")
    raw, realized = set(), set()
    for X in F.subgroups():
        for _, K in vf.k_options(X):
            first = fu.is_fully_K_normalized(F, X, K)
            assert fu.is_fully_K_normalized(F, X, K) is first
            raw.add((X.elems, K.maps))
            realized.add((X.elems, K.maps & F.aut(X).maps))
    assert (len(raw), len(realized)) == (30, 21)
    assert len(calls) == len(set(calls)) and set(calls) == realized


def test_realized_part_is_K_when_F_realizes_K():
    """K cap Aut_F(X) comes back as K itself for every K <= Aut_F(X):
    Aut_F(X), its subgroups, Inn(X) <= Aut_S(X) and the trivial group, on
    each subgroup X of S4's Sylow 2-subgroup, all on S4's home. So one
    AutGroup, and the results kept under it, serve K and its realized
    part."""
    G = gp.generate_group(perms(4, "(0 1 2 3)", "(0 1)"))
    F = fu.fusion_of_group(G, gp.sylow_subgroup(G, 2), 2)
    for X in F.subgroups():
        A = F.aut(X)
        for K in (A, gp.inn_group(X), gp.trivial_aut_group(X)) + A.sub_autgroups():
            assert fu.realized_part(F, X, K) is K


def test_aut_F_lives_on_S_whatever_home_P_came_from():
    """Aut_F(P) asked first with a P on a home of its own is the AutGroup
    on S's lattice member P: F keeps one AutGroup per content, and K cap
    Aut_F(X) is K for every K <= Aut_F(X) on S's home."""
    G = gp.generate_group(perms(4, "(0 1 2 3)", "(0 1)"))
    F = fu.fusion_of_group(G, gp.sylow_subgroup(G, 2), 2)
    for X in F.subgroups():
        A = F.aut(gp.Subgroup(X.elems))  # asked first, from a new home
        assert A.base.home is F.S.home and A is F.aut(X)
        for K in (A, gp.inn_group(X), gp.trivial_aut_group(X)) + A.sub_autgroups():
            assert fu.realized_part(F, X, K) is K


def test_fusion_system_is_one_object_per_content():
    """FusionSystem(S, p, germs) is the system kept for its content on S's
    home: made twice it is one object, F_S(G) itself when the germs agree,
    and another, equal object over an equal S on another home."""
    G = gp.generate_group(perms(4, "(0 1 2 3)", "(0 1)"))
    S = gp.sylow_subgroup(G, 2)
    F = fu.fusion_of_group(G, S, 2)
    germs = F.all_germs()
    assert fu.FusionSystem(S, 2, germs) is fu.FusionSystem(S, 2, set(germs)) is F
    inner = fu.close_generated(S, 2)
    assert fu.FusionSystem(S, 2, inner.all_germs()) is inner is not F
    elsewhere = fu.FusionSystem(gp.Subgroup(S.elems), 2, germs)
    assert elsewhere == F and elsewhere is not F


def test_a_kept_system_is_found_before_its_germs_are_read(monkeypatch):
    """FusionSystem(S, p, germs) looks its content up in the table of
    systems first: a hit groups no germ by source, so it checks none and
    builds nothing; a miss groups each germ once and enters a new system."""
    G = gp.generate_group(perms(4, "(0 1 2 3)", "(0 1)"))
    S = gp.sylow_subgroup(G, 2)
    F = fu.fusion_of_group(G, S, 2)
    table = S.home._kept.get("systems")
    real, grouped = fu._src, []
    monkeypatch.setattr(fu, "_src", lambda g: grouped.append(g) or real(g))
    before = len(table)
    assert fu.FusionSystem(S, 2, iter(F.all_germs())) is F
    assert grouped == [] and len(table) == before
    autS = F.germs_from(S)
    E = fu.FusionSystem(S, 2, autS)
    assert sorted(grouped) == sorted(autS) and len(table) == before + 1
    assert E.all_germs() == autS and E is not F


def test_systems_in_two_frames_are_never_compared(F_s4, E_s4):
    """The inner system of T = S cap A4 in T's own frame and in S's are
    two contents: containment, weak normality, normality and p-power index
    of the first in F_s4 raise ValueError, and the second is compared: it is
    normal in F_s4, as T is normal in S4."""
    T = E_s4.S
    apart, inside = fu.fusion_of_group(T, T, 2), fu.close_generated(T, 2, frame=F_s4.S)
    assert (apart.frame, inside.frame) == (T, F_s4.S) and apart.S == inside.S
    assert apart != inside and len(apart.all_germs()) == len(inside.all_germs())
    for verdict in (fu.subsystem_le, fu.is_weakly_normal, fu.is_normal_subsystem, fu.has_p_power_index):
        with pytest.raises(ValueError, match="different frames"):
            verdict(apart, F_s4)
    assert fu.subsystem_le(inside, F_s4) and fu.is_normal_subsystem(inside, F_s4)


@pytest.mark.parametrize("name", [e.name for e in cli.parse_corpus(cli.default_corpus_text())])
def test_every_system_of_an_entry_is_in_the_frame_of_its_S(monkeypatch, name):
    """Every system that a default entry's checks construct, F, E, each
    N_F^K(X), E_0, E X and F_S(bN_L^K(X)), is made in the frame of the
    entry's S, so they meet with no conversion of germs."""
    (entry,) = [e for e in cli.parse_corpus(cli.default_corpus_text()) if e.name == name]
    made, real = [], fu.FusionSystem.__new__

    def spy(cls, *args, **kwargs):
        made.append(real(cls, *args, **kwargs))
        return made[-1]

    monkeypatch.setattr(fu.FusionSystem, "__new__", spy)
    pe, axioms = vf.prepare_entry(entry)
    assert axioms.passed and not any(r.failed for r in vf.entry_reports(pe))
    assert pe.F in made and pe.E in made
    assert all(F.frame == pe.F.S for F in made)


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
    inner = fu.fusion_of_group(d8, d8, 2)
    # C_{S4}(Z(S)) is the Sylow itself; same element set, same category
    assert CF.S.elems == F_s4.S.elems
    assert len(CF.all_germs()) == len(inner.all_germs())
    assert CF == fu.fusion_of_group(CF.S, CF.S, 2)


def test_aut_K_equals_autF_K_normalizer(F_s4):
    """N_F^{Aut(X)}(X) = N_F^{Aut_F(X)}(X)."""
    for X in F_s4.subgroups():
        full = fu.K_normalizer_subsystem(F_s4, X, gp.aut_group(X))
        realized = fu.K_normalizer_subsystem(F_s4, X, F_s4.aut(X))
        assert full == realized


def test_equal_K_normalizers_are_one_object(s4):
    """Keys (X, K) with the same N_F^K(X) share one system, and so share
    what it caches. For the non-normal four-group, Aut(X) and Aut_F(X) are
    different K with one realized part, so one cache entry."""
    F = fu.fusion_of_group(s4, gp.sylow_subgroup(s4, 2), 2)
    two_keys = 0
    for X in F.subgroups():
        A, autF = gp.aut_group(X), F.aut(X)
        full = fu.K_normalizer_subsystem(F, X, A)
        assert fu.K_normalizer_subsystem(F, X, autF) is full
        two_keys += A.maps != autF.maps
    assert two_keys > 0


def test_K_normalizer_on_a_new_base_leaves_its_Perm_view_unbuilt():
    """A system hashes its base by order, not by the base's elements, so
    entering N_F^K(X) over a base built for it in the table of systems on
    the home builds no Perm view of that base."""
    _, _, F = _entry_fusion("s4_a4")
    table, new = F.frame.home._kept.get("systems"), []
    assert table[F.frame.home_mask, F.frame.mask(F.S), F.p, F.all_germs()] is F
    for X in F.subgroups():
        for _, K in vf.k_options(X):
            before = len(table)
            NFK = fu.K_normalizer_subsystem(F, X, K)
            if len(table) > before:
                new.append(NFK)
    assert len(new) > 1
    assert not any({"elems", "_sorted"} & set(vars(NFK.S)) for NFK in new)


def test_K_normalizer_saturated_when_fully_K_normalized(F_s4, F_sl23):
    for F in (F_s4, F_sl23):
        for X in F.subgroups():
            A = gp.aut_group(X)
            for K in A.sub_autgroups():
                if A.order > 24:
                    continue
                if fu.is_fully_K_normalized(F, X, K):
                    assert fu.is_saturated(fu.K_normalizer_subsystem(F, X, K))


@pytest.mark.parametrize("entry", default_and_a4xc2_entries(), ids=lambda e: e.name)
def test_K_normalizers_match_group_oracle(entry):
    """For every fully K-normalized X of the entry and every K of its sweep,
    the shared N_F^K(X) is F_{N_S^K(X)}(N_G^K(X)) read off G, and its core
    and subcentric set, cached under whichever key first reached that
    content, are the oracle's for that group."""
    G = entry.G
    S = gp.sylow_subgroup(G, entry.p)
    F = fu.fusion_of_group(G, S, entry.p)
    checked, oracle = set(), {}
    for X in F.subgroups():
        for _, K in vf.k_options(X):
            if not fu.is_fully_K_normalized(F, X, K):
                continue
            NFK = fu.K_normalizer_subsystem(F, X, K)
            NG = oracles.K_normalizer_from_group(G, X, K)
            NS = gp.Subgroup(NG.elems & S.elems)
            assert NFK.S == NS
            assert NFK.frame == S
            assert oracles.as_pairs(S, NFK.all_germs()) == oracles.conjugation_germs(NG, NS)
            if NG.elems not in oracle:  # the oracle's answers for the group NG
                oracle[NG.elems] = (
                    oracles.fusion_core_from_group(NG, NS), oracles.subcentric_from_group(NG, NS)
                )
            core, subcentric = oracle[NG.elems]
            assert fu.fusion_core(NFK).elems == core
            assert {P.elems for P in fu.subcentric_set(NFK)} == subcentric
            checked.add(id(NFK))
    assert len(checked) > 1


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
    A = gp.aut_group(v4)
    alpha = next(m for m in sorted(A.maps) if not m.is_identity() and (m * m).is_identity())
    F = fu.close_generated(v4, 2, [alpha])
    with pytest.raises(NotSaturated):
        fu.subcentric_set(F)


# the default entries, whose groups have characteristic p, so that every
# subgroup of S is subcentric; and PSL(2,7) at p = 2, whose system is not
# constrained, so that F^s is proper
FUSION_ORACLE_CASES = [
    (e.name, e.generators(), e.p) for e in cli.parse_corpus(cli.default_corpus_text())
] + [("l27", perms(7, "(0 1 2 3 4 5 6)", "(0 1)(2 5)"), 2)]


@pytest.mark.parametrize("name, gens, p", FUSION_ORACLE_CASES, ids=[c[0] for c in FUSION_ORACLE_CASES])
def test_core_and_subcentric_match_group_oracle(name, gens, p):
    G = gp.generate_group(gens)
    S = gp.sylow_subgroup(G, p)
    F = fu.fusion_of_group(G, S, p)
    assert fu.fusion_core(F).elems == oracles.fusion_core_from_group(G, S)
    got = {P.elems for P in fu.subcentric_set(F)}
    assert got == oracles.subcentric_from_group(G, S)
    if name == "l27":
        assert S.trivial_subgroup().elems not in got


def test_fusion_core(F_s4, F_s3, klein):
    assert fu.fusion_core(F_s4).elems == klein.elems
    assert fu.fusion_core(F_s3).order == 3


# -- hyperfocal subgroup and p-power index ------------------------------------


def test_hyperfocal(F_s4, F_s3, klein, d8):
    assert fu.hyperfocal_subgroup(F_s4).elems == klein.elems
    inner = fu.fusion_of_group(d8, d8, 2)
    assert fu.hyperfocal_subgroup(inner).order == 1
    assert fu.hyperfocal_subgroup(F_s3).order == 3  # Aut_F(C3) has order 2


def test_p_power_index(F_s4, E_s4):
    assert fu.has_p_power_index(F_s4, F_s4)
    assert fu.has_p_power_index(E_s4, F_s4)  # the A4 system is O^2(F)V4
    inner = fu.close_generated(F_s4.S, 2)
    assert not fu.has_p_power_index(inner, F_s4)  # misses O^2(Aut_F(V4))


def test_p_power_index_needs_the_hyperfocal_subgroup_inside(a4):
    """The trivial system over 1 lies in F = F_{V4}(A4) and holds
    O^2(Aut_F(1)) = 1, but hyp(F) = V4 is not inside its base, so it has
    no 2-power index: the hyperfocal clause alone refuses it."""
    F = fu.fusion_of_group(a4, gp.sylow_subgroup(a4, 2), 2)
    D = fu.close_generated(F.S.trivial_subgroup(), 2, frame=F.S)
    assert fu.subsystem_le(D, F) and fu.hyperfocal_subgroup(F) == F.S
    assert not fu.has_p_power_index(D, F)


# -- weak normality and normality ---------------------------------------------


def test_normal_subsystem_cases(F_s4, E_s4):
    assert fu.is_normal_subsystem(F_s4, F_s4)
    assert fu.is_weakly_normal(E_s4, F_s4)
    assert fu.is_normal_subsystem(E_s4, F_s4)


def test_non_strongly_closed_base_is_not_normal(F_s4):
    T = sub(F_s4, "(0 1)")
    E = fu.fusion_of_group(T, F_s4.S, 2)
    assert not fu.is_weakly_normal(E, F_s4)
    assert not fu.is_normal_subsystem(E, F_s4)


def test_inner_sylow_subsystem_not_normal_in_s4_system(F_s4):
    # strongly closed base, but the Frattini factorization fails
    inner = fu.close_generated(F_s4.S, 2)
    assert not fu.is_weakly_normal(inner, F_s4)


def test_aut_invariance_alone_fails_in_s3_wreath_c2():
    """G = S3 wr C2 at p = 3 with H = S3 x C3 of order 18: T = S of order 9
    is strongly closed, E = F_T(H) is saturated, and the Frattini
    factorization and the extension property both hold, but the swap of
    the factors does not leave E invariant, so E is not weakly normal."""
    G = gp.generate_group(perms(6, "(0 1 2)", "(0 1)", "(0 3)(1 4)(2 5)"))
    H = G.generated_subgroup(perms(6, "(0 1 2)", "(0 1)", "(3 4 5)"))
    S = gp.sylow_subgroup(G, 3)
    assert (G.order, H.order, S.order) == (72, 18, 9) and S <= H
    F, E = fu.fusion_of_group(G, S, 3), fu.fusion_of_group(H, S, 3)
    assert fu.subsystem_le(E, F) and fu.is_strongly_closed(F, S) and fu.is_saturated(E)
    autFS = fu._onto(F, F.frame.mask(S))
    assert all(fu._frattini_factors(E, autFS, phi) for phi in F.all_germs())
    assert fu._has_extension_property(E, F)
    assert not fu.is_weakly_normal(E, F)
    assert not fu.is_normal_subsystem(E, F)


def test_sl23_inner_q8_normal(F_sl23, sl23):
    q8 = gp.sylow_subgroup(sl23, 2)
    E = fu.fusion_of_group(q8, q8, 2)
    assert fu.is_normal_subsystem(E, F_sl23)


def test_verdicts_kept_per_subsystem(s4, E_s4):
    """On one F, the normality and p-power-index verdicts of two systems
    over the same base, asked alternately, stay each system's own: the A4
    system is normal of p-power index in the S4 system, and the system
    generated by one involution of Aut_F(V4) is neither."""
    F = fu.fusion_of_group(s4, gp.sylow_subgroup(s4, 2), 2)
    T = E_s4.S
    swap = germ(F.S, oracles.conj_map(T.elems, perms(4, "(0 1)")[0]))
    bad = fu.close_generated(T, 2, [swap], frame=F.S)
    assert bad.S == T and fu.subsystem_le(bad, F)
    for _ in range(2):
        for verdict in (fu.is_normal_subsystem, fu.has_p_power_index):
            assert verdict(E_s4, F)
            assert not verdict(bad, F)
