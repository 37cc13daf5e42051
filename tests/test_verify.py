"""Checker tests: each statement checker on known instances, skip logic,
and the suite driver plumbing."""

import sys
from pathlib import Path

import pytest

from plocal import cli
from plocal import fusion as fu
from plocal import groups as gp
from plocal import locality as lo
from plocal import verify as vf
from plocal.errors import CorpusParseError, KDescriptorNotForX, NotFullyKNormalized
from plocal.report import VerificationReport
from . import oracles
from .conftest import default_and_a4xc2_entries, extended_corpus_text, perms

PERFBENCH_CORPORA = Path(__file__).resolve().parents[1] / "perfbench" / "corpora"


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
    rep = vf.check_char_p_normalizer_subgroup(c6, 2, X2, c6, "t")
    assert rep.outcome == "skipped" and rep.reason == "G-not-characteristic-p"


def test_lemma22b_pass_and_identity(s4, klein):
    K = gp.trivial_aut_group(klein)
    rep = vf.check_char_p_normalizer_aut(s4, 2, klein, K, "t")
    assert rep.passed
    assert rep.stats["identity_checked"] == 1


def test_lemma22b_fails_on_a_wrong_product_identity(monkeypatch, s4, klein):
    """A wiring control: with set_product answering N^K * X plus S, the
    identity N^{K Inn(X)}(X) = N^K(X) X fails, and the report names both
    sides. At K = 1 and X = V4 both are V4."""
    real = gp.set_product
    monkeypatch.setattr(gp, "set_product", lambda G, A, X: real(G, A, X) | G.home_mask_of(S_of(G)))
    rep = vf.check_char_p_normalizer_aut(s4, 2, klein, gp.trivial_aut_group(klein), "t")
    assert rep.to_json_obj() == {
        "statement": "Lemma-2.2b", "instance": "t", "outcome": "fail", "stats": {},
        "witness": {
            "part": "product-identity",
            "N^{KInn}": "{(0 1)(2 3),(0 2)(1 3),(0 3)(1 2)}",
            "N^K * X": [
                "()", "(0 1)", "(0 1)(2 3)", "(0 2 1 3)", "(0 2)(1 3)", "(0 3 1 2)", "(0 3)(1 2)", "(2 3)",
            ],
        },
    }


def test_lemma22b_subnormal_skip(sl23):
    Q8 = S_of(sl23)
    A = gp.aut_group(Q8)
    # an order-3 subgroup of Aut(Q8) = S4 is not subnormal in C3 * V4 = A4
    C3 = next(K for K in A.sub_autgroups() if K.order == 3)
    rep = vf.check_char_p_normalizer_aut(sl23, 2, Q8, C3, "t")
    assert rep.outcome == "skipped"
    assert rep.reason == "K-not-subnormal-in-K*Inn(X)"


# groups for the Lemma-2.2 sweep: order, then degree and generators
SWEEP_GROUPS = {
    "s4": (24, 4, "(0 1 2 3)", "(0 1)"),
    "d8": (8, 4, "(0 1 2 3)", "(0 2)"),
    "s3": (6, 3, "(0 1 2)", "(0 1)"),
    "sl23": (24, 8, "(2 3 4)(5 7 6)", "(0 2 1 5)(3 4 7 6)"),
    "s3xs3": (36, 6, "(0 1 2)", "(0 1)", "(3 4 5)", "(3 4)"),
    "d12": (12, 6, "(0 1 2 3 4 5)", "(0 5)(1 4)(2 3)"),
    "a4xc2": (24, 6, "(0 1 2)", "(0 1)(2 3)", "(4 5)"),
}


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("name", sorted(SWEEP_GROUPS))
def test_lemma22_sweep_matches_lattice_filters(name, p):
    """The Lemma-2.2 sweep builds no lattice of G: its X are the G-conjugates
    of the subgroups of S, and its H for Lemma-2.2a the N_G^B(X) for
    B <= Aut_G(X). Both equal the filters of whole subgroup lattices, the
    X in the same order and the H once each."""
    order, *gens = SWEEP_GROUPS[name]
    G = gp.generate_group(perms(*gens))
    assert G.order == order
    Xs = gp.p_subgroups(G, gp.sylow_subgroup(G, p))
    assert Xs == oracles.p_subgroups_by_lattice(G, p)
    for X in Xs:
        Hs = vf._normalizer_range(G, X)
        assert len(set(Hs)) == len(Hs)
        assert set(Hs) == set(oracles.normalizer_range_by_lattice(G, X))


# -- Lemma 2.1 -----------------------------------------------------------------


def test_lemma21_center_id(L_s4, F_s4, s4):
    Z = gp.Subgroup(gp.center(S_of(s4)).elems)
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


@pytest.fixture
def own_L_s4(s4, F_s4):
    """L_s4 built afresh, so that no other test has filled its memo."""
    Delta = frozenset(F_s4.S.mask(P.elems) for P in fu.subcentric_set(F_s4))
    return lo.build_group_locality(s4, S_of(s4), Delta, 2)


def _count_verifications(monkeypatch, result=None):
    """Record the fusion system of each verify_subcentric_locality call;
    answer with ``result`` instead of verifying when one is given."""
    calls = []
    real = lo.verify_subcentric_locality

    def spy(L, F):
        calls.append(F)
        return real(L, F) if result is None else result

    monkeypatch.setattr(lo, "verify_subcentric_locality", spy)
    return calls


def test_lemma21_verifies_equal_restrictions_once(monkeypatch, own_L_s4, F_s4, s4, klein):
    """bN_L(1) and bN_L(V4) under the full Aut are both L itself over F."""
    calls = _count_verifications(monkeypatch)
    for X in (s4.trivial_subgroup(), klein):
        rep = vf.check_restricted_subcentric(own_L_s4, F_s4, X, gp.aut_group(X), "t")
        assert rep.passed
    assert calls == [F_s4]


def test_lemma21_reused_failure_stays_a_failure(monkeypatch, own_L_s4, F_s4, s4, klein):
    witness = {"axiom": "planted"}
    planted = VerificationReport("subcentric-locality", "t", "fail", witness=witness)
    calls = _count_verifications(monkeypatch, planted)
    for X in (s4.trivial_subgroup(), klein):
        rep = vf.check_restricted_subcentric(own_L_s4, F_s4, X, gp.aut_group(X), "t")
        assert rep.failed
        assert rep.witness == {"verification": witness}
    assert calls == [F_s4]


def test_verification_reuse_is_keyed_on_F(monkeypatch, own_L_s4, F_s4, s4):
    calls = _count_verifications(monkeypatch)
    S = S_of(s4)
    inner = fu.fusion_of_group(S, S, 2)
    for F in (F_s4, F_s4, inner, inner):
        vf._verified_subcentric(own_L_s4, own_L_s4, F)
    assert calls == [F_s4, inner]


def test_bN_K_restricts_once_per_key(monkeypatch, own_L_s4, F_s4, klein):
    calls = []
    real = lo.restrict

    def spy(*args):
        calls.append(args[3])
        return real(*args)

    monkeypatch.setattr(lo, "restrict", spy)
    V = gp.Subgroup(klein.elems)
    K = gp.trivial_aut_group(V)
    first = lo.bN_K(own_L_s4, F_s4, V, K)
    assert lo.bN_K(own_L_s4, F_s4, V, K) is first
    assert calls == [V]


def _theorem_instances(pe):
    """The (X, K) of the entry's sweep whose theorem hypotheses hold, full
    K-normalization read off G (oracles.fully_K_normalized_by_conjugation),
    with K_eff of the subnormality branch."""
    for X in pe.X_list or pe.F.subgroups():
        for _, K in vf._k_sweep(pe, X):
            if K is None or not oracles.fully_K_normalized_by_conjugation(pe.G, pe.F.S, X, K):
                continue
            branch, K_eff = vf._subnormal_branch(pe.F, X, K)
            if branch is not None:
                yield X, K, K_eff


def test_bN_K_is_one_object_per_realized_K():
    """bN_L^K(X) reads K only through K cap Aut_F(X): on every entry of the
    default corpus and a4xc2_v4, for every fully K-normalized X and every K
    of its sweep, K and that intersection, formed here as maps, get the
    same object; some K are not their intersection."""
    merged = 0
    for entry in default_and_a4xc2_entries():
        pe, axioms = vf.prepare_entry(entry)
        assert axioms.passed
        for X in pe.F.subgroups():
            autF = pe.F.aut(X).maps
            for _, K in vf.k_options(X):
                if not fu.is_fully_K_normalized(pe.F, X, K):
                    continue
                realized = gp.AutGroup(X, K.maps & autF)
                assert lo.bN_K(pe.L, pe.F, X, K) is lo.bN_K(pe.L, pe.F, X, realized)
                merged += realized.maps != K.maps
    assert merged > 0


@pytest.mark.parametrize(
    "entry", default_and_a4xc2_entries() + cli.parse_corpus(extended_corpus_text()), ids=lambda e: e.name
)
def test_E0_matches_group_oracle(entry):
    """For every (X, K) of the entry's sweep whose theorem hypotheses hold,
    E_0 = F_{T_0}(N cap bN_L^K(X)), with bN_L^K(X) asked for the raw K and
    so shared by every K of its realized part, is the group's
    F_{T_0}(N_H^K(X)) (oracles.E0_by_group), T_0 = N_T^K(X) is Sylow in
    N_H^K(X), and the conclusions record that (X, K) reads counts its
    germs."""
    pe, axioms = vf.prepare_entry(entry)
    assert axioms.passed
    checked = 0
    for X, K, _ in _theorem_instances(pe):
        bn = lo.bN_K(pe.L, pe.F, X, K)
        T0, NH, want = oracles.E0_by_group(entry.H, pe.F.S, X, K)
        assert T0.order == gp.p_part(NH.order, pe.p)
        t0 = pe.N & pe.L.S_elems & bn.S_elems
        assert set(gp.elements(pe.L.ambient, t0)) == T0.elems
        T0_home = pe.L.ambient.from_home_mask(t0)
        E0 = lo.fusion_of_partial(bn, pe.N & bn.elems, base=T0_home, frame=pe.F.frame)
        assert oracles.as_pairs(pe.F.frame, E0.all_germs()) == want
        reason, _, rec = vf._theorem(pe.L, pe.F, pe.E, pe.N, X, K)
        assert reason is None and rec.stats["E0_germs"] == len(want)
        checked += 1
    assert checked > 1


def _spy_times_inn(monkeypatch, record):
    """Call record(K) for each K on which K*Inn(X) is computed: each call
    of the decide that AutGroup.times_inn keeps."""
    real = gp._times_inn

    def spy(K):
        record(K)
        return real(K)

    monkeypatch.setattr(gp, "_times_inn", spy)


def test_K_times_inn_once_per_K(monkeypatch, own_L_s4, F_s4, s4, klein):
    """Lemma 2.1, Lemma 2.2(b) and the theorem's hypothesis read K*Inn(X)
    kept per K's value, so the product is formed once for one K, and not
    again for an equal K."""
    calls = []
    _spy_times_inn(monkeypatch, calls.append)
    V = gp.Subgroup(klein.elems)
    K = gp.AutGroup(V, gp.aut_group(klein).maps)  # a fresh value on V's home, not Aut(V)
    assert vf.check_restricted_subcentric(own_L_s4, F_s4, V, K, "t").passed
    assert vf.check_char_p_normalizer_aut(s4, 2, V, K, "t").passed
    assert vf._subnormal_branch(F_s4, V, K) == (1, K)
    again = gp.AutGroup(V, K.maps)
    assert again.times_inn is K.times_inn
    assert calls == [K]


def test_bN_K_failure_raises_on_every_call(monkeypatch, own_L_s4, F_s4):
    calls = []
    real = fu.is_fully_K_normalized

    def spy(F, X, K):
        calls.append(X)
        return real(F, X, K)

    monkeypatch.setattr(lo, "is_fully_K_normalized", spy)
    Y = gp.Subgroup(gp.mulclose(perms(4, "(0 2)(1 3)"), cap=24))
    for _ in range(2):
        with pytest.raises(NotFullyKNormalized):
            lo.bN_K(own_L_s4, F_s4, Y, gp.aut_group(Y))
    assert calls == [Y, Y]


def test_fusion_core_once_per_distinct_system(monkeypatch):
    """Running the s4_a4 entry computes O_p once per fusion-system content:
    equal subsystems derived from F are one object, so share one cache."""
    computed = []
    real = fu.fusion_core

    def spy(F):
        if "core" not in F._cache:
            computed.append(F)
        return real(F)

    monkeypatch.setattr(fu, "fusion_core", spy)
    (entry,) = [e for e in cli.parse_corpus(cli.default_corpus_text()) if e.name == "s4_a4"]
    pe, axioms = vf.prepare_entry(entry)
    assert axioms.passed
    reports = vf.entry_reports(pe)
    assert not any(r.failed for r in reports)
    assert len(computed) > 1
    assert len(computed) == len(set(computed))


def test_each_structure_decided_once_per_content_of_an_entry(monkeypatch):
    """Within each default-corpus entry, the saturation of a fusion system,
    Aut_F(P), O_p of a group at p, subnormality and the automorphism search
    of X run once per content: equal systems are one member of the entry's
    table of systems, each keeping Aut_F(P) per P, and group verdicts are
    kept on their home (O_p(H) is asked only under the characteristic-p
    verdict, kept per (H, p), so every call counts). A restriction is not
    kept: bN_K is kept per (F, K cap Aut_F(X)), and the only restriction a
    corpus run makes twice is the entry's group locality, restricted to
    every subgroup of S by build_group_locality and again by bN_K for
    X = 1 and K = 1, a few per run, which no memo pays for."""
    names = ("saturation_failure", "aut_F", "core_Op", "is_subnormal", "aut_group")
    runs = {name: [] for name in names}

    def spy(name, real, content, fresh):
        def wrapper(*args):
            if fresh(*args):
                runs[name][-1].append(content(*args))
            return real(*args)

        return wrapper

    monkeypatch.setattr(fu, "saturation_failure", spy(
        "saturation_failure", fu.saturation_failure, lambda F: F, lambda F: "sat" not in F._cache
    ))
    monkeypatch.setattr(fu.FusionSystem, "aut", spy(
        "aut_F", fu.FusionSystem.aut, lambda F, P: (F, P.elems),
        lambda F, P: ("aut", F.S.home_mask_of(P)) not in F._cache,
    ))
    monkeypatch.setattr(gp, "core_Op", spy(
        "core_Op", gp.core_Op, lambda G, p: (G.elems, p), lambda *args: True
    ))
    monkeypatch.setattr(gp, "is_subnormal", spy(
        "is_subnormal", gp.is_subnormal, lambda H, G: (H.elems, G.elems),
        lambda H, G: ("subnormal", G.home_mask_of(H), G.home_mask) not in G.home._kept,
    ))
    aut = spy(
        "aut_group", gp.aut_group, lambda X: X.elems, lambda X: ("aut", X.home_mask) not in X.home._kept
    )
    monkeypatch.setattr(gp, "aut_group", aut)
    for entry in cli.parse_corpus(cli.default_corpus_text()):
        for made in runs.values():
            made.append([])
        reports, _ = vf.run_suite([entry])
        assert not any(r.failed for r in reports)
    for name, per_entry in runs.items():
        assert len(per_entry) == 4 and all(per_entry), name
        for made in per_entry:
            assert len(made) == len(set(made)), name


def test_bN_K_keeps_a_restriction_per_gamma():
    """On PSL(2,7) as a group locality at p = 2, X = 1 and K = {id},
    N_L^K(X) is the whole group whatever the system, but Gamma is the
    subcentric set: nine of the ten subgroups of S for F_S(G), all ten for
    S's inner system. Their restrictions differ, and bN_K, kept per
    (F, K cap Aut_F(X)), gives each system its own."""
    G = gp.generate_group(perms(7, "(0 1 2 3 4 5 6)", "(0 1)(2 5)"))
    S = gp.sylow_subgroup(G, 2)
    L = lo.group_locality(G, S, 2)
    one = G.trivial_subgroup()
    K = gp.trivial_aut_group(one)
    sizes = []
    for F in (fu.fusion_of_group(G, S, 2), fu.fusion_of_group(S, S, 2)):
        bn = lo.bN_K(L, F, one, K)
        assert bn.Delta == {S.mask(P.elems) for P in fu.subcentric_set(F)}
        sizes.append((bn.elems.bit_count(), len(bn.Delta)))
    assert sizes == [(104, 9), (168, 10)]


def test_ambient_characteristic_p_decided_once_per_entry(monkeypatch):
    """Whether the ambient G has characteristic p is decided once per
    entry, not once per Lemma-2.2a/b instance: every checker reads the
    verdict kept on G's home."""
    (entry,) = [e for e in cli.parse_corpus(cli.default_corpus_text()) if e.name == "s4_a4"]
    ambient_calls = []
    real = gp._char_p

    def spy(G, p):
        if G == entry.G:
            ambient_calls.append(p)
        return real(G, p)

    monkeypatch.setattr(gp, "_char_p", spy)
    pe, axioms = vf.prepare_entry(entry)
    assert axioms.passed
    reports = vf.entry_reports(pe, statements=("Lemma-2.2a", "Lemma-2.2b"))
    assert len(reports) > 1 and all(r.passed for r in reports)
    assert ambient_calls == [2]


# -- Lemma 3.1 -----------------------------------------------------------------


def test_lemma31_central_case(L_s4, F_s4, N_s4, s4):
    Z = gp.Subgroup(gp.center(S_of(s4)).elems)
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


def test_lemma31_fails_where_EX_says_not_fully_K_normalized(monkeypatch, L_s4, F_s4, N_s4, s4):
    """A wiring control: X = <(0 1)(2 3)> is fully normalized in F, and an
    is_fully_K_normalized that says no for every other system says no for
    E X = F_T(A4) over T = V4, where X has three conjugates: the report
    fails and names them."""
    X = gp.Subgroup(gp.mulclose(perms(4, "(0 1)(2 3)"), cap=24))
    real = fu.is_fully_K_normalized
    monkeypatch.setattr(fu, "is_fully_K_normalized", lambda E, X, K: E is F_s4 and real(E, X, K))
    rep = vf.check_fully_K_normalized_transfer(L_s4, F_s4, N_s4, X, gp.aut_group(X), "t")
    assert rep.to_json_obj() == {
        "statement": "Lemma-3.1", "instance": "t", "outcome": "fail", "stats": {},
        "witness": {"EX_base_order": 4, "conjugates": ["{(0 1)(2 3)}", "{(0 2)(1 3)}", "{(0 3)(1 2)}"]},
    }


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
    Z = gp.Subgroup(gp.center(S_of(s4)).elems)
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
    seen = set()
    for K in A.sub_autgroups():
        b1 = K.is_subnormal_in(K.times_inn)
        K2 = gp.AutGroup(K.base, frozenset(K.maps & F_sl23.aut(gp.Subgroup(Q8.elems)).maps))
        b2 = K2.is_subnormal_in(K2.times_inn)
        branch, K_eff = vf._subnormal_branch(F_sl23, gp.Subgroup(Q8.elems), K)
        if b1:
            assert branch == 1 and K_eff.maps == K.maps
        elif b2:
            assert branch == 2 and K_eff.maps == K2.maps
        else:
            assert branch is None
        seen.add(branch)
    assert 1 in seen and None in seen


def test_main_theorem_decided_once_per_instance(monkeypatch, own_L_s4, F_s4, E_s4, N_s4, s4):
    """A second call for the same (X, K) under other statement names reads
    the first call's record: no E_0 is computed again, and the reports carry
    the caller's names and instance and their own stats."""
    calls = []
    real = lo.fusion_of_partial

    def spy(L, N, base=None, frame=None):
        calls.append(base)
        return real(L, N, base=base, frame=frame)

    monkeypatch.setattr(lo, "fusion_of_partial", spy)
    Z = gp.Subgroup(gp.center(S_of(s4)).elems)
    K = gp.trivial_aut_group(Z)
    first = vf.check_main_theorem(own_L_s4, F_s4, E_s4, N_s4, Z, K, "t1")
    computed = len(calls)
    names = ("Corollary-3.3a", "Corollary-3.3b")
    second = vf.check_main_theorem(own_L_s4, F_s4, E_s4, N_s4, Z, K, "t2", statements=names)
    assert computed > 0 and len(calls) == computed
    assert [r.statement for r in second] == list(names)
    assert [r.instance for r in second] == ["t2", "t2"]
    assert all(r.passed for r in first + second)
    for a, b in zip(first, second):
        assert a.stats == b.stats and a.stats is not b.stats
    assert first[0].stats is not first[1].stats


def test_theorem_conclusions_decided_once_per_realized_K_on_s4_a4(monkeypatch):
    """The s4_a4 sweep decides the theorem's conclusions once per distinct
    (X, K_eff cap Aut_F(X)), for fewer keys than the (X, K) whose
    hypotheses hold, with no report failing."""
    decided = []
    real = vf._decide_conclusions

    def spy(L, F, E, N, X, K_eff):
        decided.append((X.elems, K_eff.maps & F.aut(X).maps))
        return real(L, F, E, N, X, K_eff)

    monkeypatch.setattr(vf, "_decide_conclusions", spy)
    pe, axioms = vf.prepare_entry(_s4_a4_entry())
    assert axioms.passed
    assert not any(r.failed for r in vf.entry_reports(pe))
    raw, realized = set(), set()
    for X, K, K_eff in _theorem_instances(pe):
        raw.add((X.elems, K.maps))
        realized.add((X.elems, K_eff.maps & pe.F.aut(X).maps))
    assert len(decided) == len(set(decided)) and set(decided) == realized
    assert len(realized) < len(raw)


def test_an_entry_keeps_no_walk_rows_and_no_record_per_raw_K():
    """After an entry's reports, the memos of its locality and of every
    restriction kept there hold conclusions records, but no objectivity
    word, no row table of an axiom walk ("chain_ends" or
    ("wbar_survivors", rule)) and no theorem record per raw K (("theorem",
    ...)): no later reader asks for them."""
    for entry in cli.parse_corpus(cli.default_corpus_text()):
        pe, axioms = vf.prepare_entry(entry)
        assert axioms.passed
        assert not any(r.failed for r in vf.entry_reports(pe))
        memos = [pe.L._memo] + [M._memo for M in pe.L._memo.values() if isinstance(M, lo.Locality)]
        kinds = {key if isinstance(key, str) else key[0] for memo in memos for key in memo}
        assert "conclusions" in kinds
        assert not kinds & {"objectivity", "chain_ends", "wbar_survivors", "theorem"}


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


def test_trivial_case_key_stays_off_theorem_reports(own_L_s4, F_s4, E_s4, N_s4, s4):
    """The corollary marks its X = 1 reports exact; the theorem reports of
    the same record, made before or after, do not get the mark."""
    one = s4.trivial_subgroup()
    K = gp.trivial_aut_group(one)
    before = vf.check_main_theorem(own_L_s4, F_s4, E_s4, N_s4, one, K, "t")
    cor = vf.check_corollary(own_L_s4, F_s4, E_s4, N_s4, one, "t")
    after = vf.check_main_theorem(own_L_s4, F_s4, E_s4, N_s4, one, K, "t")
    assert all(r.stats.get("trivial_case_exact") == 1 for r in cor)
    assert all(r.passed and "trivial_case_exact" not in r.stats for r in before + after)


def test_corollary_trivial_X_exactness_reads_the_record(monkeypatch, own_L_s4, F_s4, N_s4, s4):
    """With F planted as E, the theorem holds at X = 1 but E_0 = E does
    not: every corollary report fails on exactness, and E_0 is built once,
    by the record that both cases read."""
    built = {"bN_K": 0, "fusion_of_partial": 0}
    for name in built:
        real = getattr(lo, name)

        def spy(*args, _real=real, _name=name, **kwargs):
            built[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(lo, name, spy)
    one = s4.trivial_subgroup()
    reps = vf.check_corollary(own_L_s4, F_s4, F_s4, N_s4, one, "t")
    assert len(reps) == 4
    for r in reps:
        assert r.failed and r.witness["part"] == "X=1-exactness"
        assert r.witness["E_germs"] == len(F_s4.all_germs()) != r.witness["E0_germs"]
    # one E_0 and one E X (product_fusion builds it through fusion_of_partial)
    assert built == {"bN_K": 1, "fusion_of_partial": 2}


def test_K_times_inn_once_per_value_on_s4_a4(monkeypatch):
    """The Lemma-2.2(b) sweep, the locality sweep and the corollary's fresh
    {id} read K*Inn(X), and whether K is subnormal in it, kept per value,
    so each is decided once per (X, K), and never for K = Aut(X), which is
    its own K*Inn(X)."""
    calls, subnormal = [], []
    _spy_times_inn(monkeypatch, lambda K: calls.append((K.base.elems, K.maps, K.full)))
    real = gp._subnormal_in
    spy = lambda K, A: subnormal.append((K.base.elems, K.maps, A.maps, K.full)) or real(K, A)  # noqa: E731
    monkeypatch.setattr(gp, "_subnormal_in", spy)
    (entry,) = [e for e in cli.parse_corpus(cli.default_corpus_text()) if e.name == "s4_a4"]
    pe, axioms = vf.prepare_entry(entry)
    assert axioms.passed
    assert not any(r.failed for r in vf.entry_reports(pe))
    assert calls and len(calls) == len(set(calls))
    assert subnormal and len(subnormal) == len(set(subnormal))
    assert not any(key[-1] for key in calls + subnormal)


# -- systems and verdicts kept across instances -----------------------------------


@pytest.fixture(scope="module")
def default_corpus_recorded():
    """The default corpus run entry by entry, with the inputs of the
    closures each entry makes, each normality, p-power-index and
    saturation verdict that a checker in verify reads, and each
    characteristic-p, subnormality and automorphism-group answer that any
    module gets."""
    closures, verdicts, group_answers = [], [], []
    real_close = fu.close_generated

    def close(S, p, generators=(), cap=fu.GERM_CAP, **kwargs):
        generators = frozenset(generators)
        closures[-1].append((S.elems, generators))
        return real_close(S, p, generators, cap, **kwargs)

    def recorded(real):
        def wrapper(*args):
            out = real(*args)
            if sys._getframe(1).f_globals["__name__"] == vf.__name__:
                verdicts.append((real.__name__, args, out))
            return out

        return wrapper

    def answered(real):
        def wrapper(*args):
            out = real(*args)
            group_answers.append((real.__name__, args, out))
            return out

        return wrapper

    reports = []
    with pytest.MonkeyPatch.context() as mp:
        for module in (fu, lo):
            mp.setattr(module, "close_generated", close)
        for name in ("is_normal_subsystem", "has_p_power_index", "saturation_failure"):
            mp.setattr(fu, name, recorded(getattr(fu, name)))
        for name in ("is_characteristic_p", "is_subnormal", "aut_group"):
            spy = answered(getattr(gp, name))
            for module in (gp, fu, lo):
                if hasattr(module, name):
                    mp.setattr(module, name, spy)
        for entry in cli.parse_corpus(cli.default_corpus_text()):
            closures.append([])
            reports += vf.run_suite([entry])[0]
    return reports, closures, verdicts, group_answers


def test_one_closure_per_input_of_an_entry(default_corpus_recorded):
    """Within a corpus entry each distinct (S, generator set) is closed
    once: the entry's locality and all its restrictions share one table of
    systems. An input that two entries meet is closed once in each."""
    reports, closures, _, _ = default_corpus_recorded
    assert len(reports) == 742 and not any(r.failed for r in reports)
    assert all(closures)
    for made in closures:
        assert len(made) == len(set(made))


def _cache_free(E):
    return fu.FusionSystem(gp.Subgroup(E.S.elems), E.p, E.all_germs(), gp.Subgroup(E.frame.elems))


def test_kept_verdicts_match_fresh_ones(default_corpus_recorded):
    """Each verdict the checkers read on the default corpus, E_0 normal in
    N_F^K(X), E_0 of p-power index in N_{EX}^K(X) and E_0 saturated for
    every theorem instance among them, equals the verdict computed on
    cache-free copies of its systems."""
    _, _, verdicts, _ = default_corpus_recorded
    assert {name for name, _, _ in verdicts} == {
        "is_normal_subsystem",
        "has_p_power_index",
        "saturation_failure",
    }
    fresh = {}
    for name, args, out in verdicts:
        key = (name,) + args
        if key not in fresh:
            fresh[key] = getattr(fu, name)(*map(_cache_free, args))
        if name == "saturation_failure":  # the checkers read only "is None"
            out, want = out is None, fresh[key] is None
        else:
            want = fresh[key]
        assert out == want, (name, args)


def test_kept_group_answers_match_fresh_ones(default_corpus_recorded):
    """Each characteristic-p verdict, subnormality verdict and automorphism
    group that a module got on the default corpus, many of them kept on a
    home, equals the one computed on cache-free copies of its groups: new
    homes with the same elements."""
    _, _, _, answers = default_corpus_recorded
    assert {name for name, _, _ in answers} == {"is_characteristic_p", "is_subnormal", "aut_group"}
    fresh = {}
    for name, args, out in answers:
        key = (name,) + tuple(getattr(a, "elems", a) for a in args)
        if key not in fresh:
            copies = (gp.Subgroup(a.elems) if isinstance(a, gp.Subgroup) else a for a in args)
            fresh[key] = getattr(gp, name)(*copies)
        assert out == fresh[key], (name, args)


# -- suite plumbing ------------------------------------------------------------


def test_run_suite_empty():
    reports, cov = vf.run_suite([])
    assert reports == []
    assert all(sum(c.values()) == 0 for c in cov.values())


# -- the partial normal subgroup N = H cap L -------------------------------------


def test_declared_N_is_the_one_the_family_search_finds():
    """On every accepted entry of the shipped and benchmark corpora, exactly
    one H cap L with H normal in G is partial normal and realizes E, and it
    is the N read off the declared normal subgroup."""
    entries = cli.parse_corpus(cli.default_corpus_text())
    for name in ("order36_axioms.txt", "a4xc2_theorem.txt"):
        entries += cli.parse_corpus((PERFBENCH_CORPORA / name).read_text())
    accepted = []
    for entry in entries:
        pe, axioms = vf.prepare_entry(entry)
        if pe is not None:
            accepted.append(entry.name)
            assert axioms.stats["N_size"] == pe.N.bit_count()
            assert oracles.partial_normal_by_family(pe.L, pe.E) == [pe.N]
    assert len(accepted) == 6


def _s4_a4_entry():
    (entry,) = [e for e in cli.parse_corpus(cli.default_corpus_text()) if e.name == "s4_a4"]
    return entry


def _not_partial_normal(monkeypatch):
    monkeypatch.setattr(
        lo, "partial_normal_violation", lambda L, N: {"kind": "conjugation", "f": "planted"}
    )
    return {"partial-normal": {"kind": "conjugation", "f": "planted"}}


def _not_realizing_E(monkeypatch):
    real = lo.fusion_of_partial

    def inner_system(L, N, base=None, frame=None):
        # the Sylow subgroup's own fusion system, not F_T(A4); calls with
        # a base come from the locality check and stay real
        if base is not None:
            return real(L, N, base, frame)
        return fu.close_generated(L.ambient.from_home_mask(N & L.S_elems), L.p, frame=L.S)

    monkeypatch.setattr(lo, "fusion_of_partial", inner_system)
    return {"partial-normal": "F_T(H cap L) != F_T(H)"}


@pytest.mark.parametrize("plant", [_not_partial_normal, _not_realizing_E])
def test_N_failing_its_check_rejects_the_entry(monkeypatch, plant):
    witness = plant(monkeypatch)
    pe, axioms = vf.prepare_entry(_s4_a4_entry())
    assert pe is None
    assert axioms.statement == "Axioms" and axioms.failed
    assert axioms.witness == witness
    reports, _ = vf.run_suite([_s4_a4_entry()])
    assert [r.to_json_obj() for r in reports if r.statement == "Axioms"] == [axioms.to_json_obj()]
    skips = [r for r in reports if r.statement != "Axioms"]
    assert [r.statement for r in skips] == sorted(vf.STATEMENTS)
    assert all(
        r.outcome == "skipped" and r.reason == "entry-rejected" and r.instance == "s4_a4|entry"
        for r in skips
    )


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


def test_k_sweep_holds_every_subgroup_of_aut_q8(sl23):
    """|Aut(Q8)| = 24 = AUT_CAP: the cap test reads AUT_CAP + 1 maps of the
    search and finds 24, so the sweep holds all 30 subgroups of Aut(Q8),
    Aut(Q8) itself as "aut", {id} as "id" and Inn(Q8) as "inn"."""
    Q8 = gp.Subgroup(gp.sylow_subgroup(sl23, 2).elems)  # a home of its own: nothing read yet
    opts = vf.k_options(Q8)
    assert len(opts) == 30 and [tag for tag, _ in opts[:3]] == ["aut", "id", "inn"]
    assert gp.aut_group(Q8).order == vf.AUT_CAP


def test_k_sweep_drops_id_and_inn_where_aut_x_is_trivial(s4):
    """At X = 1 and X = C2, Aut(X) = Inn(X) = {id}: a K <= Aut(X) is
    Aut(X) when the search has no map past |K|, so "id" and "inn" are
    dropped after "aut", and "aut" and "inn" after "id"."""
    for X in (s4.trivial_subgroup(), s4.generated_subgroup(perms(4, "(0 1)"))):
        X = gp.Subgroup(X.elems)  # a home of its own: nothing read yet
        assert [tag for tag, _ in vf.k_options(X)] == ["aut"]
        assert [tag for tag, _ in vf.k_options(X, ("id", "aut", "inn"))] == ["id"]


def test_a4xc2_reads_aut_c2_cubed_only_to_the_k_sweep_cap(monkeypatch):
    """On a4xc2_v4 with every statement, Aut(C2^3) = GL(3, 2), of order 168
    > AUT_CAP, is read only for the cap test, AUT_CAP + 1 maps of its
    search, and as K = Aut(X) through Aut_F(X) and N_G(X); every smaller
    X's Aut(X) is within the cap, so listed in full for its subgroups."""
    listed = {}
    real = gp._automorphisms

    def spy(X):
        for m in real(X):
            listed[X.elems] = listed.get(X.elems, 0) + 1
            yield m

    monkeypatch.setattr(gp, "_automorphisms", spy)
    (entry,) = [e for e in default_and_a4xc2_entries() if e.name == "a4xc2_v4"]
    reports, _ = vf.run_suite([entry])
    assert len(reports) == 343 and not any(r.failed for r in reports)
    assert [n for X, n in listed.items() if len(X) == 8] == [vf.AUT_CAP + 1]
    assert all(n <= vf.AUT_CAP for X, n in listed.items() if len(X) < 8)


@pytest.mark.slow
def test_k_lines_without_aut_search_no_automorphism_group(monkeypatch):
    """C3 wr C3 at p = 3, S = G of order 81: K lines that never name aut
    start no search of any Aut(X), not even in part, nor does the
    corollary, whose normalizer case takes Aut_F(X): the entry is checked
    in full. With no K lines the default sweep reads Aut(S), past
    AUT_BASE_CAP, only in part (test_cli pins that run)."""
    searched = []
    monkeypatch.setattr(gp, "_automorphisms", lambda X: searched.append(X.order))
    corpus = "group c3wrc3 p=3 gens=(0 1 2);(0 3 6)(1 4 7)(2 5 8)\nK=id\nK=inn\n"
    reports, coverage = vf.run_suite(cli.parse_corpus(corpus))
    assert len(reports) == 604 and all(cov["fail"] == 0 for cov in coverage.values())
    assert coverage["Corollary-3.3a"]["pass"] == 100 and coverage["Lemma-2.2b"]["pass"] == 54
    assert searched == []


def test_k_options_rejects_non_automorphism(s4):
    C4 = gp.Subgroup(gp.mulclose(perms(4, "(0 1 2 3)"), cap=24))
    from plocal.errors import CorpusParseError

    with pytest.raises(CorpusParseError):
        vf.k_options(C4, descriptors=("gens:(0 1)",))
    # (0 1 2 3) moves V4's identity; the message names the descriptor
    V4 = gp.core_Op(s4, 2)
    with pytest.raises(CorpusParseError, match=r"gens:\(0 1 2 3\);\(0 1\)"):
        vf.k_options(V4, descriptors=("gens:(0 1 2 3);(0 1)",))


def test_k_options_skips_descriptors_not_for_X(s4, klein):
    V = gp.Subgroup(klein.elems)
    one = s4.trivial_subgroup()
    C4 = gp.Subgroup(gp.mulclose(perms(4, "(0 1 2 3)"), cap=24))
    descs = ("id", "gens:(1 2)")
    assert [K.order for _, K in vf.k_options(V, descs, skip_unfit=True)] == [1, 2]
    # a point past |X|, a non-automorphism of C4, one beside an automorphism of V4
    for X, desc in ((one, "gens:(1 2)"), (C4, "gens:(0 1)"), (V, "gens:(1 2 3);(1 2)(0 3)")):
        assert vf.k_options(X, ("id", desc), skip_unfit=True)[1] == (desc, None)
        with pytest.raises(KDescriptorNotForX):
            vf.k_options(X, (desc,))
    # a malformed descriptor is an error on every X
    for desc in ("gens:(0 q)", "gens:(1 2 1)", "gens:(0 -1)", "gens:"):
        with pytest.raises(CorpusParseError) as ei:
            vf.k_options(one, (desc,), skip_unfit=True)
        assert not isinstance(ei.value, KDescriptorNotForX)


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
