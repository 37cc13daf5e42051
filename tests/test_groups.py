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


def test_group_value_checks_its_elements():
    """A group is a nonempty set of one degree, and one generated in an
    ambient group lies in the ambient's home: S3 on 4 points refuses
    X = {1, (2 3)} when X is built, where it once failed later, in
    normalizer or from_home_mask."""
    with pytest.raises(ValueError):
        gp.Subgroup(frozenset())
    with pytest.raises(DegreeMismatch):
        gp.Subgroup(frozenset([identity(2), identity(3)]))
    s3 = gp.generate_group(perms(4, "(0 1 2)", "(0 1)"))
    with pytest.raises(ValueError, match="outside the group's home"):
        s3.generated_subgroup(perms(4, "()", "(2 3)"))
    X = s3.generated_subgroup(perms(4, "()", "(0 1)"))
    assert X.ambient is s3 and gp.normalizer(s3, X) == X


def test_generated_group_is_its_element_set():
    gens = perms(4, "(0 1 2 3)", "(0 2)")
    G = gp.generate_group(gens)
    same = gp.Subgroup(gp.mulclose(gens))
    assert G == same
    assert hash(G) == hash(same)


def test_subgroup_and_autgroup_are_immutable_values(s4, klein):
    """Equal on content alone (a Subgroup's ambient takes no part), hashed
    as the tuple of that content, not equal to another class, and closed
    to assignment, while cached properties still fill. An AutGroup hashes
    its base by order, so hashing it builds no Perm view of the base; one
    on another home with equal content is another object, but equal."""
    V = s4.generated_subgroup(klein.elems)
    alone = gp.Subgroup(klein.elems)
    assert V == alone and V.ambient is s4 and alone.ambient is None
    assert hash(V) == hash((klein.elems,)) == hash(alone)
    assert V.__eq__(klein.elems) is NotImplemented and V != klein.elems
    A = gp.aut_group(klein)
    B = gp.AutGroup(alone, A.maps)
    assert A == B and A is not B and hash(A) == hash((klein.order, A.maps)) == hash(B)
    fresh = s4.from_home_mask(klein.home_mask)
    assert hash(gp.AutGroup(fresh, A.maps)) == hash(A) and "elems" not in vars(fresh)
    assert A.__eq__(A.image) is NotImplemented
    assert A != gp.AutGroup(alone, gp.inn_group(klein).maps)
    for value, name in ((V, "elems"), (V, "ambient"), (A, "maps"), (A, "base")):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert V.identity is V.identity and B.times_inn is B.times_inn


def test_generate_group_cap_and_mismatch():
    with pytest.raises(CapExceeded):
        gp.generate_group(perms(8, "(0 1 2 3 4 5 6 7)", "(0 1)"), cap=100)
    with pytest.raises(DegreeMismatch):
        gp.generate_group([perm_from_cycles("(0 1)", 2), perm_from_cycles("(0 1)", 3)])


@settings(max_examples=40, deadline=None)
@given(st.lists(st.permutations(range(4)), min_size=1, max_size=2))
def test_generated_group_is_closed(images):
    G = gp.generate_group([Perm(tuple(im)) for im in images])
    els = G.elems
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
        gp.all_subgroups(gp.Subgroup(s4.elems), cap=10)


def _corpus_normals():
    """The element set of each entry's declared normal subgroup H, in the
    order of _corpus_sylows: the default corpus's, and PSL(2,7) paired with
    itself as in the extended corpus."""
    from plocal import cli

    normals = [e.H.elems for e in cli.parse_corpus(cli.default_corpus_text())]
    return normals + [_corpus_sylows()[-1][0].elems]


def _corpus_sylows():
    """(G, S) for the default corpus's four groups at their primes and for
    PSL(2,7) at p = 2, S a Sylow p-subgroup of G."""
    from plocal import cli

    groups = [(e.G, e.p) for e in cli.parse_corpus(cli.default_corpus_text())]
    groups.append((gp.generate_group(perms(7, "(0 1 2 3 4 5 6)", "(0 1)(2 5)")), 2))
    return [(G, gp.sylow_subgroup(G, p)) for G, p in groups]


def test_lattice_filter_is_the_lattice_of_a_subgroup():
    """The members of S's lattice inside a subgroup R are R's lattice, in
    all_subgroups' order: the sub-lattices read off S's are exact."""
    for _, S in _corpus_sylows():
        lattice = gp.all_subgroups(S)
        for R in lattice:
            assert tuple(H for H in lattice if H.elems <= R.elems) == gp.all_subgroups(R)


def test_lattice_is_kept_on_the_home_by_mask():
    """lattice(R) is all_subgroups(R) keyed by mask over R, for S and each
    member of S's lattice, one object per (home, R): asked again, or for R
    built apart in the same home, it is the kept one."""
    for G, S in _corpus_sylows():
        lattice = gp.lattice(S)
        assert tuple(lattice.values()) == gp.all_subgroups(S)
        for m, R in lattice.items():
            assert S.mask(R) == m
            assert gp.lattice(G.from_home_mask(R.home_mask)) is gp.lattice(R)
            assert {R.mask(P): P for P in gp.all_subgroups(R)} == gp.lattice(R)


def test_join_is_the_generated_subgroup():
    """join(S, mask) is the mask over S of <P, Q>, the subgroup generated
    on the home's table and the closure of their Perms, for every pair of
    members P, Q of S's lattice, and None for a mask not inside S."""
    for G, S in _corpus_sylows():
        lattice = gp.lattice(S)
        for p, P in lattice.items():
            for q, Q in lattice.items():
                joined = S.from_mask(gp.join(S, p | q))
                assert joined == gp.generated(S, P.home_mask | Q.home_mask)
                assert joined.elems == gp.mulclose(P.elems | Q.elems, cap=S.order)
        for g in sorted(G.elems - S.elems)[:1]:  # none where G = S
            assert gp.join(S, S.mask([g])) is None


def test_coset_join_of_a_non_normalizing_element_is_a_set_product(s3):
    """Where gens neither hold generators of H nor normalize it, the coset
    join is the set <gens>H and no group: H = <(0 1)> and gens = ((0 2),)
    in S3 give the 4 products c h, c in <(0 2)>, h in H."""
    H, C = (s3.generated_subgroup(perms(3, spec)) for spec in ("(0 1)", "(0 2)"))
    got = gp.coset_join(s3.mul_table, H.home_mask, s3.indexes(perms(3, "(0 2)")))
    assert set(gp.elements(s3, got)) == {c * h for c in C for h in H}
    assert got.bit_count() == 4


def _greedy_positions(X):
    """X's greedy generating sequence of sorted positions, closed from
    scratch by mulclose: k is taken when the k-th element lies outside the
    group generated by the elements taken before it."""
    els, taken, inside = tuple(X), [], {X.identity}
    for k, x in enumerate(els):
        if x not in inside:
            taken.append(k)
            inside = gp.mulclose([els[i] for i in taken])
    return taken


def test_position_table_generators_are_the_greedy_sequence():
    """_table_and_gens grows its generators one coset join at a time and
    takes the sequence that a closure from scratch at every position takes:
    on every subgroup of the default corpus's four groups and of PSL(2,7)."""
    for G, _ in _corpus_sylows():
        for X in gp.all_subgroups(G):
            assert gp._table_and_gens(X)[0] == _greedy_positions(X)


# -- Sylow / O_p / characteristic p ----------------------------------------


def test_p_part_refuses_what_has_none():
    """p_part(n, p) is defined for n >= 1 and p >= 2; elsewhere it raises,
    where dividing out p would never stop."""
    assert [gp.p_part(n, 2) for n in (1, 8, 24)] == [1, 8, 8]
    for n, p in ((0, 2), (-8, 2), (8, 1), (8, 0)):
        with pytest.raises(ValueError):
            gp.p_part(n, p)


def test_mask_is_bits_of_sorted_positions(s4):
    """mask sets bit i for the i-th sorted element of each element given,
    and is -1 for a set not inside the group."""
    S = gp.sylow_subgroup(s4, 2)
    elems = tuple(S)
    for X in gp.all_subgroups(S):
        assert S.mask(X.elems) == sum(1 << elems.index(x) for x in X)
    assert S.mask(S.elems) == (1 << S.order) - 1
    assert S.mask(s4.elems) == -1


def test_home_mask_conversions(s4):
    """home_mask and from_home_mask are inverse, elements reads a mask's
    bits in sorted order, and pack re-expresses a mask over the positions
    of a subgroup's sorted elements; a negative mask has no bits."""
    S = gp.sylow_subgroup(s4, 2)
    home = tuple(s4)
    for X in gp.all_subgroups(S):
        assert X.home_mask == sum(1 << home.index(x) for x in X)
        assert s4.from_home_mask(X.home_mask) == X
        assert gp.elements(s4, X.home_mask) == tuple(X)
        assert gp.bits(X.home_mask) == [home.index(x) for x in X]
        assert gp.pack(X.home_mask, S.home_mask) == S.mask(X.elems)
    with pytest.raises(ValueError):
        gp.bits(-1)


def test_sylow_examples(s4, s3):
    assert gp.sylow_subgroup(s4, 2).order == 8
    assert gp.sylow_subgroup(s3, 3).order == 3
    c2 = gp.generate_group(perms(2, "(0 1)"))
    assert gp.sylow_subgroup(c2, 3).order == 1


def test_core_examples(s4, s3, d8):
    assert gp.core_Op(d8, 2).elems == d8.elems
    v4 = gp.core_Op(s4, 2)
    assert v4.order == 4
    assert all(x.order() in (1, 2) for x in v4)
    assert v4.is_normal_in(s4)
    assert gp.core_Op(s3, 2).order == 1


def test_characteristic_p(s4, s3):
    triv = gp.generate_group([identity(1)])
    assert gp.is_characteristic_p(triv, 2)
    assert gp.is_characteristic_p(s4, 2)
    c6 = gp.generate_group(perms(5, "(0 1 2)(3 4)"))
    assert not gp.is_characteristic_p(c6, 2)
    assert gp.is_characteristic_p(s3, 3)


@pytest.mark.parametrize("order", [(2, 3), (3, 2)], ids=["2-then-3", "3-then-2"])
@pytest.mark.parametrize(
    "gens", [(4, "(0 1 2 3)", "(0 1)"), (6, "(0 1 2)", "(0 1)", "(3 4 5)", "(3 4)")],
    ids=["s4", "s3xs3"],
)
def test_O_p_and_characteristic_p_kept_per_prime(gens, order):
    """O_p(G) and whether G has characteristic p, kept on G's home, are
    kept per prime: asked at both primes in turn on one home, each equals
    O_p by conjugation and the verdict of a new home asked at that prime
    alone. Both groups have characteristic p at one of the primes only."""
    G = gp.generate_group(perms(*gens))
    verdicts = set()
    for p in order:
        assert gp.core_Op(G, p).elems == oracles.core_Op_by_conjugation(G, p)
        verdict = gp.is_characteristic_p(G, p)
        assert verdict == gp.is_characteristic_p(gp.Subgroup(G.elems), p)
        verdicts.add(verdict)
    assert verdicts == {True, False}


# -- normalizer / centralizer ----------------------------------------------


def test_normalizer_centralizer_trivial_cases(s4):
    assert gp.normalizer(s4, s4).elems == s4.elems
    assert gp.centralizer(s4, s4.trivial_subgroup()).elems == s4.elems


def test_centralizer_of_transposition(s4):
    X = s4.generated_subgroup(perms(4, "(0 1)"))
    assert gp.centralizer(s4, X).order == 4


@pytest.mark.parametrize("group", ["s4", "sl23"])
def test_kept_normalizer_matches_definition(request, group):
    """N_G(X) kept on G equals {g : X^g = X} for every X <= G, on the call
    that computes it and on the calls that read it, for an equal X built
    anew as well."""
    G = gp.Subgroup(request.getfixturevalue(group).elems)
    for X in gp.all_subgroups(G):
        expected = frozenset(
            g for g in G.elems if frozenset(x.conj(g) for x in X.elems) == X.elems
        )
        first = gp.normalizer(G, X)
        assert first.elems == expected
        assert gp.normalizer(G, gp.Subgroup(X.elems)) is first


# -- automorphism groups ----------------------------------------------------


def test_aut_orders(s4, klein):
    assert gp.aut_group(s4.generated_subgroup(perms(4, "(0 1)"))).order == 1
    assert gp.aut_group(klein).order == 6
    assert gp.aut_group(s4.generated_subgroup(perms(4, "(0 1 2 3)"))).order == 2


def test_aut_vs_bijection_oracle(s4, klein, d8, sl23):
    for X in [
        klein,
        s4.generated_subgroup(perms(4, "(0 1 2 3)")),
        d8,
        gp.sylow_subgroup(sl23, 2),
    ]:
        assert oracles.as_pairs(X, gp.aut_group(X).maps) == oracles.bijection_automorphisms(X)


def test_aut_cap():
    """Aut(C65), on a base past AUT_BASE_CAP, is held and read in part, but
    its maps, and so its order, are listed in full only within the cap."""
    big = gp.generate_group([Perm(tuple(list(range(1, 65)) + [0]))])
    A = gp.aut_group(big)
    assert big.order == 65 > gp.AUT_BASE_CAP and A.full
    assert A.order_at_least(25) and len(A._found) == 25
    for read in (lambda: A.maps, lambda: A.order):
        with pytest.raises(CapExceeded, match="automorphism base 65 exceeds cap 64"):
            read()


def test_aut_cap_holds_on_a_cache_hit(s4):
    """Aut(X) is kept on X's home with the prefix of its search read so far;
    a cap met is not kept, so the kept value meets it on every read, and a
    base within the cap lists its maps once."""
    big = gp.generate_group([Perm(tuple(list(range(1, 65)) + [0]))])
    A = gp.aut_group(big)
    assert A.order_at_least(2) and gp.aut_group(big.generated_subgroup(big.elems)) is A
    for _ in range(2):
        with pytest.raises(CapExceeded):
            A.maps
    X = gp.sylow_subgroup(s4, 2)  # D8, order 8
    assert gp.aut_group(X).order == 8 and gp.aut_group(X).maps is gp.aut_group(X).maps


def test_inn_group(sl23, klein):
    q8 = gp.sylow_subgroup(sl23, 2)
    assert gp.inn_group(q8).order == 4  # Q8 / Z(Q8)
    assert gp.inn_group(klein).order == 1
    A = gp.aut_group(q8)
    assert gp.inn_group(q8).maps <= A.maps


def test_aut_induced_builds_each_map_once(monkeypatch, s4, sl23, s3xs3):
    """Aut_G(X) equals the set of all c_g restricted to X, g in N_G(X), and
    builds one map (one Perm of X's positions) per automorphism, not one
    per element of N_G(X)."""
    for G in (s4, sl23, s3xs3):
        for X in gp.all_subgroups(gp.sylow_subgroup(G, 2)):
            N = gp.normalizer(G, X)
            every = frozenset(oracles.conj_map(X.elems, g) for g in N.elems)
            built = []
            real = gp.Perm

            def spy(images, real=real):
                built.append(1)
                return real(images)

            with monkeypatch.context() as m:
                m.setattr(gp, "Perm", spy)
                A = gp.aut_induced(G, X)
            assert oracles.as_pairs(X, A.maps) == every
            assert len(built) == A.order == N.order // gp.centralizer(G, X).order


def test_aut_perm_realization_roundtrip(klein):
    """An automorphism group is its permutation image: each map is a Perm
    of the base's positions, and the image's elements are the maps."""
    A = gp.aut_group(klein)
    for m in A.maps:
        assert gp.AutGroup(A.base, [tuple(m)]).maps == {m}
    assert A.image.elems == A.maps and A.image.order == A.order
    with pytest.raises(ValueError):
        gp.AutGroup(A.base, [(0, 1, 2)])


def test_autgroup_is_one_object_per_content(monkeypatch):
    """AutGroup(X, maps) is the object kept on X's home for (X's mask,
    maps): equal bases on one home, found apart, and the maps given in
    another form give that object, whose maps _is_automorphism checks
    once. Other maps on X are another object, checked on their own."""
    G = gp.generate_group(perms(4, "(0 1 2 3)", "(0 1)"))
    X = G.generated_subgroup(perms(4, "(0 1)", "(2 3)"))
    Y = G.from_home_mask(X.home_mask)
    checked = []
    real = gp._is_automorphism
    monkeypatch.setattr(gp, "_is_automorphism", lambda X, m: checked.append(m) or real(X, m))
    maps = [range(4), (0, 2, 1, 3)]
    A = gp.AutGroup(X, maps)
    assert len(checked) == 2 and A.base is X
    assert gp.AutGroup(Y, map(tuple, maps)) is A and gp.AutGroup(X, A.maps) is A
    assert len(checked) == 2
    assert gp.AutGroup(Y, [range(4)]) is not A and len(checked) == 3


def test_autgroup_refuses_a_non_automorphism(s4):
    """Maps outside Aut(X) are refused at construction, before any
    K-normalizer reads them: swapping V4's identity with an involution
    moves 1. The check runs no automorphism search, and gives the same
    answers once Aut(X) is kept."""
    V = gp.Subgroup(s4.elems).generated_subgroup(perms(4, "(0 1)(2 3)", "(0 2)(1 3)"))
    for searched in (False, True):
        with pytest.raises(ValueError, match="not an automorphism"):
            gp.AutGroup(V, [(1, 0, 2, 3)])
        with pytest.raises(ValueError, match="not an automorphism"):
            gp.AutGroup(V, [range(4), (0, 1, 3, 2), (0, 2, 1, 3), (1, 0, 2, 3)])
        assert gp.AutGroup(V, [range(4), (0, 1, 3, 2)]).order == 2
        assert (("aut", V.home_mask) in V.home._kept) is searched
        gp.aut_group(V)


# -- subnormality ------------------------------------------------------------


def test_subnormal_examples(s4):
    chain = gp.subnormal_chain(s4, s4)
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
        for X in gp.all_subgroups(S)[:6]:
            XG = gp.Subgroup(X.elems)
            A = gp.aut_group(XG)
            for K in A.sub_autgroups():
                NK = gp.group_K_normalizer(G, XG, K)
                assert gp.centralizer(G, XG).elems <= NK.elems


def test_group_K_normalizer_matches_oracle(s4, sl23):
    """The permutation-image membership test gives N_G^K(X) as a scan of G
    against K's maps does, for every X <= S and every K <= Aut(X)."""
    checked = 0
    for G in (s4, sl23):
        for X in gp.all_subgroups(gp.sylow_subgroup(G, 2)):
            A = gp.aut_group(X)
            if A.order > 24:
                continue
            for K in A.sub_autgroups():
                assert gp.group_K_normalizer(G, X, K) == oracles.K_normalizer_from_group(G, X, K)
                checked += 1
    assert checked == 68


@pytest.mark.parametrize("case", range(5), ids=["s4", "d8", "s3", "sl23", "l27"])
def test_conjugation_tables_match_perm_definitions(case):
    """On the default corpus's four groups and PSL(2,7) at p = 2, for every
    X <= S and every K of X's default sweep: Aut_G(X), Aut_S(X), N_G^K(X),
    N_S^K(X), "X fully K-normalized in F_S(G)" and O_p(N_G^K(X)), all read
    off G's tables, equal their definitions by Perm conjugation. So do the
    positions of the conjugates of X's elements by G, by S and by the
    entry's normal subgroup N as prepare_entry builds it (groups reading
    G's tables), and the germs of F_S(G) and of E = F_T(N), T = S cap N."""
    from plocal import fusion as fu
    from plocal import verify as vf

    G, S = _corpus_sylows()[case]
    N = G.generated_subgroup(_corpus_normals()[case])
    p = min(q for q in range(2, S.order + 1) if S.order % q == 0)
    F = fu.fusion_of_group(G, S, p)
    assert oracles.as_pairs(S, F.all_germs()) == oracles.conjugation_germs(G, S)
    T = G.generated_subgroup(S.elems & N.elems)
    E = fu.fusion_of_group(N, T, p)
    assert oracles.as_pairs(T, E.all_germs()) == oracles.conjugation_germs(N, T)
    for X in F.subgroups():
        for A in (G, S, N):
            assert gp.conj_positions(A, X) == oracles.conj_positions_by_conjugation(A, X)
        for H in (G, S):
            assert oracles.as_pairs(X, gp.aut_induced(H, X).maps) == (
                oracles.aut_induced_by_conjugation(H, X)
            )
        for _, K in vf.k_options(X):
            NK = gp.group_K_normalizer(G, X, K)
            assert NK == oracles.K_normalizer_from_group(G, X, K)
            assert gp.group_K_normalizer(S, X, K) == oracles.K_normalizer_from_group(S, X, K)
            assert fu.is_fully_K_normalized(F, X, K) == oracles.fully_K_normalized_by_conjugation(
                G, S, X, K
            )
            assert gp.core_Op(NK, p).elems == oracles.core_Op_by_conjugation(
                gp.Subgroup(NK.elems), p
            )


def test_lemma22_product_identity(s4, sl23):
    """N_G^{K Inn(X)}(X) = N_G^K(X) X, for every K <= Aut(X)."""
    for G in (s4, sl23):
        S = gp.sylow_subgroup(G, 2)
        for X in gp.all_subgroups(S):
            XG = gp.Subgroup(X.elems)
            A = gp.aut_group(XG)
            if A.order > 24:
                continue
            for K in A.sub_autgroups():
                KInn = K.times_inn
                lhs = gp.group_K_normalizer(G, XG, KInn).home_mask
                rhs = gp.set_product(G, gp.group_K_normalizer(G, XG, K), XG)
                assert lhs == rhs


# -- automorphism-group arithmetic --------------------------------------------


def _map_product(A, B):
    """The set product by composing the maps as (element, image) pairs,
    {a then b}, or None when that set is not closed under composition: the
    definition ``times_inn`` keeps for B = Inn(X)."""
    compose, maps = oracles.compose, [oracles.as_pairs(K.base, K.maps) for K in (A, B)]
    prod = frozenset(compose(a, b) for a in maps[0] for b in maps[1])
    if all(compose(a, b) in prod for a in prod for b in prod):
        return prod
    return None


def test_times_inn_matches_map_composition(s4, sl23):
    """For every subgroup K of Aut(D8) and of Aut(Q8), K*Inn(X) worked on
    the permutation image is the set product of the maps, and that set is a
    subgroup: Inn(X) is normal in Aut(X)."""
    for G in (s4, sl23):
        subs = gp.aut_group(gp.sylow_subgroup(G, 2)).sub_autgroups()
        for K in subs:
            expected = _map_product(K, gp.inn_group(K.base))
            assert expected is not None
            assert oracles.as_pairs(K.base, K.times_inn.maps) == expected


def test_sub_autgroups_kept_on_the_home(monkeypatch, s4, klein):
    """The lattice of an automorphism group is computed once per (base,
    maps) on the base's home: an equal group asked through a fresh value
    gets the same tuple, and all_subgroups is not called again."""
    X = s4.generated_subgroup(klein.elems)
    A = gp.AutGroup(X, gp.aut_group(klein).maps)
    first = A.sub_autgroups()
    calls = []
    monkeypatch.setattr(gp, "all_subgroups", lambda G: calls.append(G))
    assert gp.AutGroup(s4.generated_subgroup(klein.elems), A.maps).sub_autgroups() is first
    assert calls == [] and [K.order for K in first] == [1, 2, 2, 2, 3, 6]


def test_product_of_aut_c2_cubed_and_inn_is_aut():
    """Aut(C2^3), GL(3, 2) of order 168, times its trivial Inn is itself,
    the set product of the maps, and is kept on it."""
    X = gp.generate_group(perms(6, "(0 1)", "(2 3)", "(4 5)"))
    A = gp.aut_group(X)
    assert A.order == 168
    assert A.times_inn is A
    assert oracles.as_pairs(X, A.times_inn.maps) == _map_product(A, gp.inn_group(X))


def test_mismatched_bases_are_refused(s4):
    V = s4.generated_subgroup(perms(4, "(0 1)(2 3)", "(0 2)(1 3)"))
    W = s4.generated_subgroup(perms(4, "(0 1)", "(2 3)"))
    A, B = gp.aut_group(V), gp.aut_group(W)
    with pytest.raises(ValueError, match="mismatched bases"):
        A.is_subnormal_in(B)


# -- element tables -------------------------------------------------------------


@pytest.mark.parametrize("group", ["s3xs3", "sl23"])
def test_element_tables_match_perm_arithmetic(request, group):
    """Every entry of the product and inverse tables is the Perm product or
    inverse."""
    G = gp.Subgroup(request.getfixturevalue(group).elems)
    mul, inv = G.mul_table, G.inv_table
    els = tuple(G)
    assert all(G.element_index[x] == i for i, x in enumerate(els))
    assert len(mul) == len(inv) == G.order
    for i, a in enumerate(els):
        assert els[inv[i]] == a.inv()
        assert len(mul[i]) == G.order
        for j, b in enumerate(els):
            assert els[mul[i][j]] == a * b


# -- misc helpers -------------------------------------------------------------


def test_op_residual(s4, klein):
    A = gp.aut_group(klein)  # S3
    assert gp.op_residual(A, 2).order == 3
    assert gp.op_residual(A, 3).order == 6  # the involutions generate S3
    d8aut = gp.aut_group(gp.sylow_subgroup(s4, 2))
    assert gp.op_residual(d8aut, 2).order == 1  # Aut(D8) is a 2-group
