"""Independent brute-force oracles.

These deliberately avoid the algorithms used by the package: subgroup
enumeration scans subsets, Sylow subgroups are maxima over the full
lattice, subnormality searches over all normal-series chains, and
automorphism groups filter all identity-fixing bijections. They are the
second route every lattice-level claim is checked against. The
p-subgroups of G and the groups between C_G(X) and N_G(X) are filtered
from whole subgroup lattices, which the package itself never builds for
an ambient group.

The fusion-layer oracles read F = F_S(G) off G itself, never off a stored
fusion system: a morphism is a conjugation c_g, and N_F(Q) for a fully
normalized Q is F_{N_S(Q)}(N_G(Q)).

The objectivity oracle searches for an object chain along one word at a
time, conjugating object elements, apart from the package's word rule,
which it checks.

The restriction oracles keep the element-set form of H|_Gamma and of the
germ search of a partial subgroup's fusion system: every P^f is
conjugated element by element, <P, X> and R<x> are closed under products,
and none of the package's bitmask tables is read. The package's sets
are masks; ``elems_of`` and ``objects_of`` read a locality's as element
sets, the form every oracle here works in.

A map here is its own value, apart from the package's position tuples: the
frozenset of its (element, image) pairs, found by Perm conjugation and
composed, inverted and restricted as pairs. ``as_pairs`` reads the
package's germs and automorphisms back in this form for comparison.
"""

from __future__ import annotations

import itertools

from plocal.groups import Subgroup, elements
from plocal.perm import sorted_elems


def elems_of(L, mask) -> frozenset:
    """A mask over L's ambient group as its element set."""
    return frozenset(elements(L.ambient, mask))


def objects_of(L) -> frozenset:
    """L's objects, masks over S, as element sets."""
    return frozenset(frozenset(elements(L.S, d)) for d in L.Delta)


def as_pairs(base: Subgroup, maps) -> frozenset:
    """Package maps as this module's values: each tuple of positions over
    base's sorted elements (a germ of a fusion system over base, or a map
    of an AutGroup on base) as the frozenset of its (element, image)
    pairs."""
    elems = sorted_elems(base.elems)
    return frozenset(
        frozenset((elems[i], elems[j]) for i, j in enumerate(m) if j >= 0) for m in maps
    )


def compose(a: frozenset, b: frozenset) -> frozenset:
    """The map a then b, for b defined on a's image."""
    table = dict(b)
    return frozenset((x, table[y]) for x, y in a)


def inverse(a: frozenset) -> frozenset:
    return frozenset((y, x) for x, y in a)


def restrict(a: frozenset, sub) -> frozenset:
    return frozenset((x, y) for x, y in a if x in sub)


def powerset_subgroups(G: Subgroup):
    """All subgroups by scanning every subset; only usable for |G| <= 8."""
    assert G.order <= 8
    elems = list(G.elems)
    out = set()
    for r in range(1, len(elems) + 1):
        for combo in itertools.combinations(elems, r):
            s = frozenset(combo)
            if G.identity not in s:
                continue
            if any(a * b not in s for a in s for b in s):
                continue
            if any(a.inv() not in s for a in s):
                continue
            out.add(s)
    return out


def generated_subgroups(G: Subgroup, max_gens: int = 4):
    """All subgroups as closures of generator subsets of bounded size.

    Complete for |G| <= 24: every subgroup has order <= 24, and the only
    such group needing four generators is C2^4 (order 16), so rank <= 4.
    """
    elems = list(G.elems)
    # every Perm product of G, computed once for the scan
    times = {(a, b): a * b for a in elems for b in elems}
    out = {frozenset([G.identity])}
    for r in range(1, max_gens + 1):
        for combo in itertools.combinations(elems, r):
            closure, frontier = {G.identity}, [G.identity]
            while frontier:
                frontier = [c for c in {times[a, g] for a in frontier for g in combo} if c not in closure]
                closure.update(frontier)
            out.add(frozenset(closure))
    return out


def is_p_power(n: int, p: int) -> bool:
    while n % p == 0:
        n //= p
    return n == 1


def max_p_power_subgroup_order(subgroup_sets, p: int) -> int:
    return max(len(s) for s in subgroup_sets if is_p_power(len(s), p))


def largest_normal_p_subgroup(G: Subgroup, subgroup_sets, p: int):
    """O_p(G) as the unique maximal normal p-subgroup of the lattice."""
    candidates = [
        s
        for s in subgroup_sets
        if is_p_power(len(s), p)
        and all(x.conj(g) in s for x in s for g in G.elems)
    ]
    best = max(candidates, key=len)
    for s in candidates:
        assert s <= best, "normal p-subgroups have no unique maximum"
    return best


def subnormal_by_chain_search(H: Subgroup, G: Subgroup, subgroup_sets) -> bool:
    """H subnormal in G iff some chain H <| M_1 <| ... <| G exists,
    searched over all subgroups."""
    he = H.elems

    def normal_in(a, b) -> bool:
        return all(x.conj(g) in a for x in a for g in b)

    seen = set()

    def ascend(cur) -> bool:
        if cur == G.elems:
            return True
        if cur in seen:
            return False
        seen.add(cur)
        for m in subgroup_sets:
            if cur < m and normal_in(cur, m) and ascend(m):
                return True
        return False

    return ascend(he)


def p_subgroups_by_lattice(G: Subgroup, p: int):
    """The p-subgroups of G, filtered from G's whole subgroup lattice."""
    from plocal.groups import all_subgroups

    return tuple(H for H in all_subgroups(G) if is_p_power(H.order, p))


def normalizer_range_by_lattice(G: Subgroup, X: Subgroup):
    """The H with C_G(X) <= H <= N_G(X), filtered from the subgroup lattice
    of N_G(X); N_G(X) and C_G(X) by scanning G."""
    from plocal.groups import all_subgroups

    N = Subgroup(frozenset(g for g in G.elems if _conj(X.elems, g) == X.elems))
    C = frozenset(g for g in G.elems if all(x.conj(g) == x for x in X.elems))
    return tuple(H for H in all_subgroups(N) if C <= H.elems)


def bijection_automorphisms(X: Subgroup):
    """Aut(X) by filtering all identity-fixing bijections; |X| <= 8 only."""
    elems = sorted_elems(X.elems)
    assert len(elems) <= 8
    ident = [x for x in elems if x.is_identity()][0]
    others = [x for x in elems if x is not ident]
    out = set()
    for images in itertools.permutations(others):
        table = {ident: ident}
        table.update(zip(others, images))
        if all(table[a * b] == table[a] * table[b] for a in elems for b in elems):
            out.add(frozenset(table.items()))
    return out


def _conj(X, g):
    return frozenset(x.conj(g) for x in X)


def conj_map(X, g) -> frozenset:
    """c_g restricted to the element set X, x |-> x^g, by Perm conjugation."""
    return frozenset((x, x.conj(g)) for x in X)


def conj_positions_by_conjugation(G: Subgroup, X: Subgroup) -> tuple:
    """Per g in G in sorted order, the position in X's sorted elements of
    x^g for each of them, by Perm conjugation; -1 where x^g leaves X."""
    xs = sorted_elems(X.elems)
    return tuple(
        tuple(xs.index(x.conj(g)) if x.conj(g) in X.elems else -1 for x in xs)
        for g in sorted_elems(G.elems)
    )


def aut_induced_by_conjugation(G: Subgroup, X: Subgroup) -> frozenset:
    """Aut_G(X) as maps: c_g on X for every g in G with X^g = X."""
    return frozenset(conj_map(X.elems, g) for g in G.elems if _conj(X.elems, g) == X.elems)


def core_Op_by_conjugation(G: Subgroup, p: int) -> frozenset:
    """O_p(G), the largest normal p-subgroup: the intersection of all
    G-conjugates of every largest p-subgroup closed under products, found
    by growing a p-subgroup one element at a time and conjugating it by
    every element of G."""
    top = max(p**k for k in range(G.order.bit_length()) if G.order % p**k == 0)
    P = {G.identity}
    grown = True
    while grown:
        grown = False
        for g in sorted(G.elems - P):
            Q, frontier = set(P) | {g}, [g]
            while frontier and len(Q) <= top:  # close P and g under products
                new = {a * b for a in frontier for b in Q} | {b * a for a in frontier for b in Q}
                frontier = new - Q
                Q |= frontier
            if len(Q) <= top and is_p_power(len(Q), p):
                P, grown = Q, True
                break
    core = frozenset(P)
    for g in G.elems:
        core &= _conj(P, g)
    return core


def fusion_core_from_group(G: Subgroup, S: Subgroup):
    """O_p(F_S(G)) from the definition: the largest Q <| S such that every
    c_g : A -> S (A <= S, g in G) agrees on A with some c_h, h in G, with
    Q^h = Q and (AQ)^h <= S. Subgroups of S by subset scan, |S| <= 8."""
    se = S.elems
    subs = powerset_subgroups(S)
    # the elements of G grouped by the map c_g they induce on A
    realizing = {}
    for A in subs:
        order = sorted_elems(A)
        by_map = {}
        for g in G.elems:
            by_map.setdefault(tuple(a.conj(g) for a in order), []).append(g)
        realizing[A] = [hs for img, hs in by_map.items() if set(img) <= se]

    def normal(Q) -> bool:
        if any(_conj(Q, s) != Q for s in se):
            return False
        for A in subs:
            AQ = frozenset(a * q for a in A for q in Q)
            for hs in realizing[A]:
                if not any(_conj(Q, h) == Q and _conj(AQ, h) <= se for h in hs):
                    return False
        return True

    normals = [Q for Q in subs if normal(Q)]
    best = max(normals, key=len)
    assert all(Q <= best for Q in normals), "normal subgroups have no unique maximum"
    return best


def subcentric_from_group(G: Subgroup, S: Subgroup):
    """F^s for F = F_S(G): the P <= S whose class has a fully normalized
    member Q with O_p(F_{N_S(Q)}(N_G(Q))) centric, where R <= S is centric
    when C_S(R') <= R' for every G-conjugate R' of R inside S."""
    se = S.elems

    def in_S_class(P):
        return {_conj(P, g) for g in G.elems if _conj(P, g) <= se}

    def N(H, Q):
        return frozenset(h for h in H.elems if _conj(Q, h) == Q)

    def centric(R):
        return all(
            frozenset(s for s in se if all(r.conj(s) == r for r in Rg)) <= Rg
            for Rg in in_S_class(R)
        )

    out = set()
    for P in powerset_subgroups(S):
        Q = max(sorted(in_S_class(P), key=sorted_elems), key=lambda Q: len(N(S, Q)))
        if centric(fusion_core_from_group(Subgroup(N(G, Q)), Subgroup(N(S, Q)))):
            out.add(P)
    return out


def _K_normalizer(H: Subgroup, X: frozenset, maps: frozenset) -> Subgroup:
    """{h in H : X^h = X and c_h on X is one of the maps}, by scanning H."""
    return Subgroup(
        frozenset(h for h in H.elems if _conj(X, h) == X and conj_map(X, h) in maps)
    )


def K_normalizer_from_group(H: Subgroup, X: Subgroup, K) -> Subgroup:
    """N_H^K(X) = {h in H : X^h = X and c_h on X lies in K}, by scanning H."""
    return _K_normalizer(H, X.elems, as_pairs(K.base, K.maps))


def fully_K_normalized_by_conjugation(G: Subgroup, S: Subgroup, X: Subgroup, K) -> bool:
    """X fully K-normalized in F_S(G), by the definition: |N_S^K(X)| >=
    |N_S^{K^phi}(X phi)| for every phi = c_g with X^g <= S, where K^phi =
    phi^-1 K phi is built as maps and each K-normalizer scans S."""
    n0 = K_normalizer_from_group(S, X, K).order
    maps = as_pairs(K.base, K.maps)
    for g in G.elems:
        if not _conj(X.elems, g) <= S.elems:
            continue
        phi = conj_map(X.elems, g)
        Kphi = frozenset(compose(compose(inverse(phi), m), phi) for m in maps)
        if _K_normalizer(S, _conj(X.elems, g), Kphi).order > n0:
            return False
    return True


def E0_by_group(H: Subgroup, S: Subgroup, X: Subgroup, K):
    """The theorem's E_0 predicted from the group H: (T_0, N_H^K(X), maps),
    with T_0 = N_T^K(X) = N_H^K(X) cap S for T = S cap H, and maps the
    morphisms of F_{T_0}(N_H^K(X)): c_h on P for P <= T_0 and h in
    N_H^K(X) with P^h <= T_0, by Perm conjugation; |T_0| <= 8.

    E_0 = F_{T_0}(M) with M = N cap bN_L^K(X) inside N_H^K(X), so E_0 lies
    in F_{T_0}(N_H^K(X)) at once. Equality is not proved here: the tests
    check it instance by instance.
    """
    NH = K_normalizer_from_group(H, X, K)
    T0 = Subgroup(NH.elems & S.elems)
    maps = {
        conj_map(P, h)
        for P in powerset_subgroups(T0)
        for h in NH.elems
        if _conj(P, h) <= T0.elems
    }
    return T0, NH, maps


def conjugation_germs(G: Subgroup, S: Subgroup):
    """The morphisms of F_S(G) as maps: c_g on P for every P <= S and
    g in G with P^g <= S."""
    se = S.elems
    return {conj_map(P, g) for P in powerset_subgroups(S) for g in G.elems if _conj(P, g) <= se}


def normal_subgroups_by_classes(G: Subgroup):
    """Every normal subgroup of G as an element set. A normal subgroup is
    generated by the conjugacy classes it contains, so adding one class at
    a time to {1} and closing reaches them all; no subgroup lattice."""
    from plocal.groups import mulclose

    classes = {frozenset(x.conj(g) for g in G.elems) for x in G.elems}
    found = {frozenset([G.identity])}
    todo = list(found)
    while todo:
        N = todo.pop()
        for c in classes:
            if not c <= N:
                M = mulclose(N | c, cap=G.order)
                if M not in found:
                    found.add(M)
                    todo.append(M)
    return found


def partial_normal_by_family(L, E):
    """The partial normal subgroups of L that realize E, searched over the
    family H cap L for H normal in the ambient group: each candidate is
    kept if it is partial normal, meets S in E's Sylow and has fusion
    system E. A list of distinct masks, smallest H first."""
    from plocal import locality as lo

    out = []
    normals = normal_subgroups_by_classes(L.ambient)
    for H in sorted(normals, key=lambda s: (len(s), sorted_elems(s))):
        cand = L.ambient.mask(H) & L.elems
        if cand in out or cand & L.S_elems != L.ambient.mask(E.S.elems):
            continue
        if lo.partial_normal_violation(L, cand) is None and lo.fusion_of_partial(L, cand) == E:
            out.append(cand)
    return out


def delta_chain_exists(L, word) -> bool:
    """Whether the word has an object chain P_0, ..., P_n in L, with
    P_{i-1}^{g_i} = P_i: each object in turn is conjugated along the word,
    element by element, and the search stops at the first chain. It reads
    L's objects only, never its word rule or its tables."""
    objects = objects_of(L)
    for P in sorted(objects, key=len):
        for g in word:
            P = frozenset(x.conj(g) for x in P)
            if P not in objects:
                break
        else:
            return True
    return False


def partial_group_by_words(P, word_len):
    """The partial-group axioms of P checked one whole word at a time, as
    (outcome, witness, stats): the witness names the failing axiom and
    word, and the stats count the words checked and those in the domain,
    up to the first failure.

    Every product is a product of ``Perm``s and a word is in the domain
    when R_w, the base elements whose conjugates by all prefix products of
    w stay in the base, is one of P's objects. No package table is
    read: each letter's inverse and its conjugates of the base elements
    are computed once per call by ``Perm`` arithmetic, and each product of
    an element by a letter the first time it is met; no verdict is kept
    from one word for the next. The words of length
    1..word_len go by length and then lexicographically over the sorted
    elements, and each domain word w gets its checks in one order: length
    one, subwords w[i:j], the splices of Pi(w[i:j]) for j - i >= 2, and the
    inverse word wbar w.
    """
    S, els, unit = P.S, P.sorted_elements(), P.ambient.identity
    elems, objects = frozenset(els), objects_of(P)
    checked = domain = 0
    # every letter of a word below lies in P: the words' own, a spliced
    # product once it is found in P, and an inverse once inversion holds
    inverse = {g: g.inv() for g in els}
    conj = {g: {x: x.conj(g) for x in S} for g in els}
    times = {}

    def in_domain(word):
        R = []
        for x in S:
            y = x
            for g in word:
                y = conj[g][y]
                if y not in S:
                    break
            else:
                R.append(x)
        return frozenset(R) in objects

    def product(word):
        out = unit
        for g in word:
            step = times.get((out, g))
            if step is None:
                step = times[out, g] = out * g
            out = step
        return out

    def fail(witness):
        return "fail", witness, {"words_checked": checked, "domain_words": domain}

    def named(word):
        return [str(g) for g in word]

    for x in els:
        if x.inv() not in elems:
            return fail({"axiom": "inversion-closure", "x": str(x)})
        if x.inv().inv() != x:
            return fail({"axiom": "inversion-involutory", "x": str(x)})
    if not in_domain(()):
        return fail({"axiom": "empty-word"})
    if product(()) != unit:
        return fail({"axiom": "unit"})
    for k in range(1, word_len + 1):
        for w in itertools.product(els, repeat=k):
            checked += 1
            if not in_domain(w):
                continue
            domain += 1
            if k == 1 and product(w) != w[0]:
                return fail({"axiom": "length-one", "w": named(w)})
            for i in range(k):
                for j in range(i + 1, k + 1):
                    if j - i < k and not in_domain(w[i:j]):
                        return fail({"axiom": "subword", "w": named(w), "i": i, "j": j})
            for i in range(k - 1):
                for j in range(i + 2, k + 1):
                    v = product(w[i:j])
                    spliced = w[:i] + (v,) + w[j:]
                    if v not in elems or not in_domain(spliced):
                        return fail({"axiom": "splice-domain", "w": named(w), "i": i, "j": j})
                    if product(spliced) != product(w):
                        return fail({"axiom": "splice-product", "w": named(w), "i": i, "j": j})
            wbar = tuple(inverse[g] for g in reversed(w))
            if not in_domain(wbar + w):
                return fail({"axiom": "inverse-word-domain", "w": named(w)})
            if product(wbar + w) != unit:
                return fail({"axiom": "inverse-word-product", "w": named(w)})
    return "pass", None, {"words_checked": checked, "domain_words": domain}


def S_f_by_perms(L, f):
    """S_f = {x in S : (f^-1, x, f) in D and x^f in S}, one in_domain call
    and one Perm conjugation per x."""
    fi, S = f.inv(), L.S.elems
    return frozenset(x for x in S if L.in_domain((fi, x, f)) and x.conj(f) in S)


def _conj_if_defined(L, P, f):
    if P <= S_f_by_perms(L, f):
        return frozenset(x.conj(f) for x in P)
    return None


def group_words_defined(P0, H):
    """Every word over the subgroup H is in the domain of P0: the prefix
    products of those words are the elements of H, so this holds iff the
    base elements x with x^u in the base for every u in H form an object.
    Conjugated as Perms, apart from the rule's survivor table."""
    base = P0.S.elems
    return frozenset(x for x in base if all(x.conj(u) in base for u in H)) in objects_of(P0)


def max_p_subgroup_by_perms(P0, R, p):
    """R a maximal p-subgroup of the partial group P0, growing R<x> by
    mulclose over each x in N_G(R) cap P0 outside R."""
    from plocal.groups import mulclose, normalizer

    elems = elems_of(P0, P0.elems)
    if not R <= elems or not is_p_power(len(R), p) or not group_words_defined(P0, R):
        return False
    for x in normalizer(P0.ambient, Subgroup(R)).elems & elems - R:
        H = mulclose(list(R) + [x], cap=P0.ambient.order)
        if is_p_power(len(H), p) and H <= elems and group_words_defined(P0, H):
            return False
    return True


def restrict_by_perms(L, H, Gamma, X):
    """H|_Gamma with its closure, (Q1), (Q2) and maximality checks, on
    element sets: each P^f is conjugated element by element, <P, X> is
    closed under products, and the checks raise the package's exceptions
    with its messages in the same order over the same sets: H is a mask
    over the ambient group and Gamma masks over S, as the package takes
    them, each read once as element sets, and Gamma goes in the order of
    its masks."""
    from plocal import errors
    from plocal import locality as lo
    from plocal.groups import all_subgroups, mulclose

    if H & ~L.elems:
        raise ValueError("subset not inside the partial group")
    H = elems_of(L, H)
    listed = [frozenset(elements(L.S, P)) for P in sorted(set(Gamma))]
    Gamma, objects = frozenset(listed), objects_of(L)
    R = L.S.elems & H
    r_subs = {K.elems for K in all_subgroups(Subgroup(R))}
    for P in listed:
        if P not in r_subs:
            raise errors.GammaNotClosed("object is not a subgroup of R")
    images = {}
    for P in listed:
        for Q in r_subs:
            if P <= Q and Q not in Gamma:
                raise errors.GammaNotClosed("not closed under overgroups in R")
        for f in H:
            img = images[P, f] = _conj_if_defined(L, P, f)
            if img is not None and img <= R and img not in Gamma:
                raise errors.GammaNotClosed("not closed under H-conjugation")
    joined_of = {P: mulclose(list(P | X.elems), cap=L.ambient.order) for P in listed}
    for P, joined in joined_of.items():
        if joined not in objects:
            raise errors.Q1Violated("<P, X> is not an object for P with |P|=%d" % len(P))
    for (P1, f), P2 in images.items():
        J = joined_of[P1]
        if P2 in Gamma and _conj_if_defined(L, J, f) != joined_of[P2]:
            raise errors.Q2Violated("transporter element does not move <P1,X> onto <P2,X>")
    elems = frozenset(f for f in H if (S_f_by_perms(L, f) & R) in Gamma)
    base, G = Subgroup(R), L.ambient
    out = lo.Locality(G, G.mask(elems), map(base.mask, Gamma), G.mask(R), L.p)
    if not max_p_subgroup_by_perms(out, R, L.p):
        raise errors.NotSylow("S cap H is not a maximal p-subgroup of the restriction")
    return out


def fusion_germs_by_perms(L, N, R):
    """The germs c_f restricted to P for f in N, a mask over the ambient
    group, and P <= R with P <= S_f and P^f <= R, each conjugated element
    by element."""
    from plocal.groups import all_subgroups

    germs = set()
    for f in elems_of(L, N):
        sf = S_f_by_perms(L, f)
        for P in all_subgroups(R):
            if P.elems <= sf and _conj(P.elems, f) <= R.elems:
                germs.add(conj_map(P.elems, f))
    return germs
