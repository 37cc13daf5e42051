"""Partial groups and localities as explicit finite structures.

Every partial group built here is group-backed: its elements live in a
fixed ambient permutation group, the product is the ambient product, and
only the word domain varies. The domain of a locality-style structure is
never materialized; membership of a word (g_1, ..., g_n) is decided by the
chain criterion: walk the base p-group R along the prefixes and test
whether the surviving subgroup R_w = {x in R : all prefix conjugates stay
in R} is one of the objects. For an object family closed under conjugacy
and overgroups this is equivalent to the existence of an object chain
P_0, ..., P_n with P_{i-1}^{g_i} = P_i: any chain start lies inside R_w
(so R_w is an object by overgroup closure), and conversely the prefix
conjugates of R_w form a chain.

Axiom verification quantifies over all words up to a configured length
(default 3, the shortest length exercising the associativity-splicing
axiom) plus the splicing/inversion patterns those words generate; pass
``word_len=4`` for the fuller fragment on small structures.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Optional, Sequence, Tuple

from .errors import (
    DeltaNotClosed,
    GammaNotClosed,
    KNotSubnormal,
    NotFound,
    NotFullyKNormalized,
    NotPartialSubgroup,
    NotSylow,
    Q1Violated,
    Q2Violated,
)
from .fusion import (
    FusionSystem,
    K_normalizer_subsystem,
    close_generated,
    is_fully_K_normalized,
    subcentric_set,
)
from .groups import (
    AutGroup,
    FiniteGroup,
    Subgroup,
    all_subgroups,
    aut_group,
    conj_injection,
    inn_group,
    is_p_group,
    mulclose,
    normal_subgroups,
    p_part,
    trivial_aut_group,
)
from .perm import Perm, sorted_elems
from .report import VerificationReport

Word = Tuple[Perm, ...]


# ---------------------------------------------------------------------------
# word domains


class FullDomain:
    """All words over the element set are multipliable (whole groups)."""

    def word_ok(self, word: Word) -> bool:
        return True

    def group_words_ok(self, P: FrozenSet[Perm]) -> bool:
        return True

    def __eq__(self, other):
        return isinstance(other, FullDomain)

    def __hash__(self):
        return hash(FullDomain)


class ChainDomain:
    """Words admitting an object chain inside the base p-group."""

    __slots__ = ("base", "objects", "_memo", "_always")

    def __init__(self, base: FrozenSet[Perm], objects: Iterable[FrozenSet[Perm]]):
        self.base = frozenset(base)
        self.objects = frozenset(frozenset(o) for o in objects)
        if self.base not in self.objects:
            raise ValueError("the base itself must be an object")
        self._memo: Dict[Word, bool] = {}
        # objects are overgroup-closed, so containing the trivial subgroup
        # means every subgroup of the base is an object and every word passes
        deg = next(iter(base)).degree if base else 0
        from .perm import identity as _id

        self._always = base and frozenset([_id(deg)]) in self.objects

    def surviving(self, word: Word) -> FrozenSet[Perm]:
        """R_w: base elements whose prefix conjugates all stay in the base."""
        out = []
        for x in self.base:
            y = x
            for g in word:
                y = y.conj(g)
                if y not in self.base:
                    break
            else:
                out.append(x)
        return frozenset(out)

    def word_ok(self, word: Word) -> bool:
        if self._always:
            return True
        hit = self._memo.get(word)
        if hit is None:
            hit = self.surviving(word) in self.objects
            self._memo[word] = hit
        return hit

    def group_words_ok(self, P: FrozenSet[Perm]) -> bool:
        """Every word over the subgroup P is in the domain iff the uniform
        survivor {x in base : x^u in base for all u in P} is an object."""
        surv = frozenset(
            x for x in self.base if all(x.conj(u) in self.base for u in P)
        )
        return surv in self.objects

    def __eq__(self, other):
        # caches excluded: identity is (base, objects)
        return (
            isinstance(other, ChainDomain)
            and self.base == other.base
            and self.objects == other.objects
        )

    def __hash__(self):
        return hash((self.base, self.objects))


# ---------------------------------------------------------------------------
# partial groups


class PartialGroup:
    """A group-backed partial group: elements, ambient product, word rule."""

    __slots__ = ("ambient", "elems", "rule", "_sorted", "_memo")

    def __init__(self, ambient: FiniteGroup, elems: Iterable[Perm], rule):
        self.ambient = ambient
        self.elems = frozenset(elems)
        self.rule = rule
        self._sorted = None
        self._memo = {}
        if not self.elems <= ambient.elements:
            raise ValueError("elements not inside the ambient group")

    @property
    def unit(self) -> Perm:
        return self.ambient.identity

    def sorted_elements(self) -> Tuple[Perm, ...]:
        if self._sorted is None:
            self._sorted = sorted_elems(self.elems)
        return self._sorted

    def __contains__(self, x: Perm) -> bool:
        return x in self.elems

    def __iter__(self):
        return iter(self.sorted_elements())

    def __len__(self):
        return len(self.elems)

    def inv(self, x: Perm) -> Perm:
        if x not in self.elems:
            raise ValueError("element not in the partial group")
        return x.inv()

    def in_domain(self, word: Sequence[Perm]) -> bool:
        word = tuple(word)
        if not all(g in self.elems for g in word):
            return False
        return self.rule.word_ok(word)

    def prod(self, word: Sequence[Perm]) -> Perm:
        word = tuple(word)
        if not self.in_domain(word):
            raise ValueError("word is not in the domain")
        out = self.unit
        for g in word:
            out = out * g
        return out

    def __eq__(self, other):
        return (
            isinstance(other, PartialGroup)
            and self.ambient == other.ambient
            and self.elems == other.elems
            and self.rule == other.rule
        )

    def __hash__(self):
        return hash((self.ambient, self.elems, self.rule))

    def __repr__(self):
        return "PartialGroup(|L|=%d)" % len(self.elems)


class Locality(PartialGroup):
    """(L, Delta, S): a partial group with object set Delta inside S."""

    __slots__ = ("Delta", "S_elems", "p")

    def __init__(
        self,
        ambient: FiniteGroup,
        elems: Iterable[Perm],
        Delta: Iterable[FrozenSet[Perm]],
        S_elems: FrozenSet[Perm],
        p: int,
    ):
        Delta = frozenset(frozenset(d) for d in Delta)
        super().__init__(ambient, elems, ChainDomain(S_elems, Delta))
        self.Delta = Delta
        self.S_elems = frozenset(S_elems)
        self.p = p

    @property
    def S(self) -> Subgroup:
        return Subgroup(self.S_elems)

    def delta_subgroups(self) -> Tuple[Subgroup, ...]:
        return tuple(Subgroup(d) for d in sorted(self.Delta, key=sorted_elems))

    def __repr__(self):
        return "Locality(|L|=%d, |Delta|=%d, |S|=%d)" % (
            len(self.elems),
            len(self.Delta),
            len(self.S_elems),
        )


class PartialSubgroup:
    """A subset of a partial group closed under inversion and products of
    domain words."""

    __slots__ = ("parent", "elems")

    def __init__(self, parent: PartialGroup, elems: Iterable[Perm]):
        self.parent = parent
        self.elems = frozenset(elems)
        if not self.elems <= parent.elems:
            raise ValueError("subset not inside the partial group")

    def __contains__(self, x: Perm) -> bool:
        return x in self.elems

    def __iter__(self):
        return iter(sorted_elems(self.elems))

    def __len__(self):
        return len(self.elems)

    def __eq__(self, other):
        return (
            isinstance(other, PartialSubgroup)
            and self.parent == other.parent
            and self.elems == other.elems
        )

    def __hash__(self):
        return hash((self.elems,))

    def __repr__(self):
        return "PartialSubgroup(|N|=%d)" % len(self.elems)


def partial_subgroup_violation(parent: PartialGroup, elems: FrozenSet[Perm]) -> Optional[dict]:
    """None if elems is a partial subgroup of parent, else a witness.

    Pair products suffice for group-backed structures: splicing turns any
    longer domain word over the subset into nested pairs, so closure under
    pairs plus inversion is full closure.
    """
    for x in elems:
        if x.inv() not in elems:
            return {"kind": "inverse", "x": str(x)}
    for a in elems:
        for b in elems:
            if parent.in_domain((a, b)) and a * b not in elems:
                return {"kind": "product", "a": str(a), "b": str(b)}
    return None


# ---------------------------------------------------------------------------
# construction of group localities


def _check_delta_closed(G: FiniteGroup, S: Subgroup, Delta: frozenset):
    subs = {H.elems for H in all_subgroups(S.group())}
    for d in Delta:
        if d not in subs:
            raise DeltaNotClosed("object is not a subgroup of S")
    for d in Delta:
        for g in G.elements:
            img = frozenset(x.conj(g) for x in d)
            if img <= S.elems and img not in Delta:
                raise DeltaNotClosed(
                    "conjugate of an object lands in S but is not an object"
                )
        for H in subs:
            if d <= H and H not in Delta:
                raise DeltaNotClosed("object family not closed under overgroups")


def build_group_locality(
    G: FiniteGroup, S: Subgroup, Delta: Iterable[FrozenSet[Perm]], p: int
) -> Locality:
    """L_Delta(G) = {g in G : S cap S^{g^-1} in Delta} with the chain domain.

    Delta must be closed under F_S(G)-conjugacy and overgroups in S. The
    construction always yields a structure; run verify_locality (or the
    subcentric verifier) to certify the axioms for a particular G.
    """
    if S.order != p_part(G.order, p):
        raise NotSylow("S is not a Sylow %d-subgroup of G" % p)
    Delta = frozenset(frozenset(d) for d in Delta)
    _check_delta_closed(G, S, Delta)
    elems = set()
    for g in G.elements:
        sg = frozenset(x for x in S.elems if x.conj(g) in S.elems)
        if sg in Delta:
            elems.add(g)
    return Locality(G, frozenset(elems), Delta, S.elems, p)


def group_as_partial(G: FiniteGroup) -> PartialGroup:
    """A finite group viewed as a partial group with every word defined."""
    return PartialGroup(G, G.elements, FullDomain())


# ---------------------------------------------------------------------------
# S_f, S_w and normalizers inside a locality


def S_f(L: Locality, f: Perm) -> Subgroup:
    """S_f = {x in S : (f^-1, x, f) in D and x^f in S}. Memoized per f."""
    hit = L._memo.get(("S_f", f))
    if hit is None:
        hit = frozenset(
            x
            for x in L.S_elems
            if L.in_domain((f.inv(), x, f)) and x.conj(f) in L.S_elems
        )
        L._memo[("S_f", f)] = hit
    return Subgroup(hit)


def S_w(L: Locality, word: Sequence[Perm]) -> Subgroup:
    """Iterated version of S_f along a word."""
    out = []
    for x in L.S_elems:
        y = x
        ok = True
        for g in word:
            if not L.in_domain((g.inv(), y, g)) or y.conj(g) not in L.S_elems:
                ok = False
                break
            y = y.conj(g)
        if ok:
            out.append(x)
    return Subgroup(frozenset(out))


def normalizer_partial(L: Locality, X: Subgroup) -> PartialSubgroup:
    """N_L(X) = {f : X <= S_f and X^f = X}."""
    xe = X.elems
    out = frozenset(
        f
        for f in L.elems
        if xe <= S_f(L, f).elems and frozenset(x.conj(f) for x in xe) == xe
    )
    return PartialSubgroup(L, out)


def K_normalizer_partial(L: Locality, X: Subgroup, K: AutGroup) -> PartialSubgroup:
    """N_L^K(X) = {f in N_L(X) : c_f restricted to X lies in K}."""
    if K.base.elems != X.elems:
        raise ValueError("K must consist of automorphisms of X")
    xe = X.elems
    out = set()
    for f in normalizer_partial(L, X).elems:
        if conj_injection(xe, f, xe) in K.maps:
            out.add(f)
    ps = PartialSubgroup(L, frozenset(out))
    bad = partial_subgroup_violation(L, ps.elems)
    if bad is not None:
        raise NotPartialSubgroup("N_L^K(X) failed closure: %r" % (bad,))
    return ps


# ---------------------------------------------------------------------------
# restriction H|_Gamma


def _conj_subgroup_if_defined(L: Locality, P: FrozenSet[Perm], f: Perm) -> Optional[FrozenSet[Perm]]:
    if P <= S_f(L, f).elems:
        return frozenset(x.conj(f) for x in P)
    return None


def restrict(
    H: PartialSubgroup,
    Gamma: Iterable[FrozenSet[Perm]],
    X: Subgroup,
):
    """H|_Gamma = {f in H : S_f cap R in Gamma}, R = S cap H, as a partial
    group with the Gamma-chain domain; returns a Locality when R is a
    maximal p-subgroup of the result.

    Checks the closure of Gamma and the hypotheses (Q1), (Q2) eagerly.
    """
    L = H.parent
    if not isinstance(L, Locality):
        raise ValueError("restriction needs a locality parent")
    Gamma = frozenset(frozenset(g) for g in Gamma)
    R = frozenset(L.S_elems & H.elems)
    r_subs = {K.elems for K in all_subgroups(FiniteGroup(R))}
    for P in Gamma:
        if P not in r_subs:
            raise GammaNotClosed("object is not a subgroup of R")
    for P in Gamma:
        for Q in r_subs:
            if P <= Q and Q not in Gamma:
                raise GammaNotClosed("not closed under overgroups in R")
        for f in H.elems:
            img = _conj_subgroup_if_defined(L, P, f)
            if img is not None and img <= R and img not in Gamma:
                raise GammaNotClosed("not closed under H-conjugation")
    # (Q1): <P, X> must be an object of L for every P in Gamma
    for P in Gamma:
        joined = mulclose(list(P | X.elems), cap=L.ambient.order)
        if joined not in L.Delta:
            raise Q1Violated("<P, X> is not an object for P with |P|=%d" % len(P))
    # (Q2): N_H(P1, P2) <= N_L(<P1,X>, <P2,X>)
    joined_of = {P: mulclose(list(P | X.elems), cap=L.ambient.order) for P in Gamma}
    for P1 in Gamma:
        for P2 in Gamma:
            if len(P1) != len(P2):
                continue
            for f in H.elems:
                img = _conj_subgroup_if_defined(L, P1, f)
                if img != P2:
                    continue
                jimg = _conj_subgroup_if_defined(L, joined_of[P1], f)
                if jimg != joined_of[P2]:
                    raise Q2Violated(
                        "transporter element does not move <P1,X> onto <P2,X>"
                    )
    elems = frozenset(f for f in H.elems if frozenset(S_f(L, f).elems & R) in Gamma)
    out = PartialGroup(L.ambient, elems, ChainDomain(R, Gamma))
    if _is_max_p_subgroup(out, R, L.p):
        return Locality(L.ambient, elems, Gamma, R, L.p)
    return out


def _is_max_p_subgroup(P0: PartialGroup, R: FrozenSet[Perm], p: int) -> bool:
    """R is a p-subgroup of the partial group P0, maximal among such."""
    if not R <= P0.elems:
        return False
    if not is_p_group(Subgroup(R), p):
        return False
    if not P0.rule.group_words_ok(R):
        return False
    for H in all_subgroups(P0.ambient):
        if (
            R < H.elems
            and H.elems <= P0.elems
            and is_p_group(H, p)
            and P0.rule.group_words_ok(H.elems)
        ):
            return False
    return True


# ---------------------------------------------------------------------------
# the restricted K-normalizer bN and its named special cases


def bN_K(
    L: Locality,
    F: FusionSystem,
    X: Subgroup,
    K: AutGroup,
    for_subcentric: bool = False,
) -> Locality:
    """bN_L^K(X) = N_L^K(X) restricted to the subcentric set of N_F^K(X).

    Requires X fully K-normalized in F. With ``for_subcentric`` the
    subnormality hypothesis K subnormal in K*Inn(X) is enforced as well
    (it is what makes the output a subcentric locality).
    """
    if not is_fully_K_normalized(F, X, K):
        raise NotFullyKNormalized("X is not fully K-normalized in F")
    if for_subcentric:
        if not K.is_subnormal_in(K.product(inn_group(X))):
            raise KNotSubnormal("K is not subnormal in K*Inn(X)")
    NFK = K_normalizer_subsystem(F, X, K)
    Gamma = frozenset(P.elems for P in subcentric_set(NFK))
    H = K_normalizer_partial(L, X, K)
    out = restrict(H, Gamma, X)
    if not isinstance(out, Locality):
        raise NotSylow(
            "N_S^K(X) is not a maximal p-subgroup of the restriction"
        )
    return out


def bN(L: Locality, F: FusionSystem, X: Subgroup) -> Locality:
    """bN_L(X), for X fully normalized."""
    return bN_K(L, F, X, aut_group(X))


def bC(L: Locality, F: FusionSystem, X: Subgroup) -> Locality:
    """bC_L(X), for X fully centralized."""
    return bN_K(L, F, X, trivial_aut_group(X))


# ---------------------------------------------------------------------------
# partial normal subgroups


def partial_normal_violation(N: PartialSubgroup, L: Locality) -> Optional[dict]:
    """None if N is a partial normal subgroup of L, else a witness."""
    bad = partial_subgroup_violation(L, N.elems)
    if bad is not None:
        return bad
    for f in L.elems:
        for n in N.elems:
            if L.in_domain((f.inv(), n, f)) and n.conj(f) not in N.elems:
                return {"kind": "conjugation", "f": str(f), "n": str(n)}
    return None


def is_partial_normal(N: PartialSubgroup, L: Locality) -> bool:
    return partial_normal_violation(N, L) is None


def fusion_of_partial(
    L: Locality, N: PartialSubgroup, base: Optional[Subgroup] = None
) -> FusionSystem:
    """F_R(N), R = N cap S (or the given base): the fusion system on R
    generated by the conjugation maps c_f, f in N."""
    R = base if base is not None else Subgroup(N.elems & L.S_elems)
    if not R.elems <= N.elems:
        raise ValueError("base is not inside the partial subgroup")
    germs = []
    r_subs = tuple(H.elems for H in all_subgroups(R.group()))
    for f in N.elems:
        sf = S_f(L, f).elems
        for pe in r_subs:
            if pe <= sf:
                img = frozenset(x.conj(f) for x in pe)
                if img <= R.elems:
                    germs.append(conj_injection(pe, f))
    return close_generated(R, L.p, germs)


def find_normal_for(L: Locality, E: FusionSystem) -> PartialSubgroup:
    """The unique partial normal subgroup N of L with N cap S = T and
    F_T(N) = E, searched over the family H cap L for H normal in the
    ambient group (with closure repair), which realizes all partial normal
    subgroups of group localities at this scale.
    """
    T = E.Sgroup.elements
    matches = []
    seen = set()
    for Hn in normal_subgroups(L.ambient):
        cand = frozenset(Hn.elems & L.elems)
        if not cand:
            continue
        cand = _closure_repair(L, cand)
        if cand is None or cand in seen:
            continue
        seen.add(cand)
        if cand & L.S_elems != T:
            continue
        N = PartialSubgroup(L, cand)
        if partial_normal_violation(N, L) is not None:
            continue
        if fusion_of_partial(L, N) != E:
            continue
        matches.append(N)
    if not matches:
        raise NotFound(
            "no partial normal subgroup realizes the subsystem among the "
            "family searched: H cap L for H normal in the ambient group"
        )
    if len({m.elems for m in matches}) > 1:
        raise NotFound(
            "multiple distinct partial normal subgroups realize the subsystem"
        )
    return matches[0]


def _closure_repair(L: Locality, elems: FrozenSet[Perm]) -> Optional[FrozenSet[Perm]]:
    """Close a candidate under inverses and defined pair products, or None
    if the closure leaves L. Runs to a fixpoint: cur only grows inside L."""
    cur = set(elems)
    while True:
        add = set()
        for x in cur:
            if x.inv() not in cur and x.inv() in L.elems:
                add.add(x.inv())
        for a in cur:
            for b in cur:
                if L.in_domain((a, b)) and a * b not in cur:
                    add.add(a * b)
        if not add:
            return frozenset(cur)
        if not add <= L.elems:
            return None
        cur |= add


# ---------------------------------------------------------------------------
# products N X


def product_partial(L: Locality, N: PartialSubgroup, X: Subgroup) -> PartialSubgroup:
    """N X = {Pi(n, x) : (n, x) in D}, verified to be a partial subgroup."""
    if not X.elems <= L.S_elems:
        raise ValueError("X must lie inside S")
    out = set()
    for n in N.elems:
        for x in X.elems:
            if L.in_domain((n, x)):
                out.add(n * x)
    out = frozenset(out)
    bad = partial_subgroup_violation(L, out)
    if bad is not None:
        raise NotPartialSubgroup("N X failed closure: %r" % (bad,))
    return PartialSubgroup(L, out)


def product_fusion(L: Locality, N: PartialSubgroup, X: Subgroup) -> FusionSystem:
    """The product system realized in the locality: F_{TX}(N X)."""
    NX = product_partial(L, N, X)
    T = N.elems & L.S_elems
    TX = mulclose(list(T | X.elems), cap=L.ambient.order)
    base_from_set = NX.elems & L.S_elems
    if base_from_set != TX:
        raise NotPartialSubgroup(
            "N X cap S differs from T X; the product is not well formed"
        )
    return fusion_of_partial(L, NX, base=Subgroup(TX))


# ---------------------------------------------------------------------------
# axiom verification


def _words_upto(elems: Tuple[Perm, ...], n: int):
    import itertools

    for k in range(1, n + 1):
        for w in itertools.product(elems, repeat=k):
            yield w


def verify_partial_group(P: PartialGroup, word_len: int = 3) -> VerificationReport:
    """Exhaustive partial-group axiom check over the word fragment."""
    stats = {"words_checked": 0, "domain_words": 0}
    inst = "partial-group(|L|=%d)" % len(P.elems)

    def fail(witness):
        return VerificationReport("partial-group-axioms", inst, "fail", witness=witness, stats=stats)

    for x in P.elems:
        if P.inv(x) not in P.elems:
            return fail({"axiom": "inversion-closure", "x": str(x)})
        if P.inv(P.inv(x)) != x:
            return fail({"axiom": "inversion-involutory", "x": str(x)})
    if not P.in_domain(()):
        return fail({"axiom": "empty-word"})
    if not P.prod(()) == P.unit:
        return fail({"axiom": "unit"})
    elems = P.sorted_elements()
    for w in _words_upto(elems, word_len):
        stats["words_checked"] += 1
        if not P.in_domain(w):
            continue
        stats["domain_words"] += 1
        if len(w) == 1 and P.prod(w) != w[0]:
            return fail({"axiom": "length-one", "w": [str(g) for g in w]})
        # subword closure
        for i in range(len(w)):
            for j in range(i, len(w) + 1):
                if not P.in_domain(w[i:j]):
                    return fail(
                        {"axiom": "subword", "w": [str(g) for g in w], "i": i, "j": j}
                    )
        # splicing: u o v o t in D  =>  u o (Pi v) o t in D, same product
        for i in range(len(w)):
            for j in range(i + 1, len(w) + 1):
                spliced = w[:i] + (P.prod(w[i:j]),) + w[j:]
                if not P.in_domain(spliced):
                    return fail(
                        {"axiom": "splice-domain", "w": [str(g) for g in w], "i": i, "j": j}
                    )
                if P.prod(spliced) != P.prod(w):
                    return fail(
                        {"axiom": "splice-product", "w": [str(g) for g in w], "i": i, "j": j}
                    )
        # inversion axiom
        wbar = tuple(P.inv(g) for g in reversed(w))
        if not P.in_domain(wbar + w):
            return fail({"axiom": "inverse-word-domain", "w": [str(g) for g in w]})
        if P.prod(wbar + w) != P.unit:
            return fail({"axiom": "inverse-word-product", "w": [str(g) for g in w]})
    return VerificationReport("partial-group-axioms", inst, "pass", stats=stats)


def _delta_chain_exists(L: Locality, word: Word) -> bool:
    """Independent objectivity oracle: search for an explicit object chain,
    smallest candidate starts first."""
    starts = L._memo.get("delta_sorted")
    if starts is None:
        starts = sorted(L.Delta, key=lambda d: (len(d), sorted_elems(d)))
        L._memo["delta_sorted"] = starts
    for P0 in starts:
        cur = P0
        ok = True
        for g in word:
            cur = frozenset(x.conj(g) for x in cur)
            if cur not in L.Delta:
                ok = False
                break
        if ok:
            return True
    return False


def verify_locality(L: Locality, word_len: int = 3) -> VerificationReport:
    """Locality axioms: partial group, Delta-closure, objectivity, maximal
    p-subgroup, S_f an object for every element."""
    inst = "locality(|L|=%d, |Delta|=%d)" % (len(L.elems), len(L.Delta))
    stats: Dict[str, object] = {}

    def fail(witness):
        return VerificationReport("locality-axioms", inst, "fail", witness=witness, stats=stats)

    pg = verify_partial_group(L, word_len=word_len)
    stats.update({"pg_" + k: v for k, v in pg.stats.items()})
    if not pg.passed:
        return fail({"axiom": "partial-group", "inner": pg.witness})

    # S is a p-group and its words are all defined
    Ssub = L.S
    if not is_p_group(Ssub, L.p):
        return fail({"axiom": "S-p-group"})
    if not L.rule.group_words_ok(L.S_elems):
        return fail({"axiom": "S-words-defined"})

    # Delta closure under L-conjugation and overgroups
    s_subs = {H.elems for H in all_subgroups(Ssub.group())}
    for d in L.Delta:
        if d not in s_subs:
            return fail({"axiom": "Delta-in-S", "object_order": len(d)})
        for H in s_subs:
            if d <= H and H not in L.Delta:
                return fail({"axiom": "Delta-overgroups", "object_order": len(d)})
        for f in L.elems:
            if d <= S_f(L, f).elems:
                img = frozenset(x.conj(f) for x in d)
                if img not in L.Delta:
                    return fail({"axiom": "Delta-conjugation", "f": str(f)})

    # objectivity: domain words are exactly those with an object chain
    checked = 0
    for w in _words_upto(L.sorted_elements(), word_len):
        checked += 1
        if L.in_domain(w) != _delta_chain_exists(L, w):
            return fail({"axiom": "objectivity", "w": [str(g) for g in w]})
    stats["objectivity_words"] = checked

    # S_f contains an object (hence is one) for every f
    for f in L.elems:
        if S_f(L, f).elems not in L.Delta:
            return fail({"axiom": "S_f-object", "f": str(f)})

    # maximality of S among p-subgroups of L
    if not _is_max_p_subgroup(L, L.S_elems, L.p):
        return fail({"axiom": "S-maximal"})

    return VerificationReport("locality-axioms", inst, "pass", stats=stats)


def verify_subcentric_locality(
    L: Locality, F: FusionSystem, word_len: int = 3
) -> VerificationReport:
    """Subcentric locality over F: locality axioms, F_S(L) = F, Delta = F^s,
    and N_L(P) of characteristic p for every object P."""
    from .groups import is_characteristic_p

    inst = "subcentric(|L|=%d over |S|=%d)" % (len(L.elems), len(L.S_elems))
    stats: Dict[str, object] = {}

    def fail(witness):
        return VerificationReport(
            "subcentric-locality", inst, "fail", witness=witness, stats=stats
        )

    base = verify_locality(L, word_len=word_len)
    stats.update(base.stats)
    if not base.passed:
        return fail({"axiom": "locality", "inner": base.witness})
    if L.S_elems != F.Sgroup.elements:
        return fail({"axiom": "same-S"})
    if frozenset(P.elems for P in subcentric_set(F)) != L.Delta:
        return fail({"axiom": "Delta-is-subcentric-set"})
    FL = fusion_of_partial(L, PartialSubgroup(L, L.elems), base=L.S)
    if FL != F:
        return fail({"axiom": "F_S(L)-is-F"})
    for P in L.delta_subgroups():
        NP = normalizer_partial(L, P)
        bad = partial_subgroup_violation(L, NP.elems)
        if bad is not None:
            return fail({"axiom": "N_L(P)-group", "P": P.label(), "inner": bad})
        NPg = FiniteGroup(NP.elems)
        for a in NP.elems:  # genuine group: every pair product defined
            for b in NP.elems:
                if not L.in_domain((a, b)):
                    return fail({"axiom": "N_L(P)-words", "P": P.label()})
        if not is_characteristic_p(NPg, L.p):
            return fail({"axiom": "N_L(P)-characteristic-p", "P": P.label()})
    stats["objects"] = len(L.Delta)
    return VerificationReport("subcentric-locality", inst, "pass", stats=stats)
