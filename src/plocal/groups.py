"""Finite permutation groups with full element enumeration.

Everything here is exact and exhaustive: groups are small (corpus scale is
|G| <= 72) and every operation enumerates elements rather than using
generator-level algorithms. There is one group type, :class:`Subgroup`,
held as its element set: an ambient group and its subgroups are values of
the same class. Values are immutable after construction. Subgroup
lattices are asked for only on p-groups and on permutation images of
automorphism groups; S's is kept by the fusion system or locality over S.
The lattice of R <= S is the members of S's inside R, in the same order,
and the join of a subset of S the first member holding it (:func:`join`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import gcd
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from .errors import CapExceeded, DegreeMismatch
from .perm import Perm, identity, sorted_elems

ELEMENT_CAP = 10_000
SUBGROUP_CAP = 400
AUT_BASE_CAP = 64


def mulclose(gens: Iterable[Perm], cap: int = ELEMENT_CAP) -> FrozenSet[Perm]:
    """Closure of a generator set under products (orbit of the identity)."""
    gens = list(gens)
    if not gens:
        raise ValueError("need at least one generator")
    deg = gens[0].degree
    els = {identity(deg)}
    frontier = [identity(deg)]
    while frontier:
        new = []
        for a in frontier:
            for g in gens:
                c = a * g
                if c not in els:
                    els.add(c)
                    if len(els) > cap:
                        raise CapExceeded("closure exceeded cap %d" % cap)
                    new.append(c)
        frontier = new
    return frozenset(els)


@dataclass(frozen=True)
class Subgroup:
    """A finite permutation group, held as its element set.

    This is the one group type: a whole group and each of its subgroups are
    values of it, and two are equal exactly when their elements are,
    whatever group they were found in. The sorted element tuple, the
    identity, the element tables (index, products, inverses) and the
    normalizers N_G(X) asked for, one per X, are computed on first use
    and kept.
    """

    elems: FrozenSet[Perm]

    def __post_init__(self):
        object.__setattr__(self, "elems", frozenset(self.elems))
        if not self.elems:
            raise ValueError("empty element set")
        # a Perm's length is its degree; one set of lengths keeps this cheap,
        # and every subgroup built anywhere pays for it
        if len(set(map(len, self.elems))) != 1:
            raise DegreeMismatch("mixed degrees in element set")

    @property
    def degree(self) -> int:
        return len(next(iter(self.elems)))

    @cached_property
    def identity(self) -> Perm:
        return identity(self.degree)

    @cached_property
    def _sorted(self) -> Tuple[Perm, ...]:
        return sorted_elems(self.elems)

    @cached_property
    def element_index(self) -> Dict[Perm, int]:
        """Position of each element in the sorted element tuple; the
        tables below name elements by these indexes."""
        return {x: i for i, x in enumerate(self._sorted)}

    @cached_property
    def mul_table(self) -> Tuple[Tuple[int, ...], ...]:
        """mul_table[i][j] is the index of the product of the i-th and the
        j-th element. Products are composed as plain tuples, so building
        the table leaves Perm's product memo alone."""
        index, elems = self.element_index, self._sorted
        return tuple(
            tuple(index[tuple(map(b.__getitem__, a))] for b in elems) for a in elems
        )

    @cached_property
    def inv_table(self) -> Tuple[int, ...]:
        """inv_table[i] is the index of the inverse of the i-th element,
        read off the product table (the identity sorts first)."""
        return tuple(row.index(0) for row in self.mul_table)

    @cached_property
    def _normalizers(self) -> Dict[FrozenSet[Perm], "Subgroup"]:
        """N_G(X) for G = self, per X.elems, filled by :func:`normalizer`."""
        return {}

    @property
    def order(self) -> int:
        return len(self.elems)

    def __contains__(self, p: Perm) -> bool:
        return p in self.elems

    def __iter__(self):
        return iter(self._sorted)

    def __len__(self):
        return len(self.elems)

    def trivial_subgroup(self) -> "Subgroup":
        return Subgroup(frozenset([self.identity]))

    def generated_subgroup(self, gens: Iterable[Perm]) -> "Subgroup":
        gens = list(gens)
        if not gens:
            return self.trivial_subgroup()
        return Subgroup(mulclose(gens, cap=self.order))

    def is_normal_in(self, other: "Subgroup") -> bool:
        return normalizer(other, self) == other

    def label(self) -> str:
        """Deterministic human-readable identifier."""
        nontrivial = [str(p) for p in self if not p.is_identity()]
        return "{%s}" % ",".join(nontrivial) if nontrivial else "{1}"

    def __repr__(self):
        return "Subgroup(order=%d)" % self.order


def generate_group(gens: Iterable[Perm], cap: int = ELEMENT_CAP) -> Subgroup:
    """Group generated by permutations, all elements enumerated. Mixed
    degrees raise DegreeMismatch at the first product."""
    return Subgroup(mulclose(gens, cap=cap))


def _generating_sequence(elems: FrozenSet[Perm]) -> Tuple[Perm, ...]:
    """Small (greedy, deterministic) generating sequence for a subgroup."""
    deg = next(iter(elems)).degree
    gens: List[Perm] = []
    closure = frozenset([identity(deg)])
    for x in sorted_elems(elems):
        if x not in closure:
            gens.append(x)
            closure = mulclose(gens, cap=len(elems))
            if len(closure) == len(elems):
                break
    return tuple(gens)


def all_subgroups(G: Subgroup, cap: int = SUBGROUP_CAP) -> Tuple[Subgroup, ...]:
    """Every subgroup of G, canonically ordered (order, then element list).

    Works bottom-up: all cyclic subgroups, then closure of the lattice under
    joins with cyclic subgroups. Exhaustive because every subgroup is a join
    of cyclic ones. Not kept here: the fusion system or locality over G does.
    """
    if G.order > cap:
        raise CapExceeded("group order %d exceeds subgroup cap %d" % (G.order, cap))
    cyclics = set()
    for g in G.elems:
        cyclics.add(mulclose([g], cap=G.order))
    found = set(cyclics)
    found.add(frozenset([G.identity]))
    frontier = list(found)
    while frontier:
        new = []
        for H in frontier:
            for C in cyclics:
                if C <= H:
                    continue
                J = mulclose(list(H | C), cap=G.order)
                if J not in found:
                    found.add(J)
                    new.append(J)
        frontier = new
    return tuple(
        Subgroup(els)
        for els in sorted(found, key=lambda s: (len(s), sorted_elems(s)))
    )


def join(lattice: Sequence[Subgroup], elems: Iterable[Perm]) -> Optional[Subgroup]:
    """The first member of a canonically ordered lattice holding elems, or
    None: for S's lattice and elems inside S, the subgroup they generate,
    which lies in every member holding them and so comes first."""
    elems = frozenset(elems)
    return next((H for H in lattice if elems <= H.elems), None)


def normalizer(G: Subgroup, X: Subgroup) -> Subgroup:
    """N_G(X) = {g : X^g = X}, kept on G per X."""
    xe = X.elems
    hit = G._normalizers.get(xe)
    if hit is None:
        hit = G._normalizers[xe] = Subgroup(
            frozenset(g for g in G.elems if all(x.conj(g) in xe for x in xe))
        )
    return hit


def centralizer(G: Subgroup, X: Subgroup) -> Subgroup:
    """C_G(X) = {g : x^g = x for all x in X}."""
    return Subgroup(
        frozenset(g for g in G.elems if all(x.conj(g) == x for x in X.elems))
    )


def center(G: Subgroup) -> Subgroup:
    return centralizer(G, G)


def normal_closure(G: Subgroup, H: Subgroup) -> Subgroup:
    """Smallest normal subgroup of G containing H."""
    gens = set(_generating_sequence(H.elems)) if H.order > 1 else set()
    if not gens:
        return H
    conj_gens = {h.conj(g) for h in gens for g in G.elems}
    return Subgroup(mulclose(list(conj_gens), cap=G.order))


def p_part(n: int, p: int) -> int:
    out = 1
    while n % p == 0:
        n //= p
        out *= p
    return out


def is_p_group(X: Subgroup, p: int) -> bool:
    return X.order == p_part(X.order, p)


def sylow_subgroup(G: Subgroup, p: int) -> Subgroup:
    """One Sylow p-subgroup, grown through normalizers.

    While |P| is short of the full p-part, N_G(P)/P has order divisible by p,
    so there is x in N_G(P) \\ P with x^p in P and <P, x> is a p-group of
    order p|P|.
    """
    target = p_part(G.order, p)
    P = G.trivial_subgroup()
    while P.order < target:
        N = normalizer(G, P)
        for x in sorted_elems(N.elems - P.elems):
            xp = x
            for _ in range(p - 1):
                xp = xp * x
            if xp in P.elems:
                # x normalizes P, x^p lies in P and x does not, so <P, x> is
                # the union of the p cosets P x^k, k < p
                grown, xk = set(P.elems), x
                for _ in range(p - 1):
                    grown.update(y * xk for y in P.elems)
                    xk = xk * x
                P = Subgroup(frozenset(grown))
                break
        else:  # cannot happen for a genuine group; guard anyway
            raise RuntimeError("Sylow growth stalled at order %d" % P.order)
    return P


def core_Op(G: Subgroup, p: int) -> Subgroup:
    """O_p(G), computed as the intersection of the Sylow conjugates."""
    P = sylow_subgroup(G, p)
    core = set(P.elems)
    for g in G.elems:
        core &= {x.conj(g) for x in P.elems}
        if len(core) == 1:
            break
    return Subgroup(frozenset(core))


def is_characteristic_p(G: Subgroup, p: int) -> bool:
    """C_G(O_p(G)) <= O_p(G)."""
    Q = core_Op(G, p)
    return centralizer(G, Q).elems <= Q.elems


def subnormal_chain(H: Subgroup, G: Subgroup) -> Optional[Tuple[Subgroup, ...]]:
    """Ascending witness chain H = H_0 <| H_1 <| ... <| H_n = G, or None.

    Uses the normal-closure descent criterion: iterate G_{i+1} = normal
    closure of H in G_i; H is subnormal in G iff the sequence reaches H.
    Each term is normal in its predecessor, so reversing gives the chain.
    """
    if not H.elems <= G.elems:
        raise ValueError("H is not a subgroup of G")
    descent = [G]
    while descent[-1].elems != H.elems:
        cur = descent[-1]
        nxt = normal_closure(cur, H)
        if nxt.elems == cur.elems:
            return None
        descent.append(nxt)
    return tuple(reversed(descent))


def is_subnormal(H: Subgroup, G: Subgroup) -> bool:
    return subnormal_chain(H, G) is not None


# ---------------------------------------------------------------------------
# explicit maps between subgroups


class GroupInjection:
    """An injective homomorphism between subgroups, stored as its table.

    The value is the sorted pair table and nothing else: the source is the
    key set and the target is the image. A germ, a morphism of a fusion
    system and an automorphism are therefore one kind of value, and a map
    built from conjugation in G compares equal to the same map built inside
    an automorphism group. Whether the table is a homomorphism is checked
    where tables come from outside (:func:`make_injection`).
    """

    __slots__ = ("pairs", "_map", "_hash")

    def __init__(self, pairs: Iterable[Tuple[Perm, Perm]]):
        pairs = tuple(sorted(pairs))
        table = dict(pairs)
        if len(table) != len(pairs):
            raise ValueError("duplicate source elements")
        if len(set(table.values())) != len(pairs):
            raise ValueError("map is not injective")
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "_map", table)
        object.__setattr__(self, "_hash", hash(pairs))

    def __setattr__(self, name, value):
        raise AttributeError("GroupInjection is immutable")

    @property
    def src(self) -> FrozenSet[Perm]:
        return frozenset(self._map)

    @property
    def image(self) -> FrozenSet[Perm]:
        return frozenset(self._map.values())

    def __call__(self, x: Perm) -> Perm:
        return self._map[x]

    def __eq__(self, other):
        return isinstance(other, GroupInjection) and self.pairs == other.pairs

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        return self.pairs < other.pairs

    def __repr__(self):
        return "GroupInjection(|src|=%d)" % len(self.pairs)

    def is_identity_map(self) -> bool:
        return all(a == b for a, b in self.pairs)

    def then(self, other: "GroupInjection") -> "GroupInjection":
        """Composite: apply self first, then other."""
        if not self.image <= other.src:
            raise ValueError("image of first map not inside source of second")
        return GroupInjection((a, other._map[b]) for a, b in self.pairs)

    def inverse(self) -> "GroupInjection":
        """The inverse map, from the image back onto the source."""
        return GroupInjection((b, a) for a, b in self.pairs)

    def restrict(self, sub: Iterable[Perm]) -> "GroupInjection":
        sub = frozenset(sub)
        if not sub <= self.src:
            raise ValueError("restriction set not inside source")
        return GroupInjection((a, self._map[a]) for a in sub)


def make_injection(source: Subgroup, target: Subgroup, mapping) -> GroupInjection:
    """Validated constructor: mapping is an injective homomorphism into target."""
    m = dict(mapping)
    if set(m) != set(source.elems):
        raise ValueError("mapping does not cover the source")
    if not set(m.values()) <= target.elems:
        raise ValueError("image not contained in the target")
    for x in source.elems:
        for y in source.elems:
            if m[x * y] != m[x] * m[y]:
                raise ValueError("mapping is not a homomorphism")
    return GroupInjection(m.items())


def conj_injection(X: Iterable[Perm], g: Perm) -> GroupInjection:
    """c_g restricted to X: x |-> x^g. Homomorphism by construction."""
    return GroupInjection((x, x.conj(g)) for x in X)


# ---------------------------------------------------------------------------
# automorphism groups as explicit map sets


@dataclass(frozen=True)
class AutGroup:
    """A group of automorphisms of a fixed base subgroup X, as explicit maps.

    The group structure is mirrored by a faithful permutation action on the
    sorted element list of X, so the whole group machinery (subgroup
    lattices, subnormality, ...) applies to subgroups of Aut(X) as well.
    The value keeps that permutation image: set products with their closure
    check, subnormality and labels are computed on the images, and
    K*Inn(X) is computed once and kept on K (:attr:`times_inn`).
    """

    base: Subgroup = field(compare=True)
    maps: FrozenSet[GroupInjection] = field(compare=True)

    def __post_init__(self):
        for m in self.maps:
            if not m.src == m.image == self.base.elems:
                raise ValueError("map is not an automorphism of the base")

    @property
    def order(self) -> int:
        return len(self.maps)

    def __contains__(self, m: GroupInjection) -> bool:
        return m in self.maps

    def __iter__(self):
        return iter(sorted(self.maps))

    @cached_property
    def base_order(self) -> Tuple[Perm, ...]:
        """The sorted elements of the base: point i of the image is the
        i-th of them."""
        return sorted_elems(self.base.elems)

    @cached_property
    def base_index(self) -> Dict[Perm, int]:
        return {x: i for i, x in enumerate(self.base_order)}

    @cached_property
    def perms(self) -> FrozenSet[Perm]:
        """The permutation image of the group, one permutation per map."""
        return frozenset(map(self.to_perm, self.maps))

    def to_perm(self, m: GroupInjection) -> Perm:
        index = self.base_index
        return Perm(tuple(index[m(x)] for x in self.base_order))

    def perm_group(self) -> Subgroup:
        return Subgroup(self.perms)

    def subgroup_from_perms(self, perms: Iterable[Sequence[int]]) -> "AutGroup":
        """Inverse of :meth:`to_perm`, over a set of permutations."""
        order = self.base_order
        maps = (GroupInjection((x, order[q[i]]) for i, x in enumerate(order)) for q in perms)
        return AutGroup(self.base, frozenset(maps))

    def sub_autgroups(self) -> Tuple["AutGroup", ...]:
        """All subgroups of this automorphism group, in all_subgroups'
        canonical order of their permutation images."""
        return tuple(
            self.subgroup_from_perms(H.elems)
            for H in all_subgroups(self.perm_group())
        )

    def _check_base(self, other: "AutGroup") -> None:
        if other.base.elems != self.base.elems:
            raise ValueError("mismatched bases")

    def product(self, other: "AutGroup") -> "AutGroup":
        """Set product self*other, which must be a subgroup of Aut(base).

        Worked on the images: to_perm(a.then(b)) == to_perm(a) * to_perm(b),
        so the set and its closure check are those of the maps. Images are
        composed as plain tuples, which keeps the check out of Perm's
        product memo; maps are built only for the result.
        """
        self._check_base(other)
        prod = {tuple(map(b.__getitem__, a)) for a in self.perms for b in other.perms}
        for a in prod:  # closure sanity: product of subgroups along a normal one
            for b in prod:
                if tuple(map(b.__getitem__, a)) not in prod:
                    raise ValueError("set product is not a subgroup")
        return self.subgroup_from_perms(prod)

    @cached_property
    def times_inn(self) -> "AutGroup":
        """K*Inn(X) for K = self and X = base, kept on K."""
        return self.product(inn_group(self.base))

    def is_subnormal_in(self, other: "AutGroup") -> bool:
        self._check_base(other)
        return is_subnormal(Subgroup(self.perms), other.perm_group())

    def label(self) -> str:
        perms = sorted_elems(self.perms)
        body = ",".join(str(q) for q in perms if not q.is_identity())
        return "[%s]" % body if body else "[1]"


def _element_words(elems: FrozenSet[Perm], gens: Sequence[Perm]) -> Dict[Perm, Tuple[int, ...]]:
    """Express each element as a left-to-right product of generators (BFS)."""
    deg = next(iter(elems)).degree
    words = {identity(deg): ()}
    frontier = [identity(deg)]
    while frontier:
        new = []
        for x in frontier:
            for i, g in enumerate(gens):
                y = x * g
                if y not in words:
                    words[y] = words[x] + (i,)
                    new.append(y)
        frontier = new
    assert len(words) == len(elems)
    return words


def aut_group(X: Subgroup, cap: int = AUT_BASE_CAP) -> AutGroup:
    """Full automorphism group of X as explicit maps.

    Enumerates assignments of generator images filtered by element order,
    builds each candidate map through generator words, and keeps the
    bijective homomorphisms. The homomorphism check only needs (generator,
    element) pairs because arbitrary elements are defined through words.
    """
    if X.order > cap:
        raise CapExceeded("automorphism base %d exceeds cap %d" % (X.order, cap))
    elems = X.elems
    gens = _generating_sequence(elems)
    words = _element_words(elems, gens)
    by_order: Dict[int, List[Perm]] = {}
    for x in sorted_elems(elems):
        by_order.setdefault(x.order(), []).append(x)
    candidates = [by_order[g.order()] for g in gens]

    maps = set()
    sorted_el = sorted_elems(elems)

    def assemble(images):
        table = {}
        for x in sorted_el:
            acc = None
            for i in words[x]:
                acc = images[i] if acc is None else acc * images[i]
            table[x] = acc if acc is not None else identity(x.degree)
        return table

    import itertools

    for images in itertools.product(*candidates):
        table = assemble(images)
        if len(set(table.values())) != len(table):
            continue
        if any(v not in elems for v in table.values()):
            continue
        ok = True
        for g in gens:
            tg = table[g]
            for x in sorted_el:
                if table[g * x] != tg * table[x]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            maps.add(GroupInjection(table.items()))
    return AutGroup(X, frozenset(maps))


def aut_induced(G: Subgroup, X: Subgroup) -> AutGroup:
    """Aut_G(X) = {c_g restricted to X : g in N_G(X)}, one map per distinct
    image of X's sorted elements: each is the image of |C_G(X)| elements."""
    images = {tuple(x.conj(g) for x in X) for g in normalizer(G, X).elems}
    return AutGroup(X, frozenset(GroupInjection(zip(X, img)) for img in images))


def inn_group(X: Subgroup) -> AutGroup:
    """Inn(X) = Aut_X(X)."""
    return aut_induced(X, X)


def trivial_aut_group(X: Subgroup) -> AutGroup:
    """{id} = Aut_1(X)."""
    return aut_induced(X.trivial_subgroup(), X)


def op_residual(A: AutGroup, p: int) -> AutGroup:
    """O^p(A): the subgroup generated by all p'-elements of A."""
    G = A.perm_group()
    gens = [g for g in G.elems if gcd(g.order(), p) == 1]
    return A.subgroup_from_perms(mulclose(gens, cap=G.order))


def group_K_normalizer(G: Subgroup, X: Subgroup, K: AutGroup) -> Subgroup:
    """N_G^K(X) = {g in N_G(X) : c_g restricted to X lies in K}.

    c_g is tested in K's permutation image: its index tuple on the sorted
    base is :meth:`AutGroup.to_perm` of c_g, so no map is built per g.
    """
    if K.base.elems != X.elems:
        raise ValueError("K is not a group of automorphisms of X")
    order, index, perms = K.base_order, K.base_index, K.perms
    N = normalizer(G, X).elems
    return Subgroup(
        frozenset(g for g in N if tuple(index[x.conj(g)] for x in order) in perms)
    )


def set_product(A: Iterable[Perm], B: Iterable[Perm]) -> FrozenSet[Perm]:
    return frozenset(a * b for a in A for b in B)
