"""Finite permutation groups with full element enumeration.

Everything here is exact and exhaustive: groups are small (corpus scale is
|G| <= 72) and every operation enumerates elements rather than using
generator-level algorithms. Values are immutable after construction and the
expensive enumerations (subgroup lattices, automorphism groups) are memoized
on the element set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from .errors import CapExceeded, DegreeMismatch
from .perm import Perm, identity, sorted_elems

ELEMENT_CAP = 10_000
SUBGROUP_CAP = 400
AUT_BASE_CAP = 64

# in-memory caches keyed by the frozen element set (a Perm's length is its
# degree); module-level on purpose, so equal groups built separately share
# one enumeration
_SUBGROUP_CACHE: Dict[FrozenSet[Perm], Tuple["Subgroup", ...]] = {}
_AUT_CACHE: Dict[FrozenSet[Perm], "AutGroup"] = {}


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


class FiniteGroup:
    """A finite permutation group given by its full element set: a group is
    its elements, which is all that equality and hashing look at.
    """

    __slots__ = ("degree", "elements", "identity", "_sorted", "_hash")

    def __init__(self, elements: Iterable[Perm]):
        elements = frozenset(elements)
        if not elements:
            raise ValueError("empty element set")
        deg = next(iter(elements)).degree
        if any(e.degree != deg for e in elements):
            raise DegreeMismatch("mixed degrees in element set")
        object.__setattr__(self, "degree", deg)
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "identity", identity(deg))
        object.__setattr__(self, "_sorted", None)
        object.__setattr__(self, "_hash", hash((deg, elements)))

    def __setattr__(self, name, value):
        raise AttributeError("FiniteGroup is immutable")

    @property
    def order(self) -> int:
        return len(self.elements)

    def sorted_elements(self) -> Tuple[Perm, ...]:
        if self._sorted is None:
            object.__setattr__(self, "_sorted", sorted_elems(self.elements))
        return self._sorted

    def __contains__(self, p: Perm) -> bool:
        return p in self.elements

    def __iter__(self):
        return iter(self.sorted_elements())

    def __len__(self):
        return len(self.elements)

    def __eq__(self, other):
        return (
            isinstance(other, FiniteGroup)
            and self.elements == other.elements
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "FiniteGroup(order=%d, degree=%d)" % (self.order, self.degree)

    def trivial_subgroup(self) -> "Subgroup":
        return Subgroup(frozenset([self.identity]))

    def full_subgroup(self) -> "Subgroup":
        return Subgroup(self.elements)

    def generated_subgroup(self, gens: Iterable[Perm]) -> "Subgroup":
        gens = list(gens)
        if not gens:
            return self.trivial_subgroup()
        return Subgroup(mulclose(gens, cap=len(self.elements)))


@dataclass(frozen=True)
class Subgroup:
    """A subgroup, held as its element set: two subgroups are equal exactly
    when their elements are, whatever group they were found in."""

    elems: FrozenSet[Perm]

    @property
    def order(self) -> int:
        return len(self.elems)

    def __contains__(self, p: Perm) -> bool:
        return p in self.elems

    def __iter__(self):
        return iter(sorted_elems(self.elems))

    def __len__(self):
        return len(self.elems)

    def group(self) -> FiniteGroup:
        """This subgroup viewed as a group in its own right."""
        return FiniteGroup(self.elems)

    def conj(self, g: Perm) -> "Subgroup":
        return Subgroup(frozenset(x.conj(g) for x in self.elems))

    def is_normal_in(self, other: "Subgroup") -> bool:
        return all(
            x.conj(g) in self.elems for g in other.elems for x in self.elems
        )

    def label(self) -> str:
        """Deterministic human-readable identifier."""
        nontrivial = [str(p) for p in self if not p.is_identity()]
        return "{%s}" % ",".join(nontrivial) if nontrivial else "{1}"

    def __repr__(self):
        return "Subgroup(order=%d)" % self.order


def generate_group(gens: Iterable[Perm], cap: int = ELEMENT_CAP) -> FiniteGroup:
    """Group generated by permutations, all elements enumerated."""
    gens = list(gens)
    if not gens:
        raise ValueError("need at least one generator")
    deg = gens[0].degree
    if any(g.degree != deg for g in gens):
        raise DegreeMismatch("generators have mixed degrees")
    return FiniteGroup(mulclose(gens, cap=cap))


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


def all_subgroups(G: FiniteGroup, cap: int = SUBGROUP_CAP) -> Tuple[Subgroup, ...]:
    """Every subgroup of G, canonically ordered (order, then element list).

    Works bottom-up: all cyclic subgroups, then closure of the lattice under
    joins with cyclic subgroups. Exhaustive because every subgroup is a join
    of cyclic ones.
    """
    if G.order > cap:
        raise CapExceeded("group order %d exceeds subgroup cap %d" % (G.order, cap))
    hit = _SUBGROUP_CACHE.get(G.elements)
    if hit is not None:
        return hit
    cyclics = set()
    for g in G.elements:
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
    out = tuple(
        Subgroup(els)
        for els in sorted(found, key=lambda s: (len(s), sorted_elems(s)))
    )
    _SUBGROUP_CACHE[G.elements] = out
    return out


def normal_subgroups(G: FiniteGroup) -> Tuple[Subgroup, ...]:
    full = G.full_subgroup()
    return tuple(H for H in all_subgroups(G) if H.is_normal_in(full))


def normalizer(G: FiniteGroup, X: Subgroup) -> Subgroup:
    """N_G(X) = {g : X^g = X}."""
    xe = X.elems
    return Subgroup(
        frozenset(g for g in G.elements if all(x.conj(g) in xe for x in xe))
    )


def centralizer(G: FiniteGroup, X: Subgroup) -> Subgroup:
    """C_G(X) = {g : x^g = x for all x in X}."""
    return Subgroup(
        frozenset(g for g in G.elements if all(x.conj(g) == x for x in X.elems))
    )


def center(G: FiniteGroup) -> Subgroup:
    return centralizer(G, G.full_subgroup())


def normal_closure(G: FiniteGroup, H: Subgroup) -> Subgroup:
    """Smallest normal subgroup of G containing H."""
    gens = set(_generating_sequence(H.elems)) if H.order > 1 else set()
    if not gens:
        return H
    conj_gens = {h.conj(g) for h in gens for g in G.elements}
    return Subgroup(mulclose(list(conj_gens), cap=G.order))


def p_part(n: int, p: int) -> int:
    out = 1
    while n % p == 0:
        n //= p
        out *= p
    return out


def is_p_group(X: Subgroup, p: int) -> bool:
    return X.order == p_part(X.order, p)


def sylow_subgroup(G: FiniteGroup, p: int) -> Subgroup:
    """One Sylow p-subgroup, grown through normalizers.

    While |P| is short of the full p-part, N_G(P)/P has order divisible by p,
    so there is x in N_G(P) \\ P with x^p in P and <P, x> is a p-group of
    order p|P|.
    """
    target = p_part(G.order, p)
    P = G.trivial_subgroup()
    while P.order < target:
        N = normalizer(G, P)
        grown = False
        for x in sorted_elems(N.elems):
            if x in P.elems:
                continue
            xp = x
            for _ in range(p - 1):
                xp = xp * x
            if xp in P.elems:
                cand = mulclose(list(P.elems) + [x], cap=G.order)
                if len(cand) == P.order * p:
                    P = Subgroup(cand)
                    grown = True
                    break
        if not grown:  # cannot happen for a genuine group; guard anyway
            raise RuntimeError("Sylow growth stalled at order %d" % P.order)
    return P


def core_Op(G: FiniteGroup, p: int) -> Subgroup:
    """O_p(G), computed as the intersection of the Sylow conjugates."""
    P = sylow_subgroup(G, p)
    core = set(P.elems)
    for g in G.elements:
        core &= {x.conj(g) for x in P.elems}
        if len(core) == 1:
            break
    return Subgroup(frozenset(core))


def is_characteristic_p(G: FiniteGroup, p: int) -> bool:
    """C_G(O_p(G)) <= O_p(G)."""
    Q = core_Op(G, p)
    return centralizer(G, Q).elems <= Q.elems


def subnormal_chain(H: Subgroup, G: FiniteGroup) -> Optional[Tuple[Subgroup, ...]]:
    """Ascending witness chain H = H_0 <| H_1 <| ... <| H_n = G, or None.

    Uses the normal-closure descent criterion: iterate G_{i+1} = normal
    closure of H in G_i; H is subnormal in G iff the sequence reaches H.
    Each term is normal in its predecessor, so reversing gives the chain.
    """
    if not H.elems <= G.elements:
        raise ValueError("H is not a subgroup of G")
    descent = [G.full_subgroup()]
    while descent[-1].elems != H.elems:
        cur = descent[-1]
        nxt = normal_closure(cur.group(), H)
        if nxt.elems == cur.elems:
            return None
        descent.append(nxt)
    return tuple(reversed(descent))


def is_subnormal(H: Subgroup, G: FiniteGroup) -> bool:
    return subnormal_chain(H, G) is not None


# ---------------------------------------------------------------------------
# explicit maps between subgroups


class GroupInjection:
    """An injective homomorphism between subgroups, stored extensionally.

    Identity is the (sorted) pair table together with the stated codomain;
    the source is the key set of the table. Parents are irrelevant: a map
    built from conjugation in G compares equal to the same map built inside
    an automorphism group.
    """

    __slots__ = ("pairs", "tgt", "_map", "_hash")

    def __init__(self, pairs: Iterable[Tuple[Perm, Perm]], tgt: Iterable[Perm]):
        pairs = tuple(sorted(pairs))
        tgt = frozenset(tgt)
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "tgt", tgt)
        object.__setattr__(self, "_map", dict(pairs))
        object.__setattr__(self, "_hash", hash((pairs, tgt)))
        if len(self._map) != len(pairs):
            raise ValueError("duplicate source elements")
        if len(set(self._map.values())) != len(pairs):
            raise ValueError("map is not injective")
        if not set(self._map.values()) <= tgt:
            raise ValueError("image not contained in stated target")

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
        return (
            isinstance(other, GroupInjection)
            and self.pairs == other.pairs
            and self.tgt == other.tgt
        )

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        return (self.pairs, sorted_elems(self.tgt)) < (
            other.pairs,
            sorted_elems(other.tgt),
        )

    def __repr__(self):
        return "GroupInjection(|src|=%d, |tgt|=%d)" % (len(self.pairs), len(self.tgt))

    def is_identity_map(self) -> bool:
        return all(a == b for a, b in self.pairs)

    def then(self, other: "GroupInjection") -> "GroupInjection":
        """Composite: apply self first, then other."""
        if not self.image <= other.src:
            raise ValueError("image of first map not inside source of second")
        return GroupInjection(
            ((a, other._map[b]) for a, b in self.pairs), other.tgt
        )

    def inverse(self) -> "GroupInjection":
        """Inverse of the corestriction to the image."""
        return GroupInjection(((b, a) for a, b in self.pairs), self.src)

    def restrict(self, sub: Iterable[Perm]) -> "GroupInjection":
        sub = frozenset(sub)
        if not sub <= self.src:
            raise ValueError("restriction set not inside source")
        return GroupInjection(((a, self._map[a]) for a in sub), self.tgt)

    def as_germ(self) -> "GroupInjection":
        """Same map with target shrunk to the exact image."""
        img = self.image
        if self.tgt == img:
            return self
        return GroupInjection(self.pairs, img)

    def with_target(self, tgt: Iterable[Perm]) -> "GroupInjection":
        return GroupInjection(self.pairs, frozenset(tgt))


def make_injection(source: Subgroup, target: Subgroup, mapping) -> GroupInjection:
    """Validated constructor: checks mapping is an injective homomorphism."""
    m = dict(mapping)
    if set(m) != set(source.elems):
        raise ValueError("mapping does not cover the source")
    for x in source.elems:
        for y in source.elems:
            if m[x * y] != m[x] * m[y]:
                raise ValueError("mapping is not a homomorphism")
    return GroupInjection(m.items(), target.elems)


def conj_injection(X: Iterable[Perm], g: Perm, tgt: Optional[Iterable[Perm]] = None) -> GroupInjection:
    """c_g restricted to X: x |-> x^g. Homomorphism by construction."""
    pairs = tuple((x, x.conj(g)) for x in X)
    if tgt is None:
        tgt = frozenset(b for _, b in pairs)
    return GroupInjection(pairs, tgt)


def identity_injection(X: Iterable[Perm]) -> GroupInjection:
    X = frozenset(X)
    return GroupInjection(((x, x) for x in X), X)


# ---------------------------------------------------------------------------
# automorphism groups as explicit map sets


@dataclass(frozen=True)
class AutGroup:
    """A group of automorphisms of a fixed base subgroup X, as explicit maps.

    The group structure is mirrored by a faithful permutation action on the
    sorted element list of X, so the whole FiniteGroup machinery (subgroup
    lattices, subnormality, ...) applies to subgroups of Aut(X) as well.
    """

    base: Subgroup = field(compare=True)
    maps: FrozenSet[GroupInjection] = field(compare=True)

    def __post_init__(self):
        for m in self.maps:
            if m.src != self.base.elems or m.tgt != self.base.elems:
                raise ValueError("map is not an automorphism of the base")

    @property
    def order(self) -> int:
        return len(self.maps)

    def __contains__(self, m: GroupInjection) -> bool:
        return m in self.maps

    def __iter__(self):
        return iter(sorted(self.maps))

    def base_order(self) -> Tuple[Perm, ...]:
        return sorted_elems(self.base.elems)

    def to_perm(self, m: GroupInjection) -> Perm:
        order = self.base_order()
        index = {x: i for i, x in enumerate(order)}
        return Perm(tuple(index[m(x)] for x in order))

    def from_perm(self, q: Perm) -> GroupInjection:
        order = self.base_order()
        return GroupInjection(
            ((x, order[q(i)]) for i, x in enumerate(order)), self.base.elems
        )

    def perm_group(self) -> FiniteGroup:
        return FiniteGroup(frozenset(self.to_perm(m) for m in self.maps))

    def subgroup_from_perms(self, perms: Iterable[Perm]) -> "AutGroup":
        return AutGroup(self.base, frozenset(self.from_perm(q) for q in perms))

    def sub_autgroups(self) -> Tuple["AutGroup", ...]:
        """All subgroups of this automorphism group."""
        return tuple(
            self.subgroup_from_perms(H.elems)
            for H in all_subgroups(self.perm_group())
        )

    def product(self, other: "AutGroup") -> "AutGroup":
        """Set product self*other, which must be a subgroup of Aut(base)."""
        if other.base.elems != self.base.elems:
            raise ValueError("mismatched bases")
        prod = frozenset(a.then(b) for a in self.maps for b in other.maps)
        for a in prod:  # closure sanity: product of subgroups along a normal one
            for b in prod:
                if a.then(b) not in prod:
                    raise ValueError("set product is not a subgroup")
        return AutGroup(self.base, prod)

    def is_subnormal_in(self, other: "AutGroup") -> bool:
        big = other.perm_group()
        small = Subgroup(frozenset(other.to_perm(m) for m in self.maps))
        return is_subnormal(small, big)

    def conjugate_by(self, phi: GroupInjection) -> "AutGroup":
        """K^phi = phi^-1 K phi, a subgroup of Aut(X phi)."""
        if phi.src != self.base.elems:
            raise ValueError("phi must be defined on the base")
        inv = phi.inverse()
        newbase = Subgroup(phi.image)
        moved = frozenset(
            inv.then(m).then(phi.as_germ()).with_target(phi.image) for m in self.maps
        )
        return AutGroup(newbase, moved)

    def label(self) -> str:
        perms = sorted_elems(self.perm_group().elements)
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
    hit = _AUT_CACHE.get(X.elems)
    if hit is not None:
        return hit
    if X.order > cap:
        raise CapExceeded("automorphism base %d exceeds cap %d" % (X.order, cap))
    elems = X.elems
    if X.order == 1:
        out = AutGroup(X, frozenset([identity_injection(elems)]))
        _AUT_CACHE[X.elems] = out
        return out
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
            maps.add(GroupInjection(table.items(), elems))
    out = AutGroup(X, frozenset(maps))
    _AUT_CACHE[X.elems] = out
    return out


def inn_group(X: Subgroup) -> AutGroup:
    """Inn(X) = {c_x restricted to X : x in X}."""
    return AutGroup(
        X, frozenset(conj_injection(X.elems, x, X.elems) for x in X.elems)
    )


def trivial_aut_group(X: Subgroup) -> AutGroup:
    return AutGroup(X, frozenset([identity_injection(X.elems)]))


def op_residual(A: AutGroup, p: int) -> AutGroup:
    """O^p(A): the subgroup generated by all p'-elements of A."""
    G = A.perm_group()
    gens = [g for g in G.elements if gcd(g.order(), p) == 1]
    return A.subgroup_from_perms(mulclose(gens, cap=G.order))


def group_K_normalizer(G: FiniteGroup, X: Subgroup, K: AutGroup) -> Subgroup:
    """N_G^K(X) = {g in N_G(X) : c_g restricted to X lies in K}."""
    if K.base.elems != X.elems:
        raise ValueError("K is not a group of automorphisms of X")
    xe = X.elems
    N = normalizer(G, X).elems
    return Subgroup(frozenset(g for g in N if conj_injection(xe, g, xe) in K.maps))


def set_product(G: FiniteGroup, A: Iterable[Perm], B: Iterable[Perm]) -> FrozenSet[Perm]:
    return frozenset(a * b for a in A for b in B)
