"""Finite permutation groups with full element enumeration.

Everything here is exact and exhaustive: groups are small (corpus scale is
|G| <= 72) and every operation enumerates elements. There is one group
type, :class:`Subgroup`, for an ambient group and its subgroups alike,
immutable. A group built from Perms alone is its own *home* and holds its
sorted elements; any other is found in a home (a corpus group, the
permutation image of an automorphism group) and is that home and its
:attr:`Subgroup.home_mask`, an int whose bit a stands for the home's a-th
sorted element. Its Perms (``elems``, iteration, ``label``) are a view
built on first use, for labels, witnesses, tests and generators.

Products and conjugates are read off integer tables over the home's sorted
elements, so every construction here builds a home mask, never a Perm set.
Where conjugation sends the elements of X is read in one place,
:func:`conj_positions`; a group from another home is carried into a home
in one place, :meth:`Subgroup.home_mask_of`, and a group inside S is a
mask over S's sorted elements by :meth:`Subgroup.mask`, so no other
module reads the conjugation table or the element index. A home keeps
in ``_kept``, under the masks they depend on, what is decided about the
groups reading its tables: N_G(X) and its action on X, per X, the one test
of "g normalizes X"; whether H has characteristic p, per (H, p); whether
H is subnormal in G, per (H, G); X's table on its positions and Aut(X),
per X; the table of automorphism groups, one per (X, maps), and per such
K its subgroups, K*Inn(X) and whether K is subnormal in it; K's
permutation image, per maps, the one home of that content; the subgroup
lattice of R, per R (:func:`lattice`); the table of fusion systems over
its subgroups (``fusion.FusionSystem``); and the closures of
``locality.fusion_of_partial``.

:func:`memo` and :func:`keep` are the one way the package keeps a result,
there, in a fusion system's ``_cache`` and a locality's ``_memo``;
:func:`peek` reads one without deciding it.

Subgroup lattices are asked for only on p-groups and on permutation images
of automorphism groups, and read only through :func:`lattice`, R's
subgroups by mask over R, and :func:`join`, the first of them holding a
mask.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from math import gcd
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple

from .errors import CapExceeded, DegreeMismatch
from .perm import Perm, identity, sorted_elems

ELEMENT_CAP = 10_000
SUBGROUP_CAP = 400
# Aut(X) is listed in full only for |X| up to this (AutGroup.maps of aut_group(X))
AUT_BASE_CAP = 64


def memo(place: dict, key, decide, *args):
    """What place keeps under key, else decide(*args), kept there. A result
    of None or False is kept; a raise is not, so it comes again on every
    call. Pass decide as the module attribute a wrapper would replace. A
    hit is one dict lookup: no place keeps itself, so it marks a miss."""
    out = place.get(key, place)
    if out is place:
        out = place[key] = decide(*args)
    return out


def keep(place: dict, key, value):
    """What place keeps under key, else value, kept there: for a value the
    caller already holds, such as a new fusion system."""
    return place.setdefault(key, value)


def peek(place: dict, key):
    """What place keeps under key, None if nothing: decides and keeps
    nothing."""
    return place.get(key)


def mulclose(gens: Iterable[Perm], cap: int = ELEMENT_CAP) -> FrozenSet[Perm]:
    """Closure of a generator set under products (orbit of the identity),
    for groups given by generators: corpus groups and K descriptors."""
    gens = list(gens)
    if not gens:
        raise ValueError("need at least one generator")
    els = frontier = {identity(gens[0].degree)}
    while frontier:
        frontier = {a * g for a in frontier for g in gens} - els
        els = els | frontier
        if len(els) > cap:
            raise CapExceeded("closure exceeded cap %d" % cap)
    return frozenset(els)


def bits(mask: int) -> List[int]:
    """The set bits of a mask, ascending: its elements in sorted order."""
    if mask < 0:
        raise ValueError("a mask has no negative bits")
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def pack(mask: int, within: int) -> int:
    """mask read at within's set bits, bit k for the k-th: for within X's
    mask over a group, a mask over X's sorted elements. Bit i goes to the
    number of within's bits below it."""
    out, mask = 0, mask & within
    while mask:
        low = mask & -mask
        out |= 1 << (within & (low - 1)).bit_count()
        mask ^= low
    return out


def _close(mul: Sequence[Sequence[int]], gens: Iterable[int]) -> int:
    """The home mask of the subgroup generated by the elements with indexes
    gens, closed on a product table (the identity has index 0)."""
    gens, out = tuple(set(gens)), frozenset([0])
    frontier = out
    while frontier:
        frontier = {mul[a][g] for a in frontier for g in gens} - out
        out |= frontier
    return sum(1 << a for a in out)


class Subgroup:
    """A finite permutation group, held as its home, the group whose
    tables it reads, and its home mask, immutable.

    ``Subgroup(elems)`` is a home of its own, holding its sorted elements;
    ``Subgroup(elems, ambient)`` is found in the ambient's home, and an
    element outside that home raises ValueError. Two are equal exactly
    when their elements are, whatever home they were found in: the home
    takes no part in equality, and the hash is that of the Perm view.
    """

    def __init__(self, elems: Iterable[Perm], ambient: Optional["Subgroup"] = None):
        elems = frozenset(elems)
        if not elems:
            raise ValueError("empty element set")
        # a Perm's length is its degree; one set of lengths keeps this cheap
        if len(set(map(len, elems))) != 1:
            raise DegreeMismatch("mixed degrees in element set")
        if ambient is None:
            home, mask = self, (1 << len(elems)) - 1
            object.__setattr__(self, "_sorted", sorted_elems(elems))
        else:
            home = ambient.home
            mask = home.home_mask_of(elems)
        object.__setattr__(self, "home", home)
        object.__setattr__(self, "home_mask", mask)

    def __setattr__(self, name, value):
        raise AttributeError("Subgroup is immutable")

    def __delattr__(self, name):
        raise AttributeError("Subgroup is immutable")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.home_mask == other.home_mask if self.home is other.home else self.elems == other.elems

    def __hash__(self):
        return hash((self.elems,))

    def __le__(self, other: "Subgroup") -> bool:
        """Whether this group's elements all lie in other."""
        try:
            return not other.home_mask_of(self) & ~other.home_mask
        except ValueError:
            return False

    @property
    def ambient(self) -> Optional["Subgroup"]:
        """The home it was found in, None for a home of its own."""
        return None if self.home is self else self.home

    @property
    def degree(self) -> int:
        return len(self.home._sorted[0])

    @cached_property
    def identity(self) -> Perm:
        return identity(self.degree)

    @cached_property
    def _sorted(self) -> Tuple[Perm, ...]:  # a home's state, other groups' view
        return elements(self.home, self.home_mask)

    @cached_property
    def elems(self) -> FrozenSet[Perm]:
        return frozenset(self._sorted)

    # The tables below are built on first use and read through ``home``:
    # they name elements by their index in the sorted element tuple, so index
    # order is element order.

    @cached_property
    def element_index(self) -> Dict[Perm, int]:
        """Position of each element in the sorted element tuple."""
        return {x: i for i, x in enumerate(self._sorted)}

    @cached_property
    def mul_table(self) -> Tuple[Tuple[int, ...], ...]:
        """mul_table[i][j] is the index of the product of the i-th and the
        j-th element, composed as plain tuples."""
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
    def conj_table(self) -> Tuple[Tuple[int, ...], ...]:
        """conj_table[a][i] is the index of x^a = a^-1 x a for x the i-th
        and a the a-th element, read off the product and inverse tables."""
        mul, inv = self.mul_table, self.inv_table
        return tuple(tuple(mul[b][a] for b in mul[inv[a]]) for a in range(len(mul)))

    @cached_property
    def _kept(self) -> Dict[tuple, object]:
        """For self a home, what the module docstring lists, filled through
        :func:`memo` per (kind, home masks), such as ("aut", X)."""
        return {}

    def home_mask_of(self, X: Iterable[Perm]) -> int:
        """X, a group or a set of Perms, as a mask over this group's home: a
        group's home_mask when it reads that home, else X's Perms carried
        in through the home's element index, the one place a group crosses
        homes; ValueError for an element outside the home."""
        if X.__class__ is Subgroup and X.home is self.home:
            return X.home_mask
        return sum({1 << a for a in self.indexes(X)})

    def mask(self, X: Iterable[Perm]) -> int:
        """X, a group or a set of Perms, as a mask over this group's sorted
        elements, bit i for the i-th; -1, every bit, for an X not inside,
        so that it lies in no mask of elements."""
        try:
            m = self.home_mask_of(X)
        except ValueError:
            return -1
        return -1 if m & ~self.home_mask else pack(m, self.home_mask)

    def from_home_mask(self, mask: int) -> "Subgroup":
        """The subgroup of the home at mask's bits: home_mask's inverse."""
        if mask <= 0 or mask >> len(self.home._sorted):
            raise ValueError("not a nonempty set of the home's elements")
        out = object.__new__(Subgroup)
        object.__setattr__(out, "home", self.home)
        object.__setattr__(out, "home_mask", mask)
        return out

    def from_mask(self, mask: int) -> "Subgroup":
        """The subgroup at the bits of a mask over this group's sorted
        elements: mask's inverse."""
        inside = bits(self.home_mask)
        return self.from_home_mask(sum(1 << inside[k] for k in bits(mask)))

    def indexes(self, elems: Iterable[Perm]) -> List[int]:
        """The home indexes of elems, in their order, for Perm words at the
        edges; ValueError for an element outside the home."""
        try:
            return list(map(self.home.element_index.__getitem__, elems))
        except KeyError:
            raise ValueError("element outside the group's home") from None

    @property
    def order(self) -> int:
        return self.home_mask.bit_count()

    def __contains__(self, p: Perm) -> bool:
        return p in self.elems

    def __iter__(self):
        return iter(self._sorted)

    def __len__(self):
        return self.order

    def trivial_subgroup(self) -> "Subgroup":
        return self.from_home_mask(1)  # the identity sorts first

    def generated_subgroup(self, gens: Iterable[Perm]) -> "Subgroup":
        """The subgroup generated by elements of this group's home, given
        as Perms."""
        return generated(self, self.home_mask_of(gens))

    def is_normal_in(self, other: "Subgroup") -> bool:
        return normalizer(other, self) == other

    def label(self) -> str:
        """Deterministic human-readable identifier."""
        nontrivial = [str(p) for p in self if not p.is_identity()]
        return "{%s}" % ",".join(nontrivial) if nontrivial else "{1}"

    def __repr__(self):
        return "Subgroup(order=%d)" % self.order


def elements(G: Subgroup, mask: int) -> Tuple[Perm, ...]:
    """G's elements at mask's bits, in sorted order: the Perm view of a
    mask over G."""
    return tuple(map(G._sorted.__getitem__, bits(mask)))


def generate_group(gens: Iterable[Perm], cap: int = ELEMENT_CAP) -> Subgroup:
    """Group generated by permutations, all elements enumerated. Mixed
    degrees raise DegreeMismatch at the first product."""
    return Subgroup(mulclose(gens, cap=cap))


def generated(G: Subgroup, mask: int) -> Subgroup:
    """The subgroup generated by the elements at mask's bits, a mask over
    G's home, closed on the home's product table."""
    return G.from_home_mask(_close(G.home.mul_table, bits(mask)))


def _canonical(G: Subgroup, masks: Iterable[int]) -> Tuple[Subgroup, ...]:
    """The subgroups of G's home at masks, in all_subgroups' canonical order
    (order, then element list): index order is element order, so bit lists
    order as sorted elements."""
    return tuple(map(G.from_home_mask, sorted(masks, key=lambda m: (m.bit_count(), bits(m)))))


def all_subgroups(G: Subgroup, cap: int = SUBGROUP_CAP) -> Tuple[Subgroup, ...]:
    """Every subgroup of G, canonically ordered (order, then element list).

    Works bottom-up on the home's product table: all cyclic subgroups, then
    closure of the lattice under joins with cyclic subgroups, each join
    <H, c> grown from H's elements one coset at a time (_coset_join).
    Exhaustive because every subgroup is a join of cyclic ones. Not kept
    here: :func:`lattice` keeps it.
    """
    if G.order > cap:
        raise CapExceeded("group order %d exceeds subgroup cap %d" % (G.order, cap))
    # each subgroup found, with a generating tuple; the queue grows as it is read
    mul, found = G.home.mul_table, {}
    for a in bits(G.home_mask):
        found.setdefault(_close(mul, (a,)), (a,))
    cyclics, queue = list(found.items()), list(found)
    for H in queue:
        hs = bits(H)
        for C, c in cyclics:
            if C & ~H and (J := _coset_join(mul, H, hs, found[H] + c)) not in found:
                found[J] = found[H] + c
                queue.append(J)
    return _canonical(G, found)


def _coset_join(mul: Sequence[Sequence[int]], H: int, hs: List[int], gens: Tuple[int, ...]) -> int:
    """The home mask of <gens>, for gens holding generators of the subgroup
    H, a home mask with elements hs, built from H one left coset at a time
    (Dimino's algorithm: Butler, Fundamental Algorithms for Permutation
    Groups, 1991). The mask is a union of cosets xH, the identity's first;
    for a coset rep x and a generator s, sx either lies in it, and then so
    does sxH, or its coset sxH is added whole. Once every rep has met every
    generator the mask is closed under left products by gens: it is the
    group they generate."""
    out, reps = H, [0]
    for x in reps:
        for s in gens:
            y = mul[s][x]
            if not out >> y & 1:
                row = mul[y]
                for h in hs:
                    out |= 1 << row[h]
                reps.append(y)
    return out


def lattice(R: Subgroup) -> Dict[int, Subgroup]:
    """R's subgroups keyed by their masks over R's sorted elements, in
    all_subgroups' order, kept on R's home per R."""
    return memo(R.home._kept, ("lattice", R.home_mask), _subgroups_by_mask, R)


def _subgroups_by_mask(R: Subgroup) -> Dict[int, Subgroup]:
    return {R.mask(P): P for P in all_subgroups(R)}


def join(R: Subgroup, mask: int) -> Optional[int]:
    """The mask of the first member of R's lattice holding mask, a mask
    over R, or None: for a mask inside R, the subgroup its elements
    generate, which lies in every member holding them and so comes first."""
    return next((m for m in lattice(R) if not mask & ~m), None)


def positions(S: Subgroup, P: Subgroup) -> Dict[int, int]:
    """The positions in S's sorted elements of P's, in order, each mapped
    to its place in P."""
    return {i: k for k, i in enumerate(bits(S.mask(P)))}


def conj_positions(G: Subgroup, X: Subgroup) -> Tuple[Tuple[int, ...], ...]:
    """Per element g of G, in sorted order, the positions in X's sorted
    elements of x^g, x running over them in order, -1 where x^g leaves X:
    the home's conjugation table read at X. Nothing is kept."""
    xs = bits(G.home_mask_of(X))
    position = {x: k for k, x in enumerate(xs)}
    rows = map(G.home.conj_table.__getitem__, bits(G.home_mask))
    return tuple(tuple(position.get(row[x], -1) for x in xs) for row in rows)


def _home_normalizer(G: Subgroup, X: Subgroup) -> Tuple[Subgroup, Dict[int, Tuple[int, ...]]]:
    """N_home(X) and its action on X, for G's home, kept there per X."""
    return memo(G.home._kept, ("normalizer", G.home_mask_of(X)), _normalizing, G.home, X)


def _normalizing(home: Subgroup, X: Subgroup):
    action = {g: image for g, image in enumerate(conj_positions(home, X)) if -1 not in image}
    return home.from_home_mask(sum(1 << g for g in action)), action


def normalizer_action(G: Subgroup, X: Subgroup) -> Dict[int, Tuple[int, ...]]:
    """The action of N_G(X) on X: the home index of each g in N_G(X)
    mapped to its row of conj_positions(G, X), which has no -1. Read once
    per X's mask on the home and kept there with N_home(X); for G not its
    home it is restricted to G."""
    action = _home_normalizer(G, X)[1]
    return action if G is G.home else {g: image for g, image in action.items() if G.home_mask >> g & 1}


def normalizer(G: Subgroup, X: Subgroup) -> Subgroup:
    """N_G(X) = {g : X^g = X}, kept on G's home per X."""
    N = _home_normalizer(G, X)[0]
    return N if G is G.home else G.from_home_mask(N.home_mask & G.home_mask)


def _acting(G: Subgroup, X: Subgroup, maps) -> Subgroup:
    """The g in N_G(X) whose action on X is one of maps."""
    return G.from_home_mask(sum(1 << g for g, image in normalizer_action(G, X).items() if image in maps))


def centralizer(G: Subgroup, X: Subgroup) -> Subgroup:
    """C_G(X) = {g : x^g = x for all x in X}: the g in N_G(X) acting on X
    as the identity."""
    return _acting(G, X, (tuple(range(X.order)),))


def center(G: Subgroup) -> Subgroup:
    return centralizer(G, G)


def normal_closure(G: Subgroup, H: Subgroup) -> Subgroup:
    """Smallest normal subgroup of G containing H: the subgroup generated
    by the G-conjugates of H's elements, on the home's tables."""
    conj, hs = G.home.conj_table, bits(G.home_mask_of(H))
    return generated(G, sum({1 << conj[a][h] for a in bits(G.home_mask) for h in hs}))


def p_part(n: int, p: int) -> int:
    """The largest power of p dividing n, for n >= 1 and p >= 2."""
    if n < 1 or p < 2:
        raise ValueError("p_part needs n >= 1 and p >= 2, not n=%d, p=%d" % (n, p))
    out = 1
    while n % p == 0:
        n //= p
        out *= p
    return out


def p_subgroups(G: Subgroup, S: Subgroup) -> Tuple[Subgroup, ...]:
    """The p-subgroups of G, given a Sylow p-subgroup S: by Sylow's theorem
    the G-conjugates of S's subgroups, in all_subgroups' canonical order."""
    conj, gs = G.home.conj_table, bits(G.home_mask)
    xss = [bits(G.home_mask_of(P)) for P in lattice(S).values()]
    return _canonical(G, {sum(1 << conj[a][x] for x in xs) for xs in xss for a in gs})


def is_p_group(X: Subgroup, p: int) -> bool:
    return X.order == p_part(X.order, p)


def times_cyclic(G: Subgroup, R: int, a: int) -> int:
    """R<x> for x, the a-th element of G's home, normalizing R, both home
    masks: the union of the cosets R x^k for k < m, m the least k > 0 with
    x^k in R."""
    mul, rs = G.home.mul_table, bits(R)
    out, xk = R, a
    while not R >> xk & 1:
        out |= sum(1 << mul[y][xk] for y in rs)
        xk = mul[xk][a]
    return out


def sylow_subgroup(G: Subgroup, p: int) -> Subgroup:
    """One Sylow p-subgroup, grown through normalizers on the home's tables.

    While |P| is short of the full p-part, N_G(P)/P has order divisible by p,
    so there is x in N_G(P) \\ P with x^p in P, and <P, x> is the union of
    the p cosets P x^k, k < p; x is the first such in element order.
    """
    P = G.trivial_subgroup()
    while P.order < p_part(G.order, p):
        inside = P.home_mask
        for x in bits(normalizer(G, P).home_mask & ~inside):
            grown = times_cyclic(G, inside, x)
            if grown.bit_count() == p * P.order:
                P = G.from_home_mask(grown)
                break
        else:  # cannot happen for a genuine group; guard anyway
            raise RuntimeError("Sylow growth stalled at order %d" % P.order)
    return P


def core_Op(G: Subgroup, p: int) -> Subgroup:
    """O_p(G), the intersection of the Sylow conjugates: the x in a Sylow
    subgroup P with x^g in P for every g in G."""
    conj, gs = G.home.conj_table, bits(G.home_mask)
    inside = set(bits(sylow_subgroup(G, p).home_mask))
    return G.from_home_mask(sum(1 << x for x in inside if all(conj[a][x] in inside for a in gs)))


def is_characteristic_p(G: Subgroup, p: int) -> bool:
    """C_G(O_p(G)) <= O_p(G). Kept on G's home per (G, p)."""
    return memo(G.home._kept, ("char_p", G.home_mask, p), _char_p, G, p)


def _char_p(G: Subgroup, p: int) -> bool:
    Q = core_Op(G, p)
    return centralizer(G, Q) <= Q


def subnormal_chain(H: Subgroup, G: Subgroup) -> Optional[Tuple[Subgroup, ...]]:
    """Ascending witness chain H = H_0 <| H_1 <| ... <| H_n = G, or None.

    Uses the normal-closure descent criterion: iterate G_{i+1} = normal
    closure of H in G_i; H is subnormal in G iff the sequence reaches H.
    Each term is normal in its predecessor, so reversing gives the chain.
    """
    if not H <= G:
        raise ValueError("H is not a subgroup of G")
    descent = [G]
    while descent[-1] != H:
        cur = descent[-1]
        nxt = normal_closure(cur, H)
        if nxt == cur:
            return None
        descent.append(nxt)
    return tuple(reversed(descent))


def is_subnormal(H: Subgroup, G: Subgroup) -> bool:
    """Whether subnormal_chain(H, G) finds a chain. Kept on G's home per
    (H, G); an H outside G raises on every call."""
    key = ("subnormal", G.home_mask_of(H), G.home_mask)
    return memo(G.home._kept, key, lambda: subnormal_chain(H, G) is not None)


# ---------------------------------------------------------------------------
# automorphism groups as permutation images


class AutGroup:
    """A group of automorphisms of a fixed base subgroup X, held as its
    permutation image: each map is the Perm of the positions of X's sorted
    elements that sends k to the position of the image of the k-th element.

    A germ of a fusion system over X with source X is the same tuple, so
    Aut_F(X) is the set of such germs. ``AutGroup(base, maps)`` is the one
    object for (base's home mask, maps), kept in a table on the base's home
    as ``fusion.FusionSystem`` keeps systems: its maps are checked once (a
    map that is not an automorphism raises ValueError, :func:`are_automorphisms`),
    each result about K is kept under K, and K made again from equal maps,
    as K cap Aut_F(X) when F realizes K, is K. Aut(X) itself, ``full``, is
    made by :func:`aut_group` alone.
    """

    full = False

    def __new__(cls, base: Subgroup, maps: Iterable[Sequence[int]]):
        maps = frozenset(map(Perm, maps))

        def checked():  # once per content: a raise is not kept
            if not are_automorphisms(base, maps):
                raise ValueError("map is not an automorphism of the base")
            out = object.__new__(cls)
            object.__setattr__(out, "base", base)
            object.__setattr__(out, "maps", maps)
            return out
        return memo(memo(base.home._kept, "autgroups", dict), (base.home_mask, maps), checked)

    def __setattr__(self, name, value):
        raise AttributeError("AutGroup is immutable")

    def __delattr__(self, name):
        raise AttributeError("AutGroup is immutable")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.base, self.maps) == (other.base, other.maps)

    def __hash__(self):
        # the base by its order: hashing the base itself would build its Perm view
        return hash((self.base.order, self.maps))

    @cached_property
    def maps(self) -> FrozenSet[Perm]:
        """Given to every AutGroup but Aut(X), whose search is read here to
        its end, once, past AUT_BASE_CAP a CapExceeded; Aut(X) is then the
        object kept for its maps, unless an equal group was made first."""
        X = self.base
        if X.order > AUT_BASE_CAP:
            raise CapExceeded("automorphism base %d exceeds cap %d" % (X.order, AUT_BASE_CAP))
        self._found.extend(self._search)
        maps = frozenset(self._found)
        keep(memo(X.home._kept, "autgroups", dict), (X.home_mask, maps), self)
        return maps

    def order_at_least(self, n: int) -> bool:
        """|K| >= n: for Aut(X), read off at most n maps of its search."""
        if not self.full:
            return self.order >= n
        self._found.extend(itertools.islice(self._search, max(n - len(self._found), 0)))
        return len(self._found) >= n

    @property
    def order(self) -> int:
        return len(self.maps)

    @cached_property
    def image(self) -> Subgroup:
        """The permutation image, a home of its own with its tables, kept on
        the base's home per maps, so one per content whatever the base."""
        return memo(self.base.home._kept, ("image", self.maps), Subgroup, self.maps)

    def sub_autgroups(self) -> Tuple["AutGroup", ...]:
        """:func:`_sub_autgroups`, kept on the base's home per value."""
        return memo(self.base.home._kept, ("sub_autgroups", self), _sub_autgroups, self)

    @property
    def times_inn(self) -> "AutGroup":
        """K*Inn(X) for K = self (:func:`_times_inn`), kept on X's home per
        value, however many objects hold it; Aut(X) itself."""
        return self if self.full else memo(self.base.home._kept, ("times_inn", self), _times_inn, self)

    def is_subnormal_in(self, other: "AutGroup") -> bool:
        """Whether K = self is subnormal in other, on other's image, kept on
        X's home per (K, other); K in itself is, Aut(X) read without maps."""
        if other.base != self.base:
            raise ValueError("mismatched bases")
        key = ("subnormal_in", self, other)
        return self is other or memo(self.base.home._kept, key, _subnormal_in, self, other)


def _subnormal_in(K: AutGroup, A: AutGroup) -> bool:
    return is_subnormal(Subgroup(K.maps, A.image), A.image)


def _sub_autgroups(A: AutGroup) -> Tuple[AutGroup, ...]:
    """The subgroups of A, in all_subgroups' canonical order of their
    permutation images: the image's lattice (:func:`lattice`), kept on the
    image's home, so equal maps on bases of one home are enumerated once."""
    return tuple(AutGroup(A.base, H) for H in lattice(A.image).values())


def _times_inn(K: AutGroup) -> AutGroup:
    """K*Inn(X) = {k then c_x}, a group for every K <= Aut(X) as Inn(X) is
    normal: a^-1 c_x a = c_{xa}, so c_x k = k c_{xk} and the set is closed
    under products and inverses."""
    inn = inn_group(K.base).maps
    return AutGroup(K.base, {tuple(map(c.__getitem__, k)) for k in K.maps for c in inn})


def aut_group(X: Subgroup) -> AutGroup:
    """Aut(X), kept on X's home per X, searched (:func:`_automorphisms`)
    only as far as it is read. It knows it is full, so K*Inn(X) = K,
    N_G^K(X) = N_G(X) and K cap Aut_F(X) = Aut_F(X) need none of its maps;
    ``order_at_least(n)`` reads at most n, and its ``maps`` all of them."""
    return memo(X.home._kept, ("aut", X.home_mask), _unread_aut, X)


def _unread_aut(X: Subgroup) -> AutGroup:
    out = object.__new__(AutGroup)
    vars(out).update(base=X, full=True, _search=_automorphisms(X), _found=[])
    return out


def _position_table(X: Subgroup) -> Tuple[List[int], Tuple[Tuple[int, ...], ...]]:
    """X's product table on its sorted positions, read off its home's, and a
    greedy generating sequence of positions; kept on X's home per X."""
    return memo(X.home._kept, ("table", X.home_mask), _table_and_gens, X)


def _table_and_gens(X: Subgroup) -> Tuple[List[int], Tuple[Tuple[int, ...], ...]]:
    xs, mul = bits(X.home_mask), X.home.mul_table
    position = {x: k for k, x in enumerate(xs)}
    rows, gens = tuple(tuple(position[mul[a][b]] for b in xs) for a in xs), []
    for k in range(len(xs)):
        if not _close(rows, gens) >> k & 1:
            gens.append(k)
    return gens, rows


def _is_automorphism(X: Subgroup, m: Sequence[int]) -> bool:
    """Whether m, a map of X's sorted positions, is one-to-one and respects
    the products g x for g among :func:`_position_table`'s generators."""
    gens, rows = _position_table(X)
    return len(m) == len(set(m)) == len(rows) and all(
        list(map(m.__getitem__, rows[g])) == list(map(rows[m[g]].__getitem__, m)) for g in gens
    )


def are_automorphisms(X: Subgroup, maps: FrozenSet[Perm]) -> bool:
    """Whether each of a set of maps is an automorphism of X, by
    :func:`_is_automorphism`, with no search."""
    return all(_is_automorphism(X, m) for m in maps)


def _automorphisms(X: Subgroup) -> Iterator[Perm]:
    """The one search of Aut(X), on X's positions: each assignment of
    generator images of their element orders, extended to X along a spanning
    tree of products by generators, yielded if an automorphism."""
    gens, rows = _position_table(X)
    # the tree: each element z other than 1 is (parent y) * (generator k)
    tree, queue = {0: None}, [0]
    for y in queue:
        for k, g in enumerate(gens):
            if rows[y][g] not in tree:
                tree[rows[y][g]] = (y, k)
                queue.append(rows[y][g])
    orders = [e.order() for e in elements(X.home, X.home_mask)]
    by_order = {o: [x for x, e in enumerate(orders) if e == o] for o in set(orders)}
    for images in itertools.product(*(by_order[orders[g]] for g in gens)):
        table = [0] * len(rows)
        for z in queue[1:]:
            y, k = tree[z]
            table[z] = rows[table[y]][images[k]]
        if _is_automorphism(X, table):
            yield Perm(table)


def aut_induced(G: Subgroup, X: Subgroup) -> AutGroup:
    """Aut_G(X) = {c_g restricted to X : g in N_G(X)}: the distinct images
    of the action of N_G(X) on X, one map each."""
    return AutGroup(X, set(normalizer_action(G, X).values()))


def inn_group(X: Subgroup) -> AutGroup:
    """Inn(X) = Aut_X(X)."""
    return aut_induced(X, X)


def trivial_aut_group(X: Subgroup) -> AutGroup:
    """{id} = Aut_1(X)."""
    return AutGroup(X, [range(X.order)])


def op_residual(A: AutGroup, p: int) -> AutGroup:
    """O^p(A): the subgroup generated by all p'-elements of A."""
    G = A.image
    return AutGroup(A.base, generated(G, sum(1 << a for a, g in enumerate(G) if gcd(g.order(), p) == 1)))


def group_K_normalizer(G: Subgroup, X: Subgroup, K: AutGroup) -> Subgroup:
    """N_G^K(X) = {g in N_G(X) : c_g restricted to X lies in K}: the g whose
    action on X is one of K's maps, N_G(X) for K = Aut(X)."""
    if K.base != X:
        raise ValueError("K is not a group of automorphisms of X")
    return normalizer(G, X) if K.full else _acting(G, X, K.maps)


def set_product(G: Subgroup, A: Subgroup, B: Subgroup) -> int:
    """{ab : a in A, b in B} for subgroups of G's home, as a mask over the
    home, read off its table."""
    mul, bs = G.home.mul_table, bits(G.home_mask_of(B))
    return sum({1 << mul[a][b] for a in bits(G.home_mask_of(A)) for b in bs})
