"""Localities as explicit finite structures.

Every partial group here is a Locality, and every Locality is
group-backed: its elements live in a fixed ambient permutation group, the
product is the ambient product, and only the word domain varies. The
domain is never materialized; membership of a word (g_1, ..., g_n) is
decided by one rule, the chain criterion: the subgroup R_w = {x in R : all
prefix conjugates stay in R} of the base p-group R is one of the objects.
For an object family closed under conjugacy and overgroups this holds iff
w has an object chain P_0, ..., P_n with P_{i-1}^{g_i} = P_i: any chain
start lies inside R_w (so R_w is an object by overgroup closure), and
conversely the prefix conjugates of R_w form a chain.

Every set here is a mask, an int whose bit a stands for a group's a-th
sorted element. L, S and a partial subgroup such as N, N_L^K(X) or N X
are masks over the ambient group, a home (see ``groups``), so a subgroup
found by the group layer meets them as its ``home_mask``; an object of
Delta or Gamma, S_f and R_w are masks over the base S. The rule is
integer tables over the ambient's sorted elements (``mul_table``,
``inv_table``) and the Locality's own: ``Locality.conj_pos``, read off
the group layer as ``groups.conj_positions(ambient, S)``, maps each
position of S through each element's conjugation, and R_w is the AND of
its ``survivors`` masks over the prefix products. Every question about
the domain or about conjugates of base elements reads them, the germs of
``fusion_of_partial`` (built by ``fusion.conjugation_germs``) too.
Elements are Perms only at the edges: ``sorted_elements``, the words of
``in_domain`` and ``prod``, and witnesses. A Locality refuses attribute
assignment, so its tables are the ones its constructor built, the
hypothesis of ``verify_locality``'s theorem.

A whole group G with Sylow p-subgroup S is ``group_locality``: its objects
are all subgroups of S, so every word is defined. L_Delta(G) is its
restriction to Delta, built by ``restrict`` like bN_L^K(X). A partial
subgroup of L is its mask, passed together with L; each function that
takes one raises ValueError when it is not inside L.

Axiom verification reads two clauses of the partial-group axioms, the
two that the proof in ``verify_locality``'s docstring needs: L is closed
under inversion, and ab lies in L for each pair (a, b) in the domain, so
that ``verify_partial_group`` is ``partial_subgroup_violation`` of L
itself. By the theorem there, a locality that passes every clause of
``verify_locality`` satisfies the axioms at every word length.

The statement checkers in ``verify`` run the subcentric verification once
per distinct structure of a corpus entry, keyed on its content in the memo
of the entry's locality, and bN_K once per (F, K cap Aut_F(X)) there.
The fusion systems of partial subgroups are kept on the ambient home, by
the call and by the closure's input, so each distinct closure input over
that home is closed once; the closure is the one system of its content
on that home (see ``fusion``). The lattices of S and of its subgroups are
read off the home too (``groups.lattice``).
"""

from __future__ import annotations

import itertools
from collections import deque
from operator import itemgetter
from typing import Dict, Iterable, Optional, Sequence, Tuple

from .errors import (
    GammaNotClosed,
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
    conjugation_germs,
    is_fully_K_normalized,
    realized_part,
    subcentric_set,
)
from .groups import (
    AutGroup,
    Subgroup,
    bits,
    conj_positions,
    elements,
    group_K_normalizer,
    is_characteristic_p,
    is_p_group,
    join,
    lattice,
    memo,
    normalizer,
    p_part,
    pack,
    times_cyclic,
    trivial_aut_group,
)
from .perm import Perm
from .report import VerificationReport


# ---------------------------------------------------------------------------
# localities


class Locality:
    """(L, Delta, S): a group-backed partial group with object set Delta
    inside S. elems and S_elems are masks over the ambient group, a home,
    and Delta a set of masks over S, S itself among them. Its product is
    the ambient product, and its words, the ambient indexes of their
    letters, are decided by the chain criterion (word_ok). What is decided
    about it is kept in its ``_memo`` through ``groups.memo``, the one way
    to keep a result. It refuses attribute assignment.

    conj_pos[a][i] is the position in S of x_i^a, -1 when that conjugate
    leaves S, for x_i the i-th sorted element of S and a the a-th sorted
    element of the ambient group (``groups.conj_positions``), and
    survivors[a] the mask of the x in S with x^a in S. x survives w when
    each prefix product of w conjugates it into S, so R_{w g} = R_w &
    survivors[Pi(w g)]: word_ok makes one AND per letter, carrying the
    prefix products as ambient indexes. Both are read at construction off
    the group layer, so the rule makes no Perm products."""

    __slots__ = ("ambient", "elems", "Delta", "S_elems", "p", "S", "conj_pos", "survivors", "_memo")

    def __init__(self, ambient: Subgroup, elems: int, Delta: Iterable[int], S_elems: int, p: int):
        if ambient.home is not ambient:
            raise ValueError("the ambient group must be a home")
        if (elems | S_elems) >> ambient.order:  # -1 for a negative mask
            raise ValueError("elements not inside the ambient group")
        S, Delta = ambient.from_home_mask(S_elems), frozenset(Delta)
        if any(d >> S.order for d in Delta):
            raise ValueError("objects not inside S")
        if (1 << S.order) - 1 not in Delta:
            raise ValueError("the base itself must be an object")
        conj_pos = conj_positions(ambient, S)
        survivors = tuple(sum(1 << i for i, j in enumerate(row) if j >= 0) for row in conj_pos)
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "elems", elems)
        object.__setattr__(self, "Delta", Delta)
        object.__setattr__(self, "S_elems", S_elems)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "S", S)
        object.__setattr__(self, "conj_pos", conj_pos)
        object.__setattr__(self, "survivors", survivors)
        object.__setattr__(self, "_memo", {})

    def __setattr__(self, name, value):
        raise AttributeError("Locality is immutable")

    def word_ok(self, word: Sequence[int]) -> bool:
        """R_w is an object, for w a word of ambient indexes."""
        mul, survivors = self.ambient.mul_table, self.survivors
        u, mask = 0, survivors[0]  # the identity sorts first; R of the empty word
        for a in word:
            u = mul[u][a]
            mask &= survivors[u]
        return mask in self.Delta

    def sorted_elements(self) -> Tuple[Perm, ...]:
        """The elements as Perms, in sorted order: the letters of words."""
        return elements(self.ambient, self.elems)

    def in_domain(self, word: Sequence[Perm]) -> bool:
        try:
            word = self.ambient.indexes(word)
        except ValueError:
            return False
        return all(self.elems >> a & 1 for a in word) and self.word_ok(word)

    def prod(self, word: Sequence[Perm]) -> Perm:
        if not self.in_domain(word):
            raise ValueError("word is not in the domain")
        mul, out = self.ambient.mul_table, 0
        for a in self.ambient.indexes(word):
            out = mul[out][a]
        return elements(self.ambient, 1 << out)[0]

    def _content(self) -> tuple:
        # the tables are a function of (ambient, S_elems); caches are excluded
        return self.ambient, self.elems, self.S_elems, self.Delta

    def __eq__(self, other):
        return isinstance(other, Locality) and self._content() == other._content()

    def __hash__(self):
        return hash(self._content())

    def __repr__(self):
        return "Locality(|L|=%d, |Delta|=%d, |S|=%d)" % (
            self.elems.bit_count(), len(self.Delta), self.S.order)


def _name(L: Locality, a: int) -> str:
    """The a-th ambient element, for a witness."""
    return str(elements(L.ambient, 1 << a)[0])


def _inside(L: Locality, elems: int) -> int:
    """elems, or ValueError if it is not a subset of L."""
    if elems & ~L.elems:
        raise ValueError("subset not inside the partial group")
    return elems


def partial_subgroup_violation(parent: Locality, elems: int, pairs=None) -> Optional[dict]:
    """None if elems is a partial subgroup of parent, else a witness.

    Pair products suffice for group-backed structures: splicing turns any
    longer domain word over the subset into nested pairs, so closure under
    pairs plus inversion is full closure. pairs is the walk of the pairs in
    D over elems (_domain_pairs(parent, elems, elems), the default), read
    up to its first product outside elems.
    """
    elems, inv = _inside(parent, elems), parent.ambient.inv_table
    for x in bits(elems):
        if not elems >> inv[x] & 1:
            return {"kind": "inverse", "x": _name(parent, x)}
    for a, b, ab in _domain_pairs(parent, elems, elems) if pairs is None else pairs:
        if not elems >> ab & 1:
            return {"kind": "product", "a": _name(parent, a), "b": _name(parent, b)}
    return None


# ---------------------------------------------------------------------------
# construction of group localities


def group_locality(G: Subgroup, S: Subgroup, p: int) -> Locality:
    """G as a locality over its Sylow p-subgroup S: every subgroup of S is
    an object, so every word is defined."""
    if S.order != p_part(G.order, p):
        raise NotSylow("S is not a Sylow %d-subgroup of G" % p)
    return Locality(G, G.home_mask, lattice(S), G.home_mask_of(S), p)


def build_group_locality(G: Subgroup, S: Subgroup, Delta: Iterable[int], p: int) -> Locality:
    """L_Delta(G) = {g in G : S cap S^{g^-1} in Delta}: the group locality
    restricted to Delta, masks over S, where S_g = S cap S^{g^-1}.

    Delta must be closed under F_S(G)-conjugacy and overgroups in S;
    restrict raises GammaNotClosed otherwise. The construction always
    yields a structure; run verify_locality (or the subcentric verifier) to
    certify the axioms for a particular G.
    """
    L = group_locality(G, S, p)
    return restrict(L, L.elems, Delta, S.trivial_subgroup())


# ---------------------------------------------------------------------------
# S_f and normalizers inside a locality


def _S_f_masks(L: Locality) -> Tuple[int, ...]:
    """S_f as a mask over S, L's base, by the ambient index of f,
    kept in L's memo: bit i is set iff x_i^f lies in S, f, f^-1 and x_i lie
    in L and R of (f^-1, x_i, f), with prefix products 1, f^-1, f^-1 x_i and
    x_i^f, is an object."""
    return memo(L._memo, "S_f", _S_f_of, L)


def _S_f_of(L: Locality) -> Tuple[int, ...]:
    mul, inv, inside = L.ambient.mul_table, L.ambient.inv_table, L.elems
    sv, base = L.survivors, bits(L.S_elems)

    def mask(f, row):
        fi = inv[f]
        if not (inside >> f & 1 and inside >> fi & 1):
            return 0
        return sum(
            1 << i for i, x in enumerate(base) if inside >> x & 1 and row[i] >= 0
            and (sv[fi] & sv[mul[fi][x]] & sv[base[row[i]]]) in L.Delta
        )

    return tuple(map(mask, range(len(mul)), L.conj_pos))


def S_f(L: Locality, f: Perm) -> Subgroup:
    """S_f = {x in S : (f^-1, x, f) in D and x^f in S}, from its mask."""
    [a] = L.ambient.indexes([f])
    return L.S.from_mask(_S_f_masks(L)[a] if L.elems >> a & 1 else 0)


def _conj_mask(L: Locality, mask: int, a: int) -> Optional[int]:
    """P^f as a mask, f the a-th ambient element: None unless P <= S_f,
    else P's bits mapped through conj_pos[a]."""
    if mask & ~_S_f_masks(L)[a]:
        return None
    row, out = L.conj_pos[a], 0
    while mask:
        low = mask & -mask
        out |= 1 << row[low.bit_length() - 1]
        mask ^= low
    return out


def _actions(L: Locality) -> Tuple[Tuple[int, int], ...]:
    """L's elements grouped by how they act on objects, kept in L's memo:
    per class of the f in L with one (S_f mask, conj_pos row), the index
    of its first member and the mask of its members, in the order of first
    members. _conj_mask reads f only through that pair, so P^f is one mask
    per class."""
    return memo(L._memo, "actions", _actions_of, L)


def _actions_of(L: Locality) -> Tuple[Tuple[int, int], ...]:
    sf, classes = _S_f_masks(L), {}
    for f in bits(L.elems):
        key = sf[f], L.conj_pos[f]
        classes[key] = classes.get(key, 0) | 1 << f
    return tuple(((members & -members).bit_length() - 1, members) for members in classes.values())


def normalizer_partial(L: Locality, X: Subgroup) -> int:
    """N_L(X) = {f in N_G(X) cap L : X <= S_f}, G the ambient group."""
    return _defined_on(L, X, normalizer(L.ambient, X))


def K_normalizer_partial(L: Locality, X: Subgroup, K: AutGroup) -> int:
    """N_L^K(X) = {f in N_G^K(X) cap L : X <= S_f}, verified to be a
    partial subgroup of L."""
    out = _defined_on(L, X, group_K_normalizer(L.ambient, X, K))
    bad = partial_subgroup_violation(L, out)
    if bad is not None:
        raise NotPartialSubgroup("N_L^K(X) failed closure: %r" % (bad,))
    return out


def _defined_on(L: Locality, X: Subgroup, N: Subgroup) -> int:
    """The f in N cap L for which X^f is defined in L: X <= S_f."""
    x, sf = L.S.mask(X), _S_f_masks(L)
    return sum(1 << f for f in bits(N.home_mask & L.elems) if not x & ~sf[f])


# ---------------------------------------------------------------------------
# restriction H|_Gamma


def restrict(L: Locality, H: int, Gamma: Iterable[int], X: Subgroup) -> Locality:
    """H|_Gamma = {f in H : S_f cap R in Gamma}, R = S cap H, for a partial
    subgroup H of L, with the Gamma-chain domain. Gamma is a set of masks
    over S; the result's objects are the same subgroups as masks over R,
    its base.

    Checks the closure of Gamma and the hypotheses (Q1), (Q2) eagerly, in
    the order of Gamma's masks, and raises NotSylow unless R is a maximal
    p-subgroup of the result. P^f is _conj_mask, once per object P and
    action class of L meeting H (_actions): f acts on objects only through
    its class, so both checks read one f per class.
    """
    H, Gamma = _inside(L, H), frozenset(Gamma)
    objects, R = sorted(Gamma), L.S_elems & H
    r = pack(R, L.S_elems)
    r_lattice = [m for m in lattice(L.S) if not m & ~r]
    for P in objects:
        if P not in r_lattice:
            raise GammaNotClosed("object is not a subgroup of R")
    # P^f for each object P and one f per action class meeting H, None
    # where it is not defined
    reps, images = [a for a, members in _actions(L) if members & H], {}
    for P in objects:
        for Q in r_lattice:
            if not P & ~Q and Q not in Gamma:
                raise GammaNotClosed("not closed under overgroups in R")
        for a in reps:
            img = images[P, a] = _conj_mask(L, P, a)
            if img is not None and not img & ~r and img not in Gamma:
                raise GammaNotClosed("not closed under H-conjugation")
    # (Q1): <P, X> must be an object of L for every P in Gamma (no join for
    # X outside S)
    x, joined_of = L.S.mask(X), {}
    for P in objects:
        joined = joined_of[P] = join(L.S, P | x)
        if joined not in L.Delta:
            raise Q1Violated("<P, X> is not an object for P with |P|=%d" % P.bit_count())
    # (Q2): N_H(P1, P2) <= N_L(<P1,X>, <P2,X>); P2 = P1^f is the one object
    # that f can move P1 onto, and <P1,X> is often P1 itself
    for (P1, a), P2 in images.items():
        J = joined_of[P1]
        if P2 in Gamma and (
            images[J, a] if J in Gamma else _conj_mask(L, J, a)
        ) != joined_of[P2]:
            raise Q2Violated("transporter element does not move <P1,X> onto <P2,X>")
    sf = _S_f_masks(L)
    elems = sum(1 << f for f in bits(H) if (sf[f] & r) in Gamma)
    out = Locality(L.ambient, elems, (pack(P, r) for P in objects), R, L.p)
    if not _is_max_p_subgroup(out):
        raise NotSylow("S cap H is not a maximal p-subgroup of the restriction")
    return out


def _is_max_p_subgroup(P0: Locality) -> bool:
    """S, the base of P0, is a p-subgroup of the partial group P0 (a
    subgroup inside P0 with all its words defined), maximal among such.

    A p-subgroup H > S has N_H(S) > S, so S is maximal iff no x in N_G(S)
    cap P0 outside S gives a p-group S<x> inside P0, read off the ambient
    product table by times_cyclic. Words need no test: every element of
    S<x> normalizes S, so its survivor mask, and so the AND of them along
    any word over S<x> or over S, is the whole base, which is an object
    (the Locality's constructor requires it)."""
    S, G, p = P0.S_elems, P0.ambient, P0.p
    if S & ~P0.elems or not is_p_group(P0.S, p):
        return False
    for x in bits(normalizer(G, P0.S).home_mask & P0.elems & ~S):
        H = times_cyclic(G, S, x)
        if H.bit_count() == p_part(H.bit_count(), p) and not H & ~P0.elems:
            return False
    return True


# ---------------------------------------------------------------------------
# the restricted K-normalizer bN and its named special cases


def bN_K(L: Locality, F: FusionSystem, X: Subgroup, K: AutGroup) -> Locality:
    """bN_L^K(X) = N_L^K(X) restricted to the subcentric set of N_F^K(X).

    Requires F = F_S(L) and X fully K-normalized in F. The output is a
    subcentric locality when K is subnormal in K*Inn(X); callers that need
    one test that hypothesis themselves. Kept in L's memo per (F,
    K cap Aut_F(X)) and built on that intersection: N_L^K(X) reads K
    through c_f on X for f in N_L(X) with X <= S_f, morphisms of
    F_S(L) = F, and N_F^K(X) through K cap Aut_F(X) (see
    ``fusion.K_normalizer_subsystem``). A failed hypothesis is not kept,
    so it raises again on every call.
    """
    K = realized_part(F, X, K)
    return memo(L._memo, ("bN_K", F, K), _bN_K, L, F, X, K)


def _bN_K(L: Locality, F: FusionSystem, X: Subgroup, K: AutGroup) -> Locality:
    if not is_fully_K_normalized(F, X, K):
        raise NotFullyKNormalized("X is not fully K-normalized in F")
    NFK = K_normalizer_subsystem(F, X, K)
    Gamma = frozenset(L.S.mask(P) for P in subcentric_set(NFK))
    return restrict(L, K_normalizer_partial(L, X, K), Gamma, X)


def bN(L: Locality, F: FusionSystem, X: Subgroup) -> Locality:
    """bN_L(X), for X fully normalized: bN_K reads Aut(X) as Aut_F(X)."""
    return bN_K(L, F, X, F.aut(X))


def bC(L: Locality, F: FusionSystem, X: Subgroup) -> Locality:
    """bC_L(X), for X fully centralized."""
    return bN_K(L, F, X, trivial_aut_group(X))


# ---------------------------------------------------------------------------
# partial normal subgroups


def partial_normal_violation(L: Locality, N: int) -> Optional[dict]:
    """None if N is a partial normal subgroup of L, else a witness."""
    bad = partial_subgroup_violation(L, N)
    if bad is not None:
        return bad
    # n^f is defined iff f^-1 lies in L and R of (f^-1, n, f), with prefix
    # products 1, f^-1, f^-1 n and n^f, is an object
    mul, inv, inside = L.ambient.mul_table, L.ambient.inv_table, L.elems
    sv, masks, members = L.survivors, L.Delta, bits(N)
    for f in bits(inside):
        fi = inv[f]
        for n in members if inside >> fi & 1 else ():
            u = mul[fi][n]
            if (sv[fi] & sv[u] & sv[mul[u][f]]) in masks and not N >> mul[u][f] & 1:
                return {"kind": "conjugation", "f": _name(L, f), "n": _name(L, n)}
    return None


def is_partial_normal(L: Locality, N: int) -> bool:
    return partial_normal_violation(L, N) is None


def fusion_of_partial(
    L: Locality, N: int, base: Optional[Subgroup] = None, frame: Optional[Subgroup] = None
) -> FusionSystem:
    """F_R(N), R = N cap S (or the given base): the fusion system on R
    generated by the conjugation maps c_f, f in N, in the given frame (L's
    S by default; a restriction of an entry's locality names the entry's).

    Kept on L's ambient home under two keys: the content (L, N, R, frame)
    of the call, and the closure's input (frame, R, generating germs), so
    that calls that differ in (L, N), from any locality over that home,
    but generate the same system close it once. The base must lie in
    N cap S and in the frame.
    """
    T = _inside(L, N) & L.S_elems
    R = base if base is not None else L.ambient.from_home_mask(T)
    frame = L.S if frame is None else frame
    r, f = L.ambient.home_mask_of(R), L.ambient.home_mask_of(frame)
    if r & ~T:
        raise ValueError("base is not inside the partial subgroup and S")
    if r & ~f:
        raise ValueError("base is not inside the frame")
    return memo(L.ambient._kept, ("fusion_of_partial", L, N, r, f), _generated, L, N, R, frame)


def _generated(L: Locality, N: int, R: Subgroup, frame: Subgroup) -> FusionSystem:
    germs = _partial_germs(L, N, R, frame)
    key = ("closure", L.ambient.home_mask_of(frame), L.ambient.home_mask_of(R), frozenset(germs))
    return memo(L.ambient._kept, key, lambda: close_generated(R, L.p, germs, frame=frame))


def _partial_germs(L: Locality, N: int, R: Subgroup, frame: Subgroup) -> set:
    """The c_f on P for f in N and P <= R with P <= S_f and P^f <= R, for R
    inside S, each a germ over the frame (see fusion): f's row of
    L's conj_pos written once in the frame's positions on R, restricted
    to P.

    The row needs no cut to S_f, for S_f = S cap S^(f^-1), the positions
    that the row keeps in S. For f in L, (f) and (f^-1) lie in D, so P =
    S cap S^(f^-1) = R_(f) and P^f = R_(f^-1) are objects; for x in P the
    object chain P^f, P, P, P^f along (f^-1, x, f) puts that word in D."""
    r, f = L.ambient.home_mask_of(R), L.ambient.home_mask_of(frame)
    into = [(f & ((1 << a) - 1)).bit_count() if r >> a & 1 else -1 for a in bits(L.S_elems)]
    return conjugation_germs({L.conj_pos[a] for a in bits(N)}, into, frame)


# ---------------------------------------------------------------------------
# products N X


def product_partial(L: Locality, N: int, X: Subgroup) -> int:
    """N X = {Pi(n, x) : (n, x) in D}, verified to be a partial subgroup."""
    N, x = _inside(L, N), L.ambient.home_mask_of(X)
    if x & ~L.S_elems:
        raise ValueError("X must lie inside S")
    out = sum({1 << nx for _, _, nx in _domain_pairs(L, N, x)})
    bad = partial_subgroup_violation(L, out)
    if bad is not None:
        raise NotPartialSubgroup("N X failed closure: %r" % (bad,))
    return out


def product_fusion(L: Locality, N: int, X: Subgroup) -> FusionSystem:
    """The product system realized in the locality: F_{TX}(N X)."""
    NX = product_partial(L, N, X)
    TX = join(L.S, pack(N & L.S_elems, L.S_elems) | L.S.mask(X))
    if pack(NX & L.S_elems, L.S_elems) != TX:
        raise NotPartialSubgroup("N X cap S differs from T X; the product is not well formed")
    return fusion_of_partial(L, NX, base=L.S.from_mask(TX))


# ---------------------------------------------------------------------------
# axiom verification


def _domain_pairs(L: Locality, A: int, B: int):
    """The pairs (a, b) in D, a in A and b in B, masks over the ambient
    group, by ambient index, each with the index of ab, in the order of a
    and then b. The prefix products of (a, b) are 1, a and ab, so R_(a,b) =
    survivors[a] & survivors[ab], R of the empty word being the whole
    base."""
    mul, survivors, masks = L.ambient.mul_table, L.survivors, L.Delta
    right = bits(B & L.elems)
    for a in bits(A & L.elems):
        row, mask = mul[a], survivors[a]
        for b in right:
            if (mask & survivors[row[b]]) in masks:
                yield a, b, row[b]


def verify_partial_group(P: Locality) -> VerificationReport:
    """The partial-group clauses that verify_locality's proof reads: P is
    closed under inversion (`inversion-closure`), and ab lies in P for
    every (a, b) in D (`splice-domain` at (i, j) = (0, 2)). That is
    partial_subgroup_violation of P's own elements, its witness renamed.
    The stats count the words of length 1 and 2 over P and those in D.

    On its own it decides only the pairs in the domain, so it can pass a
    structure with an element outside D; verify_locality completes it,
    and its docstring proves that the two together decide every length,
    objectivity among them.
    """
    inst = "partial-group(|L|=%d)" % P.elems.bit_count()
    letters = bits(P.elems)
    # one walk of the pairs in D: the check reads it up to its first pair
    # outside P and the rest is drained, ticks counting every pair it yields
    ticks = itertools.count()
    walk = map(itemgetter(0), zip(_domain_pairs(P, P.elems, P.elems), ticks))
    bad = partial_subgroup_violation(P, P.elems, walk)
    deque(walk, maxlen=0)
    domain = sum(P.word_ok((f,)) for f in letters) + next(ticks)
    stats = {"words_checked": len(letters) * (len(letters) + 1), "domain_words": domain}
    if bad is None:
        return VerificationReport("partial-group-axioms", inst, "pass", stats=stats)
    if bad["kind"] == "inverse":
        witness = {"axiom": "inversion-closure", "x": bad["x"]}
    else:
        witness = {"axiom": "splice-domain", "w": [bad["a"], bad["b"]], "i": 0, "j": 2}
    return VerificationReport("partial-group-axioms", inst, "fail", witness=witness, stats=stats)


def verify_locality(L: Locality) -> VerificationReport:
    """Locality axioms: partial group, Delta-closure, L inside D, maximal
    p-subgroup. Two axioms need no clause, by the theorem below. That S_f
    is an object for every f in L: once `S-maximal` puts S inside L, (1)
    gives S_f = S cap S^(f^-1) = R_(f), an object by `length-one-domain`.
    Objectivity, D being the words over L with an object chain: once the
    clauses before `S-maximal` pass, (1) and (2) make the rule the
    object-chain criterion when S lies in L, and `S-maximal` fails when
    it does not. So a check comparing the rule with the chains along each
    word could change no verdict, only the witness of a structure with S
    outside L.

    Theorem. Let L be a Locality, whose tables its constructor built (it
    refuses assignment), that passes every clause here, the two of
    verify_partial_group among them. Then L, with the ambient product and
    inverse, is a partial group, and (L, Delta) is objective, at every word
    length: D is the set of words over L with an object chain, Delta is
    closed under overgroups in S and under conjugation by L, and S is a
    maximal p-subgroup of L. So a check of any longer words cannot fail,
    and none is made. The route is the object-chain
    criterion for objective partial groups (Chermak, "Fusion systems and
    localities", Acta Math. 211 (2013), section 2).

    Proof. Write x^g = g^-1 x g, and R_w for the rule's subgroup of a word
    w: the x in S whose conjugates by every prefix product of w lie in S.
    (1) `S-maximal` puts S inside L, and verify_partial_group's
    `inversion-closure` f^-1 in L for each f in L. Let f be in L and x in S with x^f in S, so
    x lies in the subgroup S cap S^(f^-1), which conjugation by x keeps.
    For y in S cap S^f, y^(f^-1) lies in S cap S^(f^-1), so y^(f^-1 x)
    does too and y^(f^-1 x f) lies in S: R(f^-1, x, f) contains
    S cap S^f = R(f^-1), an object by `length-one-domain` for f^-1, and is
    then one by `Delta-overgroups`. So S_f (_S_f_masks) is S cap S^(f^-1)
    for every f in L, and `Delta-conjugation` says that P^f is an object
    for every object P and every f in L with P^f inside S.
    (2) The rule is then the object-chain criterion at every length. A
    chain P_0, ..., P_n of objects along w = (g_1, ..., g_n), P_{i-1}^g_i
    = P_i, puts P_0 inside R_w, a subgroup of S, so R_w is an object by
    `Delta-in-S` and `Delta-overgroups`. Conversely, for w over L in D, the
    conjugates of R_w by the prefix products of w are a chain, each an
    object by (1). So D is closed under subwords (cut the chain), and for
    w in D the inverse word wbar lies in D along the reversed chain (its
    letters are in L by `inversion-closure`), and so does wbar w, along
    the reversed chain and then the chain.
    (3) Pi(v) lies in L for every v = (h_1, ..., h_m) in D, by induction
    on m. For m <= 1 it is 1, in S, or h_1. Else (h_1, h_2) is a subword
    of v, in D by (2), so verify_partial_group's pair check, `splice-domain`
    at (i, j) = (0, 2), puts h_1 h_2 in L; the shorter word (h_1 h_2, h_3,
    ..., h_m) has v's product and v's chain with P_1 dropped. So
    u o (Pi v) o t lies in D when u o v o t does: its letters are in L,
    and the chain of u o v o t with the objects inside v dropped is one
    for it.
    (4) Every product is the ambient group's, so Pi((g)) = g,
    Pi(u o v o t) = Pi(u o (Pi v) o t) and Pi(wbar w) = 1 at every length,
    and no product table is checked. The inverse is the group's: a home's
    inverse table is a group's, so it is involutory, and a bijection of L
    by `inversion-closure`. `length-one-domain` is L inside D, and the
    empty word lies in D as R_() = S is an object, which the constructor
    requires. So neither needs a clause. Together with (1) to (3) these are
    the partial-group axioms, objectivity and the closure of Delta; S is
    a maximal p-subgroup by `S-maximal`.
    """
    inst = "locality(|L|=%d, |Delta|=%d)" % (L.elems.bit_count(), len(L.Delta))
    stats: Dict[str, object] = {}

    def fail(witness):
        return VerificationReport("locality-axioms", inst, "fail", witness=witness, stats=stats)

    pg = verify_partial_group(L)
    stats.update({"pg_" + k: v for k, v in pg.stats.items()})
    if not pg.passed:
        return fail({"axiom": "partial-group", "inner": pg.witness})

    # S is a p-group (its words are all defined: see _is_max_p_subgroup)
    if not is_p_group(L.S, L.p):
        return fail({"axiom": "S-p-group"})

    # Delta closure under overgroups, L inside D (S_f is empty for an f
    # outside D), then Delta closure under L-conjugation
    whole, objects, letters = lattice(L.S), sorted(L.Delta, key=bits), bits(L.elems)
    for d in objects:
        if d not in whole:
            return fail({"axiom": "Delta-in-S", "object_order": d.bit_count()})
        for H in whole:
            if not d & ~H and H not in L.Delta:
                return fail({"axiom": "Delta-overgroups", "object_order": d.bit_count()})
    for f in letters:
        if not L.word_ok((f,)):
            return fail({"axiom": "length-one-domain", "w": [_name(L, f)]})
    for d in objects:
        for f in letters:
            img = _conj_mask(L, d, f)
            if img is not None and img not in L.Delta:
                return fail({"axiom": "Delta-conjugation", "f": _name(L, f)})

    # maximality of S among p-subgroups of L
    if not _is_max_p_subgroup(L):
        return fail({"axiom": "S-maximal"})

    return VerificationReport("locality-axioms", inst, "pass", stats=stats)


def verify_subcentric_locality(L: Locality, F: FusionSystem) -> VerificationReport:
    """Subcentric locality over F: locality axioms, F_S(L) = F, Delta = F^s,
    and N_L(P) of characteristic p for every object P.

    N_L(P) is a subgroup of the ambient group with every pair in D once
    verify_locality has passed, so only its characteristic p is checked.
    For f, g in N_L(P), (f, g) has the chain (P, P, P), so it lies in D by
    (2) of verify_locality's proof, and fg lies in L by the pair check of
    verify_partial_group; fg normalizes
    P and P^(fg) = P lies in S, so fg lies in N_L(P) by (1). f^-1 lies in
    L by `inversion-closure`, and in N_L(P) likewise.
    """
    inst = "subcentric(|L|=%d over |S|=%d)" % (L.elems.bit_count(), L.S.order)
    stats: Dict[str, object] = {}

    def fail(witness):
        return VerificationReport(
            "subcentric-locality", inst, "fail", witness=witness, stats=stats
        )

    base = verify_locality(L)
    stats.update(base.stats)
    if not base.passed:
        return fail({"axiom": "locality", "inner": base.witness})
    if L.S != F.S:
        return fail({"axiom": "same-S"})
    if frozenset(L.S.mask(P) for P in subcentric_set(F)) != L.Delta:
        return fail({"axiom": "Delta-is-subcentric-set"})
    FL = fusion_of_partial(L, L.elems, base=L.S, frame=F.frame)
    if FL != F:
        return fail({"axiom": "F_S(L)-is-F"})
    for P in map(L.S.from_mask, sorted(L.Delta, key=bits)):  # in sorted element order
        NP = normalizer_partial(L, P)
        if not is_characteristic_p(L.ambient.from_home_mask(NP), L.p):
            return fail({"axiom": "N_L(P)-characteristic-p", "P": P.label()})
    stats["objects"] = len(L.Delta)
    return VerificationReport("subcentric-locality", inst, "pass", stats=stats)
