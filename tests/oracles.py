"""Independent brute-force oracles.

These deliberately avoid the algorithms used by the package: subgroup
enumeration scans subsets, Sylow subgroups are maxima over the full
lattice, subnormality searches over all normal-series chains, and
automorphism groups filter all identity-fixing bijections. They are the
second route every lattice-level claim is checked against.
"""

from __future__ import annotations

import itertools

from plocal.groups import GroupInjection, Subgroup
from plocal.perm import sorted_elems


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
    from plocal.groups import mulclose

    elems = list(G.elems)
    out = {frozenset([G.identity])}
    for r in range(1, max_gens + 1):
        for combo in itertools.combinations(elems, r):
            out.add(mulclose(combo, cap=G.order))
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
            out.add(GroupInjection(tuple(table.items())))
    return out
