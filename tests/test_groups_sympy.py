"""The groups layer against sympy.combinatorics, an independent
implementation, on random permutation groups of degree at most 5.

sympy composes permutations left to right as plocal does, and its array
form is plocal's image tuple, so element sets compare directly.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.combinatorics import Permutation, PermutationGroup

from plocal import groups as gp
from plocal.perm import Perm


@st.composite
def group_and_subgroup_gens(draw):
    """Generators of G on at most 5 points, and elements of G that
    generate a subgroup H."""
    degree = draw(st.integers(1, 5))
    gens = draw(st.lists(st.permutations(range(degree)), min_size=1, max_size=3))
    gens = [Perm(g) for g in gens]
    G = gp.generate_group(gens)
    sub_gens = draw(st.lists(st.sampled_from(list(G)), min_size=1, max_size=2))
    return gens, sub_gens


def _sympy_group(perms):
    return PermutationGroup([Permutation(list(p)) for p in perms])


def _elems(group):
    return frozenset(Perm(g.array_form) for g in group.elements)


@settings(max_examples=60, deadline=None)
@given(group_and_subgroup_gens())
def test_groups_layer_matches_sympy(case):
    gens, sub_gens = case
    G = gp.generate_group(gens)
    H = G.generated_subgroup(sub_gens)
    SG, SH = _sympy_group(gens), _sympy_group(sub_gens)

    assert G.order == SG.order()
    assert G.elems == _elems(SG)
    for p in (2, 3, 5):
        if G.order % p == 0:
            assert gp.sylow_subgroup(G, p).order == SG.sylow_subgroup(p).order()
    assert gp.center(G).elems == _elems(SG.center())
    assert gp.centralizer(G, H).elems == _elems(SG.centralizer(SH))
    assert gp.normal_closure(G, H).elems == _elems(SG.normal_closure(SH))
    assert H.is_normal_in(G) == SH.is_normal(SG)
