import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plocal.errors import DegreeMismatch
from plocal.perm import Perm, cycles_str, identity, max_point, perm_from_cycles


def test_parse_and_format_roundtrip():
    for spec in ["(0 1 2)(3 4)", "(0 3)", "()", "(1 4 2)"]:
        p = perm_from_cycles(spec, 5)
        assert perm_from_cycles(cycles_str(p), 5) == p


def test_parse_rejects_bad_input():
    with pytest.raises(ValueError):
        perm_from_cycles("(0 9)", 4)
    with pytest.raises(ValueError):
        perm_from_cycles("(0 1)(1 2)", 4)
    with pytest.raises(ValueError):
        perm_from_cycles("0 1", 4)
    with pytest.raises(ValueError):
        Perm((0, 0, 1))


def test_right_action_composition():
    p = perm_from_cycles("(0 1 2 3)", 4)
    q = perm_from_cycles("(0 1)", 4)
    # i ^ (p * q) == (i ^ p) ^ q
    for i in range(4):
        assert (p * q)(i) == q(p(i))


def test_conjugation_from_the_right():
    x = perm_from_cycles("(0 1)", 4)
    g = perm_from_cycles("(0 2)", 4)
    assert x.conj(g) == g.inv() * x * g
    assert x.conj(g) == perm_from_cycles("(1 2)", 4)
    # c_g c_h = c_{gh}
    h = perm_from_cycles("(1 2 3)", 4)
    assert x.conj(g).conj(h) == x.conj(g * h)


def test_order_and_cycles():
    p = perm_from_cycles("(0 1 2)(3 4)", 5)
    assert p.order() == 6
    assert identity(5).order() == 1
    assert p.cycles() == ((0, 1, 2), (3, 4))


def test_degree_mismatch():
    with pytest.raises(DegreeMismatch):
        perm_from_cycles("(0 1)", 3) * perm_from_cycles("(0 1)", 4)


def test_max_point():
    assert max_point("(0 1 2)(3 4)") == 4
    assert max_point("()") == -1


def test_canonical_ordering_is_lexicographic():
    a = Perm((0, 1, 2))
    b = Perm((1, 0, 2))
    assert a < b
    assert sorted([b, a]) == [a, b]


@st.composite
def perm_pairs(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    p = Perm(draw(st.permutations(range(n))))
    q = Perm(draw(st.permutations(range(n))))
    return p, q


@settings(max_examples=200, deadline=None)
@given(perm_pairs())
def test_perm_is_its_image_tuple(pq):
    p, q = pq
    n = p.degree
    assert n == len(p)
    # left-to-right composition of the image tuples
    assert tuple(p * q) == tuple(q[i] for i in p)
    assert p.conj(q) == q.inv() * p * q
    assert (p.inv() * p).is_identity() and p.inv() * p == identity(n)
    for op in (lambda: p * q, lambda: p.conj(q)):
        first, again = op(), op()
        assert type(first) is Perm and type(again) is Perm
        assert first == again
    # report bytes depend on set order and sorting, both taken from the tuple
    assert hash(p) == hash(tuple(p))
    assert [tuple(x) for x in sorted([q, p])] == sorted([tuple(q), tuple(p)])
    with pytest.raises(AttributeError):
        p.images = tuple(p)
