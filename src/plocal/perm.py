"""Permutations on the points 0..degree-1.

A permutation is the tuple of its images: ``Perm((1, 2, 0))`` sends 0 to 1,
1 to 2 and 2 to 0. Equality, hashing and the canonical element ordering
(lexicographic on the images) are those of the tuple.

Conventions (used consistently everywhere in the package):

* permutations act on the right: the image of point ``i`` under ``p`` is
  ``p[i]``;
* products compose left to right, ``i ^ (p * q) == (i ^ p) ^ q``;
* conjugation is from the right, ``x ^ g == g^-1 * x * g``.

The right-action convention matches writing homomorphisms on the right of
the argument, which is what the rest of the package does for group maps.

A Perm is a plain value: its product and conjugation compute and keep
nothing. The package multiplies and conjugates Perms only to parse groups
given by generators and to check maps handed in from outside; every other
product or conjugate is read off a group's integer tables
(``groups.Subgroup``).
"""

from __future__ import annotations

from math import lcm
from typing import Iterable, Sequence

from .errors import DegreeMismatch


class Perm(tuple):
    """An immutable permutation: the tuple of its images, checked to be a
    permutation when built (products, inverses and conjugates need no
    check). Being a tuple, it hashes and compares as its image sequence, so
    sorting gives the canonical element ordering.
    """

    __slots__ = ()

    def __new__(cls, images: Sequence[int]):
        images = tuple(images)
        if sorted(images) != list(range(len(images))):
            raise ValueError("not a permutation: %r" % (images,))
        return super().__new__(cls, images)

    @property
    def degree(self) -> int:
        return len(self)

    def __call__(self, point: int) -> int:
        return self[point]

    def __mul__(self, other: "Perm") -> "Perm":
        # apply self first, then other
        if len(self) != len(other):
            raise DegreeMismatch("degree %d vs %d" % (len(self), len(other)))
        return tuple.__new__(Perm, [other[i] for i in self])

    def inv(self) -> "Perm":
        out = [0] * len(self)
        for i, j in enumerate(self):
            out[j] = i
        return tuple.__new__(Perm, out)

    def conj(self, g: "Perm") -> "Perm":
        """self ^ g = g^-1 * self * g, computed in one pass."""
        if len(g) != len(self):
            raise DegreeMismatch("degree %d vs %d" % (len(self), len(g)))
        out = [0] * len(g)
        for i in range(len(g)):
            out[g[i]] = g[self[i]]
        return tuple.__new__(Perm, out)

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self))

    def order(self) -> int:
        cycs = self.cycles()
        return lcm(*(len(c) for c in cycs)) if cycs else 1

    def cycles(self) -> tuple:
        """Nontrivial cycles, each starting at its least point."""
        seen = set()
        out = []
        for i in range(len(self)):
            if i in seen or self[i] == i:
                continue
            cyc = [i]
            j = self[i]
            while j != i:
                seen.add(j)
                cyc.append(j)
                j = self[j]
            out.append(tuple(cyc))
        return tuple(out)

    def __repr__(self):
        return "Perm(%r)" % (tuple(self),)

    def __str__(self):
        return cycles_str(self)


def identity(degree: int) -> Perm:
    return Perm(range(degree))


def parse_cycles(text: str) -> list:
    """The cycles of cycle notation like ``(0 1 2)(3 4)``, each a list of
    points, checked for notation and repeated points but not against a
    degree. Whitespace or commas separate points; ``()`` and the empty
    string have no cycles.
    """
    text = text.strip()
    if text in ("", "()"):
        return []
    if not text.startswith("(") or not text.endswith(")"):
        raise ValueError("bad cycle notation: %r" % text)
    moved = set()
    cycles = []
    for chunk in text[1:-1].split(")("):
        pts = _points(chunk)
        if len(pts) < 2:
            continue
        for pt in pts:
            if pt in moved:
                raise ValueError("point %d repeated in %r" % (pt, text))
            moved.add(pt)
        cycles.append(pts)
    return cycles


def perm_from_cycles(text: str, degree: int) -> Perm:
    """Parse cycle notation (see :func:`parse_cycles`) into a permutation
    of the given degree."""
    images = list(range(degree))
    for pts in parse_cycles(text):
        for pt in pts:
            if pt >= degree:
                raise ValueError("point %d out of range for degree %d" % (pt, degree))
        for a, b in zip(pts, pts[1:] + pts[:1]):
            images[a] = b
    return Perm(images)


def max_point(text: str) -> int:
    """Largest point mentioned in a cycle string, -1 if none."""
    pts = [pt for chunk in text.strip().strip("()").split(")(") for pt in _points(chunk)]
    return max(pts) if pts else -1


def _points(chunk: str) -> list:
    """The points of one cycle body, naming the first token that is not one
    (points are 0-based, so a negative number is not one)."""
    pts = []
    for tok in chunk.replace(",", " ").split():
        try:
            pt = int(tok)
        except ValueError:
            pt = -1
        if pt < 0:
            raise ValueError("bad point %r" % tok)
        pts.append(pt)
    return pts


def cycles_str(p: Perm) -> str:
    cycs = p.cycles()
    if not cycs:
        return "()"
    return "".join("(%s)" % " ".join(str(pt) for pt in c) for c in cycs)


def sorted_elems(elems: Iterable[Perm]) -> tuple:
    """Canonical ordering: lexicographic on image sequences."""
    return tuple(sorted(elems))
