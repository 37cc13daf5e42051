"""Permutations on the points 0..degree-1.

Conventions (used consistently everywhere in the package):

* permutations act on the right: the image of point ``i`` under ``p`` is
  ``p.images[i]``;
* products compose left to right, ``i ^ (p * q) == (i ^ p) ^ q``;
* conjugation is from the right, ``x ^ g == g^-1 * x * g``.

The right-action convention matches writing homomorphisms on the right of
the argument, which is what the rest of the package does for group maps.
"""

from __future__ import annotations

from math import lcm
from typing import Iterable, Sequence

from .errors import DegreeMismatch

_CONJ_CACHE: dict = {}
_CONJ_CACHE_CAP = 1 << 20
_MUL_CACHE: dict = {}
_MUL_CACHE_CAP = 1 << 19


class Perm:
    """An immutable permutation, hashable, ordered lexicographically by its
    image sequence (this is the canonical element ordering of the package).
    """

    __slots__ = ("images", "_hash")

    def __init__(self, images: Sequence[int]):
        images = tuple(images)
        if sorted(images) != list(range(len(images))):
            raise ValueError("not a permutation: %r" % (images,))
        object.__setattr__(self, "images", images)
        object.__setattr__(self, "_hash", hash(images))

    def __setattr__(self, name, value):
        raise AttributeError("Perm is immutable")

    @property
    def degree(self) -> int:
        return len(self.images)

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        return isinstance(other, Perm) and self.images == other.images

    def __ne__(self, other):
        return not self.__eq__(other)

    def __lt__(self, other):
        return self.images < other.images

    def __le__(self, other):
        return self.images <= other.images

    def __call__(self, point: int) -> int:
        return self.images[point]

    def __mul__(self, other: "Perm") -> "Perm":
        # apply self first, then other
        key = (self, other)
        hit = _MUL_CACHE.get(key)
        if hit is not None:
            return hit
        if len(self.images) != len(other.images):
            raise DegreeMismatch(
                "degree %d vs %d" % (len(self.images), len(other.images))
            )
        oi = other.images
        res = Perm(tuple(oi[i] for i in self.images))
        if len(_MUL_CACHE) < _MUL_CACHE_CAP:
            _MUL_CACHE[key] = res
        return res

    def inv(self) -> "Perm":
        images = self.images
        out = [0] * len(images)
        for i, j in enumerate(images):
            out[j] = i
        return Perm(tuple(out))

    def conj(self, g: "Perm") -> "Perm":
        """self ^ g = g^-1 * self * g, computed in one pass and memoized
        (conjugation dominates the word-domain walks of the locality layer
        and the key space is tiny at corpus scale)."""
        key = (self, g)
        hit = _CONJ_CACHE.get(key)
        if hit is not None:
            return hit
        gi = g.images
        xi = self.images
        if len(gi) != len(xi):
            raise DegreeMismatch("degree %d vs %d" % (len(xi), len(gi)))
        out = [0] * len(gi)
        for i in range(len(gi)):
            out[gi[i]] = gi[xi[i]]
        res = Perm(tuple(out))
        if len(_CONJ_CACHE) < _CONJ_CACHE_CAP:
            _CONJ_CACHE[key] = res
        return res

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.images))

    def order(self) -> int:
        cycs = self.cycles()
        return lcm(*(len(c) for c in cycs)) if cycs else 1

    def cycles(self) -> tuple:
        """Nontrivial cycles, each starting at its least point."""
        seen = set()
        out = []
        for i in range(len(self.images)):
            if i in seen or self.images[i] == i:
                continue
            cyc = [i]
            j = self.images[i]
            while j != i:
                seen.add(j)
                cyc.append(j)
                j = self.images[j]
            out.append(tuple(cyc))
        return tuple(out)

    def __repr__(self):
        return "Perm(%r)" % (self.images,)

    def __str__(self):
        return cycles_str(self)


def identity(degree: int) -> Perm:
    return Perm(range(degree))


def perm_from_cycles(text: str, degree: int) -> Perm:
    """Parse cycle notation like ``(0 1 2)(3 4)`` into a permutation of the
    given degree. Whitespace or commas separate points; ``()`` and the empty
    string denote the identity.
    """
    images = list(range(degree))
    text = text.strip()
    if text in ("", "()"):
        return Perm(images)
    if not text.startswith("(") or not text.endswith(")"):
        raise ValueError("bad cycle notation: %r" % text)
    moved = set()
    for chunk in text[1:-1].split(")("):
        pts = _points(chunk)
        if len(pts) < 2:
            continue
        for pt in pts:
            if pt < 0 or pt >= degree:
                raise ValueError("point %d out of range for degree %d" % (pt, degree))
            if pt in moved:
                raise ValueError("point %d repeated in %r" % (pt, text))
            moved.add(pt)
        for a, b in zip(pts, pts[1:] + pts[:1]):
            images[a] = b
    return Perm(images)


def max_point(text: str) -> int:
    """Largest point mentioned in a cycle string, -1 if none."""
    pts = [pt for chunk in text.strip().strip("()").split(")(") for pt in _points(chunk)]
    return max(pts) if pts else -1


def _points(chunk: str) -> list:
    """The points of one cycle body, naming the first token that is not one."""
    pts = []
    for tok in chunk.replace(",", " ").split():
        try:
            pts.append(int(tok))
        except ValueError:
            raise ValueError("bad point %r" % tok) from None
    return pts


def cycles_str(p: Perm) -> str:
    cycs = p.cycles()
    if not cycs:
        return "()"
    return "".join("(%s)" % " ".join(str(pt) for pt in c) for c in cycs)


def sorted_elems(elems: Iterable[Perm]) -> tuple:
    """Canonical ordering: lexicographic on image sequences."""
    return tuple(sorted(elems))
