"""Fusion systems over finite p-groups as explicit finite categories.

A fusion system over its base S keeps, for every subgroup P of S, the set
of "germs" with source P, written over its *frame*, a p-group holding S:
a germ is an injective homomorphism from P into S, held as a tuple t over
the frame's sorted elements, t[i] the position of the image of the i-th
element, -1 outside P; its target is its image. A subgroup is a mask over
the frame (``frame.mask``), so restriction sets entries to -1, "g then h"
is h[g[i]] and the inverse is one scatter. Every system of a corpus entry
is in the frame of the entry's S: F_S(G) and ``close_generated(S, ...)``
in their own base's, E = ``fusion_of_group(H, S, p)`` over S cap H in S's,
N_F^K(X) in F's, and ``locality.fusion_of_partial`` (E_0, E X,
F_S(bN_L^K(X))) in its caller's. So a germ of N_F^K(X) is F's restricted,
E <= F is a containment of germ sets, and the map from S's positions into
the frame's keeps their order, so sorted germs and conjugates are ordered
as over S. A germ meets an AutGroup, on P's own positions, only in
Aut_F(P) and in the K test of N_F^K(X) (:func:`_local`). Two systems in
different frames are never equal, and :func:`subsystem_le`,
:func:`is_normal_subsystem` and :func:`has_p_power_index` raise
ValueError on them. :func:`conjugation_germs` writes the germs c_g read
off rows of ``groups.conj_positions`` in a frame.

A system keeps what it derives (Aut_F(P) per P, by its mask over S's
home, saturation witness, core, centric and subcentric sets, K cap
Aut_F(X) per K, fully K-normalized verdicts and K-normalizer subsystems
per K cap Aut_F(X), each K being the one AutGroup of its content, the
pulled-back actions of :func:`_pulled_back` per germ, and the verdicts of
normality and p-power index of a smaller system E in it, per E) in its
``_cache``, through ``groups.memo``, the one way a result is kept. All of
it depends only on the content (frame, S, p, germs) of the system and of
the key (the proofs for K are in the docstrings), so a hit is exact.

Equal content is also one object, and so one cache: as ``AutGroup`` does,
``FusionSystem(S, p, germs, frame)`` returns the system kept for its
content in the *table of systems* on the frame's home, a dict from (the
frame's home mask, S's mask over it, p, germs) to the system. Only a miss
groups the germs by source, checks that each lives inside S and enters
the new system. Aut_F(P) is built on the frame's lattice member, so F
keeps one AutGroup per content whatever home P was asked from. An entry
has one frame and so one table, and every verdict about a system is
decided once per content within it, whichever construction reached it.

External definitions used here and pinned in one place:

* saturation: every fully normalized subgroup is fully automized and
  receptive (receptivity via the usual N_phi extension condition);
* weakly normal subsystem over T: saturated, T strongly closed, invariant
  under Aut_F(T), and the Frattini-type factorization Hom_F(P,T) =
  Hom_E(P,T) followed by restrictions of Aut_F(T);
* normal subsystem: weakly normal plus the extension property (every
  alpha in Aut_E(T) extends to T*C_S(T) acting on C_S(T) within Z(T));
* p-power index of D over R in F: hyp(F) <= R and O^p(Aut_F(P)) <=
  Aut_D(P) for every P <= R, with hyp(F) the subgroup generated by the
  commutators [P, O^p(Aut_F(P))];
* P is centric if every conjugate Q has C_S(Q) <= Q; P is subcentric if
  O_p(N_F(Q)) is centric for a fully normalized conjugate Q, where O_p of
  a fusion system is its largest normal subgroup.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from .errors import CapExceeded, NotSaturated, NotSylow
from .groups import (
    AutGroup,
    Subgroup,
    aut_induced,
    centralizer,
    bits,
    center,
    conj_positions,
    generated,
    group_K_normalizer,
    lattice,
    memo,
    normalizer,
    normalizer_action,
    op_residual,
    p_part,
    positions,
    trivial_aut_group,
)
GERM_CAP = 100_000


class FusionSystem:
    """Category over the p-group S, germs grouped by source mask, both
    over the frame (see the module docstring), S by default.
    ``FusionSystem(S, p, germs, frame)`` is the one object of its content
    on the frame's home."""

    __slots__ = ("S", "frame", "p", "germs_by_src", "_all", "_hash", "_cache")

    def __new__(cls, S: Subgroup, p: int, germs: Iterable[tuple], frame: Optional[Subgroup] = None):
        frame = S if frame is None else frame
        allg, base, n = frozenset(germs), frame.mask(S), frame.order
        if base < 0:
            raise ValueError("S is not inside the frame")

        def checked():  # on a miss alone: a hit's germs are a checked system's
            by_src: Dict[int, set] = {}
            for g in allg:
                src = _src(g)
                if len(g) != n or not -1 <= min(g) <= max(g) < n or (src | _img(g)) & ~base:
                    raise ValueError("germ does not live inside S")
                by_src.setdefault(src, set()).add(g)
            out = object.__new__(cls)
            object.__setattr__(out, "S", S)
            object.__setattr__(out, "frame", frame)
            object.__setattr__(out, "p", p)
            object.__setattr__(out, "germs_by_src", {k: frozenset(v) for k, v in by_src.items()})
            object.__setattr__(out, "_all", allg)
            # groups by their orders: hashing one would build its Perm view
            object.__setattr__(out, "_hash", hash((n, S.order, p, allg)))
            object.__setattr__(out, "_cache", {})
            return out
        return memo(memo(frame.home._kept, "systems", dict), (frame.home_mask, base, p, allg), checked)

    def __setattr__(self, name, value):
        raise AttributeError("FusionSystem is immutable")

    # -- structure access ---------------------------------------------------

    def subgroups(self) -> Tuple[Subgroup, ...]:
        """The subgroups of S in all_subgroups' canonical order."""
        return tuple(lattice(self.S).values())

    def all_germs(self) -> FrozenSet[tuple]:
        return self._all

    def germs_from(self, P: Subgroup) -> FrozenSet[tuple]:
        return self.germs_by_src.get(self.frame.mask(P), frozenset())

    def aut(self, P: Subgroup) -> AutGroup:
        """Aut_F(P): the germs from P onto P in P's positions, on the
        frame's lattice member P, kept per P."""
        return memo(self._cache, ("aut", self.S.home_mask_of(P)), _automized, self, P)

    def aut_S(self, P: Subgroup) -> AutGroup:
        """Aut_S(P) = automorphisms induced by conjugation from N_S(P)."""
        return aut_induced(self.S, P)

    def conjugates(self, P: Subgroup) -> Tuple[Subgroup, ...]:
        """The F-conjugacy class of P, canonically ordered."""
        p = self.frame.mask(P)
        images = {_img(g) for g in self.germs_by_src.get(p, ())} | {p}
        return tuple(map(lattice(self.frame).__getitem__, sorted(images, key=bits)))

    def __eq__(self, other):
        return isinstance(other, FusionSystem) and (
            (self.frame, self.S, self.p, self._all) == (other.frame, other.S, other.p, other._all)
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "FusionSystem(|S|=%d, p=%d, germs=%d)" % (
            self.S.order,
            self.p,
            len(self._all),
        )


def _automized(F: FusionSystem, P: Subgroup) -> AutGroup:
    p, pos = F.frame.mask(P), positions(F.frame, P)
    return AutGroup(lattice(F.frame)[p], {_local(g, pos) for g in _onto(F, p)})


def _onto(F: FusionSystem, m: int) -> List[tuple]:
    """F's germs from the subgroup at the frame mask m onto it."""
    return [g for g in F.germs_by_src.get(m, ()) if _img(g) == m]


# ---------------------------------------------------------------------------
# germs: tuples of positions over the sorted elements of the frame


def _src(g: tuple) -> int:
    return sum(1 << i for i, j in enumerate(g) if j >= 0)


def _img(g: tuple) -> int:
    return sum(1 << j for j in g if j >= 0)


def _restrict(g: tuple, mask: int) -> tuple:
    out = [-1] * len(g)
    for i in bits(mask):
        out[i] = g[i]
    return tuple(out)


def _then(g: tuple, h: tuple) -> tuple:
    """The composite: g first, then h."""
    return tuple(-1 if j < 0 else h[j] for j in g)


def _inverse(g: tuple) -> tuple:
    """The germ from g's image back onto its source, by one scatter."""
    out = [-1] * len(g)
    for i, j in enumerate(g):
        if j >= 0:
            out[j] = i
    return tuple(out)


def _local(g: tuple, pos: Dict[int, int]) -> tuple:
    """g in the positions of a subgroup P, as an AutGroup on P holds its
    maps, pos being positions(frame, P): its entries on P, each image by
    its place in P, -1 for an image outside P."""
    return tuple(pos.get(g[i], -1) for i in pos)


def _one_frame(E: FusionSystem, F: FusionSystem) -> None:
    """Two systems are compared only in one frame."""
    if E.frame != F.frame:
        raise ValueError("the two systems are in different frames")


def subsystem_le(E: FusionSystem, F: FusionSystem) -> bool:
    """Extensional containment: E's base inside F's and every germ of E
    one of F's, in their one frame."""
    _one_frame(E, F)
    return E.S <= F.S and E.all_germs() <= F.all_germs()


# ---------------------------------------------------------------------------
# constructions


def fusion_of_group(G: Subgroup, S: Subgroup, p: int) -> FusionSystem:
    """F_T(G) in S's frame, T = S cap G: morphisms are the conjugations
    c_g between subgroups of T. T must be a Sylow p-subgroup of G, as it
    is when S is one of an overgroup in which G is normal; for S <= G this
    is F_S(G)."""
    if S.order != p_part(S.order, p):
        raise NotSylow("S is not a %d-group" % p)
    t = S.home_mask & G.home_mask if S.home is G.home else S.home_mask_of(S.elems & G.elems)
    T = S if t == S.home_mask else S.from_home_mask(t)
    if T.order != p_part(G.order, p):
        raise NotSylow("order %d of S cap G is not the %d-part of %d" % (T.order, p, G.order))
    return FusionSystem(T, p, conjugation_germs(conj_positions(G, T), bits(S.mask(T)), S), S)


def conjugation_germs(rows: Iterable[tuple], into: Sequence[int], frame: Subgroup) -> set:
    """The germs c_g over the frame read off rows of conj_positions over a
    group A, into[k] the frame position of A's k-th element when it lies
    in the base R, else -1: each distinct row, written once over the frame
    on the elements of R that it keeps in R, restricted to each subgroup
    of R all of whose elements it keeps there."""
    r = sum(1 << i for i in into if i >= 0)
    sources = [m for m in lattice(frame) if not m & ~r]
    germs = set()
    for row in set(rows):
        framed = [-1] * frame.order
        for i, j in enumerate(row):
            if j >= 0 and into[i] >= 0 and into[j] >= 0:
                framed[into[i]] = into[j]
        framed = tuple(framed)
        inside = _src(framed)
        germs.update(_restrict(framed, m) for m in sources if not m & ~inside)
    return germs


def close_generated(
    S: Subgroup, p: int, generators: Iterable[tuple] = (), cap: int = GERM_CAP,
    frame: Optional[Subgroup] = None,
) -> FusionSystem:
    """Smallest fusion system over S containing the generators, germs over
    the frame (S by default) that are checked to be injective
    homomorphisms inside S.

    Fixed-point closure of the inner system and the generators under
    restriction, inversion of isomorphisms-onto-image, and composition.
    """
    frame = S if frame is None else frame
    n, base = frame.order, frame.mask(S)
    if base < 0:
        raise ValueError("S is not inside the frame")
    masks = [m for m in lattice(frame) if not m & ~base]
    germs: set = set()
    by_src: Dict[int, set] = {}
    by_img: Dict[int, set] = {}
    queue: List[tuple] = []

    def push(g: tuple):
        if g in germs:
            return
        germs.add(g)
        if len(germs) > cap:
            raise CapExceeded("germ closure exceeded cap %d" % cap)
        by_src.setdefault(_src(g), set()).add(g)
        by_img.setdefault(_img(g), set()).add(g)
        queue.append(g)

    for g in conjugation_germs(conj_positions(S, S), bits(base), frame):  # the inner system
        push(g)
    home = bits(frame.home_mask)
    for g in map(tuple, generators):
        if len(g) != n or not -1 <= min(g) <= max(g) < n or (_src(g) | _img(g)) & ~base:
            raise ValueError("generator does not live inside S")
        pairs = [(home[i], home[j]) for i, j in enumerate(g) if j >= 0]
        if len(set(g) - {-1}) != len(pairs):
            raise ValueError("generator is not injective")
        table, mul = dict(pairs), frame.home.mul_table
        if any(table.get(mul[x][y]) != mul[a][b] for x, a in pairs for y, b in pairs):
            raise ValueError("generator is not a homomorphism")
        push(g)

    while queue:
        g = queue.pop()
        src = _src(g)
        push(_inverse(g))
        for m in masks:
            if m != src and not m & ~src:
                push(_restrict(g, m))
        for h in tuple(by_src.get(_img(g), ())):
            push(_then(g, h))
        for h in tuple(by_img.get(src, ())):
            push(_then(h, g))
    return FusionSystem(S, p, germs, frame)


# ---------------------------------------------------------------------------
# K-normalizers


def realized_part(F: FusionSystem, X: Subgroup, K: AutGroup) -> AutGroup:
    """K cap Aut_F(X) for K on X <= S: Aut_F(X) for K = Aut(X), K itself
    when F realizes all of K, as AutGroup gives one object per content.
    Kept in F's cache per K, exact as Aut_F(X) is a function of F and X."""
    if K.base != X:
        raise ValueError("K must consist of automorphisms of X")
    if K.full:
        return F.aut(X)
    return memo(F._cache, ("realized", K), lambda: AutGroup(K.base, K.maps & F.aut(X).maps))


def is_fully_K_normalized(F: FusionSystem, X: Subgroup, K: AutGroup) -> bool:
    """|N_S^K(X)| >= |N_S^{K^phi}(X phi)| for every phi in Hom_F(X, S),
    with K^phi = phi^-1 K phi. Kept in F's cache per K cap Aut_F(X),
    computed on that: c_s on X for s in N_S(X) lies in Aut_S(X) <= Aut_F(X)
    (every system here holds its base's inner system), and K^phi cap
    Aut_F(X phi) = (K cap Aut_F(X))^phi as Aut_F(X phi) = Aut_F(X)^phi.

    K^phi is never built: c_g lies in K^phi exactly when phi c_g phi^-1,
    x |-> ((x phi)^g) phi^-1, lies in K: its image (:func:`_pulled_back`)
    is tested among K's maps as :func:`group_K_normalizer` does.
    """
    if not X <= F.S:
        raise ValueError("X is not a subgroup of S")
    K = realized_part(F, X, K)
    return memo(F._cache, ("fully_K", K), _fully_K, F, X, K)


def _fully_K(F: FusionSystem, X: Subgroup, K: AutGroup) -> bool:
    n0 = group_K_normalizer(F.S, X, K).order
    return all(
        sum(image in K.maps for image in _pulled_back(F, _inverse(phi)).values()) <= n0
        for phi in F.germs_from(X)
    )


def is_fully_normalized(F: FusionSystem, X: Subgroup) -> bool:
    return is_fully_K_normalized(F, X, F.aut(X))


def is_fully_centralized(F: FusionSystem, X: Subgroup) -> bool:
    return is_fully_K_normalized(F, X, trivial_aut_group(X))


def K_normalizer_subsystem(F: FusionSystem, X: Subgroup, K: AutGroup) -> FusionSystem:
    """N_F^K(X), the fusion system over N_S^K(X) whose morphisms are exactly
    those extending to an F-morphism that sends X to X acting as a member
    of K.

    Kept in F's cache per K cap Aut_F(X), built on that: each germ
    mapping X onto X, and each c_s with s in N_S(X), is on X in Aut_F(X).

    An (X, K) whose subsystem equals a system already built in F's frame,
    F or any other, gets that object and so its cache (see the module
    docstring). It is in F's frame, so its germs are F's germs restricted.

    F is closed under restriction, so a germ from m extends to such an
    F-morphism iff it extends to one from <m, X>: the germs from m are the
    restrictions of those from the join that act on X in K, each join's
    found once.
    """
    K = realized_part(F, X, K)
    return memo(F._cache, ("NFK", K), _K_normalizer, F, X, K)


def _K_normalizer(F: FusionSystem, X: Subgroup, K: AutGroup) -> FusionSystem:
    fr = F.frame
    S0 = group_K_normalizer(F.S, X, K)
    x, s0, xpos = fr.mask(X), fr.mask(S0), positions(fr, X)
    inside = [m for m in lattice(fr) if not m & ~s0]
    over_x = [J for J in lattice(fr) if not x & ~J]  # <m, X> is the first holding m
    germs, good = set(), {}
    for m in inside:
        J = next(J for J in over_x if not m & ~J)
        if J not in good:  # the germs from J fixing X and acting on it in K
            good[J] = [psi for psi in F.germs_by_src.get(J, ()) if _local(psi, xpos) in K.maps]
        keep = bits(m)
        germs.update(_restrict(psi, m) for psi in good[J] if all(s0 >> psi[i] & 1 for i in keep))
    return FusionSystem(S0, F.p, germs, fr)


def normalizer_subsystem(F: FusionSystem, X: Subgroup) -> FusionSystem:
    """N_F(X) = N_F^{Aut(X)}(X), read like full normalization through K cap
    Aut_F(X) = Aut_F(X) (see realized_part): no search of Aut(X)."""
    return K_normalizer_subsystem(F, X, F.aut(X))


def centralizer_subsystem(F: FusionSystem, X: Subgroup) -> FusionSystem:
    """C_F(X) = N_F^{{id}}(X)."""
    return K_normalizer_subsystem(F, X, trivial_aut_group(X))


# ---------------------------------------------------------------------------
# saturation


def _full_normalized_members(F: FusionSystem, cls: Tuple[Subgroup, ...]) -> Tuple[Subgroup, ...]:
    best = max(normalizer(F.S, Q).order for Q in cls)
    return tuple(Q for Q in cls if normalizer(F.S, Q).order == best)


def saturation_failure(F: FusionSystem) -> Optional[dict]:
    """None if saturated, else a witness naming the failing axiom.

    Checks that every fully normalized subgroup is fully automized
    (Aut_S(P) is a Sylow p-subgroup of Aut_F(P)) and receptive (every
    isomorphism onto P extends to its N_phi).
    """
    return memo(F._cache, "sat", _saturation_witness, F)


def _saturation_witness(F: FusionSystem) -> Optional[dict]:
    for P in F.subgroups():
        cls = F.conjugates(P)
        if P not in _full_normalized_members(F, cls):
            continue
        autF, autS = F.aut(P), F.aut_S(P)
        if autS.order != p_part(autF.order, F.p):
            return {"axiom": "fully-automized", "P": P.label(), "aut_S": autS.order, "aut_F": autF.order}
        # receptivity, phi in sorted order so that the witness depends on
        # content alone
        pm = F.frame.mask(P)
        onto_P = ((Q, phi) for Q in cls for phi in sorted(F.germs_from(Q)) if _img(phi) == pm)
        for Q, phi in onto_P:
            Nphi = _extension_control_group(F, phi, autS)
            if not _extends_over(F, phi, Nphi):
                return {
                    "axiom": "receptive", "P": P.label(), "Q": Q.label(),
                    "phi": _map_label(F, phi), "N_phi": Nphi.label(),
                }
    return None


def _pulled_back(F: FusionSystem, psi: tuple) -> Dict[int, Tuple[int, ...]]:
    """For psi: Y -> Z, the home index of each g in N_S(Y) mapped to the
    permutation image of psi^-1 c_g psi, z |-> ((z psi^-1)^g) psi, on Z's
    sorted elements: the action of g on Y (:func:`normalizer_action`)
    carried through psi. Kept in F's cache per psi."""
    return memo(F._cache, ("pulled_back", psi), _pulling_back, F, psi)


def _pulling_back(F: FusionSystem, psi: tuple) -> Dict[int, Tuple[int, ...]]:
    images = [j for j in psi if j >= 0]  # of Y's elements in order
    fro = sorted(range(len(images)), key=images.__getitem__)
    to = sorted(range(len(images)), key=fro.__getitem__)  # Y's places to Z's
    action = normalizer_action(F.S, lattice(F.frame)[_src(psi)])
    return {g: tuple(to[image[j]] for j in fro) for g, image in action.items()}


def _extension_control_group(F: FusionSystem, phi: tuple, autS_P: AutGroup) -> Subgroup:
    """N_phi = {g in N_S(Q) : phi^-1 c_g phi in Aut_S(P)} for phi: Q -> P,
    tested among the maps of Aut_S(P)."""
    pulled = _pulled_back(F, phi).items()
    return F.S.from_home_mask(sum(1 << g for g, image in pulled if image in autS_P.maps))


def _extends_over(F: FusionSystem, phi: tuple, N: Subgroup) -> bool:
    src = _src(phi)
    return F.frame.mask(N) == src or any(_restrict(psi, src) == phi for psi in F.germs_from(N))


def is_saturated(F: FusionSystem) -> bool:
    return saturation_failure(F) is None


# ---------------------------------------------------------------------------
# distinguished subgroup collections


def is_strongly_closed(F: FusionSystem, T: Subgroup) -> bool:
    """No F-morphism moves a subgroup of T outside T."""
    if not T <= F.S:
        raise ValueError("T is not a subgroup of S")
    t = F.frame.mask(T)
    inside = (germs for src, germs in F.germs_by_src.items() if not src & ~t)
    return not any(_img(g) & ~t for germs in inside for g in germs)


def is_normal_in_fusion(F: FusionSystem, P: Subgroup) -> bool:
    """P is normal in F: every F-morphism extends to one whose source
    includes P and which maps P onto P. That is N_F(P) = F.

    N_F(P) = N_F^{Aut_F(P)}(P), over N_S(P), holds exactly the F-germs that
    extend to an F-germ from <source, P> mapping P onto P, as such an
    extension acts on P as a member of Aut_F(P) (:func:`normalizer_subsystem`).
    When N_S(P) = S, N_F(P) = F says every germ of F is one of them. When
    N_S(P) < S, the germ c_s on S for s outside N_S(P) extends only to
    itself, which moves P, so P is not normal, and N_F(P), over a smaller
    base, is not F."""
    return normalizer_subsystem(F, P) == F


def fusion_core(F: FusionSystem) -> Subgroup:
    """O_p(F): the largest subgroup normal in the fusion system."""
    return memo(F._cache, "core", _largest_normal, F)


def _largest_normal(F: FusionSystem) -> Subgroup:
    normals = [P for P in F.subgroups() if is_normal_in_fusion(F, P)]
    best = max(normals, key=lambda P: P.order)
    if not all(P <= best for P in normals):
        raise RuntimeError("normal subgroups of the fusion system have no unique maximum; lattice bug")
    return best


def is_centric(F: FusionSystem, P: Subgroup) -> bool:
    for Q in F.conjugates(P):
        if not centralizer(F.S, Q) <= Q:
            return False
    return True


def centric_set(F: FusionSystem) -> Tuple[Subgroup, ...]:
    """F^c, the F-centric subgroups of S."""
    if saturation_failure(F) is not None:
        raise NotSaturated("centric set requires a saturated fusion system")
    return memo(F._cache, "centric", lambda: _check_closure(
        F, tuple(P for P in F.subgroups() if is_centric(F, P)), "centric"
    ))


def subcentric_set(F: FusionSystem) -> Tuple[Subgroup, ...]:
    """F^s: P with O_p(N_F(Q)) centric for a fully normalized conjugate Q."""
    if saturation_failure(F) is not None:
        raise NotSaturated("subcentric set requires a saturated fusion system")
    return memo(F._cache, "subcentric", _subcentrics, F)


def _subcentrics(F: FusionSystem) -> Tuple[Subgroup, ...]:
    verdict: Dict[int, bool] = {}
    out = []
    for P in F.subgroups():
        if P.home_mask not in verdict:
            cls = F.conjugates(P)
            rep = _full_normalized_members(F, cls)[0]
            NF = normalizer_subsystem(F, rep)
            core = fusion_core(NF)
            good = is_centric(F, core)
            for Q in cls:
                verdict[Q.home_mask] = good
        if verdict[P.home_mask]:
            out.append(P)
    return _check_closure(F, tuple(out), "subcentric")


def _check_closure(F: FusionSystem, collection: Tuple[Subgroup, ...], name: str):
    """The centric/subcentric sets must be closed under F-conjugacy and
    overgroups, and are returned; a violation here is an implementation
    bug, not user error."""
    members = {P.home_mask for P in collection}
    for P in collection:
        for Q in F.conjugates(P):
            if Q.home_mask not in members:
                raise RuntimeError("%s set not closed under conjugacy" % name)
        for Q in F.subgroups():
            if P <= Q and Q.home_mask not in members:
                raise RuntimeError("%s set not closed under overgroups" % name)
    return collection


# ---------------------------------------------------------------------------
# p-power index and normality of subsystems


def hyperfocal_subgroup(F: FusionSystem) -> Subgroup:
    """hyp(F) = < [P, O^p(Aut_F(P))] : P <= S >."""
    mul, inv = F.S.home.mul_table, F.S.home.inv_table
    gens = set()
    for P in F.subgroups():
        xs = bits(F.S.home_mask_of(P))
        for alpha in op_residual(F.aut(P), F.p).maps:
            gens.update(mul[inv[x]][xs[k]] for x, k in zip(xs, alpha))
    return generated(F.S, sum(1 << g for g in gens))


def has_p_power_index(D: FusionSystem, F: FusionSystem) -> bool:
    """D over R has p-power index in F: hyp(F) <= R and O^p(Aut_F(P)) <=
    Aut_D(P) for every P <= R, D and F in one frame. Kept in F's cache
    per D."""
    _one_frame(D, F)
    return memo(F._cache, ("p_power_index", D), lambda: (
        subsystem_le(D, F)
        and hyperfocal_subgroup(F) <= D.S
        and all(op_residual(F.aut(P), F.p).maps <= D.aut(P).maps for P in D.subgroups())
    ))


def is_weakly_normal(E: FusionSystem, F: FusionSystem) -> bool:
    """Saturated + strongly closed base + Aut_F(T)-invariance + Frattini
    factorization of F-morphisms between subgroups of T, Aut_F(T) read as
    F's germs from T onto T. Invariance is alpha^-1 g alpha in E for each
    germ g of E and alpha in Aut_F(T), which is E^alpha = E as
    g |-> alpha^-1 g alpha is one-to-one."""
    if not subsystem_le(E, F):
        return False
    T = E.S
    if not is_strongly_closed(F, T):
        return False
    if saturation_failure(E) is not None:
        return False
    t, germs = F.frame.mask(T), E.all_germs()
    autFT = _onto(F, t)
    for alpha in autFT:
        inv = _inverse(alpha)
        if any(_then(_then(inv, g), alpha) not in germs for g in germs):
            return False
    # Frattini: phi = (E-germ) then (restriction of some alpha in Aut_F(T))
    inside = (phi for src, phis in F.germs_by_src.items() if not src & ~t for phi in phis)
    for phi in inside:
        if not _img(phi) & ~t and not _frattini_factors(E, autFT, phi):
            return False
    return True


def _frattini_factors(E: FusionSystem, autFT: Iterable[tuple], phi: tuple) -> bool:
    return any(_then(psi, alpha) == phi for psi in E.germs_by_src.get(_src(phi), ()) for alpha in autFT)


def is_normal_subsystem(E: FusionSystem, F: FusionSystem) -> bool:
    """Weakly normal + extension property: each alpha in Aut_E(T) extends
    to T*C_S(T) moving C_S(T) only within Z(T). E and F are in one frame.
    Kept in F's cache per E."""
    _one_frame(E, F)
    key = ("normal", E)
    return memo(F._cache, key, lambda: is_weakly_normal(E, F) and _has_extension_property(E, F))


def _has_extension_property(E: FusionSystem, F: FusionSystem) -> bool:
    T = E.S
    C = centralizer(F.S, T)
    P0 = generated(F.S, F.S.home_mask_of(T) | C.home_mask)
    fr = F.frame
    mul, inv, Z = fr.home.mul_table, fr.home.inv_table, set(bits(fr.home_mask_of(center(T))))
    home, t, cm = bits(fr.home_mask), fr.mask(T), fr.mask(C)
    extensions = [psi for psi in F.germs_from(P0) if all(
        mul[inv[home[i]]][home[j]] in Z for i, j in enumerate(psi) if cm >> i & 1
    )]  # the germs from T*C_S(T) moving C_S(T) only within Z(T)
    return all(any(_restrict(psi, t) == alpha for psi in extensions) for alpha in _onto(E, t))


def _map_label(F: FusionSystem, g: tuple) -> str:
    """The germ's (element, image) pairs in element order, leaving out 1->1
    (the identity sorts first)."""
    elems = tuple(F.frame)
    return ";".join(
        "%s->%s" % (elems[i], elems[j]) for i, j in enumerate(g) if j >= 0 and (i, j) != (0, 0)
    ) or "id"
