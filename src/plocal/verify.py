"""Executable statement suite: one checker per verified statement.

Checkers consume validated structures and emit VerificationReports. They
verify conclusions, never proofs: all statements checked here are known to
be true, so a fail is an implementation/theory discrepancy and carries a
full witness. Hypothesis failures yield "skipped" reports with the violated
precondition named, so coverage gaps stay visible.

Statement ids:

  Lemma-2.2a    characteristic p is inherited by C_G(X) <= H <= N_G(X)
                with H subnormal in HX
  Lemma-2.2b    N_G^K(X) is of characteristic p for K subnormal in K*Inn(X)
                (together with the product identity
                N_G^{K*Inn(X)}(X) = N_G^K(X) * X used to prove it)
  Lemma-2.1     the restricted K-normalizer triple is a subcentric locality
                over N_F^K(X)
  Lemma-3.1     fully K-normalized in F transfers to the product system E X
  Theorem-3.2a  the locality-computed E_0 is normal in N_F^K(X) and sits
                inside E
  Theorem-3.2b  M = N cap bN_L^K(X) is partial normal with M cap S =
                N_T^K(X), and E_0 = F_{N_T^K(X)}(M) is the p-power-index
                subsystem of N_{EX}^K(X) (i.e. equals N_E^K(X))
  Corollary-3.3a / Corollary-3.3b   the K = Aut(X) / K = {id}
                specializations of the theorem
"""

from __future__ import annotations

import marshal
import os
from typing import Dict, List, NoReturn, Optional, Sequence, Tuple

from . import fusion as fu
from . import groups as gp
from . import locality as lo
from .errors import (
    CapExceeded,
    CorpusParseError,
    KDescriptorNotForX,
    NotPartialSubgroup,
    PLocalError,
)
from .groups import AutGroup, Subgroup
from .perm import parse_cycles, perm_from_cycles
from .report import VerificationReport, failed_report, passed_report, skipped_report

STATEMENTS = (
    "Lemma-2.1",
    "Lemma-2.2a",
    "Lemma-2.2b",
    "Lemma-3.1",
    "Theorem-3.2a",
    "Theorem-3.2b",
    "Corollary-3.3a",
    "Corollary-3.3b",
)

# the default K sweep adds every subgroup of Aut(X) when |Aut(X)| is at most
# this, read off at most AUT_CAP + 1 maps of Aut(X)'s search
AUT_CAP = 24

# the statements of the locality sweep that take a K, and the skip reason for
# an X on which a corpus K descriptor defines no subgroup of Aut(X)
K_STATEMENTS = ("Lemma-2.1", "Lemma-3.1", "Theorem-3.2a", "Theorem-3.2b")
UNFIT_K = "K-descriptor-not-for-X"


# ---------------------------------------------------------------------------
# Lemma 2.2: characteristic p of K-normalizers at the group level


def check_char_p_normalizer_subgroup(
    G: Subgroup, p: int, X: Subgroup, H: Subgroup, instance: str
) -> VerificationReport:
    """Lemma 2.2(a): G of characteristic p, X a p-subgroup, C_G(X) <= H <=
    N_G(X) and H subnormal in HX imply H of characteristic p. G's verdict
    is kept on its home per (G, p), so a sweep decides it once."""
    stmt = "Lemma-2.2a"
    if not gp.is_characteristic_p(G, p):
        return skipped_report(stmt, instance, "G-not-characteristic-p")
    if not gp.is_p_group(X, p):
        return skipped_report(stmt, instance, "X-not-p-group")
    if not gp.centralizer(G, X) <= H <= gp.normalizer(G, X):
        return skipped_report(stmt, instance, "H-not-between-centralizer-and-normalizer")
    HX = gp.generated(G, G.home_mask_of(H) | G.home_mask_of(X))
    if not gp.is_subnormal(H, HX):
        return skipped_report(stmt, instance, "H-not-subnormal-in-HX")
    if gp.is_characteristic_p(H, p):
        return passed_report(stmt, instance, H_order=H.order)
    return failed_report(stmt, instance, {"H": H.label(), "O_p(H)": gp.core_Op(H, p).label()})


def check_char_p_normalizer_aut(
    G: Subgroup, p: int, X: Subgroup, K: AutGroup, instance: str
) -> VerificationReport:
    """Lemma 2.2(b): N_G^K(X) is of characteristic p when K is subnormal in
    K*Inn(X); also checks the product identity N_G^{K Inn(X)}(X) =
    N_G^K(X) X from its proof. G's verdict is read as for Lemma 2.2(a)."""
    stmt = "Lemma-2.2b"
    if not gp.is_characteristic_p(G, p):
        return skipped_report(stmt, instance, "G-not-characteristic-p")
    if not gp.is_p_group(X, p):
        return skipped_report(stmt, instance, "X-not-p-group")
    KInn = K.times_inn
    if not K.is_subnormal_in(KInn):
        return skipped_report(stmt, instance, "K-not-subnormal-in-K*Inn(X)")
    NK, NKI = gp.group_K_normalizer(G, X, K), gp.group_K_normalizer(G, X, KInn)
    prod = gp.set_product(G, NK, X)
    if NKI.home_mask != prod:
        NKX = sorted(str(x) for x in gp.elements(G.home, prod))
        witness = {"part": "product-identity", "N^{KInn}": NKI.label(), "N^K * X": NKX}
        return failed_report(stmt, instance, witness)
    if gp.is_characteristic_p(NK, p):
        return passed_report(stmt, instance, NK_order=NK.order, identity_checked=1)
    return failed_report(stmt, instance, {"part": "characteristic-p", "N^K": NK.label()})


# ---------------------------------------------------------------------------
# Lemma 2.1: restricted K-normalizers of subcentric localities


def check_restricted_subcentric(
    L: lo.Locality,
    F: fu.FusionSystem,
    X: Subgroup,
    K: AutGroup,
    instance: str,
) -> VerificationReport:
    """(bN_L^K(X), N_F^K(X)^s, N_S^K(X)) is a subcentric locality over
    N_F^K(X), when X is fully K-normalized and K subnormal in K*Inn(X)."""
    stmt = "Lemma-2.1"
    if not fu.is_fully_K_normalized(F, X, K):
        return skipped_report(stmt, instance, "not-fully-K-normalized")
    if not K.is_subnormal_in(K.times_inn):
        return skipped_report(stmt, instance, "K-not-subnormal-in-K*Inn(X)")
    try:
        bn = lo.bN_K(L, F, X, K)
    except PLocalError as exc:
        return failed_report(stmt, instance, {"construction": str(exc)})
    NFK = fu.K_normalizer_subsystem(F, X, K)
    rep = _verified_subcentric(L, bn, NFK)
    if rep.passed:
        return passed_report(stmt, instance, bn_size=bn.elems.bit_count(), objects=len(bn.Delta))
    return failed_report(stmt, instance, {"verification": rep.witness})


def _verified_subcentric(L: lo.Locality, M: lo.Locality, F: fu.FusionSystem) -> VerificationReport:
    """verify_subcentric_locality(M, F), once per content of M within L's
    entry. M is L or a restriction of it, so it has L's ambient group and
    p, and the maximality of its S reads only subgroups inside M.elems."""
    key = ("verified", M.elems, M.Delta, M.S_elems, F)
    return gp.memo(L._memo, key, lo.verify_subcentric_locality, M, F)


# ---------------------------------------------------------------------------
# Lemma 3.1: fully K-normalized transfers to E X


def check_fully_K_normalized_transfer(
    L: lo.Locality,
    F: fu.FusionSystem,
    N: int,
    X: Subgroup,
    K: AutGroup,
    instance: str,
) -> VerificationReport:
    """If X is fully K-normalized in F then X is fully K-normalized in the
    product system E X = F_{TX}(N X)."""
    stmt = "Lemma-3.1"
    if not fu.is_fully_K_normalized(F, X, K):
        return skipped_report(stmt, instance, "not-fully-K-normalized")
    try:
        EX = _product_system(L, N, X)
    except NotPartialSubgroup as exc:
        return failed_report(stmt, instance, {"product": str(exc)})
    if fu.is_fully_K_normalized(EX, X, K):
        return passed_report(stmt, instance, EX_base=EX.S.order)
    witness = {"EX_base_order": EX.S.order, "conjugates": [P.label() for P in EX.conjugates(X)]}
    return failed_report(stmt, instance, witness)


def _product_system(L: lo.Locality, N: int, X: Subgroup) -> fu.FusionSystem:
    return gp.memo(L._memo, ("EX", N, L.ambient.home_mask_of(X)), lo.product_fusion, L, N, X)


# ---------------------------------------------------------------------------
# Theorem 3.2 and Corollary 3.3


def _subnormal_branch(F: fu.FusionSystem, X: Subgroup, K: AutGroup):
    """The theorem's hypothesis: K subnormal in K*Inn(X), or the same for
    K cap Aut_F(X). Returns (branch, effective K) or (None, None); the
    second branch replaces K by the intersection, which changes none of the
    derived objects (every realized automorphism lies in Aut_F(X))."""
    if K.is_subnormal_in(K.times_inn):
        return 1, K
    K2 = fu.realized_part(F, X, K)
    if K2.is_subnormal_in(K2.times_inn):
        return 2, K2
    return None, None


class TheoremRecord:
    """The main theorem's conclusions for one (F, E, N, K_eff cap
    Aut_F(X)), kept in L's memo (see :func:`_theorem`). ``witnesses`` holds
    the fail witness of the fusion-level and of the locality-level
    statement, None for a pass, and ``stats`` the six conditions and the
    counts both reports carry. ``E0_is_E`` says whether E_0 = E, which the
    corollary requires at X = 1.
    """

    def __init__(self, witnesses=(None, None), stats=None, E0_is_E=False):
        self.witnesses, self.E0_is_E = witnesses, E0_is_E
        self.stats = {} if stats is None else stats


def check_main_theorem(
    L: lo.Locality,
    F: fu.FusionSystem,
    E: fu.FusionSystem,
    N: int,
    X: Subgroup,
    K: AutGroup,
    instance: str,
    statements: Tuple[str, str] = ("Theorem-3.2a", "Theorem-3.2b"),
) -> List[VerificationReport]:
    """All conclusions of the main theorem for one (X, K) instance.

    Emits two reports: the fusion-level statement (E_0 normal in N_F^K(X),
    E_0 inside E) and the locality-level one (M partial normal, M cap S =
    N_T^K(X), E_0 saturated of p-power index in N_{EX}^K(X), cross-checked
    against the O^p criterion at T_0), both skipped with one reason when a
    hypothesis fails (see :func:`_theorem`). Each call names its reports
    and gives each its own copy of the stats.
    """
    reason, branch, rec = _theorem(L, F, E, N, X, K)
    if reason is not None:
        return [skipped_report(stmt, instance, reason) for stmt in statements]
    return [
        passed_report(stmt, instance, branch=branch, **rec.stats) if witness is None
        else failed_report(stmt, instance, witness, branch=branch, **rec.stats)
        for stmt, witness in zip(statements, rec.witnesses)
    ]


def _theorem(
    L: lo.Locality, F: fu.FusionSystem, E: fu.FusionSystem, N: int, X: Subgroup, K: AutGroup
) -> Tuple[Optional[str], Optional[int], Optional[TheoremRecord]]:
    """(skip reason, None, None) if a hypothesis fails, else (None, branch,
    conclusions record). The hypotheses are decided on every call off kept
    results (full K-normalization in F's cache, subnormality on the home);
    the conclusions (i)-(vi), decided for the first K_eff, are kept in L's
    memo per (F, E, N, K_eff cap Aut_F(X)), whose base is X. Exact:
    bN_L^K(X) and N_F^K(X) read K only via K cap Aut_F(X)
    (``locality.bN_K``), N_{EX}^K(X) via K cap Aut_EX(X), and Aut_EX(X) <=
    Aut_F(X) as E X <= F."""
    if not fu.is_fully_K_normalized(F, X, K):
        return "not-fully-K-normalized", None, None
    branch, K_eff = _subnormal_branch(F, X, K)
    if branch is None:
        return "K-not-subnormal-in-K*Inn(X)-either-branch", None, None
    key = ("conclusions", F, E, N, fu.realized_part(F, X, K_eff))
    return None, branch, gp.memo(L._memo, key, _decide_conclusions, L, F, E, N, X, K_eff)


def _decide_conclusions(
    L: lo.Locality, F: fu.FusionSystem, E: fu.FusionSystem, N: int, X: Subgroup, K_eff: AutGroup
) -> TheoremRecord:
    stats: Dict[str, object] = {}
    try:
        bn = lo.bN_K(L, F, X, K_eff)
    except PLocalError as exc:
        w = {"construction": str(exc)}
        return TheoremRecord(witnesses=(w, w), stats=stats)
    NFK = fu.K_normalizer_subsystem(F, X, K_eff)
    t0 = N & L.S_elems & bn.S_elems
    T0 = L.ambient.from_home_mask(t0)
    M = N & bn.elems

    # (i) M is partial normal in bN
    viol = lo.partial_normal_violation(bn, M)
    cond_i = viol is None
    stats["i_partial_normal"] = int(cond_i)

    # (ii) M cap S = M cap N_S^K(X) = N_T^K(X)
    cond_ii = (M & L.S_elems == t0) and (M & bn.S_elems == t0)
    stats["ii_M_cap_S"] = int(cond_ii)

    # E_0 = F_{T_0}(M)
    E0 = lo.fusion_of_partial(bn, M, base=T0, frame=F.frame)
    stats["E0_germs"] = len(E0.all_germs())

    # (iii) E_0 normal in N_F^K(X)
    cond_iii = fu.is_normal_subsystem(E0, NFK)
    stats["iii_E0_normal"] = int(cond_iii)

    # (iv) E_0 inside E
    cond_iv = fu.subsystem_le(E0, E)
    stats["iv_E0_in_E"] = int(cond_iv)

    # (v) E_0 of p-power index in N_{EX}^K(X), two independent routes
    try:
        EX = _product_system(L, N, X)
    except NotPartialSubgroup as exc:
        w = {"product": str(exc)}
        return TheoremRecord(witnesses=(w, w), stats=stats)
    NEXK = fu.K_normalizer_subsystem(EX, X, K_eff)
    ppi = fu.has_p_power_index(E0, NEXK)
    cross = gp.op_residual(NEXK.aut(T0), F.p).maps <= E0.aut(T0).maps
    cond_v = ppi
    stats["v_p_power_index"] = int(ppi)
    stats["v_crosscheck_Op"] = int(cross)
    agree = ppi == cross
    stats["v_routes_agree"] = int(agree)

    # (vi) E_0 saturated
    cond_vi = fu.saturation_failure(E0) is None
    stats["vi_E0_saturated"] = int(cond_vi)

    witness_a = None
    if not (cond_iii and cond_iv):
        witness_a = {"iii": cond_iii, "iv": cond_iv}
    witness_b = None
    if not (cond_i and cond_ii and cond_v and cond_vi and agree):
        witness_b = {
            "i": cond_i,
            "ii": cond_ii,
            "v": cond_v,
            "vi": cond_vi,
            "routes_agree": agree,
            "partial_normal_witness": viol,
        }
    return TheoremRecord(witnesses=(witness_a, witness_b), stats=stats, E0_is_E=E0 == E)


def check_corollary(
    L: lo.Locality,
    F: fu.FusionSystem,
    E: fu.FusionSystem,
    N: int,
    X: Subgroup,
    instance: str,
) -> List[VerificationReport]:
    """Corollary: the theorem specialized to K = Aut(X) on fully normalized
    X (normalizer case) and K = {id} on fully centralized X (centralizer
    case). For X = 1 additionally requires E_0 = E on the nose. Each case
    reads the conclusions record of its (X, K cap Aut_F(X)), which the K
    sweep has already made when it ran the theorem for such a K. The
    normalizer case takes K = Aut_F(X), no search of Aut(X): exact, as the
    theorem reads K only via K cap Aut_F(X), Aut_F(X) for both, and as
    Inn(X) <= Aut_S(X) <= Aut_F(X), K*Inn(X) = K for both: branch 1."""
    out: List[VerificationReport] = []
    for tag, K in (("normalizer", F.aut(X)), ("centralizer", gp.trivial_aut_group(X))):
        inst = "%s|%s" % (instance, tag)
        reps = check_main_theorem(L, F, E, N, X, K, inst, statements=("Corollary-3.3a", "Corollary-3.3b"))
        if X.order == 1:
            rec = _theorem(L, F, E, N, X, K)[2]
            reps = [_with_trivial_case_check(r, rec, E) for r in reps]
        out.extend(reps)
    return out


def _with_trivial_case_check(
    rep: VerificationReport, rec: TheoremRecord, E: fu.FusionSystem
) -> VerificationReport:
    """X = 1 must reproduce E_0 = E exactly (hom-set equality)."""
    if rep.outcome != "pass":
        return rep
    if not rec.E0_is_E:
        return failed_report(
            rep.statement,
            rep.instance,
            {"part": "X=1-exactness", "E0_germs": rec.stats["E0_germs"], "E_germs": len(E.all_germs())},
            **rep.stats,
        )
    rep.stats["trivial_case_exact"] = 1
    return rep


# ---------------------------------------------------------------------------
# suite driver


class PreparedEntry:
    """A corpus entry with all derived structures built and validated:
    F = F_S(G), its locality L, E = F_T(H) and N = H cap L, a mask over
    the sorted elements of G; X_list and K_descriptors restrict the
    sweeps, None for the full ones."""

    def __init__(self, name, p, G, F, L, E, N, X_list=None, K_descriptors=None):
        self.name, self.p, self.G, self.F, self.L, self.E, self.N = name, p, G, F, L, E, N
        self.X_list, self.K_descriptors = X_list, K_descriptors


def prepare_entry(entry):
    """Build and validate one corpus entry.

    Returns (PreparedEntry, axioms_report) on success or (None, report)
    when the entry is rejected; the report then carries the axiom witness.
    """
    name, G, p, inst = entry.name, entry.G, entry.p, _axioms_instance(entry)
    S = gp.sylow_subgroup(G, p)
    F = fu.fusion_of_group(G, S, p)
    sat = fu.saturation_failure(F)
    if sat is not None:
        return None, failed_report("Axioms", inst, {"saturation": sat})
    Delta = frozenset(S.mask(P) for P in fu.subcentric_set(F))
    L = lo.build_group_locality(G, S, Delta, p)
    # bN_L^K(X) can be L itself, so its Lemma-2.1 check reuses this one
    rep = _verified_subcentric(L, L, F)
    if not rep.passed:
        return None, failed_report("Axioms", inst, {"subcentric-locality": rep.witness})
    # F_T(H) over T = S cap H, in S's frame; T is Sylow in H as H is normal in G
    H = entry.H
    E = fu.fusion_of_group(H, S, p)
    if not fu.is_normal_subsystem(E, F):
        return None, failed_report("Axioms", inst, {"subsystem": "F_T(H) not normal in F"})
    # H is normal in G, so H cap L is closed under inverses, defined products
    # and defined conjugates: a partial normal subgroup of L realizing E
    N = H.home_mask & L.elems
    bad = lo.partial_normal_violation(L, N)
    if bad is not None:
        return None, failed_report("Axioms", inst, {"partial-normal": bad})
    if lo.fusion_of_partial(L, N) != E:
        return None, failed_report("Axioms", inst, {"partial-normal": "F_T(H cap L) != F_T(H)"})
    pe = PreparedEntry(name, p, G, F, L, E, N, entry.X_subgroups(S), entry.K_descriptors())
    axioms = passed_report(
        "Axioms", inst, L_size=L.elems.bit_count(), objects=len(L.Delta),
        subgroups_of_S=len(F.subgroups()), T_order=E.S.order, N_size=N.bit_count(),
    )
    return pe, axioms


def _axioms_instance(entry) -> str:
    return "%s|G-order=%d|p=%d" % (entry.name, entry.G.order, entry.p)


def k_options(
    X: Subgroup,
    descriptors: Optional[Sequence[str]] = None,
    skip_unfit: bool = False,
) -> List[Tuple[str, Optional[AutGroup]]]:
    """K choices for a subgroup X.

    Default sweep: the named systems (full Aut, trivial, inner) plus every
    subgroup of Aut(X) when |Aut(X)| is within the cap. With explicit
    descriptors ("aut" | "id" | "inn" | "gens:<cycles>;..." acting on the
    index of the sorted elements of X) only those are used. Deduplicated,
    deterministic order. Aut(X) is held only for "aut" and the default
    sweep, and searched only as far as it is read: AUT_CAP + 1 maps at most
    for the cap, |K| + 1 to tell a K <= Aut(X) from Aut(X), and so all of
    them for the subgroups of an Aut(X) within the cap.

    A ``gens:`` descriptor that defines no subgroup of Aut(X) raises
    KDescriptorNotForX, or with ``skip_unfit`` is returned with K None.
    """
    out: List[Tuple[str, Optional[AutGroup]]] = []
    seen = set()
    A = gp.aut_group(X) if descriptors is None or "aut" in descriptors else None

    def push(tag: str, K: Optional[AutGroup]):
        mark = tag if K is None else K  # one AutGroup per content
        if K is not None and A is not None and (K.full or not A.order_at_least(K.order + 1)):
            mark = "aut"  # K <= Aut(X) as large as Aut(X)
        if mark not in seen:
            seen.add(mark)
            out.append((tag, K))

    for desc in ("aut", "id", "inn") if descriptors is None else descriptors:
        if desc in ("aut", "id", "inn"):
            push(desc, A if desc == "aut" else gp.trivial_aut_group(X) if desc == "id" else gp.inn_group(X))
        else:
            try:
                push(desc, _k_from_gens(X, desc))
            except KDescriptorNotForX:
                if not skip_unfit:
                    raise
                push(desc, None)
    if descriptors is None and not A.order_at_least(AUT_CAP + 1):
        for idx, K in enumerate(A.sub_autgroups()):
            push("K%02d[o=%d]" % (idx, K.order), K)
    return out


def cycle_specs(text: str, label: str, line: Optional[int] = None) -> List[str]:
    """The ';'-separated generators of text, each checked to be cycle
    notation: CorpusParseError naming label, on the corpus line when one
    is given, for one that is not."""
    specs = [s.strip() for s in text.split(";") if s.strip()]
    try:
        for s in specs:
            parse_cycles(s)
    except ValueError as exc:
        raise CorpusParseError("%s: %s" % (label, exc), line)
    return specs


def k_generator_specs(desc: str, line: Optional[int] = None) -> List[str]:
    """The generators of a K descriptor, none for "aut", "id" and "inn".
    Any other descriptor, or a ``gens:`` list that is empty or not cycle
    notation, raises CorpusParseError, on the corpus line when one is
    given, whatever X is."""
    if desc in ("aut", "id", "inn"):
        return []
    if not desc.startswith("gens:"):
        raise CorpusParseError("unknown K descriptor %r" % desc, line)
    specs = cycle_specs(desc[5:], "K=" + desc, line)
    if not specs:
        raise CorpusParseError("empty K generator list", line)
    return specs


def _k_from_gens(X: Subgroup, desc: str) -> AutGroup:
    """Explicit K: permutation generators on the sorted element index of X.

    A malformed descriptor raises CorpusParseError whatever X is
    (k_generator_specs); a well-formed one with a generator outside
    Aut(X), such as one naming a point past |X|, raises
    KDescriptorNotForX, checked as any AutGroup's maps are, with no search
    of Aut(X). Else the closure lies in Aut(X).
    """
    specs = k_generator_specs(desc)
    top = max((pt for s in specs for cyc in parse_cycles(s) for pt in cyc), default=-1)
    perms = frozenset(perm_from_cycles(s, max(top + 1, X.order)) for s in specs)
    if not gp.are_automorphisms(X, perms):
        raise KDescriptorNotForX("K=%s: a generator is not an automorphism of X" % desc)
    return AutGroup(X, gp.mulclose(perms))


def _k_sweep(pe: PreparedEntry, X: Subgroup) -> List[Tuple[str, Optional[AutGroup]]]:
    """k_options for X over the entry's descriptors. A descriptor that is
    not for X comes back with K None, to be skipped visibly, unless X is
    named on the entry's X= lines: then it stays a corpus error."""
    named = pe.X_list is not None and X in pe.X_list
    return k_options(X, pe.K_descriptors, skip_unfit=not named)


def _normalizer_range(G: Subgroup, X: Subgroup) -> Tuple[Subgroup, ...]:
    """The H with C_G(X) <= H <= N_G(X): N_G(X)/C_G(X) is Aut_G(X), so they
    are the N_G^B(X) for B <= Aut_G(X), one per B."""
    return tuple(gp.group_K_normalizer(G, X, B) for B in gp.aut_induced(G, X).sub_autgroups())


def entry_reports(
    pe: PreparedEntry, statements: Optional[Sequence[str]] = None
) -> List[VerificationReport]:
    """Run every selected checker over the instance sweep of one entry."""

    def want(stmt: str) -> bool:
        return statements is None or stmt in statements

    reports: List[VerificationReport] = []
    name = pe.name
    # group-level Lemma 2.2 over all p-subgroups of G
    if want("Lemma-2.2a") or want("Lemma-2.2b"):
        for X in gp.p_subgroups(pe.G, pe.F.S):
            xi = "%s|X=%s" % (name, X.label())
            if want("Lemma-2.2a"):
                for H in _normalizer_range(pe.G, X):
                    inst = "%s|H=%s" % (xi, H.label())
                    reports.append(check_char_p_normalizer_subgroup(pe.G, pe.p, X, H, inst))
            if want("Lemma-2.2b"):
                for tag, K in _k_sweep(pe, X):
                    inst = "%s|K=%s" % (xi, tag)
                    reports.append(skipped_report("Lemma-2.2b", inst, UNFIT_K) if K is None
                                   else check_char_p_normalizer_aut(pe.G, pe.p, X, K, inst))

    # locality-level statements over subgroups of S
    X_sweep = pe.X_list if pe.X_list else pe.F.subgroups()
    for X in X_sweep:
        xi = "%s|X=%s" % (name, X.label())
        if any(want(stmt) for stmt in K_STATEMENTS):
            for tag, K in _k_sweep(pe, X):
                inst = "%s|K=%s" % (xi, tag)
                if K is None:
                    reports.extend(skipped_report(stmt, inst, UNFIT_K) for stmt in K_STATEMENTS if want(stmt))
                    continue
                if want("Lemma-2.1"):
                    reports.append(check_restricted_subcentric(pe.L, pe.F, X, K, inst))
                if want("Lemma-3.1"):
                    reports.append(check_fully_K_normalized_transfer(pe.L, pe.F, pe.N, X, K, inst))
                if want("Theorem-3.2a") or want("Theorem-3.2b"):
                    reps = check_main_theorem(pe.L, pe.F, pe.E, pe.N, X, K, inst)
                    reports.extend(rep for rep in reps if want(rep.statement))
        if want("Corollary-3.3a") or want("Corollary-3.3b"):
            reps = check_corollary(pe.L, pe.F, pe.E, pe.N, X, xi)
            reports.extend(rep for rep in reps if want(rep.statement))
    return reports


def coverage_summary(reports: Sequence[VerificationReport]) -> Dict[str, Dict[str, int]]:
    """Per-statement outcome counts, plus non-degenerate (X != 1) passes.
    Every report is built with one of the ids STATEMENTS + ("Axioms",), so
    each has its row from the start."""
    zero = {"pass": 0, "fail": 0, "skipped": 0, "nondegenerate_pass": 0}
    cov = {stmt: dict(zero) for stmt in STATEMENTS + ("Axioms",)}
    for r in reports:
        cov[r.statement][r.outcome] += 1
        if r.outcome == "pass" and "|X={1}" not in r.instance:
            cov[r.statement]["nondegenerate_pass"] += 1
    return cov


def run_suite(
    entries, statements: Optional[Sequence[str]] = None
) -> Tuple[List[VerificationReport], Dict[str, Dict[str, int]]]:
    """Run the suite over parsed corpus entries.

    Reports are sorted by (entry name, statement, instance); rejected
    entries contribute their axiom report plus one skip per selected
    statement so coverage stays visible. An entry that meets a cap is
    rejected so, its axiom report a fail with the cap's message as witness,
    and the other entries keep their reports.

    Entries are independent: every result a check keeps lives on the
    entry's own homes and objects (its groups, their lattices and tables of
    systems, its localities), and no module keeps state, so an entry's
    reports do not depend on what ran before it, or in which process. The
    entries are dealt to n workers, n the number of usable CPUs
    (``os.sched_getaffinity``) but at most one per entry, and 1 where the
    platform cannot fork or tell: entry i to worker i mod n, worker 0 being
    this process and the others forked from it (:func:`_dealt`). The deal
    is fixed, so each process checks the same entries on every run. Every
    entry's reports cross ``marshal`` (:func:`_share`), in this process as
    in a worker, so a report value marshal cannot carry fails every run the
    same way. An exception raised by an entry, here or in a worker, is
    raised here: that of the first entry in corpus order that raised, as a
    serial run would.
    """
    entries = list(entries)
    n = max(1, min(_usable_cpus(), len(entries)))
    shares = _dealt(entries, n, statements)
    results: List[VerificationReport] = []
    for i in range(len(entries)):
        outcome = shares[i % n][i // n]
        if isinstance(outcome, Exception):
            raise outcome
        results.extend(VerificationReport(*fields) for fields in marshal.loads(outcome))

    # by (entry name, statement, instance)
    results.sort(key=lambda r: (r.instance.split("|", 1)[0], r.statement, r.instance))
    return results, coverage_summary(results)


def _usable_cpus() -> int:
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def _entry_results(entry, statements) -> List[VerificationReport]:
    """One entry's reports, a cap it meets rejecting it."""
    try:
        pe, axioms = prepare_entry(entry)
        reports = [] if pe is None else entry_reports(pe, statements=statements)
    except CapExceeded as exc:
        pe, reports = None, []
        axioms = failed_report("Axioms", _axioms_instance(entry), {"cap": str(exc)})
    out = [axioms]
    if pe is None:
        for stmt in STATEMENTS:
            if statements is None or stmt in statements:
                out.append(skipped_report(stmt, "%s|entry" % entry.name, "entry-rejected"))
    return out + reports


def _share(entries, statements) -> list:
    """Each entry's reports, in order, as the marshal bytes of their
    fields (VerificationReport.fields), up to the first entry that raises:
    its exception stands in its place, and the entries after it are not
    run. run_suite raises it once it knows no earlier entry raised. A
    report value marshal cannot carry raises ValueError here."""
    out = []
    for entry in entries:
        try:
            out.append(marshal.dumps([r.fields() for r in _entry_results(entry, statements)]))
        except Exception as exc:
            out.append(exc)
            break
    return out


def _dealt(entries, n: int, statements) -> list:
    """The shares (see _share) of the n workers, entry i dealt to worker
    i mod n. Worker 0's runs here; each other one in a process forked from
    this one (which starts no thread), whose share comes back through a
    pipe, marshalled (see _worker). This process runs its own share, then
    reads each worker's whole answer before it reaps the worker. A worker
    that ends without answering raises RuntimeError naming its entries; on
    any raise here the workers not yet reaped are killed and reaped, so no
    process outlives the call."""
    shares, pipes = [None] * n, {}  # pipes: pid of each unreaped worker -> (number, read end)
    try:
        for w in range(1, n):
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(read)
                _worker(write, entries[w::n], statements)
            os.close(write)
            pipes[pid] = (w, os.fdopen(read, "rb"))
        shares[0] = _share(entries[0::n], statements)
        for pid in list(pipes):
            w, pipe = pipes[pid]
            answer = pipe.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del pipes[pid]
            pipe.close()
            if status != 0:
                names = ", ".join(entry.name for entry in entries[w::n])
                raise RuntimeError("worker for entries %s ended without an answer (exit code %d)" % (names, status))
            shares[w], raised = marshal.loads(answer)
            if raised is not None:
                import pickle

                shares[w].append(pickle.loads(raised))
    finally:
        if pipes:  # raising: stop the workers still running
            import signal

            for pid, (_, pipe) in pipes.items():
                pipe.close()
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    return shares


def _worker(write: int, entries, statements) -> NoReturn:
    """A forked worker's whole life: its share, marshalled, written to the
    pipe's write end, then os._exit, so that none of the parent's exit
    handlers run and none of its buffers are flushed. The answer is the
    pair (the marshal bytes of the entries run, the pickled exception or
    None): pickle is imported only for a share that holds a raised
    exception, which only the last entry run can be. The exit code is 0
    once the whole share is written, 1 otherwise."""
    status = 1
    try:
        share, raised = _share(entries, statements), None
        if isinstance(share[-1], Exception):
            import pickle

            raised = pickle.dumps(share.pop())
        answer = marshal.dumps((share, raised))
        with os.fdopen(write, "wb") as pipe:
            pipe.write(answer)
        status = 0
    finally:
        os._exit(status)
