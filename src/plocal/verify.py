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

from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

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
from .perm import Perm, parse_cycles, perm_from_cycles
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

# the default K sweep adds every subgroup of Aut(X) when |Aut(X)| is at most this
AUT_CAP = 24

# the statements of the locality sweep that take a K, and the skip reason for
# an X on which a corpus K descriptor defines no subgroup of Aut(X)
K_STATEMENTS = ("Lemma-2.1", "Lemma-3.1", "Theorem-3.2a", "Theorem-3.2b")
UNFIT_K = "K-descriptor-not-for-X"


# ---------------------------------------------------------------------------
# Lemma 2.2: characteristic p of K-normalizers at the group level


def check_char_p_normalizer_subgroup(
    G: Subgroup, p: int, G_char_p: bool, X: Subgroup, H: Subgroup, instance: str
) -> VerificationReport:
    """Lemma 2.2(a): G of characteristic p, X a p-subgroup, C_G(X) <= H <=
    N_G(X) and H subnormal in HX imply H of characteristic p. G_char_p is
    whether G has characteristic p, decided once by the caller."""
    stmt = "Lemma-2.2a"
    if not G_char_p:
        return skipped_report(stmt, instance, "G-not-characteristic-p")
    if not gp.is_p_group(X, p):
        return skipped_report(stmt, instance, "X-not-p-group")
    NX = gp.normalizer(G, X)
    CX = gp.centralizer(G, X)
    if not (CX.elems <= H.elems and H.elems <= NX.elems):
        return skipped_report(stmt, instance, "H-not-between-centralizer-and-normalizer")
    HX = G.generated_subgroup(H.elems | X.elems)
    if not gp.is_subnormal(H, HX):
        return skipped_report(stmt, instance, "H-not-subnormal-in-HX")
    if gp.is_characteristic_p(H, p):
        return passed_report(stmt, instance, H_order=H.order)
    return failed_report(
        stmt,
        instance,
        {"H": H.label(), "O_p(H)": gp.core_Op(H, p).label()},
    )


def check_char_p_normalizer_aut(
    G: Subgroup, p: int, G_char_p: bool, X: Subgroup, K: AutGroup, instance: str
) -> VerificationReport:
    """Lemma 2.2(b): N_G^K(X) is of characteristic p when K is subnormal in
    K*Inn(X); also checks the product identity N_G^{K Inn(X)}(X) =
    N_G^K(X) X from its proof. G_char_p is as for Lemma 2.2(a)."""
    stmt = "Lemma-2.2b"
    if not G_char_p:
        return skipped_report(stmt, instance, "G-not-characteristic-p")
    if not gp.is_p_group(X, p):
        return skipped_report(stmt, instance, "X-not-p-group")
    KInn = K.times_inn
    if not K.is_subnormal_in(KInn):
        return skipped_report(stmt, instance, "K-not-subnormal-in-K*Inn(X)")
    NK = gp.group_K_normalizer(G, X, K)
    NKI = gp.group_K_normalizer(G, X, KInn)
    prod = gp.set_product(G, NK.elems, X.elems)
    if NKI.elems != prod:
        return failed_report(
            stmt,
            instance,
            {
                "part": "product-identity",
                "N^{KInn}": NKI.label(),
                "N^K * X": sorted(str(x) for x in prod),
            },
        )
    if gp.is_characteristic_p(NK, p):
        return passed_report(stmt, instance, NK_order=NK.order, identity_checked=1)
    return failed_report(
        stmt,
        instance,
        {"part": "characteristic-p", "N^K": NK.label()},
    )


# ---------------------------------------------------------------------------
# Lemma 2.1: restricted K-normalizers of subcentric localities


def check_restricted_subcentric(
    L: lo.Locality,
    F: fu.FusionSystem,
    X: Subgroup,
    K: AutGroup,
    instance: str,
    word_len: int = 3,
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
    rep = _verified_subcentric(L, bn, NFK, word_len)
    if rep.passed:
        return passed_report(
            stmt, instance, bn_size=bn.elems.bit_count(), objects=len(bn.Delta)
        )
    return failed_report(stmt, instance, {"verification": rep.witness})


def _verified_subcentric(
    L: lo.Locality, M: lo.Locality, F: fu.FusionSystem, word_len: int
) -> VerificationReport:
    """verify_subcentric_locality(M, F), once per content of M within L's
    entry. M is L or a restriction of it, so it has L's ambient group and
    p, and the maximality of its S reads only subgroups inside M.elems."""
    key = ("verified", M.elems, M.Delta, M.S_elems, F, word_len)
    hit = L._memo.get(key)
    if hit is None:
        hit = lo.verify_subcentric_locality(M, F, word_len=word_len)
        L._memo[key] = hit
    return hit


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
    return failed_report(
        stmt,
        instance,
        {
            "EX_base_order": EX.S.order,
            "conjugates": [P.label() for P in EX.conjugates(X)],
        },
    )


def _product_system(L: lo.Locality, N: int, X: Subgroup) -> fu.FusionSystem:
    key = ("EX", N, X.elems)
    hit = L._memo.get(key)
    if hit is None:
        hit = lo.product_fusion(L, N, X)
        L._memo[key] = hit
    return hit


# ---------------------------------------------------------------------------
# Theorem 3.2 and Corollary 3.3


def _subnormal_branch(F: fu.FusionSystem, X: Subgroup, K: AutGroup):
    """The theorem's hypothesis: K subnormal in K*Inn(X), or the same for
    K cap Aut_F(X). Returns (branch, effective K) or (None, None); the
    second branch replaces K by the intersection, which changes none of the
    derived objects (every realized automorphism lies in Aut_F(X))."""
    if K.is_subnormal_in(K.times_inn):
        return 1, K
    K2 = AutGroup(K.base, K.maps & F.aut(X).maps)
    if K2.is_subnormal_in(K2.times_inn):
        return 2, K2
    return None, None


class TheoremRecord:
    """The main theorem decided for one (F, E, N, X, K), kept in L's memo.

    ``reason`` is the skip reason of both statements, or None when the
    hypotheses hold. Then ``witnesses`` holds the fail witness of the
    fusion-level and of the locality-level statement, None for a pass, and
    ``stats`` the branch, the six conditions and the counts both reports
    carry. ``E0_is_E`` says whether E_0 = E, which the corollary requires
    at X = 1.
    """

    def __init__(self, reason=None, witnesses=(None, None), stats=None, E0_is_E=False):
        self.reason, self.witnesses, self.E0_is_E = reason, witnesses, E0_is_E
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
    against the O^p criterion at T_0). The instance is decided once (see
    :func:`_theorem_record`); each call names its reports and gives each
    its own copy of the stats.
    """
    rec = _theorem_record(L, F, E, N, X, K)
    reports = []
    for stmt, witness in zip(statements, rec.witnesses):
        if rec.reason is not None:
            reports.append(skipped_report(stmt, instance, rec.reason))
        elif witness is None:
            reports.append(passed_report(stmt, instance, **rec.stats))
        else:
            reports.append(failed_report(stmt, instance, witness, **rec.stats))
    return reports


def _theorem_record(
    L: lo.Locality,
    F: fu.FusionSystem,
    E: fu.FusionSystem,
    N: int,
    X: Subgroup,
    K: AutGroup,
) -> TheoremRecord:
    key = ("theorem", F, E, N, X.elems, K.maps)
    hit = L._memo.get(key)
    if hit is None:
        hit = _decide_main_theorem(L, F, E, N, X, K)
        L._memo[key] = hit
    return hit


def _decide_main_theorem(
    L: lo.Locality,
    F: fu.FusionSystem,
    E: fu.FusionSystem,
    N: int,
    X: Subgroup,
    K: AutGroup,
) -> TheoremRecord:
    if not fu.is_fully_K_normalized(F, X, K):
        return TheoremRecord(reason="not-fully-K-normalized")
    branch, K_eff = _subnormal_branch(F, X, K)
    if branch is None:
        return TheoremRecord(reason="K-not-subnormal-in-K*Inn(X)-either-branch")
    stats: Dict[str, object] = {"branch": branch}

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
    E0 = lo.fusion_of_partial(bn, M, base=T0)
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
    reads the theorem record of its (X, K), which the K sweep has already
    made when it ran the theorem for that K."""
    out: List[VerificationReport] = []
    cases = [
        ("normalizer", gp.aut_group(X)),
        ("centralizer", gp.trivial_aut_group(X)),
    ]
    for tag, K in cases:
        inst = "%s|%s" % (instance, tag)
        reps = check_main_theorem(
            L, F, E, N, X, K, inst, statements=("Corollary-3.3a", "Corollary-3.3b")
        )
        if X.order == 1:
            rec = _theorem_record(L, F, E, N, X, K)
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


def prepare_entry(entry, word_len: int = 3):
    """Build and validate one corpus entry.

    Returns (PreparedEntry, axioms_report) on success or (None, report)
    when the entry is rejected; the report then carries the axiom witness.
    """
    name, G, p = entry.name, entry.G, entry.p
    S = gp.sylow_subgroup(G, p)
    F = fu.fusion_of_group(G, S, p)
    inst = "%s|G-order=%d|p=%d" % (name, G.order, p)
    sat = fu.saturation_failure(F)
    if sat is not None:
        return None, failed_report("Axioms", inst, {"saturation": sat})
    Delta = frozenset(S.mask(P.elems) for P in fu.subcentric_set(F))
    # the entry's one table of systems, started by F and handed on to L
    systems = fu.table_of_systems(F)
    L = lo.build_group_locality(G, S, Delta, p, subgroups=F.subgroups(), systems=systems)
    # bN_L^K(X) can be L itself, so its Lemma-2.1 check reuses this one
    rep = _verified_subcentric(L, L, F, word_len)
    if not rep.passed:
        return None, failed_report("Axioms", inst, {"subcentric-locality": rep.witness})
    H = Subgroup(entry.H.elems, G)
    T = Subgroup(S.elems & H.elems, G)
    lattice = tuple(P for P in F.subgroups() if P.elems <= T.elems)
    E = fu.interned(systems, fu.fusion_of_group(H, T, p, subgroups=lattice))
    if not fu.is_normal_subsystem(E, F):
        return None, failed_report("Axioms", inst, {"subsystem": "F_T(H) not normal in F"})
    # H is normal in G, so H cap L is closed under inverses, defined products
    # and defined conjugates: a partial normal subgroup of L realizing E
    N = H.home_mask & L.elems
    bad = lo.partial_normal_violation(L, N)
    if bad is not None:
        return None, failed_report("Axioms", inst, {"partial-normal": bad})
    if lo.fusion_of_partial(L, N) != E:
        return None, failed_report(
            "Axioms", inst, {"partial-normal": "F_T(H cap L) != F_T(H)"}
        )
    X_list = entry.X_subgroups(G, S)
    pe = PreparedEntry(
        name=name,
        p=p,
        G=G,
        F=F,
        L=L,
        E=E,
        N=N,
        X_list=X_list,
        K_descriptors=entry.K_descriptors(),
    )
    axioms = passed_report(
        "Axioms",
        inst,
        L_size=L.elems.bit_count(),
        objects=len(L.Delta),
        subgroups_of_S=len(F.subgroups()),
        T_order=T.order,
        N_size=N.bit_count(),
    )
    return pe, axioms


def _k_label(idx: int, K: AutGroup) -> str:
    return "K%02d[o=%d]" % (idx, K.order)


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
    deterministic order.

    A ``gens:`` descriptor that defines no subgroup of Aut(X) raises
    KDescriptorNotForX, or with ``skip_unfit`` is returned with K None.
    """
    A = gp.aut_group(X)
    out: List[Tuple[str, Optional[AutGroup]]] = []
    seen = set()

    def push(tag: str, K: Optional[AutGroup]):
        mark = tag if K is None else K.maps
        if mark not in seen:
            seen.add(mark)
            out.append((tag, K))

    if descriptors is not None:
        for desc in descriptors:
            if desc == "aut":
                push(desc, A)
            elif desc == "id":
                push(desc, gp.trivial_aut_group(X))
            elif desc == "inn":
                push(desc, gp.inn_group(X))
            elif desc.startswith("gens:"):
                try:
                    push(desc, _k_from_gens(X, A, desc[5:]))
                except KDescriptorNotForX:
                    if not skip_unfit:
                        raise
                    push(desc, None)
            else:
                raise CorpusParseError("unknown K descriptor %r" % desc)
        return out

    push("aut", A)
    push("id", gp.trivial_aut_group(X))
    push("inn", gp.inn_group(X))
    if A.order <= AUT_CAP:
        for idx, K in enumerate(A.sub_autgroups()):
            push(_k_label(idx, K), K)
    return out


def _k_from_gens(X: Subgroup, A: AutGroup, spec: str) -> AutGroup:
    """Explicit K: permutation generators on the sorted element index of X.

    A malformed spec raises CorpusParseError whatever X is; a well-formed
    one that defines no subgroup of Aut(X) raises KDescriptorNotForX.
    """
    specs = [s for s in spec.split(";") if s.strip()]
    if not specs:
        raise CorpusParseError("empty K generator list")
    try:
        top = max((pt for s in specs for cyc in parse_cycles(s) for pt in cyc), default=-1)
    except ValueError as exc:
        raise CorpusParseError("K=gens:%s: %s" % (spec, exc))
    if top >= X.order:
        raise KDescriptorNotForX(
            "K=gens:%s: point %d out of range for degree %d" % (spec, top, X.order)
        )
    perms = [perm_from_cycles(s, X.order) for s in specs]
    try:
        closure = gp.mulclose(perms, cap=max(A.order, 1))
    except CapExceeded:
        raise KDescriptorNotForX(
            "K=gens:%s: generates more than |Aut(X)| = %d permutations" % (spec, A.order)
        )
    if not closure <= A.maps:
        raise KDescriptorNotForX("K generator does not induce an automorphism of X")
    return AutGroup(X, closure)


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
    pe: PreparedEntry,
    statements: Optional[Sequence[str]] = None,
    word_len: int = 3,
) -> List[VerificationReport]:
    """Run every selected checker over the instance sweep of one entry."""

    def want(stmt: str) -> bool:
        return statements is None or stmt in statements

    reports: List[VerificationReport] = []
    name = pe.name
    # one K sweep per X for both sweeps below, so each K value is one object
    # and K*Inn(X), kept on it, is formed once
    sweeps: Dict[FrozenSet[Perm], List[Tuple[str, Optional[AutGroup]]]] = {}

    def k_sweep(X: Subgroup) -> List[Tuple[str, Optional[AutGroup]]]:
        if X.elems not in sweeps:
            sweeps[X.elems] = _k_sweep(pe, X)
        return sweeps[X.elems]

    # group-level Lemma 2.2 over all p-subgroups of G; every instance shares
    # the hypothesis on G, so it is decided once
    if want("Lemma-2.2a") or want("Lemma-2.2b"):
        G_char_p = gp.is_characteristic_p(pe.G, pe.p)
        for X in gp.p_subgroups(pe.G, pe.F.subgroups()):
            xi = "%s|X=%s" % (name, X.label())
            if want("Lemma-2.2a"):
                for H in _normalizer_range(pe.G, X):
                    reports.append(
                        check_char_p_normalizer_subgroup(
                            pe.G, pe.p, G_char_p, X, H, "%s|H=%s" % (xi, H.label())
                        )
                    )
            if want("Lemma-2.2b"):
                for tag, K in k_sweep(X):
                    inst = "%s|K=%s" % (xi, tag)
                    if K is None:
                        reports.append(skipped_report("Lemma-2.2b", inst, UNFIT_K))
                    else:
                        reports.append(
                            check_char_p_normalizer_aut(pe.G, pe.p, G_char_p, X, K, inst)
                        )

    # locality-level statements over subgroups of S
    X_sweep = pe.X_list if pe.X_list else pe.F.subgroups()
    for X in X_sweep:
        xi = "%s|X=%s" % (name, X.label())
        if any(want(stmt) for stmt in K_STATEMENTS):
            for tag, K in k_sweep(X):
                inst = "%s|K=%s" % (xi, tag)
                if K is None:
                    reports.extend(
                        skipped_report(stmt, inst, UNFIT_K) for stmt in K_STATEMENTS if want(stmt)
                    )
                    continue
                if want("Lemma-2.1"):
                    reports.append(
                        check_restricted_subcentric(
                            pe.L, pe.F, X, K, inst, word_len=word_len
                        )
                    )
                if want("Lemma-3.1"):
                    reports.append(
                        check_fully_K_normalized_transfer(pe.L, pe.F, pe.N, X, K, inst)
                    )
                if want("Theorem-3.2a") or want("Theorem-3.2b"):
                    for rep in check_main_theorem(pe.L, pe.F, pe.E, pe.N, X, K, inst):
                        if want(rep.statement):
                            reports.append(rep)
        if want("Corollary-3.3a") or want("Corollary-3.3b"):
            for rep in check_corollary(pe.L, pe.F, pe.E, pe.N, X, xi):
                if want(rep.statement):
                    reports.append(rep)
    return reports


def coverage_summary(reports: Sequence[VerificationReport]) -> Dict[str, Dict[str, int]]:
    """Per-statement outcome counts, plus non-degenerate (X != 1) passes."""
    cov: Dict[str, Dict[str, int]] = {}
    for stmt in STATEMENTS + ("Axioms",):
        cov[stmt] = {"pass": 0, "fail": 0, "skipped": 0, "nondegenerate_pass": 0}
    for r in reports:
        if r.statement not in cov:
            cov[r.statement] = {"pass": 0, "fail": 0, "skipped": 0, "nondegenerate_pass": 0}
        cov[r.statement][r.outcome] += 1
        if r.outcome == "pass" and "|X={1}" not in r.instance:
            cov[r.statement]["nondegenerate_pass"] += 1
    return cov


def run_suite(
    entries,
    statements: Optional[Sequence[str]] = None,
    word_len: int = 3,
) -> Tuple[List[VerificationReport], Dict[str, Dict[str, int]]]:
    """Run the suite over parsed corpus entries.

    Reports are sorted by (entry name, statement, instance); rejected
    entries contribute their axiom report plus one skip per selected
    statement so coverage stays visible.
    """
    results: List[VerificationReport] = []
    for entry in entries:
        pe, axioms = prepare_entry(entry, word_len=word_len)
        results.append(axioms)
        if pe is None:
            for stmt in STATEMENTS:
                if statements is None or stmt in statements:
                    results.append(
                        skipped_report(stmt, "%s|entry" % entry.name, "entry-rejected")
                    )
            continue
        results.extend(entry_reports(pe, statements=statements, word_len=word_len))

    def sort_key(r: VerificationReport):
        entry_name = r.instance.split("|", 1)[0]
        return (entry_name, r.statement, r.instance)

    results.sort(key=sort_key)
    return results, coverage_summary(results)
