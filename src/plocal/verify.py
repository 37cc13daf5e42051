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

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from . import fusion as fu
from . import groups as gp
from . import locality as lo
from .errors import CorpusParseError, NotFound, NotPartialSubgroup, PLocalError
from .groups import AutGroup, FiniteGroup, Subgroup
from .perm import perm_from_cycles
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


# ---------------------------------------------------------------------------
# Lemma 2.2: characteristic p of K-normalizers at the group level


def check_char_p_normalizer_subgroup(
    G: FiniteGroup, p: int, X: Subgroup, H: Subgroup, instance: str
) -> VerificationReport:
    """Lemma 2.2(a): G of characteristic p, X a p-subgroup, C_G(X) <= H <=
    N_G(X) and H subnormal in HX imply H of characteristic p."""
    stmt = "Lemma-2.2a"
    if not gp.is_characteristic_p(G, p):
        return skipped_report(stmt, instance, "G-not-characteristic-p")
    if not gp.is_p_group(X, p):
        return skipped_report(stmt, instance, "X-not-p-group")
    NX = gp.normalizer(G, X)
    CX = gp.centralizer(G, X)
    if not (CX.elems <= H.elems and H.elems <= NX.elems):
        return skipped_report(stmt, instance, "H-not-between-centralizer-and-normalizer")
    HX = FiniteGroup(gp.mulclose(list(H.elems | X.elems), cap=G.order))
    if not gp.is_subnormal(H, HX):
        return skipped_report(stmt, instance, "H-not-subnormal-in-HX")
    if gp.is_characteristic_p(H.group(), p):
        return passed_report(stmt, instance, H_order=H.order)
    return failed_report(
        stmt,
        instance,
        {"H": H.label(), "O_p(H)": gp.core_Op(H.group(), p).label()},
    )


def check_char_p_normalizer_aut(
    G: FiniteGroup, p: int, X: Subgroup, K: AutGroup, instance: str
) -> VerificationReport:
    """Lemma 2.2(b): N_G^K(X) is of characteristic p when K is subnormal in
    K*Inn(X); also checks the product identity N_G^{K Inn(X)}(X) =
    N_G^K(X) X from its proof."""
    stmt = "Lemma-2.2b"
    if not gp.is_characteristic_p(G, p):
        return skipped_report(stmt, instance, "G-not-characteristic-p")
    if not gp.is_p_group(X, p):
        return skipped_report(stmt, instance, "X-not-p-group")
    KInn = K.product(gp.inn_group(X))
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
    if gp.is_characteristic_p(NK.group(), p):
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
    if not K.is_subnormal_in(K.product(gp.inn_group(X))):
        return skipped_report(stmt, instance, "K-not-subnormal-in-K*Inn(X)")
    try:
        bn = lo.bN_K(L, F, X, K, for_subcentric=True)
    except PLocalError as exc:
        return failed_report(stmt, instance, {"construction": str(exc)})
    NFK = fu.K_normalizer_subsystem(F, X, K)
    rep = lo.verify_subcentric_locality(bn, NFK, word_len=word_len)
    if rep.passed:
        return passed_report(
            stmt, instance, bn_size=len(bn.elems), objects=len(bn.Delta)
        )
    return failed_report(stmt, instance, {"verification": rep.witness})


# ---------------------------------------------------------------------------
# Lemma 3.1: fully K-normalized transfers to E X


def check_fully_K_normalized_transfer(
    L: lo.Locality,
    F: fu.FusionSystem,
    N: lo.PartialSubgroup,
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
        return passed_report(stmt, instance, EX_base=EX.Sgroup.order)
    return failed_report(
        stmt,
        instance,
        {
            "EX_base_order": EX.Sgroup.order,
            "conjugates": [P.label() for P in EX.conjugates(X)],
        },
    )


def _product_system(L: lo.Locality, N: lo.PartialSubgroup, X: Subgroup) -> fu.FusionSystem:
    key = ("EX", N.elems, X.elems)
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
    inn = gp.inn_group(X)
    if K.is_subnormal_in(K.product(inn)):
        return 1, K
    autF = F.aut(X)
    inter = frozenset(K.maps & autF.maps)
    K2 = AutGroup(K.base, inter)
    if K2.is_subnormal_in(K2.product(inn)):
        return 2, K2
    return None, None


def check_main_theorem(
    L: lo.Locality,
    F: fu.FusionSystem,
    E: fu.FusionSystem,
    N: lo.PartialSubgroup,
    X: Subgroup,
    K: AutGroup,
    instance: str,
    statements: Tuple[str, str] = ("Theorem-3.2a", "Theorem-3.2b"),
) -> List[VerificationReport]:
    """All conclusions of the main theorem for one (X, K) instance.

    Emits two reports: the fusion-level statement (E_0 normal in N_F^K(X),
    E_0 inside E) and the locality-level one (M partial normal, M cap S =
    N_T^K(X), E_0 saturated of p-power index in N_{EX}^K(X), cross-checked
    against the O^p criterion at T_0).
    """
    stmt_a, stmt_b = statements
    if not fu.is_fully_K_normalized(F, X, K):
        reason = "not-fully-K-normalized"
        return [
            skipped_report(stmt_a, instance, reason),
            skipped_report(stmt_b, instance, reason),
        ]
    branch, K_eff = _subnormal_branch(F, X, K)
    if branch is None:
        reason = "K-not-subnormal-in-K*Inn(X)-either-branch"
        return [
            skipped_report(stmt_a, instance, reason),
            skipped_report(stmt_b, instance, reason),
        ]
    stats: Dict[str, object] = {"branch": branch}

    try:
        bn = lo.bN_K(L, F, X, K_eff, for_subcentric=True)
    except PLocalError as exc:
        w = {"construction": str(exc)}
        return [
            failed_report(stmt_a, instance, w, **stats),
            failed_report(stmt_b, instance, w, **stats),
        ]
    NFK = fu.K_normalizer_subsystem(F, X, K_eff)
    T = N.elems & L.S_elems
    T0 = Subgroup(T & bn.S_elems)
    M = lo.PartialSubgroup(bn, N.elems & bn.elems)

    # (i) M is partial normal in bN
    viol = lo.partial_normal_violation(M, bn)
    cond_i = viol is None
    stats["i_partial_normal"] = int(cond_i)

    # (ii) M cap S = M cap N_S^K(X) = N_T^K(X)
    cond_ii = (M.elems & L.S_elems == T0.elems) and (M.elems & bn.S_elems == T0.elems)
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
        return [
            failed_report(stmt_a, instance, w, **stats),
            failed_report(stmt_b, instance, w, **stats),
        ]
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

    reports = []
    if cond_iii and cond_iv:
        reports.append(passed_report(stmt_a, instance, **stats))
    else:
        reports.append(
            failed_report(
                stmt_a,
                instance,
                {"iii": cond_iii, "iv": cond_iv},
                **stats,
            )
        )
    if cond_i and cond_ii and cond_v and cond_vi and agree:
        reports.append(passed_report(stmt_b, instance, **stats))
    else:
        reports.append(
            failed_report(
                stmt_b,
                instance,
                {
                    "i": cond_i,
                    "ii": cond_ii,
                    "v": cond_v,
                    "vi": cond_vi,
                    "routes_agree": agree,
                    "partial_normal_witness": viol,
                },
                **stats,
            )
        )
    return reports


def check_corollary(
    L: lo.Locality,
    F: fu.FusionSystem,
    E: fu.FusionSystem,
    N: lo.PartialSubgroup,
    X: Subgroup,
    instance: str,
) -> List[VerificationReport]:
    """Corollary: the theorem specialized to K = Aut(X) on fully normalized
    X (normalizer case) and K = {id} on fully centralized X (centralizer
    case). For X = 1 additionally requires E_0 = E on the nose."""
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
            reps = [_with_trivial_case_check(r, L, F, E, N, X, K) for r in reps]
        out.extend(reps)
    return out


def _with_trivial_case_check(rep, L, F, E, N, X, K):
    """X = 1 must reproduce E_0 = E exactly (hom-set equality)."""
    if rep.outcome != "pass":
        return rep
    bn = lo.bN_K(L, F, X, K)
    T0 = Subgroup((N.elems & L.S_elems) & bn.S_elems)
    E0 = lo.fusion_of_partial(bn, lo.PartialSubgroup(bn, N.elems & bn.elems), base=T0)
    if E0 != E:
        return failed_report(
            rep.statement,
            rep.instance,
            {"part": "X=1-exactness", "E0_germs": len(E0.all_germs()), "E_germs": len(E.all_germs())},
            **rep.stats,
        )
    rep.stats["trivial_case_exact"] = 1
    return rep


# ---------------------------------------------------------------------------
# suite driver


@dataclass
class PreparedEntry:
    """A corpus entry with all derived structures built and validated."""

    name: str
    p: int
    G: FiniteGroup
    S: Subgroup
    F: fu.FusionSystem
    L: lo.Locality
    H: FiniteGroup
    T: Subgroup
    E: fu.FusionSystem
    N: lo.PartialSubgroup
    X_list: Optional[Tuple[Subgroup, ...]] = None
    K_descriptors: Optional[Tuple[str, ...]] = None


def prepare_entry(entry, word_len: int = 3):
    """Build and validate one corpus entry.

    Returns (PreparedEntry, axioms_report) on success or (None, report)
    when the entry is rejected; the report then carries the axiom witness.
    """
    name = entry.name
    G = gp.generate_group(entry.generators())
    p = entry.p
    S = gp.sylow_subgroup(G, p)
    F = fu.fusion_of_group(G, S, p)
    inst = "%s|G-order=%d|p=%d" % (name, G.order, p)
    sat = fu.saturation_failure(F)
    if sat is not None:
        return None, failed_report("Axioms", inst, {"saturation": sat})
    Delta = frozenset(P.elems for P in fu.subcentric_set(F))
    L = lo.build_group_locality(G, S, Delta, p)
    rep = lo.verify_subcentric_locality(L, F, word_len=word_len)
    if not rep.passed:
        return None, failed_report("Axioms", inst, {"subcentric-locality": rep.witness})
    H = gp.generate_group(entry.normal_generators())
    if not H.full_subgroup().is_normal_in(G.full_subgroup()):
        return None, failed_report("Axioms", inst, {"declared-normal": "not normal in G"})
    T = Subgroup(S.elems & H.elements)
    E = fu.fusion_of_group(H, T, p)
    if not fu.is_normal_subsystem(E, F):
        return None, failed_report("Axioms", inst, {"subsystem": "F_T(H) not normal in F"})
    try:
        N = lo.find_normal_for(L, E)
    except NotFound as exc:
        return None, failed_report("Axioms", inst, {"partial-normal": str(exc)})
    X_list = entry.X_subgroups(G, S)
    pe = PreparedEntry(
        name=name,
        p=p,
        G=G,
        S=S,
        F=F,
        L=L,
        H=H,
        T=T,
        E=E,
        N=N,
        X_list=X_list,
        K_descriptors=entry.K_descriptors(),
    )
    axioms = passed_report(
        "Axioms",
        inst,
        L_size=len(L.elems),
        objects=len(L.Delta),
        subgroups_of_S=len(F.subgroups()),
        T_order=T.order,
        N_size=len(N.elems),
    )
    return pe, axioms


def _k_label(idx: int, K: AutGroup) -> str:
    return "K%02d[o=%d]" % (idx, K.order)


def k_options(
    X: Subgroup, descriptors: Optional[Sequence[str]] = None
) -> List[Tuple[str, AutGroup]]:
    """K choices for a subgroup X.

    Default sweep: the named systems (full Aut, trivial, inner) plus every
    subgroup of Aut(X) when |Aut(X)| is within the cap. With explicit
    descriptors ("aut" | "id" | "inn" | "gens:<cycles>;..." acting on the
    index of the sorted elements of X) only those are used. Deduplicated,
    deterministic order.
    """
    A = gp.aut_group(X)
    out: List[Tuple[str, AutGroup]] = []
    seen = set()

    def push(tag: str, K: AutGroup):
        if K.maps not in seen:
            seen.add(K.maps)
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
                push(desc, _k_from_gens(X, A, desc[5:]))
            else:
                raise CorpusParseError("unknown K descriptor %r" % desc)
        return out

    push("aut", A)
    push("id", gp.trivial_aut_group(X))
    push("inn", gp.inn_group(X))
    if A.order <= AUT_CAP:
        subs = sorted(
            A.sub_autgroups(),
            key=lambda B: (B.order, tuple(sorted(B.perm_group().elements))),
        )
        for idx, K in enumerate(subs):
            push(_k_label(idx, K), K)
    return out


def _k_from_gens(X: Subgroup, A: AutGroup, spec: str) -> AutGroup:
    """Explicit K: permutation generators on the sorted element index of X."""
    try:
        perms = [perm_from_cycles(s, X.order) for s in spec.split(";") if s.strip()]
    except ValueError as exc:
        raise CorpusParseError("K=gens:%s: %s" % (spec, exc))
    if not perms:
        raise CorpusParseError("empty K generator list")
    closure = gp.mulclose(perms, cap=max(A.order, 1))
    K = A.subgroup_from_perms(closure)
    for m in K.maps:
        if m not in A.maps:
            raise CorpusParseError("K generator does not induce an automorphism of X")
    return K


def _p_subgroups(G: FiniteGroup, p: int) -> Tuple[Subgroup, ...]:
    return tuple(H for H in gp.all_subgroups(G) if gp.is_p_group(H, p))


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

    # group-level Lemma 2.2 over all p-subgroups of G
    if want("Lemma-2.2a") or want("Lemma-2.2b"):
        for X in _p_subgroups(pe.G, pe.p):
            xi = "%s|X=%s" % (name, X.label())
            if want("Lemma-2.2a"):
                NX = gp.normalizer(pe.G, X)
                CX = gp.centralizer(pe.G, X)
                for H in gp.all_subgroups(NX.group()):
                    if not CX.elems <= H.elems:
                        continue
                    reports.append(
                        check_char_p_normalizer_subgroup(
                            pe.G, pe.p, X, H, "%s|H=%s" % (xi, H.label())
                        )
                    )
            if want("Lemma-2.2b"):
                for tag, K in k_options(X, pe.K_descriptors):
                    reports.append(
                        check_char_p_normalizer_aut(
                            pe.G, pe.p, X, K, "%s|K=%s" % (xi, tag)
                        )
                    )

    # locality-level statements over subgroups of S
    X_sweep = pe.X_list if pe.X_list else pe.F.subgroups()
    for X in X_sweep:
        xi = "%s|X=%s" % (name, X.label())
        if want("Lemma-2.1") or want("Lemma-3.1") or want("Theorem-3.2a") or want("Theorem-3.2b"):
            for tag, K in k_options(X, pe.K_descriptors):
                inst = "%s|K=%s" % (xi, tag)
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
            for stmt in statements or STATEMENTS:
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
