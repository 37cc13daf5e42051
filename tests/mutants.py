"""Single-clause mutants of plocal, each with the test that kills it.

pytest does not collect this file (its name has no ``test_`` prefix);
``tests/test_mutant_list.py`` checks, in the tier-1 suite, that every old
text below occurs exactly once in its file and that every killing test is
defined, so the list cannot rot silently.

A mutant deletes one clause of a verdict: one exact text of one file under
``src/plocal`` replaced by another. The list holds the clauses of
``verify_locality`` and ``verify_subcentric_locality`` that a test makes
fail first, Delta-is-subcentric-set among them; the two of
``partial_subgroup_violation`` that ``verify_partial_group`` reads; the
refusal of a ``Locality`` to rebind an attribute; the (Q2) check of
``restrict`` and the key of the action classes it conjugates objects by;
the clauses of saturation, full K-normalization, p-power index and weak
normality in ``fusion`` and its refusal to compare two systems in
different frames; the two reads of Aut(X)'s search in the K sweep of
``verify.k_options``, each cut one map short, and the cap's read made to
depend on X's degree, which only a second action of the entry's group
shows; the step of ``groups.coset_join``, the group layer's one closure,
that queues a new coset's rep; and the verdicts of two statement checkers
that only a wrong helper can make fail, Lemma-2.2b's product identity and
Lemma-3.1's conclusion, killed by wiring controls that monkeypatch the
helper. Run from the root of a checkout:

    python tests/mutants.py              # every mutant
    python tests/mutants.py NAME ...     # the named ones

For each mutant the runner copies ``src/`` to a temporary directory,
applies the mutant there, and runs its killing test with ``-x`` against
that copy (``-o pythonpath=...``), from the checkout's root. It prints
``killed`` or ``SURVIVED`` per mutant and exits 1 when a mutant with a
killing test survives or a run errors. A known survivor has no killing
test: the runner runs the whole suite on it, with ``-x``, and expects it
to survive; it is listed so that the test that kills it can be named here
when there is one.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple, Optional

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the root of the checkout
    old: str  # occurs exactly once in file
    new: str
    test: Optional[str]  # the killing test's node id; None for a known survivor


LOC, FUS, VER = "src/plocal/locality.py", "src/plocal/fusion.py", "src/plocal/verify.py"
GRP = "src/plocal/groups.py"
CLAUSE = "tests/test_locality.py::test_each_locality_clause_fails_first_on_its_witness[%s]"

MUTANTS = (
    Mutant("S-p-group", LOC, "if not is_p_group(L.S, L.p):", "if False:", CLAUSE % "S-p-group"),
    Mutant("S-maximal", LOC, "if not _is_max_p_subgroup(L):", "if False:", CLAUSE % "S-maximal"),
    Mutant("Delta-in-S", LOC, "if d not in whole:", "if False:", CLAUSE % "Delta-in-S"),
    Mutant(
        "Delta-conjugation", LOC, "if img is not None and img not in L.Delta:", "if False:",
        CLAUSE % "Delta-conjugation",
    ),
    Mutant(
        "Delta-overgroups", LOC, "if not d & ~H and H not in L.Delta:", "if False:",
        CLAUSE % "Delta-overgroups",
    ),
    Mutant(
        "length-one-domain", LOC, "if not L.word_ok((f,)):", "if False:",
        CLAUSE % "length-one-domain",
    ),
    Mutant(
        "locality-immutable", LOC,
        '    def __setattr__(self, name, value):\n        raise AttributeError("Locality is immutable")\n',
        "", "tests/test_locality.py::test_a_locality_and_its_rule_refuse_assignment",
    ),
    Mutant(
        "inversion-closure", LOC, "if not elems >> inv[x] & 1:", "if False:",
        CLAUSE % "inversion-closure",
    ),
    Mutant("pair-product", LOC, "if not elems >> ab & 1:", "if False:", CLAUSE % "splice-domain"),
    Mutant(
        "same-S", LOC, "if L.S != F.S:", "if False:",
        "tests/test_locality.py::test_subcentric_rejects_another_base",
    ),
    Mutant(
        "Delta-is-subcentric-set", LOC,
        "if frozenset(L.S.mask(P) for P in subcentric_set(F)) != L.Delta:", "if False:",
        "tests/test_locality.py::test_subcentric_rejects_wrong_delta",
    ),
    Mutant(
        "F_S(L)-is-F", LOC, "if FL != F:", "if False:",
        "tests/test_locality.py::test_subcentric_rejects_another_fusion_system",
    ),
    Mutant(
        "restrict-Q2", LOC,
        'raise Q2Violated("transporter element does not move <P1,X> onto <P2,X>")', "pass",
        "tests/test_locality.py::test_restrict_q2_error",
    ),
    Mutant(
        "restrict-action-key", LOC, "key = sf[f], L.conj_pos[f]", "key = sf[f]",
        "tests/test_locality.py::test_delta_closure_rejected[missing-conjugate]",
    ),
    Mutant(
        "p-power-index-hyperfocal", FUS, "        and hyperfocal_subgroup(F) <= D.S\n", "",
        "tests/test_fusion.py::test_p_power_index_needs_the_hyperfocal_subgroup_inside",
    ),
    Mutant(
        "p-power-index-Op", FUS,
        "        and all(op_residual(F.aut(P), F.p).maps <= D.aut(P).maps for P in D.subgroups())\n",
        "", "tests/test_fusion.py::test_p_power_index",
    ),
    Mutant(
        "saturation-fully-automized", FUS, "if autS.order != p_part(autF.order, F.p):", "if False:",
        "tests/test_fusion.py::test_unsaturated_witness",
    ),
    Mutant(
        "saturation-receptive", FUS, "if not _extends_over(F, phi, Nphi):", "if False:",
        "tests/test_fusion.py::test_unreceptive_witness",
    ),
    Mutant(
        "fully-K-normalized", FUS,
        "def _fully_K(F: FusionSystem, X: Subgroup, K: AutGroup) -> bool:\n",
        "def _fully_K(F: FusionSystem, X: Subgroup, K: AutGroup) -> bool:\n    return True\n",
        "tests/test_fusion.py::test_fully_normalized_cases",
    ),
    Mutant(
        "weakly-normal-strongly-closed", FUS, "if not is_strongly_closed(F, T):", "if False:",
        "tests/test_fusion.py::test_non_strongly_closed_base_is_not_normal",
    ),
    Mutant(
        "weakly-normal-Frattini", FUS,
        "if not _img(phi) & ~t and not _frattini_factors(E, autFT, phi):", "if False:",
        "tests/test_fusion.py::test_inner_sylow_subsystem_not_normal_in_s4_system",
    ),
    Mutant(
        "frame-mismatch", FUS, 'raise ValueError("the two systems are in different frames")', "pass",
        "tests/test_fusion.py::test_systems_in_two_frames_are_never_compared",
    ),
    Mutant(
        "k-sweep-cap-read", VER, "A.order_at_least(AUT_CAP + 1)", "A.order_at_least(AUT_CAP)",
        "tests/test_verify.py::test_k_sweep_holds_every_subgroup_of_aut_q8",
    ),
    Mutant(
        "k-sweep-degree-read", VER, "A.order_at_least(AUT_CAP + 1)",
        "A.order_at_least(AUT_CAP + 1 - X.degree)",
        "tests/test_benchmark_corpora.py::test_reports_are_invariant_under_a_second_action",
    ),
    Mutant(
        "coset-join-reps", GRP, "reps.append(y)", "pass",
        "tests/test_locality.py::test_coset_join_matches_mulclose",
    ),
    Mutant(
        "k-sweep-dedup-read", VER, "A.order_at_least(K.order + 1)", "A.order_at_least(K.order)",
        "tests/test_verify.py::test_k_sweep_drops_id_and_inn_where_aut_x_is_trivial",
    ),
    Mutant(
        "lemma-2.2b-product-identity", VER, "if NKI.home_mask != prod:", "if False:",
        "tests/test_verify.py::test_lemma22b_fails_on_a_wrong_product_identity",
    ),
    Mutant(
        "lemma-3.1-conclusion", VER, "if fu.is_fully_K_normalized(EX, X, K):", "if True:",
        "tests/test_verify.py::test_lemma31_fails_where_EX_says_not_fully_K_normalized",
    ),
)

# No test yet tells a normal subsystem from one that lacks only the
# extension property (the first open item of ROADMAP.md).
SURVIVORS = (
    Mutant(
        "extension-property", FUS,
        "def _has_extension_property(E: FusionSystem, F: FusionSystem) -> bool:\n",
        "def _has_extension_property(E: FusionSystem, F: FusionSystem) -> bool:\n    return True\n",
        None,
    ),
)


def run(m: Mutant) -> str:
    """'killed', 'survived' or 'error: ...' for one mutant."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        path = Path(tmp) / m.file
        text = path.read_text()
        if text.count(m.old) != 1:
            return "error: old text occurs %d times" % text.count(m.old)
        path.write_text(text.replace(m.old, m.new))
        cmd = [
            sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
            "-o", "pythonpath=%s" % src, m.test or "tests",
        ]
        code = subprocess.run(cmd, cwd=ROOT, capture_output=True).returncode
    return {0: "survived", 1: "killed"}.get(code, "error: pytest exit %d" % code)


def main(names) -> int:
    chosen = [m for m in MUTANTS + SURVIVORS if not names or m.name in names]
    bad = 0
    for m in chosen:
        out = run(m)
        expected = "survived" if m.test is None else "killed"
        bad += out != expected
        label = out if out != "survived" else "SURVIVED" + (" (known)" if m.test is None else "")
        print("%-30s %s" % (m.name, label), flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
