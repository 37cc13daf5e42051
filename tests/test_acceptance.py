"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the one-line
verdict per criterion. All tolerances are pinned here: the statement
checkers are exact (pass/fail), the runtime budgets are wall-clock upper
bounds, and the coverage floors are the stated instance counts.
"""

import hashlib
import time

import pytest

from plocal import cli
from plocal import fusion as fu
from plocal import groups as gp
from plocal import verify as vf
from . import oracles
from .conftest import perms


def _verdict(num, title, ok, detail=""):
    line = "ACCEPTANCE %d %-22s %s %s" % (num, title, "PASS" if ok else "FAIL", detail)
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def suite_run():
    entries = cli.parse_corpus(cli.default_corpus_text())
    t0 = time.perf_counter()
    reports, coverage = vf.run_suite(entries)
    elapsed = time.perf_counter() - t0
    return entries, reports, coverage, elapsed


def _by_statement(reports, stmt):
    return [r for r in reports if r.statement == stmt]


def test_criterion_1_axiom_soundness(suite_run):
    """Every entry: saturated fusion system and verified subcentric
    locality, or an explicit rejection with witness. >= 3 accepted;
    <= 5 minutes."""
    entries, reports, coverage, elapsed = suite_run
    axioms = _by_statement(reports, "Axioms")
    assert len(axioms) == len(entries)
    accepted = [r for r in axioms if r.passed]
    rejected = [r for r in axioms if r.failed]
    witnesses_ok = all(r.witness is not None for r in rejected)
    ok = len(accepted) >= 3 and witnesses_ok and elapsed <= 300
    _verdict(
        1,
        "axiom soundness",
        ok,
        "accepted=%d rejected=%d elapsed=%.1fs" % (len(accepted), len(rejected), elapsed),
    )


def test_criterion_2_lemma22_exhaustive(suite_run):
    """All characteristic-p corpus groups (|G| <= 48), all p-subgroups X,
    all K <= Aut(X) with K subnormal in K*Inn(X) (|Aut(X)| <= 24): the
    characteristic-p conclusion and the product identity hold in 100% of
    cases. <= 10 minutes."""
    entries, reports, coverage, elapsed = suite_run
    for e in entries:
        G = e.G
        assert G.order <= 48
        assert gp.is_characteristic_p(G, e.p)
    reps = _by_statement(reports, "Lemma-2.2b")
    fails = [r for r in reps if r.failed]
    passes = [r for r in reps if r.passed]
    identity_all = all(r.stats.get("identity_checked") == 1 for r in passes)
    ok = not fails and len(passes) >= 50 and identity_all and elapsed <= 600
    _verdict(
        2,
        "Lemma 2.2 exhaustive",
        ok,
        "pass=%d fail=%d identity=%s" % (len(passes), len(fails), identity_all),
    )


def test_criterion_3_lemma21_instances(suite_run):
    """>= 5 non-degenerate (X != 1) restricted triples pass the full
    subcentric verification; zero failures."""
    entries, reports, coverage, elapsed = suite_run
    c = coverage["Lemma-2.1"]
    ok = c["fail"] == 0 and c["nondegenerate_pass"] >= 5
    _verdict(3, "Lemma 2.1 instances", ok, "nondeg=%d fail=%d" % (c["nondegenerate_pass"], c["fail"]))


def test_criterion_4_lemma31_exhaustive(suite_run):
    """Exhaustive over fully-K-normalized (X, K) pairs in the corpus sweep:
    100% pass, with >= 3 instances where K is neither Aut(X) nor {id}."""
    entries, reports, coverage, elapsed = suite_run
    reps = _by_statement(reports, "Lemma-3.1")
    fails = [r for r in reps if r.failed]
    passes = [r for r in reps if r.passed]
    unnamed = [
        r
        for r in passes
        if r.instance.rsplit("K=", 1)[1] not in ("aut", "id")
    ]
    ok = not fails and len(unnamed) >= 3 and len(passes) >= 20
    _verdict(
        4,
        "Lemma 3.1 exhaustive",
        ok,
        "pass=%d fail=%d K-beyond-named=%d" % (len(passes), len(fails), len(unnamed)),
    )


def test_criterion_5_main_theorem(suite_run):
    """For (S4, A4, p=2) and at least one other pair, all conditions pass
    for every admissible (X, K); the O^p cross-check agrees with the
    p-power-index computation in every instance. <= 15 minutes."""
    entries, reports, coverage, elapsed = suite_run
    reps = [r for r in reports if r.statement in ("Theorem-3.2a", "Theorem-3.2b")]
    fails = [r for r in reps if r.failed]
    entries_with_pass = {r.instance.split("|", 1)[0] for r in reps if r.passed}
    agree = all(
        r.stats.get("v_routes_agree") == 1
        for r in reps
        if r.statement == "Theorem-3.2b" and r.outcome != "skipped"
    )
    ok = (
        not fails
        and "s4_a4" in entries_with_pass
        and len(entries_with_pass) >= 2
        and agree
        and elapsed <= 900
    )
    _verdict(
        5,
        "Theorem 3.2",
        ok,
        "entries=%s agree=%s fail=%d" % (sorted(entries_with_pass), agree, len(fails)),
    )


def test_criterion_6_corollary(suite_run):
    """Both specializations pass wherever defined; X = 1 reproduces
    E_0 = E exactly."""
    entries, reports, coverage, elapsed = suite_run
    reps = [r for r in reports if r.statement.startswith("Corollary-3.3")]
    fails = [r for r in reps if r.failed]
    skips_ok = all(
        r.reason in ("not-fully-K-normalized",) for r in reps if r.outcome == "skipped"
    )
    trivial = [r for r in reps if "|X={1}|" in r.instance and r.passed]
    trivial_exact = trivial and all(r.stats.get("trivial_case_exact") == 1 for r in trivial)
    n_pass = sum(1 for r in reps if r.passed)
    ok = not fails and skips_ok and bool(trivial_exact) and n_pass >= 20
    _verdict(
        6,
        "Corollary 3.3",
        ok,
        "pass=%d fail=%d trivial-exact=%s" % (n_pass, len(fails), bool(trivial_exact)),
    )


# -- criterion 7: oracle equivalence -------------------------------------------


def _library():
    """Small-group library spanning orders up to 24 (plus rank-4 C2^4)."""
    specs = {
        "C1": (1, ["()"]),
        "C2": (2, ["(0 1)"]),
        "C3": (3, ["(0 1 2)"]),
        "C4": (4, ["(0 1 2 3)"]),
        "V4": (4, ["(0 1)(2 3)", "(0 2)(1 3)"]),
        "C6": (5, ["(0 1 2)(3 4)"]),
        "S3": (3, ["(0 1 2)", "(0 1)"]),
        "C8": (8, ["(0 1 2 3 4 5 6 7)"]),
        "D8": (4, ["(0 1 2 3)", "(0 2)"]),
        "Q8": (8, ["(0 2 1 5)(3 4 7 6)", "(0 4 1 6)(2 3 5 7)"]),
        "C2^3": (6, ["(0 1)", "(2 3)", "(4 5)"]),
        "C3^2": (6, ["(0 1 2)", "(3 4 5)"]),
        "D12": (6, ["(0 1 2 3 4 5)", "(1 5)(2 4)"]),
        "A4": (4, ["(0 1 2)", "(0 1)(2 3)"]),
        "D10": (5, ["(0 1 2 3 4)", "(1 4)(2 3)"]),
        "C2^4": (8, ["(0 1)", "(2 3)", "(4 5)", "(6 7)"]),
        "D16": (8, ["(0 1 2 3 4 5 6 7)", "(1 7)(2 6)(3 5)"]),
        "C7:C3": (7, ["(0 1 2 3 4 5 6)", "(1 2 4)(3 6 5)"]),
        "S4": (4, ["(0 1 2 3)", "(0 1)"]),
        "SL23": (8, ["(2 3 4)(5 7 6)", "(0 2 1 5)(3 4 7 6)"]),
    }
    return {
        name: gp.generate_group(perms(deg, *gens))
        for name, (deg, gens) in specs.items()
    }


def test_criterion_7_oracle_equivalence():
    """Subgroup enumeration, subnormality, Sylow subgroups and O_p agree
    with brute-force oracles on every library group of order <= 24,
    exhaustively over all subgroups and all primes dividing the order."""
    lib = _library()
    assert all(G.order <= 24 for G in lib.values())
    checked = 0
    for name, G in sorted(lib.items()):
        mine = {H.elems for H in gp.all_subgroups(G)}
        oracle_sets = oracles.generated_subgroups(G)
        assert mine == oracle_sets, name
        if G.order <= 8:
            assert mine == oracles.powerset_subgroups(G), name
        primes = sorted({d for d in range(2, G.order + 1) if G.order % d == 0 and all(d % q for q in range(2, d))})
        for p in primes or [2]:
            syl = gp.sylow_subgroup(G, p)
            assert syl.order == oracles.max_p_power_subgroup_order(oracle_sets, p), (name, p)
            core = gp.core_Op(G, p)
            assert core.elems == oracles.largest_normal_p_subgroup(G, oracle_sets, p), (name, p)
        for H in gp.all_subgroups(G):
            got = gp.is_subnormal(H, G)
            want = oracles.subnormal_by_chain_search(H, G, oracle_sets)
            assert got == want, (name, H.label())
            checked += 1
    _verdict(7, "oracle equivalence", True, "groups=%d subnormal-cases=%d" % (len(lib), checked))


def test_subnormality_agrees_on_order_48_group():
    """The groups-module invariant extends to order 48; chain search uses
    the (already oracle-validated) lattice as its candidate pool."""
    G = gp.generate_group(perms(6, "(0 1 2 3)", "(0 1)", "(4 5)"))  # S4 x C2
    assert G.order == 48
    pool = {H.elems for H in gp.all_subgroups(G)}
    for H in gp.all_subgroups(G):
        assert gp.is_subnormal(H, G) == oracles.subnormal_by_chain_search(H, G, pool)


# sha256 of the canonical default-corpus report, fixed by the ROADMAP
DEFAULT_REPORT_SHA256 = "febe93c13e55c8fa746b2c7b05d9041d47a5f2b9e1df5e9b2a07282aa855ab1d"


def test_criterion_8_determinism(tmp_path):
    """Two consecutive runs on the default corpus produce byte-identical
    canonical report bodies, and those are the reference report's bytes."""
    r1, r2 = tmp_path / "one.json", tmp_path / "two.json"
    s1 = cli.run(cli.RunConfig(report_path=r1), None)
    s2 = cli.run(cli.RunConfig(report_path=r2), None)
    digest = hashlib.sha256(r1.read_bytes()).hexdigest()
    ok = (
        s1 == 0
        and s2 == 0
        and r1.read_bytes() == r2.read_bytes()
        and digest == DEFAULT_REPORT_SHA256
    )
    _verdict(8, "determinism", ok, "bytes=%d sha256=%s" % (len(r1.read_bytes()), digest))
