"""The benchmark's corpora, pinned: report bytes, exit status and the
partial-group check's exact counters.

Each workload of ``perfbench/run.py`` is run once here through
``cli.run``, its corpus read from ``perfbench/corpora`` (the default one
from the package), with the statement set the workload names. A spy on
``locality.verify_partial_group`` sums ``words_checked`` and
``domain_words`` over its calls, as the benchmark's tracer does, and
counts the calls and the distinct structures checked; the run sees one
usable CPU, so the spy sees every call. The report writer's text is
checked against json.dumps of the whole document. The check counts the
words of length 1 and 2 over each structure, and every one of them is in
the domain on these corpora, so the two counters agree.

order36 holds ``d12_c6``, rejected because N_L(1) = G is not of
characteristic 2, so its run exits 1 with that witness.

The benchmark's relabelling of points, ``perfbench/run.py::relabel``, is
imported as it is and must leave each entry's reports the same up to
labels. So must a second faithful action of each entry's group, which
changes the degree too.
"""

import functools
import hashlib
import importlib.util
import json
from collections import Counter
from pathlib import Path

import pytest

from plocal import cli
from plocal import locality as lo
from plocal import verify as vf
from plocal.perm import Perm, perm_from_cycles
from .conftest import extended_corpus_text, one_cpu, oracle_checked_writer

CORPORA = Path(__file__).resolve().parents[1] / "perfbench" / "corpora"

# workload: (corpus file or None for the default, statements, exit status,
# report sha256, verify_partial_group calls, words_checked)
WORKLOADS = {
    "default_corpus": (
        None, None, 0,
        "febe93c13e55c8fa746b2c7b05d9041d47a5f2b9e1df5e9b2a07282aa855ab1d", 20, 1824,
    ),
    "order36_axioms": (
        "order36_axioms.txt", None, 1,
        "13b2e35463f9066f645b4d89eaba1e4cfedd7876bd7816f9ea287272aeeb1d81", 6, 2604,
    ),
    "a4xc2_theorem": (
        # every statement but Lemma-2.1, as the workload runs it
        "a4xc2_theorem.txt", tuple(s for s in vf.STATEMENTS if s != "Lemma-2.1"), 0,
        "151f54001ee233487529040ff64be9f77b0018aa645282d6c7c78a6b2430ffa8", 1, 600,
    ),
}


def _run(tmp_path, corpus, statements):
    """Exit status, report bytes, the check's summed counters, its call
    count and the number of distinct structures it checked."""
    text = cli.default_corpus_text() if corpus is None else (CORPORA / corpus).read_text()
    real, calls, totals = lo.verify_partial_group, [], {"words_checked": 0, "domain_words": 0}

    def spy(P):
        calls.append((P.ambient, P.elems, P.Delta, P.S_elems))
        rep = real(P)
        for stat in totals:
            totals[stat] += rep.stats[stat]
        return rep

    report = tmp_path / "report.json"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lo, "verify_partial_group", spy)
        one_cpu(mp)
        oracle_checked_writer(mp)
        status = cli.run(cli.RunConfig(report_path=report, statements=statements), corpus_text=text)
    return status, report.read_bytes(), totals, len(calls), len(set(calls))


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_benchmark_workload_is_pinned(tmp_path, workload):
    corpus, statements, status, sha, calls, words = WORKLOADS[workload]
    got_status, body, totals, got_calls, distinct = _run(tmp_path, corpus, statements)
    assert got_status == status
    assert hashlib.sha256(body).hexdigest() == sha
    assert totals == {"words_checked": words, "domain_words": words}
    assert got_calls == distinct == calls
    if workload == "order36_axioms":
        failed = [r for r in json.loads(body) if r["outcome"] == "fail"]
        assert [(r["statement"], r["instance"].split("|")[0], r["witness"]) for r in failed] == [
            ("Axioms", "d12_c6", {"subcentric-locality": {"axiom": "N_L(P)-characteristic-p", "P": "{1}"}})
        ]


def _relabel():
    """perfbench/run.py's relabel."""
    spec = importlib.util.spec_from_file_location("perfbench_run", CORPORA.parent / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run.relabel


def _per_entry(text):
    """Each entry's multiset of (statement, outcome, reason, stats)."""
    out = {}
    for r in vf.run_suite(cli.parse_corpus(text))[0]:
        key = (r.statement, r.outcome, r.reason, json.dumps(r.stats, sort_keys=True))
        out.setdefault(r.instance.split("|", 1)[0], Counter())[key] += 1
    return out


# corpus: its number of entries; None is the default corpus, and the
# extended one (l27) is read from the package
RELABELLED = {None: 4, "order36_axioms.txt": 2, "extended_corpus.txt": 1}


def _corpus_text(corpus):
    if corpus is None:
        return cli.default_corpus_text()
    if corpus == "extended_corpus.txt":
        return extended_corpus_text()
    return (CORPORA / corpus).read_text()


@functools.cache
def _expected(corpus):
    """_per_entry of the corpus as it is, read once for both tests."""
    return _per_entry(_corpus_text(corpus))


@pytest.mark.parametrize("corpus", list(RELABELLED))
def test_reports_are_invariant_under_relabelling(corpus):
    """Relabelling each entry's points by a seeded permutation gives an
    isomorphic entry, so each entry's reports are the same up to the
    labels in instances and witnesses, at seeds 1, 2 and 3."""
    text = _corpus_text(corpus)
    relabel, expected = _relabel(), _expected(corpus)
    assert len(expected) == RELABELLED[corpus]
    for seed in (1, 2, 3):
        relabelled = relabel(text, seed)
        assert relabelled != text
        assert _per_entry(relabelled) == expected


def _regular(text):
    """Each entry rewritten in its right regular action: a generator g, of
    G or of the normal subgroup, sends the i-th sorted element x of G to
    the index of x*g."""
    out = []
    for e in cli.parse_corpus(text):
        assert not (e.X_strings or e.K_strings)
        els = tuple(e.G)

        def regular(specs):
            gens = (perm_from_cycles(s, e.degree) for s in specs)
            return ";".join(str(Perm(e.G.indexes(x * g for x in els))) for g in gens)

        out += ["group %s p=%d gens=%s" % (e.name, e.p, regular(e.gen_strings)),
                "normal gens=" + regular(e.normal_gen_strings)]
    return "\n".join(out) + "\n"


# PSL(2,7), l27's group, on the 8 points of the projective line over F_7
L27_ON_P1 = "(0 1 2 3 4 5 6);(1 2 4)(3 6 5);(0 7)(1 6)(2 3)(4 5)"


@pytest.mark.parametrize("corpus", list(RELABELLED))
def test_reports_are_invariant_under_a_second_action(corpus):
    """An entry rewritten in a second faithful action of its group has
    another degree, another sorted element order, another Sylow subgroup
    and other masks, and the same reports up to labels: the default and
    order36 entries in their right regular actions, and l27, PSL(2,7) on
    7 points, on the 8 points of P^1(F_7)."""
    if corpus == "extended_corpus.txt":
        second = "group l27 p=2 gens=%s\nnormal gens=%s\n" % (L27_ON_P1, L27_ON_P1)
    else:
        second = _regular(_corpus_text(corpus))
    pairs = zip(cli.parse_corpus(_corpus_text(corpus)), cli.parse_corpus(second))
    assert all(a.degree != b.degree and a.G.order == b.G.order for a, b in pairs)
    assert _per_entry(second) == _expected(corpus)
