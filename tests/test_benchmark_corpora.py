"""The benchmark's corpora, pinned: report bytes, exit status and the
partial-group check's exact counters.

Each workload of ``perfbench/run.py`` is run once here through
``cli.run``, its corpus read from ``perfbench/corpora`` (the default one
from the package), with the statement set the workload names. A spy on
``locality.verify_partial_group`` sums ``words_checked`` and
``domain_words`` over its calls, as the benchmark's tracer does, and
counts the calls and the distinct structures checked; the run sees one
usable CPU, so the spy sees every call. The check counts the words of
length 1 and 2 over each structure, and every one of them is in the
domain on these corpora, so the two counters agree.

order36 holds ``d12_c6``, rejected because N_L(1) = G is not of
characteristic 2, so its run exits 1 with that witness.

The benchmark's relabelling of points, ``perfbench/run.py::relabel``, is
imported as it is and must leave each entry's reports the same up to
labels.
"""

import hashlib
import importlib.util
import json
from collections import Counter
from pathlib import Path

import pytest

from plocal import cli
from plocal import locality as lo
from plocal import verify as vf
from .conftest import extended_corpus_text, one_cpu

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


@pytest.mark.parametrize("corpus", list(RELABELLED))
def test_reports_are_invariant_under_relabelling(corpus):
    """Relabelling each entry's points by a seeded permutation gives an
    isomorphic entry, so each entry's reports are the same up to the
    labels in instances and witnesses, at seeds 1, 2 and 3."""
    if corpus is None:
        text = cli.default_corpus_text()
    elif corpus == "extended_corpus.txt":
        text = extended_corpus_text()
    else:
        text = (CORPORA / corpus).read_text()
    relabel, expected = _relabel(), _per_entry(text)
    assert len(expected) == RELABELLED[corpus]
    for seed in (1, 2, 3):
        relabelled = relabel(text, seed)
        assert relabelled != text
        assert _per_entry(relabelled) == expected
