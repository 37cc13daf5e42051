"""The benchmark's corpora, pinned: report bytes, exit status and the
axiom walk's exact counters.

Each workload of ``perfbench/run.py`` is run once here through
``cli.run``, its corpus read from ``perfbench/corpora`` (the default one
from the package), with the statement set the workload names. A spy on
``locality.verify_partial_group`` sums ``words_checked`` and
``domain_words`` over its calls, as the benchmark's tracer does, and
counts the calls and the distinct structures checked; the run sees one
usable CPU, so the spy sees every call. Every walk word is in the domain
on these corpora, so the two counters agree.

order36 holds ``d12_c6``, rejected because N_L(1) = G is not of
characteristic 2, so its run exits 1 with that witness.
"""

import hashlib
import json
from pathlib import Path

import pytest

from plocal import cli
from plocal import locality as lo
from plocal import verify as vf
from .conftest import one_cpu

CORPORA = Path(__file__).resolve().parents[1] / "perfbench" / "corpora"

# workload: (corpus file or None for the default, statements, exit status,
# report sha256, verify_partial_group calls, words_checked)
WORKLOADS = {
    "default_corpus": (
        None, None, 0,
        "febe93c13e55c8fa746b2c7b05d9041d47a5f2b9e1df5e9b2a07282aa855ab1d", 20, 33579,
    ),
    "order36_axioms": (
        "order36_axioms.txt", None, 1,
        "13b2e35463f9066f645b4d89eaba1e4cfedd7876bd7816f9ea287272aeeb1d81", 6, 69213,
    ),
    "a4xc2_theorem": (
        # every statement but Lemma-2.1, as the workload runs it
        "a4xc2_theorem.txt", tuple(s for s in vf.STATEMENTS if s != "Lemma-2.1"), 0,
        "151f54001ee233487529040ff64be9f77b0018aa645282d6c7c78a6b2430ffa8", 1, 14424,
    ),
}


def _run(tmp_path, corpus, statements):
    """Exit status, report bytes, the walk's summed counters, its call count
    and the number of distinct structures it checked."""
    text = cli.default_corpus_text() if corpus is None else (CORPORA / corpus).read_text()
    real, calls, totals = lo.verify_partial_group, [], {"words_checked": 0, "domain_words": 0}

    def spy(P, word_len=3):
        calls.append((P.ambient, P.elems, P.Delta, P.S_elems, word_len))
        rep = real(P, word_len)
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
