"""Corpus parsing, config validation, report output, determinism, the
files a run writes, and exit codes."""

import hashlib
import json
import re
import time
from pathlib import Path

import pytest

from plocal import cli
from plocal import groups as gp
from plocal.errors import CorpusParseError, KDescriptorNotForX, NormalityError

GOOD = """
# comment line
group s3_a3 p=3 gens=(0 1 2);(0 1)
normal gens=(0 1 2)
"""

WITH_XK = """
group d8 p=2 gens=(0 1 2 3);(0 2)
normal gens=(0 1 2 3);(0 2)
X=(0 1)(2 3)
K=aut
K=id
"""


def test_parse_empty():
    assert cli.parse_corpus("") == []
    assert cli.parse_corpus("# only a comment\n") == []


def test_parse_default_corpus_has_four_entries():
    entries = cli.parse_corpus(cli.default_corpus_text())
    assert [e.name for e in entries] == ["s4_a4", "d8_d8", "s3_a3", "sl23_q8"]
    assert [e.p for e in entries] == [2, 2, 3, 2]
    orders = [e.G.order for e in entries]
    assert orders == [24, 8, 6, 24]


def test_parse_round_trip_fields():
    (e,) = cli.parse_corpus(GOOD)
    assert e.name == "s3_a3" and e.p == 3
    assert e.G.order == 6
    assert e.H.order == 3


def test_parse_x_and_k_lines():
    (e,) = cli.parse_corpus(WITH_XK)
    G = e.G
    S = gp.sylow_subgroup(G, 2)
    xs = e.X_subgroups(S)
    assert len(xs) == 1 and xs[0].order == 2
    assert e.K_descriptors() == ("aut", "id")


def test_parse_errors_carry_line_numbers():
    with pytest.raises(CorpusParseError) as ei:
        cli.parse_corpus("group broken\n")
    assert ei.value.line == 1
    with pytest.raises(CorpusParseError) as ei:
        cli.parse_corpus("normal gens=(0 1)\n")
    assert ei.value.line == 1
    with pytest.raises(CorpusParseError):
        cli.parse_corpus("group g p=4 gens=(0 1)\n")  # 4 is not prime
    with pytest.raises(CorpusParseError):
        cli.parse_corpus("group g p=2 gens=(0 1)\nnonsense\n")


def test_prime_check_is_fast_for_a_large_prime():
    t0 = time.perf_counter()
    (e,) = cli.parse_corpus("group big p=1000000007 gens=(0 1)\n")
    assert time.perf_counter() - t0 < 1.0
    assert e.p == 1000000007
    with pytest.raises(CorpusParseError, match="not prime"):
        cli.parse_corpus("group g p=121 gens=(0 1)\n")  # 11 * 11


def test_parse_rejects_non_normal_subgroup():
    bad = "group s3 p=3 gens=(0 1 2);(0 1)\nnormal gens=(0 1)\n"
    with pytest.raises(NormalityError, match="not normal"):
        cli.parse_corpus(bad)
    # (2 3) moves the fourth point, which S3 fixes
    outside = "group s3 p=3 gens=(0 1 2);(0 1)\nnormal gens=(2 3)\n"
    with pytest.raises(NormalityError, match="declared subgroup is not inside the group"):
        cli.parse_corpus(outside)


def test_x_outside_sylow_rejected():
    text = "group s3 p=3 gens=(0 1 2);(0 1)\nnormal gens=(0 1 2)\nX=(0 1)\n"
    (e,) = cli.parse_corpus(text)
    G = e.G
    S = gp.sylow_subgroup(G, 3)
    with pytest.raises(CorpusParseError):
        e.X_subgroups(S)


def test_run_config_validation():
    with pytest.raises(ValueError):
        cli.RunConfig(statements=("Lemma-9.9",))


def test_run_small_corpus(tmp_path, capsys):
    report = tmp_path / "r.json"
    config = cli.RunConfig(report_path=report)
    status = cli.run(config, corpus_text=GOOD)
    assert status == 0
    doc = json.loads(report.read_text())
    assert isinstance(doc, list)
    assert {r["statement"] for r in doc} >= {"Axioms", "Lemma-2.1"}
    out = capsys.readouterr().out
    assert "statement" in out and "reports in" in out


C3WRC3_SHA256 = "74f22f15a55ff888121cf09e86e62c6adf3c5b814a898af2c943701802c87137"

CAPPED = GOOD + """
group c2e9 p=2 gens=(0 1);(2 3);(4 5);(6 7);(8 9);(10 11);(12 13);(14 15);(16 17)
"""


@pytest.mark.slow
def test_a_cap_rejects_only_its_own_entry(tmp_path, capsys):
    """C2^9 on 18 points at p = 2: the subgroup lattice of S = G, of order
    512, is past the subgroup cap. That entry's reports become one failed
    Axioms report naming the cap and a skip per statement; s3_a3, before
    it, keeps its reports, and the report is written with status 1."""
    alone, report = tmp_path / "alone.json", tmp_path / "r.json"
    assert cli.run(cli.RunConfig(report_path=alone), corpus_text=GOOD) == 0
    assert cli.run(cli.RunConfig(report_path=report), corpus_text=CAPPED) == 1
    doc = json.loads(report.read_text())
    capped = [r for r in doc if r["instance"].startswith("c2e9|")]
    assert [r for r in doc if r not in capped] == json.loads(alone.read_text())
    axioms, *skips = capped
    assert axioms["statement"] == "Axioms" and axioms["outcome"] == "fail"
    assert axioms["witness"] == {"cap": "group order 512 exceeds subgroup cap 400"}
    assert len(skips) == 8 and {r["reason"] for r in skips} == {"entry-rejected"}
    assert "suite error" not in capsys.readouterr().err


def test_a_group_past_the_element_cap_is_corpus_error(tmp_path, capsys):
    """S8 meets the element cap while its entry is read: a corpus error
    naming the entry and its line, exit 2, as for a bad generator."""
    assert _main_on(tmp_path, GOOD + "group s8 p=2 gens=(0 1 2 3 4 5 6 7);(0 1)\n") == 2
    assert "line 5: entry s8: closure exceeded cap 10000" in capsys.readouterr().err


@pytest.mark.slow
def test_c3_wreath_c3_without_k_lines_is_pinned(tmp_path):
    """C3 wr C3 at p = 3 with no K lines: S = G has order 81, past the
    automorphism base cap, yet the default K sweep reads Aut(X) only as far
    as a verdict needs (a prefix for its cap, Aut(X) itself through
    Aut_F(X) and N_G(X)), so the entry is checked in full."""
    code, doc = _reports_of(tmp_path, "group c3wrc3 p=3 gens=(0 1 2);(0 3 6)(1 4 7)(2 5 8)\n")
    assert code == 0 and len(doc) == 909 and not any(r["outcome"] == "fail" for r in doc)
    body = (tmp_path / "report.json").read_bytes()
    assert hashlib.sha256(body).hexdigest() == C3WRC3_SHA256


def test_statement_filter(tmp_path):
    report = tmp_path / "r.json"
    config = cli.RunConfig(report_path=report, statements=("Lemma-2.2b",))
    assert cli.run(config, corpus_text=GOOD) == 0
    doc = json.loads(report.read_text())
    checker_stmts = {r["statement"] for r in doc} - {"Axioms"}
    assert checker_stmts == {"Lemma-2.2b"}


def test_byte_identical_reports_and_cache_neutrality(tmp_path):
    r1, r2 = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.run(cli.RunConfig(report_path=r1), GOOD) == 0
    assert cli.run(cli.RunConfig(report_path=r2), GOOD) == 0
    assert r1.read_bytes() == r2.read_bytes()


def test_failing_entry_sets_exit_one(tmp_path):
    # A5 at p=2 is rejected (its naive locality is not subcentric), which
    # is an axiom fail and must surface as exit status 1
    corpus = "group a5 p=2 gens=(0 1 2 3 4);(0 1 2)\nnormal gens=(0 1 2 3 4);(0 1 2)\n"
    config = cli.RunConfig(report_path=tmp_path / "r.json")
    assert cli.run(config, corpus) == 1
    doc = json.loads((tmp_path / "r.json").read_text())
    ax = [r for r in doc if r["statement"] == "Axioms"]
    assert ax and ax[0]["outcome"] == "fail"
    skips = [r for r in doc if r["outcome"] == "skipped"]
    assert all(r["reason"] == "entry-rejected" for r in skips)


def test_main_exit_codes(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("group broken\n")
    assert cli.main(["--corpus", str(bad)]) == 2
    missing = tmp_path / "missing.txt"
    assert cli.main(["--corpus", str(missing)]) == 2


def test_unwritable_report_is_config_error(tmp_path):
    config = cli.RunConfig(report_path=tmp_path / "nope" / "r.json")
    assert cli.run(config, GOOD) == 2


def _main_on(tmp_path, corpus, *flags):
    path = tmp_path / "corpus.txt"
    path.write_bytes(corpus if isinstance(corpus, bytes) else corpus.encode())
    return cli.main(["--corpus", str(path), *flags])


def test_repeated_point_in_x_is_corpus_error(tmp_path, capsys):
    assert _main_on(tmp_path, GOOD + "X=(0 1 2)(0 2 1)\n") == 2
    assert "point 0 repeated" in capsys.readouterr().err


def test_bad_point_in_k_generators_is_corpus_error(tmp_path, capsys):
    corpus = GOOD + "K=gens:(0 q)\n"
    assert _main_on(tmp_path, corpus, "--statement", "Lemma-2.2b") == 2
    assert "bad point 'q'" in capsys.readouterr().err


D8_K = """
group d8k p=2 gens=(0 1 2 3);(0 2)
normal gens=(0 1 2 3);(0 2)
X=(0 2)(1 3);(0 2)
K=gens:(1 2)
"""


def _reports_of(tmp_path, corpus, *flags):
    out = tmp_path / "report.json"
    code = _main_on(tmp_path, corpus, "--report", str(out), *flags)
    return code, json.loads(out.read_text())


def test_k_descriptor_not_for_x_is_skipped(tmp_path):
    """(1 2) swaps two elements of a four-group, which is an automorphism;
    on the p-subgroups of another order, or the cyclic one, it is none."""
    code, reports = _reports_of(tmp_path, D8_K)
    assert code == 0
    unfit = [r for r in reports if r.get("reason") == "K-descriptor-not-for-X"]
    assert {r["statement"] for r in unfit} == {"Lemma-2.2b"}
    assert {r["instance"].split("|")[1] for r in unfit} >= {"X={1}", "X={(0 2)}"}
    ran = [r for r in reports if r["statement"] == "Lemma-2.2b" and r not in unfit]
    assert len(ran) == 2 and all(r["outcome"] == "pass" for r in ran)
    named = [r for r in reports if r["statement"] == "Lemma-2.1"]
    assert [r["outcome"] for r in named] == ["pass"]
    # without X= lines the locality sweep skips it too, once per statement
    code, reports = _reports_of(
        tmp_path, D8_K.replace("X=(0 2)(1 3);(0 2)\n", ""), "--statement", "Lemma-2.1",
        "--statement", "Theorem-3.2b",
    )
    assert code == 0
    at_one = [r for r in reports if "|X={1}|" in r["instance"]]
    assert sorted((r["statement"], r["reason"]) for r in at_one) == [
        ("Lemma-2.1", "K-descriptor-not-for-X"),
        ("Theorem-3.2b", "K-descriptor-not-for-X"),
    ]


def _report_keys(reports):
    return [(r["statement"], r["instance"]) for r in reports]


def test_x_lines_naming_one_subgroup_give_it_once(tmp_path):
    one_line = "group d8 p=2 gens=(0 1 2 3);(0 2)\nX=(0 2)\nK=aut\n"
    twice = one_line.replace("X=(0 2)\n", "X=(0 2)\nX=(0 2);()\n")
    (entry,) = cli.parse_corpus(twice)
    G = entry.G
    assert len(entry.X_subgroups(gp.sylow_subgroup(G, 2))) == 1
    out_one, out_twice = tmp_path / "one.json", tmp_path / "twice.json"
    assert _main_on(tmp_path, one_line, "--report", str(out_one)) == 0
    assert _main_on(tmp_path, twice, "--report", str(out_twice)) == 0
    assert out_twice.read_bytes() == out_one.read_bytes()
    keys = _report_keys(json.loads(out_twice.read_text()))
    assert len(keys) == len(set(keys))


def test_repeated_statement_flag_skips_a_rejected_entry_once(tmp_path):
    corpus = Path(__file__).resolve().parents[1] / "perfbench" / "corpora" / "order36_axioms.txt"
    corpus = corpus.read_text()
    once, twice = tmp_path / "once.json", tmp_path / "twice.json"
    assert _main_on(tmp_path, corpus, "--report", str(once), "--statement", "Lemma-3.1") == 1
    flags = ("--statement", "Lemma-3.1", "--statement", "Lemma-3.1")
    assert _main_on(tmp_path, corpus, "--report", str(twice), *flags) == 1
    assert twice.read_bytes() == once.read_bytes()
    keys = _report_keys(json.loads(twice.read_text()))
    assert keys.count(("Lemma-3.1", "d12_c6|entry")) == 1
    assert len(keys) == len(set(keys))


def test_k_descriptor_not_for_named_x_is_corpus_error(tmp_path, capsys):
    corpus = D8_K.replace("X=(0 2)(1 3);(0 2)", "X=(0 2)").replace("(1 2)", "(0 1)")
    assert _main_on(tmp_path, corpus) == 2
    assert "K=gens:(0 1)" in capsys.readouterr().err
    assert _main_on(tmp_path, corpus, "--statement", "Lemma-2.2b") == 2
    assert "K=gens:(0 1)" in capsys.readouterr().err


def test_non_utf8_corpus_is_corpus_error(tmp_path, capsys):
    assert _main_on(tmp_path, GOOD.encode() + b"# \xff\xfe\n") == 2
    assert "corpus error" in capsys.readouterr().err


def test_non_integer_point_is_named(tmp_path, capsys):
    assert _main_on(tmp_path, "group g p=2 gens=(0 x)\n") == 2
    err = capsys.readouterr().err
    assert "bad point 'x'" in err and "no points" not in err


def test_second_normal_line_is_corpus_error(tmp_path, capsys):
    with pytest.raises(CorpusParseError) as ei:
        cli.parse_corpus(GOOD + "normal gens=(0 1)\n")
    assert ei.value.line == 5
    assert _main_on(tmp_path, GOOD + "normal gens=(0 1)\n") == 2
    assert "second normal line" in capsys.readouterr().err


def test_empty_normal_generator_list_is_corpus_error(tmp_path, capsys):
    """An empty ``normal gens=`` list is refused on its line, so a second
    normal line cannot follow it and win; ``normal gens=()`` is the
    trivial group."""
    empty = "group a p=2 gens=(0 1)\nnormal gens=\n"
    for corpus in (empty, empty + "normal gens=(0 1)\n"):
        with pytest.raises(CorpusParseError, match="empty normal generator list") as ei:
            cli.parse_corpus(corpus)
        assert ei.value.line == 2
    assert _main_on(tmp_path, empty + "normal gens=(0 1)\n") == 2
    assert "line 2: empty normal generator list" in capsys.readouterr().err
    (entry,) = cli.parse_corpus("group a p=2 gens=(0 1)\nnormal gens=()\n")
    assert entry.G.order == 2 and entry.H.order == 1


A5 = "group a5 p=2 gens=(0 1 2 3 4);(0 1 2)\n"


@pytest.mark.parametrize(
    "line, message",
    [
        ("K=bogus", "unknown K descriptor 'bogus'"),
        ("K=gens:", "empty K generator list"),
        ("K=gens:(0 q)", "bad point 'q'"),
        ("X=(0 1", "bad cycle notation"),
        ("X=(0 1 2)(0 2 1)", "point 0 repeated"),
        ("normal gens=(0 1 q)", "bad point 'q'"),
    ],
)
def test_line_notation_is_checked_at_load(tmp_path, capsys, line, message):
    """The notation of K=, X= and normal lines is checked at load, on
    their line, so the lines of A5 at p = 2, an entry the suite rejects
    before any sweep, are checked too; a later bad line waits for the
    first."""
    corpus = A5 + line + "\nX=(0 1\n"
    with pytest.raises(CorpusParseError, match=re.escape(message)) as ei:
        cli.parse_corpus(corpus)
    assert ei.value.line == 2 and not isinstance(ei.value, KDescriptorNotForX)
    assert _main_on(tmp_path, corpus) == 2
    assert "corpus error: line 2: " in capsys.readouterr().err


def test_repeated_group_name_is_corpus_error(tmp_path, capsys):
    with pytest.raises(CorpusParseError) as ei:
        cli.parse_corpus(GOOD + GOOD)
    assert ei.value.line == 7
    assert _main_on(tmp_path, GOOD + GOOD) == 2
    assert "repeated group name 's3_a3'" in capsys.readouterr().err


def test_cli_writes_only_its_report(tmp_path, monkeypatch):
    home, xdg, out = (tmp_path / n for n in ("home", "xdg", "out"))
    for d in (home, xdg, out):
        d.mkdir()
    monkeypatch.setenv("HOME", str(home))
    monkeypatch.setenv("XDG_CACHE_HOME", str(xdg))
    monkeypatch.chdir(out)
    corpus = out / "corpus.txt"
    corpus.write_text(GOOD)
    report = out / "r.json"
    assert cli.main(["--corpus", str(corpus), "--report", str(report)]) == 0
    assert list(home.iterdir()) == [] and list(xdg.iterdir()) == []
    assert sorted(p.name for p in out.iterdir()) == ["corpus.txt", "r.json"]


@pytest.mark.parametrize(
    "flags",
    [
        ["--jobs", "2"], ["--no-cache"], ["--cache-dir", "d"], ["--max-elements", "5"],
        ["--full-word-check"],
    ],
)
def test_removed_flags_are_rejected(flags, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as ei:
        cli.main(flags)
    assert ei.value.code == 2
