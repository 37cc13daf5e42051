"""Corpus parsing, config validation, report output, determinism, the
files a run writes, and exit codes."""

import json
import time

import pytest

from plocal import cli
from plocal import groups as gp
from plocal import locality as lo
from plocal.errors import CorpusParseError, NormalityError

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
    orders = [gp.generate_group(e.generators()).order for e in entries]
    assert orders == [24, 8, 6, 24]


def test_parse_round_trip_fields():
    (e,) = cli.parse_corpus(GOOD)
    assert e.name == "s3_a3" and e.p == 3
    assert gp.generate_group(e.generators()).order == 6
    assert gp.generate_group(e.normal_generators()).order == 3


def test_parse_x_and_k_lines():
    (e,) = cli.parse_corpus(WITH_XK)
    G = gp.generate_group(e.generators())
    S = gp.sylow_subgroup(G, 2)
    xs = e.X_subgroups(G, S)
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
    with pytest.raises(NormalityError):
        cli.parse_corpus(bad)


def test_x_outside_sylow_rejected():
    text = "group s3 p=3 gens=(0 1 2);(0 1)\nnormal gens=(0 1 2)\nX=(0 1)\n"
    (e,) = cli.parse_corpus(text)
    G = gp.generate_group(e.generators())
    S = gp.sylow_subgroup(G, 3)
    with pytest.raises(CorpusParseError):
        e.X_subgroups(G, S)


def test_run_config_validation():
    with pytest.raises(ValueError):
        cli.RunConfig(statements=("Lemma-9.9",))
    with pytest.raises(ValueError):
        cli.RunConfig(word_len=0)


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
    config = cli.RunConfig(report_path=tmp_path / "r.json", word_len=2)
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


def test_non_utf8_corpus_is_corpus_error(tmp_path, capsys):
    assert _main_on(tmp_path, GOOD.encode() + b"# \xff\xfe\n") == 2
    assert "corpus error" in capsys.readouterr().err


def test_non_integer_point_is_named(tmp_path, capsys):
    assert _main_on(tmp_path, "group g p=2 gens=(0 x)\n") == 2
    err = capsys.readouterr().err
    assert "bad point 'x'" in err and "no points" not in err


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
    [["--jobs", "2"], ["--no-cache"], ["--cache-dir", "d"], ["--max-elements", "5"]],
)
def test_removed_flags_are_rejected(flags, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as ei:
        cli.main(flags)
    assert ei.value.code == 2


def test_full_word_check_keeps_outcomes(tmp_path, monkeypatch):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text(GOOD)
    real = lo.verify_partial_group
    lengths = []

    def spy(P, word_len=3):
        lengths[-1].add(word_len)
        return real(P, word_len=word_len)

    monkeypatch.setattr(lo, "verify_partial_group", spy)
    outcomes = []
    for flags in ([], ["--full-word-check"]):
        lengths.append(set())
        report = tmp_path / "r.json"
        assert cli.main(["--corpus", str(corpus), "--report", str(report), *flags]) == 0
        doc = json.loads(report.read_text())
        outcomes.append([(r["statement"], r["instance"], r["outcome"]) for r in doc])
    assert lengths == [{3}, {4}]
    assert outcomes[0] == outcomes[1]
