"""Corpus ingestion, configuration, orchestration and reporting.

Corpus format (line oriented, ``#`` comments, 0-based cycle notation):

    group <name> p=<prime> gens=<cycles>;<cycles>;...
    normal gens=<cycles>;...
    X=<cycles>;...              # optional, repeatable: restrict the X sweep
    K=<aut|inn|id|gens:...>     # optional, repeatable: restrict the K sweep

Every ``group`` line starts an entry, under a name no other entry has; the
following ``normal``/``X``/``K`` lines attach to it, with at most one
``normal`` line. The declared normal subgroup is validated at load time,
and so is the notation of every line: what depends on X waits for the
sweep.

The JSON report is a canonical document: reports sorted by (entry,
statement, instance), keys sorted, no timestamps, so identical runs are
byte-identical. :func:`render_report_doc` writes it, as
``json.dumps(doc, sort_keys=True, indent=2)`` would but without json's
pure-Python encoder, and ``run`` calls it only for a run given a report
path. Timing goes to stdout only.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
import time
from functools import cached_property
from json.encoder import encode_basestring_ascii as _string
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from . import groups as gp
from . import verify as vf
from .errors import CapExceeded, CorpusParseError, NormalityError, PLocalError
from .perm import Perm, max_point, perm_from_cycles
from .report import VerificationReport


class CorpusEntry:
    """One corpus line-group: an ambient group, a prime, a declared normal
    subgroup, and optional sweep restrictions."""

    def __init__(self, name, p, gen_strings, normal_gen_strings=(), X_strings=(), K_strings=(), degree=0):
        self.name, self.p, self.gen_strings, self.degree = name, p, gen_strings, degree
        self.normal_gen_strings, self.X_strings, self.K_strings = normal_gen_strings, X_strings, K_strings

    def generators(self) -> List[Perm]:
        return [perm_from_cycles(s, self.degree) for s in self.gen_strings]

    @cached_property
    def G(self) -> gp.Subgroup:
        """The ambient group, built once per entry."""
        return gp.generate_group(self.generators())

    @cached_property
    def H(self) -> gp.Subgroup:
        """The declared normal subgroup (G if none), built in G's home once
        per entry; NormalityError for a generator outside G. parse_corpus
        checks that it is normal in G."""
        gens = [perm_from_cycles(s, self.degree) for s in self.normal_gen_strings]
        if not all(g in self.G for g in gens):
            raise NormalityError("entry %s: declared subgroup is not inside the group" % self.name)
        return self.G.generated_subgroup(gens) if gens else self.G

    def X_subgroups(self, S):
        """Explicitly requested X subgroups (must lie inside S), or None.
        Lines naming the same subgroup give it once, at its first line.
        parse_corpus checks that each line is cycle notation."""
        if not self.X_strings:
            return None
        out = []
        for spec in self.X_strings:
            gens = [perm_from_cycles(s, self.degree) for s in vf.cycle_specs(spec, "X=" + spec)]
            if not all(g in S for g in gens):
                raise CorpusParseError(
                    "entry %s: X=%s is not inside the Sylow subgroup" % (self.name, spec)
                )
            X = S.generated_subgroup(gens)
            if X not in out:
                out.append(X)
        return tuple(out)

    def K_descriptors(self) -> Optional[Tuple[str, ...]]:
        return tuple(self.K_strings) if self.K_strings else None


class RunConfig:
    """Input, statement filter and report path for one run."""

    def __init__(self, corpus_path=None, statements=None, report_path=None):
        if statements is not None:
            unknown = set(statements) - set(vf.STATEMENTS)
            if unknown:
                raise ValueError("unknown statement ids: %s" % sorted(unknown))
        self.corpus_path, self.statements, self.report_path = corpus_path, statements, report_path


def parse_corpus(text: str) -> List[CorpusEntry]:
    """Parse and validate corpus text; normality is checked at load."""
    entries: List[CorpusEntry] = []
    raw: List[dict] = []
    cur: Optional[dict] = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if stripped.startswith("group "):
            m = re.match(r"group\s+(\S+)\s+p=(\S+)\s+gens=(.*)$", stripped)
            if m is None:
                raise CorpusParseError(
                    "malformed group line (expected: group <name> p=<p> gens=<cycles;...>)",
                    lineno,
                )
            name = m.group(1)
            if any(r["name"] == name for r in raw):
                raise CorpusParseError("repeated group name %r" % name, lineno)
            try:
                p = int(m.group(2))
            except ValueError:
                raise CorpusParseError("bad prime %r" % m.group(2), lineno)
            if p < 2 or any(p % d == 0 for d in range(2, math.isqrt(p) + 1)):
                raise CorpusParseError("p=%d is not prime" % p, lineno)
            cur = {
                "name": name,
                "p": p,
                "gens": vf.cycle_specs(m.group(3), "gens=" + m.group(3), lineno),
                "normal": [],
                "X": [],
                "K": [],
                "line": lineno,
            }
            if not cur["gens"]:
                raise CorpusParseError("empty generator list", lineno)
            raw.append(cur)
        elif stripped.startswith("normal "):
            if cur is None:
                raise CorpusParseError("normal line before any group line", lineno)
            if not stripped.split(None, 1)[1].startswith("gens="):
                raise CorpusParseError("normal line needs gens=", lineno)
            if cur["normal"]:
                raise CorpusParseError("second normal line in one entry", lineno)
            cur["normal"] = vf.cycle_specs(stripped.split("gens=", 1)[1], stripped, lineno)
            if not cur["normal"]:
                raise CorpusParseError("empty normal generator list", lineno)
        elif stripped[:2] in ("X=", "K="):
            kind, spec = stripped[0], stripped[2:].strip()
            if cur is None:
                raise CorpusParseError("%s line before any group line" % kind, lineno)
            if kind == "X":
                vf.cycle_specs(spec, "X=" + spec, lineno)
            else:
                vf.k_generator_specs(spec, lineno)
            cur[kind].append(spec)
        else:
            raise CorpusParseError("unrecognized line: %r" % stripped, lineno)

    for r in raw:
        all_strings = list(r["gens"]) + list(r["normal"]) + [
            s for spec in r["X"] for s in vf.cycle_specs(spec, "X=" + spec)
        ]
        degree = max(max_point(s) for s in all_strings) + 1  # the lines are cycle notation
        entry = CorpusEntry(
            name=r["name"],
            p=r["p"],
            gen_strings=tuple(r["gens"]),
            normal_gen_strings=tuple(r["normal"]),
            X_strings=tuple(r["X"]),
            K_strings=tuple(r["K"]),
            degree=max(degree, 1),
        )
        try:
            G, H = entry.G, entry.H  # H raises NormalityError if it is not inside G
        except (ValueError, CapExceeded) as exc:
            raise CorpusParseError("entry %s: %s" % (entry.name, exc), r["line"])
        if not H.is_normal_in(G):
            raise NormalityError("entry %s: declared subgroup is not normal" % entry.name)
        entries.append(entry)
    return entries


def default_corpus_text() -> str:
    return Path(__file__).with_name("data").joinpath("default_corpus.txt").read_text(encoding="utf-8")


# ---------------------------------------------------------------------------
# run orchestration


def render_report_doc(reports: Sequence[VerificationReport]) -> str:
    """Canonical JSON body: a top-level array of report objects, sorted
    keys, stable ordering, no timestamps, trailing newline.

    The text is ``json.dumps(doc, sort_keys=True, indent=2) + "\\n"`` for
    doc the reports' ``to_json_obj()``, written without json's pure-Python
    encoder, which indent selects: each report's keys in sorted order, a
    string through json's C string encoder, an int through its ``repr``,
    and any other value through ``json.dumps`` on its own, each line after
    its first indented to the value's depth. That is exact, for JSON text
    holds no raw newline inside a string."""
    if not reports:
        return "[]\n"
    return "[\n" + ",\n".join(map(_report_text, reports)) + "\n]\n"


def _report_text(r: VerificationReport) -> str:
    """One report's object, at depth 1 of the document."""
    parts = ['  {\n    "instance": ', _json(r.instance, "    "), ',\n    "outcome": ', _json(r.outcome, "    ")]
    if r.reason is not None:
        parts += [',\n    "reason": ', _json(r.reason, "    ")]
    parts += [',\n    "statement": ', _json(r.statement, "    "), ',\n    "stats": ']
    stats = r.stats
    if not stats:
        parts.append("{}")
    elif all(type(k) is str for k in stats):
        parts.append("{\n" + ",\n".join([
            "      %s: %s" % (_string(k), repr(v) if type(v) is int else _json(v, "      "))
            for k, v in sorted(stats.items())
        ]) + "\n    }")
    else:
        parts.append(_json(dict(sorted(stats.items())), "    "))
    if r.witness is not None:
        parts += [',\n    "witness": ', _json(r.witness, "    ")]
    parts.append("\n  }")
    return "".join(parts)


def _json(value, pad: str) -> str:
    """value as json.dumps(..., sort_keys=True, indent=2) writes it where
    its lines after the first start with pad."""
    if type(value) is str:
        return _string(value)
    if type(value) is int:
        return repr(value)
    return json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n" + pad)


def summarize(reports: Sequence[VerificationReport], coverage, stream=None) -> None:
    stream = stream or sys.stdout
    width = max(len(s) for s in coverage)
    print("%-*s %6s %6s %8s %8s" % (width, "statement", "pass", "fail", "skipped", "nondeg"), file=stream)
    for stmt in sorted(coverage):
        c = coverage[stmt]
        print(
            "%-*s %6d %6d %8d %8d"
            % (width, stmt, c["pass"], c["fail"], c["skipped"], c["nondegenerate_pass"]),
            file=stream,
        )
    fails = [r for r in reports if r.failed]
    if fails:
        print("\nFAILURES:", file=stream)
        for r in fails:
            print("  %s %s: %r" % (r.statement, r.instance, r.witness), file=stream)


def run(config: RunConfig, corpus_text: Optional[str] = None) -> int:
    """Execute the suite; returns the process exit status (0/1/2)."""
    try:
        if corpus_text is None:
            if config.corpus_path is not None:
                corpus_text = Path(config.corpus_path).read_text(encoding="utf-8")
            else:
                corpus_text = default_corpus_text()
        entries = parse_corpus(corpus_text)
    except (CorpusParseError, NormalityError, OSError, UnicodeDecodeError) as exc:
        print("corpus error: %s" % exc, file=sys.stderr)
        return 2

    t0 = time.time()
    try:
        reports, coverage = vf.run_suite(entries, statements=config.statements)
    except PLocalError as exc:
        print("suite error: %s" % exc, file=sys.stderr)
        return 2
    elapsed = time.time() - t0

    if config.report_path is not None:
        try:
            Path(config.report_path).write_text(render_report_doc(reports))
        except OSError as exc:
            print("report error: %s" % exc, file=sys.stderr)
            return 2

    summarize(reports, coverage)
    print("\n%d reports in %.1fs" % (len(reports), elapsed))
    return 1 if any(r.failed for r in reports) else 0


def build_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="plocal",
        description="verify the statement suite over a corpus of small groups",
    )
    ap.add_argument("--corpus", type=Path, default=None, help="corpus file (default: shipped corpus)")
    ap.add_argument(
        "--statement",
        action="append",
        default=None,
        metavar="ID",
        help="restrict to a statement id (repeatable): %s" % ", ".join(vf.STATEMENTS),
    )
    ap.add_argument("--report", type=Path, default=None, help="write the JSON report here")
    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        config = RunConfig(
            corpus_path=args.corpus,
            statements=tuple(args.statement) if args.statement else None,
            report_path=args.report,
        )
    except ValueError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
