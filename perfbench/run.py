"""plocal benchmark driver.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is a fixed corpus that a fresh ``python3`` process verifies
through the user's entry point, ``plocal.cli.main`` with only ``--corpus``,
``--report`` and ``--statement``. It is a closed loop with one client:
children run one at a time, each with ``XDG_CACHE_HOME`` pointing at an
empty directory and ``PYTHONHASHSEED=0``, so every pass is cold: the
module-level caches start empty and the on-disk lattice cache neither
warms nor leaks across passes. Passes are started until ``--seconds`` have
elapsed (at least one; a pass cannot be split).

Seed 0 runs the corpus as written and checks the report bytes against the
reference captured by ``capture.py``. A nonzero seed relabels the points of
each entry by a seeded permutation of that entry's own points, which gives
an isomorphic input; its report is checked by per-entry, per-statement
pass/fail/skipped counts equal to seed 0's.

``--trace 0`` prints the end-to-end metrics: ``wall_s`` (child launch to
report written and checked, median over the passes), ``setup_s`` (child
launch until ``cli.parse_corpus`` returns, median over ``SETUP_PROBES``
set-up-only children) and ``peak_rss_mb`` (the child's max RSS). The
set-up time has children of its own because a pass takes longer than a
run's ``--seconds``, so one pass per run would give a median of one.

Both times are reported at a reference CPU speed. On a shared host the
core a child runs on slows down, by about 1.65x, for stretches of seconds
to minutes when a neighbour loads it; plocal's user CPU time grows by the
same factor, so raw wall times measure the neighbour more than the code.
Each untraced child therefore times a fixed probe loop (see ``child.py``)
while it runs, and its wall time is multiplied by ``REFERENCE_PROBE_S``
over the harmonic mean of those probe times: the time the child would
have taken had the core run the probe at reference speed throughout. The
probe loop slows by about as much as plocal under contention (about 0.75
of plocal's slowdown, in logarithms). It runs with the collector off and
stores into a dict that never grows, so plocal's heap barely moves it:
45 MB of extra live frozensets in the process changed the probe's time by
-2 %, less than the host's own noise. The raw medians and the speed
factors are printed alongside.

``--trace 1`` adds one traced pass after the untraced ones and prints the
per-layer metrics named in BENCHMARK.json, computed from each name.
Its exact counters must repeat, or the run counts as failed: at seed 0 on
the code ``capture.py`` captured (same hash of ``src/plocal``) they must
equal the reference's; otherwise they must equal those of the first traced
run of the same code and seed in this checkout's ``.perfbench_work``.
``error_rate`` (failed corpus entries / attempted) is printed by name and
carried by the ``failed``/``attempted`` fields of the result line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
REFERENCE = os.path.join(HERE, "reference.json")
WORK = os.path.join(ROOT, ".perfbench_work")

# Each workload stresses a different layer; see BENCHMARK.json for why.
WORKLOADS = {
    "default_corpus": {"corpus": None, "statements": None},
    "order36_axioms": {"corpus": "corpora/order36_axioms.txt", "statements": None},
    "a4xc2_theorem": {
        "corpus": "corpora/a4xc2_theorem.txt",
        "statements": [
            "Lemma-2.2a",
            "Lemma-2.2b",
            "Lemma-3.1",
            "Theorem-3.2a",
            "Theorem-3.2b",
            "Corollary-3.3a",
            "Corollary-3.3b",
        ],
    },
}

SETUP_PROBES = 16
# The probe's duration while plocal runs, in the quietest stretches of the
# host the benchmark was defined on (2-vCPU Xeon VM, Python 3.11). Reported
# times are scaled to this speed, so that a neighbour's load on a shared
# core does not read as a change in plocal's cost; see ``speed_factor``.
REFERENCE_PROBE_S = 195e-6
# A run must end within 180 s; stop starting passes well before that.
RUN_DEADLINE_S = 170.0
EXACT_COUNTERS = (
    "locality.words_checked",
    "locality.domain_words",
    "locality.verify_partial_group.calls",
    "locality.verify_subcentric_locality.calls",
    "locality.verify_subcentric_locality.distinct",
    "locality.bN_K.calls",
    "locality.bN_K.distinct",
)


def under_load_threshold() -> float:
    """A 1-minute load average above this before a child starts means other
    work competed for the CPUs (this driver keeps at most one child busy)."""
    return max(os.cpu_count() or 1, 1) - 0.5


# ---------------------------------------------------------------------------
# inputs

_CYCLE = re.compile(r"\(([^()]*)\)")


def relabel(text: str, seed: int) -> str:
    """Relabel each entry's points by a seeded permutation of its own points."""
    rng = random.Random(seed)
    lines = text.splitlines()
    entries = []
    for i, line in enumerate(lines):
        body = line.split("#", 1)[0].strip()
        if body.startswith("K=gens:"):
            raise ValueError("explicit K generators index X's sorted elements; cannot relabel")
        if body.startswith("group "):
            entries.append([])
        if entries and body.startswith(("group ", "normal ", "X=")):
            entries[-1].append(i)
    for idxs in entries:
        points = sorted(
            {
                int(p)
                for i in idxs
                for cyc in _CYCLE.findall(lines[i].split("#", 1)[0])
                for p in re.findall(r"\d+", cyc)
            }
        )
        images = list(points)
        rng.shuffle(images)
        image = dict(zip(points, images))

        def sub(match):
            return "(" + re.sub(r"\d+", lambda d: str(image[int(d.group())]), match.group(1)) + ")"

        for i in idxs:
            code, sep, comment = lines[i].partition("#")
            lines[i] = _CYCLE.sub(sub, code) + sep + comment
    return "\n".join(lines) + "\n"


def default_corpus_text() -> str:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import plocal.cli
    finally:
        sys.path.pop(0)
    return plocal.cli.default_corpus_text()


def corpus_for(workload: str, seed: int, work: str):
    """Path of the corpus file to verify, or None for the shipped corpus."""
    rel = WORKLOADS[workload]["corpus"]
    path = os.path.join(HERE, rel) if rel else None
    if seed == 0:
        return path
    if path is None:
        text = default_corpus_text()
    else:
        with open(path) as fh:
            text = fh.read()
    out = os.path.join(work, "corpus_seed%d.txt" % seed)
    with open(out, "w") as fh:
        fh.write(relabel(text, seed))
    return out


def cli_argv(workload: str, corpus, report: str):
    argv = [] if corpus is None else ["--corpus", corpus]
    argv += ["--report", report]
    for stmt in WORKLOADS[workload]["statements"] or ():
        argv += ["--statement", stmt]
    return argv


# ---------------------------------------------------------------------------
# report checks


def digest_reports(doc: bytes) -> dict:
    """Whole-report sha256 plus per-entry digests and outcome counts."""
    reports = json.loads(doc)
    by_entry = {}
    for obj in reports:
        by_entry.setdefault(obj["instance"].split("|", 1)[0], []).append(obj)
    entries = {}
    for name, objs in sorted(by_entry.items()):
        counts = {}
        for obj in objs:
            c = counts.setdefault(obj["statement"], {"pass": 0, "fail": 0, "skipped": 0})
            c[obj["outcome"]] += 1
        blob = json.dumps(objs, sort_keys=True).encode()
        entries[name] = {
            "digest": hashlib.sha256(blob).hexdigest(),
            "counts": dict(sorted(counts.items())),
        }
    return {
        "report_sha256": hashlib.sha256(doc).hexdigest(),
        "reports": len(reports),
        "entries": entries,
    }


def failed_entries(ref: dict, seed: int, status, report_path: str) -> list:
    """Corpus entries whose reports differ from the reference."""
    names = sorted(ref["entries"])
    if status != ref["exit_status"]:
        return names
    try:
        with open(report_path, "rb") as fh:
            got = digest_reports(fh.read())
    except (OSError, ValueError, KeyError):
        return names
    field = "digest" if seed == 0 else "counts"
    bad = [
        n
        for n in names
        if n not in got["entries"] or got["entries"][n][field] != ref["entries"][n][field]
    ]
    if seed == 0 and not bad and got["report_sha256"] != ref["report_sha256"]:
        return names  # same entries, but not the canonical document
    return bad


# ---------------------------------------------------------------------------
# children


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout()


def run_child(spec: dict, work: str, tag: str, timeout: float) -> dict:
    """Launch one child, wait for it, return launch/exit times and rusage."""
    cache = os.path.join(work, "xdg-" + tag)
    os.mkdir(cache)
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["XDG_CACHE_HOME"] = cache
    env["PYTHONHASHSEED"] = "0"
    spec = dict(spec, root=ROOT, side=os.path.join(work, "side-%s.json" % tag))
    load_before = os.getloadavg()[0]
    with open(os.path.join(work, "out-%s.txt" % tag), "wb") as out, open(
        os.path.join(work, "err-%s.txt" % tag), "wb"
    ) as err:
        old = signal.signal(signal.SIGALRM, _alarm)
        launch = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, CHILD, json.dumps(spec)],
            stdout=out,
            stderr=err,
            env=env,
            cwd=ROOT,
        )
        reaped = None
        signal.setitimer(signal.ITIMER_REAL, max(timeout, 0.01))
        try:
            reaped = os.wait4(proc.pid, 0)
        except _Timeout:
            pass
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)
        timed_out = reaped is None
        if timed_out:
            proc.kill()
            reaped = os.wait4(proc.pid, 0)
        exited = time.perf_counter()
    _, wstatus, usage = reaped
    proc.returncode = os.waitstatus_to_exitcode(wstatus)
    side = {}
    try:
        with open(spec["side"]) as fh:
            side = json.load(fh)
    except (OSError, ValueError):
        pass
    if proc.returncode not in (0, 1) or not side:
        with open(os.path.join(work, "err-%s.txt" % tag), "rb") as fh:
            tail = fh.read()[-2000:].decode(errors="replace")
        print("child %s exited %s%s\n%s" % (tag, proc.returncode, " (timeout)" if timed_out else "", tail), file=sys.stderr)
    return {
        "launch": launch,
        "exited": exited,
        "exit_code": proc.returncode,
        "timed_out": timed_out,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "side": side,
        "load1_before": load_before,
        "load1_after": os.getloadavg()[0],
    }


# ---------------------------------------------------------------------------
# context


def code_sha256() -> str:
    """Content hash of the program under test (the checkout need not be git)."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "plocal")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, src).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read() + b"\0")
    return h.hexdigest()


def git_commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


# ---------------------------------------------------------------------------
# metrics


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def per_layer_metrics(specs, snap, overhead, coverage):
    """Per-layer metric values, computed from each metric's name."""
    fns = snap["functions"]
    absent = []
    values = {}
    for spec in specs:
        name = spec["name"]
        parts = name.split(".")
        if name == "trace.overhead":
            v = overhead
        elif name == "trace.root_coverage":
            v = coverage
        elif name == "verify.checks":
            v = len(snap["check_ms"])
        elif name.startswith("verify.check_ms."):
            ms = sorted(snap["check_ms"]) or [0.0]
            v = statistics.median(ms) if parts[-1] == "p50" else ms[int(0.9 * (len(ms) - 1))]
        elif name in snap["counters"]:
            v = snap["counters"][name]
        elif len(parts) == 2 and parts[1] == "self_s":
            v = sum(c["self_s"] for f, c in fns.items() if f.startswith(parts[0] + "."))
        else:
            fn, field = ".".join(parts[:-1]), parts[-1]
            if fn not in fns:
                absent.append(fn)
                v = 0
            elif field == "distinct":
                v = snap["distinct"][fn]
            elif field == "unique_ratio":
                v = snap["distinct"][fn] / max(fns[fn]["calls"], 1)
            else:
                v = fns[fn][field]
        values[name] = {"value": v, "unit": spec["unit"]}
    return values, sorted(set(absent))


def exact_counters(snap) -> dict:
    values, _ = per_layer_metrics([{"name": n, "unit": "count"} for n in EXACT_COUNTERS], snap, None, None)
    return {n: m["value"] for n, m in values.items()}


def check_repeat(key: str, counters: dict) -> bool:
    """Exact counters must repeat between runs of the same code and input."""
    state = os.path.join(WORK, "exact_counters.json")
    try:
        with open(state) as fh:
            seen = json.load(fh)
    except (OSError, ValueError):
        seen = {}
    if key in seen:
        return seen[key] == counters
    seen[key] = counters
    tmp = state + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(seen, fh, indent=1, sort_keys=True)
    os.replace(tmp, state)
    return True


# ---------------------------------------------------------------------------
# driver


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return ap.parse_args(argv)


def check_layout():
    for path in (os.path.join(ROOT, "src", "plocal", "cli.py"), REFERENCE, os.path.join(ROOT, "BENCHMARK.json")):
        if not os.path.isfile(path):
            raise SystemExit("perfbench: missing %s; run from a plocal checkout" % os.path.relpath(path, ROOT))


def main(argv=None) -> int:
    args = parse_args(argv)
    check_layout()
    deadline = time.perf_counter() + RUN_DEADLINE_S
    with open(REFERENCE) as fh:
        ref = json.load(fh)[args.workload]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        per_layer_specs = json.load(fh)["per_layer"]
    os.makedirs(WORK, exist_ok=True)
    work = os.path.join(WORK, "run-%d" % os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    os.mkdir(work)
    try:
        return measure(args, ref, per_layer_specs, work, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)


ROOT_SPANS = ("cli.parse_corpus", "verify.prepare_entry", "verify.entry_reports", "cli.render_report_doc")


class Session:
    """The children of one run, their tags and the report checks."""

    def __init__(self, args, ref, work, deadline):
        self.args = args
        self.ref = ref
        self.work = work
        self.deadline = deadline
        self.corpus = corpus_for(args.workload, args.seed, work)
        self.launched = 0
        self.attempted = 0
        self.failed = 0

    def child(self, spec) -> dict:
        self.launched += 1
        tag = "%02d" % self.launched
        rec = run_child(spec, self.work, tag, self.deadline - time.perf_counter())
        rec["tag"] = tag
        rec["under_load"] = rec["load1_before"] > under_load_threshold()
        return rec

    def setup_probe(self):
        """A set-up-only child, with ``setup_s`` set if it got that far."""
        rec = self.child({"mode": "setup", "corpus": self.corpus})
        if "setup_end" in rec["side"]:
            rec["setup_s"] = rec["side"]["setup_end"] - rec["launch"]
        return rec

    def one_pass(self, trace: bool) -> dict:
        """One verification pass, its report checked against the reference."""
        report = os.path.join(self.work, "report-%02d.json" % (self.launched + 1))
        argv = cli_argv(self.args.workload, self.corpus, report)
        rec = self.child({"mode": "main", "trace": trace, "argv": argv})
        side = rec["side"]
        ok_exit = not rec["timed_out"] and rec["exit_code"] == side.get("status")
        bad = failed_entries(self.ref, self.args.seed, side.get("status") if ok_exit else None, report)
        rec["wall_s"] = time.perf_counter() - rec["launch"]
        rec["failed_entries"] = bad
        self.attempted += len(self.ref["entries"])
        self.failed += len(bad)
        print(
            "pass %s trace=%d wall_s=%.4f rss_mb=%.1f exit=%s failed=%s "
            "load1_before=%.2f load1_after=%.2f%s"
            % (
                rec["tag"],
                trace,
                rec["wall_s"],
                rec["rss_mb"],
                rec["exit_code"],
                bad or "none",
                rec["load1_before"],
                rec["load1_after"],
                " UNDER-LOAD" if rec["under_load"] else "",
            )
        )
        return rec

    def fail_pass(self, rec):
        """Count every entry of an otherwise passing pass as failed."""
        self.failed += len(self.ref["entries"]) - len(rec["failed_entries"])


def speed_factor(rec) -> float:
    """REFERENCE_PROBE_S over the harmonic mean of the child's probe loops.

    Multiplying a child's wall time by this gives its time at the reference
    CPU speed; a child without probe samples keeps its raw time.
    """
    durations = [dt for _, dt in rec["side"].get("probe", ())]
    if not durations:
        return 1.0
    return REFERENCE_PROBE_S * statistics.fmean(1.0 / dt for dt in durations)


def end_to_end_metrics(passes, setup_probes) -> dict:
    """Times at the reference CPU speed; the raw times are printed too."""
    timed = [r for r in setup_probes if "setup_s" in r]
    samples = {
        "wall_s": [(r["wall_s"], speed_factor(r)) for r in passes],
        "setup_s": [(r["setup_s"], speed_factor(r)) for r in timed] or [(0.0, 1.0)],
    }
    out = {}
    for name, pairs in samples.items():
        sample = [raw * factor for raw, factor in pairs]
        value = statistics.median(sample)
        q1, q3 = quartiles(sample)
        print("metric %s = %.6g s (median of n=%d, q1=%.6g, q3=%.6g)" % (name, value, len(sample), q1, q3))
        print(
            "  raw %s median %.6g s, speed factor median %.3f"
            % (name, statistics.median(raw for raw, _ in pairs), statistics.median(f for _, f in pairs))
        )
        out[name] = {"value": value, "unit": "s"}
    rss = [r["rss_mb"] for r in passes]
    q1, q3 = quartiles(rss)
    print("metric peak_rss_mb = %.6g MB (median of n=%d, q1=%.6g, q3=%.6g)" % (statistics.median(rss), len(rss), q1, q3))
    out["peak_rss_mb"] = {"value": statistics.median(rss), "unit": "MB"}
    return out


def traced_metrics(session, traced, wall, per_layer_specs, code) -> dict:
    snap = traced["side"].get("trace")
    traced_ok = snap is not None
    if not traced_ok:
        print("perfbench: traced pass produced no trace", file=sys.stderr)
        session.fail_pass(traced)
        snap = {"functions": {}, "distinct": {}, "counters": {}, "check_ms": []}
    fns = snap["functions"]
    covered = sum(fns[r]["s"] for r in ROOT_SPANS if r in fns)
    main_s = traced["side"].get("main_s")
    coverage = covered / main_s if main_s else 0.0
    out, absent = per_layer_metrics(per_layer_specs, snap, traced["wall_s"] / wall, coverage)
    for name, m in out.items():
        print("metric %s = %.6g %s" % (name, m["value"], m["unit"]))
    if absent:
        print("absent (no such function in this code): %s" % ", ".join(absent))
    counters = exact_counters(snap)
    print("exact_counters %s" % json.dumps(counters, sort_keys=True))
    if session.args.seed == 0 and code == session.ref["code_sha256"]:
        # the captured code on the captured input: the reference is exact
        repeated = counters == session.ref["exact_counters"]
    else:
        if session.args.seed == 0:
            print("note: the captured code counted %s" % json.dumps(session.ref["exact_counters"], sort_keys=True))
        repeated = check_repeat("%s@seed%d@%s" % (session.args.workload, session.args.seed, code), counters)
    if traced_ok and not repeated:
        print("perfbench: exact counters did not repeat for the same code", file=sys.stderr)
        session.fail_pass(traced)
    return out


def measure(args, ref, per_layer_specs, work, deadline) -> int:
    session = Session(args, ref, work, deadline)
    code = code_sha256()
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "code_sha256": code,
        "under_load_threshold": under_load_threshold(),
    }
    print("context %s" % json.dumps(context, sort_keys=True))

    # untimed: the first import in a checkout compiles the bytecode
    if "setup_s" not in session.setup_probe():
        print("perfbench: plocal could not be imported and parsed", file=sys.stderr)
        return 2

    # half the set-up probes before the passes and half after, so that one
    # contended stretch of the host does not cover all of them
    probes = SETUP_PROBES // 2 if args.trace == 0 else 0
    setups = [session.setup_probe() for _ in range(probes)]
    passes = []
    t0 = time.perf_counter()
    while True:
        passes.append(session.one_pass(False))
        now = time.perf_counter()
        if now - t0 >= args.seconds or now + passes[-1]["wall_s"] > deadline:
            break
    setups += [session.setup_probe() for _ in range(probes)]

    if args.trace == 0:
        out = end_to_end_metrics(passes, setups)
    else:
        wall = statistics.median([r["wall_s"] for r in passes])
        out = traced_metrics(session, session.one_pass(True), wall, per_layer_specs, code)

    flagged = [r["tag"] for r in passes if r["under_load"]]
    if flagged:
        print("passes started under load: %s" % ", ".join(flagged))
    print(
        "error_rate = %.6g (failed %d of %d corpus entries)"
        % (session.failed / session.attempted, session.failed, session.attempted)
    )
    result = {"correct": session.failed == 0, "attempted": session.attempted, "failed": session.failed, "metrics": out}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
