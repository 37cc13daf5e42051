"""Capture the seed-0 reference of every workload into reference.json.

Usage (from the root of a checkout): python3 perfbench/capture.py

Runs each workload once untraced, to record its exit status, report sha256
and per-entry report digests and outcome counts, and once traced, to record
the exact counters, together with the hash of the code they came from. Run
it only at a commit whose reports are known good: ``run.py`` treats the
result as ground truth.
"""

import json
import os
import shutil
import sys

import run


def capture(workload: str, work: str) -> dict:
    corpus = run.corpus_for(workload, 0, work)
    out = {}
    for trace in (False, True):
        report = os.path.join(work, "report-%s-%d.json" % (workload, trace))
        spec = {"mode": "main", "trace": trace, "argv": run.cli_argv(workload, corpus, report)}
        rec = run.run_child(spec, work, "%s-%d" % (workload, trace), 600.0)
        if rec["exit_code"] != rec["side"].get("status"):
            raise SystemExit("%s: child failed (exit %s)" % (workload, rec["exit_code"]))
        with open(report, "rb") as fh:
            got = run.digest_reports(fh.read())
        if trace:
            if got != digested:
                raise SystemExit("%s: traced report differs from the untraced one" % workload)
            out["exact_counters"] = run.exact_counters(rec["side"]["trace"])
        else:
            digested = got
            out = dict(got, exit_status=rec["exit_code"], code_sha256=run.code_sha256())
        print("%s trace=%d: %.1fs" % (workload, trace, rec["exited"] - rec["launch"]), flush=True)
    return out


def main() -> int:
    work = os.path.join(run.WORK, "capture")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        ref = {w: capture(w, work) for w in run.WORKLOADS}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(run.REFERENCE, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
