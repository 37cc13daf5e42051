"""One cold plocal process, launched by ``run.py``; not meant to be run by hand.

Usage: child.py <json spec>

The spec names the checkout root, the mode and a side-output path. Modes:

* ``setup``: import plocal and parse the corpus, as ``plocal.cli.run`` does
  before verification starts, then exit;
* ``main``: call ``plocal.cli.main`` with the spec's argv, optionally under
  the tracer.

The side output (JSON) holds the moment ``cli.parse_corpus`` returned (set-up
mode), the exit status ``cli.main`` returned (main mode), the CPU-speed probe
samples of an untraced child and, when traced, the tracer snapshot. Times
are ``time.perf_counter`` readings, which on Linux share the system-wide
monotonic clock with the launching process.

The probe times a fixed loop of dict stores, about 0.2 ms, kept apart from
plocal's state as far as one process allows: it stores into a dict built
once at start-up that never grows, the collector is off while it runs, so
no collection of plocal's heap lands in it, and one untimed round first
brings its data back into the cache. An untraced pass runs it from a
``SIGALRM`` handler every ``PROBE_PERIOD_S`` of wall time (about 0.8 % of
the pass, with the untimed round); a set-up child runs it
``SETUP_PROBE_LOOPS`` times right after ``cli.parse_corpus`` returns,
outside the timed set-up.
"""

import gc
import json
import os
import signal
import sys
import time

PROBE_PERIOD_S = 0.05
SETUP_PROBE_LOOPS = 10


# Tuple-keyed dict stores hash and allocate like plocal's frozenset and Perm
# work, so the loop slows by about the same factor under contention. The
# dict is built once with every key the loop stores, so it never grows; a
# store frees its key tuple at once, and its int when the next round stores.
PROBE_DICT = {(i % 61, i % 7): 0 for i in range(427)}


def probe_round(d):
    for i in range(1500):
        d[i % 61, i % 7] = i


def timed_probe(samples):
    enabled = gc.isenabled()
    gc.disable()
    try:
        probe_round(PROBE_DICT)  # untimed: warm the cache
        t0 = time.perf_counter()
        probe_round(PROBE_DICT)
        samples.append((t0, time.perf_counter() - t0))
    finally:
        if enabled:
            gc.enable()


def main() -> int:
    spec = json.loads(sys.argv[1])
    root = spec["root"]
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import plocal.cli as cli

    # refuse to measure an installed copy instead of the checkout's source
    if not os.path.realpath(cli.__file__).startswith(os.path.realpath(src) + os.sep):
        print("plocal imported from %s, not from %s" % (cli.__file__, src), file=sys.stderr)
        return 3

    side = {}
    if spec["mode"] == "setup":
        corpus = spec.get("corpus")
        if corpus is None:
            text = cli.default_corpus_text()
        else:
            with open(corpus) as fh:
                text = fh.read()
        cli.parse_corpus(text)
        side["setup_end"] = time.perf_counter()
        side["probe"] = []
        for _ in range(SETUP_PROBE_LOOPS):
            timed_probe(side["probe"])
    else:
        tracer = None
        if spec.get("trace"):
            sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        side["probe"] = []
        if tracer is None:
            signal.signal(signal.SIGALRM, lambda signum, frame: timed_probe(side["probe"]))
            signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        t0 = time.perf_counter()
        try:
            side["status"] = cli.main(spec["argv"])
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        side["main_s"] = time.perf_counter() - t0
        if tracer is not None:
            side["trace"] = tracer.snapshot()
    with open(spec["side"], "w") as fh:
        json.dump(side, fh)
    return side.get("status", 0)


if __name__ == "__main__":
    sys.exit(main())
