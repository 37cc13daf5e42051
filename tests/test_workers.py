"""run_suite's workers: entries dealt round-robin to one process per
usable CPU give the report bytes of a serial run, an entry's error is
raised as a serial run raises it, a worker that dies is named, and no
process outlives a run.

Each test sets the CPUs a run sees through ``os.sched_getaffinity``, so
the deal does not depend on the machine. Faults are planted in
``verify.prepare_entry``; a forked worker inherits the planted function.
"""

import json
import os
import signal
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from plocal import cli
from plocal import verify as vf
from plocal.errors import PLocalError
from .test_cli import CAPPED

CORPORA = Path(__file__).resolve().parents[1] / "perfbench" / "corpora"

# corpus text (None: the shipped corpus) and exit status of each run
RUNS = {
    "default": (None, 0),
    "order36": ((CORPORA / "order36_axioms.txt").read_text(), 1),
    "capped": (CAPPED, 1),
}

# the default corpus's entries in order: with two CPUs this process runs
# s4_a4 and s3_a3, the forked worker d8_d8 and sl23_q8
DEFAULT = ("s4_a4", "d8_d8", "s3_a3", "sl23_q8")


@pytest.fixture(autouse=True)
def no_process_outlives_a_run():
    """After each test, this process has no child, running or unreaped."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextmanager
def seen_cpus(n, plant=None):
    """A run in the block sees n usable CPUs; plant, if given, maps an
    entry name to a function that prepare_entry calls first for it."""
    real = vf.prepare_entry

    def prepare(entry):
        (plant or {}).get(entry.name, lambda: None)()
        return real(entry)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
        mp.setattr(vf, "prepare_entry", prepare)
        yield


@contextmanager
def deadline(seconds):
    """TimeoutError here if the block runs past seconds: a run that hangs
    fails its test."""

    def expire(signum, frame):
        raise TimeoutError("the run did not end within %d s" % seconds)

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def _run(tmp_path, text, cpus):
    report = tmp_path / ("report-%d.json" % cpus)
    with seen_cpus(cpus), deadline(120):
        status = cli.run(cli.RunConfig(report_path=report), corpus_text=text)
    return status, report.read_bytes()


def test_default_entries_are_in_the_order_the_deal_assumes():
    assert tuple(e.name for e in cli.parse_corpus(cli.default_corpus_text())) == DEFAULT
    assert [e.name for e in cli.parse_corpus(CAPPED)][1::2] == ["c2e9"]


@pytest.mark.parametrize("name", sorted(RUNS))
def test_reports_do_not_depend_on_the_cpu_count(tmp_path, name):
    """The exit status and report bytes with two usable CPUs are those of a
    serial run. In the capped corpus the forked worker runs C2^9, whose
    reports are still one failed Axioms report naming the cap and one
    entry-rejected skip per statement."""
    text, status = RUNS[name]
    serial = _run(tmp_path, text, 1)
    assert serial[0] == status
    assert _run(tmp_path, text, 2) == serial
    if name == "capped":
        capped = [r for r in json.loads(serial[1]) if r["instance"].startswith("c2e9|")]
        axioms, *skips = capped
        assert (axioms["statement"], axioms["outcome"]) == ("Axioms", "fail")
        assert "cap" in axioms["witness"]
        assert [(r["statement"], r["reason"]) for r in skips] == [(s, "entry-rejected") for s in sorted(vf.STATEMENTS)]


@pytest.mark.parametrize("failing", [("d8_d8",), ("d8_d8", "s3_a3"), ("s4_a4", "d8_d8")])
def test_an_error_is_reported_as_a_serial_run_reports_it(capsys, failing):
    """A PLocalError raised by an entry, in this process or in the worker,
    gives the suite error line and exit status 2 of a serial run: that of
    the first failing entry in corpus order."""

    def fault(name):
        def raise_it():
            raise PLocalError("planted in %s" % name)

        return raise_it

    plant = {name: fault(name) for name in failing}
    outs = []
    for cpus in (1, 2):
        with seen_cpus(cpus, plant), deadline(120):
            status = cli.run(cli.RunConfig(), corpus_text=None)
        outs.append((status, capsys.readouterr().err))
    assert outs[0] == outs[1] == (2, "suite error: planted in %s\n" % failing[0])


@pytest.mark.parametrize("death, code", [("exit", 3), ("kill", -signal.SIGKILL)])
def test_a_worker_that_dies_without_answering_is_named(death, code):
    """A worker that ends without sending its share raises RuntimeError
    naming its entries and how it ended; the run does not wait for an
    answer that cannot come."""
    here = os.getpid()

    def die():
        if os.getpid() != here:  # never this process
            if death == "exit":
                os._exit(3)
            os.kill(os.getpid(), signal.SIGKILL)

    entries = cli.parse_corpus(cli.default_corpus_text())
    message = r"worker for entries d8_d8, sl23_q8 ended without an answer \(exit code %d\)" % code
    with seen_cpus(2, {"d8_d8": die}), deadline(60), pytest.raises(RuntimeError, match=message):
        vf.run_suite(entries)


class Interrupt(BaseException):
    """Stands for KeyboardInterrupt: not an Exception, so run_suite does
    not hold it back to order it among the entries' errors."""


def test_a_raise_here_kills_and_reaps_the_workers():
    """When this process raises while its worker still runs, run_suite
    kills and reaps the worker and raises at once."""
    here = os.getpid()

    def interrupt():
        if os.getpid() == here:
            raise Interrupt()

    def stall():
        time.sleep(60)

    entries = cli.parse_corpus(cli.default_corpus_text())
    t0 = time.perf_counter()
    with seen_cpus(2, {"s4_a4": interrupt, "d8_d8": stall}), deadline(30), pytest.raises(Interrupt):
        vf.run_suite(entries)
    assert time.perf_counter() - t0 < 10
