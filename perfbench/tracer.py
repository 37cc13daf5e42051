"""Outside-in tracer for the plocal layers.

Wraps every public module-level function of the layer modules (``cli``,
``verify``, ``locality``, ``fusion``, ``groups``) and rebinds the wrapper in
every ``plocal`` namespace that holds the original, so calls that cross a
layer through a ``from .groups import ...`` binding are seen as well.
Methods are never wrapped: ``Perm`` methods alone run about 10^7 times per
corpus pass, and their cost shows up as the self time of the callers.

Per function the tracer keeps the call count, the inclusive time (outermost
activation only, so recursion is not counted twice) and the self time
(inclusive time minus the time spent in wrapped callees). A few exact
counters are read from arguments and return values, outside the timed
interval of the call that produced them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from time import perf_counter

PACKAGE = "plocal"
LAYERS = ("cli", "verify", "locality", "fusion", "groups")


def _subcentric_key(args):
    L, F, word_len = args["L"], args["F"], args.get("word_len", 3)
    return (L.elems, L.Delta, L.S_elems, F.all_germs(), word_len)


def _bN_K_key(args):
    # X and K within one locality: the same (X, K) over another corpus
    # entry's locality is a different structure.
    L, X, K = args["L"], args["X"], args["K"]
    return (L.elems, L.Delta, X.elems, K.maps)


class Tracer:
    """Call counts, inclusive and self time per wrapped function."""

    def __init__(self):
        self.cells = {}  # name -> [calls, inclusive_s, self_s, depth]
        self.keys = {"locality.verify_subcentric_locality": set(), "locality.bN_K": set()}
        self.counters = {"locality.words_checked": 0, "locality.domain_words": 0}
        self.check_ms = []
        self._child = [0.0]
        self._checks_active = 0

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module("%s.%s" % (PACKAGE, layer))
            for attr, obj in list(vars(mod).items()):
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    wrappers[id(obj)] = self._wrap("%s.%s" % (layer, attr), obj)
        prefix = PACKAGE + "."
        for modname, mod in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(prefix):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in wrappers:
                    setattr(mod, attr, wrappers[id(obj)])

    def _wrap(self, name, fn):
        cell = self.cells[name] = [0, 0.0, 0.0, 0]
        child = self._child
        hook = self._hook_for(name, fn)
        is_check = name.startswith("verify.check_")
        tracer = self

        def wrapper(*args, **kwargs):
            child.append(0.0)
            cell[3] += 1
            if is_check:
                tracer._checks_active += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                inner = child.pop()
                child[-1] += dt
                cell[0] += 1
                cell[2] += dt - inner
                cell[3] -= 1
                if cell[3] == 0:
                    cell[1] += dt
                if is_check:
                    tracer._checks_active -= 1
                    if tracer._checks_active == 0:
                        tracer.check_ms.append(dt * 1e3)
            if hook is not None:
                h0 = perf_counter()
                hook(args, kwargs, result)
                # keep the hook's cost out of the caller's self time
                child[-1] += perf_counter() - h0
            return result

        return functools.wraps(fn)(wrapper)

    def _hook_for(self, name, fn):
        if name == "locality.verify_partial_group":
            counters = self.counters

            def hook(args, kwargs, report):
                for stat in ("words_checked", "domain_words"):
                    counters["locality." + stat] += getattr(report, "stats", {}).get(stat, 0)

            return hook
        key_of = {
            "locality.verify_subcentric_locality": _subcentric_key,
            "locality.bN_K": _bN_K_key,
        }.get(name)
        if key_of is None:
            return None
        sig = inspect.signature(fn)
        seen = self.keys[name]

        def hook(args, kwargs, result):
            # a later signature without these arguments leaves the count at 0
            try:
                seen.add(key_of(sig.bind(*args, **kwargs).arguments))
            except (KeyError, AttributeError, TypeError):
                pass

        return hook

    # -- results --------------------------------------------------------------

    def snapshot(self) -> dict:
        return {
            "functions": {
                name: {"calls": c[0], "s": c[1], "self_s": c[2]}
                for name, c in sorted(self.cells.items())
            },
            "distinct": {name: len(keys) for name, keys in self.keys.items()},
            "counters": dict(self.counters),
            "check_ms": self.check_ms,
        }
