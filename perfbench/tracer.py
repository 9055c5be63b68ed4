"""Outside-in span tracer for the ezbasis layers.

The tracer never edits the package.  It wraps every public callable
that a layer defines (plain functions and wrapped ones such as
`functools.cache` results; classes excepted) and rebinds the wrapper
under every name that refers to the original in any loaded ezbasis
module, because `from .trilinalg import invert_forward` leaves a second
binding in `relations` that a patch of `trilinalg` alone would miss.
Calls made through module globals (the package's own cross-module and
intra-module calls) therefore pass through the wrapper as well.

Spans are kept in memory as flat arrays (function id, parent span,
start, end) and written out once, after the traced work.  A span's self
time is its duration minus the time its child spans cover; the package
is single-threaded, so children never overlap and that cover is the sum
of their durations.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array

PACKAGE = "ezbasis"
LAYERS = ("exactnum", "coeffs", "trilinalg", "relations", "analytic", "numeval", "cli")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.fid = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        # distinct integer-only argument tuples seen per function id
        self.arg_keys: list[set] = []
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [
            mod for name, mod in sorted(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        ]
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for name, fn in sorted(vars(mod).items()):
                if name.startswith("_") or isinstance(fn, type) or not callable(fn):
                    continue
                if getattr(fn, "__module__", None) != mod.__name__:
                    continue
                wrapper = self._wrap(f"{layer}.{name}", fn)
                for holder in modules:
                    for attr, value in list(vars(holder).items()):
                        if value is fn:
                            self._patched.append((holder, attr, fn))
                            setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, fn in reversed(self._patched):
            setattr(holder, attr, fn)
        self._patched.clear()

    def _wrap(self, qualname: str, fn):
        fid = len(self.names)
        self.names.append(qualname)
        keys: set = set()
        self.arg_keys.append(keys)
        fids, parents, starts, ends = self.fid, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(fids)
            fids.append(fid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
                if not kwargs and all(type(a) is int for a in args):
                    keys.add(args)

        return traced

    def summary(self) -> dict[str, dict]:
        """Per function: calls, distinct integer argument tuples, self seconds."""
        covered = [0.0] * len(self.fid)
        for i, p in enumerate(self.parent):
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i, f in enumerate(self.fid):
            calls[f] += 1
            self_s[f] += self.end[i] - self.start[i] - covered[i]
        return {
            name: {"calls": calls[f], "distinct": len(self.arg_keys[f]), "self_s": self_s[f]}
            for f, name in enumerate(self.names)
        }

    def dump(self, path: str) -> None:
        """Write every span as [function id, parent span, start, end]."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "names": self.names,
                    "spans": [
                        [f, p, s, e]
                        for f, p, s, e in zip(self.fid, self.parent, self.start, self.end)
                    ],
                },
                fh,
            )
