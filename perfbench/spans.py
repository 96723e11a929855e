"""Per-layer spans recorded from outside the engine.

`Tracer.install()` replaces each traced function of the engine with a
wrapper that records one span per call: name, start, end and the span that
was open when it started (its parent).  A function imported elsewhere with
`from .groebner import buchberger` lives on under a second module-level
name, so every `socleq.*` module is scanned and every name bound to the
original object is rebound; methods are patched on their class.  Code that
must be seen by the tracer calls engine functions through their module or
their object, never through a name it bound before `install()`.

Spans are kept in memory while `active` is true.  `take()` turns the spans
of one round into counts and self times (span time minus the time of its
child spans); `write()` writes every span out when the run ends.  Nothing is
written while a query runs.
"""

from __future__ import annotations

import functools
import json
import sys
import time

_clock = time.perf_counter


def _bb_key(gens, order=None, limits=None, trunc=None, track=False, ring=None):
    gens = tuple(g for g in gens if g)
    ring = gens[0].ring if gens else ring
    return gens, order or ring.default_order, trunc, track, ring


def _intersect_key(I, J, limits=None):
    return I.gens, J.gens


# span name -> (module, attribute path, distinct-input key or None)
TARGETS = {
    "groebner.buchberger": ("socleq.groebner", "buchberger", _bb_key),
    "groebner.groebner_basis": ("socleq.groebner", "Ideal.groebner_basis", None),
    "groebner.normal_form": ("socleq.groebner", "normal_form", None),
    "groebner.eliminate": ("socleq.groebner", "eliminate", None),
    "idealops.intersect": ("socleq.idealops", "intersect", _intersect_key),
    "idealops.colon": ("socleq.idealops", "colon", None),
    "idealops.colon_by_poly": ("socleq.idealops", "colon_by_poly", None),
    "idealops.saturate": ("socleq.idealops", "saturate", None),
    "localring.check_contained": ("socleq.localring", "LocalRing.check_contained", None),
    "localring.length_of_quotient": ("socleq.localring", "LocalRing.length_of_quotient", None),
    "localring.quotient_dim_at": ("socleq.localring", "LocalRing.quotient_dim_at", None),
    "localring.socle_of": ("socleq.localring", "LocalRing.socle_of", None),
    "localring.reduction_number": ("socleq.localring", "LocalRing.reduction_number", None),
    "oracle.audit": ("socleq.oracle", "OracleAuditor.__call__", None),
    "probes.lemma_colon_split": ("socleq.probes", "lemma_colon_split", None),
    "probes.powered_colon_split": ("socleq.probes", "powered_colon_split", None),
}

ROUTES = ("graded", "finite-colength", "truncation-probe")

class Tracer:
    def __init__(self):
        self.active = False
        self.spans: list = []  # [name, start, end, parent index or -1]
        self.taken = 0  # spans before this index belong to rounds already taken
        self.stack: list = []
        self.distinct: dict = {name: set() for name, t in TARGETS.items() if t[2]}
        self.counts: dict = {f"localring.route.{r}": 0 for r in ROUTES}
        self.counts.update({"oracle.audit.checked": 0, "oracle.audit.skipped": 0})

    # -- installation ------------------------------------------------------------

    def install(self) -> None:
        for name, (modname, path, key) in TARGETS.items():
            owner = sys.modules[modname]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            orig = getattr(owner, attr)
            wrapper = self._wrap(name, orig, key)
            if cls_path:
                setattr(owner, attr, wrapper)
                continue
            for mname, mod in list(sys.modules.items()):
                if mod is None or not (mname == "socleq" or mname.startswith("socleq.")):
                    continue
                for bound, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, bound, wrapper)

    def _wrap(self, name, fn, key):
        spans, stack = self.spans, self.stack
        before, after = _HOOKS.get(name, (None, None))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if key is not None:
                self.distinct[name].add(key(*args, **kwargs))
            snap = before(args) if before else None
            idx = len(spans)
            spans.append([name, _clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = _clock()
            if after:
                after(self.counts, args, out, snap)
            return out

        return traced

    # -- results -------------------------------------------------------------------

    def take(self) -> dict:
        """Counts and self times of the spans recorded since the last take."""
        calls = {name: 0 for name in TARGETS}
        total = {name: 0.0 for name in TARGETS}
        child = [0.0] * len(self.spans)
        for idx in range(len(self.spans) - 1, self.taken - 1, -1):
            name, start, end, parent = self.spans[idx]
            dur = end - start
            calls[name] += 1
            total[name] += dur - child[idx]
            if parent >= 0:
                child[parent] += dur
        out = dict(self.counts)
        for name in TARGETS:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = total[name]
        for name, keys in self.distinct.items():
            out[f"{name}.distinct"] = len(keys)
        out["oracle.audit.events"] = calls["oracle.audit"]
        self.taken = len(self.spans)
        for keys in self.distinct.values():
            keys.clear()
        for k in self.counts:
            self.counts[k] = 0
        return out

    def write(self, path: str) -> None:
        """Every span recorded, one JSON object a line; `parent` is a line index."""
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")


def _route(counts, args, out, snap):
    counts[f"localring.route.{out.method}"] += 1


def _audit_snap(args):
    return args[0].checked, args[0].skipped


def _audit_delta(counts, args, out, snap):
    counts["oracle.audit.checked"] += args[0].checked - snap[0]
    counts["oracle.audit.skipped"] += args[0].skipped - snap[1]


# (before, after) hooks: read a call's result, or its object around the call
_HOOKS = {
    "localring.check_contained": (None, _route),
    "oracle.audit": (_audit_snap, _audit_delta),
}
