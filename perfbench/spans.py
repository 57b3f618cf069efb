"""Spans around calls into each ncinv module, recorded from outside.

``Tracer.patch`` replaces chosen public functions (and a few public methods)
with wrappers in every ncinv module namespace that holds them, so calls made
by one layer into another are caught as well as the harness's own calls.
Nothing in the program changes on disk.  Spans are kept in memory as
(name, start, end, parent, job) and written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from contextlib import contextmanager

from references import crossing_count

# Public entry points the ROADMAP keeps, per layer (module).
FUNCTIONS = {
    "cli": ("main",),
    "partitions": ("count_m_partite_nc_pairings", "enumerate_m_partite_nc_pairings",
                   "nc_moebius"),
    "hilbert": ("dims_by_enumeration", "dims_by_chebyshev", "dims_by_quadrature"),
    "symbolic": ("noncrossing_basis", "restitution"),
    "group_action": ("is_invariant", "act"),
    "brackets": ("to_noncrossing",),
    "freeprob": ("moments_from_cumulants", "cumulants_from_moments", "psi_mixed_moment"),
}
METHODS = {
    ("symbolic", "NcPolynomial"): ("pretty", "to_json_dict"),
    ("brackets", "BracketExpression"): ("from_json_dict",),
}


# Work counts taken at a boundary from the call's arguments (by name) and
# its result.
COUNTERS = {
    "partitions.count_m_partite_nc_pairings": lambda args, out: {"partitions.pairings": out},
    "partitions.enumerate_m_partite_nc_pairings":
        lambda args, out: {"partitions.pairings": len(out)},
    # Three Gauss points per panel, at `nodes` panels and at twice that for
    # the node-doubling error estimate.
    "hilbert.dims_by_quadrature":
        lambda args, out: {"hilbert.quadrature_nodes": 3 * 3 * args["nodes"]},
    "symbolic.noncrossing_basis": lambda args, out: {
        "symbolic.basis_elements": len(out),
        "symbolic.terms": sum(len(p.terms) for p in out)},
    "group_action.act": lambda args, out: {"group_action.witness_checks": 1},
    "brackets.to_noncrossing": lambda args, out: {
        "brackets.input_crossings": sum(crossing_count(c) for c in args["e"].terms),
        "brackets.output_terms": len(out)},
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.counts: dict[str, int] = {}
        self.counting = True
        self.job = None
        self._stack: list[int] = []

    @functools.cached_property
    def span_cost_s(self) -> float:
        """Added cost of one span, from timing a wrapped no-op against a bare one."""
        def noop():
            return None
        traced = Tracer().wrap("noop", noop)
        calls = 20000
        start = time.perf_counter()
        for _ in range(calls):
            noop()
        bare = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(calls):
            traced()
        return max(0.0, (time.perf_counter() - start - bare) / calls)

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(index)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, self.job)
            if counter is not None and self.counting:
                named = signature.bind(*args, **kwargs).arguments
                for key, value in counter(named, out).items():
                    self.counts[key] = self.counts.get(key, 0) + value
            return out

        return traced

    @contextmanager
    def patch(self):
        """Install the wrappers in every loaded ncinv module; undo on exit."""
        for layer in FUNCTIONS:
            importlib.import_module(f"ncinv.{layer}")
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "ncinv" or key.startswith("ncinv."))]
        undo = []
        for layer, names in FUNCTIONS.items():
            home = sys.modules[f"ncinv.{layer}"]
            for attr in names:
                original = getattr(home, attr, None)
                if original is None:
                    continue
                traced = self.wrap(f"{layer}.{attr}", original)
                for module in modules:
                    if getattr(module, attr, None) is original:
                        undo.append((module, attr, original))
                        setattr(module, attr, traced)
        for (layer, cls_name), names in METHODS.items():
            cls = getattr(sys.modules[f"ncinv.{layer}"], cls_name)
            for attr in names:
                raw = cls.__dict__.get(attr)
                if raw is None:
                    continue
                if isinstance(raw, classmethod):
                    traced = classmethod(self.wrap(f"{layer}.{attr}", raw.__func__))
                else:
                    traced = self.wrap(f"{layer}.{attr}", raw)
                undo.append((cls, attr, raw))
                setattr(cls, attr, traced)
        try:
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def self_times(self) -> list[float]:
        """Per span: its duration minus the time its child spans cover."""
        own = [end - start for _name, start, end, _parent, _job in self.spans]
        for _name, start, end, parent, _job in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([{"name": n, "start": s, "end": e, "parent": p, "job": j}
                       for n, s, e, p, j in self.spans], handle)
