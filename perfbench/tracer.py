"""In-memory span recorder for the traced benchmark pass.

Layers are traced from outside the package: each public function named in
``LAYERS`` is replaced, in every loaded ``polywave`` module that holds a
reference to it, by a wrapper that records a span (name, start, end, parent,
op id) and updates per-layer counters from its arguments and result.  The
originals are put back by ``Tracer.uninstall``.  Spans stay in memory until
the run writes them out.
"""

from __future__ import annotations

import inspect
import math
import sys
import time
from collections import defaultdict
from pathlib import Path


def _arguments(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


# Counter hooks run after a successful call, outside the span's interval.

def _count_check(counters, fn, args, kwargs, report):
    counters["nonres.check.admitted"] += int(report.admitted)


def _count_oracle(counters, fn, args, kwargs, pair):
    a = _arguments(fn, args, kwargs)
    ctx = a["ctx"]
    p = [float(ti) + int(ji) for ti, ji in zip(a["t"], a["j"])]
    k = math.sqrt(sum(c * c for c in p))
    radius = ctx.m_lin(k) if a["window"] is None else int(a["window"])
    dim = (2 * radius + 1) ** ctx.n
    counters["bloch.oracle.dim_max"] = max(counters["bloch.oracle.dim_max"], dim)


def _count_multiply(counters, fn, args, kwargs, product):
    a = _arguments(fn, args, kwargs)
    counters["lattice.multiply.pairs"] += len(a["f"]) * len(a["g"])


def _count_iterate(counters, fn, args, kwargs, result):
    counters["fixedpoint.steps"] += len(result[1].rows)


def _count_newton(counters, fn, args, kwargs, result):
    a = _arguments(fn, args, kwargs)
    psi = a["psi_init"]
    support = len(set(psi.coeffs) | {(0,) * psi.n})
    counters["galerkin.newton.steps"] += result[1]
    counters["galerkin.newton.support_sum"] += support


def _count_kappa(counters, fn, args, kwargs, sample):
    counters["iso.root_evals"] += sample.evals


def _count_cli(counters, fn, args, kwargs, exit_code):
    argv = list(_arguments(fn, args, kwargs)["argv"])
    out = Path(argv[argv.index("--out") + 1])
    if out.is_dir():
        counters["cli.bytes_written"] += sum(
            p.stat().st_size for p in out.iterdir() if p.is_file()
        )


# (module, attribute, span name, counter hook)
LAYERS = (
    ("polywave.nonres", "check_quasimomentum", "nonres.check", _count_check),
    ("polywave.bloch", "series_eigenpair", "bloch.series", None),
    ("polywave.bloch", "diagonalize_oracle", "bloch.oracle", _count_oracle),
    ("polywave.lattice", "multiply", "lattice.multiply", _count_multiply),
    ("polywave.fixedpoint", "iterate", "fixedpoint.iterate", _count_iterate),
    ("polywave.fixedpoint", "residual", "fixedpoint.residual", None),
    ("polywave.galerkin", "newton_solve", "galerkin.newton", _count_newton),
    ("polywave.iso", "kappa_solve", "iso.kappa", _count_kappa),
    ("polywave.cli", "main", "cli", _count_cli),
)


class Tracer:
    """Records spans and counters while installed; see the module docstring."""

    def __init__(self):
        self.spans = []                 # [name, start, end, parent, op]
        self.counters = defaultdict(float)
        self.op = None
        self._stack = []
        self._patches = []              # (owner, attribute, original)

    # -- recording ----------------------------------------------------

    def _wrap(self, name, fn, hook):
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [name, 0.0, 0.0, parent, self.op]
            self.spans.append(span)
            self._stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if hook is not None:
                hook(self.counters, fn, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def run_op(self, op, fn, *args):
        """Call ``fn(*args)`` as the root span ``op`` of benchmark op ``op``."""
        self.op = op
        try:
            return self._wrap("op", fn, None)(*args)
        finally:
            self.op = None

    # -- installation -------------------------------------------------

    def _rebind(self, original, replacement):
        for modname, module in list(sys.modules.items()):
            if modname != "polywave" and not modname.startswith("polywave."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._patches.append((module, attr, original))

    def install(self):
        for modname, attr, name, hook in LAYERS:
            original = getattr(sys.modules[modname], attr)
            self._rebind(original, self._wrap(name, original, hook))

        from polywave.bloch import ContourSpec

        nodes = ContourSpec.nodes
        counters = self.counters

        def counted_nodes(spec):
            counters["bloch.chain.passes"] += 1
            counters["bloch.chain.nodes"] += spec.count
            return nodes(spec)

        ContourSpec.nodes = counted_nodes
        self._patches.append((ContourSpec, "nodes", nodes))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- summaries ----------------------------------------------------

    def self_times(self):
        """Per span name: (calls, total self time in seconds)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for (name, start, end, _, _), inner in zip(self.spans, child_time):
            calls[name] += 1
            self_s[name] += (end - start) - inner
        return calls, self_s

    def spans_json(self):
        return [
            {"name": name, "start": start, "end": end, "parent": parent, "op": op}
            for name, start, end, parent, op in self.spans
        ]
