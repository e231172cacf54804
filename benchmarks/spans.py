"""Span tracer for the traced run.

Spans are recorded from outside the package: `Tracer.install` replaces
functions of the eigencond modules with timing wrappers, on every module
that binds them (`conditioning.nearest_neighbor_distances` is the same
function as `lattice.nearest_neighbor_distances` under another module's
name), and `uninstall` restores them.  Functions missing from the code are
skipped, so deleting a private kernel leaves the traced run working.

Spans live in flat arrays while the workload runs and are aggregated after
it: a span's self time is its duration minus the part of it that its child
spans cover.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from array import array
from collections import Counter, defaultdict

# The layers are the package modules; each lists the functions given a span.
SPANS = {
    "lattice": ("first_n_lattice_points", "first_n_sites", "enumerate_lattice_in_disk",
                "lattice_count", "nearest_neighbor_distances"),
    "linalg": ("schur", "read_matrix", "_svd_eigenpair", "smallest_singular_value",
               "operator_norm", "unitary_with_first_column"),
    "conditioning": ("condition_report", "condition_report_diagonal",
                     "perturbation_experiment", "_kappa_x_from_vector",
                     "_require_simple_spectrum", "_match_eigenvalues"),
    "extremal": ("convergence_study", "separation_functional", "modulus_p_norm"),
    "optimizer": ("optimize", "_descend", "_polish", "_soft_eval"),
    "cli": ("main",),
}


def _soft_eval_kind(counts, args, kwargs, result):
    with_grad = kwargs["with_grad"] if "with_grad" in kwargs else args[3]
    counts["optimizer.grad_evals" if with_grad else "optimizer.value_evals"] += 1


def _perturb_trials(counts, args, kwargs, result):
    counts["conditioning.trials"] += result.trials
    counts["conditioning.excluded_trials"] += result.excluded_trials


# Counters read off the arguments or the result of a traced call.
COUNTERS = {
    "lattice.nearest_neighbor_distances":
        lambda c, a, k, r: c.update({"lattice.nnd_points": len(r)}),
    "lattice.enumerate_lattice_in_disk":
        lambda c, a, k, r: c.update({"lattice.sites": len(r)}),
    "linalg.read_matrix":
        lambda c, a, k, r: c.update({"linalg.read_matrix.bytes": os.path.getsize(a[0])}),
    "conditioning.condition_report":
        lambda c, a, k, r: c.update({"conditioning.eigenpairs": len(r.per_eigenpair)}),
    "conditioning.perturbation_experiment": _perturb_trials,
    "optimizer._soft_eval": _soft_eval_kind,
    "optimizer.optimize":
        lambda c, a, k, r: c.update({"optimizer.descent_iters": r.trace[-1][0]}),
}


class Tracer:
    """Records one span per call of every wrapped function."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.outer = array("b")  # 0 when a span of the same name encloses it
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._active: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"eigencond.{layer}") for layer in SPANS}
        modules["eigencond"] = importlib.import_module("eigencond")
        for layer, names in SPANS.items():
            for name in names:
                fn = getattr(modules[layer], name, None)
                if fn is None:
                    continue
                span = f"{layer}.{name}"
                wrapper = self._wrap(fn, span, COUNTERS.get(span))
                for module in modules.values():
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def _wrap(self, fn, span: str, counter):
        sid = len(self.names)
        self.names.append(span)
        self._active.append(0)
        clock = time.perf_counter
        stack, active = self._stack, self._active
        start, end, parent, name_id, outer = (self.start, self.end, self.parent,
                                              self.name_id, self.outer)
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            parent.append(stack[-1] if stack else -1)
            name_id.append(sid)
            outer.append(active[sid] == 0)
            active[sid] += 1
            stack.append(idx)
            end.append(0.0)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
                active[sid] -= 1
            if counter is not None:
                try:
                    counter(counts, args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError, OSError):
                    counts["trace.counter_errors"] += 1
            return result

        return traced

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy_s (outermost spans only) and self_s."""
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        selfs = self_times(self.start, self.end, self.parent)
        for i, own in enumerate(selfs):
            row = out[self.names[self.name_id[i]]]
            row["calls"] += 1
            row["self_s"] += own
            if self.outer[i]:
                row["busy_s"] += self.end[i] - self.start[i]
        return dict(out)


def self_times(start, end, parent) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for i, p in enumerate(parent):
        if p >= 0:
            children[p].append(i)
    out = []
    for i in range(len(start)):
        lo_i, hi_i = start[i], end[i]
        covered = 0.0
        run_lo = run_hi = None
        for c in sorted(children.get(i, ()), key=start.__getitem__):
            lo, hi = max(start[c], lo_i), min(end[c], hi_i)
            if hi <= lo:
                continue
            if run_hi is not None and lo <= run_hi:
                run_hi = max(run_hi, hi)
                continue
            if run_hi is not None:
                covered += run_hi - run_lo
            run_lo, run_hi = lo, hi
        if run_hi is not None:
            covered += run_hi - run_lo
        out.append(hi_i - lo_i - covered)
    return out
