"""Spans and counts at the public calls of each ``phasealg`` layer.

The tracer wraps functions from outside: module-level functions are
replaced in every ``phasealg`` module that holds a reference to them (so
``closure``'s own ``poisson_bracket`` and ``invariants``'s ``nullspace`` are
traced too), and methods are replaced on their class.  Nothing under
``src/`` is edited.

A span records (id, name, start, end, parent id, job number).  Spans and
counts are kept in memory while jobs run and written out at the end.  A
span's self time is its duration minus the durations of its direct
children, accumulated as each span closes.  Calls made outside a job (input
building, answer checks) are not recorded.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from time import perf_counter

# module -> {function name: span name}
FUNCTIONS = {
    "phasealg.parser": {"parse_expression": "parser.parse_expression"},
    "phasealg.poly": {"partial_derivative": "poly.derivative"},
    "phasealg.brackets": {
        "poisson_bracket": "brackets.poisson",
        "moyal_bracket": "brackets.moyal",
    },
    "phasealg.closure": {
        "close_algebra": "closure.close_algebra",
        "span_reduce": "closure.span_reduce",
    },
    # sparse_rref is left inside nullspace: nullspace.self_s is the elimination.
    "phasealg.linsolve": {"nullspace": "linsolve.nullspace", "invert": "linsolve.invert"},
    "phasealg.invariants": {
        "find_casimir": "invariants.find_casimir",
        "find_center": "invariants.find_center",
        "verify_invariant": "invariants.verify_invariant",
    },
    "phasealg.separation": {
        "verify_canonical": "separation.verify_canonical",
        "separate_hamiltonian": "separation.separate_hamiltonian",
        "two_body_transform": "separation.two_body_transform",
        "jacobi_transform": "separation.jacobi_transform",
    },
    "phasealg.spectra": {
        "fd_eigen_1d": "spectra.fd_eigen_1d",
        "internal_spectrum": "spectra.internal_spectrum",
        "box_spectrum": "spectra.box_spectrum",
        "composite_spectrum": "spectra.composite_spectrum",
        "read_tabulated": "spectra.read_tabulated",
    },
    "phasealg.cli": {"main": "cli.main"},
}

# (module, class) -> {method name: span name}
METHODS = {
    ("phasealg.poly", "PhasePoly"): {
        "__add__": "poly.add",
        "__radd__": "poly.add",
        "__sub__": "poly.sub",
        "__rsub__": "poly.sub",
        "__neg__": "poly.neg",
        "__mul__": "poly.mul",
        "__rmul__": "poly.mul",
        "__truediv__": "poly.truediv",
        "__pow__": "poly.pow",
        "partial_derivative": "poly.derivative",
        "derivative_multi": "poly.derivative",
        "substitute": "poly.substitute",
    },
    ("phasealg.closure", "LieClosure"): {
        "verify": "closure.verify",
        "check_jacobi_tensor": "closure.check_jacobi_tensor",
    },
}

JOB = "job"

# Spans kept for the dump; beyond this only the running totals grow, so a
# long traced run cannot exhaust memory.
MAX_SPANS = 1_000_000

# Per-layer metrics reported by the traced run (see BENCHMARK.json).
SPAN_CALLS = (
    "poly.mul", "poly.add", "brackets.poisson", "brackets.moyal",
    "closure.span_reduce", "linsolve.nullspace", "spectra.fd_eigen_1d",
)
SPAN_SELF = (
    "poly.mul", "poly.add", "poly.derivative", "poly.substitute",
    "brackets.poisson", "brackets.moyal",
    "closure.close_algebra", "closure.verify", "closure.check_jacobi_tensor",
    "closure.span_reduce", "linsolve.nullspace",
    "invariants.find_casimir", "invariants.find_center",
    "separation.verify_canonical", "separation.separate_hamiltonian",
    "spectra.fd_eigen_1d", "spectra.composite_spectrum",
    "parser.parse_expression", "cli.main",
)
COUNTS = (
    "poly.mul.terms_out", "poly.init.terms", "closure.brackets_taken",
    "closure.basis_size", "linsolve.rows", "linsolve.cols",
    "invariants.ansatz_terms", "spectra.grid_points",
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.self_s: list[float] = []
        self.calls: list[int] = []
        self.counts: dict[str, int] = dict.fromkeys(COUNTS, 0)
        self.span_id = array("q")
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.span_job = array("q")
        self.spans_total = 0
        self.job: int | None = None
        self._stack: list[list] = []
        self._restore: list[tuple[object, str, object]] = []
        self._name_id(JOB)

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.self_s.append(0.0)
            self.calls.append(0)
        return self._ids[name]

    # -- recording -------------------------------------------------------------

    def _open(self, nid: int) -> list:
        # frame: [span id, child seconds, name id, start]
        frame = [self.spans_total, 0.0, nid, 0.0]
        self.spans_total += 1
        self._stack.append(frame)
        return frame

    def _close(self, frame: list, end: float) -> None:
        self._stack.pop()
        dur = end - frame[3]
        nid = frame[2]
        self.self_s[nid] += dur - frame[1]
        self.calls[nid] += 1
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[1] += dur
        if len(self.span_id) < MAX_SPANS:
            self.span_id.append(frame[0])
            self.span_name.append(nid)
            self.span_start.append(frame[3])
            self.span_end.append(end)
            self.span_parent.append(parent[0] if parent is not None else -1)
            self.span_job.append(self.job)

    def parent_name(self) -> str | None:
        """Name of the span enclosing the one currently closing."""
        if not self._stack:
            return None
        return self.names[self._stack[-1][2]]

    def run_job(self, job_no: int, fn):
        """Call ``fn`` as job ``job_no`` under a root span; returns (result, seconds)."""
        self.job = job_no
        frame = self._open(self._ids[JOB])
        frame[3] = start = perf_counter()
        try:
            result = fn()
        finally:
            end = perf_counter()
            self._close(frame, end)
            self.job = None
        return result, end - start

    def _wrap(self, fn, name: str, count=None):
        tracer = self
        nid = self._name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.job is None:
                return fn(*args, **kwargs)
            frame = tracer._open(nid)
            frame[3] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(frame, perf_counter())
                if count is not None:
                    count(tracer, args, kwargs, None, exc)
                raise
            tracer._close(frame, perf_counter())
            if count is not None:
                count(tracer, args, kwargs, result, None)
            return result

        return traced

    # -- installing ------------------------------------------------------------

    def install(self) -> None:
        """Wrap every listed function and method; undo with ``uninstall``."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "phasealg" or n.startswith("phasealg.")]
        for home, funcs in FUNCTIONS.items():
            mod = importlib.import_module(home)
            for fname, span in funcs.items():
                original = getattr(mod, fname)
                wrapper = self._wrap(original, span, _COUNTERS.get(span))
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._restore.append((m, attr, original))
                            setattr(m, attr, wrapper)
        for (home, cls_name), methods in METHODS.items():
            cls = getattr(importlib.import_module(home), cls_name)
            for meth, span in methods.items():
                original = cls.__dict__[meth]
                self._restore.append((cls, meth, original))
                setattr(cls, meth, self._wrap(original, span, _COUNTERS.get(span)))
        poly_cls = importlib.import_module("phasealg.poly").PhasePoly
        init = poly_cls.__dict__["__init__"]
        self._restore.append((poly_cls, "__init__", init))
        tracer = self

        @functools.wraps(init)
        def counted_init(obj, ctx, terms):
            if tracer.job is not None:
                tracer.counts["poly.init.terms"] += len(terms)
            init(obj, ctx, terms)

        poly_cls.__init__ = counted_init

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------------

    def self_seconds(self, name: str) -> float:
        nid = self._ids.get(name)
        return 0.0 if nid is None else self.self_s[nid]

    def call_count(self, name: str) -> int:
        nid = self._ids.get(name)
        return 0 if nid is None else self.calls[nid]

    def layer_metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name in SPAN_CALLS:
            out[f"{name}.calls"] = self.call_count(name)
        for name in SPAN_SELF:
            out[f"{name}.self_s"] = self.self_seconds(name)
        out.update(self.counts)
        return out

    def layer_self_total(self) -> float:
        """Self seconds of every traced layer span, the job roots excluded."""
        return sum(s for n, s in zip(self.names, self.self_s) if n != JOB)

    def dump(self, path) -> None:
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            id=np.frombuffer(self.span_id, dtype=np.int64),
            name=np.frombuffer(self.span_name, dtype=np.uint16),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            job=np.frombuffer(self.span_job, dtype=np.int64),
            spans_total=np.array(self.spans_total),
        )


# -- counters taken at span boundaries -------------------------------------------


def _count_mul(tracer, args, kwargs, result, exc):
    if exc is None and hasattr(result, "num_terms"):
        tracer.counts["poly.mul.terms_out"] += result.num_terms()


def _count_bracket(tracer, args, kwargs, result, exc):
    if tracer.parent_name() == "closure.close_algebra":
        tracer.counts["closure.brackets_taken"] += 1


def _count_closure(tracer, args, kwargs, result, exc):
    if exc is None:
        tracer.counts["closure.basis_size"] += len(result.basis)
    elif hasattr(exc, "basis_size"):
        tracer.counts["closure.basis_size"] += exc.basis_size


def _count_nullspace(tracer, args, kwargs, result, exc):
    rows = args[0] if args else kwargs["rows"]
    ncols = args[1] if len(args) > 1 else kwargs["ncols"]
    tracer.counts["linsolve.rows"] += len(rows)
    tracer.counts["linsolve.cols"] += ncols
    if tracer.parent_name() in ("invariants.find_casimir", "invariants.find_center"):
        tracer.counts["invariants.ansatz_terms"] += ncols


def _count_fd(tracer, args, kwargs, result, exc):
    spec = args[0] if args else kwargs["spec"]
    tracer.counts["spectra.grid_points"] += spec.grid


_COUNTERS = {
    "poly.mul": _count_mul,
    "brackets.poisson": _count_bracket,
    "brackets.moyal": _count_bracket,
    "closure.close_algebra": _count_closure,
    "linsolve.nullspace": _count_nullspace,
    "spectra.fd_eigen_1d": _count_fd,
}
