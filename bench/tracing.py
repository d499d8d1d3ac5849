"""Spans and counters recorded around scatter1d's layers, from outside.

``Tracer.install()`` replaces every public function of the library's modules
at every module attribute that binds it (``scatter1d.engines.chain_product``
as well as ``scatter1d.transfer.chain_product``), and the ``evaluate``,
``fourier`` and ``double_fourier`` methods on the ``Potential`` base class,
with wrappers that open a span named ``<module>.<function>``.  A span's self
time is its duration minus the part of it that its child spans cover.  A
span opened on a worker thread with no open span of its own is a child of
the innermost span open on the main thread (the scan thread pool), and such
children are merged as intervals, since they overlap each other.

Aggregates are kept per thread and merged at the end, so no span list grows
with the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time
from collections import defaultdict

import numpy as np

LAYERS = ("potentials", "transfer", "exact", "engines", "approx", "scan", "design", "cli")
POTENTIAL_METHODS = ("evaluate", "fourier", "double_fourier")
# counted, not spanned: their time stays with the transform that calls them
QUADRATURE_KERNELS = ("_filon_linear", "_filon_prefix")


class _Frame:
    __slots__ = ("name", "start", "child", "intervals")

    def __init__(self, name: str, start: float):
        self.name = name
        self.start = start
        self.child = 0.0
        self.intervals: list[tuple[float, float]] = []


def _union_length(intervals, lo: float, hi: float) -> float:
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


class _ThreadState(threading.local):
    def __init__(self):
        self.stack: list[_Frame] = []
        self.calls: dict[str, int] | None = None
        self.self_s: dict[str, float] | None = None
        self.counts: dict[str, float] | None = None


class Tracer:
    def __init__(self):
        self._local = _ThreadState()
        self._tables: list[tuple[dict, dict, dict]] = []
        self._lock = threading.Lock()
        self._main_stack: list[_Frame] = self._local.stack
        self._restore: list[tuple[object, str, object]] = []
        self.enabled = False

    # -- per-thread tables ---------------------------------------------------

    def _tables_here(self) -> _ThreadState:
        st = self._local
        if st.calls is None:
            st.calls, st.self_s, st.counts = defaultdict(int), defaultdict(float), defaultdict(float)
            with self._lock:
                self._tables.append((st.calls, st.self_s, st.counts))
        return st

    def count(self, name: str, n: float = 1) -> None:
        if self.enabled:
            self._tables_here().counts[name] += n

    def inside(self, name: str) -> bool:
        return any(f.name == name for f in self._local.stack)

    def parent_name(self) -> str | None:
        stack = self._local.stack
        return stack[-1].name if stack else None

    def totals(self) -> tuple[dict, dict, dict]:
        calls, self_s, counts = defaultdict(int), defaultdict(float), defaultdict(float)
        with self._lock:
            for c, s, n in self._tables:
                for key, val in c.items():
                    calls[key] += val
                for key, val in s.items():
                    self_s[key] += val
                for key, val in n.items():
                    counts[key] += val
        return calls, self_s, counts

    # -- spans ---------------------------------------------------------------

    def wrap(self, name: str, fn, hook=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            st = tracer._tables_here()
            stack = st.stack
            parent = stack[-1] if stack else None
            cross = parent is None and stack is not tracer._main_stack
            if cross and tracer._main_stack:
                parent = tracer._main_stack[-1]
            frame = _Frame(name, time.perf_counter())
            stack.append(frame)
            result, failed = None, True
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                covered = frame.child + _union_length(frame.intervals, frame.start, end)
                st.calls[name] += 1
                st.self_s[name] += end - frame.start - covered
                if parent is not None:
                    if cross:
                        parent.intervals.append((frame.start, end))
                    else:
                        parent.child += end - frame.start
                if hook is not None:
                    hook(tracer, args, kwargs, result, failed)

        return traced

    def wrap_count(self, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if tracer.enabled:
                hook(tracer, args, kwargs)
            return fn(*args, **kwargs)

        return counted

    def install(self, package, hooks: dict) -> None:
        """Wrap the public functions of every layer at each binding, plus the
        Potential transform methods and the quadrature kernels (counted)."""
        modules = {name: importlib.import_module(f"{package.__name__}.{name}") for name in LAYERS}
        bindings = [package, *modules.values()]
        for layer, mod in modules.items():
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrapped = self.wrap(name, fn, hooks.get(name))
                for binding in bindings:
                    for battr, val in list(vars(binding).items()):
                        if val is fn:
                            self._set(binding, battr, wrapped)
        base = modules["potentials"].Potential
        for meth in POTENTIAL_METHODS:
            name = f"potentials.{meth}"
            self._set(base, meth, self.wrap(name, vars(base)[meth], hooks.get(name)))
        pot = modules["potentials"]
        for kernel in QUADRATURE_KERNELS:
            self._set(pot, kernel, self.wrap_count(getattr(pot, kernel), _count_quadrature))

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()


def _count_quadrature(tracer: Tracer, args, kwargs) -> None:
    tracer.count("potentials.quadrature.points", np.size(args[0]))


# ---------------------------------------------------------------------------
# Hooks: counts measured where the work happens
# ---------------------------------------------------------------------------


def _evaluate(tracer, args, kwargs, result, failed):
    x = args[1]
    tracer.count("potentials.evaluate.points", np.size(x))
    if np.ndim(x) == 0:  # an ODE right-hand side evaluates v at one scalar x
        parent = tracer.parent_name()
        if parent in ("engines.scattering_solution", "engines.s_curve_solve"):
            tracer.count(f"{parent}.rhs_evals")


def _barrier_slices(tracer, args, kwargs, result, failed):
    n = np.size(args[0])
    tracer.count("exact.barrier_slice_matrices.slices", n)
    if tracer.inside("engines.transfer_matrix_dynamical"):
        tracer.count("engines.transfer_matrix_dynamical.slices", n)


def _chain(tracer, args, kwargs, result, failed):
    tracer.count("transfer.chain_product.matrices", len(args[0]))


def _matrix_at(tracer, args, kwargs, result, failed):
    if tracer.inside("scan.refine_zero"):
        tracer.count("scan.refine_zero.matrix_evals")


def _refine(tracer, args, kwargs, result, failed):
    if not failed:
        tracer.count("scan.refine_zero.accepted")


def _block_built(tracer, args, kwargs, result, failed):
    tracer.count("design.block_builds")


def _designed(tracer, args, kwargs, result, failed):
    if not failed:
        tracer.count("design.blocks", len(result.blocks))


HOOKS = {
    "potentials.evaluate": _evaluate,
    "exact.barrier_slice_matrices": _barrier_slices,
    "transfer.chain_product": _chain,
    "scan.matrix_at": _matrix_at,
    "scan.refine_zero": _refine,
    "design.build_right_invisible": _block_built,
    "design.build_left_invisible": _block_built,
    "design.solve_single_mode": _designed,
}


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, float]:
    """Per-operation means (and ratios) of the named per-layer metrics."""
    calls, self_s, counts = tracer.totals()

    def per_op(value: float) -> float:
        return value / ops

    def self_ms(name: str) -> float:
        return per_op(1e3 * self_s.get(name, 0.0))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    return {
        "potentials.evaluate.calls": per_op(calls.get("potentials.evaluate", 0)),
        "potentials.evaluate.self_ms": self_ms("potentials.evaluate"),
        "potentials.evaluate.points": per_op(counts["potentials.evaluate.points"]),
        "potentials.fourier.self_ms": self_ms("potentials.fourier"),
        "potentials.double_fourier.self_ms": self_ms("potentials.double_fourier"),
        "potentials.quadrature.points": per_op(counts["potentials.quadrature.points"]),
        "exact.barrier_slice_matrices.slices": per_op(counts["exact.barrier_slice_matrices.slices"]),
        "exact.barrier_slice_matrices.self_ms": self_ms("exact.barrier_slice_matrices"),
        "exact.exact_matrix.self_ms": self_ms("exact.exact_matrix"),
        "transfer.chain_product.matrices": per_op(counts["transfer.chain_product.matrices"]),
        "transfer.chain_product.self_ms": self_ms("transfer.chain_product"),
        "transfer.classify.self_ms": self_ms("transfer.classify"),
        "engines.transfer_matrix_dynamical.calls": per_op(
            calls.get("engines.transfer_matrix_dynamical", 0)
        ),
        "engines.transfer_matrix_dynamical.self_ms": self_ms("engines.transfer_matrix_dynamical"),
        "engines.transfer_matrix_dynamical.slices_per_call": ratio(
            counts["engines.transfer_matrix_dynamical.slices"],
            calls.get("engines.transfer_matrix_dynamical", 0),
        ),
        "engines.scattering_solution.self_ms": self_ms("engines.scattering_solution"),
        "engines.scattering_solution.rhs_evals": per_op(
            counts["engines.scattering_solution.rhs_evals"]
        ),
        "engines.s_curve_solve.calls": per_op(calls.get("engines.s_curve_solve", 0)),
        "engines.s_curve_solve.self_ms": self_ms("engines.s_curve_solve"),
        "engines.s_curve_solve.rhs_evals": per_op(counts["engines.s_curve_solve.rhs_evals"]),
        "scan.scan.self_ms": self_ms("scan.scan"),
        "scan.matrix_at.calls": per_op(calls.get("scan.matrix_at", 0)),
        "scan.refine_zero.calls": per_op(calls.get("scan.refine_zero", 0)),
        "scan.refine_zero.accepted_ratio": ratio(
            counts["scan.refine_zero.accepted"], calls.get("scan.refine_zero", 0)
        ),
        "scan.refine_zero.matrix_evals_per_call": ratio(
            counts["scan.refine_zero.matrix_evals"], calls.get("scan.refine_zero", 0)
        ),
        "scan.refine_zero.self_ms": self_ms("scan.refine_zero"),
        "design.solve_single_mode.self_ms": self_ms("design.solve_single_mode"),
        "design.block_builds_per_block": ratio(
            counts["design.block_builds"], counts["design.blocks"]
        ),
        "approx.born_first.self_ms": self_ms("approx.born_first"),
        "approx.dyson_order1.self_ms": self_ms("approx.dyson_order1"),
        "approx.dyson_order2.self_ms": self_ms("approx.dyson_order2"),
        "cli.main.self_ms": self_ms("cli.main"),
    }

