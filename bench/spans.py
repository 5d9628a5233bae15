"""Span recorder for the traced benchmark run.

The recorder wraps the public functions of each package module (the names in
its ``__all__``), rebinds every alias other modules hold through
``from``-imports (``cli.build_instance``, ``barrier.logical_space``, ...),
and wraps ``BinaryMatrix.rank/residue/nullspace`` and the ``ReportCache``
methods on their classes.  Each call becomes a span: name, start, end,
parent span, job id, and process CPU time (self plus children).  Spans stay
in memory until ``write``.

A span's self time is its duration minus the time its child spans cover.
Work counters are taken at the same boundaries, from arguments and results.

Not wrapped: the monomial helpers of ``poly`` and ``instantiate.parity_dot``.
They run inside inner loops, so a span per call would dominate what it
measures; their time stays in the calling span.
"""

from __future__ import annotations

import inspect
import json
import os
import sys
import time
from collections import defaultdict

import checks

LAYERS = ("cli", "report", "specfile", "poly", "lattice", "codes", "instantiate",
          "distance", "barrier")
NOT_WRAPPED = {"poly.mono_mul", "poly.mono_inv", "poly.mono_pow", "poly.total_degree",
               "instantiate.parity_dot"}
CLASS_METHODS = {
    "instantiate": ("BinaryMatrix", ("rank", "residue", "nullspace")),
    "report": ("ReportCache", ("key", "load", "store")),
}

# per-layer time metric -> span names whose self time it sums
SELF_TIME = {
    "instantiate.rank_s": ("BinaryMatrix.rank", "BinaryMatrix.residue"),
    "instantiate.build_s": ("instantiate.instantiate", "instantiate.classical_parity_matrix"),
    "lattice.quotient_s": ("lattice.quotient", "lattice.quotient_shape",
                           "lattice.lattice_saturates", "lattice.solve_in_lattice"),
    "instantiate.tanner_s": ("instantiate.tanner_component_count",),
    "instantiate.nullspace_s": ("BinaryMatrix.nullspace",),
    "distance.logical_space_s": ("distance.logical_space",),
    "distance.search_s": ("distance.random_upper_bound",),
    "distance.validate_s": ("distance.validate_logical_witness",),
    "distance.exact_s": ("distance.exact_distance", "distance.exact_sector_distance",
                         "distance.exact_classical_distance"),
    "codes.lift_s": ("codes.lift_to_parent",),
    "codes.compactify_s": ("codes.compactify",),
    "lattice.snf_s": ("lattice.smith_normal_form",),
    "lattice.hnf_s": ("lattice.hermite_basis",),
    "poly.parse_s": ("poly.parse_poly",),
    "cli.self_s": ("cli.main",),
}
# whole-module self times
MODULE_SELF_TIME = {"barrier.search_s": "barrier", "specfile.parse_s": "specfile",
                    "report.self_s": "report"}

PER_LAYER = (
    ("instantiate.rank_s", "s"), ("instantiate.eliminated_cols", "count"),
    ("instantiate.build_s", "s"), ("lattice.quotient_s", "s"),
    ("instantiate.tanner_s", "s"), ("instantiate.nullspace_s", "s"),
    ("instantiate.nullspace_calls", "count"), ("instantiate.nullspace_repeat_frac", "ratio"),
    ("distance.logical_space_s", "s"), ("distance.logical_space_calls", "count"),
    ("distance.search_s", "s"), ("distance.search_cpu_s", "s"),
    ("distance.trials", "count"), ("distance.trials_per_s", "1/s"),
    ("distance.ladder_rungs", "count"), ("distance.validate_s", "s"),
    ("distance.exact_s", "s"), ("distance.exact_states", "count"),
    ("barrier.search_s", "s"), ("barrier.explored", "count"),
    ("barrier.explored_per_s", "1/s"), ("codes.symbolic_s", "s"),
    ("codes.lift_s", "s"), ("codes.lift_calls", "count"),
    ("codes.lift_fail_frac", "ratio"), ("codes.compactify_s", "s"),
    ("lattice.snf_s", "s"), ("lattice.snf_calls", "count"), ("lattice.hnf_s", "s"),
    ("poly.parse_s", "s"), ("specfile.parse_s", "s"), ("specfile.calls", "count"),
    ("report.self_s", "s"), ("cli.self_s", "s"), ("trace.overhead_s", "s"),
)


def _cpu() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


class SpanRecorder:
    """Wraps the package's public entry points and records one span per call."""

    def __init__(self, package: str = "polyqec"):
        self.package = package
        self.spans: list[tuple] = []  # (name, start, end, parent, job, cpu)
        self.counts: dict[str, int] = defaultdict(int)
        self.job: str | None = None
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self._seen: dict[str, dict[int, object]] = defaultdict(dict)
        self._swept: list[tuple[tuple[int, ...], int]] = []  # (check rows, ncols)

    # -- job boundaries ------------------------------------------------------

    def begin_job(self, job_id: str) -> None:
        """Start a job; matrices seen so far are forgotten (they are per job)."""
        self.job = job_id
        self._seen.clear()

    def _first_time(self, kind: str, obj) -> bool:
        seen = self._seen[kind]
        if id(obj) in seen:
            return False
        seen[id(obj)] = obj  # the reference keeps the id unique within the job
        return True

    # -- patching ------------------------------------------------------------

    def install(self) -> SpanRecorder:
        """Wrap what exists; a name a later version drops just records nothing."""
        wrappers: dict[int, object] = {}
        modules = {
            m: sys.modules[f"{self.package}.{m}"]
            for m in LAYERS
            if f"{self.package}.{m}" in sys.modules
        }
        for short, mod in modules.items():
            for name in getattr(mod, "__all__", ()):
                obj = getattr(mod, name, None)
                if inspect.isfunction(obj) and f"{short}.{name}" not in NOT_WRAPPED:
                    wrappers[id(obj)] = self._wrap(f"{short}.{name}", obj)
        # rebind the public names and every alias held elsewhere in the package
        prefix = self.package + "."
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == self.package or mod_name.startswith(prefix)):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and inspect.isfunction(value):
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
        for short, (cls_name, methods) in CLASS_METHODS.items():
            cls = getattr(modules.get(short), cls_name, None)
            for meth in methods:
                original = getattr(cls, "__dict__", {}).get(meth)
                if original is None:
                    continue
                self._restore.append((cls, meth, original))
                setattr(cls, meth, self._wrap(f"{cls_name}.{meth}", original))
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        before = getattr(self, "_before_" + name.replace(".", "_"), None)
        after = getattr(self, "_after_" + name.replace(".", "_"), None)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            cpu0 = _cpu()
            t0 = clock()
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                t1 = clock()
                spans[idx] = (name, t0, t1, parent, self.job, _cpu() - cpu0)
                stack.pop()
                if after is not None:
                    after(args, result, exc)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- counters taken at the boundaries ------------------------------------

    def _eliminated(self, args) -> None:
        matrix = args[0]
        if self._first_time("eliminated", matrix):
            self.counts["instantiate.eliminated_cols"] += matrix.ncols

    _before_BinaryMatrix_rank = _eliminated
    _before_BinaryMatrix_residue = _eliminated

    def _before_BinaryMatrix_nullspace(self, args) -> None:
        self._eliminated(args)
        self.counts["instantiate.nullspace_calls"] += 1
        if not self._first_time("nullspace", args[0]):
            self.counts["nullspace_repeats"] += 1

    def _after_distance_logical_space(self, args, result, exc) -> None:
        self.counts["distance.logical_space_calls"] += 1

    def _after_distance_random_upper_bound(self, args, result, exc) -> None:
        if result is not None:
            self.counts["distance.trials"] += result.trials

    # The swept kernels are only noted here; their dimensions are counted in
    # metrics(), by the benchmark's own elimination, outside every span.
    def _after_distance_exact_sector_distance(self, args, result, exc) -> None:
        if result is not None:
            inst, sector = args[0], args[1]
            own = inst.hz if sector == "X" else inst.hx
            self._swept.append((own.rows, own.ncols))

    def _after_distance_exact_classical_distance(self, args, result, exc) -> None:
        if result is not None:
            self._swept.append((args[0].rows, args[0].ncols))

    def _explored(self, args, result, exc) -> None:
        if result is not None:
            self.counts["barrier.explored"] += result.explored

    _after_barrier_barrier = _explored
    _after_barrier_sector_barrier = _explored
    _after_barrier_classical_code_barrier = _explored

    def _after_codes_lift_to_parent(self, args, result, exc) -> None:
        self.counts["codes.lift_calls"] += 1
        if exc is not None:
            self.counts["lift_failures"] += 1

    def _after_lattice_smith_normal_form(self, args, result, exc) -> None:
        self.counts["lattice.snf_calls"] += 1

    # -- reduction -----------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], dict[str, float]]:
        """Self wall time and self CPU time summed per span name."""
        child_wall = [0.0] * len(self.spans)
        child_cpu = [0.0] * len(self.spans)
        for name, t0, t1, parent, _job, cpu in self.spans:
            if parent >= 0:
                child_wall[parent] += t1 - t0
                child_cpu[parent] += cpu
        wall: dict[str, float] = defaultdict(float)
        cpu_self: dict[str, float] = defaultdict(float)
        for i, (name, t0, t1, _parent, _job, cpu) in enumerate(self.spans):
            wall[name] += (t1 - t0) - child_wall[i]
            cpu_self[name] += cpu - child_cpu[i]
        return wall, cpu_self

    def metrics(self, passes: int, ladder_rungs: int, overhead_s: float) -> dict:
        """Every per-layer metric, per traced pass (ratios are pooled)."""
        wall, cpu = self.self_times()
        out: dict[str, float] = {}
        for metric, names in SELF_TIME.items():
            out[metric] = sum(wall[n] for n in names) / passes
        for metric, module in MODULE_SELF_TIME.items():
            out[metric] = sum(v for n, v in wall.items() if n.startswith(module + ".")) / passes
        out["codes.symbolic_s"] = sum(
            v for n, v in wall.items()
            if n.startswith("codes.") and n not in ("codes.lift_to_parent", "codes.compactify")
        ) / passes
        out["distance.search_cpu_s"] = cpu["distance.random_upper_bound"] / passes
        out["specfile.calls"] = sum(
            1 for s in self.spans if s[0].startswith("specfile.")
        ) / passes
        for name in ("instantiate.eliminated_cols", "instantiate.nullspace_calls",
                     "distance.logical_space_calls", "distance.trials",
                     "barrier.explored", "codes.lift_calls", "lattice.snf_calls"):
            out[name] = self.counts[name] / passes
        out["distance.exact_states"] = sum(
            (1 << (ncols - checks.gf2_rank(rows))) - 1 for rows, ncols in self._swept
        ) / passes
        calls = self.counts["instantiate.nullspace_calls"]
        out["instantiate.nullspace_repeat_frac"] = (
            self.counts["nullspace_repeats"] / calls if calls else 0.0
        )
        lifts = self.counts["codes.lift_calls"]
        out["codes.lift_fail_frac"] = self.counts["lift_failures"] / lifts if lifts else 0.0
        search = out["distance.search_s"]
        out["distance.trials_per_s"] = out["distance.trials"] / search if search else 0.0
        bsearch = out["barrier.search_s"]
        out["barrier.explored_per_s"] = out["barrier.explored"] / bsearch if bsearch else 0.0
        out["distance.ladder_rungs"] = ladder_rungs / passes
        out["trace.overhead_s"] = overhead_s
        return {name: {"value": out[name], "unit": unit} for name, unit in PER_LAYER}

    def write(self, path) -> None:
        """Spans as JSON lines: name, start, end, parent index, job, cpu."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
