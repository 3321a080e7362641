"""Per-layer spans and counters, attached to toricsheaf from outside.

A layer is a set of toricsheaf functions.  `Tracer.install` replaces every
binding of those functions by a wrapper that records a span.  The modules
import each other's names with ``from .x import y``, so a function is bound
in several namespaces (``cohomology.matrix_rank`` is the name the Cech code
calls, not ``rational_linalg.matrix_rank``); every namespace of the package
that holds the function object is patched.  Methods are patched on their
class.

A span's self time is its duration minus the time covered by the spans it
encloses, so each layer is charged for its own work only: ``matrix_rank``
inside ``cech`` counts as ``rational_linalg.rank``, not as local time.
``solve_square`` is the one exception.  Vertex solving is the core of the
box and lattice-point layers, so its time stays in the self time of the
layer that calls it, and ``rational_linalg.solve_s`` reports the time
inside it across all callers as an overlapping breakdown.

Calls and counters record calls into a layer from outside it; calls nested
inside the same layer (``piece`` inside ``cech``) add only time.  Only the
job is recorded: ``end_setup`` keeps the whole time of ``config.load``,
including the linear algebra that validation calls, and clears the rest.
"""
from __future__ import annotations

import sys
import time
from math import prod

# (defining module, function name, layer)
FUNCTIONS = (
    ("config", "load_config", "config.load"),
    ("filtration", "validate", "config.load"),
    ("cohomology", "enumeration_box", "cohomology.box"),
    ("rational_linalg", "matrix_rank", "rational_linalg.rank"),
    ("rational_linalg", "solve_square", "rational_linalg.solve"),
    ("rational_linalg", "intersect", "rational_linalg.intersect"),
    ("polytopes", "psi_points", "polytopes.psi_points"),
    ("hilbert", "hilbert_function", "hilbert.hilbert_function"),
    ("hilbert", "hilbert_polynomial", "hilbert.interp"),
    # only hilbert_polynomial calls it, as its Euler-characteristic cross-check
    ("cohomology", "euler_characteristic", "hilbert.euler_check"),
)

# SheafCohomology methods; the level tuple is the last positional argument
METHODS = (
    ("levels", "cohomology.levels"),
    ("h0", "cohomology.local"),
    ("hn", "cohomology.local"),
    ("chi", "cohomology.local"),
    ("cech", "cohomology.local"),
    ("piece", "cohomology.local"),
)

LAYERS = tuple(dict.fromkeys(layer for *_, layer in FUNCTIONS + METHODS))
NOT_SPANS = ("rational_linalg.solve",)
COUNTERS = (
    "cohomology.box_characters",
    "rational_linalg.matrix_cells_total",
    "rational_linalg.max_matrix_cells",
    "polytopes.points_enumerated",
    "polytopes.vertex_solves",
)


class Tracer:
    """Span and counter store; one per process, installed at most once."""

    def __init__(self):
        # per layer: [self ns, outer calls, current nesting depth, outer ns]
        self.stats = {layer: [0, 0, 0, 0] for layer in LAYERS}
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.level_tuples: set[tuple[int, ...]] = set()
        # time covered by child spans, one accumulator per open span; the
        # first entry collects the top-level spans
        self.stack = [0]
        self.setup_s = 0.0
        self._patched: list[tuple[object, str, object]] = []

    def end_setup(self) -> None:
        """Keep the setup's config.load time; clear everything else."""
        self.setup_s = self.stats["config.load"][3] / 1e9
        for stat in self.stats.values():
            stat[:] = [0, 0, stat[2], 0]
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.level_tuples.clear()
        self.stack[0] = 0

    # -- counters, called after an outermost call returns ------------------

    def _count_box(self, args, box):
        self.counters["cohomology.box_characters"] += prod(
            hi - lo + 1 for lo, hi in zip(box.lower, box.upper)
        )

    def _count_levels(self, args, result):
        self.level_tuples.add(tuple(args[-1]))

    def _count_rank(self, args, result):
        cells = len(args[0]) * args[1]
        self.counters["rational_linalg.matrix_cells_total"] += cells
        if cells > self.counters["rational_linalg.max_matrix_cells"]:
            self.counters["rational_linalg.max_matrix_cells"] = cells

    def _count_points(self, args, points):
        self.counters["polytopes.points_enumerated"] += len(points)

    def _count_vertex_solve(self, args, result):
        self.counters["polytopes.vertex_solves"] += 1

    def _hook(self, layer, namespace):
        if layer == "cohomology.box":
            return self._count_box
        if layer == "cohomology.local":
            return self._count_levels
        if layer == "rational_linalg.rank":
            return self._count_rank
        if layer == "polytopes.psi_points":
            return self._count_points
        if layer == "rational_linalg.solve" and namespace == "toricsheaf.polytopes":
            return self._count_vertex_solve
        return None

    # -- patching ----------------------------------------------------------

    def _wrap(self, fn, layer, hook):
        stat = self.stats[layer]
        stack = self.stack
        clock = time.perf_counter_ns

        if layer in NOT_SPANS:
            def wrapper(*args, **kwargs):
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    stat[0] += clock() - t0
                stat[1] += 1
                if hook is not None:
                    hook(args, result)
                return result
        else:
            def wrapper(*args, **kwargs):
                outer = not stat[2]
                stat[2] += 1
                stack.append(0)
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    stat[2] -= 1
                    stat[0] += dt - stack.pop()
                    stack[-1] += dt
                    if outer:
                        stat[3] += dt
                if outer:
                    stat[1] += 1
                    if hook is not None:
                        hook(args, result)
                return result

        return wrapper

    def _patch(self, owner, name, wrapper):
        self._patched.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def install(self, package) -> None:
        """Patch every binding of every layer function in the loaded package."""
        modules = [
            m for n, m in sorted(sys.modules.items())
            if m is not None and (n == package.__name__ or n.startswith(package.__name__ + "."))
        ]
        for module_name, func_name, layer in FUNCTIONS:
            target = getattr(sys.modules[f"{package.__name__}.{module_name}"], func_name)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is target:
                        hook = self._hook(layer, module.__name__)
                        self._patch(module, name, self._wrap(target, layer, hook))
        engine = package.cohomology.SheafCohomology
        for method, layer in METHODS:
            hook = self._hook(layer, None)
            self._patch(engine, method, self._wrap(getattr(engine, method), layer, hook))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    def patched_names(self) -> list[str]:
        return sorted(
            f"{getattr(owner, '__name__', owner)}.{name}" for owner, name, _ in self._patched
        )

    # -- results -----------------------------------------------------------

    def covered_ns(self) -> int:
        """Total duration of the top-level spans so far."""
        return self.stack[0]

    def snapshot(self) -> dict[str, float | int]:
        """Per-layer self seconds, call counts and work counters of the job."""
        out: dict[str, float | int] = {}
        for layer, (self_ns, calls, _, _) in self.stats.items():
            out[f"{layer}_s"] = self_ns / 1e9
            out[f"{layer}_calls"] = calls
        out["config.load_s"] = self.setup_s
        out.update(self.counters)
        distinct = len(self.level_tuples)
        calls = self.stats["cohomology.local"][1]
        out["cohomology.distinct_level_tuples"] = distinct
        out["cohomology.local_hit_ratio"] = 1 - distinct / calls if calls else 0.0
        return out
