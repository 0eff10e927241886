"""Per-layer spans and work counts, recorded from outside the program.

``Tracer.install()`` replaces the public functions of each layer module
of ``zzqh`` (and six ``Matrix`` methods) with wrappers, in every
``zzqh`` namespace that holds them, and ``uninstall()`` puts the
originals back.  A wrapper records a span: its duration, and its self
time, which is the duration minus the spans of wrapped calls made inside
it on the same thread.  Some wrappers also count work from the call's
arguments and result.  ``snapshot()`` turns what was recorded since the
last ``reset()`` into the per-layer metrics of ``METRICS``.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import weakref
from time import perf_counter

LAYERS = ("cli", "algebra", "linalg", "modules", "qh", "koszul", "extdual")

# Tiny helpers called per path or per multidegree: a span on them would
# cost far more than the work it shows.
SKIPPED = {"algebra.label_key", "algebra.shifted_dual_membership", "cli.main"}

# linalg's module-level functions are unused wrappers of these methods.
MATRIX_METHODS = {"__init__": "construct", "rref": "rref", "__mul__": "matmul",
                  "mul_row": "mul_row", "kernel_basis": "kernel_basis",
                  "solve": "solve"}

S, COUNT, RATIO = "s", "count", "ratio"
TIMED = (S, "s/s")  # units of the metrics that are not exact work counts

# (name, unit, better).  A ".s" metric is self time per pass, except
# cli.check_tasks.s, the summed spans of the top-level check calls.
METRICS = [(f"{layer}.s", S, "lower") for layer in LAYERS] + [
    ("algebra.compute_basis.s", S, "lower"),
    ("algebra.compute_basis.calls", COUNT, "lower"),
    ("algebra.compute_basis.cover_calls", COUNT, "lower"),
    ("algebra.paths_enumerated", COUNT, "lower"),
    ("algebra.basis_yield", RATIO, "higher"),
    ("linalg.rref.s", S, "lower"),
    ("linalg.rref.calls", COUNT, "lower"),
    ("linalg.rref.cells", COUNT, "lower"),
    ("linalg.rref.max_cells", COUNT, "lower"),
    ("linalg.construct.s", S, "lower"),
    ("linalg.construct.cells", COUNT, "lower"),
    ("linalg.matmul.s", S, "lower"),
    ("linalg.mul_row.s", S, "lower"),
    ("linalg.mul_row.calls", COUNT, "lower"),
    ("modules.projective_module.s", S, "lower"),
    ("modules.projective_module.calls", COUNT, "lower"),
    ("modules.projective_module.hit_ratio", RATIO, "higher"),
    ("modules.direct_sum.s", S, "lower"),
    ("modules.direct_sum.cells", COUNT, "lower"),
    ("modules.minimal_resolution.s", S, "lower"),
    ("modules.minimal_resolution.calls", COUNT, "lower"),
    ("modules.resolution_terms", COUNT, "lower"),
    ("modules.free_dim", COUNT, "lower"),
    ("modules.standard_module.calls", COUNT, "lower"),
    ("modules.hom_space.s", S, "lower"),
    ("modules.hom_complex.s", S, "lower"),
    ("modules.ext_bigraded_reps.s", S, "lower"),
    ("modules.delta_filtration.s", S, "lower"),
    ("qh.check_quasi_hereditary.s", S, "lower"),
    ("qh.check_cover.s", S, "lower"),
    ("qh.check_borel.s", S, "lower"),
    ("koszul.check_koszul.s", S, "lower"),
    ("koszul.check_delta_koszul.s", S, "lower"),
    ("koszul.check_shifted_dual_lemmas.s", S, "lower"),
    ("extdual.ext_table.s", S, "lower"),
    ("extdual.ext_table.calls", COUNT, "lower"),
    ("extdual.yoneda_product.s", S, "lower"),
    ("extdual.yoneda_product.calls", COUNT, "lower"),
    ("extdual.compare_dual.s", S, "lower"),
    ("extdual.check_simple_costandard_dims.s", S, "lower"),
    ("cli.run_cli.s", S, "lower"),
    ("cli.check_tasks.s", S, "lower"),
    ("cli.task_overlap", "s/s", "lower"),
]


def paths_by_length(pres, top: int) -> int:
    """Number of paths of lengths 1..top in the presentation's quiver,
    which is what degreewise elimination enumerates."""
    ends = {v: 1 for v in pres.vertices}
    total = 0
    for _ in range(top):
        nxt = dict.fromkeys(pres.vertices, 0)
        for a in pres.arrows:
            nxt[a.target] += ends[a.source]
        ends = nxt
        total += sum(ends.values())
    return total


class Tracer:
    """Spans and counts are kept per thread, without locks on the hot
    path, and merged by ``snapshot()``."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states = []
        self._patches = []
        self.reset()

    def _state(self):
        """This thread's (span stack, spans, counts, maxima)."""
        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = ([], {}, {}, {})
            with self._lock:
                self._states.append((threading.current_thread(), state))
            return state

    def reset(self):
        """Forget what was recorded.  Call it while no traced code runs."""
        with self._lock:
            self._states = [(t, st) for t, st in self._states if t.is_alive()]
            for _, (_, spans, counts, maxima) in self._states:
                spans.clear()
                counts.clear()
                maxima.clear()
            self._projectives = weakref.WeakSet()

    def count(self, key, amount=1):
        counts = self._state()[2]
        counts[key] = counts.get(key, 0) + amount

    def count_max(self, key, value):
        maxima = self._state()[3]
        maxima[key] = max(maxima.get(key, 0), value)

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name, fn, hook):
        state = self._state

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, spans, _, _ = state()
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += took
                rec = spans.get(name)
                if rec is None:
                    rec = spans[name] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += took - frame[0]
                rec[2] += took
            if hook is not None:
                start = perf_counter()
                hook(self, args, result)
                if stack:
                    stack[-1][0] += perf_counter() - start
            return result
        return traced

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        import zzqh.cli  # noqa: F401  (loads every layer module)
        from zzqh.linalg import Matrix
        namespaces = [m for key, m in sorted(sys.modules.items())
                      if key == "zzqh" or key.startswith("zzqh.")]
        targets = []
        for layer in LAYERS:
            if layer == "linalg":
                continue
            mod = sys.modules[f"zzqh.{layer}"]
            for attr, fn in sorted(vars(mod).items()):
                name = f"{layer}.{attr}"
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not attr.startswith("_") and name not in SKIPPED):
                    targets.append((name, fn))
        targets.append(("cli.check_tasks", sys.modules["zzqh.cli"]._check_one))
        for name, fn in targets:
            wrapper = self._wrap(name, fn, HOOKS.get(name))
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is fn:
                        self._patches.append((ns, attr, fn))
                        setattr(ns, attr, wrapper)
        for attr, short in MATRIX_METHODS.items():
            fn = vars(Matrix)[attr]
            name = f"linalg.{short}"
            self._patches.append((Matrix, attr, fn))
            setattr(Matrix, attr, self._wrap(name, fn, HOOKS.get(name)))
        return self

    def uninstall(self):
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches = []

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- metrics ------------------------------------------------------------

    def snapshot(self) -> dict:
        """The metrics of ``METRICS`` for what ran since ``reset()``."""
        spans, counts = {}, {}
        with self._lock:
            states = [st for _, st in self._states]
        for _, thread_spans, thread_counts, maxima in states:
            for name, rec in thread_spans.items():
                total = spans.setdefault(name, [0, 0.0, 0.0])
                for k in range(3):
                    total[k] += rec[k]
            for key, v in thread_counts.items():
                counts[key] = counts.get(key, 0) + v
            for key, v in maxima.items():
                counts[key] = max(counts.get(key, 0), v)
        out = {f"{layer}.s": 0.0 for layer in LAYERS}
        for name, (calls, self_s, _) in spans.items():
            out[name.split(".")[0] + ".s"] += self_s
            out[name + ".s"] = self_s
            out[name + ".calls"] = calls
        out.update(counts)
        proj_calls = out.get("modules.projective_module.calls", 0)
        out["modules.projective_module.hit_ratio"] = (
            counts.get("modules.projective_module.hits", 0) / proj_calls
            if proj_calls else 0.0)
        paths = counts.get("algebra.paths_enumerated", 0)
        out["algebra.basis_yield"] = (
            counts.get("algebra.basis_paths", 0) / paths if paths else 0.0)
        tasks = spans.get("cli.check_tasks", [0, 0.0, 0.0])[2]
        run = spans.get("cli.run_cli", [0, 0.0, 0.0])[2]
        out["cli.check_tasks.s"] = tasks
        out["cli.task_overlap"] = tasks / run if run else 0.0
        return {name: out.get(name, 0 if unit == COUNT else 0.0)
                for name, unit, _ in METRICS}


def _compute_basis(tracer, args, inst):
    pres = args[0]
    if pres.kind == "cover":
        tracer.count("algebra.compute_basis.cover_calls")
    top = len(inst.basis_by_length) - 1
    tracer.count("algebra.paths_enumerated", paths_by_length(pres, top))
    tracer.count("algebra.basis_paths", inst.dim() - len(pres.vertices))


def _construct(tracer, args, _):
    m = args[0]
    tracer.count("linalg.construct.cells", m.nrows * m.ncols)


def _rref(tracer, args, _):
    cells = args[0].nrows * args[0].ncols
    tracer.count("linalg.rref.cells", cells)
    tracer.count_max("linalg.rref.max_cells", cells)


def _projective(tracer, args, mod):
    """A call that hands back a module it returned before was a hit."""
    with tracer._lock:
        hit = mod in tracer._projectives
        tracer._projectives.add(mod)
    if hit:
        tracer.count("modules.projective_module.hits")


def _direct_sum(tracer, args, mod):
    tracer.count("modules.direct_sum.cells", mod.dim * mod.dim * len(mod.action))


def _resolution(tracer, args, res):
    tracer.count("modules.resolution_terms", sum(len(t) for t in res.terms))
    tracer.count("modules.free_dim", sum(f.dim for f in res.frees))


HOOKS = {"algebra.compute_basis": _compute_basis,
         "linalg.construct": _construct,
         "linalg.rref": _rref,
         "modules.projective_module": _projective,
         "modules.direct_sum": _direct_sum,
         "modules.minimal_resolution": _resolution}
