"""Per-layer tracing of heckekit from outside the package.

`Tracer.install()` replaces every public function of the package modules
with a timing wrapper, on the module that defines it and on every package
module that imported it by name, and wraps the arithmetic methods of
`LaurentPoly` (layer `laurent`) and `MultiPoly` (layer `demazure`) on the
classes themselves, since `from .laurent import v_power`-style imports and
method calls bypass module attributes.

Each call is a span.  Spans are folded into per-function totals as they
close: calls, inclusive seconds and self seconds (inclusive minus the part
covered by child spans).  A layer's self time is the sum over its
functions, so the layers' self times never exceed the traced wall time.

What module-attribute wrapping cannot see (listed in `OPAQUE`): work done
inside a function without calls to other public functions is all self time
of that function; the leaf loop of `subexpr.sweep` is the main example, so
its leaf and endpoint counts are read from its return value.
"""
from __future__ import annotations

import functools
import inspect
import time

LAYERS = ("laurent", "coxeter", "hecke", "spherical", "subexpr", "demazure",
          "worddata", "cli")

CLASS_METHODS = {
    ("laurent", "LaurentPoly"): {
        "__init__": "new", "__add__": "add", "__mul__": "mul",
        "__neg__": "neg", "__sub__": "sub", "__pow__": "pow", "bar": "bar",
        "exact_divide": "exact_divide",
        "is_nonnegative_powers": "is_nonnegative_powers",
        "to_json_dict": "to_json_dict",
    },
    ("demazure", "MultiPoly"): {
        "__init__": "multipoly_new", "__add__": "multipoly_add",
        "__mul__": "multipoly_mul", "__pow__": "multipoly_pow",
        "swap_variables": "multipoly_swap",
    },
}

OPAQUE = {
    "subexpr.sweep": "one loop over all leaves with no calls; leaves and "
                     "endpoints are counted from its result",
    "subexpr.iter_subexpressions": "recursion through a nested generator",
    "hecke.mult_by_gen": "accumulates through a nested helper",
    "demazure.eval_expr": "walks the tree through a nested helper",
    "laurent.LaurentPoly": "__bool__, __eq__, __hash__, coefficient and "
                           "the other cheap methods stay unwrapped and "
                           "count as their caller's self time",
}


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}   # name -> [calls, incl_s, self_s]
        self.layer_of: dict[str, str] = {}
        self.counters: dict[str, float] = {}
        self._stack: list[float] = []      # child seconds of open spans
        self._undo: list[tuple[object, str, object]] = []

    # -- span bookkeeping ------------------------------------------------

    def count(self, key: str, value: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def wrap(self, name: str, layer: str, fn, before=None, after=None):
        rec = self.stats.setdefault(name, [0, 0.0, 0.0])
        self.layer_of[name] = layer
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                self._hook(before, args)
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(rec, clock() - t0)
                if after is not None:
                    self._hook(after, args, None, exc)
                raise
            self._close(rec, clock() - t0)
            if after is not None:
                self._hook(after, args, result, None)
            return result

        return wrapper

    def _close(self, rec, dt: float) -> None:
        child = self._stack.pop()
        rec[0] += 1
        rec[1] += dt
        rec[2] += dt - child
        if self._stack:
            self._stack[-1] += dt

    def _hook(self, hook, *args) -> None:
        # hook time belongs to no layer: charge it to the caller as a child
        t0 = time.perf_counter()
        hook(*args)
        if self._stack:
            self._stack[-1] += time.perf_counter() - t0

    # -- installation ----------------------------------------------------

    def install(self, hooks: dict | None = None) -> None:
        """Wrap the package in place; `hooks` maps a span name to
        (before, after) callables."""
        import importlib

        hooks = hooks or {}
        modules = {layer: importlib.import_module(f"heckekit.{layer}")
                   for layer in LAYERS}
        replaced: dict[int, object] = {}
        for layer, mod in modules.items():
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                before, after = hooks.get(name, (None, None))
                replaced[id(fn)] = self.wrap(name, layer, fn, before, after)
        for mod in modules.values():
            for attr, fn in list(vars(mod).items()):
                wrapper = replaced.get(id(fn))
                if wrapper is not None:
                    self._undo.append((mod, attr, fn))
                    setattr(mod, attr, wrapper)
        for (layer, cls_name), methods in CLASS_METHODS.items():
            cls = getattr(modules[layer], cls_name)
            for meth, short in methods.items():
                fn = vars(cls)[meth]
                name = f"{layer}.{short}"
                before, after = hooks.get(name, (None, None))
                wrapper = self.wrap(name, layer, fn, before, after)
                for attr, val in list(vars(cls).items()):
                    if val is fn:       # __radd__ = __add__ and the like
                        self._undo.append((cls, attr, fn))
                        setattr(cls, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    # -- results ---------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0, 0.0, 0.0))[0]

    def inclusive_s(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[1]

    def layer_self_s(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for name, (_, _, self_s) in self.stats.items():
            out[self.layer_of[name]] += self_s
        return out

    def to_json(self) -> dict:
        return {"stats": self.stats, "layer_of": self.layer_of,
                "counters": self.counters}

    @classmethod
    def merge_json(cls, parts) -> "Tracer":
        """Sum the totals of several traced processes."""
        out = cls()
        for part in parts:
            for name, (calls, incl, self_s) in part["stats"].items():
                rec = out.stats.setdefault(name, [0, 0.0, 0.0])
                rec[0] += calls
                rec[1] += incl
                rec[2] += self_s
            out.layer_of.update(part["layer_of"])
            for key, val in part["counters"].items():
                out.count(key, val)
        return out


def standard_hooks(tracer: Tracer) -> dict:
    """Counters read at the layer boundaries named by the per-layer
    metrics: cache hits before the call, sizes from results.  The caches
    are read by their current private names; a cache that is renamed or
    removed counts no hits."""
    from heckekit import hecke, spherical
    from heckekit.demazure import DegreeAuditFailure

    count = tracer.count
    kl_cache = getattr(hecke, "_kl_cache", {})
    inverse_cache = getattr(hecke, "_inverse_cache", {})
    skl_cache = getattr(spherical, "_skl_cache", {})

    def kl_before(args):
        count("hecke.kl_basis.hits", tuple(args[0]) in kl_cache)

    def inverse_before(args):
        count("hecke.inverse_h.hits", tuple(args[0]) in inverse_cache)

    def skl_before(args):
        key = (tuple(args[0]), frozenset(args[1]))
        count("spherical.spherical_kl_basis.hits", key in skl_cache)

    def act_before(args):
        count("spherical.act_by_gen.terms", len(args[1].coeffs))

    def sweep_after(args, result, exc):
        if result is not None:
            count("subexpr.leaves",
                  sum(sum(h.values()) for h in result.values()))
            count("subexpr.endpoints", len(result))

    def interval_after(args, result, exc):
        if result is not None:
            count("spherical.interval.in", len(result.entries))
            count("spherical.interval.seen",
                  len(result.entries) + result.outside)

    def iv_after(args, result, exc):
        if isinstance(exc, DegreeAuditFailure):
            count("demazure.audit_failures")

    def main_after(args, result, exc):
        code = getattr(exc, "code", 1) if exc is not None else result
        count("cli.exit_nonzero", code not in (0, None))

    return {
        "hecke.kl_basis": (kl_before, None),
        "hecke.inverse_h": (inverse_before, None),
        "spherical.spherical_kl_basis": (skl_before, None),
        "spherical.act_by_gen": (act_before, None),
        "subexpr.sweep": (None, sweep_after),
        "spherical.interval_condition_check": (None, interval_after),
        "demazure.intersection_vector": (None, iv_after),
        "cli.main": (None, main_after),
    }


def self_time_problems(tracer: Tracer, wall_s: float) -> list[str]:
    """Self times are disjoint parts of the traced wall time."""
    total = sum(tracer.layer_self_s().values())
    if total > wall_s:
        return [f"layer self times sum to {total:.3f}s, more than the "
                f"traced wall time {wall_s:.3f}s"]
    return []


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, tuple]:
    """Every per-layer metric, as name -> (value, unit)."""
    t, c = tracer, tracer.counters
    selfs = t.layer_self_s()
    sweep_s = t.inclusive_s("subexpr.sweep")
    leaves = c.get("subexpr.leaves", 0)
    endpoints = c.get("subexpr.endpoints", 0)
    out = {
        "subexpr.sweep.calls": (t.calls("subexpr.sweep"), "count"),
        "subexpr.sweep_s": (sweep_s, "s"),
        "subexpr.leaves": (leaves, "count"),
        "subexpr.leaves_per_s": (_ratio(leaves, sweep_s), "1/s"),
        "subexpr.endpoints": (endpoints, "count"),
        "subexpr.leaves_per_endpoint": (_ratio(leaves, endpoints), "ratio"),
        "spherical.expansion_from_sweep_s":
            (t.inclusive_s("spherical.expansion_from_sweep"), "s"),
        "spherical.interval_check_s":
            (t.inclusive_s("spherical.interval_condition_check"), "s"),
        "spherical.interval.in_ratio":
            (_ratio(c.get("spherical.interval.in", 0),
                    c.get("spherical.interval.seen", 0)), "ratio"),
        "coxeter.rank_table.calls": (t.calls("coxeter.rank_table"), "count"),
        "coxeter.rank_table_dominates.calls":
            (t.calls("coxeter.rank_table_dominates"), "count"),
        "laurent.mul.calls": (t.calls("laurent.mul"), "count"),
        "laurent.add.calls": (t.calls("laurent.add"), "count"),
        "laurent.new.calls": (t.calls("laurent.new"), "count"),
        "hecke.mult_by_gen.calls": (t.calls("hecke.mult_by_gen"), "count"),
        "hecke.multiply.calls": (t.calls("hecke.multiply"), "count"),
        "hecke.pairing.calls": (t.calls("hecke.pairing"), "count"),
        "hecke.kl_basis.calls": (t.calls("hecke.kl_basis"), "count"),
        "hecke.kl_basis.hit_ratio":
            (_ratio(c.get("hecke.kl_basis.hits", 0),
                    t.calls("hecke.kl_basis")), "ratio"),
        "hecke.inverse_h.hit_ratio":
            (_ratio(c.get("hecke.inverse_h.hits", 0),
                    t.calls("hecke.inverse_h")), "ratio"),
        "spherical.act_by_gen.calls":
            (t.calls("spherical.act_by_gen"), "count"),
        "spherical.act_by_gen.terms":
            (c.get("spherical.act_by_gen.terms", 0), "count"),
        "spherical.phi_embed.calls": (t.calls("spherical.phi_embed"), "count"),
        "spherical.spherical_kl_basis.hit_ratio":
            (_ratio(c.get("spherical.spherical_kl_basis.hits", 0),
                    t.calls("spherical.spherical_kl_basis")), "ratio"),
        "coxeter.coset_step.calls": (t.calls("coxeter.coset_step"), "count"),
        "coxeter.min_coset_rep.calls":
            (t.calls("coxeter.min_coset_rep"), "count"),
        "coxeter.is_min_coset_rep.calls":
            (t.calls("coxeter.is_min_coset_rep"), "count"),
        "demazure.intersection_vector.calls":
            (t.calls("demazure.intersection_vector"), "count"),
        "demazure.apply_demazure.calls":
            (t.calls("demazure.apply_demazure"), "count"),
        "demazure.divexact_alpha.calls":
            (t.calls("demazure.divexact_alpha"), "count"),
        "demazure.multipoly_mul.calls":
            (t.calls("demazure.multipoly_mul"), "count"),
        "demazure.matrix_rank.calls":
            (t.calls("demazure.matrix_rank"), "count"),
        "demazure.audit_failures":
            (c.get("demazure.audit_failures", 0), "count"),
        "cli.main.calls": (t.calls("cli.main"), "count"),
        "cli.emit_s": (t.inclusive_s("cli.emit"), "s"),
        "cli.emit_bytes": (c.get("cli.emit_bytes", 0), "bytes"),
        "cli.exit_nonzero": (c.get("cli.exit_nonzero", 0), "count"),
        "worddata.validate_s":
            (t.inclusive_s("worddata.validate_word_data"), "s"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (selfs[layer], "s")
    return out
