"""Per-layer tracing installed from outside the program.

The tracer replaces every module-global binding of each listed public
function of gammalab (the defining module and every module that imported
the name) with a wrapper that times the call, and puts everything back
on ``restore``.  Self time is a call's wall time minus the wall time of
the wrapped calls made inside it; helpers that are not wrapped count
toward their caller.

The hot ``UniPoly`` operations and ``perm_stats`` are aggregated into
per-operation counters only, since a registry pass makes hundreds of
thousands of them.  Every other wrapped call also records a span
``(id, parent id, name, start, end)`` in memory; ``write`` stores spans
and counters once, at the end of a run.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
import time
from collections import Counter

LAYERS = ("polynomial", "expansions", "families", "oracles", "stability", "verify", "cli")

POLY_METHODS = {
    "mul": ("__mul__", "__rmul__"),
    "add": ("__add__", "__radd__"),
    "sub": ("__sub__",),
    "pow": ("__pow__",),
    "divmod": ("__divmod__",),
    "evaluate": ("evaluate",),
    "compose": ("compose",),
}

FUNCTIONS = {
    "polynomial": ("poly_gcd",),
    "expansions": (
        "gamma_expand",
        "alt_gamma_expand",
        "binomial_basis_expand",
        "semi_gamma_decompose",
        "alt_semi_gamma_decompose",
        "symmetric_decomposition",
        "classify",
    ),
    "families": (
        "eulerian_a",
        "eulerian_b",
        "narayana",
        "peak_poly",
        "left_peak_poly",
        "l_poly",
        "lhat_poly",
        "ab_polys",
        "flag_ap_poly",
        "boros_moll",
        "q_poly",
        "cyclotomic",
        "biv_des_exc",
        "mn_combination",
        "generate",
    ),
    "oracles": (
        "stat_polynomial",
        "mfs_orbit_partition",
        "mfs_orbit",
        "perm_stats",
        "pattern_class_descent_poly",
        "stirling_fap_poly",
        "young2_weight_poly",
        "motzkin2_ub_poly",
    ),
    "stability": (
        "hurwitz_classify",
        "routh_stable",
        "is_real_rooted",
        "sturm_real_root_count",
        "isolate_real_roots",
        "interlacing_relation",
        "yun_decomposition",
    ),
    "verify": ("run_all", "run_identity", "conjecture_boros_moll", "conjecture_des_exc"),
    "cli": ("main", "build_parser"),
}

COUNTER_ONLY = {f"polynomial.{name}" for name in POLY_METHODS} | {"oracles.perm_stats"}

VERIFY_IDS = (
    "MFS_ORBIT_SQ",
    "MFS_ORBIT",
    "THM31_I",
    "THM31_II",
    "THM31_III",
    "THM31_IV",
    "ALPHA_ORACLE",
    "NARA_B4",
    "NARA_231",
    "STIRLING_FAP",
    "CY_COUNT",
    "MN_STABLE",
    "OPID_MN",
    "CYCLO_RED",
    "PRODUCT_LEMMA",
)

DEG_LARGE = 32


def _modules() -> dict:
    return {layer: sys.modules[f"gammalab.{layer}"] for layer in LAYERS}


def _package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items()) if name == "gammalab" or name.startswith("gammalab.")]


def _lru_functions(module) -> list:
    return [v for _, v in sorted(vars(module).items()) if callable(getattr(v, "cache_info", None))]


def _cache_totals(module) -> tuple[int, int]:
    hits = misses = 0
    for fn in _lru_functions(module):
        info = fn.cache_info()
        hits += info.hits
        misses += info.misses
    return hits, misses


class Tracer:
    """Wraps the listed functions; aggregates calls, self time and spans."""

    def __init__(self):
        self.stack: list[list] = []  # per active call: [child wall s, span id]
        self.stats: dict[str, list] = {}  # name -> [calls, self s]
        self.layers = {layer: [0, 0.0] for layer in LAYERS}  # [depth, outermost wall s]
        self.spans: list[tuple] = []
        self.counters: Counter = Counter()
        self.verify_wall: Counter = Counter()
        self._ids = itertools.count(1)
        self._bindings: list[tuple] = []
        self._wrappers: dict[int, object] = {}  # id -> wrapper, kept alive so ids stay unique
        self._cache0: dict[str, tuple[int, int]] = {}

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, layer: str, name: str, fn, hook=None):
        key = f"{layer}.{name}"
        stat = self.stats.setdefault(key, [0, 0.0])
        depth = self.layers[layer]
        stack, spans, ids = self.stack, self.spans, self._ids
        span = key not in COUNTER_ONLY
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [0.0, next(ids) if span else (parent[1] if parent else 0)]
            token = hook.before(args) if hook else None
            stack.append(frame)
            depth[0] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                depth[0] -= 1
                dt = t1 - t0
                stat[0] += 1
                stat[1] += dt - frame[0]
                if not depth[0]:
                    depth[1] += dt
                if parent is not None:
                    parent[0] += dt
                if span:
                    spans.append((frame[1], parent[1] if parent else 0, key, t0, t1))
                if hook:
                    hook.after(args, dt, token)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        self._wrappers[id(traced)] = traced
        return traced

    def _rebind(self, owner, attr: str, wrapper) -> None:
        self._bindings.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap every binding of every listed function."""
        if self._bindings:
            raise RuntimeError("tracer already installed")
        mods = _modules()
        self._cache0 = {layer: _cache_totals(mods[layer]) for layer in ("families", "oracles")}
        poly_cls = mods["polynomial"].UniPoly
        for name, attrs in POLY_METHODS.items():
            hook = _LargeMul(self.counters, poly_cls) if name == "mul" else None
            wrapper = self._wrap("polynomial", name, vars(poly_cls)[attrs[0]], hook)
            for attr in attrs:
                self._rebind(poly_cls, attr, wrapper)
        hooks = {
            "verify.run_identity": _Wall(self.verify_wall),
            "verify.conjecture_boros_moll": _Wall(self.verify_wall, "conjecture_boros_moll"),
            "verify.conjecture_des_exc": _Wall(self.verify_wall, "conjecture_des_exc"),
            "oracles.stat_polynomial": _PermsOnMiss(self.counters, mods["oracles"]._joint_counts),
            "oracles.mfs_orbit_partition": _PermsOnMiss(self.counters, mods["oracles"].mfs_orbit_partition),
            "oracles.pattern_class_descent_poly": _PermsOnMiss(self.counters, None),
        }
        package = _package_modules()
        for layer, names in FUNCTIONS.items():
            for name in names:
                original = getattr(mods[layer], name)
                wrapper = self._wrap(layer, name, original, hooks.get(f"{layer}.{name}"))
                for module in package:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._rebind(module, attr, wrapper)

    def restore(self) -> None:
        while self._bindings:
            owner, attr, original = self._bindings.pop()
            setattr(owner, attr, original)

    def leftover_wrappers(self) -> list[str]:
        """Names still bound to a wrapper; empty after ``restore``."""
        out = []
        owners = _package_modules() + [sys.modules["gammalab.polynomial"].UniPoly]
        for owner in owners:
            for attr, value in vars(owner).items():
                if id(value) in self._wrappers:
                    out.append(f"{getattr(owner, '__name__', owner)}.{attr}")
        return out

    # -- results ------------------------------------------------------------

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics for ``wall_s`` seconds of traced passes."""
        mods = _modules()
        out: dict[str, float] = {}
        self_s = {layer: 0.0 for layer in LAYERS}
        calls = Counter()
        for key, (n, s) in self.stats.items():
            layer = key.split(".", 1)[0]
            self_s[layer] += s
            calls[layer] += n
        per_function = [f"polynomial.{name}" for name in POLY_METHODS] + [
            f"{layer}.{name}" for layer in ("polynomial", "expansions", "oracles", "stability") for name in FUNCTIONS[layer]
        ]
        for key in per_function:
            out[f"{key}.calls"], out[f"{key}.self_s"] = self.stats[key]
        out["polynomial.mul.calls_deg_ge_32"] = self.counters["mul_deg_ge_32"]
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_s[layer]
            out[f"{layer}.share"] = self.layers[layer][1] / wall_s if wall_s else 0.0
        out["families.calls"] = calls["families"]
        for layer in ("families", "oracles"):
            h0, m0 = self._cache0[layer]
            h1, m1 = _cache_totals(mods[layer])
            hits, misses = h1 - h0, m1 - m0
            if layer == "families":
                out["families.cache_hits"] = hits
                out["families.cache_misses"] = misses
            out[f"{layer}.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        out["oracles.perms_enumerated"] = self.counters["perms_enumerated"]
        named = VERIFY_IDS + ("conjecture_boros_moll", "conjecture_des_exc")
        for name in named:
            out[f"verify.{name}.wall_s"] = self.verify_wall[name]
        out["verify.other.wall_s"] = sum(s for name, s in self.verify_wall.items() if name not in named)
        out["cli.main.calls"] = self.stats["cli.main"][0]
        out["cli.build_parser.self_s"] = self.stats["cli.build_parser"][1]
        out["trace.accounted_ratio"] = sum(self_s.values()) / wall_s if wall_s else 0.0
        return out

    def write(self, path) -> None:
        names = sorted({s[2] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        payload = {
            "stats": {k: {"calls": n, "self_s": s} for k, (n, s) in sorted(self.stats.items())},
            "counters": dict(self.counters),
            "verify_wall_s": dict(self.verify_wall),
            "span_names": names,
            "spans": [[i, p, index[k], t0, t1] for i, p, k, t0, t1 in self.spans],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))


# -- hooks: counters taken around a wrapped call ------------------------------------


class _LargeMul:
    def __init__(self, counters: Counter, poly_cls):
        self.counters, self.poly_cls = counters, poly_cls

    def before(self, args):
        return None

    def after(self, args, dt, token):
        a, b = args
        if isinstance(b, self.poly_cls) and max(len(a.coeffs), len(b.coeffs)) - 1 >= DEG_LARGE:
            self.counters["mul_deg_ge_32"] += 1


class _Wall:
    """Inclusive wall time per registry id, or under a fixed name."""

    def __init__(self, wall: Counter, name: str | None = None):
        self.wall, self.name = wall, name

    def before(self, args):
        return None

    def after(self, args, dt, token):
        self.wall[self.name or args[0]] += dt


class _PermsOnMiss:
    """Computed count: n! for each call that enumerated S_n afresh.

    ``cached`` is the memoised enumeration behind the call; a rise in its
    miss count means this call walked S_n.  With no cache every call does.
    """

    def __init__(self, counters: Counter, cached):
        self.counters, self.cached = counters, cached

    def before(self, args):
        return self.cached.cache_info().misses if self.cached else None

    def after(self, args, dt, token):
        if self.cached is None or self.cached.cache_info().misses > token:
            self.counters["perms_enumerated"] += math.factorial(args[0])
