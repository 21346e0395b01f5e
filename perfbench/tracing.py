"""Traced-run shim: spans and counters around the package's public functions.

`Tracer.install()` wraps every public module-level function of each
`cdo_compat` module, plus the few methods listed in METHODS, and rebinds the
wrapper under every name that any `cdo_compat` module holds for the original
(so `from .opt_backend import solve_lp` call sites are traced too). Nothing
under `src/` changes; the wrappers live only in the benchmark's process.

A span records its name, layer (the module name), start, end, parent span
and operation id. Spans stay in memory until `write()`. A layer's self time
is the sum over its spans of duration minus the time covered by direct
children. `scipy.optimize.linprog` and `minimize` are wrapped where
`opt_backend` looks them up, for HiGHS iteration and dual-evaluation counts.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import time
from collections import Counter

METHODS = (("weak_compat", "WeakFeasibilityProblem", "from_snapshot"),
           ("strong_compat", "StrongFeasibilityProblem", "from_snapshot"),
           ("strong_compat", "GammaDistortion", "sample"),
           ("strong_compat", "GeneratorSampler", "sample_matrix"))

LAYERS = ("cli", "market_model", "tranche_valuation", "dpm_core",
          "opt_backend", "weak_compat", "strong_compat", "risk_engine")

USEFUL_LP = {"optimal", "feasible", "infeasible"}


class Tracer:
    def __init__(self):
        self.spans = []      # [name, layer, start, end, parent, op]
        self._stack = []
        self.op = None
        self.counts = Counter()
        self.maxima = Counter()
        self.wasted_s = 0.0
        self._h_matrix = None
        self._h_info0 = None

    def install(self):
        package = importlib.import_module("cdo_compat")
        strong = importlib.import_module("cdo_compat.strong_compat")
        self._h_matrix = strong.h_matrix
        self._h_info0 = strong.h_matrix.cache_info()
        modules = [importlib.import_module(f"cdo_compat.{info.name}")
                   for info in pkgutil.iter_modules(package.__path__)]
        namespaces = [package] + modules
        hooks = {"opt_backend.solve_lp": self._on_lp,
                 "opt_backend.solve_relative_entropy": self._on_entropy,
                 "risk_engine.simulate_npv": self._on_simulate}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[1]
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or inspect.isclass(fn)
                        or not callable(fn)
                        or getattr(fn, "__module__", None) != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                wrapper = self._wrap(fn, name, layer, hooks.get(name))
                for ns in namespaces:
                    for key, val in list(vars(ns).items()):
                        if val is fn:
                            setattr(ns, key, wrapper)
        for layer, cls_name, meth in METHODS:
            cls = getattr(importlib.import_module(f"cdo_compat.{layer}"), cls_name)
            raw = inspect.getattr_static(cls, meth)
            name = f"{layer}.{cls_name}.{meth}"
            if isinstance(raw, classmethod):
                setattr(cls, meth, classmethod(self._wrap(raw.__func__, name, layer)))
            else:
                setattr(cls, meth, self._wrap(raw, name, layer))
        backend = importlib.import_module("cdo_compat.opt_backend")
        backend.linprog = self._count(backend.linprog, "highs.iterations", "nit")
        backend.minimize = self._count(backend.minimize,
                                       "opt_backend.entropy_nfev", "nfev")

    def _wrap(self, fn, name, layer, hook=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, layer, clock(), None, stack[-1] if stack else None, self.op]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result, rec)
            return result

        return wrapper

    def _count(self, fn, counter, attr):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            res = fn(*args, **kwargs)
            self.counts[counter] += int(getattr(res, attr, 0) or 0)
            return res
        return wrapper

    def run_op(self, op_id, name, call):
        """Time `call()` as the cli-layer span of operation `op_id`."""
        self.op = op_id
        return self._wrap(call, f"cli.{name}", "cli")()

    def _on_lp(self, args, kwargs, result, rec):
        lp = args[0] if args else kwargs["lp"]
        mats = [a for a in (lp.A_ub, lp.A_eq) if a is not None]
        self.counts["opt_backend.lp_calls"] += 1
        self.maxima["opt_backend.lp_rows_max"] = max(
            self.maxima["opt_backend.lp_rows_max"], sum(a.shape[0] for a in mats))
        self.maxima["opt_backend.lp_cols_max"] = max(
            self.maxima["opt_backend.lp_cols_max"], lp.n_vars())
        self.maxima["opt_backend.lp_nnz_max"] = max(
            self.maxima["opt_backend.lp_nnz_max"],
            sum(a.nnz if hasattr(a, "nnz") else int((a != 0).sum()) for a in mats))
        status = result.status.value
        self.counts["opt_backend.lp_infeasible"] += status == "infeasible"
        self.counts["opt_backend.lp_useful"] += status in USEFUL_LP
        if status == "numerical_failure":
            self.counts["opt_backend.lp_failed"] += 1
            self.wasted_s += rec[3] - rec[2]

    def _on_entropy(self, args, kwargs, result, rec):
        kkt = result.extra.get("kkt")
        if kkt is not None:
            self.maxima["opt_backend.entropy_kkt_max"] = max(
                self.maxima["opt_backend.entropy_kkt_max"], float(kkt))

    def _on_simulate(self, args, kwargs, result, rec):
        self.counts["risk_engine.paths"] += int(result.n_paths)

    def write(self, path):
        keys = ("name", "layer", "start", "end", "parent", "op")
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(dict(zip(keys, rec))) + "\n")

    def metrics(self):
        """Per-layer metrics, named `<layer>.<metric>`, over every span so far."""
        total, calls = Counter(), Counter()
        self_by_layer, self_by_name = Counter(), Counter()
        child = Counter()
        for rec in self.spans:
            if rec[4] is not None:
                child[rec[4]] += rec[3] - rec[2]
        for i, (name, layer, start, end, _, _) in enumerate(self.spans):
            total[name] += end - start
            calls[name] += 1
            self_by_layer[layer] += end - start - child[i]
            self_by_name[name] += end - start - child[i]
        info = self._h_matrix.cache_info()
        h_hits = info.hits - self._h_info0.hits
        h_calls = h_hits + info.misses - self._h_info0.misses
        lp_calls = self.counts["opt_backend.lp_calls"]
        out = {f"{layer}.self_s": self_by_layer[layer] for layer in LAYERS}
        out.update({
            "market_model.load_s": total["market_model.load_snapshot"],
            "market_model.calibrate_calls": calls["market_model.calibrate_hazard"],
            "market_model.calibrate_s": total["market_model.calibrate_hazard"],
            "weak_compat.assemble_calls":
                calls["weak_compat.WeakFeasibilityProblem.from_snapshot"],
            "weak_compat.assemble_s":
                total["weak_compat.WeakFeasibilityProblem.from_snapshot"],
            "strong_compat.assemble_calls":
                calls["strong_compat.StrongFeasibilityProblem.from_snapshot"],
            "strong_compat.assemble_s":
                total["strong_compat.StrongFeasibilityProblem.from_snapshot"],
            "strong_compat.h_matrix_s": total["strong_compat.h_matrix"],
            "strong_compat.h_cache_hit_ratio": h_hits / h_calls if h_calls else 1.0,
            "strong_compat.range_calls": calls["strong_compat.range_at_N"],
            "strong_compat.range_s": total["strong_compat.range_at_N"],
            "strong_compat.generator_s":
                total["strong_compat.GeneratorSampler.sample_matrix"],
            "strong_compat.distortion_s":
                self_by_name["strong_compat.GammaDistortion.sample"],
            "opt_backend.lp_calls": lp_calls,
            "opt_backend.lp_s": total["opt_backend.solve_lp"],
            "opt_backend.lp_infeasible": self.counts["opt_backend.lp_infeasible"],
            "opt_backend.lp_failed": self.counts["opt_backend.lp_failed"],
            "opt_backend.lp_useful_ratio":
                self.counts["opt_backend.lp_useful"] / lp_calls if lp_calls else 1.0,
            "opt_backend.lp_wasted_s": self.wasted_s,
            "opt_backend.lp_rows_max": self.maxima["opt_backend.lp_rows_max"],
            "opt_backend.lp_cols_max": self.maxima["opt_backend.lp_cols_max"],
            "opt_backend.lp_nnz_max": self.maxima["opt_backend.lp_nnz_max"],
            "highs.iterations": self.counts["highs.iterations"],
            "opt_backend.lfp_calls": calls["opt_backend.solve_lfp"],
            "opt_backend.lfp_s": total["opt_backend.solve_lfp"],
            "opt_backend.entropy_calls": calls["opt_backend.solve_relative_entropy"],
            "opt_backend.entropy_s": total["opt_backend.solve_relative_entropy"],
            "opt_backend.entropy_nfev": self.counts["opt_backend.entropy_nfev"],
            "opt_backend.entropy_kkt_max": self.maxima["opt_backend.entropy_kkt_max"],
            "dpm_core.repair_calls": calls["dpm_core.repair_structure"],
            "dpm_core.repair_s": total["dpm_core.repair_structure"],
            "dpm_core.csv_s": total["dpm_core.dpm_from_csv"] + total["dpm_core.dpm_to_csv"],
            "tranche_valuation.expected_npv_calls": calls["tranche_valuation.expected_npv"],
            "tranche_valuation.expected_npv_s": total["tranche_valuation.expected_npv"],
            "risk_engine.posterior_s": total["risk_engine.posterior_dpm"],
            "risk_engine.simulate_self_s": self_by_name["risk_engine.simulate_npv"],
            "risk_engine.paths": self.counts["risk_engine.paths"],
        })
        return out
