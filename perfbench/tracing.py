"""Span tracing of viciouskit's public functions, installed from outside the library.

Every function named in a layer module's ``__all__`` (``cli.main`` for the
CLI, which has no ``__all__``) is replaced by a timing wrapper in its
defining module and at every ``viciouskit`` module attribute bound to the
same function object, so that calls through imported names -- for example
``montecarlo.drift_batch`` or ``densities.psi_hat`` -- are attributed to the
right layer.  The private suite runners of ``harness.verify_suite`` are
wrapped too, to time each suite.  ``Tracer.uninstall`` restores the
originals; nothing under ``src/`` changes.

Spans (name, start, end, parent span, operation id) are held in memory in
flat arrays and written out once at the end.  Self time is a span's duration
minus the durations of its direct children.
"""

import array
import functools
import inspect
import math
import sys
import time

import numpy as np

LAYERS = ("cli", "harness", "montecarlo", "densities", "special_functions",
          "linalg", "combinatorics", "rmt", "quadrature")
SUITES = ("identities", "combinatorics", "montecarlo", "rmt")


def _sde_path_steps(cfg):
    # same step count as montecarlo.simulate_sde: warm start at t0, uniform grid to t_end
    T = cfg.spec.horizon
    if cfg.model == "sde-g":
        t_end = cfg.t_end if cfg.t_end is not None else T * (1.0 - 1e-4)
    else:
        t_end = cfg.t_end if cfg.t_end is not None else 1.0
    if cfg.start is None:
        t0 = min(1e-3 * T, cfg.step) if math.isfinite(T) else cfg.step
    else:
        t0 = 0.0
    return cfg.samples * max(int(math.ceil((t_end - t0) / cfg.step)), 1)


def _noncollision_path_steps(fn, args, kwargs, result):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    a = bound.arguments
    return a["samples"] * max(int(math.ceil(a["t"] / a["step"])), 1)


def _matrices(fn, args, kwargs, result):
    shape = np.shape(result)            # eigenvalues: batch shape + (n,)
    return int(np.prod(shape[:-1])) if len(shape) > 1 else 1


# work counters taken from the wrapped arguments and results:
# qualified name -> {counter: f(fn, args, kwargs, result)}
COUNTERS = {
    "special_functions.psi_hat": {
        "pairs": lambda fn, a, k, r: int(np.size(r))},
    "densities.drift_batch": {
        "rows": lambda fn, a, k, r: len(r)},
    "densities.survival_batch": {
        "rows": lambda fn, a, k, r: int(np.size(r))},
    "montecarlo.simulate_sde": {
        "path_steps": lambda fn, a, k, r: _sde_path_steps(a[0] if a else k["cfg"])},
    "montecarlo.sample_origin_law": {
        "draws": lambda fn, a, k, r: len(r)},
    "montecarlo.simulate_walkers": {
        "proposed": lambda fn, a, k, r: r.proposed,
        "accepted": lambda fn, a, k, r: r.accepted},
    "montecarlo.noncollision_mc": {
        "path_steps": _noncollision_path_steps},
    "linalg.symmetric_eigenvalues": {
        "matrices": _matrices},
    "rmt.sample_ensemble": {
        "draws": lambda fn, a, k, r: len(r.eigenvalues)},
}

# per-layer metrics reported by a traced run; every one is emitted on every
# workload (zero where the layer is idle)
SELF_TIMED = (
    "special_functions.psi_hat", "special_functions.psi",
    "densities.drift_batch", "densities.survival_batch", "densities.survival",
    "densities.drift", "densities.g_density", "linalg.pfaffian",
    "linalg.symmetric_eigenvalues", "montecarlo.simulate_sde",
    "montecarlo.sample_origin_law", "montecarlo.simulate_walkers",
    "montecarlo.noncollision_mc", "combinatorics.survival_probability",
    "combinatorics.count_paths", "combinatorics.oracle_count_dp",
    "combinatorics.scaled_survival", "harness.ks_test", "harness.marginal_cdf",
    "quadrature.chamber_integral", "rmt.sample_ensemble", "rmt.pm_bridge_check",
    "cli.main",
)
CALL_COUNTED = (
    "linalg.pfaffian", "densities.survival", "densities.drift", "densities.g_density",
    "montecarlo.simulate_sde", "combinatorics.survival_probability", "harness.ks_test",
)
ITEM_COUNTED = (
    "special_functions.psi_hat.pairs", "densities.drift_batch.rows",
    "densities.survival_batch.rows", "montecarlo.simulate_sde.path_steps",
    "montecarlo.sample_origin_law.draws", "linalg.symmetric_eigenvalues.matrices",
    "montecarlo.simulate_walkers.proposed", "montecarlo.noncollision_mc.path_steps",
    "rmt.sample_ensemble.draws",
)


def per_layer_units():
    """Every per-layer metric name with its unit."""
    units = {}
    for name in ITEM_COUNTED:
        units[name] = "count"
    for name in CALL_COUNTED:
        units[name + ".calls"] = "count"
    for name in SELF_TIMED:
        units[name + ".self_share"] = "fraction"
    units["montecarlo.simulate_walkers.acceptance"] = "fraction"
    units["path_steps_per_s"] = "1/s"
    units["accepted_paths_per_s"] = "1/s"
    for suite in SUITES:
        units["harness.verify_suite.%s.share" % suite] = "fraction"
    for layer in LAYERS:
        units[layer + ".errors"] = "count"
    units["failed_frac"] = "fraction"
    units["trace.pass_s"] = "s"
    units["trace.overhead_frac"] = "fraction"
    return units


class Tracer:
    """Installs span-recording wrappers and turns the spans into per-layer metrics."""

    def __init__(self):
        self.names = []             # span name table, one entry per wrapper
        self.name = array.array("l")
        self.parent = array.array("l")
        self.op = array.array("l")
        self.start = array.array("d")
        self.end = array.array("d")
        self.counts = {}
        self.errors = dict.fromkeys(LAYERS, 0)
        self.current_op = -1
        self._stack = []
        self._restore = []          # (module, attribute, original)

    # -- installation ------------------------------------------------------

    def install(self):
        import viciouskit
        import viciouskit.cli
        import viciouskit.harness

        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "viciouskit" or n.startswith("viciouskit.")]
        targets = {}                # id(original) -> (original, wrapper)
        for layer in LAYERS:
            mod = sys.modules["viciouskit." + layer]
            exported = getattr(mod, "__all__", ["main"])
            for attr in exported:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    targets[id(fn)] = (fn, self._wrap(fn, "%s.%s" % (layer, attr), layer))
        for suite in SUITES:
            fn = getattr(viciouskit.harness, "_suite_" + suite)
            targets[id(fn)] = (fn, self._wrap(fn, "harness.verify_suite." + suite, "harness"))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = targets.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self):
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore = []

    def _wrap(self, fn, qualname, layer):
        name_id = len(self.names)
        self.names.append(qualname)
        counters = COUNTERS.get(qualname, {})
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name.append(name_id)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.current_op)
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[layer] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            for key, count in counters.items():
                full = qualname + "." + key
                self.counts[full] = self.counts.get(full, 0) + count(fn, args, kwargs, result)
            return result

        return functools.update_wrapper(wrapper, fn)

    # -- results -------------------------------------------------------------

    def totals(self):
        """Per span name: (calls, total seconds, self seconds)."""
        name = np.asarray(self.name)
        parent = np.asarray(self.parent)
        dur = np.asarray(self.end) - np.asarray(self.start)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        self_s = dur - child
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        own = np.bincount(name, weights=self_s, minlength=k)
        return {n: (int(calls[i]), float(total[i]), float(own[i]))
                for i, n in enumerate(self.names)}

    def metrics(self, pass_walls):
        """Per-layer metrics of the traced passes whose wall times are given.

        Counts are per pass; times are shares of the traced wall time, so a
        function that never runs reads exactly 0 and trace.pass_s converts
        a share back to seconds per pass.
        """
        passes = len(pass_walls)
        wall = sum(pass_walls)
        tot = self.totals()
        get = lambda n: tot.get(n, (0, 0.0, 0.0))
        out = {}
        for name in ITEM_COUNTED:
            out[name] = self.counts.get(name, 0) / passes
        for name in CALL_COUNTED:
            out[name + ".calls"] = get(name)[0] / passes
        for name in SELF_TIMED:
            out[name + ".self_share"] = get(name)[2] / wall
        proposed = self.counts.get("montecarlo.simulate_walkers.proposed", 0)
        accepted = self.counts.get("montecarlo.simulate_walkers.accepted", 0)
        out["montecarlo.simulate_walkers.acceptance"] = accepted / proposed if proposed else 0.0
        sde_s = get("montecarlo.simulate_sde")[1]
        out["path_steps_per_s"] = (self.counts.get("montecarlo.simulate_sde.path_steps", 0)
                                   / sde_s if sde_s else 0.0)
        walk_s = get("montecarlo.simulate_walkers")[1]
        out["accepted_paths_per_s"] = accepted / walk_s if walk_s else 0.0
        for suite in SUITES:
            out["harness.verify_suite.%s.share" % suite] = \
                get("harness.verify_suite." + suite)[1] / wall
        for layer in LAYERS:
            out[layer + ".errors"] = self.errors[layer]
        return out

    def save(self, path):
        np.savez_compressed(path, names=np.array(self.names), name=np.asarray(self.name),
                            parent=np.asarray(self.parent), op=np.asarray(self.op),
                            start=np.asarray(self.start), end=np.asarray(self.end))
