"""One benchmark workload, run in its own process: operations, output checks, timing.

Usage (normally started by run.py):

    python3 perfbench/workloads.py --workload NAME --seed N --seconds S \
        --trace 0|1 --out RESULT.json [--tiny]

A pass runs the workload's fixed operation list once.  The run lasts
--seconds: a first pass warms caches and lazy imports and records every
operation's output digest but is left out of the timings, then timed
passes repeat until the time is up (at least two).  Every operation's
output is checked in every pass, and its digest must equal the first
pass's (determinism).  With --trace 1 the first half of the run is
untraced and the second half runs under tracing.Tracer; the result then
holds per-layer metrics.
"""

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
import warnings
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

from viciouskit import cli, combinatorics, montecarlo  # noqa: E402
from viciouskit.combinatorics import LatticeConfig  # noqa: E402
from viciouskit.densities import ModelSpec  # noqa: E402
from viciouskit.montecarlo import SimConfig  # noqa: E402

with open(os.path.join(HERE, "pins.json")) as fh:
    PINS = json.load(fh)


class CheckFailed(Exception):
    """An operation returned, but its output is wrong."""


def _require(cond, what):
    if not cond:
        raise CheckFailed(what)


def _lib_seed(seed, k):
    """Library seed of operation k, generated from the benchmark seed."""
    return int(np.random.SeedSequence([seed & 0xFFFFFFFFFFFFFFFF, k]).generate_state(1)[0])


def _array_digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _int_digest(*values):
    return hashlib.sha256(" ".join(hex(v) for v in values).encode()).hexdigest()


def _fraction_check(p, pin):
    _require((str(p.numerator), str(p.denominator)) == tuple(pin[:2]),
             "exact survival differs from the pinned rational")
    return _int_digest(p.numerator, p.denominator)


# ---------------------------------------------------------------------------
# diffusion: batched continuum kernels under the SDE engine


def _sde_op(cfg):
    def run():
        ens = montecarlo.simulate_sde(cfg)
        p = ens.paths
        _require(p.shape[0] == cfg.samples and p.shape[1] == cfg.spec.n_walkers,
                 "ensemble shape")
        _require(np.all(np.isfinite(p)), "non-finite path values")
        _require(np.all(p[:, 1:, :] > p[:, :-1, :]), "paths leave strict order")
        if cfg.spec.wall:
            _require(np.all(p[:, 0, :] > 0), "paths cross the wall")
        return _array_digest(ens.time_grid, p)
    return run


def diffusion_ops(seed, tiny):
    k = 4 if tiny else 1
    return [
        # D1: free N=3, closed-form drift, GOE-thinned warm start
        ("D1_sde_g_free_n3", _sde_op(SimConfig(
            "sde-g", ModelSpec(3, horizon=1.0), step=1e-3, samples=500 // k,
            seed=_lib_seed(seed, 1)))),
        # D2: wall N=2, finite-difference drift over Gauss-Legendre psi_hat,
        # short-time antisymmetric-spectra warm start
        ("D2_sde_g_wall_n2", _sde_op(SimConfig(
            "sde-g", ModelSpec(2, horizon=1.0, wall=True), step=1e-2, samples=100 // k,
            seed=_lib_seed(seed, 2)))),
        # D3: free N=4, per-row finite differences over linalg.pfaffian
        ("D3_sde_g_free_n4", _sde_op(SimConfig(
            "sde-g", ModelSpec(4, horizon=1.0), start=np.array([0.0, 1.0, 2.0, 3.0]),
            t_end=0.5, step=2e-2, samples=10 // k,
            seed=_lib_seed(seed, 3)))),
        # D4: wall N=3 h-transform, closed-form drift only: the kernel control
        ("D4_sde_p_wall_n3", _sde_op(SimConfig(
            "sde-p", ModelSpec(3, wall=True), samples=500 // k,
            seed=_lib_seed(seed, 4)))),
    ]


# ---------------------------------------------------------------------------
# lattice: walker rejection engine and exact big-integer determinants


def _walker_op(cfg, pin_key):
    exact = PINS[pin_key]

    def run():
        ens = montecarlo.simulate_walkers(cfg)
        _require(ens.paths.shape[0] == cfg.samples, "ensemble size")
        p = ens.paths
        _require(np.all(p[:, 1:, :] > p[:, :-1, :]), "walkers leave strict order")
        if cfg.start.wall:
            _require(np.all(p[:, 0, :] >= 0), "walkers cross the wall")
        se = math.sqrt(exact * (1 - exact) / ens.proposed)
        _require(abs(ens.accepted / ens.proposed - exact) <= 4 * se,
                 "acceptance %.5f is over 4 standard errors from the exact survival %.5f"
                 % (ens.accepted / ens.proposed, exact))
        return _array_digest(ens.time_grid, p, np.array([ens.accepted, ens.proposed]))
    return run


def _survival_op(m, positions, wall, pin_key):
    def run():
        p = combinatorics.survival_probability(m, LatticeConfig(positions, wall=wall))
        return _fraction_check(p, PINS[pin_key])
    return run


def _count_op():
    packed = tuple(range(0, 16, 2))

    def run():
        c = combinatorics.count_paths(4000, LatticeConfig(packed), packed)
        digest = _int_digest(c.value)
        _require(digest == PINS["count_n8_m4000_sha256"], "count differs from the pinned integer")
        return digest
    return run


def _oracle_op():
    u = LatticeConfig((0, 2, 4, 6))

    def run():
        table = combinatorics.oracle_count_dp(12, u)
        total = sum(c.value for c in table.values())
        _require([len(table), total] == PINS["oracle_n4_m12"], "oracle differs from its pin")
        _require(combinatorics.survival_probability(12, u) == Fraction(total, 1 << 48),
                 "oracle total differs from the determinant survival")
        for v in sorted(table)[::97]:
            _require(combinatorics.count_paths(12, u, v).value == table[v].value,
                     "oracle count differs from the determinant at %r" % (v,))
        return _int_digest(len(table), total)
    return run


def _scaled_op():
    pin = PINS["scaled_survival_L32_t16_wall"]

    def run():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            out = combinatorics.scaled_survival(32, 16.0, LatticeConfig((32, 64), wall=True))
        _require(all(math.isclose(a, b, rel_tol=1e-9) for a, b in zip(out, pin)),
                 "float-fallback survival differs from its pin")
        return _array_digest(np.array(out))
    return run


def lattice_ops(seed, tiny):
    k = 10 if tiny else 1
    spec1 = ModelSpec(2, horizon=1.0)
    spec2 = ModelSpec(2, horizon=1.0, wall=True)
    return [
        # free N=2 from (0,2) at L=32: about 3.5% acceptance, the memory peak
        ("W1_walkers_free_L32", _walker_op(SimConfig(
            "walker", spec1, start=LatticeConfig((0, 2)), scale=32, samples=1000 // k,
            seed=_lib_seed(seed, 1)), "walker_free_0_2_m1024")),
        # wall N=2 from (16,32) at L=16: about 28% acceptance
        ("W2_walkers_wall_L16", _walker_op(SimConfig(
            "walker", spec2, start=LatticeConfig((16, 32), wall=True), scale=16,
            samples=1000 // k, seed=_lib_seed(seed, 2)), "walker_wall_16_32_m256")),
        ("S1_survival_free_n3_m64", _survival_op(64, (0, 2, 4), False, "survival_free_n3_m64")),
        ("S2_survival_wall_n3_m48", _survival_op(48, (0, 2, 4), True, "survival_wall_n3_m48")),
        ("S3_survival_free_n4_m24", _survival_op(24, (0, 2, 4, 6), False, "survival_free_n4_m24")),
        ("C_count_packed_n8_m4000", _count_op()),
        ("O_oracle_dp_n4_m12", _oracle_op()),
        ("SS_scaled_survival_wall", _scaled_op()),
    ]


# ---------------------------------------------------------------------------
# verify: the user-facing CLI battery


def verify_ops(seed, tiny):
    # The KS checks have a nominal false-alarm rate (1 of 40 seeds failed at
    # --samples 1000 at the seed commit, with no bias as samples grow), so
    # the library seed comes from a pool that passed all 55 checks there.
    pool = PINS["verify_seed_pool"]
    lib_seed = pool[seed % len(pool)]
    out = os.path.join(HERE, ".out", "verify-%d.json" % os.getpid())

    def run():
        code = cli.main(["verify", "--suite", "all", "--samples", "1000",
                         "--seed", str(lib_seed), "--out", out])
        with open(out, "rb") as fh:
            raw = fh.read()
        os.remove(out)
        payload = json.loads(raw)
        failed = [r["test_name"] for r in payload["reports"] if r["verdict"] != "pass"]
        _require(code == 0 and payload["n_fail"] == 0 and not failed,
                 "verify exit %r, failing checks %s" % (code, failed))
        _require(payload["n_pass"] == PINS["verify_checks"], "verify ran %d checks, expected %d"
                 % (payload["n_pass"], PINS["verify_checks"]))
        return hashlib.sha256(raw).hexdigest()
    return [("V_cli_verify_all", run)]


WORKLOADS = {"diffusion": diffusion_ops, "lattice": lattice_ops, "verify": verify_ops}


# ---------------------------------------------------------------------------
# pass loop


class Runner:
    def __init__(self, ops):
        self.ops = ops
        self.tracer = None
        self.reference = {}         # op name -> digest from the first pass
        self.attempted = 0
        self.failures = []

    def one_pass(self):
        t0 = time.perf_counter()
        for name, run in self.ops:
            if self.tracer is not None:
                self.tracer.current_op = self.attempted     # operation id of its spans
            self.attempted += 1
            try:
                digest = run()
                ref = self.reference.setdefault(name, digest)
                _require(digest == ref, "output digest changed between passes")
            except Exception as exc:    # a failed operation is counted, not fatal
                self.failures.append("%s: %s" % (name, "".join(
                    traceback.format_exception_only(type(exc), exc)).strip()))
        return time.perf_counter() - t0

    def timed(self, deadline):
        """Timed passes until the perf_counter deadline, at least two."""
        walls = []
        while len(walls) < 2 or time.perf_counter() < deadline:
            walls.append(self.one_pass())
        return walls


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = ap.parse_args(argv)
    os.makedirs(os.path.join(HERE, ".out"), exist_ok=True)

    runner = Runner(WORKLOADS[args.workload](args.seed, args.tiny))
    start = time.perf_counter()
    runner.one_pass()               # warm-up; fixes the reference digests
    result = {"workload": args.workload, "seed": args.seed}
    if args.trace:
        from tracing import Tracer

        untraced = runner.timed(start + args.seconds / 2)
        tracer = Tracer()
        runner.tracer = tracer
        tracer.install()
        try:
            traced = runner.timed(start + args.seconds)
        finally:
            tracer.uninstall()
        metrics = tracer.metrics(traced)
        metrics["trace.pass_s"] = statistics.median(traced)
        metrics["trace.overhead_frac"] = (statistics.median(traced)
                                          / statistics.median(untraced) - 1.0)
        tracer.save(os.path.join(HERE, ".out", "spans-%s-%d.npz" % (args.workload, args.seed)))
        result["passes"] = {"untraced": len(untraced), "traced": len(traced)}
    else:
        walls = runner.timed(start + args.seconds)
        metrics = {"wall_s": statistics.median(walls)}
        result["passes"] = {"timed": len(walls)}
        result["pass_wall_s"] = walls
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics["failed_frac"] = len(runner.failures) / runner.attempted
    result.update(metrics=metrics, attempted=runner.attempted, failed=len(runner.failures),
                  failures=runner.failures[:20], ops=[name for name, _ in runner.ops])
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
