"""Smoke test of the benchmark at tiny sizes.

    python3 perfbench/smoke_test.py

Run from the repository root; takes under two minutes.  For every workload
it runs run.py untraced and traced and checks that

* the last line has exactly the keys correct/attempted/failed/metrics, with
  no failed operation;
* every end-to-end metric (untraced) and every per-layer metric (traced) in
  BENCHMARK.json is emitted, with its unit, and nothing else;
* the predicted separation holds: no kernel or density work on lattice, no
  combinatorics or walker work on diffusion;

and that run.py exits non-zero, without a result line, in a directory that
holds only BENCHMARK.json and the benchmark's own files.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# (workload, metric) pairs that must read exactly zero in a traced run
PREDICTED_ZEROS = {
    "lattice": ("special_functions.psi_hat.pairs", "densities.drift_batch.rows",
                "densities.survival_batch.rows", "linalg.pfaffian.calls",
                "densities.survival.calls", "densities.g_density.calls",
                "montecarlo.simulate_sde.path_steps"),
    "diffusion": ("combinatorics.survival_probability.calls",
                  "montecarlo.simulate_walkers.proposed",
                  "combinatorics.count_paths.self_share", "harness.ks_test.calls"),
}
# (workload, metric) pairs that must be positive in a traced run
PREDICTED_WORK = {
    "diffusion": ("special_functions.psi_hat.pairs", "densities.drift_batch.rows",
                  "linalg.pfaffian.calls", "montecarlo.simulate_sde.path_steps",
                  "path_steps_per_s"),
    "lattice": ("montecarlo.simulate_walkers.proposed", "accepted_paths_per_s",
                "combinatorics.survival_probability.calls"),
    "verify": ("densities.g_density.calls", "harness.ks_test.calls",
               "montecarlo.noncollision_mc.path_steps", "rmt.sample_ensemble.draws",
               "harness.verify_suite.rmt.share", "cli.main.self_share"),
}


def check(cond, what):
    if not cond:
        raise SystemExit("smoke test failed: " + what)


def run(root, workload, trace):
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", "5", "--seconds", "1", "--trace", str(trace), "--tiny"],
                          cwd=root, capture_output=True, text=True, timeout=300)
    return proc


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for w in spec["workloads"]:
        name = w["name"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(ROOT, name, trace)
            check(proc.returncode == 0, "%s trace=%d exited %d:\n%s"
                  % (name, trace, proc.returncode, proc.stderr[-3000:]))
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            check(set(res) == {"correct", "attempted", "failed", "metrics"},
                  "%s result keys %s" % (name, sorted(res)))
            check(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
                  "%s trace=%d had failures: %s" % (name, trace, proc.stdout[:3000]))
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            check(got == want, "%s trace=%d metrics differ from BENCHMARK.json: %s"
                  % (name, trace, sorted(set(got) ^ set(want))))
            values = {k: v["value"] for k, v in res["metrics"].items()}
            if trace == 0:
                check(all(v > 0 for v in values.values()), "%s zero end-to-end metric %s"
                      % (name, values))
            for metric in PREDICTED_ZEROS.get(name, ()) if trace else ():
                check(values[metric] == 0, "%s: %s = %r, predicted 0"
                      % (name, metric, values[metric]))
            for metric in PREDICTED_WORK.get(name, ()) if trace else ():
                check(values[metric] > 0, "%s: %s = %r, predicted > 0"
                      % (name, metric, values[metric]))
            print("ok", name, "trace", trace, flush=True)

    bare = os.path.join(HERE, ".out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns(".out", "__pycache__"))
    proc = run(bare, spec["workloads"][0]["name"], 0)
    shutil.rmtree(bare)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "run.py without sources exited %d with output %r" % (proc.returncode, proc.stdout))
    print("ok bare checkout fails cleanly")


if __name__ == "__main__":
    main()
