"""viciouskit benchmark entry point.

    python3 perfbench/run.py --workload diffusion|lattice|verify --seed N \
        --seconds S --trace 0|1

Run from the repository root.  Measures set-up time (median of fresh
interpreters importing viciouskit, viciouskit.cli and viciouskit.harness),
then runs the workload in its own child process (workloads.py) with BLAS and
OpenMP pinned to one thread and an address-space cap, and prints one JSON
line: end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
A provenance line (source hash, git commit when there is one, versions,
seed, pass counts, failures) is printed before it.  See README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, ".out")

SETUP_PROBES = 3
SETUP_IMPORT = "import viciouskit, viciouskit.cli, viciouskit.harness"
# the largest peak at the seed commit is about 0.4 GB resident; a regression
# that balloons memory then fails an operation instead of exhausting the host
MEMORY_CAP_BYTES = 3 << 30
CHILD_TIMEOUT_S = 150
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def child_env():
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONHASHSEED"] = "0"
    return env


def _cap_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP_BYTES, MEMORY_CAP_BYTES))


def setup_seconds(env):
    """Median wall time of fresh interpreters importing the package and its CLI."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_IMPORT], env=env, cwd=ROOT,
                       check=True, timeout=60, preexec_fn=_cap_memory)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def source_hash():
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(SRC, "viciouskit")):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(f for f in filenames if f.endswith(".py")):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def provenance(args):
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {"git_commit": commit, "source_sha256": source_hash(), "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": metadata.version("numpy"),
            "scipy": metadata.version("scipy"), "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny}


def run_workload(args, env):
    os.makedirs(OUT, exist_ok=True)
    result_path = os.path.join(OUT, "result-%s-%d-%d.json" % (args.workload, args.seed,
                                                             args.trace))
    cmd = [sys.executable, os.path.join(HERE, "workloads.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", result_path] + (["--tiny"] if args.tiny else [])
    if os.path.exists(result_path):
        os.remove(result_path)
    subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=CHILD_TIMEOUT_S,
                   preexec_fn=_cap_memory, stdout=sys.stderr)
    with open(result_path) as fh:
        return json.load(fh)


def main(argv=None):
    names = [w["name"] for w in SPEC["workloads"]]
    ap = argparse.ArgumentParser(description="viciouskit benchmark")
    ap.add_argument("--workload", choices=names, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="smaller operations, for the smoke test only")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "viciouskit", "__init__.py")):
        sys.stderr.write("viciouskit sources not found under %s; run from the repository root "
                         "of a full checkout\n" % SRC)
        return 2

    env = child_env()
    info = provenance(args)
    setup_s = setup_seconds(env) if not args.trace else None
    res = run_workload(args, env)

    measured = res["metrics"]
    if args.trace:
        wanted = SPEC["per_layer"]
    else:
        measured["setup_s"] = setup_s
        wanted = SPEC["end_to_end"]
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}
    info.update(passes=res["passes"], pass_wall_s=res.get("pass_wall_s"), ops=res["ops"],
                failures=res["failures"])
    print(json.dumps({"provenance": info}))
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
