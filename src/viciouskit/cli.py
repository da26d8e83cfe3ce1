"""Command-line interface.

Subcommands: count, survive, density, survival, simulate, rmt,
verify-identities, verify.  Output is deterministic for fixed flags and
seed (byte-identical JSON/CSV), with a versioned JSON schema.
"""

import argparse
import json
import math
import sys
from fractions import Fraction

import numpy as np

SCHEMA_VERSION = 1


def _positions(text):
    return tuple(int(v) for v in text.split(","))


def _start(text):
    """A lattice start: even, strictly increasing positions (combinatorics.LatticeConfig)."""
    from .combinatorics import LatticeConfig

    try:
        return LatticeConfig(_positions(text)).positions
    except ValueError as exc:
        raise argparse.ArgumentTypeError("%s, got %r" % (exc, text)) from None


def _steps(text):
    if not text.isdecimal():
        raise argparse.ArgumentTypeError("lattice steps must be a nonnegative integer, "
                                         "got %r" % text)
    return int(text)


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1, got %r" % text)
    return value


def _positive_float(text):
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError("must be positive, got %r" % text)
    return value


def _increasing_floats(text):
    """A continuum configuration: reals in strictly increasing order."""
    x = tuple(float(v) for v in text.split(","))
    if not all(map(math.isfinite, x)):
        raise argparse.ArgumentTypeError("positions must be finite, got %r" % text)
    if any(not b > a for a, b in zip(x, x[1:])):
        raise argparse.ArgumentTypeError("positions must be strictly increasing, got %r" % text)
    return x


def _decimal(value):
    """The decimal digits of an exact integer of any size.

    Python caps int-to-str conversion (4300 digits by default); the cap is
    lifted only around this conversion, on Pythons that have one.
    """
    cap = getattr(sys, "get_int_max_str_digits", None)
    if cap is None:
        return str(value)
    old = cap()
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(old)


def _emit(args, payload, csv_rows=None, csv_header=None):
    """Write the result as JSON (default) or CSV, to --out or stdout."""
    if args.format == "csv":
        if csv_rows is None:
            raise SystemExit("this subcommand has no CSV form")
        lines = [",".join(csv_header)]
        for row in csv_rows:
            lines.append(",".join(repr(v) if isinstance(v, float) else str(v) for v in row))
        text = "\n".join(lines) + "\n"
    else:
        payload = {"schema_version": SCHEMA_VERSION, **payload}
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_count(args):
    from .combinatorics import LatticeConfig, count_paths

    u = LatticeConfig(args.start, wall=args.wall)
    m = args.time
    c = count_paths(m, u, args.end)
    prob = Fraction(c.value, 1 << (c.steps * c.n_walkers))
    _emit(args, {
        "count": _decimal(c.value),
        "steps": m,
        "n_walkers": c.n_walkers,
        "probability": {"num": _decimal(prob.numerator), "den": _decimal(prob.denominator),
                        "float": float(prob)},
    })
    return 0


def _cmd_survive(args):
    from .combinatorics import LatticeConfig, survival_probability

    u = LatticeConfig(args.start, wall=args.wall)
    m = args.time
    prob = survival_probability(m, u)
    _emit(args, {
        "steps": m,
        "probability": {"num": _decimal(prob.numerator), "den": _decimal(prob.denominator),
                        "float": float(prob)},
    })
    return 0


def _cmd_density(args):
    from .densities import ModelSpec, g_density, p_density

    y = np.asarray(args.at, dtype=float)
    spec = ModelSpec(len(y), horizon=args.horizon, wall=args.wall)
    family = "p" if math.isinf(args.horizon) else "g"
    f = p_density if family == "p" else g_density
    val = f(spec, 0.0, None, args.time, y)
    _emit(args, {"family": family, "time": args.time, "point": list(y),
                 "wall": args.wall, "density": float(val)})
    return 0


def _cmd_survival(args):
    from .densities import survival

    x = np.asarray(args.at, dtype=float)
    val = survival(args.time, x, wall=args.wall)
    _emit(args, {"time": args.time, "point": list(x), "wall": args.wall,
                 "probability": val})
    return 0


def _cmd_simulate(args):
    from .combinatorics import LatticeConfig
    from .densities import ModelSpec
    from .montecarlo import SimConfig, simulate_sde, simulate_walkers

    n = args.n
    if args.model == "walker":
        spec = ModelSpec(n, horizon=args.horizon, wall=args.wall)
        start = LatticeConfig(args.start if args.start else tuple(range(0, 2 * n, 2)),
                              wall=args.wall)
        cfg = SimConfig("walker", spec, start=start, scale=args.scale,
                        samples=args.samples, seed=args.seed, streams=args.streams)
        ens = simulate_walkers(cfg)
    else:
        horizon = args.horizon if args.model == "sde-g" else math.inf
        spec = ModelSpec(n, horizon=horizon, wall=args.wall)
        start = np.asarray(args.at, dtype=float) if args.at else None
        cfg = SimConfig(args.model, spec, start=start, step=args.step,
                        t_end=args.time, samples=args.samples, seed=args.seed,
                        streams=args.streams)
        ens = simulate_sde(cfg)

    summary = {
        "model": args.model,
        "samples": int(ens.paths.shape[0]),
        "accepted": ens.accepted,
        "proposed": ens.proposed,
        "acceptance": ens.accepted / ens.proposed,
        "time_grid": [float(t) for t in ens.time_grid],
        "config_digest": ens.config_digest,
    }
    rows = []
    if args.format == "csv":
        for sid in range(ens.paths.shape[0]):
            for k, t in enumerate(ens.time_grid):
                rows.append([sid, float(t)] + [float(v) for v in ens.paths[sid, :, k]])
    header = ["sample_id", "t"] + ["x_%d" % (i + 1) for i in range(n)]
    _emit(args, summary, csv_rows=rows, csv_header=header)
    return 0


def _cmd_rmt(args):
    from .rmt import sample_ensemble

    sample = sample_ensemble(args.ensemble, args.n, variance=args.variance,
                             alpha=args.alpha, samples=args.samples, seed=args.seed)
    summary = {
        "ensemble": args.ensemble,
        "n": args.n,
        "variance": args.variance,
        "alpha": args.alpha,
        "samples": args.samples,
        "mean_top": float(sample.eigenvalues[:, -1].mean()),
        "second_moment": float((sample.eigenvalues ** 2).mean()),
    }
    rows = [[i] + [float(v) for v in row] for i, row in enumerate(sample.eigenvalues)] \
        if args.format == "csv" else None
    header = ["draw_id"] + ["lambda_%d" % (i + 1) for i in range(args.n)]
    _emit(args, summary, csv_rows=rows, csv_header=header)
    return 0


def _run_suites(args, suite):
    from .harness import verify_suite

    reports = verify_suite(suite, samples=args.samples, seed=args.seed)
    payload = {
        "suite": suite,
        "reports": [r.as_dict() for r in reports],
        "n_pass": sum(r.verdict == "pass" for r in reports),
        "n_fail": sum(r.verdict == "fail" for r in reports),
    }
    rows = [[r.test_name, r.statistic, r.critical_value, r.n_samples, r.verdict]
            for r in reports] if args.format == "csv" else None
    _emit(args, payload, csv_rows=rows,
          csv_header=["test_name", "statistic", "critical_value", "n_samples", "verdict"])
    return 0 if payload["n_fail"] == 0 else 1


def _cmd_verify_identities(args):
    return _run_suites(args, "identities")


def _cmd_verify(args):
    return _run_suites(args, args.suite)


# Shared flags.  Each subcommand takes only the flags its _cmd_* reads, plus
# --out and --format, which _emit reads; any other flag is an argparse error.
_FLAGS = {
    "n": dict(type=_positive_int, default=2, help="number of walkers"),
    "wall": dict(action="store_true", help="reflecting-wall variant"),
    "horizon": dict(type=_positive_float, default=math.inf,
                    help="nonintersection horizon T (inf for the h-transform family)"),
    "time": dict(type=float, default=1.0, help="evaluation/end time"),
    "scale": dict(type=_positive_int, default=8, help="lattice scale L"),
    "samples": dict(type=_positive_int, default=1000),
    "step": dict(type=_positive_float, default=1e-3, help="SDE time step"),
    "seed": dict(type=int, default=0),
    "streams": dict(type=_positive_int, default=1),
    "out": dict(default=None, help="output path (default stdout)"),
    "format": dict(choices=("json", "csv"), default="json"),
}


def build_parser():
    p = argparse.ArgumentParser(prog="viciouskit",
                                description="nonintersecting walkers: exact counts, "
                                            "densities, simulations, verification")
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, summary, *flags):
        sp = sub.add_parser(name, help=summary)
        for flag in flags + ("out", "format"):
            sp.add_argument("--" + flag, **_FLAGS[flag])
        return sp

    sp = command("count", "exact nonintersecting path count", "wall")
    sp.add_argument("--time", type=_steps, default=1, help="lattice steps")
    sp.add_argument("--start", type=_start, required=True, help="even positions, e.g. 0,2")
    sp.add_argument("--end", type=_positions, required=True)
    sp.set_defaults(fn=_cmd_count)

    sp = command("survive", "exact lattice survival probability", "wall")
    sp.add_argument("--time", type=_steps, default=1, help="lattice steps")
    sp.add_argument("--start", type=_start, required=True)
    sp.set_defaults(fn=_cmd_survive)

    sp = command("density", "origin-start transition density at a point",
                 "wall", "horizon", "time")
    sp.add_argument("--at", type=_increasing_floats, required=True,
                    help="ordered reals, e.g. 0.1,0.9")
    sp.set_defaults(fn=_cmd_density)

    sp = command("survival", "Brownian non-collision probability (Pfaffian)", "wall", "time")
    sp.add_argument("--at", type=_increasing_floats, required=True)
    sp.set_defaults(fn=_cmd_survival)

    sp = command("simulate", "walker or SDE path ensembles", "n", "wall", "horizon",
                 "time", "scale", "samples", "step", "seed", "streams")
    sp.add_argument("--model", choices=("walker", "sde-g", "sde-p"), default="walker")
    sp.add_argument("--start", type=_start, default=None, help="walker lattice start")
    sp.add_argument("--at", type=_increasing_floats, default=None, help="SDE interior start")
    # SDE end time defaults to the guarded horizon (sde-g) or 1.0 (sde-p)
    sp.set_defaults(fn=_cmd_simulate, time=None, horizon=1.0)

    sp = command("rmt", "random-matrix spectra", "n", "samples", "seed")
    sp.add_argument("--ensemble", choices=("GOE", "GUE", "PM"), default="GOE")
    sp.add_argument("--variance", type=float, default=1.0)
    sp.add_argument("--alpha", type=float, default=None)
    sp.set_defaults(fn=_cmd_rmt)

    sp = command("verify-identities", "run the identity battery", "samples", "seed")
    sp.set_defaults(fn=_cmd_verify_identities)

    sp = command("verify", "run a named verification suite", "samples", "seed")
    sp.add_argument("--suite", choices=("identities", "combinatorics", "montecarlo",
                                        "rmt", "all"), default="all")
    sp.set_defaults(fn=_cmd_verify)
    return p


def _input_error(args):
    """An argparse message naming the flag of input the library would reject, else None."""
    if getattr(args, "wall", False):
        for flag in ("start", "at"):
            x = getattr(args, flag, None)
            sde = flag == "at" and args.command == "simulate"   # off the wall too
            if x and (x[0] <= 0 if sde else x[0] < 0):
                return ("argument --%s: the first position must be %s with --wall, got %s"
                        % (flag, "positive" if sde else "nonnegative", x))
    if args.command == "density" and not 0 < args.time <= args.horizon:
        return "argument --time: must lie in (0, horizon = %r], got %r" % (args.horizon, args.time)
    if args.command == "survival" and not args.time >= 0:
        return "argument --time: must be nonnegative, got %r" % args.time
    if args.command == "count" and len(args.end) != len(args.start):
        return "argument --end: needs %d positions, as --start has, got %s" % (
            len(args.start), args.end)
    if args.command == "simulate":
        for flag in ("start", "at"):
            x = getattr(args, flag)
            if x and len(x) != args.n:
                return "argument --%s: needs --n = %d positions, got %s" % (flag, args.n, x)
        if args.model != "sde-p" and math.isinf(args.horizon):
            return "argument --horizon: --model %s needs a finite horizon" % args.model
        if args.model == "walker":
            from .combinatorics import time_lattice

            if time_lattice(args.scale, args.horizon) < 1:
                return ("argument --horizon: gives zero lattice steps at --scale %d; "
                        "need scale^2 * horizon >= 2, got %r" % (args.scale, args.horizon))
        if args.model != "walker":
            from .montecarlo import _sde_grid

            if not math.isfinite(args.step):
                return "argument --step: must be finite, got %r" % args.step
            horizon = args.horizon if args.model == "sde-g" else math.inf
            try:
                _sde_grid(args.model, horizon, args.step, args.time, not args.at)
            except ValueError as exc:
                return "argument --time: %s for --model %s" % (exc, args.model)
    return None


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if error := _input_error(args):
        parser.error(error)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
