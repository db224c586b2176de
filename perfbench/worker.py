"""One benchmark measurement: repeated CLI pipelines in a single process.

Started by ``run.py`` in a scratch directory that holds ``bench.cfg``.  It
imports ``prandtlsep.cli`` once (the set-up cost is measured separately),
then runs the CLI operations of ``workloads.OPS`` through ``cli.main`` in a
loop for the given number of seconds, timing each operation and checking
its artifacts.  Before each operation, and once after the last, it times
the host-speed kernel of ``calib.py``, so each operation is bracketed by two
kernel samples.  With ``--trace 1`` untraced and traced iterations alternate;
the traced ones record per-layer spans.  The result is written as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import sys
import time

import numpy as np
import scipy

from prandtlsep import cli

import calib
import spans
from workloads import OPS

CONFIG = "bench.cfg"

# acceptance criteria 1 and 3, at their own tolerances
EXPONENT_RANGE = (0.45, 0.55)
RESIDUAL_MAX = 0.02
BS_RANGE = (0.9, 1.1)


def _json(path):
    with open(path) as fh:
        return json.load(fh)


def check_simulate(run_dir):
    man = _json(os.path.join(run_dir, "manifest.json"))
    fit = _json(os.path.join(run_dir, "fit_report.json"))
    lo, hi = fit["b_envelope"]
    out = {"steps": man["steps"], "exponent": fit["exponent"],
           "residual": fit["residual"], "x_star": fit["x_star"],
           "x_star_over_lambda0_sq": fit["x_star_over_lambda0_sq"],
           "b_envelope": [lo, hi]}
    problems = []
    if not EXPONENT_RANGE[0] <= fit["exponent"] <= EXPONENT_RANGE[1]:
        problems.append(f"exponent {fit['exponent']:.4f} outside {EXPONENT_RANGE}")
    if not fit["residual"] < RESIDUAL_MAX:
        problems.append(f"fit residual {fit['residual']:.3g} >= {RESIDUAL_MAX}")
    if not (lo >= BS_RANGE[0] and hi <= BS_RANGE[1]):
        problems.append(f"b*s envelope [{lo:.4f}, {hi:.4f}] outside {BS_RANGE}")
    return out, problems


def check_audit(run_dir):
    man = _json(os.path.join(run_dir, "manifest.json"))
    summary = _json(os.path.join(run_dir, "audit_summary.json"))
    with open(os.path.join(run_dir, "energies.csv")) as fh:
        resolved = sum(float(row["resolved_flag"]) == 1.0 for row in csv.DictReader(fh))
    checks = summary["commutator_identity"]
    out = {"reports": len(summary["reports"]), "all_passed": summary["all_passed"],
           "commutator_holds": f"{sum(c.get('holds') is True for c in checks)}"
                               f"/{len(checks)}",
           "resolved_samples": resolved}
    problems = []
    if not summary["all_passed"]:
        problems.append("audit_summary.json all_passed is false")
    if out["reports"] != 3 * len(man["snapshots"]):
        problems.append(f"{out['reports']} reports for {len(man['snapshots'])} "
                        "snapshots, expected 3 each")
    return out, problems


def check_algebra(out_dir):
    cert = _json(os.path.join(out_dir, "certificate.json"))
    out = {"identities": len(cert["identities"]),
           "certificate_passed": cert["all_passed"],
           "erratum_mismatches": sum(not e["match"] for e in cert["erratum_checks"])}
    problems = [] if cert["all_passed"] else ["certificate all_passed is false"]
    return out, problems


CHECKS = {"simulate": check_simulate, "audit": check_audit,
          "verify-algebra": check_algebra}


def _argv(kind, target):
    if kind == "simulate":
        return ["simulate", "--config", CONFIG]
    if kind == "audit":
        return ["audit", target]
    return ["verify-algebra", "--outdir", target]


def _digest(dirs):
    h = hashlib.sha256()
    for top in sorted(dirs):
        for root, subdirs, files in os.walk(top):
            subdirs.sort()
            for name in sorted(files):
                path = os.path.join(root, name)
                h.update(path.encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def run_op(kind, target):
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(_argv(kind, target))
    except Exception as exc:   # an escaped traceback is a failed operation
        code, err = None, io.StringIO(f"{type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - t0
    record = {"op": kind, "target": target, "exit": code, "seconds": seconds,
              "message": (err.getvalue() or out.getvalue()).strip().splitlines()[-1:]}
    if code == 0:
        try:
            record["outputs"], record["problems"] = CHECKS[kind](target)
        except (OSError, KeyError, ValueError, TypeError) as exc:
            record["outputs"], record["problems"] = {}, [f"unreadable artifacts: {exc!r}"]
    return record


def run_iteration(tracer=None):
    dirs = sorted({target for _, target in OPS})
    for d in dirs:
        shutil.rmtree(d, ignore_errors=True)
    records, speed = [], []
    with tracer.installed() if tracer else contextlib.nullcontext():
        for kind, target in OPS:
            speed.append(calib.sample())
            records.append(run_op(kind, target))
        speed.append(calib.sample())
    times = {"simulate": 0.0, "audit": 0.0, "verify-algebra": 0.0}
    for rec in records:
        times[rec["op"]] += rec["seconds"]
    return {"traced": tracer is not None, "ops": records, "times": times,
            "calibration": speed,
            "digest": _digest(d for d in dirs if os.path.isdir(d))}


def check_coverage(tracer):
    """Fail loudly when a hooked span saw no call: every workload runs them all."""
    silent = [name for name in (spans.span_name(m, a) for m, a in spans.HOOKS)
              if tracer.calls(name) == 0]
    if silent:
        raise SystemExit(f"perfbench: hooked spans recorded zero calls: "
                         f"{', '.join(silent)}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--result", required=True)
    args = ap.parse_args()

    tracer = spans.Tracer()
    kinds = [False, True] if args.trace else [False]
    last = {}
    iterations = []
    start = time.perf_counter()
    while True:
        traced = kinds[len(iterations) % len(kinds)]
        t0 = time.perf_counter()
        if traced:
            tracer.reset()
            it = run_iteration(tracer)
            check_coverage(tracer)
            it["layers"] = spans.layer_metrics(tracer)
        else:
            it = run_iteration()
        last[traced] = time.perf_counter() - t0
        iterations.append(it)
        upcoming = kinds[len(iterations) % len(kinds)]
        elapsed = time.perf_counter() - start
        if len(iterations) >= len(kinds) and elapsed + last[upcoming] > args.seconds:
            break

    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    env = {"python": platform.python_version(), "numpy": np.__version__,
           "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0))}
    with open(args.result, "w") as fh:
        json.dump({"iterations": iterations, "peak_rss_kb": peak_kb, "env": env}, fh)


if __name__ == "__main__":
    sys.exit(main())
