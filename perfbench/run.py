"""prandtlsep benchmark: time the CLI pipeline end to end, or trace its layers.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload default --seed 1 --seconds 34 --trace 0

The seed sets the workload's inputs (see ``workloads.py``).  With
``--trace 0`` it measures the set-up time (fresh processes importing
``prandtlsep.cli``) and then repeats the workload's CLI pipeline in one
worker process for ``--seconds`` seconds, reporting medians of times
scaled to a reference host speed (see ``calib.py``).  With
``--trace 1`` untraced and traced pipelines alternate and it reports the
per-layer spans.  Every operation's artifacts are checked against the
acceptance criteria's tolerances.  The last line of output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import calib
from workloads import WORKLOADS, config_text, seeded_lambda0

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 5
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
RUN_LIMIT_S = 170.0

# CLI outputs at the nominal inputs (seed 0), for the report line only
REFERENCE = {
    "default": {"steps": 1115, "exponent": "0.5150", "x_star": "2.588e-03",
                "reports": 42, "identities": 20},
    "fine-psi": {"steps": 1116, "exponent": "0.5151", "reports": 42,
                 "identities": 20},
    "dense-snapshots": {"steps": 1115, "exponent": "0.5150",
                        "x_star": "2.588e-03", "reports": 81, "identities": 20},
}


def _source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "prandtlsep").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _git_sha():
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def scaled(seconds, before, after):
    """A wall time at reference host speed, judged by the kernel samples
    taken just before and just after it."""
    return seconds * 2.0 * calib.REFERENCE_S / (before + after)


def measure_setup(env):
    """(median wall time of a fresh interpreter importing prandtlsep.cli,
    median of the same times host-speed scaled, median kernel time)."""
    cmd = [sys.executable, "-c", "import prandtlsep.cli"]
    subprocess.run(cmd, env=env, check=True)   # warm the bytecode cache
    samples, speed = [], [calib.sample()]
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, check=True)
        samples.append(time.perf_counter() - t0)
        speed.append(calib.sample())
    return (median(samples),
            median(scaled(t, *speed[i:i + 2]) for i, t in enumerate(samples)),
            median(speed))


def scaled_times(it):
    """An iteration's simulate and audit times at reference host speed."""
    out = {"simulate": 0.0, "audit": 0.0}
    cal = it["calibration"]
    for i, op in enumerate(it["ops"]):
        if op["op"] in out:
            out[op["op"]] += scaled(op["seconds"], cal[i], cal[i + 1])
    return out


def judge(iterations):
    """(attempted, failed, problems): problems make the run incorrect."""
    attempted = failed = 0
    problems = []
    for it in iterations:
        for op in it["ops"]:
            attempted += 1
            if op["exit"] != 0:
                failed += 1
                problems.append(f"{op['op']} {op['target']} exited "
                                f"{op['exit']}: {' '.join(op['message'])}")
            elif op["problems"]:
                failed += 1
                problems += [f"{op['op']} {op['target']}: {p}" for p in op["problems"]]
    if len({it["digest"] for it in iterations}) > 1:
        problems.append("artifacts differ between iterations of one seed")
    return attempted, failed, sorted(set(problems))


def describe_outputs(workload, seed, first):
    lines = []
    outputs = {}
    for op in first["ops"]:
        if op["exit"] != 0:
            lines.append(f"FAILED: {op['op']} {op['target']} exit {op['exit']}: "
                         f"{' '.join(op['message'])}")
            continue
        out = op.get("outputs", {})
        lines.append(f"outputs {op['op']} {op['target']}: "
                     f"{json.dumps(out, sort_keys=True)}")
        outputs.update(out)
    ref = REFERENCE.get(workload)
    if seed == 0 and ref:
        seen = {"steps": outputs.get("steps"),
                "exponent": f"{outputs.get('exponent', float('nan')):.4f}",
                "x_star": f"{outputs.get('x_star', float('nan')):.3e}",
                "reports": outputs.get("reports"),
                "identities": outputs.get("identities")}
        diff = {k: (v, seen[k]) for k, v in ref.items() if seen[k] != v}
        lines.append("reference (seed 0): " + ("matches the recorded CLI outputs"
                     if not diff else f"differs (expected, seen): {diff}"))
    return lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=34.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "prandtlsep" / "cli.py").is_file():
        print(f"perfbench: no prandtlsep sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(HERE)]))
    env.update({var: "1" for var in THREAD_VARS})
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        (work / "bench.cfg").write_text(config_text(args.workload, args.seed))
        setup = measure_setup(env) if not args.trace else None
        result_path = work / "result.json"
        budget = RUN_LIMIT_S - (time.perf_counter() - started)
        try:
            done = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), "--seconds", str(args.seconds),
                 "--trace", str(args.trace), "--result", str(result_path)],
                cwd=work, env=env, timeout=budget)
        except subprocess.TimeoutExpired:
            print(f"perfbench: worker killed after {budget:.0f} s", file=sys.stderr)
            return 1
        if done.returncode != 0:
            print(f"perfbench: worker exited {done.returncode}", file=sys.stderr)
            return 1
        result = json.loads(result_path.read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)

    iterations = result["iterations"]
    plain = [it for it in iterations if not it["traced"]]
    traced = [it for it in iterations if it["traced"]]
    attempted, failed, problems = judge(iterations)
    pipeline = [it["times"]["simulate"] + it["times"]["audit"] for it in plain]

    env_info = dict(result["env"], git=_git_sha(), source_sha256=_source_digest(),
                    blas_threads={v: env[v] for v in THREAD_VARS})
    print(f"perfbench: workload={args.workload} seed={args.seed} "
          f"lambda0={seeded_lambda0(args.seed):g} trace={args.trace} "
          f"iterations={len(plain)} untraced, {len(traced)} traced")
    print(f"environment: {json.dumps(env_info, sort_keys=True)}")
    print("iteration seconds (simulate, audit, verify-algebra; * traced): " + ", ".join(
        f"({it['times']['simulate']:.3f}, {it['times']['audit']:.3f}, "
        f"{it['times']['verify-algebra']:.3f}){'*' if it['traced'] else ''}"
        for it in iterations))
    for line in describe_outputs(args.workload, args.seed, iterations[0]):
        print(line)

    if args.trace:
        metrics = {name: median([it["layers"][name] for it in traced])
                   for name in traced[0]["layers"]}
        metrics["trace_overhead_s"] = (
            median([it["times"]["simulate"] + it["times"]["audit"] for it in traced])
            - median(pipeline))
    else:
        raw = {"simulate_s": median([it["times"]["simulate"] for it in plain]),
               "audit_s": median([it["times"]["audit"] for it in plain]),
               "pipeline_s": median(pipeline)}
        kernel_s = median([t for it in plain for t in it["calibration"]])
        print(f"host speed: kernel {kernel_s * 1e3:.2f} ms during the pipelines, "
              f"{setup[2] * 1e3:.2f} ms during set-up (reference "
              f"{calib.REFERENCE_S * 1e3:.0f} ms)")
        print("measured medians before host-speed scaling: "
              + json.dumps({"setup_s": setup[0], **raw}))
        at_ref = [scaled_times(it) for it in plain]
        metrics = {"setup_s": setup[1],
                   "simulate_s": median([t["simulate"] for t in at_ref]),
                   "audit_s": median([t["audit"] for t in at_ref]),
                   "pipeline_s": median([t["simulate"] + t["audit"] for t in at_ref])}
        metrics["peak_rss_mb"] = result["peak_rss_kb"] / 1024.0
        print(f"metric ops_failed_frac = {failed / attempted:.4f} (failed/attempted, "
              f"{failed}/{attempted})")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        print(f"perfbench: metrics {sorted(set(metrics) ^ set(units))} do not match "
              "BENCHMARK.json", file=sys.stderr)
        return 1
    for name, value in metrics.items():
        print(f"metric {name} = {value:.6g} {units[name]}")
    for p in problems:
        print(f"INCORRECT: {p}")
    print(f"verdict: {'correct' if not problems else 'INCORRECT'}; "
          f"{failed} of {attempted} operations failed")
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
