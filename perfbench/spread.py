"""Run-to-run spread of the end-to-end metrics, one seed per run.

    python3 perfbench/spread.py --workloads default fine-psi --seeds 1-10

runs ``run.py`` once per (workload, seed), one run at a time, and prints for
each metric the median and the interquartile range as a share of the median
(quartiles as ``statistics.quantiles(values, n=4)`` gives them), next to the
metric's bound in BENCHMARK.json.  ``--out FILE`` also runs one traced run
per workload at seed 0 and writes everything as JSON, the form
``baseline.json`` keeps.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def bench_run(workload, seed, seconds, trace):
    """One run.py invocation: (environment and measured-medians lines as
    dicts, result object)."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    lines = done.stdout.strip().splitlines()
    info = {ln.split(":", 1)[0]: json.loads(ln.split(":", 1)[1]) for ln in lines
            if ln.startswith(("environment:", "measured medians"))}
    return info, json.loads(lines[-1])


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+",
                    default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--out")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    why = {w["name"]: w["why"] for w in bench["workloads"]}
    report = {"claim": None, "run_seconds": args.seconds, "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            info, result = bench_run(workload, seed, args.seconds, 0)
            measured = info["measured medians before host-speed scaling"]
            runs.append({"seed": seed, "correct": result["correct"],
                         "attempted": result["attempted"], "failed": result["failed"],
                         **{k: v["value"] for k, v in result["metrics"].items()},
                         **{f"measured_{k}": v for k, v in measured.items()}})
            report.setdefault("environment", info["environment"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
                for k, v in runs[-1].items() if k != "seed"), flush=True)
        summary = {}
        for name in [*bounds, *(f"measured_{k}" for k in measured)]:
            values = [r[name] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            summary[name] = {"median": med, "q1": q1, "q3": q3,
                             "iqr_over_median": (q3 - q1) / med,
                             "bound": bounds.get(name)}
            print(f"  {workload} {name}: median {med:.4g}, IQR/median "
                  f"{(q3 - q1) / med:.3f} (bound {bounds.get(name)})", flush=True)
        entry = {"why": why.get(workload), "summary": summary, "runs": runs}
        if args.out:
            _, traced = bench_run(workload, 0, args.seconds, 1)
            entry["traced_seed0"] = {k: v["value"] for k, v in traced["metrics"].items()}
        report["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n")


if __name__ == "__main__":
    main()
