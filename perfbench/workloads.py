"""The benchmark's workloads: seeded configurations and CLI operation lists.

A workload is a set of configuration overrides.  With the seed it becomes a
``key = value`` configuration file, the only input the CLI receives.  One
pipeline iteration runs the CLI operations in ``OPS``, each with the
directory it writes or reads.
"""

from __future__ import annotations

import random

# seed 0 runs the nominal lambda0; any other seed draws it from a grid over
# 0.05 +- 4% in steps of 1e-4
LAMBDA0_GRID = [round(0.048 + i * 1e-4, 4) for i in range(41)]

# Grid points where an operation fails on fine-psi at the commit that added
# the benchmark.  A workload must run without a failing operation, so seeds
# never draw them; README.md records them as known failures.  Every other
# grid point ran simulate and audit on every workload and passed the gate.
FAILING = {
    0.0480: "simulate: b*s envelope [0.8910, 1.0128] below 0.9",
    0.0488: "audit exits 2: InconsistentLambdaError",
    0.0490: "simulate: b*s envelope [0.8955, 1.0110] below 0.9",
    0.0495: "audit exits 2: InconsistentLambdaError",
    0.0507: "audit exits 2: InconsistentLambdaError",
    0.0508: "simulate: b*s envelope [0.8870, 1.0100] below 0.9",
    0.0509: "audit exits 2: InconsistentLambdaError",
    0.0519: "audit exits 2: InconsistentLambdaError",
}
LAMBDA0_VALUES = [lam for lam in LAMBDA0_GRID if lam not in FAILING]

# Every workload ends with verify-algebra (about 0.03 s in process), so a
# traced iteration must see every hooked span on every workload.
OPS = [("simulate", "run"), ("audit", "run"), ("verify-algebra", "algebra")]

WORKLOADS = {
    "default": {},
    "fine-psi": {"n_psi": 4609},
    "dense-snapshots": {"snapshots_per_decade": 16.0},
}

def seeded_lambda0(seed: int) -> float:
    if seed == 0:
        return 0.05
    return random.Random(seed).choice(LAMBDA0_VALUES)


def config_text(workload: str, seed: int) -> str:
    """The configuration file handed to the CLI for this workload and seed."""
    values = {"lambda0": seeded_lambda0(seed), "outdir": "run"}
    values.update(WORKLOADS[workload])
    return "".join(f"{key} = {value}\n" for key, value in values.items())
