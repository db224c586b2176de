"""The march step's fixed cost: warm ``simulate`` times and calls per step.

Most of a march step's time is a fixed cost of interpreter and numpy calls,
which the phi node count barely changes.  Two measurements show it:

- ``warm_simulate_s(n_psi)``: the median of seven ``cli.run_simulate``
  runs of the default configuration on ``n_psi`` phi nodes, in one process
  after one untimed run;
- ``step_calls(n_psi, steps)``: for each ``vonmises.march_step`` call of
  the default march, stopped after ``steps`` steps, what ``sys.setprofile``
  sees the call enter: Python frames, those of them whose code lives in the
  package, and C builtin calls.  The per-step record, which
  ``solve_until_separation`` makes after each step, is not counted, and
  neither are ufunc calls, which the profiler does not report.

The package-frame count does not depend on numpy's internals, so
``test_vonmises.py`` guards it.  The first step is left out of every count:
it builds the fresh grid's cached stencils and may bind LAPACK.

Run as a script, ``python tests/step_cost.py`` prints both tables (about
10 s).
"""

import contextlib
import io
import os
import statistics
import sys
import tempfile
import time

import prandtlsep
from prandtlsep import cli
from prandtlsep import profiles as pr
from prandtlsep import vonmises as vm

PACKAGE = os.path.dirname(os.path.abspath(prandtlsep.__file__)) + os.sep

N_PSI = (577, 2305, 4609)
#: timed simulate runs per node count, after one untimed run
RUNS = 7


def warm_simulate_s(n_psi: int) -> tuple:
    """(march steps, median wall time of ``RUNS`` warm simulate runs)."""
    with tempfile.TemporaryDirectory() as outdir:
        cfg = cli.RunConfig(n_psi=n_psi, outdir=outdir)
        times = []
        for _ in range(RUNS + 1):
            start = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.run_simulate(cfg) == cli.EXIT_OK
            times.append(time.perf_counter() - start)
        with open(os.path.join(outdir, "trajectory.csv")) as fh:
            steps = sum(1 for _ in fh) - 1
    return steps, statistics.median(times[1:])


def step_calls(n_psi: int, steps: int) -> list:
    """(Python frames, package frames, C calls) entered by each march step
    after the first, of the default march on ``n_psi`` nodes stopped after
    ``steps`` steps."""
    cfg = cli.RunConfig(n_psi=n_psi)
    data = pr.build_initial_data(cfg.lambda0, pr.default_physical_grid(cfg.n_physical),
                                 cfg.perturbation_amplitude, cfg.x0_pressure)
    counts = []
    step = vm.march_step

    def counted(*args):
        tally = [0, 0, 0]

        def profile(frame, event, arg):
            if event == "call":
                tally[0] += 1
                tally[1] += frame.f_code.co_filename.startswith(PACKAGE)
            elif event == "c_call" and arg is not sys.setprofile:
                tally[2] += 1

        sys.setprofile(profile)
        try:
            return step(*args)
        finally:
            sys.setprofile(None)
            counts.append(tuple(tally))

    max_steps = vm.MAX_STEPS
    vm.march_step, vm.MAX_STEPS = counted, steps
    try:
        vm.solve_until_separation(data, cfg)
    finally:
        vm.march_step, vm.MAX_STEPS = step, max_steps
    return counts[1:]


if __name__ == "__main__":
    print("| n_psi | steps | warm `simulate` (in process, median of 7) |")
    print("| --- | --- | --- |")
    for n_psi in N_PSI:
        steps, seconds = warm_simulate_s(n_psi)
        print(f"| {n_psi} | {steps} | {1e3 * seconds:.0f} ms |")
    print()
    print("| n_psi | steps counted | Python frames/step | package frames/step "
          "| C calls/step |")
    print("| --- | --- | --- | --- | --- |")
    for n_psi in (1153, 2305):
        counts = step_calls(n_psi, vm.MAX_STEPS)
        python, package, c_calls = (sum(column) / len(counts)
                                    for column in zip(*counts))
        print(f"| {n_psi} | {len(counts)} | {python:.1f} | {package:.1f} "
              f"| {c_calls:.1f} |")
