"""Criterion 6's first checked gap against the march's phi resolution.

``audit`` checks the commutator identity first on the marching pair of
snapshot 1, at s_mid ~ 722 on the default configuration.  This helper
marches that configuration at several ``n_psi`` and, on that pair, reports:

- the gap of ``diagnostics.commutator_identity_check``, as the audit
  computes it;
- max |U_YY - (1 - b Y**2/4)| on Y in [0.25, 2], where the check's
  diffusion field is fitted, for each state of the pair and for their mean
  U_mid;
- max |(U - U_app)(s2) - (U - U_app)(s1)| / ds on the check's window
  Y in [0.1, s_mid**(1/4)], with U_app = ``profiles.eval_uapp(s, b, Y)`` at
  each state's own marched b: the part of the marched dU/ds that the
  approximate solution does not carry;
- the two window maxima that the gap compares, max |lhs| and max |rhs|,
  for the marched pair and for the U_app pair ``eval_uapp(s, b, Y)`` at
  the pair's s1 and s2 with the marched b, on the check's grid: the gap is
  max |lhs - rhs| / max |rhs|.

Run as a script, ``python tests/first_gap.py`` marches the default run at
n_psi 2305, 4609 and 9217 (about 2 s) and prints one row per n_psi.
"""

import numpy as np

from prandtlsep import diagnostics as dg
from prandtlsep import modulation as md
from prandtlsep import profiles as pr
from prandtlsep import vonmises as vm
from prandtlsep.cli import RunConfig
from prandtlsep.gridfields import Field, spline_interpolant
from prandtlsep.operators import OperatorContext

N_PSI = (2305, 4609, 9217)

#: the Y range on which the check's diffusion field is fitted
CURVATURE_Y = (0.25, 2.0)


def first_pair_row(n_psi: int) -> dict:
    """The gap and the profile misses of the first checked pair of the
    default run marched on ``n_psi`` phi nodes."""
    cfg = RunConfig(n_psi=n_psi)
    data = pr.build_initial_data(cfg.lambda0, pr.default_physical_grid(cfg.n_physical),
                                 cfg.perturbation_amplitude, cfg.x0_pressure)
    traj = vm.solve_until_separation(data, cfg)
    snap = traj.snapshots[1]
    b_arr = md.compute_b(traj.x, traj.lam)
    b = float(b_arr[snap.station])
    states = (snap.state, snap.pair_state)
    # the snapshot's frame context, as the audit builds it, and the pair
    # state rescaled onto its grid, as the check rescales it
    ctx1, _ = dg._wall_unit_corrector(spline_interpolant(
        vm.from_von_mises(snap.state)), snap.state, b, cfg.n_rescaled)
    check = dg.commutator_identity_check(ctx1, snap, b)
    grid = ctx1.grid
    ctx2 = dg.rescale_snapshot_profile(spline_interpolant(
        vm.from_von_mises(snap.pair_state)), snap.pair_state.lam, grid)
    s_mid = check["s_mid"]
    mid = OperatorContext.from_profile(
        ctx1.U.with_values(0.5 * (ctx1.U.values + ctx2.U.values)), slope_tol=1e-3)
    Y = grid.nodes
    fit = (Y >= CURVATURE_Y[0]) & (Y <= CURVATURE_Y[1])
    misses = [float(np.max(np.abs(ctx.U_YY.values - (1.0 - 0.25 * b * Y**2))[fit]))
              for ctx in (ctx1, ctx2, mid)]

    window = (Y >= 0.1) & (Y <= s_mid**0.25)
    s1, s2 = (st.s for st in states)
    b1, b2 = (float(b_arr[i]) for i in (snap.station, snap.station + 1))
    off1 = ctx1.U.values - pr.eval_uapp(s1, b1, Y)
    off2 = ctx2.U.values - pr.eval_uapp(s2, b2, Y)
    drift = float(np.max(np.abs(off2 - off1)[window])) / (s2 - s1)
    uapp = dg.commutator_gap(*(OperatorContext.from_profile(
        Field(grid, pr.eval_uapp(s, b, Y))) for s in (s1, s2)), s1, s2, b)
    return {"n_psi": n_psi, "s_mid": s_mid, "gap": check["relative_gap"],
            "tolerance": check["tolerance"], "U_YY_miss": misses,
            "d_ds_off_uapp": drift,
            "max_lhs": check["max_lhs"], "max_rhs": check["max_rhs"],
            "uapp_max_lhs": uapp["max_lhs"], "uapp_max_rhs": uapp["max_rhs"]}


if __name__ == "__main__":
    import time

    print("| n_psi | s_mid | gap | tolerance | U_YY miss, state 1 | state 2 "
          "| U_mid | max|Δ(U − U_app)|/ds | marched max|lhs| | max|rhs| "
          "| U_app max|lhs| | max|rhs| | s |")
    print("| --- |" + " --- |" * 12)
    for n_psi in N_PSI:
        t0 = time.perf_counter()
        row = first_pair_row(n_psi)
        print(f"| {n_psi} | {row['s_mid']:.1f} | {row['gap']:.3f} | "
              f"{row['tolerance']:.4f} | "
              + " | ".join(f"{m:.2e}" for m in row["U_YY_miss"])
              + f" | {row['d_ds_off_uapp']:.2e} | "
              + " | ".join(f"{row[key]:.3e}" for key in (
                  "max_lhs", "max_rhs", "uapp_max_lhs", "uapp_max_rhs"))
              + f" | {time.perf_counter() - t0:.1f} |")
