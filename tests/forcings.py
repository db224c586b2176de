"""Outer-flow forcings that no run of the command line uses.

A forcing is what ``vonmises.solve_until_separation`` takes as ``forcing``:
called with the state a step starts from and its dx, it returns the source
q of w_x - sqrt(w) w_phiphi = -2 q and the far value of the new station.

``flat_outer_flow`` is a constant outer speed: q = 0, and the far value is
the old edge value, so the wall shear never collapses (criterion 11).

The manufactured collapse (Roache, "Code verification by the method of
manufactured solutions", J. Fluids Eng. 124, 2002) has an exact answer.
With lam(x) = sqrt(x* - x), x* = lambda0**2, the profile

    u(x, y) = lam(x) y + y**2/2,   u_yy = 1,

has sqrt(w) w_phiphi = 2 u_yy = 2 and, at fixed phi, w_x = -y**2/2, so
w = u**2 solves the march's equation with q = 1 + y(x, phi)**2/4.  Its
slow time is s = 1/(x* - x), so b s = 1, the collapse exponent is 1/2 and
the wall-unit profile is U(Y) = Y + Y**2/2 with U_YY = 1.  The wall
structure is the real one: w = 2 lam phi + O(phi**(3/2)) below phi ~ lam**3.

Run as a script, ``python tests/forcings.py`` prints the manufactured
collapse's error table at n_psi 1153 and 2305.
"""

from types import SimpleNamespace

import numpy as np

from prandtlsep import diagnostics as dg
from prandtlsep import modulation as md
from prandtlsep import vonmises as vm
from prandtlsep.cli import RunConfig
from prandtlsep.gridfields import Field, Grid, spline_interpolant

#: the manufactured inflow's wall shear and the span in phi of the real
#: default inflow, which the manufactured one copies
LAMBDA0 = 0.05
PHI_MAX = 2.774


def flat_outer_flow(state: vm.VMState, dx: float) -> tuple:
    """No pressure gradient: q = 0 and the edge value kept, whatever dx."""
    return 0.0, state.W.values[-1]


def exact_lambda(x):
    """The manufactured wall shear lam(x) = sqrt(x* - x), x* = LAMBDA0**2."""
    return np.sqrt(LAMBDA0**2 - x)


def normal_coordinate(x: float, phi: np.ndarray) -> np.ndarray:
    """y(x, phi), the root of lam y**2/2 + y**3/6 = phi.

    Newton's method on this increasing convex cubic falls monotonically to
    the root from min(sqrt(2 phi/lam), cbrt(6 phi)), which bounds it above
    since each term alone is at most phi.
    """
    lam = exact_lambda(x)
    y = np.minimum(np.sqrt(2.0 * phi / lam), np.cbrt(6.0 * phi))
    for _ in range(100):
        u = y * (lam + 0.5 * y)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where(u > 0.0, (y * y * (0.5 * lam + y / 6.0) - phi) / u, 0.0)
        y = y - step
        if np.max(np.abs(step)) <= 4.0 * np.finfo(float).eps * y[-1]:
            return y
    raise RuntimeError("Newton's method did not converge")


def exact_u(x: float, y: np.ndarray) -> np.ndarray:
    return y * (exact_lambda(x) + 0.5 * y)


def manufactured_collapse(state: vm.VMState, dx: float) -> tuple:
    """The forcing of the manufactured collapse: q = 1 + y**2/4 on every
    node and the exact w at the far node, both at the new station."""
    x = state.x + dx
    y = normal_coordinate(x, state.W.grid.nodes)
    return 1.0 + 0.25 * y * y, exact_u(x, y[-1]) ** 2


def manufactured_inflow() -> SimpleNamespace:
    """The manufactured inflow at x = 0, as ``solve_until_separation``
    reads it: u0 = lambda0 y + y**2/2 up to phi = PHI_MAX, and s0."""
    y_max = float(normal_coordinate(0.0, np.array([PHI_MAX]))[0])
    grid = Grid(np.linspace(0.0, y_max, 2049))
    return SimpleNamespace(u0=Field(grid, exact_u(0.0, grid.nodes)),
                           lambda0=LAMBDA0, s0=LAMBDA0**-2)


def collapse_errors(n_psi: int, s_probe: float = 720.0,
                    n_rescaled: int = 641) -> dict:
    """March the manufactured collapse at ``n_psi`` to the default stop and
    measure it against the exact answer.

    Returns the fitted exponent, the median b s over the fit window (both
    as ``simulate`` computes them), the relative error of the fitted x*,
    and the largest miss of U_YY = 1 on Y in [0.25, 2] (the wall-fit window
    of the energy chain's first stage) at the snapshot nearest ``s_probe``,
    rescaled as ``audit`` rescales it, with that snapshot's s.
    """
    cfg = RunConfig(lambda0=LAMBDA0, n_psi=n_psi)
    traj = vm.solve_until_separation(manufactured_inflow(), cfg,
                                     manufactured_collapse)
    assert traj.completed, traj.failure
    win = md.fit_window(traj.lam, cfg.lambda_stop)
    fit = md.fit_singularity(traj.x[win], traj.lam[win])
    b = md.compute_b(traj.x, traj.lam)
    snap = min(traj.snapshots, key=lambda sn: abs(sn.state.s - s_probe))
    u_at = spline_interpolant(vm.from_von_mises(snap.state))
    lam, s = snap.state.lam, snap.state.s
    grid = md.standard_rescaled_grid(s, n_rescaled, reach=u_at.span / lam)
    ctx = dg.rescale_snapshot_profile(u_at, lam, grid)
    window = (grid.nodes >= 0.25) & (grid.nodes <= 2.0)
    return {
        "n_psi": n_psi,
        "stations": len(traj.x),
        "exponent": fit["exponent"],
        "bs_median": float(np.median((b * traj.s)[win])),
        "x_star_error": fit["x_star"] / LAMBDA0**2 - 1.0,
        "s_probe": s,
        "uyy_miss": float(np.max(np.abs(ctx.U_YY.values[window] - 1.0))),
    }


if __name__ == "__main__":
    import time

    print("| n_psi | stations | march and measure | exponent | median b·s "
          "| x* rel. error | U_YY miss on Y in [0.25, 2] | at s |")
    print("| --- | --- | --- | --- | --- | --- | --- | --- |")
    for n in (1153, 2305):
        t0 = time.perf_counter()
        e = collapse_errors(n)
        print(f"| {n} | {e['stations']} | {time.perf_counter() - t0:.2f} s "
              f"| {e['exponent']:.5f} | {e['bs_median']:.5f} "
              f"| {e['x_star_error']:.3e} | {e['uyy_miss']:.3e} "
              f"| {e['s_probe']:.0f} |")
