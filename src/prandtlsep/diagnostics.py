"""Per-snapshot diagnostics: rescaling, energies, audits, identity checks.

This is the glue between the marching solver's raw streamfunction
snapshots and the rescaled-variable machinery: each snapshot is inverted
to a physical profile, rescaled to wall units, and fed to the weighted
energies, the wall-trace check, the curvature audits and the
sub/super-solution sandwich.  Calibrated constants (curvature envelope,
sandwich amplitudes) are fixed at the first usable slice and then frozen,
so later slices are genuine checks rather than fits.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional

import numpy as np

from . import audits as au
from . import energies as en
from . import modulation as md
from . import vonmises as vm
from .errors import SingularInputError
from .gridfields import Field, Grid, diff
from .operators import (CHAIN_FITS, OperatorContext, op_Linv,
                        op_commutator, op_diffusion)

#: sandwich floor psi >= C_MINUS btilde**(-3/4), curvature zone Y <= C_ZONE s**(1/3)
C_MINUS = 32.0
C_ZONE = 0.7


@dataclass(frozen=True, eq=False)
class SnapshotFrame:
    """One snapshot in rescaled variables plus modulation data."""

    s: float
    lam: float
    b: float
    btilde: float
    u: Field                # physical profile of the snapshot state
    ctx: OperatorContext
    W_resc: Field
    trusted: np.ndarray
    report: Optional[en.EnergyReport] = None


def wall_units(u: Field, lam: float, grid: Grid) -> tuple:
    """(U, ctx): the physical profile ``u`` of shear ``lam`` rescaled to
    wall units on ``grid``, and its operator context."""
    # the tracked shear and the refitted wall slope drift apart as the shear
    # collapses: on the default run (n_psi = 2305) by 1e-4 at s ~ 700,
    # growing smoothly to 1.0% at s ~ 9e5; at n_psi = 4609 the drift stays
    # below 0.2%, so it is a phi-resolution effect of the march.  The
    # rescale refits the slope anyway, so diagnostics run with a loosened
    # cross-check
    U = md.rescale_profile(u, lam, grid, slope_rtol=2.5e-2)
    return U, OperatorContext.from_profile(U)


def rescale_snapshot_profile(snap: vm.Snapshot, u: Field,
                             n_grid: int = 641) -> tuple:
    """(U, ctx) of ``u``, the physical profile of ``snap``, in wall units."""
    return wall_units(u, snap.lam, md.standard_rescaled_grid(snap.s, n_grid))


def rescaled_streamfunction(snap: vm.Snapshot) -> tuple:
    """(psi, W) in wall units; the diffusion balance F is scale-invariant,
    so the physical roundoff trust mask carries over node by node."""
    lam = snap.lam
    psi = snap.state.psi_grid.nodes / lam**3
    w = snap.state.W.values / lam**4
    grid = Grid(psi, "rescaled-streamfunction")
    return Field(grid, w), vm.trusted_F_mask(snap.state)


def build_frames(traj: vm.Trajectory, n_grid: int = 641) -> List[SnapshotFrame]:
    """Rescale every snapshot and attach modulation data and energies.

    Each snapshot state is inverted to its physical profile once.  The
    resolved flag compares the energies against a half-resolution
    recomputation; samples that move more than 10% are flagged and
    excluded from acceptance-style gates.
    """
    b_arr = md.compute_b(traj.x, traj.lam)
    bt_arr = md.evolve_btilde(traj.s, b_arr)
    bs_arr = md.local_slope(traj.s, b_arr)
    frames: List[SnapshotFrame] = []
    for snap in traj.snapshots:
        i = int(np.argmin(np.abs(traj.x - snap.x)))
        b, bs, bt = float(b_arr[i]), float(bs_arr[i]), float(bt_arr[i])
        u = vm.from_von_mises(snap.state)
        U, ctx = rescale_snapshot_profile(snap, u, n_grid)
        W_resc, trusted = rescaled_streamfunction(snap)
        V = en.compute_V(U, snap.s, b)
        try:
            report = en.energy_report(ctx, V, snap.s, b, bs)
        except SingularInputError:
            report = None
        if report is not None:
            resolved = True
            try:
                U2, ctx2 = rescale_snapshot_profile(snap, u, n_grid // 2 + 1)
                V2 = en.compute_V(U2, snap.s, b)
                r2 = en.energy_report(ctx2, V2, snap.s, b, bs)
                for a, c in ((report.E0, r2.E0), (report.E1, r2.E1),
                             (report.E2, r2.E2)):
                    if a > 0 and abs(a - c) > 0.10 * max(a, c):
                        resolved = False
            except SingularInputError:
                # the half-resolution chain could not even be evaluated
                resolved = False
            report = replace(report, resolved=resolved)
        frames.append(SnapshotFrame(
            s=snap.s, lam=snap.lam, b=b, btilde=bt, u=u, ctx=ctx,
            W_resc=W_resc, trusted=trusted, report=report,
        ))
    return frames


# ---------------------------------------------------------------------------
# Audit orchestration with frozen calibration
# ---------------------------------------------------------------------------


@dataclass
class AuditSuite:
    M2: float
    M0: float
    M1: float
    alpha: float
    A_minus: float
    A_plus: float
    C_minus: float
    reports: List[au.AuditReport] = field(default_factory=list)


def measure_M0(ctx: OperatorContext, s: float) -> float:
    """Envelope constant of the initial curvature defect,
    1 - U_YY <= M0 min(1, Y**2/s), measured away from the wall noise."""
    y = ctx.grid.nodes
    uyy = au.curvature_estimate(ctx)
    env = np.minimum(1.0, y * y / s)
    sel = y >= 1.0
    ratio = (1.0 - uyy[sel]) / np.maximum(env[sel], 1e-300)
    return max(float(np.max(ratio)), 1.0)


def run_audit_suite(frames: List[SnapshotFrame]) -> AuditSuite:
    """Calibrate the comparison constants on the first usable frame, freeze
    them, and audit every frame."""
    if not frames:
        raise ValueError("no frames to audit")
    first = frames[0]
    M2 = au.calibrate_M2(first.ctx, first.s, first.b, c=C_ZONE)
    M0 = measure_M0(first.ctx, first.s)
    M1 = au.dyadic_ceil(1.1 * max(M2, 1.0, M0))
    alpha = max(6.0 ** (2.0 / 3.0), 12.0 * M0)
    a_minus, a_plus = None, None
    for fr in frames:
        bottom = C_MINUS * fr.btilde ** (-0.75)
        if bottom < fr.W_resc.grid.span * 0.5:
            a_minus, a_plus = au.calibrate_A(fr.W_resc, fr.s, fr.b, fr.btilde, C_MINUS)
            break
    if a_minus is None:
        a_minus, a_plus = 1.0, 1.0
    suite = AuditSuite(M2=M2, M0=M0, M1=M1, alpha=alpha, A_minus=a_minus,
                       A_plus=a_plus, C_minus=C_MINUS)
    lam_cal = frames[0].lam
    for fr in frames:
        # the wall-layer truncation zone of the fixed marching grid grows
        # as the shear collapses; below it the balance audit in native
        # streamfunction variables carries the same inequality
        y_min = 0.5 * max(1.0, (lam_cal / fr.lam) ** 0.6)
        suite.reports.append(au.max_principle_audit(fr.ctx, fr.s, fr.b, M2,
                                                    c=C_ZONE, M1=M1,
                                                    y_min=y_min))
        suite.reports.append(au.subsolution_audit(
            fr.W_resc, fr.s, fr.b, fr.btilde, a_minus, a_plus, C_MINUS))
        suite.reports.append(au.F_bound_audit(
            fr.W_resc, fr.s, fr.btilde, alpha, C_MINUS, trusted=fr.trusted))
    return suite


# ---------------------------------------------------------------------------
# Commutator identity on a marching pair
# ---------------------------------------------------------------------------


def commutator_identity_check(snap: vm.Snapshot, u: Field, b: float,
                              n_grid: int = 641) -> dict:
    """Finite-difference transport commutator against its closed form.

    ``u`` is the snapshot's physical profile (``vm.from_von_mises`` of its
    state); only the pair state is inverted here.  On the pair of states
    (s1, s2) around s_mid, with a fixed smooth test function
    T(Y) = Y**2 exp(-Y/4):

      lhs = d/ds[Linv T] + (b/2)(Linv(Y T') - Y d/dY Linv T) - b Linv T
      rhs = commutator source built from the diffusion field D.

    Returns the relative gap on Y in [0.1, s**(1/4)] and the pinned
    tolerance 5 (ds/s + h_rel**2).
    """
    s1, s2 = snap.s, snap.pair_s
    s_mid = 0.5 * (s1 + s2)
    grid = md.standard_rescaled_grid(s_mid, n_grid)
    U1, ctx1 = wall_units(u, snap.lam, grid)
    U2, ctx2 = wall_units(vm.from_von_mises(snap.pair_state),
                          snap.pair_state.lam, grid)
    U_mid = U1.with_values(0.5 * (U1.values + U2.values))
    ctx = OperatorContext.from_profile(U_mid, slope_tol=1e-3)

    Y = grid.nodes
    T = Field(grid, Y**2 * np.exp(-Y / 4.0))
    T_Y = diff(T, 1)
    linv_1 = op_Linv(ctx1, T)
    linv_2 = op_Linv(ctx2, T)
    linv_mid = op_Linv(ctx, T)
    ds = s2 - s1
    # [Linv, d/ds] T = -d/ds(Linv T) for an s-independent test function
    d_ds = (linv_2.values - linv_1.values) / ds
    yt = Field(grid, Y * T_Y.values)
    bracket_y = op_Linv(ctx, yt).values - Y * diff(linv_mid, 1).values
    lhs = -d_ds + 0.5 * b * bracket_y - b * linv_mid.values

    D = op_diffusion(ctx, fit=CHAIN_FITS[0])
    rhs = op_commutator(ctx, D, T, fit=CHAIN_FITS[0]).values

    window = (Y >= 0.1) & (Y <= s_mid**0.25)
    scale = float(np.max(np.abs(rhs[window])))
    gap = float(np.max(np.abs(lhs[window] - rhs[window]))) / max(scale, 1e-300)
    h_rel = float(np.max(np.diff(Y)[window[1:]] / (1.0 + Y[1:][window[1:]])))
    tol = 5.0 * (ds / s_mid + h_rel**2)
    return {
        "relative_gap": gap,
        "tolerance": tol,
        "holds": bool(gap <= tol),
        "ds_over_s": ds / s_mid,
        "h_rel": h_rel,
        "s_mid": s_mid,
    }
