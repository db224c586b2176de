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

from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Tuple

import numpy as np

from . import audits as au
from . import energies as en
from . import modulation as md
from . import vonmises as vm
from .errors import (DomainError, InconsistentLambdaError, PrandtlSepError,
                     SingularInputError)
from .gridfields import (MIN_NODES, Field, Grid, diff, lstsq_powers,
                         spline_interpolant, wall_window)
from .operators import (CHAIN_FITS, DEFAULT_FIT, OperatorContext, op_Linv,
                        op_commutator, op_diffusion)

#: the tracked shear and the refitted wall slope of a snapshot drift apart
#: as the shear collapses: on the default run (n_psi = 2305) by 1e-4 at
#: s ~ 700, growing smoothly to 1.0% at s ~ 9e5; at n_psi = 4609 the drift
#: stays below 0.2%, so it is a phi-resolution effect of the march.  The
#: rescale refits the slope anyway, so the cross-check is this loose
SLOPE_RTOL = 2.5e-2

#: the resolved flag recomputes E0, E1, E2 up to the first that moves, and
#: no D_k or trace, on every other node of the frame's n wall-unit nodes,
#: n // 2 + 1 of them: MIN_NODES at least
MIN_RESCALED_NODES = 2 * (MIN_NODES - 1)


@dataclass(frozen=True, eq=False)
class SnapshotFrame:
    """One audited snapshot: its modulation data, energies and checks.

    ``checks`` holds its max-principle, sub/super-solution and balance
    reports against the frozen calibration, and ``calibrated`` the
    constants of that calibration first set on it.  ``commutator`` is the
    identity check on its marching pair, on the checked snapshots only.
    A snapshot that cannot be inverted, splined or rescaled to wall units
    keeps its frame, with no report and no checks, and ``failure`` holds
    the error that stopped it.
    """

    index: int              # the snapshot's position in the trajectory
    s: float
    lam: float
    b: float
    btilde: float
    report: Optional[en.EnergyReport]
    checks: Tuple[au.AuditReport, ...]
    calibrated: dict
    commutator: Optional[dict]
    failure: Optional[PrandtlSepError]


def rescale_snapshot_profile(u_at: Callable, lam: float,
                             grid: Grid) -> OperatorContext:
    """Operator context of U(Y) = lam**-2 u(lam Y) on the wall-unit ``grid``.

    ``u_at`` evaluates the physical profile u, as its quintic spline
    (``spline_interpolant``), so the rescaled profile stays smooth on grids
    finer than u's own.  The wall slope of U is re-fitted and used as the
    actual scaling factor, which pins U_Y(0) = 1 to fit accuracy; if the
    shear the profile is built with disagrees with the claimed ``lam`` by
    more than ``SLOPE_RTOL`` the profile is rejected.
    """
    if lam <= 0.0:
        raise DomainError("lam must be positive")
    Y = grid.nodes
    window = wall_window(Y, Y[1], DEFAULT_FIT.hi)
    # each attempt reads the fit window, and the last node, whose query
    # is the whole grid's range check
    probe = np.append(window, len(Y) - 1)
    lam_use = lam
    for attempt in range(4):
        vals = u_at(lam_use * Y[probe])[:-1] / lam_use**2
        c1 = float(lstsq_powers(Y[window], vals, (1, 2, 3, 4))[0])
        if abs(c1 - 1.0) < 1e-9 or attempt == 3:
            break
        lam_use *= c1
    if abs(lam_use / lam - 1.0) > SLOPE_RTOL:
        raise InconsistentLambdaError(
            f"claimed shear {lam:.6g} vs wall-normalized {lam_use:.6g}"
        )
    return OperatorContext.from_profile(Field(grid, u_at(lam_use * Y) / lam_use**2))


def _wall_unit_corrector(u_at: Callable, state: vm.VMState, b: float,
                         n_grid: int) -> tuple:
    """(ctx, V): the state's profile in wall units on ``n_grid`` nodes and
    its corrector.  The wall-unit grid ends where the profile ``u_at`` ends."""
    grid = md.standard_rescaled_grid(state.s, n_grid, reach=u_at.span / state.lam)
    ctx = rescale_snapshot_profile(u_at, state.lam, grid)
    return ctx, en.compute_V(ctx.U, state.s, b)


def energies_resolved(report: en.EnergyReport, ctx: OperatorContext,
                      V: Field, s: float) -> bool:
    """Whether E0, E1 and E2 of ``report``, taken on the wall-unit context
    ``ctx`` with corrector ``V``, each hold within 10% on every other node
    of ctx's n-node grid (``md.subsampled_rescaled_grid``: n // 2 + 1
    nodes), compared in that order one chain stage at a time: the first
    energy that moves ends the check, which reads no D_k or trace.  The
    subsampled profile is not rescaled again.  A package error, the
    subsampled profile's wall-slope check included, means unresolved."""
    try:
        grid, idx = md.subsampled_rescaled_grid(ctx.grid)
        coarse = OperatorContext.from_profile(Field(grid, ctx.U.values[idx]))
        chain = en.energy_chain(coarse, Field(grid, V.values[idx]), s)
        return not any(
            a > 0 and abs(a - c) > 0.10 * max(a, c)
            for a, (c, *_) in zip((report.E0, report.E1, report.E2), chain))
    except PrandtlSepError:
        return False


def measure_M0(ctx: OperatorContext, s: float) -> float:
    """Envelope constant of the initial curvature defect,
    1 - U_YY <= M0 min(1, Y**2/s), measured away from the wall noise."""
    y = ctx.grid.nodes
    uyy = ctx.U_YY.values
    env = np.minimum(1.0, y * y / s)
    sel = y >= 1.0
    ratio = (1.0 - uyy[sel]) / np.maximum(env[sel], 1e-300)
    return max(float(np.max(ratio)), 1.0)


def _curvature_frame(index: int, snap: vm.Snapshot, b: float, bs: float, btilde: float,
                     n_grid: int, frozen: dict, pair: bool) -> SnapshotFrame:
    """The frame of the snapshot at position ``index``: its energies, its
    max-principle report and, with ``pair``, its commutator check.

    The state is inverted, splined and rescaled once, for the report, the
    E_k of ``energies_resolved``, which subsample that rescale, and the
    commutator check, which reads that context.  The spline and the
    contexts go when this returns.  An empty ``frozen`` is filled with the
    curvature calibration measured here, and the frame records it.
    """
    state = snap.state
    s, lam = state.s, state.lam
    scalars = {"index": index, "s": s, "lam": lam, "b": b, "btilde": btilde}
    s_mid = 0.5 * (s + snap.pair_state.s)
    try:
        u_at = spline_interpolant(vm.from_von_mises(state))
        ctx, V = _wall_unit_corrector(u_at, state, b, n_grid)
        try:   # no report where the operator chain is singular
            report = en.energy_report(ctx, V, s, b, bs)
            report = replace(report, resolved_flag=energies_resolved(
                report, ctx, V, s))
        except SingularInputError:
            report = None
    except PrandtlSepError as exc:
        # no context for the commutator either
        failed = {"s_mid": s_mid, "error": str(exc)} if pair else None
        return SnapshotFrame(**scalars, report=None, checks=(), calibrated={},
                             commutator=failed, failure=exc)
    calibrated = {}
    if not frozen:
        M2, M0 = au.calibrate_M2(ctx, s, b), measure_M0(ctx, s)
        calibrated = {"M2": M2, "M0": M0,
                      "M1": au.dyadic_ceil(1.1 * max(M2, 1.0, M0)),
                      "alpha": max(6.0 ** (2.0 / 3.0), 12.0 * M0)}
        frozen.update(calibrated, lam=lam)
    # the wall-layer truncation zone of the fixed marching grid grows as
    # the shear collapses; below it the balance audit in native
    # streamfunction variables carries the same inequality
    y_min = 0.5 * max(1.0, (frozen["lam"] / lam) ** 0.6)
    check = au.max_principle_audit(ctx, s, b, frozen["M2"], frozen["M1"],
                                   y_min=y_min)
    commutator = None
    if pair:
        try:
            commutator = commutator_identity_check(ctx, snap, b)
        except PrandtlSepError as exc:
            commutator = {"s_mid": s_mid, "error": str(exc)}
    return SnapshotFrame(**scalars, report=report, checks=(check,),
                         calibrated=calibrated, commutator=commutator, failure=None)


def _rescaled_W(state: vm.VMState) -> Field:
    """The state in rescaled variables: W = w / lam**4 on phi / lam**3."""
    lam = state.lam
    return Field(Grid(state.W.grid.nodes / lam**3), state.W.values / lam**4)


def build_frames(traj: vm.Trajectory, n_grid: int) -> List[SnapshotFrame]:
    """Audit the snapshots in two passes, one at a time: one frame each.

    The first pass gives each snapshot its energies and max-principle
    report from ``_curvature_frame``, against the constants calibrated on
    the first snapshot that rescales.  Of n snapshots, those at positions
    1, n // 2 and n - 2 that lie in 1 .. n - 2 also check the commutator
    identity on their pair, on their frame's own wall-unit context.
    The sandwich amplitudes are then calibrated once, on the first
    rescaled snapshot whose sandwich floor lies inside half its
    streamfunction span (on the first rescaled one, as 1 and 1, where none
    does), before the second pass adds the sub/super-solution and balance
    checks against them to every rescaled frame.  No check reads a
    constant that later snapshots could still move.

    A snapshot that raises a package error on the way, such as a
    wall-fitted shear that misses the tracked one, keeps a frame that
    records the error.  The resolved flag recomputes E0, E1 and E2 on
    every other node of the frame's own wall-unit profile, up to the first
    that moves more than 10%, and no D_k or trace; samples that move, or
    whose subsampled chain fails, are flagged and excluded from
    acceptance-style gates.
    """
    b_arr = md.compute_b(traj.x, traj.lam)
    bt_arr = md.evolve_btilde(traj.s, b_arr)
    bs_arr = md.local_slope(traj.s, b_arr)
    n = len(traj.snapshots)
    checked = {p for p in (1, n // 2, n - 2) if 1 <= p <= n - 2}
    frames: List[SnapshotFrame] = []
    frozen: dict = {}
    for position, snap in enumerate(traj.snapshots):
        i = snap.station
        frames.append(_curvature_frame(position, snap, float(b_arr[i]),
                                       float(bs_arr[i]), float(bt_arr[i]),
                                       n_grid, frozen, position in checked))
    rescaled = [p for p, fr in enumerate(frames) if fr.failure is None]
    if not rescaled:
        return frames
    at, amplitudes = rescaled[0], (1.0, 1.0)
    for p in rescaled:
        W = _rescaled_W(traj.snapshots[p].state)
        if au.sandwich_floor(frames[p].btilde) < W.grid.span * 0.5:
            at, amplitudes = p, au.calibrate_A(W, frames[p].btilde)
            break
    frames[at] = replace(frames[at], calibrated={
        **frames[at].calibrated, "A_minus": amplitudes[0], "A_plus": amplitudes[1]})
    for p in rescaled:
        fr, state = frames[p], traj.snapshots[p].state
        W = _rescaled_W(state)
        # F is scale-invariant: the marched state's F and trust mask hold
        # on W node by node
        F, floor = vm.compute_F(state.W, float(state.W.values.max()))
        frames[p] = replace(fr, checks=fr.checks + (
            au.subsolution_audit(W, fr.s, fr.b, fr.btilde, *amplitudes),
            au.F_bound_audit(W, F, fr.s, fr.btilde, frozen["alpha"],
                             trusted=vm.trusted_F_mask(floor))))
    return frames


# ---------------------------------------------------------------------------
# The frozen calibration and the reports of the audited frames
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
    reports: List[au.AuditReport]


def run_audit_suite(frames: List[SnapshotFrame]) -> AuditSuite:
    """The calibration that ``build_frames`` froze, and the reports of
    every rescaled frame in snapshot order."""
    audited = [fr for fr in frames if fr.failure is None]
    if not audited:
        raise InconsistentLambdaError("no snapshot could be rescaled to wall units")
    constants = {}
    for fr in audited:
        constants.update(fr.calibrated)
    return AuditSuite(**constants, C_minus=au.C_MINUS,
                      reports=[r for fr in audited for r in fr.checks])


# ---------------------------------------------------------------------------
# Commutator identity on a marching pair
# ---------------------------------------------------------------------------


def commutator_identity_check(ctx: OperatorContext, snap: vm.Snapshot,
                              b: float) -> dict:
    """``commutator_gap`` on a snapshot's marching pair, where ``ctx`` is
    the snapshot's own wall-unit context, its frame's: this adds only the
    pair state's spline and its rescale onto ``ctx.grid``."""
    pair = snap.pair_state
    ctx2 = rescale_snapshot_profile(spline_interpolant(vm.from_von_mises(pair)),
                                    pair.lam, ctx.grid)
    return commutator_gap(ctx, ctx2, snap.state.s, pair.s, b)


def commutator_gap(ctx1: OperatorContext, ctx2: OperatorContext, s1: float,
                   s2: float, b: float) -> dict:
    """Finite-difference transport commutator against its closed form.

    On the wall-unit profiles ``ctx1`` and ``ctx2`` at s1 and s2, on one
    grid, with a fixed smooth test function T(Y) = Y**2 exp(-Y/4):

      lhs = d/ds[Linv T] + (b/2)(Linv(Y T') - Y d/dY Linv T) - b Linv T
      rhs = commutator source built from the diffusion field D.

    Returns the relative gap max|lhs - rhs| / max|rhs| on Y in
    [0.1, s**(1/4)], the two window maxima max|lhs| and max|rhs| that it
    compares, and the pinned tolerance 5 (ds/s + h_rel**2).
    """
    s_mid = 0.5 * (s1 + s2)
    grid = ctx1.grid
    U_mid = ctx1.U.with_values(0.5 * (ctx1.U.values + ctx2.U.values))
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
    max_lhs = float(np.max(np.abs(lhs[window])))
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
        "max_lhs": max_lhs,
        "max_rhs": scale,
    }
