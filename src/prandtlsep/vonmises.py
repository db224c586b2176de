"""Marching solver for the streamfunction form of the wall equation.

With phi = int_0^y u and w = u**2 the problem becomes the degenerate
parabolic equation

    w_x - sqrt(w) w_phiphi = -2,   w(x, 0) = 0,  w -> u_E(x)**2 far out,

with u_E(x) = sqrt(2 (x0 - x)).  The tangential coordinate x acts as time.
Steps are variable-step BDF2, implicit in the diffusion, with the
degenerate coefficient sqrt(w) Picard-iterated to convergence; the first
step, which has no previous station, is an iterated backward-Euler step.
Each accepted step must preserve monotonicity in phi, else it is retried
with half the step.  Every tridiagonal system goes straight to LAPACK
``gtsv`` (``solve_banded``); ``Grid.cached`` builds the grid-only data
(difference weights, spacings, quadrature weights) once per grid.

The wall shear lam(x) = u_y(x, 0) is the quantity everything else watches.
Reading it straight off the wall slope of w requires resolving phi well
below lam**3, which becomes hopeless near collapse; instead we use the
identity  w_phi = 2 lam + 2 y(phi) + 2 int_0^y (u_yy - 1), whose last term
is O(y**3) by the curvature bounds, and evaluate
lam ~ w_phi(phi_j)/2 - y(phi_j)  on a window y_j ~ lam**(1/3) where the
correction is negligible.  Only y on the node prefix that covers the window
is integrated: w is monotone, so y(phi_k) >= phi_k/sqrt(w_k) bounds where
the window ends.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional

import numpy as np
from scipy.linalg.lapack import dgtsv

from .errors import InvalidProfileError, InvalidStateError, StepFailureError
from .gridfields import Field, Grid, diff

_MONO_TOL_FACTOR = 1e-9

#: a step halved below DX_MIN fails the march
DX_MIN = 1e-13
#: the step is CFL_SAFETY times the slow-variable clock's lam**4 ds
CFL_SAFETY = 0.9
#: phi grid nodes phi_max * (i/(n-1))**PSI_POWER
PSI_POWER = 5.0


@dataclass(frozen=True)
class MarchConfig:
    dx_init: float = 1e-4
    lambda_stop: float = 1e-3
    ds_rel: float = 0.008          # target step in s, relative: ds = ds_rel * s
    n_psi: int = 2305
    source_scale: float = 1.0      # 1: adverse gradient; 0: flat outer flow
    snapshots_per_decade: float = 8.0
    max_steps: int = 200000

    def __post_init__(self):
        if not DX_MIN < self.dx_init:
            raise ValueError("dx_init must exceed DX_MIN")
        if self.lambda_stop <= 0.0:
            raise ValueError("lambda_stop must be positive")


@dataclass(frozen=True, eq=False)
class VMState:
    x: float
    psi_grid: Grid
    W: Field
    lam: float
    x0_pressure: float
    source_scale: float = 1.0

    def far_target(self, x: Optional[float] = None) -> float:
        x = self.x if x is None else x
        return 2.0 * (self.x0_pressure - self.source_scale * x)


# ---------------------------------------------------------------------------
# Wall-shear extraction
# ---------------------------------------------------------------------------


_GAUSS3_T = np.array([0.5 - np.sqrt(0.15), 0.5, 0.5 + np.sqrt(0.15)])
_GAUSS3_W = np.array([5.0 / 18.0, 8.0 / 18.0, 5.0 / 18.0])


def _normal_coordinate_weights(grid: Grid) -> tuple:
    """Grid-only part of ``_normal_coordinate``.

    Returns the t-cell widths, the 4-node stencil starts, the Lagrange
    weights of the Gauss points on those stencils, and the weights that
    extrapolate nodes 1-3 quadratically to t = 0.
    """
    t = np.sqrt(grid.nodes)
    n = len(t)
    h = np.diff(t)
    pts = t[:-1, None] + h[:, None] * _GAUSS3_T[None, :]
    lo = np.clip(np.arange(n - 1) - 1, 0, n - 4)
    lag = np.ones((n - 1, 3, 4))
    for j in range(4):
        xj = t[lo + j]
        for m in range(4):
            if m != j:
                xm = t[lo + m]
                lag[:, :, j] *= (pts - xm[:, None]) / (xj - xm)[:, None]
    t1, t2, t3 = t[1:4]
    wall = np.array([t2 * t3 / ((t1 - t2) * (t1 - t3)),
                     t1 * t3 / ((t2 - t1) * (t2 - t3)),
                     t1 * t2 / ((t3 - t1) * (t3 - t2))])
    return h, lo, lag, wall


def _normal_coordinate(grid: Grid, w: np.ndarray,
                       m: Optional[int] = None) -> np.ndarray:
    """y(phi_i) = int_0^phi_i dphi/sqrt(w), accurate through the wall layer.

    In t = sqrt(phi), y = int 2 dt/sqrt(g) with g = w/phi = 2 lam + O(t):
    the integrand is smooth down to the wall, so each cell takes 3-point
    Gauss on the local cubic interpolant of g in t, and the wall limit g[0]
    is the quadratic extrapolation from nodes 1-3.  (In phi itself, w = 2 lam
    phi + O(phi**(3/2)) has no cubic fit at the wall, and the quadrature
    loses five digits of y there.)  A cell where the interpolant breaks down
    keeps the closed form for g linear in t.

    With ``m`` (4 <= m < len(grid)), y on the first m nodes only, the same
    values bit for bit: the last cell's 4-node stencil reads g up to node m.
    """
    h, lo, lag, wall = grid.cached("normal_coordinate",
                                    _normal_coordinate_weights, grid)
    if m is not None:
        w = w[:m + 1]
        h, lo, lag = h[:m - 1], lo[:m - 1], lag[:m - 1]
    cells = len(h)
    g = np.empty_like(w)
    g[1:] = w[1:] / grid.nodes[1:len(w)]
    g[0] = wall @ g[1:4]
    sq = np.sqrt(np.maximum(g, 0.0))
    seg = 4.0 * h / np.maximum(sq[1:cells + 1] + sq[:cells], 1e-300)
    stencil = g[lo[:, None] + np.arange(4)[None, :]]
    g_pts = np.einsum("iqj,ij->iq", lag, stencil)
    with np.errstate(invalid="ignore"):
        gauss = h * ((2.0 / np.sqrt(g_pts)) @ _GAUSS3_W)
    ok = np.isfinite(gauss) & (gauss <= 4.0 * seg)
    seg = np.where(ok, gauss, seg)
    return np.concatenate([[0.0], np.cumsum(seg)])


def _wall_restore(phi: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Replace a leading block of nonpositive cells, among the first 16, by
    the linear wall law.

    The march clamps roundoff-level negatives on the deepest cells of the
    clustered grid to 0; their physical values follow w ~ (w_k/phi_k) phi.
    """
    max_cells = 16
    nonpos = np.nonzero(w[1 : max_cells + 1] <= 0.0)[0]
    if len(nonpos) == 0:
        return w
    kp = int(nonpos[-1]) + 2
    out = w.copy()
    out[1:kp] = w[kp] * phi[1:kp] / phi[kp]
    return out


def wall_shear(state: VMState) -> float:
    """Corrected wall-slope estimate of lam from a streamfunction profile."""
    grid = state.psi_grid
    phi = grid.nodes
    w = _wall_restore(phi, state.W.values)
    guess = float(state.lam if state.lam else 0.05)
    sqrt_w = np.sqrt(w)

    def normal_coordinate(y_cap: float) -> np.ndarray:
        # y on a node prefix that ends past y_cap.  For monotone w,
        # y(phi_k) >= phi_k/sqrt(w_k), so the prefix through the first node
        # k where that bound passes y_cap suffices.  It is rounded up to a
        # multiple of 64 nodes: per-step temporaries of a few sizes keep
        # the heap from fragmenting (prefixes sized node by node raised the
        # peak RSS of a run by 0.4 MB).  Where no node passes, or the
        # prefix falls short, y on the whole grid.
        k = int(np.argmax(phi > y_cap * sqrt_w))
        m = (k // 64 + 1) * 64
        if k > 0 and m < len(phi):
            y = _normal_coordinate(grid, w, m)
            if y[-1] > y_cap:
                return y
        return _normal_coordinate(grid, w)

    def estimate(g: float):
        y_cap = 0.25 * g ** (1.0 / 3.0)
        y = normal_coordinate(y_cap)
        window = (y >= 0.25 * y_cap) & (y <= y_cap)
        idx = np.nonzero(window)[0]
        idx = idx[(idx > 0) & (idx < len(phi) - 1)]
        if len(idx) < 4:
            return None
        hm = phi[idx] - phi[idx - 1]
        hp = phi[idx + 1] - phi[idx]
        w_phi = (w[idx + 1] * hm**2 - w[idx - 1] * hp**2
                 + w[idx] * (hp**2 - hm**2)) / (hm * hp * (hm + hp))
        samples = 0.5 * w_phi - y[idx]
        # the curvature-defect bias grows like y**3: extrapolate it away
        cols = np.stack([np.ones_like(idx, dtype=float), y[idx] ** 3], axis=1)
        sol, *_ = np.linalg.lstsq(cols, samples, rcond=None)
        est_ = float(sol[0])
        if not 0.0 < est_ < 20.0 * g:
            est_ = float(np.median(samples))
        return est_

    est = estimate(guess)
    if est is None:
        raise InvalidStateError("wall window under-resolved in phi")
    if est > 0.0 and abs(est - guess) > 0.05 * guess:
        # re-center the window on the new scale; keep the first estimate if
        # the refined window cannot be populated
        refined = estimate(est)
        if refined is not None and refined > 0.0:
            est = refined
    return est


# ---------------------------------------------------------------------------
# Transforms
# ---------------------------------------------------------------------------


def default_psi_grid(phi_max: float, n: int = 1153) -> Grid:
    return Grid.power_clustered(n, phi_max, PSI_POWER)


def _streamfunction(y: np.ndarray, u: np.ndarray, du: np.ndarray) -> np.ndarray:
    """phi(y_i) = int_0^y_i u, exact for the cubic Hermite interpolant of u.

    Per cell this is the end-corrected trapezoid rule.
    """
    h = np.diff(y)
    inc = 0.5 * h * (u[:-1] + u[1:]) + h * h / 12.0 * (du[:-1] - du[1:])
    if np.any(inc <= 0.0):
        raise InvalidProfileError("streamfunction is degenerate (u vanishes inside)")
    return np.concatenate([[0.0], np.cumsum(inc)])


def _u_at_streamfunction(y: np.ndarray, u: np.ndarray, du: np.ndarray,
                         phi: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """u at the points y where phi(y) hits the targets, on cubic Hermite u.

    Newton in each cell's local coordinate on the quartic phi of
    ``_streamfunction``.  Working in y keeps everything smooth: as a function
    of phi, u = sqrt(w) has a square-root singularity at the wall.
    """
    i = np.clip(np.searchsorted(phi, targets, side="right") - 1, 0, len(y) - 2)
    h = y[i + 1] - y[i]
    u0, u1, d0, d1 = u[i], u[i + 1], du[i] * h, du[i + 1] * h
    rem = targets - phi[i]

    def u_at(th):
        th2, th3 = th * th, th**3
        return (u0 * (1.0 - 3.0 * th2 + 2.0 * th3) + d0 * (th - 2.0 * th2 + th3)
                + u1 * (3.0 * th2 - 2.0 * th3) + d1 * (th3 - th2))

    th = np.clip(rem / (phi[i + 1] - phi[i]), 0.0, 1.0)
    for _ in range(50):
        th2, th3, th4 = th * th, th**3, th**4
        prim = h * (u0 * (th - th3 + 0.5 * th4)
                    + d0 * (0.5 * th2 - 2.0 * th3 / 3.0 + 0.25 * th4)
                    + u1 * (th3 - 0.5 * th4) + d1 * (0.25 * th4 - th3 / 3.0))
        step = (prim - rem) / np.maximum(h * u_at(th), 1e-300)
        th_new = np.clip(th - step, 0.0, 1.0)
        done = np.max(np.abs(th_new - th)) <= 1e-15
        th = th_new
        if done:
            break
    return u_at(th)


def to_von_mises(u: Field, x0_pressure: float = 1.0, n_psi: int = 1153,
                 source_scale: float = 1.0) -> VMState:
    """Map a physical profile u(y) to the streamfunction state at x = 0.

    w = u**2 is evaluated at the y of each phi node, not interpolated in phi,
    where it has a phi**(3/2) term at the wall.
    """
    if abs(u.values[0]) > 1e-12:
        raise InvalidProfileError("u must vanish at the wall")
    if np.any(np.diff(u.values) < 0.0):
        raise InvalidProfileError("u must be non-decreasing in y")
    y, u_vals = u.grid.nodes, u.values
    du = diff(u, 1).values
    phi = _streamfunction(y, u_vals, du)
    grid = default_psi_grid(float(phi[-1]), n_psi)
    w = _u_at_streamfunction(y, u_vals, du, phi, grid.nodes) ** 2
    w[0] = 0.0
    w = np.maximum.accumulate(np.maximum(w, 0.0))  # clip cubic overshoots
    near = (y > 0) & (y <= 0.02 * u.grid.span)
    lam0 = float(np.polyfit(y[near], u_vals[near] - 0.5 * y[near] ** 2, 1)[0]) \
        if np.count_nonzero(near) >= 3 else float(u_vals[1] / y[1])
    state = VMState(x=0.0, psi_grid=grid, W=Field(grid, w), lam=lam0,
                    x0_pressure=x0_pressure, source_scale=source_scale)
    lam = wall_shear(state)
    return replace(state, lam=lam)


def from_von_mises(state: VMState) -> Field:
    """Invert the streamfunction map: u(y) = sqrt(w) on y = int dphi/sqrt(w)."""
    phi = state.psi_grid.nodes
    w = _wall_restore(phi, state.W.values)
    if np.any(w[1:] <= 0.0):
        raise InvalidStateError("w must be positive away from the wall")
    y = _normal_coordinate(state.psi_grid, w)
    return Field(Grid(y, "vm-inverse"), np.sqrt(w))


def _spacings(grid: Grid) -> tuple:
    """(hm, hp, np.diff(nodes)): the left and right spacings of the interior
    nodes, as views of the node spacings, which are cached on the grid."""
    dphi = grid.cached("spacings", np.diff, grid.nodes)
    return dphi[:-1], dphi[1:], dphi


def compute_F(W: Field) -> Field:
    """Diffusion balance F = sqrt(w) w_phiphi - 2 on W's streamfunction grid.

    The balance is scale-invariant: on the wall-unit rescaling
    (phi / lam**3, w / lam**4) of a state it is the same F node by node.
    """
    w = W.values
    phi = W.grid.nodes
    f = np.empty_like(w)
    hm = phi[1:-1] - phi[:-2]
    hp = phi[2:] - phi[1:-1]
    d2 = 2.0 * (w[:-2] * hp - w[1:-1] * (hm + hp) + w[2:] * hm) / (hm * hp * (hm + hp))
    f[1:-1] = np.sqrt(np.maximum(w[1:-1], 0.0)) * d2 - 2.0
    f[0] = 0.0            # exact wall limit: sqrt(w) w_phiphi -> 2 u_yy(0) = 2
    f[-1] = f[-2]
    return W.with_values(f)


def f_roundoff_floor(state: VMState) -> np.ndarray:
    """Roundoff bound on the F diagnostic per node.

    The marching solve determines w to absolute accuracy ~ eps * max(w);
    propagated through the second difference this floor blows up on the
    first cells of the clustered grid, where F is therefore undefined in
    float arithmetic.  Audits restrict to nodes where this bound is small.
    """
    w = state.W.values
    hm, hp, _ = _spacings(state.psi_grid)
    eps_w = 8.0 * np.finfo(float).eps * float(np.max(w))
    out = np.full_like(w, np.inf)
    out[1:-1] = np.sqrt(np.maximum(w[1:-1], 0.0)) * 4.0 * eps_w / (hm * hp)
    out[0] = 0.0
    return out


#: F is trusted where its roundoff bound is at most this
F_TRUST_FLOOR = 5e-4


def trusted_F_mask(state: VMState) -> np.ndarray:
    """Interior nodes where the F diagnostic is numerically determined."""
    mask = f_roundoff_floor(state) <= F_TRUST_FLOOR
    mask[0] = False
    mask[-1] = False
    return mask


# ---------------------------------------------------------------------------
# Marching
# ---------------------------------------------------------------------------


def _d2_weights(grid: Grid) -> tuple:
    """(a, b, c): weights of w_{i-1}, w_i, w_{i+1} in the second difference
    at the interior nodes."""
    hm, hp, _ = _spacings(grid)
    a = 2.0 / (hm * (hm + hp))      # weight of w_{i-1}
    c = 2.0 / (hp * (hm + hp))      # weight of w_{i+1}
    return a, -(a + c), c


def solve_banded(ab: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve the tridiagonal system ``ab`` x = rhs by LAPACK ``gtsv``.

    ``ab`` holds the three diagonals in the (1, 1) form of
    ``scipy.linalg.solve_banded``, and the result is the same bit for bit:
    the same ``gtsv`` call on the same diagonals, without the wrapper's
    per-call argument handling.  A non-finite entry or a singular matrix
    fails the step.
    """
    if not (np.isfinite(ab).all() and np.isfinite(rhs).all()):
        raise StepFailureError("tridiagonal solve: non-finite entry")
    *_, x, info = dgtsv(ab[2, :-1], ab[1], ab[0, 1:], rhs)
    if info != 0:
        raise StepFailureError(f"tridiagonal solve: singular matrix (gtsv info {info})")
    return x


def _resolvent_solve(grid: Grid, rhs: np.ndarray, coeff: np.ndarray,
                     tau: float, far_value: float) -> np.ndarray:
    """Solve (I - tau * coeff * D2) w = rhs with Dirichlet ends.

    Each row is divided by its diagonal first.  Raw, the diagonal runs from
    ~1e22 on the first cells of the clustered grid to ~1 far out, and
    partial pivoting leaves absolute errors of 1e-16 (n_psi = 2305) to 1e-14
    (n_psi = 9217) on every row, far above w ~ 1e-20 on the first cells:
    the marched w/phi there came out wrong by factors 0.5 to 1e6 over the
    first 10-30 nodes.  Equilibrated, the elimination error stays relative
    to each row's own scale.
    """
    n = len(grid)
    a, b, c = grid.cached("d2_weights", _d2_weights, grid)
    r = tau * coeff[1:-1]
    diag = 1.0 - r * b
    ab = np.zeros((3, n))
    ab[1] = 1.0
    ab[0, 2:] = -r * c / diag       # superdiagonal (column-indexed)
    ab[2, :-2] = -r * a / diag      # subdiagonal
    rhs = rhs.copy()
    rhs[1:-1] /= diag
    rhs[0] = 0.0
    rhs[-1] = far_value
    out = solve_banded(ab, rhs)
    out[0] = 0.0          # pivoting leaves eps-level residue on Dirichlet rows
    out[-1] = far_value
    return out


def _bdf2_solve(grid: Grid, w_n: np.ndarray, prev: tuple | None,
                h: float, far_value: float, source: float,
                scale: float) -> np.ndarray:
    """Variable-step BDF2 step with Picard-iterated degenerate coefficient.

    Second order in the step, L-stable, and structurally monotone (M-matrix
    resolvent); removes the O(dx) quasi-steady bias that a backward-Euler
    or frozen-coefficient step leaves in the stiff wall zone.  Without
    ``prev`` (w_previous, h_previous), on the first step, the coefficients
    are those of an infinitely long previous step: the start-up is a
    backward-Euler step, with up to 13 Picard sweeps instead of 6.
    """
    w_prev, h_prev = prev if prev is not None else (w_n, np.inf)
    max_picard = 6 if prev is not None else 13
    om = h / h_prev
    alpha = (1.0 + 2.0 * om) / (1.0 + om)
    beta = (1.0 + om)
    gamma = om * om / (1.0 + om)
    rhs = (beta * w_n - gamma * w_prev - 2.0 * h * source) / alpha
    tau = h / alpha
    w_new = w_n
    for _ in range(max_picard):
        # restore the wall law before forming the degenerate coefficient:
        # a clamped noise-floor cell must not decouple its row
        coeff = np.sqrt(_wall_restore(grid.nodes, np.maximum(w_new, 0.0)))
        w_next = _resolvent_solve(grid, rhs, coeff, tau, far_value)
        delta = float(np.max(np.abs(w_next - w_new)))
        w_new = w_next
        if delta <= 1e-12 * scale:
            break
    return w_new


def march_step(state: VMState, dx: float, cfg: MarchConfig,
               prev: tuple | None = None) -> VMState:
    """Advance one station; retries with halved dx on monotonicity loss.

    ``prev`` (w_previous, h_previous) feeds the BDF2 step; without it
    (the first step) the step is the iterated backward-Euler start-up.
    """
    w_old = state.W.values
    scale = float(np.max(w_old))
    while True:
        far = state.far_target(state.x + dx)
        if far <= 0.0:
            raise StepFailureError("pressure horizon reached before separation")
        w_new = _bdf2_solve(state.psi_grid, w_old, prev, dx, far,
                            cfg.source_scale, scale)
        # clamp roundoff-level negatives on the first cells to the physical
        # w >= 0 and judge monotonicity with a roundoff-relative tolerance
        w_new = np.maximum(w_new, 0.0)
        mono_ok = np.min(np.diff(w_new)) >= -_MONO_TOL_FACTOR * scale
        nonpos = np.nonzero(w_new[1:] <= 0.0)[0]
        floor_ok = len(nonpos) == 0 or (nonpos[-1] < 12 and len(nonpos) == nonpos[-1] + 1)
        if mono_ok and floor_ok:
            break
        dx *= 0.5
        if dx < DX_MIN:
            raise StepFailureError("step size underflow (separation reached?)")
    state_new = VMState(x=state.x + dx, psi_grid=state.psi_grid,
                        W=Field(state.psi_grid, w_new), lam=state.lam,
                        x0_pressure=state.x0_pressure,
                        source_scale=cfg.source_scale)
    lam = wall_shear(state_new)
    return replace(state_new, lam=lam)


@dataclass(frozen=True)
class Snapshot:
    """A marching pair: a snapshot state and the state one accepted step
    later, at slow times s and pair_s."""

    index: int
    s: float
    state: VMState
    pair_state: VMState
    pair_s: float

    @property
    def x(self) -> float:
        return self.state.x

    @property
    def lam(self) -> float:
        return self.state.lam


@dataclass
class Trajectory:
    x: np.ndarray
    lam: np.ndarray
    s: np.ndarray
    dx: np.ndarray
    F_max: np.ndarray
    mono_min: np.ndarray
    snapshots: List[Snapshot]
    psi_grid: Grid             # the one phi grid of every marched state
    s0: float
    completed: bool
    failure: str = ""

    @property
    def x_end(self) -> float:
        return float(self.x[-1])


def solve_until_separation(data, cfg: MarchConfig) -> Trajectory:
    """March from inflow data until the wall shear hits lambda_stop.

    ``data`` is an InitialData (physical profile).  The tangential step
    follows dx = cfl * lam**4 * (ds_rel * s), mirroring the slow-variable
    clock, and the full streamfunction state is snapshotted on a uniform
    schedule in log(lam), together with the state one step later (used by
    the finite-difference commutator identity).
    """
    state = to_von_mises(data.u0, x0_pressure=data.x0_pressure,
                         n_psi=cfg.n_psi, source_scale=cfg.source_scale)
    state = replace(state, lam=float(data.lambda0))
    s = data.s0
    xs, lams, ss, dxs, fmaxs, monos = [], [], [], [], [], []
    snapshots: List[Snapshot] = []
    decade_step = 10.0 ** (-1.0 / cfg.snapshots_per_decade)
    completed, failure = False, ""

    def record(st: VMState, dx_val: float) -> None:
        F = compute_F(st.W).values
        mask = trusted_F_mask(st)
        xs.append(st.x)
        lams.append(st.lam)
        ss.append(s)
        dxs.append(dx_val)
        fmaxs.append(float(np.max(F[mask])) if mask.any() else np.nan)
        dphi = _spacings(st.psi_grid)[2]
        monos.append(float(np.min(np.diff(st.W.values) / dphi)))

    record(state, 0.0)
    # (state, s) of the snapshot that waits for its pair, the next state
    pending: Optional[tuple] = (state, s)
    prev = None
    lam_next_snap = data.lambda0 * decade_step
    for step in range(cfg.max_steps):
        lam = state.lam
        if lam <= cfg.lambda_stop:
            completed = True
            break
        dx = min(cfg.dx_init, CFL_SAFETY * lam**4 * cfg.ds_rel * s)
        dx = max(dx, DX_MIN * 10.0)
        try:
            new_state = march_step(state, dx, cfg, prev=prev)
        except (StepFailureError, InvalidStateError) as exc:
            failure = str(exc)
            break
        dx_actual = new_state.x - state.x
        if new_state.lam <= 0.0:
            failure = ("wall shear no longer resolvable on this grid "
                       "(separation reached before lambda_stop)")
            break
        prev = (state.W.values, dx_actual)
        s = s + dx_actual / lam**4
        state = new_state
        record(state, dx_actual)
        if pending is not None:
            snap_state, snap_s = pending
            snapshots.append(Snapshot(index=len(snapshots), s=snap_s,
                                      state=snap_state, pair_state=state,
                                      pair_s=s))
            pending = None
        if state.lam <= lam_next_snap and state.lam > cfg.lambda_stop:
            pending = (state, s)
            lam_next_snap = state.lam * decade_step
    else:
        failure = "max_steps exhausted"

    # a snapshot still pending here never got its pair and is not kept
    return Trajectory(
        x=np.array(xs), lam=np.array(lams), s=np.array(ss), dx=np.array(dxs),
        F_max=np.array(fmaxs), mono_min=np.array(monos),
        snapshots=snapshots, psi_grid=state.psi_grid, s0=data.s0,
        completed=completed, failure=failure,
    )
