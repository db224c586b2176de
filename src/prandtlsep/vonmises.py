"""Marching solver for the streamfunction form of the wall equation.

With phi = int_0^y u and w = u**2 the problem becomes the degenerate
parabolic equation

    w_x - sqrt(w) w_phiphi = -2 q,   w(x, 0) = 0,  w -> u_E(x)**2 far out,

with q and the far value from the outer flow's one forcing; the default,
``adverse_outer_flow``, is u_E(x) = sqrt(2 (x0 - x)): q = 1, and each step
carries u_E**2 from the old edge value by -2 dx.  x acts as time.
Steps are variable-step BDF2, implicit in the diffusion, with the
degenerate coefficient sqrt(w) Picard-iterated to convergence; the first
step, which has no previous station, is an iterated backward-Euler step.
The second step's Picard iteration starts from the linear extrapolation of
the last two stations, and every later one from the quadratic through the
last three, which is one order closer to the fixed point: on the default
run a step takes 1.20 solves, 2 through the inflow's transient and 1
after it.  That start is an order-2 predictor of the step, so its gap to
the converged state also estimates the step's local error.  The slow time
s, ds/dx = lam**-4, advances by the trapezoid rule on each step's two
shears, second order like the step.  Each trajectory row records the work
and the error estimate of the step that reached it, and a run that stops
early keeps its failed step's work.
Each accepted step must preserve monotonicity in phi, else it is retried
with half the step.  Every tridiagonal system goes straight to LAPACK
``gtsv`` (``solve_banded``).  The band, the right-hand side, the Picard
start and each sweep's temporaries are work arrays that a march allocates
once (``_march_buffers``) and every step refills in place; each solve
returns a new array, so no kept station is one of them.  Each fact about
an accepted state is computed once: the step that accepts it takes its max
w for the monotonicity test and hands it on, to the state's trajectory row
and to the next step's Picard scale; and it counts the clamped cells at
the wall for the floor test, from which the w that the wall-shear read
gets has those cells on the wall law, with no second test.
The row takes one pass, as the audit does: one sqrt(w) serves F and its
roundoff floor (``compute_F``).  Every stencil weight comes from
``gridfields.fd_weights``, built once per grid by ``Grid.cached``; the
resolvent solve, the wall-shear read and the normal coordinate each fetch
the grid-only data they read in one lookup.

The wall shear lam(x) = u_y(x, 0) is the quantity everything else watches.
Reading it straight off the wall slope of w requires resolving phi well
below lam**3, which becomes hopeless near collapse; instead we use the
identity  w_phi = 2 lam + 2 y(phi) + 2 int_0^y (u_yy - 1), whose last term
is O(y**3) by the curvature bounds, and evaluate
lam ~ w_phi(phi_j)/2 - y(phi_j)  on a window y_j ~ lam**(1/3) where the
correction is negligible.  Only y on the node prefix that covers the window
is integrated: at the wall y = 2 phi/sqrt(w), which sizes the prefix,
compared squared so that no sqrt(w) is taken on the whole grid, and a
prefix that falls short of the window is replaced by the whole grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from . import gridfields  # fd_weights, lapack: rebinding either reaches here
from .errors import (InvalidProfileError, InvalidStateError, SingularInputError,
                     StepFailureError)
from .gridfields import Field, Grid, diff, lstsq_powers

#: a step's w may fall from one node to the next by at most
#: MONO_TOL_FACTOR * its own max (roundoff): the march's monotonicity test,
#: which ``cli.load_trajectory`` applies again to every row of snapshots.npy
MONO_TOL_FACTOR = 1e-9

#: a step halved below DX_MIN fails the march; none is longer than DX_MAX
DX_MIN = 1e-13
DX_MAX = 1e-4
#: a march stops after MAX_STEPS steps ("max_steps exhausted")
MAX_STEPS = 200000
#: the step is CFL_SAFETY times the slow-variable clock's lam**4 ds
CFL_SAFETY = 0.9
#: phi grid nodes phi_max * (i/(n-1))**PSI_POWER
PSI_POWER = 5.0
#: a Picard iteration stops once a sweep moves w by at most PICARD_TOL * max w
PICARD_TOL = 1e-12
#: Picard sweeps allowed in a BDF2 step and in the backward-Euler start-up
PICARD_SWEEPS = 6
STARTUP_SWEEPS = 13
#: a step may clamp a leading block of at most WALL_FLOOR_CELLS cells to w = 0;
#: ``_wall_restore`` puts the wall law back, ``cli.load_trajectory`` checks it
WALL_FLOOR_CELLS = 12


@dataclass(frozen=True, eq=False)
class VMState:
    """A streamfunction state at station x and slow time s, on W's phi grid."""

    x: float
    s: float
    W: Field
    lam: float


# ---------------------------------------------------------------------------
# Wall-shear extraction
# ---------------------------------------------------------------------------


_GAUSS3_T = np.array([0.5 - np.sqrt(0.15), 0.5, 0.5 + np.sqrt(0.15)])
_GAUSS3_W = np.array([5.0 / 18.0, 8.0 / 18.0, 5.0 / 18.0])


def _normal_coordinate_weights(grid: Grid) -> tuple:
    """Grid-only part of ``_normal_coordinate``.

    Returns the t-cell widths, the node indices of each cell's 4-node
    stencil, the interpolation weights of the cell's Gauss points on it, and
    the weights that extrapolate nodes 1-3 quadratically to t = 0.
    """
    t = np.sqrt(grid.nodes)
    h = np.diff(t)
    pts = t[:-1, None] + h[:, None] * _GAUSS3_T[None, :]
    lo = np.clip(np.arange(len(t) - 1) - 1, 0, len(t) - 4)
    stencils = lo[:, None] + np.arange(4)
    lag = gridfields.fd_weights(t[stencils][:, None].repeat(3, axis=1), pts, 0)
    wall = gridfields.fd_weights(t[1:4], 0.0, 0)
    return h, stencils, lag, wall


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
    h, stencils, lag, wall = grid.cached("normal_coordinate",
                                          _normal_coordinate_weights, grid)
    if m is not None:
        w = w[:m + 1]
        h, stencils, lag = h[:m - 1], stencils[:m - 1], lag[:m - 1]
    cells = len(h)
    g = np.empty(len(w))
    np.divide(w[1:], grid.nodes[1:len(w)], out=g[1:])
    g[0] = wall @ g[1:4]
    sq = np.sqrt(np.maximum(g, 0.0))
    seg = 4.0 * h / np.maximum(sq[1:cells + 1] + sq[:cells], 1e-300)
    g_pts = np.einsum("iqj,ij->iq", lag, g[stencils])
    with np.errstate(invalid="ignore"):
        gauss = h * ((2.0 / np.sqrt(g_pts)) @ _GAUSS3_W)
    ok = np.isfinite(gauss) & (gauss <= 4.0 * seg)
    y = np.empty(cells + 1)
    y[0] = 0.0
    np.where(ok, gauss, seg).cumsum(out=y[1:])
    return y


def _wall_restore(phi: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Replace a leading block of nonpositive cells, among the first
    ``WALL_FLOOR_CELLS``, by the linear wall law.

    The march clamps roundoff-level negatives on the deepest cells of the
    clustered grid to 0; their physical values follow w ~ (w_k/phi_k) phi.
    """
    nonpos = (w[1 : WALL_FLOOR_CELLS + 1] <= 0.0).nonzero()[0]
    if len(nonpos) == 0:
        return w
    return _wall_law(phi, w, int(nonpos[-1]) + 1)


def _wall_law(phi: np.ndarray, w: np.ndarray, cells: int) -> np.ndarray:
    """A copy of w whose first ``cells`` cells after the wall follow the
    linear wall law through the next node."""
    kp = cells + 1
    out = w.copy()
    out[1:kp] = w[kp] * phi[1:kp] / phi[kp]
    return out


def _wall_shear_weights(grid: Grid) -> tuple:
    """Grid-only part of ``wall_shear``: phi**2, which sizes the y prefix,
    and the rows (a, b, c) of the first difference's three-point weights."""
    return (np.square(grid.nodes), *_three_point_weights(grid, 1))


def wall_shear(grid: Grid, w: np.ndarray, guess: float) -> float:
    """Corrected wall-slope estimate of lam from the streamfunction profile
    w on ``grid``, its fit window first centred on the shear ``guess``.

    w must hold the wall law on its clamped cells (``_wall_restore``): the
    march hands on the w whose head it has already judged.
    """
    phi_sq, a, b, c = grid.cached("wall_shear", _wall_shear_weights, grid)
    n = len(w)

    def estimate(g: float):
        y_cap = 0.25 * g ** (1.0 / 3.0)
        # y on a node prefix that ends past y_cap.  Where w ~ 2 lam phi,
        # y = 2 phi/sqrt(w), so the prefix runs through the first node k
        # where that estimate passes y_cap, compared squared to skip a
        # sqrt(w): phi**2 > (y_cap**2/4) w.  It is rounded up to a multiple
        # of 64 nodes: per-step temporaries of a few sizes keep the heap
        # from fragmenting (prefixes sized node by node raised the peak RSS
        # of a run by 0.4 MB).  Where no node passes, or the prefix falls
        # short, y on the whole grid; y on any prefix is y on the whole grid
        # bit for bit, so the prefix sets the work and not the result.
        k = int((phi_sq > 0.25 * y_cap * y_cap * w).argmax())
        m = (k // 64 + 1) * 64
        y = None
        if k > 0 and m < n:
            y = _normal_coordinate(grid, w, m)
        if y is None or not y[-1] > y_cap:
            y = _normal_coordinate(grid, w)
        # the window y in [y_cap/4, y_cap] of the increasing y, interior nodes
        lo = max(int(y.searchsorted(0.25 * y_cap, side="left")), 1)
        hi = min(int(y.searchsorted(y_cap, side="right")), n - 1)
        if hi - lo < 4:
            return None
        i = slice(lo - 1, hi - 1)
        w_phi = a[i] * w[lo - 1:hi - 1] + b[i] * w[lo:hi] + c[i] * w[lo + 1:hi + 1]
        y_win = y[lo:hi]
        samples = 0.5 * w_phi - y_win
        # the curvature-defect bias grows like y**3: extrapolate it away.  A
        # window the fit cannot use is under-resolved, like one of too few nodes
        try:
            est_ = float(lstsq_powers(y_win, samples, (0, 3))[0])
        except SingularInputError:
            return None
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


def default_psi_grid(phi_max: float, n: int) -> Grid:
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


def to_von_mises(u: Field, lam: float, s: float, n_psi: int) -> VMState:
    """Map a physical profile u(y) of wall shear ``lam`` to the streamfunction
    state at x = 0 and slow time ``s``.

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
    return VMState(x=0.0, s=s, W=Field(grid, w), lam=lam)


def from_von_mises(state: VMState) -> Field:
    """Invert the streamfunction map: u(y) = sqrt(w) on y = int dphi/sqrt(w)."""
    grid = state.W.grid
    w = _wall_restore(grid.nodes, state.W.values)
    if np.any(w[1:] <= 0.0):
        raise InvalidStateError("w must be positive away from the wall")
    y = _normal_coordinate(grid, w)
    if not np.all(np.diff(y) > 0.0):
        raise InvalidStateError("y(phi) = int dphi/sqrt(w) does not increase")
    return Field(Grid(y), np.sqrt(w))


def _build_three_point(grid: Grid, order: int) -> np.ndarray:
    phi = grid.nodes
    stencils = np.stack([phi[:-2], phi[1:-1], phi[2:]], axis=-1)
    return gridfields.fd_weights(stencils, phi[1:-1], order).T.copy()


def _three_point_weights(grid: Grid, order: int) -> np.ndarray:
    """Rows (a, b, c): the weights of w_{i-1}, w_i and w_{i+1} in the
    ``order``-th derivative at the interior nodes, built once per grid."""
    return grid.cached(("three_point", order), _build_three_point, grid, order)


def _resolvent_weights(grid: Grid) -> tuple:
    """Rows (-a, b, -c) of the second difference's three-point weights:
    the resolvent's off-diagonals read the negated outer weights."""
    a, b, c = _three_point_weights(grid, 2)
    return -a, b, -c


def _d2_gain(grid: Grid) -> np.ndarray:
    """Sum of the second difference's weight magnitudes at the interior nodes."""
    return np.abs(_three_point_weights(grid, 2)).sum(axis=0)


def compute_F(W: Field, w_max: float) -> tuple:
    """(F, its roundoff floor) on every node of W, whose largest value is
    ``w_max``: both read one sqrt(w), and each formula is written here only.

    F = sqrt(w) w_phiphi - 2 is scale-invariant: on the wall-unit rescaling
    (phi / lam**3, w / lam**4) of a state it is the same F node by node.
    The floor, sqrt(w) 8 eps max(w) times the sum of the second
    difference's weight magnitudes, bounds F's roundoff, since the march
    determines w to ~ eps max(w); it is large on the first cells of the
    clustered grid (``trusted_F_mask``).  At the wall F takes its exact
    limit 0 (sqrt(w) w_phiphi -> 2 u_yy(0) = 2) and the floor 0; at the
    last node F repeats its neighbour and the floor is inf.
    """
    w = W.values
    sq = np.sqrt(np.maximum(w[1:-1], 0.0))
    a, b, c = _three_point_weights(W.grid, 2)
    F = np.empty_like(w)
    np.subtract(sq * (a * w[:-2] + b * w[1:-1] + c * w[2:]), 2.0, out=F[1:-1])
    F[0] = 0.0
    F[-1] = F[-2]
    gain = W.grid.cached("d2_gain", _d2_gain, W.grid)
    floor = np.empty_like(w)
    np.multiply(sq * (8.0 * gridfields._EPS * w_max), gain, out=floor[1:-1])
    floor[0] = 0.0
    floor[-1] = np.inf
    return F, floor


#: F is trusted where its roundoff bound is at most this
F_TRUST_FLOOR = 5e-4


def trusted_F_mask(floor: np.ndarray) -> np.ndarray:
    """Interior nodes where F is numerically determined: its roundoff
    ``floor`` (from ``compute_F``) is at most F_TRUST_FLOOR."""
    mask = floor <= F_TRUST_FLOOR
    mask[0] = False
    mask[-1] = False
    return mask


# ---------------------------------------------------------------------------
# Marching
# ---------------------------------------------------------------------------


def solve_banded(ab: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve the tridiagonal system ``ab`` x = rhs by LAPACK ``gtsv``.

    ``ab`` holds the three diagonals in the (1, 1) form of
    ``scipy.linalg.solve_banded``, and the result is the same bit for bit:
    the same ``gtsv`` call on the same diagonals, without the wrapper's
    per-call argument handling.  ``gtsv`` works on copies, so ``ab`` and
    ``rhs`` are left as they are and the result is a new array.  A
    non-finite right-hand side or a singular matrix fails the step; the
    band's finiteness is the caller's to check (``_resolvent_solve``
    checks the diagonal it fills, which bounds the rest).
    """
    if not np.isfinite(rhs).all():
        raise StepFailureError("tridiagonal solve: non-finite entry")
    *_, x, info = gridfields.lapack("dgtsv")(ab[2, :-1], ab[1], ab[0, 1:], rhs)
    if info != 0:
        raise StepFailureError(f"tridiagonal solve: singular matrix (gtsv info {info})")
    return x


def _march_buffers(n: int) -> tuple:
    """The work arrays of a march's steps on an n-node grid, allocated once
    and overwritten by every step: (band, scaled_rhs, r, diag) of
    ``_resolvent_solve``, then the BDF2 right-hand side, the Picard start
    and two n-node temporaries of ``_bdf2_solve`` and ``march_step``.  The
    band's unit diagonal and its zero Dirichlet off-diagonal entries are
    set here once; the solves fill the rest.  No station is ever one of
    these: each solve returns a new array."""
    band = np.zeros((3, n))
    band[1] = 1.0
    return (band, np.empty(n), np.empty(n - 2), np.empty(n - 2),
            np.empty(n), np.empty(n), np.empty(n), np.empty(n))


def _resolvent_solve(grid: Grid, rhs: np.ndarray, coeff: np.ndarray,
                     tau: float, far_value: float, buffers: tuple) -> np.ndarray:
    """Solve (I - tau * coeff * D2) w = rhs with Dirichlet ends.

    Each row is divided by its diagonal first.  Raw, the diagonal runs from
    ~1e22 on the first cells of the clustered grid to ~1 far out, and
    partial pivoting leaves absolute errors of 1e-16 (n_psi = 2305) to 1e-14
    (n_psi = 9217) on every row, far above w ~ 1e-20 on the first cells:
    the marched w/phi there came out wrong by factors 0.5 to 1e6 over the
    first 10-30 nodes.  Equilibrated, the elimination error stays relative
    to each row's own scale.

    ``buffers`` (from ``_march_buffers``) are overwritten; the result is a
    new array.
    """
    band, scaled_rhs, r, diag = buffers[:4]
    neg_a, b, neg_c = grid.cached("resolvent", _resolvent_weights, grid)
    np.multiply(tau, coeff[1:-1], out=r)
    np.multiply(r, b, out=diag)
    np.subtract(1.0, diag, out=diag)
    # r >= 0 and b = -(a + c) < 0, so a finite diagonal 1 + r |b| >= 1
    # bounds each off-diagonal entry below by -1: a non-finite coefficient
    # shows here, and the solve checks the right-hand side
    if not np.isfinite(diag).all():
        raise StepFailureError("tridiagonal solve: non-finite entry")
    for row, neg_weight in ((band[0, 2:], neg_c), (band[2, :-2], neg_a)):
        # -(r * weight) / diag: the superdiagonal (column-indexed) and the
        # subdiagonal; r * (-weight) is -(r * weight) to the bit
        np.multiply(r, neg_weight, out=row)
        np.divide(row, diag, out=row)
    np.divide(rhs[1:-1], diag, out=scaled_rhs[1:-1])
    scaled_rhs[0] = 0.0
    scaled_rhs[-1] = far_value
    out = solve_banded(band, scaled_rhs)
    out[0] = 0.0          # pivoting leaves eps-level residue on Dirichlet rows
    out[-1] = far_value
    return out


def _milne_ratio(h: float, h_prev: float, h_older: float) -> float:
    """The BDF2 step's local error over its gap to the quadratic start.

    Milne's device (Hairer & Wanner, *Solving ODEs II*, III.5): each misses
    the solution by K h**3 w_xxx / 6, with K_p = (1 + 1/om)(1 + 1/om +
    h_older/h) for the extrapolation through the last three stations and
    K_c = -(1 + om)**2 / (om (1 + 2 om)) for variable-step BDF2, om =
    h/h_prev.  The gap is (K_p - K_c) h**3 w_xxx / 6, so the ratio is
    |K_c| / (K_p - K_c): 2/11 at a constant step.
    """
    om = h / h_prev
    k_p = (1.0 + 1.0 / om) * (1.0 + 1.0 / om + h_older / h)
    k_c = (1.0 + om) ** 2 / (om * (1.0 + 2.0 * om))
    return k_c / (k_p + k_c)


def _bdf2_solve(grid: Grid, w_n: np.ndarray, prev: tuple,
                h: float, far_value: float, source, scale: float,
                buffers: tuple) -> tuple:
    """Variable-step BDF2 step with Picard-iterated degenerate coefficient.

    Second order in the step, L-stable, and structurally monotone (M-matrix
    resolvent); removes the O(dx) quasi-steady bias that a backward-Euler
    or frozen-coefficient step leaves in the stiff wall zone.  ``prev``
    holds the stations before w_n, newest first, each as (w, h) with h the
    step from that station to the next: none on the first step, one on the
    second, two after.  Without ``prev`` the coefficients are those of an
    infinitely long previous step: the start-up is a backward-Euler step
    from w_n, with up to STARTUP_SWEEPS Picard sweeps instead of
    PICARD_SWEEPS.  With one station the iteration starts from the linear
    extrapolation w_n + om (w_n - w_previous), with two from the quadratic
    through the three stations; the BDF2 step itself reads only the newest.
    Every sweep is the same resolvent and the stopping test is the same, so
    each start seeks the same fixed point, the quadratic from one order
    closer to it.

    The quadratic start is an order-2 predictor and the converged step its
    corrector, so their gap, scaled by ``_milne_ratio``, estimates the
    step's local error.

    Returns (w, sweeps, converged, step_error): ``converged`` is False when
    the last allowed sweep still moved w by more than PICARD_TOL * scale,
    and ``step_error`` is the estimate's largest magnitude relative to
    ``scale``, nan without the quadratic start.  The right-hand side, the
    start and every sweep's temporaries are written into ``buffers`` (from
    ``_march_buffers``) in the operation order of the plain expressions,
    so each value is the same bit for bit; w is a new array.
    """
    rhs, extrapolated, dw, tmp = buffers[4:]
    if not prev:
        w_prev, h_prev, max_picard = w_n, np.inf, STARTUP_SWEEPS
    else:
        (w_prev, h_prev), max_picard = prev[0], PICARD_SWEEPS
    om = h / h_prev
    alpha = (1.0 + 2.0 * om) / (1.0 + om)
    # ((1 + om) w_n - om**2/(1 + om) w_prev - 2 h source) / alpha
    np.multiply(1.0 + om, w_n, out=rhs)
    np.subtract(rhs, np.multiply(om * om / (1.0 + om), w_prev, out=tmp), out=rhs)
    np.subtract(rhs, 2.0 * h * source, out=rhs)
    np.divide(rhs, alpha, out=rhs)
    tau = h / alpha
    w_new, error_gain = w_n, np.nan
    if prev:
        np.subtract(w_n, w_prev, out=dw)
        w_new = np.add(w_n, np.multiply(om, dw, out=extrapolated),
                       out=extrapolated)
        if len(prev) > 1:
            # Newton form: the linear start plus h (h + h_prev) times the
            # second divided difference of the three stations
            w_older, h_older = prev[1]
            curvature = np.subtract(w_prev, w_older, out=tmp)
            np.multiply(h_prev / h_older, curvature, out=curvature)
            np.subtract(dw, curvature, out=curvature)
            np.multiply(om * (h + h_prev) / (h_prev + h_older), curvature,
                        out=curvature)
            w_new += curvature
            error_gain = _milne_ratio(h, h_prev, h_older) / scale
    start, converged = w_new, False
    for sweep in range(1, max_picard + 1):
        # restore the wall law before forming the degenerate coefficient:
        # a clamped noise-floor cell must not decouple its row
        coeff = _wall_restore(grid.nodes, np.maximum(w_new, 0.0, out=tmp))
        np.sqrt(coeff, out=coeff)
        try:
            w_next = _resolvent_solve(grid, rhs, coeff, tau, far_value, buffers)
        except StepFailureError as exc:
            exc.solves = sweep        # this attempt's, the failed solve included
            raise
        delta = float(np.abs(np.subtract(w_next, w_new, out=tmp), out=tmp).max())
        w_new = w_next
        if delta <= PICARD_TOL * scale:
            converged = True
            break
    # a one-sweep step started its only sweep from the start: the gap is
    # that sweep's move
    gap = delta if sweep == 1 else float(
        np.abs(np.subtract(w_new, start, out=tmp), out=tmp).max())
    return w_new, sweep, converged, error_gain * gap


def slow_time_increment(dx, lam_old, lam_new):
    """ds of a step of length dx: the trapezoid rule on ds/dx = lam**-4
    over the shears at its two ends, the march's one clock."""
    return 0.5 * dx * (lam_old**-4 + lam_new**-4)


def adverse_outer_flow(state: VMState, dx: float) -> tuple:
    """The forcing (q, far value) of a step dx from ``state``: u_E**2 falls
    by 2 dx.  Another forcing may give q per node."""
    return 1.0, state.W.values[-1] - 2.0 * dx


def march_step(state: VMState, dx: float, forcing: Callable, prev: tuple,
               buffers: tuple, scale: float) -> tuple:
    """Advance one station; retries with halved dx on monotonicity loss.

    ``prev``, the (w, h) of up to two stations before this one, newest
    first (see ``_bdf2_solve``), feeds the BDF2 step and its Picard start;
    without it (the first step) the step is the iterated backward-Euler
    start-up.  ``buffers``, from ``_march_buffers``, are the march's work
    arrays, and ``scale`` is the largest w of ``state``, as the step that
    made it returned it.  The slow time
    advances by ``slow_time_increment``, second order in dx like the step.
    ``forcing(state, dx)`` gives each attempt its source and far value
    (``adverse_outer_flow`` on every run of the command line).  Returns
    (state, w_max, solves, halvings, converged, step_error): ``w_max`` is
    the new state's largest w, ``converged`` is False when the accepted
    attempt stopped at the sweep cap above PICARD_TOL, and ``step_error``
    is its local error estimate (see ``_bdf2_solve``).  A failed step's
    error carries ``work``, the {"solves", "halvings"} of its attempts.
    """
    grid = state.W.grid
    tmp = buffers[-1]
    w_old = state.W.values
    solves = halvings = 0
    try:
        while True:
            source, far = forcing(state, dx)
            if far <= 0.0:
                raise StepFailureError("pressure horizon reached before separation")
            w_new, sweeps, converged, step_error = _bdf2_solve(
                grid, w_old, prev, dx, far, source, scale, buffers)
            solves += sweeps
            # clamp roundoff negatives on the first cells to w >= 0 (the
            # solve's new array, in place), and judge monotonicity with a
            # roundoff-relative tolerance on the new state's own max, as
            # ``cli.load_trajectory`` judges the saved row
            np.maximum(w_new, 0.0, out=w_new)
            rise = np.subtract(w_new[1:], w_new[:-1], out=tmp[:-1])
            w_max = float(w_new.max())
            mono_ok = rise.min() >= -MONO_TOL_FACTOR * w_max
            # nonpositive cells only as a leading block of the first
            # WALL_FLOOR_CELLS: as many of them as the head holds, none
            # after them, and a positive tail
            head = w_new[1:WALL_FLOOR_CELLS + 1] <= 0.0
            clamped = int(head.sum())
            floor_ok = (not head[clamped:].any()
                        and w_new[WALL_FLOOR_CELLS + 1:].min() > 0.0)
            if mono_ok and floor_ok:
                break
            dx *= 0.5
            halvings += 1
            if dx < DX_MIN:
                raise StepFailureError("step size underflow (separation reached?)")
        w_new.flags.writeable = False     # owned here: Field keeps it uncopied
        W = Field(grid, w_new)
        # wall_shear centres its window on the old shear; the clamped head
        # that the floor test counted takes the wall law
        x = state.x + dx
        lam = wall_shear(grid, _wall_law(grid.nodes, w_new, clamped)
                         if clamped else w_new, state.lam)
        if lam <= 0.0:
            raise InvalidStateError("wall shear no longer resolvable on this "
                                    "grid (separation reached before lambda_stop)")
    except (StepFailureError, InvalidStateError) as exc:
        exc.work = {"solves": solves + getattr(exc, "solves", 0), "halvings": halvings}
        raise
    ds = slow_time_increment(x - state.x, state.lam, lam)
    return (VMState(x, state.s + ds, W, lam), w_max, solves, halvings,
            converged, step_error)


@dataclass(frozen=True)
class Snapshot:
    """A marching pair: the state at trajectory row ``station`` and the
    state one accepted step later, at row station + 1."""

    station: int
    state: VMState
    pair_state: VMState


@dataclass
class Trajectory:
    x: np.ndarray
    lam: np.ndarray
    s: np.ndarray
    F_max: np.ndarray
    # the work of the step that reached each row: its tridiagonal solves
    # (halved retries included), its dx halvings, and 1 where it stopped at
    # the Picard sweep cap above PICARD_TOL; 0 on the inflow row
    solves: np.ndarray
    halvings: np.ndarray
    short: np.ndarray
    # that step's local error estimate relative to max w (``_bdf2_solve``);
    # nan on the first three rows, which no quadratic start reached
    step_error: np.ndarray
    snapshots: List[Snapshot]
    psi_grid: Grid             # the one phi grid of every marched state
    failure: str               # empty on a completed run
    # {"solves", "halvings"} of the attempts of the step that ended a run
    # that stopped early; None on a completed run
    failed_step: Optional[dict]

    @property
    def completed(self) -> bool:
        return not self.failure


def solve_until_separation(data, cfg, forcing=adverse_outer_flow) -> Trajectory:
    """March under ``forcing`` from inflow data until lambda hits lambda_stop.

    ``data`` is an InitialData (physical profile) and ``cfg`` the run's
    ``cli.RunConfig``, of which the march reads ``lambda_stop``, ``ds_rel``,
    ``n_psi`` and ``snapshots_per_decade``.  The tangential step
    follows dx = cfl * lam**4 * (ds_rel * s), mirroring the slow-variable
    clock, and the full streamfunction state is snapshotted on a uniform
    schedule in log(lam), together with the state one step later (used by
    the finite-difference commutator identity).  That pair step is taken at
    ds_rel / 2, so the commutator check's ds/s, and with it its tolerance,
    is that of a march at half the step.
    """
    if cfg.lambda_stop <= 0.0:
        raise ValueError("lambda_stop must be positive")
    state = to_von_mises(data.u0, float(data.lambda0), data.s0, n_psi=cfg.n_psi)
    rows = []       # a station's Trajectory columns, x to step_error, in order
    snapshots: List[Snapshot] = []
    decade_step = 10.0 ** (-1.0 / cfg.snapshots_per_decade)
    failure, failed_step = "", None
    buffers = _march_buffers(len(state.W))

    def record(st: VMState, w_max: float, solves: int, halvings: int,
               converged: bool, step_error: float) -> None:
        # F_max, the max of F over its trusted nodes, from the pass that the
        # audit makes, on the max of w the step handed on
        F, floor = compute_F(st.W, w_max)
        trusted = trusted_F_mask(floor)
        rows.append((st.x, st.lam, st.s,
                     float(F[trusted].max()) if trusted.any() else np.nan,
                     solves, halvings, int(not converged), step_error))

    # the largest w of the newest state: each step's scale and its record's
    scale = float(state.W.values.max())
    record(state, scale, 0, 0, True, np.nan)
    # the snapshot state that waits for its pair, the next state
    pending: Optional[VMState] = state
    prev = ()
    lam_next_snap = data.lambda0 * decade_step
    for step in range(MAX_STEPS):
        if state.lam <= cfg.lambda_stop:
            break
        ds_rel = cfg.ds_rel if pending is None else 0.5 * cfg.ds_rel
        dx = max(min(DX_MAX, CFL_SAFETY * state.lam**4 * ds_rel * state.s),
                 DX_MIN * 10.0)
        try:
            new_state, scale, *work = march_step(state, dx, forcing, prev,
                                                 buffers, scale)
        except (StepFailureError, InvalidStateError) as exc:
            failure, failed_step = str(exc), exc.work
            break
        # the station just left and the one before it start the next Picard
        prev = ((state.W.values, new_state.x - state.x),) + prev[:1]
        state = new_state
        record(state, scale, *work)
        if pending is not None:
            # the pending state sits one row above the pair just recorded
            snapshots.append(Snapshot(station=len(rows) - 2, state=pending,
                                      pair_state=state))
            pending = None
        if state.lam <= lam_next_snap and state.lam > cfg.lambda_stop:
            pending = state
            lam_next_snap = state.lam * decade_step
    else:
        failure, failed_step = "max_steps exhausted", {"solves": 0, "halvings": 0}

    # a snapshot still pending here never got its pair and is not kept
    return Trajectory(*map(np.array, zip(*rows)), snapshots=snapshots,
                      psi_grid=state.W.grid, failure=failure,
                      failed_step=failed_step)
