"""Reference formulas the tests compare the package against.

Each is a closed form, a forward operator or a bookkeeping helper that no
``prandtlsep`` subcommand needs: the forward product ``L_U``, whose inverse
the package implements; the derivatives of the profile's far-field
completion; float evaluation of an exact polynomial; the uniform grid; the
observed convergence order of an error sequence; a bitwise array
comparison; the cumulative trapezoid as it was written inline before
``gridfields.cumtrapz`` replaced the copies; the least-squares fit as the
scaled SVD solve that ``gridfields.lstsq_powers`` was before it called
LAPACK ``gels``; the collapse-law fit as the Levenberg-Marquardt fit that
``modulation.fit_singularity`` was before variable projection; the inflow
grid at the default node count, and the inflow data on it at
``RunConfig``'s perturbation amplitude and outer flow; the closed forms of the
march's stencil weights, which ``gridfields.fd_weights`` now generates:
the three-point first and second differences on the phi grid, the cubic
interpolation at the Gauss points of each t = sqrt(phi) cell, the quadratic
extrapolation to the wall and the F roundoff floor; two per-step formulas
of the march without its prefix or work buffers: the wall shear with
y(phi) integrated over the whole grid, and the equilibrated resolvent
solve on a freshly allocated band; and the BDF2 step with its Picard
iteration started from the old station instead of the extrapolated one;
and a fault for the algebra certificate to catch.
"""

from fractions import Fraction
from typing import Iterable

import numpy as np
import scipy.linalg
from numpy.polynomial.polynomial import polyval

from prandtlsep import cli
from prandtlsep import profiles as pr
from prandtlsep import ratpoly as rp
from prandtlsep import vonmises as vm
from prandtlsep.errors import DomainError, InvalidStateError, SingularInputError
from prandtlsep.gridfields import Field, Grid, cumint, lstsq_powers


def uniform_grid(n: int, x_max: float) -> Grid:
    return Grid(np.linspace(0.0, x_max, n))


def inflow_grid() -> Grid:
    """The inflow grid that ``simulate`` builds at the default ``n_physical``."""
    return pr.default_physical_grid(cli.RunConfig.n_physical)


def inflow_data(lambda0: float, grid: Grid = None, **overrides):
    """``build_initial_data`` as ``simulate`` calls it: on ``grid`` (the
    inflow grid by default), with ``RunConfig``'s perturbation amplitude and
    outer flow unless ``overrides`` names them."""
    values = {"perturbation_amplitude": cli.RunConfig.perturbation_amplitude,
              "x0_pressure": cli.RunConfig.x0_pressure, **overrides}
    return pr.build_initial_data(
        lambda0, inflow_grid() if grid is None else grid, **values)


def convergence_order(errors: Iterable[float]) -> float:
    """Observed order from errors on grids refined by 2 each time."""
    errs = [e for e in errors]
    if len(errs) < 2:
        raise ValueError("need at least two error samples")
    rates = [np.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    return float(np.min(rates))


def op_L(ctx, w: Field) -> Field:
    """L_U w = U w - U_Y int_0^Y w."""
    return w.with_values(ctx.U.values * w.values - ctx.U_Y.values * cumint(w).values)


def poly_eval(p: rp.RationalPoly, Y: float, b: float = 0.0, bs: float = 0.0) -> float:
    """Float value of an exact polynomial in (Y, b, b_s)."""
    total = 0.0
    for (dy, db, dbs), c in p.terms.items():
        total += float(c) * Y**dy * b**db * bs**dbs
    return total


def tamper_second_iterate(monkeypatch) -> None:
    """Add 1e-6 b Y**4 to U_2 of every ``ratpoly.profile_chain``, a wrong
    a4 that the certificate's U2 row must name."""
    chain_of = rp.profile_chain

    def tampered(n: int) -> list:
        chain = chain_of(n)
        if n >= 2:
            chain[1] = chain[1] + rp.RationalPoly.monomial(Fraction(1, 10**6), 4, 1)
        return chain

    monkeypatch.setattr(rp, "profile_chain", tampered)


def uapp_core_poly() -> rp.RationalPoly:
    """Wall polynomial of the approximate profile, Y**2/2 included.

    The two highest-order terms of the fourth iterate (Y**13, Y**16) are
    dropped: they do not reduce the remainder and only thicken the algebra.
    """
    return rp.profile_chain(4)[-1].truncate_degree_Y(11)


# ---------------------------------------------------------------------------
# Derivatives of the approximate profile
# ---------------------------------------------------------------------------


def _p_tail_prime(t):
    out = np.zeros_like(t)
    for k in range(len(pr._P_TAIL) - 1, 0, -1):
        out = out * t + k * pr._P_TAIL[k]
    return out


def _p_tail_second(t):
    out = np.zeros_like(t)
    for k in range(len(pr._P_TAIL) - 1, 1, -1):
        out = out * t + k * (k - 1) * pr._P_TAIL[k]
    return out


def theta_prime(xi):
    xi = np.asarray(xi, dtype=float)
    t = np.maximum(xi - pr.THETA_C0, 0.0)
    outer = pr._THETA_GAP * _p_tail_prime(t) / polyval(t, pr._P_TAIL) ** 2
    return np.where(xi <= pr.THETA_C0, xi, outer)


def theta_second(xi):
    xi = np.asarray(xi, dtype=float)
    t = np.maximum(xi - pr.THETA_C0, 0.0)
    p, dp, d2p = polyval(t, pr._P_TAIL), _p_tail_prime(t), _p_tail_second(t)
    outer = pr._THETA_GAP * (d2p * p - 2.0 * dp**2) / p**3
    return np.where(xi <= pr.THETA_C0, 1.0, outer)


def _bracket_poly_prime(b: float, Y: np.ndarray) -> np.ndarray:
    a4, a7, a10, a11 = pr.wall_coefficients()
    return (1.0 - 4.0 * a4 * b * Y**3 - 7.0 * a7 * b * b * Y**6
            - 10.0 * a10 * b**3 * Y**9 - 11.0 * a11 * b**3 * Y**10)


def eval_uapp_Y(s: float, b: float, Y):
    """Y-derivative of ``profiles.eval_uapp``."""
    if s <= 0.0 or b <= 0.0:
        raise DomainError("eval_uapp_Y needs s > 0 and b > 0")
    Y = np.asarray(Y, dtype=float)
    scale = s**pr.CUTOFF_EXPONENT
    r = Y / scale
    return (pr.smoothstep_cutoff_prime(r) / scale * pr._bracket_poly(b, Y)
            + pr.smoothstep_cutoff(r) * _bracket_poly_prime(b, Y)
            + theta_prime(np.sqrt(b) * Y) / np.sqrt(b))


def cumtrapz(values, nodes) -> np.ndarray:
    """Trapezoidal primitive, 0 at the first node, in the inline form that
    ``modulation.evolve_btilde`` and ``energies.coercivity_audit`` used."""
    return np.concatenate([[0.0], np.cumsum(0.5 * (values[1:] + values[:-1])
                                            * np.diff(nodes))])


def lstsq_powers_svd(y: np.ndarray, v: np.ndarray, powers) -> np.ndarray:
    """``gridfields.lstsq_powers`` in the form it had before it called
    LAPACK ``gels``: the columns scaled to unit norm, then numpy's SVD
    solve with its default rank cut."""
    cols = np.stack([y**p for p in powers], axis=1)
    norms = np.linalg.norm(cols, axis=0)
    norms[norms == 0.0] = 1.0
    sol, *_ = np.linalg.lstsq(cols / norms, v, rcond=None)
    return sol / norms


def fit_singularity_lm(x: np.ndarray, lam: np.ndarray) -> dict:
    """x_star, C, exponent and residual of ``modulation.fit_singularity`` as
    it was before variable projection: SciPy's Levenberg-Marquardt over
    (log(x* - x_end), log C, p) from the p = 1/2 estimate."""
    from scipy.optimize import least_squares

    x_end = x[-1]
    r = (lam[0] / lam[-1]) ** 2
    x_star0 = max((r * x_end - x[0]) / (r - 1.0), x_end + 1e-12)
    log_lam = np.log(lam)

    def residual(theta):
        dx_star, log_c, p = theta
        return log_c + p * np.log(np.exp(dx_star) + x_end - x) - log_lam

    theta0 = np.array([np.log(max(x_star0 - x_end, 1e-14)),
                       float(log_lam[-1] - 0.5 * np.log(x_star0 - x_end)), 0.5])
    res = least_squares(residual, theta0, method="lm", max_nfev=2000)
    assert res.success, res.message
    dx_star, log_c, p = res.x
    return {"x_star": float(x_end + np.exp(dx_star)), "C": float(np.exp(log_c)),
            "exponent": float(p), "residual": float(np.sqrt(np.mean(res.fun**2)))}


def same_bits(a, b) -> bool:
    """Two float64 arrays (or floats) equal bit for bit, nan and inf included."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


# ---------------------------------------------------------------------------
# Streamfunction march: closed-form stencil weights
# ---------------------------------------------------------------------------


def three_point_weights(phi: np.ndarray, order: int) -> np.ndarray:
    """Rows (a, b, c): the weights of w_{i-1}, w_i and w_{i+1} in the first
    (order 1) or second (order 2) difference at the interior nodes."""
    hm = phi[1:-1] - phi[:-2]
    hp = phi[2:] - phi[1:-1]
    if order == 1:
        return np.array([-hp**2, hp**2 - hm**2, hm**2]) / (hm * hp * (hm + hp))
    a = 2.0 / (hm * (hm + hp))
    c = 2.0 / (hp * (hm + hp))
    return np.array([a, -(a + c), c])


def gauss_interpolation_weights(t: np.ndarray, lo: np.ndarray,
                                pts: np.ndarray) -> np.ndarray:
    """Lagrange weights, shape (cells, 3, 4), of the points ``pts`` of each
    cell on the 4-node stencil that starts at ``lo``."""
    lag = np.ones(pts.shape + (4,))
    for j in range(4):
        xj = t[lo + j]
        for m in range(4):
            if m != j:
                xm = t[lo + m]
                lag[:, :, j] *= (pts - xm[:, None]) / (xj - xm)[:, None]
    return lag


def wall_extrapolation_weights(t: np.ndarray) -> np.ndarray:
    """Weights that extrapolate nodes 1-3 quadratically to t = 0."""
    t1, t2, t3 = t[1:4]
    return np.array([t2 * t3 / ((t1 - t2) * (t1 - t3)),
                     t1 * t3 / ((t2 - t1) * (t2 - t3)),
                     t1 * t2 / ((t3 - t1) * (t3 - t2))])


def f_roundoff_floor(state) -> np.ndarray:
    """The roundoff floor of ``vonmises.compute_F`` (its second value) in
    closed form: the second difference's weights sum to 4/(hm hp) in
    magnitude."""
    w = state.W.values
    phi = state.W.grid.nodes
    eps_w = 8.0 * np.finfo(float).eps * float(np.max(w))
    out = np.full_like(w, np.inf)
    hm = phi[1:-1] - phi[:-2]
    hp = phi[2:] - phi[1:-1]
    out[1:-1] = np.sqrt(np.maximum(w[1:-1], 0.0)) * 4.0 * eps_w / (hm * hp)
    out[0] = 0.0
    return out


# ---------------------------------------------------------------------------
# Streamfunction march: per-step formulas without the prefix or buffers
# ---------------------------------------------------------------------------


def resolvent_solve(grid, rhs, coeff, tau: float, far_value: float) -> np.ndarray:
    """``vonmises._resolvent_solve`` on a fresh band and right-hand side,
    solved by ``scipy.linalg.solve_banded``."""
    n = len(grid)
    a, b, c = vm._three_point_weights(grid, 2)
    r = tau * coeff[1:-1]
    diag = 1.0 - r * b
    ab = np.zeros((3, n))
    ab[1] = 1.0
    ab[0, 2:] = -r * c / diag
    ab[2, :-2] = -r * a / diag
    rhs = rhs.copy()
    rhs[1:-1] /= diag
    rhs[0] = 0.0
    rhs[-1] = far_value
    out = scipy.linalg.solve_banded((1, 1), ab, rhs)
    out[0] = 0.0
    out[-1] = far_value
    return out


def wall_shear_full_y(state) -> float:
    """``vonmises.wall_shear`` with y(phi) integrated over the whole grid."""
    grid = state.W.grid
    phi = grid.nodes
    w = vm._wall_restore(phi, state.W.values)
    guess = float(state.lam)
    y = vm._normal_coordinate(grid, w)

    def estimate(g: float):
        y_cap = 0.25 * g ** (1.0 / 3.0)
        window = (y >= 0.25 * y_cap) & (y <= y_cap)
        idx = np.nonzero(window)[0]
        idx = idx[(idx > 0) & (idx < len(phi) - 1)]
        if len(idx) < 4:
            return None
        a, b, c = vm._three_point_weights(grid, 1)[:, idx - 1]
        w_phi = a * w[idx - 1] + b * w[idx] + c * w[idx + 1]
        samples = 0.5 * w_phi - y[idx]
        try:
            est_ = float(lstsq_powers(y[idx], samples, (0, 3))[0])
        except SingularInputError:
            return None
        if not 0.0 < est_ < 20.0 * g:
            est_ = float(np.median(samples))
        return est_

    est = estimate(guess)
    if est is None:
        raise InvalidStateError("wall window under-resolved in phi")
    if est > 0.0 and abs(est - guess) > 0.05 * guess:
        refined = estimate(est)
        if refined is not None and refined > 0.0:
            est = refined
    return est


def bdf2_solve(grid, w_n, prev, h: float, far_value: float, source: float,
               scale: float, extrapolate: bool = True) -> tuple:
    """``vonmises._bdf2_solve`` in plain array expressions, each value a new
    array; without ``extrapolate``, every Picard iteration starts from w_n,
    as the march did before it started from the extrapolated state."""
    if not prev:
        w_prev, h_prev, max_picard = w_n, np.inf, vm.STARTUP_SWEEPS
    else:
        (w_prev, h_prev), max_picard = prev[0], vm.PICARD_SWEEPS
    om = h / h_prev
    alpha = (1.0 + 2.0 * om) / (1.0 + om)
    rhs = ((1.0 + om) * w_n - om * om / (1.0 + om) * w_prev
           - 2.0 * h * source) / alpha
    buffers = vm._march_buffers(len(grid))
    w_new, error_gain = w_n, np.nan
    if prev and extrapolate:
        dw = w_n - w_prev
        w_new = w_n + om * dw
        if len(prev) > 1:
            w_older, h_older = prev[1]
            w_new += (om * (h + h_prev) / (h_prev + h_older)
                      * (dw - h_prev / h_older * (w_prev - w_older)))
            error_gain = vm._milne_ratio(h, h_prev, h_older) / scale
    start, converged = w_new, False
    for sweep in range(1, max_picard + 1):
        coeff = np.sqrt(vm._wall_restore(grid.nodes, np.maximum(w_new, 0.0)))
        w_next = vm._resolvent_solve(grid, rhs, coeff, h / alpha, far_value,
                                     buffers)
        delta = float(np.max(np.abs(w_next - w_new)))
        w_new = w_next
        if delta <= vm.PICARD_TOL * scale:
            converged = True
            break
    return w_new, sweep, converged, error_gain * float(np.max(np.abs(w_new - start)))
