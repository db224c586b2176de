"""Self-similar post-processing: rescaling, modulation rate, collapse fit.

The physical trajectory (x, lam(x)) is converted to the slow variable
through ds/dx = lam**-4; profiles are rescaled by U(Y) = lam**-2 u(lam Y);
the modulation rate b = -2 lam_x lam**3 is extracted with a smoothed local
slope; and the wall-shear collapse law lam ~ C (x* - x)**p is fitted by
nonlinear least squares in log-log form, with the exponent left free.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, FitFailureError, InconsistentLambdaError
from .gridfields import (Field, Grid, cumtrapz, lstsq_powers, spline_interpolant,
                         window_starts)


def standard_rescaled_grid(s: float, n: int = 641) -> Grid:
    """Wall-clustered grid on [0, 8 s**(2/7)]."""
    return Grid.tanh_clustered(n, 8.0 * s ** (2.0 / 7.0), strength=4.0)


def rescale_profile(u: Field, lam: float, rescaled_grid: Grid,
                    slope_rtol: float = 1e-2) -> Field:
    """U(Y) = lam**-2 u(lam Y) on the given rescaled grid.

    u is read off a quintic interpolating spline, so the rescaled profile
    stays smooth on grids finer than u's own.  The wall slope of u is
    re-fitted and used as the actual scaling factor, which pins U_Y(0) = 1
    to fit accuracy; if it disagrees with the claimed lam by more than
    ``slope_rtol`` the profile is rejected.
    """
    if lam <= 0.0:
        raise DomainError("lam must be positive")
    Y = rescaled_grid.nodes
    fit_zone = (Y > 0) & (Y <= 0.35)
    if np.count_nonzero(fit_zone) < 8:
        fit_zone = np.zeros_like(Y, dtype=bool)
        fit_zone[1:12] = True
    u_at = spline_interpolant(u)
    lam_use = lam
    vals = None
    for _ in range(4):
        vals = u_at(lam_use * Y) / lam_use**2
        c1 = float(lstsq_powers(Y[fit_zone], vals[fit_zone], (1, 2, 3, 4))[0])
        if abs(c1 - 1.0) < 1e-9:
            break
        lam_use *= c1
    if abs(lam_use / lam - 1.0) > slope_rtol:
        raise InconsistentLambdaError(
            f"claimed shear {lam:.6g} vs wall-normalized {lam_use:.6g}"
        )
    return Field(rescaled_grid, vals)


def accumulate_s(x: np.ndarray, lam: np.ndarray, s0: float) -> np.ndarray:
    """Slow variable s(x) = s0 + int lam**-4 dx (trapezoid)."""
    x = np.asarray(x, dtype=float)
    lam = np.asarray(lam, dtype=float)
    if np.any(lam <= 0.0) or np.any(np.diff(x) < 0.0):
        raise DomainError("need positive shear and non-decreasing x")
    return s0 + cumtrapz(lam**-4.0, x)


def local_slope(x: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Least-squares slope of f(x) over a centered 5-sample window per sample."""
    window = 5
    idx = window_starts(len(x), window)[:, None] + np.arange(window)
    xs = x[idx] - x[:, None]
    fs = f[idx]
    sum_x = np.sum(xs, axis=1)
    den = np.sum(xs * xs, axis=1) - sum_x ** 2 / window
    return (np.sum(xs * fs, axis=1) - sum_x * np.sum(fs, axis=1) / window) / den


def compute_b(x: np.ndarray, lam: np.ndarray, window: int = 7) -> np.ndarray:
    """Modulation rate b = -2 lam_x lam**3 with a robust local slope.

    The slope is the median of pairwise slopes over a centered window
    (Theil-Sen), which keeps single-sample glitches in the shear estimate
    out of the differentiated rate.
    """
    x = np.asarray(x, dtype=float)
    lam = np.asarray(lam, dtype=float)
    idx = window_starts(len(x), window)[:, None] + np.arange(window)
    xs, fs = x[idx], lam[idx]
    a, c = np.triu_indices(window, 1)
    lam_x = np.median((fs[:, a] - fs[:, c]) / (xs[:, a] - xs[:, c]), axis=1)
    return -2.0 * lam_x * lam**3


def evolve_btilde(s: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Regularized rate: solution of btilde' + b btilde = 0, btilde(s0) = 1/s0.

    Integrated exactly as (1/s0) exp(-int b ds); positive and decreasing
    whenever b > 0, with the same asymptotics as b but time oscillations
    removed.
    """
    s = np.asarray(s, dtype=float)
    b = np.asarray(b, dtype=float)
    return np.exp(-cumtrapz(b, s)) / s[0]


def fit_singularity(x: np.ndarray, lam: np.ndarray) -> dict:
    """Fit log lam = log C + p log(x* - x) over (x*, C, p).

    Needs a tail spanning at least a decade in lam; returns the fitted
    parameters and the rms log-residual.
    """
    from scipy.optimize import least_squares  # only simulate fits

    x = np.asarray(x, dtype=float)
    lam = np.asarray(lam, dtype=float)
    if len(x) < 30:
        raise DomainError("need at least 30 samples in the fit window")
    if lam[0] / lam[-1] < 8.0:
        raise DomainError("fit window must span most of a decade in lam")
    x_end = x[-1]
    # collapse-law initializer: x* from matching two samples with p = 1/2
    r = (lam[0] / lam[-1]) ** 2
    x_star0 = max((r * x_end - x[0]) / (r - 1.0), x_end + 1e-12)
    log_lam = np.log(lam)

    def residual(theta):
        dx_star, log_c, p = theta
        return log_c + p * np.log(np.exp(dx_star) + x_end - x) - log_lam

    theta0 = np.array([np.log(max(x_star0 - x_end, 1e-14)),
                       float(log_lam[-1] - 0.5 * np.log(x_star0 - x_end)), 0.5])
    res = least_squares(residual, theta0, method="lm", max_nfev=2000)
    if not res.success:
        raise FitFailureError(f"collapse fit did not converge: {res.message}")
    dx_star, log_c, p = res.x
    rms = float(np.sqrt(np.mean(res.fun**2)))
    return {
        "x_star": float(x_end + np.exp(dx_star)),
        "C": float(np.exp(log_c)),
        "exponent": float(p),
        "residual": rms,
        "window": [float(x[0]), float(x_end)],
        "n_samples": int(len(x)),
    }


#: the collapse fit spans FIT_DECADES of lam and drops the last
#: FIT_SKIP_LAST samples above 3 * lambda_stop (stop-criterion contamination)
FIT_DECADES = 1.05
FIT_SKIP_LAST = 10


def fit_window(x: np.ndarray, lam: np.ndarray, lambda_stop: float) -> slice:
    """Spec'd fit window: last decade of lam above 3*lambda_stop, minus the
    final ``FIT_SKIP_LAST`` samples."""
    lam = np.asarray(lam, dtype=float)
    valid = np.nonzero(lam > 3.0 * lambda_stop)[0]
    if len(valid) == 0:
        raise DomainError("no samples above 3 * lambda_stop")
    end = valid[-1] - FIT_SKIP_LAST
    if end <= 0:
        raise DomainError("window empty after discarding final samples")
    lam_hi = lam[end] * 10.0**FIT_DECADES
    start = int(np.nonzero(lam[: end + 1] <= lam_hi)[0][0]) if lam[0] > lam_hi else 0
    return slice(start, end + 1)


def rate_inequality_certificate(s: np.ndarray, b: np.ndarray, gamma: float,
                        eta: float = 0.0) -> dict:
    """Pointwise audit of the modulation-rate inequality.

    With J = int s**gamma (b_s + b**2)**2 ds and eps the measured envelope
    half-width of b*s around 1, checks for every sample

      |b - 1/s| <= (1+eps)/(1-eps) |1/s0 - b(s0)| s0**2/s**2
                   + (1+eps)/((1-eps)**2 sqrt(5-gamma)) s**((1-gamma)/2) J**0.5.

    Report-only; gamma must lie in (0, 5).
    """
    if not 0.0 < gamma < 5.0:
        raise DomainError("gamma must lie in (0, 5)")
    s = np.asarray(s, dtype=float)
    b = np.asarray(b, dtype=float)
    bs_prod = b * s
    eps = float(np.max(np.abs(bs_prod - 1.0)))
    env_ok = eps < 1.0
    b_s = local_slope(s, b)
    defect = (b_s + b * b) ** 2
    J = float(np.trapezoid(s**gamma * defect, s))
    if env_ok:
        s0 = s[0]
        head = (1.0 + eps) / (1.0 - eps) * abs(1.0 / s0 - b[0]) * s0**2 / s**2
        tail = ((1.0 + eps) / (1.0 - eps) ** 2 / np.sqrt(5.0 - gamma)
                * s ** ((1.0 - gamma) / 2.0) * np.sqrt(J))
        rhs = head + tail
        lhs = np.abs(b - 1.0 / s)
        violations = int(np.sum(lhs > rhs * (1.0 + 1e-9) + 1e-15))
        worst = float(np.max(lhs - rhs))
    else:
        violations, worst = -1, np.nan
    out = {
        "gamma": gamma,
        "epsilon": eps,
        "envelope_ok": env_ok,
        "J": J,
        "violations": violations,
        "worst_margin": worst,
        "holds": env_ok and violations == 0,
    }
    if eta > 0.0:
        out["J_weighted_eta"] = float(np.trapezoid(s ** (3.0 + 2.0 * eta) * defect, s))
    return out
