"""Self-similar post-processing: wall-unit grid, modulation rate, collapse fit.

The slow variable s, with ds/dx = lam**-4, is the march's own clock, which
``vonmises.march_step`` advances by the trapezoid rule on each step's two
shears; ``standard_rescaled_grid`` is the wall-unit grid of the rescaled
profiles; the modulation rate b = -2 lam_x lam**3 is extracted with a
smoothed local slope; and the wall-shear collapse law lam ~ C (x* - x)**p
is fitted in log-log form, with the exponent left free, by variable
projection: a linear fit of log C and p for each x*, and a root of the
projected residual's derivative in x*, on a window whose ends are set in
lam (``fit_window``).  With b s = k held constant the clock gives p = k /
(2 (2k - 1)), which ``simulate`` reports beside the fitted p.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import DomainError, FitFailureError, SingularInputError
from .gridfields import Grid, brentq, cumtrapz, lstsq_powers, window_starts

#: samples in the Theil-Sen window of ``compute_b``
B_WINDOW = 7


# one unit grid, and so one stencil set, per node count, kept for the process
@lru_cache(maxsize=8)
def _unit_rescaled_grid(n: int) -> Grid:
    return Grid.tanh_clustered(n, 1.0, strength=4.0)


def standard_rescaled_grid(s: float, n: int, reach: float) -> Grid:
    """Wall-clustered grid of n nodes on [0, 8 s**(2/7)], cut at ``reach``:
    the span of the profile it samples, in wall units.  Every such grid of
    n nodes is one unit grid scaled, whose stencils it shares."""
    return _unit_rescaled_grid(n).scaled(min(8.0 * s ** (2.0 / 7.0), reach))


# nodes 0, 2, 4, .. and the last of the unit grid of n nodes, as a grid of
# their own with its own stencil set, and their positions, kept for the process
@lru_cache(maxsize=8)
def _unit_subsampled_grid(n: int) -> tuple:
    idx = np.append(np.arange(0, n - 1, 2), n - 1)
    idx.flags.writeable = False
    return Grid(_unit_rescaled_grid(n).nodes[idx]), idx


def subsampled_rescaled_grid(grid: Grid) -> tuple:
    """(coarse, idx): every other node of the standard rescaled ``grid`` of
    n nodes, 0, 2, 4, .. and the last, n // 2 + 1 of them, with coarse.nodes
    equal to grid.nodes[idx].  Every such grid of a given n is one unit grid
    scaled, whose stencils it shares."""
    coarse, idx = _unit_subsampled_grid(len(grid))
    return coarse.scaled(grid.span), idx


def local_slope(x: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Least-squares slope of f(x) over a centered 5-sample window per sample."""
    window = 5
    idx = window_starts(len(x), window)[:, None] + np.arange(window)
    xs = x[idx] - x[:, None]
    fs = f[idx]
    sum_x = np.sum(xs, axis=1)
    den = np.sum(xs * xs, axis=1) - sum_x ** 2 / window
    return (np.sum(xs * fs, axis=1) - sum_x * np.sum(fs, axis=1) / window) / den


def compute_b(x: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Modulation rate b = -2 lam_x lam**3 with a robust local slope.

    The slope is the median of pairwise slopes over a centered window
    (Theil-Sen), which keeps single-sample glitches in the shear estimate
    out of the differentiated rate.
    """
    x = np.asarray(x, dtype=float)
    lam = np.asarray(lam, dtype=float)
    idx = window_starts(len(x), B_WINDOW)[:, None] + np.arange(B_WINDOW)
    xs, fs = x[idx], lam[idx]
    a, c = np.triu_indices(B_WINDOW, 1)
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


#: the collapse fit's bracket in u = log(x* - x_end) ends at most this many
#: steps from the estimate on each side, each step three times as far out
_BRACKET_STEPS = 5
#: the root's tolerance in u, a relative one in x* - x_end
_U_TOL = 1e-12


def fit_singularity(x: np.ndarray, lam: np.ndarray) -> dict:
    """Fit log lam = log C + p log(x* - x) over (x*, C, p).

    Needs a tail over which lam falls by a factor of at least 8, most of a
    decade; returns the fitted parameters and the rms log-residual.

    Variable projection (Golub and Pereyra): for a fixed x*, log C and p
    are a linear least-squares fit, so the squared residual is a function
    of x* alone, whose derivative is 2 sum r_i p/(x* - x_i) at the fitted
    (log C, p).  x* is the root of that sum, found by ``brentq`` in u =
    log(x* - x_end) on a bracket stepped out from the p = 1/2 estimate.
    """
    x = np.asarray(x, dtype=float)
    lam = np.asarray(lam, dtype=float)
    if len(x) < 30:
        raise DomainError("need at least 30 samples in the fit window")
    if lam[0] / lam[-1] < 8.0:
        raise DomainError("fit window must span most of a decade in lam")
    x_end = x[-1]
    log_lam = np.log(lam)

    def projection(u: float) -> tuple:
        """(log(x* - x), log C, p, residual) at x* = x_end + e**u."""
        log_gap = np.log(np.exp(u) + x_end - x)
        log_c, p = lstsq_powers(log_gap, log_lam, (0, 1))
        return log_gap, log_c, p, log_c + p * log_gap - log_lam

    def slope(u: float) -> float:
        log_gap, _, p, res = projection(u)
        return float(p * np.sum(res * np.exp(-log_gap)))

    # collapse-law initializer: x* from matching two samples with p = 1/2
    r = (lam[0] / lam[-1]) ** 2
    u0 = np.log(max((r * x_end - x[0]) / (r - 1.0) - x_end, 1e-14))

    def bracket_end(u: float, sign: float) -> float:
        """u, moved away from u0 until the slope has the given sign; far
        out, log(x* - x) flattens until the fit of p is singular."""
        try:
            for _ in range(_BRACKET_STEPS):
                if sign * slope(u) > 0.0:
                    return u
                u = u0 + 3.0 * (u - u0)
        except SingularInputError:
            pass
        raise FitFailureError("collapse fit did not converge: the residual "
                              f"has no minimum in x* - x_end near {np.exp(u0):.3g}")

    u = brentq(slope, bracket_end(u0 - 1.0, -1.0), bracket_end(u0 + 1.0, 1.0),
               xtol=_U_TOL)
    _, log_c, p, res = projection(u)
    return {
        "x_star": float(x_end + np.exp(u)),
        "C": float(np.exp(log_c)),
        "exponent": float(p),
        "residual": float(np.sqrt(np.mean(res**2))),
        "window": [float(x[0]), float(x_end)],
        "n_samples": int(len(x)),
    }


#: the collapse fit spans FIT_DECADES of lam down to FIT_END * lambda_stop,
#: clear of the stop (stop-criterion contamination)
FIT_DECADES = 1.05
FIT_END = 3.11


def fit_window(lam: np.ndarray, lambda_stop: float) -> slice:
    """Spec'd fit window: the stations with lam in (lam_end, lam_end *
    10**FIT_DECADES], lam_end = FIT_END * lambda_stop.

    Both ends are set in lam, not in samples, so the window covers the same
    stretch of the collapse at any step size."""
    lam = np.asarray(lam, dtype=float)
    lam_end = FIT_END * lambda_stop
    valid = np.nonzero(lam > lam_end)[0]
    if len(valid) == 0:
        raise DomainError(f"no samples above {FIT_END:g} * lambda_stop")
    end = valid[-1]
    # the first station at or below lam_end * 10**FIT_DECADES
    start = int(np.argmax(lam[: end + 1] <= lam_end * 10.0**FIT_DECADES))
    return slice(start, end + 1)


def rate_inequality_certificate(s: np.ndarray, b: np.ndarray,
                                gamma: float) -> dict:
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
    return {
        "gamma": gamma,
        "epsilon": eps,
        "envelope_ok": env_ok,
        "J": J,
        "violations": violations,
        "worst_margin": worst,
        "holds": env_ok and violations == 0,
    }
