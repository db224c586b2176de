"""Approximate blow-up profile and well-prepared initial data.

``eval_uapp`` is the reference profile used by all diagnostics: the wall
polynomial (with exact coefficients from the algebra engine) cut off at
Y ~ s**(2/7), plus a bounded far-field completion ``theta`` that carries
the Y**2/2 behaviour near the wall and saturates at 1/b.

Initial data is NOT built as the literal rescaled image of that profile:
the cutoff derivatives are O(1) at the moderate s0 reachable from realistic
wall shear, which would break the curvature bound u'' <= 1 the comparison
arguments need.  Instead ``build_initial_data`` integrates a curvature
shape that equals the wall polynomial's curvature exactly in the inner
zone, then relaxes through a smooth decay and two negative lobes whose
amplitudes are solved from the far-field conditions u'(inf) = 0 and
u(inf) = sqrt(2 x0).  The result satisfies the monotonicity, curvature and
compatibility requirements on the grid by construction, and coincides with
the reference profile on the whole inner zone, so the weighted energies of
the difference start at discretization level.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.polynomial.polynomial import polyval

from . import ratpoly
from .errors import DomainError, InvalidInitialDataError
from .gridfields import Field, Grid, cumint, smoothstep, smoothstep_prime

# ---------------------------------------------------------------------------
# Cutoff and far-field completion shapes
# ---------------------------------------------------------------------------

#: matching point of the far-field completion: theta(xi) = xi**2/2 below it
THETA_C0 = 0.5

# Rational tail 1 - (1 - c0**2/2)/P(t): P matches value, slope and curvature
# of xi**2/2 at c0 and grows like t**6, so theta -> 1 fast.
_P_TAIL = (1.0, 4.0 / 7.0, 44.0 / 49.0, 1.0, 1.0, 1.0, 2.0)
_THETA_GAP = 1.0 - THETA_C0**2 / 2.0


def theta(xi):
    """Far-field completion: xi**2/2 up to c0, then a C2 rational rise to 1."""
    xi = np.asarray(xi, dtype=float)
    t = np.maximum(xi - THETA_C0, 0.0)
    inner = 0.5 * xi**2
    outer = 1.0 - _THETA_GAP / polyval(t, _P_TAIL)
    return np.where(xi <= THETA_C0, inner, outer)


def smoothstep_cutoff(r):
    """C2 cutoff: 1 on [0, 1], quintic descent to 0 on [1, 2]."""
    return 1.0 - smoothstep(np.asarray(r, dtype=float) - 1.0)


def smoothstep_cutoff_prime(r):
    return -smoothstep_prime(np.asarray(r, dtype=float) - 1.0)


def smoothstep_cutoff_second(r):
    r = np.asarray(r, dtype=float)
    t = np.clip(r - 1.0, 0.0, 1.0)
    return -60.0 * t * (1.0 - 3.0 * t + 2.0 * t * t)


# ---------------------------------------------------------------------------
# Approximate profile
# ---------------------------------------------------------------------------


#: the wall polynomial is cut off at Y ~ s**CUTOFF_EXPONENT
CUTOFF_EXPONENT = 2.0 / 7.0


@functools.cache
def wall_coefficients() -> tuple:
    """(a4, a7, a10, a11) of the wall polynomial as floats.

    Derived by the algebra engine on first use, not at import.
    """
    c = ratpoly.profile_coefficients()
    return tuple(float(c[key]) for key in ("a4", "a7", "a10", "a11"))


def _bracket_poly(b: float, Y: np.ndarray) -> np.ndarray:
    a4, a7, a10, a11 = wall_coefficients()
    return Y * (1.0 - b * Y**3 * (a4 + a7 * b * Y**3
                                  + b * b * Y**6 * (a10 + a11 * Y)))


def eval_uapp(s: float, b: float, Y):
    """Approximate profile chi(Y/s^(2/7)) * [wall polynomial] + theta part."""
    if s <= 0.0 or b <= 0.0:
        raise DomainError("eval_uapp needs s > 0 and b > 0")
    Y = np.asarray(Y, dtype=float)
    if np.any(Y < 0.0):
        raise DomainError("eval_uapp needs Y >= 0")
    scale = s**CUTOFF_EXPONENT
    return (smoothstep_cutoff(Y / scale) * _bracket_poly(b, Y)
            + theta(np.sqrt(b) * Y) / b)


def wall_curvature(b: float, Y):
    """Curvature of the inner wall polynomial, Y**2/2 included."""
    a4, a7, a10, a11 = wall_coefficients()
    Y = np.asarray(Y, dtype=float)
    return (1.0 - 12.0 * a4 * b * Y**2 - 42.0 * a7 * b * b * Y**5
            - 90.0 * a10 * b**3 * Y**8 - 110.0 * a11 * b**3 * Y**9)


# ---------------------------------------------------------------------------
# Initial data
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class InitialData:
    """Physical-variable inflow profile with cached derivatives."""

    lambda0: float
    u0: Field
    u0_prime: Field
    u0_second: Field
    perturbation_amplitude: float
    b0: float
    s0: float
    x0_pressure: float
    inner_edge: float            # y below which u'' is the exact wall polynomial
    C0_measured: float           # smallest constant in the curvature lower bound
    compat_slope: float          # measured sup |u''-1|/y^2 near the wall

    @property
    def grid(self) -> Grid:
        return self.u0.grid


def default_physical_grid(n: int = 3073) -> Grid:
    """Inflow grid on [0, 3.2]; ``build_initial_data`` rescales its span."""
    return Grid.tanh_clustered(n, 3.2, strength=5.0)


def _perturbation(y: np.ndarray, lambda0: float, amplitude: float, c8: float):
    """Envelope-shaped corrector seed with its first two derivatives.

    amplitude * lambda0**(-3/2) * (lambda0 y**7 + c8 y**8) inside the inner
    zone, brought smoothly to zero across [1, 2] scaled by the inner edge.
    """
    edge = lambda0 ** (3.0 / 7.0)
    r = y / edge
    cut = smoothstep_cutoff(r)
    cut1 = smoothstep_cutoff_prime(r) / edge
    cut2 = smoothstep_cutoff_second(r) / edge**2
    amp = amplitude * lambda0 ** (-1.5)
    base = amp * (lambda0 * y**7 + c8 * y**8)
    base1 = amp * (7.0 * lambda0 * y**6 + 8.0 * c8 * y**7)
    base2 = amp * (42.0 * lambda0 * y**5 + 56.0 * c8 * y**6)
    v = base * cut
    v1 = base1 * cut + base * cut1
    v2 = base2 * cut + 2.0 * base1 * cut1 + base * cut2
    return v, v1, v2


def build_initial_data(lambda0: float, grid: Optional[Grid] = None,
                       perturbation_amplitude: float = 0.0,
                       x0_pressure: float = 1.0) -> InitialData:
    """Construct inflow data with wall shear ``lambda0``.

    The curvature equals the exact wall polynomial of the reference profile
    up to y1 = lambda0**(3/7) (argument saturated smoothly beyond, where the
    polynomial has no meaning), decays through exp(-tau**3), and the slope
    is brought to zero at the far edge by a C2 descent window whose onset
    is solved so that u(y_max) = sqrt(2 x0) exactly on the grid.
    """
    if not 0.0 < lambda0 <= 0.2:
        raise DomainError("lambda0 must lie in (0, 0.2]")
    if grid is None:
        grid = default_physical_grid()
    y1 = lambda0 ** (3.0 / 7.0)
    if grid.span < 6.0 * y1:
        raise DomainError("grid span must cover at least 6 * lambda0^(3/7)")

    b0 = lambda0 * lambda0
    s0 = 1.0 / b0

    # slope profile: h = lambda0 + int g_base (increasing, bounded), then a
    # C2 descent window D sends the slope to zero exactly at the far edge;
    # the single descent-onset parameter is solved so u(y_max) hits the
    # outer-flow speed on this grid's own quadrature.  The supplied grid is
    # a resolution/clustering template: its span is rescaled as needed so
    # the matching problem brackets.
    from scipy.optimize import brentq

    u_inf = np.sqrt(2.0 * x0_pressure)

    def curvature_on(grid_: Grid):
        y_ = grid_.nodes
        r_ = y_ / y1
        sat_ = np.where(r_ <= 1.0,
                        r_, 1.0 + 0.7 * np.tanh((np.maximum(r_, 1.0) - 1.0) / 0.7))
        g_ = wall_curvature(b0, sat_ * (y1 / lambda0))
        tau_ = np.maximum(y_ - y1, 0.0) / 0.9
        return g_ * np.exp(-(tau_**3))

    def shaped(grid_: Grid):
        y_ = grid_.nodes
        span_ = grid_.span
        g_base_ = curvature_on(grid_)
        h_ = lambda0 + cumint(Field(grid_, g_base_)).values

        def descent(y_c: float) -> np.ndarray:
            return 1.0 - smoothstep((y_ - y_c) / (span_ - y_c))

        def descent_prime(y_c: float) -> np.ndarray:
            return -smoothstep_prime((y_ - y_c) / (span_ - y_c)) / (span_ - y_c)

        def far_value(y_c: float) -> float:
            return float(cumint(Field(grid_, h_ * descent(y_c))).values[-1])

        return g_base_, h_, descent, descent_prime, far_value

    for _ in range(60):
        g_base, h, descent, descent_prime, far_value = shaped(grid)
        lo, hi = 1.05 * y1, 0.98 * grid.span
        v_lo, v_hi = far_value(lo), far_value(hi)
        if v_lo > u_inf:
            grid = Grid(grid.nodes * 0.92, grid.stretching)
            continue
        if v_hi < u_inf:
            grid = Grid(grid.nodes * 1.12, grid.stretching)
            continue
        break
    else:
        raise InvalidInitialDataError("could not bracket the outer-speed matching")
    if grid.span < 4.5 * y1:
        raise InvalidInitialDataError("matched span leaves too little inner room")
    y = grid.nodes

    y_c = brentq(lambda yc: far_value(yc) - u_inf, lo, hi, xtol=1e-14, rtol=8.9e-16)

    D = descent(y_c)
    u_prime = h * D
    g = g_base * D + h * descent_prime(y_c)
    u_vals = cumint(Field(grid, u_prime)).values

    c8 = float(ratpoly.perturbation_y8_weight())
    v, v1, v2 = _perturbation(y, lambda0, perturbation_amplitude, c8)
    u_vals = u_vals + v
    u_prime = u_prime + v1
    g = g + v2

    # -- invariant checks ------------------------------------------------------
    if abs(u_vals[-1] - u_inf) > 1e-9 * u_inf:
        raise InvalidInitialDataError(
            f"far-field mismatch: u(y_max) = {u_vals[-1]:.12f}, want {u_inf:.12f}"
        )
    if np.any(u_prime[:-1] <= 0.0) or u_prime[-1] < -1e-12:
        raise InvalidInitialDataError("u0 is not strictly increasing on the grid")
    if np.max(g) > 1.0 + 1e-12:
        raise InvalidInitialDataError("curvature exceeds 1 somewhere")
    defect = 1.0 - g
    envelope = np.minimum(y * y, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(envelope > 0, defect / envelope, 0.0)
    C0 = float(np.max(ratio))
    inner = (y > 0) & (y < 0.5 * y1)
    compat = float(np.max(np.abs((g[inner] - 1.0)) / y[inner] ** 2)) if inner.any() else 0.0

    return InitialData(
        lambda0=lambda0,
        u0=Field(grid, u_vals),
        u0_prime=Field(grid, u_prime),
        u0_second=Field(grid, g),
        perturbation_amplitude=perturbation_amplitude,
        b0=b0,
        s0=s0,
        x0_pressure=x0_pressure,
        inner_edge=y1,
        C0_measured=C0,
        compat_slope=compat,
    )


def check_wellprepared(U0: Field, s0: float, eta: float = 0.1) -> dict:
    """Scaled smallness report for rescaled initial data (diagnostic only)."""
    from . import energies  # local import; energies depends on this module

    if s0 <= 1.0:
        raise DomainError("s0 must exceed 1")
    from .operators import OperatorContext

    ctx = OperatorContext.from_profile(U0, slope_tol=1e-3)
    b0 = 1.0 / s0
    V = energies.compute_V(U0, s0, b0)
    report = energies.energy_report(ctx, V, s0, b0, 0.0)
    Y = U0.grid.nodes
    a4 = wall_coefficients()[0]
    # curvature-based modulation estimate: U_YY ~ 1 - 12 a4 b Y^2 near wall
    window = (Y > 0.2) & (Y < 1.5)
    uyy = ctx.U_YY.values
    b_est = float(np.mean((1.0 - uyy[window]) / (12.0 * a4 * Y[window] ** 2)))
    bounds_ok = bool(np.max(uyy) <= 1.0 + 5e-3)
    return {
        "E1_scaled": report.E1 * s0 ** (13.0 / 4.0 + eta / 2.0),
        "E2_scaled": report.E2 * s0**5,
        "b_gap": abs(b_est - b0) * s0,
        "UYY_bounds_ok": bounds_ok,
    }
