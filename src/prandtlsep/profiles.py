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

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.polynomial import polyval

from . import ratpoly
from .errors import DomainError, InvalidInitialDataError
from .gridfields import (Field, Grid, brentq, cumint, smoothstep,
                         smoothstep_prime)

#: largest inflow wall shear: lambda0 must lie in (0, LAMBDA0_MAX], which
#: ``build_initial_data`` and the run configuration both enforce
LAMBDA0_MAX = 0.2

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


def wall_coefficients() -> tuple:
    """(a4, a7, a10, a11) of the wall polynomial as floats."""
    c = ratpoly.WALL_COEFFICIENTS
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
    s0: float

    @property
    def grid(self) -> Grid:
        return self.u0.grid


def default_physical_grid(n: int) -> Grid:
    """Inflow grid of n nodes on [0, 3.2]; ``build_initial_data`` rescales
    its span."""
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


def build_initial_data(lambda0: float, grid: Grid, perturbation_amplitude: float,
                       x0_pressure: float) -> InitialData:
    """Construct inflow data with wall shear ``lambda0``.

    The curvature equals the exact wall polynomial of the reference profile
    up to y1 = lambda0**(3/7) (argument saturated smoothly beyond, where the
    polynomial has no meaning), decays through exp(-tau**3), and the slope
    is brought to zero at the far edge by a C2 descent window whose onset
    is solved so that u(y_max) = sqrt(2 x0) exactly on the grid.
    """
    if not 0.0 < lambda0 <= LAMBDA0_MAX:
        raise DomainError(f"lambda0 must lie in (0, {LAMBDA0_MAX:g}]")
    y1 = lambda0 ** (3.0 / 7.0)
    if grid.span < 6.0 * y1:
        raise DomainError("grid span must cover at least 6 * lambda0^(3/7)")

    b0 = lambda0 * lambda0
    s0 = 1.0 / b0 if b0 > 0.0 else np.inf
    if not np.isfinite(s0):
        raise DomainError(f"lambda0 = {lambda0!r}: 1/lambda0**2 is not finite")

    # slope profile: h = lambda0 + int g_base (increasing, bounded), then a
    # C2 descent window D sends the slope to zero exactly at the far edge;
    # the single descent-onset parameter y_c is solved so u(y_max) hits the
    # outer-flow speed on this grid's own quadrature.  The supplied grid is
    # a resolution/clustering template: its span is rescaled as needed so
    # the matching problem brackets.
    u_inf = np.sqrt(2.0 * x0_pressure)
    for _ in range(60):
        y, span = grid.nodes, grid.span
        r = y / y1
        sat = np.where(r <= 1.0,
                       r, 1.0 + 0.7 * np.tanh((np.maximum(r, 1.0) - 1.0) / 0.7))
        tau = np.maximum(y - y1, 0.0) / 0.9
        # a tiny lambda0 overflows the powers; the far-value check reports it
        with np.errstate(over="ignore", invalid="ignore"):
            g_base = wall_curvature(b0, sat * (y1 / lambda0)) * np.exp(-(tau**3))
        h = lambda0 + cumint(Field(grid, g_base)).values

        def far_value(y_c: float) -> float:
            D = 1.0 - smoothstep((y - y_c) / (span - y_c))
            return float(cumint(Field(grid, h * D)).values[-1])

        lo, hi = 1.05 * y1, 0.98 * span
        v_lo, v_hi = far_value(lo), far_value(hi)
        if not (np.isfinite(v_lo) and np.isfinite(v_hi)):
            raise InvalidInitialDataError(
                f"lambda0 = {lambda0!r}: the outer-speed matching is not finite")
        if v_lo > u_inf:
            grid = Grid(y * 0.92)
            continue
        if v_hi < u_inf:
            grid = Grid(y * 1.12)
            continue
        break
    else:
        raise InvalidInitialDataError("could not bracket the outer-speed matching")
    if span < 4.5 * y1:
        raise InvalidInitialDataError("matched span leaves too little inner room")

    y_c = brentq(lambda yc: far_value(yc) - u_inf, lo, hi, xtol=1e-14)

    t = (y - y_c) / (span - y_c)
    D = 1.0 - smoothstep(t)
    u_prime = h * D
    g = g_base * D - h * (smoothstep_prime(t) / (span - y_c))
    u_vals = cumint(Field(grid, u_prime)).values

    v, v1, v2 = _perturbation(y, lambda0, perturbation_amplitude,
                              float(ratpoly.PERTURBATION_Y8_WEIGHT))
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

    return InitialData(
        lambda0=lambda0,
        u0=Field(grid, u_vals),
        u0_prime=Field(grid, u_prime),
        u0_second=Field(grid, g),
        s0=s0,
    )
