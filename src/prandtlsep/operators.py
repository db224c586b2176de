"""Discrete non-local operators of the rescaled wall equation.

Everything here revolves around the product ``L_U w = U w - U_Y int_0^Y w``
and its explicit inverse ``Linv f = U_Y int_0^Y f/U**2 + f/U``.  The profile
behaves like Y at the wall, so the naive integrand f/U**2 is a 0/0 there.

Each entry point therefore fits the input near the wall with a short
polynomial starting at Y**2 (the vanishing order the inverse assumes) over
a window of clean nodes, and evaluates the singular quotients from that
model below the window.  The fit has a second, equally important job on
marched data: differencing noise on the tiny wall cells would otherwise be
amplified through repeated applications of the operator chain, and the
windowed fit projects it out.  All operators expect profiles in wall units
(unit slope at Y = 0), which pins the natural window scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Tuple

import numpy as np
from numpy.polynomial.polynomial import polyval

from .errors import InvalidProfileError, SingularInputError
from .gridfields import (Field, cumint, diff, lstsq_powers, smoothstep,
                         wall_window)


@dataclass(frozen=True)
class WallFit:
    """Window and model for the near-wall fits.

    Nodes with ``lo <= Y <= hi`` feed the least-squares model; everything
    below ``lo`` is replaced by the model, with a smooth blend back to the
    raw data over ``[lo, blend_hi]``.
    """

    lo: float = 0.02
    hi: float = 0.35
    powers: Tuple[int, ...] = (2, 3, 4, 5)
    rel_tol: float = 5e-2

    @property
    def blend_hi(self) -> float:
        return 2.0 * self.lo


DEFAULT_FIT = WallFit()

#: fit windows of the stages L V and L**2 V of the energy chain
#: (L = op_Linv o d2/dY2): each stage's fit window must clear the previous
#: stage's blend junction.
CHAIN_FITS = (
    WallFit(lo=0.25, hi=2.0, powers=(2, 3, 4, 5, 6, 7), rel_tol=0.25),
    WallFit(lo=0.6, hi=3.0, powers=(2, 3, 4, 5, 6), rel_tol=0.4),
)


def _series_div(num, den, order):
    """Power-series quotient num/den up to Y**order, on Python floats; den[0] != 0."""
    acc = [float(x) for x in num] + [0.0] * (order + 1)
    den = [float(x) for x in den] + [0.0] * (order + 1)
    out = []
    for k in range(order + 1):
        out.append(acc[k] / den[0])
        for j in range(k, order + 1):
            acc[j] -= out[k] * den[j - k]
    return out


@dataclass(frozen=True, eq=False)
class OperatorContext:
    """Rescaled profile plus cached derivatives and wall Taylor data.

    ``near_wall``: (c1, c2, c3, c4) with U = c1 Y + c2 Y**2 + c3 Y**3
    + c4 Y**4 near the wall; c1 must sit at 1 within ``slope_tol``.
    ``U_Y`` and ``U_YY`` are differenced on first read, if at all.
    """

    U: Field
    near_wall: Tuple[float, float, float, float]

    @classmethod
    def from_profile(cls, U: Field, slope_tol: float = 1e-6) -> "OperatorContext":
        y = U.grid.nodes
        vals = U.values
        scale = float(np.max(np.abs(vals)))
        if abs(vals[0]) > 1e-9 * max(scale, 1.0):
            raise InvalidProfileError("profile must vanish at the wall")
        if np.any(vals[1:] <= 0.0):
            raise InvalidProfileError("profile must be positive away from the wall")
        idx = wall_window(y, y[1], DEFAULT_FIT.hi)
        c = lstsq_powers(y[idx], vals[idx], (1, 2, 3, 4))
        if abs(c[0] - 1.0) > slope_tol:
            raise InvalidProfileError(
                f"wall slope {c[0]:.8f} outside 1 +/- {slope_tol:g}"
            )
        return cls(U, tuple(float(x) for x in c))

    @cached_property
    def U_Y(self) -> Field:
        return diff(self.U, 1)

    @cached_property
    def U_YY(self) -> Field:
        return diff(self.U, 2)

    @property
    def grid(self):
        return self.U.grid


def _fit_vanishing(ctx: OperatorContext, f: np.ndarray, fit: WallFit,
                   scale_hint: float = 0.0) -> np.ndarray:
    """Model coefficients of f over the wall window, starting at Y**2.

    A probe fit with constant and linear columns measures the content of f
    that does not vanish to second order; if that content is a non-trivial
    fraction of the field scale the input is rejected.  Otherwise the
    probe's low-order part is discarded (projected out) and the
    vanishing-model coefficients are returned.  ``scale_hint`` lets callers
    supply the natural magnitude of f when f itself may be numerically zero
    (e.g. a curvature defect).
    """
    y = ctx.grid.nodes
    idx = wall_window(y, fit.lo, fit.hi)
    coeffs = lstsq_powers(y[idx], f[idx], fit.powers)
    scale = max(float(np.max(np.abs(f))), scale_hint, 1e-300)
    span = y[idx][-1]
    # probe the model residual for constant/linear content: structure the
    # vanishing model can represent must not trip the check
    resid = f[idx] - polyval(y[idx], np.concatenate([[0.0] * fit.powers[0], coeffs]))
    probe = lstsq_powers(y[idx], resid, (0, 1))
    low = abs(probe[0]) + abs(probe[1]) * span
    if low > fit.rel_tol * scale + 1e-14:
        raise SingularInputError(
            f"input does not vanish to O(Y^2) at the wall "
            f"(low-order content {low:.3e} vs scale {scale:.3e})"
        )
    return coeffs


def _wall_patched(y: np.ndarray, raw_tail: np.ndarray, series,
                  fit: WallFit) -> np.ndarray:
    """A singular quotient spliced with its wall-series model.

    ``raw_tail`` holds the quotient on nodes 1.., where it is defined; the
    model, the power ``series``, is evaluated on Y <= fit.blend_hi only.
    The wall node takes its value, below fit.lo it replaces the raw values,
    above fit.blend_hi they are kept, and a C2 smoothstep blends the two in
    between, so a later derivative stage sees no junction spike.
    """
    m = y.searchsorted(fit.blend_hi, "right")
    model = polyval(y[:m], series)
    out = np.concatenate((model[:1], raw_tail))
    s = smoothstep((y[:m] - fit.lo) / (fit.blend_hi - fit.lo))
    out[:m] = (1.0 - s) * model + s * out[:m]
    return out


def _patched_over_u2(ctx: OperatorContext, f: np.ndarray, coeffs, fit: WallFit):
    """f/U**2 spliced with its model from ``coeffs``, the f/Y**2 series."""
    c = ctx.near_wall  # the U/Y series
    return _wall_patched(ctx.grid.nodes, f[1:] / ctx.U.values[1:] ** 2,
                         _series_div(coeffs, np.convolve(c, c), 5), fit)


def op_Linv(ctx: OperatorContext, f: Field, fit: WallFit = DEFAULT_FIT,
            scale_hint: float = 0.0) -> Field:
    """Inverse of L_U:  U_Y int_0^Y f/U**2 + f/U, for f vanishing like Y**2."""
    coeffs = _fit_vanishing(ctx, f.values, fit, scale_hint=scale_hint)
    g = _patched_over_u2(ctx, f.values, coeffs, fit)
    # f/U = Y (f/Y**2)/(U/Y): the f/Y**2 series over U/Y, one power up
    h = _wall_patched(ctx.grid.nodes, f.values[1:] / ctx.U.values[1:],
                      [0.0] + _series_div(coeffs, ctx.near_wall, 5), fit)
    integral = cumint(f.with_values(g)).values
    return f.with_values(ctx.U_Y.values * integral + h)


def op_diffusion(ctx: OperatorContext, fit: WallFit) -> Field:
    """Inverse of L_U applied to (U_YY - 1); needs wall compatibility."""
    defect = ctx.U_YY.with_values(ctx.U_YY.values - 1.0)
    return op_Linv(ctx, defect, fit, scale_hint=float(abs(ctx.U_YY.values).max()))


def op_commutator(ctx: OperatorContext, D: Field, w: Field, fit: WallFit) -> Field:
    """Commutator source: -(D int_0^Y w/U**2)_Y + 2 (U int_0^Y (w/U**3) D)_Y."""
    coeffs = _fit_vanishing(ctx, w.values, fit)
    g = _patched_over_u2(ctx, w.values, coeffs, fit)
    i1 = cumint(w.with_values(g)).values
    term1 = -ctx.grid.apply_diff(D.values * i1, 1)

    y, u = ctx.grid.nodes, ctx.U.values
    idx = wall_window(y, fit.lo, fit.hi)
    dc = lstsq_powers(y[idx], D.values[idx], (1, 2, 3))
    ratio = _series_div(dc, ctx.near_wall, 4)  # (D/Y)/(U/Y) = D/U
    d_over_u = _wall_patched(y, D.values[1:] / u[1:], ratio, fit)
    i2 = cumint(w.with_values(g * d_over_u)).values
    term2 = 2.0 * ctx.grid.apply_diff(u * i2, 1)
    return w.with_values(term1 + term2)


def wall_slope_extrapolation(f: Field) -> float:
    """Quadratic-in-Y extrapolation of a field to Y = 0 over nodes 2-6.

    The first interior node is skipped: it carries the largest
    discretization error of the operator chain.
    """
    return float(lstsq_powers(f.grid.nodes[2:7], f.values[2:7], (0, 1, 2))[0])
