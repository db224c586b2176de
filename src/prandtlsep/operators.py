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
from typing import Tuple

import numpy as np
from numpy.polynomial.polynomial import polyval

from .errors import InvalidProfileError, SingularInputError
from .gridfields import Field, cumint, diff, lstsq_powers, smoothstep


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

#: windows for the chained diffusion applications: each stage's fit
#: window must clear the previous stage's blend junction.
CHAIN_FITS = (
    WallFit(lo=0.25, hi=2.0, powers=(2, 3, 4, 5, 6, 7), rel_tol=0.25),
    WallFit(lo=0.6, hi=3.0, powers=(2, 3, 4, 5, 6), rel_tol=0.4),
)


def clu_chain(ctx: "OperatorContext", v: "Field", k: int) -> "Field":
    """k-fold application of the diffusion operator with staged windows."""
    out = v
    for j in range(k):
        out = op_cLU(ctx, out, CHAIN_FITS[min(j, len(CHAIN_FITS) - 1)])
    return out


def _series_div(num, den, order):
    """Power-series quotient num/den up to Y**order; den[0] != 0."""
    out = np.zeros(order + 1)
    acc = np.concatenate([np.asarray(num, dtype=float), np.zeros(order + 1)])
    den = np.concatenate([np.asarray(den, dtype=float), np.zeros(order + 1)])
    for k in range(order + 1):
        out[k] = acc[k] / den[0]
        acc[k : order + 1] -= out[k] * den[: order + 1 - k]
    return out


def _window_indices(y: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Nodes in [lo, hi], with hi widened until the window holds 8 nodes."""
    min_nodes = 8
    idx = np.nonzero((y >= lo) & (y <= hi))[0]
    hi_eff = hi
    while len(idx) < min_nodes and hi_eff < y[-1]:
        hi_eff *= 1.6
        idx = np.nonzero((y >= lo) & (y <= hi_eff))[0]
    if len(idx) < min_nodes:
        raise SingularInputError("grid too coarse for the wall-fit window")
    return idx


@dataclass(frozen=True, eq=False)
class OperatorContext:
    """Rescaled profile plus cached derivatives and wall Taylor data.

    ``near_wall``: (c1, c2, c3, c4) with U = c1 Y + c2 Y**2 + c3 Y**3
    + c4 Y**4 near the wall; c1 must sit at 1 within ``slope_tol``.
    """

    U: Field
    U_Y: Field
    U_YY: Field
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
        idx = _window_indices(y, y[1], DEFAULT_FIT.hi)
        c = lstsq_powers(y[idx], vals[idx], (1, 2, 3, 4))
        if abs(c[0] - 1.0) > slope_tol:
            raise InvalidProfileError(
                f"wall slope {c[0]:.8f} outside 1 +/- {slope_tol:g}"
            )
        return cls(U, diff(U, 1), diff(U, 2), tuple(float(x) for x in c))

    @property
    def grid(self):
        return self.U.grid


def _fit_vanishing(ctx: OperatorContext, f: np.ndarray, fit: WallFit,
                   min_power: int = 2, scale_hint: float = 0.0) -> np.ndarray:
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
    idx = _window_indices(y, fit.lo, fit.hi)
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
    if min_power >= 3:
        window_scale = max(float(np.max(np.abs(f[idx]))), 1e-300)
        if abs(coeffs[0]) * span**2 > fit.rel_tol * window_scale + 1e-14:
            raise SingularInputError("input does not vanish to O(Y^3) at the wall")
    return coeffs


def _wall_patched(y: np.ndarray, raw_tail: np.ndarray, model: np.ndarray,
                  fit: WallFit) -> np.ndarray:
    """A singular quotient spliced with its wall-series model.

    ``raw_tail`` holds the quotient on nodes 1.., where it is defined; the
    wall node takes the model's value.  Below fit.lo the model replaces the
    raw values, above fit.blend_hi they are kept, and a C2 smoothstep blends
    the two in between: the quintic ramp keeps the result twice
    differentiable, so a later derivative stage sees no junction spike.
    """
    out = np.empty_like(model)
    out[1:] = raw_tail
    out[0] = model[0]
    inside = y <= fit.blend_hi
    s = smoothstep((y[inside] - fit.lo) / (fit.blend_hi - fit.lo))
    out[inside] = (1.0 - s) * model[inside] + s * out[inside]
    return out


def _model_series(ctx: OperatorContext, coeffs, fit: WallFit):
    """Wall series (in Y) of f/U**2 and f/U given the Y**2.. model of f."""
    c = np.asarray(ctx.near_wall)  # U/Y series
    f_over_y2 = np.asarray(coeffs, dtype=float)  # f/Y^2 series
    over_u2 = _series_div(f_over_y2, np.convolve(c, c), 5)
    over_u = _series_div(f_over_y2, c, 5)  # (f/Y^2)/(U/Y) = f/(UY)
    return over_u2, over_u


def _patched_quotients(ctx: OperatorContext, f: np.ndarray, coeffs, fit: WallFit):
    """(f/U**2, f/U) with the sub-window region replaced by the fit model."""
    y = ctx.grid.nodes
    u = ctx.U.values
    over_u2, over_u = _model_series(ctx, coeffs, fit)
    g = _wall_patched(y, f[1:] / u[1:] ** 2, polyval(y, over_u2), fit)
    h = _wall_patched(y, f[1:] / u[1:], polyval(y, over_u) * y, fit)
    return g, h


def op_Linv(ctx: OperatorContext, f: Field, fit: WallFit = DEFAULT_FIT,
            scale_hint: float = 0.0) -> Field:
    """Inverse of L_U:  U_Y int_0^Y f/U**2 + f/U, for f vanishing like Y**2."""
    coeffs = _fit_vanishing(ctx, f.values, fit, scale_hint=scale_hint)
    g, h = _patched_quotients(ctx, f.values, coeffs, fit)
    integral = cumint(f.with_values(g)).values
    return f.with_values(ctx.U_Y.values * integral + h)


def op_cLU(ctx: OperatorContext, v: Field, fit: WallFit = DEFAULT_FIT) -> Field:
    """Diffusion operator: inverse of L_U applied to the Y-curvature of v."""
    return op_Linv(ctx, diff(v, 2), fit)


def op_diffusion(ctx: OperatorContext, fit: WallFit = DEFAULT_FIT) -> Field:
    """Inverse of L_U applied to (U_YY - 1); needs wall compatibility."""
    defect = ctx.U_YY.with_values(ctx.U_YY.values - 1.0)
    return op_Linv(ctx, defect, fit, scale_hint=float(abs(ctx.U_YY.values).max()))


def op_commutator(ctx: OperatorContext, D: Field, w: Field,
                  fit: WallFit = DEFAULT_FIT) -> Field:
    """Commutator source: -(D int_0^Y w/U**2)_Y + 2 (U int_0^Y (w/U**3) D)_Y."""
    coeffs = _fit_vanishing(ctx, w.values, fit)
    g, _ = _patched_quotients(ctx, w.values, coeffs, fit)
    i1 = cumint(w.with_values(g)).values
    term1 = -ctx.grid.apply_diff(D.values * i1, 1)

    y = ctx.grid.nodes
    u = ctx.U.values
    idx = _window_indices(y, fit.lo, fit.hi)
    dc = lstsq_powers(y[idx], D.values[idx], (1, 2, 3))
    ratio = _series_div(dc, ctx.near_wall, 4)  # (D/Y)/(U/Y) = D/U
    d_over_u = _wall_patched(y, D.values[1:] / u[1:], polyval(y, ratio), fit)
    i2 = cumint(w.with_values(g * d_over_u)).values
    term2 = 2.0 * ctx.grid.apply_diff(u * i2, 1)
    return w.with_values(term1 + term2)


def dLinv(ctx: OperatorContext, w: Field, order: int,
          fit: WallFit = DEFAULT_FIT) -> Field:
    """Closed-form Y-derivatives of the inverse operator (order 1, 2 or 3).

    order 1:  U_YY I + w_Y / U
    order 2:  U_YYY I + U_YY w/U**2 + (w_YY U - w_Y U_Y)/U**2
    order 3:  U_YYYY I + 2 (U U_YYY - U_YY U_Y) w/U**3
              + (2 U_Y**2 w_Y - 2 U_Y w_YY U + w_YYY U**2)/U**3
    with I = int_0^Y w/U**2.  Order 3 needs w vanishing like Y**3.  The
    singular groupings are evaluated from Taylor quotients below the fit
    window.
    """
    if order not in (1, 2, 3):
        raise ValueError("order must be 1, 2 or 3")
    coeffs = _fit_vanishing(ctx, w.values, fit, min_power=3 if order == 3 else 2)
    y = ctx.grid.nodes
    u = ctx.U.values
    uy = ctx.U_Y.values
    uyy = ctx.U_YY.values
    g, _ = _patched_quotients(ctx, w.values, coeffs, fit)
    integral = cumint(w.with_values(g)).values

    def ser(a, n=8):
        a = np.asarray(a, dtype=float)
        return a[:n] if len(a) >= n else np.concatenate([a, np.zeros(n - len(a))])

    def sder(a):
        return np.array([k * a[k] for k in range(1, len(a))])

    mul = np.convolve
    w_ser = ser(np.concatenate([[0.0, 0.0], coeffs]))
    u_ser = ser(np.concatenate([[0.0], ctx.near_wall]))
    wy_ser = ser(sder(w_ser))
    wyy_ser = ser(sder(wy_ser))
    wyyy_ser = ser(sder(wyy_ser))
    uy_ser = ser(sder(u_ser))
    w_y = ctx.grid.apply_diff(w.values, 1)

    def patched(raw_tail: np.ndarray, num_series, den_series, shift: int) -> np.ndarray:
        model = polyval(y, _series_div(ser(num_series)[shift : shift + 5],
                                       den_series, 4))
        return _wall_patched(y, raw_tail, model, fit)

    cpoly = np.asarray(ctx.near_wall)

    if order == 1:
        term = patched(w_y[1:] / u[1:], wy_ser, cpoly, 1)
        return w.with_values(uyy * integral + term)

    if order == 2:
        u3 = diff(ctx.U_YY, 1).values
        w_yy = ctx.grid.apply_diff(w.values, 2)
        num = mul(wyy_ser, u_ser) - mul(wy_ser, uy_ser)
        term = patched((w_yy[1:] * u[1:] - w_y[1:] * uy[1:]) / u[1:] ** 2,
                       num, mul(cpoly, cpoly), 2)
        return w.with_values(u3 * integral + uyy * g + term)

    u3 = diff(ctx.U_YY, 1).values
    u4 = ctx.grid.apply_diff(ctx.U_YY.values, 2)
    w_yy = ctx.grid.apply_diff(w.values, 2)
    w_yyy = ctx.grid.apply_diff(w.values, 3)
    den3 = mul(mul(cpoly, cpoly), cpoly)
    pref = 2.0 * (u * u3 - uyy * uy)
    w_over_u3 = patched(w.values[1:] / u[1:] ** 3, w_ser, den3, 3)
    tail_num = (
        2.0 * ser(mul(mul(uy_ser, uy_ser), wy_ser))
        - 2.0 * ser(mul(mul(uy_ser, wyy_ser), u_ser))
        + ser(mul(wyyy_ser, mul(u_ser, u_ser)))
    )
    tail_raw = (
        2.0 * uy[1:] ** 2 * w_y[1:]
        - 2.0 * uy[1:] * w_yy[1:] * u[1:]
        + w_yyy[1:] * u[1:] ** 2
    ) / u[1:] ** 3
    tail = patched(tail_raw, tail_num, den3, 3)
    return w.with_values(u4 * integral + pref * w_over_u3 + tail)


def wall_slope_extrapolation(f: Field) -> float:
    """Quadratic-in-Y extrapolation of a field to Y = 0 over nodes 2-6.

    The first interior node is skipped: it carries the largest
    discretization error of the operator chain.
    """
    y = f.grid.nodes[2:7]
    v = f.values[2:7]
    cols = np.stack([np.ones_like(y), y, y * y], axis=1)
    sol, *_ = np.linalg.lstsq(cols, v, rcond=None)
    return float(sol[0])
