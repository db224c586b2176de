"""Weighted energies, dissipations, and trace diagnostics of the corrector.

The corrector is V = U - U_app.  The controlled quantities are

    E_k = int (d2/dY2 L^k V)**2 w_k,      L = (inverse operator) o d2/dY2,
    D_k = int (d3 L^k V)**2 / U w_k + int (d2 L^k V)**2 / U**2 w_k,

with weights w = Y**(-a) (1 + s**(-beta) Y)**(-m) that see nothing beyond
Y ~ s**beta.  The wall trace of d/dY L**2 V reads the modulation defect:
it must equal -(b_s + b**2)/2.

Integrals start at the first interior node (the weight is singular but
integrable at the wall; the first-cell head is below every tolerance used
here) and are truncated at the grid edge.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import profiles
from .errors import DomainError
from .gridfields import Field, cumtrapz, diff, lstsq_powers
from .operators import (CHAIN_FITS, OperatorContext, clu_chain, op_cLU,
                        wall_slope_extrapolation)


@dataclass(frozen=True)
class WeightSpec:
    """w(s, Y) = Y**(-a) (1 + s**(-beta) Y)**(-m)."""

    a: float
    beta: float
    m: int

    def __post_init__(self):
        if not 0.0 <= self.a < 1.0:
            raise DomainError("weight exponent a must lie in [0, 1)")
        if self.m < 0:
            raise DomainError("weight power m must be non-negative")
        if self.m > 0 and not 0.25 < self.beta < 2.0 / 7.0:
            raise DomainError("weight scale beta must lie in (1/4, 2/7)")

    @classmethod
    def default_w0(cls) -> "WeightSpec":
        return cls(a=0.05, beta=0.28, m=20)

    @classmethod
    def default_w1(cls) -> "WeightSpec":
        return cls(a=0.05, beta=0.27, m=40)

    @classmethod
    def default_w2(cls) -> "WeightSpec":
        return cls(a=0.05, beta=0.26, m=80)


def weight_eval(spec: WeightSpec, s: float, Y: np.ndarray) -> np.ndarray:
    """Pointwise weight; the wall node carries a 0 sentinel when a > 0.

    (The true weight diverges like Y**(-a) there; quadratures here start at
    the first interior node, which the sentinel implements.)
    """
    if s <= 0.0:
        raise DomainError("weight needs s > 0")
    Y = np.asarray(Y, dtype=float)
    out = np.empty_like(Y)
    pos = Y > 0.0
    out[pos] = Y[pos] ** (-spec.a) * (1.0 + s ** (-spec.beta) * Y[pos]) ** (-spec.m)
    out[~pos] = 0.0 if spec.a > 0 else 1.0
    return out


@dataclass(frozen=True)
class EnergyReport:
    s: float
    E0: float
    E1: float
    E2: float
    D0: float
    D1: float
    D2: float
    trace_residual: float
    bs_plus_b2: float
    resolved: bool = True


def compute_V(U: Field, s: float, b: float) -> Field:
    """Corrector V = U - U_app(s, b) on U's grid."""
    uapp = profiles.eval_uapp(s, b, U.grid.nodes)
    return U.with_values(U.values - uapp)


def v_wall_ratio(V: Field, lo: float = 0.05, hi: float = 0.5) -> float:
    """Fitted V / Y**7 over a wall window (leading corrector coefficient)."""
    y = V.grid.nodes
    idx = np.nonzero((y >= lo) & (y <= hi))[0]
    if len(idx) < 4:
        raise DomainError("wall window under-resolved")
    return float(lstsq_powers(y[idx], V.values[idx], (7, 8))[0])


def weighted_integral(values_sq: np.ndarray, grid, spec: WeightSpec, s: float) -> float:
    """int values_sq * w over the grid, starting at the first interior node."""
    w = weight_eval(spec, s, grid.nodes)
    integrand = values_sq * w
    return float(np.trapezoid(integrand, grid.nodes))


def trace_inequality_audit(f: Field, L: float, a: float, c_bar: float = 8.0) -> dict:
    """|f(0)|**2 <= C (L**(1+a) int (f')**2 Y**-a + L**(a-3) int f**2 (Y+Y**2) Y**-a).

    C = 8 is an admissible concrete constant for a <= 1 (the two window
    integrals carry factors 7(3-a)/6 and 2(3-a) respectively).
    """
    y = f.grid.nodes
    if L > f.grid.span or L < y[1]:
        raise DomainError("window edge outside the grid")
    inside = y <= L
    fy = diff(f, 1).values
    ya = np.zeros_like(y)
    ya[1:] = y[1:] ** (-a)
    i1 = float(np.trapezoid((fy[inside] ** 2 * ya[inside]), y[inside]))
    i2 = float(np.trapezoid((f.values[inside] ** 2 * (y[inside] + y[inside] ** 2) * ya[inside]),
                        y[inside]))
    lhs = float(f.values[0] ** 2)
    rhs = c_bar * (L ** (1.0 + a) * i1 + L ** (a - 3.0) * i2)
    return {"lhs": lhs, "rhs": rhs, "holds": bool(lhs <= rhs * (1.0 + 1e-9))}


def coercivity_audit(ctx: OperatorContext, f: Field, spec: WeightSpec, s: float,
                     c_bar: float = 1.0 / 50.0, delta: float = 1.0 / 50.0,
                     c_zone: float = 0.7) -> dict:
    """Compare the diffusion quadratic form against its coercive minorant.

    lhs  = -int (d2/dY2 Linv f) f w
    quad = c_bar (int (f')**2/U w + int f**2/U**2 w) - delta b int f**2 w

    The dropped cross-window tail of the underlying inequality is evaluated
    separately (unit constant) and reported, not subtracted.
    """
    from .operators import dLinv

    y = ctx.grid.nodes
    u = ctx.U.values
    w = weight_eval(spec, s, y)
    d2 = dLinv(ctx, f, 2)
    lhs = -float(np.trapezoid(d2.values * f.values * w, y))
    fy = diff(f, 1).values
    quad_vals = np.zeros_like(y)
    quad_vals[1:] = fy[1:] ** 2 / u[1:] + f.values[1:] ** 2 / u[1:] ** 2
    quad = float(np.trapezoid(quad_vals * w, y))
    mass = float(np.trapezoid(f.values**2 * w, y))
    b = 1.0 / s
    rhs = c_bar * quad - delta * b * mass
    # tail term: int_{c s^{1/3}} U ( int_0^Y (1 - cutoff(Y/s^{1/4})) f/U^2 )^2 w
    cut = profiles.smoothstep_cutoff(y / s**0.25)
    integrand = np.zeros_like(y)
    integrand[1:] = (1.0 - cut[1:]) * f.values[1:] / u[1:] ** 2
    inner = cumtrapz(integrand, y)
    outer_zone = y >= c_zone * s ** (1.0 / 3.0)
    tail = float(np.trapezoid((u * inner**2 * w)[outer_zone], y[outer_zone])) if outer_zone.any() else 0.0
    return {
        "lhs": lhs,
        "diffusion_quadratic": rhs,
        "holds_with_margin": bool(lhs >= rhs),
        "margin": lhs - rhs,
        "tail_term": tail,
    }


def energy_report(ctx: OperatorContext, V: Field, s: float, b: float,
                  bs: float) -> EnergyReport:
    """E_k and D_k for k = 0, 1, 2, and the wall trace of d/dY L**2 V
    against -(b_s + b**2)/2.

    The trace is extrapolated to Y = 0 by a quadratic fit over nodes 2-6
    (the first interior node skipped).
    """
    a1 = clu_chain(ctx, V, 1)
    a2 = op_cLU(ctx, a1, CHAIN_FITS[1])   # = clu_chain(ctx, V, 2)
    u = ctx.U.values
    y = ctx.grid.nodes

    def pair(field: Field, spec: WeightSpec):
        g = diff(field, 2).values
        gy = diff(field, 3).values
        e = weighted_integral(g**2, ctx.grid, spec, s)
        vals = np.zeros_like(u)
        vals[1:] = gy[1:] ** 2 / u[1:] + g[1:] ** 2 / u[1:] ** 2
        d = weighted_integral(vals, ctx.grid, spec, s)
        return e, d

    E0, D0 = pair(V, WeightSpec.default_w0())
    E1, D1 = pair(a1, WeightSpec.default_w1())
    E2, D2 = pair(a2, WeightSpec.default_w2())
    t_field = diff(a2, 1)
    trace = wall_slope_extrapolation(t_field)
    expected = -0.5 * (bs + b * b)
    return EnergyReport(
        s=s, E0=E0, E1=E1, E2=E2, D0=D0, D1=D1, D2=D2,
        trace_residual=float(trace - expected),
        bs_plus_b2=float(bs + b * b),
    )
