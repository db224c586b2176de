"""Weighted energies, dissipations, and trace diagnostics of the corrector.

The corrector is V = U - U_app.  The controlled quantities are

    E_k = int (d2/dY2 L^k V)**2 w_k,      L = (inverse operator) o d2/dY2,
    D_k = int (d3 L^k V)**2 / U w_k + int (d2 L^k V)**2 / U**2 w_k,

with weights w = Y**(-a) (1 + s**(-beta) Y)**(-m) that see nothing beyond
Y ~ s**beta.  The wall trace of d/dY L**2 V reads the modulation defect:
it must equal -(b_s + b**2)/2.  The trace inequality of the energy
argument bounds that same wall value by weighted integrals of the field;
each report carries both of its sides, and the leading wall coefficient
V/Y**7 of the corrector.  They are reported, not gated.

Integrals start at the first interior node (the weight is singular but
integrable at the wall; the first-cell head is below every tolerance used
here) and are truncated at the grid edge.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import profiles
from .audits import C_ZONE
from .errors import DomainError
from .gridfields import Field, cumtrapz, diff, lstsq_powers, wall_window
from .operators import (CHAIN_FITS, OperatorContext, op_Linv,
                        wall_slope_extrapolation)

#: (a, beta, m) of the weights w_0, w_1, w_2 of E_k and D_k; each row keeps
#: 0 <= a < 1, m >= 0 and 1/4 < beta < 2/7.
WEIGHTS = ((0.05, 0.28, 20), (0.05, 0.27, 40), (0.05, 0.26, 80))


def weight_eval(a: float, beta: float, m: int, s: float, Y) -> np.ndarray:
    """Pointwise weight Y**(-a) (1 + s**(-beta) Y)**(-m), with a 0 sentinel
    at the wall node when a > 0: the true weight diverges like Y**(-a)
    there, and the sentinel starts the quadratures at the first interior
    node."""
    if s <= 0.0:
        raise DomainError("weight needs s > 0")
    Y = np.asarray(Y, dtype=float)
    out = np.empty_like(Y)
    pos = Y > 0.0
    out[pos] = Y[pos] ** (-a) * (1.0 + s ** (-beta) * Y[pos]) ** (-m)
    out[~pos] = 0.0 if a > 0 else 1.0
    return out


def _dissipation(g, g_y, u, w, y) -> float:
    """int ((g_Y)**2/U + g**2/U**2) w, from the first interior node on."""
    vals = np.zeros_like(u)
    vals[1:] = g_y[1:] ** 2 / u[1:] + g[1:] ** 2 / u[1:] ** 2
    return float(np.trapezoid(vals * w, y))


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
    v_wall_ratio: float
    trace_ineq_lhs: float
    trace_ineq_rhs: float
    resolved_flag: bool = True


def compute_V(U: Field, s: float, b: float) -> Field:
    """Corrector V = U - U_app(s, b) on U's grid."""
    uapp = profiles.eval_uapp(s, b, U.grid.nodes)
    return U.with_values(U.values - uapp)


def v_wall_ratio(V: Field) -> float:
    """Fitted V / Y**7, the leading corrector coefficient: V ~ c7 Y**7 +
    c8 Y**8 at the wall, fitted on the fixed wall window Y in [0.05, 0.5]
    that ``energies.csv`` reports it on."""
    y = V.grid.nodes
    idx = wall_window(y, 0.05, 0.5)
    return float(lstsq_powers(y[idx], V.values[idx], (7, 8))[0])


def trace_inequality_audit(f: Field, L: float, a: float) -> dict:
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
    rhs = 8.0 * (L ** (1.0 + a) * i1 + L ** (a - 3.0) * i2)
    return {"lhs": lhs, "rhs": rhs, "holds": bool(lhs <= rhs * (1.0 + 1e-9))}


def coercivity_audit(ctx: OperatorContext, f: Field, weight: tuple,
                     s: float) -> dict:
    """Compare the diffusion quadratic form against its coercive minorant.

    lhs  = -int (d2/dY2 Linv f) f w
    quad = c_bar (int (f')**2/U w + int f**2/U**2 w) - delta b int f**2 w

    with c_bar = delta = 1/50, one fixed choice of the estimate's small
    positive constants, and w the weight of an (a, beta, m) row of WEIGHTS.

    The dropped cross-window tail of the underlying inequality is evaluated
    separately (unit constant) and reported, not subtracted.
    """
    y = ctx.grid.nodes
    u = ctx.U.values
    w = weight_eval(*weight, s, y)
    d2 = diff(op_Linv(ctx, f), 2)
    lhs = -float(np.trapezoid(d2.values * f.values * w, y))
    quad = _dissipation(f.values, diff(f, 1).values, u, w, y)
    mass = float(np.trapezoid(f.values**2 * w, y))
    b = 1.0 / s
    c_bar = delta = 1.0 / 50.0
    rhs = c_bar * quad - delta * b * mass
    # tail term: int_{c s^{1/3}} U ( int_0^Y (1 - cutoff(Y/s^{1/4})) f/U^2 )^2 w
    cut = profiles.smoothstep_cutoff(y / s**0.25)
    integrand = np.zeros_like(y)
    integrand[1:] = (1.0 - cut[1:]) * f.values[1:] / u[1:] ** 2
    inner = cumtrapz(integrand, y)
    outer_zone = y >= C_ZONE * s ** (1.0 / 3.0)
    tail = float(np.trapezoid((u * inner**2 * w)[outer_zone], y[outer_zone])) if outer_zone.any() else 0.0
    return {
        "lhs": lhs,
        "diffusion_quadratic": rhs,
        "holds_with_margin": bool(lhs >= rhs),
        "margin": lhs - rhs,
        "tail_term": tail,
    }


def energy_chain(ctx: OperatorContext, V: Field, s: float):
    """Yield (E_k, stage, curvature, weight) down the chain V, L V, L**2 V:
    each stage's curvature is taken once, and the next stage's ``op_Linv``
    runs only when that stage is asked for."""
    y, stage = ctx.grid.nodes, V
    for k, weight in enumerate(WEIGHTS):
        w, g = weight_eval(*weight, s, y), diff(stage, 2)
        yield float(np.trapezoid(g.values**2 * w, y)), stage, g, w
        if k < len(CHAIN_FITS):
            stage = op_Linv(ctx, g, CHAIN_FITS[k])


def energy_report(ctx: OperatorContext, V: Field, s: float, b: float,
                  bs: float) -> EnergyReport:
    """E_k and D_k for k = 0, 1, 2, and the wall trace of d/dY L**2 V
    against -(b_s + b**2)/2.

    The trace is extrapolated to Y = 0 by a quadratic fit over nodes 2-6
    (the first interior node skipped).  The trace inequality is evaluated
    on the same field, on the window Y <= s**beta with the exponent a of
    the E2 weight.
    """
    u, y = ctx.U.values, ctx.grid.nodes
    sums = []
    for E, stage, g, w in energy_chain(ctx, V, s):
        sums += [E, _dissipation(g.values, diff(stage, 3).values, u, w, y)]
    E0, D0, E1, D1, E2, D2 = sums
    t_field = diff(stage, 1)
    a2, beta2, _ = WEIGHTS[2]
    bound = trace_inequality_audit(t_field, L=s**beta2, a=a2)
    return EnergyReport(
        s=s, E0=E0, E1=E1, E2=E2, D0=D0, D1=D1, D2=D2,
        trace_residual=float(wall_slope_extrapolation(t_field) + 0.5 * (bs + b * b)),
        bs_plus_b2=float(bs + b * b),
        v_wall_ratio=v_wall_ratio(V),
        trace_ineq_lhs=bound["lhs"], trace_ineq_rhs=bound["rhs"],
    )
