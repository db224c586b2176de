"""Comparison-principle audits on computed solutions.

All audits are report-only: they return an AuditReport with a violation
count and the worst margin, under discretization-aware tolerances
(analytic inequalities are strict; floating data is not).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .gridfields import Field
from .operators import OperatorContext

#: marching data carries a quasi-steady wall-layer bias at this relative
#: level (measured on manufactured solutions; scales with the step law)
DATA_FIDELITY = 5e-4

#: the curvature bound 1 - M2 b Y**2 <= U_YY holds on Y <= C_ZONE s**(1/3);
#: the coercivity audit's tail term starts at the same zone edge
C_ZONE = 0.7

#: sandwich tolerance, relative to max(W_base, 1), and the size of the
#: log-spaced sample of the differential inequalities
SANDWICH_RTOL = 1e-6
N_DIFFERENTIAL_SAMPLES = 400

#: the lower balance bound is audited on psi <= F_LOWER_CAP btilde**(-5/4)
F_LOWER_CAP = 0.5

#: the sandwich domain and the lower balance bound start at psi = C_MINUS
#: btilde**(-3/4)
C_MINUS = 32.0


def sandwich_floor(btilde: float) -> float:
    """The floor C_MINUS btilde**(-3/4) of the sandwich domain."""
    return C_MINUS * btilde ** (-0.75)


#: discretization-aware tolerance: max(10 h^2 scale, fidelity floor, 1e-10)
def audit_tol(h: np.ndarray, scale: np.ndarray) -> np.ndarray:
    return np.maximum.reduce([10.0 * h * h * scale, DATA_FIDELITY * scale,
                              np.full_like(np.asarray(scale, dtype=float), 1e-10)])


def dyadic_ceil(x: float) -> float:
    """Smallest power of 2 at or above x: calibrated constants are rounded
    up to one, so later frames are checked against a round number."""
    return float(2.0 ** np.ceil(np.log2(x)))


@dataclass(frozen=True)
class AuditReport:
    name: str
    domain_checked: str
    worst_margin: float
    violation_count: int
    samples: int
    details: dict

    @property
    def passed(self) -> bool:
        return self.violation_count == 0


# ---------------------------------------------------------------------------
# Curvature bounds (maximum principle)
# ---------------------------------------------------------------------------


def max_principle_audit(ctx: OperatorContext, s: float, b: float, M2: float,
                        M1: float, y_min: float) -> AuditReport:
    """Check 1 - M2 b Y**2 <= U_YY <= 1 on Y <= C_ZONE s**(1/3), and the
    uniform band -M1 <= U_YY <= 1 beyond, over the curvature-resolvable zone.

    The zone below ``y_min`` is excluded: there the rescaled curvature is
    dominated by the wall-layer data floor of the marching solution, and
    the identical inequality (F = 2(U_YY - 1) <= 0) is audited natively in
    streamfunction variables with its roundoff trust mask instead.
    """
    y = ctx.grid.nodes
    uyy = ctx.U_YY.values
    h = np.gradient(y)
    tol = audit_tol(h, np.maximum(np.abs(uyy), 1.0))
    audited = y >= y_min
    inner = audited & (y <= C_ZONE * s ** (1.0 / 3.0))
    outer = audited & (y > C_ZONE * s ** (1.0 / 3.0))
    margins = np.concatenate([
        (1.0 + tol - uyy)[audited],
        (uyy - (1.0 - M2 * b * y**2) + tol)[inner],
        (uyy + M1 + tol)[outer],
    ])
    violations = int(np.sum(margins < 0.0))
    return AuditReport(
        name="max-principle",
        domain_checked=f"Y in [{y_min}, {ctx.grid.span:.3g}], inner zone "
                       f"Y <= {C_ZONE} s^(1/3); wall zone delegated to the "
                       f"streamfunction-side balance audit",
        worst_margin=float(np.min(margins)),
        violation_count=violations,
        samples=int(len(margins)),
        details={"M2": M2, "M1": M1, "b": b, "s": s, "y_min": y_min},
    )


def calibrate_M2(ctx: OperatorContext, s: float, b: float) -> float:
    """Smallest power of 2 such that U_YY >= 1 - M2 b Y**2 holds at this slice.

    The ratio is measured away from the wall (Y >= 1): below that the
    denominator vanishes faster than the data noise floor.
    """
    y = ctx.grid.nodes
    uyy = ctx.U_YY.values
    inner = (y >= 1.0) & (y <= C_ZONE * s ** (1.0 / 3.0))
    ratio = (1.0 - uyy[inner]) / (b * y[inner] ** 2)
    need = max(float(np.max(ratio)), 0.25)
    return dyadic_ceil(1.10 * need)


# ---------------------------------------------------------------------------
# Sub/super-solutions in streamfunction variables
# ---------------------------------------------------------------------------


def _w_lower(psi, A_minus, btilde):
    return (6.0 * psi) ** (4.0 / 3.0) / 4.0 - A_minus * psi ** (7.0 / 3.0) * btilde**1.25


def _w_upper(psi, A_plus, btilde):
    return (6.0 * psi) ** (4.0 / 3.0) / 4.0 + A_plus * psi ** (10.0 / 3.0) * btilde**2


def _sandwich_domain(W: Field, btilde: float) -> tuple:
    """(bottom, psi, w, base) on the sandwich domain psi >= bottom =
    ``sandwich_floor(btilde)``: the grid nodes and values there, and the
    comparison profile (6 psi)**(4/3)/4 that both bounds perturb."""
    bottom = sandwich_floor(btilde)
    dom = W.grid.nodes >= bottom
    p = W.grid.nodes[dom]
    return bottom, p, W.values[dom], (6.0 * p) ** (4.0 / 3.0) / 4.0


def _transport_diffusion(psi, w_vals, w_p, w_pp, ds_w, b):
    """T[w] = ds_w - 2 b w + (3b/2) psi w_psi - sqrt(w) w_psipsi + 2."""
    return ds_w - 2.0 * b * w_vals + 1.5 * b * psi * w_p \
        - np.sqrt(np.maximum(w_vals, 0.0)) * w_pp + 2.0


def subsolution_audit(W: Field, s: float, b: float, btilde: float,
                      A_minus: float, A_plus: float) -> AuditReport:
    """Sandwich W_lower <= W <= W_upper plus their differential inequalities.

    Operates in rescaled streamfunction variables.  The sandwich is checked
    on every data node of the admissible domain; the differential
    inequalities are evaluated on a log-spaced sample with the closed-form
    psi-derivatives of the explicit comparison solutions (the s-derivative
    uses the defining decay law of the regularized rate).
    """
    psi = W.grid.nodes
    bottom, p, w_data, base = _sandwich_domain(W, btilde)
    if not len(p):
        return AuditReport("sub-super-solutions", "empty domain", 0.0, 0, 0,
                           {"bottom": bottom, "psi_max": float(psi[-1]),
                            "sandwich_violations": 0, "differential_violations": 0})
    lower = _w_lower(p, A_minus, btilde)
    upper = _w_upper(p, A_plus, btilde)
    tol = SANDWICH_RTOL * np.maximum(base, 1.0)
    pos = lower > 0.0
    low_marg = np.where(pos, w_data - lower + tol, np.inf)
    up_marg = upper - w_data + tol
    margins = [np.min(low_marg), np.min(up_marg)]
    violations = int(np.sum(low_marg < 0)) + int(np.sum(up_marg < 0))

    # differential inequalities on a log-spaced sample, closed-form
    # derivatives (the comparison solutions are explicit; the s-derivative
    # goes through the defining decay law of the regularized rate)
    ps = np.geomspace(bottom, psi[-1], N_DIFFERENTIAL_SAMPLES)
    base_p = 2.0 * (6.0 * ps) ** (1.0 / 3.0)
    base_pp = 4.0 * (6.0 * ps) ** (-2.0 / 3.0)
    corr_m = A_minus * btilde**1.25
    corr_p = A_plus * btilde**2
    wl = _w_lower(ps, A_minus, btilde)
    wu = _w_upper(ps, A_plus, btilde)
    t_low = _transport_diffusion(
        ps, wl,
        base_p - corr_m * (7.0 / 3.0) * ps ** (4.0 / 3.0),
        base_pp - corr_m * (28.0 / 9.0) * ps ** (1.0 / 3.0),
        1.25 * b * corr_m * ps ** (7.0 / 3.0), b)
    t_up = _transport_diffusion(
        ps, wu,
        base_p + corr_p * (10.0 / 3.0) * ps ** (7.0 / 3.0),
        base_pp + corr_p * (70.0 / 9.0) * ps ** (4.0 / 3.0),
        -2.0 * b * corr_p * ps ** (10.0 / 3.0), b)
    dtol = 1e-9 * (np.abs(t_low) + np.abs(wl) * b + 1.0)
    ok_low = wl > 0.0
    viol_low = int(np.sum(t_low[ok_low] > dtol[ok_low]))
    viol_up = int(np.sum(t_up < -dtol))
    margins.append(float(np.min(np.where(ok_low, dtol - t_low, np.inf))))
    margins.append(float(np.min(t_up + dtol)))
    violations += viol_low + viol_up
    return AuditReport(
        name="sub-super-solutions",
        domain_checked=f"psi in [{bottom:.3g}, {float(psi[-1]):.3g}]",
        worst_margin=float(np.min(margins)),
        violation_count=violations,
        samples=int(len(p) * 2 + 2 * N_DIFFERENTIAL_SAMPLES),
        details={
            "A_minus": A_minus, "A_plus": A_plus, "C_minus": C_MINUS,
            "btilde": btilde, "s": s,
            "sandwich_violations": int(np.sum(low_marg < 0)) + int(np.sum(up_marg < 0)),
            "differential_violations": viol_low + viol_up,
        },
    )


def calibrate_A(W: Field, btilde: float) -> tuple:
    """Smallest dyadic amplitudes making the sandwich pass at this slice."""
    _, p, w_data, base = _sandwich_domain(W, btilde)
    if not len(p):
        raise DomainError("empty sandwich domain at the calibration slice")
    deficit = base - w_data
    corr_minus = p ** (7.0 / 3.0) * btilde**1.25
    corr_plus = p ** (10.0 / 3.0) * btilde**2
    need_minus = max(float(np.max(deficit / corr_minus)), 2.0**-10)
    need_plus = max(float(np.max(-deficit / corr_plus)), 2.0**-10)
    return dyadic_ceil(1.15 * need_minus), dyadic_ceil(1.15 * need_plus)


def F_bound_audit(W: Field, F: np.ndarray, s: float, btilde: float,
                  alpha: float, trusted: np.ndarray) -> AuditReport:
    """The balance F = sqrt(W) W_psipsi - 2 of W, node by node: F <= 0
    globally and F >= -btilde alpha (psi**2/3 - psi**1/3) on psi in
    [``sandwich_floor(btilde)``, F_LOWER_CAP btilde^-5/4]."""
    psi = W.grid.nodes
    h_rel = np.gradient(psi) / np.maximum(psi, psi[1])
    tol = audit_tol(h_rel, np.abs(F) + 2.0)
    upper_marg = tol - F
    nv_upper = int(np.sum(upper_marg[trusted] < 0))
    lower = -btilde * alpha * (psi ** (2.0 / 3.0) - psi ** (1.0 / 3.0))
    bottom = sandwich_floor(btilde)
    dom = ((psi >= bottom)
           & (psi <= F_LOWER_CAP * btilde ** (-1.25)) & trusted)
    lower_marg = (F - lower + tol)[dom] if dom.any() else np.array([np.inf])
    nv_lower = int(np.sum(lower_marg < 0))
    worst = float(min(np.min(upper_marg[trusted]), np.min(lower_marg)))
    upper_samples, lower_samples = int(np.sum(trusted)), int(np.sum(dom))
    return AuditReport(
        name="diffusion-balance-bounds",
        domain_checked=f"global upper; lower on [{bottom:.3g}, "
                       f"{F_LOWER_CAP * btilde**-1.25:.3g}]",
        worst_margin=worst,
        violation_count=nv_upper + nv_lower,
        samples=upper_samples + lower_samples,
        details={"alpha": alpha, "btilde": btilde, "s": s,
                 "upper_violations": nv_upper, "lower_violations": nv_lower,
                 "upper_samples": upper_samples, "lower_samples": lower_samples},
    )
