"""Reference formulas the tests compare the package against.

Each is a closed form, a forward operator or a bookkeeping helper that no
``prandtlsep`` subcommand needs: the forward product ``L_U``, whose inverse
the package implements; the derivatives of the profile's far-field
completion; float evaluation of an exact polynomial; the uniform grid; the
observed convergence order of an error sequence; a bitwise array
comparison; the cumulative trapezoid as it was written inline before
``gridfields.cumtrapz`` replaced the copies; and two per-step formulas of
the march without its grid caches: the F roundoff floor with its spacings
computed inline, and the wall shear with y(phi) integrated over the whole
grid.
"""

from typing import Iterable

import numpy as np
from numpy.polynomial.polynomial import polyval

from prandtlsep import profiles as pr
from prandtlsep import ratpoly as rp
from prandtlsep import vonmises as vm
from prandtlsep.errors import DomainError, InvalidStateError
from prandtlsep.gridfields import Field, Grid, cumint


def uniform_grid(n: int, x_max: float) -> Grid:
    return Grid(np.linspace(0.0, x_max, n), "uniform")


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


def same_bits(a, b) -> bool:
    """Two float64 arrays (or floats) equal bit for bit, nan and inf included."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


# ---------------------------------------------------------------------------
# Streamfunction march: per-step formulas without the grid caches
# ---------------------------------------------------------------------------


def f_roundoff_floor(state) -> np.ndarray:
    """``vonmises.f_roundoff_floor`` with its spacings computed inline."""
    w = state.W.values
    phi = state.psi_grid.nodes
    eps_w = 8.0 * np.finfo(float).eps * float(np.max(w))
    out = np.full_like(w, np.inf)
    hm = phi[1:-1] - phi[:-2]
    hp = phi[2:] - phi[1:-1]
    out[1:-1] = np.sqrt(np.maximum(w[1:-1], 0.0)) * 4.0 * eps_w / (hm * hp)
    out[0] = 0.0
    return out


def wall_shear_full_y(state) -> float:
    """``vonmises.wall_shear`` with y(phi) integrated over the whole grid."""
    grid = state.psi_grid
    phi = grid.nodes
    w = vm._wall_restore(phi, state.W.values)
    guess = float(state.lam if state.lam else 0.05)
    y = vm._normal_coordinate(grid, w)

    def estimate(g: float):
        y_cap = 0.25 * g ** (1.0 / 3.0)
        window = (y >= 0.25 * y_cap) & (y <= y_cap)
        idx = np.nonzero(window)[0]
        idx = idx[(idx > 0) & (idx < len(phi) - 1)]
        if len(idx) < 4:
            return None
        hm = phi[idx] - phi[idx - 1]
        hp = phi[idx + 1] - phi[idx]
        w_phi = (w[idx + 1] * hm**2 - w[idx - 1] * hp**2
                 + w[idx] * (hp**2 - hm**2)) / (hm * hp * (hm + hp))
        samples = 0.5 * w_phi - y[idx]
        cols = np.stack([np.ones_like(idx, dtype=float), y[idx] ** 3], axis=1)
        sol, *_ = np.linalg.lstsq(cols, samples, rcond=None)
        est_ = float(sol[0])
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
