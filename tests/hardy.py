"""Weighted Hardy constants of the coercivity argument, by quadrature.

Reference values for the acceptance gate (criterion 10) and the Hardy
tests.  No subcommand of ``prandtlsep`` computes them, so they live with the
tests and keep ``scipy.integrate`` out of the package.
"""

import warnings
from typing import Callable

import numpy as np
from scipy.integrate import quad

from prandtlsep.errors import DomainError


def hardy_phi(r: float, a: float, mu: float, r_tail: float = 400.0) -> float:
    """phi(r, a, mu) = (int_r^inf Y^-a/(mu Y + Y^2/2)^2) (int_0^r Y^a (Y + Y^2/2)).

    The outer factor is closed-form; the inner integral uses adaptive
    quadrature up to ``r_tail`` plus an analytic binomial-series tail.
    """
    if a < 0.0 or not 0.0 < mu <= 1.0:
        raise DomainError("need a >= 0 and mu in (0, 1]")
    outer = r ** (2.0 + a) / (2.0 + a) + r ** (3.0 + a) / (2.0 * (3.0 + a))

    def integrand(t):
        return t ** (-a) / (mu * t + 0.5 * t * t) ** 2

    hi = max(r_tail, 2.0 * r)
    val, err = quad(integrand, r, hi, epsabs=1e-13, epsrel=1e-12, limit=400)
    if err > 1e-8 * max(abs(val), 1.0):
        raise FloatingPointError("inner Hardy quadrature did not converge")
    # tail: 4 Y^(-4-a) (1 + 2 mu / Y)^(-2) integrated term by term
    tail = 0.0
    for k in range(12):
        tail += 4.0 * (k + 1) * (-2.0 * mu) ** k * hi ** (-3.0 - a - k) / (3.0 + a + k)
    return (val + tail) * outer


def hardy_phi_closed(r: float, mu: float) -> float:
    """Closed form of phi(r, 0, mu)."""
    return (1.0 / mu**2) * (np.log(r / (2.0 * mu + r)) / mu + 1.0 / r
                            + 1.0 / (2.0 * mu + r)) * (r * r / 2.0 + r**3 / 6.0)


def hardy_constant(a: float, mu: float, r_max: float = 300.0, n: int = 60) -> float:
    """4 sup_r phi(r, a, mu) over log-spaced r (phi increases toward its sup)."""
    rs = np.geomspace(1e-3, r_max, n)
    vals = [hardy_phi(float(r), a, mu) for r in rs]
    return 4.0 * float(np.max(vals))


def hardy_general(p1: Callable[[float], float], p2: Callable[[float], float],
                  R: float, n: int = 80) -> float:
    """C_H = 4 sup_{0<r<R} (int_r^R p1) (int_0^r 1/p2); inf when 1/p2 is
    not integrable at 0.

    The inner integral uses the log substitution t = r exp(-tau), which
    makes any integrable weight exponentially convergent in tau and leaves
    divergent ones visibly non-convergent, flagged as an infinite constant.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")

        block = 60.0   # tau-window per block in the log substitution
        n_blocks = 5

        def inner(r: float) -> float:
            def integrand(tau: float) -> float:
                t = r * np.exp(-tau)
                if t <= 0.0:
                    return 0.0
                den = p2(t)
                if den == 0.0 or not np.isfinite(den):
                    return 1e300
                val = t / den
                return val if np.isfinite(val) else 1e300

            blocks = []
            for k in range(n_blocks):
                v, _ = quad(integrand, k * block, (k + 1) * block, limit=200)
                if not np.isfinite(v) or v > 1e250:
                    return float("inf")
                blocks.append(v)
            total = float(np.sum(blocks))
            # blocks of an integrable weight contract geometrically in tau;
            # extrapolate the remainder and flag non-contraction as divergence
            b_prev, b_last = blocks[-2], blocks[-1]
            if b_last <= 1e-12 * max(total, 1e-300):
                return total
            if b_prev <= 0.0 or b_last >= 0.9999 * b_prev:
                return float("inf")
            rho = b_last / b_prev
            return total + b_last * rho / (1.0 - rho)

        if not np.isfinite(inner(min(1.0, R))):
            return float("inf")

        def product(r: float) -> float:
            return quad(p1, r, R, limit=200)[0] * inner(r)

        rs = np.geomspace(R * 1e-5, R * (1.0 - 1e-9), n)
        vals = np.array([product(r) for r in rs])
        if not np.all(np.isfinite(vals)):
            return float("inf")
        k = int(np.argmax(vals))
        fine = np.linspace(rs[max(k - 1, 0)], rs[min(k + 1, n - 1)], 40)
        sup = max(float(np.max(vals)), float(np.max([product(r) for r in fine])))
    return 4.0 * sup
