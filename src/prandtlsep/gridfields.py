"""Nonuniform 1-D grids and the discrete calculus shared by all solvers.

Derivatives use sliding local polynomial stencils with weights generated by
the classic recursive algorithm for arbitrary node placement, so the same
code path serves interior (centered) and boundary (one-sided) nodes.
Cumulative integration is trapezoidal, which preserves monotonicity of the
primitive for non-negative integrands; that property is load-bearing for
the streamfunction map.  The other numerical primitives the modules share
live here too: least-squares power fits, Brent's root finder and the
quintic interpolating spline, with every LAPACK routine bound in one place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (DomainError, ExtrapolationError, FitFailureError,
                     SingularInputError, TooFewNodesError)

MIN_NODES = 64
_EPS = np.finfo(float).eps


def _frozen(values) -> np.ndarray:
    """``values`` as a read-only float array.  An array that is read-only on
    read-only memory is kept as it is, a view included (the snapshot
    rows of a loaded run share one loaded table); anything else is
    copied first."""
    base = getattr(values, "base", None)
    if (isinstance(values, np.ndarray) and values.dtype == np.float64
            and not values.flags.writeable
            and (base is None or isinstance(base, np.ndarray)
                 and not base.flags.writeable)):
        return values
    values = np.array(values, dtype=float, copy=True)
    values.flags.writeable = False
    return values


# Stencil width per derivative order: formal accuracy is width - order for
# arbitrary nodes, i.e. >= 3rd order interior for all three.
_STENCIL_WIDTH = {1: 5, 2: 5, 3: 6}


def window_starts(n: int, width: int) -> np.ndarray:
    """First index of the centred ``width``-sample window of each of n
    samples; the windows of the first and last samples are shifted inward."""
    if n < width:
        raise DomainError(f"need at least {width} samples")
    return np.clip(np.arange(n) - width // 2, 0, n - width)


def cumtrapz(values: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Trapezoidal primitive of ``values`` over ``nodes``, 0 at the first node."""
    out = np.empty_like(values)
    out[0] = 0.0
    np.cumsum(0.5 * (values[1:] + values[:-1]) * np.diff(nodes), out=out[1:])
    return out


def wall_window(y: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Indices of the nodes in [lo, hi], with hi widened until the window
    holds 8 nodes: the one window rule of every near-wall fit."""
    idx = np.nonzero((y >= lo) & (y <= hi))[0]
    while len(idx) < 8 and hi < y[-1]:
        hi *= 1.6
        idx = np.nonzero((y >= lo) & (y <= hi))[0]
    if len(idx) < 8:
        raise SingularInputError("grid too coarse for the wall-fit window")
    return idx


@cache
def lapack(name: str):
    """``scipy.linalg.lapack``'s routine ``name``, the one binding of every
    LAPACK call, made on first use: importing scipy.linalg takes about
    0.3 s, which ``import prandtlsep.cli`` need not pay."""
    from scipy.linalg import lapack as scipy_lapack
    return getattr(scipy_lapack, name)


@cache
def _exponent_column(powers: tuple) -> np.ndarray:
    """The exponents of ``lstsq_powers`` as a read-only (n, 1) float column,
    made once per tuple of powers."""
    column = np.array(powers, dtype=float)[:, None]
    column.flags.writeable = False
    return column


def lstsq_powers(y: np.ndarray, v: np.ndarray, powers) -> np.ndarray:
    """Least-squares coefficients of v in the monomials y**p, p in ``powers``.

    One LAPACK ``gels`` call, Householder QR, on the unscaled monomial
    columns.  Householder QR's backward error is columnwise (Higham,
    *Accuracy and Stability of Numerical Algorithms*, ch. 20): each column
    is perturbed relative to its own norm.  Scaling the columns to unit
    norm, which the high powers of a small wall window need under an SVD
    solve with a rank cut, would not change its accuracy.

    Raises SingularInputError on a non-finite solution, and where a column
    lies within m eps of its norm from the span of the columns before it
    (numpy's ``rcond=None`` rank rule, m the node count), as on a window of
    fewer distinct nodes than columns.
    """
    m, n = len(y), len(powers)
    if m < n:
        raise SingularInputError(f"{m} nodes for {n} monomials")
    # (m, n) in Fortran order, which gels may overwrite in place
    cols = (y ** _exponent_column(tuple(powers))).T
    norms2 = (cols * cols).sum(axis=0)
    qr, x, info = lapack("dgels")(cols, v[:, None], overwrite_a=1)
    # |R_jj| is column j's distance from the span of the columns before it
    diag = qr.diagonal()
    sol = x[:n, 0]
    if (info != 0 or not (diag * diag > (m * _EPS) ** 2 * norms2).all()
            or not np.isfinite(sol).all()):
        raise SingularInputError(f"monomials {tuple(powers)} are rank-deficient "
                                 "on the fit window, or a sample is not finite")
    return sol


#: Brent's iteration cap, SciPy's ``brentq`` default
_BRENT_MAXITER = 100
#: Brent's relative tolerance, just above SciPy's floor of 4 eps; the
#: inflow's matching root is SciPy's to the bit at this value
_BRENT_RTOL = 8.9e-16


def brentq(f, a: float, b: float, xtol: float) -> float:
    """Root of f in [a, b], where f(a) and f(b) differ in sign.

    Brent's method as SciPy's ``brentq`` runs it (its C routine, step for
    step, so the root agrees to the bit): each step keeps a bracket [xcur,
    xblk] with xcur the better end, tries inverse quadratic interpolation
    through the last three points (the secant while only two are known),
    and bisects where that step is not short; it stops when the bracket's
    half-width falls below (xtol + ``_BRENT_RTOL`` |xcur|)/2.

    Raises DomainError if f(a) and f(b) share a sign or f is not finite,
    and FitFailureError after ``_BRENT_MAXITER`` steps.
    """
    def value(x: float) -> float:
        fx = f(x)
        if not math.isfinite(fx):
            raise DomainError(f"root finder: f({x!r}) = {fx!r} is not finite")
        return fx

    xpre, xcur = float(a), float(b)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise DomainError("root finder: f(a) and f(b) share a sign")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_BRENT_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = value(xcur)
    raise FitFailureError(f"root finder did not converge in {_BRENT_MAXITER} steps")


def fd_weights(x: np.ndarray, x0: float | np.ndarray, order: int) -> np.ndarray:
    """Finite-difference weights for the ``order``-th derivative at ``x0``.

    Fornberg's recursion on the arbitrary nodes ``x``; exact for
    polynomials up to degree ``x.shape[-1] - 1``.  Batched: ``x`` of shape
    ``(..., width)`` and ``x0`` of shape ``(...)`` give weights of shape
    ``(..., width)``, each row computed with the same operations, in the
    same order, as a 1-D call on that row.
    """
    x = np.asarray(x, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    n = x.shape[-1]
    c = np.zeros(x.shape + (order + 1,))
    c[..., 0, 0] = 1.0
    c1 = 1.0
    c4 = x[..., 0] - x0
    for i in range(1, n):
        mn = min(i, order)
        c2 = 1.0
        c5 = c4
        c4 = x[..., i] - x0
        for j in range(i):
            c3 = x[..., i] - x[..., j]
            c2 = c2 * c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[..., i, k] = (c1 * (k * c[..., i - 1, k - 1]
                                          - c5 * c[..., i - 1, k]) / c2)
                c[..., i, 0] = -c1 * c5 * c[..., i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[..., j, k] = (c4 * c[..., j, k] - k * c[..., j, k - 1]) / c3
            c[..., j, 0] = c4 * c[..., j, 0] / c3
        c1 = c2
    # contiguous, so that apply_diff's einsum sums each row in node order
    return np.ascontiguousarray(c[..., order])


@dataclass(frozen=True, eq=False)
class Grid:
    """Strictly increasing nodes starting at 0."""

    nodes: np.ndarray
    _diff_cache: dict = field(default_factory=dict, repr=False, compare=False)
    # the grid whose stencils this one scales (see ``scaled``)
    _unit: "Grid | None" = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        nodes = _frozen(self.nodes)
        if nodes.ndim != 1 or len(nodes) < MIN_NODES:
            raise TooFewNodesError(f"grid needs >= {MIN_NODES} nodes, got {nodes.shape}")
        if nodes[0] != 0.0:
            raise ValueError("grid must start at 0")
        if np.any(np.diff(nodes) <= 0):
            raise ValueError("grid nodes must be strictly increasing")
        object.__setattr__(self, "nodes", nodes)

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def span(self) -> float:
        return float(self.nodes[-1])

    # -- constructors ---------------------------------------------------------

    @classmethod
    def tanh_clustered(cls, n: int, x_max: float, strength: float) -> "Grid":
        """Nodes clustered at 0 through a tanh map; ``strength`` ~ contrast."""
        xi = np.linspace(0.0, 1.0, n)
        nodes = x_max * (1.0 + np.tanh(strength * (xi - 1.0)) / np.tanh(strength))
        nodes[0] = 0.0
        nodes[-1] = x_max
        return cls(nodes)

    @classmethod
    def power_clustered(cls, n: int, x_max: float, exponent: float) -> "Grid":
        """Nodes x_max * (i/(n-1))**exponent; strong wall clustering."""
        xi = np.linspace(0.0, 1.0, n)
        return cls(x_max * xi**exponent)

    def scaled(self, length: float) -> "Grid":
        """The grid on this grid's nodes times ``length``.  Fornberg's
        weights of order k on nodes L x are L**-k times those on x, so it
        scales this grid's stencils, built once, instead of building its own."""
        return Grid(length * self.nodes, _unit=self)

    def cached(self, key, build, *args):
        """Grid-only data stored under ``key``: ``build(*args)`` on the first
        call, the stored value after.  Its arrays are made read-only, since
        every later caller shares them."""
        try:
            return self._diff_cache[key]
        except KeyError:
            value = build(*args)
            for arr in value if isinstance(value, tuple) else (value,):
                arr.flags.writeable = False
            self._diff_cache[key] = value
            return value

    def _diff_matrix(self, order: int) -> tuple:
        """(gather index, weights) of the centred stencils of the given
        order, shifted inward (one-sided) at both ends.  A scaled grid
        shares its unit grid's index and scales the unit weights."""
        if self._unit is not None:
            unit = self._unit
            idx, weights = unit.cached(order, unit._diff_matrix, order)
            return idx, weights * (unit.span / self.span) ** order
        width = _STENCIL_WIDTH[order]
        idx = window_starts(len(self.nodes), width)[:, None] + np.arange(width)
        return idx, fd_weights(self.nodes[idx], self.nodes, order)

    def apply_diff(self, values: np.ndarray, order: int) -> np.ndarray:
        idx, weights = self.cached(order, self._diff_matrix, order)
        return np.einsum("ij,ij->i", weights, values[idx])


@dataclass(frozen=True, eq=False)
class Field:
    """Values attached to a grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        values = _frozen(self.values)
        if values.shape != self.grid.nodes.shape:
            raise ValueError("field length must match its grid")
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return len(self.values)

    def with_values(self, values: np.ndarray) -> "Field":
        return Field(self.grid, values)


def diff(f: Field, order: int) -> Field:
    """Derivative of the given order (1, 2 or 3) on the field's own grid."""
    if order not in (1, 2, 3):
        raise ValueError("order must be 1, 2 or 3")
    return f.with_values(f.grid.apply_diff(f.values, order))


def cumint(f: Field) -> Field:
    """Trapezoidal primitive vanishing at the first node."""
    return f.with_values(cumtrapz(f.values, f.grid.nodes))


def smoothstep(t):
    """Quintic C2 ramp t**3 (10 - 15 t + 6 t**2), 0 for t <= 0 and 1 for t >= 1."""
    t = np.clip(t, 0.0, 1.0)
    return t * t * t * (10.0 + t * (-15.0 + 6.0 * t))


def smoothstep_prime(t):
    """Derivative of ``smoothstep``: 30 t**2 (1 - t)**2 on [0, 1], else 0."""
    t = np.clip(t, 0.0, 1.0)
    return 30.0 * t * t * (1.0 - t) ** 2


#: the spline's degree; the not-a-knot knots drop x_1, x_2, x_{n-3}, x_{n-2}
_K = 5
#: band half-width of the collocation system once its end rows are reduced
_KL = 3


def _collocation_solve(B: np.ndarray, y: np.ndarray) -> np.ndarray:
    """B-spline coefficients c of the not-a-knot quintic through y, from
    the degree-5 values B of ``_quintic_table``: one LAPACK ``gbsv`` call.
    The band and B go when this returns."""
    k, n = _K, len(y)
    nint = n - k
    # collocation rows in band storage: row x_i, i = 3..n-4, holds
    # B_{i-2..i+2}(x_i) on diagonals -2..2 (B_{i+3} vanishes at its knot).
    # x_1 and x_2 meet c_0..c_5, x_{n-3} and x_{n-2} meet c_{n-6}..c_{n-1}:
    # one multiple of x_2's row clears c_5 from x_1's, and one of
    # x_{n-3}'s clears c_{n-6} from x_{n-2}'s, so three diagonals a side do
    kl = _KL
    ab = np.zeros((3 * kl + 1, n), order="F")
    for r in range(k):
        ab[2 * kl + 2 - r, 1 + r:n - 5 + r] = B[r, 1:nint]
    rhs = np.array(y, dtype=float)
    row1, row2, row_m3, row_m2 = B[:, nint:nint + 4].T
    alpha, beta = row1[k] / row2[k], row_m2[0] / row_m3[0]
    rhs[1] -= alpha * rhs[2]
    rhs[n - 2] -= beta * rhs[n - 3]
    for i, c0, vals in ((0, 0, B[:1, 0]), (1, 0, (row1 - alpha * row2)[:k]),
                        (2, 0, row2), (n - 3, n - 6, row_m3),
                        (n - 2, n - 5, (row_m2 - beta * row_m3)[1:]),
                        (n - 1, n - 1, B[k:, n - 1])):
        for r, v in enumerate(vals):
            ab[2 * kl + i - c0 - r, c0 + r] = v
    _, _, c, info = lapack("dgbsv")(kl, kl, ab, rhs, overwrite_ab=1, overwrite_b=1)
    if info != 0 or not np.isfinite(c).all():
        raise SingularInputError("spline collocation system is singular, "
                                 "or a sample is not finite")
    return c


def _quintic_table(x: np.ndarray, y: np.ndarray) -> tuple:
    """(left ends, power table P) of the not-a-knot quintic interpolant of
    y on the nodes x: on [left[j], left[j+1]] it is sum_m P[m, j] (x -
    left[j])**m.

    The spline is the one SciPy's ``make_interp_spline(x, y, k=5)``
    builds: knots x_0 (six times), x_3..x_{n-4}, x_{n-1} (six times), so
    that the n - 5 intervals start at x_0, x_3, .., x_{n-4}, and
    B-spline coefficients c from the collocation system, one LAPACK
    ``gbsv`` call.  The B-spline values come from de Boor's recurrence, one
    row per basis function, at the n - 5 left ends and at x_1, x_2,
    x_{n-3}, x_{n-2}, x_{n-1}: the degree-5 values are the collocation rows
    (the left ends are nodes), and the lower degrees give P[m] = S^(m)/m!
    at each left end from the differenced coefficients (de Boor, *A
    Practical Guide to Splines*, ch. X)."""
    k, n = _K, len(x)
    nint = n - k
    t = np.empty(n + k + 1)
    t[:k + 1] = x[0]
    t[k + 1:n] = x[3:n - 3]
    t[n:] = x[-1]
    left = t[k:n]
    # column p < nint is the left end t_{p+k} on its own interval; the last
    # five are x_1, x_2 (on the first interval) and x_{n-3}..x_{n-1}
    ends = ((1, k), (2, k), (n - 3, n - 1), (n - 2, n - 1), (n - 1, n - 1))
    right = np.empty((k, n))   # right[m-1] = t_{j+m} - x on interval j
    back = np.empty((k, n))    # back[i] = x - t_{j+1-k+i}
    for m in range(1, k + 1):
        np.subtract(t[k + m:n + m], left, out=right[m - 1, :nint])
        np.subtract(left, t[m:nint + m], out=back[m - 1, :nint])
    for p, (i, j) in enumerate(ends, nint):
        right[:, p] = t[j + 1:j + k + 1] - x[i]
        back[:, p] = x[i] - t[j + 1 - k:j + 1]
    # de Boor's recurrence, degree by degree.  The conversion below reads
    # degrees 2 to 4 and each degree's denominators right + back, which it
    # forms again in the same work rows: degrees 0 and 1 are dropped once
    # the next is built, and degree 5 once the collocation system is solved
    work = np.empty((k, n))
    basis = {0: np.ones((1, n))}
    for d in range(1, k + 1):
        b = back[k - d:]
        temp = np.add(right[:d], b, out=work[:d])
        np.divide(basis[d - 1], temp, out=temp)
        new = np.empty((d + 1, n))
        np.multiply(right[:d], temp, out=new[:d])
        new[d] = 0.0
        temp *= b
        new[1:] += temp
        basis[d] = new
        if d < 3:
            del basis[d - 1]
    c = _collocation_solve(basis.pop(k), y)

    # P[m] = C(k, m) sum_r E_r B_{r, k-m}, E the m-fold differenced
    # coefficients: at a left end the last B-spline of each degree vanishes
    # and the first of degree 0 and 1 is 1, so P[4] and P[5] read E_0 alone
    P = np.empty((k + 1, nint))
    P[0, 0] = y[0]
    P[0, 1:] = y[3:n - 3]
    E = sliding_window_view(c, nint)
    scale = 1.0
    for m in range(1, k + 1):
        d = k + 1 - m
        E = np.subtract(E[1:], E[:-1])
        E /= np.add(right[:d], back[k - d:], out=work[:d])[:, :nint]
        scale *= (k + 1 - m) / m
        if m < k - 1:
            np.einsum("ij,ij->j", E[:-1], basis[k - m][:-1, :nint], out=P[m])
            P[m] *= scale
        else:
            np.multiply(E[0], scale, out=P[m])
    return left, P


def spline_interpolant(f: Field):
    """Quintic interpolating spline of the field, C**4 across the nodes.

    Local Lagrange interpolation is only continuous: derivatives taken on a
    finer target grid see its kinks.  The spline is built once as a table
    of per-interval power coefficients (``_quintic_table``), so a query is
    one ``searchsorted`` and a degree-5 Horner sum.  Queries must lie inside
    the grid span, which the returned function carries as its ``span``.
    """
    left, P = _quintic_table(f.grid.nodes, f.values)
    span = f.grid.span
    tol = 1e-12 * max(1.0, span)

    def evaluate(points) -> np.ndarray:
        pts = np.atleast_1d(np.asarray(points, dtype=float))
        # fmin and fmax pass over NaN, so a NaN query hides no other one
        lo, hi = np.fmin.reduce(pts), np.fmax.reduce(pts)
        if lo < -tol or hi > span + tol:
            raise ExtrapolationError("interpolation query outside grid span")
        if lo < 0.0 or hi > span:
            pts = np.clip(pts, 0.0, span)
        # the last node closes the last interval
        idx = np.searchsorted(left, pts, side="right")
        idx -= 1
        dx = pts - left[idx]
        coef = P[:, idx]
        vals = coef[_K] * dx
        for m in range(_K - 1, 0, -1):
            vals += coef[m]
            vals *= dx
        vals += coef[0]
        return vals

    evaluate.span = span
    return evaluate
