"""Nonuniform 1-D grids and the discrete calculus shared by all solvers.

Derivatives use sliding local polynomial stencils with weights generated by
the classic recursive algorithm for arbitrary node placement, so the same
code path serves interior (centered) and boundary (one-sided) nodes.
Cumulative integration is trapezoidal, which preserves monotonicity of the
primitive for non-negative integrands; that property is load-bearing for
the streamfunction map.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .errors import (DomainError, ExtrapolationError, SingularInputError,
                     TooFewNodesError)

_MIN_NODES = 64
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
    cols = (y ** np.array(powers, dtype=float)[:, None]).T
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
        if nodes.ndim != 1 or len(nodes) < _MIN_NODES:
            raise TooFewNodesError(f"grid needs >= {_MIN_NODES} nodes, got {nodes.shape}")
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


def spline_interpolant(f: Field):
    """Quintic interpolating spline of the field, C**4 across the nodes.

    Local Lagrange interpolation is only continuous: derivatives taken on a
    finer target grid see its kinks.  Queries must lie inside the grid span,
    which the returned function carries as its ``span``.
    """
    from scipy.interpolate import make_interp_spline

    spline = make_interp_spline(f.grid.nodes, f.values, k=5)
    span = f.grid.span
    tol = 1e-12 * max(1.0, span)

    def evaluate(points) -> np.ndarray:
        pts = np.atleast_1d(np.asarray(points, dtype=float))
        if np.any(pts < -tol) or np.any(pts > span + tol):
            raise ExtrapolationError("interpolation query outside grid span")
        return spline(np.clip(pts, 0.0, span))

    evaluate.span = span
    return evaluate

