from math import factorial

import numpy as np
import pytest
import reference
from reference import convergence_order, same_bits, uniform_grid

from prandtlsep import gridfields as gf
from prandtlsep import modulation as md
from prandtlsep.errors import (DomainError, ExtrapolationError,
                               FitFailureError, SingularInputError,
                               TooFewNodesError)


def _geometric(n: int, x_max: float, contrast: float) -> gf.Grid:
    """Spacings grow geometrically; last/first spacing ratio = ``contrast``.

    A fixed contrast (rather than a fixed per-cell ratio) makes the family
    refine uniformly, so convergence studies behave.
    """
    h = (contrast ** (1.0 / (n - 2))) ** np.arange(n - 1, dtype=float)
    nodes = np.concatenate(([0.0], np.cumsum(h)))
    return gf.Grid(nodes * (x_max / nodes[-1]))


@pytest.fixture(params=["uniform", "tanh", "geometric", "power", "rescaled",
                        "rescaled_reach"])
def grid_maker(request):
    makers = {
        "uniform": lambda n: uniform_grid(n, 6.0),
        "tanh": lambda n: gf.Grid.tanh_clustered(n, 6.0, 4.0),
        "geometric": lambda n: _geometric(n, 6.0, 50.0),
        "power": lambda n: gf.Grid.power_clustered(n, 6.0, 3.0),
        # wall-unit grids, which scale a shared unit grid's stencils: the
        # span 8 s**(2/7) is 6 at s = 0.75**3.5, and cut to 6 at s = 400
        "rescaled": lambda n: md.standard_rescaled_grid(0.75**3.5, n, reach=np.inf),
        "rescaled_reach": lambda n: md.standard_rescaled_grid(400.0, n, reach=6.0),
    }
    return makers[request.param]


class TestGrid:
    def test_basic_invariants(self, grid_maker):
        g = grid_maker(129)
        assert g.nodes[0] == 0.0
        assert np.all(np.diff(g.nodes) > 0)
        assert len(g) == 129

    def test_too_few_nodes(self):
        with pytest.raises(TooFewNodesError):
            gf.Grid(np.linspace(0, 1, 10))

    def test_nodes_immutable(self):
        g = uniform_grid(64, 1.0)
        with pytest.raises(ValueError):
            g.nodes[3] = 99.0

    def test_frozen_columns_are_kept_and_writable_ones_copied(self):
        # a column of a read-only table is kept as the view it is; a view
        # frozen over writable memory is copied, as is any writable array
        table = np.linspace(0.0, 1.0, 128).reshape(64, 2).copy()
        table.flags.writeable = False
        g = gf.Grid(table[:, 0])
        f = gf.Field(g, table[:, 1])
        assert np.shares_memory(g.nodes, table) and np.shares_memory(f.values, table)
        loose = np.linspace(0.0, 1.0, 64)
        view = loose[:]
        view.flags.writeable = False
        for values in (loose, view):
            kept = gf.Field(g, values).values
            assert not np.shares_memory(kept, loose) and not kept.flags.writeable


class TestDiff:
    def test_second_derivative_exact_on_quadratic(self, grid_maker):
        g = grid_maker(81)
        f = gf.Field(g, g.nodes**2)
        assert np.allclose(gf.diff(f, 2).values, 2.0, atol=1e-8)

    def test_third_derivative_on_cubic(self, grid_maker):
        g = grid_maker(81)
        f = gf.Field(g, g.nodes**3)
        d3 = gf.diff(f, 3).values
        assert np.allclose(d3[3:-3], 6.0, atol=1e-5)
        assert np.allclose(d3, 6.0, atol=2e-4)

    def test_first_derivative_convergence(self, grid_maker):
        errs = []
        for n in (129, 257, 513):
            g = grid_maker(n)
            f = gf.Field(g, np.sin(g.nodes))
            errs.append(np.max(np.abs(gf.diff(f, 1).values - np.cos(g.nodes))))
        assert convergence_order(errs) >= 1.9

    def test_invalid_order(self):
        g = uniform_grid(64, 1.0)
        with pytest.raises(ValueError):
            gf.diff(gf.Field(g, g.nodes), 4)


class TestStencilWeights:
    def test_batched_call_equals_row_by_row(self):
        g = gf.Grid.power_clustered(641, 40.0, 5.0)
        rows = np.array([0, 1, 2, 100, 320, 638, 639, 640])
        for order, width in gf._STENCIL_WIDTH.items():
            starts = np.clip(rows - width // 2, 0, len(g) - width)
            x = g.nodes[starts[:, None] + np.arange(width)]
            batched = gf.fd_weights(x, g.nodes[rows], order)
            single = np.array([gf.fd_weights(xr, g.nodes[r], order)
                               for xr, r in zip(x, rows)])
            assert batched.shape == (len(rows), width)
            assert np.array_equal(batched, single)

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_exact_on_monomials_to_width_minus_one(self, order):
        # power-5 clustering: wall cells of 4e-13 next to far-end cells of 0.3
        g = gf.Grid.power_clustered(641, 40.0, 5.0)
        y = g.nodes
        idx, weights = g._diff_matrix(order)
        width = weights.shape[1]
        starts = idx[:, 0]
        # one-sided stencils at the wall and at the far end
        assert starts[0] == starts[2] == 0
        assert starts[-1] == starts[-3] == len(g) - width
        for p in range(width):
            f = y**p
            exact = (factorial(p) / factorial(p - order) * y ** (p - order)
                     if p >= order else np.zeros_like(y))
            # roundoff scale of each stencil sum: a wrong weight misses by
            # orders of magnitude more
            scale = np.einsum("ij,ij->i", np.abs(weights), np.abs(f[idx]))
            err = np.abs(g.apply_diff(f, order) - exact)
            assert np.all(err <= 16 * np.finfo(float).eps * scale), (p, np.argmax(err / scale))

    @pytest.mark.parametrize("reach", [np.inf, 3.0])
    def test_scaled_stencils_are_fornbergs(self, reach, monkeypatch):
        n, s = 321, 400.0
        grid = md.standard_rescaled_grid(s, n, reach)
        span = min(8.0 * s ** (2.0 / 7.0), reach)
        assert same_bits(grid.nodes, gf.Grid.tanh_clustered(n, span, 4.0).nodes)
        # the unit weights times span**-order are the weights on the grid's
        # own nodes, to roundoff of each stencil's largest weight
        for order in gf._STENCIL_WIDTH:
            idx, weights = grid.cached(order, grid._diff_matrix, order)
            own = gf.fd_weights(grid.nodes[idx], grid.nodes, order)
            largest = np.max(np.abs(own), axis=1, keepdims=True)
            assert np.max(np.abs(weights - own) / largest) <= 1e-12, order
        # another wall-unit grid of n nodes builds no stencil: it gathers
        # with the unit grid's index, the very array the first one holds
        builds = []
        build = gf.fd_weights

        def counted(*args):
            builds.append(args)
            return build(*args)

        monkeypatch.setattr(gf, "fd_weights", counted)
        other = md.standard_rescaled_grid(2.0 * s, n, reach)
        shared = [other.cached(k, other._diff_matrix, k)[0] is grid.cached(k, None)[0]
                  for k in gf._STENCIL_WIDTH]
        assert shared == [True, True, True] and not builds


#: every monomial set that a least-squares fit of the package uses
FIT_POWERS = [(0, 3), (0, 1), (0, 1, 2), (1, 2, 3), (1, 2, 3, 4), (2, 3, 4, 5),
              (2, 3, 4, 5, 6), (2, 3, 4, 5, 6, 7), (7, 8)]
#: windows shaped like the package's: the wall-unit Y in [0.25, 2] of the
#: first chained fit, and a physical y window of the march's wall shear
FIT_WINDOWS = [(0.25, 2.0, 129), (2e-3, 8e-3, 12)]


class TestLstsqPowers:
    @pytest.mark.parametrize("powers", FIT_POWERS)
    @pytest.mark.parametrize("lo, hi, n", FIT_WINDOWS)
    def test_agrees_with_the_scaled_svd_solve(self, powers, lo, hi, n):
        # coefficients of order 1 in y/hi, so each monomial carries signal,
        # and a cosine the model cannot fit, so the residual is not 0
        y = np.linspace(lo, hi, n)
        coeffs = np.linspace(0.5, 1.5, len(powers))
        v = sum(c * (y / hi) ** p for c, p in zip(coeffs, powers)) \
            + 1e-3 * np.cos(3.0 * y / hi)
        expected = reference.lstsq_powers_svd(y, v, powers)
        got = gf.lstsq_powers(y, v, powers)
        assert np.max(np.abs(got - expected) / np.abs(expected)) < 1e-10

    @pytest.mark.parametrize("powers", FIT_POWERS)
    @pytest.mark.parametrize("lo, hi, n", FIT_WINDOWS)
    def test_unusable_window_raises(self, powers, lo, hi, n):
        # fewer distinct nodes than monomials, each node repeated, or fewer
        # nodes than monomials; then a nan sample on a good window
        y = np.linspace(lo, hi, n)
        distinct = np.linspace(lo, hi, len(powers) - 1)
        for nodes in (np.repeat(distinct, 3), distinct):
            with pytest.raises(SingularInputError):
                gf.lstsq_powers(nodes, np.cos(nodes), powers)
        v = np.cos(y)
        v[n // 2] = np.nan
        with pytest.raises(SingularInputError):
            gf.lstsq_powers(y, v, powers)


    def test_exponent_column_is_cached_read_only_for_tuples_and_lists(self):
        # the exponent column is made once per tuple of powers and shared by
        # every later fit, so it is read-only; a list of the same powers is
        # served the same column and gives the same coefficients to the bit
        y = np.linspace(0.25, 2.0, 129)
        v = np.cos(y)
        column = gf._exponent_column((1, 2, 3))
        assert same_bits(column, np.array([[1.0], [2.0], [3.0]]))
        assert not column.flags.writeable
        with pytest.raises(ValueError):
            column[0, 0] = 5.0
        from_tuple = gf.lstsq_powers(y, v, (1, 2, 3))
        before = gf._exponent_column.cache_info()
        from_list = gf.lstsq_powers(y, v, [1, 2, 3])
        after = gf._exponent_column.cache_info()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)
        assert gf._exponent_column((1, 2, 3)) is column
        assert same_bits(from_list, from_tuple)


class TestCumint:
    def test_constant(self, grid_maker):
        g = grid_maker(100)
        out = gf.cumint(gf.Field(g, np.ones(len(g)))).values
        assert np.allclose(out, g.nodes, atol=1e-14)

    def test_linear(self, grid_maker):
        g = grid_maker(300)
        out = gf.cumint(gf.Field(g, g.nodes)).values
        assert np.allclose(out, g.nodes**2 / 2, atol=2e-4)

    def test_quadratic_convergence(self, grid_maker):
        errs = []
        for n in (129, 257, 513):
            g = grid_maker(n)
            out = gf.cumint(gf.Field(g, 3 * g.nodes**2)).values
            errs.append(np.max(np.abs(out - g.nodes**3)))
            # the plain-array primitive under cumint: the inline formula, bitwise
            f = np.cos(g.nodes) ** 2
            assert same_bits(gf.cumtrapz(f, g.nodes), reference.cumtrapz(f, g.nodes))
        assert convergence_order(errs) >= 1.9

    def test_monotone_for_nonnegative(self, grid_maker):
        g = grid_maker(100)
        out = gf.cumint(gf.Field(g, np.abs(np.sin(7 * g.nodes)))).values
        assert np.all(np.diff(out) >= 0)

    def test_diff_of_cumint_recovers(self, grid_maker):
        g = grid_maker(513)
        f = np.cos(g.nodes)
        rec = gf.diff(gf.cumint(gf.Field(g, f)), 1).values
        assert np.max(np.abs(rec - f)) < 5e-4


class TestInterpolate:
    def test_identity_at_nodes(self, grid_maker):
        g = grid_maker(90)
        f = gf.Field(g, np.exp(-g.nodes))
        assert np.allclose(gf.spline_interpolant(f)(g.nodes), f.values, atol=1e-14)

    def test_exact_on_cubics(self, grid_maker):
        g = grid_maker(90)
        y = g.nodes
        f = gf.Field(g, 1 + y - 2 * y**2 + 0.5 * y**3)
        q = np.linspace(0.0, 6.0, 277)
        expected = 1 + q - 2 * q**2 + 0.5 * q**3
        assert np.max(np.abs(gf.spline_interpolant(f)(q) - expected)) < 1e-11

    def test_fourth_order_convergence(self, grid_maker):
        errs = []
        q = np.linspace(0.05, 5.9, 333)
        for n in (129, 257, 513):
            g = grid_maker(n)
            f = gf.Field(g, np.sin(g.nodes))
            errs.append(np.max(np.abs(gf.spline_interpolant(f)(q) - np.sin(q))))
        assert convergence_order(errs) >= 3.5

    def test_out_of_span(self):
        g = uniform_grid(64, 1.0)
        f = gf.Field(g, g.nodes)
        spline = gf.spline_interpolant(f)
        with pytest.raises(ExtrapolationError):
            spline([1.5])
        # a NaN query evaluates to NaN, and hides no query past either end
        for past in (1.5, -0.5):
            with pytest.raises(ExtrapolationError):
                spline([np.nan, past])
        vals = spline([np.nan, 0.25, np.nan])
        assert np.isnan(vals[[0, 2]]).all() and vals[1] == pytest.approx(0.25)

    def test_is_scipys_not_a_knot_quintic(self, grid_maker):
        # the same spline as make_interp_spline(k=5), at the nodes, between
        # them and at both ends
        from scipy.interpolate import make_interp_spline

        g = grid_maker(200)
        f = gf.Field(g, np.exp(-g.nodes) * np.sin(3.0 * g.nodes) + g.nodes)
        mid = 0.5 * (g.nodes[1:] + g.nodes[:-1])
        q = np.sort(np.concatenate([g.nodes, mid]))
        ref = make_interp_spline(g.nodes, f.values, k=5)(q)
        ours = gf.spline_interpolant(f)(q)
        assert np.max(np.abs(ours - ref)) <= 1e-13 * np.max(np.abs(ref))


class TestBrent:
    @pytest.mark.parametrize("f, a, b", [
        (lambda x: x**3 - 2.0 * x - 5.0, 2.0, 3.0),      # Wallis's cubic
        (lambda x: np.cos(x) - x, 0.0, 1.0),
        (lambda x: np.exp(x) - 2.0, 0.0, 2.0),
        (lambda x: x * x - 2.0, 0.0, 2.0),
        (lambda x: x**5 - x - 1.0, 1.0, 2.0),
        (lambda x: np.tanh(50.0 * (x - 0.3)), -1.0, 1.0),  # a near step
        (lambda x: np.arctan(1e3 * (x - 0.77)), 0.0, 1.0),
        (lambda x: x - 1e-300, -1.0, 1.0),
        # where inverse interpolation overshoots and Brent bisects instead
        (lambda x: np.exp(x) - 1e6, 0.0, 20.0),
        (lambda x: np.log(x), 0.1, 10.0),
        (lambda x: np.cbrt(x - 0.1), -1.0, 2.0),               # infinite slope
        (lambda x: 1.0 / x - 3.0, 0.01, 1.0),
    ])
    @pytest.mark.parametrize("xtol", [1e-3, 1e-6, 2e-12, 1e-14])
    def test_roots_are_scipys_bit_for_bit(self, f, a, b, xtol):
        from scipy.optimize import brentq

        ours = gf.brentq(f, a, b, xtol=xtol)
        assert same_bits(ours, brentq(f, a, b, xtol=xtol, rtol=gf._BRENT_RTOL))
        assert abs(f(ours)) <= abs(f(ours + 4.0 * xtol)) or f(ours) == 0.0

    def test_endpoint_root_bad_brackets_and_the_step_cap(self):
        from scipy.optimize import brentq

        assert gf.brentq(lambda x: x - 1.0, 1.0, 2.0, 1e-12) == 1.0
        # on this triple root both give up after 100 steps
        with pytest.raises(RuntimeError, match="100 iterations"):
            brentq(lambda x: (x - 1.0) ** 3, 0.0, 3.0, xtol=2e-12, rtol=gf._BRENT_RTOL)
        with pytest.raises(FitFailureError, match="100 steps"):
            gf.brentq(lambda x: (x - 1.0) ** 3, 0.0, 3.0, 2e-12)
        with pytest.raises(DomainError, match="share a sign"):
            gf.brentq(lambda x: x * x + 1.0, -1.0, 1.0, 1e-12)
        with pytest.raises(DomainError, match="not finite"):
            gf.brentq(lambda x: np.nan if x > 0.5 else x - 0.7, 0.0, 1.0, 1e-12)


def test_smoothstep_ramp_and_derivative():
    t = np.linspace(-0.5, 1.5, 2001)
    s = gf.smoothstep(t)
    assert np.array_equal(s[t <= 0.0], np.zeros(np.sum(t <= 0.0)))
    assert np.array_equal(s[t >= 1.0], np.ones(np.sum(t >= 1.0)))
    assert np.all(np.diff(s) >= 0.0)
    # the derivative matches centred differences and vanishes at both ends
    h = 1e-6
    fd = (gf.smoothstep(t + h) - gf.smoothstep(t - h)) / (2.0 * h)
    assert np.max(np.abs(gf.smoothstep_prime(t) - fd)) < 1e-8
    assert gf.smoothstep_prime(0.0) == 0.0 and gf.smoothstep_prime(1.0) == 0.0


def test_determinism():
    g1 = gf.Grid.tanh_clustered(200, 5.0, 4.0)
    g2 = gf.Grid.tanh_clustered(200, 5.0, 4.0)
    f1 = gf.diff(gf.Field(g1, np.sin(g1.nodes)), 2).values
    f2 = gf.diff(gf.Field(g2, np.sin(g2.nodes)), 2).values
    assert np.array_equal(f1, f2)
