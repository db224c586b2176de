from math import factorial

import numpy as np
import pytest
import reference
from reference import convergence_order, same_bits, uniform_grid

from prandtlsep import gridfields as gf
from prandtlsep.errors import ExtrapolationError, TooFewNodesError


def _geometric(n: int, x_max: float, contrast: float) -> gf.Grid:
    """Spacings grow geometrically; last/first spacing ratio = ``contrast``.

    A fixed contrast (rather than a fixed per-cell ratio) makes the family
    refine uniformly, so convergence studies behave.
    """
    h = (contrast ** (1.0 / (n - 2))) ** np.arange(n - 1, dtype=float)
    nodes = np.concatenate(([0.0], np.cumsum(h)))
    return gf.Grid(nodes * (x_max / nodes[-1]), "geometric")


@pytest.fixture(params=["uniform", "tanh", "geometric", "power"])
def grid_maker(request):
    makers = {
        "uniform": lambda n: uniform_grid(n, 6.0),
        "tanh": lambda n: gf.Grid.tanh_clustered(n, 6.0, 4.0),
        "geometric": lambda n: _geometric(n, 6.0, 50.0),
        "power": lambda n: gf.Grid.power_clustered(n, 6.0, 3.0),
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
        starts, weights = g._diff_matrix(order)
        width = weights.shape[1]
        idx = starts[:, None] + np.arange(width)
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
        with pytest.raises(ExtrapolationError):
            gf.spline_interpolant(f)([1.5])


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
