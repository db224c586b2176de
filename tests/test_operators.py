import numpy as np
import pytest
from reference import convergence_order, op_L, uniform_grid

from prandtlsep import gridfields as gf
from prandtlsep import operators as ops
from prandtlsep.errors import InvalidProfileError, SingularInputError
from prandtlsep.gridfields import Field


def make_ctx(n=513, ymax=8.0):
    g = gf.Grid.tanh_clustered(n, ymax, 4.0)
    Y = g.nodes
    return ops.OperatorContext.from_profile(Field(g, Y + Y**2 / 2)), g, Y


@pytest.fixture(scope="module")
def ctx513():
    return make_ctx(513)


class TestContext:
    def test_wall_fit(self, ctx513):
        ctx, _, _ = ctx513
        c1, c2, c3, c4 = ctx.near_wall
        assert abs(c1 - 1.0) < 1e-9
        assert abs(c2 - 0.5) < 1e-6
        assert abs(c3) < 1e-4 and abs(c4) < 1e-3

    def test_rejects_nonvanishing_profile(self):
        g = uniform_grid(128, 4.0)
        with pytest.raises(InvalidProfileError):
            ops.OperatorContext.from_profile(Field(g, 1.0 + g.nodes))

    def test_rejects_wrong_slope(self):
        g = uniform_grid(128, 4.0)
        with pytest.raises(InvalidProfileError):
            ops.OperatorContext.from_profile(Field(g, 2.0 * g.nodes))


class TestExplicitInverses:
    def test_inverse_of_u_squared(self):
        # Linv(U^2) = (Y U)_Y = U + Y U_Y, at observed order >= 1.8
        errs = []
        for n in (257, 513, 1025):
            ctx, g, Y = make_ctx(n)
            got = ops.op_Linv(ctx, Field(g, ctx.U.values**2)).values
            expected = ctx.U.values + Y * ctx.U_Y.values
            errs.append(np.max(np.abs(got - expected)))
        assert errs[-1] < 1e-10  # exact identity up to roundoff here

    def test_inverse_of_slope_times_mass(self):
        # Linv(U_Y int U) = Y U_Y
        errs = []
        for n in (257, 513, 1025):
            ctx, g, Y = make_ctx(n)
            f = Field(g, ctx.U_Y.values * gf.cumint(ctx.U).values)
            got = ops.op_Linv(ctx, f).values
            errs.append(np.max(np.abs(got - Y * ctx.U_Y.values)))
        assert convergence_order(errs) >= 1.8

    def test_inverse_pair(self):
        errs = []
        for n in (257, 513, 1025):
            ctx, g, Y = make_ctx(n)
            w = Field(g, np.sin(Y) * Y)
            rec = ops.op_Linv(ctx, op_L(ctx, w)).values
            errs.append(np.max(np.abs(rec - w.values)))
        assert convergence_order(errs) >= 1.8

    def test_kernel_of_wall_slope(self, ctx513):
        ctx, _, _ = ctx513
        assert np.max(np.abs(op_L(ctx, ctx.U_Y).values)) < 1e-10

    def test_singular_input_rejected(self, ctx513):
        ctx, g, _ = ctx513
        with pytest.raises(SingularInputError):
            ops.op_Linv(ctx, Field(g, np.ones(len(g))))


class TestDiffusionField:
    def test_zero_on_base_profile(self, ctx513):
        ctx, _, _ = ctx513
        assert np.max(np.abs(ops.op_diffusion(ctx).values)) < 1e-7

    def test_leading_term_on_curved_profile(self):
        # profile with quartic correction: leading diffusion field is -b Y/2
        g = gf.Grid.tanh_clustered(1025, 8.0, 4.0)
        Y = g.nodes
        b = 1e-3
        a4 = 1.0 / 48.0
        U = Field(g, Y + Y**2 / 2 - a4 * b * Y**4)
        ctx = ops.OperatorContext.from_profile(U)
        D = ops.op_diffusion(ctx).values
        window = (Y > 0.1) & (Y < 1.0)
        rel = np.abs(D[window] + 0.5 * b * Y[window]) / (0.5 * b * Y[window])
        assert np.max(rel) < 0.05


class TestCommutator:
    def test_zero_diffusion_gives_zero(self, ctx513):
        ctx, g, Y = ctx513
        D0 = Field(g, np.zeros_like(Y))
        w = Field(g, Y**2 * np.exp(-Y / 3))
        assert np.max(np.abs(ops.op_commutator(ctx, D0, w).values)) == 0.0

    def test_manufactured_s_commutator(self):
        # family U(s) with known U_s: the finite-difference commutator must
        # match the closed form -(U_s int w/U^2)_Y + 2 (U int w U_s/U^3)_Y
        g = gf.Grid.tanh_clustered(641, 20.0, 4.0)
        Y = g.nodes
        c0, s0 = 1e-3, 1000.0

        def U_of(s):
            return Field(g, Y + Y**2 / 2 + (c0 * s0 / s) * Y**4 * np.exp(-Y))

        s1, s2 = 1000.0, 1010.0
        sm = 0.5 * (s1 + s2)
        ctx1 = ops.OperatorContext.from_profile(U_of(s1))
        ctx2 = ops.OperatorContext.from_profile(U_of(s2))
        ctxm = ops.OperatorContext.from_profile(
            U_of(s1).with_values(0.5 * (U_of(s1).values + U_of(s2).values)))
        T = Field(g, Y**2 * np.exp(-Y / 4))
        dds = (ops.op_Linv(ctx2, T).values - ops.op_Linv(ctx1, T).values) / (s2 - s1)
        us = -(c0 * s0 / sm**2) * Y**4 * np.exp(-Y)
        u = ctxm.U.values
        g1 = np.zeros_like(Y)
        g1[1:] = T.values[1:] / u[1:] ** 2
        i1 = gf.cumint(Field(g, g1)).values
        g2 = np.zeros_like(Y)
        g2[1:] = T.values[1:] * us[1:] / u[1:] ** 3
        i2 = gf.cumint(Field(g, g2)).values
        closed = -g.apply_diff(us * i1, 1) + 2.0 * g.apply_diff(u * i2, 1)
        # commutator order: [Linv, d/ds] W = -d/ds(Linv W) for fixed W
        win = (Y > 0.1) & (Y < 8.0)
        scale = np.max(np.abs(closed[win]))
        assert np.max(np.abs(dds[win] + closed[win])) / scale < 2e-3


class TestDerivativeFormulas:
    def test_order1_matches_direct_derivative(self, ctx513):
        ctx, g, Y = ctx513
        w = Field(g, Y**5)
        d1 = ops.dLinv(ctx, w, 1).values
        ref = gf.diff(ops.op_Linv(ctx, w), 1).values
        win = (Y > 0.05) & (Y < 6.0)
        assert np.max(np.abs(d1[win] - ref[win]) / np.abs(ref[win])) < 1e-4

    def test_order2_closed_form(self, ctx513):
        # d2 Linv(Y^5) = (6 Y^5 + 15 Y^4)/U^2 for U = Y + Y^2/2
        ctx, g, Y = ctx513
        U = ctx.U.values
        d2 = ops.dLinv(ctx, Field(g, Y**5), 2).values
        win = (Y > 0.05) & (Y < 6.0)
        ref = (6 * Y[win] ** 5 + 15 * Y[win] ** 4) / U[win] ** 2
        assert np.max(np.abs(d2[win] - ref) / ref) < 1e-6

    def test_order3_closed_form(self, ctx513):
        # derived from the closed-form derivative formulas:
        # d3 Linv(Y^5) = 3 Y^4 (Y^2 + 6 Y + 10)/U^3, checked independently
        # against the small-Y limit 30 Y of Linv(Y^5) ~ (5/4) Y^4
        ctx, g, Y = ctx513
        U = ctx.U.values
        d3 = ops.dLinv(ctx, Field(g, Y**5), 3).values
        win = (Y > 0.05) & (Y < 6.0)
        ref = 3 * Y[win] ** 4 * (Y[win] ** 2 + 6 * Y[win] + 10) / U[win] ** 3
        assert np.max(np.abs(d3[win] - ref) / ref) < 1e-6

    def test_order3_needs_cubic_vanishing(self, ctx513):
        ctx, g, Y = ctx513
        with pytest.raises(SingularInputError):
            ops.dLinv(ctx, Field(g, Y**2), 3)

    def test_invalid_order(self, ctx513):
        ctx, g, Y = ctx513
        with pytest.raises(ValueError):
            ops.dLinv(ctx, Field(g, Y**5), 4)


class TestWallChain:
    def test_double_diffusion_trace_on_y7(self):
        # wall slope of the twice-applied diffusion chain on Y^7 equals 1260
        # (exact rational series oracle); narrow analytic-grade windows
        fit = ops.WallFit(lo=0.02, hi=0.35)
        results = []
        for n in (257, 513):
            ctx, g, Y = make_ctx(n)
            g2 = ops.op_cLU(ctx, ops.op_cLU(ctx, Field(g, Y**7), fit), fit)
            tr = ops.wall_slope_extrapolation(gf.diff(g2, 1))
            results.append(tr)
        assert abs(results[-1] - 1260.0) / 1260.0 < 5e-3

    def test_production_windows_keep_trace_usable(self):
        # the noise-robust marching windows accept a few percent of model
        # bias on the same closed form
        ctx, g, Y = make_ctx(513)
        g2 = ops.clu_chain(ctx, Field(g, Y**7), 2)
        tr = ops.wall_slope_extrapolation(gf.diff(g2, 1))
        assert abs(tr - 1260.0) / 1260.0 < 0.05


class TestDiffusionComposition:
    def test_product_recovers_curvature(self, ctx513):
        # L_U applied to the diffusion-chain output returns d2v/dY2
        ctx, g, Y = ctx513
        v = Field(g, 2e-3 * Y**7 * np.exp(-Y / 2))
        recovered = op_L(ctx, ops.op_cLU(ctx, v)).values
        d2 = gf.diff(v, 2).values
        win = (Y > 0.5) & (Y < 6.0)
        scale = np.max(np.abs(d2[win]))
        assert np.max(np.abs(recovered[win] - d2[win])) / scale < 1e-3

    def test_chain_output_linear_at_wall(self, ctx513):
        # the diffusion of an O(Y^7) field vanishes linearly at the wall
        ctx, g, Y = ctx513
        v = Field(g, 1e-3 * Y**7 * np.exp(-Y / 2))
        out = ops.op_cLU(ctx, v).values
        sel = (Y > 1e-3) & (Y < 0.05)
        ratio = out[sel] / Y[sel]
        assert np.all(np.isfinite(ratio))
        assert np.max(np.abs(ratio)) < 10.0 * abs(ratio[-1]) + 1e-12
