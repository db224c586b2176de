import numpy as np
import pytest
from reference import uniform_grid

from prandtlsep import energies as en
from prandtlsep import profiles as pr
from prandtlsep.errors import DomainError
from prandtlsep.gridfields import Field, Grid, diff
from prandtlsep.operators import (CHAIN_FITS, OperatorContext, WallFit, op_Linv,
                                  wall_slope_extrapolation)


@pytest.fixture(scope="module")
def flat_ctx():
    g = Grid.tanh_clustered(641, 20.0, 4.0)
    Y = g.nodes
    return OperatorContext.from_profile(Field(g, Y + Y**2 / 2))


class TestWeights:
    def test_trivial_weight(self):
        Y = np.linspace(0, 10, 50)
        assert np.array_equal(en.weight_eval(0.0, 0.26, 0, 100.0, Y), np.ones(50))

    def test_scale_point_value(self):
        s = 1000.0
        val = en.weight_eval(0.0, 0.27, 3, s, np.array([s**0.27]))
        assert abs(val[0] - 2.0**-3) < 1e-14

    def test_default_band_value(self):
        a, beta, m = en.WEIGHTS[1]
        s = 400.0
        Y = np.array([4.0 * s**beta])
        got = en.weight_eval(a, beta, m, s, Y)[0]
        assert m == 40
        assert abs(got - Y[0] ** -a * 5.0**-40) < 1e-12 * got

    def test_positive_decreasing(self):
        Y = np.linspace(0.0, 200.0, 400)
        w = en.weight_eval(*en.WEIGHTS[2], 500.0, Y)
        assert np.all(w[1:] > 0)
        assert np.all(np.diff(w[1:]) < 0)

    def test_weights_lie_in_the_admissible_band(self):
        assert len(en.WEIGHTS) == 3
        for a, beta, m in en.WEIGHTS:
            assert 0.0 <= a < 1.0
            assert m >= 0
            assert 0.25 < beta < 2.0 / 7.0

    def test_nonpositive_s_rejected(self):
        with pytest.raises(DomainError):
            en.weight_eval(*en.WEIGHTS[0], 0.0, np.linspace(0, 1, 5))


class TestCorrector:
    def test_exact_profile_gives_zero(self):
        s, b = 400.0, 1.0 / 400.0
        grid = Grid.tanh_clustered(513, 8.0 * s ** (2.0 / 7.0), 4.0)
        U = Field(grid, pr.eval_uapp(s, b, grid.nodes))
        V = en.compute_V(U, s, b)
        assert np.max(np.abs(V.values)) == 0.0

    def test_wall_ratio_reads_leading_coefficient(self):
        grid = Grid.tanh_clustered(513, 30.0, 4.0)
        Y = grid.nodes
        c7 = -3.7e-4
        V = Field(grid, c7 * Y**7 * np.exp(-Y / 2))
        assert abs(en.v_wall_ratio(V) - c7) / abs(c7) < 0.05


class TestEnergies:
    def test_zero_corrector(self, flat_ctx):
        g = flat_ctx.grid
        V0 = Field(g, np.zeros(len(g)))
        rep = en.energy_report(flat_ctx, V0, s=500.0, b=2e-3, bs=-4e-6)
        for key in ("E0", "E1", "E2", "D0", "D1", "D2"):
            assert getattr(rep, key) == 0.0

    def test_nonnegative_on_generic_field(self, flat_ctx):
        g = flat_ctx.grid
        Y = g.nodes
        V = Field(g, 1e-3 * Y**7 * np.exp(-Y))
        rep = en.energy_report(flat_ctx, V, s=500.0, b=2e-3, bs=-4e-6)
        for key in ("E0", "E1", "E2", "D0", "D1", "D2"):
            assert getattr(rep, key) >= 0.0

    def test_e0_matches_direct_quadrature(self, flat_ctx):
        g = flat_ctx.grid
        Y = g.nodes
        V = Field(g, 1e-2 * Y**4 * np.exp(-Y))
        got = en.energy_report(flat_ctx, V, s=500.0, b=2e-3, bs=-4e-6).E0
        d2 = diff(V, 2).values
        ref = np.trapezoid(d2**2 * en.weight_eval(*en.WEIGHTS[0], 500.0, Y), Y)
        assert abs(got - ref) < 1e-12 * max(ref, 1.0)


class TestTrace:
    def test_zero_corrector_inverse_law(self, flat_ctx):
        g = flat_ctx.grid
        V0 = Field(g, np.zeros(len(g)))
        rep = en.energy_report(flat_ctx, V0, s=500.0, b=1e-3, bs=-1e-6)
        assert rep.bs_plus_b2 == 0.0
        assert abs(rep.trace_residual) < 1e-12

    def test_synthetic_y7_against_series_oracle(self):
        # operator chain vs the exact rational series value 1260 c;
        # first-order convergence until the fit-model floor (~1e-4) is hit
        results = []
        for n in (161, 321, 641):
            g = Grid.tanh_clustered(n, 20.0, 4.0)
            Y = g.nodes
            ctx = OperatorContext.from_profile(Field(g, Y + Y**2 / 2))
            c = 2.5e-5
            V = Field(g, c * Y**7)
            fit = WallFit(lo=0.02, hi=0.35)
            g1 = op_Linv(ctx, diff(V, 2), fit)
            g2 = op_Linv(ctx, diff(g1, 2), fit)
            tr = wall_slope_extrapolation(diff(g2, 1))
            results.append(abs(tr - 1260.0 * c) / (1260.0 * c))
        assert results[-1] < 5e-3
        assert results[1] <= max(0.5 * results[0], 2e-4)

    def test_report_trace_on_y7_production_windows(self, flat_ctx):
        # with b_s = -b**2 the trace residual is the wall trace of the
        # report's own chain; its production windows hold the series value
        # 1260 c within a few percent of model bias
        Y = flat_ctx.grid.nodes
        c, b = 2.5e-5, 2e-3
        V = Field(flat_ctx.grid, c * Y**7)
        rep = en.energy_report(flat_ctx, V, s=500.0, b=b, bs=-b * b)
        assert rep.bs_plus_b2 == 0.0
        assert abs(rep.trace_residual - 1260.0 * c) / (1260.0 * c) < 0.05


class TestInequalities:
    def test_trace_inequality_constant_function(self):
        g = uniform_grid(257, 8.0)
        f = Field(g, np.full(len(g), 0.7))
        out = en.trace_inequality_audit(f, L=4.0, a=0.05)
        assert out["holds"]

    def test_trace_inequality_linear(self):
        g = uniform_grid(257, 8.0)
        f = Field(g, g.nodes.copy())
        out = en.trace_inequality_audit(f, L=4.0, a=0.05)
        assert out["lhs"] == 0.0
        assert out["holds"]

    def test_trace_inequality_randomized(self):
        rng = np.random.default_rng(42)
        g = uniform_grid(513, 8.0)
        y = g.nodes
        violations = 0
        for _ in range(100):
            coef = rng.normal(size=4)
            f = Field(g, coef[0] + coef[1] * np.sin(y) + coef[2] * np.cos(2 * y)
                      + coef[3] * y * np.exp(-y))
            out = en.trace_inequality_audit(f, L=4.0, a=0.05)
            violations += 0 if out["holds"] else 1
        assert violations == 0

    def test_coercivity_zero_field(self, flat_ctx):
        g = flat_ctx.grid
        f = Field(g, np.zeros(len(g)))
        out = en.coercivity_audit(flat_ctx, f, en.WEIGHTS[1], 500.0)
        assert out["lhs"] == 0.0
        assert out["holds_with_margin"]

    def test_coercivity_on_corrector_like_field(self, flat_ctx):
        g = flat_ctx.grid
        Y = g.nodes
        V = Field(g, 2e-4 * Y**7 * np.exp(-Y / 2))
        f = diff(op_Linv(flat_ctx, diff(V, 2)), 2)
        out = en.coercivity_audit(flat_ctx, f, en.WEIGHTS[1], 500.0)
        assert out["holds_with_margin"]
        assert out["margin"] > 0.0
        assert np.isfinite(out["tail_term"])


class TestReport:
    def test_report_consistency(self, flat_ctx):
        g = flat_ctx.grid
        Y = g.nodes
        V = Field(g, 1e-4 * Y**7 * np.exp(-Y))
        rep = en.energy_report(flat_ctx, V, s=500.0, b=2e-3, bs=-4e-6)
        assert rep.E1 > 0 and rep.D1 > 0
        assert rep.bs_plus_b2 == -4e-6 + 4e-6
        g1 = diff(op_Linv(flat_ctx, diff(V, 2), CHAIN_FITS[0]), 2).values
        e1 = np.trapezoid(g1**2 * en.weight_eval(*en.WEIGHTS[1], 500.0, Y), Y)
        assert abs(rep.E1 - e1) < 1e-12 * e1

    def test_the_chain_energies_are_the_report_energies(self, flat_ctx):
        # the resolved check and the report read E_k off one chain loop
        Y = flat_ctx.grid.nodes
        V = Field(flat_ctx.grid, 1e-4 * Y**7 * np.exp(-Y))
        rep = en.energy_report(flat_ctx, V, s=500.0, b=2e-3, bs=-4e-6)
        chain = [E for E, *_ in en.energy_chain(flat_ctx, V, 500.0)]
        assert chain == [rep.E0, rep.E1, rep.E2]
