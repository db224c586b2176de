import numpy as np
import pytest
from hardy import (hardy_constant, hardy_general, hardy_phi,
                   hardy_phi_closed)
from reference import uniform_grid

from prandtlsep import audits as au
from prandtlsep import profiles as pr
from prandtlsep import vonmises as vm
from prandtlsep.errors import DomainError
from prandtlsep.gridfields import Field, Grid
from prandtlsep.operators import OperatorContext


class TestHardyConstant:
    def test_reference_limit(self):
        # phi(r, 0, 1) increases to 2/9, so the constant is 8/9
        c = hardy_constant(0.0, 1.0)
        assert abs(c - 8.0 / 9.0) < 1e-3

    def test_phi_increasing_in_r(self):
        rs = np.geomspace(0.1, 200.0, 25)
        vals = [hardy_phi(float(r), 0.0, 1.0) for r in rs]
        assert np.all(np.diff(vals) > 0)
        assert vals[-1] < 2.0 / 9.0 + 1e-6

    def test_perturbed_parameters_stay_below_nine_tenths(self):
        assert hardy_constant(0.01, 0.999) <= 0.9

    def test_closed_form_matches_quadrature(self):
        for r, mu in ((0.5, 0.8), (3.0, 0.8), (50.0, 0.8), (10.0, 1.0)):
            quadrature = hardy_phi(r, 0.0, mu)
            closed = hardy_phi_closed(r, mu)
            assert abs(quadrature - closed) < 1e-8

    def test_monotone_in_a_near_zero(self):
        c0 = hardy_constant(0.0, 1.0)
        c1 = hardy_constant(0.02, 1.0)
        c2 = hardy_constant(0.05, 1.0)
        assert c1 <= c0 + 1e-6 and c2 <= c1 + 1e-6 or c1 >= c0 - 1e-6

    def test_domain(self):
        with pytest.raises(DomainError):
            hardy_phi(1.0, -0.1, 1.0)


class TestHardyGeneral:
    def test_unit_weights(self):
        c = hardy_general(lambda t: 1.0, lambda t: 1.0, 1.0)
        assert abs(c - 1.0) < 1e-3

    def test_divergent_inner_integral_flagged(self):
        assert np.isinf(hardy_general(lambda t: 1.0, lambda t: t * t, 1.0))
        assert np.isinf(hardy_general(lambda t: 1.0, lambda t: t, 1.0))

    def test_matches_specialized_constant(self):
        # the weight pair of the coercivity argument, both routes
        a = 0.02
        U = lambda t: t + 0.5 * t * t
        general = hardy_general(lambda t: t**-a / U(t) ** 2,
                                lambda t: t**-a / U(t), 1e4)
        special = hardy_constant(a, 1.0)
        assert general <= 0.9
        assert abs(general - special) < 5e-3


@pytest.fixture(scope="module")
def flat_ctx():
    g = Grid.tanh_clustered(641, 25.0, 4.0)
    Y = g.nodes
    return OperatorContext.from_profile(Field(g, Y + Y**2 / 2), slope_tol=1e-2)


class TestMaxPrinciple:
    def test_flat_profile_passes_with_zero_margin(self, flat_ctx):
        rep = au.max_principle_audit(flat_ctx, s=500.0, b=2e-3, M2=0.5, M1=1.0,
                                     y_min=0.5)
        assert rep.passed
        assert rep.worst_margin >= 0.0
        assert rep.details["y_min"] == 0.5

    def test_reference_profile_needs_quarter(self):
        # curvature of the wall polynomial: 1 - 12 a4 b Y^2 + h.o.t., so the
        # envelope needs M2 >= 12 a4 = 1/4
        s, b = 400.0, 1.0 / 400.0
        g = Grid.tanh_clustered(2049, 0.7 * s ** (1 / 3) * 1.4, 4.0)
        Y = g.nodes
        ctx = OperatorContext.from_profile(Field(g, pr.eval_uapp(s, b, Y)),
                                           slope_tol=1e-2)
        ok = au.max_principle_audit(ctx, s, b, M2=0.5, M1=1.0, y_min=0.5)
        assert ok.passed
        too_small = au.max_principle_audit(ctx, s, b, M2=1.0 / 16.0, M1=1.0,
                                            y_min=0.5)
        assert not too_small.passed

    def test_calibration_rounds_to_dyadic(self, flat_ctx):
        m2 = au.calibrate_M2(flat_ctx, 500.0, 2e-3)
        assert m2 == 0.5  # floor for a curvature-free profile
        assert np.log2(m2) == round(np.log2(m2))


class TestSubSuper:
    def test_pure_power_profile_sandwiched(self):
        # w = (6 psi)^(4/3)/4 lies between the comparison solutions for any
        # positive amplitudes
        psi = Grid.power_clustered(700, 1e6, 3.0)
        w = Field(psi, (6.0 * psi.nodes) ** (4.0 / 3.0) / 4.0)
        rep = au.subsolution_audit(w, s=500.0, b=2e-3, btilde=2e-3,
                                   A_minus=0.5, A_plus=0.25)
        assert rep.details["sandwich_violations"] == 0

    def test_differential_inequalities_hold(self):
        psi = Grid.power_clustered(700, 1e7, 3.0)
        w = Field(psi, (6.0 * psi.nodes) ** (4.0 / 3.0) / 4.0)
        rep = au.subsolution_audit(w, s=2000.0, b=5e-4, btilde=5e-4,
                                   A_minus=0.5, A_plus=0.25)
        assert rep.passed

    def test_empty_domain_reported(self):
        # psi ends below the sandwich floor: no node is checked, and the
        # report reads as every other sandwich report, with no violations
        psi = uniform_grid(128, 10.0)
        assert psi.span < au.sandwich_floor(2e-3)
        w = Field(psi, (6.0 * psi.nodes) ** (4.0 / 3.0) / 4.0)
        rep = au.subsolution_audit(w, s=500.0, b=2e-3, btilde=2e-3,
                                   A_minus=0.5, A_plus=0.25)
        assert rep.samples == 0 and rep.domain_checked == "empty domain"
        assert rep.name == "sub-super-solutions" and rep.passed
        assert rep.details["sandwich_violations"] == 0
        assert rep.details["differential_violations"] == 0

    def test_calibration_floors(self):
        psi = Grid.power_clustered(700, 1e6, 3.0)
        w = Field(psi, (6.0 * psi.nodes) ** (4.0 / 3.0) / 4.0)
        a_minus, a_plus = au.calibrate_A(w, 2e-3)
        assert a_minus >= 2.0**-10 and a_plus >= 2.0**-10


class TestBalanceBounds:
    def test_pure_power_profile(self):
        psi = Grid.power_clustered(900, 1e6, 3.0)
        w = Field(psi, (6.0 * psi.nodes) ** (4.0 / 3.0) / 4.0)
        # every interior node trusted: F is undefined at the two ends
        trusted = np.ones(len(psi), dtype=bool)
        trusted[0] = trusted[-1] = False
        F = vm.compute_F(w, float(w.values.max()))[0]
        rep = au.F_bound_audit(w, F, s=500.0, btilde=2e-3,
                               alpha=6.0 ** (2.0 / 3.0), trusted=trusted)
        assert rep.passed
        assert rep.details["upper_samples"] == len(psi) - 2
        assert rep.samples == len(psi) - 2 + rep.details["lower_samples"]

    def test_tolerance_floor(self):
        h = np.array([1e-3, 1e-2])
        scale = np.array([1.0, 1.0])
        tol = au.audit_tol(h, scale)
        assert np.all(tol >= au.DATA_FIDELITY)
