"""Exact-algebra engine tests: every value is derived, never guessed."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import uapp_core_poly

from prandtlsep import ratpoly as rp
from prandtlsep.errors import (AlgebraCertificateError, DegreeCapError,
                               InvalidProfileError, UnsupportedInputError)

P = rp.RationalPoly
F = Fraction

Y = P.Y
b = P.b


def mono(c, y=0, bb=0, bs=0):
    return P.monomial(F(*c) if isinstance(c, tuple) else c, y, bb, bs)


class TestArithmetic:
    def test_add_linear(self):
        assert Y() + Y() == mono(2, 1)

    def test_square(self):
        u = Y() + mono((1, 2), 2)
        assert u * u == mono(1, 2) + mono(1, 3) + mono((1, 4), 4)

    def test_monomial_product(self):
        assert mono(1, 4, 1) * mono(1, 1, 0, 1) == P({(5, 1, 1): F(1)})

    def test_scalar_and_sub(self):
        p = 3 * Y(2) - Y(2)
        assert p == mono(2, 2)
        assert p - p == P.zero()

    def test_degree_cap(self):
        with pytest.raises(DegreeCapError):
            mono(1, 41)


class TestCalculus:
    def test_antiderivative_examples(self):
        assert Y(2).antiderivative_Y() == mono((1, 3), 3)
        assert mono(1).antiderivative_Y() == Y()
        assert mono(1, 4, 1).antiderivative_Y() == mono((1, 5), 5, 1)

    @given(st.dictionaries(
        st.tuples(st.integers(0, 10), st.integers(0, 5), st.integers(0, 2)),
        st.fractions(min_value=-10, max_value=10), max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_antiderivative_inverts_derivative(self, terms):
        p = P(terms)
        assert p.antiderivative_Y().derivative_Y() == p

    def test_s_derivative_examples(self):
        assert mono(1, 4, 1).s_derivative() == P({(4, 0, 1): F(1)})
        assert mono(1, 7, 2).s_derivative() == P({(7, 1, 1): F(2)})
        assert mono((1, 2), 2).s_derivative() == P.zero()

    def test_s_derivative_rejects_bs(self):
        with pytest.raises(UnsupportedInputError):
            P.bs().s_derivative()

    def test_substitute_bs(self):
        assert P({(4, 0, 1): F(1)}).substitute_bs() == mono(-1, 4, 2)
        cancel = (P.bs() + b(2)) * Y(5)
        assert cancel.substitute_bs() == P.zero()
        assert (b() * Y()).substitute_bs() == b() * Y()


class TestNonlocalProduct:
    def test_on_base_profile(self):
        # oracle: (Y + Y^2/2)*Y - (1 + Y)*(Y^2/2) = Y^2/2, expanded by hand
        u = Y() + mono((1, 2), 2)
        assert rp.apply_L(u, Y()) == mono((1, 2), 2)

    def test_kernel_on_wall_slope(self):
        u = rp.profile_chain(4)[-1]
        assert rp.apply_L(u, u.derivative_Y()) == P.zero()

    def test_core_profile_on_y7(self):
        coeffs = rp.profile_coefficients()
        core = uapp_core_poly()
        got = rp.apply_L(core, Y(7))
        expected = (mono((7, 8), 8) + mono((3, 8), 9)
                    - mono(coeffs["a4"] / 2, 11, 1)
                    - mono(coeffs["a7"] / 8, 14, 2)
                    + mono(coeffs["a10"] / 4, 17, 3)
                    + mono(3 * coeffs["a11"] / 8, 18, 3))
        assert got == expected


class TestResidualAndChain:
    def test_stationary_solution(self):
        assert rp.prandtl_residual(mono((1, 2), 2)) == P.zero()

    def test_residual_of_second_iterate(self):
        u2 = rp.profile_chain(2)[-1]
        a4 = F(1, 48)
        res = rp.prandtl_residual(u2)
        expected = (-a4 * (F(4, 5) * P.bs() + F(13, 10) * b(2)) * Y(5)
                    - F(3, 10) * a4 * (P.bs() + b(2)) * Y(6)
                    + F(1, 5) * a4 * a4 * b() * (P.bs() + b(2)) * Y(8))
        assert res == expected

    def test_chain_coefficients(self):
        c = rp.profile_coefficients()
        assert c["a4"] == F(1, 48)
        assert c["a7"] == c["a4"] / 84 == F(1, 4032)
        assert c["a10"] == F(27, 1440) * c["a7"]
        assert c["a11"] == F(3, 1760) * c["a7"]

    def test_next_iterate_precondition(self):
        with pytest.raises(InvalidProfileError):
            rp.next_iterate(Y(2))

    def test_surviving_pure_terms_start_high(self):
        # after closure, the remaining pure-b residual of the fourth iterate
        # starts at Y^8 or beyond
        u4 = rp.profile_chain(4)[-1]
        survived = rp.prandtl_residual(u4).substitute_bs()
        min_deg = min(m[0] for m in survived.terms)
        assert min_deg >= 8

    def test_corrector_leading_coefficients(self):
        c7, c8 = rp.leading_V_coefficients()
        assert c7 == F(-8, 5) * F(1, 4032) == F(-1, 2520)
        assert c8 == F(-3, 560) * F(1, 48) == F(-1, 8960)


class TestIndependentDerivation:
    """The recursion re-derived in sympy, with no code shared with ratpoly."""

    @pytest.fixture(scope="class")
    def symbolic(self):
        pytest.importorskip("sympy")
        import symbolic_recursion
        return symbolic_recursion

    def test_chain_coefficients_agree(self, symbolic):
        assert symbolic.profile_coefficients(4) == rp.profile_coefficients()

    def test_residual_of_second_iterate_agrees(self, symbolic):
        u2_sym = symbolic.profile_chain(2)[-1]
        u2 = rp.profile_chain(2)[-1]
        assert symbolic.as_terms(u2_sym) == u2.terms
        assert symbolic.as_terms(symbolic.residual(u2_sym)) \
            == rp.prandtl_residual(u2).terms

    def test_iterates_agree_term_by_term(self, symbolic):
        for u_sym, u in zip(symbolic.profile_chain(4), rp.profile_chain(4)):
            assert symbolic.as_terms(u_sym) == u.terms


class TestRemainderDecomposition:
    def test_shape(self):
        u4 = rp.profile_chain(4)[-1]
        dec = rp.remainder_decomposition(u4)
        c = rp.profile_coefficients()
        expected_aligned = (mono(c["a4"], 4) + mono(2 * c["a7"], 7, 1)
                            + mono(3 * c["a10"], 10, 2) + mono(3 * c["a11"], 11, 2))
        assert dec.bs_b2_coeff == expected_aligned
        expected_b4 = mono(c["a10"], 10, 4) + mono(F(3, 2) * c["a11"], 11, 4)
        assert dec.b4_part == expected_b4
        assert dec.leftover_b3_y7 == c["a7"] / 2

    def test_d_constants_values(self):
        # hand-derived from combining the curvature defect bracket with the
        # traded Y^7 term: d11 = 2 a10 - a4 a7/4, d12 = (9/4) a11,
        # d14 = -a7^2/16, d17 = a7 a10/8, d18 = 3 a7 a11/16
        c = rp.profile_coefficients()
        dec = rp.remainder_decomposition(rp.profile_chain(4)[-1])
        assert dec.d_terms[(11, 4)] == 2 * c["a10"] - c["a4"] * c["a7"] / 4
        assert dec.d_terms[(12, 4)] == F(9, 4) * c["a11"]
        assert dec.d_terms[(14, 5)] == -c["a7"] ** 2 / 16
        assert dec.d_terms[(17, 6)] == c["a7"] * c["a10"] / 8
        assert dec.d_terms[(18, 6)] == 3 * c["a7"] * c["a11"] / 16

    def test_rejects_tampered_input(self):
        u4 = rp.profile_chain(4)[-1] + mono((1, 1000), 9, 2)
        with pytest.raises(AlgebraCertificateError):
            rp.remainder_decomposition(u4)


class TestSeriesOracle:
    def test_wall_trace_of_y7(self):
        order = 14
        u = (F(0), F(1), F(1, 2)) + (F(0),) * (order - 2)
        v = tuple(F(1) if i == 7 else F(0) for i in range(order + 1))
        assert rp.wall_trace_coefficient(u, v) == 1260

    def test_trace_times_leading_coefficient_is_half(self):
        c7, _ = rp.leading_V_coefficients()
        assert c7 * 1260 == F(-1, 2)

    def test_companion_weight(self):
        assert rp.perturbation_y8_weight() == F(9, 32)

    def test_linv_series_on_closed_form(self):
        # Linv(U^2) = U + Y U_Y for U = Y + Y^2/2:
        # series check of the non-local inverse
        order = 8
        u = (F(0), F(1), F(1, 2)) + (F(0),) * (order - 2)
        u2 = rp.series_mul(u, u, order)
        got = rp.linv_series(u, u2, order)
        uy = rp.series_derivative(u) + (F(0),)
        y_uy = (F(0),) + tuple(uy[:order])
        expected = tuple(u[i] + y_uy[i] for i in range(order + 1))
        assert got[: order - 1] == expected[: order - 1]


class TestSerialization:
    def test_canonical_ordering_deterministic(self):
        p = mono(1, 2, 1) + mono(1, 1, 2)
        q = mono(1, 1, 2) + mono(1, 2, 1)
        assert p.canonical_str() == q.canonical_str()


class TestCertificate:
    def test_fresh_build_passes(self):
        cert = rp.algebra_certificate()
        assert all(c.passed for c in cert)

    def test_fault_injection_names_culprit(self):
        cert = rp.algebra_certificate(tamper="a4")
        failed = [c for c in cert if not c.passed]
        assert failed
        assert "U2" in failed[0].name
