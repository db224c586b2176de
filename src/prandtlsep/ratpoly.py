"""Exact polynomial algebra in (Y, b, b_s) over the rationals.

A polynomial is a mapping from exponent triples ``(deg_Y, deg_b, deg_bs)``
to ``fractions.Fraction`` coefficients.  The exact representation makes the
profile algebra fully certifiable: every identity below is checked
bit-for-bit, with no floating point anywhere.

``b`` stands for the wall-shear modulation rate and is the only quantity
that depends on the slow variable s; ``b_s`` is its s-derivative, kept as
an independent formal symbol (it is never differentiated itself, which is
safe because the profile iterates contain pure b-powers only).

The module owns:

* the iteration that builds the near-wall profile family
  ``Y + Y**2/2 - a4*b*Y**4 - a7*b**2*Y**7 - ...`` and its coefficients,
* the non-local product ``L_{w1} w2 = w1*w2 - w1' * int_0^Y w2``,
* the residual of the rescaled boundary-layer equation,
* the decomposition of the evolution remainder into its
  ``(b_s + b**2)``-aligned and pure ``b**4`` parts,
* exact wall Taylor series for the inverse operator chain (used as the
  oracle for the discrete trace diagnostics).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Mapping, Tuple

from .errors import (
    AlgebraCertificateError,
    DegreeCapError,
    InvalidProfileError,
    UnsupportedInputError,
)

Monomial = Tuple[int, int, int]  # (deg_Y, deg_b, deg_bs)

#: Hard cap on every individual exponent.  All identities handled here live
#: below total degree 20; blowing through the cap means a runaway expansion.
DEGREE_CAP = 40


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"exact coefficient required, got {type(value).__name__}")


class RationalPoly:
    """Immutable sparse polynomial in (Y, b, b_s) with Fraction coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Monomial, Fraction] | None = None):
        clean: Dict[Monomial, Fraction] = {}
        if terms:
            for mono, coeff in terms.items():
                coeff = _as_fraction(coeff)
                if coeff == 0:
                    continue
                dy, db, dbs = mono
                if dy < 0 or db < 0 or dbs < 0:
                    raise ValueError(f"negative exponent in monomial {mono}")
                if max(dy, db, dbs) > DEGREE_CAP:
                    raise DegreeCapError(f"monomial {mono} exceeds degree cap {DEGREE_CAP}")
                clean[(int(dy), int(db), int(dbs))] = coeff
        object.__setattr__(self, "_terms", clean)

    # -- construction helpers -------------------------------------------------

    @classmethod
    def zero(cls) -> "RationalPoly":
        return cls()

    @classmethod
    def monomial(cls, coeff, deg_Y: int = 0, deg_b: int = 0, deg_bs: int = 0) -> "RationalPoly":
        return cls({(deg_Y, deg_b, deg_bs): _as_fraction(coeff)})

    @classmethod
    def Y(cls, power: int = 1) -> "RationalPoly":
        return cls.monomial(1, deg_Y=power)

    @classmethod
    def b(cls, power: int = 1) -> "RationalPoly":
        return cls.monomial(1, deg_b=power)

    @classmethod
    def bs(cls) -> "RationalPoly":
        return cls.monomial(1, deg_bs=1)

    # -- mapping access --------------------------------------------------------

    @property
    def terms(self) -> Dict[Monomial, Fraction]:
        return dict(self._terms)

    def coeff(self, deg_Y: int, deg_b: int = 0, deg_bs: int = 0) -> Fraction:
        return self._terms.get((deg_Y, deg_b, deg_bs), Fraction(0))

    def degree_bs(self) -> int:
        return max((m[2] for m in self._terms), default=0)

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other: "RationalPoly") -> "RationalPoly":
        terms = dict(self._terms)
        for mono, coeff in other._terms.items():
            terms[mono] = terms.get(mono, Fraction(0)) + coeff
        return RationalPoly(terms)

    def __sub__(self, other: "RationalPoly") -> "RationalPoly":
        terms = dict(self._terms)
        for mono, coeff in other._terms.items():
            terms[mono] = terms.get(mono, Fraction(0)) - coeff
        return RationalPoly(terms)

    def __neg__(self) -> "RationalPoly":
        return RationalPoly({m: -c for m, c in self._terms.items()})

    def __mul__(self, other) -> "RationalPoly":
        if isinstance(other, (int, Fraction)):
            factor = _as_fraction(other)
            return RationalPoly({m: c * factor for m, c in self._terms.items()})
        terms: Dict[Monomial, Fraction] = {}
        for (y1, b1, s1), c1 in self._terms.items():
            for (y2, b2, s2), c2 in other._terms.items():
                mono = (y1 + y2, b1 + b2, s1 + s2)
                terms[mono] = terms.get(mono, Fraction(0)) + c1 * c2
        return RationalPoly(terms)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    # -- calculus --------------------------------------------------------------

    def derivative_Y(self) -> "RationalPoly":
        terms: Dict[Monomial, Fraction] = {}
        for (dy, db, dbs), c in self._terms.items():
            if dy > 0:
                terms[(dy - 1, db, dbs)] = terms.get((dy - 1, db, dbs), Fraction(0)) + c * dy
        return RationalPoly(terms)

    def antiderivative_Y(self) -> "RationalPoly":
        """Primitive in Y vanishing at Y = 0 (inverts derivative_Y exactly)."""
        terms: Dict[Monomial, Fraction] = {}
        for (dy, db, dbs), c in self._terms.items():
            terms[(dy + 1, db, dbs)] = c / (dy + 1)
        return RationalPoly(terms)

    def s_derivative(self) -> "RationalPoly":
        """d/ds with b(s) the only s-dependence: b**k -> k b**(k-1) b_s.

        The input must be free of b_s (chain rule would otherwise require a
        second formal symbol, which the profile algebra never needs).
        """
        if self.degree_bs() > 0:
            raise UnsupportedInputError("s_derivative requires a b_s-free polynomial")
        terms: Dict[Monomial, Fraction] = {}
        for (dy, db, _), c in self._terms.items():
            if db > 0:
                mono = (dy, db - 1, 1)
                terms[mono] = terms.get(mono, Fraction(0)) + c * db
        return RationalPoly(terms)

    def substitute_bs(self) -> "RationalPoly":
        """Replace every b_s by -b**2 (the stable modulation closure)."""
        out = RationalPoly.zero()
        for (dy, db, dbs), c in self._terms.items():
            sign = -1 if dbs % 2 else 1
            out = out + RationalPoly.monomial(c * sign, dy, db + 2 * dbs, 0)
        return out

    def split_bs_linear(self) -> Tuple["RationalPoly", "RationalPoly"]:
        """Write self = A*b_s + B with A, B free of b_s (requires deg_bs <= 1)."""
        if self.degree_bs() > 1:
            raise UnsupportedInputError("polynomial is not linear in b_s")
        a_terms: Dict[Monomial, Fraction] = {}
        b_terms: Dict[Monomial, Fraction] = {}
        for (dy, db, dbs), c in self._terms.items():
            if dbs == 1:
                a_terms[(dy, db, 0)] = c
            else:
                b_terms[(dy, db, 0)] = c
        return RationalPoly(a_terms), RationalPoly(b_terms)

    def truncate_degree_Y(self, max_deg: int) -> "RationalPoly":
        return RationalPoly({m: c for m, c in self._terms.items() if m[0] <= max_deg})

    # -- text form --------------------------------------------------------------

    def canonical_str(self) -> str:
        """Deterministic text form: terms sorted lexicographically on exponents."""
        if not self._terms:
            return "0"
        parts = []
        for mono in sorted(self._terms):
            c = self._terms[mono]
            factors = []
            for sym, deg in zip(("Y", "b", "b_s"), mono):
                if deg == 1:
                    factors.append(sym)
                elif deg > 1:
                    factors.append(f"{sym}^{deg}")
            body = "*".join(factors)
            if body:
                parts.append(f"({c})*{body}")
            else:
                parts.append(f"({c})")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"RationalPoly({self.canonical_str()})"


# ---------------------------------------------------------------------------
# Non-local product and the rescaled-equation residual
# ---------------------------------------------------------------------------


def apply_L(w1: RationalPoly, w2: RationalPoly) -> RationalPoly:
    """L_{w1} w2 = w1*w2 - (d_Y w1) * int_0^Y w2, exactly."""
    return w1 * w2 - w1.derivative_Y() * w2.antiderivative_Y()


def prandtl_residual(u: RationalPoly) -> RationalPoly:
    """Residual of the rescaled wall equation for a b_s-free profile.

    residual = U dU/ds - U_Y int_0^Y dU/ds - b U**2 + (3b/2) U_Y int_0^Y U
               - U_YY + 1

    A profile solves the equation exactly iff the residual vanishes.  The
    result carries b_s linearly, through the s-derivative of b-powers.
    """
    us = u.s_derivative()
    uy = u.derivative_Y()
    b = RationalPoly.b()
    res = u * us - uy * us.antiderivative_Y()
    res = res - b * (u * u) + Fraction(3, 2) * b * (uy * u.antiderivative_Y())
    res = res - uy.derivative_Y() + RationalPoly.monomial(1)
    return res


def _check_profile_normalization(u: RationalPoly) -> None:
    for (dy, db, dbs), c in u.terms.items():
        if dbs > 0:
            raise InvalidProfileError("profile iterate must be b_s-free")
        if dy == 0 and c != 0:
            raise InvalidProfileError("profile must vanish at Y = 0")
        if dy == 1 and (db, dbs) != (0, 0) and c != 0:
            raise InvalidProfileError("wall slope must be the pure monomial Y")
    if u.coeff(1, 0, 0) != 1:
        raise InvalidProfileError("profile must have unit wall slope")


def next_iterate(u: RationalPoly) -> RationalPoly:
    """One step of the profile recursion.

    The Y-curvature of the update is the equation residual with every b_s
    replaced by -b**2; the update itself is the double primitive vanishing
    to second order at the wall, so the corrections start at Y**4.
    """
    _check_profile_normalization(u)
    correction = prandtl_residual(u).substitute_bs()
    return u + correction.antiderivative_Y().antiderivative_Y()


def profile_chain(n: int) -> list[RationalPoly]:
    """[U_1, ..., U_n] starting from U_1 = Y + Y**2/2."""
    u = RationalPoly.Y() + RationalPoly.monomial(Fraction(1, 2), 2)
    chain = [u]
    for _ in range(n - 1):
        u = next_iterate(u)
        chain.append(u)
    return chain


def profile_coefficients() -> Dict[str, Fraction]:
    """Exact coefficients of the fourth iterate, keyed a4, a7, a10, a11, a13, a16.

    Sign convention: the iterate is
    Y + Y**2/2 - a4 b Y**4 - a7 b**2 Y**7 - a10 b**3 Y**10 - a11 b**3 Y**11
    + a13 b**4 Y**13 + a16 b**5 Y**16.
    """
    u4 = profile_chain(4)[-1]
    return {
        "a4": -u4.coeff(4, 1),
        "a7": -u4.coeff(7, 2),
        "a10": -u4.coeff(10, 3),
        "a11": -u4.coeff(11, 3),
        "a13": u4.coeff(13, 4),
        "a16": u4.coeff(16, 5),
    }


def leading_V_coefficients() -> Tuple[Fraction, Fraction]:
    """(b_s + b**2)-normalized Y**7 and Y**8 coefficients of the first corrector.

    The corrector is the double primitive of the (b_s + b**2)-aligned part
    of the residual of the second iterate; its two leading coefficients set
    the wall trace used throughout the diagnostics.
    """
    u2 = profile_chain(2)[-1]
    res = prandtl_residual(u2)
    aligned, _ = res.split_bs_linear()  # residual = aligned*(b_s) + rest
    v = aligned.antiderivative_Y().antiderivative_Y()
    return v.coeff(7, 0), v.coeff(8, 0)


# ---------------------------------------------------------------------------
# Remainder decomposition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RemainderDecomposition:
    """Certified shape of the evolution remainder of the approximate profile.

    ``bs_b2_coeff``: polynomial multiplying (b_s + b**2);
    ``b4_part``: the pure-b**4 polynomial part;
    ``inner_bracket``: the polynomial fed to the inverse operator after the
    Y**7 leftover is traded against L_{U}(Y**7) (its Y**8/Y**9 entries must
    cancel exactly);
    ``d_terms``: surviving bracket coefficients keyed by (deg_Y, deg_b).
    """

    bs_b2_coeff: RationalPoly
    b4_part: RationalPoly
    leftover_b3_y7: Fraction
    inner_bracket: RationalPoly
    d_terms: Dict[Tuple[int, int], Fraction]


def remainder_decomposition(u4: RationalPoly) -> RemainderDecomposition:
    """Decompose the remainder generated by the truncated profile.

    Starting from the chain output, the truncated wall polynomial P (degree
    <= 11) is transported by d/ds - b + (b/2) Y d/dY, the diffusion head
    +(b/2) Y is added back, and the negated result is split into

        (b_s + b**2) * [a4 Y**4 + 2 a7 b Y**7 + 3 a10 b**2 Y**10
                        + 3 a11 b**2 Y**11]
        + [a10 b**4 Y**10 + (3/2) a11 b**4 Y**11]
        + (a7/2) b**3 Y**7.

    The last monomial is rewritten through the inverse operator against
    L_P(Y**7) and combined with the curvature defect of P; the Y**8 and
    Y**9 entries of the resulting bracket must vanish identically, and the
    survivors are the d-coefficients.  Any shape mismatch raises.
    """
    coeffs = profile_coefficients()
    a4, a7, a10, a11 = coeffs["a4"], coeffs["a7"], coeffs["a10"], coeffs["a11"]

    p = u4.truncate_degree_Y(11)
    b = RationalPoly.b()
    y = RationalPoly.Y()

    transport = (
        p.s_derivative()
        - b * p
        + Fraction(1, 2) * b * y * p.derivative_Y()
        + Fraction(1, 2) * b * y
    )
    main = -transport
    aligned, rest = main.split_bs_linear()
    # main = aligned*b_s + rest = aligned*(b_s + b**2) + (rest - aligned*b**2)
    pure = rest - (aligned * b * b)

    expected_aligned = (
        RationalPoly.monomial(a4, 4, 0)
        + RationalPoly.monomial(2 * a7, 7, 1)
        + RationalPoly.monomial(3 * a10, 10, 2)
        + RationalPoly.monomial(3 * a11, 11, 2)
    )
    if aligned != expected_aligned:
        raise AlgebraCertificateError(
            "modulation-aligned remainder part has unexpected shape: "
            + aligned.canonical_str()
        )

    b4_part = RationalPoly({m: c for m, c in pure.terms.items() if m[0] >= 10})
    expected_b4 = RationalPoly.monomial(a10, 10, 4) + RationalPoly.monomial(
        Fraction(3, 2) * a11, 11, 4
    )
    if b4_part != expected_b4:
        raise AlgebraCertificateError(
            "pure-b**4 remainder part has unexpected shape: " + b4_part.canonical_str()
        )

    leftover = pure - b4_part
    if leftover.terms.keys() != {(7, 3, 0)}:
        raise AlgebraCertificateError(
            "leftover beyond the b**4 part is not a single b**3 Y**7 term: "
            + leftover.canonical_str()
        )
    c7 = leftover.coeff(7, 3)
    if c7 != a7 / 2:
        raise AlgebraCertificateError(f"b**3 Y**7 leftover is {c7}, expected a7/2")

    # Curvature defect of P beyond the head (b/2) L_P(Y), then the traded term.
    q = RationalPoly.monomial(1) - p.derivative_Y().derivative_Y()
    q_rest = q - Fraction(1, 2) * b * apply_L(p, y)
    bracket = -q_rest + RationalPoly.monomial(c7, 0, 3) * apply_L(p, RationalPoly.Y(7))

    d_terms: Dict[Tuple[int, int], Fraction] = {}
    for (dy, db, dbs), c in bracket.terms.items():
        if dbs != 0:
            raise AlgebraCertificateError("bracket must be b_s-free")
        if dy in (8, 9):
            raise AlgebraCertificateError(
                f"Y**{dy} entry of the bracket failed to cancel: coefficient {c}"
            )
        d_terms[(dy, db)] = c

    expected_keys = {(11, 4), (12, 4), (14, 5), (17, 6), (18, 6)}
    if set(d_terms) != expected_keys:
        raise AlgebraCertificateError(
            f"bracket supported on {sorted(d_terms)}, expected {sorted(expected_keys)}"
        )

    return RemainderDecomposition(
        bs_b2_coeff=aligned,
        b4_part=b4_part,
        leftover_b3_y7=c7,
        inner_bracket=bracket,
        d_terms=d_terms,
    )


# ---------------------------------------------------------------------------
# Exact wall Taylor series for the inverse operator chain
# ---------------------------------------------------------------------------


def series_mul(a: Tuple[Fraction, ...], c: Tuple[Fraction, ...], order: int) -> Tuple[Fraction, ...]:
    out = [Fraction(0)] * (order + 1)
    for i, ai in enumerate(a):
        if ai == 0 or i > order:
            continue
        for j, cj in enumerate(c):
            if i + j > order:
                break
            if cj != 0:
                out[i + j] += ai * cj
    return tuple(out)


def series_inv(a: Tuple[Fraction, ...], order: int) -> Tuple[Fraction, ...]:
    """Reciprocal power series; requires a[0] != 0."""
    if not a or a[0] == 0:
        raise UnsupportedInputError("series reciprocal needs a nonzero constant term")
    inv = [Fraction(0)] * (order + 1)
    inv[0] = 1 / a[0]
    for n in range(1, order + 1):
        acc = Fraction(0)
        for k in range(1, n + 1):
            ak = a[k] if k < len(a) else Fraction(0)
            acc += ak * inv[n - k]
        inv[n] = -acc / a[0]
    return tuple(inv)


def series_shift_down(a: Tuple[Fraction, ...], k: int) -> Tuple[Fraction, ...]:
    """Divide by Y**k; the dropped coefficients must vanish."""
    if any(c != 0 for c in a[:k]):
        raise UnsupportedInputError(f"series does not vanish to order {k} at the wall")
    return tuple(a[k:])


def series_integrate(a: Tuple[Fraction, ...]) -> Tuple[Fraction, ...]:
    return (Fraction(0),) + tuple(c / (i + 1) for i, c in enumerate(a))


def series_derivative(a: Tuple[Fraction, ...]) -> Tuple[Fraction, ...]:
    if len(a) <= 1:
        return (Fraction(0),)
    return tuple(c * i for i, c in enumerate(a))[1:]


def linv_series(u: Tuple[Fraction, ...], f: Tuple[Fraction, ...], order: int) -> Tuple[Fraction, ...]:
    """Wall Taylor series of the inverse operator:  U_Y int_0^Y f/U**2 + f/U.

    ``u`` must vanish at 0 with unit slope; ``f`` must vanish to second
    order.  All arithmetic exact.
    """
    work = order + 4
    u = tuple(u) + (Fraction(0),) * max(0, work + 1 - len(u))
    f = tuple(f) + (Fraction(0),) * max(0, work + 1 - len(f))
    p = series_shift_down(u, 1)  # u / Y, p[0] = 1
    q = series_shift_down(f, 2)  # f / Y**2
    inv_p = series_inv(p, work)
    inv_p2 = series_mul(inv_p, inv_p, work)
    integrand = series_mul(q, inv_p2, work)  # f / u**2
    integral = series_integrate(integrand)
    uy = series_derivative(u) + (Fraction(0),)
    part1 = series_mul(uy, integral, work)
    f_over_u = series_mul(series_shift_down(f, 1), inv_p, work)  # (f/Y)/(u/Y)
    out = tuple(part1[i] + f_over_u[i] for i in range(work + 1))
    return out[: order + 1]


def clu_series(u: Tuple[Fraction, ...], v: Tuple[Fraction, ...], order: int) -> Tuple[Fraction, ...]:
    """Series of the diffusion operator (inverse of L composed with d2/dY2)."""
    d2v = series_derivative(series_derivative(v))
    return linv_series(u, d2v, order)


def wall_trace_coefficient(u: Tuple[Fraction, ...], v: Tuple[Fraction, ...]) -> Fraction:
    """d/dY at Y=0 of the twice-applied diffusion operator on v.

    This is the wall functional that reads the modulation defect off the
    corrector; exact rational output.
    """
    g = clu_series(u, v, len(v) + 4)
    h = clu_series(u, g, 4)
    return h[1] if len(h) > 1 else Fraction(0)


def perturbation_y8_weight() -> Fraction:
    """Ratio tuning the Y**8 companion of a Y**7 wall perturbation.

    Chosen so the wall trace of Y**7 + c8*Y**8 has no linear Y-correction,
    which keeps the second trace derivative at the size of the modulation
    defect.  Computed exactly from the series oracle on Y + Y**2/2.
    """
    order = 14
    u = (Fraction(0), Fraction(1), Fraction(1, 2)) + (Fraction(0),) * (order - 2)

    def trace_linear(power: int) -> Tuple[Fraction, Fraction]:
        v = [Fraction(0)] * (order + 1)
        v[power] = Fraction(1)
        g = clu_series(u, tuple(v), order)
        h = clu_series(u, g, 5)
        return h[1], h[2]

    _, y7_quad = trace_linear(7)
    _, y8_quad = trace_linear(8)
    if y8_quad == 0:
        raise AlgebraCertificateError("Y**8 companion has no quadratic trace response")
    return -y7_quad / y8_quad


# ---------------------------------------------------------------------------
# Certificate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IdentityCheck:
    name: str
    expected: str
    computed: str
    passed: bool


def algebra_certificate(tamper: str | None = None) -> list[IdentityCheck]:
    """Re-derive and certify every exact identity; optionally inject a fault.

    ``tamper="a4"`` flips the Y**4 coefficient of the second iterate before
    checking, exercising the failure path end to end.
    """
    checks: list[IdentityCheck] = []

    def add(name: str, expected, computed) -> None:
        exp_s = expected.canonical_str() if isinstance(expected, RationalPoly) else str(expected)
        got_s = computed.canonical_str() if isinstance(computed, RationalPoly) else str(computed)
        checks.append(IdentityCheck(name, exp_s, got_s, exp_s == got_s))

    half_y2 = RationalPoly.monomial(Fraction(1, 2), 2)
    add("residual(Y^2/2)", RationalPoly.zero(), prandtl_residual(half_y2))

    chain = profile_chain(4)
    u1, u2, u3, u4 = chain
    if tamper == "a4":
        u2 = u2 + RationalPoly.monomial(Fraction(1, 10**6), 4, 1)

    a4 = Fraction(1, 48)
    a7 = a4 / 84
    a10 = Fraction(27, 1440) * a7
    a11 = Fraction(3, 1760) * a7
    # the Y^13/Y^16 coefficients follow from the recursion's residual terms
    # (1/4) a4 a7 b^4 Y^11 and (1/16) a7^2 b^5 Y^14 after double integration
    a13 = a4 * a7 / 624
    a16 = a7 * a7 / 3840

    expected_u2 = u1 - RationalPoly.monomial(a4, 4, 1)
    add("U2 = Y + Y^2/2 - (1/48) b Y^4", expected_u2, u2)
    add("a7 = a4/84 = 1/4032", a7, -u3.coeff(7, 2))
    add("a10 = 27 a7/1440", a10, -u4.coeff(10, 3))
    add("a11 = 3 a7/1760", a11, -u4.coeff(11, 3))
    add("a13 = a4 a7/624 (derived)", a13, u4.coeff(13, 4))
    add("a16 = a7^2/3840 (derived)", a16, u4.coeff(16, 5))

    res_u2 = prandtl_residual(u2)
    bsym, ysym = RationalPoly.b, RationalPoly.Y
    bs_plus_b2 = RationalPoly.bs() + bsym(2)
    expected_res_u2 = (
        -a4 * (Fraction(4, 5) * RationalPoly.bs() + Fraction(13, 10) * bsym(2)) * ysym(5)
        - Fraction(3, 10) * a4 * bs_plus_b2 * ysym(6)
        + Fraction(1, 5) * a4 * a4 * bsym() * bs_plus_b2 * ysym(8)
    )
    add("residual(U2) leading structure", expected_res_u2, res_u2)

    core = u4.truncate_degree_Y(11)
    expected_l_y7 = (
        RationalPoly.monomial(Fraction(7, 8), 8)
        + RationalPoly.monomial(Fraction(3, 8), 9)
        - RationalPoly.monomial(a4 / 2, 11, 1)
        - RationalPoly.monomial(a7 / 8, 14, 2)
        + RationalPoly.monomial(a10 / 4, 17, 3)
        + RationalPoly.monomial(Fraction(3, 8) * a11, 18, 3)
    )
    add("L_{core}(Y^7)", expected_l_y7, apply_L(core, ysym(7)))

    add("L_U(U_Y) = 0 (kernel)", RationalPoly.zero(), apply_L(u4, u4.derivative_Y()))
    add(
        "substitute_bs((b_s + b^2) Y^5) = 0",
        RationalPoly.zero(),
        (bs_plus_b2 * ysym(5)).substitute_bs(),
    )

    try:
        dec = remainder_decomposition(u4)
        add(
            "remainder: (b_s+b^2) coefficient",
            RationalPoly.monomial(a4, 4, 0)
            + RationalPoly.monomial(2 * a7, 7, 1)
            + RationalPoly.monomial(3 * a10, 10, 2)
            + RationalPoly.monomial(3 * a11, 11, 2),
            dec.bs_b2_coeff,
        )
        add(
            "remainder: pure b^4 part",
            RationalPoly.monomial(a10, 10, 4) + RationalPoly.monomial(Fraction(3, 2) * a11, 11, 4),
            dec.b4_part,
        )
        d_str = ", ".join(
            f"d[Y^{dy} b^{db}] = {dec.d_terms[(dy, db)]}" for dy, db in sorted(dec.d_terms)
        )
        checks.append(IdentityCheck("remainder: d-coefficients (emitted)", d_str, d_str, True))
    except AlgebraCertificateError as exc:
        checks.append(IdentityCheck("remainder decomposition", "certified shape", str(exc), False))

    c7v, c8v = leading_V_coefficients()
    add("corrector Y^7 coefficient = -8 a7/5 = -1/2520", Fraction(-8, 5) * a7, c7v)
    add("corrector Y^8 coefficient = -3 a4/560 = -1/8960", Fraction(-3, 560) * a4, c8v)

    order = 14
    base = (Fraction(0), Fraction(1), Fraction(1, 2)) + (Fraction(0),) * (order - 2)
    y7 = tuple(Fraction(1) if i == 7 else Fraction(0) for i in range(order + 1))
    t7 = wall_trace_coefficient(base, y7)
    add("wall trace of Y^7 on Y + Y^2/2", Fraction(1260), t7)
    add("corrector trace = -1/2 of modulation defect", Fraction(-1, 2), c7v * t7)

    c8 = perturbation_y8_weight()
    add("perturbation companion weight c8 = 9/32", Fraction(9, 32), c8)

    coeffs = profile_coefficients()
    scaling = (
        f"c7 = 4*a7 = {4 * coeffs['a7']}, c10 = 8*a10 = {8 * coeffs['a10']}, "
        f"c11 = 8*a11 = {8 * coeffs['a11']}"
    )
    checks.append(IdentityCheck("physical-variable coefficients (emitted)", scaling, scaling, True))

    return checks
