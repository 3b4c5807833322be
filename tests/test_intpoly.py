"""Exact integer polynomial kernel: parsing, arithmetic, transforms, factoring."""

import math

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from spectorus.intpoly import (
    MAX_DEGREE,
    IntPolynomial,
    PolyParseError,
    discriminant,
    factor_oracle,
    parse_poly,
    power_sums,
    power_transform,
    reverse,
)

GOLDEN = parse_poly("x^2 - 3x + 1")
PLASTIC = parse_poly("x^3 - x - 1")


# ---------------------------------------------------------------- parsing

def test_parse_basic_forms():
    assert parse_poly("x^2 - 3x + 1").coeffs == (1, -3, 1)
    assert parse_poly("x^3 - x - 1").coeffs == (-1, -1, 0, 1)
    assert parse_poly("-x + 2").coeffs == (2, -1)
    assert parse_poly("7").coeffs == (7,)
    assert parse_poly("x").coeffs == (0, 1)


def test_parse_whitespace_and_explicit_coefficients():
    assert parse_poly(" x^2-3x+1 ") == GOLDEN
    assert parse_poly("1x^2 + -3x^1 + 1x^0") == GOLDEN
    assert parse_poly("x^2 + 2x^2") .coeffs == (0, 0, 3)


def test_parse_comma_separated_ascending_coefficients():
    assert parse_poly("1, -3, 1") == GOLDEN
    assert parse_poly("-1, -1, 0, 1") == PLASTIC


def test_parse_alternate_variable_letter():
    assert parse_poly("t^2 - 3t + 1") == GOLDEN


def test_parse_degree_cap_in_both_forms():
    assert parse_poly(f"x^{MAX_DEGREE} - 1").degree == MAX_DEGREE
    assert parse_poly(",".join(["-1"] + ["0"] * (MAX_DEGREE - 1) + ["1"])).degree == MAX_DEGREE
    with pytest.raises(PolyParseError, match="degree cap") as exc:
        parse_poly(f"x^3 - x^{MAX_DEGREE + 1} - 1")
    assert exc.value.position == 3
    # the cap holds before any coefficient tuple is built
    with pytest.raises(PolyParseError, match="degree cap"):
        parse_poly("x^3000000 - x - 1")
    text = ",".join(["-1"] + ["0"] * MAX_DEGREE + ["1"])
    with pytest.raises(PolyParseError, match="degree cap") as exc:
        parse_poly(text)
    assert exc.value.position == len(text) - 1


def test_parse_oversized_digit_strings_are_parse_errors():
    nines = "9" * 5000
    with pytest.raises(PolyParseError, match="coefficient has too many digits") as exc:
        parse_poly(f"x^3 - {nines}x^2 - 1")
    assert exc.value.position == 3
    with pytest.raises(PolyParseError, match="exponent has too many digits"):
        parse_poly(f"x^{nines} - 1")
    with pytest.raises(PolyParseError, match="coefficient has too many digits") as exc:
        parse_poly(f"-1, {nines}, 0, 1")
    assert exc.value.position == 4
    with pytest.raises(PolyParseError, match="non-integer coefficient"):
        parse_poly("-1, 1.5, 1")


def test_parse_errors_carry_position():
    with pytest.raises(PolyParseError) as exc:
        parse_poly("x^2 + y")
    assert exc.value.position == 3
    with pytest.raises(PolyParseError):
        parse_poly("x^^2")
    with pytest.raises(PolyParseError):
        parse_poly("1.5x")
    with pytest.raises(PolyParseError):
        parse_poly("")


@pytest.mark.parametrize(
    "text, position",
    [("1,,2", 2), ("1, 2, ", 5), ("-1,-", 3), (" 1, x, 2", 4)],
)
def test_comma_form_error_positions(text, position):
    with pytest.raises(PolyParseError, match="non-integer coefficient") as exc:
        parse_poly(text)
    assert exc.value.position == position


def test_render_round_trip_examples():
    assert GOLDEN.render() == "x^2 - 3x + 1"
    assert PLASTIC.render() == "x^3 - x - 1"
    assert IntPolynomial((0,)).render() == "0"
    assert parse_poly("-x").render() == "-x"


@settings(derandomize=True, max_examples=60)
@given(st.lists(st.integers(-30, 30), min_size=1, max_size=8))
def test_render_parse_round_trip(coeffs):
    P = IntPolynomial(tuple(coeffs))
    assert parse_poly(P.render()) == P
    assert parse_poly(str(P)) == P


def test_json_round_trip():
    assert IntPolynomial.from_json(PLASTIC.to_json()) == PLASTIC


def test_from_json_rejects_float_coefficients():
    with pytest.raises(TypeError):
        IntPolynomial.from_json({"coeffs": [1.7, -2.9, 1]})
    P = IntPolynomial.from_json({"coeffs": [-1, 0, 3, 1]})
    assert IntPolynomial.from_json(P.to_json()) == P


# ---------------------------------------------------------------- arithmetic

def test_ring_operations():
    assert (GOLDEN * PLASTIC).degree == 5


def test_evaluate_exact_and_call():
    assert GOLDEN.evaluate(0) == 1
    assert GOLDEN.evaluate(3) == 1
    assert PLASTIC(2) == 5
    assert PLASTIC(-1) == -1


def test_derivative():
    assert PLASTIC.derivative().coeffs == (-1, 0, 3)
    assert IntPolynomial((4,)).derivative().coeffs == (0,)


def test_degree_and_flags():
    assert GOLDEN.degree == 2
    assert GOLDEN.is_monic
    assert not parse_poly("2x^2 + 1").is_monic
    assert IntPolynomial((0,)).is_zero


def test_coefficients_must_be_integers():
    P = IntPolynomial((np.int64(-1), 0, True))
    assert P.coeffs == (-1, 0, 1)
    assert all(type(c) is int for c in P.coeffs)
    with pytest.raises(TypeError):
        IntPolynomial((1.7, -2.9, 1))
    with pytest.raises(TypeError):
        IntPolynomial((1.0, 1))


@settings(derandomize=True, max_examples=40)
@given(
    st.lists(st.integers(-9, 9), min_size=2, max_size=5),
    st.lists(st.integers(-9, 9), min_size=2, max_size=5),
    st.integers(-4, 4),
)
def test_product_evaluation_homomorphism(a, b, x):
    P, Q = IntPolynomial(tuple(a)), IntPolynomial(tuple(b))
    assert (P * Q).evaluate(x) == P.evaluate(x) * Q.evaluate(x)


# ---------------------------------------------------------------- reversal

def test_reverse_palindromic_fixed_point():
    assert reverse(GOLDEN) == GOLDEN


def test_reverse_plastic_cubic():
    # X^3 P(1/X) = -X^3 - X^2 + 1; monic normalization flips the sign
    assert reverse(PLASTIC).coeffs == (-1, 0, 1, 1)


def test_reverse_requires_nonzero_constant():
    with pytest.raises(ValueError):
        reverse(parse_poly("x^2 + x"))


@settings(derandomize=True, max_examples=40)
@given(st.lists(st.integers(-9, 9), min_size=1, max_size=6), st.sampled_from([1, -1]))
def test_reverse_is_an_involution(interior, c0):
    P = IntPolynomial((c0, *interior[1:], 1))
    assert reverse(reverse(P)) == P


# ---------------------------------------------------------------- power sums

def test_power_sums_lucas_numbers():
    # roots phi^2 and phi^-2 sum to the Lucas numbers L_2k
    assert power_sums(GOLDEN, 5) == (3, 7, 18, 47, 123)


def test_power_sums_perrin_sequence():
    assert power_sums(PLASTIC, 5) == (0, 2, 3, 2, 5)


@settings(derandomize=True, max_examples=30)
@given(
    st.lists(st.integers(-5, 5), min_size=1, max_size=4),
    st.lists(st.integers(-5, 5), min_size=1, max_size=4),
)
def test_power_sums_add_over_products(a, b):
    # the k-th power sum of a product polynomial is the sum of the factors'
    P = IntPolynomial(tuple(a + [1]))
    Q = IntPolynomial(tuple(b + [1]))
    sp, sq, spq = power_sums(P, 6), power_sums(Q, 6), power_sums(P * Q, 6)
    assert all(spq[k] == sp[k] + sq[k] for k in range(6))


# ---------------------------------------------------------------- power transform

def test_power_transform_golden_squares_and_cubes():
    assert power_transform(GOLDEN, 2) == parse_poly("x^2 - 7x + 1")
    assert power_transform(GOLDEN, 3) == parse_poly("x^2 - 18x + 1")


def test_power_transform_plastic_squares():
    assert power_transform(PLASTIC, 2) == parse_poly("x^3 - 2x^2 + x - 1")


def test_power_transform_identity_and_degree():
    assert power_transform(PLASTIC, 1) == PLASTIC
    assert power_transform(GOLDEN, 4).degree == 2


def test_power_transform_requires_monic():
    with pytest.raises(ValueError):
        power_transform(parse_poly("2x^2 + 1"), 2)
    with pytest.raises(ValueError):
        power_transform(GOLDEN, 0)


def test_power_transform_numeric_root_multiset():
    rng = np.random.default_rng(7)
    for _ in range(50):
        deg = int(rng.integers(2, 6))
        coeffs = [int(c) for c in rng.integers(-9, 10, deg)] + [1]
        P = IntPolynomial(tuple(coeffs))
        for m in (2, 3):
            T = power_transform(P, m)
            expected = sorted(
                (r ** m for r in np.roots(P.coeffs[::-1])),
                key=lambda z: (round(z.real, 6), round(z.imag, 6)),
            )
            got = sorted(
                np.roots(T.coeffs[::-1]),
                key=lambda z: (round(z.real, 6), round(z.imag, 6)),
            )
            scale = max(1.0, max(abs(z) for z in expected))
            assert all(
                abs(g - e) <= 1e-6 * scale for g, e in zip(got, expected)
            ), (P.render(), m)


@settings(derandomize=True, max_examples=30)
@given(
    st.lists(st.integers(-6, 6), min_size=2, max_size=5),
    st.integers(1, 3),
    st.integers(1, 3),
)
def test_power_transform_multiplicativity(tail, m1, m2):
    P = IntPolynomial(tuple(tail + [1]))
    assert power_transform(power_transform(P, m1), m2) == power_transform(P, m1 * m2)


# ---------------------------------------------------------------- discriminants

def test_discriminant_known_values():
    assert discriminant(GOLDEN) == 5
    assert discriminant(PLASTIC) == -23
    assert discriminant(parse_poly("x^2 - 2x + 1")) == 0
    assert discriminant(parse_poly("x^3 - 3x^2 + 3x - 1")) == 0


def test_discriminant_cubic_formula_agreement():
    # the closed form against sympy on every cubic of a box, P(0) = 0 included
    x = sympy.Symbol("x")
    for a in range(-10, 11):
        for b in range(-10, 11):
            for c in (-1, 0, 1, 2):
                want = sympy.Poly([1, a, b, c], x).discriminant()
                assert discriminant(IntPolynomial((c, b, a, 1))) == want, (a, b, c)


@pytest.mark.parametrize("text", ["x - 2", "x^4 - x - 1", "2x^3 - x - 1", "2x^2 + 1"])
def test_discriminant_refuses_other_shapes(text):
    with pytest.raises(ValueError, match="monic polynomial of degree 2 or 3"):
        discriminant(parse_poly(text))


def monic_polys(min_degree: int, max_degree: int):
    """Monic polynomials of these degrees, lower coefficients in [-20, 20]."""
    return st.integers(min_degree, max_degree).flatmap(
        lambda n: st.lists(st.integers(-20, 20), min_size=n, max_size=n)
    ).map(lambda tail: IntPolynomial((*tail, 1)))


# differential checks against sympy on monic polynomials of degree 2-6
MONIC = monic_polys(2, 6)


@settings(derandomize=True, max_examples=150)
@given(monic_polys(2, 3))
def test_discriminant_matches_sympy(P):
    assert discriminant(P) == sympy.Poly(P.coeffs[::-1], sympy.Symbol("x")).discriminant()


@settings(derandomize=True, max_examples=150)
@given(MONIC, st.integers(1, 4))
def test_power_transform_matches_sympy_resultant(P, m):
    # Res_y(P(y), x - y^m) is the monic polynomial whose roots are the r^m
    x, y = sympy.symbols("x y")
    res = sympy.resultant(sympy.Poly(P.coeffs[::-1], y).as_expr(), x - y**m, y)
    assert power_transform(P, m).coeffs == tuple(sympy.Poly(res, x).all_coeffs()[::-1])


# ---------------------------------------------------------------- factoring

def test_factor_oracle_cyclotomic_product():
    factors = factor_oracle(parse_poly("x^4 - 1"))
    assert [f.render() for f in factors] == ["x - 1", "x + 1", "x^2 + 1"]


def test_factor_oracle_irreducibles():
    assert factor_oracle(PLASTIC) == [PLASTIC]
    assert factor_oracle(GOLDEN) == [GOLDEN]
    assert factor_oracle(parse_poly("x^2 + 1")) == [parse_poly("x^2 + 1")]


def test_factor_oracle_recovers_known_product():
    factors = factor_oracle(GOLDEN * PLASTIC)
    assert factors == [GOLDEN, PLASTIC]


def test_factor_oracle_product_reassembles():
    P = parse_poly("x^5 - x^4 - x^3 + x^2 + x - 1")
    factors = factor_oracle(P)
    prod = IntPolynomial((1,))
    for f in factors:
        prod = prod * f
    assert prod == P


FACTORS = st.lists(
    st.lists(st.integers(-3, 3), min_size=1, max_size=3), min_size=1, max_size=4
).filter(lambda tails: 2 <= sum(map(len, tails)) <= 8)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(FACTORS)
def test_factor_oracle_matches_sympy_factor_list(tails):
    P = IntPolynomial((1,))
    for tail in tails:
        P = P * IntPolynomial((*tail, 1))
    x = sympy.Symbol("x")
    content, pairs = sympy.factor_list(sympy.Poly(P.coeffs[::-1], x).as_expr(), x)
    assert content == 1
    want = [
        tuple(sympy.Poly(f, x).all_coeffs()[::-1]) for f, mult in pairs for _ in range(mult)
    ]
    factors = factor_oracle(P)
    assert sorted(f.coeffs for f in factors) == sorted(want)
    # listed by (degree, coefficients), a factor X included
    assert factors == sorted(factors, key=lambda f: (f.degree, f.coeffs))


def test_power_transform_order_overflow_guard():
    # large powers still produce exact integers, no float contamination
    T = power_transform(GOLDEN, 12)
    assert T.is_monic
    assert T.coeffs[0] == 1
    assert all(isinstance(c, int) for c in T.coeffs)
