"""Certified root enclosures, exact Sturm counts, and the dyadic helpers under them."""

import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

import spectorus.rootcert as rootcert
from spectorus.exactnum import (
    _common_numerators,
    _sqrt_floor,
    bisect_root_dyadic,
    dyadic_abs_bounds,
    dyadic_eval,
    frac_to_decimal,
    isqrt_ceil,
    nth_root_bounds,
    nth_root_floor,
    sign_at,
    sqrt_bounds,
)
from spectorus.intpoly import IntPolynomial, parse_poly
from spectorus.rootcert import (
    DEFAULT_PRECISION_CEILING,
    MIN_PRECISION_BITS,
    disk_root_count,
    isolate_roots,
    squarefree_by_small_primes,
    sturm_chain,
    chain_is_squarefree,
    variations_above_one,
    variations_at,
    variations_at_infinity,
)
from spectorus.spectra import PRECISION_CEILING, UNDECIDED, classify

from isolation_oracle import (
    oracle_certify_stage,
    oracle_isolate as _oracle_isolate,
    real_interval,
    sturm_real_count,
)

GOLDEN = parse_poly("x^2 - 3x + 1")
PLASTIC = parse_poly("x^3 - x - 1")


# ---------------------------------------------------------------- exact helpers

def test_integer_root_bounds():
    assert isqrt_ceil(15) == 4
    assert isqrt_ceil(16) == 4
    assert nth_root_floor(26, 3) == 2
    assert nth_root_floor(27, 3) == 3


@settings(derandomize=True, max_examples=60)
@given(st.integers(0, 10**12), st.integers(1, 6))
def test_nth_root_floor_defining_inequality(n, k):
    r = nth_root_floor(n, k)
    assert r**k <= n < (r + 1) ** k


def test_sqrt_bounds_bracket_and_width():
    lo, hi = sqrt_bounds(Fraction(5), 100)
    assert lo * lo <= 5 <= hi * hi
    assert hi - lo <= Fraction(1, 2**99)


def test_nth_root_bounds_exact_cube():
    lo, hi = nth_root_bounds(Fraction(1, 8), 3, 80)
    assert lo <= Fraction(1, 2) <= hi
    assert hi - lo <= Fraction(1, 2**79)


def test_dyadic_eval_matches_exact_value():
    # P = x^2 - 3x + 1 at (3 + 4i)/4
    re, im, e = dyadic_eval(GOLDEN.coeffs, 3, 4, 2)
    z = complex(3, 4) / 4
    exact = z * z - 3 * z + 1
    assert re / 2**e == pytest.approx(exact.real, abs=0)
    assert im / 2**e == pytest.approx(exact.imag, abs=0)


def test_dyadic_abs_bounds_bracket():
    lo, hi = dyadic_abs_bounds(3, 4, 1)
    assert lo <= Fraction(5, 2) <= hi


def test_bisect_root_dyadic_golden_root():
    lo, hi = bisect_root_dyadic(GOLDEN.coeffs, Fraction(2), Fraction(3), 120)
    root = (3 + Fraction(sqrt_bounds(Fraction(5), 140)[0])) / 2
    assert lo <= root <= hi
    assert hi - lo <= Fraction(1, 2**120)


def test_bisect_root_dyadic_rejects_bad_bracket():
    with pytest.raises(ValueError):
        bisect_root_dyadic(GOLDEN.coeffs, Fraction(4), Fraction(5), 30)


RATIONALS = st.fractions(min_value=-6, max_value=6, max_denominator=64)


# The Fraction implementation that the integer-numerator bisection
# replaced, kept as a named oracle. The sign is taken from a plain
# Fraction sum, independent of exactnum's integer core.

def fraction_sign_oracle(coeffs, x: Fraction) -> int:
    v = sum(Fraction(c) * x**j for j, c in enumerate(coeffs))
    return (v > 0) - (v < 0)


def fraction_bisect_oracle(coeffs, lo: Fraction, hi: Fraction, bits: int):
    slo, shi = fraction_sign_oracle(coeffs, lo), fraction_sign_oracle(coeffs, hi)
    if slo == 0 or shi == 0 or slo == shi:
        raise ValueError("bracket endpoints must have strict opposite signs")
    width_target = Fraction(1, 1 << bits)
    while hi - lo > width_target:
        mid = (lo + hi) / 2
        sm = fraction_sign_oracle(coeffs, mid)
        if sm == 0:
            eps = (hi - lo) / 4
            return mid - eps, mid + eps
        if sm == slo:
            lo = mid
        else:
            hi = mid
    return lo, hi


def outcome(f, *args):
    """f(*args), or the ValueError type when f raises one."""
    try:
        return f(*args)
    except ValueError:
        return ValueError


@settings(derandomize=True, max_examples=300)
@given(
    st.lists(st.integers(-9, 9), min_size=2, max_size=7),
    RATIONALS,
    RATIONALS,
    st.integers(0, 60),
)
def test_bisect_root_dyadic_matches_fraction_oracle(coeffs, lo, hi, bits):
    # non-dyadic endpoints, reversed and bad brackets included
    got = outcome(bisect_root_dyadic, coeffs, lo, hi, bits)
    assert got == outcome(fraction_bisect_oracle, coeffs, lo, hi, bits)
    if got is not ValueError:
        assert all(isinstance(v, Fraction) for v in got)


@settings(derandomize=True, max_examples=200)
@given(
    st.integers(-20, 20),
    st.fractions(min_value=Fraction(1, 30), max_value=5, max_denominator=30),
    st.sampled_from([1, 3, 7, 15]),
    st.integers(1, 9),
    st.integers(0, 80),
)
def test_bisect_root_dyadic_planted_root_on_a_midpoint(m, w, k, a, bits):
    # P = (X - m)(X^2 + a) changes sign only at m; the bracket
    # [m - k*w, m + w] with k = 2^j - 1 puts m on the j-th midpoint
    coeffs = (-m * a, a, -m, 1)
    lo, hi = m - k * w, m + w
    got = bisect_root_dyadic(coeffs, lo, hi, bits)
    assert got == fraction_bisect_oracle(coeffs, lo, hi, bits)
    assert got[0] <= m <= got[1]


def test_bisect_root_dyadic_midpoint_exit_and_zero_bits():
    # X^2 - 4 on [1, 3]: the first midpoint is the root 2
    assert bisect_root_dyadic((-4, 0, 1), Fraction(1), Fraction(3), 10) == (
        Fraction(3, 2),
        Fraction(5, 2),
    )
    # bits = 0 stops at width <= 1; non-dyadic endpoints keep their denominator
    lo, hi = bisect_root_dyadic(GOLDEN.coeffs, Fraction(7, 3), Fraction(17, 3), 0)
    assert (lo, hi) == fraction_bisect_oracle(
        GOLDEN.coeffs, Fraction(7, 3), Fraction(17, 3), 0
    )
    assert hi - lo <= 1 and lo.denominator == 3
    # a width of exactly 2**-bits meets the target: no extra halving
    assert bisect_root_dyadic(GOLDEN.coeffs, Fraction(2), Fraction(3), 0) == (2, 3)
    lo, hi = bisect_root_dyadic(GOLDEN.coeffs, Fraction(2), Fraction(3), 40)
    assert hi - lo == Fraction(1, 2**40)


@settings(derandomize=True, max_examples=60)
@given(st.lists(st.integers(-9, 9), min_size=1, max_size=7), RATIONALS)
def test_sign_at_matches_sympy(coeffs, x):
    poly = sympy.Poly(coeffs[::-1], sympy.Symbol("x"))
    value = poly.eval(sympy.Rational(x.numerator, x.denominator))
    assert sign_at(coeffs, x) == sympy.sign(value)


def test_frac_to_decimal_outward_rounding():
    assert frac_to_decimal(Fraction(1, 3), 4, round_up=True) == "0.3334"
    assert frac_to_decimal(Fraction(1, 3), 4, round_up=False) == "0.3333"
    assert frac_to_decimal(Fraction(-1, 3), 4, round_up=False) == "-0.3334"
    assert frac_to_decimal(Fraction(5, 4), 2, round_up=True) == "1.25"


# The Fraction formulas that the integer forms replaced, kept as oracles.

def _fraction_to_decimal(x, digits, round_up):
    sign = "-" if x < 0 else ""
    scaled = (-x if x < 0 else x) * 10**digits
    q, r = divmod(scaled.numerator, scaled.denominator)
    if r and round_up ^ (x < 0):
        q += 1
    text = str(q).rjust(digits + 1, "0")
    return f"{sign}{text[:-digits]}.{text[-digits:]}" if digits else f"{sign}{text}"


def _fraction_radius_float(radius):
    f = float(radius)
    return f if Fraction(f) >= radius else math.nextafter(f, math.inf)


def _oracle_fractions(rng):
    """Seeded dyadic and non-dyadic Fractions of both signs, with exact
    decimals, ties at the last digit and numerators far past a double."""
    out = [Fraction(0), Fraction(5, 4), Fraction(-5, 4), Fraction(1, 3), Fraction(-2, 3)]
    out += [Fraction(n, 2 ** (2 * n)) for n in range(1, 40)]
    for _ in range(200):
        num = rng.randrange(-(10 ** rng.randrange(1, 80)), 10 ** rng.randrange(1, 80))
        den = rng.choice([1 << rng.randrange(0, 300), rng.randrange(1, 10**40)])
        out.append(Fraction(num, den))
    return out


def test_frac_to_decimal_equals_the_fraction_formula():
    rng = random.Random(3301)
    for x in _oracle_fractions(rng):
        for digits in (0, 1, 30):
            for up in (False, True):
                assert frac_to_decimal(x, digits, up) == _fraction_to_decimal(x, digits, up)


def test_radius_float_equals_the_fraction_compare():
    rng = random.Random(3302)
    # below 2**-1074, exact doubles, and 200-bit numerators that no double holds
    radii = [Fraction(1, 2**1074), Fraction(1, 2**1075), Fraction(3, 2**1076), Fraction(1, 10**400)]
    radii += [Fraction(*x.as_integer_ratio()) for x in (1e-300, 5e-324, 0.1, 1.5, 2.0**1000)]
    radii += [Fraction(rng.getrandbits(53) | 1, 2 ** rng.randrange(0, 1100)) for _ in range(100)]
    radii += [Fraction(rng.getrandbits(200) + 1, 2 ** rng.randrange(150, 1300)) for _ in range(200)]
    for radius in radii:
        e = rootcert.RootEnclosure(0, 0, 0, radius)
        assert e.radius_float == _fraction_radius_float(radius), radius
        assert e.radius_float >= radius
    # past the double range both raise, as float() of the radius does
    huge = rootcert.RootEnclosure(0, 0, 0, Fraction(10**400, 3))
    with pytest.raises(OverflowError):
        _fraction_radius_float(huge.radius)
    with pytest.raises(OverflowError):
        huge.radius_float  # noqa: B018


def test_sqrt_bounds_equals_nth_root_bounds():
    rng = random.Random(3303)
    # perfect squares, numerators past 10**400, and dyadic fractions
    xs = [Fraction(0), Fraction(1), Fraction(4), Fraction(9, 16), Fraction(10**400)]
    xs += [Fraction(rng.randrange(1, 10**6) ** 2, rng.randrange(1, 10**4) ** 2) for _ in range(40)]
    for _ in range(60):
        xs.append(Fraction(rng.randrange(1, 10 ** rng.randrange(1, 450)), rng.randrange(1, 10**30)))
    xs += [Fraction(rng.randrange(1, 10**420), 1 << rng.randrange(0, 600)) for _ in range(40)]
    for x in xs:
        for bits in (0, 1, 53, 160):
            lo, hi = sqrt_bounds(x, bits)
            assert (lo, hi) == nth_root_bounds(x, 2, bits), (x, bits)
            # the integer form gives the same pair from any unreduced p/r
            g = rng.randrange(1, 2**70)
            n, den = _sqrt_floor(x.numerator * g, x.denominator * g, bits)
            assert (Fraction(n, den), Fraction(n + 1, den)) == (lo, hi)
            assert den == x.denominator << bits
    with pytest.raises(ValueError):
        sqrt_bounds(Fraction(-1, 3), 10)


# ---------------------------------------------------------------- Sturm counts

def test_sturm_squarefree_detection():
    assert chain_is_squarefree(sturm_chain(GOLDEN.coeffs))
    assert not chain_is_squarefree(sturm_chain(parse_poly("x^2 - 2x + 1").coeffs))


def test_count_real_roots_examples():
    assert sturm_real_count(GOLDEN) == 2
    assert sturm_real_count(PLASTIC) == 1
    assert sturm_real_count(parse_poly("x^2 + 1")) == 0
    assert sturm_real_count(parse_poly("x^3 - 2x - 1")) == 3


@settings(derandomize=True, max_examples=60)
@given(st.lists(st.integers(-6, 6), min_size=1, max_size=6), RATIONALS)
def test_sturm_counts_around_a_rational_match_sympy(tail, x):
    P = IntPolynomial((*tail, 1))
    chain = sturm_chain(P.coeffs)
    assume(chain_is_squarefree(chain) and sign_at(P.coeffs, x) != 0)
    above = variations_at(chain, x) - variations_at_infinity(chain, positive=True)
    below = variations_at_infinity(chain, positive=False) - variations_at(chain, x)
    poly = sympy.Poly(P.coeffs[::-1], sympy.Symbol("x"))
    r = sympy.Rational(x.numerator, x.denominator)
    assert above == poly.count_roots(inf=r)
    assert below == poly.count_roots(sup=r)


@settings(derandomize=True, max_examples=40)
@given(st.lists(st.integers(-6, 6), min_size=2, max_size=5))
def test_count_agrees_with_numpy_on_squarefree_samples(tail):
    P = IntPolynomial((*tail, 1))
    chain = sturm_chain(P.coeffs)
    if not chain_is_squarefree(chain):
        return
    roots = np.roots(P.coeffs[::-1])
    numeric = sum(1 for r in roots if abs(r.imag) < 1e-9)
    assert sturm_real_count(P) == numeric


@settings(derandomize=True, max_examples=200)
@given(st.lists(st.integers(-12, 12), min_size=1, max_size=7))
def test_small_prime_squarefree_proof_agrees_with_sympy(tail):
    coeffs = (*tail, 1)
    if squarefree_by_small_primes(coeffs):
        poly = sympy.Poly(coeffs[::-1], sympy.Symbol("x"))
        assert sympy.gcd(poly, poly.diff()).degree() == 0


@settings(derandomize=True, max_examples=80)
@given(
    st.lists(st.integers(-9, 9), min_size=1, max_size=3),
    st.lists(st.integers(-9, 9), min_size=0, max_size=3),
)
def test_small_prime_squarefree_proof_never_passes_a_square(g_tail, h_tail):
    g = IntPolynomial((*g_tail, 1))
    P = g * g * IntPolynomial((*h_tail, 1))
    assert not squarefree_by_small_primes(P.coeffs)


def test_small_prime_squarefree_proof_examples():
    assert squarefree_by_small_primes(PLASTIC.coeffs)
    assert squarefree_by_small_primes(GOLDEN.coeffs)
    # squarefree over Q, yet (x-1)(x+1)(x-4)(x+4)(x-6)(x+6) has a double root
    # mod 3, 5 and 7, so the proof gives up and the Sturm chain decides
    assert not squarefree_by_small_primes(parse_poly("x^6 - 53x^4 + 628x^2 - 576").coeffs)


# ---------------------------------------------------- Descartes and Schur-Cohn

@settings(derandomize=True, max_examples=150)
@given(st.lists(st.integers(-9, 9), min_size=1, max_size=7))
def test_descartes_variations_bound_the_sympy_counts(tail):
    # roots above 1 of P, and of P(-X) (those of P below -1)
    P = IntPolynomial((*tail, 1))
    assume(chain_is_squarefree(sturm_chain(P.coeffs)) and 0 not in (P(1), P(-1)))
    poly = sympy.Poly(P.coeffs[::-1], sympy.Symbol("x"))
    for coeffs, roots in (
        (P.coeffs, poly.count_roots(inf=1)),
        ([-c if j % 2 else c for j, c in enumerate(P.coeffs)], poly.count_roots(sup=-1)),
    ):
        v = variations_above_one(coeffs)
        assert v >= roots and (v - roots) % 2 == 0
        if v <= 1:
            assert v == roots


def test_descartes_variations_examples():
    assert variations_above_one(PLASTIC.coeffs) == 1  # X^3 + 3X^2 + 2X - 1
    assert variations_above_one(GOLDEN.coeffs) == 1  # X^2 - X - 1
    # (X - 2)(X - 3)(X - 4) shifts to (X - 1)(X - 2)(X - 3): three roots
    assert variations_above_one(parse_poly("x^3 - 9x^2 + 26x - 24").coeffs) == 3
    # V = 2 with no root above 1: X^2 - X + 1 shifts to X^2 + X + 1, so 0
    assert variations_above_one(parse_poly("x^2 - 3x + 3").coeffs) == 2


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    st.integers(2, 8).flatmap(
        lambda n: st.lists(st.integers(-9, 9), min_size=n, max_size=n)
    ),
    st.integers(-9, 9).filter(bool),
    st.integers(1, 4096),
    st.integers(1, 4096),
)
def test_disk_root_count_matches_mpmath_moduli(tail, lead, u, v):
    coeffs = (*tail, lead)
    count = disk_root_count(coeffs, u, v)
    with mpmath.workdps(60):
        roots = mpmath.polyroots(coeffs[::-1], maxsteps=400, extraprec=400)
        gaps = [abs(z) - mpmath.mpf(u) / v for z in roots]
        # a root on the circle |z| = u/v is outside the rule's hypothesis
        assume(all(abs(g) > mpmath.mpf(10) ** -20 for g in gaps))
    # None is the declared no-verdict (a zero gamma); the box tests of
    # test_spectra check that it does not happen there
    assert count is None or count == sum(1 for g in gaps if g < 0)


def test_disk_root_count_examples():
    # X^2 - 3X + 1: roots 0.382 and 2.618
    assert disk_root_count(GOLDEN.coeffs, 1, 4) == 0
    assert disk_root_count(GOLDEN.coeffs, 1, 2) == 1
    assert disk_root_count(GOLDEN.coeffs, 3, 1) == 2
    # plastic: the pair has modulus 0.8688, the real root is 1.3247
    assert disk_root_count(PLASTIC.coeffs, 13, 16) == 0
    assert disk_root_count(PLASTIC.coeffs, 7, 8) == 2
    assert disk_root_count(PLASTIC.coeffs, 4, 3) == 3
    # a root at 0 and a non-monic leading coefficient
    assert disk_root_count((0, -3, 2), 1, 1) == 1
    # |a_0| = |a_n| at the first step: no verdict
    assert disk_root_count((1, 3, 1), 1, 1) is None


def test_schur_cohn_on_columns_equals_disk_root_count_row_for_row():
    # the search's array stage runs the recursion on object-array columns
    # without the content division; each row must get disk_root_count's answer
    rng = np.random.default_rng(2701)
    outcomes = set()
    for n, size in ((4, 2), (5, 3), (6, 10), (7, 1)):
        rows = [tuple(r) for r in rng.integers(-size, size + 1, (400, n + 1)).tolist()]
        for u, v in ((1, 1), (1, 2), (3, 4), (5, 8)):
            scale = [u**i * v ** (n - i) for i in range(n + 1)]
            columns = [np.array([r[i] * scale[i] for r in rows], dtype=object) for i in range(n + 1)]
            count, zero = rootcert._schur_cohn(columns, primitive=False)
            batched = [None if z else c for c, z in zip(count.tolist(), zero.tolist())]
            scalar = [disk_root_count(r, u, v) for r in rows]
            assert batched == scalar, (n, u, v)
            outcomes.update(scalar)
    # rows with no verdict (|a_0| = |a_m| at some step), none and some roots inside
    assert {None, 0, 1, 2} <= outcomes


# ---------------------------------------------------------------- enclosures
# isolate_roots takes the accepted cubic X^3 + aX^2 + bX - 1 with a bracket of
# its real root, as spectra._accepted does, and returns the pair's disks;
# classify gives the real root's enclosure, and the enclosures of every
# accepted polynomial, quadratics included

PLASTIC_LIKE = [PLASTIC, parse_poly("x^3 - 2x^2 - 1"), parse_poly("x^3 - 2x^2 + x - 1")]


def _isolate(P, ceiling=DEFAULT_PRECISION_CEILING):
    """isolate_roots(P) from a 150-bit bracket of the real root above 1, as
    (lo, hi, den) integers: the pair."""
    bound = Fraction(1 + max(map(abs, P.coeffs)))
    alpha = _common_numerators(*bisect_root_dyadic(P.coeffs, Fraction(1), bound, 150))
    return isolate_roots(P, alpha, ceiling)


def _cubic_roots(P):
    """The real root's enclosure from classify, then the pair's from isolate_roots."""
    return (classify(P).big_root, *_isolate(P))


def _enclosures(P):
    """The expanding root's enclosure and the small roots' ones, from classify."""
    profile = classify(P, allow_gl=True)
    assert profile.accepted
    return (profile.big_root, *profile.small_roots)


def test_isolate_golden_ratio_squared():
    enc = sorted(_enclosures(GOLDEN), key=lambda e: e.re)
    assert len(enc) == 2
    assert all(e.is_real_certified for e in enc)
    assert enc[1].re == pytest.approx(2.6180339887, abs=1e-9)
    assert enc[0].re == pytest.approx(0.3819660113, abs=1e-9)
    assert all(e.radius <= Fraction(1, 10**12) for e in enc)


def test_isolate_plastic_cubic():
    enc = sorted(_cubic_roots(PLASTIC), key=lambda e: (e.re, e.im))
    real = [e for e in enc if e.is_real_certified]
    pair = [e for e in enc if not e.is_real_certified]
    assert len(real) == 1 and len(pair) == 2
    assert real[0].re == pytest.approx(1.3247179572, abs=1e-9)
    for e in pair:
        assert e.re == pytest.approx(-0.6623589786, abs=1e-9)
        assert abs(e.im) == pytest.approx(0.5622795121, abs=1e-9)
    assert pair[0].im == pytest.approx(-pair[1].im, abs=1e-12)
    assert all(e.radius <= Fraction(1, 10**24) for e in enc)


def test_enclosures_are_pairwise_disjoint():
    for P in PLASTIC_LIKE:
        enc = _cubic_roots(P)
        for i in range(len(enc)):
            for j in range(i + 1, len(enc)):
                a, b = enc[i], enc[j]
                dist = abs(a.center - b.center)
                assert dist > float(a.radius + b.radius)


def test_real_certified_interval_brackets_center():
    e = classify(GOLDEN).big_root
    lo, hi = real_interval(e)
    assert float(lo) <= e.re <= float(hi)
    assert lo > 2 and hi < 3


def test_non_monic_and_trivial_degree_rejected():
    # classify checks its input before any enclosure is built
    with pytest.raises(ValueError):
        classify(parse_poly("2x^2 - 1"))
    with pytest.raises(ValueError):
        classify(IntPolynomial((5,)))


@pytest.mark.parametrize("bits", [-10, 0, MIN_PRECISION_BITS - 1])
def test_ceiling_below_first_rung_is_rejected(bits):
    with pytest.raises(ValueError, match=f">= {MIN_PRECISION_BITS}"):
        classify(PLASTIC, max_precision_bits=bits)


@pytest.mark.parametrize(
    "text",
    ["x^4 + x + 1", "x^5 - x - 1", "x^6 + x + 1", "x^7 - x^3 - 1", "x^8 - 2x^5 + x^2 + 3x - 1"],
)
@pytest.mark.parametrize("target", [Fraction(1, 10**10), Fraction(1, 10**40)])
def test_conjugate_radius_reuse_matches_full_evaluation(text, target):
    # _certify_pair gives the lower disk the radius it finds at the upper
    # center: integer coefficients give |P(conj c)| = |P(c)| and
    # |P'(conj c)| = |P'(c)|. The oracle, which evaluates at every center,
    # finds the same radius at the mirror of each of its upper disks
    P = parse_poly(text)
    upper = [e for e in _oracle_isolate(P, target, sturm_real_count(P)) if e.b > 0]
    assert len(upper) >= 2  # several conjugate pairs
    for e in upper:
        (mirror,) = oracle_certify_stage(P.coeffs, [(e.a, -e.b)], e.k, target, 0)
        assert (mirror.a, mirror.b, mirror.radius) == (e.a, -e.b, e.radius)


def test_precision_exhaustion_reports_undecided_enclosures():
    # the pair needs radius 1e-24, past the first rung (k = 61): no
    # enclosures, and the verdict is undecided rather than a rejection
    assert _isolate(PLASTIC, ceiling=60) is None
    profile = classify(PLASTIC, max_precision_bits=60)
    assert (profile.certification, profile.reason) == (UNDECIDED, PRECISION_CEILING)
    assert profile.big_root is None and profile.small_roots == ()
    assert {e.k for e in _isolate(PLASTIC, ceiling=120)} == {128}


def test_enclosures_tighten_with_target(monkeypatch):
    # 1e-6 certifies on the float rung (k = 61), 1e-24 needs the next (k = 128)
    monkeypatch.setattr(rootcert, "_TARGET_RADIUS", Fraction(1, 10**6))
    coarse = _isolate(PLASTIC)
    monkeypatch.undo()
    fine = _isolate(PLASTIC)
    assert {e.k for e in coarse} == {MIN_PRECISION_BITS + 8}
    assert {e.k for e in fine} == {128}
    assert max(e.radius for e in fine) < max(e.radius for e in coarse)
    assert max(e.radius for e in fine) <= Fraction(1, 10**24)


def test_isolate_roots_skips_the_rung_that_cannot_meet_the_target(monkeypatch):
    # every radius _certify_pair builds at k is at least 2**-k, above 1e-24 at
    # k = 61, so the float rung goes straight to the next one
    seen = []
    certify = rootcert._certify_pair

    def recording(coeffs, a, b, k):
        seen.append(k)
        return certify(coeffs, a, b, k)

    monkeypatch.setattr(rootcert, "_certify_pair", recording)
    _isolate(PLASTIC)
    assert seen == [128]


def test_a_cubic_past_the_float_range_is_isolated():
    # X^3 - 10**400 X^2 - 1: neither the coefficient nor the real root fits a
    # double, and the pair, of modulus about 10**-200, comes from the
    # quadratic factor
    P = IntPolynomial((-1, 0, -(10**400), 1))
    pair = _isolate(P)
    enc = (classify(P).big_root, *pair)
    (big,) = [e for e in enc if e.is_real_certified]
    assert len(enc) == 3 and all(e.radius <= Fraction(1, 10**24) for e in enc)
    lo, hi = real_interval(big)
    assert 10**400 - 1 < lo and hi < 10**400 + 1
    lo = hi = Fraction(1)
    for e in enc:
        m_lo, m_hi = e.modulus_interval()
        lo, hi = lo * m_lo, hi * m_hi
    assert lo <= 1 <= hi
    assert {e.k for e in pair} == {968}


def _upper_center(P, k):
    """The root of P above the real axis, rounded to scale 2**-k."""
    with mpmath.workdps(100):
        roots = mpmath.polyroots(P.coeffs[::-1], maxsteps=400, extraprec=400)
        (z,) = [z for z in roots if mpmath.im(z) > 0]
        return int(mpmath.nint(z.real * 2**k)), int(mpmath.nint(z.imag * 2**k))


def test_pair_check_refuses_a_disk_that_meets_the_real_axis(monkeypatch):
    # with a target of 10 only the axis test can refuse: the disk about the
    # root's center lies above the axis, the one about a center moved down to
    # 2**-61 is as wide as its distance to the root and meets the axis
    monkeypatch.setattr(rootcert, "_TARGET_RADIUS", Fraction(10))
    a, b = _upper_center(PLASTIC, 61)
    assert rootcert._certify_pair(PLASTIC.coeffs, a, b, 61) is not None
    assert rootcert._certify_pair(PLASTIC.coeffs, a, 1, 61) is None


def test_pair_check_refuses_a_rung_too_coarse_for_the_target(monkeypatch):
    # rounding the root to 2**-61 alone leaves a radius near 1e-18
    a, b = _upper_center(PLASTIC, 61)
    assert rootcert._certify_pair(PLASTIC.coeffs, a, b, 61) is None
    monkeypatch.setattr(rootcert, "_TARGET_RADIUS", Fraction(1, 10**6))
    assert rootcert._certify_pair(PLASTIC.coeffs, a, b, 61) is not None


def test_pair_check_returns_the_conjugate_disks_lower_first():
    a, b = _upper_center(PLASTIC, 128)
    lower, upper = rootcert._certify_pair(PLASTIC.coeffs, a, b, 128)
    assert b > 0
    assert (lower.a, lower.b, lower.k) == (a, -b, 128)
    assert (upper.a, upper.b, upper.k) == (a, b, 128)
    assert lower.radius == upper.radius <= Fraction(1, 10**24)
    assert not lower.is_real_certified and not upper.is_real_certified


def test_enclosure_json_shape():
    e = classify(GOLDEN).big_root
    data = e.to_json()
    assert set(data) == {"re", "im", "radius", "real", "undecided"}
    assert data["real"] is True
    assert data["undecided"] is False
    assert data["radius"] <= 1e-12


# ------------------------------------------------------- cross-route invariants

SAMPLE_POLYS = [GOLDEN, parse_poly("x^2 - 5x - 1"), *PLASTIC_LIKE]


def _assert_hold_the_mpmath_roots(P, enc):
    assert len(enc) == P.degree
    with mpmath.workdps(150):
        roots = mpmath.polyroots(P.coeffs[::-1], maxsteps=400, extraprec=400)
        for e in enc:
            c = mpmath.mpc(e.a, e.b) / 2**e.k
            (z,) = [z for z in roots if abs(z - c) <= e.radius + mpmath.mpf(10) ** -60]
            assert e.is_real_certified == (abs(mpmath.im(z)) < mpmath.mpf(10) ** -60)


@pytest.mark.parametrize(
    "text",
    [
        "x^3 - x",  # P(0) = 0
        "x^3 + x",
        "x^3 - 2x - 1",  # three real roots
        "x^3 - 3x - 1",
        "x^3 - 7x + 6",
        f"x^3 + 1{'0' * 46}x - 1",  # a real root near 1e-46
        "x^2 - 5x + 5",
        "x^2 + x + 7",
    ],
)
def test_enclosures_hold_the_mpmath_roots(text):
    # the oracle's disks each hold exactly one 150-digit root, and are real
    # iff their root is
    P = parse_poly(text)
    _assert_hold_the_mpmath_roots(P, _oracle_isolate(P, Fraction(1, 10**30), sturm_real_count(P)))


@pytest.mark.parametrize(
    "P",
    [
        *PLASTIC_LIKE,
        IntPolynomial((-1, 0, -(10**16), 1)),
        # a pair of real part 1e-10 and imaginary part 1e-20: at k = 61 the
        # rounded discriminant of the quadratic factor is >= 0, and the ladder
        # climbs on
        IntPolynomial((-1, 2 * 10**10, -(10**20 + 1), 1)),
    ],
    ids=str,
)
def test_accepted_cubic_enclosures_hold_the_mpmath_roots(P):
    _assert_hold_the_mpmath_roots(P, _cubic_roots(P))


def test_vieta_center_sum_matches_trace():
    for P in SAMPLE_POLYS:
        enc = _enclosures(P)
        total = sum(e.center for e in enc)
        slack = sum(float(e.radius) for e in enc) + 1e-12
        assert abs(total - (-P.coeffs[-2])) <= slack


def test_modulus_product_brackets_constant_term():
    for P in SAMPLE_POLYS:
        enc = _enclosures(P)
        lo = hi = Fraction(1)
        for e in enc:
            mlo, mhi = e.modulus_interval()
            lo, hi = lo * mlo, hi * mhi
        assert lo <= abs(P.coeffs[0]) <= hi


def test_sturm_count_agrees_with_certified_enclosures():
    for P in SAMPLE_POLYS:
        enc = _enclosures(P)
        assert sum(e.is_real_certified for e in enc) == sturm_real_count(P)


# ------------------------------------------------- float and mpmath Newton oracle
# (isolation_oracle.py, shared with test_spectra)

def _accepted_cubics(bound, **flags):
    for a in range(-bound, bound + 1):
        for b in range(-bound, bound + 1):
            P = IntPolynomial((-1, b, a, 1))
            profile = classify(P, **flags)
            if profile.accepted:
                yield P, profile


KEPT_FAULT_CUBICS = [
    IntPolynomial((-1, 0, a, 1)) for a in (-(10**16), -3 * 10**16, -(10**18), -(10**24))
]


@pytest.mark.parametrize(
    "cases",
    [
        pytest.param(lambda: _accepted_cubics(10), id="det-one-bound-10"),
        pytest.param(lambda: ((P, classify(P)) for P in KEPT_FAULT_CUBICS), id="kept-faults"),
        pytest.param(lambda: _accepted_cubics(6, force_interval=True), id="force-interval-bound-6"),
    ],
)
def test_accepted_pairs_match_the_float_and_mpmath_oracle(cases):
    seen = 0
    for P, profile in cases():
        assert profile.accepted and profile.q == 2
        want = _oracle_isolate(P, Fraction(1, 10**24), 1)
        assert want is not None
        assert profile.small_roots == tuple(e for e in want if not e.is_real_certified)
        seen += 1
    assert seen >= 4
