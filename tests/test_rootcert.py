"""Certified root enclosures, exact Sturm counts, and the dyadic helpers under them."""

from fractions import Fraction
from math import isqrt

import mpmath
import numpy as np
import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

import spectorus.rootcert as rootcert
from spectorus.exactnum import (
    bisect_root_dyadic,
    dyadic_abs_bounds,
    dyadic_eval,
    frac_to_decimal,
    interval_eval,
    isqrt_ceil,
    nth_root_bounds,
    nth_root_floor,
    sign_at,
    sqrt_bounds,
)
from spectorus.intpoly import IntPolynomial, parse_poly
from spectorus.rootcert import (
    MIN_PRECISION_BITS,
    NotSquarefree,
    PrecisionExhausted,
    count_real_roots,
    disk_root_count,
    isolate_roots,
    squarefree_by_small_primes,
    sturm_chain,
    chain_is_squarefree,
    variations_above_one,
    variations_at,
    variations_at_infinity,
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


def test_interval_eval_contains_range():
    lo, hi = interval_eval(PLASTIC.coeffs, Fraction(1), Fraction(2))
    assert lo <= PLASTIC(1) <= hi
    assert lo <= PLASTIC(2) <= hi
    assert lo <= Fraction(-23, 64) + 0 * PLASTIC(1)  # value at 3/2 inside too


def test_bisect_root_dyadic_golden_root():
    lo, hi = bisect_root_dyadic(GOLDEN.coeffs, Fraction(2), Fraction(3), 120)
    root = (3 + Fraction(sqrt_bounds(Fraction(5), 140)[0])) / 2
    assert lo <= root <= hi
    assert hi - lo <= Fraction(1, 2**120)


def test_bisect_root_dyadic_rejects_bad_bracket():
    with pytest.raises(ValueError):
        bisect_root_dyadic(GOLDEN.coeffs, Fraction(4), Fraction(5), 30)


RATIONALS = st.fractions(min_value=-6, max_value=6, max_denominator=64)


# The Fraction implementations that the integer-numerator bisection and
# interval Horner replaced, kept as named oracles. The sign is taken from
# a plain Fraction sum, independent of exactnum's integer core.

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


def fraction_interval_eval_oracle(coeffs, lo: Fraction, hi: Fraction):
    vlo = vhi = Fraction(coeffs[-1])
    for c in reversed(coeffs[:-1]):
        ps = (vlo * lo, vlo * hi, vhi * lo, vhi * hi)
        vlo, vhi = min(ps) + c, max(ps) + c
    return vlo, vhi


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


@settings(derandomize=True, max_examples=300)
@given(st.lists(st.integers(-9, 9), min_size=1, max_size=7), RATIONALS, RATIONALS)
def test_interval_eval_matches_fraction_oracle(coeffs, lo, hi):
    assert interval_eval(coeffs, lo, hi) == fraction_interval_eval_oracle(coeffs, lo, hi)


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


# ---------------------------------------------------------------- Sturm counts

def test_sturm_squarefree_detection():
    assert chain_is_squarefree(sturm_chain(GOLDEN.coeffs))
    assert not chain_is_squarefree(sturm_chain(parse_poly("x^2 - 2x + 1").coeffs))


def test_count_real_roots_examples():
    assert count_real_roots(GOLDEN) == 2
    assert count_real_roots(PLASTIC) == 1
    assert count_real_roots(parse_poly("x^2 + 1")) == 0
    assert count_real_roots(parse_poly("x^3 - 2x - 1")) == 3


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
    assert count_real_roots(P) == numeric


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


# ---------------------------------------------------------------- enclosures

def test_isolate_golden_ratio_squared():
    enc = sorted(isolate_roots(GOLDEN), key=lambda e: e.re)
    assert len(enc) == 2
    assert all(e.is_real_certified for e in enc)
    assert enc[1].re == pytest.approx(2.6180339887, abs=1e-9)
    assert enc[0].re == pytest.approx(0.3819660113, abs=1e-9)
    assert all(e.radius <= Fraction(1, 10**12) for e in enc)


def test_isolate_plastic_cubic():
    enc = sorted(isolate_roots(PLASTIC), key=lambda e: (e.re, e.im))
    real = [e for e in enc if e.is_real_certified]
    pair = [e for e in enc if not e.is_real_certified]
    assert len(real) == 1 and len(pair) == 2
    assert real[0].re == pytest.approx(1.3247179572, abs=1e-9)
    for e in pair:
        assert e.re == pytest.approx(-0.6623589786, abs=1e-9)
        assert abs(e.im) == pytest.approx(0.5622795121, abs=1e-9)
    assert pair[0].im == pytest.approx(-pair[1].im, abs=1e-12)


def test_isolate_gaussian_units():
    enc = sorted(isolate_roots(parse_poly("x^2 + 1")), key=lambda e: e.im)
    assert [round(e.im) for e in enc] == [-1, 1]
    assert all(abs(e.re) <= 1e-12 for e in enc)
    assert not any(e.is_real_certified for e in enc)
    for e in enc:
        lo, hi = e.modulus_interval()
        assert lo <= 1 <= hi


def test_enclosures_are_pairwise_disjoint():
    for P in (GOLDEN, PLASTIC, parse_poly("x^4 - 2x^3 + x - 1")):
        enc = isolate_roots(P)
        for i in range(len(enc)):
            for j in range(i + 1, len(enc)):
                a, b = enc[i], enc[j]
                dist = abs(a.center - b.center)
                assert dist > float(a.radius + b.radius)


def test_real_certified_interval_brackets_center():
    e = max(isolate_roots(GOLDEN), key=lambda e: e.re)
    lo, hi = e.real_interval()
    assert float(lo) <= e.re <= float(hi)
    assert lo > 2 and hi < 3


def test_not_squarefree_raises():
    with pytest.raises(NotSquarefree):
        isolate_roots(parse_poly("x^2 - 2x + 1"))
    with pytest.raises(NotSquarefree):
        isolate_roots(parse_poly("x^3 - 3x^2 + 3x - 1"))


def test_non_monic_and_trivial_degree_rejected():
    with pytest.raises(ValueError):
        isolate_roots(parse_poly("2x^2 - 1"))
    with pytest.raises(ValueError):
        isolate_roots(IntPolynomial((5,)))


def test_degree_one_is_exact():
    (e,) = isolate_roots(parse_poly("x - 7"))
    assert e.is_real_certified
    assert e.re == 7.0
    assert e.radius == 0


@pytest.mark.parametrize("bits", [-10, 0, MIN_PRECISION_BITS - 1])
def test_ceiling_below_first_rung_is_rejected(bits):
    with pytest.raises(ValueError, match=f">= {MIN_PRECISION_BITS}"):
        isolate_roots(PLASTIC, Fraction(1, 10**25), max_precision_bits=bits)


def _certify_stage_without_reuse(coeffs, centers, k, target, total_real):
    """Reference certify stage that evaluates P and P' at every center."""
    n = len(coeffs) - 1
    der = tuple(j * c for j, c in enumerate(coeffs))[1:]
    disks = []
    for a, b in centers:
        vr, vi, _ = dyadic_eval(coeffs, a, b, k)
        dr, di, _ = dyadic_eval(der, a, b, k)
        lo_d = isqrt(dr * dr + di * di)
        if lo_d == 0:
            return None
        r_num = -(-n * isqrt_ceil(vr * vr + vi * vi) // lo_d)
        if Fraction(r_num, 1 << k) > target:
            return None
        disks.append([a, b, r_num, False])
    touchers = [d for d in disks if abs(d[1]) <= d[2]]
    if len(touchers) != total_real:
        return None
    for d in touchers:
        d[1], d[3] = 0, True
    for i, (ai, bi, ri, _) in enumerate(disks):
        for aj, bj, rj, _ in disks[i + 1 :]:
            if (ai - aj) ** 2 + (bi - bj) ** 2 <= (ri + rj) ** 2:
                return None
    disks.sort(key=lambda d: (d[0], d[1]))
    return tuple(
        rootcert.RootEnclosure(a, b, k, Fraction(r, 1 << k), is_real_certified=real)
        for a, b, r, real in disks
    )


@pytest.mark.parametrize(
    "text",
    ["x^4 + x + 1", "x^5 - x - 1", "x^6 + x + 1", "x^7 - x^3 - 1", "x^8 - 2x^5 + x^2 + 3x - 1"],
)
@pytest.mark.parametrize("target", [Fraction(1, 10**10), Fraction(1, 10**40)])
def test_conjugate_radius_reuse_matches_full_evaluation(text, target, monkeypatch):
    P = parse_poly(text)
    got = isolate_roots(P, target)
    assert sum(e.b > 0 for e in got) >= 2  # several conjugate pairs
    monkeypatch.setattr(rootcert, "_certify_stage", _certify_stage_without_reuse)
    assert isolate_roots(P, target) == got


def test_precision_exhaustion_reports_undecided_enclosures():
    with pytest.raises(PrecisionExhausted) as exc:
        isolate_roots(PLASTIC, Fraction(1, 10**25), max_precision_bits=60)
    enc = exc.value.enclosures
    assert len(enc) == 3
    assert all(e.undecided for e in enc)
    assert all(e.to_json()["undecided"] for e in enc)


def test_enclosure_json_shape():
    e = max(isolate_roots(GOLDEN), key=lambda e: e.re)
    data = e.to_json()
    assert set(data) == {"re", "im", "radius", "real", "undecided"}
    assert data["real"] is True
    assert data["undecided"] is False
    assert data["radius"] <= 1e-12


# ------------------------------------------------------- cross-route invariants

SAMPLE_POLYS = [
    GOLDEN,
    PLASTIC,
    parse_poly("x^2 + 1"),
    parse_poly("x^3 - 2x^2 + x - 1"),
    parse_poly("x^4 - 2x^3 + x - 1"),
    parse_poly("x^5 - x^4 - 1"),
    parse_poly("x^4 + x^3 + x^2 + x + 1"),
]


def test_vieta_center_sum_matches_trace():
    for P in SAMPLE_POLYS:
        enc = isolate_roots(P)
        total = sum(e.center for e in enc)
        slack = sum(float(e.radius) for e in enc) + 1e-12
        assert abs(total - (-P.coeffs[-2])) <= slack


def test_modulus_product_brackets_constant_term():
    for P in SAMPLE_POLYS:
        enc = isolate_roots(P)
        lo = hi = Fraction(1)
        for e in enc:
            mlo, mhi = e.modulus_interval()
            lo, hi = lo * mlo, hi * mhi
        assert lo <= abs(P.coeffs[0]) <= hi


def test_sturm_count_agrees_with_certified_enclosures():
    for P in SAMPLE_POLYS:
        enc = isolate_roots(P)
        assert sum(e.is_real_certified for e in enc) == count_real_roots(P)


def test_enclosures_tighten_with_target():
    coarse = isolate_roots(PLASTIC, Fraction(1, 10**6))
    fine = isolate_roots(PLASTIC, Fraction(1, 10**18))
    assert max(e.radius for e in fine) < max(e.radius for e in coarse)
    assert max(e.radius for e in fine) <= Fraction(1, 10**18)
