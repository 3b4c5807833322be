"""Spectral classification: exact low-degree tests, interval certification, replay."""

import dataclasses
import itertools
import json
import random
import re
from fractions import Fraction
from math import floor, ldexp
from pathlib import Path

import mpmath
import numpy as np
import pytest

import spectorus.spectra as spectra
from spectorus.exactnum import bisect_root_dyadic, nth_root_bounds, sqrt_bounds
from spectorus.intpoly import IntPolynomial, discriminant, parse_poly, power_transform
from spectorus.rootcert import (
    DEFAULT_PRECISION_CEILING,
    chain_is_squarefree,
    disk_root_count,
    squarefree_by_small_primes,
    sturm_chain,
    variations_above_one,
    variations_at,
    variations_at_infinity,
)
from spectorus.spectra import (
    REAL_ROOT_LAYOUT,
    BOUNDARY_ROOT,
    CannotCertify,
    EXACT_Q1,
    EXACT_Q2,
    EXPANDING_ROOT_COUNT,
    INTERVAL_CERTIFIED,
    MODULUS_SEPARATION,
    NOT_SQUAREFREE,
    PRECISION_CEILING,
    REJECTED,
    ROOT_BELOW_MINUS_ONE,
    UNDECIDED,
    WRONG_CONSTANT_TERM,
    SpectralProfile,
    classify,
    exact_test_q1,
    exact_test_q2,
    irreducible_by_modulus,
    replay_case_even,
    replay_case_odd,
)

from isolation_oracle import oracle_isolate, real_interval

GOLDEN = parse_poly("x^2 - 3x + 1")
PLASTIC = parse_poly("x^3 - x - 1")
SCHEMA_DIR = Path(__file__).resolve().parents[1] / "docs" / "schemas"


def quadratic(t: int) -> IntPolynomial:
    return IntPolynomial((1, -t, 1))


def cubic(a: int, b: int) -> IntPolynomial:
    return IntPolynomial((-1, b, a, 1))


# ---------------------------------------------------------------- exact q=1

def test_exact_q1_acceptance_threshold():
    for t in range(-10, 11):
        profile = exact_test_q1(quadratic(t))
        assert profile.accepted == (t >= 3), t


def test_exact_q1_golden_lambda():
    profile = exact_test_q1(quadratic(3))
    assert profile.certification == EXACT_Q1
    assert profile.q == 1
    assert profile.lambda_float == pytest.approx(2.6180339887, abs=1e-9)
    lo, hi = profile.lam
    s_lo, s_hi = sqrt_bounds(Fraction(5), 200)
    assert lo <= (3 + s_lo) / 2 <= hi
    assert hi - lo <= Fraction(1, 2**100)


def test_exact_q1_rejection_reasons():
    assert exact_test_q1(quadratic(2)).reason == NOT_SQUAREFREE
    assert exact_test_q1(quadratic(-2)).reason == NOT_SQUAREFREE
    for t in (-1, 0, 1):
        assert exact_test_q1(quadratic(t)).reason == BOUNDARY_ROOT
    for t in (-3, -7):
        assert exact_test_q1(quadratic(t)).reason == EXPANDING_ROOT_COUNT


def test_exact_q1_requires_quadratic_shape():
    with pytest.raises(ValueError):
        exact_test_q1(PLASTIC)
    with pytest.raises(ValueError):
        exact_test_q1(parse_poly("x^2 - 3x - 1"))


# ---------------------------------------------------------------- exact q=2

def test_exact_q2_plastic_cubic():
    profile = exact_test_q2(PLASTIC)
    assert profile.certification == EXACT_Q2
    assert profile.q == 2
    assert profile.lambda_float == pytest.approx(1.150963925257758, abs=1e-12)
    lo, hi = profile.lam
    assert lo <= Fraction(1150963925257758, 10**15) + Fraction(1, 10**12)
    assert hi >= Fraction(1150963925257758, 10**15) - Fraction(1, 10**12)


def test_exact_q2_builds_no_sturm_chain(monkeypatch):
    # disc < 0 already proves one real root; the pair is isolated from the
    # real root's bracket without a chain or a second discriminant
    import spectorus.rootcert as rootcert

    expected = exact_test_q2(PLASTIC).to_json()

    def refuse(*args):
        raise AssertionError("exact_test_q2 repeated a proof")

    calls = []

    def counting(P):
        calls.append(P)
        return discriminant(P)

    monkeypatch.setattr(rootcert, "sturm_chain", refuse)
    monkeypatch.setattr(spectra, "sturm_chain", refuse)
    monkeypatch.setattr(spectra, "discriminant", counting)
    assert exact_test_q2(PLASTIC).to_json() == expected
    assert calls == [PLASTIC]


def test_exact_q2_past_the_float_range():
    # alpha is about 7.8e399, no double: the acceptance and the pair are exact,
    # and only the report, which carries alpha as a double, cannot be written
    profile = classify(cubic(-int("7" * 400), 0))
    assert profile.certification == EXACT_Q2
    assert len(profile.small_roots) == 2
    lam_lo, lam_hi = profile.lam
    for e in profile.small_roots:
        assert e.radius <= Fraction(1, 10**24)
        m_lo, m_hi = e.modulus_interval()
        assert m_lo <= 1 / lam_lo and 1 / lam_hi <= m_hi
    with pytest.raises(OverflowError):
        profile.to_json()


def test_exact_q2_square_transform_of_plastic():
    profile = exact_test_q2(parse_poly("x^3 - 2x^2 + x - 1"))
    assert profile.accepted
    assert profile.lambda_float == pytest.approx(1.3247179572, abs=1e-9)


def test_exact_q2_acceptance_is_disc_and_sign():
    accepted = set()
    for a in range(-3, 4):
        for b in range(-3, 4):
            P = cubic(a, b)
            profile = exact_test_q2(P)
            assert profile.accepted == (discriminant(P) < 0 and a + b < 0), (a, b)
            if profile.accepted:
                accepted.add((a, b))
    assert accepted == {
        (-3, -3), (-3, -2), (-3, -1), (-3, 0), (-3, 1), (-3, 2),
        (-2, -3), (-2, -2), (-2, -1), (-2, 0), (-2, 1),
        (-1, -2), (-1, -1), (-1, 0),
        (0, -1),
    }


def test_exact_q2_rejection_reasons():
    assert exact_test_q2(cubic(-3, 3)).reason == NOT_SQUAREFREE  # (x-1)^3
    assert exact_test_q2(cubic(0, -2)).reason == REAL_ROOT_LAYOUT
    assert exact_test_q2(cubic(-1, 1)).reason == BOUNDARY_ROOT
    assert exact_test_q2(cubic(1, 1)).reason == EXPANDING_ROOT_COUNT


def test_exact_q2_requires_cubic_shape():
    with pytest.raises(ValueError):
        exact_test_q2(GOLDEN)
    with pytest.raises(ValueError):
        exact_test_q2(parse_poly("x^3 - x + 1"))


# ------------------------------------------------------------ alpha's bracket

def _alpha_case(coeffs):
    """(coeffs, bound, bits) as spectra._accepted passes them to _alpha_bracket."""
    bound = 1 + max(map(abs, coeffs))
    return coeffs, bound, 150 + spectra._extra_bits(bound)


def _bisected(coeffs, bound, bits):
    return bisect_root_dyadic(coeffs, Fraction(1), Fraction(bound), bits)


def _q2_accept_sample(count, span, seed):
    """Seeded accepted cubics X^3 + aX^2 + bX - 1 with |a|, |b| <= span."""
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        a, b = rng.randint(-span, span), rng.randint(-span, span)
        if a + b < 0 and discriminant(cubic(a, b)) < 0:
            found.append((-1, b, a, 1))
    return found


def _box_cubics(bound, det_one):
    from spectorus.searchkit import search

    return [e.poly.coeffs for e in search(3, bound, det_one=det_one).accepted]


@pytest.mark.parametrize(
    "cases",
    [
        pytest.param(lambda: _box_cubics(25, True), id="box-3-25"),
        pytest.param(lambda: _box_cubics(40, True), id="box-3-40"),
        pytest.param(lambda: _box_cubics(5, False), id="gl-box-3-5"),
        pytest.param(lambda: _q2_accept_sample(300, 1000, 2500), id="q2-accept-family"),
        pytest.param(lambda: [(-1, 0, -int("7" * 400), 1)], id="400-sevens"),
    ],
)
def test_alpha_bracket_is_the_bisection_bracket(monkeypatch, cases):
    fallbacks = []

    def counting(*args):
        fallbacks.append(args)
        return bisect_root_dyadic(*args)

    monkeypatch.setattr(spectra, "bisect_root_dyadic", counting)
    cubics = cases()
    assert cubics
    for coeffs in cubics:
        case = _alpha_case(coeffs)
        assert spectra._alpha_bracket(*case) == _bisected(*case), coeffs
    assert fallbacks == []  # every bracket came from Newton's cell


@pytest.mark.parametrize(
    "guess",
    [
        pytest.param(lambda coeffs, bound, m: 1 << m, id="guess-1"),
        pytest.param(lambda coeffs, bound, m: bound << m, id="guess-bound"),
    ],
)
def test_alpha_bracket_falls_back_to_the_bisection_on_a_wrong_guess(monkeypatch, guess):
    monkeypatch.setattr(spectra, "_alpha_newton", guess)
    for coeffs in [PLASTIC.coeffs, (-1, 3, -7, 1)] + _q2_accept_sample(20, 1000, 2501):
        case = _alpha_case(coeffs)
        assert spectra._alpha_bracket(*case) == _bisected(*case), coeffs


@pytest.mark.parametrize("cells", [1, -1])
def test_alpha_bracket_tries_the_neighbouring_cells(monkeypatch, cells):
    # a guess one cell off still yields the bisection's cell, without a fallback
    newton = spectra._alpha_newton

    def refuse(*args):
        raise AssertionError("fell back to the bisection")

    monkeypatch.setattr(spectra, "bisect_root_dyadic", refuse)
    for coeffs in [PLASTIC.coeffs] + _q2_accept_sample(20, 1000, 2502):
        coeffs, bound, bits = case = _alpha_case(coeffs)
        s = bits + (bound - 2).bit_length()  # the bisection's last level

        def off_by_one_cell(coeffs, bound, m):
            # a cell is (bound - 1)/2**s wide, (bound - 1) * 2**(m - s) units of 2**-m
            return newton(coeffs, bound, m) + cells * ((bound - 1) << (m - s))

        monkeypatch.setattr(spectra, "_alpha_newton", off_by_one_cell)
        assert spectra._alpha_bracket(*case) == _bisected(*case), coeffs


def test_report_floats_are_the_fraction_floats(monkeypatch):
    from spectorus.searchkit import search

    profiles = [classify(PLASTIC), classify(GOLDEN), classify(cubic(-10**200, 3))]
    profiles += [e.profile for e in search(3, 12).accepted + search(2, 30).accepted]
    for profile in profiles:
        lo, hi = profile.lam
        assert profile.lambda_float == float((lo + hi) / 2)
        for e in (profile.big_root, *profile.small_roots):
            assert (e.re, e.im) == (float(Fraction(e.a, 1 << e.k)), float(Fraction(e.b, 1 << e.k)))
    # lambda_float is computed once per profile
    common, calls = spectra._common_numerators, []

    def counting(lo, hi):
        calls.append((lo, hi))
        return common(lo, hi)

    monkeypatch.setattr(spectra, "_common_numerators", counting)
    fresh = classify(PLASTIC)
    assert [fresh.lambda_float for _ in range(3)] == [profiles[0].lambda_float] * 3
    assert len(calls) == 1
    # past the float range both raise as float(Fraction(...)) does
    huge = classify(quadratic(int("1" + "7" * 400)))
    with pytest.raises(OverflowError):
        huge.lambda_float
    with pytest.raises(OverflowError):
        huge.big_root.re
    with pytest.raises(OverflowError):
        classify(cubic(-int("7" * 400), 0)).big_root.re


# ---------------------------------------------------------------- classify

def test_classify_dispatches_to_exact_paths():
    assert classify(GOLDEN).certification == EXACT_Q1
    assert classify(PLASTIC).certification == EXACT_Q2


def test_classify_validates_input():
    with pytest.raises(ValueError):
        classify(parse_poly("x - 2"))
    with pytest.raises(ValueError):
        classify(parse_poly("2x^2 - 3x + 1"))


def test_classify_wrong_constant_term():
    assert classify(parse_poly("x^3 + x^2 + x + 1")).reason == WRONG_CONSTANT_TERM
    assert classify(parse_poly("x^4 - 2x^3 + x - 1")).reason == WRONG_CONSTANT_TERM
    assert classify(parse_poly("x^2 - 3x - 1")).reason == WRONG_CONSTANT_TERM


def test_classify_gl_flag_admits_unit_constant():
    profile = classify(parse_poly("x^4 - 2x^3 + x - 1"), allow_gl=True)
    assert profile.certification == REJECTED
    assert profile.reason == MODULUS_SEPARATION

    profile = classify(parse_poly("x^4 - x^3 + x - 1"), allow_gl=True)
    assert profile.reason == BOUNDARY_ROOT

    fib = classify(parse_poly("x^2 - x - 1"), allow_gl=True)
    assert fib.certification == INTERVAL_CERTIFIED
    assert fib.q == 1
    assert fib.lambda_float == pytest.approx((1 + 5 ** 0.5) / 2, abs=1e-9)


def test_classify_degree4_screen_reasons():
    table = {
        "x^4 - x^3 - x + 1": NOT_SQUAREFREE,
        "x^4 + x^3 + x^2 + x + 1": EXPANDING_ROOT_COUNT,
        "x^4 - 3x^3 + 2x^2 - x + 1": BOUNDARY_ROOT,
        "x^4 - 34x^2 + 1": ROOT_BELOW_MINUS_ONE,
        "x^4 - x^2 + 1": EXPANDING_ROOT_COUNT,
    }
    for text, reason in table.items():
        profile = classify(parse_poly(text))
        assert profile.certification == REJECTED
        assert profile.reason == reason, text


def test_classify_degree5_modulus_separation():
    for text in ("x^5 - x^4 - 1", "x^5 - 2x^4 - x^3 + x^2 + x - 1"):
        profile = classify(parse_poly(text))
        assert profile.certification == REJECTED
        assert profile.reason == MODULUS_SEPARATION, text


# the float rung cannot certify their roots; the next rung can
FLOAT_RUNG_MISS = parse_poly("x^4 - 781790x^3 - 280801x^2 - 595706x + 1")
GL_FLOAT_RUNG_MISS = parse_poly("x^2 - 3974751x - 1")


def test_classify_undecided_at_float_rung_ceiling():
    # the disk search needs no precision ladder: it decides at any ceiling
    profile = classify(FLOAT_RUNG_MISS, max_precision_bits=53)
    assert profile.certification == REJECTED
    assert profile.reason == MODULUS_SEPARATION
    # a gl quadratic past the counts is accepted in closed form, at any ceiling
    profile = classify(GL_FLOAT_RUNG_MISS, allow_gl=True, max_precision_bits=53)
    assert profile.certification == INTERVAL_CERTIFIED
    assert profile == classify(GL_FLOAT_RUNG_MISS, allow_gl=True)


def test_classify_rejects_reducible_product_of_accepted():
    profile = classify(GOLDEN * PLASTIC)
    assert profile.certification == REJECTED
    assert profile.reason == EXPANDING_ROOT_COUNT  # two roots exceed 1


def test_forced_interval_route_agrees_with_exact_tests():
    for t in range(-3, 4):
        exact = classify(quadratic(t))
        forced = classify(quadratic(t), force_interval=True)
        assert exact.accepted == forced.accepted, t
        if exact.accepted:
            assert forced.certification == INTERVAL_CERTIFIED
            assert forced.lambda_float == pytest.approx(exact.lambda_float, abs=1e-9)
    for a in range(-3, 4):
        for b in range(-3, 4):
            exact = classify(cubic(a, b))
            forced = classify(cubic(a, b), force_interval=True)
            assert exact.accepted == forced.accepted, (a, b)
            if exact.accepted:
                assert forced.lambda_float == pytest.approx(
                    exact.lambda_float, abs=1e-9
                )


@pytest.mark.parametrize("ceiling", [53, 100, DEFAULT_PRECISION_CEILING])
def test_forced_acceptance_is_the_exact_one_relabelled(ceiling):
    # past the counts, an acceptance is built by the same closed forms and
    # pair isolation as the exact tests: only the label differs. An exact
    # Undecided (the pair above the ceiling) stays Undecided
    polys = [quadratic(t) for t in range(3, 201)]
    polys += [
        cubic(a, b)
        for a in range(-30, 31)
        for b in range(-30, 31)
        if a + b < 0 and discriminant(cubic(a, b)) < 0
    ]
    undecided = 0
    for P in polys:
        exact = classify(P, max_precision_bits=ceiling)
        want = exact
        if exact.accepted:
            want = dataclasses.replace(exact, certification=INTERVAL_CERTIFIED)
        else:
            assert (exact.certification, exact.reason) == (UNDECIDED, PRECISION_CEILING)
            undecided += 1
        assert classify(P, force_interval=True, max_precision_bits=ceiling) == want, P.render()
    assert (undecided > 0) == (ceiling == 53)  # the pair needs a rung past floats


def test_gl_quadratic_lambda_is_the_closed_form():
    # X^2 - tX - 1: lambda = (t + sqrt(t^2 + 4))/2, the other root -1/lambda
    with mpmath.workdps(120):  # resolves far below the 2**-140 width of the bounds
        for t in (*range(1, 40), 3974751, 10**40 + 7):
            profile = classify(IntPolynomial((-1, -t, 1)), allow_gl=True)
            assert (profile.certification, profile.q) == (INTERVAL_CERTIFIED, 1)
            lam = (t + mpmath.sqrt(t * t + 4)) / 2
            lo, hi = profile.lam
            assert mpmath.mpf(lo.numerator) / lo.denominator <= lam
            assert lam <= mpmath.mpf(hi.numerator) / hi.denominator
            assert irreducible_by_modulus(profile.poly, profile)


def test_huge_gl_cubic_with_three_real_roots_is_rejected():
    # two small real roots of unequal moduli: the disk search separates them
    P = parse_poly("x^3 - 6450108059913318905063962x^2 - 52808315260016213031428x + 1")
    assert discriminant(P) > 0
    profile = classify(P, allow_gl=True)
    assert (profile.certification, profile.reason) == (REJECTED, MODULUS_SEPARATION)
    assert DISK_DETAIL.fullmatch(profile.detail)


def test_interval_profile_shape_for_accepted_cubic():
    profile = classify(PLASTIC, force_interval=True)
    assert profile.certification == INTERVAL_CERTIFIED
    assert profile.q == 2
    lo, hi = profile.lam
    assert lo <= Fraction(1150963925, 10**9) + Fraction(1, 10**8)
    assert float(hi - lo) < 1e-9
    assert profile.big_root.is_real_certified
    assert len(profile.small_roots) == 2
    for e in profile.small_roots:
        assert e.modulus_interval()[1] < 1


def test_profile_json_fields():
    data = classify(PLASTIC).to_json()
    assert data["certification"] == EXACT_Q2
    assert data["accepted"] is True
    assert data["q"] == 2
    lo, hi = (float(s) for s in data["lambda_interval"])
    assert lo <= 1.150963925257758 <= hi
    rejected = classify(quadratic(0)).to_json()
    assert rejected["accepted"] is False
    assert rejected["reason"] == BOUNDARY_ROOT


# ------------------------------------------------- chain-first stage order

def _separation_verdict(smalls, t_lo, t_hi):
    """The detail of a small root whose modulus interval misses [t_lo, t_hi]."""
    for e in smalls:
        m_lo, m_hi = e.modulus_interval()
        if m_hi < t_lo:
            return f"root near {e.center:.6g} has modulus below the target interval"
        if m_lo > t_hi:
            return f"root near {e.center:.6g} has modulus above the target interval"
    return None


def _chain_first_classify(P, allow_gl=False, force_interval=False):
    """Reference classify in an earlier stage order and by an independent
    route: the Sturm chain's squarefree verdict first, then the P(+-1)
    screens, the Sturm counts and one pass of root isolation, by the float
    and mpmath oracle, that separates the moduli from 1/lambda or contains
    it."""
    n, q, c0 = P.degree, P.degree - 1, P.coeffs[0]
    expected = -1 if n % 2 else 1
    if (abs(c0) != 1) if allow_gl else (c0 != expected):
        return spectra._rejected(
            P, q, WRONG_CONSTANT_TERM, f"constant term {c0}, expected {expected}"
        )
    if not force_interval:
        if n == 2 and c0 == 1:
            return exact_test_q1(P)
        if n == 3 and c0 == -1:
            return exact_test_q2(P)
    chain = sturm_chain(P.coeffs)
    if not chain_is_squarefree(chain):
        return spectra._rejected(P, q, NOT_SQUAREFREE)
    p1 = sum(P.coeffs)
    if p1 == 0:
        return spectra._rejected(P, q, BOUNDARY_ROOT, "root at 1")
    if p1 > 0:
        return spectra._rejected(P, q, EXPANDING_ROOT_COUNT, "even number of real roots above 1")
    pm1 = sum(c if j % 2 == 0 else -c for j, c in enumerate(P.coeffs)) * (-1) ** n
    if pm1 == 0:
        return spectra._rejected(P, q, BOUNDARY_ROOT, "root at -1")
    if pm1 < 0:
        return spectra._rejected(P, q, ROOT_BELOW_MINUS_ONE, "odd number of real roots below -1")
    v_inf = variations_at_infinity(chain, positive=True)
    gt1 = variations_at(chain, Fraction(1)) - v_inf
    if gt1 != 1:
        return spectra._rejected(P, q, EXPANDING_ROOT_COUNT, f"{gt1} real roots above 1")
    below = variations_at_infinity(chain, positive=False) - variations_at(chain, Fraction(-1))
    if below != 0:
        return spectra._rejected(P, q, ROOT_BELOW_MINUS_ONE, f"{below} real roots below -1")
    # the first pass of the isolation route: every comparison below decides in it
    target, refine_bits = Fraction(1, 10**10), 260
    real = variations_at_infinity(chain, positive=False) - v_inf
    encl = oracle_isolate(P, target, real)
    if encl is None:
        return SpectralProfile(P, q, UNDECIDED, reason=PRECISION_CEILING)
    bigs = [e for e in encl if e.is_real_certified and real_interval(e)[0] > 1]
    assert len(bigs) == 1, f"{P.render()} straddles the first pass"
    big = bigs[0]
    b_lo, b_hi = real_interval(big)
    smalls = tuple(e for e in encl if e is not big)
    t_lo = nth_root_bounds(1 / b_hi, q, 100)[0]
    t_hi = nth_root_bounds(1 / b_lo, q, 100)[1]
    verdict = _separation_verdict(smalls, t_lo, t_hi)
    if verdict is not None:
        return spectra._rejected(P, q, MODULUS_SEPARATION, verdict)
    b_lo, b_hi = bisect_root_dyadic(P.coeffs, b_lo, b_hi, refine_bits)
    t_lo = nth_root_bounds(1 / b_hi, q, refine_bits)[0]
    t_hi = nth_root_bounds(1 / b_lo, q, refine_bits)[1]
    verdict = _separation_verdict(smalls, t_lo, t_hi)
    if verdict is not None:
        return spectra._rejected(P, q, MODULUS_SEPARATION, verdict)
    moduli = [e.modulus_interval() for e in smalls]
    if all(m_lo <= t_lo and t_hi <= m_hi for m_lo, m_hi in moduli):
        prod_lo, prod_hi = b_lo, b_hi
        for m_lo, m_hi in moduli:
            prod_lo, prod_hi = prod_lo * m_lo, prod_hi * m_hi
        if prod_lo <= 1 <= prod_hi:
            lam = (
                nth_root_bounds(b_lo, q, refine_bits)[0],
                nth_root_bounds(b_hi, q, refine_bits)[1],
            )
            return SpectralProfile(
                P, q, INTERVAL_CERTIFIED, lam=lam, big_root=big, small_roots=smalls
            )
    raise AssertionError(f"{P.render()} straddles the first pass")


def _box(degree, bound, consts):
    for rest in itertools.product(range(-bound, bound + 1), repeat=degree - 1):
        for c0 in consts:
            yield IntPolynomial((c0, *rest, 1))


# squarefree over Q, rejected by a sign screen, but with a double root mod 3,
# 5 and 7: the small-prime proof gives up and the Sturm chain decides
_SMALL_PRIME_MISSES = [
    "x^4 + 4x^3 - 5x^2 - 6x - 1",
    "x^4 + 5x^3 + 6x^2 - 5x - 1",
    "x^4 - 2x^3 - 5x^2 - 3x - 1",
    "x^4 - 3x^3 + 5x^2 - 2x - 1",
    "x^5 + 2x^4 + 2x^3 - 3x^2 - 3x + 1",
    "x^6 + 2x^5 - x^4 - x^2 - x - 1",
]


def _built_products():
    out = [parse_poly(t) for t in _SMALL_PRIME_MISSES]
    for g in _box(2, 2, (-1, 1)):
        out.append(g * g)
        out.append(g * g * IntPolynomial((1, -1, 1)))
        out.append(IntPolynomial((-1, 1)) * g)
        out.append(IntPolynomial((-1, 1)) * g * g)
    for g in _box(3, 1, (-1, 1)):
        out.append(g * g)
        out.append(IntPolynomial((-1, 1)) * g)
    # squarefree products of distinct factors, some past the counts
    quadratics = list(_box(2, 2, (-1, 1)))
    out.extend(g * h for g, h in itertools.combinations(quadratics, 2))
    out.extend(g * h for g in quadratics for h in _box(3, 1, (-1, 1)))
    return out


# the detail of a disk-count rejection
DISK_DETAIL = re.compile(r"(1 root|[2-9] roots) in \|z\| < [1-9][0-9]*/[1-9][0-9]* < 1/lambda")


def _assert_same_as_chain_first(polys, **kw):
    # the same certification, reason and q. The disk count decides every
    # modulus rejection, so only its detail differs; an acceptance past the
    # counts carries closed-form enclosures, so its lambda interval need only
    # overlap the isolated one. Every other profile is exactly equal: the
    # Fraction lambda interval and the enclosures, not only their rounded JSON
    for P in polys:
        got, want = classify(P, **kw), _chain_first_classify(P, **kw)
        assert (got.certification, got.reason, got.q) == (
            want.certification, want.reason, want.q
        ), P.render()
        if want.reason == MODULUS_SEPARATION:
            assert DISK_DETAIL.fullmatch(got.detail), (P.render(), got.detail)
        elif want.certification == INTERVAL_CERTIFIED:
            (g_lo, g_hi), (w_lo, w_hi) = got.lam, want.lam
            assert g_lo <= w_hi and w_lo <= g_hi, P.render()
        else:
            assert got == want, P.render()
            assert json.dumps(got.to_json()) == json.dumps(want.to_json()), P.render()


@pytest.mark.parametrize("degree, bound", [(4, 3), (5, 2), (6, 1)])
@pytest.mark.parametrize("allow_gl", [False, True])
def test_screen_first_matches_chain_first_on_boxes(degree, bound, allow_gl):
    consts = (-1, 1) if allow_gl else ((-1) ** degree,)
    _assert_same_as_chain_first(_box(degree, bound, consts), allow_gl=allow_gl)


@pytest.mark.parametrize("degree, bound", [(2, 12), (3, 4)])
def test_screen_first_matches_chain_first_forced_interval(degree, bound):
    _assert_same_as_chain_first(
        _box(degree, bound, (-1, 1)), allow_gl=True, force_interval=True
    )


@pytest.mark.parametrize("force_interval", [False, True])
def test_screen_first_matches_chain_first_on_built_products(force_interval):
    polys = _built_products()
    assert any(not chain_is_squarefree(sturm_chain(P.coeffs)) for P in polys)
    for text in _SMALL_PRIME_MISSES:
        P = parse_poly(text)
        assert not squarefree_by_small_primes(P.coeffs)
        assert chain_is_squarefree(sturm_chain(P.coeffs))
    _assert_same_as_chain_first(polys, allow_gl=True, force_interval=force_interval)


# ------------------------------------------- Descartes and disk-count stages

def _float_disk_radius(P, q):
    """The float chooser the disk search replaced: (u, v), the dyadic u/v of
    least denominator strictly between the smallest small-root modulus and
    1/lambda, from float roots; None when they do not order so or leave the
    float range."""
    n = P.degree
    companion = np.zeros((n, n))
    companion[1:, :-1] = np.eye(n - 1)
    try:
        companion[:, -1] = [-float(c) for c in P.coeffs[:-1]]
    except OverflowError:
        return None
    roots = np.linalg.eigvals(companion).tolist()
    if not all(np.isfinite(roots)):
        return None
    big = min(
        (i for i, z in enumerate(roots) if z.real > 1),
        key=lambda i: abs(roots[i].imag),
        default=None,
    )
    if big is None:
        return None
    target = roots[big].real ** (-1 / q)
    low = min(abs(z) for i, z in enumerate(roots) if i != big)
    # at the least such k one integer lies in between; floats order moduli
    # closer than about 2**-52 by noise alone
    for k in range(1, 53):
        u = floor(ldexp(low, k)) + 1
        if u < ldexp(target, k):
            return u, 1 << k
    return None


def _moduli_oracle(P, q):
    """(smallest small-root modulus, 1/lambda) from mpmath roots at the working
    precision, independent of the integer checks."""
    roots = mpmath.polyroots(P.coeffs[::-1], maxsteps=200, extraprec=mpmath.mp.prec)
    big = min((z for z in roots if mpmath.re(z) > 1), key=lambda z: abs(mpmath.im(z)))
    low = min(abs(z) for z in roots if z is not big)
    return low, mpmath.re(big) ** (mpmath.mpf(-1) / q)


def _assert_separates(P, q, u, v):
    with mpmath.workdps(30):
        low, inverse_lambda = _moduli_oracle(P, q)
        assert low < mpmath.mpf(u) / v < inverse_lambda, P.render()


def _assert_stages_match_isolation(polys):
    """Where Descartes settles the counts, Sturm gives the same. Where the
    disk search decides, its rho and detail are those of the float chooser,
    and independent roots place rho below 1/lambda and above a small root.
    Returns how many inputs reached the disk search."""
    reached = 0
    for P in polys:
        q = P.degree - 1
        screen = spectra._screen_verdict(P.degree, *spectra._sign_screen(P.coeffs))
        if abs(P.coeffs[0]) != 1 or screen is not None:
            continue
        chain = sturm_chain(P.coeffs)
        if not chain_is_squarefree(chain):
            continue
        above, below = spectra._sturm_counts(chain)
        negated = [-c if j % 2 else c for j, c in enumerate(P.coeffs)]
        if variations_above_one(P.coeffs) == 1 and variations_above_one(negated) == 0:
            assert (above, below) == (1, 0), P.render()
        if (above, below) != (1, 0) or q < 3:
            continue
        reached += 1
        got = classify(P, allow_gl=True)
        assert (got.certification, got.reason) == (REJECTED, MODULUS_SEPARATION)
        u, v = _float_disk_radius(P, q)
        count = disk_root_count(P.coeffs, u, v)
        assert got.detail == f"{count} root{'s' * (count > 1)} in |z| < {u}/{v} < 1/lambda"
        _assert_separates(P, q, u, v)
    return reached


@pytest.mark.parametrize("degree, bound", [(4, 3), (5, 2), (6, 1)])
@pytest.mark.parametrize("allow_gl", [False, True])
def test_descartes_and_disk_stages_match_isolation_on_boxes(degree, bound, allow_gl):
    consts = (-1, 1) if allow_gl else ((-1) ** degree,)
    assert _assert_stages_match_isolation(_box(degree, bound, consts)) > 0


def test_descartes_and_disk_stages_match_isolation_on_built_products():
    assert _assert_stages_match_isolation(_built_products()) > 0


def test_disk_search_matches_the_float_chooser_on_large_coefficients():
    # coefficients up to 1e9: 1/lambda reaches 2**-j with j up to about 30
    rng = random.Random(4096)
    polys = []
    for _ in range(600):
        degree, size = rng.randint(4, 7), 10 ** rng.randint(1, 9)
        rest = (rng.randint(-size, size) for _ in range(degree - 1))
        polys.append(IntPolynomial((rng.choice((-1, 1)), *rest, 1)))
    assert _assert_stages_match_isolation(polys) > 100


def test_descartes_bound_of_three_falls_back_to_sturm():
    # V(P(X + 1)) = 3 allows one or three roots above 1; Sturm tells them apart
    P = parse_poly("x^4 - 12x^3 + 28x^2 - 19x + 1")
    Q = parse_poly("x^4 - 20x^3 + 40x^2 - 23x + 1")
    assert variations_above_one(P.coeffs) == variations_above_one(Q.coeffs) == 3
    profile = classify(P)
    assert (profile.reason, profile.detail) == (EXPANDING_ROOT_COUNT, "3 real roots above 1")
    assert classify(Q).reason == MODULUS_SEPARATION


def _record_disk_probes(monkeypatch):
    """Log (coeffs, u, v) for every Schur-Cohn count the disk search makes."""
    probes = []

    def recording(coeffs, u, v):
        probes.append((coeffs, u, v))
        return disk_root_count(coeffs, u, v)

    monkeypatch.setattr(spectra, "disk_root_count", recording)
    return probes


def test_disk_separation_needs_rho_below_one(monkeypatch):
    # X^3 - 6X^2 + 5X - 1 has two roots in |z| < 7/5, but P(x) > 0 locates x
    # above the expanding root only for x > 1: the search counts in (0, 1) only
    probes = _record_disk_probes(monkeypatch)
    P = parse_poly("x^3 - 6x^2 + 5x - 1")
    assert disk_root_count(P.coeffs, 7, 5) == 2
    assert spectra._disk_search(P, 2, 240).detail == "1 root in |z| < 3/8 < 1/lambda"
    for Q in _box(5, 2, (-1,)):
        classify(Q)
    assert len(probes) > 100
    assert all(0 < u < v for _, u, v in probes)


def test_disk_separation_needs_rho_below_inverse_lambda(monkeypatch):
    # the plastic pair has modulus 1/lambda = 0.8688: |z| < 7/8 holds both
    # roots, yet none lies below 1/lambda. The search never counts above
    # 1/lambda, so with moduli all equal to it, it ends at the ceiling
    assert disk_root_count(PLASTIC.coeffs, 7, 8) == 2
    probes = _record_disk_probes(monkeypatch)
    profile = spectra._disk_search(PLASTIC, 2, 240)
    assert (profile.certification, profile.reason) == (UNDECIDED, PRECISION_CEILING)
    with mpmath.workdps(100):
        _, inverse_lambda = _moduli_oracle(PLASTIC, 2)
        assert probes and all(mpmath.mpf(u) / v < inverse_lambda for _, u, v in probes)
    # (x^2 - x + 1)(x^3 - x - 1): the plastic pair lies below 1/lambda = 0.9322
    P = parse_poly("x^5 - x^4 - 1")
    assert _float_disk_radius(P, 4) == (7, 8)
    assert classify(P).detail == "2 roots in |z| < 7/8 < 1/lambda"
    _assert_separates(P, 4, 7, 8)


def test_disk_search_moves_up_past_a_count_without_verdict(monkeypatch):
    # a zero gamma at rho = 7/8, which lies below 1/lambda = 0.9322: the
    # bracket [7/8, 1] still meets the target interval, and 29/32 is in it
    def no_verdict_at_seven_eighths(coeffs, u, v):
        return None if (u, v) == (7, 8) else disk_root_count(coeffs, u, v)

    monkeypatch.setattr(spectra, "disk_root_count", no_verdict_at_seven_eighths)
    P = parse_poly("x^5 - x^4 - 1")
    assert classify(P).detail == "2 roots in |z| < 29/32 < 1/lambda"
    _assert_separates(P, 4, 29, 32)


NEAR_EQUAL_MODULI = parse_poly("x^5 - 1000000000000x^4 + x^2 - 1")


@pytest.mark.parametrize(
    "ceiling, certification", [(62, UNDECIDED), (63, REJECTED), (4096, REJECTED)]
)
def test_disk_search_ends_at_the_ceiling(ceiling, certification):
    # the four small moduli lie within about 2**-63 (relative) of 1/lambda:
    # too close for float roots to order, and rho needs k = 63
    profile = classify(NEAR_EQUAL_MODULI, max_precision_bits=ceiling)
    assert profile.certification == certification
    if certification == UNDECIDED:
        assert profile.reason == PRECISION_CEILING
    else:
        assert profile.detail == f"2 roots in |z| < 9223372036854775/{2**63} < 1/lambda"
        _assert_separates(NEAR_EQUAL_MODULI, 4, 9223372036854775, 2**63)


def test_interval_route_certifies_no_layout_above_q_two():
    # Vieta proves equal moduli from the counts for q <= 2 only
    with open(SCHEMA_DIR / "profile.schema.json") as fh:
        reasons = json.load(fh)["properties"]["reason"]
    assert "equal_moduli_unproven" not in json.dumps(reasons)
    assert classify(PLASTIC, force_interval=True).certification == INTERVAL_CERTIFIED
    assert classify(GOLDEN, force_interval=True).certification == INTERVAL_CERTIFIED


def test_exact_q2_honours_the_precision_ceiling():
    # the pair is isolated to radius 1e-24, beyond the float rung
    profile = classify(PLASTIC, max_precision_bits=53)
    assert (profile.certification, profile.reason) == (UNDECIDED, PRECISION_CEILING)
    assert classify(PLASTIC, max_precision_bits=120) == classify(PLASTIC)


# ----------------------------------------------------------- irreducibility

def test_irreducible_by_modulus_on_accepted():
    assert irreducible_by_modulus(GOLDEN, classify(GOLDEN))
    assert irreducible_by_modulus(PLASTIC, classify(PLASTIC))
    forced = classify(PLASTIC, force_interval=True)
    assert irreducible_by_modulus(PLASTIC, forced)


def test_irreducible_by_modulus_refuses_without_certificate():
    bad = classify(quadratic(0))
    with pytest.raises(CannotCertify):
        irreducible_by_modulus(quadratic(0), bad)
    composite = GOLDEN * PLASTIC
    with pytest.raises(CannotCertify):
        irreducible_by_modulus(composite, classify(composite))
    with pytest.raises(CannotCertify):
        irreducible_by_modulus(parse_poly("x^2 - 1"), classify(parse_poly("x^2 - 1"), allow_gl=True))


def test_irreducible_by_modulus_checks_profile_matches_poly():
    with pytest.raises(CannotCertify):
        irreducible_by_modulus(PLASTIC, classify(GOLDEN))


# ---------------------------------------------------------------- replay

def test_replay_even_plastic_is_exact_coincidence():
    for text in ("x^3 - x - 1", "x^3 - 2x^2 + x - 1"):
        P = parse_poly(text)
        report = replay_case_even(P, classify(P))
        assert report.case == "CaseEven"
        assert report.constructed_poly == P
        assert report.identity_holds
        assert report.contradiction is None
        assert report.exact
        assert dict(report.steps)["lambda_sq_is_root"] == "verified"


def test_replay_even_lambda_step_fails_on_a_wrong_bracket():
    # Q = P changes sign across [lam_lo^2, lam_hi^2] only if that interval
    # holds lambda^2 ~ 5.86; (0, 1) gives P(0) = -1 and P(1) = -5
    P = parse_poly("x^3 - 6x^2 + x - 1")
    wrong = dataclasses.replace(classify(P), lam=(Fraction(0), Fraction(1)))
    assert dict(replay_case_even(P, wrong).steps)["lambda_sq_is_root"] == "failed"


def test_replay_odd_palindromic_quadratics():
    for t in (3, 4, 10):
        P = quadratic(t)
        report = replay_case_odd(P, classify(P))
        assert report.case == "CaseOdd"
        assert report.constructed_poly == P  # reversal of a palindrome
        assert report.identity_holds
        assert report.contradiction is None


def test_replay_parity_guards():
    with pytest.raises(ValueError):
        replay_case_even(GOLDEN, classify(GOLDEN))
    with pytest.raises(ValueError):
        replay_case_odd(PLASTIC, classify(PLASTIC))


def test_replay_even_near_miss_fails_coincidence():
    P = parse_poly("x^5 + 4x^4 + 4x^3 - x^2 + 2x - 1")
    profile = classify(P)
    assert profile.q == 4
    report = replay_case_even(P, profile)
    assert not report.identity_holds
    assert "does not reproduce" in report.contradiction


def test_replay_even_sum_relation_contradiction():
    # x^5 - 1 is a genuine fixed point of the degree-2 power transform, so the
    # coincidence identity holds and the contradiction must come from the
    # sum relation, not from the identity check
    P = parse_poly("x^5 - 1")
    profile = classify(P)
    assert profile.reason == BOUNDARY_ROOT
    report = replay_case_even(P, profile)
    assert report.identity_holds
    assert report.contradiction is not None
    assert "sum relation" in report.contradiction


def test_replay_odd_near_miss_fails_coincidence():
    P = parse_poly("x^4 - 2x^3 + x - 1")
    profile = classify(P, allow_gl=True)
    assert profile.q == 3
    report = replay_case_odd(P, profile)
    assert not report.identity_holds
    assert report.contradiction is not None


def test_replay_odd_identity_holds_at_q_three():
    # the fifth cyclotomic polynomial is palindromic and its roots are
    # permuted by cubing, so the identity holds and the exclusion is reached
    P = parse_poly("x^4 + x^3 + x^2 + x + 1")
    report = replay_case_odd(P, classify(P))
    assert report.steps == (
        ("reverse", "x^4 + x^3 + x^2 + x + 1"),
        ("reversal_power_transform_identity", "holds exactly"),
        ("modulus_exclusion", "stated: no certified lambda available"),
        ("conclusion", "lambda^(-9) would be a root, but every root modulus is lambda^3 or 1/lambda"),
    )
    assert report.identity_holds
    assert report.contradiction == report.steps[-1][1]


def test_replay_json_round_trip_fields():
    report = replay_case_even(PLASTIC, classify(PLASTIC))
    data = report.to_json()
    assert data["case"] == "CaseEven"
    assert data["identity_holds"] is True
    assert data["exact"] is True
    assert data["constructed_poly"]["coeffs"] == [-1, -1, 0, 1]


# --------------------------------------------------------------- consistency

def test_accepted_lambda_intervals_are_consistent_with_vieta():
    # big root times the product of small-root moduli must bracket 1
    for P in (GOLDEN, PLASTIC, parse_poly("x^3 - 2x^2 - 1")):
        profile = classify(P, force_interval=True)
        assert profile.accepted
        lo, hi = profile.big_root.modulus_interval()
        for e in profile.small_roots:
            mlo, mhi = e.modulus_interval()
            lo, hi = lo * mlo, hi * mhi
        assert lo <= 1 <= hi


def test_power_transform_preserves_acceptance_with_powered_lambda():
    base = classify(PLASTIC)
    squared = classify(power_transform(PLASTIC, 2))
    assert squared.accepted
    assert squared.lambda_float == pytest.approx(base.lambda_float ** 2, rel=1e-9)
