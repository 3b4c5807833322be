"""Spectral classification: exact low-degree tests, interval certification, replay."""

import dataclasses
import itertools
import json
import re
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest

import spectorus.spectra as spectra
from spectorus.exactnum import bisect_root_dyadic, nth_root_bounds, sqrt_bounds
from spectorus.intpoly import IntPolynomial, discriminant, parse_poly, power_transform
from spectorus.rootcert import (
    DEFAULT_PRECISION_CEILING,
    PrecisionExhausted,
    chain_is_squarefree,
    disk_root_count,
    isolate_roots,
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
    EQUAL_MODULI_UNPROVEN,
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
    # disc < 0 already proves one real root; isolate_roots is told so
    import spectorus.rootcert as rootcert

    expected = exact_test_q2(PLASTIC).to_json()

    def no_chain(*args):
        raise AssertionError("exact_test_q2 built a Sturm chain")

    monkeypatch.setattr(rootcert, "count_real_roots", no_chain)
    assert exact_test_q2(PLASTIC).to_json() == expected


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


# the float rung cannot certify its roots; the next rung separates them
FLOAT_RUNG_MISS = parse_poly("x^4 - 781790x^3 - 280801x^2 - 595706x + 1")


def _no_disk_stage(monkeypatch):
    """Make the disk count give no verdict, so the isolation route decides."""
    monkeypatch.setattr(spectra, "_disk_radius", lambda P, q: None)


def test_classify_undecided_at_float_rung_ceiling(monkeypatch):
    # the disk count needs no precision ladder: it decides at any ceiling
    profile = classify(FLOAT_RUNG_MISS, max_precision_bits=53)
    assert profile.certification == REJECTED
    assert profile.reason == MODULUS_SEPARATION
    _no_disk_stage(monkeypatch)
    profile = classify(FLOAT_RUNG_MISS, max_precision_bits=53)
    assert profile.certification == UNDECIDED
    assert profile.reason == PRECISION_CEILING
    assert not profile.accepted
    profile = classify(FLOAT_RUNG_MISS)
    assert profile.certification == REJECTED
    assert profile.reason == MODULUS_SEPARATION


def _record_isolation(monkeypatch):
    """Stub out the disk count and separation; log (target, raised) per
    isolate_roots call and ("bisect", bits) per refinement of the
    expanding root."""
    _no_disk_stage(monkeypatch)
    calls = []

    def recording(P, target, **kw):
        try:
            out = isolate_roots(P, target, **kw)
        except PrecisionExhausted:
            calls.append((target, True))
            raise
        calls.append((target, False))
        return out

    def bisect(coeffs, lo, hi, bits):
        calls.append(("bisect", bits))
        return bisect_root_dyadic(coeffs, lo, hi, bits)

    monkeypatch.setattr(spectra, "_separation_verdict", lambda *args: None)
    monkeypatch.setattr(spectra, "isolate_roots", recording)
    monkeypatch.setattr(spectra, "bisect_root_dyadic", bisect)
    return calls


@pytest.mark.parametrize("ceiling, passes", [(1024, 6), (240, 4)])
def test_straddle_escalates_until_the_ceiling(monkeypatch, ceiling, passes):
    # (x^2 - x + 1)(x^3 - x - 1): no small modulus equals the target, so
    # without separation every pass straddles
    calls = _record_isolation(monkeypatch)
    profile = classify(parse_poly("x^5 - x^4 - 1"), max_precision_bits=ceiling)
    assert profile.certification == UNDECIDED
    assert profile.reason == PRECISION_CEILING
    # each straddle squares the target and doubles the refinement bits
    expected = []
    for i in range(passes - 1):
        expected += [(Fraction(1, 10 ** (10 << i)), False), ("bisect", 260 << i)]
    expected.append((Fraction(1, 10 ** (10 << (passes - 1))), True))
    assert calls == expected


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

def _chain_first_classify(P, allow_gl=False, force_interval=False):
    """Reference classify in the earlier stage order: the Sturm chain's
    squarefree verdict first, then the P(+-1) screens, the Sturm counts and
    the first isolation pass; isolate_roots builds its own chain again."""
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
    try:
        encl = isolate_roots(P, target)
    except PrecisionExhausted:
        return SpectralProfile(P, q, UNDECIDED, reason=PRECISION_CEILING)
    bigs = [e for e in encl if e.is_real_certified and e.real_interval()[0] > 1]
    assert len(bigs) == 1, f"{P.render()} straddles the first pass"
    big = bigs[0]
    b_lo, b_hi = big.real_interval()
    smalls = tuple(e for e in encl if e is not big)
    t_lo = nth_root_bounds(1 / b_hi, q, 100)[0]
    t_hi = nth_root_bounds(1 / b_lo, q, 100)[1]
    verdict = spectra._separation_verdict(smalls, t_lo, t_hi)
    if verdict is not None:
        return spectra._rejected(P, q, MODULUS_SEPARATION, verdict)
    b_lo, b_hi = bisect_root_dyadic(P.coeffs, b_lo, b_hi, refine_bits)
    t_lo = nth_root_bounds(1 / b_hi, q, refine_bits)[0]
    t_hi = nth_root_bounds(1 / b_lo, q, refine_bits)[1]
    verdict = spectra._separation_verdict(smalls, t_lo, t_hi)
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
    # exact equality of the profiles: the Fraction lambda interval and the
    # enclosures, not only their rounded JSON. Only the detail of a degree >= 4
    # modulus rejection differs: the disk count decides those
    for P in polys:
        got, want = classify(P, **kw), _chain_first_classify(P, **kw)
        if P.degree >= 4 and want.reason == MODULUS_SEPARATION:
            assert DISK_DETAIL.fullmatch(got.detail), (P.render(), got.detail)
            got = dataclasses.replace(got, detail=want.detail)
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

def _assert_stages_match_isolation(polys):
    """Where Descartes settles the counts, Sturm gives the same; where the
    disk count rejects, the isolation route rejects for the same reason.
    Returns how many inputs reached the disk count."""
    reached = 0
    for P in polys:
        q = P.degree - 1
        if abs(P.coeffs[0]) != 1 or spectra._sign_screen(P) is not None:
            continue
        chain = sturm_chain(P.coeffs)
        if not chain_is_squarefree(chain):
            continue
        above, below, real_count = spectra._sturm_counts(chain)
        negated = [-c if j % 2 else c for j, c in enumerate(P.coeffs)]
        if variations_above_one(P.coeffs) == 1 and variations_above_one(negated) == 0:
            assert (above, below) == (1, 0), P.render()
        if (above, below) != (1, 0) or q < 3:
            continue
        reached += 1
        rho = spectra._disk_radius(P, q)
        detail = rho and spectra._disk_separation(P, q, *rho)
        assert detail, P.render()  # every such input here is decided
        want = spectra._interval_classify(P, real_count, DEFAULT_PRECISION_CEILING)
        assert (want.certification, want.reason) == (REJECTED, MODULUS_SEPARATION)
    return reached


@pytest.mark.parametrize("degree, bound", [(4, 3), (5, 2), (6, 1)])
@pytest.mark.parametrize("allow_gl", [False, True])
def test_descartes_and_disk_stages_match_isolation_on_boxes(degree, bound, allow_gl):
    consts = (-1, 1) if allow_gl else ((-1) ** degree,)
    assert _assert_stages_match_isolation(_box(degree, bound, consts)) > 0


def test_descartes_and_disk_stages_match_isolation_on_built_products():
    assert _assert_stages_match_isolation(_built_products()) > 0


def test_descartes_bound_of_three_falls_back_to_sturm():
    # V(P(X + 1)) = 3 allows one or three roots above 1; Sturm tells them apart
    P = parse_poly("x^4 - 12x^3 + 28x^2 - 19x + 1")
    Q = parse_poly("x^4 - 20x^3 + 40x^2 - 23x + 1")
    assert variations_above_one(P.coeffs) == variations_above_one(Q.coeffs) == 3
    profile = classify(P)
    assert (profile.reason, profile.detail) == (EXPANDING_ROOT_COUNT, "3 real roots above 1")
    assert classify(Q).reason == MODULUS_SEPARATION


def test_disk_separation_needs_rho_below_one():
    # X^3 - 6X^2 + 5X - 1 is positive at (7/5)^-2 and has two roots in
    # |z| < 7/5, but P(x) > 0 locates x above the expanding root only for x > 1
    P = parse_poly("x^3 - 6x^2 + 5x - 1")
    assert disk_root_count(P.coeffs, 7, 5) == 2
    assert spectra._disk_separation(P, 2, 7, 5) is None


def test_disk_separation_needs_rho_below_inverse_lambda():
    # the plastic pair has modulus 1/lambda = 0.8688: |z| < 7/8 holds both
    # roots, yet none lies below 1/lambda; P((7/8)^-2) < 0 says rho > 1/lambda
    assert disk_root_count(PLASTIC.coeffs, 7, 8) == 2
    assert spectra._disk_separation(PLASTIC, 2, 7, 8) is None
    assert spectra._disk_separation(PLASTIC, 2, 13, 16) is None  # none inside
    # (x^2 - x + 1)(x^3 - x - 1): the plastic pair lies below 1/lambda = 0.9322
    P = parse_poly("x^5 - x^4 - 1")
    assert spectra._disk_radius(P, 4) == (7, 8)
    assert spectra._disk_separation(P, 4, 7, 8) == "2 roots in |z| < 7/8 < 1/lambda"
    assert classify(P).detail == "2 roots in |z| < 7/8 < 1/lambda"


def test_interval_route_certifies_no_layout_above_q_two(monkeypatch):
    # widened small-root enclosures contain 1/lambda, as equal moduli would:
    # Vieta proves q <= 2, but containment proves nothing for q >= 3
    def widened(P, target, **kw):
        return tuple(
            e if e.is_real_certified and e.real_interval()[0] > 1
            else dataclasses.replace(e, radius=Fraction(2))
            for e in isolate_roots(P, target, **kw)
        )

    _no_disk_stage(monkeypatch)
    monkeypatch.setattr(spectra, "isolate_roots", widened)
    profile = classify(parse_poly("x^5 - x^4 - 1"))
    assert (profile.certification, profile.reason) == (UNDECIDED, EQUAL_MODULI_UNPROVEN)
    assert not profile.accepted
    with open(SCHEMA_DIR / "profile.schema.json") as fh:
        jsonschema.validate(profile.to_json(), json.load(fh))
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
