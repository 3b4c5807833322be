"""Spectral classification of monic integer polynomials and proof replay.

A polynomial of degree q+1 is accepted when it is the characteristic
polynomial of an integer matrix with determinant one, a single expanding real
eigenvalue lambda**q > 1, and q remaining eigenvalues all of modulus
1/lambda. Degrees 2 and 3 are decided by exact integer tests, or, for
a constant term the tests do not take (or on request), by the screens and
real-root counts, after which Vieta and the discriminant settle the moduli.
Higher degrees end in an integer proof of rejection (sign screens,
Descartes or Sturm counts, a Schur-Cohn disk count at a searched dyadic
radius) or undecided at the precision ceiling.

The replay operations re-execute the two halves of the supporting argument
(power-transform coincidence for even q, reversal coincidence for odd q) as
exact integer polynomial identities.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .exactnum import (
    _common_numerators,
    _scaled_value,
    _sign,
    bisect_root_dyadic,
    frac_to_decimal,
    nth_root_bounds,  # not called here: kept only for perfbench/tracer.py's wrapper
    sign_at,
    sqrt_bounds,
)
from .intpoly import IntPolynomial, discriminant, power_transform, reverse
from .rootcert import (
    DEFAULT_PRECISION_CEILING,
    MIN_PRECISION_BITS,
    RootEnclosure,
    chain_is_squarefree,
    disk_root_count,
    isolate_roots,
    squarefree_by_small_primes,
    sturm_chain,
    variations_above_one,
    variations_at,
    variations_at_infinity,
)

EXACT_Q1 = "ExactQ1"
EXACT_Q2 = "ExactQ2"
INTERVAL_CERTIFIED = "IntervalCertified"
REJECTED = "Rejected"
UNDECIDED = "Undecided"

# rejection reasons (stable strings, used as histogram keys)
WRONG_CONSTANT_TERM = "wrong_constant_term"
NOT_SQUAREFREE = "not_squarefree"
BOUNDARY_ROOT = "boundary_root"
EXPANDING_ROOT_COUNT = "expanding_root_count"
ROOT_BELOW_MINUS_ONE = "root_below_minus_one"
REAL_ROOT_LAYOUT = "real_root_layout"
MODULUS_SEPARATION = "modulus_separation"
PRECISION_CEILING = "precision_ceiling"


class CannotCertify(ValueError):
    """Raised when a certification routine refuses to give a verdict."""


@dataclass(frozen=True)
class SpectralProfile:
    """Classification verdict for one monic integer polynomial."""

    poly: IntPolynomial
    q: int
    certification: str
    reason: str | None = None
    detail: str | None = None
    lam: tuple[Fraction, Fraction] | None = None
    big_root: RootEnclosure | None = None
    small_roots: tuple[RootEnclosure, ...] = ()

    @property
    def accepted(self) -> bool:
        return self.certification in (EXACT_Q1, EXACT_Q2, INTERVAL_CERTIFIED)

    @cached_property
    def lambda_float(self) -> float | None:
        """The double nearest the midpoint of lam, computed once per profile."""
        if self.lam is None:
            return None
        lo, hi, den = _common_numerators(*self.lam)
        return (lo + hi) / (2 * den)  # int / int is correctly rounded

    def to_json(self) -> dict:
        lam_iv = None
        if self.lam is not None:
            lam_iv = [
                frac_to_decimal(self.lam[0], 30, round_up=False),
                frac_to_decimal(self.lam[1], 30, round_up=True),
            ]
        return {
            "poly": self.poly.to_json(),
            "q": self.q,
            "certification": self.certification,
            "accepted": self.accepted,
            "reason": self.reason,
            "detail": self.detail,
            "lambda": self.lambda_float,
            "lambda_interval": lam_iv,
            "big_root": self.big_root.to_json() if self.big_root else None,
            "small_roots": [e.to_json() for e in self.small_roots],
        }


@dataclass(frozen=True)
class ReplayReport:
    """Trace of one replay run; identity_holds always refers to exact equality."""

    case: str  # "CaseEven" | "CaseOdd"
    constructed_poly: IntPolynomial
    identity_holds: bool
    contradiction: str | None
    exact: bool = True
    steps: tuple[tuple[str, str], ...] = ()

    def to_json(self) -> dict:
        return {
            "case": self.case,
            "constructed_poly": self.constructed_poly.to_json(),
            "identity_holds": self.identity_holds,
            "contradiction": self.contradiction,
            "exact": self.exact,
            "steps": [list(s) for s in self.steps],
        }


def _rejected(P: IntPolynomial, q: int, reason: str, detail: str | None = None):
    return SpectralProfile(P, q, REJECTED, reason=reason, detail=detail)


def _real_enclosure(lo: Fraction, hi: Fraction, bits: int) -> RootEnclosure:
    """Enclosure for a real root known to lie in [lo, hi]."""
    a = round((lo + hi) / 2 * (1 << bits))
    c = Fraction(a, 1 << bits)
    rad = max(hi - c, c - lo, Fraction(0))
    return RootEnclosure(a, 0, bits, rad, is_real_certified=True)


def _extra_bits(bound: int) -> int:
    """Bits the enclosures need past their base widths (140 to 160), for roots
    bounded by `bound`: roots of modulus 1/lambda and the residual P(c) ~
    |c - root| * lambda**2 at a center c need about two more per bit of lambda."""
    return max(0, 2 * bound.bit_length() - 40)


def _alpha_newton(coeffs: tuple[int, ...], bound: int, m: int) -> int:
    """x with x/2**m just above alpha, by Newton's method on integers from bound.

    For the accepted cubic P is increasing and convex on [alpha, bound]
    (P'' > 0 past -a/3 < alpha), so each floored step x - P/P' stays at or
    above alpha*2**m and x descends; it stops at a step under one unit, where
    the error has shrunk quadratically (Brent and Zimmermann, Modern Computer
    Arithmetic, 2010, section 4.2).
    """
    c, b, a, _ = coeffs
    a, b, c = a << m, b << (2 * m), c << (3 * m)
    x = bound << m
    while True:
        # 2**(3m) * P(x/2**m) over 2**(2m) * P'(x/2**m): the step in units of 2**-m
        step = (((x + a) * x + b) * x + c) // ((3 * x + 2 * a) * x + b)
        if step <= 0:
            return x
        x -= step


def _alpha_bracket(coeffs: tuple[int, ...], bound: int, bits: int) -> tuple[Fraction, Fraction]:
    """bisect_root_dyadic(coeffs, 1, bound, bits) for the accepted cubic, by a
    Newton guess that exact signs check.

    Needs X**3 + a*X**2 + b*X - 1 with disc < 0 and P(1) < 0, as every q = 2
    acceptance has (exact_test_q2, or _decide's Vieta step behind the sign
    screens, also with gl or force_interval): then alpha is P's only real
    root, irrational, and exactly one cell of the bisection's last level
    shows a sign change. From [1, bound] the bisection keeps the width
    w = bound - 1 over 2**s and stops at s = bits + (w - 1).bit_length(), on
    a cell [(2**s + j*w)/2**s, (2**s + (j + 1)*w)/2**s]. The cell of the
    Newton guess, then its two neighbours, is returned only when
    P(lo) < 0 < P(hi) holds exactly; otherwise the bisection runs. So the
    pair is the bisection's by construction. Not a substitute for
    bisect_root_dyadic on other brackets: with several roots inside, Newton
    may land on another one.
    """
    w = bound - 1
    s = bits + (w - 1).bit_length()
    m = s + 8
    j = (_alpha_newton(coeffs, bound, m) - (1 << m)) // (w << (m - s))
    den = 1 << s
    for cell in (j, j - 1, j + 1):
        lo, hi = den + cell * w, den + (cell + 1) * w
        if _scaled_value(coeffs, lo, den) < 0 < _scaled_value(coeffs, hi, den):
            return Fraction(lo, den), Fraction(hi, den)
    return bisect_root_dyadic(coeffs, Fraction(1), Fraction(bound), bits)


def _accepted(
    P: IntPolynomial,
    certification: str,
    max_precision_bits: int = DEFAULT_PRECISION_CEILING,
) -> SpectralProfile:
    """The enclosures of a degree-2 or degree-3 layout already proven accepted.

    q = 1: X**2 - t*X + c0 with c0 = +-1 and lambda = (t + sqrt(t**2 - 4*c0))/2.
    q = 2: X**3 + a*X**2 + b*X - 1 with one real root alpha > 1 and a pair of
    modulus 1/lambda, lambda = sqrt(alpha), whose bracket _alpha_bracket
    finds by Newton's method and checks. isolate_roots encloses the pair,
    lower member first, from alpha's bracket; past max_precision_bits the
    verdict is Undecided / precision_ceiling.
    """
    bound = 1 + max(abs(c) for c in P.coeffs)  # Cauchy's bound on every root
    extra = _extra_bits(bound)
    if P.degree == 2:
        c0, t = P.coeffs[0], -P.coeffs[1]
        s_lo, s_hi = sqrt_bounds(Fraction(t * t - 4 * c0), 140 + extra)
        lam = (t + s_lo) / 2, (t + s_hi) / 2
        big = _real_enclosure(lam[0], lam[1], 160 + extra)
        small = _real_enclosure((t - s_hi) / 2, (t - s_lo) / 2, 160 + extra)
        return SpectralProfile(
            P, 1, certification, lam=lam, big_root=big, small_roots=(small,)
        )
    # alpha = unique real root in (1, bound); lambda = sqrt(alpha)
    a_lo, a_hi = _alpha_bracket(P.coeffs, bound, 150 + extra)
    lam = sqrt_bounds(a_lo, 160)[0], sqrt_bounds(a_hi, 160)[1]
    big = _real_enclosure(a_lo, a_hi, 160 + extra)
    pair = isolate_roots(P, (a_lo, a_hi), max_precision_bits)
    if pair is None:
        return SpectralProfile(P, 2, UNDECIDED, reason=PRECISION_CEILING)
    return SpectralProfile(P, 2, certification, lam=lam, big_root=big, small_roots=pair)


def exact_test_q1(P: IntPolynomial) -> SpectralProfile:
    """Exact degree-2 decision: accepts X**2 - t*X + 1 with t >= 3.

    The constant term forces the two roots to multiply to 1, so a valid
    layout is equivalent to a real root lambda > 1; that needs t >= 3.
    """
    if not P.is_monic or P.degree != 2 or P.coeffs[0] != 1:
        raise ValueError("exact_test_q1 requires a monic X^2 + c1*X + 1")
    t = -P.coeffs[1]
    disc = t * t - 4
    if disc == 0:
        return _rejected(P, 1, NOT_SQUAREFREE, f"double root at {t // 2}")
    if disc < 0:
        return _rejected(P, 1, BOUNDARY_ROOT, "complex pair of modulus exactly 1")
    if t < 0:
        return _rejected(P, 1, EXPANDING_ROOT_COUNT, "both real roots are negative")
    return _accepted(P, EXACT_Q1)  # t >= 3


def exact_test_q2(
    P: IntPolynomial, max_precision_bits: int = DEFAULT_PRECISION_CEILING
) -> SpectralProfile:
    """Exact degree-3 decision for X**3 + a*X**2 + b*X - 1.

    Accept iff discriminant < 0 (one real root plus a conjugate pair) and
    P(1) = a + b < 0 (the real root exceeds 1). The product of the roots is 1,
    so the pair modulus is automatically (real root)**(-1/2) = 1/lambda: the
    modulus condition costs nothing beyond integer arithmetic. The pair's
    enclosures come from the quadratic factor left by the real root; past
    max_precision_bits the verdict is Undecided / precision_ceiling.
    """
    if not P.is_monic or P.degree != 3 or P.coeffs[0] != -1:
        raise ValueError("exact_test_q2 requires a monic X^3 + a*X^2 + b*X - 1")
    a, b = P.coeffs[2], P.coeffs[1]
    disc = discriminant(P)
    if disc == 0:
        return _rejected(P, 2, NOT_SQUAREFREE, "zero discriminant")
    if disc > 0:
        return _rejected(P, 2, REAL_ROOT_LAYOUT, "three real roots, no conjugate pair")
    s = a + b
    if s == 0:
        return _rejected(P, 2, BOUNDARY_ROOT, "root at 1")
    if s > 0:
        return _rejected(P, 2, EXPANDING_ROOT_COUNT, "real root below 1")
    return _accepted(P, EXACT_Q2, max_precision_bits)


def _screen_verdict(n: int, s1: int, sm1: int) -> tuple[str, str] | None:
    """(reason, detail) of the sign screens at +-1 for degree n, from the signs
    of P(1) and P(-1), or None when both pass.

    A valid layout has exactly one real root above 1 (odd count makes
    P(1) < 0) and no root at or below -1 (even count, none at -1, makes
    (-1)**n * P(-1) > 0). The search's array screens read their verdicts here,
    indexed by 3*s1 + sm1 + 4.
    """
    if s1 == 0:
        return BOUNDARY_ROOT, "root at 1"
    if s1 > 0:
        return EXPANDING_ROOT_COUNT, "even number of real roots above 1"
    if n % 2:
        sm1 = -sm1
    if sm1 == 0:
        return BOUNDARY_ROOT, "root at -1"
    if sm1 < 0:
        return ROOT_BELOW_MINUS_ONE, "odd number of real roots below -1"
    return None


def _sign_screen(coeffs) -> tuple[int, int]:
    """The signs of P(1) and P(-1), the inputs of _screen_verdict. Each
    coefficient may be an int or a numpy array of them, one row each."""
    return _sign(sum(coeffs)), _sign(sum(coeffs[::2]) - sum(coeffs[1::2]))


def _descartes_counts(coeffs) -> tuple[int, int]:
    """variations_above_one of P and of P(-X), bounds on the real roots above 1
    and below -1; each coefficient may be an int or a numpy array of them."""
    mirrored = [-c if j % 2 else c for j, c in enumerate(coeffs)]
    return variations_above_one(coeffs), variations_above_one(mirrored)


def _sturm_counts(chain) -> tuple[int, int]:
    """Real roots above 1 and below -1, from a squarefree Sturm chain."""
    above = variations_at(chain, Fraction(1)) - variations_at_infinity(chain, positive=True)
    below = variations_at_infinity(chain, positive=False) - variations_at(chain, Fraction(-1))
    return above, below


def _disk_search(P: IntPolynomial, q: int, max_precision_bits: int) -> SpectralProfile:
    """Modulus separation by bisection for a dyadic rho = u/2**k in (0, 1).

    Needs P(1) < 0 and lambda**q the only real root above 1, as the screens
    and real-root counts prove: then P(rho**-q) > 0 exactly when rho < 1/lambda.
    The q small moduli multiply to lambda**-q, so unless all equal 1/lambda
    one lies below it. A probe goes down when P(rho**-q) <= 0, up when the
    Schur-Cohn count finds no root in |z| < rho or gives no verdict (the
    bracket above still meets the target), and rejects otherwise. Past
    k = max_precision_bits the verdict is Undecided / precision_ceiling.
    """
    coeffs = P.coeffs

    def below(u: int, k: int) -> bool:  # u/2**k < 1/lambda
        return _scaled_value(coeffs, 1 << (k * q), u**q) > 0

    # the descent to the first 2**-j below 1/lambda, by binary search on j;
    # every root has modulus above 1/(1 + max|c_i|): the reversed Cauchy bound
    lo = 0
    hi = min((1 + max(map(abs, coeffs))).bit_length() + 1, max_precision_bits + 1)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if below(1, mid):
            hi = mid
        else:
            lo = mid
    # below(1, hi) is proven, by the descent's last probe or the reversed Cauchy bound
    u, k, proven = 1, hi, True
    while k <= max_precision_bits:
        if proven or below(u, k):
            count = disk_root_count(coeffs, u, 1 << k)
            if count:
                detail = f"{count} root{'s' * (count > 1)} in |z| < {u}/{1 << k} < 1/lambda"
                return _rejected(P, q, MODULUS_SEPARATION, detail)
            u += 1  # up: the bracket above rho
        u, k, proven = 2 * u - 1, k + 1, False  # the midpoint of [(u - 1)/2**k, u/2**k]
    return SpectralProfile(P, q, UNDECIDED, reason=PRECISION_CEILING)


def classify(
    P: IntPolynomial,
    *,
    allow_gl: bool = False,
    force_interval: bool = False,
    max_precision_bits: int = DEFAULT_PRECISION_CEILING,
) -> SpectralProfile:
    """Full classification verdict for a monic integer polynomial.

    allow_gl relaxes the determinant-one constant term to |P(0)| = 1;
    force_interval decides degrees 2 and 3 by the screens and counts instead
    of their exact tests (used for agreement checks). Acceptances reached
    that way are labelled IntervalCertified; a rejection of the moduli at
    degree 3 comes from the disk search, as at degree >= 4.
    """
    if not P.is_monic:
        raise ValueError("classify requires a monic polynomial")
    n = P.degree
    if n < 2:
        raise ValueError("classify requires degree >= 2")
    if max_precision_bits < MIN_PRECISION_BITS:
        raise ValueError(f"max_precision_bits must be >= {MIN_PRECISION_BITS}")
    q = n - 1
    c0 = P.coeffs[0]
    expected = -1 if n % 2 else 1
    if (abs(c0) != 1) if allow_gl else (c0 != expected):
        return _rejected(
            P, q, WRONG_CONSTANT_TERM, f"constant term {c0}, expected {expected}"
        )
    if not force_interval:
        if n == 2 and c0 == 1:
            return exact_test_q1(P)
        if n == 3 and c0 == -1:
            return exact_test_q2(P, max_precision_bits)
    screen = _screen_verdict(n, *_sign_screen(P.coeffs))
    squarefree = squarefree_by_small_primes(P.coeffs)
    counts = _descartes_counts(P.coeffs) if screen is None and squarefree else None
    return _decide(P, screen, squarefree, counts, max_precision_bits)


def _decide(
    P: IntPolynomial,
    screen: tuple[str, str] | None,
    squarefree: bool,
    counts: tuple[int, int] | None,
    max_precision_bits: int,
) -> SpectralProfile:
    """classify's stages after the exact tests, from the sign screens' verdict
    (see _screen_verdict), the small-prime squarefree proof and the Descartes
    counts (_descartes_counts), or None when not computed.

    Stage order: sign screens, squarefree proof, real-root counts (Descartes,
    else Sturm), then Vieta (degrees 2 and 3) or the disk search.
    not_squarefree outranks a screen verdict, so a screen rejection stands
    only once a small prime or the Sturm chain proves P squarefree. The
    search's array route calls this with the values of its grids.
    """
    q = P.degree - 1
    if screen is not None and squarefree:
        return _rejected(P, q, *screen)
    if not (screen is None and squarefree and counts == (1, 0)):
        chain = sturm_chain(P.coeffs)
        if not chain_is_squarefree(chain):
            return _rejected(P, q, NOT_SQUAREFREE)
        if screen is not None:
            return _rejected(P, q, *screen)
        above, below = _sturm_counts(chain)
        if above != 1:
            return _rejected(P, q, EXPANDING_ROOT_COUNT, f"{above} real roots above 1")
        if below != 0:
            return _rejected(P, q, ROOT_BELOW_MINUS_ONE, f"{below} real roots below -1")
    # one real root lambda**q > 1, no other real root outside (-1, 1).
    # Vieta: at q = 1 the other root is +-1/lambda. At q = 2 a conjugate pair
    # (disc < 0) has modulus 1/lambda, as then c0 = -1 (c0 = +1 with
    # P(0) > 0 > P(1) gives three real roots). Two small real roots r, -r
    # would leave (X - lambda**2)(X**2 - r**2) with the integer root -a > 1,
    # which cannot divide P(0) = +-1: their moduli differ
    if q == 1 or (q == 2 and discriminant(P) < 0):
        return _accepted(P, INTERVAL_CERTIFIED, max_precision_bits)
    return _disk_search(P, q, max_precision_bits)


def irreducible_by_modulus(P: IntPolynomial, profile: SpectralProfile) -> bool:
    """Certify irreducibility from the accepted root layout.

    A nontrivial monic integer factor avoiding the expanding root would have
    all its roots strictly inside the unit disk, making its constant term a
    nonzero integer of absolute value below 1. Requires strict certified
    bounds; refuses (raises CannotCertify) rather than guessing.
    """
    if not profile.accepted:
        raise CannotCertify("profile is not an accepted certification")
    if abs(P.coeffs[0]) != 1:
        raise CannotCertify("constant term must have absolute value 1")
    if profile.big_root is None or profile.big_root.modulus_interval()[0] <= 1:
        raise CannotCertify("expanding root not certified strictly outside the unit circle")
    if len(profile.small_roots) != P.degree - 1:
        raise CannotCertify("incomplete small-root certification")
    for e in profile.small_roots:
        if e.modulus_interval()[1] >= 1:
            raise CannotCertify("a small root is not certified strictly inside the unit circle")
    return True


def replay_case_even(P: IntPolynomial, profile: SpectralProfile) -> ReplayReport:
    """Replay the even-q half of the argument on a concrete candidate.

    Builds Q(X) = X**(2p+1) + a_{2p} X**(p+1) + a_1 X**p - 1 from the
    candidate's coefficients (q = 2p), proves that Q has a root between
    lo**2 and hi**2 for the profile's lambda bracket [lo, hi] by a strict
    sign change of Q there, and tests the exact coincidence
    power_transform(Q, p) == P. For p = 1 the construction collapses to
    Q == P and the layout survives; for p >= 2 the vanishing X**(2p) and X
    coefficients of Q force sum(r_j) = -lambda**2, which combined with
    |lambda**(1/p) * r_j| = 1 yields lambda**(2/p + 4) = 1, impossible for
    lambda > 1.
    """
    q = P.degree - 1
    if q % 2:
        raise ValueError("replay_case_even requires even q")
    if profile.q != q:
        raise ValueError("profile does not match the polynomial")
    p = q // 2
    a1, a2p = P.coeffs[1], P.coeffs[2 * p]
    qc = [0] * (2 * p + 2)
    qc[0] = -1
    qc[p] += a1
    qc[p + 1] += a2p
    qc[2 * p + 1] += 1
    Q = IntPolynomial(tuple(qc))
    steps: list[tuple[str, str]] = [("construct_Q", Q.render())]

    if profile.lam is None:
        steps.append(("lambda_sq_is_root", "skipped: no certified lambda"))
    else:
        lo, hi = profile.lam
        ok = sign_at(Q.coeffs, lo * lo) * sign_at(Q.coeffs, hi * hi) < 0
        steps.append(("lambda_sq_is_root", "verified" if ok else "failed"))

    Qt = power_transform(Q, p)
    identity = Qt == P
    steps.append(
        ("power_transform_identity", "holds exactly" if identity else "fails")
    )

    if p == 1:
        contradiction = None
        steps.append(("conclusion", "q = 2 admissible: Q coincides with the candidate"))
    elif not identity:
        contradiction = (
            "coincidence step fails: the power transform of Q does not "
            "reproduce the candidate polynomial"
        )
        steps.append(("conclusion", contradiction))
    else:
        contradiction = (
            "sum relation: sum(r_j) = -lambda^2 with |lambda^(1/p) r_j| = 1 "
            "forces lambda^(2/p + 4) = 1, impossible for lambda > 1"
        )
        steps.append(("conclusion", contradiction))
    return ReplayReport(
        case="CaseEven",
        constructed_poly=Q,
        identity_holds=identity,
        contradiction=contradiction,
        steps=tuple(steps),
    )


def replay_case_odd(P: IntPolynomial, profile: SpectralProfile) -> ReplayReport:
    """Replay the odd-q half of the argument on a concrete candidate.

    Reverses the candidate (roots become reciprocals), applies the q-th power
    transform, and tests exact coincidence with the candidate. For q = 1 the
    coincidence is palindromicity and the layout survives (1/lambda is an
    admissible modulus). For q >= 3 coincidence would force lambda**(-q*q) to
    be a root, while every root modulus is lambda**q or 1/lambda; that
    exclusion is stated, not certified, since classify gives no profile of
    odd q >= 3 a lambda.
    """
    q = P.degree - 1
    if q % 2 == 0:
        raise ValueError("replay_case_odd requires odd q")
    if profile.q != q:
        raise ValueError("profile does not match the polynomial")
    R = reverse(P)
    steps: list[tuple[str, str]] = [("reverse", R.render())]
    Rt = power_transform(R, q)
    identity = Rt == P
    steps.append(
        ("reversal_power_transform_identity", "holds exactly" if identity else "fails")
    )

    if q == 1:
        contradiction = None
        steps.append(
            (
                "conclusion",
                "q = 1 admissible: coincidence is palindromicity and 1/lambda "
                "is an allowed modulus",
            )
        )
    elif not identity:
        contradiction = (
            "coincidence step fails: the reversal power transform does not "
            "reproduce the candidate polynomial"
        )
        steps.append(("conclusion", contradiction))
    else:
        contradiction = (
            f"lambda^(-{q * q}) would be a root, but every root modulus is "
            f"lambda^{q} or 1/lambda"
        )
        steps.append(("modulus_exclusion", "stated: no certified lambda available"))
        steps.append(("conclusion", contradiction))
    return ReplayReport(
        case="CaseOdd",
        constructed_poly=R,
        identity_holds=identity,
        contradiction=contradiction,
        steps=tuple(steps),
    )
