"""Spectral classification of monic integer polynomials and proof replay.

A polynomial of degree q+1 is accepted when it is the characteristic
polynomial of an integer matrix with determinant one, a single expanding real
eigenvalue lambda**q > 1, and q remaining eigenvalues all of modulus
1/lambda. Degrees 2 and 3 are decided by exact integer tests; higher degrees
end in a rejection that is a proof (exact sign screens, Descartes or Sturm
counts, a Schur-Cohn disk count, or modulus-interval separation) or undecided.

The replay operations re-execute the two halves of the supporting argument
(power-transform coincidence for even q, reversal coincidence for odd q) as
exact integer polynomial identities.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import floor, ldexp, prod

from .exactnum import (
    bisect_root_dyadic,
    frac_to_decimal,
    interval_eval,
    nth_root_bounds,
    sign_at,
    sqrt_bounds,
)
from .intpoly import IntPolynomial, discriminant, power_transform, reverse
from .rootcert import (
    DEFAULT_PRECISION_CEILING,
    MIN_PRECISION_BITS,
    PrecisionExhausted,
    RootEnclosure,
    chain_is_squarefree,
    disk_root_count,
    float_roots,
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
EQUAL_MODULI_UNPROVEN = "equal_moduli_unproven"


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

    @property
    def lambda_float(self) -> float | None:
        if self.lam is None:
            return None
        return float((self.lam[0] + self.lam[1]) / 2)

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


def _real_enclosure(lo: Fraction, hi: Fraction, bits: int = 160) -> RootEnclosure:
    """Enclosure for a real root known to lie in [lo, hi]."""
    a = round((lo + hi) / 2 * (1 << bits))
    c = Fraction(a, 1 << bits)
    rad = max(hi - c, c - lo, Fraction(0))
    return RootEnclosure(a, 0, bits, rad, is_real_certified=True)


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
    # t >= 3: lambda = (t + sqrt(t^2-4))/2 > 1
    s_lo, s_hi = sqrt_bounds(Fraction(disc), 140)
    lam = (t + s_lo) / 2, (t + s_hi) / 2
    big = _real_enclosure(lam[0], lam[1])
    small = _real_enclosure((t - s_hi) / 2, (t - s_lo) / 2)
    return SpectralProfile(
        P, 1, EXACT_Q1, lam=lam, big_root=big, small_roots=(small,)
    )


def exact_test_q2(
    P: IntPolynomial, max_precision_bits: int = DEFAULT_PRECISION_CEILING
) -> SpectralProfile:
    """Exact degree-3 decision for X**3 + a*X**2 + b*X - 1.

    Accept iff discriminant < 0 (one real root plus a conjugate pair) and
    P(1) = a + b < 0 (the real root exceeds 1). The product of the roots is 1,
    so the pair modulus is automatically (real root)**(-1/2) = 1/lambda: the
    modulus condition costs nothing beyond integer arithmetic. The enclosures
    of the pair need isolation within max_precision_bits; past it the
    verdict is Undecided / precision_ceiling.
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
    # alpha = unique real root in (1, 1 + max|coeff|); lambda = sqrt(alpha)
    bound = 1 + max(abs(c) for c in P.coeffs)
    a_lo, a_hi = bisect_root_dyadic(P.coeffs, Fraction(1), Fraction(bound), 150)
    lam = sqrt_bounds(a_lo, 160)[0], sqrt_bounds(a_hi, 160)[1]
    big = _real_enclosure(a_lo, a_hi)
    # disc < 0 proves P squarefree with one real root: no second Sturm chain
    try:
        encl = isolate_roots(
            P, Fraction(1, 10**24), max_precision_bits=max_precision_bits, _real_count=1
        )
    except PrecisionExhausted:
        return SpectralProfile(P, 2, UNDECIDED, reason=PRECISION_CEILING)
    pair = tuple(e for e in encl if not e.is_real_certified)
    return SpectralProfile(P, 2, EXACT_Q2, lam=lam, big_root=big, small_roots=pair)


def _sign_screen(P: IntPolynomial) -> SpectralProfile | None:
    """Exact sign screens at +-1, or None when both pass.

    A valid layout has exactly one real root above 1 (odd count makes
    P(1) < 0) and no root at or below -1.
    """
    coeffs = P.coeffs
    n = P.degree
    q = n - 1
    p1 = sum(coeffs)
    if p1 == 0:
        return _rejected(P, q, BOUNDARY_ROOT, "root at 1")
    if p1 > 0:
        return _rejected(P, q, EXPANDING_ROOT_COUNT, "even number of real roots above 1")
    pm1 = sum(c if j % 2 == 0 else -c for j, c in enumerate(coeffs))
    if n % 2:
        pm1 = -pm1
    if pm1 == 0:
        return _rejected(P, q, BOUNDARY_ROOT, "root at -1")
    if pm1 < 0:
        return _rejected(P, q, ROOT_BELOW_MINUS_ONE, "odd number of real roots below -1")
    return None


def _sturm_counts(chain) -> tuple[int, int, int]:
    """Real roots above 1, below -1 and in all, from a squarefree Sturm chain."""
    v_inf = variations_at_infinity(chain, positive=True)
    v_minf = variations_at_infinity(chain, positive=False)
    above = variations_at(chain, Fraction(1)) - v_inf
    below = v_minf - variations_at(chain, Fraction(-1))
    return above, below, v_minf - v_inf


def _disk_radius(P: IntPolynomial, q: int) -> tuple[int, int] | None:
    """(u, v): the dyadic u/v of least denominator strictly between the
    smallest small-root modulus and 1/lambda, from float roots; None when
    they do not order so. The floats only choose; _disk_separation proves."""
    roots = float_roots(P.coeffs)
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


def _disk_separation(P: IntPolynomial, q: int, u: int, v: int) -> str | None:
    """Proof that a small root has modulus below 1/lambda, from rho = u/v.

    Needs P(1) < 0 and lambda**q the only real root above 1, as the sign
    screens and real-root counts prove. Then P(rho**-q) > 0 proves
    rho**-q > lambda**q, that is rho < 1/lambda, and a root in |z| < rho
    lies below 1/lambda. The product of the q small moduli is lambda**-q,
    so not all of them can equal 1/lambda. None when a check fails.
    """
    if not 0 < u < v:
        return None  # P(x) > 0 places x above lambda**q only for x > 1
    if sign_at(P.coeffs, Fraction(v**q, u**q)) <= 0:
        return None
    count = disk_root_count(P.coeffs, u, v)
    if not count:
        return None
    return f"{count} root{'s' * (count > 1)} in |z| < {u}/{v} < 1/lambda"


def _interval_classify(
    P: IntPolynomial, real_count: int | None, max_precision_bits: int
) -> SpectralProfile:
    """The isolation route: certified enclosures of every root, then
    separation or containment of the moduli against 1/lambda."""
    q = P.degree - 1
    # one ladder to the caller's ceiling: a straddle squares the target and
    # doubles the refinement bits. PrecisionExhausted ends it, as the radii all
    # reach 0 only if each root is a Gaussian-integer unit, and one exceeds 1
    for i in itertools.count():
        target, refine_bits = Fraction(1, 10 ** (10 << i)), 260 << i
        try:
            encl = isolate_roots(
                P, target, max_precision_bits=max_precision_bits, _real_count=real_count
            )
        except PrecisionExhausted:
            return SpectralProfile(P, q, UNDECIDED, reason=PRECISION_CEILING)

        bigs = [e for e in encl if e.is_real_certified and e.real_interval()[0] > 1]
        if len(bigs) != 1:
            continue  # enclosures too coarse to isolate the expanding root from 1
        big = bigs[0]
        b_lo, b_hi = big.real_interval()
        smalls = tuple(e for e in encl if e is not big)

        # target interval for 1/lambda = (big root)**(-1/q), coarse first, then
        # from a bracket refined far below the enclosure radii so containment is
        # decidable. The bracket holds one simple root, irrational since a
        # rational root of monic P divides P(0) = +-1
        for bits in (100, refine_bits):
            if bits == refine_bits:
                b_lo, b_hi = bisect_root_dyadic(P.coeffs, b_lo, b_hi, bits)
            t_lo = nth_root_bounds(1 / b_hi, q, bits)[0]
            t_hi = nth_root_bounds(1 / b_lo, q, bits)[1]
            verdict = _separation_verdict(smalls, t_lo, t_hi)
            if verdict is not None:
                return _rejected(P, q, MODULUS_SEPARATION, verdict)
        m_los, m_his = zip(*(e.modulus_interval() for e in smalls))
        if not (max(m_los) <= t_lo and t_hi <= min(m_his)):
            continue  # straddling intervals
        # Vieta consistency: the enclosure product must allow |product| = 1
        if not b_lo * prod(m_los) <= 1 <= b_hi * prod(m_his):
            continue
        if q >= 3:
            # enclosures cannot prove equal moduli; for q <= 2 Vieta does
            return SpectralProfile(P, q, UNDECIDED, reason=EQUAL_MODULI_UNPROVEN)
        lam = (
            nth_root_bounds(b_lo, q, refine_bits)[0],
            nth_root_bounds(b_hi, q, refine_bits)[1],
        )
        return SpectralProfile(
            P, q, INTERVAL_CERTIFIED, lam=lam, big_root=big, small_roots=smalls
        )


def _separation_verdict(smalls, t_lo: Fraction, t_hi: Fraction) -> str | None:
    for e in smalls:
        m_lo, m_hi = e.modulus_interval()
        if m_hi < t_lo:
            return (
                f"root near {e.center:.6g} has modulus below the target interval"
            )
        if m_lo > t_hi:
            return (
                f"root near {e.center:.6g} has modulus above the target interval"
            )
    return None


def classify(
    P: IntPolynomial,
    *,
    allow_gl: bool = False,
    force_interval: bool = False,
    max_precision_bits: int = DEFAULT_PRECISION_CEILING,
) -> SpectralProfile:
    """Full classification verdict for a monic integer polynomial.

    allow_gl relaxes the determinant-one constant term to |P(0)| = 1;
    force_interval routes degrees 2 and 3 through the interval pipeline
    instead of their exact tests (used for agreement checks).
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
    # stage order: sign screens, squarefree proof, real-root counts (Descartes,
    # else Sturm), disk count, isolation. not_squarefree outranks a screen
    # verdict, so a screen rejection stands only once a small prime or the
    # Sturm chain proves P squarefree
    screen = _sign_screen(P)
    squarefree = squarefree_by_small_primes(P.coeffs)
    if screen is not None and squarefree:
        return screen
    if (
        screen is None
        and squarefree
        and variations_above_one(P.coeffs) == 1
        and variations_above_one([-c if j % 2 else c for j, c in enumerate(P.coeffs)]) == 0
    ):
        real_count = None  # counts settled; isolate_roots counts all if reached
    else:
        chain = sturm_chain(P.coeffs)
        if not chain_is_squarefree(chain):
            return _rejected(P, q, NOT_SQUAREFREE)
        if screen is not None:
            return screen
        above, below, real_count = _sturm_counts(chain)
        if above != 1:
            return _rejected(P, q, EXPANDING_ROOT_COUNT, f"{above} real roots above 1")
        if below != 0:
            return _rejected(P, q, ROOT_BELOW_MINUS_ONE, f"{below} real roots below -1")
    if q >= 3:  # degrees 2 and 3 keep the isolation route's details
        rho = _disk_radius(P, q)
        detail = rho and _disk_separation(P, q, *rho)
        if detail:
            return _rejected(P, q, MODULUS_SEPARATION, detail)
    return _interval_classify(P, real_count, max_precision_bits)


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


def _lambda_power_interval(
    profile: SpectralProfile, num: int, den: int, bits: int = 200
) -> tuple[Fraction, Fraction] | None:
    """Certified interval for lambda**(num/den), from the profile's lambda."""
    if profile.lam is None:
        return None
    lo, hi = profile.lam
    if num < 0:
        lo, hi = 1 / hi, 1 / lo
        num = -num
    lo, hi = lo**num, hi**num
    if den == 1:
        return lo, hi
    return nth_root_bounds(lo, den, bits)[0], nth_root_bounds(hi, den, bits)[1]


def replay_case_even(P: IntPolynomial, profile: SpectralProfile) -> ReplayReport:
    """Replay the even-q half of the argument on a concrete candidate.

    Builds Q(X) = X**(2p+1) + a_{2p} X**(p+1) + a_1 X**p - 1 from the
    candidate's coefficients (q = 2p), checks that lambda**2 lies in a root
    of Q via certified interval evaluation, and tests the exact coincidence
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

    lam2 = _lambda_power_interval(profile, 2, 1)
    if lam2 is None:
        steps.append(("lambda_sq_is_root", "skipped: no certified lambda"))
    else:
        v_lo, v_hi = interval_eval(Q.coeffs, lam2[0], lam2[1])
        ok = v_lo <= 0 <= v_hi
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
    be a root, while every root modulus is lambda**q or 1/lambda.
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
        inv = _lambda_power_interval(profile, -q * q, 1)
        if inv is None:
            steps.append(("modulus_exclusion", "stated: no certified lambda available"))
        else:
            roots = (profile.small_roots or ()) + (
                (profile.big_root,) if profile.big_root else ()
            )
            separated = bool(roots) and all(
                m_hi < inv[0] or m_lo > inv[1]
                for m_lo, m_hi in (e.modulus_interval() for e in roots)
            )
            steps.append(
                (
                    "modulus_exclusion",
                    "certified: no root modulus interval meets lambda^(-q^2)"
                    if separated
                    else "not certified at current precision",
                )
            )
        steps.append(("conclusion", contradiction))
    return ReplayReport(
        case="CaseOdd",
        constructed_poly=R,
        identity_holds=identity,
        contradiction=contradiction,
        steps=tuple(steps),
    )
