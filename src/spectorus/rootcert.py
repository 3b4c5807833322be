"""Certified complex root enclosures and exact real-root counting.

Root finding runs in three layers: hardware eigenvalue seeds, Newton polish at
increasing mpmath precision, and an exact a-posteriori certification step in
dyadic integer arithmetic. Every returned disk provably contains exactly one
root. Real-root counts come from integer Sturm chains or Descartes' rule, and
root counts in a disk from the Schur-Cohn recursion: no floating point.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt

import mpmath
import numpy as np

from .exactnum import dyadic_abs_bounds, dyadic_eval, isqrt_ceil, sign_at
from .intpoly import IntPolynomial

DEFAULT_PRECISION_CEILING = 4096
MIN_PRECISION_BITS = 53  # first rung of the precision ladder: hardware float seeds


class NotSquarefree(ValueError):
    """The polynomial has a repeated root (gcd with its derivative is nonconstant)."""


class PrecisionExhausted(RuntimeError):
    """Certification failed below the precision ceiling; carries undecided enclosures."""

    def __init__(self, message: str, enclosures: tuple["RootEnclosure", ...] = ()):
        super().__init__(message)
        self.enclosures = enclosures


# ---------------------------------------------------------------------------
# integer Sturm chains


def _strip(cs: list[int]) -> list[int]:
    while len(cs) > 1 and cs[-1] == 0:
        cs.pop()
    return cs


def _primitive(cs: list[int]) -> list[int]:
    g = gcd(*cs)
    return [c // g for c in cs] if g > 1 else cs


def _pseudo_rem(f: list[int], g: list[int]) -> tuple[list[int], int]:
    """(lc(g)**(deg f - deg g + 1) * f) mod g, plus the sign of that multiplier."""
    dg = len(g) - 1
    lg = g[-1]
    r = list(f)
    steps = len(f) - len(g) + 1
    for _ in range(steps):
        lead = r[-1]
        r = [lg * c for c in r]
        if lead:
            shift = len(r) - 1 - dg
            for j in range(dg + 1):
                r[shift + j] -= lead * g[j]
        r.pop()
    mult_sign = 1 if lg > 0 or steps % 2 == 0 else -1
    return _strip(r if r else [0]), mult_sign


def sturm_chain(coeffs: tuple[int, ...]) -> list[list[int]]:
    """Sturm chain of P with exact integer coefficients.

    Each element equals the textbook rational chain entry times a positive
    constant, so sign-variation counts are preserved.
    """
    f = _strip(list(coeffs))
    if len(f) == 1:
        return [f]
    fp = [j * c for j, c in enumerate(f)][1:]
    chain = [f, _primitive(_strip(fp))]
    while len(chain[-1]) > 1:
        r, mult_sign = _pseudo_rem(chain[-2], chain[-1])
        if r == [0]:
            break
        # next entry must be a positive multiple of -(true remainder)
        if mult_sign > 0:
            r = [-c for c in r]
        chain.append(_primitive(r))
    return chain


def chain_is_squarefree(chain: list[list[int]]) -> bool:
    return len(chain[-1]) == 1 and chain[-1][0] != 0


# primes the squarefree proof tries in turn; residue tuples repeat across a
# coefficient box (about 4,000 distinct ones over degrees 4-6), hence the cache
_SQUAREFREE_PRIMES = (3, 5, 7)


@lru_cache(maxsize=4096)
def _squarefree_mod(p: int, residues: tuple[int, ...]) -> bool:
    """gcd(f, f') over GF(p) is a nonzero constant, for f monic with these residues."""
    f = list(residues)
    g = [j * c % p for j, c in enumerate(f)][1:]
    while g and g[-1] == 0:
        g.pop()
    while g:
        # f mod g over GF(p); g is nonzero with a unit leading coefficient
        inv = pow(g[-1], p - 2, p)
        dg = len(g) - 1
        while len(f) > dg:
            c = f[-1] * inv % p
            if c:
                shift = len(f) - 1 - dg
                for j in range(dg):
                    f[shift + j] = (f[shift + j] - c * g[j]) % p
            f.pop()
        while f and f[-1] == 0:
            f.pop()
        f, g = g, f
    return len(f) == 1


def squarefree_by_small_primes(coeffs: tuple[int, ...]) -> bool:
    """True proves the monic P squarefree over Q; False proves nothing.

    A repeated factor g**2 of P over Q is, by Gauss's lemma, a monic integer
    one, and it survives reduction mod p with its degree. So P squarefree
    mod some prime p implies P squarefree over Q (von zur Gathen and Gerhard,
    Modern Computer Algebra, ch. 14).
    """
    return any(
        _squarefree_mod(p, tuple(c % p for c in coeffs)) for p in _SQUAREFREE_PRIMES
    )


def _variations(signs: list[int]) -> int:
    out = 0
    prev = 0
    for s in signs:
        if s == 0:
            continue
        if prev and s != prev:
            out += 1
        prev = s
    return out


def variations_at(chain: list[list[int]], x: Fraction) -> int:
    return _variations([sign_at(cs, x) for cs in chain])


def variations_at_infinity(chain: list[list[int]], positive: bool) -> int:
    signs = []
    for cs in chain:
        s = (cs[-1] > 0) - (cs[-1] < 0)
        if not positive and (len(cs) - 1) % 2:
            s = -s
        signs.append(s)
    return _variations(signs)


def variations_above_one(coeffs) -> int:
    """Sign variations of the coefficients of P(X + 1).

    By Descartes' rule this bounds the number of roots of P above 1 and has
    the same parity; so 0 proves none and 1 proves exactly one (Collins and
    Akritas, 1976). The Taylor shift by 1 is integer work, O(n**2).
    """
    a = list(coeffs)
    n = len(a) - 1
    for i in range(n):
        for j in range(n - 1, i - 1, -1):
            a[j] += a[j + 1]
    positive = [c > 0 for c in a if c]
    return sum(x != y for x, y in zip(positive, positive[1:]))


def disk_root_count(coeffs, u: int, v: int) -> int | None:
    """Roots of P in the open disk |z| < u/v, by the Schur-Cohn recursion.

    Counts the unit-disk roots of p(z) = v**n * P(u*z/v) at formal degree n.
    Each step takes Tp = a_0*p - a_n*p* (p* reversed), of formal degree one
    less, divided by its content; with gamma = a_0**2 - a_n**2 = Tp(0),
    N(p) = N(Tp) if gamma > 0 and n - N(Tp) if gamma < 0 (Henrici, Applied
    and Computational Complex Analysis I, 6.8). The rule assumes no root on
    the circle, and Tp has the same roots there as p, so it holds whenever P
    has no root of modulus u/v. For monic P and rational 0 < u/v < 1 it has
    none: (u/v)**2 = z*conj(z) would be a rational algebraic integer below 1.
    None means some gamma is 0: no verdict.
    """
    n = len(coeffs) - 1
    p = []
    up, vp = 1, v**n
    for c in coeffs:
        p.append(c * up * vp)
        up *= u
        vp //= v
    count, sign = 0, 1
    for m in range(n, 0, -1):
        a0, am = p[0], p[m]
        gamma = a0 * a0 - am * am
        if gamma == 0:
            return None
        if gamma < 0:
            count += sign * m
            sign = -sign
        p = _primitive([a0 * p[j] - am * p[m - j] for j in range(m)])
    return count


def count_real_roots(P: IntPolynomial) -> int:
    chain = sturm_chain(P.coeffs)
    if not chain_is_squarefree(chain):
        raise NotSquarefree(f"{P.render()} is not squarefree")
    return variations_at_infinity(chain, positive=False) - variations_at_infinity(
        chain, positive=True
    )


# ---------------------------------------------------------------------------
# certified enclosures


@dataclass(frozen=True)
class RootEnclosure:
    """Disk (a + b*i)/2**k with certified radius containing exactly one root."""

    a: int
    b: int
    k: int
    radius: Fraction
    is_real_certified: bool = False
    undecided: bool = False

    @property
    def re(self) -> float:
        return float(Fraction(self.a, 1 << self.k))

    @property
    def im(self) -> float:
        return float(Fraction(self.b, 1 << self.k))

    @property
    def center(self) -> complex:
        return complex(self.re, self.im)

    @property
    def radius_float(self) -> float:
        # round the reported radius upward so the float stays a valid bound
        f = float(self.radius)
        return f if Fraction(f) >= self.radius else math.nextafter(f, math.inf)

    def modulus_interval(self) -> tuple[Fraction, Fraction]:
        """Certified [lo, hi] containing the modulus of the enclosed root."""
        lo, hi = dyadic_abs_bounds(self.a, self.b, self.k)
        lo -= self.radius
        return (lo if lo > 0 else Fraction(0)), hi + self.radius

    def real_interval(self) -> tuple[Fraction, Fraction]:
        if not self.is_real_certified:
            raise ValueError("enclosure is not certified real")
        c = Fraction(self.a, 1 << self.k)
        return c - self.radius, c + self.radius

    def to_json(self) -> dict:
        return {
            "re": self.re,
            "im": self.im,
            "radius": self.radius_float,
            "real": self.is_real_certified,
            "undecided": self.undecided,
        }


def float_roots(coeffs: tuple[int, ...]) -> list[complex]:
    """Hardware roots of monic P: eigenvalues of its companion matrix."""
    n = len(coeffs) - 1
    companion = np.zeros((n, n))
    companion.reshape(-1)[n :: n + 1] = 1.0  # subdiagonal
    companion[:, -1] = [-float(c) for c in coeffs[:-1]]
    return np.linalg.eigvals(companion).tolist()


def _float_seeds(coeffs: tuple[int, ...]) -> list[complex]:
    roots = float_roots(coeffs)
    der = [j * c for j, c in enumerate(coeffs)][1:]

    def horner(cs, x):
        v = 0.0 + 0.0j
        for c in reversed(cs):
            v = v * x + c
        return v

    out = []
    for r in roots:
        x = complex(r)
        for _ in range(2):
            d = horner(der, x)
            if d == 0:
                break
            x -= horner(coeffs, x) / d
        out.append(x)
    return out


def _mpmath_polish(coeffs: tuple[int, ...], seeds, prec: int):
    der = [j * c for j, c in enumerate(coeffs)][1:]
    desc = list(reversed(coeffs))
    der_desc = list(reversed(der))
    out = []
    with mpmath.workprec(prec + 20):
        for s in seeds:
            x = mpmath.mpc(s[0], s[1])
            for _ in range(4):
                d = mpmath.polyval(der_desc, x)
                if d == 0:
                    break
                x = x - mpmath.polyval(desc, x) / d
            out.append(x)
    return out


def _polyroots_seeds(coeffs: tuple[int, ...], prec: int):
    """Durand-Kerner seeds from mpmath.polyroots, for when Newton seeds collide.

    polyroots stops on an absolute error, so the working precision grows by
    the bit size of the Cauchy root bound; cleanup=False keeps tiny parts.
    """
    extra = (1 + max(abs(c) for c in coeffs)).bit_length() + 20
    with mpmath.workprec(prec + 20):
        try:
            roots = mpmath.polyroots(
                list(reversed(coeffs)), maxsteps=200, cleanup=False, extraprec=extra
            )
        except mpmath.libmp.NoConvergence:
            return None
        return [(mpmath.re(z), mpmath.im(z)) for z in roots]


def _dyadic_center(value, k: int) -> int:
    if isinstance(value, float):
        if abs(value) < 1e18 and k <= 512:
            return round(value * (1 << k))  # power-of-two scaling is exact
        return round(Fraction(value) * (1 << k))
    # mpmath mpf: exact binary rational (sign, mantissa, exponent, bit count)
    sign, man, exp, _ = value._mpf_
    if man == 0:
        return 0
    f = Fraction(-man if sign else man) * Fraction(2) ** exp
    return round(f * (1 << k))


def _certify_stage(
    coeffs: tuple[int, ...],
    centers: list[tuple[int, int]],
    k: int,
    target: Fraction,
    total_real: int,
) -> tuple[RootEnclosure, ...] | None:
    """Try to certify one enclosure per center; None means escalate.

    All checks run in integer arithmetic at the common dyadic scale 2**k;
    each certified radius is an integer numerator over 2**k.
    """
    n = len(coeffs) - 1
    der = tuple(j * c for j, c in enumerate(coeffs))[1:]
    t_num, t_den = target.numerator, target.denominator
    disks: list[list[int]] = []  # [a, b, r_num, real]
    # integer coefficients give |P(conj c)| = |P(c)| and |P'(conj c)| = |P'(c)|,
    # so the conjugate of a certified center reuses its radius exactly
    radii: dict[tuple[int, int], int] = {}
    for a, b in centers:
        r_num = radii.get((a, -b))
        if r_num is None:
            vr, vi, _ = dyadic_eval(coeffs, a, b, k)
            dr, di, _ = dyadic_eval(der, a, b, k)
            lo_d = isqrt(dr * dr + di * di)
            if lo_d == 0:
                return None
            up_p = isqrt_ceil(vr * vr + vi * vi)
            # radius <= n*up_p/(lo_d*2**k): scales of P and P' differ by exactly 2**k
            r_num = -(-n * up_p // lo_d)
            if r_num * t_den > t_num << k:
                return None
            radii[(a, b)] = r_num
        disks.append([a, b, r_num, False])

    # reality certification: disks meeting the real axis must match the exact count
    touchers = [d for d in disks if abs(d[1]) <= d[2]]
    if len(touchers) != total_real:
        return None
    for d in touchers:
        d[1] = 0
        d[3] = True

    # pairwise disjointness, exact
    for i in range(len(disks)):
        ai, bi, ri, _ = disks[i]
        for j in range(i + 1, len(disks)):
            aj, bj, rj, _ = disks[j]
            da, db, rr = ai - aj, bi - bj, ri + rj
            if da * da + db * db <= rr * rr:
                return None
    disks.sort(key=lambda d: (d[0], d[1]))
    den = 1 << k
    return tuple(
        RootEnclosure(a, b, k, Fraction(r, den), is_real_certified=real)
        for a, b, r, real in disks
    )


def _precision_ladder(ceiling: int) -> list[int]:
    out = [MIN_PRECISION_BITS]
    p = 120
    while p < ceiling:
        out.append(p)
        p *= 2
    out.append(ceiling)
    return out


def isolate_roots(
    P: IntPolynomial,
    target_radius=Fraction(1, 10**12),
    max_precision_bits: int = DEFAULT_PRECISION_CEILING,
    _real_count: int | None = None,
) -> tuple[RootEnclosure, ...]:
    """deg(P) pairwise-disjoint disks, each certified to hold exactly one root.

    The disk radius is the a-posteriori bound deg(P)*|P(c)|/|P'(c)| evaluated
    exactly at a dyadic center c; disjointness then pins exactly one root per
    disk. Precision escalates until every radius is below target_radius, or
    PrecisionExhausted is raised with the last (undecided) enclosures.
    _real_count is the exact real-root count of a P already proven
    squarefree; without it count_real_roots proves both here.
    """
    if P.degree < 1:
        raise ValueError("degree must be >= 1")
    if not P.is_monic:
        raise ValueError("isolate_roots requires a monic polynomial")
    if max_precision_bits < MIN_PRECISION_BITS:
        raise ValueError(f"max_precision_bits must be >= {MIN_PRECISION_BITS}")
    target = Fraction(target_radius)
    if target <= 0:
        raise ValueError("target_radius must be positive")
    if _real_count is None:
        _real_count = count_real_roots(P)
    if P.degree == 1:
        return (
            RootEnclosure(-P.coeffs[0], 0, 0, Fraction(0), is_real_certified=True),
        )

    coeffs = P.coeffs
    last: tuple[RootEnclosure, ...] = ()
    for prec in _precision_ladder(max_precision_bits):
        k = prec + 8
        if prec == MIN_PRECISION_BITS:
            seeds = _float_seeds(coeffs)
            centers = [
                (_dyadic_center(z.real, k), _dyadic_center(z.imag, k)) for z in seeds
            ]
        else:
            # the ladder starts at the float rung, so a previous rung always exists
            seeds_m = None
            if len(set(prev_centers)) < len(prev_centers):
                # Newton never separates equal centers (the pair of
                # X^3 + aX^2 - 1 for a <= -5e15 is seeded as two exact zeros)
                seeds_m = _polyroots_seeds(coeffs, prec)
            if seeds_m is None:
                with mpmath.workprec(prec + 20):
                    den = mpmath.mpf(1 << prev_k)
                    seeds_m = [
                        (mpmath.mpf(a) / den, mpmath.mpf(b) / den)
                        for a, b in prev_centers
                    ]
            polished = _mpmath_polish(coeffs, seeds_m, prec)
            with mpmath.workprec(prec + 40):
                centers = [
                    (_dyadic_center(z.real, k), _dyadic_center(z.imag, k))
                    for z in polished
                ]
        certified = _certify_stage(coeffs, centers, k, target, _real_count)
        if certified is not None:
            return certified
        prev_centers, prev_k = centers, k
        last = tuple(
            RootEnclosure(a, b, k, Fraction(1), undecided=True) for a, b in centers
        )
    raise PrecisionExhausted(
        f"could not certify roots of {P.render()} below {max_precision_bits} bits",
        enclosures=last,
    )
