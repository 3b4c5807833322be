"""Certified complex root enclosures and exact real-root counting.

The conjugate pair of an accepted cubic X**3 + a*X**2 + b*X - 1 is found in
closed form: the quadratic formula, with integer square roots, on the factor
left by its real root, which exact bisection brackets. One a-posteriori
radius in the same integer arithmetic, on a disk that stays off the real
axis, proves that each returned disk contains exactly one root. Real-root
counts come from integer Sturm chains or Descartes' rule, and root counts in
a disk from the Schur-Cohn recursion: no floating point. The Descartes and
disk counts branch on no value, so they also run on the search's columns.
"""
from __future__ import annotations

import importlib
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt

from .exactnum import (
    _sign,
    bisect_root_dyadic,
    dyadic_abs_bounds,
    dyadic_eval,
    isqrt_ceil,
    sign_at,
)
from .intpoly import IntPolynomial

DEFAULT_PRECISION_CEILING = 4096
MIN_PRECISION_BITS = 53  # first rung of the precision ladder (k = 61); the least ceiling
_GUARD_BITS = 20  # centers are computed at scale 2**-(k + 20), rounded once to 2**-k
_TARGET_RADIUS = Fraction(1, 10**24)  # every enclosure isolate_roots returns is this tight

# Nothing here calls numpy or mpmath. The aliases stay, loaded on first
# access, only because perfbench/tracer.py proxies rootcert.np and
# rootcert.mpmath.
_LAZY_MODULES = {"np": "numpy", "mpmath": "mpmath"}


def __getattr__(name: str):
    if name not in _LAZY_MODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = globals()[name] = importlib.import_module(_LAZY_MODULES[name])
    return module


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


# primes the squarefree proof tries in turn. Residue tuples repeat within a
# shard of the search, hence the cache: a degree-6 shard at bound 10 looks up
# at most 3,069 distinct ones. The boxes 4/8, 5/4 and 6/3 together look up
# 4,454, which the 8,192 entries hold across repeated searches; a whole
# bound-10 box needs more (419, 3,049 and 20,173 at degrees 4, 5 and 6), so
# there later shards evict earlier ones
_SQUAREFREE_PRIMES = (3, 5, 7)


@lru_cache(maxsize=8192)
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


def _variations(signs: list) -> int:
    """Sign variations of a sequence of signs, zeros skipped; elementwise when
    the signs are numpy arrays."""
    out = prev = 0
    for s in signs:
        out = out + (s * prev < 0)
        prev = s + prev * (s == 0)  # the last nonzero sign
    return out


def variations_at(chain: list[list[int]], x: Fraction) -> int:
    return _variations([sign_at(cs, x) for cs in chain])


def variations_at_infinity(chain: list[list[int]], positive: bool) -> int:
    signs = []
    for cs in chain:
        s = _sign(cs[-1])
        if not positive and (len(cs) - 1) % 2:
            s = -s
        signs.append(s)
    return _variations(signs)


def variations_above_one(coeffs) -> int:
    """Sign variations of the coefficients of P(X + 1).

    By Descartes' rule this bounds the number of roots of P above 1 and has
    the same parity; so 0 proves none and 1 proves exactly one (Collins and
    Akritas, 1976). The Taylor shift by 1 is integer work, O(n**2). Each
    coefficient may be an int or a numpy array of them, one row each.
    """
    a = list(coeffs)
    n = len(a) - 1
    for i in range(n):
        for j in range(n - 1, i - 1, -1):
            a[j] = a[j] + a[j + 1]  # not +=: that would write into a column's grid
    return _variations([_sign(c) for c in a])


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
    count, zero = _schur_cohn(_disk_coefficients(coeffs, u, v))
    return None if zero else count


def _disk_coefficients(coeffs, u: int, v: int) -> list:
    """The ascending coefficients c_i * u**i * v**(n - i) of v**n * P(u*z/v);
    each c_i may be an int or a numpy object array of ints, one row each."""
    n = len(coeffs) - 1
    return [c * (u**i * v ** (n - i)) for i, c in enumerate(coeffs)]


def _schur_cohn(p: list, primitive: bool = True):
    """(count, zero): disk_root_count's recursion on the ascending coefficients
    p, where zero tells whether some gamma is 0 (then count means nothing).

    Each p[j] may be an int or a numpy object array of ints, one row each: the
    steps use only +, -, * and comparisons. The search's array stage passes
    primitive=False, only up to degree 8, as each step then doubles the bit
    length; dividing by a positive content changes no sign of gamma.
    """
    count, sign, zero = 0, 1, False
    for m in range(len(p) - 1, 0, -1):
        a0, am = p[0], p[m]
        gamma = a0 * a0 - am * am
        zero = zero | (gamma == 0)
        flip = gamma < 0
        count = count + sign * m * flip
        sign = sign - 2 * sign * flip
        p = [a0 * p[j] - am * p[m - j] for j in range(m)]
        p = _primitive(p) if primitive else p
    return count, zero


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

    @property
    def re(self) -> float:
        return self.a / (1 << self.k)  # int / int is correctly rounded

    @property
    def im(self) -> float:
        return self.b / (1 << self.k)

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

    def to_json(self) -> dict:
        return {
            "re": self.re,
            "im": self.im,
            "radius": self.radius_float,
            "real": self.is_real_certified,
            "undecided": False,  # a schema field; every enclosure here is certified
        }


def _nearest(num: int, den: int) -> int:
    """The integer nearest num/den for den > 0; ties round up."""
    return (2 * num + den) // (2 * den)


def _certify_pair(
    coeffs: tuple[int, ...], a: int, b: int, k: int
) -> tuple[RootEnclosure, RootEnclosure] | None:
    """The disks of the cubic's conjugate pair about (a +- b*i)/2**k, lower first,
    or None: escalate.

    P'/P(c) = sum 1/(c - z) over the roots z, so the closed disk about c of
    radius 3*|P(c)/P'(c)| holds a root (Henrici, Applied and Computational
    Complex Analysis I). A disk strictly above the real axis holds the one
    non-real root of P there; its mirror holds the conjugate. The radius is an
    integer numerator over 2**k, shared by both disks.
    """
    vr, vi, _ = dyadic_eval(coeffs, a, b, k)
    dr, di, _ = dyadic_eval((coeffs[1], 2 * coeffs[2], 3), a, b, k)
    lo_d = isqrt(dr * dr + di * di)
    if lo_d == 0:
        return None
    # r_num/2**k >= 3*|P(c)|/|P'(c)|: scales of P and P' differ by exactly 2**k
    r_num = -(-3 * isqrt_ceil(vr * vr + vi * vi) // lo_d)
    target = _TARGET_RADIUS
    if b <= r_num or r_num * target.denominator > target.numerator << k:
        return None
    radius = Fraction(r_num, 1 << k)
    return RootEnclosure(a, -b, k, radius), RootEnclosure(a, b, k, radius)


def _precision_ladder(ceiling: int) -> list[int]:
    out = [MIN_PRECISION_BITS]
    p = 120
    while p < ceiling:
        out.append(p)
        p *= 2
    out.append(ceiling)
    return out


def isolate_roots(
    P: IntPolynomial, alpha: tuple[Fraction, Fraction], max_precision_bits: int
) -> tuple[RootEnclosure, RootEnclosure] | None:
    """The certified disks of the conjugate pair of an accepted
    X**3 + a*X**2 + b*X - 1, lower member first, or None past max_precision_bits.

    alpha brackets the real root, the only one. The pair is
    (-(a + alpha) +- i*sqrt(4/alpha - (a + alpha)**2))/2, the roots of the
    factor X**2 + (a + alpha)*X + 1/alpha, computed at scale 2**-(k + 20) from
    alpha bisected to that scale and rounded once to 2**-k. _certify_pair
    proves the upper center's disk off the real axis, so each disk holds
    exactly one root. k climbs the precision ladder until the radius is below
    1e-24. alpha is irrational: a rational root would be +-1, and
    P(1) = a + b < 0, so no bisection midpoint is a root. No center is a root
    either, so a radius at k is at least 2**-k: a rung where that misses the
    target is skipped.
    """
    coeffs = P.coeffs
    lo, hi = alpha
    guard = _GUARD_BITS
    half = 1 << (guard + 1)
    for prec in _precision_ladder(max_precision_bits):
        k = prec + 8
        if _TARGET_RADIUS * (1 << k) < 1:
            continue  # no radius of this rung meets the target
        m = k + guard
        if (hi - lo) * (1 << m) > 1:  # this rung needs a finer bracket
            lo, hi = bisect_root_dyadic(coeffs, lo, hi, m)
        mid = (lo + hi) * (1 << m)
        r = _nearest(mid.numerator, 2 * mid.denominator)  # alpha, in units of 2**-m
        p = (coeffs[2] << m) + r  # a + alpha, in units of 2**-m
        d = p * p + (-4 << 3 * m) // r  # (a + alpha)**2 - 4/alpha, in units of 2**-2m
        if d >= 0:
            continue  # rounding hid the pair's imaginary part: a finer rung shows it
        pair = _certify_pair(coeffs, _nearest(-p, half), _nearest(isqrt(-d), half), k)
        if pair is not None:
            return pair
    return None
