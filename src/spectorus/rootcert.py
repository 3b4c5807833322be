"""Certified complex root enclosures and exact real-root counting.

The roots of an accepted cubic X**3 + a*X**2 + b*X - 1 are found in closed
form: its real root by exact bisection, its conjugate pair by the quadratic
formula with integer square roots. An a-posteriori certification step in the
same integer arithmetic bounds each center, so every returned disk provably
contains exactly one root. Real-root counts come from integer Sturm chains
or Descartes' rule, and root counts in a disk from the Schur-Cohn recursion:
no floating point.
"""
from __future__ import annotations

import importlib
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt

from .exactnum import bisect_root_dyadic, dyadic_abs_bounds, dyadic_eval, isqrt_ceil, sign_at
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
            "undecided": False,  # a schema field; every enclosure here is certified
        }


def _nearest(num: int, den: int) -> int:
    """The integer nearest num/den for den > 0; ties round up."""
    return (2 * num + den) // (2 * den)


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
    P: IntPolynomial, alpha: tuple[Fraction, Fraction], max_precision_bits: int
) -> tuple[RootEnclosure, ...] | None:
    """The three certified disks of an accepted X**3 + a*X**2 + b*X - 1, or None
    past max_precision_bits.

    alpha brackets the real root, the only one. The centers are closed forms
    at scale 2**-(k + 20), rounded once to 2**-k: alpha, bisected to that
    scale, and the pair (-(a + alpha) +- i*sqrt(4/alpha - (a + alpha)**2))/2,
    the roots of the factor X**2 + (a + alpha)*X + 1/alpha. The disk radius is
    the a-posteriori bound 3*|P(c)|/|P'(c)| evaluated exactly at a center c;
    disjointness then pins exactly one root per disk. k climbs the precision
    ladder until every radius is below 1e-24. alpha is irrational: a rational
    root would be +-1, and P(1) = a + b < 0, so no bisection midpoint is a root.
    """
    coeffs = P.coeffs
    lo, hi = alpha
    guard = _GUARD_BITS
    half = 1 << (guard + 1)
    for prec in _precision_ladder(max_precision_bits):
        k = prec + 8
        m = k + guard
        if (hi - lo) * (1 << m) > 1:  # this rung needs a finer bracket
            lo, hi = bisect_root_dyadic(coeffs, lo, hi, m)
        mid = (lo + hi) * (1 << m)
        r = _nearest(mid.numerator, 2 * mid.denominator)  # alpha, in units of 2**-m
        p = (coeffs[2] << m) + r  # a + alpha, in units of 2**-m
        d = p * p + (-4 << 3 * m) // r  # (a + alpha)**2 - 4/alpha, in units of 2**-2m
        if d >= 0:
            continue  # rounding hid the pair's imaginary part: a finer rung shows it
        re, im = _nearest(-p, half), _nearest(isqrt(-d), half)
        centers = [(_nearest(r, 1 << guard), 0), (re, im), (re, -im)]
        certified = _certify_stage(coeffs, centers, k, _TARGET_RADIUS, 1)
        if certified is not None:
            return certified
    return None
