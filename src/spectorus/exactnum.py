"""Exact integer/rational helpers: integer roots, outward-rounded bounds, dyadic evaluation.

Everything here is exact: results are integers or Fractions with proven
directional rounding, suitable for certification logic.
"""
from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm


def isqrt_ceil(n: int) -> int:
    """Smallest integer >= sqrt(n) for n >= 0."""
    if n < 0:
        raise ValueError("negative operand")
    r = isqrt(n)
    return r if r * r == n else r + 1


def nth_root_floor(n: int, k: int) -> int:
    """Largest integer r with r**k <= n, for n >= 0, k >= 1."""
    if n < 0 or k < 1:
        raise ValueError("need n >= 0 and k >= 1")
    if n == 0:
        return 0
    if k == 1:
        return n
    # integer Newton iteration, monotone decreasing from an upper seed
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def sqrt_bounds(x: Fraction, bits: int) -> tuple[Fraction, Fraction]:
    """(lo, hi) with lo <= sqrt(x) <= hi and hi - lo <= 2**(1-bits)."""
    return nth_root_bounds(x, 2, bits)


def nth_root_bounds(x: Fraction, k: int, bits: int) -> tuple[Fraction, Fraction]:
    """(lo, hi) Fractions with lo <= x**(1/k) <= hi, width <= 2**(1-bits)."""
    if x < 0:
        raise ValueError("negative radicand")
    p, r = x.numerator, x.denominator
    den = r << bits
    # (lo*den)**k <= p * r**(k-1) * 2**(k*bits)  <=>  lo**k <= p/r
    lo_num = nth_root_floor(p * r ** (k - 1) << (k * bits), k)
    lo = Fraction(lo_num, den)
    hi = Fraction(lo_num + 1, den)
    return lo, hi


def dyadic_eval(coeffs: tuple[int, ...], a: int, b: int, k: int) -> tuple[int, int, int]:
    """Evaluate sum(c_j * X**j) exactly at X = (a + b*i) / 2**k.

    Returns (re, im, e) with value = (re + im*i) / 2**e where e = k * degree.
    """
    n = len(coeffs) - 1
    vr, vi = coeffs[n], 0
    for j in range(n - 1, -1, -1):
        vr, vi = vr * a - vi * b + (coeffs[j] << (k * (n - j))), vr * b + vi * a
    return vr, vi, k * n


def dyadic_abs_bounds(re: int, im: int, e: int) -> tuple[Fraction, Fraction]:
    """(lo, hi) bounds for |(re + im*i) / 2**e|."""
    m2 = re * re + im * im
    den = 1 << e
    return Fraction(isqrt(m2), den), Fraction(isqrt_ceil(m2), den)


def _sign(x):
    """-1, 0 or 1 by the sign of x: an int, or elementwise on a numpy array."""
    return 1 * (x > 0) - (x < 0)


def _scaled_value(coeffs, num: int, den: int) -> int:
    """den**n * P(num/den) exactly; for den > 0 its sign is that of P(num/den).
    The one sign probe at a rational point: each coefficient may be an int or
    a numpy array of them, one row each, and the value is then a column."""
    v = coeffs[-1]
    dk = 1
    for c in reversed(coeffs[:-1]):
        dk *= den
        v = v * num + c * dk
    return v


def _common_numerators(lo: Fraction, hi: Fraction) -> tuple[int, int, int]:
    """(a, b, d) with lo = a/d and hi = b/d, d the lcm of their denominators."""
    d = lcm(lo.denominator, hi.denominator)
    return lo.numerator * (d // lo.denominator), hi.numerator * (d // hi.denominator), d


def sign_at(coeffs, x: Fraction) -> int:
    """Exact sign of sum(c_j * X**j) at the rational X = x."""
    return _sign(_scaled_value(coeffs, x.numerator, x.denominator))


def bisect_root_dyadic(
    coeffs: tuple[int, ...], lo: Fraction, hi: Fraction, bits: int
) -> tuple[Fraction, Fraction]:
    """Shrink a sign-change bracket [lo, hi] to width <= 2**-bits by bisection.

    Requires P(lo) and P(hi) to have strict opposite signs. The bracket is
    held as L/den and H/den over one common denominator, so each halving
    is integer work and only the returned pair is built as Fractions.
    """
    slo, shi = sign_at(coeffs, lo), sign_at(coeffs, hi)
    if slo == 0 or shi == 0 or slo == shi:
        raise ValueError("bracket endpoints must have strict opposite signs")
    L, H, den = _common_numerators(lo, hi)
    while (H - L) << bits > den:
        M = L + H  # the midpoint is M / (2 * den)
        den <<= 1
        vm = _scaled_value(coeffs, M, den)
        if vm == 0:
            # mid -+ (hi - lo)/4, over the denominator 2 * den
            return Fraction(2 * M - H + L, den << 1), Fraction(2 * M + H - L, den << 1)
        if _sign(vm) == slo:
            L, H = M, H << 1
        else:
            L, H = L << 1, M
    return Fraction(L, den), Fraction(H, den)


def frac_to_decimal(x: Fraction, digits: int, round_up: bool) -> str:
    """Decimal string of x with `digits` fractional digits, rounded outward."""
    sign = "-" if x < 0 else ""
    mag = -x if x < 0 else x
    scaled = mag * 10**digits
    q, r = divmod(scaled.numerator, scaled.denominator)
    # outward rounding: away from zero iff (round_up and x>=0) or (not round_up and x<0)
    away = round_up ^ (x < 0)
    if r and away:
        q += 1
    text = str(q).rjust(digits + 1, "0")
    return f"{sign}{text[:-digits]}.{text[-digits:]}" if digits else f"{sign}{text}"
