"""Exact integer/rational helpers: integer roots, outward-rounded bounds, dyadic evaluation.

Everything here is exact: results are integers or Fractions with proven
directional rounding, suitable for certification logic.
"""
from __future__ import annotations

from fractions import Fraction
from math import isqrt


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


def sign_at(coeffs, x: Fraction) -> int:
    """Exact sign of sum(c_j * X**j) at the rational X = x."""
    num, den = x.numerator, x.denominator
    n = len(coeffs) - 1
    v = coeffs[n]
    for j in range(n - 1, -1, -1):
        v = v * num + coeffs[j] * den ** (n - j)
    return (v > 0) - (v < 0)


def interval_eval(coeffs, lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
    """Interval Horner evaluation of the polynomial over [lo, hi]."""
    vlo = vhi = Fraction(coeffs[-1])
    for c in reversed(coeffs[:-1]):
        ps = (vlo * lo, vlo * hi, vhi * lo, vhi * hi)
        vlo, vhi = min(ps) + c, max(ps) + c
    return vlo, vhi


def bisect_root_dyadic(
    coeffs: tuple[int, ...], lo: Fraction, hi: Fraction, bits: int
) -> tuple[Fraction, Fraction]:
    """Shrink a sign-change bracket [lo, hi] to width <= 2**-bits by bisection.

    Requires P(lo) and P(hi) to have strict opposite signs.
    """
    slo, shi = sign_at(coeffs, lo), sign_at(coeffs, hi)
    if slo == 0 or shi == 0 or slo == shi:
        raise ValueError("bracket endpoints must have strict opposite signs")
    width_target = Fraction(1, 1 << bits)
    while hi - lo > width_target:
        mid = (lo + hi) / 2
        sm = sign_at(coeffs, mid)
        if sm == 0:
            eps = (hi - lo) / 4
            return mid - eps, mid + eps
        if sm == slo:
            lo = mid
        else:
            hi = mid
    return lo, hi


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
