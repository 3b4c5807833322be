"""Root isolation for any degree, kept as a test oracle.

The route that the exact Newton steps, and then the closed forms of
rootcert.isolate_roots, replaced: eigenvalue seeds after two hardware Newton
steps, four mpmath Newton steps per later rung, mpmath.polyroots for missing
or coinciding seeds, and a certify stage of its own at the same scale 2**-k.
That stage takes every root, real ones included: it matches the disks that
meet the real axis with the Sturm count and tests every pair of disks for
overlap, where rootcert proves only the accepted cubic's pair off the axis.
"""

from fractions import Fraction
from math import isqrt

import mpmath
import numpy as np

import spectorus.rootcert as rootcert
from spectorus.exactnum import dyadic_eval, isqrt_ceil


def real_interval(e):
    """[center - radius, center + radius] of a real-certified enclosure."""
    assert e.is_real_certified
    c = Fraction(e.a, 1 << e.k)
    return c - e.radius, c + e.radius


def sturm_real_count(P):
    """The number of real roots of a squarefree P, from its Sturm chain."""
    chain = rootcert.sturm_chain(P.coeffs)
    return rootcert.variations_at_infinity(chain, positive=False) - (
        rootcert.variations_at_infinity(chain, positive=True)
    )


def _oracle_float_seeds(coeffs):
    try:
        column = [-float(c) for c in coeffs[:-1]]
        der = [float(j * c) for j, c in enumerate(coeffs)][1:]
    except OverflowError:
        return None
    n = len(coeffs) - 1
    companion = np.zeros((n, n))
    companion.reshape(-1)[n :: n + 1] = 1.0
    companion[:, -1] = column
    roots = np.linalg.eigvals(companion).tolist()
    if not np.isfinite(roots).all():
        return None

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
    return out if np.isfinite(out).all() else None


def _oracle_mpmath_polish(coeffs, seeds, prec):
    der_desc = [j * c for j, c in enumerate(coeffs)][:0:-1]
    desc = list(reversed(coeffs))
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


def _oracle_polyroots_seeds(coeffs, prec):
    extra = (1 + max(abs(c) for c in coeffs)).bit_length() + 20
    with mpmath.workprec(prec + 20):
        try:
            roots = mpmath.polyroots(
                list(reversed(coeffs)), maxsteps=200, cleanup=False, extraprec=extra
            )
        except mpmath.libmp.NoConvergence:
            return None
        return [(mpmath.re(z), mpmath.im(z)) for z in roots]


def _oracle_dyadic_center(value, k):
    if isinstance(value, float):
        return round(Fraction(value) * (1 << k))
    sign, man, exp, _ = value._mpf_
    return round(Fraction(-man if sign else man) * Fraction(2) ** exp * (1 << k))


def oracle_certify_stage(coeffs, centers, k, target, total_real):
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


def oracle_isolate(P, target, real_count, ceiling=rootcert.DEFAULT_PRECISION_CEILING):
    """Certified enclosures of the roots of monic P, any degree, or None past the ceiling."""
    coeffs = P.coeffs
    centers, prev_k = [], None
    for prec in rootcert._precision_ladder(ceiling):
        k = prec + 8
        seeds = _oracle_float_seeds(coeffs) if prec == rootcert.MIN_PRECISION_BITS else None
        if seeds is not None:
            centers = [
                (_oracle_dyadic_center(z.real, k), _oracle_dyadic_center(z.imag, k))
                for z in seeds
            ]
        else:
            seeds_m = None
            if len(set(centers)) < P.degree:
                seeds_m = _oracle_polyroots_seeds(coeffs, prec)
            if seeds_m is None:
                if not centers:
                    continue
                with mpmath.workprec(prec + 20):
                    den = mpmath.mpf(1 << prev_k)
                    seeds_m = [(mpmath.mpf(a) / den, mpmath.mpf(b) / den) for a, b in centers]
            polished = _oracle_mpmath_polish(coeffs, seeds_m, prec)
            centers = [
                (_oracle_dyadic_center(z.real, k), _oracle_dyadic_center(z.imag, k))
                for z in polished
            ]
        certified = oracle_certify_stage(coeffs, centers, k, target, real_count)
        if certified is not None:
            return certified
        prev_k = k
    return None
