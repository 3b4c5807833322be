"""Numeric verification of the Kähler potential F = |z|^2 + 1/(y_1...y_s).

The potential lives on C x H^s with coordinates z and z_k = x_k + i*y_k,
y_k > 0. Closed forms verified here against Wirtinger finite differences:

  first derivatives   d_j u = -u / (z_j - conj(z_j))
  metric              h_jk = (u/4) (1 + delta_jk) / (y_j y_k)
  determinant         det h = (s+1) u^(s+2) / 4^s
  Ricci               R_jk = -((s+2)/4) delta_jk / (y_j y_k)

The Ricci closed form follows from R = -d d-bar ln det h with
ln det h = const + (s+2) ln u and ln u = -sum ln y_k: a sum of
single-variable terms, so all mixed second derivatives vanish and the
matrix is diagonal. Its entries are strictly negative, which is the
negative-definiteness mechanism the metric's irreducible factor relies on.

Finite-difference steps are relative per coordinate. Second-derivative
checks (tolerance 1e-6) default to 1e-4 * scale, where truncation O(h^2)
and rounding noise O(eps/h^2) balance near 1e-7. First-derivative checks
(tolerance 1e-8) default to 1e-5 * scale, since gradient noise only grows
like O(eps/h).

Each gradient or hessian lists the distinct points of its stencil once, as an
(m, s+1) complex array (column 0 is z), and evaluates the potential on whole
arrays of at most STENCIL_CHUNK points. The values are combined as Python
floats in the order of the point-by-point formula, so every entry equals, bit
for bit, what one potential call per stencil point would give.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .intpoly import _bareiss_det

GRAD_STEP_REL = 1e-5
HESS_STEP_REL = 1e-4
# Most points one call of a potential receives. The s <= 3 hessian (129 points)
# is one call; ln det h holds an (s, s) matrix per point, so a larger s is
# split, where s = 64 in one call would allocate about 2 GB.
STENCIL_CHUNK = 256


@dataclass(frozen=True)
class HyperPoint:
    """A point of C x H^s: z in the plane factor, zs on the upper half-planes."""

    z: complex
    zs: tuple[complex, ...]

    def __post_init__(self):
        object.__setattr__(self, "z", complex(self.z))
        object.__setattr__(self, "zs", tuple(complex(w) for w in self.zs))
        if any(w.imag <= 0 for w in self.zs):
            raise ValueError("all half-plane coordinates need positive imaginary part")

    @property
    def s(self) -> int:
        return len(self.zs)

    @property
    def ys(self) -> tuple[float, ...]:
        return tuple(w.imag for w in self.zs)

    def coords(self) -> tuple[complex, ...]:
        return (self.z,) + self.zs

    def replace_coord(self, idx: int, value: complex) -> "HyperPoint":
        if idx == 0:
            return HyperPoint(value, self.zs)
        zs = list(self.zs)
        zs[idx - 1] = value
        return HyperPoint(self.z, tuple(zs))


def _row(point: HyperPoint) -> np.ndarray:
    """The point as a one-row coordinate array, the input shape of the potentials."""
    return np.array([point.coords()])


def _u(coords: np.ndarray) -> np.ndarray:
    """u = 1/(y_1...y_s) of every row; the product runs left to right like math.prod."""
    prod = np.ones(len(coords))
    for k in range(1, coords.shape[1]):
        prod = prod * coords[:, k].imag
    return 1.0 / prod


def _F(coords: np.ndarray) -> np.ndarray:
    # hypot is what abs(complex) computes, where np.abs can differ by an ulp;
    # the square goes through pow like abs(z) ** 2, because glibc's pow(x, 2)
    # and x * x differ in the last bit for about one x in a thousand
    z = coords[:, 0]
    return np.array([a**2 for a in np.hypot(z.real, z.imag).tolist()]) + _u(coords)


def _metric(coords: np.ndarray) -> np.ndarray:
    """h_jk = (u/4)(1 + delta_jk)/(y_j y_k) of every row, checked positive definite."""
    ys = coords[:, 1:].imag
    u = _u(coords)
    h = ((u / 4)[:, None, None] * (1 + np.eye(ys.shape[1]))) / (ys[:, :, None] * ys[:, None, :])
    h = h.astype(complex)
    if np.any(np.min(np.linalg.eigvalsh(h), axis=-1) <= 0):
        raise ArithmeticError("closed-form metric not positive definite")
    return h


# math.log, not np.log: the two differ in the last bit on some CPUs, and the
# stencil's 1/h^2 would carry that into the reported deviations
def _log_det_h(coords: np.ndarray) -> np.ndarray:
    return np.array([math.log(d) for d in np.linalg.det(_metric(coords)).real.tolist()])


def _log_u(coords: np.ndarray) -> np.ndarray:
    return np.array([math.log(u) for u in _u(coords).tolist()])


def u_value(point: HyperPoint) -> float:
    return float(_u(_row(point))[0])


def F_value(point: HyperPoint) -> float:
    return float(_F(_row(point))[0])


def _coord_scales(point: HyperPoint) -> list[float]:
    return [max(1.0, abs(point.z))] + [w.imag for w in point.zs]


def _check_step(step_rel: float) -> None:
    """Every stencil point stays in C x H^s: y +- step_rel * y > 0."""
    if not 0 < step_rel < 1:
        raise ValueError(f"step_rel must be finite with 0 < step_rel < 1, got {step_rel}")


def _stencil(n: int, terms_of) -> tuple[np.ndarray, tuple]:
    """(offsets, terms) of one difference formula on n coordinates.

    terms_of(row) lists, per output entry, the rows its differences combine;
    row(*moves) numbers each distinct point once, a move being (coordinate,
    0 real or 1 imaginary, sign). offsets[0] and offsets[1] hold every row's
    real and imaginary displacement in steps of each coordinate.
    """
    index: dict[tuple, int] = {}

    def row(*moves: tuple[int, int, int]) -> int:
        return index.setdefault(tuple(sorted(moves)), len(index))

    terms = tuple(terms_of(row))
    offsets = np.zeros((2, len(index), n))
    for moves, i in index.items():
        for coord, direction, sign in moves:
            offsets[direction, i, coord] = sign
    offsets.flags.writeable = False
    return offsets, terms


@lru_cache(maxsize=16)
def _gradient_stencil(n: int) -> tuple[np.ndarray, tuple]:
    """Per coordinate j: the rows at +-h_j and +-i h_j."""
    return _stencil(
        n,
        lambda row: [
            (row((j, 0, 1)), row((j, 0, -1)), row((j, 1, 1)), row((j, 1, -1)))
            for j in range(n)
        ],
    )


@lru_cache(maxsize=16)
def _hessian_stencil(n: int) -> tuple[np.ndarray, tuple]:
    """Per entry (j, k): the rows of its xx, xy, yx and yy second differences.

    A second difference along one direction twice is (plus, center, minus);
    any other is (pp, pm, mp, mm), the first sign being coordinate j's.
    Entries (j, k) and (k, j) share their points but are combined
    separately, since the subtraction order and 4 h_j h_k would differ.
    """

    def terms(row):
        for j in range(n):
            for k in range(n):
                diffs = []
                for dj, dk in ((0, 0), (0, 1), (1, 0), (1, 1)):
                    if j == k and dj == dk:
                        diffs.append((row((j, dj, 1)), row(), row((j, dj, -1))))
                    else:
                        diffs.append(tuple(
                            row((j, dj, a), (k, dk, b))
                            for a, b in ((1, 1), (1, -1), (-1, 1), (-1, -1))
                        ))
                yield j, k, tuple(diffs)

    return _stencil(n, terms)


def _evaluate(
    f: Callable[[np.ndarray], np.ndarray], point: HyperPoint, offsets: np.ndarray, step_rel: float
) -> tuple[list[float], list[float]]:
    """Per-coordinate steps, and f at every stencil point in chunks of STENCIL_CHUNK rows."""
    _check_step(step_rel)
    hs = [step_rel * scale for scale in _coord_scales(point)]
    h = np.array(hs)
    base = np.array(point.coords())
    # a coordinate moves at most once along each axis, and adding 0.0 changes
    # no value: these are the bits of the scalar c + h_j*d_j (+ h_k*d_k)
    pts = np.empty(offsets.shape[1:], dtype=complex)
    pts.real = base.real + offsets[0] * h
    pts.imag = base.imag + offsets[1] * h
    values: list[float] = []
    for i in range(0, len(pts), STENCIL_CHUNK):
        values += np.asarray(f(pts[i : i + STENCIL_CHUNK]), dtype=float).tolist()
    return hs, values


def wirtinger_gradient(
    f: Callable[[np.ndarray], np.ndarray], point: HyperPoint, step_rel: float = GRAD_STEP_REL
) -> np.ndarray:
    """d f / d z_j = (1/2)(d_x - i d_y) f by central differences, all coords.

    f maps an (m, s+1) complex array of points, column 0 being z, to their m
    real values.
    """
    offsets, terms = _gradient_stencil(point.s + 1)
    hs, v = _evaluate(f, point, offsets, step_rel)
    out = np.zeros(len(hs), dtype=complex)
    for j, (xp, xm, yp, ym) in enumerate(terms):
        h = hs[j]
        fx = (v[xp] - v[xm]) / (2 * h)
        fy = (v[yp] - v[ym]) / (2 * h)
        out[j] = (fx - 1j * fy) / 2
    return out


def _difference(v: list[float], rows: tuple[int, ...], hj: float, hk: float) -> float:
    """One second difference from the values of its stencil rows."""
    if len(rows) == 3:
        plus, center, minus = rows
        return (v[plus] - 2 * v[center] + v[minus]) / (hj * hj)
    pp, pm, mp, mm = rows
    return (v[pp] - v[pm] - v[mp] + v[mm]) / (4 * hj * hk)


def wirtinger_hessian(
    f: Callable[[np.ndarray], np.ndarray], point: HyperPoint, step_rel: float = HESS_STEP_REL
) -> np.ndarray:
    """Mixed complex hessian d_j d_kbar f over all coordinates.

    d_j d_kbar = (1/4)(dx_j dx_k + i dx_j dy_k - i dy_j dx_k + dy_j dy_k).
    f takes an array of points as in wirtinger_gradient.
    """
    offsets, terms = _hessian_stencil(point.s + 1)
    hs, v = _evaluate(f, point, offsets, step_rel)
    out = np.zeros((len(hs), len(hs)), dtype=complex)
    for j, k, diffs in terms:
        xx, xy, yx, yy = (_difference(v, rows, hs[j], hs[k]) for rows in diffs)
        out[j, k] = (xx + 1j * xy - 1j * yx + yy) / 4
    return out


def first_derivative_closed_form(point: HyperPoint) -> np.ndarray:
    """d_j u = -u/(z_j - conj z_j) on the half-plane coords, 0 on the flat one."""
    u = u_value(point)
    out = np.zeros(point.s + 1, dtype=complex)
    for j, w in enumerate(point.zs, start=1):
        out[j] = -u / (w - w.conjugate())
    return out


def _worst(acc: float, dev: float) -> float:
    """max(acc, dev), except that a NaN on either side is kept, so its gate fails."""
    return dev if dev != dev or dev > acc else acc


def check_first_derivatives(point: HyperPoint, step_rel: float = GRAD_STEP_REL) -> float:
    """Max deviation of the finite-difference du and dbar-u from closed forms."""
    grad = wirtinger_gradient(_u, point, step_rel)
    closed = first_derivative_closed_form(point)
    dev = float(np.max(np.abs(grad - closed)))
    # dbar_j u = +u/(z_j - zbar_j); the FD dbar is conj(grad) since u is real
    return _worst(dev, float(np.max(np.abs(np.conj(grad) - (-closed)))))


def metric_closed_form(point: HyperPoint) -> np.ndarray:
    """h_jk = (u/4)(1 + delta_jk)/(y_j y_k) on the half-plane block."""
    return _metric(_row(point))[0]


def check_metric(point: HyperPoint, step_rel: float = HESS_STEP_REL) -> float:
    """Max deviation of the u-hessian from the closed-form metric block."""
    hess = wirtinger_hessian(_u, point, step_rel)
    closed = metric_closed_form(point)
    return float(np.max(np.abs(hess[1:, 1:] - closed)))


def check_flat_factor(point: HyperPoint, step_rel: float = HESS_STEP_REL) -> float:
    """Product structure of F: flat entry exactly 1, mixed entries 0."""
    hess = wirtinger_hessian(_F, point, step_rel)
    dev = float(abs(hess[0, 0] - 1))
    if point.s:
        mixed = np.concatenate([hess[0, 1:], hess[1:, 0]])
        dev = _worst(dev, float(np.max(np.abs(mixed))))
    return dev


def determinant_closed_form(point: HyperPoint) -> float:
    s = point.s
    return (s + 1) * u_value(point) ** (s + 2) / 4**s


def check_determinant(point: HyperPoint) -> float:
    """Relative deviation between det(closed-form h) and (s+1)u^(s+2)/4^s."""
    det = np.linalg.det(metric_closed_form(point)).real
    ref = determinant_closed_form(point)
    return abs(det - ref) / abs(ref)


def exact_determinant_identity(ys: Sequence[Fraction]) -> bool:
    """det h == (s+1) u^(s+2) / 4^s in exact rational arithmetic."""
    s = len(ys)
    if s < 1:
        raise ValueError("exact path needs s >= 1")
    ys = [Fraction(y) for y in ys]
    if any(y <= 0 for y in ys):
        raise ValueError("ys must be positive")
    u = Fraction(1)
    for y in ys:
        u /= y
    h = [
        [u / 4 * (1 + (j == k)) / (ys[j] * ys[k]) for k in range(s)]
        for j in range(s)
    ]
    # det(D*h) = D**s * det(h) for the common denominator D of the entries
    D = math.lcm(*(x.denominator for row in h for x in row))
    scaled = [[x.numerator * (D // x.denominator) for x in row] for row in h]
    return Fraction(_bareiss_det(scaled), D**s) == (s + 1) * u ** (s + 2) / Fraction(4) ** s


def scaling_law_exact(ys: Sequence[Fraction], c: Fraction) -> bool:
    """u(c*y) = c^-s u(y) and h(c*y) = c^-(s+2) h(y), exactly on rationals."""
    s = len(ys)
    ys = [Fraction(y) for y in ys]
    c = Fraction(c)
    if c <= 0 or any(y <= 0 for y in ys):
        raise ValueError("scaling law needs positive inputs")
    u = Fraction(1)
    uc = Fraction(1)
    for y in ys:
        u /= y
        uc /= c * y
    if uc != u / c**s:
        return False
    for j in range(s):
        for k in range(s):
            h = u / 4 * (1 + (j == k)) / (ys[j] * ys[k])
            hc = uc / 4 * (1 + (j == k)) / (c * ys[j] * c * ys[k])
            if hc != h / c ** (s + 2):
                return False
    return True


def ricci_closed_form(point: HyperPoint) -> np.ndarray:
    """R_jk = -((s+2)/4) delta_jk / (y_j y_k): diagonal and negative."""
    s = point.s
    ys = point.ys
    R = np.zeros((s, s), dtype=complex)
    for j in range(s):
        R[j, j] = -(s + 2) / (4 * ys[j] * ys[j])
    return R


def check_ricci(point: HyperPoint, step_rel: float = HESS_STEP_REL) -> tuple[float, bool]:
    """(max deviation of -dd-bar ln det h from the closed form, negative definite?)."""
    fd = -wirtinger_hessian(_log_det_h, point, step_rel)[1:, 1:]
    closed = ricci_closed_form(point)
    dev = float(np.max(np.abs(fd - closed)))
    neg_def = bool(np.max(np.linalg.eigvalsh((closed + closed.conj().T) / 2)) < 0)
    return dev, neg_def


def check_ricci_u_route(point: HyperPoint, step_rel: float = HESS_STEP_REL) -> float:
    """Consistency: R must also equal -(s+2) * dd-bar ln u."""
    fd = -(point.s + 2) * wirtinger_hessian(_log_u, point, step_rel)[1:, 1:]
    return float(np.max(np.abs(fd - ricci_closed_form(point))))


def _random_point(rng: np.random.Generator, s: int, y_lo: float, y_hi: float) -> HyperPoint:
    z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    zs = tuple(
        complex(rng.uniform(-1, 1), math.exp(rng.uniform(math.log(y_lo), math.log(y_hi))))
        for _ in range(s)
    )
    return HyperPoint(z, zs)


def verify_ot_report(
    s: int,
    samples: int = 100,
    seed: int = 0,
    step_rel: float = HESS_STEP_REL,
) -> dict:
    """Full verification sweep for one s; deterministic for a fixed seed.

    Finite-difference comparisons sample y in [0.7, 2.0], where the absolute
    tolerances correspond to >= 4x margin over the O(h^2) truncation
    estimates; definiteness of the closed forms is additionally checked on
    the wide domain y in [0.1, 10].
    """
    if s < 1:
        raise ValueError("s must be >= 1")
    _check_step(step_rel)
    rng = np.random.default_rng(seed)
    dev_eq1 = dev_eq2 = dev_det = dev_ricci = dev_flat = dev_uroute = 0.0
    dev_herm = 0.0
    h_pos = r_neg = True
    for _ in range(samples):
        p = _random_point(rng, s, 0.7, 2.0)
        dev_eq1 = _worst(dev_eq1, check_first_derivatives(p))
        dev_eq2 = _worst(dev_eq2, check_metric(p, step_rel))
        dev_det = _worst(dev_det, check_determinant(p))
        rdev, rneg = check_ricci(p, step_rel)
        dev_ricci = _worst(dev_ricci, rdev)
        r_neg &= rneg
        dev_uroute = _worst(dev_uroute, check_ricci_u_route(p, step_rel))
        dev_flat = _worst(dev_flat, check_flat_factor(p, step_rel))
        h = metric_closed_form(p)
        dev_herm = _worst(dev_herm, float(np.max(np.abs(h - h.conj().T))))
        h_pos &= bool(np.min(np.linalg.eigvalsh(h)) > 0)
    # wide-domain definiteness on the closed forms only (no differencing)
    for _ in range(samples):
        p = _random_point(rng, s, 0.1, 10.0)
        h_pos &= bool(np.min(np.linalg.eigvalsh(metric_closed_form(p))) > 0)
        R = ricci_closed_form(p)
        r_neg &= bool(np.max(np.linalg.eigvalsh((R + R.conj().T) / 2)) < 0)
    exact_det = all(
        exact_determinant_identity(ys)
        for ys in _rational_tuples(s)
    )
    exact_scaling = all(
        scaling_law_exact(ys, c)
        for ys in _rational_tuples(s)
        for c in (Fraction(2), Fraction(3, 7), Fraction(12, 5))
    )
    return {
        "s": s,
        "samples": samples,
        "seed": seed,
        "step_rel_hessian": step_rel,
        "step_rel_gradient": GRAD_STEP_REL,
        "max_dev_first_derivatives": dev_eq1,
        "max_dev_metric": dev_eq2,
        "max_rel_dev_determinant": dev_det,
        "max_dev_ricci": dev_ricci,
        "max_dev_ricci_u_route": dev_uroute,
        "max_dev_flat_factor": dev_flat,
        "max_hermitian_deviation": dev_herm,
        "metric_positive_definite": bool(h_pos),
        "ricci_negative_definite": bool(r_neg),
        "exact_determinant_identity": bool(exact_det),
        "exact_scaling_law": bool(exact_scaling),
        "passes": {
            "eq1_1e-8": bool(dev_eq1 <= 1e-8),
            "eq2_1e-6": bool(dev_eq2 <= 1e-6),
            "det_1e-10": bool(dev_det <= 1e-10),
            "ricci_1e-6": bool(dev_ricci <= 1e-6),
            "ricci_u_route_1e-6": bool(dev_uroute <= 1e-6),
            "flat_factor_1e-6": bool(dev_flat <= 1e-6),
            "definiteness": bool(h_pos and r_neg),
            "exact_identities": bool(exact_det and exact_scaling),
        },
    }


def _rational_tuples(s: int) -> list[tuple[Fraction, ...]]:
    base = [Fraction(1), Fraction(1, 2), Fraction(7, 3), Fraction(5, 4)]
    out = []
    for i in range(3):
        out.append(tuple(base[(i + k) % len(base)] for k in range(s)))
    return out
