"""Mapping-torus geometry for an accepted polynomial.

From an accepted classification this module builds the companion matrix A and
its invariant splitting into the expanding line and its complement. Each
direction is read off a certified root, as P(X)/(X - c) at the dyadic center c
of its enclosure, so no eigensolver runs. In that frame lam*A_s is a rotation,
the invariant form b is the identity, and the frame matrix is exact before it
is rounded once. On the cylinder cover sits the warped metric
diag(1, ..., 1, phi(t), 1). Verification routines confirm the defining
identities numerically: the orthogonality of lam*A_s, the deck map acting as a
homothety of ratio lambda**(-2), and the sectional curvature -q(q+1)/t**2 of
the warped plane.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .intpoly import IntPolynomial, _bareiss_det
from .otkahler import _worst
from .rootcert import RootEnclosure
from .spectra import SpectralProfile, classify


def companion(P: IntPolynomial) -> np.ndarray:
    """Companion matrix in Python ints, with det(X*Id - A) = P and det A = 1."""
    n = P.degree
    if n < 1 or not P.is_monic:
        raise ValueError("companion requires a monic polynomial of degree >= 1")
    if P.coeffs[0] != (-1) ** n:
        raise ValueError("constant term must be (-1)^degree for det A = 1")
    A = np.zeros((n, n), dtype=object)
    for i in range(1, n):
        A[i, i - 1] = 1
    for i in range(n):
        A[i, n - 1] = -P.coeffs[i]
    return A


def charpoly_matches(A: np.ndarray, P: IntPolynomial) -> bool:
    """Exact check det(k*Id - A) == P(k) at degree+2 integer points.

    Two monic polynomials of equal degree agreeing at degree+1 points are
    identical; one extra point is kept for redundancy. All arithmetic is
    integer (fraction-free determinants).
    """
    n = P.degree
    rows = [[int(A[i, j]) for j in range(n)] for i in range(n)]
    for k in range(n + 2):
        M = [[k * (i == j) - rows[i][j] for j in range(n)] for i in range(n)]
        if _bareiss_det(M) != P.evaluate(k):
            return False
    return True


def _canonical_phase(v: np.ndarray) -> np.ndarray:
    """Rotate a complex vector so its largest component is real positive."""
    i = int(np.argmax(np.abs(v)))
    piv = v[i]
    if abs(piv) == 0:
        return v
    out = v * (abs(piv) / piv)
    out[i] = abs(piv)  # real to the last bit, not up to rounding
    return out


def _exact_frame(profile: SpectralProfile) -> list[list[list[Fraction]]]:
    """Blocks of exact frame columns, read off the certified roots.

    Q = P(X)/(X - c), by synthetic division at the dyadic center c of an
    enclosure, satisfies X*Q = c*Q - P(c) modulo P, so its coefficients are an
    eigenvector of the companion up to the residual P(c), which the enclosure
    keeps tiny. The blocks are [Q] per real small root, [Re Q, Im Q] per
    conjugate pair (the member with positive imaginary part), then [Q] for the
    expanding root.
    """
    P = profile.poly
    blocks = []
    for root in [*(r for r in profile.small_roots if r.b >= 0), profile.big_root]:
        c_re, c_im = Fraction(root.a, 1 << root.k), Fraction(root.b, 1 << root.k)
        re, im = Fraction(1), Fraction(0)
        res, ims = [re], [im]
        for p in P.coeffs[-2:0:-1]:
            re, im = p + c_re * re - c_im * im, c_re * im + c_im * re
            res.append(re)
            ims.append(im)
        blocks.append([res[::-1], ims[::-1]] if c_im else [res[::-1]])
    return blocks


def _unit_frame(frame: list[list[list[Fraction]]]) -> tuple[np.ndarray, np.ndarray]:
    """(Eu, Es_basis): each block rounded once, to a unit vector phased by _canonical_phase."""
    cols: list[np.ndarray] = []
    for block in frame:
        im = block[1] if len(block) == 2 else [0] * len(block[0])
        v = np.array([complex(float(x), float(y)) for x, y in zip(block[0], im)])
        v = _canonical_phase(v / np.linalg.norm(v))
        cols += [v.real, v.imag][: len(block)]
    return cols[-1], np.column_stack(cols[:-1])


def split(profile: SpectralProfile) -> tuple[np.ndarray, np.ndarray]:
    """Invariant splitting of the companion of profile.poly, from its roots.

    Returns (Eu, Es_basis) with Eu the unit eigenvector of the expanding root
    and Es_basis an n x q matrix whose columns are, per real small root, its
    unit eigenvector and, per conjugate pair, the real and imaginary parts of
    the unit eigenvector of the member with positive imaginary part.
    """
    if not profile.accepted:
        raise ValueError("split requires an accepted profile")
    return _unit_frame(_exact_frame(profile))


def _frame_matrix(A: np.ndarray, cols: list[list[Fraction]]) -> np.ndarray:
    """F^-1 A F for the exact frame columns F, rounded once.

    Scaling the columns by a common denominator D leaves F^-1 A F unchanged,
    so Cramer's rule gives each entry as a ratio of integer determinants, and
    int / int rounds that ratio correctly.
    """
    n = len(cols)
    D = math.lcm(*(x.denominator for col in cols for x in col))
    F = [[col[i].numerator * (D // col[i].denominator) for col in cols] for i in range(n)]
    AF = (A @ np.array(F, dtype=object)).tolist()
    det = _bareiss_det(F)
    M = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            Fij = [row[:i] + [AF[r][j]] + row[i + 1 :] for r, row in enumerate(F)]
            M[i, j] = _bareiss_det(Fij) / det
    return M


def _invariance_residual(A: np.ndarray, Eu: np.ndarray, big: RootEnclosure) -> float:
    """Norm of A*Eu - c*Eu at the dyadic center c of the expanding root.

    Each component is exact before it is rounded once, so the residual
    measures Eu and not the rounding of products with large entries of A.
    """
    c = Fraction(big.a, 1 << big.k)
    u = np.array([Fraction(x) for x in Eu.tolist()], dtype=object)
    return float(np.linalg.norm((A @ u - c * u).astype(float)))


@dataclass(frozen=True)
class SplittingCertificate:
    """Companion matrix with its invariant splitting and orthogonality form.

    M = F^-1 A F, rounded once, for the exact frame F whose columns, scaled to
    unit vectors and rounded, are [Es_basis | Eu]. The scaling commutes with
    M's diagonal blocks, A_s and the expanding root, and multiplies the
    off-diagonal ones, which vanish with the residuals P(c). M is the
    Jacobian of the deck map and is not serialised.
    """

    A: np.ndarray
    lam: float
    Eu: np.ndarray
    Es_basis: np.ndarray
    b: np.ndarray
    M: np.ndarray
    residual_orthogonality: float
    residual_invariance: float

    @property
    def q(self) -> int:
        return self.A.shape[0] - 1

    def to_json(self) -> dict:
        fmt = lambda x: float(f"{x:.17g}")
        mat = lambda M: [[fmt(v) for v in row] for row in np.atleast_2d(M)]
        return {
            "A": [[int(v) for v in row] for row in self.A],
            "lambda": fmt(self.lam),
            "Eu": [fmt(v) for v in self.Eu],
            "Es_basis": mat(self.Es_basis),
            "b": mat(self.b),
            "residual_orthogonality": fmt(self.residual_orthogonality),
            "residual_invariance": fmt(self.residual_invariance),
        }


@dataclass(frozen=True)
class MappingTorusModel:
    """Warped metric data on the cylinder cover, chart (x_1..x_{q+1}, t > 0).

    phi defaults to the monomial t**(2q+2), the unique scale-covariant choice
    satisfying phi(lam*t) = lam**(2q+2) * phi(t). A custom phi may be supplied
    as (phi, dphi, d2phi).
    """

    cert: SplittingCertificate
    q: int
    phi_exponent: int
    phi: tuple[Callable, Callable, Callable] | None = None

    def phi_at(self, t: float) -> float:
        if self.phi is not None:
            return self.phi[0](t)
        return t**self.phi_exponent

    def phi_derivatives(self, t: float) -> tuple[float, float]:
        if self.phi is not None:
            return self.phi[1](t), self.phi[2](t)
        e = self.phi_exponent
        return e * t ** (e - 1), e * (e - 1) * t ** (e - 2)


def build_certificate(
    P: IntPolynomial, profile: SpectralProfile | None = None
) -> SplittingCertificate:
    """Full pipeline: classify, companion, the frame from the roots, F^-1 A F.

    The residuals are gates: lam*A_s must be orthogonal within 1e-10 and Eu
    an eigenvector within 1e-8, or ArithmeticError is raised, as it is when
    lambda**(2q+2) leaves the float range.
    """
    if profile is None:
        profile = classify(P)
    elif profile.poly != P:
        raise ValueError("profile does not match the polynomial")
    if not profile.accepted:
        raise ValueError(f"polynomial not accepted: {profile.reason}")
    q = profile.q
    lam = profile.lambda_float
    # the deck map scales phi(t) = t**(2q+2) by lam**-(2q+2); frame entries reach lam**q
    if (2 * q + 2) * math.log2(lam) > 1000:
        raise ArithmeticError(f"lambda**{2 * q + 2} leaves the float range")
    A = companion(P)
    if not charpoly_matches(A, P):
        raise AssertionError("companion characteristic polynomial mismatch")
    frame = _exact_frame(profile)
    Eu, Es = _unit_frame(frame)
    M = _frame_matrix(A, [col for block in frame for col in block])
    b = np.eye(q)
    S = lam * M[:q, :q]
    res_orth = float(np.linalg.norm(S.T @ b @ S - b))
    if res_orth > 1e-10:
        raise ArithmeticError(f"lam*A_s is not a rotation: residual {res_orth:g}")
    res_inv = _invariance_residual(A, Eu, profile.big_root)
    if res_inv > 1e-8:
        raise ArithmeticError(f"expanding eigenvector residual too large: {res_inv:g}")
    return SplittingCertificate(
        A=A,
        lam=lam,
        Eu=Eu,
        Es_basis=Es,
        b=b,
        M=M,
        residual_orthogonality=res_orth,
        residual_invariance=res_inv,
    )


def build_model(
    P: IntPolynomial,
    profile: SpectralProfile | None = None,
    phi: tuple[Callable, Callable, Callable] | None = None,
) -> MappingTorusModel:
    cert = build_certificate(P, profile)
    q = cert.q
    return MappingTorusModel(cert=cert, q=q, phi_exponent=2 * q + 2, phi=phi)


def metric_at(model: MappingTorusModel, point) -> np.ndarray:
    """Metric matrix diag(1, ..., 1, phi(t), 1) at a chart point (x, t)."""
    t = float(np.asarray(point, dtype=float).reshape(-1)[-1])
    if t <= 0:
        raise ValueError("metric requires t > 0")
    n = model.q + 2
    g = np.eye(n)
    g[n - 2, n - 2] = model.phi_at(t)
    return g


def deck_pullback_check(
    model: MappingTorusModel, sample_points, use_identity: bool = False
) -> float:
    """Max relative deviation of the deck pullback from lambda**(-2) * g.

    In the frame [Es_basis | Eu] the deck map (x, t) -> (Mx, t/lam) has the
    constant Jacobian diag(M, 1/lam), with M the certificate's exact frame
    matrix, so no differencing is needed. use_identity swaps in the identity
    map as a non-contracting control (deviation near 1).
    """
    cert = model.cert
    lam = cert.lam
    n = model.q + 2
    J = np.eye(n)
    if not use_identity:
        J[: n - 1, : n - 1] = cert.M
        J[n - 1, n - 1] = 1.0 / lam
    worst = 0.0
    for point in sample_points:
        t = float(np.asarray(point, dtype=float).reshape(-1)[-1])
        target_t = t if use_identity else t / lam
        G_img = metric_at(model, [target_t])
        pulled = J.T @ G_img @ J
        ref = lam**-2 * metric_at(model, [t])
        dev = np.linalg.norm(pulled - ref) / np.linalg.norm(ref)
        worst = _worst(worst, float(dev))
    return worst


def _metric_fn(model: MappingTorusModel) -> Callable[[np.ndarray], np.ndarray]:
    n = model.q + 2

    def g(coords: np.ndarray) -> np.ndarray:
        out = np.eye(n)
        out[n - 2, n - 2] = model.phi_at(coords[-1])
        return out

    return g


def _christoffel(gfun, coords: np.ndarray, h: np.ndarray) -> np.ndarray:
    n = coords.size
    dg = np.zeros((n, n, n))
    for l in range(n):
        cp, cm = coords.copy(), coords.copy()
        cp[l] += h[l]
        cm[l] -= h[l]
        dg[l] = (gfun(cp) - gfun(cm)) / (2 * h[l])
    ginv = np.linalg.inv(gfun(coords))
    gamma = np.zeros((n, n, n))
    for k in range(n):
        for i in range(n):
            for j in range(n):
                s = 0.0
                for l in range(n):
                    s += ginv[k, l] * (dg[i][j, l] + dg[j][i, l] - dg[l][i, j])
                gamma[k, i, j] = s / 2
    return gamma


def sectional_curvatures(
    model: MappingTorusModel, t: float, step_rel: float = 1e-3
) -> dict[tuple[int, int], float]:
    """Finite-difference sectional curvature of every coordinate plane.

    Christoffel symbols come from central differences of the metric, their
    derivatives from central differences of the symbols; the plane curvature
    uses K(i,j) = sum_m g_im R^m_{jij} / (g_ii g_jj - g_ij^2).
    """
    if t <= 0:
        raise ValueError("curvature requires t > 0")
    n = model.q + 2
    coords = np.zeros(n)
    coords[-1] = t
    h = np.full(n, step_rel)
    h[-1] = step_rel * t
    gfun = _metric_fn(model)
    gamma = _christoffel(gfun, coords, h)
    dgamma = np.zeros((n, n, n, n))
    for l in range(n):
        cp, cm = coords.copy(), coords.copy()
        cp[l] += h[l]
        cm[l] -= h[l]
        dgamma[l] = (_christoffel(gfun, cp, h) - _christoffel(gfun, cm, h)) / (2 * h[l])
    g = gfun(coords)
    out: dict[tuple[int, int], float] = {}
    for i in range(n):
        for j in range(i + 1, n):
            # R^m_{jij} = d_i Gamma^m_{jj} - d_j Gamma^m_{ij} + Gamma terms
            num = 0.0
            for m in range(n):
                r = dgamma[i][m, j, j] - dgamma[j][m, i, j]
                for l in range(n):
                    r += gamma[m, i, l] * gamma[l, j, j]
                    r -= gamma[m, j, l] * gamma[l, i, j]
                num += g[i, m] * r
            den = g[i, i] * g[j, j] - g[i, j] ** 2
            out[(i, j)] = num / den
    return out


def curvature_check(
    model: MappingTorusModel, sample_ts, step_rel: float = 1e-3
) -> dict:
    """Flat-block planes vanish; the warped plane matches the closed form.

    The closed form K = -(sqrt(phi))'' / sqrt(phi) evaluates to -q(q+1)/t**2
    for the monomial phi and is recomputed from the supplied derivatives for
    a custom phi.
    """
    q = model.q
    n = q + 2
    warped = (n - 2, n - 1)  # the (x_{q+1}, t) plane
    max_flat = 0.0
    rows = []
    max_rel = 0.0
    for t in sample_ts:
        t = float(t)
        K = sectional_curvatures(model, t, step_rel)
        for (i, j), val in K.items():
            if (i, j) == warped or n - 2 in (i, j):
                continue
            max_flat = _worst(max_flat, abs(val))
        phi = model.phi_at(t)
        dphi, d2phi = model.phi_derivatives(t)
        K_closed = -(d2phi / (2 * phi) - dphi**2 / (4 * phi**2))
        K_fd = float(K[warped])
        rel = abs(K_fd - K_closed) / max(abs(K_closed), 1e-30)
        if K_closed == 0:
            rel = abs(K_fd)
        max_rel = _worst(max_rel, float(rel))
        rows.append(
            {
                "t": t,
                "K_fd": K_fd,
                "K_closed": float(K_closed),
                "rel_error": float(rel),
            }
        )
    return {
        "planes": rows,
        "max_flat_abs": float(max_flat),
        "max_warped_rel_error": float(max_rel),
        "closed_form": f"-{q}*{q + 1}/t^2" if model.phi is None else "custom phi",
    }


def phi_scaling_identity_exact(q: int, lam: Fraction, t: Fraction) -> bool:
    """phi(lam*t) == lam**(2q+2) * phi(t) exactly for the monomial phi.

    The identity holds for every scalar, so checking it on exact rationals
    is a faithful test of the exponent arithmetic.
    """
    e = 2 * q + 2
    return (lam * t) ** e == lam**e * t**e


def verify_torus_report(
    P: IntPolynomial,
    samples: int = 100,
    seed: int = 0,
    step_rel: float = 1e-3,
    profile: SpectralProfile | None = None,
) -> dict:
    """One-shot verification bundle for an accepted polynomial."""
    cert = build_certificate(P, profile)
    model = MappingTorusModel(cert=cert, q=cert.q, phi_exponent=2 * cert.q + 2)
    rng = np.random.default_rng(seed)
    pts = [
        np.concatenate([rng.uniform(-1, 1, cert.q + 1), [math.exp(rng.uniform(-0.7, 0.7))]])
        for _ in range(samples)
    ]
    deck_dev = deck_pullback_check(model, pts)
    ts = [float(math.exp(rng.uniform(-0.7, 1.1))) for _ in range(min(samples, 12))]
    curv = curvature_check(model, ts, step_rel)
    b_eigs = np.linalg.eigvalsh(cert.b)
    phi_exact = all(
        phi_scaling_identity_exact(cert.q, Fraction(3, 2) + Fraction(k, 7), Fraction(5, 3))
        for k in range(5)
    )
    return {
        "poly": P.to_json(),
        "q": cert.q,
        "lambda": cert.lam,
        "charpoly_exact_match": charpoly_matches(cert.A, P),
        "residual_orthogonality": cert.residual_orthogonality,
        "residual_invariance": cert.residual_invariance,
        "b_eigenvalues": [float(x) for x in b_eigs],
        "b_positive_definite": bool(np.all(b_eigs > 0)),
        "deck_samples": samples,
        "deck_max_rel_deviation": deck_dev,
        "deck_ratio": "lambda^-2",
        "curvature": curv,
        "phi_exponent": model.phi_exponent,
        "phi_scaling_identity_exact": phi_exact,
        "passes": {
            "orthogonality_1e-12": bool(cert.residual_orthogonality <= 1e-12),
            "deck_1e-10": bool(deck_dev <= 1e-10),
            "curvature_rel_1e-4": bool(curv["max_warped_rel_error"] <= 1e-4),
            "flat_block_1e-6": bool(curv["max_flat_abs"] <= 1e-6),
        },
    }
