"""Mapping-torus geometry for an accepted polynomial.

From an accepted classification this module builds the companion matrix, the
invariant splitting into the expanding line and its complement, the bilinear
form making the rescaled restriction orthogonal, and the warped metric
diag(1, ..., 1, phi(t), 1) on the cylinder cover. Verification routines
confirm the defining identities numerically: the fixed-point equation of the
form, the deck map acting as a homothety of ratio lambda**(-2), and the
sectional curvature -q(q+1)/t**2 of the warped plane.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .intpoly import IntPolynomial, _bareiss_det
from .spectra import SpectralProfile, classify

_EIG_TOL = 1e-9  # threshold separating real eigenvalues from conjugate pairs


def companion(P: IntPolynomial) -> np.ndarray:
    """Companion matrix with det(X*Id - A) = P and det A = 1."""
    n = P.degree
    if n < 1 or not P.is_monic:
        raise ValueError("companion requires a monic polynomial of degree >= 1")
    if P.coeffs[0] != (-1) ** n:
        raise ValueError("constant term must be (-1)^degree for det A = 1")
    A = np.zeros((n, n), dtype=np.int64)
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
    return v * (abs(piv) / piv)


def _real_basis(w: np.ndarray, V: np.ndarray, indices) -> np.ndarray:
    """Real columns spanning the eigenvectors V[:, k] for k in indices.

    A real eigenvalue gives its eigenvector; a conjugate pair gives, once, the
    real and imaginary parts of the eigenvector of its positive-imaginary
    member. Columns follow the eigenvalues sorted by real part, then |imag|.
    """
    order = sorted(
        indices, key=lambda k: (round(w[k].real, 12), round(abs(w[k].imag), 12))
    )
    cols: list[np.ndarray] = []
    used_pairs: set[complex] = set()
    for k in order:
        lam_k = w[k]
        if abs(lam_k.imag) <= _EIG_TOL:
            cols.append(np.real(_canonical_phase(V[:, k])))
        else:
            key = complex(round(lam_k.real, 10), round(abs(lam_k.imag), 10))
            if key in used_pairs:
                continue
            used_pairs.add(key)
            vk = V[:, k] if lam_k.imag > 0 else np.conj(V[:, k])
            vk = _canonical_phase(vk)
            cols.append(np.real(vk))
            cols.append(np.imag(vk))
    return np.column_stack(cols)


def split(A: np.ndarray, profile: SpectralProfile) -> tuple[np.ndarray, np.ndarray]:
    """Invariant splitting: expanding eigenvector and a basis of the rest.

    Returns (Eu, Es_basis) with Eu the unit real eigenvector for the
    expanding eigenvalue and Es_basis an n x q matrix whose columns are, per
    conjugate pair, the real and imaginary parts of an eigenvector, and per
    real small eigenvalue the eigenvector itself.
    """
    if not profile.accepted:
        raise ValueError("split requires an accepted profile")
    n = A.shape[0]
    Af = A.astype(float)
    big = float(profile.big_root.center.real)
    w, V = np.linalg.eig(Af)
    i_big = int(np.argmax(np.abs(w)))
    Eu = np.real(_canonical_phase(V[:, i_big]))
    Eu = Eu / np.linalg.norm(Eu)
    # two rounds of inverse iteration against the certified eigenvalue
    for _ in range(2):
        try:
            Eu = np.linalg.solve(Af - big * np.eye(n), Eu)
        except np.linalg.LinAlgError:
            break  # shifted matrix numerically singular: Eu already converged
        Eu = Eu / np.linalg.norm(Eu)
    j = int(np.argmax(np.abs(Eu)))
    if Eu[j] < 0:
        Eu = -Eu
    resid = np.linalg.norm(Af @ Eu - big * Eu)
    if resid > 1e-8:
        raise ArithmeticError(f"expanding eigenvector did not converge: {resid:g}")
    return Eu, _real_basis(w, V, [k for k in range(n) if k != i_big])


def solve_b(A_s: np.ndarray, lam: float) -> np.ndarray:
    """Positive definite fixed point of S^T b S = b for S = lam * A_s.

    Valid when every eigenvalue of S has modulus 1: in the real basis built
    from the eigenvectors, S is block-rotation orthogonal, so the Gram matrix
    of the inverse basis is a fixed point. Normalized to trace q for
    deterministic output.
    """
    q = A_s.shape[0]
    S = lam * np.asarray(A_s, dtype=float)
    w, V = np.linalg.eig(S)
    if np.max(np.abs(np.abs(w) - 1.0)) > 1e-9:
        raise ValueError("solve_b requires all eigenvalues of lam*A_s on the unit circle")
    Tinv = np.linalg.inv(_real_basis(w, V, range(q)))
    b = Tinv.T @ Tinv
    b = b * (q / np.trace(b))
    b = (b + b.T) / 2
    if np.any(np.linalg.eigvalsh(b) <= 0):
        raise ArithmeticError("no positive definite fixed point found")
    residual = np.linalg.norm(S.T @ b @ S - b)
    if residual > 1e-10:
        raise ArithmeticError(f"fixed-point residual too large: {residual:g}")
    return b


@dataclass(frozen=True)
class SplittingCertificate:
    """Companion matrix with its invariant splitting and orthogonality form."""

    A: np.ndarray
    lam: float
    Eu: np.ndarray
    Es_basis: np.ndarray
    b: np.ndarray
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
    """Full pipeline: classify, companion, split, solve the form."""
    if profile is None:
        profile = classify(P)
    if not profile.accepted:
        raise ValueError(f"polynomial not accepted: {profile.reason}")
    A = companion(P)
    if not charpoly_matches(A, P):
        raise AssertionError("companion characteristic polynomial mismatch")
    Eu, Es = split(A, profile)
    Af = A.astype(float)
    big = float(profile.big_root.center.real)
    lam = big ** (1.0 / profile.q)
    lam_iv = profile.lam
    if lam_iv is not None:
        lam = float((lam_iv[0] + lam_iv[1]) / 2)
    A_s, *_ = np.linalg.lstsq(Es, Af @ Es, rcond=None)
    b = solve_b(A_s, lam)
    S = lam * A_s
    res_orth = float(np.linalg.norm(S.T @ b @ S - b))
    res_inv = float(np.linalg.norm(Af @ Eu - big * Eu))
    return SplittingCertificate(
        A=A,
        lam=lam,
        Eu=Eu,
        Es_basis=Es,
        b=b,
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


def _adapted_frame(cert: SplittingCertificate) -> np.ndarray:
    """Column frame: b-orthonormal stable vectors, then the unit Eu."""
    L = np.linalg.cholesky(cert.b)
    W = np.linalg.inv(L).T  # W^T b W = Id
    return np.column_stack([cert.Es_basis @ W, cert.Eu])


def deck_pullback_check(
    model: MappingTorusModel, sample_points, use_identity: bool = False
) -> float:
    """Max relative deviation of the deck pullback from lambda**(-2) * g.

    The deck map (x, t) -> (Mx, t/lam) has constant Jacobian diag(M, 1/lam)
    in the adapted frame, so no differencing is needed. use_identity swaps in
    the identity map as a non-contracting control (deviation near 1).
    """
    cert = model.cert
    lam = cert.lam
    E = _adapted_frame(cert)
    M = np.linalg.solve(E, cert.A.astype(float) @ E)
    n = model.q + 2
    J = np.eye(n)
    if not use_identity:
        J[: n - 1, : n - 1] = M
        J[n - 1, n - 1] = 1.0 / lam
    worst = 0.0
    for point in sample_points:
        t = float(np.asarray(point, dtype=float).reshape(-1)[-1])
        target_t = t if use_identity else t / lam
        G_img = metric_at(model, [target_t])
        pulled = J.T @ G_img @ J
        ref = lam**-2 * metric_at(model, [t])
        dev = np.linalg.norm(pulled - ref) / np.linalg.norm(ref)
        worst = max(worst, float(dev))
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
            max_flat = max(max_flat, abs(val))
        phi = model.phi_at(t)
        dphi, d2phi = model.phi_derivatives(t)
        K_closed = -(d2phi / (2 * phi) - dphi**2 / (4 * phi**2))
        K_fd = float(K[warped])
        rel = abs(K_fd - K_closed) / max(abs(K_closed), 1e-30)
        if K_closed == 0:
            rel = abs(K_fd)
        max_rel = max(max_rel, float(rel))
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
