"""Mapping-torus construction: companion splitting, invariant form, warped metric."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
import sympy

from spectorus.intpoly import IntPolynomial, parse_poly
from spectorus.geomlab import (
    build_certificate,
    build_model,
    charpoly_matches,
    companion,
    curvature_check,
    deck_pullback_check,
    metric_at,
    phi_scaling_identity_exact,
    sectional_curvatures,
    split,
    verify_torus_report,
)
from spectorus.spectra import classify

GOLDEN = parse_poly("x^2 - 3x + 1")
PLASTIC = parse_poly("x^3 - x - 1")


# ---------------------------------------------------------------- companion

def test_companion_frozen_matrices():
    assert companion(GOLDEN).tolist() == [[0, -1], [1, 3]]
    assert companion(PLASTIC).tolist() == [[0, 0, 1], [1, 0, 1], [0, 1, 0]]
    assert companion(parse_poly("x - 1")).tolist() == [[1]]
    # Python ints: no coefficient overflows
    assert companion(parse_poly(f"x^2 - 1{'0' * 40}x + 1"))[1, 1] == 10**40


def test_companion_determinant_is_one():
    for P in (GOLDEN, PLASTIC, parse_poly("x^3 - 2x^2 + x - 1")):
        A = companion(P)
        assert round(float(np.linalg.det(A.astype(float)))) == 1


def test_companion_requires_unit_determinant_constant():
    with pytest.raises(ValueError):
        companion(parse_poly("x^2 - 3x - 1"))
    with pytest.raises(ValueError):
        companion(parse_poly("x^3 - x + 1"))


def test_charpoly_matches_exactly():
    assert charpoly_matches(companion(GOLDEN), GOLDEN)
    assert charpoly_matches(companion(PLASTIC), PLASTIC)
    tampered = companion(PLASTIC).copy()
    tampered[0, 0] = 1
    assert not charpoly_matches(tampered, PLASTIC)
    assert not charpoly_matches(companion(GOLDEN), parse_poly("x^2 - 4x + 1"))


def test_charpoly_matches_agrees_with_sympy():
    A = companion(PLASTIC)
    mu = sympy.Matrix(A.tolist()).charpoly()
    assert [int(c) for c in mu.all_coeffs()] == list(PLASTIC.coeffs[::-1])


# ---------------------------------------------------------------- splitting

def test_split_golden_directions():
    A = companion(GOLDEN)
    Eu, Es = split(classify(GOLDEN))
    lam = (3 + 5 ** 0.5) / 2
    assert np.linalg.norm(A.astype(float) @ Eu - lam * Eu) <= 1e-9
    assert Eu.shape == (2,)
    assert Es.shape == (2, 1)
    # unstable direction proportional to (-1, lam), canonical sign fixed
    assert Eu[1] > 0
    assert Eu[1] / Eu[0] == pytest.approx(-lam, rel=1e-9)


def test_split_plastic_invariance():
    A = companion(PLASTIC).astype(float)
    Eu, Es = split(classify(PLASTIC))
    assert Es.shape == (3, 2)
    # A maps span(Es) into itself: residual of least-squares refit is tiny
    image = A @ Es
    coeffs, res, *_ = np.linalg.lstsq(Es, image, rcond=None)
    assert np.linalg.norm(image - Es @ coeffs) <= 1e-12
    # and Eu is not in that span
    overlap, *_ = np.linalg.lstsq(Es, Eu.reshape(-1, 1), rcond=None)
    assert np.linalg.norm(Eu.reshape(-1, 1) - Es @ overlap) > 0.1
    # canonical phase: the largest component of the pair's eigenvector is real
    i = int(np.argmax(np.abs(Es[:, 0] + 1j * Es[:, 1])))
    assert Es[i, 0] > 0 and Es[i, 1] == 0.0


def test_split_deterministic():
    profile = classify(PLASTIC)
    Eu1, Es1 = split(profile)
    Eu2, Es2 = split(profile)
    assert np.array_equal(Eu1, Eu2)
    assert np.array_equal(Es1, Es2)


def test_split_requires_accepted_profile():
    bad = classify(parse_poly("x^2 - x + 1"))
    with pytest.raises(ValueError):
        split(bad)


# ---------------------------------------------------------------- the form b

def test_certificate_form_is_a_fixed_point_for_plastic():
    cert = build_certificate(PLASTIC)
    b = cert.b
    S = cert.lam * np.linalg.lstsq(
        cert.Es_basis, cert.A.astype(float) @ cert.Es_basis, rcond=None
    )[0]
    assert np.linalg.norm(S.T @ b @ S - b) <= 1e-12
    assert np.all(np.linalg.eigvalsh(b) > 0)
    assert np.trace(b) == pytest.approx(cert.q, abs=1e-12)
    assert np.allclose(b, b.T, atol=1e-15)
    # the exact frame matrix restricts to the same rotation
    S_exact = cert.lam * cert.M[: cert.q, : cert.q]
    assert np.linalg.norm(S_exact.T @ S_exact - np.eye(cert.q)) <= 1e-15


def test_certificate_rejects_expanding_restriction():
    # lambda doubled: lam*A_s has modulus 2 and cannot be a rotation
    profile = classify(GOLDEN)
    lo, hi = profile.lam
    doctored = dataclasses.replace(profile, lam=(2 * lo, 2 * hi))
    with pytest.raises(ArithmeticError, match="not a rotation"):
        build_certificate(GOLDEN, doctored)


# ---------------------------------------------------------------- certificate

def test_certificate_residuals_and_json():
    for P, q in ((GOLDEN, 1), (PLASTIC, 2)):
        cert = build_certificate(P)
        assert cert.q == q
        assert cert.residual_orthogonality <= 1e-12
        assert cert.residual_invariance <= 1e-10
        data = cert.to_json()
        assert data["A"] == companion(P).tolist()
        assert len(data["b"]) == q
        assert float(data["lambda"]) == pytest.approx(cert.lam, rel=1e-15)


def test_certificate_lambda_values():
    assert build_certificate(GOLDEN).lam == pytest.approx(2.6180339887, abs=1e-9)
    assert build_certificate(PLASTIC).lam == pytest.approx(1.1509639253, abs=1e-9)


def test_build_rejects_a_profile_of_another_polynomial():
    # the frame is read off the profile's roots, so they must be P's roots
    with pytest.raises(ValueError, match="does not match"):
        build_certificate(GOLDEN, classify(parse_poly("x^2 - 4x + 1")))


def test_build_rejects_unaccepted_polynomials():
    with pytest.raises(ValueError):
        build_certificate(parse_poly("x^2 - x + 1"))
    with pytest.raises(ValueError):
        build_model(parse_poly("x^4 - 2x^3 + x^2 - x + 1"))


# ---------------------------------------------------------------- float oracle
# The splitting as eigensolvers build it: numpy eigenvectors, two rounds of
# inverse iteration, a real basis paired by rounded eigenvalues, and the form b
# solved from the least-squares restriction. The exact frame must agree.

@pytest.fixture(scope="module")
def torus_range():
    """The accepted polynomials of the benchmark's torus ranges, with profiles.

    X^2 - tX + 1 for t in 3..30, and X^3 + aX^2 + bX - 1 for |a|, |b| <= 10.
    """
    polys = [parse_poly(f"x^2 - {t}x + 1") for t in range(3, 31)]
    polys += [
        IntPolynomial((-1, b, a, 1)) for a in range(-10, 11) for b in range(-10, 11)
    ]
    profiles = [(P, classify(P)) for P in polys]
    accepted = [(P, prof) for P, prof in profiles if prof.accepted]
    assert len(accepted) == 117
    return accepted


_ORACLE_EIG_TOL = 1e-9


def _oracle_canonical_phase(v):
    i = int(np.argmax(np.abs(v)))
    piv = v[i]
    if abs(piv) == 0:
        return v
    return v * (abs(piv) / piv)


def _oracle_real_basis(w, V, indices):
    order = sorted(
        indices, key=lambda k: (round(w[k].real, 12), round(abs(w[k].imag), 12))
    )
    cols = []
    used_pairs = set()
    for k in order:
        lam_k = w[k]
        if abs(lam_k.imag) <= _ORACLE_EIG_TOL:
            cols.append(np.real(_oracle_canonical_phase(V[:, k])))
        else:
            key = complex(round(lam_k.real, 10), round(abs(lam_k.imag), 10))
            if key in used_pairs:
                continue
            used_pairs.add(key)
            vk = V[:, k] if lam_k.imag > 0 else np.conj(V[:, k])
            vk = _oracle_canonical_phase(vk)
            cols.append(np.real(vk))
            cols.append(np.imag(vk))
    return np.column_stack(cols)


def _oracle_split(A, profile):
    n = A.shape[0]
    Af = A.astype(float)
    big = float(profile.big_root.center.real)
    w, V = np.linalg.eig(Af)
    i_big = int(np.argmax(np.abs(w)))
    Eu = np.real(_oracle_canonical_phase(V[:, i_big]))
    Eu = Eu / np.linalg.norm(Eu)
    for _ in range(2):
        try:
            Eu = np.linalg.solve(Af - big * np.eye(n), Eu)
        except np.linalg.LinAlgError:
            break
        Eu = Eu / np.linalg.norm(Eu)
    j = int(np.argmax(np.abs(Eu)))
    if Eu[j] < 0:
        Eu = -Eu
    return Eu, _oracle_real_basis(w, V, [k for k in range(n) if k != i_big])


def _oracle_solve_b(A_s, lam):
    q = A_s.shape[0]
    S = lam * np.asarray(A_s, dtype=float)
    w, V = np.linalg.eig(S)
    assert np.max(np.abs(np.abs(w) - 1.0)) <= 1e-9
    Tinv = np.linalg.inv(_oracle_real_basis(w, V, range(q)))
    b = Tinv.T @ Tinv
    b = b * (q / np.trace(b))
    return (b + b.T) / 2


def test_frame_agrees_with_the_float_oracle(torus_range):
    for P, prof in torus_range:
        cert = build_certificate(P, prof)
        A = companion(P)
        Eu, Es = _oracle_split(A, prof)
        A_s, *_ = np.linalg.lstsq(Es, A.astype(float) @ Es, rcond=None)
        b = _oracle_solve_b(A_s, prof.lambda_float)
        assert np.max(np.abs(cert.Eu - Eu)) <= 1e-15, P
        assert np.max(np.abs(cert.Es_basis - Es)) <= 1e-15, P
        assert np.max(np.abs(cert.b - b)) <= 1e-13, P
        report = verify_torus_report(P, samples=5, seed=2, profile=prof)
        assert all(report["passes"].values()), (P, report["passes"])


# ---------------------------------------------------------------- metric

def test_metric_at_frozen_values():
    model = build_model(PLASTIC)
    assert np.array_equal(metric_at(model, (0.0, 0.0, 0.0, 1.0)), np.eye(4))
    g = metric_at(model, (0.0, 0.0, 0.0, 2.0))
    assert np.allclose(g, np.diag([1.0, 1.0, 64.0, 1.0]))


def test_metric_warp_ratio_is_lambda_power():
    model = build_model(GOLDEN)
    lam = model.cert.lam
    g1 = metric_at(model, (0.0, 0.0, 1.0))
    g2 = metric_at(model, (0.0, 0.0, lam))
    assert g2[1, 1] / g1[1, 1] == pytest.approx(lam ** 4, rel=1e-12)


def test_metric_requires_positive_t():
    model = build_model(GOLDEN)
    with pytest.raises(ValueError):
        metric_at(model, (0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        metric_at(model, (0.0, 0.0, -1.0))


def test_phi_scaling_identity_exact_rationals():
    assert phi_scaling_identity_exact(1, Fraction(13, 5), Fraction(7, 3))
    assert phi_scaling_identity_exact(2, Fraction(115, 100), Fraction(1, 7))


# ---------------------------------------------------------------- deck map

def test_deck_pullback_is_homothety():
    rng = np.random.default_rng(3)
    for P in (GOLDEN, PLASTIC):
        model = build_model(P)
        pts = [
            tuple(rng.uniform(-1, 1, model.q + 1)) + (float(rng.uniform(0.5, 2.0)),)
            for _ in range(10)
        ]
        assert deck_pullback_check(model, pts) <= 1e-10


def test_deck_identity_control_is_far_from_homothety():
    model = build_model(GOLDEN)
    pts = [(0.0, 0.0, 1.0), (0.2, -0.4, 1.7)]
    assert deck_pullback_check(model, pts, use_identity=True) > 1e-3


# ---------------------------------------------------------------- curvature

def test_sectional_curvature_against_symbolic_oracle():
    # independent closed form: for g = dx^2 + phi(t) dy^2 + dt^2 the only
    # curved plane is (y, t) with K = -(sqrt(phi))''/sqrt(phi)
    t = sympy.symbols("t", positive=True)
    for q in (1, 2):
        phi = t ** (2 * q + 2)
        w = sympy.sqrt(phi)
        K_symbolic = sympy.simplify(-sympy.diff(w, t, 2) / w)
        assert sympy.simplify(K_symbolic + q * (q + 1) / t**2) == 0


def test_curvature_check_matches_closed_form():
    model = build_model(PLASTIC)
    report = curvature_check(model, [1.0, 2.0, 0.5])
    assert report["max_warped_rel_error"] <= 1e-4
    assert report["max_flat_abs"] <= 1e-6
    by_t = {row["t"]: row for row in report["planes"]}
    assert by_t[1.0]["K_closed"] == -6.0
    assert by_t[1.0]["K_fd"] == pytest.approx(-6.0, rel=1e-4)

    model1 = build_model(GOLDEN)
    report1 = curvature_check(model1, [2.0])
    assert report1["planes"][0]["K_closed"] == -0.5
    assert report1["planes"][0]["K_fd"] == pytest.approx(-0.5, rel=1e-4)


def test_curvature_flat_control():
    flat = (lambda t: 1.0, lambda t: 0.0, lambda t: 0.0)
    model = build_model(GOLDEN, phi=flat)
    K = sectional_curvatures(model, 1.3)
    assert max(abs(v) for v in K.values()) <= 1e-6
    report = curvature_check(model, [0.7, 1.9])
    assert report["max_warped_rel_error"] <= 1e-6
    assert report["max_flat_abs"] <= 1e-6


def test_a_nan_after_the_first_sample_fails_the_gates():
    # max(0.0, nan) is 0.0: a plain max fold would drop the second sample
    nan = float("nan")
    phi = tuple(
        (lambda t, f=f: nan if t > 1.5 else f(t))
        for f in (lambda t: t**4, lambda t: 4 * t**3, lambda t: 12 * t**2)
    )
    model = build_model(GOLDEN, phi=phi)
    deck = deck_pullback_check(model, [(0.1, 0.2, 1.0), (0.3, -0.2, 3.0)])
    curv = curvature_check(model, [1.0, 2.0])
    assert curv["planes"][0]["rel_error"] <= 1e-6  # the first sample is clean
    assert math.isnan(deck)
    assert math.isnan(curv["max_flat_abs"]) and math.isnan(curv["max_warped_rel_error"])
    # the comparisons of verify_torus_report's "passes"
    assert not deck <= 1e-10
    assert not curv["max_warped_rel_error"] <= 1e-4
    assert not curv["max_flat_abs"] <= 1e-6


def test_curvature_requires_positive_t():
    model = build_model(GOLDEN)
    with pytest.raises(ValueError):
        sectional_curvatures(model, 0.0)


# ---------------------------------------------------------------- full report

def test_verify_torus_report_passes_for_both_polynomials():
    for P in (GOLDEN, PLASTIC):
        report = verify_torus_report(P, samples=25, seed=1)
        assert all(report["passes"].values()), report["passes"]
        assert report["deck_samples"] == 25
        assert report["charpoly_exact_match"] is True
        assert report["b_positive_definite"] is True
        assert report["phi_scaling_identity_exact"] is True
        assert report["deck_ratio"] == "lambda^-2"


def test_verify_torus_report_is_json_serializable_and_seed_stable():
    import json

    a = verify_torus_report(GOLDEN, samples=5, seed=7)
    b = verify_torus_report(GOLDEN, samples=5, seed=7)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
