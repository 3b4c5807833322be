"""Kahler potential formulas on C x H^s: closed forms vs Wirtinger differences."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from spectorus import otkahler
from spectorus.otkahler import (
    STENCIL_CHUNK,
    F_value,
    HermitianMatrixSample,
    HyperPoint,
    check_determinant,
    check_first_derivatives,
    check_flat_factor,
    check_metric,
    check_ricci,
    check_ricci_u_route,
    determinant_closed_form,
    exact_determinant_identity,
    first_derivative_closed_form,
    metric_closed_form,
    ricci_closed_form,
    scaling_law_exact,
    u_value,
    verify_ot_report,
    wirtinger_gradient,
    wirtinger_hessian,
)


def point(z, *ys, xs=None):
    xs = xs or [0.0] * len(ys)
    return HyperPoint(complex(z), tuple(complex(x, y) for x, y in zip(xs, ys)))


# ---------------------------------------------------------------- basic values

def test_u_and_potential_values():
    assert u_value(point(0, 1.0)) == pytest.approx(1.0)
    assert u_value(point(0, 1.0, 2.0)) == pytest.approx(0.5)
    assert F_value(point(1, 1.0)) == pytest.approx(2.0)
    assert F_value(point(1 + 1j, 2.0, 0.5)) == pytest.approx(3.0)


def test_hyperpoint_validates_upper_half_plane():
    with pytest.raises(ValueError):
        HyperPoint(0j, (1 - 1j,))
    with pytest.raises(ValueError):
        HyperPoint(0j, (1 + 0j,))


def test_hyperpoint_accessors():
    p = HyperPoint(1 + 2j, (0.5 + 1j, -0.5 + 2j))
    assert p.s == 2
    assert p.ys == (1.0, 2.0)
    assert p.replace_coord(0, 3 + 2j).z == 3 + 2j
    assert p.replace_coord(1, 0.5 + 9j).zs[0] == 0.5 + 9j


# ---------------------------------------------------------------- differencing

def test_hessian_of_flat_potential_is_identity_entry():
    f = lambda c: np.abs(c[:, 0]) ** 2
    H = wirtinger_hessian(f, point(0.3 - 0.7j, 1.0, 2.0))
    assert H[0, 0] == pytest.approx(1.0, abs=1e-7)
    assert abs(H[0, 1]) <= 1e-7
    assert abs(H[1, 2]) <= 1e-7


def test_derivatives_of_constant_vanish():
    f = lambda c: np.full(len(c), 4.25)
    p = point(0.1, 0.9, 1.7)
    assert np.max(np.abs(wirtinger_gradient(f, p))) == 0.0
    assert np.max(np.abs(wirtinger_hessian(f, p))) == 0.0


def test_gradient_of_holomorphic_monomial():
    # d/dz of z^2 at z0 is 2 z0; the z-bar derivative (conjugate) vanishes
    f = lambda c: (c[:, 0] ** 2).real
    g = wirtinger_gradient(f, point(0.5 + 0.25j, 1.0))
    # for real part of z^2, d/dz = z (half of 2z since Re halves it)
    assert g[0] == pytest.approx(0.5 + 0.25j, abs=1e-8)


def test_finite_differences_converge_at_order_two():
    p = point(0.2, 1.1)
    coarse = check_metric(p, step_rel=8e-4)
    fine = check_metric(p, step_rel=4e-4)
    assert coarse / fine == pytest.approx(4.0, abs=1.5)


# ---------------------------------------------------------------- first derivatives

def test_first_derivative_closed_form_values():
    p = point(0, 1.0)
    closed = first_derivative_closed_form(p)
    # -u/(z1 - conj z1) = -1/(2i) = i/2
    assert closed[1] == pytest.approx(0.5j, abs=1e-15)
    assert closed[0] == 0


def test_first_derivatives_match_finite_differences():
    assert check_first_derivatives(point(0, 1.0)) <= 1e-8
    assert check_first_derivatives(point(0.4 - 0.2j, 1.0, 1.0)) <= 1e-8
    assert check_first_derivatives(point(0, 0.8, 1.4, 1.9, xs=[0.3, -0.2, 1.0])) <= 1e-8


def test_first_derivative_scaling_homogeneity():
    base = first_derivative_closed_form(point(0, 1.0))[1]
    doubled = first_derivative_closed_form(point(0, 2.0))[1]
    assert doubled == pytest.approx(base / 4, abs=1e-15)


# ---------------------------------------------------------------- metric

def test_metric_closed_form_frozen_matrices():
    h1 = metric_closed_form(point(0, 1.0)).h
    assert h1 == pytest.approx(np.array([[0.5]]))

    h2 = metric_closed_form(point(0, 1.0, 1.0)).h
    assert h2 == pytest.approx(0.25 * np.array([[2.0, 1.0], [1.0, 2.0]]))

    h3 = metric_closed_form(point(0, 1.0, 2.0)).h
    assert h3 == pytest.approx(np.array([[0.25, 1 / 16], [1 / 16, 1 / 16]]))


def test_metric_closed_form_is_hermitian_and_positive():
    sample = metric_closed_form(point(0.3, 0.7, 1.3, 2.9))
    assert sample.source == "ClosedForm"
    assert sample.hermitian_deviation() <= 1e-12
    assert np.all(np.linalg.eigvalsh(sample.h) > 0)


def test_metric_matches_hessian_of_u():
    assert check_metric(point(0, 1.0)) <= 1e-6
    assert check_metric(point(0.2 + 0.1j, 1.0, 1.0)) <= 1e-6
    assert check_metric(point(0, 0.9, 1.6, 1.1, xs=[0.4, 0.0, -0.8])) <= 1e-6


def test_flat_factor_block():
    assert check_flat_factor(point(0.77 - 0.11j, 1.2)) <= 1e-6
    assert check_flat_factor(point(-0.5j, 0.8, 1.7)) <= 1e-6


# ---------------------------------------------------------------- determinant

def test_determinant_frozen_values():
    assert determinant_closed_form(point(0, 1.0)) == pytest.approx(0.5)
    assert determinant_closed_form(point(0, 1.0, 1.0)) == pytest.approx(3 / 16)
    assert determinant_closed_form(point(0, 1.0, 2.0)) == pytest.approx(3 / 256)


def test_determinant_identity_numeric():
    for p in (point(0, 1.0), point(0, 0.7, 1.9), point(0, 1.1, 0.9, 1.5)):
        assert check_determinant(p) <= 1e-10


def test_determinant_identity_exact_rationals():
    assert exact_determinant_identity((Fraction(1),))
    assert exact_determinant_identity((Fraction(1, 2), Fraction(3)))
    assert exact_determinant_identity((Fraction(2, 3), Fraction(5, 4), Fraction(7)))


def test_scaling_law_exact():
    assert scaling_law_exact((Fraction(1), Fraction(2)), Fraction(3))
    assert scaling_law_exact((Fraction(1, 3),), Fraction(5, 2))
    assert scaling_law_exact((Fraction(1), Fraction(1), Fraction(2)), Fraction(7, 3))


# ---------------------------------------------------------------- Ricci

def test_ricci_closed_form_frozen_values():
    r1 = ricci_closed_form(point(0, 1.0))
    assert r1 == pytest.approx(np.array([[-0.75]]))

    r2 = ricci_closed_form(point(0, 1.0, 1.0))
    assert r2 == pytest.approx(np.diag([-1.0, -1.0]))

    r3 = ricci_closed_form(point(0, 2.0, 1.0))
    assert r3 == pytest.approx(np.diag([-0.25, -1.0]))


def test_ricci_is_diagonal_because_log_det_splits():
    # ln det h = const + (s+2) ln u is a sum of one-variable terms, so the
    # mixed z_j z_k-bar derivatives must vanish for j != k
    H = wirtinger_hessian(
        lambda c: np.log([determinant_closed_form(HyperPoint(r[0], tuple(r[1:]))) for r in c]),
        point(0, 1.0, 1.0),
    )
    assert abs(H[1, 2]) <= 1e-6
    assert H[1, 1] == pytest.approx(1.0, abs=1e-6)  # (s+2)/(4 y_1^2) at s=2


def test_ricci_matches_log_det_hessian():
    for p in (point(0, 1.0), point(0, 1.0, 1.0), point(0.1, 0.8, 1.2, 1.9)):
        dev, neg_def = check_ricci(p)
        assert dev <= 1e-6
        assert neg_def


def test_ricci_u_route_consistency():
    for p in (point(0, 1.0), point(0.3, 1.4, 0.9)):
        assert check_ricci_u_route(p) <= 1e-6


def test_ricci_negative_definite_across_wide_domain():
    rng = np.random.default_rng(11)
    for s in (1, 2, 3):
        for _ in range(20):
            ys = np.exp(rng.uniform(np.log(0.1), np.log(10), s))
            p = point(0, *ys)
            eig = np.linalg.eigvalsh(ricci_closed_form(p))
            assert np.all(eig < 0)
            assert np.all(np.linalg.eigvalsh(metric_closed_form(p).h) > 0)


# ---------------------------------------------------------------- full report

@pytest.mark.parametrize("s", [1, 2, 3])
def test_verify_ot_report_all_checks_pass(s):
    report = verify_ot_report(s, samples=12, seed=5)
    assert all(report["passes"].values()), report["passes"]
    assert report["s"] == s
    assert report["max_dev_first_derivatives"] <= 1e-8
    assert report["max_dev_metric"] <= 1e-6
    assert report["max_rel_dev_determinant"] <= 1e-10
    assert report["max_dev_ricci"] <= 1e-6
    assert report["metric_positive_definite"] is True
    assert report["ricci_negative_definite"] is True
    assert report["exact_determinant_identity"] is True
    assert report["exact_scaling_law"] is True


def test_verify_ot_report_seed_stable():
    import json

    a = verify_ot_report(2, samples=6, seed=3)
    b = verify_ot_report(2, samples=6, seed=3)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_nan_deviation_fails_its_gate(monkeypatch):
    # a NaN first, finite values after: max() would keep 0.0 and pass the gate
    devs = iter([float("nan")])
    monkeypatch.setattr(otkahler, "check_metric", lambda p, step_rel: next(devs, 0.0))
    report = verify_ot_report(2, samples=3, seed=0)
    assert math.isnan(report["max_dev_metric"])
    assert report["passes"]["eq2_1e-6"] is False
    assert all(v for k, v in report["passes"].items() if k != "eq2_1e-6")


@pytest.mark.parametrize("step_rel", [0.0, -1e-4, 1.0, 1e300, float("inf"), float("nan")])
def test_step_outside_the_half_plane_condition_is_refused(step_rel):
    with pytest.raises(ValueError, match="0 < step_rel < 1"):
        verify_ot_report(1, samples=2, step_rel=step_rel)
    with pytest.raises(ValueError, match="0 < step_rel < 1"):
        wirtinger_hessian(otkahler._u, point(0, 1.0), step_rel)


# ---------------------------------------------------------------- scalar oracle
# The point-by-point stencil the array stencils replaced: one HyperPoint per
# stencil point and scalar potentials. The array code must match it bit for bit.

def _oracle_u(p):
    return 1.0 / math.prod(p.ys)


def _oracle_F(p):
    return abs(p.z) ** 2 + _oracle_u(p)


def _oracle_metric(p):
    u, ys = _oracle_u(p), p.ys
    h = np.empty((p.s, p.s), dtype=complex)
    for j in range(p.s):
        for k in range(p.s):
            h[j, k] = (u / 4) * (1 + (j == k)) / (ys[j] * ys[k])
    return h


def _oracle_log_det_h(p):
    return math.log(np.linalg.det(_oracle_metric(p)).real)


def _oracle_log_u(p):
    return math.log(_oracle_u(p))


def _oracle_gradient(f, point, step_rel=otkahler.GRAD_STEP_REL):
    scales = [max(1.0, abs(point.z))] + list(point.ys)
    out = np.zeros(point.s + 1, dtype=complex)
    for j in range(point.s + 1):
        h = step_rel * scales[j]
        c = point.coords()[j]
        fx = (f(point.replace_coord(j, c + h)) - f(point.replace_coord(j, c - h))) / (2 * h)
        fy = (
            f(point.replace_coord(j, c + 1j * h)) - f(point.replace_coord(j, c - 1j * h))
        ) / (2 * h)
        out[j] = (fx - 1j * fy) / 2
    return out


def _oracle_second_diff(f, point, j, dj, k, dk, hj, hk):
    if j == k and dj == dk:
        c = point.coords()[j]
        return (
            f(point.replace_coord(j, c + hj * dj))
            - 2 * f(point)
            + f(point.replace_coord(j, c - hj * dj))
        ) / (hj * hj)
    pp = point.replace_coord(j, point.coords()[j] + hj * dj)
    pm = point.replace_coord(j, point.coords()[j] + hj * dj)
    pp = pp.replace_coord(k, pp.coords()[k] + hk * dk)
    pm = pm.replace_coord(k, pm.coords()[k] - hk * dk)
    mp = point.replace_coord(j, point.coords()[j] - hj * dj)
    mm = point.replace_coord(j, point.coords()[j] - hj * dj)
    mp = mp.replace_coord(k, mp.coords()[k] + hk * dk)
    mm = mm.replace_coord(k, mm.coords()[k] - hk * dk)
    return (f(pp) - f(pm) - f(mp) + f(mm)) / (4 * hj * hk)


def _oracle_hessian(f, point, step_rel=otkahler.HESS_STEP_REL):
    n = point.s + 1
    scales = [max(1.0, abs(point.z))] + list(point.ys)
    out = np.zeros((n, n), dtype=complex)
    for j in range(n):
        for k in range(n):
            hj, hk = step_rel * scales[j], step_rel * scales[k]
            xx = _oracle_second_diff(f, point, j, 1, k, 1, hj, hk)
            xy = _oracle_second_diff(f, point, j, 1, k, 1j, hj, hk)
            yx = _oracle_second_diff(f, point, j, 1j, k, 1, hj, hk)
            yy = _oracle_second_diff(f, point, j, 1j, k, 1j, hj, hk)
            out[j, k] = (xx + 1j * xy - 1j * yx + yy) / 4
    return out


# each array potential of otkahler and its scalar counterpart
_ORACLE_OF = {
    otkahler._u: _oracle_u,
    otkahler._F: _oracle_F,
    otkahler._log_det_h: _oracle_log_det_h,
    otkahler._log_u: _oracle_log_u,
}


@pytest.mark.parametrize("s", [1, 2, 3])
def test_array_stencils_match_the_scalar_oracle_bitwise(s):
    rng = np.random.default_rng(40 + s)
    points = [otkahler._random_point(rng, s, 0.7, 2.0) for _ in range(4)]
    points += [otkahler._random_point(rng, s, 0.1, 10.0) for _ in range(4)]
    for p in points:
        for f, g in _ORACLE_OF.items():
            assert np.array_equal(wirtinger_gradient(f, p), _oracle_gradient(g, p))
            assert np.array_equal(wirtinger_hessian(f, p), _oracle_hessian(g, p))
            assert f(np.array([p.coords()])).tolist() == [g(p)]


@pytest.mark.parametrize("seed", [2, 17])
@pytest.mark.parametrize("s", [1, 2, 3])
def test_verify_ot_report_bytes_match_the_scalar_oracle(s, seed, monkeypatch):
    report = json.dumps(verify_ot_report(s, samples=20, seed=seed))
    monkeypatch.setattr(
        otkahler, "wirtinger_gradient", lambda f, p, step: _oracle_gradient(_ORACLE_OF[f], p, step)
    )
    monkeypatch.setattr(
        otkahler, "wirtinger_hessian", lambda f, p, step: _oracle_hessian(_ORACLE_OF[f], p, step)
    )
    monkeypatch.setattr(otkahler, "u_value", _oracle_u)
    monkeypatch.setattr(
        otkahler,
        "metric_closed_form",
        lambda p: HermitianMatrixSample(p, _oracle_metric(p), "ClosedForm"),
    )
    assert json.dumps(verify_ot_report(s, samples=20, seed=seed)) == report


def test_hessian_evaluates_its_potential_in_bounded_chunks():
    sizes = []

    def spy(coords):
        sizes.append(len(coords))
        return otkahler._u(coords)

    rng = np.random.default_rng(9)
    wirtinger_hessian(spy, otkahler._random_point(rng, 3, 0.7, 2.0))
    assert sizes == [129]  # the distinct points of the s = 3 stencil, in one call
    sizes.clear()
    p = otkahler._random_point(rng, 12, 0.7, 2.0)
    H = wirtinger_hessian(spy, p)
    assert len(sizes) > 1 and max(sizes) <= STENCIL_CHUNK
    assert sum(sizes) == 1 + 8 * 13**2
    assert np.array_equal(H, _oracle_hessian(_oracle_u, p))
