"""Acceptance gate: one test and one printed pass/fail line per criterion.

Each test computes its verdict first, prints a single summary line that
survives pytest's capture, then asserts the individual conditions so a
failure still pinpoints the broken clause. Heavy searches are shared
through module-scoped fixtures. Tolerances are pinned in-line.
"""
from __future__ import annotations

import random
import time

import mpmath
import pytest
import sympy

from spectorus.intpoly import (
    IntPolynomial,
    discriminant,
    factor_oracle,
    parse_poly,
    power_transform,
)
from spectorus.geomlab import verify_torus_report
from spectorus.otkahler import verify_ot_report
from spectorus.searchkit import acceptance_discrepancies, cross_check, search
from spectorus.spectra import (
    irreducible_by_modulus,
    replay_case_even,
    replay_case_odd,
)


def announce(capsys, num: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"\ncriterion {num}: {'PASS' if ok else 'FAIL'} | {detail}", flush=True)


@pytest.fixture(scope="module")
def search_2_10():
    return search(2, 10)


@pytest.fixture(scope="module")
def search_3_10():
    return search(3, 10)


# ------------------------------------------------------------------ criterion 1

@pytest.mark.slow
def test_criterion_1_no_acceptances_above_degree_three(capsys, search_2_10, search_3_10):
    t0 = time.perf_counter()
    reports = [search(d, 10) for d in (4, 5, 6)]
    elapsed = time.perf_counter() - t0
    empty = all(not r.accepted and not r.undecided for r in reports)
    low_nonempty = bool(search_2_10.accepted) and bool(search_3_10.accepted)
    ok = empty and low_nonempty and elapsed < 600
    announce(
        capsys, 1, ok,
        f"degrees 4,5,6 bound 10: "
        f"{sum(len(r.accepted) for r in reports)} accepted, "
        f"{sum(len(r.undecided) for r in reports)} undecided over "
        f"{sum(r.candidate_count for r in reports)} candidates in {elapsed:.1f}s; "
        f"degrees 2,3 accepted counts {len(search_2_10.accepted)}, {len(search_3_10.accepted)}",
    )
    for r in reports:
        assert r.accepted == ()
        assert r.undecided == ()
    assert reports[0].candidate_count == 21**3
    assert reports[1].candidate_count == 21**4
    assert reports[2].candidate_count == 21**5
    assert low_nonempty
    assert elapsed < 600


# ------------------------------------------------------------------ criterion 2

def test_criterion_2_q1_exact_characterization(capsys, search_2_10):
    expected = {IntPolynomial((1, -t, 1)) for t in range(3, 11)}
    got = {e.poly for e in search_2_10.accepted}
    discrepancies = cross_check(search_2_10)
    ok = got == expected and len(got) == 8 and discrepancies == []
    announce(
        capsys, 2, ok,
        f"degree-2 bound-10 accepted set has {len(got)} traces "
        f"{sorted(-p.coeffs[1] for p in got)}; {len(discrepancies)} oracle discrepancies",
    )
    assert got == expected
    assert discrepancies == []


# ------------------------------------------------------------------ criterion 3

def test_criterion_3_q2_exact_characterization(capsys):
    report = search(3, 5)
    expected = set()
    for a in range(-5, 6):
        for b in range(-5, 6):
            P = IntPolynomial((-1, b, a, 1))
            if discriminant(P) < 0 and a + b < 0:
                expected.add(P)
    got = {e.poly for e in report.accepted}
    forbidden = acceptance_discrepancies(cross_check(report, tol=1e-6))
    ok = got == expected and forbidden == []
    announce(
        capsys, 3, ok,
        f"degree-3 bound-5 accepted set: {len(got)} polynomials == "
        f"disc<0 and a+b<0 slice of size {len(expected)}; "
        f"{len(forbidden)} acceptance discrepancies at 1e-6",
    )
    assert got == expected
    assert forbidden == []


# ------------------------------------------------------------------ criterion 4

def test_criterion_4_replay_exactness(capsys, search_2_10, search_3_10):
    entries = list(search_2_10.accepted) + list(search_3_10.accepted)
    passed = 0
    for e in entries:
        if e.profile.q == 2:
            rep = replay_case_even(e.poly, e.profile)
            # Q = mu_A must hold as an exact integer identity, and Q must
            # change sign across the square of the lambda bracket
            good = (
                rep.case == "CaseEven"
                and rep.exact
                and rep.identity_holds
                and rep.contradiction is None
                and rep.constructed_poly == e.poly
                and dict(rep.steps)["lambda_sq_is_root"] == "verified"
            )
        else:
            rep = replay_case_odd(e.poly, e.profile)
            # palindromicity: reverse(P) = P certified exactly
            good = (
                rep.case == "CaseOdd"
                and rep.exact
                and rep.identity_holds
                and rep.contradiction is None
            )
        passed += good
    ok = passed == len(entries) > 0
    announce(
        capsys, 4, ok,
        f"replay exact on {passed}/{len(entries)} accepted polynomials "
        f"(degrees 2 and 3, bound 10)",
    )
    assert passed == len(entries)
    assert entries


# ------------------------------------------------------------------ criterion 5

_x = sympy.symbols("x")


def _precise_roots(P: IntPolynomial) -> list:
    """Oracle-side roots: exact factorization first, so every polyroots call
    sees a squarefree factor and converges quadratically, then multiplicity
    is restored by repetition."""
    poly = sympy.Poly(list(P.coeffs[::-1]), _x)
    out: list = []
    for factor, mult in poly.factor_list()[1]:
        coeffs = [mpmath.mpf(int(c)) for c in factor.all_coeffs()]
        if len(coeffs) == 1:
            continue
        with mpmath.workdps(40):
            rts = mpmath.polyroots(coeffs, maxsteps=100, extraprec=60)
        out.extend(list(rts) * mult)
    return out


def _max_pair_dist(A: list, B: list) -> float:
    assert len(A) == len(B)
    B = list(B)
    worst = 0.0
    for a in A:
        j = min(range(len(B)), key=lambda k: abs(a - B[k]))
        worst = max(worst, float(abs(a - B[j])))
        B.pop(j)
    return worst


def test_criterion_5_power_transform_oracle_equivalence(capsys):
    rng = random.Random(20260814)
    worst = 0.0
    for i in range(1000):
        degree = rng.randint(1, 6)
        P = IntPolynomial(tuple(rng.randint(-9, 9) for _ in range(degree)) + (1,))
        m = i % 4 + 1
        Q = power_transform(P, m)
        powered = [r**m for r in _precise_roots(P)]
        worst = max(worst, _max_pair_dist(_precise_roots(Q), powered))

    exact_pairs = 0
    for _ in range(200):
        dP = rng.randint(1, 3)
        dQ = rng.randint(1, 3)
        P = IntPolynomial(tuple(rng.randint(-9, 9) for _ in range(dP)) + (1,))
        Q = IntPolynomial(tuple(rng.randint(-9, 9) for _ in range(dQ)) + (1,))
        m = rng.randint(1, 4)
        exact_pairs += power_transform(P * Q, m) == power_transform(P, m) * power_transform(Q, m)

    ok = worst <= 1e-8 and exact_pairs == 200
    announce(
        capsys, 5, ok,
        f"1000 random transforms: max root-multiset deviation {worst:.3e} "
        f"(tol 1e-8); multiplicativity exact on {exact_pairs}/200 pairs",
    )
    assert worst <= 1e-8
    assert exact_pairs == 200


# ------------------------------------------------------------------ criterion 6

def test_criterion_6_irreducibility_agreement(capsys, search_2_10, search_3_10):
    entries = list(search_2_10.accepted) + list(search_3_10.accepted)
    both = 0
    for e in entries:
        by_modulus = irreducible_by_modulus(e.poly, e.profile)
        by_factoring = len(factor_oracle(e.poly)) == 1
        both += by_modulus and by_factoring
        assert by_modulus == by_factoring
    ok = both == len(entries) > 0
    announce(
        capsys, 6, ok,
        f"both irreducibility routes agree on {both}/{len(entries)} accepted polynomials",
    )
    assert both == len(entries)


# ------------------------------------------------------------------ criterion 7

def test_criterion_7_mapping_torus_geometry(capsys):
    results = {}
    for text in ("x^2 - 3x + 1", "x^3 - x - 1"):
        results[text] = verify_torus_report(parse_poly(text), samples=100, seed=0)
    ok = all(
        r["residual_invariance"] <= 1e-12
        and r["b_positive_definite"]
        and r["deck_max_rel_deviation"] <= 1e-10
        and r["deck_samples"] == 100
        and r["curvature"]["max_warped_rel_error"] <= 1e-4
        and r["curvature"]["max_flat_abs"] <= 1e-6
        and all(r["passes"].values())
        for r in results.values()
    )
    worst_deck = max(r["deck_max_rel_deviation"] for r in results.values())
    worst_curv = max(r["curvature"]["max_warped_rel_error"] for r in results.values())
    announce(
        capsys, 7, ok,
        f"invariance <= 1e-12, b positive definite, deck deviation {worst_deck:.2e} "
        f"at 100 points, curvature rel error {worst_curv:.2e}, flat blocks vanish",
    )
    for text, r in results.items():
        assert r["residual_invariance"] <= 1e-12, text
        assert r["b_positive_definite"], text
        assert r["deck_max_rel_deviation"] <= 1e-10, text
        assert r["curvature"]["max_warped_rel_error"] <= 1e-4, text
        assert r["curvature"]["max_flat_abs"] <= 1e-6, text
        assert all(r["passes"].values()), text


# ------------------------------------------------------------------ criterion 8

def test_criterion_8_potential_formula_suite(capsys):
    t0 = time.perf_counter()
    reports = {s: verify_ot_report(s, samples=100, seed=s) for s in (1, 2, 3)}
    elapsed = time.perf_counter() - t0
    ok = elapsed < 60 and all(
        r["max_dev_first_derivatives"] <= 1e-8
        and r["max_dev_metric"] <= 1e-6
        and r["max_rel_dev_determinant"] <= 1e-10
        and r["exact_determinant_identity"]
        and r["max_dev_ricci"] <= 1e-6
        and r["metric_positive_definite"]
        and r["ricci_negative_definite"]
        and all(r["passes"].values())
        for r in reports.values()
    )
    announce(
        capsys, 8, ok,
        f"s in {{1,2,3}} x 100 points in {elapsed:.1f}s: first derivatives <= 1e-8, "
        f"metric <= 1e-6, determinant <= 1e-10 and exact, Ricci <= 1e-6, "
        f"h positive and Ricci negative definite everywhere",
    )
    for s, r in reports.items():
        assert r["max_dev_first_derivatives"] <= 1e-8, s
        assert r["max_dev_metric"] <= 1e-6, s
        assert r["max_rel_dev_determinant"] <= 1e-10, s
        assert r["exact_determinant_identity"], s
        assert r["max_dev_ricci"] <= 1e-6, s
        assert r["metric_positive_definite"], s
        assert r["ricci_negative_definite"], s
        assert all(r["passes"].values()), s
    assert elapsed < 60


# ------------------------------------------------------------------ criterion 9

def test_criterion_9_worker_determinism(capsys):
    single = search(5, 6, workers=1)
    pooled = search(5, 6, workers=8)
    a = single.canonical_json().encode()
    b = pooled.canonical_json().encode()
    ok = a == b
    announce(
        capsys, 9, ok,
        f"degree-5 bound-6 reports byte-identical across 1 and 8 workers "
        f"({len(a)} bytes, {single.candidate_count} candidates)",
    )
    assert a == b
