"""Exhaustive search: enumeration, sharded determinism, reports, oracle cross-check."""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from spectorus.intpoly import IntPolynomial, discriminant, parse_poly
from spectorus.spectra import EXACT_Q1, EXACT_Q2, UNDECIDED, SpectralProfile
from spectorus import searchkit
from spectorus.searchkit import (
    SearchReport,
    acceptance_discrepancies,
    cross_check,
    enumerate_candidates,
    search,
)


# ---------------------------------------------------------------- enumeration

def test_enumeration_counts():
    assert sum(1 for _ in enumerate_candidates(2, 3)) == 7
    assert sum(1 for _ in enumerate_candidates(3, 1)) == 9
    assert sum(1 for _ in enumerate_candidates(5, 10)) == 21 ** 4
    assert sum(1 for _ in enumerate_candidates(3, 1, det_one=False)) == 18


def test_enumeration_shape_and_constant_term():
    for P in enumerate_candidates(3, 1):
        assert P.degree == 3
        assert P.is_monic
        assert P.coeffs[0] == -1
    for P in enumerate_candidates(4, 1):
        assert P.coeffs[0] == 1
    consts = {P.coeffs[0] for P in enumerate_candidates(3, 1, det_one=False)}
    assert consts == {-1, 1}


def test_enumeration_is_lexicographic_in_descending_coefficients():
    polys = list(enumerate_candidates(3, 1))
    tuples = [p.coeffs[::-1][1:] for p in polys]  # (c2, c1, c0) per candidate
    assert tuples == sorted(tuples)
    assert polys[0] == IntPolynomial((-1, -1, -1, 1))
    assert polys[-1] == IntPolynomial((-1, 1, 1, 1))


def test_enumeration_validates_arguments():
    with pytest.raises(ValueError):
        list(enumerate_candidates(1, 3))
    with pytest.raises(ValueError):
        list(enumerate_candidates(3, 0))


# ---------------------------------------------------------------- search runs

def test_search_degree2_accepted_set():
    report = search(2, 10)
    assert report.candidate_count == 21
    assert report.counts_consistent()
    accepted = {e.poly for e in report.accepted}
    assert accepted == {IntPolynomial((1, -t, 1)) for t in range(3, 11)}
    for e in report.accepted:
        assert e.profile.certification == EXACT_Q1
        assert e.replay.identity_holds
        assert e.replay.contradiction is None
    assert len(report.undecided) == 0


def test_search_degree3_accepted_pairs_at_bound3():
    report = search(3, 3)
    assert report.candidate_count == 49
    pairs = {(e.poly.coeffs[2], e.poly.coeffs[1]) for e in report.accepted}
    assert pairs == {
        (-3, -3), (-3, -2), (-3, -1), (-3, 0), (-3, 1), (-3, 2),
        (-2, -3), (-2, -2), (-2, -1), (-2, 0), (-2, 1),
        (-1, -2), (-1, -1), (-1, 0),
        (0, -1),
    }
    for e in report.accepted:
        assert e.profile.certification == EXACT_Q2
        assert e.replay.identity_holds


def test_search_degree3_slice_law():
    # on this slice the exact test IS the defining condition
    report = search(3, 4)
    accepted = {e.poly for e in report.accepted}
    for P in enumerate_candidates(3, 4):
        a, b = P.coeffs[2], P.coeffs[1]
        expected = discriminant(P) < 0 and a + b < 0
        assert (P in accepted) == expected, (a, b)


def test_search_degree4_small_bound_all_rejected():
    report = search(4, 2)
    assert report.candidate_count == 125
    assert report.accepted == ()
    assert report.undecided == ()
    assert report.counts_consistent()
    assert sum(report.rejected.values()) == 125
    vocabulary = {
        "wrong_constant_term", "not_squarefree", "boundary_root",
        "expanding_root_count", "root_below_minus_one", "real_root_layout",
        "modulus_separation", "precision_ceiling",
    }
    assert set(report.rejected) <= vocabulary


def test_search_degree7_small_bound_nothing_accepted():
    report = search(7, 1)
    assert report.candidate_count == 729
    assert report.accepted == ()
    assert report.undecided == ()


def test_search_monotone_in_bound():
    small = {e.poly for e in search(3, 2).accepted}
    large = {e.poly for e in search(3, 4).accepted}
    assert small <= large


# ---------------------------------------------------------------- determinism

def test_search_reports_identical_across_worker_counts():
    solo = search(4, 1, workers=1)
    multi = search(4, 1, workers=3)
    assert solo.canonical_json() == multi.canonical_json()
    assert solo.to_json() == multi.to_json()


def test_canonical_json_excludes_wall_time():
    report = search(2, 3)
    text = report.canonical_json()
    assert "wall_time" not in text
    assert report.wall_time > 0
    parsed = json.loads(text)
    assert parsed["degree"] == 2
    assert parsed["candidate_count"] == 7


# the report bytes of the benchmark boxes, pinned: a change that moves any
# verdict, enclosure, lambda interval or replay step of these moves a hash
CANONICAL_SHA256 = {
    (4, 8): "7258da223b8a570aeb1aaaff75f215fcb3c2c8da1d28c3d8b0e1321786839256",
    (5, 4): "de340f566eccf24721f52c9f1179871fd5792972ece9a3fcbe8c0aeb21b1284f",
    (6, 3): "d4039967f6af8dda3e6bbb93e98ee218d31bd159b0f2feb888e5cebe6bb9b23b",
    (2, 400): "26f7826e1f3088ef66c3d294312c2b6bb783c4c00cacafe46dc3465eee3ee1df",
    (3, 25): "25e8ca57c4a98a58b919ff56dbaa99993987a83eb656a8cd0788f7957483f5ec",
    (3, 40): "47c624875f602cef70689fba32134675922bf48dba959358e0af0f5e3940fd53",
}


@pytest.mark.parametrize("degree, bound", CANONICAL_SHA256)
def test_canonical_json_bytes_are_pinned(degree, bound):
    text = search(degree, bound).canonical_json()
    assert hashlib.sha256(text.encode()).hexdigest() == CANONICAL_SHA256[degree, bound]


def test_accepted_entries_serialize_with_profiles_and_replays():
    report = search(2, 4)
    entry = report.to_json()["accepted"][0]
    assert set(entry) == {"poly", "q", "lambda", "certification", "profile", "replay"}
    assert entry["q"] == 1
    assert entry["replay"]["identity_holds"] is True


def test_csv_summary_one_row_per_accepted():
    report = search(2, 10)
    lines = report.to_csv().splitlines()
    assert lines[0] == "coefficients,q,lambda,certification"
    assert len(lines) == 1 + 8
    # enumeration order: leading interior coefficient ascending, so t=10 first
    assert lines[1] == "1 -10 1,1,9.89897948556636,ExactQ1"


# ---------------------------------------------------------------- undecided path

def test_undecided_profiles_propagate_into_report(monkeypatch):
    target = IntPolynomial((1, -3, 1))
    real_classify = searchkit.classify

    def stub(P, **kwargs):
        if P == target:
            return SpectralProfile(
                poly=P, q=P.degree - 1, certification=UNDECIDED,
                reason="precision_ceiling", detail=None,
            )
        return real_classify(P, **kwargs)

    monkeypatch.setattr(searchkit, "classify", stub)
    report = search(2, 3, workers=1)
    assert report.undecided == (target,)
    assert report.counts_consistent()
    assert json.loads(report.canonical_json())["undecided"] == [target.to_json()]


# ---------------------------------------------------------------- cross-check

def test_cross_check_clean_on_exact_slices():
    for degree, bound in ((2, 10), (3, 3)):
        report = search(degree, bound)
        discrepancies = cross_check(report)
        assert discrepancies == []
        assert acceptance_discrepancies(discrepancies) == []


def np_roots_cross_check(report: SearchReport, tol: float = 1e-6) -> list[dict]:
    """Reference cross-check: one np.roots call per candidate."""
    accepted_set = {e.poly for e in report.accepted}
    undecided_set = set(report.undecided)
    out = []
    for P in enumerate_candidates(
        report.degree, report.coeff_bound, report.det_constraint
    ):
        roots = [complex(r) for r in np.roots(P.coeffs[::-1])]
        oracle_ok, near = searchkit._oracle_verdict(roots, tol)
        verdict = (
            "accepted"
            if P in accepted_set
            else "undecided" if P in undecided_set else "rejected"
        )
        if oracle_ok != (verdict == "accepted"):
            out.append(
                {
                    "poly": P.to_json(),
                    "report": verdict,
                    "oracle": "accepted" if oracle_ok else "rejected",
                    "near_boundary": near,
                    "allowed": bool(near and verdict != "accepted"),
                }
            )
    return out


def tampered_2_10():
    report = search(2, 10)
    victim = report.accepted[2]
    tampered = dataclasses.replace(
        report,
        accepted=tuple(e for e in report.accepted if e is not victim),
        rejected={**report.rejected, "tampered": 1},
    )
    return tampered, victim


def test_cross_check_flags_tampered_report():
    tampered, victim = tampered_2_10()
    discrepancies = cross_check(tampered)
    assert len(discrepancies) == 1
    d = discrepancies[0]
    assert d["poly"] == victim.poly.to_json()
    assert d["report"] == "rejected"
    assert d["oracle"] == "accepted"
    assert d["near_boundary"] is False
    assert d["allowed"] is False
    assert acceptance_discrepancies(discrepancies) == discrepancies


def test_cross_check_rejects_big_degrees():
    report = search(7, 1)
    with pytest.raises(ValueError):
        cross_check(report)


def test_cross_check_respects_det_constraint_flag():
    report = search(2, 2, det_one=False)
    assert cross_check(report) == []
    assert report.candidate_count == 10


def test_batched_oracle_roots_are_bitwise_np_roots_beyond_one_chunk():
    polys = list(enumerate_candidates(3, 50))
    assert len(polys) == 10_201 > 2 * searchkit._ORACLE_CHUNK
    for start in range(0, len(polys), searchkit._ORACLE_CHUNK):
        chunk = polys[start : start + searchkit._ORACLE_CHUNK]
        for P, row in zip(chunk, searchkit._oracle_roots(chunk)):
            ref = np.array([complex(r) for r in np.roots(P.coeffs[::-1])])
            assert row.tobytes() == ref.tobytes(), P


def test_cross_check_matches_per_candidate_np_roots():
    tampered, _ = tampered_2_10()
    cubic = search(3, 5)
    undecided = dataclasses.replace(
        cubic,
        accepted=cubic.accepted[1:],
        undecided=(cubic.accepted[0].poly,),
    )
    # cross_check reads only the box and the accepted and undecided sets, so a
    # report with no acceptances lists every oracle acceptance of a 3-chunk box
    empty_3_50 = SearchReport(3, 50, True, (), {}, (), 10_201, 0.0)
    cases = [
        (tampered, 1e-6, 1),
        (cubic, 1e-2, 21),  # near-boundary disagreements, all allowed
        (undecided, 1e-6, 1),
        (empty_3_50, 1e-6, 954),
    ]
    for report, tol, size in cases:
        got = cross_check(report, tol)
        assert got == np_roots_cross_check(report, tol)
        assert len(got) == size
