"""Exhaustive search: enumeration, sharded determinism, reports, oracle cross-check."""

import dataclasses
import hashlib
import json
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
import sympy

from spectorus.intpoly import IntPolynomial, discriminant, parse_poly
from spectorus.exactnum import sign_at
from spectorus.rootcert import (
    DEFAULT_PRECISION_CEILING,
    disk_root_count,
    squarefree_by_small_primes,
    variations_above_one,
)
from spectorus.spectra import (
    EXACT_Q1,
    EXACT_Q2,
    MODULUS_SEPARATION,
    REJECTED,
    UNDECIDED,
    SpectralProfile,
    _screen_verdict,
    _sign_screen,
)
from spectorus import searchkit, spectra
from spectorus.searchkit import (
    SearchReport,
    acceptance_discrepancies,
    cross_check,
    search,
)


def counts_consistent(report: SearchReport) -> bool:
    """Every candidate of the box is accepted, rejected or undecided, once."""
    decided = len(report.accepted) + sum(report.rejected.values()) + len(report.undecided)
    return decided == report.candidate_count


# ---------------------------------------------------------------- enumeration

def candidates(degree, bound, det_one=True):
    """The candidates of the box as search walks them, in enumeration order."""
    leads = range(-bound, bound + 1)
    return searchkit._polys(searchkit._grids(degree, bound, det_one, leads))


def test_enumeration_counts():
    boxes = ((2, 3, True, 7), (3, 1, True, 9), (5, 10, True, 21**4), (3, 1, False, 18))
    for degree, bound, det_one, size in boxes:
        assert sum(1 for _ in candidates(degree, bound, det_one)) == size
        assert searchkit._box_size(degree, bound, det_one, "search") == size


def test_enumeration_shape_and_constant_term():
    for P in candidates(3, 1):
        assert P.degree == 3
        assert P.is_monic
        assert P.coeffs[0] == -1
    for P in candidates(4, 1):
        assert P.coeffs[0] == 1
    consts = {P.coeffs[0] for P in candidates(3, 1, det_one=False)}
    assert consts == {-1, 1}


def test_enumeration_is_lexicographic_in_descending_coefficients():
    polys = list(candidates(3, 1))
    tuples = [p.coeffs[::-1][1:] for p in polys]  # (c2, c1, c0) per candidate
    assert tuples == sorted(tuples)
    assert polys[0] == IntPolynomial((-1, -1, -1, 1))
    assert polys[-1] == IntPolynomial((-1, 1, 1, 1))


def test_enumeration_validates_arguments():
    with pytest.raises(ValueError):
        search(1, 3)
    with pytest.raises(ValueError):
        search(3, 0)


def test_enumeration_refuses_a_box_int64_cannot_index():
    # 2 * bound + 1 candidates at degree 2: 2**63 + 1 is refused, 2**63 - 1 is not
    with pytest.raises(ValueError, match="fewer than 2\\*\\*63 candidates"):
        searchkit._box_size(2, 2**62, True, "search")
    bound = 2**62 - 1
    assert searchkit._box_size(2, bound, True, "search") == 2**63 - 1
    first = next(searchkit._polys(searchkit._grids(2, bound, True, range(-bound, bound + 1))))
    assert first == IntPolynomial((1, -(2**62) + 1, 1))
    with pytest.raises(ValueError):
        search(3, 2**31)


# ---------------------------------------------------------------- search runs

def test_search_degree2_accepted_set():
    report = search(2, 10)
    assert report.candidate_count == 21
    assert counts_consistent(report)
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
    for P in candidates(3, 4):
        a, b = P.coeffs[2], P.coeffs[1]
        expected = discriminant(P) < 0 and a + b < 0
        assert (P in accepted) == expected, (a, b)


def test_search_degree4_small_bound_all_rejected():
    report = search(4, 2)
    assert report.candidate_count == 125
    assert report.accepted == ()
    assert report.undecided == ()
    assert counts_consistent(report)
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


def test_search_starts_at_most_one_worker_per_shard(monkeypatch):
    # bound 1 has 3 shards; the fake pool records its size and maps in this
    # process, so no process starts
    sizes = []

    class FakePool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return [fn(x) for x in items]

    monkeypatch.setattr(searchkit, "get_context", lambda method: SimpleNamespace(Pool=FakePool))
    wide = search(2, 1, workers=64)
    assert sizes == [3]
    assert wide.canonical_json() == search(2, 1, workers=1).canonical_json()


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


# the same for the accepted path of gl boxes (|P(0)| = 1): gl 2/30 holds 30
# IntervalCertified entries, which reach the enclosures through _decide's
# Vieta step with constant term -1
GL_CANONICAL_SHA256 = {
    (2, 30): "8ede3113b3f6327e8ebd72b32f0f2c09a910f97e36e6e0d03bbe3533e75f4c1c",
    (3, 5): "b1aa3c4155d8bd74a37ac500a3a09231dcc74fc5d48036dd857a31a5ae14a3b0",
}


@pytest.mark.parametrize("degree, bound", GL_CANONICAL_SHA256)
def test_gl_canonical_json_bytes_are_pinned(degree, bound):
    report = search(degree, bound, det_one=False)
    if degree == 2:
        certified = [e for e in report.accepted if e.profile.certification == "IntervalCertified"]
        assert len(certified) == 30
    text = report.canonical_json()
    assert hashlib.sha256(text.encode()).hexdigest() == GL_CANONICAL_SHA256[degree, bound]


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
    assert counts_consistent(report)
    assert json.loads(report.canonical_json())["undecided"] == [target.to_json()]


# ---------------------------------------------------------------- array route

ARRAY_BOXES = [
    (4, 8, True), (5, 4, True), (6, 3, True), (7, 1, True), (8, 1, True), (9, 1, True),
    (4, 3, False), (5, 2, False), (6, 2, False), (9, 1, False),
]


def classify_shard(args):
    """_run_shard's reference: classify on each candidate of the shard."""
    degree, bound, det_one, lead, max_bits = args
    accepted, reasons, undecided = [], Counter(), []
    for P in searchkit._polys(searchkit._grids(degree, bound, det_one, range(lead, lead + 1))):
        profile = spectra.classify(P, allow_gl=not det_one, max_precision_bits=max_bits)
        if profile.certification == REJECTED:
            reasons[profile.reason] += 1
        elif profile.certification == UNDECIDED:
            undecided.append(P)
        else:
            accepted.append(searchkit.AcceptedEntry(P, profile, searchkit._replay_for(P, profile)))
    return accepted, reasons, undecided


@pytest.mark.parametrize("degree, bound, det_one", ARRAY_BOXES)
def test_array_route_report_equals_the_scalar_loop(monkeypatch, degree, bound, det_one):
    arrays = search(degree, bound, det_one=det_one).canonical_json()
    monkeypatch.setattr(searchkit, "_run_shard", classify_shard)
    scalar = search(degree, bound, det_one=det_one).canonical_json()
    assert arrays == scalar


def assert_scalar_stages(rows, table):
    """Each (coeffs, screen code, squarefree flag, count above 1, count below -1)
    row of the array stages equals the scalar stage of classify."""
    for coeffs, screen, squarefree, above, below in rows:
        assert table[screen] == _screen_verdict(len(coeffs) - 1, *_sign_screen(coeffs)), coeffs
        assert squarefree == squarefree_by_small_primes(coeffs), coeffs
        assert above == variations_above_one(coeffs), coeffs
        mirrored = [-c if j % 2 else c for j, c in enumerate(coeffs)]
        assert below == variations_above_one(mirrored), coeffs


@pytest.mark.parametrize("degree, bound", [(5, 2), (6, 2)])
def test_array_route_reaches_the_stage_order_only_through_decide(monkeypatch, degree, bound):
    monkeypatch.setattr(searchkit, "_run_shard", classify_shard)
    scalar = search(degree, bound, det_one=False).canonical_json()
    monkeypatch.undo()

    def refuse(P, **kwargs):
        raise AssertionError("the array route called classify")

    monkeypatch.setattr(searchkit, "classify", refuse)
    assert search(degree, bound, det_one=False).canonical_json() == scalar


@pytest.mark.parametrize("degree, bound, det_one", [(5, 4, True), (5, 2, False)])
def test_array_route_skips_the_sturm_chain_on_descartes_one_zero(monkeypatch, degree, bound, det_one):
    # a row that a small prime proves squarefree, with one sign variation
    # above 1 and none below -1, is decided without a chain
    chained = []
    chain = spectra.sturm_chain

    def recording(coeffs):
        chained.append(tuple(coeffs))
        return chain(coeffs)

    monkeypatch.setattr(spectra, "sturm_chain", recording)
    search(degree, bound, det_one=det_one)
    assert chained
    for coeffs in chained:
        mirrored = [-c if j % 2 else c for j, c in enumerate(coeffs)]
        counts = variations_above_one(coeffs), variations_above_one(mirrored)
        assert not (squarefree_by_small_primes(coeffs) and counts == (1, 0)), coeffs


@pytest.mark.parametrize("degree, bound, det_one", [(5, 4, True), (5, 2, False)])
def test_array_stages_equal_the_scalar_stages(degree, bound, det_one):
    table = searchkit._screen_table(degree)
    rows = []
    for lead in range(-bound, bound + 1):
        for grid in searchkit._grids(degree, bound, det_one, range(lead, lead + 1)):
            assert len(grid) <= searchkit._ORACLE_CHUNK
            stages = searchkit._array_stages(grid)
            rows += zip(grid.tolist(), *(s.tolist() for s in stages))
    assert [tuple(r[0]) for r in rows] == [
        P.coeffs for P in candidates(degree, bound, det_one)
    ]
    assert_scalar_stages(rows, table)


def int64_edge_rows(degree):
    """The rows whose coefficients of P(X + 1) or P(-X - 1) are largest at
    bound 2**(63 - n) - 1, where bound * 2**n still fits int64."""
    largest = 2 ** (63 - degree) - 1
    return [
        [1] + [largest] * (degree - 1) + [1],
        [1] + [largest * (-1) ** i for i in range(1, degree)] + [1],
        [-1] + [-largest] * (degree - 1) + [1],
    ]


@pytest.mark.parametrize("degree", [4, 20])
def test_int64_exactness_predicate_edge(degree):
    # _box_size admits no box whose bound reaches 2**(63 - n)
    for n in range(4, 41):
        for det_one in (True, False):
            with pytest.raises(ValueError):
                searchkit._box_size(n, 2 ** (63 - n), det_one, "search")
    # at the edge the int64 stages still match the scalar ones
    extreme = int64_edge_rows(degree)
    table = searchkit._screen_table(degree)
    stages = searchkit._array_stages(np.array(extreme, dtype=np.int64))
    assert_scalar_stages(zip(extreme, *(s.tolist() for s in stages)), table)


def sympy_stages(coeffs):
    """sign P(1), sign P(-1), and the sign variations of P(X + 1) and of
    P(-X - 1), by sympy."""
    x = sympy.Symbol("x")
    P = sympy.Poly(coeffs[::-1], x)

    def variations(poly):
        signs = [sympy.sign(c) for c in poly.shift(1).all_coeffs() if c]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    mirrored = P.compose(sympy.Poly(-x, x))  # P(-X)
    return sympy.sign(P.eval(1)), sympy.sign(P.eval(-1)), variations(P), variations(mirrored)


def test_array_stages_match_sympy():
    # an independent reference for the stages the array route shares with
    # classify, on seeded rows of the box-reject boxes and on the int64 edge
    rng = np.random.default_rng(28)
    grids = [np.array(int64_edge_rows(degree), dtype=np.int64) for degree in (4, 20)]
    for degree, bound in ((4, 8), (5, 4), (6, 3)):
        rows = np.concatenate(list(searchkit._grids(degree, bound, True, range(-bound, bound + 1))))
        grids.append(rows[rng.choice(len(rows), 60, replace=False)])
    for grid in grids:
        screen, _, above, below = searchkit._array_stages(grid)
        for coeffs, code, n_above, n_below in zip(grid.tolist(), screen, above, below):
            assert (code // 3 - 1, code % 3 - 1, n_above, n_below) == sympy_stages(coeffs), coeffs


def test_array_stages_leave_their_grid_unchanged():
    # the stages read the grid's columns as views: an in-place step would
    # rewrite the candidates the later stages and the scalar route read
    for degree, bound in ((4, 8), (5, 4), (6, 3)):
        grid = next(searchkit._grids(degree, bound, True, range(0, 1)))
        kept = grid.copy()
        searchkit._array_stages(grid)
        searchkit._first_radii(grid)
        assert np.array_equal(grid, kept)


def test_array_route_equals_classify_past_degree_21(monkeypatch):
    # the first 128 rows of a shard of 22/1, whose box has 3**21 rows, and the
    # stages on rows of degree 40, the highest degree _box_size admits
    real_grids = searchkit._grids
    monkeypatch.setattr(searchkit, "_grids", lambda *box: iter([next(real_grids(*box))[:128]]))
    shard = (22, 1, True, -1, DEFAULT_PRECISION_CEILING)
    accepted, reasons, undecided = searchkit._run_shard(shard)
    expected = classify_shard(shard)
    assert [e.to_json() for e in accepted] == [e.to_json() for e in expected[0]]
    assert (reasons, undecided) == expected[1:]
    assert sum(reasons.values()) == 128
    grid = next(real_grids(40, 1, True, range(-1, 0)))[:128]
    stages = searchkit._array_stages(grid)
    table = searchkit._screen_table(40)
    assert_scalar_stages(zip(grid.tolist(), *(s.tolist() for s in stages)), table)


def test_squarefree_flags_equal_the_per_row_proof():
    # the 33 grids of one box-reject round, one shard each, a shuffled one, and
    # the 22/1 slice above: equal residue rows share one lookup wherever they sit
    grids = [
        grid
        for degree, bound in ((4, 8), (5, 4), (6, 3))
        for lead in range(-bound, bound + 1)
        for grid in searchkit._grids(degree, bound, True, range(lead, lead + 1))
    ]
    assert len(grids) == 33
    grids.append(np.random.default_rng(33).permutation(grids[-1]))
    grids.append(next(searchkit._grids(22, 1, True, range(-1, 0)))[:128])
    for grid in grids:
        want = [squarefree_by_small_primes(tuple(row)) for row in grid.tolist()]
        assert searchkit._squarefree_flags(grid).tolist() == want
        assert not all(want) and any(want)


def test_disk_route_undecided_entries_keep_enumeration_order(monkeypatch):
    # two disk-route candidates of 4/2, in the shards of leads -2 and 0
    targets = {IntPolynomial((1, 0, -2, -2, 1)), IntPolynomial((1, -2, -1, 0, 1))}
    real_disk_search = spectra._disk_search
    stubbed = []

    def stub(P, q, max_bits):
        if P in targets:
            stubbed.append(P)
            return SpectralProfile(P, q, UNDECIDED, reason="precision_ceiling")
        return real_disk_search(P, q, max_bits)

    real_first_radii = searchkit._first_radii

    def held_out(grid):  # the array stage leaves the targets open for the stub
        found = real_first_radii(grid)
        found[np.array([IntPolynomial(tuple(r)) in targets for r in grid.tolist()], dtype=bool)] = 0
        return found

    monkeypatch.setattr(spectra, "_disk_search", stub)
    monkeypatch.setattr(searchkit, "_first_radii", held_out)
    in_order = tuple(P for P in candidates(4, 2) if P in targets)
    reports = [search(4, 2, workers=1), search(4, 2, workers=3)]
    assert set(stubbed) == targets
    for report in reports:
        assert report.undecided == in_order
        assert counts_consistent(report)
        assert sum(report.rejected.values()) == 125 - 2
        listed = json.loads(report.canonical_json())["undecided"]
        assert listed == [P.to_json() for P in in_order]
    assert reports[0].canonical_json() == reports[1].canonical_json()


@pytest.mark.parametrize(
    "degree, bound, det_one, lead",
    [(6, 3, True, None), (5, 4, True, None), (4, 8, True, None), (6, 2, False, None), (6, 10, True, 0)],
    ids=["6/3", "5/4", "4/8", "gl-6/2", "6/10-lead-0"],
)
def test_first_radii_agree_with_the_disk_search(monkeypatch, degree, bound, det_one, lead):
    # every disk-route row: a row the array stage rejects gets the same count
    # from the scalar walk at 1/2 or 3/4, and a row it leaves open ends elsewhere
    seen = []
    real_first_radii = searchkit._first_radii

    def recording(grid):
        found = real_first_radii(grid)
        seen.extend(zip(grid.tolist(), found.tolist()))
        return found

    monkeypatch.setattr(searchkit, "_first_radii", recording)
    if lead is None:
        search(degree, bound, det_one=det_one)
    else:
        searchkit._run_shard((degree, bound, det_one, lead, DEFAULT_PRECISION_CEILING))
    rungs = Counter()
    for coeffs, count in seen:
        P = IntPolynomial(tuple(coeffs))
        profile = spectra._disk_search(P, degree - 1, DEFAULT_PRECISION_CEILING)
        radius = profile.detail and profile.detail.split(" < ")[1]
        if count:
            assert profile.reason == MODULUS_SEPARATION, P
            assert profile.detail == f"{count} root{'s' * (count > 1)} in |z| < {radius} < 1/lambda"
            assert radius in ("1/2", "3/4"), P
            rungs[radius] += 1
        else:
            assert radius not in ("1/2", "3/4"), P
    assert rungs["1/2"] and rungs["3/4"] and len(seen) > sum(rungs.values())


def test_first_radii_equal_the_first_two_probes_row_for_row():
    # _disk_search's opening on P(2**q) > 0: a count at 1/2, then at 3/4 when
    # P((4/3)**q) > 0, the first count of at least one root deciding
    rng = np.random.default_rng(27)
    for n in (4, 5, 6):
        q = n - 1
        rows = rng.integers(-6, 7, (600, n + 1))
        rows[:, 0] = rng.choice((-1, 1), len(rows))
        rows[:, n] = 1
        rows[::2, n] = 2**n * rows[::2, 0]  # gamma = 0 in the first step at 1/2
        expected, zeros = [], 0
        for r in rows.tolist():
            found = 0
            for u, v in ((1, 2), (3, 4)):
                if sign_at(r, Fraction(v**q, u**q)) <= 0:
                    break
                count = disk_root_count(r, u, v)
                zeros += count is None
                if count:
                    found = count
                    break
            expected.append(found)
        assert searchkit._first_radii(rows).tolist() == expected
        assert zeros and 0 in expected and any(expected)


def test_first_radii_run_up_to_degree_8(monkeypatch):
    # past degree 8 the disk-route rows skip the array rungs, so the walk of
    # spectra._disk_search, which divides its counts by the content, makes
    # the counts at 3/4 that _first_radii would have made
    seen, walked = [], []
    real_first_radii, real_disk_search = searchkit._first_radii, spectra._disk_search

    def recording(grid):
        seen.extend(grid.tolist())
        return real_first_radii(grid)

    def walking(P, q, max_bits):
        profile = real_disk_search(P, q, max_bits)
        walked.append(profile.detail)
        return profile

    monkeypatch.setattr(searchkit, "_first_radii", recording)
    monkeypatch.setattr(spectra, "_disk_search", walking)
    searchkit._run_shard((8, 1, True, 0, DEFAULT_PRECISION_CEILING))
    assert seen
    seen.clear()
    walked.clear()
    searchkit._run_shard((9, 1, True, 0, DEFAULT_PRECISION_CEILING))
    assert not seen
    assert any(detail.endswith("in |z| < 3/4 < 1/lambda") for detail in walked)


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
    for P in candidates(report.degree, report.coeff_bound, report.det_constraint):
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
    polys = list(candidates(3, 50))
    assert len(polys) == 10_201 > 2 * searchkit._ORACLE_CHUNK
    done = 0
    for grid in searchkit._grids(3, 50, True, range(-50, 51)):
        assert len(grid) <= searchkit._ORACLE_CHUNK
        for P, row in zip(polys[done : done + len(grid)], searchkit._oracle_roots(grid)):
            ref = np.array([complex(r) for r in np.roots(P.coeffs[::-1])])
            assert row.tobytes() == ref.tobytes(), P
        done += len(grid)
    assert done == len(polys)


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
