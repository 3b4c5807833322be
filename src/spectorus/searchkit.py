"""Exhaustive certified search over coefficient-bounded candidate polynomials.

Enumerates every monic integer polynomial of a given degree with interior
coefficients in [-bound, bound] and unit constant term, classifies each one,
and aggregates the verdicts into a deterministic report. Work is sharded by
the leading interior coefficient so that any worker count produces the same
report bytes; the only shared step is an ordered merge. From degree 4 on, a
shard runs classify's sign screens, small-prime squarefree proof and
Descartes counts as int64 array operations, with the same verdicts; only the
candidates those leave open become IntPolynomial objects.
"""
from __future__ import annotations

import csv
import io
import json
import time
from collections import Counter
from dataclasses import dataclass
from itertools import islice, product
from math import comb
from multiprocessing import get_context

import numpy as np

from .intpoly import IntPolynomial
from .rootcert import (
    _SQUAREFREE_PRIMES,
    DEFAULT_PRECISION_CEILING,
    MIN_PRECISION_BITS,
    _squarefree_mod,
)
from .spectra import (
    REJECTED,
    UNDECIDED,
    SpectralProfile,
    _disk_search,
    _screen_verdict,
    classify,
    replay_case_even,
    replay_case_odd,
)


def enumerate_candidates(degree: int, bound: int, det_one: bool = True):
    """Yield candidate polynomials in lexicographic coefficient order.

    The coefficient tuple is (c_{n-1}, ..., c_1, c_0), highest interior
    coefficient first; det_one fixes c_0 = (-1)**degree, otherwise c_0 runs
    over {-1, +1}. No other pruning: the point of the search is exhaustive
    evidence over the full box.
    """
    if degree < 2 or bound < 1:
        raise ValueError("enumerate_candidates requires degree >= 2 and bound >= 1")
    for lead in range(-bound, bound + 1):
        yield from _shard_candidates(degree, bound, det_one, lead)


def _constant_terms(degree: int, det_one: bool) -> tuple[int, ...]:
    return ((-1) ** degree,) if det_one else (-1, 1)


def _shard_candidates(degree: int, bound: int, det_one: bool, lead: int):
    consts = _constant_terms(degree, det_one)
    span = range(-bound, bound + 1)
    if degree == 2:
        for c0 in consts:
            yield IntPolynomial((c0, lead, 1))
        return
    for rest in product(span, repeat=degree - 2):
        for c0 in consts:
            # ascending order: constant, c_1, ..., c_{n-1}, leading 1
            yield IntPolynomial((c0,) + rest[::-1] + (lead, 1))


@dataclass(frozen=True)
class AcceptedEntry:
    poly: IntPolynomial
    profile: SpectralProfile
    replay: object  # ReplayReport

    def to_json(self) -> dict:
        return {
            "poly": self.poly.to_json(),
            "q": self.profile.q,
            "lambda": self.profile.lambda_float,
            "certification": self.profile.certification,
            "profile": self.profile.to_json(),
            "replay": self.replay.to_json(),
        }


@dataclass(frozen=True)
class SearchReport:
    """Aggregated search outcome; canonical JSON excludes wall_time."""

    degree: int
    coeff_bound: int
    det_constraint: bool
    accepted: tuple[AcceptedEntry, ...]
    rejected: dict  # reason -> count
    undecided: tuple[IntPolynomial, ...]
    candidate_count: int
    wall_time: float

    def counts_consistent(self) -> bool:
        return (
            len(self.accepted) + sum(self.rejected.values()) + len(self.undecided)
        ) == self.candidate_count

    def to_json(self) -> dict:
        return {
            "degree": self.degree,
            "coeff_bound": self.coeff_bound,
            "det_constraint": self.det_constraint,
            "accepted": [e.to_json() for e in self.accepted],
            "rejected": {k: self.rejected[k] for k in sorted(self.rejected)},
            "undecided": [p.to_json() for p in self.undecided],
            "candidate_count": self.candidate_count,
        }

    def canonical_json(self) -> str:
        # wall_time is reporting-only: it would break byte-identity across runs
        return json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["coefficients", "q", "lambda", "certification"])
        for e in self.accepted:
            lam = e.profile.lambda_float
            w.writerow(
                [
                    " ".join(str(c) for c in e.poly.coeffs),
                    e.profile.q,
                    "" if lam is None else f"{lam:.15g}",
                    e.profile.certification,
                ]
            )
        return buf.getvalue()


def _replay_for(P: IntPolynomial, profile: SpectralProfile):
    if profile.q % 2 == 0:
        return replay_case_even(P, profile)
    return replay_case_odd(P, profile)


# candidates per grid of the array screens and per batched eigvals call of
# the oracle: bounds their peak memory
_ORACLE_CHUNK = 4096


def _int64_exact(degree: int, bound: int) -> bool:
    """Whether the array screens of a degree-n box at this bound are exact in int64.

    A coefficient of P(X + 1) or P(-X - 1) is a sum of c_i * C(i, j) over
    i >= j, bounded with every partial sum by bound * C(n + 1, j + 1) <=
    bound * 2**n, which must stay below 2**63; P(+-1) is smaller. The base-7
    residue codes of the squarefree lookup are below 7**(n + 1).
    """
    return bound << degree < 2**63 and 7 ** (degree + 1) <= 2**63


def _shard_grids(degree: int, bound: int, det_one: bool, lead: int):
    """The shard's candidates as int64 coefficient grids, one row each, ascending
    columns, in enumeration order, at most _ORACLE_CHUNK rows per grid.

    A grid is whole blocks: each block holds every value of c_0 and of the low
    interior coefficients under one tuple of the high ones.
    """
    span = np.arange(-bound, bound + 1, dtype=np.int64)
    block = np.array(_constant_terms(degree, det_one), dtype=np.int64)[:, None]
    low = 1  # columns in the block: c_0, ..., c_(low - 1)
    while low < degree - 1 and len(block) * len(span) <= _ORACLE_CHUNK:
        block = np.column_stack(
            (np.tile(block, (len(span), 1)), np.repeat(span, len(block)))
        )
        low += 1
    highs = product(range(-bound, bound + 1), repeat=degree - 1 - low)
    while heads := list(islice(highs, _ORACLE_CHUNK // len(block))):
        grid = np.empty((len(heads) * len(block), degree + 1), dtype=np.int64)
        grid[:, :low] = np.tile(block, (len(heads), 1))
        # heads run c_(n-2), ..., c_low: reversed into ascending columns
        grid[:, low : degree - 1] = np.repeat(
            np.array(heads, dtype=np.int64)[:, ::-1], len(block), axis=0
        )
        grid[:, degree - 1] = lead
        grid[:, degree] = 1
        yield grid


def _screen_table(degree: int) -> tuple[np.ndarray, list]:
    """The sign screens' verdict for each (sign P(1), sign P(-1)), at index
    3*sign P(1) + sign P(-1) + 4, as a code into the reasons list (0: pass)."""
    verdicts = [_screen_verdict(degree, s1, sm1) for s1 in (-1, 0, 1) for sm1 in (-1, 0, 1)]
    names = [None] + sorted({v[0] for v in verdicts if v})
    return np.array([names.index(v and v[0]) for v in verdicts]), names


def _squarefree_flags(grid: np.ndarray) -> np.ndarray:
    """squarefree_by_small_primes of each row. Each prime runs on the rows the
    earlier ones left unproven and looks up _squarefree_mod once per distinct
    residue row, found by its base-p code."""
    flags = np.zeros(len(grid), dtype=bool)
    todo = np.arange(len(grid))
    for p in _SQUAREFREE_PRIMES:
        residues = grid[todo] % p
        codes = residues @ p ** np.arange(grid.shape[1], dtype=np.int64)
        _, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
        proven = np.array(
            [_squarefree_mod(p, tuple(r)) for r in residues[first].tolist()], dtype=bool
        )[inverse]
        flags[todo[proven]] = True
        todo = todo[~proven]
        if not len(todo):
            break
    return flags


def _sign_changes(a: np.ndarray) -> np.ndarray:
    """Sign variations along each row of a, zeros skipped."""
    signs = np.sign(a)
    count = np.zeros(len(a), dtype=np.int64)
    last = signs[:, 0]
    for s in signs.T[1:]:
        count += s * last < 0
        last = np.where(s != 0, s, last)
    return count


def _array_stages(grid: np.ndarray, table: np.ndarray):
    """Per row: the screen code (see _screen_table), the small-prime squarefree
    flag, and the Descartes counts variations_above_one of P and of P(-X)."""
    n = grid.shape[1] - 1
    alt = np.array([(-1) ** i for i in range(n + 1)], dtype=np.int64)
    pascal = np.array([[comb(i, j) for j in range(n + 1)] for i in range(n + 1)], dtype=np.int64)
    screen = table[3 * np.sign(grid.sum(axis=1)) + np.sign(grid @ alt) + 4]
    above = _sign_changes(grid @ pascal)  # P(X + 1)
    below = _sign_changes((grid * alt) @ pascal)  # P(-X - 1)
    return screen, _squarefree_flags(grid), above, below


def _array_verdicts(degree, bound, det_one, lead, max_bits, reasons: Counter):
    """(P, profile) for each candidate of the shard the arrays leave open, in
    enumeration order; the candidates they decide are counted into reasons.

    classify's stage order, one grid at a time (the constant term always
    passes here): a screen verdict stands once a small prime proves P
    squarefree. A row that passes both screens, is proven squarefree and has
    Descartes counts (1, 0) has lambda**q as its only real root outside
    (-1, 1), so it goes straight to the disk search. The rest, unproven by the
    primes or inconclusive for Descartes, go through classify.
    """
    table, names = _screen_table(degree)
    for grid in _shard_grids(degree, bound, det_one, lead):
        screen, squarefree, above, below = _array_stages(grid, table)
        decided = squarefree & (screen > 0)
        for name, count in zip(names[1:], np.bincount(screen[decided], minlength=len(names))[1:]):
            if count:
                reasons[name] += int(count)
        disk = squarefree & (screen == 0) & (above == 1) & (below == 0)
        rest = np.flatnonzero(~decided)
        for coeffs, to_disk in zip(grid[rest].tolist(), disk[rest].tolist()):
            P = IntPolynomial(tuple(coeffs))
            if to_disk:
                yield P, _disk_search(P, degree - 1, max_bits)
            else:
                yield P, classify(P, allow_gl=not det_one, max_precision_bits=max_bits)


def _run_shard(args) -> tuple[list, Counter, list, int]:
    degree, bound, det_one, lead, max_bits = args
    accepted: list[AcceptedEntry] = []
    reasons: Counter = Counter()
    undecided: list[IntPolynomial] = []
    # degrees 2 and 3 keep their exact tests, one candidate at a time
    if degree >= 4 and _int64_exact(degree, bound):
        verdicts = _array_verdicts(degree, bound, det_one, lead, max_bits, reasons)
    else:
        verdicts = (
            (P, classify(P, allow_gl=not det_one, max_precision_bits=max_bits))
            for P in _shard_candidates(degree, bound, det_one, lead)
        )
    for P, prof in verdicts:
        if prof.certification == REJECTED:
            reasons[prof.reason] += 1
        elif prof.certification == UNDECIDED:
            undecided.append(P)
        else:
            accepted.append(AcceptedEntry(P, prof, _replay_for(P, prof)))
    count = len(_constant_terms(degree, det_one)) * (2 * bound + 1) ** (degree - 2)
    return accepted, reasons, undecided, count


def search(
    degree: int,
    bound: int,
    workers: int = 1,
    det_one: bool = True,
    max_precision_bits: int = DEFAULT_PRECISION_CEILING,
) -> SearchReport:
    """Classify every candidate in the box; deterministic for any worker count."""
    if degree < 2 or bound < 1:
        raise ValueError("search requires degree >= 2 and bound >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if max_precision_bits < MIN_PRECISION_BITS:
        raise ValueError(f"max_precision_bits must be >= {MIN_PRECISION_BITS}")
    t0 = time.perf_counter()
    shards = [
        (degree, bound, det_one, lead, max_precision_bits)
        for lead in range(-bound, bound + 1)
    ]
    workers = min(workers, len(shards))  # one shard per worker at most
    if workers == 1:
        results = [_run_shard(s) for s in shards]
    else:
        with get_context("fork").Pool(processes=workers) as pool:
            results = pool.map(_run_shard, shards, chunksize=1)
    accepted: list[AcceptedEntry] = []
    reasons: Counter = Counter()
    undecided: list[IntPolynomial] = []
    count = 0
    for acc, rea, und, cnt in results:  # shard order = lead ascending
        accepted.extend(acc)
        reasons.update(rea)
        undecided.extend(und)
        count += cnt
    return SearchReport(
        degree=degree,
        coeff_bound=bound,
        det_constraint=det_one,
        accepted=tuple(accepted),
        rejected=dict(reasons),
        undecided=tuple(undecided),
        candidate_count=count,
        wall_time=time.perf_counter() - t0,
    )


def _oracle_roots(polys: list[IntPolynomial]) -> np.ndarray:
    """Roots of each equal-degree polynomial, one row each, as np.roots finds them.

    The companion matrices are built exactly as np.roots builds them (ones
    on the subdiagonal, -p[1:]/p[0] in row 0) and solved by one batched
    eigvals call on the stacked (m, n, n) array.
    """
    p = np.array([P.coeffs[::-1] for P in polys], dtype=float)
    n = p.shape[1] - 1
    A = np.zeros((len(polys), n, n))
    A[:, 1:, :-1] = np.eye(n - 1)
    A[:, 0, :] = -p[:, 1:] / p[:, :1]
    return np.linalg.eigvals(A).astype(complex)


def _oracle_verdict(roots: list[complex], tol: float = 1e-6) -> tuple[bool, bool]:
    """Hardware-precision accept/reject with a near-boundary flag.

    Independent route: numpy eigenvalue roots, float moduli, loose tolerance.
    Accept iff there is exactly one real root above 1 and every other root
    has modulus within tol of (big root)**(-1/q).
    """
    n = len(roots)
    near = False

    def ambiguous(value: float) -> bool:
        # the measurement sits within a decade of its decision threshold
        return tol / 10 < value < 10 * tol

    for r in roots:
        near |= ambiguous(abs(r.imag))
        if abs(r.imag) <= tol:
            near |= abs(r.real - 1) <= 10 * tol
    big_idx = [
        i for i, r in enumerate(roots) if abs(r.imag) <= tol and r.real > 1 + tol
    ]
    if len(big_idx) != 1:
        return False, near
    B = roots[big_idx[0]].real
    target = B ** (-1.0 / (n - 1))
    ok = True
    for i, r in enumerate(roots):
        if i == big_idx[0]:
            continue
        margin = abs(abs(r) - target)
        near |= ambiguous(margin)
        if margin > tol:
            ok = False
    # multiple roots break the layout; hardware roots of a k-fold root only
    # land within ~eps^(1/k) of it, so the coincidence net is 100x looser
    rs = sorted(roots, key=lambda z: (z.real, z.imag))
    for a, b in zip(rs, rs[1:]):
        if abs(a - b) <= 100 * tol:
            ok = False
            near = True
    return ok, near


# highest degree the float oracle of cross_check handles
CROSS_CHECK_MAX_DEGREE = 6


def cross_check(report: SearchReport, tol: float = 1e-6) -> list[dict]:
    """Re-derive verdicts with the hardware-precision oracle; list disagreements.

    Near-boundary disagreements on rejected candidates are annotated as
    allowed: the certified route decides exactly where the oracle can only
    guess to within its tolerance.
    """
    if report.degree > CROSS_CHECK_MAX_DEGREE:
        raise ValueError(f"cross_check supports degree <= {CROSS_CHECK_MAX_DEGREE}")
    accepted_set = {e.poly for e in report.accepted}
    undecided_set = set(report.undecided)
    out: list[dict] = []
    candidates = enumerate_candidates(
        report.degree, report.coeff_bound, report.det_constraint
    )
    while chunk := list(islice(candidates, _ORACLE_CHUNK)):
        for P, roots in zip(chunk, _oracle_roots(chunk).tolist()):
            oracle_ok, near = _oracle_verdict(roots, tol)
            if P in accepted_set:
                verdict = "accepted"
            elif P in undecided_set:
                verdict = "undecided"
            else:
                verdict = "rejected"
            report_ok = verdict == "accepted"
            if oracle_ok == report_ok:
                continue
            out.append(
                {
                    "poly": P.to_json(),
                    "report": verdict,
                    "oracle": "accepted" if oracle_ok else "rejected",
                    "near_boundary": near,
                    "allowed": bool(near and not report_ok),
                }
            )
    return out


def acceptance_discrepancies(discrepancies: list[dict]) -> list[dict]:
    """Filter to the disagreements the acceptance suite forbids."""
    return [d for d in discrepancies if not d["allowed"]]
