"""Exhaustive certified search over coefficient-bounded candidate polynomials.

Enumerates every monic integer polynomial of a given degree with interior
coefficients in [-bound, bound] and unit constant term, classifies each one,
and aggregates the verdicts into a deterministic report. Work is sharded by
the leading interior coefficient so that any worker count produces the same
report bytes; the only shared step is an ordered merge.
"""
from __future__ import annotations

import csv
import io
import json
import time
from collections import Counter
from dataclasses import dataclass
from itertools import islice, product
from multiprocessing import get_context

import numpy as np

from .intpoly import IntPolynomial
from .rootcert import DEFAULT_PRECISION_CEILING, MIN_PRECISION_BITS
from .spectra import (
    REJECTED,
    UNDECIDED,
    SpectralProfile,
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


def _shard_candidates(degree: int, bound: int, det_one: bool, lead: int):
    consts = ((-1) ** degree,) if det_one else (-1, 1)
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


def _run_shard(args) -> tuple[list, Counter, list, int]:
    degree, bound, det_one, lead, max_bits = args
    accepted: list[AcceptedEntry] = []
    reasons: Counter = Counter()
    undecided: list[IntPolynomial] = []
    count = 0
    for P in _shard_candidates(degree, bound, det_one, lead):
        count += 1
        prof = classify(P, allow_gl=not det_one, max_precision_bits=max_bits)
        if prof.certification == REJECTED:
            reasons[prof.reason] += 1
        elif prof.certification == UNDECIDED:
            undecided.append(P)
        else:
            accepted.append(AcceptedEntry(P, prof, _replay_for(P, prof)))
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


# candidates per batched eigvals call: bounds the oracle's peak memory
_ORACLE_CHUNK = 4096


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
