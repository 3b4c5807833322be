"""Exhaustive certified search over coefficient-bounded candidate polynomials.

Enumerates every monic integer polynomial of a given degree with interior
coefficients in [-bound, bound] and unit constant term, classifies each one,
and aggregates the verdicts into a deterministic report. Work is sharded by
the leading interior coefficient so that any worker count produces the same
report bytes; the only shared step is an ordered merge. Every walk over a
box reads the int64 coefficient grids of _grids. Degrees 2 and 3 run
classify one candidate at a time. From degree 4 on, a shard runs classify's
own sign screens, Descartes counts and sign probes on the coefficient
columns of its grids, one row per entry, with the small-prime squarefree
proof and, up to degree 8, the disk search's first two counts, at
|z| < 1/2 and |z| < 3/4, on the rows that reach it; only the candidates
those leave open become IntPolynomial objects, and they enter classify's
later stages with the grid's values.
"""
from __future__ import annotations

import csv
import io
import json
import time
from collections import Counter
from dataclasses import dataclass
from multiprocessing import get_context

import numpy as np

from .exactnum import _scaled_value
from .intpoly import IntPolynomial
from .rootcert import (
    _SQUAREFREE_PRIMES,
    DEFAULT_PRECISION_CEILING,
    MIN_PRECISION_BITS,
    _disk_coefficients,
    _schur_cohn,
    _squarefree_mod,
)
from .spectra import (
    MODULUS_SEPARATION,
    REJECTED,
    UNDECIDED,
    SpectralProfile,
    _decide,
    _descartes_counts,
    _screen_verdict,
    _sign_screen,
    classify,
    replay_case_even,
    replay_case_odd,
)


def _constant_terms(degree: int, det_one: bool) -> tuple[int, ...]:
    return ((-1) ** degree,) if det_one else (-1, 1)


def _box_size(degree: int, bound: int, det_one: bool, who: str) -> int:
    """Candidates in the box; a box whose flat row index int64 cannot hold is
    refused. So at degree n >= 4, (2*bound + 1)**(n - 1) < 2**63 gives
    bound * 2**n < 2**41 (no box past degree 40), and the array stages are
    exact in int64: P(+-1) and each Taylor-shift entry, a sum of c_i * C(i, j)
    over i >= j, are at most bound * C(n + 1, j + 1) <= bound * 2**n."""
    if degree < 2 or bound < 1:
        raise ValueError(f"{who} requires degree >= 2 and bound >= 1")
    size = len(_constant_terms(degree, det_one)) * (2 * bound + 1) ** (degree - 1)
    if size >= 2**63:
        raise ValueError(f"{who} requires a box of fewer than 2**63 candidates")
    return size


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


# candidates per grid and per batched eigvals call of the oracle: bounds the
# peak memory of the array screens and of cross_check
_ORACLE_CHUNK = 4096

# highest degree whose disk-route rows run _first_radii: with no content
# division each count doubles the bit length per step. Columns against the
# scalar walk: 296 ms to 625 ms at 8/2, 307 to 150 at 9/1, 2,056 to 1,442 at 9/2
_FIRST_RADII_MAX_DEGREE = 8


def _grids(degree: int, bound: int, det_one: bool, leads: range):
    """The candidates whose c_(n-1) runs over leads, as int64 coefficient grids,
    one row each, ascending columns, in enumeration order, at most
    _ORACLE_CHUNK rows per grid.

    Row r holds the mixed-radix digits of its flat index r: c_0 varies
    fastest, then c_1, ..., c_(n-1). _box_size keeps every index in int64.
    """
    consts = np.array(_constant_terms(degree, det_one), dtype=np.int64)
    total = len(consts) * (2 * bound + 1) ** (degree - 2) * len(leads)
    for start in range(0, total, _ORACLE_CHUNK):
        rest = np.arange(start, min(start + _ORACLE_CHUNK, total), dtype=np.int64)
        grid = np.empty((len(rest), degree + 1), dtype=np.int64)
        rest, digit = np.divmod(rest, len(consts))
        grid[:, 0] = consts[digit]
        for j in range(1, degree - 1):
            rest, digit = np.divmod(rest, 2 * bound + 1)
            grid[:, j] = digit - bound
        grid[:, degree - 1] = rest + leads.start
        grid[:, degree] = 1
        yield grid


def _polys(grids):
    """The rows of the grids as IntPolynomial objects, in order."""
    for grid in grids:
        for coeffs in grid.tolist():
            yield IntPolynomial(tuple(coeffs))


def _screen_table(degree: int) -> list:
    """_screen_verdict of each (sign P(1), sign P(-1)), at index
    3*sign P(1) + sign P(-1) + 4: a (reason, detail) tuple, or None (pass)."""
    return [_screen_verdict(degree, s1, sm1) for s1 in (-1, 0, 1) for sm1 in (-1, 0, 1)]


def _squarefree_flags(grid: np.ndarray) -> np.ndarray:
    """squarefree_by_small_primes of each row. Each prime runs on the rows the
    earlier ones left unproven and looks up _squarefree_mod once per distinct
    residue row, found among the rows np.lexsort orders: no degree bound."""
    flags = np.zeros(len(grid), dtype=bool)
    todo = np.arange(len(grid))
    for p in _SQUAREFREE_PRIMES:
        residues = (grid[todo] % p).astype(np.uint8)
        order = np.lexsort(residues.T)  # todo may take this order: only flags are kept
        todo, residues = todo[order], residues[order]
        first = np.ones(len(todo), dtype=bool)  # where a run of equal rows starts
        first[1:] = (residues[1:] != residues[:-1]).any(axis=1)
        looked_up = [_squarefree_mod(p, tuple(r)) for r in residues[first].tolist()]
        proven = np.array(looked_up, dtype=bool)[np.cumsum(first) - 1]
        flags[todo[proven]] = True
        todo = todo[~proven]
        if not len(todo):
            break
    return flags


def _array_stages(grid: np.ndarray):
    """Per row: the screen code, an index into _screen_table, the small-prime
    squarefree flag, and the Descartes counts, by classify's own _sign_screen
    and _descartes_counts on the grid's columns."""
    cols = list(grid.T)
    s1, sm1 = _sign_screen(cols)
    return 3 * s1 + sm1 + 4, _squarefree_flags(grid), *_descartes_counts(cols)


def _first_radii(grid: np.ndarray) -> np.ndarray:
    """Per disk-route row (open, squarefree, Descartes counts (1, 0)): the
    roots spectra._disk_search's first count finds in |z| < 1/2 or |z| < 3/4,
    or 0 when neither rejects.

    Its descent lands on rho = 1/2 exactly when P(2**q) > 0, as P is negative
    between 1 and its one real root above 1 and positive past it. A count of 0
    or no verdict there moves it to 3/4, counted when P((4/3)**q) > 0. The
    probe is _disk_search's _scaled_value and the count disk_root_count's
    _disk_coefficients and _schur_cohn, exact on the grid's columns as Python
    ints in object arrays, without the content division.
    """
    cols = list(grid.astype(object).T)
    q = len(cols) - 2
    found = np.zeros(len(grid), dtype=np.int64)
    rows = np.arange(len(grid))
    for u, v in ((1, 2), (3, 4)):
        # u/v < 1/lambda: u**(q*n) * P((v/u)**q) > 0
        keep = _scaled_value(cols, v**q, u**q) > 0
        rows, cols = rows[keep], [c[keep] for c in cols]
        count, zero = _schur_cohn(_disk_coefficients(cols, u, v), primitive=False)
        hit = (count > 0) & ~zero
        found[rows[hit]] = count[hit]
        rows, cols = rows[~hit], [c[~hit] for c in cols]
    return found


def _array_verdicts(degree, bound, det_one, lead, max_bits, reasons: Counter):
    """(P, profile) for each candidate of the shard the arrays leave open, in
    enumeration order; the candidates they decide are counted into reasons.

    The constant term always passes here. A screen verdict stands once a small
    prime proves P squarefree. Up to _FIRST_RADII_MAX_DEGREE, a disk-route row
    that _first_radii rejects is modulus_separation; every other row enters
    classify's later stages (spectra._decide) with its grid values.
    """
    table = _screen_table(degree)
    screens = np.array([v is not None for v in table])
    for grid in _grids(degree, bound, det_one, range(lead, lead + 1)):
        screen, squarefree, above, below = _array_stages(grid)
        decided = squarefree & screens[screen]
        for code, count in enumerate(np.bincount(screen[decided], minlength=len(table))):
            if count:
                reasons[table[code][0]] += int(count)
        if degree <= _FIRST_RADII_MAX_DEGREE:
            disk = np.flatnonzero(squarefree & ~decided & (above == 1) & (below == 0))
            separated = disk[_first_radii(grid[disk]) > 0]
            if len(separated):
                reasons[MODULUS_SEPARATION] += len(separated)
                decided[separated] = True
        rest = np.flatnonzero(~decided)
        rows = zip(*(a[rest].tolist() for a in (grid, screen, squarefree, above, below)))
        for coeffs, code, proven, n_above, n_below in rows:
            P = IntPolynomial(tuple(coeffs))
            yield P, _decide(P, table[code], proven, (n_above, n_below), max_bits)


def _run_shard(args) -> tuple[list, Counter, list]:
    degree, bound, det_one, lead, max_bits = args
    accepted: list[AcceptedEntry] = []
    reasons: Counter = Counter()
    undecided: list[IntPolynomial] = []
    # degrees 2 and 3 keep their exact tests, one candidate at a time
    if degree >= 4:
        verdicts = _array_verdicts(degree, bound, det_one, lead, max_bits, reasons)
    else:
        verdicts = (
            (P, classify(P, allow_gl=not det_one, max_precision_bits=max_bits))
            for P in _polys(_grids(degree, bound, det_one, range(lead, lead + 1)))
        )
    for P, prof in verdicts:
        if prof.certification == REJECTED:
            reasons[prof.reason] += 1
        elif prof.certification == UNDECIDED:
            undecided.append(P)
        else:
            accepted.append(AcceptedEntry(P, prof, _replay_for(P, prof)))
    return accepted, reasons, undecided


def search(
    degree: int,
    bound: int,
    workers: int = 1,
    det_one: bool = True,
    max_precision_bits: int = DEFAULT_PRECISION_CEILING,
) -> SearchReport:
    """Classify every candidate in the box; deterministic for any worker count."""
    count = _box_size(degree, bound, det_one, "search")
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
    for acc, rea, und in results:  # shard order = lead ascending
        accepted.extend(acc)
        reasons.update(rea)
        undecided.extend(und)
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


def _oracle_roots(grid: np.ndarray) -> np.ndarray:
    """Roots of each row of a coefficient grid (ascending columns, as _grids
    builds it), one row each, as np.roots finds them.

    The companion matrices are built exactly as np.roots builds them (ones
    on the subdiagonal, -p[1:]/p[0] in row 0) and solved by one batched
    eigvals call on the stacked (m, n, n) array.
    """
    p = grid[:, ::-1].astype(float)
    n = p.shape[1] - 1
    A = np.zeros((len(p), n, n))
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
    accepted_set = {e.poly.coeffs for e in report.accepted}
    undecided_set = {P.coeffs for P in report.undecided}
    out: list[dict] = []
    leads = range(-report.coeff_bound, report.coeff_bound + 1)
    for grid in _grids(report.degree, report.coeff_bound, report.det_constraint, leads):
        for coeffs, roots in zip(grid.tolist(), _oracle_roots(grid).tolist()):
            oracle_ok, near = _oracle_verdict(roots, tol)
            coeffs = tuple(coeffs)
            if coeffs in accepted_set:
                verdict = "accepted"
            elif coeffs in undecided_set:
                verdict = "undecided"
            else:
                verdict = "rejected"
            report_ok = verdict == "accepted"
            if oracle_ok == report_ok:
                continue
            out.append(
                {
                    "poly": IntPolynomial(coeffs).to_json(),
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
