"""Correctness checks of each workload's outputs, from independent computations.

Nothing here imports spectorus. Expected verdicts come from the closed-form
degree-2 and degree-3 criteria, from sympy (gcd with the derivative, exact
real-root counts) and from 60-digit mpmath roots. Each check returns a list
of problems; an empty list means the outputs are correct.
"""
from __future__ import annotations

import hashlib
import json

import mpmath
import sympy

from inputs import cubic_disc, expected_constant, q2_accepts

_X = sympy.Symbol("x")
DPS = 60
MODULUS_TOL = mpmath.mpf(10) ** -30

# tolerances of the two verification suites (README of spectorus)
TORUS_TOL = {
    "residual_orthogonality": 1e-12,
    "deck_max_rel_deviation": 1e-10,
    "max_warped_rel_error": 1e-4,
    "max_flat_abs": 1e-6,
}
OT_TOL = {
    "max_dev_first_derivatives": 1e-8,
    "max_dev_metric": 1e-6,
    "max_rel_dev_determinant": 1e-10,
    "max_dev_ricci": 1e-6,
    "max_dev_ricci_u_route": 1e-6,
    "max_dev_flat_factor": 1e-6,
}


def _layout_lambda(coeffs) -> tuple[bool, object]:
    """(equal small moduli, lambda) for a squarefree polynomial with one real root > 1."""
    q = len(coeffs) - 2
    with mpmath.workdps(DPS):
        roots = mpmath.polyroots(list(reversed(coeffs)), maxsteps=400, extraprec=400)
        tiny = mpmath.mpf(10) ** -(DPS // 2)
        big = max((z for z in roots if abs(mpmath.im(z)) < tiny), key=mpmath.re)
        B = mpmath.re(big)
        target = B ** (-mpmath.mpf(1) / q)
        smalls = [z for z in roots if z is not big]
        equal = all(abs(abs(z) - target) < MODULUS_TOL for z in smalls)
        return equal, B ** (mpmath.mpf(1) / q)


def expected_verdict(coeffs, gl: bool = False, force: bool = False) -> dict:
    """Independent verdict: {'verdict', 'reason', 'q', 'lam'} for one classify call."""
    n = len(coeffs) - 1
    q = n - 1
    c0 = coeffs[0]

    def rejected(reason):
        return {"verdict": "rejected", "reason": reason, "q": q, "lam": None}

    if (abs(c0) != 1) if gl else (c0 != expected_constant(n)):
        return rejected("wrong_constant_term")
    if not force and n == 2 and c0 == 1:
        t = -coeffs[1]
        if t * t == 4:
            return rejected("not_squarefree")
        if t * t < 4:
            return rejected("boundary_root")
        if t < 0:
            return rejected("expanding_root_count")
        with mpmath.workdps(DPS):
            lam = (t + mpmath.sqrt(t * t - 4)) / 2
        return {"verdict": "accepted", "reason": None, "q": 1, "lam": lam}
    if not force and n == 3 and c0 == -1:
        a, b = coeffs[2], coeffs[1]
        disc = cubic_disc(a, b)
        if disc == 0:
            return rejected("not_squarefree")
        if disc > 0:
            return rejected("real_root_layout")
        if a + b == 0:
            return rejected("boundary_root")
        if a + b > 0:
            return rejected("expanding_root_count")
        return {"verdict": "accepted", "reason": None, "q": 2, "lam": _cubic_lambda(a, b)}

    # interval route: squarefree, sign screens at +-1, exact counts, moduli
    P = sympy.Poly(list(reversed(coeffs)), _X)
    if sympy.gcd(P, P.diff(_X)).degree() > 0:
        return rejected("not_squarefree")
    p1 = P.eval(1)
    if p1 == 0:
        return rejected("boundary_root")
    if p1 > 0:
        return rejected("expanding_root_count")
    pm1 = P.eval(-1) * (-1) ** n
    if pm1 == 0:
        return rejected("boundary_root")
    if pm1 < 0:
        return rejected("root_below_minus_one")
    if P.count_roots(1, None) != 1:
        return rejected("expanding_root_count")
    if P.count_roots(None, -1) != 0:
        return rejected("root_below_minus_one")
    equal, lam = _layout_lambda(coeffs)
    if not equal:
        return rejected("modulus_separation")
    return {"verdict": "accepted", "reason": None, "q": q, "lam": lam}


def _cubic_lambda(a: int, b: int):
    """sqrt of the real root above 1 of X^3 + aX^2 + bX - 1, to 60 digits.

    Newton from x0 = 1 + max(|a|, |b|, 1), which lies above the root where
    the cubic is increasing and convex, so the iterates fall monotonically
    onto the root; iteration stops when rounding halts the descent.
    """
    with mpmath.workdps(DPS):
        x = mpmath.mpf(1 + max(abs(a), abs(b), 1))
        while True:
            nx = x - (((x + a) * x + b) * x - 1) / ((3 * x + 2 * a) * x + b)
            if nx >= x:
                return mpmath.sqrt(x)
            x = nx


def _lambda_in(interval, lam) -> bool:
    if interval is None or lam is None:
        return False
    with mpmath.workdps(DPS):
        return mpmath.mpf(interval[0]) <= lam <= mpmath.mpf(interval[1])


_ACCEPTED_CERTS = {"ExactQ1", "ExactQ2", "IntervalCertified"}


def check_profile(profile: dict, exp: dict, where: str) -> list[str]:
    """Compare a SpectralProfile JSON with an independent expectation."""
    if exp["verdict"] == "accepted":
        if profile.get("certification") not in _ACCEPTED_CERTS or not profile.get("accepted"):
            return [f"{where}: expected accepted, got {profile.get('certification')} {profile.get('reason')}"]
        if profile.get("q") != exp["q"]:
            return [f"{where}: q {profile.get('q')} != {exp['q']}"]
        if not _lambda_in(profile.get("lambda_interval"), exp["lam"]):
            return [f"{where}: lambda interval {profile.get('lambda_interval')} misses {exp['lam']}"]
        return []
    if profile.get("certification") != "Rejected" or profile.get("reason") != exp["reason"]:
        return [
            f"{where}: expected rejected/{exp['reason']}, got "
            f"{profile.get('certification')}/{profile.get('reason')}"
        ]
    return []


# box workloads -----------------------------------------------------------------


def _rounds_agree(rounds) -> list[str]:
    first = [o["sha256"] for o in rounds[0]["outputs"]]
    bad = [i for i, r in enumerate(rounds) if [o["sha256"] for o in r["outputs"]] != first]
    return [f"round {i} canonical report differs from round 0" for i in bad]


def _report_basics(out: dict, report: dict) -> list[str]:
    d, b = out["degree"], out["bound"]
    where = f"search {d}/{b}"
    problems = []
    if hashlib.sha256(out["canonical"].encode()).hexdigest() != out["sha256"]:
        problems.append(f"{where}: sha256 does not match the report bytes")
    count = (2 * b + 1) ** (d - 1)
    if report["candidate_count"] != count:
        problems.append(f"{where}: candidate_count {report['candidate_count']} != {count}")
    total = len(report["accepted"]) + sum(report["rejected"].values()) + len(report["undecided"])
    if total != report["candidate_count"]:
        problems.append(f"{where}: histogram sums to {total}, not {report['candidate_count']}")
    if report["undecided"]:
        problems.append(f"{where}: {len(report['undecided'])} undecided candidates")
    return problems


def check_box_reject(result: dict) -> list[str]:
    problems = _rounds_agree(result["rounds"])
    for out in result["rounds"][0]["outputs"]:
        report = json.loads(out["canonical"])
        problems += _report_basics(out, report)
        if report["accepted"]:
            problems.append(f"search {out['degree']}/{out['bound']}: q >= 3 acceptance")
    for item in result["sample"]:
        exp = expected_verdict(item["coeffs"])
        problems += check_profile(item["profile"], exp, f"sample {item['coeffs']}")
    return problems


def check_box_accept(result: dict) -> list[str]:
    problems = _rounds_agree(result["rounds"])
    for r in result["rounds"]:
        for out in r["outputs"]:
            forbidden = [d for d in out["discrepancies"] if not d["allowed"]]
            if forbidden:
                problems.append(
                    f"cross_check {out['degree']}/{out['bound']}: {len(forbidden)} forbidden discrepancies"
                )
    for out in result["rounds"][0]["outputs"]:
        d, b = out["degree"], out["bound"]
        report = json.loads(out["canonical"])
        problems += _report_basics(out, report)
        got = {tuple(e["poly"]["coeffs"]) for e in report["accepted"]}
        if d == 2:
            want = {(1, -t, 1) for t in range(3, b + 1)}
        else:
            want = {
                (-1, bb, a, 1)
                for a in range(-b, b + 1)
                for bb in range(-b, b + 1)
                if q2_accepts(a, bb)
            }
        if got != want:
            problems.append(
                f"search {d}/{b}: accepted set differs from the closed form "
                f"({len(got - want)} extra, {len(want - got)} missing)"
            )
        for e in report["accepted"]:
            coeffs = e["poly"]["coeffs"]
            exp = expected_verdict(coeffs)
            problems += check_profile(e["profile"], exp, f"search {d}/{b} {coeffs}")
            rep = e["replay"]
            if not (rep["identity_holds"] and rep["exact"]) or rep["contradiction"] is not None:
                problems.append(f"search {d}/{b} {coeffs}: replay does not hold exactly")
            if rep["constructed_poly"]["coeffs"] != coeffs:
                problems.append(f"search {d}/{b} {coeffs}: replay constructed another polynomial")
    return problems


# certify-single ------------------------------------------------------------------

EXIT_FOR = {"accepted": 0, "rejected": 1}


def _certify_profile(out: dict) -> dict | None:
    """The profile a cold run printed or a warm call returned; None if there is none."""
    if "profile" in out:
        return out["profile"]
    if "stdout" in out:
        try:
            return json.loads(out["stdout"])
        except ValueError:
            return None
    return None


def check_certify(result: dict, inputs: dict) -> tuple[list[str], int]:
    """(problems, failed) over every round; kept faults count as failed."""
    problems: list[str] = []
    failed = 0
    expectations = {}

    def expect(case):
        key = (tuple(case["coeffs"]), case["gl"], case["force"])
        if key not in expectations:
            expectations[key] = expected_verdict(case["coeffs"], case["gl"], case["force"])
        return expectations[key]

    for i, r in enumerate(result["rounds"]):
        outs = r["outputs"]
        runs = [
            (case, out, f"round {i} cold certify '{case['text']}'")
            for case, out in zip(inputs["cold"], outs["cold"])
        ] + [
            (case, out, f"round {i} warm classify '{case['text']}'")
            for case, out in zip(inputs["warm"], outs["warm"])
        ]
        for case, out, where in runs:
            profile = _certify_profile(out)
            kept = case["family"] == "kept-fault"
            if profile is None or (kept and not profile.get("accepted")):
                # a kept fault fails until it yields its proven acceptance
                failed += 1
                if not kept:
                    problems.append(f"{where}: no report ({out.get('error') or out.get('stderr_tail')})")
                continue
            exp = expect(case)
            problems += check_profile(profile, exp, where)
            if "exit" in out and out["exit"] != EXIT_FOR[exp["verdict"]]:
                problems.append(f"{where}: exit {out['exit']}, expected {EXIT_FOR[exp['verdict']]}")
    return problems, failed


# verify-geometry -----------------------------------------------------------------


def check_geometry(result: dict, inputs: dict) -> list[str]:
    problems: list[str] = []
    for i, r in enumerate(result["rounds"]):
        for coeffs, rep in zip(inputs["torus"], r["outputs"]["torus"]):
            where = f"round {i} verify_torus {coeffs}"
            values = dict(rep, **rep["curvature"])
            for key, tol in TORUS_TOL.items():
                if not values[key] <= tol:
                    problems.append(f"{where}: {key} = {values[key]} > {tol}")
            for flag in ("b_positive_definite", "charpoly_exact_match", "phi_scaling_identity_exact"):
                if rep[flag] is not True:
                    problems.append(f"{where}: {flag} is {rep[flag]}")
            if not all(rep["passes"].values()):
                problems.append(f"{where}: passes {rep['passes']}")
            exp = expected_verdict(coeffs)
            if rep["q"] != exp["q"] or abs(rep["lambda"] - float(exp["lam"])) > 1e-12 * float(exp["lam"]):
                problems.append(f"{where}: lambda {rep['lambda']} (q {rep['q']}) != {exp['lam']}")
        for s, rep in zip(inputs["ot_s"], r["outputs"]["ot"]):
            where = f"round {i} verify_ot s={s}"
            for key, tol in OT_TOL.items():
                if not rep[key] <= tol:
                    problems.append(f"{where}: {key} = {rep[key]} > {tol}")
            for flag in (
                "metric_positive_definite",
                "ricci_negative_definite",
                "exact_determinant_identity",
                "exact_scaling_law",
            ):
                if rep[flag] is not True:
                    problems.append(f"{where}: {flag} is {rep[flag]}")
            if not all(rep["passes"].values()):
                problems.append(f"{where}: passes {rep['passes']}")
    return problems


def check(workload: str, result: dict, inputs: dict) -> tuple[list[str], int]:
    """(problems, failed operations) for one worker result."""
    if workload == "certify-single":
        return check_certify(result, inputs)
    if workload == "verify-geometry":
        return check_geometry(result, inputs), 0
    if workload == "box-reject":
        return check_box_reject(result), 0
    return check_box_accept(result), 0
