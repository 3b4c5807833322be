"""The measured process: one workload in one fresh interpreter.

Reads the generated inputs as JSON on stdin, imports spectorus from the
checkout's `src/`, makes one warm-up call, then runs whole rounds of the
workload's operations and writes one JSON object with per-call timings and
the program's outputs to stdout. With --setup-only it exits right after the
warm-up call, so the caller can time interpreter start, imports and warm-up.
With --trace it runs an untraced, a traced and another untraced round.

Usage: python3 worker.py --workload NAME --seconds S [--trace] [--setup-only] < inputs.json
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
COLD_TIMEOUT_S = 60

sys.path.insert(0, SRC)
sys.path.insert(1, HERE)

import spectorus  # noqa: E402
from spectorus import geomlab, otkahler, searchkit, spectra  # noqa: E402
from spectorus.intpoly import IntPolynomial, parse_poly  # noqa: E402

if os.path.dirname(os.path.abspath(spectorus.__file__)) != os.path.join(SRC, "spectorus"):
    sys.exit(f"spectorus imported from {spectorus.__file__}, not from {SRC}")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# warm-up ---------------------------------------------------------------------


def warm_up(workload: str) -> None:
    if workload in ("box-reject", "box-accept"):
        report = searchkit.search(3 if workload == "box-accept" else 4, 1)
        report.canonical_json()
        if workload == "box-accept":
            searchkit.cross_check(report)
    elif workload == "certify-single":
        spectra.classify(parse_poly("x^3 - x - 1")).to_json()
    else:
        geomlab.verify_torus_report(parse_poly("x^2 - 3x + 1"), samples=2, seed=0)
        otkahler.verify_ot_report(1, samples=2, seed=0)


# rounds ----------------------------------------------------------------------
# A round returns (calls, outputs): calls is a list of [kind, seconds] in call
# order; outputs is what the checks read.


def round_box(inputs: dict, cross: bool, first: bool):
    """Later rounds keep only the sha256 of each report, so memory does not grow with rounds."""
    calls, outputs = [], []
    for degree, bound in inputs["boxes"]:
        t0 = time.perf_counter()
        report = searchkit.search(degree, bound)
        text = report.canonical_json()
        t1 = time.perf_counter()
        disc = searchkit.cross_check(report) if cross else None
        t2 = time.perf_counter()
        calls.append([f"search {degree}/{bound}", t2 - t0])
        out = {
            "degree": degree,
            "bound": bound,
            "search_s": t1 - t0,
            "sha256": sha256(text),
        }
        if first:
            out["canonical"] = text
        if cross:
            out["cross_check_s"] = t2 - t1
            out["discrepancies"] = disc
        outputs.append(out)
    return calls, outputs


def round_certify(inputs: dict):
    calls, cold, warm = [], [], []
    # the children find spectorus through the PYTHONPATH the harness set
    for case in inputs["cold"]:
        argv = [sys.executable, "-m", "spectorus.cli", "certify", case["text"]]
        argv += ["--gl"] * case["gl"] + ["--force-interval"] * case["force"]
        t0 = time.perf_counter()
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=COLD_TIMEOUT_S)
        dt = time.perf_counter() - t0
        calls.append(["cold", dt])
        cold.append(
            {
                "exit": proc.returncode,
                "stdout": proc.stdout,
                "stderr_tail": proc.stderr.strip().splitlines()[-1:] if proc.stderr else [],
            }
        )
    for case in inputs["warm"]:
        t0 = time.perf_counter()
        try:
            prof = spectra.classify(
                parse_poly(case["text"]), allow_gl=case["gl"], force_interval=case["force"]
            )
            out = {"profile": prof.to_json()}
        except Exception as exc:  # a failed operation is counted, not fatal
            out = {"error": f"{type(exc).__name__}: {exc}"}
        calls.append(["warm", time.perf_counter() - t0])
        warm.append(out)
    return calls, {"cold": cold, "warm": warm}


def round_geometry(inputs: dict):
    calls, torus, ot = [], [], []
    seed = inputs["sampler_seed"]
    for coeffs in inputs["torus"]:
        t0 = time.perf_counter()
        rep = geomlab.verify_torus_report(
            IntPolynomial(tuple(coeffs)), samples=inputs["torus_samples"], seed=seed
        )
        calls.append(["verify_torus", time.perf_counter() - t0])
        torus.append(rep)
    for s in inputs["ot_s"]:
        t0 = time.perf_counter()
        rep = otkahler.verify_ot_report(s, samples=inputs["ot_samples"], seed=seed)
        calls.append(["verify_ot", time.perf_counter() - t0])
        ot.append(rep)
    return calls, {"torus": torus, "ot": ot}


def run_round(workload: str, inputs: dict, first: bool):
    if workload == "box-reject":
        return round_box(inputs, cross=False, first=first)
    if workload == "box-accept":
        return round_box(inputs, cross=True, first=first)
    if workload == "certify-single":
        return round_certify(inputs)
    return round_geometry(inputs)


def reclassify_sample(sample: list) -> list:
    """Profiles of the seeded box-reject sample, computed after the timed rounds."""
    out = []
    for coeffs in sample:
        prof = spectra.classify(IntPolynomial(tuple(coeffs)))
        out.append({"coeffs": coeffs, "profile": prof.to_json()})
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    warm_up(args.workload)
    if args.setup_only:
        return 0
    inputs = json.load(sys.stdin)

    rounds = []

    def timed_round() -> float:
        t0 = time.perf_counter()
        calls, outputs = run_round(args.workload, inputs, first=not rounds)
        dt = time.perf_counter() - t0
        rounds.append({"calls": calls, "outputs": outputs, "wall_s": dt})
        return dt

    t_start = time.perf_counter()
    trace = None
    if args.trace:
        from tracer import Tracer

        # untraced rounds on both sides of the traced one cancel a linear drift
        # of machine speed out of the overhead estimate
        before = timed_round()
        tracer = Tracer()
        tracer.install()
        try:
            traced_s = timed_round()
        finally:
            tracer.uninstall()
        after = timed_round()
        trace = {
            "untraced_s": (before + after) / 2,
            "traced_s": traced_s,
            "table": tracer.table(),
            "exits": dict(tracer.exits),
            "isolating_classifies": tracer.isolating_classifies,
            "final_bits": tracer.final_bits,
        }
    else:
        while not rounds or time.perf_counter() - t_start < args.seconds:
            timed_round()
    timed_s = time.perf_counter() - t_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {
        "rounds": rounds,
        "timed_s": timed_s,
        "peak_rss_mb": peak_rss_mb,
        "trace": trace,
    }
    if args.workload == "box-reject":
        result["sample"] = reclassify_sample(inputs["sample"])
    json.dump(result, sys.stdout, separators=(",", ":"))
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
