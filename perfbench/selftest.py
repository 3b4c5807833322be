"""Self-test of the benchmark harness at a tiny size.

Run from the root of a spectorus checkout:

    python3 perfbench/selftest.py

It runs every workload with --tiny inputs in both modes and checks the
result line against BENCHMARK.json, checks that the correctness checks
reject tampered outputs, checks the tracer's self-time accounting, and
checks that the harness refuses a directory without spectorus sources.
Exits 0 when every check holds.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
sys.path.insert(0, HERE)

import checks  # noqa: E402
from inputs import WORKLOADS, make_inputs  # noqa: E402
from tracer import Tracer  # noqa: E402

FAILURES: list[str] = []


def expect(cond: bool, what: str) -> None:
    print(("ok   " if cond else "FAIL ") + what, flush=True)
    if not cond:
        FAILURES.append(what)


def run_bench(workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=180)


def test_result_lines(spec: dict) -> None:
    wanted = {0: spec["end_to_end"], 1: spec["per_layer"]}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = run_bench(workload, trace)
            tag = f"{workload} trace {trace}"
            expect(proc.returncode == 0, f"{tag}: exit 0 ({proc.stderr.strip()[-300:]})")
            if proc.returncode:
                continue
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(set(line) == {"correct", "attempted", "failed", "metrics"}, f"{tag}: result keys")
            expect(line["correct"] is True, f"{tag}: outputs correct")
            expect(line["attempted"] >= 1, f"{tag}: attempted >= 1")
            units = {m["name"]: m["unit"] for m in wanted[trace]}
            got = {k: v["unit"] for k, v in line["metrics"].items()}
            expect(got == units, f"{tag}: metric names and units match BENCHMARK.json")
            if workload == "certify-single":
                inputs = make_inputs(workload, 3, tiny=True)
                kept = sum(c["family"] == "kept-fault" for c in inputs["cold"] + inputs["warm"])
                per_round = len(inputs["cold"]) + len(inputs["warm"])
                expect(
                    line["failed"] * per_round == line["attempted"] * kept,
                    f"{tag}: failed share is the kept faults' share",
                )
            else:
                expect(line["failed"] == 0, f"{tag}: no failed operations")


def test_inputs() -> None:
    for workload in WORKLOADS:
        expect(make_inputs(workload, 7) == make_inputs(workload, 7), f"{workload}: same seed, same inputs")
    for workload in ("box-reject", "certify-single", "verify-geometry"):
        expect(make_inputs(workload, 7) != make_inputs(workload, 8), f"{workload}: inputs follow the seed")


def test_checks_reject_tampering() -> None:
    accepted = checks.expected_verdict([-1, -1, 0, 1])  # x^3 - x - 1
    good = {
        "certification": "ExactQ2",
        "accepted": True,
        "q": 2,
        "reason": None,
        "lambda_interval": ["1.150963925257758035680601218461", "1.150963925257758035680601218462"],
    }
    expect(not checks.check_profile(good, accepted, "x^3 - x - 1"), "checks accept a correct profile")
    shifted = dict(good, lambda_interval=["1.150963925257758035680601218463", "1.150963925257758035680601218464"])
    expect(bool(checks.check_profile(shifted, accepted, "shifted")), "checks reject a wrong lambda interval")
    sep = checks.expected_verdict([-1, 1, -1, 1, -2, 1])  # x^5 - 2x^4 + x^3 - x^2 + x - 1
    expect(sep["reason"] == "modulus_separation", "sympy/mpmath route finds modulus separation")
    wrong = {"certification": "Rejected", "accepted": False, "q": 4, "reason": "expanding_root_count"}
    expect(bool(checks.check_profile(wrong, sep, "x^5")), "checks reject a wrong rejection reason")
    expect(checks.expected_verdict([-1, -1, 1, 1])["reason"] == "not_squarefree", "(x+1)^2(x-1): not squarefree")


def _spin(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_tracer_self_time() -> None:
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: _spin(0.02))

    def outer_body():
        _spin(0.01)
        inner()
        inner()

    outer = tracer.wrap("outer", outer_body)
    outer()
    table = tracer.table()
    expect(table["inner"][0] == 2 and table["outer"][0] == 1, "tracer counts calls")
    expect(abs(table["inner"][1] - 0.04) < 0.01, f"inner self time {table['inner'][1]:.4f} ~ 0.04 s")
    expect(abs(table["outer"][1] - 0.01) < 0.01, f"outer self time {table['outer'][1]:.4f} ~ 0.01 s")


def test_refuses_bare_directory() -> None:
    bare = os.path.join(HERE, "results", "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("results", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "box-reject", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, cwd=bare, timeout=180,
        )
        expect(proc.returncode != 0, "a directory without src/ exits non-zero")
        expect('"correct"' not in proc.stdout, "a directory without src/ prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    test_inputs()
    test_checks_reject_tampering()
    test_tracer_self_time()
    test_refuses_bare_directory()
    test_result_lines(spec)
    print(f"{len(FAILURES)} failures" if FAILURES else "all harness checks hold")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
