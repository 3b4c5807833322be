"""spectorus benchmark: one workload per invocation, checked and measured.

Usage, from the root of a spectorus checkout:

    python3 perfbench/run.py --workload box-reject --seed 1 --seconds 12 --trace 0

Workloads: box-reject, box-accept, certify-single, verify-geometry (see
perfbench/README.md). The harness generates the seeded inputs, times
interpreter start + imports + one warm-up call in fresh processes (setup_s),
runs the workload in one fresh worker process, checks every output against
independent computations, and prints detail lines followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 gives the end-to-end metrics of an untraced run; --trace 1 gives
the per-layer metrics of a traced round (see tracer.py). Details of every
run are also written to perfbench/results/.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
RESULTS = os.path.join(HERE, "results")

sys.path.insert(0, HERE)

from inputs import WORKLOADS, make_inputs  # noqa: E402

RUN_LIMIT_S = 170  # every run must end within 180 s
SETUP_PROBES = 7
IMPORT_PROBES = 5

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

# spans whose call count / self time is a per-layer metric
CALL_SPANS = (
    "intpoly.discriminant",
    "intpoly.power_transform",
    "exactnum.dyadic_eval",
    "exactnum.nth_root_bounds",
    "exactnum.bisect_root_dyadic",
    "exactnum.sqrt_bounds",
    "exactnum.frac_to_decimal",
    "rootcert.sturm_chain",
    "rootcert.variations_at",
    "rootcert.isolate_roots",
    "numpy.eigvals",
    "mpmath.polyval",
    "spectra.classify",
    "spectra.replay",
    "numpy.roots",
    "otkahler.wirtinger_hessian",
)
SELF_SPANS = CALL_SPANS + (
    "spectra.exact_test_q1",
    "spectra.exact_test_q2",
    "searchkit.search",
    "searchkit.canonical_json",
    "searchkit.cross_check",
    "geomlab.build_certificate",
    "geomlab.deck_pullback_check",
    "geomlab.curvature_check",
    "otkahler.check_first_derivatives",
    "otkahler.check_metric",
    "otkahler.check_ricci",
    "otkahler.check_ricci_u_route",
    "otkahler.check_flat_factor",
    "otkahler.exact_identities",
)
EXIT_STAGES = ("screen", "sturm", "isolation", "exact")

PER_LAYER = (
    (("cli.import_s", "s"),)
    + tuple((f"{n}.calls", "count") for n in CALL_SPANS)
    + tuple((f"{n}.self_s", "s") for n in SELF_SPANS)
    + tuple((f"spectra.exit.{s}", "count") for s in EXIT_STAGES)
    + (
        ("rootcert.sturm_chain.useful_ratio", "ratio"),
        ("rootcert.isolate_roots.calls_per_isolated", "ratio"),
        ("rootcert.isolate_roots.final_bits_mean", "bits"),
        ("trace.overhead_s", "s"),
    )
)


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    # one BLAS thread: the worker and its children never use more than one core
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError(f"run exceeded {RUN_LIMIT_S} s")
    return left


def timed_spawn(argv: list[str], deadline: float) -> float:
    """Wall time of one fresh process from start to exit; it must exit 0."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        argv,
        stdin=subprocess.DEVNULL,
        capture_output=True,
        text=True,
        env=child_env(),
        timeout=remaining(deadline),
    )
    dt = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"{argv[1:]} exited {proc.returncode}: {proc.stderr.strip()[-400:]}")
    return dt


def measure_setup(workload: str, deadline: float) -> list[float]:
    argv = [sys.executable, WORKER, "--workload", workload, "--setup-only"]
    return [timed_spawn(argv, deadline) for _ in range(SETUP_PROBES)]


def measure_cli_import(deadline: float) -> float:
    """Median fresh `import spectorus.cli` minus median bare interpreter start."""
    bare, full = [], []
    for _ in range(IMPORT_PROBES):
        bare.append(timed_spawn([sys.executable, "-c", "pass"], deadline))
        full.append(timed_spawn([sys.executable, "-c", "import spectorus.cli"], deadline))
    return statistics.median(full) - statistics.median(bare)


def run_worker(workload: str, inputs: dict, seconds: float, trace: bool, deadline: float) -> dict:
    argv = [sys.executable, WORKER, "--workload", workload, "--seconds", str(seconds)]
    if trace:
        argv.append("--trace")
    proc = subprocess.run(
        argv,
        input=json.dumps(inputs),
        capture_output=True,
        text=True,
        env=child_env(),
        timeout=remaining(deadline),
    )
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-800:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail_percentile(values: list[float]) -> tuple[float, float] | None:
    """(p, value) for the highest whole percentile with at least ten samples above it."""
    n = len(values)
    if n < 40:
        return None
    ordered = sorted(values)
    for p in range(99, 49, -1):
        idx = int(p / 100 * n)
        if n - idx - 1 >= 10:
            return p, ordered[idx]
    return None


def ops_per_round(workload: str, inputs: dict) -> int:
    """Operations one round attempts: candidates, certify calls or suite calls."""
    if workload in ("box-reject", "box-accept"):
        return sum((2 * b + 1) ** (d - 1) for d, b in inputs["boxes"])
    if workload == "certify-single":
        return len(inputs["cold"]) + len(inputs["warm"])
    return len(inputs["torus"]) + len(inputs["ot_s"])


def end_to_end(result: dict, setup: list[float], attempted: int) -> dict:
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(r["wall_s"] for r in result["rounds"]),
        "ops_per_s": attempted / result["timed_s"],
        "peak_rss_mb": result["peak_rss_mb"],
    }


def details(workload: str, inputs: dict, result: dict) -> dict:
    """The workload's own figures, under the names of the user paths they time."""
    rounds = result["rounds"]
    out: dict = {"rounds": len(rounds), "timed_s": result["timed_s"]}
    if workload in ("box-reject", "box-accept"):
        per_round = ops_per_round(workload, inputs)
        out["candidates_per_round"] = per_round
        out["candidates_per_s"] = statistics.median(
            per_round / sum(o["search_s"] for o in r["outputs"]) for r in rounds
        )
        out["sha256"] = {f"{o['degree']}/{o['bound']}": o["sha256"] for o in rounds[0]["outputs"]}
        if workload == "box-accept":
            out["cross_check_s"] = statistics.median(
                sum(o["cross_check_s"] for o in r["outputs"]) for r in rounds
            )
    elif workload == "certify-single":
        for kind in ("cold", "warm"):
            times = [1000 * c[1] for r in rounds for c in r["calls"] if c[0] == kind]
            out[f"certify_{kind}_samples"] = len(times)
            out[f"certify_{kind}_p50_ms"] = statistics.median(times)
            tail = tail_percentile(times)
            if tail:
                out[f"certify_{kind}_tail_ms"] = tail[1]
                out[f"certify_{kind}_tail_percentile"] = tail[0]
    else:
        for kind in ("verify_torus", "verify_ot"):
            out[f"{kind}_s"] = statistics.median(
                sum(c[1] for c in r["calls"] if c[0] == kind) for r in rounds
            )
    return out


def per_layer(trace: dict, import_s: float) -> dict:
    table = trace["table"]
    exits = trace["exits"]

    def calls(name):
        return table.get(name, (0, 0.0))[0]

    m = {"cli.import_s": import_s}
    for name in CALL_SPANS:
        m[f"{name}.calls"] = calls(name)
    for name in SELF_SPANS:
        m[f"{name}.self_s"] = table.get(name, (0, 0.0))[1]
    for stage in EXIT_STAGES:
        m[f"spectra.exit.{stage}"] = exits.get(stage, 0)
    chains = calls("rootcert.sturm_chain")
    useful = exits.get("sturm", 0) + exits.get("isolation", 0)
    m["rootcert.sturm_chain.useful_ratio"] = useful / chains if chains else 0.0
    isolating = trace["isolating_classifies"]
    m["rootcert.isolate_roots.calls_per_isolated"] = (
        calls("rootcert.isolate_roots") / isolating if isolating else 0.0
    )
    bits = trace["final_bits"]
    m["rootcert.isolate_roots.final_bits_mean"] = statistics.mean(bits) if bits else 0.0
    m["trace.overhead_s"] = trace["traced_s"] - trace["untraced_s"]
    return m


def check_checkout() -> None:
    if not os.path.isfile(os.path.join(SRC, "spectorus", "__init__.py")):
        raise BenchError(f"no spectorus sources under {SRC}; run from the root of a checkout")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="tiny inputs, for the harness self-test")
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    try:
        check_checkout()
        inputs = make_inputs(args.workload, args.seed, tiny=args.tiny)
        setup = [] if args.trace else measure_setup(args.workload, deadline)
        result = run_worker(args.workload, inputs, args.seconds, bool(args.trace), deadline)
        import checks  # sympy and mpmath load only after the measured process ended

        problems, failed = checks.check(args.workload, result, inputs)
        attempted = ops_per_round(args.workload, inputs) * len(result["rounds"])
        if args.trace:
            metrics = per_layer(result["trace"], measure_cli_import(deadline))
            units = dict(PER_LAYER)
        else:
            metrics = end_to_end(result, setup, attempted)
            units = dict(END_TO_END)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    extra = details(args.workload, inputs, result)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "setup_probes_s": setup,
        "details": extra,
        "metrics": metrics,
        "problems": problems,
        "calls": [r["calls"] for r in result["rounds"]],
        "trace": result["trace"],
    }
    os.makedirs(RESULTS, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}.json"
    with open(os.path.join(RESULTS, name), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    for p in problems[:20]:
        print(f"CHECK FAILED: {p}")
    if len(problems) > 20:
        print(f"CHECK FAILED: ... {len(problems) - 20} more")
    for key, value in extra.items():
        if not isinstance(value, dict):
            print(f"{args.workload} {key}: {value}")
    for box, digest in extra.get("sha256", {}).items():
        print(f"{args.workload} sha256 {box}: {digest}")
    for key, value in metrics.items():
        print(f"{args.workload} {key}: {value} {units[key]}")
    print(f"{args.workload} attempted {attempted}, failed {failed}, correct {not problems}")
    final = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
