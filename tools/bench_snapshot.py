"""Snapshot the spectorus benchmark of one checkout into BENCH_<pr>.json.

Usage, from anywhere:

    python3 tools/bench_snapshot.py --pr N [--checkout DIR] [--commit REV] [--seed 1] [--seconds 15]

It runs `python3 perfbench/run.py` in the checkout (default: this one) for the
four workloads at `--trace 0` and once each for box-reject and box-accept at
`--trace 1`, and writes BENCH_<pr>.json next to this repository's README with:
- the end-to-end metrics of each workload, with its correct/attempted/failed;
- the per-layer table of each traced workload, keyed by workload, with the
  layer names whose meaning no longer matches the code marked stale;
- the six canonical report sha256 values of the two box workloads;
- `wc -l src/spectorus/*.py` of the checkout and `len(spectorus.__all__)`;
- the checkout's tier-1 pass count and criterion 1's time, from one run of
  `python -m pytest -q --continue-on-collection-errors` in it;
- the checkout's commit: `--commit`, for a copy made by `git archive`, which
  has no .git; otherwise `git describe` in the checkout.

It only calls the harness and reads what the harness writes under
perfbench/results/; it changes nothing in perfbench/ or BENCHMARK.json.
Compare two snapshots only when both were made on the same machine.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import re
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("box-reject", "box-accept", "certify-single", "verify-geometry")
TRACED = ("box-reject", "box-accept")

# layer names of the traced tables whose meaning no longer matches the code,
# with why (ROADMAP item 1a holds the repair of the tracer)
STALE_ANY = {
    "numpy.eigvals.calls": "proxies rootcert.np.linalg.eigvals, which nothing in src/ calls",
    "numpy.eigvals.self_s": "proxies rootcert.np.linalg.eigvals, which nothing in src/ calls",
    "mpmath.polyval.calls": "proxies rootcert.mpmath.polyval, which nothing in src/ calls",
    "mpmath.polyval.self_s": "proxies rootcert.mpmath.polyval, which nothing in src/ calls",
    "exactnum.nth_root_bounds.calls": "wraps spectra.nth_root_bounds, which nothing in spectra calls",
    "exactnum.nth_root_bounds.self_s": "wraps spectra.nth_root_bounds, which nothing in spectra calls",
    "rootcert.isolate_roots.calls": "wraps spectra.isolate_roots, a name item 2 deletes",
    "rootcert.isolate_roots.self_s": "wraps spectra.isolate_roots, a name item 2 deletes",
    "rootcert.sturm_chain.calls": "wraps spectra.sturm_chain, a name item 6 deletes",
    "rootcert.sturm_chain.self_s": "wraps spectra.sturm_chain, a name item 6 deletes",
    "rootcert.variations_at.calls": "wraps spectra.variations_at, a name item 6 deletes",
    "rootcert.variations_at.self_s": "wraps spectra.variations_at, a name item 6 deletes",
    "numpy.roots.calls": "proxies searchkit.np.roots, which nothing in src/ calls: "
    "cross_check makes one batched eigvals call",
    "numpy.roots.self_s": "proxies searchkit.np.roots, which nothing in src/ calls: "
    "cross_check makes one batched eigvals call",
    "exactnum.bisect_root_dyadic.calls": "wraps spectra.bisect_root_dyadic, which "
    "spectra._alpha_bracket calls only when the cell of its Newton guess fails the "
    "sign check, so it counts those fallbacks (0 on the pinned boxes), not alpha's "
    "brackets",
    "exactnum.bisect_root_dyadic.self_s": "wraps spectra.bisect_root_dyadic, which "
    "runs only as spectra._alpha_bracket's fallback; alpha's Newton steps count in "
    "spectra.exact_test_q2.self_s",
}
STALE_BOX_REJECT = {
    "spectra.exit.isolation": "counts classify's exits only; no box-reject candidate "
    "reaches classify, since the search's array route sends the rows it leaves "
    "open to spectra._decide, so it reads 0",
    "spectra.exit.sturm": "counts classify's exits only; the Sturm exits of the "
    "search's array route happen in spectra._decide, so it reads 0",
    "rootcert.sturm_chain.useful_ratio": "divides classify's Sturm and isolation "
    "exits, 0 on box-reject, by the chains that spectra._decide builds, so it reads 0",
    "rootcert.sturm_chain.calls": "wraps spectra.sturm_chain, a name item 6 deletes; "
    "it counts the chains that spectra._decide builds for the search's open rows",
    "spectra.exit.screen": "the search's array screens decide screened candidates "
    "without calling classify, so it reads 0",
    "spectra.classify.calls": "the search's array route calls spectra._decide, not "
    "classify, so it reads 0 on box-reject",
    "spectra.classify.self_s": "the search's array route calls spectra._decide, not "
    "classify, so it reads 0 on box-reject",
}
STALE = {"box-reject": {**STALE_ANY, **STALE_BOX_REJECT}, "box-accept": STALE_ANY}


def run_harness(checkout: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One harness run: its final JSON line, plus the record it wrote."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload]
    argv += ["--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv[1:])} exited {proc.returncode}: {proc.stderr[-800:]}")
    final = json.loads(proc.stdout.strip().splitlines()[-1])
    name = f"{workload}-seed{seed}-trace{trace}.json"
    with open(os.path.join(checkout, "perfbench", "results", name)) as fh:
        record = json.load(fh)
    return {"final": final, "details": record["details"]}


def src_lines(checkout: str) -> dict:
    """Line counts of src/spectorus/*.py, as `wc -l` counts them."""
    folder = os.path.join(checkout, "src", "spectorus")
    out = {}
    for name in sorted(os.listdir(folder)):
        if name.endswith(".py"):
            with open(os.path.join(folder, name), "rb") as fh:
                out[name] = fh.read().count(b"\n")
    out["total"] = sum(out.values())
    return out


def export_count(checkout: str) -> int:
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    code = "import spectorus; print(len(spectorus.__all__))"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return int(proc.stdout)


def tier1(checkout: str) -> dict:
    """The tier-1 suite's counts and criterion 1's time (the degree 4-6 box search)."""
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    argv = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
    proc = subprocess.run(argv, cwd=checkout, env=env, capture_output=True, text=True)
    counts = {k: int(v) for v, k in re.findall(r"(\d+) (passed|failed|error)", proc.stdout)}
    criterion_1 = re.search(r"criterion 1: (\w+) \|.*? in ([\d.]+)s;", proc.stdout)
    return {
        **counts,
        "exit": proc.returncode,
        "criterion_1": criterion_1 and criterion_1[1],
        "criterion_1_s": criterion_1 and float(criterion_1[2]),
    }


def git_head(checkout: str) -> str | None:
    """The checkout's commit, suffixed -dirty when its files differ from it."""
    proc = subprocess.run(
        ["git", "describe", "--always", "--dirty", "--abbrev=40"],
        cwd=checkout,
        capture_output=True,
        text=True,
    )
    return proc.stdout.strip() if proc.returncode == 0 else None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pr", type=int, required=True, help="number in the output name")
    ap.add_argument("--checkout", default=REPO, help="root of the checkout to measure")
    ap.add_argument("--commit", help="the checkout's commit (default: git describe in it)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    args = ap.parse_args(argv)
    checkout = os.path.abspath(args.checkout)

    end_to_end, runs, sha256 = {}, {}, {}
    for workload in WORKLOADS:
        result = run_harness(checkout, workload, args.seed, args.seconds, 0)
        final = result["final"]
        end_to_end[workload] = {k: v["value"] for k, v in final["metrics"].items()}
        runs[workload] = {k: final[k] for k in ("correct", "attempted", "failed")}
        sha256.update(result["details"].get("sha256", {}))
    layers = {}
    for workload in TRACED:
        final = run_harness(checkout, workload, args.seed, args.seconds, 1)["final"]
        metrics = {k: v["value"] for k, v in final["metrics"].items()}
        layers[workload] = {
            "correct": final["correct"],
            "metrics": metrics,
            "stale": {k: STALE[workload][k] for k in metrics if k in STALE[workload]},
        }

    snapshot = {
        "pr": args.pr,
        "commit": args.commit or git_head(checkout),
        "machine": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpus": os.cpu_count(),
        },
        "command": "python3 perfbench/run.py --workload W --seed S --seconds T --trace 0|1",
        "seed": args.seed,
        "seconds": args.seconds,
        "end_to_end": end_to_end,
        "runs": runs,
        "layers": layers,
        "sha256": sha256,
        "src_lines": src_lines(checkout),
        "all_exports": export_count(checkout),
        "tier1": tier1(checkout),
    }
    out = os.path.join(REPO, f"BENCH_{args.pr}.json")
    with open(out, "w") as fh:
        json.dump(snapshot, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
