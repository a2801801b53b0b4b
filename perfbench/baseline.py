"""Record the benchmark's baseline: every workload over several seeds.

Run from the repository root:

    python3 perfbench/baseline.py --runs 10 --sets 2 --out perfbench/baseline.json

Set s runs seeds s*runs+1 .. (s+1)*runs of every workload with tracing
off, one run at a time, for ``run_seconds`` of BENCHMARK.json.  For each
end-to-end metric the record holds the median, quartiles and spread
(quartile distance over median) of every set, and the drift of each later
set's median against the first, both to be read against the metric's
bound.  The same summary of the raw, unnormalized figures is kept beside
it, and each run's raw figures with it.  Two traced runs per workload on
the first seed check that every `.calls` and `.failed` count repeats
exactly; the first one's per-layer figures and both runs' tracing overhead
are kept.  The record also holds the environment, each workload's reason
and the prediction table.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Which end-to-end metric each layer metric should move, written before any
# optimization lands; "unchanged" lists the predicted no-change pairings.
PREDICTIONS = [
    {"layer": ["algebra.cross.self_ms", "algebra.dot_sym.self_ms", "linearize.power_table.self_ms"],
     "moves": {"pairs-n8": ["compose_ok_per_s", "similarity_ok_per_s"]},
     "unchanged": {"pairs-n3": ["*"]}},
    {"layer": ["linsolve.lu_factor.calls", "linsolve.condition_number.self_ms",
               "bch.build_adjoint_kernel.self_ms"],
     "note": "lu_factor runs twice per similarity today",
     "moves": {"pairs-n8": ["similarity_ok_per_s"]},
     "unchanged": {"*": ["compose_ok_per_s", "compose_p50_ms", "compose_p90_ms"]}},
    {"layer": ["spectral.eig_hermitian.self_ms", "spectral.eig_unitary.self_ms"],
     "moves": {"pairs-n3": ["*"]}},
    {"layer": ["spectral.expansion_coeffs.failed"],
     "moves": {"near-identity-n4": ["compose_ok_share", "compose_ok_per_s"]},
     "unchanged": {"pairs-n3": ["*"]}},
    {"layer": ["spectral.char_poly.self_ms", "spectral.lagrange_projectors.self_ms",
               "sampling.random_coords.self_ms", "cli.main.self_ms"],
     "moves": {"verify-n4": ["verify_s"]},
     "unchanged": {"pairs-n8": ["*"], "pairs-n3": ["*"], "near-identity-n4": ["*"]}},
    {"layer": ["algebra.structure_constants.self_ms"],
     "note": "under 1 ms at N = 3",
     "moves": {"pairs-n8": ["setup_s"]}},
]


def bench_run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One benchmark process: (detail record, result object)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed} trace {trace} exited {proc.returncode}:\n"
                         f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "runs": len(values), "values": values}


def environment(detail: dict) -> dict:
    """run.py's environment record, plus what the benchmark itself does not read."""
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    return dict(detail["environment"], cpu_model=cpu, git_commit=commit)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="seeds per set")
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    record = {"environment": None, "run_seconds": seconds,
              "estimator": "each metric: median over runs; quartiles by statistics.quantiles(n=4)",
              "predictions": PREDICTIONS, "workloads": {}}
    ok = True
    for workload in why:
        sets = []
        for s in range(args.sets):
            runs = [bench_run(workload, seed, seconds, 0)
                    for seed in range(s * args.runs + 1, (s + 1) * args.runs + 1)]
            sets.append(runs)
            for detail, result in runs:
                ok &= result["correct"]
        record["environment"] = record["environment"] or environment(sets[0][0][0])
        entry = {"why": why[workload], "metrics": {}, "raw_metrics": {}, "runs": []}
        for s, runs in enumerate(sets):
            for detail, result in runs:
                entry["runs"].append({
                    "set": s, "seed": detail["seed"], "inputs_sha256": detail["inputs_sha256"],
                    "attempted": result["attempted"], "failed": result["failed"],
                    "failed_share": detail["failed_share"], "samples": detail["samples"],
                    "refused": detail.get("refused"), "wrong": detail["wrong"],
                    "cut_short": detail.get("cut_short"),
                    "failed_properties": detail.get("failed_properties"),
                    "inputs_drawn_sha256": detail.get("inputs_drawn_sha256"),
                    "raw": detail["raw"],
                })
        for name, bound in bounds.items():
            better_lower = next(m["better"] for m in spec["end_to_end"] if m["name"] == name) == "lower"
            for key, values in (("metrics", lambda r, d: r["metrics"][name]["value"]),
                                ("raw_metrics", lambda r, d: d["raw"][name])):
                per_set = [summarize([values(r, d) for d, r in runs]) for runs in sets]
                first = per_set[0]["median"]
                drift = [(p["median"] - first) / first * (1 if better_lower else -1)
                         for p in per_set[1:]]
                entry[key][name] = {"unit": units[name], "bound": bound, "sets": per_set,
                                    "worsening_vs_first_set": drift}
                spreads = " ".join(f"{p['spread']:.3f}" for p in per_set)
                flag = ""
                if name != "setup_s" and any(p["spread"] > bound / 3 for p in per_set):
                    flag = "  SPREAD>bound/3"
                if any(d > bound for d in drift):
                    flag += "  DRIFT>bound"
                label = name if key == "metrics" else f"{name} (raw)"
                print(f"{workload:18s} {label:26s} median {first:12.6g}  spread {spreads}  "
                      f"drift {' '.join(f'{d:+.3f}' for d in drift)}  bound {bound}{flag}",
                      flush=True)
        traced = [bench_run(workload, 1, seconds, 1) for _ in range(2)]
        counts = [{k: v["value"] for k, v in r["metrics"].items() if not k.endswith(".self_ms")}
                  for _, r in traced]
        repeat = counts[0] == counts[1]
        ok &= repeat and all(r["correct"] for _, r in traced)
        detail, result = traced[0]
        entry["trace"] = {
            "seed": 1, "counts_repeat_across_runs": repeat,
            "tracing_overhead": [d["tracing_overhead"] for d, _ in traced],
            "tracing_overhead_raw": [d["tracing_overhead_raw"] for d, _ in traced],
            "traced_equals_untraced": all(not d["traced_differs_from_untraced"] for d, _ in traced),
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        }
        print(f"{workload:18s} trace: counts repeat {repeat}, overhead "
              f"{entry['trace']['tracing_overhead']} raw {entry['trace']['tracing_overhead_raw']}",
              flush=True)
        record["workloads"][workload] = entry
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
