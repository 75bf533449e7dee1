"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the root of a checkout:

    python3 perfbench/spread.py [--workloads scheme ...] [--seeds 10]
                                [--label TEXT] [--record]

For every workload it runs ``run.py --trace 0`` once per seed (seeds 1..n)
and prints, for each end-to-end metric, the median and the distance between
the first and third quartile as a share of the median, beside a third of the
metric's bound in BENCHMARK.json.  It then makes one traced run (seed 1).
With ``--record`` it appends the medians, quartiles, per-layer metrics and
environment to perfbench/results.json under the given label; the first entry
there is the seed-commit baseline.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(bench, workload, seed, trace):
    cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{' '.join(cmd)} reported incorrect outputs:\n{proc.stdout}")
    return result


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--label", default="unlabelled")
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args()

    entry = {"label": args.label, "seeds": args.seeds, "run_seconds": bench["run_seconds"],
             "workloads": {}}
    steady = True
    for workload in args.workloads:
        runs = [run_once(bench, workload, seed, 0) for seed in range(1, args.seeds + 1)]
        summary = {}
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / med
            ok = m["name"] == "setup_s" or share < m["bound"] / 3
            steady &= ok
            print(f"{workload:13s} {m['name']:12s} median {med:.6g} {m['unit']:3s} "
                  f"IQR/median {share:.4f}  (bound/3 {m['bound'] / 3:.4f}) "
                  f"{'ok' if ok else 'WIDE'}  values {[round(v, 4) for v in values]}",
                  flush=True)
            summary[m["name"]] = {"median": med, "q1": q1, "q3": q3, "unit": m["unit"],
                                  "values": values}
        traced = run_once(bench, workload, 1, 1)
        entry["workloads"][workload] = {
            "end_to_end": summary,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    if args.record:
        record = json.loads((ROOT / ".perfbench_out" / args.workloads[0]
                             / "run-seed1-trace1.json").read_text())
        entry["environment"] = record["environment"]
        entry["environment"].pop("configs")
        entry["configs"] = {
            w: json.loads((ROOT / ".perfbench_out" / w / "run-seed1-trace1.json").read_text())
            ["environment"]["configs"] for w in args.workloads}
        path = HERE / "results.json"
        results = json.loads(path.read_text()) if path.is_file() else []
        results.append(entry)
        path.write_text(json.dumps(results, indent=1) + "\n")
    print("steady" if steady else "NOT steady: a spread is at or above a third of its bound")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
