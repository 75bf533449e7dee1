"""Regenerate perfbench/reference.json from the current fwlab sources.

Usage, from the root of a checkout:  python3 perfbench/make_reference.py

Run it only at a commit whose outputs are trusted (the seed commit): every
later benchmark run checks its outputs against the values written here.  Each
workload runs once; ``direct-sweep`` runs once per config seed, because its
stability perturbation is drawn from the seed.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from fwlab.harness import run_experiment  # noqa: E402

SEEDED = {"direct-sweep"}


def main() -> int:
    out = ROOT / ".perfbench_out" / "reference"
    table = {}
    for name in workloads.WORKLOADS:
        seeds = range(workloads.REFERENCE_SEEDS) if name in SEEDED else [0]
        table[name] = {}
        for seed in seeds:
            cfgs = workloads.setup(name, seed, out / name)
            reports = [run_experiment(cfg, write=False) for cfg in cfgs]
            key = str(seed) if name in SEEDED else "any"
            table[name][key] = {"verdicts": workloads.verdicts(reports),
                                "values": workloads.observe(reports)}
            unusual = workloads.check(reports, None)
            print(name, key, *unusual, flush=True)
    (HERE / "reference.json").write_text(json.dumps(table, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
