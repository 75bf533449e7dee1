"""Print a sha256 of every output the experiments write, to check that two
checkouts give the same bits.

Usage, from the root of a checkout:

    python3 tools/digests.py [OUT_DIR]

It runs every experiment kind of ``fwlab.harness`` at its CLI defaults, then
``transport`` with ``fit_constant``, then each benchmark workload through
``perfbench/workloads.py`` (its ``setup`` and ``csv_digests``, seed 1).  The
outputs go under OUT_DIR, a temporary directory by default.  It prints one
``<sha256>  <path>`` line for every CSV and every ``summary.txt``, each path
relative to OUT_DIR; a summary is hashed without its ``wall_time_s`` and
``output_dir`` lines, which differ from run to run.  Run it in two checkouts
and diff what they print.
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from fwlab.harness import EXPERIMENT_KINDS, parse_config, run_experiment  # noqa: E402
import workloads  # noqa: E402

#: the benchmark seed the workloads are set up at
SEED = 1


def _summary_digest(path: Path) -> str:
    lines = path.read_text().splitlines(keepends=True)
    kept = [line for line in lines
            if not line.startswith(("wall_time_s =", "output_dir:"))]
    return hashlib.sha256("".join(kept).encode()).hexdigest()


def main(root: Path) -> None:
    runs = [(kind, {"experiment.kind": kind}) for kind in EXPERIMENT_KINDS]
    runs.append(("transport-fit", {"experiment.kind": "transport",
                                   "experiment.fit_constant": True}))
    cfgs = [parse_config("", {**overrides, "output_dir": str(root / name)})
            for name, overrides in runs]
    for name in workloads.WORKLOADS:
        cfgs += workloads.setup(name, SEED, root / "workloads" / name)
    for cfg in cfgs:
        run_experiment(cfg)
    digests = workloads.csv_digests(cfgs)  # by absolute path
    for cfg in cfgs:
        summary = Path(cfg.output_dir) / "summary.txt"
        digests[str(summary)] = _summary_digest(summary)
    for path, digest in sorted(digests.items()):
        print(f"{digest}  {Path(path).relative_to(root)}")


if __name__ == "__main__":
    if len(sys.argv) > 1:
        main(Path(sys.argv[1]).resolve())
    else:
        with tempfile.TemporaryDirectory() as tmp:
            main(Path(tmp))
