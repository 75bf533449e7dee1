"""fwlab benchmark: run one workload for a fixed time and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload scheme --seed 1 --seconds 30 --trace 0

One process, one closed-loop client: repetitions run back to back in this
process, with no extra threads.  Each repetition runs the workload's configs
through ``fwlab.harness.run_experiment`` with CSVs written, then checks the
verdicts, the key scalars against the seed-commit reference and that the CSVs
are byte-identical to the first repetition's.  A repetition that raises or
misses a check counts as failed.

With ``--trace 0`` the run reports the end-to-end metrics:

- ``wall_s``: median wall time of one repetition, rescaled to the reference
  host speed by the ``hostspeed`` bursts run during it;
- ``setup_s``: median, over fresh interpreters started between repetitions,
  of imports, config parse, partition build and warm-up, each rescaled by
  bursts run right after it;
- ``peak_rss_mb``: ``ru_maxrss`` of this process, which is fresh for each
  run and never runs tracemalloc or the tracer when untraced.

With ``--trace 1`` untraced and traced repetitions alternate, and the run
reports the per-layer metrics of ``tracer.LAYER_METRICS`` (medians over the
traced repetitions) plus the tracing overhead, from raw wall times: no
repetition of a traced run is sampled.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Each run also writes
a record (environment, configs, every repetition) and, when traced, its spans
under ``.perfbench_out/<workload>/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

#: fresh interpreters timed for setup_s; one runs before the first
#: repetition and one after each, so they sample the machine across the run
SETUP_PROBES = 7
#: repetitions run even when one outlasts --seconds, so a median exists
MIN_REPS = 3

WORKLOAD_NAMES = ("scheme", "direct-sweep", "lifespan-p4")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="reduced sizes, verdict checks only (self-test)")
    return ap.parse_args(argv)


def probe_setup(args, out_dir: Path, env: dict) -> tuple[float, float]:
    """Raw and rescaled set-up seconds of one fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "probe_setup.py"), args.workload,
         str(args.seed), str(out_dir), "1" if args.smoke else "0"],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    raw, scaled = proc.stdout.strip().splitlines()[-1].split()
    return float(raw), float(scaled)


def git_rev() -> str | None:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment(docs) -> dict:
    source = hashlib.sha256()
    for path in sorted((SRC / "fwlab").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    return {
        "git_rev": git_rev(),
        "source_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")},
        "configs": docs,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fwlab" / "__init__.py").is_file():
        print(f"error: no fwlab sources under {SRC}", file=sys.stderr)
        return 2
    # keep every CSV inside the checkout
    env = {k: v for k, v in os.environ.items() if k != "FWLAB_OUT"}
    os.environ.pop("FWLAB_OUT", None)
    out_dir = OUT / args.workload

    setup_times = []

    def probe():
        # setup_s is an end-to-end metric: a traced run does not report it
        if not args.trace and len(setup_times) < SETUP_PROBES:
            setup_times.append(probe_setup(args, out_dir / "csv", env))

    probe()

    sys.path.insert(0, str(SRC))
    import fwlab

    if Path(fwlab.__file__).resolve().parent != SRC / "fwlab":
        print(f"error: fwlab imported from {fwlab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import hostspeed
    import workloads
    from fwlab import harness
    from tracer import LAYER_METRICS, Tracer, summarize

    cfgs = workloads.setup(args.workload, args.seed, out_dir / "csv", args.smoke)
    reference = None
    if not args.smoke:
        table = json.loads((HERE / "reference.json").read_text())
        reference = workloads.reference_for(table, args.workload, args.seed)
    tracer = Tracer() if args.trace else None
    sampler = None if args.trace else hostspeed.Sampler()

    reps = []  # one dict per repetition
    first_digests = None
    loop_start = time.perf_counter()
    while True:
        i = len(reps)
        traced = bool(tracer) and i % 2 == 1
        rep = {"index": i, "traced": traced, "wall_s": None, "scaled_s": None,
               "problems": []}
        reports = None
        try:
            with tracer.active(i) if traced else sampler or nullcontext():
                t0 = time.perf_counter()
                # looked up on the module each time, so the tracer's wrapper runs
                reports = [harness.run_experiment(cfg) for cfg in cfgs]
                rep["wall_s"] = time.perf_counter() - t0
            if sampler:
                rep["wall_s"] = sampler.wall_s
                rep["scaled_s"] = sampler.scaled_s
                rep["bursts_s"] = sampler.bursts
            rep["problems"] = workloads.check(reports, reference)
            digests = workloads.csv_digests(cfgs)
            if first_digests is None:
                first_digests = digests
            elif digests != first_digests:
                rep["problems"].append("CSVs differ from the first repetition's")
            if traced:
                rep["layers"] = tracer.rep_metrics(i)
                # repetition 1 is the first traced one
                for key in tracer.count_mismatches(i, 1):
                    rep["problems"].append(f"count {key} differs from repetition 1")
        except Exception as exc:  # a failed repetition is counted, not fatal
            rep["problems"].append(f"raised {type(exc).__name__}: {exc}")
        reports = None  # free this repetition's arrays before the next
        reps.append(rep)
        elapsed = time.perf_counter() - loop_start
        last = rep["wall_s"] or 0.0
        if len(reps) >= MIN_REPS and elapsed + last > args.seconds:
            break
        probe()
    for _ in range(SETUP_PROBES):
        probe()

    attempted = len(reps)
    failed = sum(1 for r in reps if r["problems"])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    untraced = [r["wall_s"] for r in reps if not r["traced"] and r["wall_s"] is not None]
    scaled = [r["scaled_s"] for r in reps if r["scaled_s"] is not None]
    traced_reps = [r for r in reps if r["traced"] and "layers" in r]

    def metric(value, unit):
        return {"value": value, "unit": unit}

    wall_s = statistics.median(untraced) if untraced else None
    if args.trace:
        metrics = {}
        if traced_reps:
            layers = summarize([r["layers"] for r in traced_reps])
            trace_wall = statistics.median(r["wall_s"] for r in traced_reps)
            layers["trace.wall_s"] = trace_wall
            layers["trace.overhead_s"] = trace_wall - wall_s if wall_s is not None else None
            metrics = {k: metric(layers[k], LAYER_METRICS[k][0]) for k in LAYER_METRICS}
            tracer.write(out_dir / "spans.npz")
    else:
        metrics = {
            "wall_s": metric(statistics.median(scaled) if scaled else None, "s"),
            "setup_s": metric(statistics.median(s for _, s in setup_times), "s"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
        }

    result = {"correct": failed == 0 and bool(metrics), "attempted": attempted,
              "failed": failed, "metrics": metrics}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "environment": environment(workloads.config_docs(
            args.workload, args.seed, out_dir.relative_to(ROOT) / "csv", args.smoke)),
        "setup_probes_s": [{"raw": r, "scaled": s} for r, s in setup_times],
        "repetitions": reps,
        "failed_ops_ratio": failed / attempted, "result": result,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"run-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str))

    for r in reps:
        for problem in r["problems"]:
            print(f"repetition {r['index']}: {problem}")
    print(f"workload {args.workload}  seed {args.seed}  "
          f"(config seed {workloads.config_seed(args.seed)})  trace {args.trace}")
    print(f"failed_ops_ratio {failed / attempted} ratio  ({failed}/{attempted} repetitions)")
    for name, m in metrics.items():
        note = ""
        if name == "wall_s":
            note = (f"  (median of {len(scaled)} repetitions; raw wall time "
                    f"{wall_s} s at the host's speed)")
        elif name == "setup_s":
            note = (f"  (median of {len(setup_times)} probes; raw "
                    f"{statistics.median(r for r, _ in setup_times)} s)")
        print(f"{name} {m['value']} {m['unit']}{note}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
