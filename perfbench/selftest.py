"""Self-test of the fwlab benchmark at reduced sizes.

Usage, from the root of a checkout:  python3 perfbench/selftest.py

For every workload, untraced and traced, it runs ``run.py --smoke`` and
checks that the outputs pass, that every metric named in BENCHMARK.json is
emitted with its unit, and that the per-layer self times add up to the traced
wall time within the tracing overhead.  It also checks that the tracer
refuses a missing entry point, and that the benchmark exits non-zero without
a result in a directory holding only BENCHMARK.json and perfbench/.
Exit code 0 when everything holds.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SELF_TIMES = ("fft.self_s", "besov.self_s", "transport.self_s",
              "fw.direct_self_s", "fw.scheme_self_s", "harness.self_s")
#: layers a workload must not touch (the "no change" side of each prediction)
UNUSED = {
    "scheme": ("fw.direct_calls",),
    "direct-sweep": ("transport.solve_calls", "fw.scheme_calls"),
    "lifespan-p4": ("transport.solve_calls", "fw.scheme_calls"),
}


def run(cmd, cwd):
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout, proc.stderr


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))
    failures = []

    def expect(ok, what):
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    for w in bench["workloads"]:
        name = w["name"]
        for trace, declared in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            code, out, err = run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"],
                ROOT)
            tag = f"{name} trace {trace}"
            expect(code == 0, f"{tag}: exit code {code} {err[-500:]}")
            if code != 0:
                continue
            result = json.loads(out.strip().splitlines()[-1])
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{tag}: outputs pass ({out.strip().splitlines()[:-1][:3]})")
            metrics = result["metrics"]
            expect(set(metrics) == {m["name"] for m in declared},
                   f"{tag}: emits exactly the declared metrics")
            expect(all(metrics[m["name"]]["unit"] == m["unit"]
                       for m in declared if m["name"] in metrics),
                   f"{tag}: units match BENCHMARK.json")
            if trace:
                value = {k: v["value"] for k, v in metrics.items()}
                self_sum = sum(value[k] for k in SELF_TIMES)
                wall, overhead = value["trace.wall_s"], value["trace.overhead_s"]
                # medians over repetitions do not add exactly; allow the
                # overhead or 10% of the wall time, whichever is larger
                slack = max(abs(overhead), 0.1 * wall)
                expect(abs(wall - self_sum) <= slack,
                       f"{tag}: self times sum to {self_sum:.4f} s, "
                       f"traced wall {wall:.4f} s, slack {slack:.4f} s")
                expect(all(value[k] == 0 for k in UNUSED[name]),
                       f"{tag}: unused layers report 0")
            else:
                expect(all(v["value"] > 0 for v in metrics.values()),
                       f"{tag}: end-to-end metrics are positive")

    import tracer  # noqa: E402

    try:
        tracer.Tracer({"fw.direct": ("fwlab.fw:no_such_entry_point",)})
        expect(False, "tracer refuses a missing entry point")
    except tracer.MissingEntryPoint:
        expect(True, "tracer refuses a missing entry point")

    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, out, _ = run([sys.executable, f"{HERE.name}/run.py", "--workload", "scheme",
                        "--seed", "1", "--seconds", "1", "--trace", "0"], bare)
    expect(code != 0 and '"correct"' not in out,
           f"bare directory: exit code {code}, no result printed")
    shutil.rmtree(bare)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
