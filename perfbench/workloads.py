"""Workloads of the fwlab benchmark: configs, set-up and output checks.

Every workload runs the paper's experiments through the public entry point
``fwlab.harness.run_experiment`` at N=256, L=8 with the ``sine`` preset, and
writes its CSVs.  One repetition runs every config of the workload once.

- ``scheme``: the mollified transport iteration at the criterion-9 sizes
  (20 transport solves of 1006 steps); no direct solver.
- ``direct-sweep``: the stability and continuity sweeps at the criteria
  11-12 sizes (13 direct solves of 500 steps); no transport.
- ``lifespan-p4``: the lifespan sweep at p=4, where every member blows up
  and the Besov norms take the general-p path on long batches.
"""

from __future__ import annotations

import copy
import hashlib
from pathlib import Path

import numpy as np
import yaml

from fwlab.besov import besov_norms_batch, build_partition
from fwlab.harness import RunConfig, parse_config

#: Only the stability perturbation depends on the config seed.  The reference
#: file holds seed-commit values for this many config seeds, and the benchmark
#: seed is reduced modulo it, so every repetition is checked against a stored
#: value.
REFERENCE_SEEDS = 64

_COMMON = {
    "grid": {"N": 256, "L": 8.0},
    "besov": {"s": 3.0, "p": 2.0, "r": 2.0},
    "scheme": {"C": 1.0, "n_max": 10},
    "experiment": {"preset": "sine", "amplitude": 0.1},
}

WORKLOADS = {
    "scheme": [
        {"time": {"dt": 2e-3}, "experiment": {"kind": "iterate"}},
    ],
    "direct-sweep": [
        {"time": {"T": 1.0, "dt": 2e-3},
         "experiment": {"kind": "stability", "deltas": [1e-2, 1e-3, 1e-4]}},
        {"time": {"T": 1.0, "dt": 2e-3},
         "experiment": {"kind": "continuity", "j_max": 5}},
    ],
    "lifespan-p4": [
        {"time": {"dt": 5e-3, "t_cap": 20.0}, "besov": {"p": 4.0},
         "experiment": {"kind": "lifespan-sweep",
                        "amplitudes": [0.25, 0.5, 1.0, 2.0]}},
    ],
}

#: reduced sizes for the self-test; they give the same verdicts
SMOKE = {
    "scheme": [{"grid": {"N": 64}, "time": {"dt": 2e-2}, "scheme": {"n_max": 3}}],
    "direct-sweep": [{"grid": {"N": 64}, "time": {"T": 0.5, "dt": 1e-2}}] * 2,
    "lifespan-p4": [{"grid": {"N": 64}, "time": {"dt": 2e-2, "t_cap": 5.0}}],
}

#: Verdicts that fail at every seed: the criterion-10 finding that T_emp*P0^2
#: is not amplitude-independent, because the rest state is linearly unstable.
#: The reference file records each seed's verdicts; at some seeds the
#: stability perturbation has a growth rate near zero and the 10% beta
#: agreement fails too.
EXPECTED_FAILURES = {("lifespan-sweep", "product_within_30pct")}

#: (rtol, atol) for each scalar compared with the seed-commit reference
TOLERANCES = {
    "P0": (1e-10, 0.0),
    "T": (1e-10, 0.0),
    "d_n": (1e-8, 0.0),
    "beta": (1e-6, 0.0),
    "continuity_error": (1e-6, 1e-11),
    "lifespan_P0": (1e-10, 0.0),
    # the empirical lifespan is a time node: allow one step (dt = 5e-3)
    "T_emp": (0.0, 5.0001e-3),
}


def config_seed(seed: int) -> int:
    return seed % REFERENCE_SEEDS


def _merge(base: dict, extra: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in extra.items():
        if isinstance(value, dict):
            out[key] = _merge(out.get(key, {}), value)
        else:
            out[key] = value
    return out


def config_docs(name: str, seed: int, out_dir: Path, smoke: bool = False) -> list[dict]:
    """The full YAML documents of one workload's configs."""
    docs = []
    for i, spec in enumerate(WORKLOADS[name]):
        doc = _merge(_COMMON, spec)
        if smoke:
            doc = _merge(doc, SMOKE[name][i])
        doc["seed"] = config_seed(seed)
        doc["output_dir"] = str(out_dir / f"{i}-{doc['experiment']['kind']}")
        docs.append(doc)
    return docs


def setup(name: str, seed: int, out_dir: Path, smoke: bool = False) -> list[RunConfig]:
    """Parse the configs, build each partition and warm up the FFT and
    Besov paths at the workload's grid size."""
    cfgs = [parse_config(yaml.safe_dump(doc))
            for doc in config_docs(name, seed, out_dir, smoke)]
    for cfg in cfgs:
        grid = cfg.make_grid()
        part = build_partition(grid)
        rows = np.fft.fft(np.ones((2, grid.N))) / grid.N
        besov_norms_batch(part, rows, cfg.besov_params())
    return cfgs


def observe(reports) -> dict[str, list[float]]:
    """The key summary scalars of one repetition, by name."""
    values: dict[str, list] = {}
    for report in reports:
        if report.kind == "iterate":
            values["P0"] = [report.summary["P0"]]
            values["T"] = [report.summary["T"]]
            header, rows = report.tables["scheme"]
            i_n, i_d = header.index("n"), header.index("d_n")
            d_n = {}
            for row in rows:
                if row[i_n] >= 1:
                    d_n.setdefault(row[i_n], row[i_d])
            values["d_n"] = [d_n[n] for n in sorted(d_n)]
        elif report.kind == "stability":
            values["beta"] = report.summary["beta_values"].split()
        elif report.kind == "continuity":
            values["continuity_error"] = [row[2] for row in report.tables["continuity"][1]]
        elif report.kind == "lifespan-sweep":
            rows = report.tables["lifespan"][1]
            values["lifespan_P0"] = [row[1] for row in rows]
            values["T_emp"] = [row[2] for row in rows]
    return {k: [float(x) for x in v] for k, v in values.items()}


def verdicts(reports) -> dict[str, bool]:
    return {f"{r.kind}:{name}": bool(ok) for r in reports for name, ok in r.verdicts.items()}


def default_verdicts(reports) -> dict[str, bool]:
    """Every verdict passes except the EXPECTED_FAILURES."""
    return {f"{r.kind}:{name}": (r.kind, name) not in EXPECTED_FAILURES
            for r in reports for name in r.verdicts}


def check(reports, reference: dict | None) -> list[str]:
    """Problems with one repetition's outputs; empty when all is as expected.

    With a reference, the verdicts must equal its verdicts and each of its
    scalars must match the observed value within TOLERANCES.  Without one
    (the reduced sizes of the self-test), the verdicts must equal
    default_verdicts.
    """
    got = verdicts(reports)
    expected = reference["verdicts"] if reference else default_verdicts(reports)
    problems = [
        f"verdict {name} is {got.get(name)}, expected {want}"
        for name, want in expected.items() if got.get(name) != want
    ]
    problems += [f"unexpected verdict {name}" for name in got if name not in expected]
    if reference is None:
        return problems
    observed = observe(reports)
    for key, ref in reference["values"].items():
        value = observed.get(key)
        if value is None or len(value) != len(ref):
            problems.append(f"{key}: expected {len(ref)} values, got {value}")
            continue
        rtol, atol = TOLERANCES[key]
        if not np.allclose(value, ref, rtol=rtol, atol=atol):
            problems.append(f"{key}: {value} differs from reference {ref} "
                            f"(rtol {rtol:g}, atol {atol:g})")
    return problems


def reference_for(table: dict, name: str, seed: int) -> dict:
    """Seed-commit reference scalars for one workload and benchmark seed."""
    by_seed = table[name]
    ref = by_seed.get(str(config_seed(seed)), by_seed.get("any"))
    if ref is None:
        raise KeyError(f"no reference values for {name} at seed {seed}")
    return ref


def csv_digests(cfgs: list[RunConfig]) -> dict[str, str]:
    """sha256 of every CSV the configs wrote."""
    out = {}
    for cfg in cfgs:
        for path in sorted(Path(cfg.output_dir).glob("*.csv")):
            out[str(path)] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out
