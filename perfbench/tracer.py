"""Outside-in span tracer for the fwlab benchmark.

The tracer replaces the public entry points of each fwlab layer, and every
``numpy.fft`` transform, with wrappers that record a span (name, start, end,
parent, repetition) and count the work done.  It wraps each function at every
place it is bound: ``fw``, ``transport`` and ``harness`` import
``solve_transport``, ``besov_norms_batch``, ``run_scheme`` and
``solve_fw_direct`` by name, so patching only the defining module would miss
those calls.  Spans live in typed arrays in memory and are written out once,
when the benchmark ends.

A layer's self time is its spans' durations minus the parts covered by their
direct child spans; since one thread runs everything, children nest inside
their parent and the subtraction is exact.
"""

from __future__ import annotations

import importlib
import statistics
import sys
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

#: span name -> entry points it wraps, as "module:qualified.name"
LAYERS = {
    "fft": tuple(
        f"numpy.fft:{fn}" for fn in (
            "fft", "ifft", "rfft", "irfft", "hfft", "ihfft",
            "fft2", "ifft2", "rfft2", "irfft2",
            "fftn", "ifftn", "rfftn", "irfftn",
        )
    ),
    "besov": ("fwlab.besov:besov_norms_batch", "fwlab.besov:besov_norm"),
    "transport": ("fwlab.transport:solve_transport",),
    "fw.direct": ("fwlab.fw:solve_fw_direct",),
    "fw.scheme": ("fwlab.fw:run_scheme",),
    "harness.run": ("fwlab.harness:run_experiment",),
    "harness.write": ("fwlab.harness:ExperimentReport.write",),
}

#: per-layer metric -> (unit, better, what it should move).  The last field
#: records, before any optimisation is measured, which end-to-end metric on
#: which workload a change to this layer should move.
LAYER_METRICS = {
    "fft.calls": ("count", "lower", "wall_s on scheme and direct-sweep: at N=256 per-call overhead dominates, so batching is the lever"),
    "fft.rows": ("count", "lower", "wall_s on scheme and direct-sweep"),
    "fft.rows_per_call": ("rows/call", "higher", "wall_s on scheme and direct-sweep"),
    "fft.self_s": ("s", "lower", "wall_s on scheme and direct-sweep"),
    "fft.bytes_computed": ("B", "lower", "wall_s on scheme and direct-sweep"),
    "besov.norm_calls": ("count", "lower", "wall_s on scheme; peak_rss_mb on lifespan-p4"),
    "besov.norm_rows": ("count", "lower", "wall_s on scheme; peak_rss_mb on lifespan-p4"),
    "besov.busy_s": ("s", "lower", "wall_s on scheme; a p=2-only shortcut leaves lifespan-p4 unchanged"),
    "besov.self_s": ("s", "lower", "wall_s on scheme; peak_rss_mb on lifespan-p4"),
    "transport.solve_calls": ("count", "lower", "wall_s on scheme only"),
    "transport.row_steps": ("count", "lower", "wall_s on scheme only"),
    "transport.busy_s": ("s", "lower", "wall_s on scheme only"),
    "transport.self_s": ("s", "lower", "wall_s on scheme only"),
    "transport.step_us": ("us", "lower", "wall_s on scheme only"),
    "transport.blowups": ("count", "lower", "wall_s on scheme only"),
    "fw.direct_calls": ("count", "lower", "wall_s on direct-sweep and lifespan-p4; nothing on scheme"),
    "fw.direct_steps": ("count", "lower", "wall_s on direct-sweep and lifespan-p4; nothing on scheme"),
    "fw.direct_busy_s": ("s", "lower", "wall_s on direct-sweep and lifespan-p4; nothing on scheme"),
    "fw.direct_self_s": ("s", "lower", "wall_s on direct-sweep and lifespan-p4; nothing on scheme"),
    "fw.direct_step_us": ("us", "lower", "wall_s on direct-sweep and lifespan-p4; nothing on scheme"),
    "fw.direct_blowups": ("count", "lower", "wall_s on lifespan-p4"),
    "fw.direct_useful_step_ratio": ("ratio", "higher", "wall_s on lifespan-p4 only"),
    "fw.scheme_calls": ("count", "lower", "wall_s and peak_rss_mb on scheme"),
    "fw.scheme_busy_s": ("s", "lower", "wall_s and peak_rss_mb on scheme"),
    "fw.scheme_self_s": ("s", "lower", "wall_s and peak_rss_mb on scheme"),
    "fw.scheme_iterate_s": ("s", "lower", "wall_s and peak_rss_mb on scheme"),
    "harness.run_s": ("s", "lower", "wall_s on every workload"),
    "harness.write_s": ("s", "lower", "wall_s on scheme (about 1%); negligible elsewhere"),
    "harness.csv_bytes": ("B", "lower", "wall_s on scheme (about 1%); negligible elsewhere"),
    "harness.self_s": ("s", "lower", "wall_s on every workload"),
    "trace.wall_s": ("s", "lower", "traced wall time of one repetition; not an optimisation target"),
    "trace.overhead_s": ("s", "lower", "traced minus untraced raw wall time of one repetition; not an optimisation target"),
}

#: counts that must repeat exactly from one repetition to the next
EXACT_COUNTS = (
    "fft.calls", "fft.rows", "fft.bytes_computed",
    "besov.norm_calls", "besov.norm_rows",
    "transport.solve_calls", "transport.row_steps", "transport.blowups",
    "fw.direct_calls", "fw.direct_steps", "fw.direct_useful_steps",
    "fw.direct_blowups", "fw.scheme_calls", "fw.scheme_iterates",
    "harness.csv_bytes",
)


class MissingEntryPoint(RuntimeError):
    """A named public entry point no longer exists."""


def _resolve(spec: str):
    """Return (owner, attribute, function) for "module:qualified.name"."""
    module_name, qualname = spec.split(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError as exc:
        raise MissingEntryPoint(f"entry point {spec}: {exc}") from exc
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            raise MissingEntryPoint(f"entry point {spec} no longer exists")
    fn = getattr(owner, attr, None)
    if not callable(fn):
        raise MissingEntryPoint(f"entry point {spec} no longer exists")
    return owner, attr, fn


class Tracer:
    """Spans and work counts for the traced repetitions of one run."""

    def __init__(self, layers: dict[str, tuple[str, ...]] = LAYERS):
        self.layer_names = list(layers)
        self._targets = []  # (layer id, owner, attribute, function)
        for lid, name in enumerate(self.layer_names):
            for spec in layers[name]:
                self._targets.append((lid, *_resolve(spec)))
        self.kind = array("b")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.rep = array("l")
        self._stack: list[int] = []
        self._rep = -1
        self.counts: dict[int, Counter] = {}

    # -- spans --------------------------------------------------------------

    def _begin(self, lid: int) -> int:
        idx = len(self.kind)
        self.kind.append(lid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.rep.append(self._rep)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _finish(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, lid: int, fn):
        name = self.layer_names[lid]
        account = getattr(self, "_count_" + name.replace(".", "_"))
        begin, finish = self._begin, self._finish

        def traced(*args, **kwargs):
            idx = begin(lid)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                finish(idx)
                account(args, kwargs, None, exc)
                raise
            finish(idx)
            account(args, kwargs, result, None)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _count_fft(self, args, kwargs, out, exc):
        c = self.counts[self._rep]
        c["fft.calls"] += 1
        if out is None:
            return
        axis = kwargs.get("axis", args[2] if len(args) > 2 else -1)
        if not isinstance(axis, int):
            axis = -1
        c["fft.rows"] += out.size // max(out.shape[axis], 1)
        c["fft.bytes_computed"] += np.asarray(args[0] if args else kwargs["a"]).nbytes + out.nbytes

    def _count_besov(self, args, kwargs, out, exc):
        c = self.counts[self._rep]
        c["besov.norm_calls"] += 1
        c["besov.norm_rows"] += int(np.size(out)) if out is not None else 0

    def _count_transport(self, args, kwargs, out, exc):
        c = self.counts[self._rep]
        c["transport.solve_calls"] += 1
        if out is not None:
            c["transport.row_steps"] += out.time_grid.size - 1
        elif hasattr(exc, "node"):
            c["transport.row_steps"] += exc.node
            c["transport.blowups"] += 1

    def _count_fw_direct(self, args, kwargs, out, exc):
        c = self.counts[self._rep]
        c["fw.direct_calls"] += 1
        if out is not None:
            steps = out.time_grid.size - 1
            c["fw.direct_steps"] += steps
            c["fw.direct_useful_steps"] += steps
        elif hasattr(exc, "node"):
            # steps up to the node that lost finiteness were computed, then
            # thrown away with the exception
            c["fw.direct_steps"] += exc.node
            c["fw.direct_blowups"] += 1

    def _count_fw_scheme(self, args, kwargs, out, exc):
        c = self.counts[self._rep]
        c["fw.scheme_calls"] += 1
        if out is not None:
            c["fw.scheme_iterates"] += out.n_max

    def _count_harness_run(self, args, kwargs, out, exc):
        pass

    def _count_harness_write(self, args, kwargs, out, exc):
        if out is None:
            return
        report = args[0]
        self.counts[self._rep]["harness.csv_bytes"] += sum(
            (Path(out) / f"{name}.csv").stat().st_size for name in report.tables
        )

    @contextmanager
    def active(self, rep: int):
        """Trace one repetition: patch every binding, restore on exit."""
        self._rep = rep
        self.counts[rep] = Counter()
        originals = {id(fn): self._wrap(lid, fn) for lid, _, _, fn in self._targets}
        patches = []
        for _, owner, attr, fn in self._targets:
            patches.append((owner, attr, fn))
            setattr(owner, attr, originals[id(fn)])
        # functions imported by name into other fwlab modules
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "fwlab" or mod_name.startswith("fwlab.")):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None:
                    patches.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
        try:
            yield self
        finally:
            for owner, attr, fn in reversed(patches):
                setattr(owner, attr, fn)
            self._rep = -1

    # -- results ------------------------------------------------------------

    def _arrays(self):
        return (np.array(self.kind, dtype=np.int8), np.array(self.start),
                np.array(self.end), np.array(self.parent, dtype=np.int64),
                np.array(self.rep, dtype=np.int64))

    def rep_metrics(self, rep: int) -> dict[str, float]:
        """Per-layer metrics of one traced repetition."""
        kind, start, end, parent, reps = self._arrays()
        dur = end - start
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent],
                                 minlength=dur.size)
        self_time = dur - child_time
        mine = reps == rep
        busy, own = {}, {}
        for lid, name in enumerate(self.layer_names):
            sel = mine & (kind == lid)
            busy[name] = float(dur[sel].sum())
            own[name] = float(self_time[sel].sum())
        c = self.counts.get(rep, Counter())

        def ratio(a, b, scale=1.0):
            return scale * a / b if b else 0.0

        m = {
            "fft.calls": c["fft.calls"],
            "fft.rows": c["fft.rows"],
            "fft.rows_per_call": ratio(c["fft.rows"], c["fft.calls"]),
            "fft.self_s": own["fft"],
            "fft.bytes_computed": c["fft.bytes_computed"],
            "besov.norm_calls": c["besov.norm_calls"],
            "besov.norm_rows": c["besov.norm_rows"],
            "besov.busy_s": busy["besov"],
            "besov.self_s": own["besov"],
            "transport.solve_calls": c["transport.solve_calls"],
            "transport.row_steps": c["transport.row_steps"],
            "transport.busy_s": busy["transport"],
            "transport.self_s": own["transport"],
            "transport.step_us": ratio(busy["transport"], c["transport.row_steps"], 1e6),
            "transport.blowups": c["transport.blowups"],
            "fw.direct_calls": c["fw.direct_calls"],
            "fw.direct_steps": c["fw.direct_steps"],
            "fw.direct_busy_s": busy["fw.direct"],
            "fw.direct_self_s": own["fw.direct"],
            "fw.direct_step_us": ratio(busy["fw.direct"], c["fw.direct_steps"], 1e6),
            "fw.direct_blowups": c["fw.direct_blowups"],
            "fw.direct_useful_step_ratio": ratio(c["fw.direct_useful_steps"], c["fw.direct_steps"]),
            "fw.scheme_calls": c["fw.scheme_calls"],
            "fw.scheme_busy_s": busy["fw.scheme"],
            "fw.scheme_self_s": own["fw.scheme"],
            "fw.scheme_iterate_s": ratio(busy["fw.scheme"], c["fw.scheme_iterates"]),
            "harness.run_s": busy["harness.run"],
            "harness.write_s": busy["harness.write"],
            "harness.csv_bytes": c["harness.csv_bytes"],
            "harness.self_s": own["harness.run"] + own["harness.write"],
        }
        return m

    def count_mismatches(self, rep: int, first: int) -> list[str]:
        """Names of exact counts that differ between two repetitions."""
        a, b = self.counts.get(rep, Counter()), self.counts.get(first, Counter())
        return [k for k in EXACT_COUNTS if a[k] != b[k]]

    def write(self, path: Path) -> None:
        """Write every span as columns of an .npz file."""
        kind, start, end, parent, rep = self._arrays()
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, layer_names=np.array(self.layer_names), kind=kind,
                 start=start, end=end, parent=parent, rep=rep)


def summarize(per_rep: list[dict[str, float]]) -> dict[str, float]:
    """Median over repetitions of each per-layer metric; a count that
    repeats exactly is reported as it is."""
    out = {}
    for key in per_rep[0]:
        values = [m[key] for m in per_rep]
        out[key] = values[0] if len(set(values)) == 1 else statistics.median(values)
    return out
