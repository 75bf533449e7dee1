import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import fwlab

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(fwlab.__path__))
SOURCES = sorted(p for p in Path(fwlab.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


@pytest.mark.parametrize("module_name", ["fwlab"] + [f"fwlab.{m}" for m in SUBMODULES])
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    # cli.py, the command-line entry point, exports nothing
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ names undefined {missing}"


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [name for name in _imported_names(tree) if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def _names(tree):
    """Every name a module reads, imports or takes as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
    yield from _imported_names(tree)


def _fields_beside_grids(tree):
    """The functions of one module that take a GridFunction, as an argument
    or as self, and also an LPPartition or a Grid, read from the annotations
    (GridFunction's constructors take a grid and no field)."""
    methods = {fn: cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
               for fn in cls.body}
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = fn.args
        given = [set(_names(arg.annotation)) for arg in
                 a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
                 if arg is not None and arg.annotation is not None]
        is_self = methods.get(fn) == "GridFunction" and a.args[:1] and a.args[0].arg == "self"
        field = is_self or any("GridFunction" in g for g in given)
        if field and any({"LPPartition", "Grid"} & g for g in given):
            yield fn.name


def test_no_partition_or_grid_beside_a_field():
    # a field carries its grid, and the grid fixes the partition: no
    # function takes either beside one
    found = {p.name: names for p in SOURCES
             if (names := list(_fields_beside_grids(ast.parse(p.read_text()))))}
    assert not found, f"functions taking a partition or grid beside a field: {found}"


def test_block_norms_named_only_in_besov():
    # the Besov reduction is assembled in one place, besov._norms: no other
    # module takes the block norms and combines them itself
    naming = [p.name for p in SOURCES if p.name != "besov.py"
              and "_block_lp_norms" in _names(ast.parse(p.read_text()))]
    assert not naming, f"modules naming besov._block_lp_norms: {naming}"


def test_norm_rows_per_call_decided_only_in_besov():
    # how many rows one norm call takes is one rule, besov._nodes_per_call:
    # only besov names its row budgets, every caller that batches norm rows
    # asks the rule, and the lifespan sweep's screened nodes size nothing else
    trees = {p.name: ast.parse(p.read_text()) for p in SOURCES}
    naming = sorted(name for name, tree in trees.items() if name != "besov.py"
                    and {"_NORM_CHUNK", "_GENERAL_P_CHUNK"} & set(_names(tree)))
    assert not naming, f"modules naming besov's row budgets: {naming}"
    functions = {(name, node.name): node for name, tree in trees.items()
                 for node in tree.body if isinstance(node, ast.FunctionDef)}
    for key in [("besov.py", "besov_norms_of_samples"), ("fw.py", "run_scheme"),
                ("fw.py", "_scheme_bytes"), ("fw.py", "_member_distances"),
                ("harness.py", "_run_simulate")]:
        assert "_nodes_per_call" in set(_names(functions[key])), f"{key} sizes its own calls"
    screening = sorted(key for key, fn in functions.items() if "_SCREENED_NODES" in set(_names(fn)))
    assert screening == [("fw.py", "_lifespans")], f"_SCREENED_NODES read in {screening}"


def test_fw_measures_pairs_only_through_pair_norms():
    # a pair of the direct system, P0 included, is measured in B^s x B^{s-1}
    # by fw._pair_norms, the measure of every march node, and not by a
    # full-spectrum entry point of besov
    tree = ast.parse((Path(fwlab.__file__).parent / "fw.py").read_text())
    named = sorted({"besov_norms_batch", "besov_norm"} & set(_names(tree)))
    assert not named, f"fw.py names {named}"


@pytest.mark.parametrize("name", ["besov.py", "fw.py", "transport.py"])
def test_kernels_invert_real_fields_with_irfft(name):
    # the solvers' and the norms' fields are real: each inverse transform
    # there is an irfft of a half spectrum, never a full-spectrum
    # ifft(...).real; and the direct march and the scheme take no full
    # forward transform either, nor the scheme an rfft of its march
    tree = ast.parse((Path(fwlab.__file__).parent / name).read_text())
    names = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    names |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    imported = set(_imported_names(tree))
    assert "ifft" not in names | imported, f"{name} calls ifft"
    if name == "fw.py":
        full = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                and node.attr == "fft" and isinstance(node.value, ast.Attribute)
                and node.value.attr == "fft"]
        assert not full and "fft" not in imported, f"fw.py calls np.fft.fft on lines {full}"
        # the scheme's wave march carries half spectra: its loop transforms
        # no march state back to spectra
        scheme = next(node for node in tree.body
                      if isinstance(node, ast.FunctionDef) and node.name == "_march_scheme")
        loops = [node for node in ast.walk(scheme) if isinstance(node, ast.For)]
        back = [node.lineno for loop in loops for node in ast.walk(loop)
                if isinstance(node, ast.Attribute) and node.attr == "rfft"]
        assert loops and not back, f"_march_scheme's wave loop calls rfft on lines {back}"


def _private_definitions(tree):
    """Module-level private functions, classes and constants of one module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        yield from (n for n in names if n.startswith("_") and not n.startswith("__"))


def test_no_unreferenced_private_names():
    # what a deletion leaves behind: a private helper or constant that
    # nothing in the package reads any more
    trees = [ast.parse(p.read_text()) for p in Path(fwlab.__file__).parent.glob("*.py")]
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unread = sorted(name for tree in trees for name in _private_definitions(tree)
                    if name not in read)
    assert not unread, f"private names defined but never read in fwlab: {unread}"


def test_benchmark_tracer_resolves_every_entry_point():
    # the benchmark wraps its entry points by name, and Tracer() raises
    # MissingEntryPoint when one is gone: a rename fails here too
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    tracer.Tracer()


def test_one_rk4_stepper_and_a_lifespan_sweep_that_does_not_restart():
    # the RK4 stage arithmetic, marked by its weight dt/6, is written once,
    # in transport._rk4_step; the lifespan sweep and the scheme's wave march,
    # _march_scheme, step through it, each in one loop, neither starting a
    # second march nor catching a blow-up
    trees = {p.name: ast.parse(p.read_text()) for p in SOURCES}
    staging = sorted((name, fn.name) for name, tree in trees.items()
                     for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
                     and any(isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
                             and isinstance(node.right, ast.Constant) and node.right.value == 6
                             for node in ast.walk(fn)))
    assert staging == [("transport.py", "_rk4_step")], f"RK4 stages written in {staging}"
    for name in ("_lifespans", "_march_scheme"):
        loop = next(node for node in trees["fw.py"].body
                    if isinstance(node, ast.FunctionDef) and node.name == name)
        marches = [node.lineno for node in ast.walk(loop) if isinstance(node, ast.Call)
                   and "integrate_rk4" in _names(node.func)]
        catches = [node.lineno for node in ast.walk(loop) if isinstance(node, ast.ExceptHandler)
                   and node.type is not None and "BlowUpError" in _names(node.type)]
        assert not marches, f"{name} calls integrate_rk4 on lines {marches}"
        assert not catches, f"{name} catches BlowUpError on lines {catches}"


def test_members_grouped_only_by_member_distances():
    # the stability and continuity families march each distinct member once,
    # and fw._member_distances is the one place that groups them: neither
    # experiment dedupes its members or marches them itself
    tree = ast.parse((Path(fwlab.__file__).parent / "fw.py").read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    grouping = sorted(name for name, fn in functions.items()
                      if {"tobytes", "unique"} & set(_names(fn)))
    assert grouping == ["_member_distances"], f"fw.py groups members in {grouping}"
    for name in ("stability_experiment", "continuity_experiment"):
        named = sorted({"unique", "_march_fw"} & set(_names(functions[name])))
        assert not named, f"{name} names {named}"
        assert "_member_distances" in set(_names(functions[name]))


def test_csv_written_only_by_write_csv():
    # every CSV, a report table or a field, is one float array written by
    # harness._write_csv: no other function builds a csv.writer
    def writers(tree):
        return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                and node.attr == "writer" and isinstance(node.value, ast.Name)
                and node.value.id == "csv"]

    trees = {p.name: ast.parse(p.read_text()) for p in SOURCES}
    named = {name: writers(tree) for name, tree in trees.items() if writers(tree)}
    imported = sorted(name for name, tree in trees.items()
                      if "writer" in set(_imported_names(tree)))
    write_csv = next(node for node in trees["harness.py"].body
                     if isinstance(node, ast.FunctionDef) and node.name == "_write_csv")
    assert not imported, f"modules importing csv.writer by name: {imported}"
    assert named == {"harness.py": writers(write_csv)} and len(writers(write_csv)) == 1, (
        f"csv.writer named in {named}")


def test_direct_march_steps_one_in_place_kernel():
    # the direct right-hand side is one kernel, fw._fw_rhs, which works in
    # the workspace of fw._direct_rhs: it joins no arrays, only _direct_rhs
    # calls it, and fw_rhs and every direct march step through _direct_rhs
    # and name no second kernel
    tree = ast.parse((Path(fwlab.__file__).parent / "fw.py").read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    joins = sorted({"concatenate", "stack", "hstack", "vstack", "append"}
                   & set(_names(functions["_fw_rhs"])))
    assert not joins, f"_fw_rhs names {joins}"
    callers = sorted(name for name, fn in functions.items()
                     if name != "_fw_rhs" and "_fw_rhs" in _names(fn))
    assert callers == ["_direct_rhs"], f"_fw_rhs called in {callers}"
    kernels = {"_direct_rhs", "_fw_rhs", "_transport_rhs", "_scheme_forcing"}
    for name in ("fw_rhs", "_march_fw", "_lifespans"):
        named = sorted(kernels & set(_names(functions[name])))
        assert named == ["_direct_rhs"], f"{name} names {named}"
    for name in ("solve_fw_direct", "_member_distances"):  # through _march_fw
        named = sorted(kernels & set(_names(functions[name])))
        assert not named and "_march_fw" in set(_names(functions[name])), (
            f"{name} names {named}")


def test_transport_march_steps_one_in_place_kernel():
    # the transport right-hand side is one kernel, transport._transport_rhs,
    # which works in a workspace per march and joins no arrays; its second
    # half, _advection, is the one place the advection is written.  Only
    # _march_transport and the scheme's wave march, _march_scheme, step
    # through the kernel, and the wave's loop joins no arrays and inverts
    # the wave once per node
    trees = {name: ast.parse((Path(fwlab.__file__).parent / name).read_text())
             for name in ("transport.py", "fw.py")}
    functions = {(name, node.name): node for name, tree in trees.items()
                 for node in tree.body if isinstance(node, ast.FunctionDef)}
    joins = {"concatenate", "stack", "hstack", "vstack", "append"}
    for key in [("transport.py", "_transport_rhs"), ("transport.py", "_advection")]:
        named = sorted(joins & set(_names(functions[key])))
        assert not named, f"{key} names {named}"
    for kernel, want in [("_transport_rhs", [("fw.py", "_march_scheme"),
                                             ("transport.py", "_march_transport")]),
                         ("_advection", [("fw.py", "_march_scheme"),
                                         ("transport.py", "_transport_rhs")])]:
        callers = sorted(key for key, fn in functions.items()
                         if key[1] != kernel and kernel in set(_names(fn)))
        assert callers == want, f"{kernel} called in {callers}"
    loop = next(node for node in ast.walk(functions[("fw.py", "_march_scheme")])
                if isinstance(node, ast.For))
    named = sorted(joins & set(_names(loop)))
    assert not named, f"_march_scheme's wave loop names {named}"
    inverses = [node.lineno for node in ast.walk(loop) if isinstance(node, ast.Attribute)
                and node.attr == "irfft"]
    assert len(inverses) == 1, f"_march_scheme's wave loop calls irfft on lines {inverses}"


def test_scheme_measures_what_its_march_yields():
    # the scheme's wave is one march, fw._march_scheme, which steps, checks
    # and inverts and measures nothing; run_scheme consumes it and only
    # measures: it names no kernel, no step, no transform and no check of
    # the march, and the march names no norm
    tree = ast.parse((Path(fwlab.__file__).parent / "fw.py").read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    marching = {"_rk4_step", "_transport_rhs", "_advection", "_scheme_forcing",
                "_cfl_violation", "irfft", "rfft"}
    named = sorted(marching & set(_names(functions["run_scheme"])))
    assert not named, f"run_scheme names {named}"
    assert "_march_scheme" in set(_names(functions["run_scheme"]))
    measuring = sorted({"_norms", "_pair_norms", "_norm_bounds"}
                       & set(_names(functions["_march_scheme"])))
    assert not measuring, f"_march_scheme names {measuring}"


def test_wave_norms_divided_not_their_rows():
    # run_scheme copies the half spectra its wave march yields into the
    # norm block and divides the norms by N, not the rows: its loop
    # calls no np.divide, divides nothing in place, every / in it divides a
    # _norms(...) result, and it keeps no per-node copy of the last iterate
    tree = ast.parse((Path(fwlab.__file__).parent / "fw.py").read_text())
    scheme = next(node for node in tree.body
                  if isinstance(node, ast.FunctionDef) and node.name == "run_scheme")
    loop = next(node for node in ast.walk(scheme) if isinstance(node, ast.For))
    named = sorted({"divide", "true_divide", "then"} & set(_names(loop)))
    assert not named, f"run_scheme's norm loop names {named}"
    in_place = [node.lineno for node in ast.walk(loop) if isinstance(node, ast.AugAssign)
                and isinstance(node.op, (ast.Div, ast.FloorDiv))]
    assert not in_place, f"run_scheme's norm loop divides in place on lines {in_place}"
    divided = [node.lineno for node in ast.walk(loop) if isinstance(node, ast.BinOp)
               and isinstance(node.op, (ast.Div, ast.FloorDiv))
               and not (isinstance(node.left, ast.Call) and isinstance(node.left.func, ast.Name)
                        and node.left.func.id == "_norms")]
    assert not divided, f"run_scheme's norm loop divides rows on lines {divided}"


def test_pairs_become_samples_only_in_stacked():
    # fw._stacked is the one place a (u, rho) pair becomes samples and the
    # one place its grid is checked: outside it, no list or tuple display in
    # fw or harness holds two fields' samples, and no function raises the
    # one-grid error
    def displays(tree):
        return [node for node in ast.walk(tree) if isinstance(node, (ast.List, ast.Tuple))
                and sum(isinstance(n, ast.Attribute) and n.attr == "samples"
                        for n in ast.walk(node)) >= 2]

    def grid_checks(tree):
        return [node for node in ast.walk(tree) if isinstance(node, ast.Constant)
                and node.value == "u0 and rho0 must share one grid"]

    trees = {name: ast.parse((Path(fwlab.__file__).parent / name).read_text())
             for name in ("fw.py", "harness.py")}
    stacked = next(node for node in trees["fw.py"].body
                   if isinstance(node, ast.FunctionDef) and node.name == "_stacked")
    inside = {id(node) for node in ast.walk(stacked)}
    assert displays(stacked) and len(grid_checks(stacked)) == 1
    for name, tree in trees.items():
        held = [node.lineno for node in displays(tree) if id(node) not in inside]
        checked = [node.lineno for node in grid_checks(tree) if id(node) not in inside]
        assert not held, f"{name} stacks a pair's samples on lines {held}"
        assert not checked, f"{name} checks a pair's grid on lines {checked}"
